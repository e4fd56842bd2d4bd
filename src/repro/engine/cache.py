"""Memoization of steady-state solutions and of net structures.

Two storage tiers, both keyed by :func:`repro.engine.hashing.solver_cache_key`:

* an in-memory LRU (always available, per process), and
* an optional content-verified on-disk store (shared across processes
  and runs) under ``~/.cache/repro`` or ``$REPRO_CACHE_DIR``.

Beside them, each cache holds a memory-only :class:`StructureTier`:
rate-free tangible graphs keyed by the structure digest of
:func:`repro.engine.hashing.net_digests` and ``max_states``, so a net
that differs from an earlier one only in its rates and delays is
re-stamped instead of re-explored (see ``docs/ENGINE.md``).

Disk entries are a 64-hex-character SHA-256 digest line followed by the
pickled payload.  The digest is recomputed on every load; a mismatch —
truncation, bit rot, or deliberate tampering — makes the entry a miss,
deletes the file and falls through to recomputation.  A wrong cache hit
would silently corrupt every downstream number, so the store refuses to
trust anything it cannot verify.

The process-wide default cache is controlled by :func:`configure_cache`
(wired to the CLI ``--cache`` / ``--no-cache`` flags) and consulted by
:func:`repro.dspn.steady_state.solve_steady_state`.  The sweep executor
snapshots the active settings with :func:`cache_settings` and replays
them inside worker processes, so parallel runs honour the same policy.
"""

from __future__ import annotations

import hashlib
import logging
import os
import pickle
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path
from typing import Any

from repro.obs import counter
from repro.obs.events import emit as emit_event
from repro.statespace.graph import TangibleStructure

DEFAULT_MAXSIZE = 256

#: Stored states plus successor pairs the structure tier holds at most
#: (roughly 100 bytes each on the perception nets, markings included,
#: so about 100 MiB at the bound).
STRUCTURE_BUDGET = 1_000_000

_DIGEST_LENGTH = 64  # hex characters of SHA-256

_logger = logging.getLogger("repro.engine.cache")


def default_cache_directory() -> Path:
    """``$REPRO_CACHE_DIR`` or ``~/.cache/repro``."""
    override = os.environ.get("REPRO_CACHE_DIR")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro"


class StructureTier:
    """Rate-free tangible graphs, an LRU bounded by their total size.

    Keys are ``(structure digest, max_states)``; a structure's size is
    its states plus successor pairs (:attr:`TangibleStructure.size`).
    Only explorations that finished are stored, so a state-space
    overflow is never remembered.
    """

    def __init__(self, budget: int = STRUCTURE_BUDGET) -> None:
        self.budget = budget
        self._entries: OrderedDict[tuple[str, int], TangibleStructure] = OrderedDict()
        self._size = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: tuple[str, int]) -> TangibleStructure | None:
        structure = self._entries.get(key)
        if structure is None:
            self.misses += 1
            counter("engine.structure.misses").inc()
            emit_event("cache.miss", lookup="structure")
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        counter("engine.structure.hits").inc()
        emit_event("cache.hit", lookup="structure", tier="memory")
        return structure

    def put(self, key: tuple[str, int], structure: TangibleStructure) -> None:
        if key in self._entries or structure.size > self.budget:
            return
        self._entries[key] = structure
        self._size += structure.size
        while self._size > self.budget:
            _, evicted = self._entries.popitem(last=False)
            self._size -= evicted.size
            self.evictions += 1
            counter("engine.structure.evictions").inc()

    def clear(self) -> None:
        self._entries.clear()
        self._size = 0


class SolverCache:
    """An in-memory LRU with an optional verified on-disk second tier,
    and the memory-only :class:`StructureTier` as :attr:`structures`."""

    def __init__(
        self,
        *,
        maxsize: int = DEFAULT_MAXSIZE,
        directory: Path | str | None = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self.maxsize = maxsize
        self.directory = Path(directory) if directory is not None else None
        self._entries: OrderedDict[str, Any] = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.disk_hits = 0
        self.rejected = 0  # disk entries dropped: corrupt digest or payload
        self.evictions = 0  # in-memory entries displaced by the LRU bound
        self.collisions_prevented = 0  # concurrent publishes of one key
        self.structures = StructureTier()

    # -- in-memory tier -------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: str, lookup: str = "solution") -> Any | None:
        """The cached value for ``key``, or None (counts hit/miss stats).

        ``lookup`` names what is looked up — ``solution`` (a steady
        state) or ``reward`` (an E[R]) — in the ``cache.*`` events.
        """
        if key in self._entries:
            self._entries.move_to_end(key)
            self.hits += 1
            counter("engine.cache.hits").inc()
            emit_event("cache.hit", lookup=lookup, tier="memory")
            return self._entries[key]
        value = self._load_from_disk(key)
        if value is not None:
            self._remember(key, value)
            self.hits += 1
            self.disk_hits += 1
            counter("engine.cache.hits").inc()
            counter("engine.cache.disk_hits").inc()
            emit_event("cache.hit", lookup=lookup, tier="disk")
            return value
        self.misses += 1
        counter("engine.cache.misses").inc()
        emit_event("cache.miss", lookup=lookup)
        return None

    def put(self, key: str, value: Any) -> None:
        """Store ``value`` in memory (and on disk when configured)."""
        self._remember(key, value)
        if self.directory is not None:
            self._store_to_disk(key, value)

    def _remember(self, key: str, value: Any) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)
            self.evictions += 1
            counter("engine.cache.evictions").inc()

    def clear(self, *, disk: bool = False) -> None:
        """Drop the in-memory tiers (and the disk tier with ``disk=True``)."""
        self._entries.clear()
        self.structures.clear()
        if disk and self.directory is not None and self.directory.exists():
            for path in self.directory.glob("*/*.pkl"):
                path.unlink(missing_ok=True)

    # -- disk tier ------------------------------------------------------
    def _path_for(self, key: str) -> Path:
        # shard by prefix so a big store doesn't degrade into one huge dir
        return self.directory / key[:2] / f"{key}.pkl"

    def _store_to_disk(self, key: str, value: Any) -> None:
        payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
        digest = hashlib.sha256(payload).hexdigest().encode()
        path = self._path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        # atomic publish: concurrent workers may race on the same key
        descriptor, temporary = tempfile.mkstemp(
            dir=path.parent, prefix=f".{key[:8]}-", suffix=".tmp"
        )
        try:
            with os.fdopen(descriptor, "wb") as handle:
                handle.write(digest + b"\n" + payload)
            if path.exists():
                # Another worker published this key between our miss and
                # now.  os.replace still swaps whole files, so no reader
                # can observe a torn entry — count the collision the
                # temp-file dance just absorbed.
                self.collisions_prevented += 1
                counter("engine.cache.collisions_prevented").inc()
            os.replace(temporary, path)
        except BaseException:
            os.unlink(temporary)
            raise

    def _load_from_disk(self, key: str) -> Any | None:
        if self.directory is None:
            return None
        path = self._path_for(key)
        try:
            raw = path.read_bytes()
        except OSError:
            return None
        digest, newline, payload = (
            raw[:_DIGEST_LENGTH],
            raw[_DIGEST_LENGTH : _DIGEST_LENGTH + 1],
            raw[_DIGEST_LENGTH + 1 :],
        )
        if (
            newline != b"\n"
            or hashlib.sha256(payload).hexdigest().encode() != digest
        ):
            self._reject(path, "digest mismatch")
            return None
        try:
            return pickle.loads(payload)
        except Exception:
            self._reject(path, "undecodable payload")
            return None

    def _reject(self, path: Path, reason: str) -> None:
        """Drop a corrupt/tampered disk entry: count, warn, remove.

        Rejections are never silent — a corrupt store that keeps
        recomputing looks identical to a cold one unless it says so.
        """
        self.rejected += 1
        counter("engine.cache.rejected").inc()
        emit_event("cache.reject", reason=reason)
        _logger.warning(
            "discarding corrupt solver-cache entry %s (%s); recomputing",
            path,
            reason,
        )
        path.unlink(missing_ok=True)

    def stats(self) -> dict[str, int]:
        """Counters for diagnostics and benchmarks."""
        return {
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "disk_hits": self.disk_hits,
            "rejected": self.rejected,
            "evictions": self.evictions,
            "collisions_prevented": self.collisions_prevented,
        }


# ----------------------------------------------------------------------
# process-wide default cache
# ----------------------------------------------------------------------
_enabled: bool = True
_directory: Path | None = None
_maxsize: int = DEFAULT_MAXSIZE
_cache: SolverCache | None = None


#: Sentinel distinguishing "keep the current directory" from "memory only".
_KEEP = object()


def configure_cache(
    *,
    enabled: bool | None = None,
    directory: "Path | str | None | object" = _KEEP,
    maxsize: int | None = None,
) -> None:
    """Reconfigure the process-wide solver cache.

    ``enabled=False`` turns memoization off entirely, the structure tier
    included; ``directory`` (None = memory only) adds the on-disk tier;
    ``maxsize`` bounds the in-memory LRU.  Omitted arguments keep their
    current value.  Any change discards the current in-memory entries
    and structures.
    """
    global _enabled, _directory, _maxsize, _cache
    if enabled is not None:
        _enabled = enabled
    if directory is not _KEEP:
        _directory = Path(directory) if directory is not None else None
    if maxsize is not None:
        _maxsize = maxsize
    _cache = None


def active_cache() -> SolverCache | None:
    """The default cache, or None when caching is disabled."""
    global _cache
    if not _enabled:
        return None
    if _cache is None:
        _cache = SolverCache(maxsize=_maxsize, directory=_directory)
    return _cache


def cache_settings() -> dict[str, Any]:
    """Picklable snapshot of the active policy (for worker processes)."""
    return {
        "enabled": _enabled,
        "directory": str(_directory) if _directory is not None else None,
        "maxsize": _maxsize,
    }


@contextmanager
def cache_override(
    *,
    enabled: bool | None = None,
    directory: "Path | str | None | object" = _KEEP,
    maxsize: int | None = None,
):
    """Temporarily reconfigure the default cache (tests, benchmarks)."""
    saved = (_enabled, _directory, _maxsize)
    configure_cache(enabled=enabled, directory=directory, maxsize=maxsize)
    try:
        yield active_cache()
    finally:
        configure_cache(enabled=saved[0], directory=saved[1], maxsize=saved[2])
