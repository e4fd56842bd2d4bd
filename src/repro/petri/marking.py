"""Immutable markings.

A :class:`Marking` assigns a token count to every place of a net.  It is
immutable and hashable so it can serve directly as a state in reachability
graphs, CTMCs and MRGP kernels.  Token counts are accessed by place name::

    marking["Pmh"]          # token count
    marking.get("Pac", 0)

Derived markings are produced with :meth:`Marking.after`, which applies a
delta mapping without mutating the original.
"""

from __future__ import annotations

from collections.abc import Iterator, Mapping

from repro.errors import ModelDefinitionError


class Marking(Mapping[str, int]):
    """Token assignment for a fixed, ordered set of places.

    Instances share the place-index mapping of the net that created them,
    storing only a tuple of counts; this keeps large state spaces compact
    and makes equality/hash checks O(#places) tuple operations.
    """

    __slots__ = ("_counts", "_index")

    def __init__(self, index: Mapping[str, int], counts: tuple[int, ...]) -> None:
        if len(index) != len(counts):
            raise ModelDefinitionError(
                f"marking has {len(counts)} counts for {len(index)} places"
            )
        self._index = index
        self._counts = counts

    @classmethod
    def from_dict(cls, index: Mapping[str, int], tokens: Mapping[str, int]) -> "Marking":
        """Build a marking from a (possibly partial) place→tokens mapping."""
        counts = [0] * len(index)
        for name, value in tokens.items():
            if name not in index:
                raise ModelDefinitionError(f"unknown place {name!r} in marking")
            if value < 0:
                raise ModelDefinitionError(f"negative token count for place {name!r}")
            counts[index[name]] = int(value)
        return cls(index, tuple(counts))

    @property
    def counts(self) -> tuple[int, ...]:
        """Raw token counts in place-index order."""
        return self._counts

    @property
    def place_index(self) -> Mapping[str, int]:
        """The name→position mapping :attr:`counts` is ordered by."""
        return self._index

    def __getitem__(self, name: str) -> int:
        return self._counts[self._index[name]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __hash__(self) -> int:
        return hash(self._counts)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Marking):
            return self._counts == other._counts and self._index is other._index or (
                self._counts == other._counts and dict(self._index) == dict(other._index)
            )
        return NotImplemented

    def after(self, delta: Mapping[str, int]) -> "Marking":
        """Return a new marking with ``delta`` added to the token counts.

        Raises
        ------
        ModelDefinitionError
            If any resulting count would be negative.
        """
        counts = list(self._counts)
        for name, change in delta.items():
            position = self._index[name]
            counts[position] += change
            if counts[position] < 0:
                raise ModelDefinitionError(
                    f"firing would drive place {name!r} to {counts[position]} tokens"
                )
        return Marking(self._index, tuple(counts))

    def total_tokens(self) -> int:
        """Sum of tokens over all places."""
        return sum(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(
            f"{name}={self._counts[i]}" for name, i in self._index.items() if self._counts[i]
        )
        return f"Marking({inner})"

    def compact(self) -> str:
        """Stable compact rendering, e.g. ``"Pmh=4 Pmc=1"`` (non-zero only)."""
        parts = [
            f"{name}={self._counts[i]}"
            for name, i in self._index.items()
            if self._counts[i]
        ]
        return " ".join(parts) if parts else "<empty>"
