"""The sweep-execution engine: content-addressed solver caching and
deterministic parallel fan-out for parameter sweeps.

Every figure and ablation of the paper re-solves a structurally similar
DSPN per grid point.  This package makes that hot path fast twice over —
memoizing steady-state solutions keyed by a canonical net fingerprint
(:mod:`repro.engine.hashing`, :mod:`repro.engine.cache`) and spreading
grid points over worker processes with byte-identical, ordered results
(:mod:`repro.engine.sweep`) — while the differential harness in
``tests/engine/`` pins cached == uncached, parallel == serial and
CTMC == MRGP across the whole experiment registry.
"""

from repro.engine.cache import (
    SolverCache,
    StructureTier,
    active_cache,
    cache_override,
    cache_settings,
    configure_cache,
    default_cache_directory,
)
from repro.engine.hashing import (
    NetDigests,
    net_digests,
    net_fingerprint,
    probe_markings,
    reliability_fingerprint,
    reward_cache_key,
    solver_cache_key,
)
from repro.engine.sweep import SweepPlan, chunk_points, resolve_jobs, sweep
from repro.engine.sweep import run_captured

__all__ = [
    "NetDigests",
    "SolverCache",
    "StructureTier",
    "SweepPlan",
    "active_cache",
    "cache_override",
    "cache_settings",
    "chunk_points",
    "configure_cache",
    "default_cache_directory",
    "net_digests",
    "net_fingerprint",
    "probe_markings",
    "reliability_fingerprint",
    "resolve_jobs",
    "reward_cache_key",
    "run_captured",
    "solver_cache_key",
    "sweep",
]
