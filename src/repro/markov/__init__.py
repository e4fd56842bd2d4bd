"""Markov-process substrate: CTMCs, DTMCs and Markov-regenerative processes.

This package is self-contained (numpy/scipy only) and independent of the
Petri net layer; :mod:`repro.dspn` builds the matrices from reachability
graphs and delegates the numerics here.

* :class:`~repro.markov.ctmc.CTMC` — continuous-time Markov chains held
  as a CSR generator: stationary distribution, transient and accumulated
  rewards via uniformization, absorption; first-passage times
  (:mod:`~repro.markov.first_passage`, exact to roundoff) run on the
  same CSR matrix.
* :class:`~repro.markov.dtmc.DTMC` — discrete-time chains: stationary
  distribution, absorption analysis.
* :func:`~repro.markov.mrgp.solve_mrgp` — steady-state solution of a
  Markov-regenerative process given its global kernel and local
  sojourn-time matrix (the Markov renewal theorem).
* :mod:`~repro.markov.linear` — the anchored stationary solve every
  route shares (recurrent class, pinned anchor state, LAPACK / SuperLU /
  ILU-GMRES chosen by structural fill), and its transposed solve for
  the Poisson equation of the reward gradient.
* :mod:`~repro.markov.sparse` — CSR stationary solves and sparse
  uniformization, with solve provenance (:class:`SparseSolveInfo`)
  feeding the numerical certificates; :class:`CTMC` delegates to them.
"""

from repro.markov.ctmc import CTMC
from repro.markov.dtmc import DTMC
from repro.markov.first_passage import (
    hitting_probability_by,
    mean_hitting_times,
    mean_time_to_hit,
    mean_time_to_predicate,
)
from repro.markov.mrgp import MRGPResult, solve_mrgp
from repro.markov.sparse import (
    SPARSE_SOLVERS,
    SparseSolveInfo,
    check_sparse_generator,
    stationary_distribution_sparse,
    transient_distribution_sparse,
)
from repro.markov.uniformization import (
    expm_and_integral,
    uniformized_series,
)

__all__ = [
    "CTMC",
    "DTMC",
    "MRGPResult",
    "SPARSE_SOLVERS",
    "SparseSolveInfo",
    "check_sparse_generator",
    "expm_and_integral",
    "hitting_probability_by",
    "mean_hitting_times",
    "mean_time_to_hit",
    "mean_time_to_predicate",
    "solve_mrgp",
    "stationary_distribution_sparse",
    "transient_distribution_sparse",
    "uniformized_series",
]
