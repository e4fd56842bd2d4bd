"""The CTMC of an exponential-only net, and its rate derivatives.

:func:`build_ctmc` wraps the CSR generator of
:mod:`repro.dspn.sparse_builder` in a :class:`~repro.markov.ctmc.CTMC`
for the time-domain metrics; :func:`generator_derivative` gives the CSR
``dQ/dθ`` the exact sensitivities of :mod:`repro.markov.sensitivity`
need.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.dspn.sparse_builder import sparse_generator
from repro.errors import UnsupportedModelError
from repro.markov.ctmc import CTMC
from repro.statespace.graph import TangibleGraph


def generator_derivative(graph: TangibleGraph, transition: str) -> sp.csr_array:
    """CSR ``dQ/dθ`` for the base rate θ of one exponential transition.

    Valid when the transition's rate enters every edge linearly (constant
    rate, single-server semantics — true for the perception models):
    then ``dQ/dθ`` is the generator of the same graph with rate 1 on
    that transition's edges and 0 on every other edge.  Feed the result
    to :mod:`repro.markov.sensitivity` for exact reward sensitivities.

    Raises
    ------
    UnsupportedModelError
        If the transition has no exponential edge, or some tangible
        marking enables a deterministic transition.
    """
    structure = graph.structure
    chosen = np.fromiter(
        (name == transition for name in structure.edge_transition),
        dtype=bool,
        count=len(structure.edge_transition),
    )
    chosen &= ~structure.edge_deterministic
    if not chosen.any():
        raise UnsupportedModelError(
            f"transition {transition!r} contributes no exponential edge"
        )
    return sparse_generator(TangibleGraph(structure, chosen.astype(float)))


def build_ctmc(graph: TangibleGraph) -> CTMC:
    """The CTMC of a net with no deterministic behaviour, on its CSR generator.

    Raises
    ------
    UnsupportedModelError
        If any tangible marking enables a deterministic transition (use
        the MRGP builder instead).
    """
    return CTMC(sparse_generator(graph))
