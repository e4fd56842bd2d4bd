"""The CTMC of an exponential-only net.

:func:`build_ctmc` wraps the CSR generator of
:mod:`repro.dspn.sparse_builder` in a :class:`~repro.markov.ctmc.CTMC`
for the time-domain metrics.
"""

from __future__ import annotations

from repro.dspn.sparse_builder import sparse_generator
from repro.markov.ctmc import CTMC
from repro.statespace.graph import TangibleGraph


def build_ctmc(graph: TangibleGraph) -> CTMC:
    """The CTMC of a net with no deterministic behaviour, on its CSR generator.

    Raises
    ------
    UnsupportedModelError
        If any tangible marking enables a deterministic transition (use
        the MRGP builder instead).
    """
    return CTMC(sparse_generator(graph))
