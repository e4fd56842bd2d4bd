"""Build a dense CTMC from the tangible graph of an exponential-only net.

The steady-state and transient solvers run on the CSR generator of
:mod:`repro.dspn.sparse_builder`; the dense :class:`~repro.markov.ctmc.CTMC`
built here serves generator sensitivities and user-built dense chains.
"""

from __future__ import annotations

import numpy as np

from repro.errors import UnsupportedModelError
from repro.markov.ctmc import CTMC
from repro.obs import span
from repro.statespace.graph import TangibleGraph


def generator_derivative(graph: TangibleGraph, transition: str) -> np.ndarray:
    """``dQ/dθ`` for the base rate θ of one exponential transition.

    Valid when the transition's rate enters every edge linearly (constant
    rate, single-server semantics — true for the perception models):
    then ``dQ/dθ`` is the 0/1-weighted incidence pattern of that
    transition's edges, with diagonal compensation.  Feed the result to
    :mod:`repro.markov.sensitivity` for exact reward sensitivities.
    """
    n = graph.n_states
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
    pairs = chosen[structure.target_edge]
    derivative = _scatter(
        n,
        structure.pair_source[pairs],
        structure.target[pairs],
        structure.probability[pairs],
    )
    np.fill_diagonal(derivative, -derivative.sum(axis=1))
    return derivative


def _scatter(
    n: int, rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Dense ``(n, n)`` sums of ``values`` at ``(rows, cols)``, self-loops dropped."""
    visible = rows != cols  # invisible self-loops do not affect the CTMC
    return dense_sums((n, n), rows[visible], cols[visible], values[visible])


def dense_sums(
    shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, values: np.ndarray
) -> np.ndarray:
    """Dense array of ``values`` summed at ``(rows, cols)``.

    Each cell adds its values in input order, as a ``+=`` loop over the
    entries would, so the sums are bit-identical to that loop's.
    """
    flat = np.bincount(
        rows * shape[1] + cols, weights=values, minlength=shape[0] * shape[1]
    )
    return flat.astype(float, copy=False).reshape(shape)


def build_ctmc(graph: TangibleGraph) -> CTMC:
    """Construct the CTMC of a net with no deterministic behaviour.

    Exponential edges whose vanishing resolution splits over several
    tangible targets contribute ``rate * probability`` to each target.

    Raises
    ------
    UnsupportedModelError
        If any tangible marking enables a deterministic transition (use
        the MRGP builder instead).
    """
    if graph.has_deterministic():
        raise UnsupportedModelError(
            "the net enables deterministic transitions; build an MRGP instead"
        )
    with span("dspn.ctmc_builder", states=graph.n_states):
        n = graph.n_states
        structure = graph.structure
        generator = _scatter(
            n,
            structure.pair_source,
            structure.target,
            graph.values[structure.target_edge] * structure.probability,
        )
        np.fill_diagonal(generator, -generator.sum(axis=1))
        return CTMC(generator, states=list(range(n)))
