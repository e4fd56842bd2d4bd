"""Build a CSR generator from a tangible reachability graph.

Vanishing-resolved exponential edges contribute ``rate * probability``
per target, invisible self-loops are dropped and the diagonal
compensates row sums.  The matrix is scattered from the graph's edge
arrays into COO triplets and finalized as CSR without ever allocating
the dense n×n array, so fleet-scale nets (tens of thousands of markings)
stay within memory proportional to the edge count.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.errors import UnsupportedModelError
from repro.obs import span
from repro.statespace.graph import TangibleGraph


def sparse_generator(graph: TangibleGraph) -> sp.csr_array:
    """CSR generator of a net with no deterministic behaviour.

    Duplicate (source, target) triplets are summed by the COO→CSR
    conversion, so parallel edges between two markings add up.

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
    with span("dspn.sparse_builder", states=graph.n_states):
        structure = graph.structure
        n = graph.n_states
        rows, cols = structure.pair_source, structure.target
        flows = graph.values[structure.target_edge] * structure.probability
        visible = rows != cols  # invisible self-loops do not affect the CTMC
        rows, cols, flows = rows[visible], cols[visible], flows[visible]
        # bincount adds each row's flows in pair order; negating the sum
        # is exact, so this equals subtracting the flows one by one
        diagonal = -np.bincount(rows, weights=flows, minlength=n)
        nonzero_diagonal = np.flatnonzero(diagonal)
        matrix = sp.coo_array(
            (
                np.concatenate([flows, diagonal[nonzero_diagonal]]),
                (
                    np.concatenate([rows, nonzero_diagonal]),
                    np.concatenate([cols, nonzero_diagonal]),
                ),
            ),
            shape=(n, n),
        )
        return sp.csr_array(matrix)
