"""Transient analysis helpers: uniformization and matrix-exponential integrals.

:func:`uniformized_series` is Jensen's Poisson-weighted series, over a
caller-supplied step; :func:`uniformized_walk` walks a long horizon in
segments of it.  The CSR transient
(:func:`repro.markov.sparse.transient_distribution_sparse`) and
:meth:`CTMC.accumulated_reward <repro.markov.ctmc.CTMC.accumulated_reward>`
run on the walk.  :func:`expm_and_integral` is the pair the MRGP kernels need
on their subordinated generators, computed over the block-triangular
:func:`block_layout` of the matrix.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from repro.errors import SolverError


def uniformized_series(
    apply_step: Callable[[np.ndarray], np.ndarray],
    initial: np.ndarray,
    *,
    poisson_mean: float,
    tolerance: float = 1e-12,
    max_terms: int = 1_000_000,
) -> np.ndarray:
    """Sum the Poisson-weighted uniformization series.

    Computes ``sum_k Poisson(k; poisson_mean) · v_k`` with ``v_0 =
    initial`` and ``v_{k+1} = apply_step(v_k)``, truncated once either
    the accumulated Poisson mass exceeds ``1 - tolerance`` or the
    remaining tail (bounded geometrically past the mean) falls below
    ``tolerance``.  The result is renormalized by the accumulated mass
    so probability vectors stay normalized despite truncation.

    ``apply_step`` is one application of the uniformized step matrix
    ``P = I + Q/L``, in practice a CSR product ``v @ P``; the series
    itself neither knows nor cares.
    """
    if poisson_mean < 0:
        raise SolverError(f"poisson mean must be >= 0, got {poisson_mean}")
    # log-space Poisson weights to survive large L*t
    log_weight = -poisson_mean  # log P(k=0)
    accumulated = 0.0
    term_vector = np.asarray(initial, dtype=float).copy()
    result = np.zeros_like(term_vector)
    k = 0
    # Poisson tail bound: once past the mean, stop when the remaining
    # mass (bounded by current weight / (1 - mean/k)) is below tolerance.
    while True:
        weight = math.exp(log_weight) if log_weight > -745 else 0.0
        result += weight * term_vector
        accumulated += weight
        if accumulated >= 1.0 - tolerance:
            break
        if k > poisson_mean and weight > 0.0:
            ratio = poisson_mean / (k + 1)
            if ratio < 1.0 and weight * ratio / (1.0 - ratio) < tolerance:
                break
        k += 1
        if k > max_terms:
            raise SolverError(
                f"uniformization did not converge within {max_terms} terms "
                f"(L*t = {poisson_mean:.3e})"
            )
        log_weight += math.log(poisson_mean) - math.log(k)
        term_vector = apply_step(term_vector)
    # compensate the (tiny) truncated Poisson mass so probability vectors
    # remain normalized
    if accumulated > 0.0:
        result /= accumulated
    return result


#: Poisson terms per segment of :func:`uniformized_walk`.
SEGMENT_TERMS = 10_000


def uniformized_walk(
    apply_step: Callable[[np.ndarray], np.ndarray],
    initial: np.ndarray,
    *,
    rate: float,
    time: float,
    tolerance: float = 1e-12,
    max_terms: int = 1_000_000,
    stop: Callable[[np.ndarray], bool] | None = None,
) -> tuple[np.ndarray, float]:
    """``(state, elapsed)``: :func:`uniformized_series` over ``time`` at
    uniformization ``rate``, in segments of at most :data:`SEGMENT_TERMS`
    Poisson terms, so any horizon fits ``max_terms``.  ``stop(state)``,
    asked after each segment, may end the walk at ``elapsed < time``."""
    state, elapsed = initial, 0.0
    while elapsed < time:
        segment = min(SEGMENT_TERMS / rate, time - elapsed)
        state = uniformized_series(
            apply_step,
            state,
            poisson_mean=rate * segment,
            tolerance=tolerance,
            max_terms=max_terms,
        )
        elapsed += segment
        if stop is not None and stop(state):
            break
    return state, elapsed


#: Taylor coefficients 1/(k+1)! of φ₁(Y) = Σ_k Y^k / (k+1)!, k = 0..16.
_PHI1_COEFFICIENTS = tuple(1.0 / math.factorial(k + 1) for k in range(17))

#: Below this many states one dense product beats the block products:
#: blocks of ~25 states made 70- and 92-state chains 1.5-2.4x slower.
_DENSE_BELOW_STATES = 128

#: Consecutive components are merged until a block holds this many states.
_BLOCK_MIN_STATES = 32


def block_layout(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, bounds)``: a block upper-triangular layout of ``matrix``.

    The strongly connected components of the off-diagonal pattern are
    put in topological order (by their depth, the longest path reaching
    them in the condensation) and merged, in that order, into blocks of
    at least ``_BLOCK_MIN_STATES`` states.  ``matrix[np.ix_(order,
    order)]`` is then zero below the diagonal blocks ``bounds[b] :
    bounds[b + 1]``, and so is every polynomial in it.  Matrices under
    ``_DENSE_BELOW_STATES`` states, and those that form one block, get
    the one-block layout ``(arange(n), [0, n])``: the dense product.
    """
    n = matrix.shape[0]
    dense = np.arange(n), np.array([0, n])
    if n < _DENSE_BELOW_STATES:
        return dense
    rows, cols = np.nonzero(matrix != 0.0)
    pattern = sp.csr_array((np.ones(rows.size), (rows, cols)), shape=(n, n))
    count, labels = connected_components(pattern, directed=True, connection="strong")
    if count == 1:
        return dense
    source, target = labels[rows], labels[cols]
    between = source != target
    source, target = np.divmod(np.unique(source[between] * count + target[between]), count)
    # longest-path depth in the condensation: every cross edge goes deeper
    depth = np.zeros(count, dtype=np.int64)
    while True:
        reached = depth.copy()
        np.maximum.at(reached, target, depth[source] + 1)
        if np.array_equal(reached, depth):
            break
        depth = reached
    order = np.lexsort((labels, depth[labels]))  # by depth, then component
    sizes = np.bincount(labels, minlength=count)[np.argsort(depth, kind="stable")]
    bounds = [0]
    filled = 0
    for size in sizes.tolist():
        filled += size
        if filled - bounds[-1] >= _BLOCK_MIN_STATES:
            bounds.append(filled)
    bounds[-1] = n  # a short tail joins the last full block
    if len(bounds) < 3:
        return dense
    return order, np.asarray(bounds)


def _block_product(left: np.ndarray, right: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """``left @ right`` for block upper-triangular factors on ``bounds``.

    Only the blocks on and above the diagonal are computed,
    ``C[i, j] = A[i, i..j] @ B[i..j, j]``; the rest stay exactly zero,
    as the dense product leaves them.
    """
    product = np.zeros_like(left)
    edges = bounds.tolist()
    for i, (top, bottom) in enumerate(zip(edges, edges[1:])):
        for first, last in zip(edges[i:], edges[i + 1 :]):
            np.matmul(
                left[top:bottom, top:last],
                right[top:last, first:last],
                out=product[top:bottom, first:last],
            )
    return product


def expm_and_integral(generator: np.ndarray, time: float) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(expm(A t), ∫_0^t expm(A s) ds)`` on the ``n × n`` matrix.

    Scaling and squaring on the φ₁ function (Skaflestad & Wright 2009):
    with ``h = t / 2^s`` chosen so that ``‖A h‖₁ ≤ 1``,

    * ``F = ∫_0^h e^{As} ds = h · φ₁(A h)``, with ``φ₁(Y) = Σ_k Y^k / (k+1)!``
      summed by a degree-16 Taylor polynomial (Paterson–Stockmeyer, six
      products).  For ``‖Y‖₁ ≤ 1`` the truncated tail is bounded by
      ``Σ_{k≥17} 1/(k+1)! < (19/18) / 18! ≈ 1.7e-16``, i.e. unit roundoff;
    * ``E = e^{A h} = I + Y · φ₁(Y)``;
    * then ``s`` times the doubling step ``F ← F + E F``, ``E ← E E``,
      which is ``∫_0^{2h} = ∫_0^h + e^{Ah} ∫_0^h``.

    Every product runs over the :func:`block_layout` of ``A``: the
    matrix is permuted into its block upper-triangular component order,
    only the blocks on and above the diagonal are multiplied, and ``E``
    and ``F`` are permuted back.  That is ``7 + 2 s`` products, each of
    ``Σ_{i≤j} n_i n_j (n_i + ... + n_j)`` flops for blocks of ``n_i``
    states — ``n³`` (the dense product) for one block, 37 % of it for
    three equal blocks.

    ``A`` need not be a proper generator — the MRGP kernel construction
    passes sub-generators whose missing rate mass flows to absorbing
    states that are handled separately.
    """
    matrix = np.asarray(generator, dtype=float)
    n = matrix.shape[0] if matrix.ndim == 2 else -1
    if matrix.shape != (n, n):
        raise SolverError(f"matrix must be square, got {matrix.shape}")
    if not time >= 0:
        raise SolverError(f"time must be >= 0, got {time}")
    scaled = matrix * float(time)
    norm = float(np.abs(scaled).sum(axis=0).max()) if n else 0.0
    if not math.isfinite(norm):
        raise SolverError("matrix exponential of a non-finite matrix")
    squarings = max(0, math.ceil(math.log2(norm))) if norm > 0.0 else 0
    step = math.ldexp(float(time), -squarings)
    order, bounds = block_layout(matrix)
    blocked = len(bounds) > 2
    if blocked:
        scaled = scaled[np.ix_(order, order)]
        product = functools.partial(_block_product, bounds=bounds)
    else:  # the one-block layout is the dense product
        product = np.matmul
    y = math.ldexp(1.0, -squarings) * scaled

    identity = np.eye(n)
    y2 = product(y, y)
    y3 = product(y2, y)
    y4 = product(y2, y2)
    c = _PHI1_COEFFICIENTS
    phi = c[16] * y4
    for block in (3, 2, 1, 0):
        base = 4 * block
        phi += c[base] * identity + c[base + 1] * y + c[base + 2] * y2 + c[base + 3] * y3
        if block:
            phi = product(y4, phi)
    exponential = identity + product(y, phi)
    integral = step * phi
    for _ in range(squarings):
        integral += product(exponential, integral)
        exponential = product(exponential, exponential)
    if blocked:
        restore = np.argsort(order)
        exponential = exponential[np.ix_(restore, restore)]
        integral = integral[np.ix_(restore, restore)]
    return exponential, integral
