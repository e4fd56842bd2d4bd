"""Transient analysis helpers: uniformization and matrix-exponential integrals.

:func:`uniformized_series` is Jensen's Poisson-weighted series, over a
caller-supplied step; the CSR transient
(:func:`repro.markov.sparse.transient_distribution_sparse`) and
:meth:`CTMC.accumulated_reward <repro.markov.ctmc.CTMC.accumulated_reward>`
run on it.  :func:`expm_and_integral` is the dense pair the MRGP
kernels need on their small subordinated generators.
"""

from __future__ import annotations

import math
from collections.abc import Callable

import numpy as np

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


#: Taylor coefficients 1/(k+1)! of φ₁(Y) = Σ_k Y^k / (k+1)!, k = 0..16.
_PHI1_COEFFICIENTS = tuple(1.0 / math.factorial(k + 1) for k in range(17))


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

    The cost is about ``7 + 2 s`` products of ``n × n`` matrices —
    half the dimension of the Van Loan block matrix
    ``[[A, I], [0, 0]] t`` that yields the same pair.

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
    y = math.ldexp(1.0, -squarings) * scaled

    identity = np.eye(n)
    y2 = y @ y
    y3 = y2 @ y
    y4 = y2 @ y2
    c = _PHI1_COEFFICIENTS
    phi = c[16] * y4
    for block in (3, 2, 1, 0):
        base = 4 * block
        phi += c[base] * identity + c[base + 1] * y + c[base + 2] * y2 + c[base + 3] * y3
        if block:
            phi = y4 @ phi
    exponential = identity + y @ phi
    integral = step * phi
    for _ in range(squarings):
        integral += exponential @ integral
        exponential = exponential @ exponential
    return exponential, integral
