"""Numerical certificates for solver results.

A :class:`Certificate` is a machine-readable post-check of one
steady-state solution: every check re-derives a property the solution
must satisfy *from the reachability graph itself*, independently of the
solver's internal algebra:

* ``pi-nonnegative`` — min π ≥ −tolerance;
* ``pi-normalized`` — |Σπ − 1| ≤ tolerance;
* ``mrgp-embedded-fixed-point`` / ``mrgp-renewal`` — the embedded
  chain's stationary vector φ is recomputed from the rebuilt global
  kernel ``K``; the certificate checks ‖φK − φ‖∞ and that the renewal
  reconstruction φU / (φU·1) reproduces π (MRGP route);
* ``sparse-balance`` / ``sparse-solver-record`` — the CTMC route's
  ‖πQ‖∞ ≤ tolerance, recomputed against a CSR generator rebuilt from
  the tangible graph (never densified), plus an audit of the solve's
  provenance record
  (:class:`~repro.markov.sparse.SparseSolveInfo`, which names the
  factorization and its fill estimate): the record must be present and
  its achieved residual within the tolerance it reported — a sparse
  solution with no audit trail does not certify.

Certificates travel with their result: ``solve_steady_state(verify=…)``
attaches them to :class:`~repro.dspn.steady_state.SteadyStateResult`, so
the engine cache persists them alongside the pickled solution and the
solver refuses to serve entries whose certificate is missing, stale
(older :data:`CERTIFICATE_VERSION` or wrong fingerprint) or failing.

:func:`certify_expected_reward` adds the Eq. 1 sanity bounds for a
derived reward scalar: min R ≤ E[R] ≤ max R plus recomputation agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.dspn.rewards import RewardFunction
    from repro.dspn.steady_state import SteadyStateResult

#: Bump when the check set or semantics change; older persisted
#: certificates are then *stale* and the cache refuses to serve them.
#: Version 2 added the sparse-route checks; version 3 dropped the dense
#: ``ctmc-balance`` check, so every exponential-only result certifies by
#: ``sparse-balance`` and ``sparse-solver-record``.
CERTIFICATE_VERSION = 3

#: Default residual tolerance (the acceptance bar for the shipped nets).
DEFAULT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class CertificateCheck:
    """One named check: the measured value against its tolerance."""

    name: str
    passed: bool
    value: float
    tolerance: float
    detail: str = ""

    def render(self) -> str:
        status = "ok  " if self.passed else "FAIL"
        line = f"{status} {self.name:28s} {self.value:.3e} (tol {self.tolerance:.0e})"
        return line + (f" — {self.detail}" if self.detail else "")


@dataclass(frozen=True)
class Certificate:
    """Machine-readable verdict over one solver result.

    Plain scalars and tuples only, so it pickles into the disk cache
    unchanged and ``to_dict()`` serializes it for external tooling.
    """

    fingerprint: str
    method: str
    n_states: int
    tolerance: float
    checks: tuple[CertificateCheck, ...]
    version: int = CERTIFICATE_VERSION

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    @property
    def max_residual(self) -> float:
        """The largest measured check value (the headline residual)."""
        return max((check.value for check in self.checks), default=0.0)

    def is_current(self, fingerprint: str | None = None) -> bool:
        """Not stale: version matches, and the fingerprint (if given) too."""
        if self.version != CERTIFICATE_VERSION:
            return False
        return fingerprint is None or self.fingerprint == fingerprint

    def failures(self) -> tuple[CertificateCheck, ...]:
        return tuple(check for check in self.checks if not check.passed)

    def to_dict(self) -> dict[str, Any]:
        return {
            "version": self.version,
            "fingerprint": self.fingerprint,
            "method": self.method,
            "n_states": self.n_states,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "max_residual": self.max_residual,
            "checks": [
                {
                    "name": check.name,
                    "passed": check.passed,
                    "value": check.value,
                    "tolerance": check.tolerance,
                    "detail": check.detail,
                }
                for check in self.checks
            ],
        }

    def render(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        lines = [
            f"certificate {verdict} ({self.method}, {self.n_states} states, "
            f"max residual {self.max_residual:.3e})"
        ]
        lines.extend(f"  {check.render()}" for check in self.checks)
        return "\n".join(lines)


def certify_steady_state(
    result: "SteadyStateResult",
    *,
    fingerprint: str | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
) -> Certificate:
    """Post-check one steady-state solution against its own graph.

    Parameters
    ----------
    result:
        The solution to certify (``pi`` plus the tangible graph).
    fingerprint:
        Canonical net fingerprint to stamp into the certificate; computed
        by the caller (``solve_steady_state`` already has it for the
        cache key).  ``None`` stamps ``"unfingerprinted"``.
    tolerance:
        Residual bound for every check.
    """
    pi = np.asarray(result.pi, dtype=float)
    checks: list[CertificateCheck] = [
        CertificateCheck(
            name="pi-nonnegative",
            passed=bool(pi.size == 0 or float(pi.min()) >= -tolerance),
            value=float(max(0.0, -pi.min())) if pi.size else 0.0,
            tolerance=tolerance,
            detail="largest negative mass",
        ),
        CertificateCheck(
            name="pi-normalized",
            passed=bool(abs(float(pi.sum()) - 1.0) <= tolerance),
            value=abs(float(pi.sum()) - 1.0),
            tolerance=tolerance,
            detail="|sum(pi) - 1|",
        ),
    ]

    if result.method == "mrgp":
        checks.extend(_mrgp_checks(result, pi, tolerance))
    elif result.method == "sparse":
        checks.extend(_sparse_checks(result, pi, tolerance))
    else:
        checks.append(
            CertificateCheck(
                name="known-method",
                passed=False,
                value=float("inf"),
                tolerance=tolerance,
                detail=f"unknown solution method {result.method!r}",
            )
        )

    return Certificate(
        fingerprint=fingerprint or "unfingerprinted",
        method=result.method,
        n_states=len(pi),
        tolerance=tolerance,
        checks=tuple(checks),
    )


def _mrgp_checks(
    result: "SteadyStateResult", pi: np.ndarray, tolerance: float
) -> list[CertificateCheck]:
    """Embedded-chain fixed point and renewal reconstruction residuals."""
    from repro.dspn.mrgp_builder import build_mrgp_kernels
    from repro.markov.dtmc import DTMC

    kernel, sojourn = build_mrgp_kernels(result.graph)
    phi = DTMC(kernel).stationary_distribution()
    fixed_point = float(np.max(np.abs(phi @ kernel - phi)))
    weighted = phi @ sojourn
    mean_cycle = float(weighted.sum())
    reconstructed = weighted / mean_cycle
    renewal = float(np.max(np.abs(pi - reconstructed)))
    return [
        CertificateCheck(
            name="mrgp-embedded-fixed-point",
            passed=fixed_point <= tolerance,
            value=fixed_point,
            tolerance=tolerance,
            detail="max |phi K - phi|",
        ),
        CertificateCheck(
            name="mrgp-renewal",
            passed=renewal <= tolerance,
            value=renewal,
            tolerance=tolerance,
            detail="max |pi - phi U / (phi U 1)|",
        ),
    ]


def _sparse_checks(
    result: "SteadyStateResult", pi: np.ndarray, tolerance: float
) -> list[CertificateCheck]:
    """Balance residual via a rebuilt CSR generator, plus the solve audit.

    The balance check never densifies, so certification stays cheap at
    every state count.  The record check makes solve provenance
    mandatory: a sparse π with no
    :class:`~repro.markov.sparse.SparseSolveInfo` (or one whose achieved
    residual exceeds the bar it claims) fails.
    """
    from repro.dspn.sparse_builder import sparse_generator

    generator = sparse_generator(result.graph)
    residual = float(np.max(np.abs(pi @ generator))) if pi.size else 0.0
    checks = [
        CertificateCheck(
            name="sparse-balance",
            passed=residual <= tolerance,
            value=residual,
            tolerance=tolerance,
            detail="max |pi Q| (CSR rebuild)",
        )
    ]
    info = getattr(result, "solver_info", None)
    if info is None:
        checks.append(
            CertificateCheck(
                name="sparse-solver-record",
                passed=False,
                value=float("inf"),
                tolerance=tolerance,
                detail="sparse solution carries no solver record",
            )
        )
    else:
        checks.append(
            CertificateCheck(
                name="sparse-solver-record",
                passed=bool(info.residual <= info.tolerance),
                value=float(info.residual),
                tolerance=float(info.tolerance),
                detail=(
                    f"{info.factorization} (fill {info.fill}), "
                    f"{info.iterations} iterations, "
                    f"{info.refinements} refinements, "
                    f"precond={info.preconditioner}, reorder={info.reordering}"
                ),
            )
        )
    return checks


def certify_expected_reward(
    result: "SteadyStateResult",
    reward: "RewardFunction",
    value: float,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
) -> tuple[CertificateCheck, ...]:
    """Eq. 1 sanity checks for a derived expected-reward scalar.

    Returns two checks: the reward bounds (min R ≤ E[R] ≤ max R over the
    tangible markings, the convexity property of Eq. 1) and agreement of
    ``value`` with an independent π-weighted recomputation.
    """
    from repro.dspn.rewards import reward_vector

    return _reward_checks(
        result, reward_vector(result.markings, reward), value, tolerance
    )


def _reward_checks(
    result: "SteadyStateResult", rewards: np.ndarray, value: float, tolerance: float
) -> tuple[CertificateCheck, ...]:
    """:func:`certify_expected_reward` given the reward of each of
    ``result``'s markings."""
    low, high = float(rewards.min()), float(rewards.max())
    out_of_bounds = max(0.0, low - value, value - high)
    recomputed = float(np.asarray(result.pi, dtype=float) @ rewards)
    drift = abs(value - recomputed)
    return (
        CertificateCheck(
            name="reward-bounds",
            passed=out_of_bounds <= tolerance,
            value=out_of_bounds,
            tolerance=tolerance,
            detail=f"E[R]={value:.9f} vs [{low:.9f}, {high:.9f}]",
        ),
        CertificateCheck(
            name="reward-recomputation",
            passed=drift <= tolerance,
            value=drift,
            tolerance=tolerance,
            detail="|E[R] - pi . R|",
        ),
    )
