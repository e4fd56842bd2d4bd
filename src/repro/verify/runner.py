"""Lint + certify the full experiment registry (``repro verify``).

:func:`verify_experiments` walks every registered experiment's
:class:`~repro.verify.targets.VerifyTarget` list, lints each net,
solves it with certification enabled, post-checks its Eq. 1 expected
reward, and — for the three paper nets — runs the statistical oracles
of :mod:`repro.verify.oracles`.  The resulting
:class:`VerificationReport` renders byte-identically across runs and
across ``--jobs`` settings: work fans out over experiment ids through
:class:`repro.engine.SweepPlan` (whose ordered reassembly guarantees
serial-equal results) and every oracle is seeded.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.engine.sweep import SweepPlan
from repro.experiments.registry import EXPERIMENT_IDS
from repro.obs import counter, span
from repro.verify.certify import (
    DEFAULT_TOLERANCE,
    Certificate,
    CertificateCheck,
    _reward_checks,
)
from repro.verify.lint import LintReport, lint_net
from repro.verify.oracles import (
    OracleResult,
    monotone_degradation,
    relabeling_invariance,
    sequential_agreement,
    threshold_consistency,
)
from repro.verify.targets import VerifyTarget, experiment_targets, paper_net_targets

#: Simulation budget of the agreement oracle (per paper net).
ORACLE_HORIZON = 200_000.0
ORACLE_WARMUP = 20_000.0
ORACLE_SEED = 2023
ORACLE_BATCH_SIZE = 6
ORACLE_MAX_BATCHES = 5


@dataclass(frozen=True)
class TargetVerification:
    """Lint + certification outcome for one target net."""

    name: str
    method: str
    n_states: int
    expected_reliability: float
    lint: LintReport
    certificate: Certificate
    reward_checks: tuple[CertificateCheck, ...]

    @property
    def ok(self) -> bool:
        return (
            self.lint.ok
            and self.certificate.passed
            and all(check.passed for check in self.reward_checks)
        )

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"{status} {self.name} ({self.method}, {self.n_states} states, "
            f"E[R]={self.expected_reliability:.9f})"
        ]
        lines.append(f"  {self.lint.render().replace(chr(10), chr(10) + '  ')}")
        lines.append(f"  {self.certificate.render().replace(chr(10), chr(10) + '  ')}")
        lines.extend(f"    {check.render()}" for check in self.reward_checks)
        return "\n".join(lines)


@dataclass(frozen=True)
class VerificationReport:
    """The full ``repro verify`` outcome, rendered deterministically."""

    tolerance: float
    experiments: tuple[tuple[str, tuple[TargetVerification, ...]], ...]
    oracles: tuple[OracleResult, ...]

    @property
    def targets(self) -> tuple[TargetVerification, ...]:
        return tuple(
            target for _, group in self.experiments for target in group
        )

    @property
    def ok(self) -> bool:
        return all(target.ok for target in self.targets) and all(
            oracle.passed for oracle in self.oracles
        )

    @property
    def max_residual(self) -> float:
        return max(
            (target.certificate.max_residual for target in self.targets),
            default=0.0,
        )

    def render(self) -> str:
        lines = [f"repro verify (tolerance {self.tolerance:.0e})", ""]
        for experiment_id, group in self.experiments:
            lines.append(f"== {experiment_id} ==")
            for target in group:
                lines.append(target.render())
            lines.append("")
        if self.oracles:
            lines.append("== statistical oracles ==")
            lines.extend(f"  {oracle.render()}" for oracle in self.oracles)
            lines.append("")
        n_targets = len(self.targets)
        n_errors = sum(len(target.lint.errors) for target in self.targets)
        n_oracle_failures = sum(1 for oracle in self.oracles if not oracle.passed)
        verdict = "PASS" if self.ok else "FAIL"
        lines.append(
            f"{verdict}: {n_targets} net(s) across {len(self.experiments)} "
            f"experiment(s), {n_errors} lint error(s), max certificate "
            f"residual {self.max_residual:.3e}, {len(self.oracles)} oracle(s) "
            f"({n_oracle_failures} failing)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# per-target verification (runs inside SweepPlan workers)
# ----------------------------------------------------------------------
def _expected_reliability(solution, reliability) -> tuple["np.ndarray", float]:
    """Eq. 1 over ``solution``'s markings: ``(rewards, E[R])``."""
    from repro.perception.evaluation import reliability_rewards
    from repro.perception.statemap import state_counts

    rewards = reliability_rewards(state_counts(solution.markings), reliability)
    return rewards, float(solution.pi @ rewards)


def _reward_function(target: VerifyTarget):
    """``target``'s Eq. 1 reward as a marking function, for the simulator."""
    from repro.perception.statemap import module_counts

    reliability = target.reliability()

    def reward(marking) -> float:
        counts = module_counts(marking)
        return float(
            reliability(counts.healthy, counts.compromised, counts.unavailable)
        )

    return reward


def _verify_target(target: VerifyTarget, tolerance: float) -> TargetVerification:
    from repro.dspn.steady_state import solve_steady_state

    with span("verify.target", target=target.name) as sp:
        net = target.build()
        lint = lint_net(net)
        solution = solve_steady_state(
            net, max_states=target.max_states, verify=tolerance
        )
        rewards, expected = _expected_reliability(solution, target.reliability())
        reward_checks = _reward_checks(solution, rewards, expected, tolerance)
        assert solution.certificate is not None  # verify= attached it
        verification = TargetVerification(
            name=target.name,
            method=solution.method,
            n_states=len(solution.pi),
            expected_reliability=expected,
            lint=lint,
            certificate=solution.certificate,
            reward_checks=reward_checks,
        )
        counter("verify.targets").inc()
        if not verification.ok:
            counter("verify.failures").inc()
        sp.set(ok=verification.ok, method=solution.method)
    return verification


def _verify_experiment(
    experiment_id: str, tolerance: float
) -> tuple[TargetVerification, ...]:
    """SweepPlan point function: verify every target of one experiment."""
    with span("verify.experiment", experiment=experiment_id):
        return tuple(
            _verify_target(target, tolerance)
            for target in experiment_targets(experiment_id)
        )


# ----------------------------------------------------------------------
# statistical oracles on the three paper nets
# ----------------------------------------------------------------------
def _relabeled_four_version_net(parameters):
    """The Fig. 2(a) net with renamed elements in permuted order.

    Structurally isomorphic to :func:`build_no_rejuvenation_net`; used by
    the relabeling-invariance oracle, which demands that E[R_sys] does
    not depend on element names or declaration order.
    """
    from repro.petri import NetBuilder

    builder = NetBuilder("perception-4v-relabeled")
    builder.place("crashed", label="non-operational")
    builder.place("ok", tokens=parameters.n_modules, label="healthy")
    builder.place("subverted", label="compromised")
    builder.exponential(
        "repair",
        rate=parameters.mu,
        inputs={"crashed": 1},
        outputs={"ok": 1},
    )
    builder.exponential(
        "compromise",
        rate=parameters.lambda_c,
        inputs={"ok": 1},
        outputs={"subverted": 1},
    )
    builder.exponential(
        "crash",
        rate=parameters.lambda_f,
        inputs={"subverted": 1},
        outputs={"crashed": 1},
    )
    return builder.build()


def _paper_oracles(tolerance: float) -> tuple[OracleResult, ...]:
    """All statistical oracles; deterministic given the fixed seeds."""
    with span("verify.oracles"):
        return _paper_oracles_untraced(tolerance)


def _paper_oracles_untraced(tolerance: float) -> tuple[OracleResult, ...]:
    from repro.dspn.steady_state import solve_steady_state
    from repro.perception.evaluation import default_reliability_function
    from repro.perception.parameters import PerceptionParameters

    results: list[OracleResult] = []

    # -- sequential simulator-vs-analytic agreement, Fig. 2(a)/(b)/(c) --
    for position, target in enumerate(paper_net_targets()):
        net = target.build()
        solution = solve_steady_state(
            net, max_states=target.max_states, verify=tolerance
        )
        _, expected = _expected_reliability(solution, target.reliability())
        verdict = sequential_agreement(
            net,
            reward=_reward_function(target),
            expected=expected,
            horizon=ORACLE_HORIZON,
            warmup=ORACLE_WARMUP,
            seed=ORACLE_SEED + 100 * position,
            batch_size=ORACLE_BATCH_SIZE,
            max_batches=ORACLE_MAX_BATCHES,
        )
        results.append(
            OracleResult(
                name=f"agreement[{target.name}]",
                passed=verdict.passed,
                value=verdict.value,
                detail=verdict.detail,
            )
        )

    # -- metamorphic: E[R] degrades monotonically in p and p' -----------
    # p and p' only enter Eq. 1 through the reliability function, so one
    # solution serves every grid point.
    from repro.perception.no_rejuvenation import build_no_rejuvenation_net

    four = PerceptionParameters.four_version_defaults()
    base_solution = solve_steady_state(
        build_no_rejuvenation_net(four), verify=tolerance
    )
    for label, attribute, grid in (
        ("p", "p", (0.02, 0.08, 0.20)),
        ("p'", "p_prime", (0.30, 0.50, 0.70)),
    ):
        points = []
        for value in grid:
            reliability = default_reliability_function(
                four.replace(**{attribute: value})
            )
            _, expected = _expected_reliability(base_solution, reliability)
            points.append((value, expected))
        results.append(monotone_degradation(points, label=label))

    # -- metamorphic: relabeling invariance -----------------------------
    from repro.perception.statemap import ModuleCounts

    reliability = default_reliability_function(four)
    _, original = _expected_reliability(
        base_solution, paper_net_targets()[0].reliability()
    )
    relabeled_solution = solve_steady_state(
        _relabeled_four_version_net(four), verify=tolerance
    )

    def relabeled_reward(marking) -> float:
        counts = ModuleCounts(
            healthy=marking["ok"],
            compromised=marking["subverted"],
            unavailable=marking["crashed"],
        )
        return float(
            reliability(counts.healthy, counts.compromised, counts.unavailable)
        )

    relabeled = relabeled_solution.expected_reward(relabeled_reward)
    results.append(relabeling_invariance(original, relabeled, tolerance=tolerance))

    # -- metamorphic: 2f+1 -> 2f+r+1 threshold consistency --------------
    six = PerceptionParameters.six_version_defaults()
    six_solution = solve_steady_state(
        paper_net_targets()[2].build(), verify=tolerance
    )
    _, rejuvenated = _expected_reliability(
        six_solution, paper_net_targets()[2].reliability()
    )
    results.append(
        threshold_consistency(
            original,
            rejuvenated,
            f=four.f,
            r=six.r,
            baseline_threshold=four.voting_scheme.threshold,
            rejuvenated_threshold=six.voting_scheme.threshold,
        )
    )
    return tuple(results)


# ----------------------------------------------------------------------
# entry point
# ----------------------------------------------------------------------
def verify_experiments(
    experiment_ids: Sequence[str] | None = None,
    *,
    jobs: int = 1,
    tolerance: float = DEFAULT_TOLERANCE,
    oracles: bool = True,
) -> VerificationReport:
    """Lint + certify the registry (or a subset) and run the oracles.

    Parameters
    ----------
    experiment_ids:
        Ids to verify, in the given order; ``None`` verifies the whole
        registry in registration order.
    jobs:
        Worker processes for the per-experiment fan-out (oracles always
        run in the calling process).  The report is byte-identical for
        every ``jobs`` value.
    tolerance:
        Certificate residual tolerance.
    oracles:
        Whether to run the (simulation-backed) statistical oracles on
        the three paper nets.
    """
    ids = tuple(experiment_ids) if experiment_ids is not None else EXPERIMENT_IDS
    for experiment_id in ids:
        experiment_targets(experiment_id)  # raises early on unknown ids

    plan = SweepPlan(_verify_experiment, label="verify")
    for experiment_id in ids:
        plan.add(experiment_id, tolerance)
    groups = plan.run(jobs=jobs)

    oracle_results = _paper_oracles(tolerance) if oracles else ()
    return VerificationReport(
        tolerance=tolerance,
        experiments=tuple(zip(ids, groups)),
        oracles=oracle_results,
    )
