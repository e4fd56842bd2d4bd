"""Validating the analytic model against the executable system.

Three implementations of the six-version rejuvenating perception system
must agree:

1. the analytic MRGP solution (exact, milliseconds),
2. the generic DSPN Monte-Carlo simulator (confidence intervals),
3. the perception simulator (real voting on a frame stream, many
   replica groups at once), whose per-state census is compared against
   the analytic stationary distribution state by state.

Run:  python examples/model_validation.py
"""

from repro import PerceptionParameters, PerceptionSystem
from repro.nversion.reliability import GeneralizedReliability
from repro.perception.evaluation import evaluate
from repro.simulation import (
    BatchConfig,
    compare_with_analytic,
    round_grid,
    simulate_batch,
)

HORIZON = 500_000.0  # simulated seconds for the DSPN reward estimate
GROUPS = 512  # independent replica groups of the perception simulator
GROUP_HORIZON = 20_000.0  # measured seconds per group
# The module census decorrelates on the mttc timescale (~1500 s), so
# GROUPS x GROUP_HORIZON gives ~7000 effective samples, putting the
# expected total-variation distance from pure sampling noise near 0.01.
_TVD_THRESHOLD = 0.05


def main() -> None:
    parameters = PerceptionParameters.six_version_defaults()
    system = PerceptionSystem(parameters)

    analytic = system.expected_reliability()
    print(f"1) analytic (MRGP)      : E[R] = {analytic:.5f}")

    estimate = system.simulate(
        horizon=HORIZON, warmup=5000.0, replications=6, seed=11
    )
    low, high = estimate.interval
    print(
        f"2) DSPN Monte-Carlo     : E[R] = {estimate.mean:.5f} "
        f"(95% CI [{low:.5f}, {high:.5f}]) — "
        f"{'agrees' if estimate.covers(analytic) else 'disagrees'}"
    )

    period = 5.0
    rounds, warmup_rounds = round_grid(GROUP_HORIZON, 5000.0, period)
    report = simulate_batch(
        BatchConfig(
            parameters=parameters,
            groups=GROUPS,
            rounds=rounds,
            warmup_rounds=warmup_rounds,
            request_period=period,
            seed=11,
        )
    )
    print(
        f"3) perception simulator : E[R] = {report.reliability_safe_skip:.5f} "
        f"({report.requests} frames voted by {GROUPS} replica groups)"
    )
    # the simulator draws healthy errors from the normalized dependent
    # model, which the paper's Table I closed forms approximate; frames
    # of one group share its census, so a binomial interval around the
    # simulated value would be far too narrow to judge agreement by
    normalized = evaluate(
        parameters,
        reliability=GeneralizedReliability(
            n_modules=parameters.n_modules,
            threshold=parameters.voting_scheme.threshold,
            p=parameters.p,
            p_prime=parameters.p_prime,
            alpha=parameters.alpha,
        ),
    ).expected_reliability
    print(f"   Eq. 1 with the simulator's error model: E[R] = {normalized:.5f}")
    print()

    print("state-by-state check: simulated census vs analytic pi")
    comparison = compare_with_analytic(report.census, parameters, seed=report.seed)
    print(comparison.render(limit=8))
    print()
    verdict = (
        "distributions agree"
        if comparison.total_variation_distance < _TVD_THRESHOLD
        else "distributions diverge — investigate"
    )
    print(f"verdict: {verdict} "
          f"(TVD = {comparison.total_variation_distance:.4f} over "
          f"{GROUPS} x {GROUP_HORIZON:.0f} simulated seconds)")


if __name__ == "__main__":
    main()
