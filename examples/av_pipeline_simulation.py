"""An autonomous-vehicle perception pipeline, executed frame by frame.

The paper's models are analytic; this example runs the *system* instead:
a fleet of vehicles, each with six diverse ML modules classifying a
10 Hz stream of traffic-sign frames behind a BFT voter, while faults
compromise modules, compromised modules crash, repairs bring them back,
and the rejuvenation clock proactively cleanses one random module every
10 minutes.

Two voting agreement models are compared on the same fleet trajectory:

* worst-case — all wrong outputs collude (the analytic model's reading);
* per-label  — wrong outputs carry real (usually differing) labels, so
  disagreeing wrong modules push the vote to a safe "inconclusive"
  instead of an error.

Run:  python examples/av_pipeline_simulation.py
"""

from repro import PerceptionParameters
from repro.perception.evaluation import evaluate
from repro.simulation import (
    AgreementModel,
    BatchConfig,
    round_grid,
    simulate_batch,
)

VEHICLES = 48
HOURS_PER_VEHICLE = 0.5
PERIOD = 0.1  # 10 Hz camera frames


def drive(parameters: PerceptionParameters, agreement: AgreementModel, seed: int):
    rounds, warmup_rounds = round_grid(
        HOURS_PER_VEHICLE * 3600.0, 600.0, PERIOD
    )
    config = BatchConfig(
        parameters=parameters,
        groups=VEHICLES,
        rounds=rounds,
        warmup_rounds=warmup_rounds,
        request_period=PERIOD,
        n_labels=43,  # GTSRB-sized label space
        seed=seed,
        agreement=agreement,
    )
    # start every vehicle in the stationary module census
    return simulate_batch(config.with_stationary_init())


def main() -> None:
    parameters = PerceptionParameters.six_version_defaults()
    analytic = evaluate(parameters).expected_reliability
    frames = VEHICLES * HOURS_PER_VEHICLE * 36000

    print(f"simulating {VEHICLES} vehicles x {HOURS_PER_VEHICLE:g} h of "
          f"driving at 10 Hz ({frames:.0f} frames), six-version + "
          f"rejuvenation")
    print(f"analytic E[R] (safe-skip, Eq. 1): {analytic:.4f}")
    print()

    for agreement in (AgreementModel.WORST_CASE, AgreementModel.PER_LABEL):
        report = drive(parameters, agreement, seed=2023)
        print(f"-- voter agreement model: {agreement.value} --")
        print(f"  frames voted        : {report.requests}")
        print(f"  correct             : {report.correct}"
              f"  ({report.correct / report.requests:.2%})")
        print(f"  perception errors   : {report.errors}"
              f"  ({report.errors / report.requests:.2%})")
        print(f"  inconclusive (safe) : {report.inconclusive}")
        print(f"  empirical reliability (safe-skip) : "
              f"{report.reliability_safe_skip:.4f}")
        print()

    print(
        "The worst-case voter matches the analytic model; with realistic\n"
        "per-label voting, wrong modules often disagree on the wrong sign,\n"
        "so about half of the would-be errors become safe skips — the\n"
        "analytic model is a conservative bound."
    )


if __name__ == "__main__":
    main()
