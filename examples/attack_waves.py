"""Rejuvenation under bursty attack campaigns (threat-model extension).

The paper's models assume attacks arrive at a constant rate λc.  Real
adversaries attack in waves.  This example drives the perception
simulator (a fleet of replica groups sharing one attack timeline) under
three threat profiles with the *same average* attack intensity:

1. constant pressure (the paper's assumption),
2. moderate waves (3 x base rate, half the time),
3. sharp bursts (11 x base rate, 10 % of the time),

and measures, for the four-version baseline and the six-version
rejuvenating system: the empirical output reliability and the longest
run of consecutive misperceptions.

The punchline is a *validation* of the paper's threat model: at equal
average intensity, burstiness barely moves either metric — module
compromises outlive the attack waves that cause them (mean time in the
compromised state is ~3000 s), so the system responds to the average
pressure, not its timing.  The constant-λc assumption is a good one.

Run:  python examples/attack_waves.py
"""

from repro import PerceptionParameters
from repro.simulation import (
    AttackCampaign,
    BatchConfig,
    error_bursts,
    round_grid,
    simulate_batch,
)

GROUPS = 40
HORIZON = 10_000.0  # measured seconds per group: five attack periods
WARMUP = 2_000.0
PERIOD = 1.0
BASE_MTTC = 1523.0


def profiles() -> dict[str, AttackCampaign | None]:
    span = WARMUP + HORIZON
    moderate = AttackCampaign.periodic(
        period=2000.0, burst_duration=1000.0, intensity=3.0, horizon=span
    )
    sharp = AttackCampaign.periodic(
        period=2000.0, burst_duration=200.0, intensity=11.0, horizon=span
    )
    return {
        "constant pressure": None,
        "moderate waves (3x, 50%)": moderate,
        "sharp bursts (11x, 10%)": sharp,
    }


def effective_mttc(campaign: AttackCampaign | None) -> float:
    """Scale the base mttc so every profile has equal *average* intensity."""
    if campaign is None:
        return BASE_MTTC / 2.0  # constant 2x pressure
    return BASE_MTTC  # waves already average to 2x


def run(parameters: PerceptionParameters, campaign: AttackCampaign | None, seed: int):
    """``(report, longest error burst)`` of one fleet run."""
    rounds, warmup_rounds = round_grid(HORIZON, WARMUP, PERIOD)
    report = simulate_batch(
        BatchConfig(
            parameters=parameters.replace(mttc=effective_mttc(campaign)),
            groups=GROUPS,
            rounds=rounds,
            warmup_rounds=warmup_rounds,
            request_period=PERIOD,
            seed=seed,
            campaign=campaign,
            record_outcomes=True,
        )
    )
    bursts = error_bursts(report.outcomes[warmup_rounds:])
    return report, max(bursts, default=0)


def main() -> None:
    four = PerceptionParameters.four_version_defaults()
    six = PerceptionParameters.six_version_defaults()

    print(f"{'threat profile':28s} {'system':16s} {'E[R] (safe-skip)':>17s} "
          f"{'longest error burst':>20s}")
    for name, campaign in profiles().items():
        if campaign is not None:
            mean = campaign.average_multiplier(WARMUP + HORIZON)
            assert abs(mean - 2.0) < 0.05, "profiles must share average intensity"
        for label, parameters in (("4v baseline", four), ("6v rejuvenating", six)):
            report, longest = run(parameters, campaign, seed=17)
            print(
                f"{name:28s} {label:16s} {report.reliability_safe_skip:>17.4f} "
                f"{longest:>20d}"
            )
    print()
    print(
        "Reading: at equal average intensity, attack burstiness moves E[R]\n"
        "by under two points and the longest burst by about one frame — a\n"
        "compromise outlives the wave that caused it (mean ~3000 s in the\n"
        "compromised state), so only the average pressure matters. This\n"
        "validates the paper's constant-rate threat model, and rejuvenation\n"
        "helps under every profile (~0.77 -> ~0.92 here)."
    )


if __name__ == "__main__":
    main()
