"""Substrate benchmarks: discrete-event simulation throughput.

Tracks the generic DSPN simulator (events/s over the six-version
rejuvenation net) and the perception simulator, the vectorized batch
runtime (requests/s across thousands of independent replica groups).
"""

from repro.dspn import simulate
from repro.obs.metrics import registry_override
from repro.obs.regress import sim_batch_config
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.perception.statemap import module_counts
from repro.simulation import simulate_batch


def bench_dspn_simulator(benchmark):
    parameters = PerceptionParameters.six_version_defaults()
    net = build_rejuvenation_net(parameters)

    def run():
        return simulate(
            net,
            reward=lambda m: float(module_counts(m).healthy),
            horizon=50000.0,
            replications=2,
            seed=0,
        )

    estimate = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0.0 < estimate.mean <= 6.0


def bench_batch_runtime(benchmark):
    """The ``sim-batch-1m`` workload: 4096 groups x 256 rounds."""
    config = sim_batch_config()

    def run():
        with registry_override():
            return simulate_batch(config)

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert report.requests == config.groups * config.rounds
    assert report.throughput >= 1.0e6
