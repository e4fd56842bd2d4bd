"""Substrate benchmarks: the analytic solver pipeline itself.

Measures the cost of the two solver routes (the CSR CTMC route for
Fig. 2a nets, MRGP for Fig. 2b/c nets) as the module count grows — the knob that blows up
the state space.
"""

import pytest

from repro.dspn import solve_steady_state
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.parameters import PerceptionParameters
from repro.perception.rejuvenation import build_rejuvenation_net


@pytest.mark.parametrize("n_modules", [4, 8, 16])
def bench_ctmc_steady_state(benchmark, n_modules):
    """Fig. 2(a) pipeline: reachability + vanishing + CSR CTMC solve."""
    parameters = PerceptionParameters(
        n_modules=n_modules, f=1, rejuvenation=False
    )
    net = build_no_rejuvenation_net(parameters)
    result = benchmark(solve_steady_state, net)
    assert result.method == "sparse"


@pytest.mark.parametrize("n_modules", [6, 9, 12])
def bench_mrgp_steady_state(benchmark, n_modules):
    """Fig. 2(b)+(c) pipeline: subordinated-CTMC kernels + renewal solve."""
    parameters = PerceptionParameters(
        n_modules=n_modules, f=1, r=1, rejuvenation=True
    )
    net = build_rejuvenation_net(parameters)
    result = benchmark(solve_steady_state, net)
    assert result.method == "mrgp"


def bench_evaluation_pipeline(benchmark):
    """One full Eq. 1 evaluation of the paper's six-version system."""
    from repro.perception.evaluation import evaluate

    parameters = PerceptionParameters.six_version_defaults()
    result = benchmark(evaluate, parameters)
    assert 0.9 < result.expected_reliability < 1.0
