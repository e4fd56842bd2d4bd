"""Replay of one Eq. 1 evaluation through the program's public layer functions.

:func:`replay` performs the computation behind
``repro.engine.tasks.expected_reliability`` (and so behind a served
``/v1/solve``) step by step — net build, fingerprint, reachability,
vanishing elimination, generator or MRGP kernels, stationary solve,
(i, j, k) aggregation, reliability function, Eq. 1 contraction — with
one benchmark-side span around each call.  The workloads compare its
value with the served or swept one, so the replay is known to be the
same computation as the one it times.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.dspn.ctmc_builder import build_ctmc
from repro.dspn.mrgp_builder import build_mrgp_kernels
from repro.dspn.sparse_builder import sparse_generator
from repro.dspn.steady_state import route_exponential
from repro.engine.hashing import net_fingerprint
from repro.markov.mrgp import solve_mrgp
from repro.markov.sparse import stationary_distribution_sparse
from repro.perception.evaluation import default_reliability_function
from repro.perception.no_rejuvenation import build_no_rejuvenation_net
from repro.perception.rejuvenation import build_rejuvenation_net
from repro.perception.statemap import module_counts
from repro.statespace import eliminate_vanishing, explore

from harness import Spans

@dataclass
class Solved:
    """A steady state shared by every point of one configuration."""

    markings: list
    pi: np.ndarray
    route: str
    raw_states: int
    iterations: int = 0


@dataclass
class LayerCounts:
    """Work counts recorded at the same boundaries as the spans."""

    markings: int = 0
    tangible: int = 0
    routes: dict = field(
        default_factory=lambda: {"ctmc": 0, "sparse": 0, "mrgp": 0}
    )
    sparse_iterations: int = 0
    reliability_states: int = 0

    def add_solve(self, solved: Solved) -> None:
        self.markings += solved.raw_states
        self.tangible += len(solved.markings)
        self.routes[solved.route] += 1
        self.sparse_iterations += solved.iterations


def _solve(net, spans: Spans, ident: str, max_states: int) -> Solved:
    with spans("statespace.explore", ident):
        raw = explore(net, max_states=max_states)
    with spans("statespace.vanishing", ident):
        graph = eliminate_vanishing(raw)
    if graph.has_deterministic():
        with spans("dspn.mrgp_kernels", ident):
            kernel, sojourn = build_mrgp_kernels(graph)
        with spans("markov.mrgp_solve", ident):
            pi = solve_mrgp(kernel, sojourn).pi
        return Solved(graph.markings, pi, "mrgp", raw.n_states)
    if route_exponential(graph)["route"] == "sparse":
        with spans("dspn.generator", ident):
            generator = sparse_generator(graph)
        with spans("markov.sparse_solve", ident):
            pi, info = stationary_distribution_sparse(
                generator, what=f"net {net.name!r}"
            )
        return Solved(graph.markings, pi, "sparse", raw.n_states, info.iterations)
    with spans("dspn.generator", ident):
        ctmc = build_ctmc(graph)
    with spans("markov.dense_solve", ident):
        pi = ctmc.stationary_distribution()
    return Solved(graph.markings, pi, "ctmc", raw.n_states)


def replay(
    parameters,
    spans: Spans,
    ident: str,
    counts: LayerCounts,
    *,
    max_states: int = 200_000,
    solved: "Solved | None" = None,
) -> tuple[float, Solved]:
    """``(E[R_sys], steady state)`` of ``parameters``, one span per layer call.

    Passing the ``solved`` steady state of an earlier point with the
    same net reuses it, as the engine's solver cache does inside a sweep
    worker; the net is still built and fingerprinted per point, as the
    engine does to form its cache keys.
    """
    with spans("perception.build_net", ident):
        net = (
            build_rejuvenation_net(parameters)
            if parameters.rejuvenation
            else build_no_rejuvenation_net(parameters)
        )
    with spans("engine.fingerprint", ident):
        net_fingerprint(net)
    if solved is None:
        solved = _solve(net, spans, ident, max_states)
        counts.add_solve(solved)
    reliability = default_reliability_function(parameters)
    with spans("perception.statemap", ident):
        states = [module_counts(marking) for marking in solved.markings]
    with spans("nversion.reliability", ident):
        values = {
            state: float(
                reliability(state.healthy, state.compromised, state.unavailable)
            )
            for state in dict.fromkeys(states)
        }
    counts.reliability_states += len(values)
    with spans("dspn.rewards", ident):
        rewards = np.array([values[state] for state in states], dtype=float)
        value = float(solved.pi @ rewards)
    return value, solved


def layer_metrics(spans: Spans, counts: LayerCounts) -> dict[str, float]:
    """The solver-side per-layer metrics of a finished replay."""
    return {
        "perception.build_net_ms": spans.mean_ms("perception.build_net"),
        "engine.fingerprint_ms": spans.mean_ms("engine.fingerprint"),
        "statespace.explore_ms": spans.mean_ms("statespace.explore"),
        "statespace.vanishing_ms": spans.mean_ms("statespace.vanishing"),
        "statespace.markings": float(counts.markings),
        "statespace.tangible": float(counts.tangible),
        "dspn.mrgp_kernels_ms": spans.mean_ms("dspn.mrgp_kernels"),
        "dspn.generator_ms": spans.mean_ms("dspn.generator"),
        "dspn.route.ctmc": float(counts.routes["ctmc"]),
        "dspn.route.sparse": float(counts.routes["sparse"]),
        "dspn.route.mrgp": float(counts.routes["mrgp"]),
        "markov.mrgp_solve_ms": spans.mean_ms("markov.mrgp_solve"),
        "markov.dense_solve_ms": spans.mean_ms("markov.dense_solve"),
        "markov.sparse_solve_ms": spans.mean_ms("markov.sparse_solve"),
        "markov.sparse_iterations": float(counts.sparse_iterations),
        "perception.statemap_ms": spans.mean_ms("perception.statemap"),
        "nversion.reliability_ms": spans.mean_ms("nversion.reliability"),
        "nversion.states": float(counts.reliability_states),
    }
