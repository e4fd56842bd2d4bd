"""Steady-state solution of a DSPN with automatic method dispatch."""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

import numpy as np

from repro.dspn.mrgp_builder import build_mrgp_kernels
from repro.dspn.rewards import RewardFunction, reward_vector
from repro.dspn.sparse_builder import sparse_generator
from repro.errors import ParameterError, UnsupportedModelError, VerificationError
from repro.markov.mrgp import solve_mrgp
from repro.markov.sparse import SparseSolveInfo, stationary_distribution_sparse
from repro.obs import counter, span
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.statespace import TangibleGraph, tangible_reachability

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.engine.cache import StructureTier
    from repro.engine.hashing import NetDigests
    from repro.verify.certify import Certificate

#: Analytic routes accepted by :func:`solve_steady_state`.
METHODS = ("auto", "mrgp", "sparse")


@dataclass
class SteadyStateResult:
    """Steady-state distribution over the tangible markings of a net.

    Attributes
    ----------
    markings:
        Tangible markings, aligned with ``pi``.
    pi:
        Long-run time-average probability of each marking.
    method:
        ``"mrgp"`` or ``"sparse"`` — which analytic route was taken.
    graph:
        The underlying tangible reachability graph (for diagnostics).
    certificate:
        Numerical certificate attached when the solve was requested with
        ``verify=...`` (``None`` otherwise).  Travels with the result
        through the engine cache.
    solver_info:
        Solve provenance (factorization, fill estimate, iterations,
        achieved residual) when the sparse route produced ``pi``;
        ``None`` for the MRGP route.
    structure:
        Where ``graph`` came from: ``"hit"`` when the structure tier
        re-stamped a stored structure, ``"miss"`` when the net was
        explored and its structure stored, ``"off"`` when it was explored
        outside the tier.
    """

    markings: list[Marking]
    pi: np.ndarray
    method: str
    graph: TangibleGraph
    certificate: "Certificate | None" = None
    solver_info: SparseSolveInfo | None = None
    structure: str = "off"

    def expected_reward(self, reward: RewardFunction) -> float:
        """Eq. 1: the ``pi``-weighted sum of ``reward`` over markings."""
        return float(self.pi @ reward_vector(self.markings, reward))

    def probability(self, predicate: Callable[[Marking], bool]) -> float:
        """Total stationary probability of markings satisfying ``predicate``."""
        return float(
            sum(p for marking, p in zip(self.markings, self.pi) if predicate(marking))
        )

    def distribution(self) -> list[tuple[Marking, float]]:
        """(marking, probability) pairs sorted by decreasing probability."""
        pairs = list(zip(self.markings, (float(p) for p in self.pi)))
        pairs.sort(key=lambda pair: -pair[1])
        return pairs


def route_exponential(graph: TangibleGraph) -> dict[str, Any]:
    """The route of an exponential-only net, as ``dspn.route`` span attrs.

    Every exponential-only net takes the CSR route; the record names it
    with the state count so traces show which route produced a number.
    """
    return {"route": "sparse", "states": graph.n_states}


def _verification_tolerance(verify: "bool | float | None") -> float | None:
    """Normalize the ``verify`` argument to a tolerance (or ``None``)."""
    if verify is None or verify is False:
        return None
    if verify is True:
        from repro.verify.certify import DEFAULT_TOLERANCE

        return DEFAULT_TOLERANCE
    if isinstance(verify, (int, float)):
        if verify <= 0:
            raise ParameterError(f"verify tolerance must be > 0, got {verify}")
        return float(verify)
    raise ParameterError(
        f"verify must be None, a bool, or a positive tolerance, got {verify!r}"
    )


def solve_steady_state(
    net: PetriNet,
    *,
    max_states: int = 200_000,
    method: str = "auto",
    use_cache: bool | None = None,
    verify: "bool | float | None" = None,
    digests: "NetDigests | None" = None,
) -> SteadyStateResult:
    """Solve ``net`` for its stationary marking distribution.

    ``method="auto"`` dispatches on the model class: nets enabling
    deterministic transitions are solved as MRGPs; exponential-only nets
    are solved as CTMCs on their CSR generator (:mod:`repro.markov.sparse`;
    the route is recorded on the ``dspn.route`` span).  ``"sparse"``
    insists on the CSR route (raising on deterministic nets); ``"mrgp"``
    forces the MRGP route even for exponential-only nets, where its
    renewal equations reduce to the embedded-chain solution — the routes
    must then agree, which the differential harness in ``tests/engine/``
    exploits.

    Solutions are memoized in the engine's solver cache (keyed by the
    canonical net fingerprint plus ``max_states`` and the *requested*
    ``method``) unless caching is disabled globally or via
    ``use_cache=False``.  Cached results are shared objects: treat them
    as immutable.  A solve that misses the solver cache takes its tangible
    graph from the cache's structure tier when a net with the same
    structure digest was explored before, re-stamped with ``net``'s
    rates (bit-identical to exploring ``net``; the ``dspn.solve`` span
    records ``structure=hit|miss|off``).  ``digests`` are ``net``'s
    :func:`~repro.engine.hashing.net_digests`, for callers that hold
    them already; otherwise they are computed once when needed.

    ``verify`` requests a post-hoc numerical certificate of the returned
    distribution (see :mod:`repro.verify.certify`): ``True`` certifies
    at the default ``1e-9`` residual tolerance, a positive float sets a
    custom tolerance, and ``None``/``False`` (the default) skips
    certification.  Certified results carry their
    :class:`~repro.verify.certify.Certificate` into the cache; on a
    cache hit under ``verify``, an entry whose certificate is missing or
    stale is re-certified in place, and one whose certificate fails (or
    that fails re-certification) is **refused** and recomputed from
    scratch.  A verified solve never reads or writes the structure tier:
    its certificate rests on an exploration of ``net`` itself, not on a
    structure matched by probing.  For the same reason a cached result
    whose graph was re-stamped (``structure == "hit"``) is refused, not
    re-certified.

    Raises
    ------
    ParameterError
        If ``method`` is not one of :data:`METHODS` (rejected eagerly,
        before any state-space work).
    StateSpaceError
        If the reachable marking space exceeds ``max_states``.
    UnsupportedModelError
        If some tangible marking enables more than one deterministic
        transition (fall back to :func:`repro.dspn.simulate.simulate`),
        or if ``method="sparse"`` is requested for a deterministic net.
    SolverError
        If the resulting process has no unique stationary distribution.
    VerificationError
        If ``verify`` is requested and the freshly computed solution
        fails its certificate.
    """
    if method not in METHODS:
        raise ParameterError(
            f"unknown method {method!r}; valid methods: {', '.join(sorted(METHODS))}"
        )
    tolerance = _verification_tolerance(verify)

    # Lazy import: the engine package imports SteadyStateResult from here.
    from repro.engine.cache import active_cache
    from repro.engine.hashing import net_digests, solver_cache_key

    with span("dspn.solve", net=net.name, requested=method) as sp:
        cache = active_cache() if use_cache in (None, True) else None
        if digests is None and (cache is not None or tolerance is not None):
            digests = net_digests(net)
        fingerprint = digests.fingerprint if tolerance is not None else None

        key = None
        if cache is not None:
            key = solver_cache_key(
                digests.fingerprint, max_states=max_states, method=method
            )
            cached = cache.get(key)
            if cached is not None:
                if tolerance is None:
                    sp.set(cache="hit", method=cached.method)
                    return cached
                served = _serve_verified(cache, key, cached, fingerprint, tolerance)
                if served is not None:
                    sp.set(cache="hit", method=served.method)
                    return served
                # stale-and-failing or failing certificate: refuse the entry
                counter("engine.cache.refused").inc()
                sp.set(cache="refused")

        structures = (
            cache.structures if cache is not None and tolerance is None else None
        )
        graph, tier = tangible_graph(
            net, max_states=max_states, structures=structures, digests=digests
        )
        result = _solve_graph(net, graph, method)
        result.structure = tier
        result.pi.setflags(write=False)  # cached results are shared; freeze
        if tolerance is not None:
            result.certificate = _certify_or_raise(result, fingerprint, tolerance)
        if cache is not None and key is not None:
            cache.put(key, result)
        sp.set(method=result.method, states=len(result.pi), structure=tier)
        return result


def tangible_graph(
    net: PetriNet,
    *,
    max_states: int,
    structures: "StructureTier | None" = None,
    digests: "NetDigests | None" = None,
) -> tuple[TangibleGraph, str]:
    """``(graph, "hit" | "miss" | "off")``: ``net``'s tangible graph.

    With a structure tier, a stored structure under ``net``'s structure
    digest and ``max_states`` is stamped with ``net``'s rates (``hit``);
    otherwise ``net`` is explored and its structure stored (``miss``).
    Without one (``off``) the net is explored and nothing is kept.
    """
    if structures is None:
        return tangible_reachability(net, max_states=max_states), "off"
    if digests is None:
        from repro.engine.hashing import net_digests

        digests = net_digests(net)
    key = (digests.structure, max_states)
    structure = structures.get(key)
    if structure is not None:
        return structure.stamp(net), "hit"
    graph = tangible_reachability(net, max_states=max_states)
    structures.put(key, graph.structure)
    return graph, "miss"


def _serve_verified(
    cache,
    key: str,
    cached: SteadyStateResult,
    fingerprint: str | None,
    tolerance: float,
) -> SteadyStateResult | None:
    """Vet a cache hit under ``verify``; ``None`` means refuse the entry.

    A hit with a current, passing certificate at (or below) the
    requested tolerance is served as-is.  A hit whose certificate is
    missing, stale, or looser than requested is re-certified in place —
    cheap, no state-space rebuild — and re-stored on success, unless its
    graph was re-stamped from the structure tier: a certificate must
    rest on an exploration of the net itself, so that entry is refused.
    Anything that fails certification is refused so the caller
    recomputes.
    """
    certificate = getattr(cached, "certificate", None)
    if (
        certificate is not None
        and certificate.passed
        and certificate.is_current(fingerprint)
        and certificate.tolerance <= tolerance
    ):
        return cached
    if certificate is not None and certificate.is_current(fingerprint):
        if certificate.tolerance <= tolerance:
            return None  # current, tight enough, and failing: refuse
    if cached.structure == "hit":
        return None  # a re-stamped graph: certify a fresh exploration instead
    from repro.verify.certify import certify_steady_state

    fresh = certify_steady_state(cached, fingerprint=fingerprint, tolerance=tolerance)
    if not fresh.passed:
        return None
    cached.certificate = fresh
    cache.put(key, cached)
    return cached


def _certify_or_raise(
    result: SteadyStateResult, fingerprint: str | None, tolerance: float
) -> "Certificate":
    from repro.verify.certify import certify_steady_state

    certificate = certify_steady_state(
        result, fingerprint=fingerprint, tolerance=tolerance
    )
    if not certificate.passed:
        failures = "; ".join(check.render() for check in certificate.failures())
        raise VerificationError(
            f"steady-state solution failed certification: {failures}"
        )
    return certificate


def _solve_graph(
    net: PetriNet, graph: TangibleGraph, method: str
) -> SteadyStateResult:
    """The solve of ``net``'s tangible graph, without memoization."""
    deterministic = graph.has_deterministic()
    if method == "sparse" and deterministic:
        raise UnsupportedModelError(
            f"net {net.name!r} enables deterministic transitions; the "
            "sparse route cannot solve it — use method='auto' or 'mrgp'"
        )
    if deterministic or method == "mrgp":
        kernel, sojourn = build_mrgp_kernels(graph)
        solution = solve_mrgp(kernel, sojourn)
        return SteadyStateResult(
            markings=graph.markings, pi=solution.pi, method="mrgp", graph=graph
        )

    if method == "auto":
        with span("dspn.route", **route_exponential(graph)):
            pass
    generator = sparse_generator(graph)
    pi, info = stationary_distribution_sparse(generator, what=f"net {net.name!r}")
    return SteadyStateResult(
        markings=graph.markings,
        pi=pi,
        method="sparse",
        graph=graph,
        solver_info=info,
    )
