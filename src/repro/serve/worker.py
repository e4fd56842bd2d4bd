"""Request specs and the picklable worker functions behind the service.

The HTTP layer accepts small JSON *specs* naming a perception-system
configuration (the same vocabulary as the CLI flags); this module turns
a spec into :class:`~repro.perception.parameters.PerceptionParameters`
(:func:`resolve_spec`), computes the engine's canonical net fingerprint
for it (:func:`fingerprint_spec` — the key the coalescer and result
cache share), and provides the module-level functions the service ships
to its ``ProcessPoolExecutor`` (:func:`solve_worker`,
:func:`verify_worker`).  Both reuse the existing engine machinery —
:func:`repro.engine.tasks.expected_reliability` and
:func:`repro.dspn.solve_steady_state` — so serving adds transport, not
a second evaluation path, and worker-side results flow through the same
solver/reward caches as CLI sweeps.

Every result dict is plain data (JSON-able, picklable) and carries the
net ``fingerprint`` plus the solver-cache ``cache_key``; the service
adds a SHA-256 ``digest`` over the canonical result JSON so clients
hold hash-verifiable evidence (see :func:`result_digest`).
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

from repro.engine.cache import configure_cache
from repro.errors import ReproError
from repro.perception.parameters import PerceptionParameters

#: Spec keys that override individual Table II parameters.
_PARAMETER_KEYS = {
    "p": "p",
    "p_prime": "p_prime",
    "alpha": "alpha",
    "mttc": "mttc",
    "mttf": "mttf",
    "mttr": "mttr",
    "interval": "rejuvenation_interval",
    "rejuvenation_time": "rejuvenation_time_per_module",
}

#: Spec keys selecting the configuration shape.
_SHAPE_KEYS = {"preset", "versions", "f", "r", "rejuvenation"}

#: Spec keys configuring the solve itself.
_SOLVE_KEYS = {"max_states", "method"}

DEFAULT_MAX_STATES = 200_000
METHODS = ("auto", "ctmc", "mrgp", "sparse")


class SpecError(ReproError):
    """A request spec that cannot name a valid configuration."""


def resolve_spec(
    spec: dict[str, Any],
) -> tuple[PerceptionParameters, int, str]:
    """``(parameters, max_states, method)`` for one request spec.

    Mirrors the CLI: ``preset`` (``"four"``/``"six"``) or ``versions``
    (+ ``f``/``r``/``rejuvenation``) selects the shape, the Table II
    keys override rates, and ``max_states``/``method`` tune the solve.
    Unknown keys are rejected — a typoed parameter must not silently
    evaluate the defaults.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"spec must be a JSON object, got {type(spec).__name__}")
    unknown = sorted(set(spec) - _SHAPE_KEYS - set(_PARAMETER_KEYS) - _SOLVE_KEYS)
    if unknown:
        raise SpecError(f"unknown spec key {unknown[0]!r}")

    overrides = {}
    for key, attribute in _PARAMETER_KEYS.items():
        if key in spec:
            overrides[attribute] = float(spec[key])

    preset = spec.get("preset")
    try:
        if preset is not None:
            if preset not in ("four", "six"):
                raise SpecError(f"unknown preset {preset!r}; use 'four' or 'six'")
            if "versions" in spec:
                raise SpecError("give either 'preset' or 'versions', not both")
            build = (
                PerceptionParameters.four_version_defaults
                if preset == "four"
                else PerceptionParameters.six_version_defaults
            )
            parameters = build(**overrides)
        elif "versions" in spec:
            parameters = PerceptionParameters(
                n_modules=int(spec["versions"]),
                f=int(spec.get("f", 1)),
                r=int(spec.get("r", 1)),
                rejuvenation=bool(spec.get("rejuvenation", False)),
                **overrides,
            )
        else:
            raise SpecError("spec needs 'preset' ('four'/'six') or 'versions'")
    except (TypeError, ValueError) as error:
        raise SpecError(f"invalid spec value: {error}") from error

    max_states = int(spec.get("max_states", DEFAULT_MAX_STATES))
    if max_states < 1:
        raise SpecError(f"max_states must be >= 1, got {max_states}")
    method = spec.get("method", "auto")
    if method not in METHODS:
        raise SpecError(
            f"unknown method {method!r}; valid methods: {', '.join(sorted(METHODS))}"
        )
    return parameters, max_states, method


def build_net(parameters: PerceptionParameters):
    """The Fig. 2 net for ``parameters`` (builder chosen by shape)."""
    from repro.perception.no_rejuvenation import build_no_rejuvenation_net
    from repro.perception.rejuvenation import build_rejuvenation_net

    if parameters.rejuvenation:
        return build_rejuvenation_net(parameters)
    return build_no_rejuvenation_net(parameters)


def fingerprint_spec(spec: dict[str, Any]) -> tuple[str, str]:
    """``(fingerprint, cache_key)`` — the canonical identity of a spec.

    The fingerprint is the engine's content-addressed net fingerprint,
    so two specs that *assemble the same model* (e.g. ``preset: six``
    versus the explicit six-version parameters) share one identity; the
    cache key additionally pins ``max_states`` and ``method``, exactly
    as the solver cache does, plus the reward-only parameters
    (``p``/``p_prime``/``alpha``): those enter Eq. 1 through the reward
    function without touching the net's structure or rates, so the net
    fingerprint alone would conflate specs with different E[R].
    """
    from repro.engine.hashing import net_fingerprint, solver_cache_key

    parameters, max_states, method = resolve_spec(spec)
    net = build_net(parameters)
    reward = hashlib.sha256(
        json.dumps(
            {
                "alpha": repr(parameters.alpha),
                "p": repr(parameters.p),
                "p_prime": repr(parameters.p_prime),
            },
            sort_keys=True,
        ).encode()
    ).hexdigest()[:16]
    solver_key = solver_cache_key(net, max_states=max_states, method=method)
    return net_fingerprint(net), f"{solver_key}:reward:{reward}"


def result_digest(result: dict[str, Any]) -> str:
    """SHA-256 over the canonical JSON of a result dict.

    The serving layer stamps this into every response; a client can
    re-serialize ``result`` (sorted keys, compact separators) and check
    the hash, the same trust model as the engine's disk-cache digests.
    """
    canonical = json.dumps(result, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


# ----------------------------------------------------------------------
# pool entry points (module-level: must survive pickling)
# ----------------------------------------------------------------------
def init_worker(cache_settings: dict[str, Any]) -> None:
    """Pool initializer: replay the parent's cache policy (like sweeps)."""
    configure_cache(**cache_settings)


def instrumented_worker(
    worker: Any, spec: dict[str, Any], obs: dict[str, Any]
) -> dict[str, Any]:
    """Run ``worker(spec)`` under per-request observability.

    ``obs`` is the parent's picklable observability policy:
    ``{"trace": bool, "kind": str, "clock": clock_settings()}``.  The
    worker gets a **fresh private clock** from the settings (a manual
    parent clock restarts at its configured start), so captured span
    timestamps are a pure function of the worker's code path — never of
    how the server interleaved concurrent requests.  Tracing is entered
    *inside* this function because ``run_in_executor`` does not
    propagate context variables; each pool thread/process therefore
    gets an isolated tracer per invocation.

    Returns ``{"result", "records", "compute_seconds"}`` — all plain
    picklable data (``records`` is a list of
    :class:`~repro.obs.tracer.SpanRecord`).
    """
    from repro.obs.clock import clock_from_settings
    from repro.obs.tracer import span, tracing

    clock = clock_from_settings(obs.get("clock") or {"kind": "monotonic"})
    if not obs.get("trace"):
        started = clock.now()
        result = worker(spec)
        return {
            "result": result,
            "records": [],
            "compute_seconds": max(0.0, clock.now() - started),
        }
    with tracing(clock=clock) as tracer:
        with span("serve.compute", kind=obs.get("kind", "solve")):
            result = worker(spec)
    root = tracer.records[0]
    end = root.end if root.end is not None else root.start
    return {
        "result": result,
        "records": tracer.records,
        "compute_seconds": max(0.0, end - root.start),
    }


def solve_worker(spec: dict[str, Any]) -> dict[str, Any]:
    """Evaluate E[R_sys] for ``spec`` (one ``/v1/solve`` computation)."""
    from repro.engine.hashing import net_fingerprint, solver_cache_key
    from repro.engine.tasks import expected_reliability

    parameters, max_states, method = resolve_spec(spec)
    net = build_net(parameters)
    value = expected_reliability(
        parameters, max_states=max_states, method=method
    )
    return {
        "expected_reliability": value,
        "fingerprint": net_fingerprint(net),
        "cache_key": solver_cache_key(
            net, max_states=max_states, method=method
        ),
        "n_modules": parameters.n_modules,
        "rejuvenation": parameters.rejuvenation,
    }


def verify_worker(spec: dict[str, Any]) -> dict[str, Any]:
    """Lint + certify ``spec``'s net (one ``/v1/verify`` computation)."""
    from repro.dspn import solve_steady_state
    from repro.engine.hashing import net_fingerprint, solver_cache_key
    from repro.verify import lint_net

    parameters, max_states, method = resolve_spec(spec)
    net = build_net(parameters)
    report = lint_net(net, max_states=max_states)
    solution = solve_steady_state(
        net, max_states=max_states, method=method, verify=True
    )
    certificate = solution.certificate
    return {
        "fingerprint": net_fingerprint(net),
        "cache_key": solver_cache_key(
            net, max_states=max_states, method=method
        ),
        "lint": {
            "ok": report.ok,
            "truncated": report.truncated,
            "findings": [
                {
                    "rule": finding.rule,
                    "severity": finding.severity.value,
                    "element": finding.element,
                    "message": finding.message,
                }
                for finding in report.findings
            ],
        },
        "certificate": {
            "passed": certificate.passed,
            "method": certificate.method,
            "n_states": certificate.n_states,
            "max_residual": certificate.max_residual,
            "tolerance": certificate.tolerance,
        },
    }


#: Worker dispatch by request kind; the service looks solvers up here so
#: tests can substitute slow/failing doubles without monkeypatching.
WORKERS = {
    "solve": solve_worker,
    "verify": verify_worker,
}
