"""Request specs and the picklable worker functions behind the service.

The HTTP layer accepts small JSON *specs* naming a perception-system
configuration (the same vocabulary as the CLI flags); this module turns
a spec into :class:`~repro.perception.parameters.PerceptionParameters`
(:func:`resolve_spec` — equal for every spelling of one model, so the
service keys its coalescer and result cache on it), derives a spec's
net identity (:func:`fingerprint_spec`), and provides the
module-level functions the service ships to its ``ProcessPoolExecutor``
(:func:`solve_worker`, :func:`verify_worker`).  All of them are calls
onto one :class:`~repro.perception.evaluation.Evaluation` request, so
serving adds transport, not a second evaluation path, and worker-side
results flow through the same solver/reward caches as CLI sweeps.

Every result dict is plain data (JSON-able, picklable) and carries the
net ``fingerprint`` plus the request's ``cache_key``; the service
adds a SHA-256 ``digest`` over the canonical result JSON so clients
hold hash-verifiable evidence (see :func:`result_digest`).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from typing import TYPE_CHECKING, Any

from repro.dspn.steady_state import METHODS
from repro.errors import ReproError
from repro.perception.parameters import PerceptionParameters

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.perception.evaluation import Evaluation

#: Spec keys that override individual Table II parameters.
PARAMETER_KEYS = {
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

_PRESETS = {
    "four": PerceptionParameters.four_version_defaults,
    "six": PerceptionParameters.six_version_defaults,
}

DEFAULT_MAX_STATES = 200_000


class SpecError(ReproError):
    """A request spec that cannot name a valid configuration."""


def _integer(spec: dict[str, Any], key: str, default: int) -> int:
    value = spec.get(key, default)
    if type(value) is not int:  # rejects floats and bool, an int subclass
        raise SpecError(f"{key!r} must be an integer, got {value!r}")
    return value


def _number(spec: dict[str, Any], key: str) -> float:
    value = spec[key]
    try:
        if type(value) in (int, float) and math.isfinite(value):
            return float(value)
    except OverflowError:  # an integer beyond the float range
        pass
    raise SpecError(f"{key!r} must be a finite number, got {value!r}")


def resolve_spec(
    spec: dict[str, Any],
) -> tuple[PerceptionParameters, int, str]:
    """``(parameters, max_states, method)`` for one request spec.

    The triple is hashable, and equal for specs that name one model
    (``{"preset": "six"}`` and the explicit six-version spec), without
    building a net.

    Mirrors the CLI: ``preset`` (``"four"``/``"six"``) or ``versions``
    (+ ``f``/``r``/``rejuvenation``) selects the shape, the Table II
    keys override rates, and ``max_states``/``method`` tune the solve.
    Any input that would be ignored or coerced — an unknown key, a shape
    key beside ``preset``, ``r``/``interval``/``rejuvenation_time``
    without rejuvenation, a non-integer count — is a :class:`SpecError`.
    """
    if not isinstance(spec, dict):
        raise SpecError(f"spec must be a JSON object, got {type(spec).__name__}")
    unknown = sorted(set(spec) - _SHAPE_KEYS - set(PARAMETER_KEYS) - _SOLVE_KEYS)
    if unknown:
        raise SpecError(f"unknown spec key {unknown[0]!r}")

    overrides = {
        attribute: _number(spec, key)
        for key, attribute in PARAMETER_KEYS.items()
        if key in spec
    }
    if "preset" in spec:
        preset = spec["preset"]
        if not isinstance(preset, str) or preset not in _PRESETS:
            raise SpecError(f"unknown preset {preset!r}; use 'four' or 'six'")
        for key in ("versions", "f", "r", "rejuvenation"):
            if key in spec:
                raise SpecError(
                    f"preset {preset!r} fixes {key!r}; "
                    "give either 'preset' or 'versions', not both"
                )
        build = _PRESETS[preset]
    elif "versions" in spec:
        rejuvenation = spec.get("rejuvenation", False)
        if not isinstance(rejuvenation, bool):
            raise SpecError(
                f"'rejuvenation' must be true or false, got {rejuvenation!r}"
            )
        build = functools.partial(
            PerceptionParameters,
            n_modules=_integer(spec, "versions", 0),
            f=_integer(spec, "f", 1),
            r=_integer(spec, "r", 1),
            rejuvenation=rejuvenation,
        )
    else:
        raise SpecError("spec needs 'preset' ('four'/'six') or 'versions'")
    try:
        parameters = build(**overrides)
    except (TypeError, ValueError) as error:
        raise SpecError(f"invalid spec value: {error}") from error
    for key in ("r", "interval", "rejuvenation_time"):
        if key in spec and not parameters.rejuvenation:
            raise SpecError(f"{key!r} applies only with rejuvenation")

    max_states = _integer(spec, "max_states", DEFAULT_MAX_STATES)
    if max_states < 1:
        raise SpecError(f"max_states must be >= 1, got {max_states}")
    method = spec.get("method", "auto")
    if method not in METHODS:
        raise SpecError(
            f"unknown method {method!r}; valid methods: {', '.join(sorted(METHODS))}"
        )
    return parameters, max_states, method


def _evaluation(spec: dict[str, Any], **options: Any) -> "Evaluation":
    """The Eq. 1 request a spec names."""
    from repro.perception.evaluation import Evaluation

    parameters, max_states, method = resolve_spec(spec)
    return Evaluation(parameters, method=method, max_states=max_states, **options)


def fingerprint_spec(spec: dict[str, Any]) -> tuple[str, str]:
    """``(fingerprint, cache_key)`` — the canonical identity of a spec.

    It builds the spec's net; the service never calls it (the workers'
    results carry both values), so it serves tests and benchmarks.

    The fingerprint is the engine's content-addressed net fingerprint,
    so two specs that *assemble the same model* (e.g. ``preset: six``
    versus the explicit six-version parameters) share one identity.
    The cache key is the spec's :attr:`Evaluation.key
    <repro.perception.evaluation.Evaluation.key>`: it adds the
    reliability function (so ``p``/``p_prime``/``alpha``, which enter
    Eq. 1 through the reward and not the net), ``max_states`` and
    ``method``, and it is the ``cache_key`` the workers return.
    """
    evaluation = _evaluation(spec)
    return evaluation.fingerprint, evaluation.key


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
def solve_worker(spec: dict[str, Any]) -> dict[str, Any]:
    """Evaluate E[R_sys] for ``spec`` (one ``/v1/solve`` computation)."""
    evaluation = _evaluation(spec)
    return {
        "expected_reliability": evaluation.expected_reliability(),
        "fingerprint": evaluation.fingerprint,
        "cache_key": evaluation.key,
        "n_modules": evaluation.parameters.n_modules,
        "rejuvenation": evaluation.parameters.rejuvenation,
    }


def verify_worker(spec: dict[str, Any]) -> dict[str, Any]:
    """Lint + certify ``spec``'s net (one ``/v1/verify`` computation)."""
    from repro.verify import lint_net

    evaluation = _evaluation(spec, verify=True)
    report = lint_net(evaluation.net, max_states=evaluation.max_states)
    certificate = evaluation.solve().certificate
    return {
        "fingerprint": evaluation.fingerprint,
        "cache_key": evaluation.key,
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
