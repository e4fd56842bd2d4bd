"""Property-based tests of request-spec resolution.

A spec resolves only if every field it carries takes effect:

* *injectivity*: changing any field of a valid spec to another valid
  value either raises :class:`SpecError` or takes effect — the resolved
  request carries the new value, and a request that differs changes
  :func:`fingerprint_spec`'s key — so no field is silently dropped;
* *totality*: a valid spec with arbitrary JSON values written over one
  or two fields either raises :class:`SpecError` (never a bare
  ``TypeError``/``ValueError``) or resolves to a request that carries
  exactly those values, with integer counts, float rates and a boolean
  ``rejuvenation``.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.serve.worker import (
    METHODS,
    PARAMETER_KEYS,
    SpecError,
    fingerprint_spec,
    resolve_spec,
)

#: Valid values per rate key, distinct enough that no two share a rate.
RATE_VALUES = {
    "p": (0.01, 0.08, 0.2, 0.5),
    "p_prime": (0.3, 0.5, 0.7, 0.95),
    "alpha": (0.0, 0.25, 0.5, 1.0),
    "mttc": (500.0, 1000.0, 1523.0, 2750.5),
    "mttf": (1000.0, 3000.0, 4500.25),
    "mttr": (1.0, 3.0, 7.5),
    "interval": (200.0, 600.0, 1800.0),
    "rejuvenation_time": (1.0, 3.0, 6.5),
}

#: Valid values per shape or solver key (the combination may still fail).
FIELD_VALUES = {
    **RATE_VALUES,
    "preset": ("four", "six"),
    "versions": tuple(range(4, 12)),
    "f": (1, 2),
    "r": (1, 2),
    "rejuvenation": (False, True),
    "max_states": (5_000, 50_000, 200_000),
    "method": METHODS,
}

CLOCK_KEYS = ("r", "interval", "rejuvenation_time")


@st.composite
def valid_specs(draw):
    """A spec ``resolve_spec`` accepts."""
    if draw(st.booleans()):
        spec = {"preset": draw(st.sampled_from(("four", "six")))}
        clocked = spec["preset"] == "six"
    else:
        clocked = draw(st.booleans())
        f = draw(st.sampled_from((1, 2)))
        r = draw(st.sampled_from((1, 2)))
        floor = 3 * f + 2 * r + 1 if clocked else 3 * f + 1
        spec = {"versions": draw(st.integers(floor, floor + 2))}
        if f != 1 or draw(st.booleans()):
            spec["f"] = f
        if clocked or draw(st.booleans()):
            spec["rejuvenation"] = clocked
        if clocked and (r != 1 or draw(st.booleans())):
            spec["r"] = r
    for key, values in RATE_VALUES.items():
        if key in CLOCK_KEYS and not clocked:
            continue
        if draw(st.booleans()):
            spec[key] = draw(st.sampled_from(values))
    if draw(st.booleans()):
        spec["max_states"] = draw(st.sampled_from(FIELD_VALUES["max_states"]))
    if draw(st.booleans()):
        spec["method"] = draw(st.sampled_from(("auto", "mrgp")))
    return spec


def _resolves(spec):
    try:
        return resolve_spec(spec)
    except SpecError:
        return None


def _fields(resolved):
    """The value each spec field takes in a resolved request."""
    parameters, max_states, method = resolved
    return {
        **{key: getattr(parameters, name) for key, name in PARAMETER_KEYS.items()},
        "versions": parameters.n_modules,
        "f": parameters.f,
        "r": parameters.r,
        "rejuvenation": parameters.rejuvenation,
        "max_states": max_states,
        "method": method,
    }


@settings(max_examples=30, deadline=None)
@given(spec=valid_specs())
def test_changing_an_accepted_field_changes_the_key(spec):
    resolved_before = resolve_spec(spec)
    key_before = fingerprint_spec(spec)[1]
    for key, values in FIELD_VALUES.items():
        for value in values:
            changed = {**spec, key: value}
            resolved = _resolves(changed)
            if resolved is None:
                continue
            if key != "preset":  # the new value took effect
                assert _fields(resolved)[key] == value, (key, value)
            if resolved != resolved_before:
                assert fingerprint_spec(changed)[1] != key_before, (key, value)


#: Anything JSON can carry, plus the float edge cases Python's json accepts.
json_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(("four", "six", "auto", "mrgp", "false", "1")),
    st.lists(st.integers(0, 3), max_size=2),
)


@settings(max_examples=200, deadline=None)
@given(
    base=valid_specs(),
    corruption=st.dictionaries(
        st.sampled_from((*FIELD_VALUES, "bogus")), json_values, min_size=1, max_size=2
    ),
)
def test_every_other_input_is_a_spec_error(base, corruption):
    spec = {**base, **corruption}
    try:
        parameters, max_states, method = resolve_spec(spec)
    except SpecError:
        return
    fingerprint_spec(spec)
    fields = _fields((parameters, max_states, method))
    for key in set(spec) - {"preset"}:
        assert fields[key] == spec[key]
    # nothing was stored as given without a type check
    assert all(type(fields[key]) is float for key in PARAMETER_KEYS)
    assert all(type(fields[key]) is int for key in ("versions", "f", "r", "max_states"))
    assert type(fields["rejuvenation"]) is bool
    if not parameters.rejuvenation:
        assert not set(CLOCK_KEYS) & set(spec)
