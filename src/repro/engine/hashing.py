"""Canonical, content-addressed fingerprints of Petri nets.

The sweep engine memoizes steady-state solutions keyed by *what the net
is*, not by how it was assembled.  Two nets built in different
place/transition insertion orders — or by different builder code paths —
must hash identically whenever they describe the same model, and nets
that differ in any rate, delay, weight, guard, marking or arc must hash
differently.

Structural data (place names, initial tokens, capacities, arc wiring,
transition kinds, priorities, server semantics, delays) is serialized
directly, with every element list sorted by name so insertion order
cannot leak into the digest.  Behavioural data — rates, weights, arc
multiplicities and guards, all of which may be arbitrary ``Marking ->
value`` callables — cannot be serialized, so it is *probed*: each
callable is evaluated on a deterministic family of markings derived from
the net's places (the initial marking, the empty and all-ones markings,
and single-place perturbations).  A callable that raises on a probe
contributes the exception type, which is itself deterministic.

Probing is a semantic fingerprint, not a proof of equality: two
callables that agree on every probe but differ on some reachable marking
would collide.  The probe family is chosen to separate every
marking-dependent expression appearing in the perception models (token
counts, ratios such as ``#Pmc / (#Pmc + #Pmh)``, and ``min``/``max``
batch weights); see ``docs/ENGINE.md`` for the invalidation rules.
"""

from __future__ import annotations

import dataclasses
import hashlib
from collections.abc import Iterable

from repro.petri.arc import Arc
from repro.petri.marking import Marking
from repro.petri.net import PetriNet
from repro.petri.transition import (
    DeterministicTransition,
    ExponentialTransition,
    ImmediateTransition,
)

#: Bump whenever the serialization format below changes; old cache
#: entries (in memory or on disk) then miss instead of aliasing.
FINGERPRINT_VERSION = 1

#: Bump whenever the solver code changes the numbers or labels it
#: produces for a key; solver and reward entries stored under an older
#: revision (in memory or on disk) then miss and are recomputed.
#: Revision 2: every exponential-only net is solved on its CSR generator
#: (``method="sparse"``, no more ``"ctmc"``), and the anchored solve
#: keeps the positive mass below 1e-10 that older code dropped.
#: Revision 3: MRGP kernels multiply only the nonzero blocks of the
#: subordinated generator's component order, which reorders sums and
#: moves π by ~1e-15; a revision-2 entry would no longer be
#: bit-identical to a fresh solve.
SOLVER_REVISION = 3

#: Token-count levels used for the single-place probe markings.
_PROBE_LEVELS = (1, 2, 5)


def probe_markings(net: PetriNet) -> list[Marking]:
    """Deterministic probe family for ``net``'s marking-dependent callables.

    Contains (in fixed order): the initial marking, the empty marking,
    the all-ones marking, and, for every place in sorted name order, the
    markings that put 1, 2 and 5 tokens on that place alone as well as
    the initial marking with that place perturbed by +1.
    """
    names = sorted(net.places)
    initial = {name: net.places[name].tokens for name in names}
    probes: list[dict[str, int]] = [
        dict(initial),
        {},
        {name: 1 for name in names},
    ]
    for name in names:
        for level in _PROBE_LEVELS:
            probes.append({name: level})
        bumped = dict(initial)
        bumped[name] = bumped.get(name, 0) + 1
        probes.append(bumped)
    index = {name: position for position, name in enumerate(names)}
    markings = []
    for probe in probes:
        counts = [0] * len(names)
        for name, value in probe.items():
            counts[index[name]] = value
        markings.append(Marking(index, tuple(counts)))
    return markings


def _probe(callable_, markings: Iterable[Marking]) -> str:
    """Evaluate a callable over the probes; exceptions fingerprint too."""
    samples = []
    for marking in markings:
        try:
            samples.append(repr(callable_(marking)))
        except Exception as error:  # deliberate: any failure is a sample
            samples.append(f"!{type(error).__name__}")
    return ",".join(samples)


def _arc_line(arc: Arc, markings: list[Marking]) -> str:
    constant = getattr(arc, "_constant", None)
    if getattr(arc, "_multiplicity", None) is None:
        multiplicity = f"const:{constant}"
    else:
        multiplicity = f"fn:{_probe(arc.multiplicity_in, markings)}"
    return f"arc|{arc.transition}|{arc.kind.value}|{arc.place}|{multiplicity}"


@dataclasses.dataclass(frozen=True)
class NetDigests:
    """The two content addresses of a net, from one probe pass.

    ``fingerprint`` identifies the whole net (:func:`net_fingerprint`);
    ``structure`` identifies its reachability graph: the same lines with
    every exponential rate (constant or callable) and every deterministic
    delay left out, so nets that differ only in those values share it.
    The engine's structure tier keys rate-free tangible graphs by it.
    """

    fingerprint: str
    structure: str


def net_digests(net: PetriNet) -> NetDigests:
    """The :class:`NetDigests` of ``net``; each callable is probed once.

    The fingerprint is invariant under place/transition/arc insertion
    order and sensitive to every name, initial token count, capacity,
    rate, weight, priority, delay, guard behaviour, server semantics and
    arc multiplicity.  The net's *name* is deliberately excluded — it is
    a display label.  The structure digest drops rates and delays and
    keeps everything else.
    """
    markings = probe_markings(net)
    lines = []  # (fingerprint line, structure digest line)

    for name in sorted(net.places):
        place = net.places[name]
        line = f"place|{name}|tokens={place.tokens}|capacity={place.capacity}"
        lines.append((line, line))

    for name in sorted(net.transitions):
        transition = net.transitions[name]
        guard = (
            "none"
            if transition.guard is None
            else _probe(transition.guard_satisfied, markings)
        )
        head = f"transition|{name}|{transition.kind}|guard={guard}"
        if isinstance(transition, ExponentialTransition):
            server = f"server={transition.server.value}"
            lines.append(
                (
                    f"{head}|rate={_probe(transition.rate, markings)}|{server}",
                    f"{head}|{server}",
                )
            )
        elif isinstance(transition, ImmediateTransition):
            line = (
                f"{head}|weight={_probe(transition.weight, markings)}"
                f"|priority={transition.priority}"
            )
            lines.append((line, line))
        elif isinstance(transition, DeterministicTransition):
            lines.append((f"{head}|delay={transition.delay!r}", head))
        else:  # pragma: no cover - no other kinds exist today
            lines.append((f"{head}|kind-only", f"{head}|kind-only"))

    arcs = sorted(_arc_line(arc, markings) for arc in net.arcs)
    full = (line for line, _ in lines)
    structural = (line for _, line in lines)
    return NetDigests(
        fingerprint=_sha256(
            [f"repro-net-fingerprint/v{FINGERPRINT_VERSION}", *full, *arcs]
        ),
        structure=_sha256(
            [f"repro-net-structure/v{FINGERPRINT_VERSION}", *structural, *arcs]
        ),
    )


def _sha256(lines: list[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def net_fingerprint(net: PetriNet) -> str:
    """SHA-256 hex digest identifying ``net`` up to probe resolution.

    The ``fingerprint`` of :func:`net_digests`; call that instead when
    the structure digest is wanted as well.
    """
    return net_digests(net).fingerprint


def solver_cache_key(net: "PetriNet | str", *, max_states: int, method: str) -> str:
    """Content-addressed key for one steady-state solve.

    ``net`` is the net or its :func:`net_fingerprint`, for callers that
    hold the fingerprint already.  Includes the solver options because
    they change the *outcome*: ``max_states`` bounds reachability (a net
    solvable under one bound may raise under another) and ``method``
    selects the analytic route.  :data:`SOLVER_REVISION` keeps results
    of older solver code out.
    """
    fingerprint = net if isinstance(net, str) else net_fingerprint(net)
    base = (
        f"{fingerprint}|max_states={max_states}|method={method}"
        f"|solver={SOLVER_REVISION}"
    )
    return hashlib.sha256(base.encode()).hexdigest()


def reliability_fingerprint(reliability: object) -> str | None:
    """Canonical identity of a reliability function, or ``None``.

    Every reliability function shipped by :mod:`repro.nversion` is a
    frozen dataclass over scalars, so its class plus field values pin
    its behaviour exactly.  Anything else (a lambda, a closure) has no
    stable identity — return ``None`` and let callers skip memoization
    rather than risk keying on a memory address.
    """
    if dataclasses.is_dataclass(reliability) and not isinstance(reliability, type):
        cls = type(reliability)
        fields = ",".join(
            f"{field.name}={getattr(reliability, field.name)!r}"
            for field in sorted(dataclasses.fields(reliability), key=lambda f: f.name)
        )
        return f"{cls.__module__}.{cls.__qualname__}({fields})"
    return None


def reward_cache_key(
    fingerprint: str, *, reliability_fp: str, max_states: int, method: str = "auto"
) -> str:
    """Content-addressed key for one expected-reward scalar.

    The derived-value tier of the cache: E[R_sys] for (net fingerprint,
    reliability function, solver bound, solver route).  ``method`` is
    keyed for the same reason as in :func:`solver_cache_key`: it selects
    the route, and a forced route can refuse a net ``auto`` solves;
    :data:`SOLVER_REVISION` is keyed as there too.  Keys are disjoint
    from solver keys by the leading tag.
    """
    base = (
        f"reward|{fingerprint}|{reliability_fp}"
        f"|max_states={max_states}|method={method}|solver={SOLVER_REVISION}"
    )
    return hashlib.sha256(base.encode()).hexdigest()
