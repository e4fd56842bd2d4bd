"""The Petri net container and its firing semantics."""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from repro.errors import ModelDefinitionError
from repro.petri.arc import Arc, ArcKind, MultiplicityLike
from repro.petri.firing import CompiledNet, compile_net
from repro.petri.marking import Marking
from repro.petri.place import Place
from repro.petri.transition import (
    DeterministicTransition,
    ExponentialTransition,
    ImmediateTransition,
    Transition,
)


class PetriNet:
    """A Deterministic and Stochastic Petri Net.

    The net holds places, transitions and arcs, and implements the
    enabling and firing rules.  State-space generation and solution live
    in :mod:`repro.statespace` and :mod:`repro.dspn`; this class is purely
    structural/behavioural.

    Elements are added with :meth:`add_place`, :meth:`add_transition` and
    :meth:`add_arc` (or through :class:`repro.petri.builder.NetBuilder`).
    Call :meth:`validate` (done automatically by the builder) once the
    structure is complete.
    """

    def __init__(self, name: str) -> None:
        if not name or not isinstance(name, str):
            raise ModelDefinitionError(f"net name must be a non-empty string, got {name!r}")
        self.name = name
        self._places: dict[str, Place] = {}
        self._transitions: dict[str, Transition] = {}
        self._arcs: list[Arc] = []
        self._inputs: dict[str, list[Arc]] = {}
        self._outputs: dict[str, list[Arc]] = {}
        self._inhibitors: dict[str, list[Arc]] = {}
        self._place_index: dict[str, int] = {}
        self._compiled: CompiledNet | None = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_place(self, place: Place) -> Place:
        """Register a place; names must be unique across places."""
        if place.name in self._places:
            raise ModelDefinitionError(f"duplicate place {place.name!r}")
        if place.name in self._transitions:
            raise ModelDefinitionError(
                f"name {place.name!r} already used by a transition"
            )
        self._places[place.name] = place
        self._compiled = None
        self._place_index[place.name] = len(self._place_index)
        return place

    def add_transition(self, transition: Transition) -> Transition:
        """Register a transition; names must be unique across transitions."""
        if transition.name in self._transitions:
            raise ModelDefinitionError(f"duplicate transition {transition.name!r}")
        if transition.name in self._places:
            raise ModelDefinitionError(
                f"name {transition.name!r} already used by a place"
            )
        self._transitions[transition.name] = transition
        self._compiled = None
        self._inputs[transition.name] = []
        self._outputs[transition.name] = []
        self._inhibitors[transition.name] = []
        return transition

    def add_arc(
        self,
        place: str,
        transition: str,
        kind: ArcKind,
        multiplicity: MultiplicityLike = 1,
    ) -> Arc:
        """Connect ``place`` and ``transition`` with an arc of ``kind``."""
        if place not in self._places:
            raise ModelDefinitionError(f"arc references unknown place {place!r}")
        if transition not in self._transitions:
            raise ModelDefinitionError(f"arc references unknown transition {transition!r}")
        arc = Arc(place, transition, kind, multiplicity)
        self._compiled = None
        self._arcs.append(arc)
        registry = {
            ArcKind.INPUT: self._inputs,
            ArcKind.OUTPUT: self._outputs,
            ArcKind.INHIBITOR: self._inhibitors,
        }[kind]
        registry[transition].append(arc)
        return arc

    def validate(self) -> None:
        """Check structural sanity; raises :class:`ModelDefinitionError`.

        Verifies that every timed transition has at least one input or a
        guard (otherwise it would be permanently enabled with nothing to
        consume, which is almost always a modelling mistake) and that no
        place/transition namespace collisions exist (enforced on add).
        """
        if not self._places:
            raise ModelDefinitionError(f"net {self.name!r} has no places")
        if not self._transitions:
            raise ModelDefinitionError(f"net {self.name!r} has no transitions")
        for transition in self._transitions.values():
            if (
                not self._inputs[transition.name]
                and not self._inhibitors[transition.name]
                and transition.guard is None
            ):
                raise ModelDefinitionError(
                    f"transition {transition.name!r} has no input arcs, no "
                    "inhibitor arcs and no guard; it would fire unconditionally"
                )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def places(self) -> Mapping[str, Place]:
        return self._places

    @property
    def transitions(self) -> Mapping[str, Transition]:
        return self._transitions

    @property
    def arcs(self) -> Iterable[Arc]:
        return tuple(self._arcs)

    @property
    def place_index(self) -> Mapping[str, int]:
        """Stable name→position mapping shared by all markings of this net."""
        return self._place_index

    def input_arcs(self, transition: str) -> Iterable[Arc]:
        return tuple(self._inputs[transition])

    def output_arcs(self, transition: str) -> Iterable[Arc]:
        return tuple(self._outputs[transition])

    def inhibitor_arcs(self, transition: str) -> Iterable[Arc]:
        return tuple(self._inhibitors[transition])

    def immediate_transitions(self) -> list[ImmediateTransition]:
        return [t for t in self._transitions.values() if isinstance(t, ImmediateTransition)]

    def exponential_transitions(self) -> list[ExponentialTransition]:
        return [t for t in self._transitions.values() if isinstance(t, ExponentialTransition)]

    def deterministic_transitions(self) -> list[DeterministicTransition]:
        return [t for t in self._transitions.values() if isinstance(t, DeterministicTransition)]

    # ------------------------------------------------------------------
    # behaviour
    # ------------------------------------------------------------------
    def initial_marking(self) -> Marking:
        """The marking defined by the places' initial token counts."""
        counts = [0] * len(self._place_index)
        for name, place in self._places.items():
            counts[self._place_index[name]] = place.tokens
        return Marking(self._place_index, tuple(counts))

    def marking(self, tokens: Mapping[str, int]) -> Marking:
        """Build an arbitrary marking of this net from a partial mapping."""
        return Marking.from_dict(self._place_index, tokens)

    def compiled(self) -> CompiledNet:
        """The firing rules of every transition (:mod:`repro.petri.firing`),
        compiled on first use after the last structural change."""
        if self._compiled is None:
            self._compiled = compile_net(self)
        return self._compiled

    def enabling_degree(self, transition: Transition, marking: Marking) -> int:
        """Number of times ``transition`` could fire concurrently.

        Returns 0 when the transition is disabled (insufficient input
        tokens, inhibition, unsatisfied guard, or a firing that would
        leave an output place above its capacity).
        """
        rule = self.compiled().rules[transition.name]
        return rule.degree(marking.counts, marking)

    def is_enabled(self, transition: Transition, marking: Marking) -> bool:
        """Whether ``transition`` may fire in ``marking``."""
        return self.enabling_degree(transition, marking) > 0

    def enabled_transitions(self, marking: Marking) -> list[Transition]:
        """All transitions enabled in ``marking`` (no priority filtering)."""
        return [t for t in self._transitions.values() if self.is_enabled(t, marking)]

    def fire(self, transition: Transition, marking: Marking) -> Marking:
        """Fire ``transition`` once and return the successor marking.

        Multiplicities of input and output arcs are both evaluated against
        the *source* marking, matching the usual DSPN tool semantics for
        marking-dependent arc weights.
        """
        rule = self.compiled().rules[transition.name]
        if not rule.degree(marking.counts, marking):
            raise ModelDefinitionError(
                f"transition {transition.name!r} is not enabled in {marking.compact()}"
            )
        return Marking(marking.place_index, rule.successor(marking.counts, marking))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"PetriNet({self.name!r}, places={len(self._places)}, "
            f"transitions={len(self._transitions)}, arcs={len(self._arcs)})"
        )
