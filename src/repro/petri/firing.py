"""Firing rules compiled against place positions.

:meth:`PetriNet.compiled <repro.petri.net.PetriNet.compiled>` turns
each transition into a :class:`FiringRule` once (and again after the
net's structure changes).  A rule holds the place positions and
constant multiplicities of its arcs, the capacity bound of every
capacitated place it produces into; it keeps callables only for what
depends on the marking: guards and marking-dependent arc weights.  The
weight, rate or delay of a firing is its transition's own
(:meth:`FiringRule.value`).  :meth:`PetriNet.enabling_degree` and
:meth:`PetriNet.fire` are views of these rules, and
:func:`repro.statespace.explore` runs its search over their count
tuples.

Semantics (the same as the per-arc evaluation they replace):

* an inhibitor arc disables while its place holds at least its
  multiplicity;
* the enabling degree is the smallest ``tokens // multiplicity`` over
  the input arcs that consume tokens (1 with none);
* a firing that would leave a capacitated place above its capacity,
  counting what the firing takes from that place as well as what it
  puts there, disables the transition;
* the guard is evaluated only where the constant arcs enable the
  transition, and before any marking-dependent arc weight;
* every marking-dependent multiplicity is evaluated in the marking the
  transition fires from.
"""

from __future__ import annotations

from operator import add
from typing import TYPE_CHECKING

from repro.errors import ModelDefinitionError, StateSpaceError
from repro.petri.marking import Marking
from repro.petri.transition import (
    DeterministicTransition,
    ExponentialTransition,
    ImmediateTransition,
    Transition,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.petri.net import PetriNet

Counts = tuple[int, ...]


class FiringRule:
    """One transition's enabling test and firing, on count tuples.

    :meth:`degree` and :meth:`successor` take a marking's ``counts``
    together with the :class:`Marking` itself, which only the guard and
    the marking-dependent quantities read.
    """

    __slots__ = (
        "transition",
        "name",
        "deterministic",
        "_guard",
        "_inhibit",
        "_consume",
        "_dynamic",
        "_flow",
        "_delta",
        "_capacity",
        "_places",
    )

    def __init__(self, net: "PetriNet", transition: Transition) -> None:
        name = transition.name
        position = net.place_index
        inputs = net.input_arcs(name)
        outputs = net.output_arcs(name)
        inhibitors = net.inhibitor_arcs(name)
        self.transition = transition
        self.name = name
        self.deterministic = isinstance(transition, DeterministicTransition)
        self._guard = transition.guard
        self._inhibit = tuple(
            (position[arc.place], arc.multiplicity_in(None))
            for arc in inhibitors
            if _constant(arc)
        )
        self._consume = tuple(
            (position[arc.place], arc.multiplicity_in(None))
            for arc in inputs
            if _constant(arc)
        )
        # marking-dependent inhibitor and input arcs: (inhibits?, place, arc)
        self._dynamic = tuple(
            (inhibits, position[arc.place], arc)
            for inhibits, arcs in ((True, inhibitors), (False, inputs))
            for arc in arcs
            if not _constant(arc)
        )
        # every token-moving arc as (place, arc, sign), inputs first
        self._flow = tuple(
            (position[arc.place], arc, sign)
            for sign, arcs in ((-1, inputs), (1, outputs))
            for arc in arcs
        )
        self._capacity = {
            position[arc.place]: net.places[arc.place].capacity
            for arc in outputs
            if net.places[arc.place].capacity is not None
        }
        self._delta = None
        if all(_constant(arc) for arc in (*inputs, *outputs)):
            delta = [0] * len(position)
            for place, arc, sign in self._flow:
                delta[place] += sign * arc.multiplicity_in(None)
            self._delta = tuple(delta)
        # places in the order a firing updates them, for the error message
        self._places = tuple(
            dict.fromkeys((position[arc.place], arc.place) for arc in (*inputs, *outputs))
        )

    def degree(self, counts: Counts, marking: Marking) -> int:
        """The enabling degree in ``marking`` (0 when disabled)."""
        for place, threshold in self._inhibit:
            if counts[place] >= threshold:
                return 0
        degree = None
        for place, needed in self._consume:
            available = counts[place] // needed
            if not available:
                return 0
            if degree is None or available < degree:
                degree = available
        if self._guard is not None and not self._guard(marking):
            return 0
        for inhibits, place, arc in self._dynamic:
            needed = arc.multiplicity_in(marking)
            if inhibits:
                if counts[place] >= needed:
                    return 0
            elif needed:
                available = counts[place] // needed
                if not available:
                    return 0
                if degree is None or available < degree:
                    degree = available
        if self._capacity:
            after, produced = self._fired(counts, marking)
            for place, bound in self._capacity.items():
                if produced.get(place) and after[place] > bound:
                    return 0
        return 1 if degree is None else degree

    def successor(self, counts: Counts, marking: Marking) -> Counts:
        """The counts after one firing in ``marking`` (assumed enabled)."""
        if self._delta is None:
            after = tuple(self._fired(counts, marking)[0])
        else:
            after = tuple(map(add, counts, self._delta))
        # a place with two input arcs can pass each arc's test and
        # still run out of tokens
        if min(after) < 0:
            for place, name in self._places:
                if after[place] < 0:
                    raise ModelDefinitionError(
                        f"firing would drive place {name!r} to {after[place]} tokens"
                    )
        return after

    def _fired(self, counts: Counts, marking: Marking) -> tuple[list[int], dict[int, int]]:
        """The counts after one firing and the tokens put in each place,
        every multiplicity evaluated in ``marking``."""
        after = list(counts)
        produced: dict[int, int] = {}
        for place, arc, sign in self._flow:
            moved = arc.multiplicity_in(marking)
            after[place] += sign * moved
            if sign > 0:
                produced[place] = produced.get(place, 0) + moved
        return after, produced

    def value(self, marking: Marking, degree: int) -> float:
        """The weight, effective rate or delay of a firing of ``degree``:
        :meth:`ImmediateTransition.weight_in`,
        :meth:`ExponentialTransition.rate_in` or the delay."""
        transition = self.transition
        if isinstance(transition, ImmediateTransition):
            return transition.weight_in(marking)
        if isinstance(transition, ExponentialTransition):
            return transition.rate_in(marking, degree)
        if isinstance(transition, DeterministicTransition):
            return transition.delay
        raise StateSpaceError(f"unsupported transition kind {transition.kind!r}")


def _constant(arc) -> bool:
    return arc._multiplicity is None  # noqa: SLF001 - compiled once per arc


class CompiledNet:
    """Every transition's :class:`FiringRule`, grouped as the search reads them.

    ``levels`` holds the immediate rules by priority, highest first and
    in net order within a level; ``timed`` the other rules in net order.
    """

    __slots__ = ("rules", "levels", "timed")

    def __init__(
        self,
        rules: dict[str, FiringRule],
        levels: tuple[tuple[FiringRule, ...], ...],
        timed: tuple[FiringRule, ...],
    ) -> None:
        self.rules = rules
        self.levels = levels
        self.timed = timed


def compile_net(net: "PetriNet") -> CompiledNet:
    """The :class:`CompiledNet` of ``net``'s current structure."""
    rules = {name: FiringRule(net, t) for name, t in net.transitions.items()}
    priorities = sorted(
        {t.priority for t in net.transitions.values() if isinstance(t, ImmediateTransition)},
        reverse=True,
    )
    levels = tuple(
        tuple(
            rules[t.name]
            for t in net.transitions.values()
            if isinstance(t, ImmediateTransition) and t.priority == priority
        )
        for priority in priorities
    )
    timed = tuple(
        rules[t.name]
        for t in net.transitions.values()
        if not isinstance(t, ImmediateTransition)
    )
    return CompiledNet(rules, levels, timed)
