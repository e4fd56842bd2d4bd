"""Simulated ML modules with the paper's state machine.

A module is in one of four states (§III):

* ``HEALTHY`` — produces a correct output unless a (possibly dependent)
  error occurs (inaccuracy p);
* ``COMPROMISED`` — accuracy degraded by an ongoing fault or attack;
  errors are independent with probability p' > p;
* ``FAILED`` — non-operational, produces no output;
* ``REJUVENATING`` — offline while being reloaded/redeployed; produces
  no output but returns healthy.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.utils.validation import check_non_negative_int


class ModuleState(enum.Enum):
    """Life-cycle state of an ML module version."""

    HEALTHY = "healthy"
    COMPROMISED = "compromised"
    FAILED = "failed"
    REJUVENATING = "rejuvenating"


def module_census(modules: "list[MLModule]"):
    """The (i, j, k) census of a module pool as a ModuleCounts triple.

    ``k`` counts failed *and* rejuvenating modules, matching the paper's
    state definition (§IV-D).
    """
    from repro.perception.statemap import ModuleCounts

    healthy = sum(1 for m in modules if m.state is ModuleState.HEALTHY)
    compromised = sum(1 for m in modules if m.state is ModuleState.COMPROMISED)
    return ModuleCounts(
        healthy=healthy,
        compromised=compromised,
        unavailable=len(modules) - healthy - compromised,
    )


@dataclass
class MLModule:
    """One ML module version, stepped by the reference interpreter."""

    module_id: int
    state: ModuleState = ModuleState.HEALTHY

    def __post_init__(self) -> None:
        check_non_negative_int("module_id", self.module_id)

    @property
    def is_operational(self) -> bool:
        """Whether the module currently produces outputs."""
        return self.state in (ModuleState.HEALTHY, ModuleState.COMPROMISED)

    def compromise(self) -> None:
        """A fault or attack degrades the module (H -> C)."""
        self._move(ModuleState.HEALTHY, ModuleState.COMPROMISED)

    def fail(self) -> None:
        """The compromised module crashes (C -> N)."""
        self._move(ModuleState.COMPROMISED, ModuleState.FAILED)

    def repair(self) -> None:
        """Recovery after failure detection (N -> H)."""
        self._move(ModuleState.FAILED, ModuleState.HEALTHY)

    def start_rejuvenation(self) -> None:
        """Taken offline by the rejuvenation mechanism (H/C -> R)."""
        if not self.is_operational:
            raise ValueError(
                f"module {self.module_id} cannot rejuvenate from {self.state.value}"
            )
        self.state = ModuleState.REJUVENATING

    def finish_rejuvenation(self) -> None:
        """Rejuvenation completes (R -> H)."""
        self._move(ModuleState.REJUVENATING, ModuleState.HEALTHY)

    def _move(self, expected: ModuleState, target: ModuleState) -> None:
        if self.state is not expected:
            raise ValueError(
                f"module {self.module_id} is {self.state.value}, expected "
                f"{expected.value} for transition to {target.value}"
            )
        self.state = target
