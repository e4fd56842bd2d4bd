"""One-dimensional parameter sweeps of the expected reliability."""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from repro.engine import SweepPlan
from repro.engine.tasks import expected_reliability
from repro.errors import ParameterError
from repro.nversion.conventions import OutputConvention
from repro.perception.parameters import SWEEPABLE, PerceptionParameters


@dataclass(frozen=True)
class SweepResult:
    """E[R] evaluated over a grid of one parameter."""

    parameter: str
    values: tuple[float, ...]
    reliabilities: tuple[float, ...]

    def as_rows(self) -> list[tuple[float, float]]:
        return list(zip(self.values, self.reliabilities))

    def argmax(self) -> tuple[float, float]:
        """(parameter value, reliability) of the best grid point."""
        best = max(range(len(self.values)), key=lambda i: self.reliabilities[i])
        return self.values[best], self.reliabilities[best]


def sweep_parameter(
    base: PerceptionParameters,
    parameter: str,
    values: Sequence[float],
    *,
    convention: OutputConvention = OutputConvention.SAFE_SKIP,
    max_states: int = 200_000,
    jobs: int = 1,
) -> SweepResult:
    """Evaluate E[R_sys] for each value of ``parameter``.

    ``base`` supplies every other parameter; ``jobs`` parallelizes the
    grid (identical results to a serial run).  Raises
    :class:`ParameterError` for unknown or non-sweepable parameter
    names.
    """
    if parameter not in SWEEPABLE:
        raise ParameterError(
            f"cannot sweep {parameter!r}; choose one of {sorted(SWEEPABLE)}"
        )
    if not values:
        raise ParameterError("values must not be empty")
    plan = SweepPlan(expected_reliability, label=f"sweep:{parameter}")
    for value in values:
        configured = base.replace(**{parameter: float(value)})
        plan.add(configured, convention, None, max_states)
    reliabilities = plan.run(jobs=jobs)
    return SweepResult(
        parameter=parameter,
        values=tuple(float(v) for v in values),
        reliabilities=tuple(reliabilities),
    )
