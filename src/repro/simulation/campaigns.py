"""Time-varying attack campaigns for the perception runtime.

The analytic models assume a constant compromise rate λc.  Real
adversaries attack in *waves* — bursts of adversarial-input pressure
separated by quiet periods.  An :class:`AttackCampaign` is a
piecewise-constant modulation of λc: during each :class:`AttackWave`
the compromise rate is multiplied by the wave's intensity (overlapping
waves multiply).

The batch simulator fires the compromise channel of round ``k`` with
the step probability at ``multiplier_at(k * request_period)``: exact
for wave boundaries on the round grid, at most one period late
otherwise.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

from repro.errors import ParameterError
from repro.utils.validation import check_non_negative, check_positive


@dataclass(frozen=True)
class AttackWave:
    """One attack window: λc is multiplied by ``intensity`` in [start, end)."""

    start: float
    end: float
    intensity: float

    def __post_init__(self) -> None:
        check_non_negative("start", self.start)
        check_positive("end", self.end)
        check_positive("intensity", self.intensity)
        if self.end <= self.start:
            raise ParameterError(
                f"wave end {self.end} must exceed its start {self.start}"
            )

    def active_at(self, time: float) -> bool:
        return self.start <= time < self.end


@dataclass(frozen=True)
class AttackCampaign:
    """A set of attack waves modulating the compromise rate.

    The piecewise-constant multiplier is compiled once into sorted
    segments so lookups are O(log #waves) — campaigns with many waves
    (e.g. periodic bursts over a long horizon) stay cheap to query.
    """

    waves: tuple[AttackWave, ...]
    _segment_starts: tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )
    _segment_multipliers: tuple[float, ...] = field(
        init=False, repr=False, compare=False, default=()
    )

    def __post_init__(self) -> None:
        if not self.waves:
            raise ParameterError("campaign needs at least one wave")
        # sweep line over wave starts (+intensity) and ends (-intensity):
        # O(n log n) regardless of overlap structure
        events: list[tuple[float, int, float]] = []
        for wave in self.waves:
            events.append((wave.start, 1, wave.intensity))
            events.append((wave.end, -1, wave.intensity))
        events.sort(key=lambda item: (item[0], item[1]))

        starts: list[float] = [0.0]
        multipliers: list[float] = [1.0]
        active: dict[float, int] = {}

        def current_factor() -> float:
            factor = 1.0
            for intensity, count in active.items():
                factor *= intensity**count
            return factor

        position = 0
        while position < len(events):
            time = events[position][0]
            while position < len(events) and events[position][0] == time:
                _, direction, intensity = events[position]
                count = active.get(intensity, 0) + direction
                if count:
                    active[intensity] = count
                else:
                    active.pop(intensity, None)
                position += 1
            if time <= starts[-1] and len(starts) == 1:
                multipliers[-1] = current_factor()
            else:
                starts.append(time)
                multipliers.append(current_factor())
        object.__setattr__(self, "_segment_starts", tuple(starts))
        object.__setattr__(self, "_segment_multipliers", tuple(multipliers))

    @classmethod
    def periodic(
        cls,
        *,
        period: float,
        burst_duration: float,
        intensity: float,
        horizon: float,
        first_start: float = 0.0,
    ) -> "AttackCampaign":
        """Regular attack bursts: every ``period`` seconds, a burst of
        ``burst_duration`` seconds at ``intensity`` times the base rate,
        generated up to ``horizon``."""
        check_positive("period", period)
        check_positive("burst_duration", burst_duration)
        if burst_duration > period:
            raise ParameterError("burst_duration must not exceed the period")
        waves = []
        start = first_start
        while start < horizon:
            waves.append(
                AttackWave(start=start, end=start + burst_duration, intensity=intensity)
            )
            start += period
        return cls(waves=tuple(waves))

    def multiplier_at(self, time: float) -> float:
        """The λc multiplier at ``time`` (product of active waves)."""
        if time < self._segment_starts[0]:
            return 1.0
        index = bisect.bisect_right(self._segment_starts, time) - 1
        return self._segment_multipliers[index]

    def boundaries(self) -> list[float]:
        """All instants where the multiplier may change, sorted."""
        points = {wave.start for wave in self.waves}
        points.update(wave.end for wave in self.waves)
        return sorted(points)

    def average_multiplier(self, horizon: float) -> float:
        """Time-average of the multiplier over ``[0, horizon]``.

        Useful for constructing a constant-rate campaign with the same
        mean intensity (the fair baseline when studying burstiness).
        Exact: the multiplier is piecewise constant between boundaries,
        so midpoint evaluation per segment integrates it without error.
        """
        check_positive("horizon", horizon)
        edges = [0.0] + [b for b in self.boundaries() if 0.0 < b < horizon] + [horizon]
        total = 0.0
        for left, right in zip(edges, edges[1:]):
            total += self.multiplier_at((left + right) / 2.0) * (right - left)
        return total / horizon
