"""Fleet-scale product net: perception × rejuvenation clock × maintenance.

The Fig. 2 models stay small because a single module pool collapses to
O(N²) markings.  Fleet deployments do not: modules awaiting repair
compete for a *shared maintenance crew pool*, and rejuvenation is
staggered through a pool of clock slots instead of one deterministic
timer, so the product state space multiplies module state, crew
occupancy, and outstanding slots.  The resulting net is exponential-only
(the staggered clock is a race of exponential slot timers, the standard
Markovian approximation of a cyclic rejuvenation schedule), which keeps
it inside the CTMC class — exactly the large-N workload the sparse
route (:mod:`repro.markov.sparse`) exists for: ``N=20`` with six crews
and six slots reaches ~6k markings, whose LU fill estimate is past the
SuperLU budget, so the sparse route solves it by ILU-preconditioned
GMRES.

Module places reuse the Fig. 2 names (``Pmh``/``Pmc``/``Pmf``/``Pmr``)
plus ``Pmm`` for modules holding a crew in maintenance, so
:func:`repro.perception.statemap.module_counts` and every Eq. 1 reward
defined on it work unchanged on fleet markings.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParameterError
from repro.perception.no_rejuvenation import (
    PLACE_COMPROMISED,
    PLACE_FAILED,
    PLACE_HEALTHY,
    PLACE_REJUVENATING,
)
from repro.perception.parameters import PerceptionParameters
from repro.petri import NetBuilder, PetriNet
from repro.utils.validation import check_positive, check_positive_int

#: Modules undergoing maintenance (holding a crew token).
PLACE_MAINTENANCE = "Pmm"
#: Idle maintenance crews (shared across the fleet).
PLACE_CREWS = "Pcrew"
#: Armed rejuvenation-clock slots (staggered schedule).
PLACE_CLOCK_SLOTS = "Prc"


@dataclass(frozen=True)
class FleetParameters:
    """Sizing of the fleet product net on top of the Table II rates.

    Attributes
    ----------
    perception:
        Per-module rates and error probabilities (Table II).  Only the
        rate parameters are consumed here; voting-related fields keep
        their usual meaning for rewards layered on top.
    crews:
        Shared maintenance crews: failed modules wait for a free crew
        (``Td``), hold it for the mean maintenance time, and release it
        when the module returns healthy (``Tm``).
    clock_slots:
        Staggered rejuvenation slots: each armed slot fires as an
        exponential timer at the clock rate and pulls one *compromised*
        module into rejuvenation; the slot re-arms when the module
        completes (``Trj``).
    mean_maintenance_time:
        Mean crew-occupied repair time (``Tm``), seconds.
    mean_dispatch_time:
        Mean failed-module pickup latency once a crew is free (``Td``),
        seconds.
    """

    perception: PerceptionParameters
    crews: int = 2
    clock_slots: int = 2
    mean_maintenance_time: float = 180.0
    mean_dispatch_time: float = 30.0

    def __post_init__(self) -> None:
        check_positive_int("crews", self.crews)
        check_positive_int("clock_slots", self.clock_slots)
        check_positive("mean_maintenance_time", self.mean_maintenance_time)
        check_positive("mean_dispatch_time", self.mean_dispatch_time)
        if self.crews > self.perception.n_modules:
            raise ParameterError(
                f"crews={self.crews} exceeds the fleet size "
                f"n_modules={self.perception.n_modules}"
            )

    @classmethod
    def nv15_defaults(cls, **overrides) -> "FleetParameters":
        """A 15-version fleet with two crews and two clock slots (~1k states)."""
        values = dict(
            perception=PerceptionParameters(
                n_modules=15, f=2, r=2, rejuvenation=True
            ),
            crews=2,
            clock_slots=2,
        )
        values.update(overrides)
        return cls(**values)

    @classmethod
    def nv20_defaults(cls, **overrides) -> "FleetParameters":
        """A 20-version fleet with six crews and six slots (~6k states).

        Sized past the SuperLU fill budget, so the sparse route solves
        it by ILU-preconditioned GMRES in well under a second — the
        ``sparse-steady-nv20`` benchmark workload.
        """
        values = dict(
            perception=PerceptionParameters(
                n_modules=20, f=2, r=2, rejuvenation=True
            ),
            crews=6,
            clock_slots=6,
        )
        values.update(overrides)
        return cls(**values)


def build_fleet_net(parameters: FleetParameters) -> PetriNet:
    """Build the perception × clock × maintenance product net.

    Exponential-only by construction — every marking of the product
    space is tangible, so the net always takes the CTMC route and is
    eligible for ``method="sparse"``.
    """
    perception = parameters.perception
    builder = NetBuilder(
        f"fleet-{perception.n_modules}v-{parameters.crews}crew-"
        f"{parameters.clock_slots}slot"
    )
    builder.place(PLACE_HEALTHY, tokens=perception.n_modules, label="healthy")
    builder.place(PLACE_COMPROMISED, label="compromised")
    builder.place(PLACE_FAILED, label="failed, awaiting crew")
    builder.place(PLACE_MAINTENANCE, label="under maintenance")
    builder.place(PLACE_REJUVENATING, label="rejuvenating")
    builder.place(PLACE_CREWS, tokens=parameters.crews, label="idle crews")
    builder.place(
        PLACE_CLOCK_SLOTS, tokens=parameters.clock_slots, label="armed clock slots"
    )
    # Module degradation: the Fig. 2 compromise/failure race.
    builder.exponential(
        "Tc",
        rate=perception.lambda_c,
        inputs={PLACE_HEALTHY: 1},
        outputs={PLACE_COMPROMISED: 1},
    )
    builder.exponential(
        "Tf",
        rate=perception.lambda_f,
        inputs={PLACE_COMPROMISED: 1},
        outputs={PLACE_FAILED: 1},
    )
    # Maintenance: a failed module captures a free crew, is repaired,
    # and releases the crew when it rejoins the healthy pool.
    builder.exponential(
        "Td",
        rate=1.0 / parameters.mean_dispatch_time,
        inputs={PLACE_FAILED: 1, PLACE_CREWS: 1},
        outputs={PLACE_MAINTENANCE: 1},
    )
    builder.exponential(
        "Tm",
        rate=1.0 / parameters.mean_maintenance_time,
        inputs={PLACE_MAINTENANCE: 1},
        outputs={PLACE_HEALTHY: 1, PLACE_CREWS: 1},
    )
    # Staggered rejuvenation: an armed slot fires at the clock rate,
    # pulling one compromised module into rejuvenation; completing the
    # rejuvenation re-arms the slot.
    builder.exponential(
        "Trc",
        rate=perception.gamma,
        inputs={PLACE_CLOCK_SLOTS: 1, PLACE_COMPROMISED: 1},
        outputs={PLACE_REJUVENATING: 1},
    )
    builder.exponential(
        "Trj",
        rate=1.0 / perception.rejuvenation_time_per_module,
        inputs={PLACE_REJUVENATING: 1},
        outputs={PLACE_HEALTHY: 1, PLACE_CLOCK_SLOTS: 1},
    )
    return builder.build()
