"""Input parameters of the perception models (the paper's Table II).

All times are in seconds; rates are their reciprocals.  The defaults
are exactly Table II:

==============  ======================================  =============
parameter       meaning                                  default
==============  ======================================  =============
n_modules       number of ML module versions (N)        4 or 6
f               tolerated compromised modules           1
r               simultaneous rejuvenations/recoveries   1
alpha           error-probability dependency (α)        0.5
p               healthy-module inaccuracy               0.08
p_prime         compromised-module inaccuracy (p')      0.5
mttc            mean time to compromise (1/λc, Tc)      1523 s
mttf            mean time to fail once compromised
                (1/λ, Tf)                               3000 s
mttr            mean time to repair (1/μ, Tr)           3 s
rejuvenation_
time_per_module mean rejuvenation time per module
                (1/μr = #Pmr × this, Trj)               3 s
rejuvenation_
interval        clock period (1/γ, Trc)                 600 s
==============  ======================================  =============
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from repro.errors import ParameterError
from repro.nversion.voting import (
    VotingScheme,
    bft_minimum_modules,
    bft_rejuvenation_minimum_modules,
)
from repro.utils.validation import (
    check_positive,
    check_positive_int,
    check_probability,
)

#: Parameters that may be swept; anything else is almost certainly a typo.
SWEEPABLE = {
    "alpha",
    "p",
    "p_prime",
    "mttc",
    "mttf",
    "mttr",
    "rejuvenation_time_per_module",
    "rejuvenation_interval",
}


@dataclass(frozen=True)
class PerceptionParameters:
    """Parameter set for an N-version perception system.

    ``rejuvenation`` selects between the Fig. 2(a) model (False: no
    clock, ``2f+1`` voting) and the Fig. 2(b)/(c) model (True: periodic
    rejuvenation, ``2f+r+1`` voting).
    """

    n_modules: int
    f: int = 1
    r: int = 1
    rejuvenation: bool = False
    alpha: float = 0.5
    p: float = 0.08
    p_prime: float = 0.5
    mttc: float = 1523.0
    mttf: float = 3000.0
    mttr: float = 3.0
    rejuvenation_time_per_module: float = 3.0
    rejuvenation_interval: float = 600.0
    #: Set to False to model non-BFT architectures (e.g. the 2-version
    #: agreement or 3-version majority systems of the related work) whose
    #: module counts fall below the 3f+1 / 3f+2r+1 sizing rules.  The
    #: BFT voting_scheme property is then unavailable; supply an explicit
    #: reliability function to the evaluation instead.
    enforce_bft_minimum: bool = True

    def __post_init__(self) -> None:
        check_positive_int("n_modules", self.n_modules)
        check_positive_int("f", self.f)
        check_positive_int("r", self.r)
        check_probability("alpha", self.alpha)
        check_probability("p", self.p)
        check_probability("p_prime", self.p_prime)
        check_positive("mttc", self.mttc)
        check_positive("mttf", self.mttf)
        check_positive("mttr", self.mttr)
        check_positive("rejuvenation_time_per_module", self.rejuvenation_time_per_module)
        check_positive("rejuvenation_interval", self.rejuvenation_interval)
        if self.enforce_bft_minimum:
            minimum = (
                bft_rejuvenation_minimum_modules(self.f, self.r)
                if self.rejuvenation
                else bft_minimum_modules(self.f)
            )
            if self.n_modules < minimum:
                raise ParameterError(
                    f"n_modules={self.n_modules} is below the BFT minimum "
                    f"{minimum} for f={self.f}"
                    + (f", r={self.r} with rejuvenation" if self.rejuvenation else "")
                )

    # ------------------------------------------------------------------
    # the two configurations evaluated in the paper
    # ------------------------------------------------------------------
    @classmethod
    def four_version_defaults(cls, **overrides) -> "PerceptionParameters":
        """Table II defaults for the four-version system (no rejuvenation)."""
        values = dict(n_modules=4, f=1, r=1, rejuvenation=False)
        values.update(overrides)
        return cls(**values)

    @classmethod
    def six_version_defaults(cls, **overrides) -> "PerceptionParameters":
        """Table II defaults for the six-version system (rejuvenation)."""
        values = dict(n_modules=6, f=1, r=1, rejuvenation=True)
        values.update(overrides)
        return cls(**values)

    def replace(self, **changes) -> "PerceptionParameters":
        """A copy with ``changes`` applied (for parameter sweeps)."""
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------
    # derived quantities
    # ------------------------------------------------------------------
    @property
    def lambda_c(self) -> float:
        """Compromise rate λc = 1 / mttc (transition Tc)."""
        return 1.0 / self.mttc

    @property
    def lambda_f(self) -> float:
        """Failure rate λ = 1 / mttf (transition Tf)."""
        return 1.0 / self.mttf

    @property
    def mu(self) -> float:
        """Repair rate μ = 1 / mttr (transition Tr)."""
        return 1.0 / self.mttr

    @property
    def gamma(self) -> float:
        """Rejuvenation-clock rate γ = 1 / rejuvenation_interval (Trc)."""
        return 1.0 / self.rejuvenation_interval

    @property
    def voting_scheme(self) -> VotingScheme:
        """The BFT voting scheme implied by (f, r, rejuvenation)."""
        if self.rejuvenation:
            return VotingScheme.bft_with_rejuvenation(
                self.f, self.r, n_modules=self.n_modules
            )
        return VotingScheme.bft(self.f, n_modules=self.n_modules)

    @property
    def unavailability_budget(self) -> int:
        """Maximum ``k`` for which the voter can still decide.

        Reliability functions are defined for ``k <= f`` without
        rejuvenation and ``k <= f + r`` with rejuvenation (the paper's
        "k <= 1" / "k <= 2" conditions for its two instances).
        """
        return self.f + (self.r if self.rejuvenation else 0)
