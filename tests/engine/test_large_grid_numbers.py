"""Pin E[R_sys] on a large-N provisioning grid.

The 24 points are the seed-1 grid of the large sweep benchmark:
no-rejuvenation N 32–64, which crosses from the dense to the sparse
solver route, and rejuvenating N 12–16 on the MRGP route, each at three
values of ``p`` sharing one net.  The grid logic is copied here rather
than imported, so the pinned inputs cannot drift with the benchmark.
The values were recorded from a subtraction-free GTH (Grassmann–
Taksar–Heyman) elimination of each chain — the MRGP points from the
embedded chain's recurrent class and the renewal reconstruction — with
the per-state enumeration of ``GeneralizedReliability``.  Every value
must hold within the certificate bar absolutely and, because the
no-rejuvenation values sit at 1e-14..1e-5, within a relative bar too.
"""

from __future__ import annotations

import random

import pytest

from repro.engine import cache_override
from repro.engine.tasks import expected_reliability
from repro.perception.parameters import PerceptionParameters

#: (versions, f, r, rejuvenation), in grid order.
CONFIGURATIONS = (
    (64, 1, 1, False),
    (60, 2, 1, False),
    (54, 1, 1, False),
    (44, 1, 1, False),
    (14, 1, 2, True),
    (16, 1, 1, True),
    (32, 1, 1, False),
    (12, 1, 1, True),
)
K = 3  # values of p per configuration

#: (versions, f, r, rejuvenation, p) -> E[R_sys].
PINNED = {
    (64, 1, 1, False, 0.0706082830887306): 1.2635042514222606e-12,
    (64, 1, 1, False, 0.09945221045103292): 1.2306671512429883e-12,
    (64, 1, 1, False, 0.13165295427719367): 1.194008514657712e-12,
    (60, 2, 1, False, 0.04340169718264076): 7.2459518558097855e-12,
    (60, 2, 1, False, 0.05126315041290819): 7.192283685884346e-12,
    (60, 2, 1, False, 0.13464680213626157): 6.6230444042127114e-12,
    (54, 1, 1, False, 0.04025272640213328): 2.6555861287316833e-14,
    (54, 1, 1, False, 0.09344646328657617): 2.5085729461356556e-14,
    (54, 1, 1, False, 0.13147360989495305): 2.4034761400946006e-14,
    (44, 1, 1, False, 0.043670797964026425): 5.3437960671390563e-11,
    (44, 1, 1, False, 0.14817129491337802): 4.767886846311e-11,
    (44, 1, 1, False, 0.15343248346647068): 4.7388920846716396e-11,
    (14, 1, 2, True, 0.0659919276556736): 0.9364560947998759,
    (14, 1, 2, True, 0.0857445085225855): 0.9177122258445106,
    (14, 1, 2, True, 0.15269789953342128): 0.8541779669200649,
    (16, 1, 1, True, 0.06660299995276421): 0.8426394383014313,
    (16, 1, 1, True, 0.09254651123806865): 0.8197218575752239,
    (16, 1, 1, True, 0.09949746896582207): 0.8135816272456278,
    (32, 1, 1, False, 0.06625372448052264): 6.472991192833222e-06,
    (32, 1, 1, False, 0.07477379375085827): 6.424641602937815e-06,
    (32, 1, 1, False, 0.09515241588852802): 6.308997235300999e-06,
    (12, 1, 1, True, 0.06230875190736612): 0.9124513915585868,
    (12, 1, 1, True, 0.10677451871829202): 0.8702055082235254,
    (12, 1, 1, True, 0.11707532355189346): 0.8604189548709666,
}

#: The solvers' certificate bar on E[R].
TOLERANCE = 1e-9
#: Relative agreement with the GTH reference.
RELATIVE = 1e-11


def grid(seed: int) -> list[PerceptionParameters]:
    """Per configuration: seeded ``p'`` and ``alpha``, K ascending ``p``."""
    rng = random.Random(seed)
    points = []
    for versions, f, r, rejuvenation in CONFIGURATIONS:
        shared = {"p_prime": rng.uniform(0.4, 0.6), "alpha": rng.uniform(0.4, 0.6)}
        for p in sorted(rng.uniform(0.04, 0.16) for _ in range(K)):
            points.append(
                PerceptionParameters(
                    n_modules=versions,
                    f=f,
                    r=r,
                    rejuvenation=rejuvenation,
                    p=p,
                    **shared,
                )
            )
    return points


def _key(point: PerceptionParameters) -> tuple:
    return (point.n_modules, point.f, point.r, point.rejuvenation, point.p)


@pytest.fixture(scope="module")
def values():
    """E[R_sys] of every grid point; points of one net share its solve."""
    with cache_override(enabled=True, directory=None):
        return {_key(point): expected_reliability(point) for point in grid(1)}


def test_grid_is_the_pinned_one(values):
    assert list(values) == list(PINNED)


def _id(key: tuple) -> str:
    versions, f, r, rejuvenation, p = key
    return f"N{versions}-f{f}-r{r}-{'rejuv' if rejuvenation else 'norejuv'}-p{p:.4f}"


@pytest.mark.parametrize("key", list(PINNED), ids=_id)
def test_pinned_value(values, key):
    assert abs(values[key] - PINNED[key]) <= TOLERANCE
    assert abs(values[key] - PINNED[key]) <= RELATIVE * PINNED[key]
