"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside the pytest verdicts.  Everything is exact integer equality;
the randomized suites use fixed seeds and demand a 100% pass rate.
"""

import contextlib
import random
import time

import pytest

from genutil import interior_lattice_point, lattice_points_in_support
from genutil import (random_orthant_chart, relative_interior_contains,
                     relative_interior_point)
from mockfan.cones import cone_from_generators, dual_cone, is_subcone
from mockfan.cones import cone_from_generators as cg
from mockfan.exact import dot
from mockfan.fans import (euler_char_height1, fan_from_cones,
                          is_specifically_reduced, rescale, rescale_cone,
                          specifically_reduced_scale)
from mockfan.grassmann import (GrassmannSpec, expected_vol_expression, verify,
                               vol_expression)
from mockfan.subdivision import rescaled_chart, subdivide_chart, val_min
from mockfan.volume import ClassLabel


@contextlib.contextmanager
def criterion(num: int, name: str):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num} ({name}): FAIL")
        raise
    elapsed = time.monotonic() - start
    print(f"ACCEPTANCE {num} ({name}): PASS [{elapsed:.1f}s]")


@pytest.fixture(scope="module")
def random_charts():
    rng = random.Random(0xC0FFEE)
    charts = [random_orthant_chart(rng, max_rank=4, max_items=8,
                                   exp_entry=3, kappa_max=4)
              for _ in range(100)]
    return [(chart, subdivide_chart(chart)) for chart in charts]


def test_criterion_1_grassmann_verification():
    with criterion(1, "grassmann verification"):
        budgets = {(5, 2, 1): 60, (5, 3, 1): 60, (5, 2, 2): 60, (6, 2, 1): 600}
        for (n, d, l), budget in budgets.items():
            start = time.monotonic()
            report = verify(GrassmannSpec(n, d, l))
            elapsed = time.monotonic() - start
            assert report.passed, f"({n},{d},{l}):\n{report.render()}"
            assert report.cones_matched == 7 and report.active_matched == 7
            assert not report.extra_bounded
            assert elapsed < budget, f"({n},{d},{l}) took {elapsed:.1f}s"


def test_criterion_2_volume_expression():
    with criterion(2, "volume expression"):
        spec = GrassmannSpec(5, 3, 1)
        v = vol_expression(spec)
        assert v == expected_vol_expression(spec)
        assert v.coefficient(ClassLabel.point()) == 2
        assert v.coefficient(ClassLabel.hypersurface(5, 3)) == -1
        for name, coeff in (("tau0", 1), ("tau3", 1), ("sigma0", -1), ("sigma2", -1)):
            assert v.coefficient(ClassLabel.symbolic(f"E({name})")) == coeff
        assert len(v.terms) == 6


def test_criterion_3_duality_property_suite():
    with criterion(3, "duality properties on 500 random cones"):
        rng = random.Random(31337)
        for _ in range(500):
            rank = rng.randint(1, 6)
            gens = [tuple(rng.randint(-5, 5) for _ in range(rank))
                    for _ in range(rng.randint(0, 10))]
            c = cone_from_generators(rank, gens)
            d = dual_cone(c)
            assert dual_cone(d) == c
            # involution through a fresh conversion, not just the stored swap
            rebuilt = dual_cone(cone_from_generators(rank, d.rays, d.lineality))
            assert rebuilt == c
            for g in gens:
                if any(g):
                    assert rebuilt.contains(g)
            assert c.dim() + len(d.lineality) == rank


def test_criterion_4_subdivision_oracle_suite(random_charts):
    with criterion(4, "subdivision oracle on 100 random charts"):
        rng = random.Random(777)
        for chart, res in random_charts:
            effs = {it.id: chart.effective_exponent(it) for it in chart.items}
            rank = chart.ambient_dual_rank
            for cone in res.projected_fan:
                if cone.dim() == rank:
                    for _ in range(5):
                        v = interior_lattice_point(rng, cone)
                        vals = {i: dot(v, w) for i, w in effs.items()}
                        m = min(vals.values())
                        argmin = frozenset(i for i, val in vals.items() if val == m)
                        assert argmin == res.active_sets[cone]
                if cone.dim() > 0:
                    pts = [interior_lattice_point(rng, cone, lo=0) for _ in range(3)]
                    for x in pts:
                        for y in pts:
                            s = tuple(a + b for a, b in zip(x, y))
                            assert val_min(chart, s) == \
                                val_min(chart, x) + val_min(chart, y)
            for _ in range(10):
                x, y = lattice_points_in_support(rng, chart, 2)
                s = tuple(a + b for a, b in zip(x, y))
                assert val_min(chart, s) >= val_min(chart, x) + val_min(chart, y)


def test_criterion_5_rescaling_equivariance(random_charts):
    with criterion(5, "rescaling equivariance on the same charts"):
        for chart, res in random_charts:
            for n in (2, 3):
                scaled = subdivide_chart(rescaled_chart(chart, n))
                assert scaled.projected_fan == rescale(res.projected_fan, n)
                for cone in res.projected_fan:
                    assert scaled.active_sets[rescale_cone(cone, n)] == \
                        res.active_sets[cone]


def test_criterion_6_euler_additivity(random_charts):
    with criterion(6, "euler characteristic additivity"):
        for chart, res in random_charts[:50]:
            rank = chart.ambient_dual_rank
            support = cg(rank, [tuple(1 if j == i else 0 for j in range(rank))
                                for i in range(rank)])
            for face in support.faces():
                sigma = face.cone
                total = sum(
                    euler_char_height1(tau) for tau in res.projected_fan
                    if not tau.is_zero() and is_subcone(tau, sigma)
                    and relative_interior_contains(sigma, relative_interior_point(tau)))
                assert total == euler_char_height1(sigma)


def test_criterion_7_specifically_reduced_scaling():
    with criterion(7, "specifically reduced scaling"):
        cases = [((2,), 2), ((2, 3), 6), ((4, 6), 12)]
        for denominators, expected_scale in cases:
            fan = fan_from_cones(
                2, [cg(2, [(1, den)]) for den in denominators], has_t=True)
            scale = specifically_reduced_scale(fan)
            assert scale == expected_scale
            assert is_specifically_reduced(rescale(fan, scale))
