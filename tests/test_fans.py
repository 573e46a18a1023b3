import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import (assert_mask_cells_are_position_cells, is_compactly_arranged,
                     is_face_of_oracle, is_refinement, is_specifically_reduced_oracle,
                     oracle_fan, random_orthant_chart,
                     relative_interior_contains, relative_interior_point, special_cones,
                     specifically_reduced_scale_oracle)
from mockfan.cones import cone_from_generators as cg
from mockfan import cones, fans
from mockfan.cones import intersect, is_subcone, zero_cone
from mockfan.exact import rank as matrix_rank
from mockfan.fans import (Fan, FanError, euler_char_height1, fan_from_cones,
                          is_bounded_cone, is_special_cone,
                          is_specifically_reduced, rescale, rescale_cone,
                          specifically_reduced_scale)
from mockfan.grassmann import GrassmannSpec, zero_chart
from mockfan.subdivision import rescaled_chart, subdivide_chart


def test_face_closure_counts():
    assert len(fan_from_cones(2, [cg(2, [(1, 0), (0, 1)])])) == 4
    f = fan_from_cones(2, [cg(2, [(1, 0), (0, 1)]), cg(2, [(0, 1), (-1, 0)])])
    assert len(f) == 6


def test_overlapping_interiors_rejected():
    c1 = cg(2, [(1, 0), (1, 2)])
    c2 = cg(2, [(1, 1), (0, 1)])
    # (2, 3) lies in both interiors, so this cannot be a fan
    assert relative_interior_contains(c1, (2, 3))
    assert relative_interior_contains(c2, (2, 3))
    with pytest.raises(FanError, match="not a fan"):
        fan_from_cones(2, [c1, c2])


def test_non_strongly_convex_rejected():
    with pytest.raises(FanError, match="strongly convex"):
        fan_from_cones(2, [cg(2, [(0, 1)], [(1, 0)])])


def test_contained_non_face_rejected():
    big = cg(2, [(1, 0), (0, 1)])
    inner = cg(2, [(1, 1), (1, 2)])
    with pytest.raises(FanError, match="not a fan"):
        fan_from_cones(2, [big, inner])


def test_negative_t_ray_rejected():
    with pytest.raises(FanError, match="negative t"):
        fan_from_cones(2, [cg(2, [(0, -1)])], has_t=True)


def test_bounded_matches_recession_cone_oracle():
    # bounded <=> the t = 1 slice has trivial recession cone, i.e. the cone
    # meets {t = 0} only at the origin
    from mockfan.cones import cone_from_inequalities, intersect, zero_cone
    rng = random.Random(663)
    for _ in range(40):
        rank = rng.randint(2, 4)
        gens = []
        for _ in range(rng.randint(1, 5)):
            v = [rng.randint(-3, 3) for _ in range(rank - 1)]
            gens.append(tuple(v) + (rng.randint(0, 2),))
        c = cg(rank, gens)
        if c.lineality or c.is_zero():
            continue
        t_zero = cone_from_inequalities(
            rank, [], [tuple(0 for _ in range(rank - 1)) + (1,)])
        oracle = is_special_cone(c) and intersect(c, t_zero) == zero_cone(rank)
        assert is_bounded_cone(c) == oracle


def test_special_bounded_classification():
    ray_sb = cg(3, [(1, 0, 1)])
    assert is_special_cone(ray_sb) and is_bounded_cone(ray_sb)
    ray_t0 = cg(3, [(1, 0, 0)])
    assert not is_special_cone(ray_t0) and not is_bounded_cone(ray_t0)
    both = cg(3, [(1, 0, 1), (0, 0, 1)])
    assert is_special_cone(both) and is_bounded_cone(both)
    halfline = cg(3, [(1, 0, 0), (0, 0, 1)])
    assert is_special_cone(halfline) and not is_bounded_cone(halfline)
    assert not is_bounded_cone(zero_cone(3))


def test_special_requires_t_flag():
    f = fan_from_cones(2, [cg(2, [(1, 1)])], has_t=False)
    with pytest.raises(FanError, match="t coordinate"):
        special_cones(f)
    with pytest.raises(FanError, match="t coordinate"):
        f.bounded_cones()


@pytest.mark.parametrize("seed", range(6))
def test_trusted_fan_is_the_same_for_shuffled_and_duplicated_input(seed):
    rng = random.Random(seed)
    fan = subdivide_chart(random_orthant_chart(rng)).projected_fan
    assert list(fan.cones) == sorted(fan.cones, key=lambda c: (c.dim(), c.rays, c.lineality))
    family = list(fan.cones) + rng.choices(fan.cones, k=len(fan))
    rng.shuffle(family)
    for members in (family, reversed(fan.cones), iter(family)):
        assert oracle_fan(fan.rank, members, fan.has_t_coordinate) == fan


def test_euler_char():
    assert euler_char_height1(cg(2, [(0, 1)])) == 1
    assert euler_char_height1(cg(3, [(1, 0, 1), (0, 0, 1)])) == -1
    assert euler_char_height1(cg(3, [(1, 0, 0)])) == 0
    assert euler_char_height1(zero_cone(3)) == 0


def test_refinement_stellar_split():
    fine = fan_from_cones(2, [cg(2, [(1, 0), (1, 1)]), cg(2, [(1, 1), (0, 1)])])
    coarse = fan_from_cones(2, [cg(2, [(1, 0), (0, 1)])])
    assert is_refinement(fine, coarse)
    assert not is_refinement(coarse, fine)


def test_refinement_fails_on_partial_cover():
    partial = fan_from_cones(2, [cg(2, [(1, 0), (1, 1)])])
    coarse = fan_from_cones(2, [cg(2, [(1, 0), (0, 1)])])
    assert not is_refinement(partial, coarse)


def test_rescale_examples():
    f = fan_from_cones(3, [cg(3, [(1, 2, 1)])], has_t=True)
    assert rescale(f, 1) == f
    assert cg(3, [(3, 6, 1)]) in rescale(f, 3)


def test_rescale_composition_and_bounded_bijection():
    rng = random.Random(2024)
    for _ in range(10):
        chart = random_orthant_chart(rng)
        fan = subdivide_chart(chart).projected_fan
        assert rescale(rescale(fan, 2), 3) == rescale(fan, 6)
        for n in (2, 3):
            r = rescale(fan, n)
            assert len(r) == len(fan)
            bounded_images = {rescale_cone(c, n) for c in fan.bounded_cones()}
            assert bounded_images == set(r.bounded_cones())
            specials = {rescale_cone(c, n) for c in special_cones(fan)}
            assert specials == set(special_cones(r))


@given(st.integers(0, 10**6), st.integers(2, 6))
@settings(max_examples=40, deadline=None)
def test_rescale_cone_equals_the_generated_image(seed, n):
    fan = subdivide_chart(random_orthant_chart(random.Random(seed))).projected_fan
    for c in fan:
        image = rescale_cone(c, n)
        expected = cg(c.rank, [tuple(n * x for x in r[:-1]) + (r[-1],) for r in c.rays])
        assert image == expected
        assert image.dim() == expected.dim() == c.dim()
        assert (image.facets, image.span_eqs) == (expected.facets, expected.span_eqs)


def test_rescale_cone_rejects_lineality_and_non_positive_factors():
    with pytest.raises(FanError, match="strongly convex"):
        rescale_cone(cg(2, [(1, 1)], [(1, 0)]), 2)
    for n in (0, -1):
        with pytest.raises(FanError, match="positive integer"):
            rescale_cone(cg(3, [(1, 0, 1), (0, 1, 1)]), n)


def assert_rescale_maps_the_table(fan):
    """`rescale` maps the ray table, with no `Cone` built, to the oracle fan
    of the `rescale_cone` images of the cones, in cones, order and hash."""
    members = list(Fan._of_cells(fan.rank, fan.rays, fan.cells, True))   # `fan` builds none
    for n in (2, 3, 6, 1):   # `rescale(fan, 1)` maps the table too, to a fan equal to `fan`
        scaled = rescale(fan, n)
        assert "cones" not in vars(fan) and "cones" not in vars(scaled)
        oracle = oracle_fan(fan.rank, [rescale_cone(c, n) for c in reversed(members)], True)
        assert (scaled.rays, scaled.cells) == (oracle.rays, oracle.cells)
        assert scaled == oracle and hash(scaled) == hash(oracle)
        assert scaled.cones == oracle.cones
        assert scaled.rays == tuple(sorted(set(scaled.rays)))
    assert rescale(rescale(fan, 2), 3) == rescale(fan, 6)


@pytest.mark.parametrize("seed", range(8))
def test_rescale_maps_the_table_on_random_fans(seed):
    assert_rescale_maps_the_table(
        subdivide_chart(random_orthant_chart(random.Random(seed))).projected_fan)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_rescale_maps_the_table_on_the_zero_chart(n):
    assert_rescale_maps_the_table(
        subdivide_chart(zero_chart(GrassmannSpec(n, 2, 1)), verify=False).projected_fan)


def test_rescale_computes_no_rank(monkeypatch):
    fan = subdivide_chart(zero_chart(GrassmannSpec(5, 2, 1)), verify=False).projected_fan
    ranks = []
    real = cones.matrix_rank

    def spy(rows):
        ranks.append(rows)
        return real(rows)

    monkeypatch.setattr(cones, "matrix_rank", spy)
    scaled = rescale(fan, 2)
    assert ranks == []
    assert len(scaled) == len(fan)


def test_refinement_commutes_with_rescale():
    rng = random.Random(55)
    chart = random_orthant_chart(rng, max_rank=3)
    fine = subdivide_chart(chart).projected_fan
    support = fan_from_cones(chart.ambient_dual_rank,
                             [cg(chart.ambient_dual_rank,
                                 [tuple(1 if j == i else 0
                                        for j in range(chart.ambient_dual_rank))
                                  for i in range(chart.ambient_dual_rank)])],
                             has_t=True)
    assert is_refinement(fine, support)
    assert is_refinement(rescale(fine, 3), rescale(support, 3))


def test_bounded_faces_stay_bounded_or_zero():
    rng = random.Random(77)
    for _ in range(10):
        fan = subdivide_chart(random_orthant_chart(rng)).projected_fan
        for c in fan.bounded_cones():
            for f in c.faces():
                assert f.cone.is_zero() or is_bounded_cone(f.cone)


def assert_specifically_reduced_reads_the_ray_table(fan):
    """Both predicates read `Fan.rays`, build no `cones`, and agree with the
    cone-by-cone oracles."""
    fresh = Fan._of_cells(fan.rank, fan.rays, fan.cells, True)
    got = is_specifically_reduced(fresh), specifically_reduced_scale(fresh)
    assert "cones" not in vars(fresh)
    assert got == (is_specifically_reduced_oracle(fan), specifically_reduced_scale_oracle(fan))


@pytest.mark.parametrize("seed", range(50))
def test_specifically_reduced_reads_the_ray_table_on_random_fans(seed):
    chart = random_orthant_chart(random.Random(seed))
    for scale in (1, 2, 3):
        fan = subdivide_chart(rescaled_chart(chart, scale)).projected_fan
        assert_specifically_reduced_reads_the_ray_table(fan)
        assert_specifically_reduced_reads_the_ray_table(rescale(fan, 2))


@pytest.mark.parametrize("n", [4, 5, 6])
def test_specifically_reduced_reads_the_ray_table_on_the_zero_chart(n):
    assert_specifically_reduced_reads_the_ray_table(
        subdivide_chart(zero_chart(GrassmannSpec(n, 2, 1)), verify=False).projected_fan)


def test_specifically_reduced():
    f1 = fan_from_cones(2, [cg(2, [(1, 1)])], has_t=True)
    assert is_specifically_reduced(f1)
    assert specifically_reduced_scale(f1) == 1

    f2 = fan_from_cones(2, [cg(2, [(1, 2)])], has_t=True)
    assert not is_specifically_reduced(f2)
    assert specifically_reduced_scale(f2) == 2
    assert is_specifically_reduced(rescale(f2, 2))

    f23 = fan_from_cones(2, [cg(2, [(1, 2)]), cg(2, [(1, 3)])], has_t=True)
    assert specifically_reduced_scale(f23) == 6

    f46 = fan_from_cones(2, [cg(2, [(1, 4)]), cg(2, [(1, 6)])], has_t=True)
    assert specifically_reduced_scale(f46) == 12
    assert is_specifically_reduced(rescale(f46, 12))


def test_compactly_arranged():
    bounded2 = cg(3, [(1, 0, 1), (0, 0, 1)])
    assert is_compactly_arranged(fan_from_cones(3, [bounded2], has_t=True))
    # unbounded special cone whose single special ray is its own bounded coface
    unb = cg(3, [(1, 0, 0), (0, 0, 1)])
    assert is_compactly_arranged(fan_from_cones(3, [unb], has_t=True))


def test_not_compactly_arranged_pentagon_cone():
    # pentagon cross-section with a t = 0 edge: the two outer height-positive
    # rays are non-adjacent, so no bounded cone of the fan contains them both
    pent = cg(3, [(1, 0, 0), (0, 1, 0), (0, 3, 1), (1, 1, 1), (3, 0, 1)])
    assert len(pent.rays) == 5
    fan = fan_from_cones(3, [pent], has_t=True)
    assert cg(3, [(0, 3, 1), (3, 0, 1)]) not in fan
    assert not is_compactly_arranged(fan)


def test_euler_additivity_over_refinements():
    rng = random.Random(4242)
    for _ in range(12):
        chart = random_orthant_chart(rng, max_rank=3)
        fan = subdivide_chart(chart).projected_fan
        rank = chart.ambient_dual_rank
        support = cg(rank, [tuple(1 if j == i else 0 for j in range(rank))
                            for i in range(rank)])
        for face in support.faces():
            sigma = face.cone
            total = 0
            for tau in fan:
                if tau.is_zero():
                    continue
                if is_subcone(tau, sigma) and \
                        relative_interior_contains(sigma, relative_interior_point(tau)):
                    total += euler_char_height1(tau)
            assert total == euler_char_height1(sigma), (chart, sigma)


@pytest.mark.parametrize("half_above", [False, True])
def test_meet_on_a_face_of_only_one_cone_rejected(half_above):
    # the two cones meet in cone(e1, e1 + e2): a facet of one of them, but
    # only half of the facet cone(e1, e2) of the other; either may come first
    half, whole = [(1, 0, 0), (1, 1, 0)], [(1, 0, 0), (0, 1, 0)]
    up, down = (half, whole) if half_above else (whole, half)
    pair = [cg(3, up + [(0, 0, 1)]), cg(3, down + [(0, 0, -1)])]
    for cones in (pair, pair[::-1]):
        with pytest.raises(FanError, match="not a common face") as info:
            fan_from_cones(3, cones)
        assert all(str(list(c.rays)) in str(info.value) for c in pair)


def test_member_inside_a_maximal_cone_but_not_a_face_rejected():
    with pytest.raises(FanError, match="not a face of any maximal cone") as info:
        fan_from_cones(2, [cg(2, [(1, 0), (0, 1)]), cg(2, [(1, 1)])])
    assert str([(1, 1)]) in str(info.value)


@pytest.mark.parametrize("reverse", [False, True])
def test_convexity_is_checked_before_t_whatever_the_member_order(reverse):
    family = [cg(2, [(1, -1)]), cg(2, [(0, 1)], [(1, 0)])]
    with pytest.raises(FanError, match="not strongly convex"):
        fan_from_cones(2, family[::-1] if reverse else family, has_t=True)


def test_member_outside_a_lower_dimensional_maximal_cone_span_is_no_stray_of_it():
    # d and c are both >= 0 on the facets of the plane cone m, but off its
    # plane, so neither lies in m; c is inside the full cone big, d is not
    big = cg(3, [(1, 0, 1), (0, 1, 1), (0, 0, 1)])
    m = cg(3, [(1, 0, 0), (0, 1, 0)])
    d, c = cg(3, [(1, 1, -1)]), cg(3, [(1, 1, 3)])
    assert fan_from_cones(3, [big, m, d]) == fan_from_cones_oracle(3, [big, m, d])
    for family in ([big, m, d, c], [c, d, m, big]):
        with pytest.raises(FanError, match="not a face of any maximal cone") as info:
            fan_from_cones(3, family)
        assert str(info.value).endswith(str(list(c.rays)))
        assert outcome(fan_from_cones_oracle, 3, family) == outcome(fan_from_cones, 3, family)


def test_the_pass_tests_each_maximal_cone_against_earlier_ones_only(monkeypatch):
    fan = subdivide_chart(zero_chart(GrassmannSpec(5, 2, 1)), verify=False).projected_fan
    events = []
    real = fans._table

    class Inside(int):
        """A maximal cone's inside set, which the stray test reads as `~inside`."""
        def __invert__(self):
            events.append(("lookup", self.cone))
            return int.__invert__(self)

    def table(m, *args):
        inside, cuts = real(m, *args)
        events.append(("table", m))
        counted = Inside(inside)
        counted.cone = m
        return counted, cuts

    monkeypatch.setattr(fans, "_table", table)
    assert fan_from_cones(fan.rank, list(fan), has_t=True) == fan
    k = sum(not any(set(c.rays) < set(d.rays) for d in fan) for c in fan)
    tabled = [m for kind, m in events if kind == "table"]
    assert len(tabled) == k
    # the i-th maximal cone is looked up once by each later one, and only then
    for i, m in enumerate(tabled):
        start = events.index(("table", m))
        lookups = [j for j, event in enumerate(events) if event == ("lookup", m)]
        assert len(lookups) == k - 1 - i and all(j > start for j in lookups)


def test_direct_fan_construction_forbidden():
    with pytest.raises(FanError):
        Fan(2, (), False)


# -- fan_from_cones against the pairwise check by containment and tightness ----

def verify_fan_condition_oracle(cones):
    """Every member is a face of a maximal member, and maximal members meet
    in common faces; maximal members are searched among all of `cones`, with
    dimensions from exact ranks."""
    def dim(c):
        return matrix_rank(list(c.rays)) if c.rays else 0

    maximal = []
    for c in sorted(cones, key=lambda c: (-dim(c), c.rays)):
        if not any(is_subcone(c, m) for m in maximal):
            maximal.append(c)
    for c in cones:
        if c not in maximal and not any(is_face_of_oracle(c, m) for m in maximal):
            raise FanError("not a fan: cone is not a face of any maximal cone")
    for m1, m2 in itertools.combinations(maximal, 2):
        meet = intersect(m1, m2)
        if not (is_face_of_oracle(meet, m1) and is_face_of_oracle(meet, m2)):
            raise FanError("not a fan: intersection is not a common face")


def fan_from_cones_oracle(rank, cones, has_t=False):
    """Close every member under faces, then run the pairwise check."""
    closed = set()
    for c in cones:
        if not c.is_strongly_convex():
            raise FanError("not a fan: member cone is not strongly convex")
        if has_t and any(r[-1] < 0 for r in c.rays):
            raise FanError("not a fan: negative t-coordinate ray in t-flagged fan")
        closed.update(f.cone for f in c.faces())
    verify_fan_condition_oracle(closed or {zero_cone(rank)})
    return oracle_fan(rank, closed or {zero_cone(rank)}, has_t)


FAMILIES = ("fan", "maximal", "subset", "overlap", "non_face", "perturbed", "split")


@st.composite
def cone_families(draw):
    """The cones of a chart fan, its maximal cones only, or a subset of them,
    or its cells with a non-fan injected: a cone overlapping the interior of
    a cell, a cone inside a cell that is not a face, one perturbed cell, or
    one cell split in two at the midpoint q of two of its rays, which leaves
    a T-junction where the split edge lies on a neighbour's face."""
    chart = random_orthant_chart(draw(st.randoms(use_true_random=False)), max_rank=3)
    fan = subdivide_chart(chart, verify=False).projected_fan
    rank = fan.rank
    top = max(c.dim() for c in fan)
    cells = [c for c in fan if c.dim() == top]
    kind = draw(st.sampled_from(FAMILIES))
    family = {"fan": list(fan), "maximal": cells}.get(kind, list(cells))
    if kind == "subset":
        family = draw(st.lists(st.sampled_from(list(fan)), unique=True))
    elif kind in ("overlap", "non_face"):
        cell = draw(st.sampled_from(cells))
        p = relative_interior_point(cell)
        if kind == "non_face":
            other = draw(st.sampled_from(cell.rays))
        else:
            outside = (-1,) + (0,) * (rank - 2) + (1,)
            other = draw(st.sampled_from([outside] + sorted(
                {r for c in fan for r in c.rays} - set(cell.rays))))
        family.append(cg(rank, [p, other]))
    elif kind == "perturbed":
        k = draw(st.integers(0, len(cells) - 1))
        rays = list(cells[k].rays)
        i = draw(st.integers(0, len(rays) - 1))
        shift = draw(st.lists(st.integers(-1, 1), min_size=rank - 1, max_size=rank - 1))
        rays[i] = tuple(x + y for x, y in zip(rays[i], shift)) + (rays[i][-1],)
        family[k] = cg(rank, rays)
    elif kind == "split":
        k = draw(st.integers(0, len(cells) - 1))
        rays = list(cells[k].rays)
        i, j = draw(st.lists(st.integers(0, len(rays) - 1), min_size=2, max_size=2,
                             unique=True))
        q = tuple(x + y for x, y in zip(rays[i], rays[j]))
        family[k] = cg(rank, rays[:i] + [q] + rays[i + 1:])
        family.append(cg(rank, rays[:j] + [q] + rays[j + 1:]))
    return kind, fan, draw(st.permutations(family))


def is_compactly_arranged_by_containment(f):
    """`is_compactly_arranged` with ray membership tested on the facets of
    each bounded cone."""
    bounded = f.bounded_cones()
    return all(any(all(b.contains(r) for r in special) for b in bounded)
               for c in f.cones if (special := [r for r in c.rays if r[-1] > 0]))


def outcome(check, rank, family):
    """The fan, or the kind of failure: the message without the rays of the
    cones it names, which the two checks may pick differently."""
    try:
        return check(rank, family, has_t=True)
    except FanError as exc:
        return str(exc).partition(": [")[0]


@given(cone_families())
@settings(max_examples=80, deadline=None)
def test_fan_from_cones_agrees_with_the_pairwise_oracle(case):
    kind, fan, family = case
    got = outcome(fan_from_cones, fan.rank, family)
    assert got == outcome(fan_from_cones_oracle, fan.rank, family)
    if kind in ("fan", "maximal"):
        assert got == fan
    elif kind == "subset":
        assert isinstance(got, Fan)
    elif kind in ("overlap", "non_face"):
        assert got.startswith("not a fan")
    if isinstance(got, Fan):
        assert is_compactly_arranged(got) == is_compactly_arranged_by_containment(got)
        assert_mask_cells_are_position_cells(got)


@given(cone_families())
@settings(max_examples=60, deadline=None)
def test_fan_from_cones_agrees_with_the_oracle_when_every_meet_falls_back(case):
    # tables with no cuts certify no meet, so every pair goes to `intersect`
    kind, fan, family = case
    real, meets = fans._table, []
    real_intersect = fans.intersect
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fans, "_table", lambda *args: (real(*args)[0], []))
        mp.setattr(fans, "intersect", lambda *args: meets.append(args) or real_intersect(*args))
        got = outcome(fan_from_cones, fan.rank, family)
    assert got == outcome(fan_from_cones_oracle, fan.rank, family)
    if kind in ("fan", "maximal"):
        k = len({c for c in family if not any(set(c.rays) < set(d.rays) for d in family)})
        assert got == fan and len(meets) == k * (k - 1) // 2


@pytest.mark.parametrize("case", ["5,2,1", "6,2,1", "pentagon"])
def test_compactly_arranged_agrees_with_containment(case):
    if case == "pentagon":
        pent = cg(3, [(1, 0, 0), (0, 1, 0), (0, 3, 1), (1, 1, 1), (3, 0, 1)])
        fan = fan_from_cones(3, [pent], has_t=True)
    else:
        spec = GrassmannSpec(*map(int, case.split(",")))
        fan = subdivide_chart(zero_chart(spec), verify=False).projected_fan
    assert is_compactly_arranged(fan) == is_compactly_arranged_by_containment(fan)

