import random
from collections import Counter
from fractions import Fraction
from typing import Mapping, Sequence
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from genutil import (active_set, assert_bounded_cells_equal_the_full_walk,
                     assert_lift_equals_the_dual_of_build_D, assert_mask_cells_are_position_cells,
                     assert_own_claim_equals_the_lift, assert_walk_matches_oracle,
                     effective_dimension, interior_lattice_point, is_refinement,
                     lattice_points_in_support, lifted_from, make_cone, oracle_fan,
                     oracle_write_result, pair_with_D, position_cells, random_orthant_chart,
                     refines_cone_faces, relative_interior_point, tight_facets, walk_faces)
from mockfan import cones, formats, grassmann, replace, subdivision
from mockfan.cones import cone_from_generators as cg
from mockfan.cones import Cone, Face, cone_from_inequalities, dual_cone, intersect, is_subcone
from mockfan.exact import IntVec, dot, kernel_basis, primitive, rank as matrix_rank
from mockfan.fans import Fan, FanError, fan_from_cones, rescale, rescale_cone
from mockfan.grassmann import GrassmannSpec, zero_chart
from mockfan.subdivision import (ChartError, GlueError, LiftedExponent,
                                 MockPolytopeChart, SubdivisionInconsistency,
                                 build_D, glue_charts, lift_chart, lift_symmetric_chart,
                                 rescaled_chart, subdivide_chart, support_cone, val_min)


def halfline_chart():
    # one free spatial coordinate, t >= 0; exponents 0 and 1 with kappa 0
    return MockPolytopeChart(
        "halfline", 2, ((0, 1),),
        (LiftedExponent("a", (0, 0), 0), LiftedExponent("b", (1, 0), 0)))


def orthant_chart(items, rank=3, scale=1):
    duals = tuple(tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))
    return MockPolytopeChart("orthant", rank, duals, tuple(items), scale=scale)


def test_chart_validation():
    with pytest.raises(ChartError, match="at least one item"):
        MockPolytopeChart("x", 2, ((0, 1),), ())
    with pytest.raises(ChartError, match="duplicate"):
        MockPolytopeChart("x", 2, ((0, 1),),
                          (LiftedExponent("a", (0, 0)), LiftedExponent("a", (1, 0))))
    with pytest.raises(ChartError, match="rank"):
        MockPolytopeChart("x", 2, ((0, 1),), (LiftedExponent("a", (0, 0, 0)),))
    with pytest.raises(ChartError, match="scale"):
        MockPolytopeChart("x", 2, ((0, 1),), (LiftedExponent("a", (0, 0)),), scale=0)


def test_ids_with_any_whitespace_code_point_are_rejected():
    # the oracle is the per-character test that the split test replaced
    tokens = ["a" + chr(i) + "b" for i in range(0x110000)]
    spaced = [t for t in tokens if any(ch.isspace() for ch in t)]
    assert len(spaced) > 20
    assert [t for t in tokens if t.split() != [t]] == spaced
    for token in spaced:
        with pytest.raises(ChartError, match="without whitespace"):
            MockPolytopeChart("x", 2, ((0, 1),), (LiftedExponent(token, (0, 0)),))


def test_build_D_single_exponent_class():
    # all items share one lifted exponent: D = cone(duals x {0}, (w, 1))
    ch = orthant_chart([LiftedExponent("a", (1, -1, 0), 0),
                        LiftedExponent("b", (1, -1, 0), 0)])
    d = build_D(ch)
    expected = cg(4, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (1, -1, 0, 1)])
    assert d == expected


def test_build_D_applies_scale_and_kappa():
    ch = orthant_chart([LiftedExponent("a", (0, 0, 0), 3)], scale=2)
    d = build_D(ch)
    assert (0, 0, 6, 1) in d.rays  # kappa folded into the delta slot as l*kappa


def test_val_min_basics():
    ch = halfline_chart()
    assert val_min(ch, (0, 0)) == 0
    assert val_min(ch, (-3, 5)) == Fraction(-3)
    assert val_min(ch, (4, 2)) == 0
    with pytest.raises(ChartError, match="outside chart support"):
        val_min(ch, (1, -1))


def test_val_min_single_item_is_linear():
    ch = orthant_chart([LiftedExponent("a", (2, -1, 0), 1)], scale=2)
    w = ch.effective_exponent(ch.items[0])
    assert w == (2, -1, 2)
    rng = random.Random(3)
    for v in lattice_points_in_support(rng, ch, 20):
        assert val_min(ch, v) == dot(v, w)


def test_halfline_subdivision():
    res = subdivide_chart(halfline_chart())
    left = cg(2, [(-1, 0), (0, 1)])
    right = cg(2, [(1, 0), (0, 1)])
    assert left in res.projected_fan and right in res.projected_fan
    assert len([c for c in res.projected_fan if c.dim() == 2]) == 2
    assert res.active_sets[left] == frozenset({"b"})
    assert res.active_sets[right] == frozenset({"a"})
    assert res.active_sets[cg(2, [(0, 1)])] == frozenset({"a", "b"})


def test_single_item_gives_face_fan_of_support():
    ch = orthant_chart([LiftedExponent("a", (2, -1, 0), 1)])
    res = subdivide_chart(ch)
    sup = support_cone(ch)
    assert res.projected_fan == fan_from_cones(3, [sup], has_t=True)
    assert all(s == frozenset({"a"}) for s in res.active_sets.values())
    assert all(effective_dimension(res, c) == 1 for c in res.projected_fan)


def test_zero_cone_active_set_is_everything():
    ch = orthant_chart([LiftedExponent("a", (1, 0, 0), 0),
                        LiftedExponent("b", (0, 1, 0), 2),
                        LiftedExponent("c", (-1, 1, 0), 1)])
    res = subdivide_chart(ch)
    from mockfan.cones import zero_cone
    assert res.active_sets[zero_cone(3)] == frozenset({"a", "b", "c"})


def test_apex_always_in_big_cone():
    rng = random.Random(11)
    for _ in range(25):
        ch = random_orthant_chart(rng)
        res = subdivide_chart(ch)
        apex = (0,) * ch.ambient_dual_rank + (1,)
        assert res.big_cone.contains(apex)


def test_active_set_matches_brute_force_argmin():
    rng = random.Random(1312)
    for _ in range(30):
        ch = random_orthant_chart(rng)
        res = subdivide_chart(ch)
        effs = {it.id: ch.effective_exponent(it) for it in ch.items}
        for cone in res.projected_fan:
            if cone.dim() != ch.ambient_dual_rank:
                continue
            for _ in range(5):
                v = interior_lattice_point(rng, cone)
                vals = {i: dot(v, w) for i, w in effs.items()}
                m = min(vals.values())
                argmin = frozenset(i for i, val in vals.items() if val == m)
                assert argmin == res.active_sets[cone]


def test_val_linear_on_cells_and_concave_globally():
    rng = random.Random(2718)
    for _ in range(20):
        ch = random_orthant_chart(rng)
        res = subdivide_chart(ch)
        for cone in res.projected_fan:
            if cone.dim() == 0:
                continue
            pts = [interior_lattice_point(rng, cone, lo=0) for _ in range(3)]
            for x in pts:
                for y in pts:
                    s = tuple(a + b for a, b in zip(x, y))
                    assert val_min(ch, s) == val_min(ch, x) + val_min(ch, y)
        for _ in range(20):
            x, y = lattice_points_in_support(rng, ch, 2)
            s = tuple(a + b for a, b in zip(x, y))
            assert val_min(ch, s) >= val_min(ch, x) + val_min(ch, y)


def test_projected_fan_refines_support():
    rng = random.Random(14)
    for _ in range(10):
        ch = random_orthant_chart(rng, max_rank=3)
        res = subdivide_chart(ch)
        support_fan = fan_from_cones(ch.ambient_dual_rank, [support_cone(ch)],
                                     has_t=True)
        assert is_refinement(res.projected_fan, support_fan)


def test_rescaling_equivariance():
    rng = random.Random(6174)
    for _ in range(15):
        ch = random_orthant_chart(rng)
        base = subdivide_chart(ch)
        for n in (2, 3):
            scaled = subdivide_chart(rescaled_chart(ch, n))
            assert scaled.projected_fan == rescale(base.projected_fan, n)
            for cone in base.projected_fan:
                image = rescale_cone(cone, n)
                assert scaled.active_sets[image] == base.active_sets[cone]


def test_face_duality_consistency():
    ch = orthant_chart([LiftedExponent("a", (0, 0, 0), 2),
                        LiftedExponent("b", (1, -1, 0), 0),
                        LiftedExponent("c", (-1, 2, 0), 1)])
    res = subdivide_chart(ch)
    C = res.big_cone
    D = build_D(ch)
    assert C == dual_cone(D)
    for face in res.faces_avoiding:
        tau = face.cone
        gamma = cone_from_inequalities(
            D.rank, D.facets,
            list(D.span_eqs) + list(tau.rays) + list(tau.lineality))
        back = cone_from_inequalities(
            C.rank, C.facets,
            list(C.span_eqs) + list(gamma.rays) + list(gamma.lineality))
        assert back == tau


def test_effective_dimension_counts_lifted_exponents():
    # same spatial exponent, different kappa: distinct on t = 0 cones only
    ch = orthant_chart([LiftedExponent("a", (1, 0, 0), 0),
                        LiftedExponent("b", (1, 0, 0), 1),
                        LiftedExponent("c", (0, 1, 0), 0)])
    res = subdivide_chart(ch)
    from mockfan.cones import zero_cone
    assert effective_dimension(res, zero_cone(3)) == 3


def test_active_set_requires_fan_membership():
    res = subdivide_chart(halfline_chart())
    with pytest.raises(ChartError, match="projected fan"):
        active_set(res, cg(2, [(1, 1)]))


def test_degenerate_chart_rejected():
    # items and duals span only a hyperplane: D is not full dimensional
    ch = MockPolytopeChart("thin", 2, ((0, 1),), (LiftedExponent("a", (0, 0)),))
    with pytest.raises(ChartError, match="strongly convex"):
        subdivide_chart(ch)


def test_glue_single_chart_is_identity():
    res = subdivide_chart(halfline_chart())
    g = glue_charts([res])
    assert g.fan == res.projected_fan
    assert dict(g.active_sets) == dict(res.active_sets)


def test_glue_chart_over_face_restricts():
    items = (LiftedExponent("a", (0, 0, 0), 1),
             LiftedExponent("b", (1, -2, 0), 0),
             LiftedExponent("c", (-2, 1, 0), 2))
    big = orthant_chart(items)
    # face chart: first coordinate pinned to zero
    face_duals = ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1))
    small = MockPolytopeChart("face", 3, face_duals, items)
    rbig = subdivide_chart(big)
    rsmall = subdivide_chart(small)
    glued = glue_charts([rbig, rsmall])
    face_support = support_cone(small)
    expected_small = {c for c in rbig.projected_fan if is_subcone(c, face_support)}
    assert set(rsmall.projected_fan.cones) == expected_small
    for c in rsmall.projected_fan:
        assert rsmall.active_sets[c] == rbig.active_sets[c]
    assert set(glued.fan.cones) == set(rbig.projected_fan.cones)


def test_glue_hands_over_the_active_sets_of_its_fan():
    rng = random.Random(31)
    for res in [subdivide_chart(halfline_chart())] + [
            subdivide_chart(random_orthant_chart(rng)) for _ in range(10)]:
        glued = glue_charts([res, res])
        assert type(glued.active_sets) is subdivision.ActiveSets
        assert glued.active_sets.fan is glued.fan and "cones" not in vars(glued.fan)
        assert glued.fan == res.projected_fan
        assert dict(glued.active_sets) == dict(res.active_sets)
        assert (formats.write_result(glued.fan, glued.active_sets)
                == oracle_write_result(glued.fan, dict(res.active_sets))
                == formats.write_result(res.projected_fan, res.active_sets))


def test_glue_inconsistent_kappa_fails():
    duals = ((0, 1),)
    items = lambda ka: (LiftedExponent("a", (0, 0), ka),
                        LiftedExponent("b", (1, 0), 0),
                        LiftedExponent("c", (-1, 0), 0))
    r1 = subdivide_chart(MockPolytopeChart("k1", 2, duals, items(0)))
    r2 = subdivide_chart(MockPolytopeChart("k2", 2, duals, items(1)))
    with pytest.raises(GlueError, match="charts do not glue"):
        glue_charts([r1, r2])


def test_glue_overlapping_charts_fail():
    # same support subdivided differently: shared territory, different cones
    duals = ((0, 1),)
    c1 = MockPolytopeChart("o1", 2, duals,
                           (LiftedExponent("a", (0, 0), 0),
                            LiftedExponent("b", (1, 0), 0)))
    c2 = MockPolytopeChart("o2", 2, duals,
                           (LiftedExponent("a", (1, 0), 0),
                            LiftedExponent("b", (3, 0), 1)))
    r1, r2 = subdivide_chart(c1), subdivide_chart(c2)
    with pytest.raises(GlueError, match="charts do not glue"):
        glue_charts([r1, r2])


def test_projected_cones_survive_full_reconstruction():
    # the pipeline builds projected cones through a trusted fast path;
    # rebuilding from generators with the verifying constructor must agree
    rng = random.Random(808)
    for _ in range(10):
        res = subdivide_chart(random_orthant_chart(rng))
        for c in res.projected_fan:
            assert cg(c.rank, c.rays) == c
        for face in res.faces_avoiding:
            fc = face.cone
            assert cg(fc.rank, fc.rays) == fc


def test_lift_coordinate_is_minus_val():
    rng = random.Random(909)
    for _ in range(10):
        ch = random_orthant_chart(rng)
        res = subdivide_chart(ch)
        for face in res.faces_avoiding:
            for r in face.cone.rays:
                assert Fraction(r[-1]) == -val_min(ch, r[:-1])


def test_lifted_generators_dedup():
    ch = orthant_chart([LiftedExponent("a", (1, 0, 0), 1),
                        LiftedExponent("b", (1, 0, 0), 1),
                        LiftedExponent("c", (0, 1, 0), 0)])
    assert len(ch.lifted_generators()) == 2


# -- the fan certificate of subdivide_chart against the fan_from_cones oracle ----

@st.composite
def orthant_charts(draw):
    rank = draw(st.integers(2, 4))
    items = draw(st.lists(st.tuples(st.lists(st.integers(-3, 3), min_size=rank - 1,
                                             max_size=rank - 1),
                                    st.integers(0, 4)),
                          min_size=1, max_size=8))
    return orthant_chart([LiftedExponent(f"i{k}", tuple(e) + (0,), kappa)
                          for k, (e, kappa) in enumerate(items)],
                         rank=rank, scale=draw(st.integers(1, 2)))


@given(orthant_charts())
@settings(max_examples=60, deadline=None)
def test_certificate_agrees_with_fan_from_cones(ch):
    res = subdivide_chart(ch)
    r = ch.ambient_dual_rank
    assert res.projected_fan == fan_from_cones(r, list(res.projected_fan), has_t=True)
    assert refines_cone_faces(res.projected_fan, support_cone(ch))


def triangle_chart():
    # three cells; C has facets (-1,2,1,1), (0,0,1,0), (0,0,2,1), (0,1,0,0),
    # (1,-1,0,1), (1,0,0,0), so the cells are facets 0, 2 and 4
    return orthant_chart([LiftedExponent("a", (0, 0, 0), 2),
                          LiftedExponent("b", (1, -1, 0), 0),
                          LiftedExponent("c", (-1, 2, 0), 1)])


def with_facets_of_C(d, facets):
    """D with its rays, which are the facets of C = dual_cone(D), replaced."""
    return cones.Cone(d.rank, tuple(facets), d.lineality, d.facets, d.span_eqs,
                      _token=cones._CONE_TOKEN)


def certificate_rejects(monkeypatch, chart, bad_d, match):
    """Run the pipeline on a corrupted lifted cone; the certificate must fail.
    Returns the family the unchecked pipeline projects from the same cone."""
    monkeypatch.setattr(subdivision, "_lifted_cone", lifted_from(bad_d))
    with pytest.raises(SubdivisionInconsistency, match=match):
        subdivide_chart(chart)
    return list(subdivide_chart(chart, verify=False).projected_fan)


def oracle_rejects(chart, family):
    """fan_from_cones, plus the support refinement test that it leaves out."""
    try:
        fan = fan_from_cones(chart.ambient_dual_rank, family, has_t=True)
    except FanError:
        return True
    return len(fan) != len(family) or not refines_cone_faces(fan, support_cone(chart))


def test_certificate_rejects_dropped_cell(monkeypatch):
    ch = triangle_chart()
    d = build_D(ch)
    family = certificate_rejects(monkeypatch, ch, with_facets_of_C(d, d.rays[1:]),
                                 "differ at the ray")
    assert oracle_rejects(ch, family)


def test_certificate_rejects_duplicated_cell(monkeypatch):
    ch = triangle_chart()
    good = subdivide_chart(ch).projected_fan
    d = build_D(ch)
    family = certificate_rejects(monkeypatch, ch,
                                 with_facets_of_C(d, d.rays + d.rays[:1]),
                                 "facet .* of C repeats")
    # The mask walk merges the two copies of the cell, so the projected
    # family is the genuine fan and the oracle, which sees only the family,
    # accepts it; the broken facet list of C is visible to the certificate.
    assert set(family) == set(good)
    assert not oracle_rejects(ch, family)


@pytest.mark.parametrize("index, normal, fault", [
    (2, (1, 0, 2, 1), "no item's hyperplane"),      # a cell: (0, 0, 2, 1)
    (3, (0, 1, -1, 0), "negative on a ray"),         # the support facet y >= 0
])
def test_certificate_rejects_perturbed_facet_normal(monkeypatch, index, normal, fault):
    ch = triangle_chart()
    d = build_D(ch)
    facets = list(d.rays)
    facets[index] = normal
    family = certificate_rejects(monkeypatch, ch, with_facets_of_C(d, facets),
                                 "no generator of D")
    assert oracle_rejects(ch, family)


def test_certificate_rejects_unpaired_wall(monkeypatch):
    # C of a chart cut down to x >= y: the walls on x = y have one cell and
    # do not lie on the boundary of the support
    ch = triangle_chart()
    narrow = replace(ch, sigma_dual_generators=ch.sigma_dual_generators + ((1, -1, 0),))
    family = certificate_rejects(monkeypatch, ch, build_D(narrow), "no generator of D")
    fan = fan_from_cones(ch.ambient_dual_rank, family, has_t=True)
    assert len(fan) == len(family)   # a fan, but not one covering the support
    assert oracle_rejects(ch, family)


# -- the per-face certificate, the oracle of the certificate of C ----------------

def _certify_lower_faces(chart: MockPolytopeChart, big: Cone, facet_masks: Sequence[int],
                         faces: Sequence[Face], proj_cones: Sequence[Cone],
                         item_masks: Mapping[IntVec, int],
                         negative: Sequence[IntVec]) -> None:
    """Certify that the projected lower faces of C are the subdivision fan of S.

    Notation: C = `big` has rays x and facet normals f = (a, c), where
    c = <f, (0, 1)> is the apex pairing; S is the chart support, of
    dimension d; pi(v, s) = v.  The cells are the facets with c > 0.
    `faces` holds the ray mask and tight facets of each face of C inside a
    cell, and `proj_cones` their images under pi.  The checks:

    1. Validity: <f, x> >= 0 for every facet f and ray x of C.
    2. Items: every lifted item (w, 1) pairs >= 0 with every ray of C, and
       the rays of each cell are exactly the rays some item is tight on.
    3. Faces: every walked face has a tight facet with c > 0, and its
       dimension k, the rank of its projected rays, is the grade the walk
       gave it.  A walked face F with k >= 1 has a walked facet, and every
       walked face of dimension k - 2 in a walked facet of F lies in
       exactly two of them.
    4. Cells: every cell is walked and projects to a cone of dimension d.
    5. Rays: every ray of a cell projects into S, with t >= 0.
    6. Walls: a walked face of dimension d - 1 lies either in exactly two
       cells A and B, strictly on opposite sides of the hyperplane of
       n = c_B f_A - c_A f_B, or in exactly one cell and on a facet of S.
    7. Degree one: the sum p of the projected rays of one cell A lies in no
       other cell B: the lift of p onto the hyperplane of f_B is not in C.

    Soundness.  Nothing is taken on trust from the double description that
    produced C.  Let C' be the cone the rays of C span.

    - By 1 each walked mask is the face of C' cut out by its tight facets,
      and faces include each other as their masks do.  On the hyperplane
      of a facet with c > 0 the lift is s = -<a, v>/c, so by 3 pi is
      injective on the span of each walked face and keeps its dimension.
    - The walk holds every face of a walked face F, by induction on
      k = dim F.  For k <= 2 this is 3.  For k > 2 the walked facets of F
      have all their faces walked, and by 3 each of their ridges lies in
      exactly two of them: they form a closed pseudomanifold inside the
      boundary sphere of F, so they are the whole boundary.
    - pi is injective on the union of the cells: if x and x + l(0, 1),
      l > 0, lay in cells A and B, then <f_B, x> = -l c_B < 0, against 1.
      So the images of two walked faces meet in the image of their
      intersection, a walked face of both: the projected family is a fan.
    - By 4 and 5 the cells are d-dimensional cones in S.  The number of
      cells over a point q of the relative interior of S stays the same
      when q crosses a wall of two cells, where one cell ends and the
      other begins (6), and one-cell walls lie on the boundary of S.  So
      it is the same at every q off the faces of codimension two, and by
      7 it is one: the cells cover S exactly once.
    - By 2 and 5 the cells lie in the lifted cone of the chart, whose lower
      boundary is the graph of -val, and over each cell the lift is
      -<w, v> <= -val(v) for an item w.  So the cells lift onto the graph
      of -val, each where one item attains the minimum: the fan is the
      subdivision of the chart.

    n has lift coordinate c_B c_A - c_A c_B = 0, so 6 tests the projected
    cells.  A failed check raises SubdivisionInconsistency.
    """
    def fail(what: str):
        raise SubdivisionInconsistency(f"subdivision inconsistency: {what}")

    rays, facets = big.rays, big.facets
    support = support_cone(chart)
    d = support.dim()
    cells = [j for j, f in enumerate(facets) if f[-1] > 0]
    cone_of = {face.mask: cone for face, cone in zip(faces, proj_cones)}
    if any(dot(x, f) < 0 for f in facets for x in rays):
        fail("a facet of C is negative on a ray of C")
    if negative:
        fail(f"item exponent {negative[0][:-1]} is negative on a ray of C")
    item_planes = set(item_masks.values())
    if any(facet_masks[j] not in item_planes for j in cells):
        fail("a cell of C lies on no item's hyperplane")
    if any(not any(facets[j][-1] > 0 for j in tight_facets(big, face.mask)) for face in faces):
        fail("a walked face lies in no cell")
    dims = {}
    for mask, cone in cone_of.items():
        dims[mask] = matrix_rank(cone.rays) if cone.rays else 0
        if dims[mask] != cone.dim():
            fail(f"the graded dimension {cone.dim()} of {list(cone.rays)} is not its rank")
    facets_of = {mask: {mask & fm for fm in facet_masks if dims.get(mask & fm) == k - 1}
                 for mask, k in dims.items()}
    for mask, k in dims.items():
        ridges = Counter(e for g in facets_of[mask] for e in facets_of[g])
        if (k >= 1 and not facets_of[mask]) or any(n != 2 for n in ridges.values()):
            fail(f"the walked faces of {list(cone_of[mask].rays)} do not close up")
    if not cells or any(dims.get(facet_masks[j]) != d for j in cells):
        fail(f"a cell is not walked or does not have the dimension {d} of the support")
    for j in cells:
        for v in cone_of[facet_masks[j]].rays:
            if v[-1] < 0 or not chart.in_support(v):
                fail(f"projected ray {v} lies outside the support or has t < 0")
    for face, cone in zip(faces, proj_cones):
        if dims[face.mask] != d - 1:
            continue
        around = [j for j in tight_facets(big, face.mask) if facets[j][-1] > 0]
        if len(around) == 2:
            a, b = around
            fa, fb = facets[a], facets[b]
            normal = tuple(fb[-1] * u - fa[-1] * w for u, w in zip(fa, fb))
            side_a = [dot(normal, x) for i, x in enumerate(rays) if facet_masks[a] >> i & 1]
            side_b = [dot(normal, x) for i, x in enumerate(rays) if facet_masks[b] >> i & 1]
            if not (max(side_a) <= 0 < max(side_b) and min(side_a) < 0 <= min(side_b)):
                fail(f"cells {a} and {b} are not on opposite sides of their wall "
                     f"{list(cone.rays)}")
        elif len(around) == 1:
            if not any(all(dot(v, g) == 0 for v in cone.rays) for g in support.facets):
                fail(f"wall {list(cone.rays)} of cell {around[0]} is unpaired "
                     "and not on the support boundary")
        else:
            fail(f"wall {list(cone.rays)} lies in {len(around)} cells")
    a = cells[0]
    p = relative_interior_point(cone_of[facet_masks[a]])
    for b in cells[1:]:
        fb = facets[b]
        lift = tuple(fb[-1] * u for u in p) + (-dot(fb[:-1], p),)
        if big.contains(lift):
            fail(f"an interior point of cell {a} also lies in cell {b}")


def certify_lower_faces_of(chart):
    """The unchecked pipeline, then the per-face certificate on what it walked."""
    res = subdivide_chart(chart, verify=False)
    big = res.big_cone
    fan_cone = {c.rays: c for c in res.projected_fan}
    proj_cones = [fan_cone[tuple(sorted(primitive(x[:-1]) for x in f.cone.rays))]
                  for f in res.faces_avoiding]
    masks, negative = pair_with_D(chart, big.rays)
    _certify_lower_faces(chart, big, big.facet_masks(), res.faces_avoiding, proj_cones,
                         {g: m for g, m in masks.items() if g[-1]},
                         [g for g in negative if g[-1]])


def with_rays_of_C(d, rays):
    """D with its facets, which are the rays of C = dual_cone(D), replaced."""
    return cones.Cone(d.rank, d.rays, d.lineality, tuple(rays), d.span_eqs,
                      _token=cones._CONE_TOKEN)


@st.composite
def faulted_lifted_cones(draw):
    """A chart with a subdivision, and its D with one facet or one ray of C
    dropped, duplicated, or moved by +-1 in one coordinate; or with the
    facets or rays of C in reverse order, which is no fault."""
    ch = draw(general_charts())
    try:
        subdivide_chart(ch)
    except ChartError:
        assume(False)
    d = build_D(ch)
    of_rays = draw(st.booleans())
    vectors = list(d.facets if of_rays else d.rays)
    k = draw(st.integers(0, len(vectors) - 1))
    kind = draw(st.sampled_from(["drop", "duplicate", "perturb", "reverse"]))
    if kind == "reverse":
        vectors.reverse()
    elif kind == "drop":
        del vectors[k]
    elif kind == "duplicate":
        vectors.append(vectors[k])
    else:
        j = draw(st.integers(0, d.rank - 1))
        step = draw(st.sampled_from([-1, 1]))
        vectors[k] = tuple(x + step * (i == j) for i, x in enumerate(vectors[k]))
    return ch, (with_rays_of_C if of_rays else with_facets_of_C)(d, vectors)


@given(faulted_lifted_cones())
@settings(max_examples=150, deadline=None)
def test_certificate_of_C_rejects_what_the_per_face_oracle_rejects(fault):
    ch, bad_d = fault
    good = subdivide_chart(ch)
    certify_lower_faces_of(ch)
    with mock.patch.object(subdivision, "_lifted_cone", lifted_from(bad_d)):
        try:
            res = subdivide_chart(ch)
        except SubdivisionInconsistency:
            return
        certify_lower_faces_of(ch)   # where the C check accepts, so does the oracle
    assert res.projected_fan == good.projected_fan
    assert res.active_sets == good.active_sets


def test_certificate_of_C_rejects_the_octahedron_with_a_facet_dropped():
    # C over the octahedron, rays (+-e_i, 1), is the dual of the cone over
    # the cube, (+-1, +-1, +-1, 1): one item per vertex, support all of Q^3.
    # With (1, 1, 1, 1) dropped, every ray keeps three independent tight
    # facets and every ridge found lies in two listed facets, but the listed
    # facets cut out the extra ray (-1, -1, -1, 1).
    signs = [(a, b, c) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)]
    ch = MockPolytopeChart("octahedron", 3, (), tuple(
        LiftedExponent(f"i{k}", w) for k, w in enumerate(signs)))
    rays = tuple(sorted(tuple(s * (i == j) for j in range(3)) + (1,)
                        for i in range(3) for s in (-1, 1)))
    facets = tuple(w + (1,) for w in signs if w != (1, 1, 1))
    bad_c = cones.Cone(4, rays, (), facets, (), _token=cones._CONE_TOKEN)
    with pytest.raises(SubdivisionInconsistency,
                       match=r"differ at the ray or line \(-1, -1, -1, 1\)"):
        subdivision._certify_lifted_cone(bad_c, support_cone(ch).dim(),
                                         *pair_with_D(ch, rays))


@pytest.mark.parametrize("smaller, match", [
    (lambda ch: replace(ch, items=ch.items[1:]),
     r"item exponent \(0, 0, 2\) is negative"),
    (lambda ch: replace(ch, sigma_dual_generators=ch.sigma_dual_generators[1:]),
     r"support dual \(1, 0, 0\) is negative"),
], ids=["item", "support dual"])
def test_certificate_of_C_rejects_the_exact_dual_of_a_smaller_D(monkeypatch, smaller, match):
    # C is consistent in itself, but D lacks a generator of the chart
    ch = triangle_chart()
    bad_d = build_D(smaller(ch))
    monkeypatch.setattr(subdivision, "_lifted_cone", lifted_from(bad_d))
    with pytest.raises(SubdivisionInconsistency):
        certify_lower_faces_of(ch)
    with pytest.raises(SubdivisionInconsistency, match=match):
        subdivide_chart(ch)


def test_certificate_of_C_names_an_item_before_a_support_dual(monkeypatch):
    # D lacks the item (0, 0, 2) and the support dual (1, 0, 0): both are
    # negative on a ray of its dual, and step 1 names the item
    ch = triangle_chart()
    bad_d = build_D(replace(ch, items=ch.items[1:],
                            sigma_dual_generators=ch.sigma_dual_generators[1:]))
    rays = dual_cone(bad_d).rays
    for g in ((0, 0, 2, 1), (1, 0, 0, 0)):
        assert any(dot(g, x) < 0 for x in rays)
    monkeypatch.setattr(subdivision, "_lifted_cone", lifted_from(bad_d))
    with pytest.raises(SubdivisionInconsistency,
                       match=r"item exponent \(0, 0, 2\) is negative on a ray of C"):
        subdivide_chart(ch)


def test_span_equalities_of_projected_cones_are_the_kernel_of_their_rays():
    # the separate kernel of the rays and lineality, kept as the oracle of
    # the span equalities the facet DD gives
    for ch in (triangle_chart(), plane_chart(), zero_chart(GrassmannSpec(5, 2, 1))):
        res = subdivide_chart(ch, verify=False)
        for k, cone in enumerate(res.projected_fan):
            assert cone._facets is None and cone._span_eqs is None
            if k % 2:
                cone.facets
            assert cone.span_eqs == kernel_basis(list(cone.rays) + list(cone.lineality),
                                                 cone.rank)


def test_certificate_of_C_rejects_a_cone_of_too_low_a_rank(monkeypatch):
    # C given as the ray (0, 0, 0, 1) alone, on the span equalities e_1, e_2,
    # e_3 and cut out by (0, 0, 0, 1), the representative of every item:
    # every generator is >= 0 on it and a second DD gives it back
    apex = (0, 0, 0, 1)
    bad_d = cones.Cone(4, (apex,), ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)), (apex,), (),
                       _token=cones._CONE_TOKEN)
    monkeypatch.setattr(subdivision, "_lifted_cone", lifted_from(bad_d))
    with pytest.raises(SubdivisionInconsistency, match="rank 1, not 4"):
        subdivide_chart(triangle_chart())


def test_certificate_of_C_rejects_a_repeated_ray_off_the_walk(monkeypatch):
    # the apex ray (0, 0, 0, 1) of C lies on no lower face, so only the
    # second DD sees it listed twice
    ch = triangle_chart()
    good = subdivide_chart(ch).projected_fan
    d = build_D(ch)
    apex = (0, 0, 0, 1)
    assert apex in d.facets
    monkeypatch.setattr(subdivision, "_lifted_cone",
                        lifted_from(with_rays_of_C(d, d.facets + (apex,))))
    assert subdivide_chart(ch, verify=False).projected_fan == good
    with pytest.raises(SubdivisionInconsistency,
                       match=r"differ at the ray or line \(0, 0, 0, 1\)"):
        subdivide_chart(ch)


def plane_chart():
    # support x = 0, y >= 0, t >= 0, so that C has the span equality
    # (1, 0, 0, 0); no generator of D but the support duals +-(1, 0, 0, 0)
    # has an x entry, so each is its own representative modulo (1, 0, 0, 0)
    return MockPolytopeChart("plane", 3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)), (
        LiftedExponent("a", (0, 0, 0), 2), LiftedExponent("b", (0, 1, 0), 0),
        LiftedExponent("c", (0, -1, 0), 1)))


@pytest.mark.parametrize("chart, equalities, match", [
    (triangle_chart, ((1, 0, 0, 0),), "no generator of D"),          # gained one
    (plane_chart, (), r"differ at the ray or line \(1, 0, 0, 0\)"),   # lost one
], ids=["gained", "lost"])
def test_certificate_of_C_rejects_a_changed_span_equality(monkeypatch, chart, equalities,
                                                          match):
    ch = chart()
    d = build_D(ch)
    assert len(d.lineality) == 1 - len(equalities)
    bad_d = cones.Cone(d.rank, d.rays, equalities, d.facets, d.span_eqs,
                       _token=cones._CONE_TOKEN)
    monkeypatch.setattr(subdivision, "_lifted_cone", lifted_from(bad_d))
    certify_lower_faces_of(ch)   # the faces of C never look at E
    with pytest.raises(SubdivisionInconsistency, match=match):
        subdivide_chart(ch)


# -- active sets from the ray masks of C against the val_min oracle --------------

def active_set_oracle(chart, cone):
    """Items attaining val_min at a relative interior point of the cone."""
    v = relative_interior_point(cone)
    val = val_min(chart, v)
    return frozenset(it.id for it in chart.items
                     if dot(v, chart.effective_exponent(it)) == val)


@st.composite
def general_charts(draw):
    """Charts whose support need not be an orthant (t >= 0 is always a
    facet condition), with kappa and delta slots that vary, and with items
    copied so that two ids share one effective exponent."""
    rank = draw(st.integers(2, 4))
    scale = draw(st.integers(1, 3))
    vec = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank).map(tuple)
    duals = [tuple(1 if j == rank - 1 else 0 for j in range(rank))]
    duals += draw(st.lists(vec, min_size=rank - 1, max_size=rank + 1))
    specs = draw(st.lists(st.tuples(vec, st.integers(0, 4)), min_size=1, max_size=7))
    for k in draw(st.lists(st.integers(0, len(specs) - 1), max_size=3)):
        exponent, kappa = specs[k]
        shift = draw(st.integers(-2, 2))
        specs.append((exponent[:-1] + (exponent[-1] + scale * shift,), kappa - shift))
    items = [LiftedExponent(f"i{k}", e, kappa) for k, (e, kappa) in enumerate(specs)]
    return MockPolytopeChart("general", rank, tuple(duals), tuple(items), scale=scale)


def subdivide_full_support(ch):
    """The subdivision of a chart with a full-dimensional support, else None."""
    if support_cone(ch).dim() != ch.ambient_dual_rank:
        return None
    try:
        return subdivide_chart(ch)
    except ChartError:
        return None


@given(general_charts())
@settings(max_examples=80, deadline=None)
def test_mask_active_sets_equal_val_min_oracle(ch):
    res = subdivide_full_support(ch)
    assume(res is not None)
    for cone in res.projected_fan:
        assert res.active_sets[cone] == active_set_oracle(ch, cone)


def test_general_charts_cover_duplicates_kappa_and_non_orthant_supports():
    seen = set()

    @given(general_charts())
    @settings(max_examples=100, deadline=None, database=None)
    def probe(ch):
        if subdivide_full_support(ch) is None:
            return
        r = ch.ambient_dual_rank
        if len(ch.lifted_generators()) < len(ch.items):
            seen.add("duplicate")
        if any(it.kappa for it in ch.items):
            seen.add("kappa")
        if support_cone(ch) != cg(r, [tuple(int(j == i) for j in range(r))
                                      for i in range(r)]):
            seen.add("non-orthant")

    probe()
    assert seen == {"duplicate", "kappa", "non-orthant"}


@pytest.mark.parametrize("n", [4, 5, 6])
def test_mask_active_sets_on_every_cone_of_the_zero_chart(n):
    ch = zero_chart(GrassmannSpec(n, 2, 1))
    res = subdivide_chart(ch)
    for cone in res.projected_fan:
        assert res.active_sets[cone] == active_set_oracle(ch, cone)


def assert_active_sets_are_the_argmin_and_written_alike(ch, res):
    """Each active set of `res`, read from its bitsets, is a frozenset and
    the val_min argmin; the mapping holds the fan's cones and no other, and
    `write_result` writes it as the Cone-keyed oracle writes a plain dict of it."""
    fan, active = res.projected_fan, res.active_sets
    for cone in fan:
        assert type(active[cone]) is frozenset
        assert active[cone] == active_set_oracle(ch, cone)
    assert len(active) == len(fan) and set(active) == set(fan.cones)
    with pytest.raises(KeyError):
        active[cg(fan.rank + 1, [])]
    assert formats.write_result(fan, active) == oracle_write_result(fan, dict(active))


@given(general_charts())
@settings(max_examples=60, deadline=None)
def test_active_sets_from_bitsets_are_the_argmin_and_written_alike(ch):
    res = subdivide_full_support(ch)
    assume(res is not None)
    assert_active_sets_are_the_argmin_and_written_alike(ch, res)


@pytest.mark.parametrize("n", [4, 5])
def test_active_sets_from_bitsets_on_the_zero_chart(n):
    ch = zero_chart(GrassmannSpec(n, 2, 1))
    assert_active_sets_are_the_argmin_and_written_alike(ch, subdivide_chart(ch))


def test_empty_active_set_is_an_inconsistency(monkeypatch):
    # as if no lifted item were zero on any ray of C
    lifted_cone = subdivision._lifted_cone
    monkeypatch.setattr(subdivision, "_lifted_cone", lambda chart, span_eqs: (
        lifted_cone(chart, span_eqs)[0],
        {g: 0 for g in subdivision._generators_of_D(chart)}, []))
    with pytest.raises(SubdivisionInconsistency, match="no item is active"):
        subdivide_chart(triangle_chart(), verify=False)


def test_chart_ids_must_be_single_tokens():
    item = LiftedExponent("a", (0, 0))
    for label in ("", "a b", "a\tb", "a\nb"):
        with pytest.raises(ChartError, match="chart label"):
            MockPolytopeChart(label, 2, ((0, 1),), (item,))
    for item_id in ("", "x y", "x\u00a0y", "x\u2028y", 7):
        with pytest.raises(ChartError, match="item id"):
            MockPolytopeChart("ok", 2, ((0, 1),), (LiftedExponent(item_id, (0, 0)),))


# -- C built in span coordinates against the dual of build_D ----------------------

def skew_chart():
    # support x = y, y >= 0, t >= 0: the support duals hold (-1, 1, 0) and
    # twice its negative, and C spans the kernel of (1, -1, 0, 0), whose
    # Hermite basis is not a coordinate projection; the items b and c are
    # one row in its coordinates
    return MockPolytopeChart("skew", 3, ((2, -2, 0), (-1, 1, 0), (0, 1, 0), (0, 0, 1)), (
        LiftedExponent("a", (0, 0, 0), 2), LiftedExponent("b", (1, 0, 0), 0),
        LiftedExponent("c", (0, 1, 0), 0), LiftedExponent("d", (-1, -1, 0), 1),
        LiftedExponent("e", (3, -1, 1), 0)))


def slab_chart():
    # support x = 0, y = z >= 0, t >= 0 in rank 4: two span equalities
    return MockPolytopeChart(
        "slab", 4, ((1, 0, 0, 0), (-1, 0, 0, 0), (0, 1, -1, 0), (0, -1, 1, 0), (0, 1, 1, 0),
                    (0, 0, 0, 1)),
        tuple(LiftedExponent(f"i{k}", w, kappa) for k, (w, kappa) in enumerate([
            ((0, 0, 0, 0), 3), ((5, 1, 0, 0), 0), ((0, 0, 1, 0), 0), ((1, -1, -1, 1), 2),
            ((0, 2, 0, -1), 2)])))


@pytest.mark.parametrize("chart", [halfline_chart, triangle_chart, plane_chart, skew_chart,
                                   slab_chart])
def test_lift_equals_the_dual_of_build_D_on_small_charts(chart):
    ch = chart()
    assert_lift_equals_the_dual_of_build_D(ch)
    span_eqs = support_cone(ch).span_eqs
    assert len(span_eqs) == {"plane": 1, "skew": 1, "slab": 2}.get(ch.label, 0)


@given(general_charts())
@settings(max_examples=100, deadline=None)
def test_lift_equals_the_dual_of_build_D_on_random_charts(ch):
    assert_lift_equals_the_dual_of_build_D(ch)


def test_lift_of_a_chart_with_lineality_is_a_chart_error():
    # the thin chart of test_degenerate_chart_rejected: C is the half-space
    # s >= 0, t >= 0 times the x axis
    ch = MockPolytopeChart("thin", 2, ((0, 1),), (LiftedExponent("a", (0, 0)),))
    assert dual_cone(build_D(ch)).lineality == ((1, 0, 0),)
    with pytest.raises(ChartError, match="strongly convex"):
        subdivision._lifted_cone(ch, support_cone(ch).span_eqs)


# -- C claimed by its own rays, with the trivial group, against the DD ----------

@given(st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_own_claim_equals_the_lift_on_random_orthant_charts(rng):
    assert_own_claim_equals_the_lift(random_orthant_chart(rng))


@pytest.mark.parametrize("seed", range(4))
def test_a_lift_runs_one_dd_none_on_a_claim_and_one_more_to_certify(monkeypatch, seed):
    # every DD goes through `cones._dd`; the calls made inside
    # `subdivision._lifted_cone` and `_certify_lifted_cone` are counted
    # apart from those outside both, the support's; a claim, taken by
    # `lift_symmetric_chart` with the trivial group, runs no `_lifted_cone`
    ch = random_orthant_chart(random.Random(seed))
    rays = lift_chart(ch, verify=False).big_cone.rays
    calls, where = Counter(), ["outside"]
    dd = cones._dd

    def counted_dd(dim, rows):
        calls[where[-1]] += 1
        return dd(dim, rows)

    def credited(name):
        inner = getattr(subdivision, name)

        def run(*args):
            where.append(name)
            try:
                return inner(*args)
            finally:
                where.pop()
        monkeypatch.setattr(subdivision, name, run)

    monkeypatch.setattr(cones, "_dd", counted_dd)
    credited("_lifted_cone")
    credited("_certify_lifted_cone")
    for claim in (None, rays):
        for verify in (False, True):
            calls.clear()
            if claim is None:
                lift_chart(ch, verify)
            else:
                lift_symmetric_chart(ch, claim, (), verify)
            assert (calls["_lifted_cone"], calls["_certify_lifted_cone"], calls["outside"]) == (
                int(claim is None), int(verify), 1)


@pytest.mark.parametrize("chart", [triangle_chart, skew_chart])
def test_certificate_rejects_each_ray_of_C_perturbed_through_the_lift(monkeypatch, chart):
    # every ray of C moved by +-1 in every coordinate, fed in through the
    # lift with its own pairing; unchecked, some of them still subdivide
    ch = chart()
    c, _, _ = subdivision._lifted_cone(ch, support_cone(ch).span_eqs)
    for k, x in enumerate(c.rays):
        for j in range(c.rank):
            for step in (-1, 1):
                rays = c.rays[:k] + (tuple(v + step * (i == j) for i, v in enumerate(x)),) \
                    + c.rays[k + 1:]
                bad = Cone._trusted(c.rank, rays, (), c.dim(), c.facets, c.span_eqs)
                monkeypatch.setattr(subdivision, "_lifted_cone",
                                    lambda chart, span_eqs: (
                                        bad, *pair_with_D(chart, bad.rays)))
                with pytest.raises(SubdivisionInconsistency):
                    subdivide_chart(ch)


# -- face dimensions graded from the walk against exact.rank ---------------------

def faces_avoiding_apex_oracle(big):
    """The faces of C avoiding (0, 1), picked from its whole face lattice:
    those on some facet that pairs positively with (0, 1)."""
    return [f for f in big.faces()
            if any(big.facets[j][-1] > 0 for j in tight_facets(big, f.mask))]


def assert_graded_dims_equal_ranks(ch):
    big = dual_cone(build_D(ch))
    expected = {f.mask: f for f in faces_avoiding_apex_oracle(big)}
    for mask, f in expected.items():
        rays = [x for i, x in enumerate(big.rays) if mask >> i & 1]
        assert f.cone.rays == tuple(rays)
        assert f.cone.dim() == matrix_rank(rays) == matrix_rank([x[:-1] for x in rays])
    for verify in (False, True):
        res = subdivide_chart(ch, verify=verify)
        assert {f.mask: f for f in res.faces_avoiding} == expected
        assert all(cone.dim() == matrix_rank(cone.rays) for cone in res.projected_fan)
        assert all(f.cone.dim() == matrix_rank(f.cone.rays) for f in res.faces_avoiding)


@given(general_charts())
@settings(max_examples=60, deadline=None)
def test_graded_face_dims_equal_rank_on_random_charts(ch):
    assume(subdivide_full_support(ch) is not None)
    assert_graded_dims_equal_ranks(ch)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_graded_face_dims_equal_rank_on_the_zero_chart(n):
    assert_graded_dims_equal_ranks(zero_chart(GrassmannSpec(n, 2, 1)))


def assert_walks_of_C_match_oracle(ch):
    """Both walks of C against the closure oracle: the whole lattice, and
    the lower faces, pruned to the facets positive on (0, 1)."""
    big = dual_cone(build_D(ch))
    assert_walk_matches_oracle(big)
    assert_walk_matches_oracle(big, sum(1 << j for j, f in enumerate(big.facets) if f[-1] > 0))


@given(general_charts())
@settings(max_examples=60, deadline=None)
def test_walks_of_C_match_the_closure_oracle_on_random_charts(ch):
    assert_walks_of_C_match_oracle(ch)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_walks_of_C_match_the_closure_oracle_on_the_zero_chart(n):
    assert_walks_of_C_match_oracle(zero_chart(GrassmannSpec(n, 2, 1)))


# -- the bounded cells: the walk pruned to t > 0 against the full walk ------------

@given(general_charts())
@settings(max_examples=60, deadline=None)
def test_bounded_cells_equal_the_full_walk_on_random_charts(ch):
    try:
        subdivision.lift_chart(ch, verify=False)
    except ChartError:
        assume(False)
    assert_bounded_cells_equal_the_full_walk(ch)


@pytest.mark.parametrize("seed", range(12))
def test_bounded_cells_equal_the_full_walk_on_seeded_charts(seed):
    assert_bounded_cells_equal_the_full_walk(random_orthant_chart(random.Random(seed)),
                                             verify=True)


@pytest.mark.parametrize("dim", [0, 1, 2, 3])
def test_certificate_rejects_a_wrong_grade(monkeypatch, dim):
    # one walked face of the given dimension is graded one too high: moved
    # up one level of the walk
    def wrong_walk(c, lower, within):
        levels = cones.walk_masks(c, lower, within) + [[]]
        level = dim - len(c.lineality)
        mask = min(levels[level])
        levels[level].remove(mask)
        levels[level + 1].append(mask)
        return levels if levels[-1] else levels[:-1]

    monkeypatch.setattr(subdivision, "walk_masks", wrong_walk)
    with pytest.raises(SubdivisionInconsistency, match="graded dimension"):
        certify_lower_faces_of(triangle_chart())


# -- a support that reaches t < 0 is bad input, not a pipeline bug ---------------

@pytest.mark.parametrize("verify", [True, False])
@pytest.mark.parametrize("duals", [((1, 0), (0, -1)), ((1, 0),), ((1, 0), (1, 1))])
def test_support_reaching_negative_t_is_a_chart_error(duals, verify):
    # supports: x >= 0 and t <= 0; x >= 0 with the t-axis as lineality;
    # x >= 0 and x + t >= 0, with the ray (1, -1)
    ch = MockPolytopeChart("down", 2, duals, (LiftedExponent("i0", (3, 0), 1),
                                              LiftedExponent("i1", (-1, 0), 2),
                                              LiftedExponent("i2", (-2, 0), 4)))
    with pytest.raises(ChartError, match="t < 0"):
        subdivide_chart(ch, verify=verify)


# -- per-ray projection and active sets against the per-face computations -------

def assert_per_ray_data_equal_per_face_oracles(ch):
    """Each face's projection, canonicalised from its own rays, is the fan
    cone the pipeline built from C's projected rays, with the same
    dimension; and the active set the per-ray AND gives is every item whose
    zero mask covers the face's mask."""
    for verify in (False, True):
        res = subdivide_chart(ch, verify=verify)
        fan_cones = {c: c for c in res.projected_fan}
        item_masks, _ = pair_with_D(ch, res.big_cone.rays)
        ids_by_mask = [(item_masks[ch.effective_exponent(it) + (1,)], it.id)
                       for it in ch.items]
        projections = []
        for face in res.faces_avoiding:
            proj = make_cone(ch.ambient_dual_rank, [x[:-1] for x in face.cone.rays], ())
            assert proj.rays == fan_cones[proj].rays
            assert proj.dim() == fan_cones[proj].dim() == face.cone.dim()
            assert res.active_sets[proj] == frozenset(
                i for m, i in ids_by_mask if face.mask & ~m == 0)
            projections.append(proj)
        assert len(set(projections)) == len(projections) == len(fan_cones)


@given(general_charts())
@settings(max_examples=60, deadline=None)
def test_per_ray_projection_and_active_sets_on_random_charts(ch):
    assume(subdivide_full_support(ch) is not None)
    assert_per_ray_data_equal_per_face_oracles(ch)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_per_ray_projection_and_active_sets_on_the_zero_chart(n):
    assert_per_ray_data_equal_per_face_oracles(zero_chart(GrassmannSpec(n, 2, 1)))


# -- the walked faces of C, built as `Face`s only when read ------------------------

def assert_faces_avoiding_equal_the_walk(ch, verify=False):
    """`faces_avoiding`, built when first read, holds the faces the walk of
    `genutil.walk_faces` gives, in its order, with their masks, rays and
    grades, for the full walk and for the one pruned to t > 0; the walk is
    checked against the closure oracle.  The projected cones are handed to
    the fan as cells already in its order, and they are its cones."""
    lift = subdivision.lift_chart(ch, verify)
    big = lift.big_cone
    lower = sum(1 << j for j, f in enumerate(big.facets) if f[-1] > 0)
    for bounded in (False, True):
        within = sum(1 << i for i, x in enumerate(big.rays) if x[-2] > 0) if bounded else None
        handed, of_cells = [], Fan._of_cells

        def handed_on(rank, rays, cells, has_t):
            handed.append((list(rays), list(cells)))
            return of_cells(rank, *handed[-1], has_t)

        with mock.patch.object(Fan, "_of_cells", staticmethod(handed_on)):
            res = lift.subdivide(bounded)
        [(rays, cells)] = handed
        fan = res.projected_fan
        assert rays == sorted(set(rays)) and cells == sorted(cells, key=lambda c: (c[0], -c[1]))
        assert [tuple(map(rays.__getitem__, at)) for _, at in position_cells(fan)] == [
            c.rays for c in fan]
        assert list(fan.cones) == sorted(fan.cones, key=lambda c: (c.dim(), c.rays))
        assert "faces_avoiding" not in vars(res)
        walked = walk_faces(big, lower, within)
        assert ([(f.mask, f.cone, f.cone.dim()) for f in res.faces_avoiding]
                == [(f.mask, f.cone, f.cone.dim()) for f in walked])
        assert res.faces_avoiding is res.faces_avoiding
        assert res.face_levels == tuple(map(tuple, cones.walk_masks(big, lower, within)))
        assert_walk_matches_oracle(big, lower, within)


@given(general_charts())
@settings(max_examples=40, deadline=None)
def test_faces_avoiding_equal_the_walk_on_random_charts(ch):
    assume(subdivide_full_support(ch) is not None)
    assert_faces_avoiding_equal_the_walk(ch)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_faces_avoiding_equal_the_walk_on_the_zero_chart(n):
    assert_faces_avoiding_equal_the_walk(zero_chart(GrassmannSpec(n, 2, 1)), verify=True)


# -- the fan's ray table against the generic path ------------------------------------

def assert_table_fan_equals_the_generic_path(res):
    """The fan `subdivide` makes from its cells equals, in its cones, their
    order, `==`, `hash` and `in`, the fan `fan_from_cones` checks and closes
    from those cones, and the oracle fan of them."""
    fan = res.projected_fan
    members = list(fan.cones)
    assert [c.dim() for c in members] == [matrix_rank(list(c.rays)) if c.rays else 0
                                          for c in members]
    rays = [r for c in members if c.dim() == 1 for r in c.rays]
    others = [cg(fan.rank, pair) for pair in zip(rays, rays[1:] + rays[:1])]
    for oracle in (fan_from_cones(fan.rank, members, has_t=True),
                   oracle_fan(fan.rank, reversed(members), True)):
        assert oracle.cones == fan.cones
        assert (oracle.rays, oracle.cells) == (fan.rays, fan.cells)
        assert oracle == fan and fan == oracle and hash(oracle) == hash(fan)
        assert all(c in fan and c in oracle for c in members)
        assert [c in fan for c in others] == [c in oracle for c in others] == [
            c in set(members) for c in others]


@given(general_charts())
@settings(max_examples=40, deadline=None)
def test_table_fan_equals_the_generic_path_on_random_charts(ch):
    res = subdivide_full_support(ch)
    assume(res is not None)
    assert_table_fan_equals_the_generic_path(res)


@pytest.mark.parametrize("n", [4, 5, 6])
def test_table_fan_equals_the_generic_path_on_the_zero_chart(n):
    assert_table_fan_equals_the_generic_path(subdivide_chart(zero_chart(GrassmannSpec(n, 2, 1))))


def test_a_walked_ray_projecting_to_zero_is_an_inconsistency(monkeypatch):
    # as if the walk reached all of C, the apex ray (0, 0, 0, 1) included
    monkeypatch.setattr(subdivision, "walk_masks",
                        lambda c, lower, within: cones.walk_masks(c, within=within))
    with pytest.raises(SubdivisionInconsistency, match="projects to zero"):
        subdivide_chart(triangle_chart(), verify=False)


def test_two_walked_rays_with_one_projection_are_an_inconsistency(monkeypatch):
    # a C for the half-line chart with the extra ray (2, 0, 1) over (1, 0, 0),
    # walked from the facet (-1, 0, 2), while (1, 0, 0) is on the facet (0, 0, 1)
    rays_of_C = ((-1, 0, 1), (0, 0, 1), (0, 1, 0), (1, 0, 0), (2, 0, 1))
    bad_d = cones.Cone(3, ((-1, 0, 2), (0, 0, 1)), (), rays_of_C, (),
                       _token=cones._CONE_TOKEN)
    monkeypatch.setattr(subdivision, "_lifted_cone", lifted_from(bad_d))
    with pytest.raises(SubdivisionInconsistency, match="one projection"):
        subdivide_chart(halfline_chart(), verify=False)


# -- cells as ray masks, chained active sets, counted mask expansions --------------

ZERO_CHART_SPECS = [GrassmannSpec(n, 2, l) for n in (4, 5, 6) for l in (1, 2, 3)]


@pytest.mark.parametrize("spec", ZERO_CHART_SPECS, ids=str)
def test_mask_cells_are_position_cells_on_the_zero_chart(spec):
    res = subdivide_chart(zero_chart(spec), verify=False)
    assert_mask_cells_are_position_cells(res.projected_fan)
    assert_mask_cells_are_position_cells(res.active_sets.fan)
    assert_mask_cells_are_position_cells(rescale(res.projected_fan, 3))
    text = formats.write_result(res.projected_fan, res.active_sets)
    assert_mask_cells_are_position_cells(formats.read_result(text)[0])


@pytest.mark.parametrize("seed", range(12))
def test_mask_cells_are_position_cells_on_random_charts(seed):
    res = subdivide_chart(random_orthant_chart(random.Random(seed)))
    fan = res.projected_fan
    assert_mask_cells_are_position_cells(fan)
    assert_mask_cells_are_position_cells(fan_from_cones(fan.rank, list(fan), has_t=True))
    assert_mask_cells_are_position_cells(glue_charts([res, res]).fan)
    assert_mask_cells_are_position_cells(rescale(fan, 2))


def test_mask_cells_are_position_cells_on_glued_charts():
    items = (LiftedExponent("a", (0, 0, 0), 1), LiftedExponent("b", (1, -2, 0), 0),
             LiftedExponent("c", (-2, 1, 0), 2))
    small = MockPolytopeChart("face", 3, ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)), items)
    glued = glue_charts([subdivide_chart(orthant_chart(items)), subdivide_chart(small)])
    assert_mask_cells_are_position_cells(glued.fan)


def assert_chained_active_sets_are_the_per_ray_and(ch):
    """Each walked face's active set, chained up the levels, is the AND of
    `zero_on` over all its rays, and its row numbers the items of its ray
    with the fewest, the lowest such ray on a tie, or every item on the
    minimal face; in both walks, and at the face's cell, its projection."""
    lift = lift_chart(ch, verify=False)
    big, ids = lift.big_cone, sorted(it.id for it in ch.items)
    items_of = [[x for j, x in enumerate(ids) if z >> j & 1] for z in lift.zero_on]
    for bounded in (False, True):
        res = lift.subdivide(bounded)
        fan = res.projected_fan
        cell_at = {cell: k for k, cell in enumerate(fan.cells)}
        n = len(fan.rays)
        for grade, level in enumerate(res.face_levels):
            for mask in level:
                rays = [i for i in range(len(big.rays)) if mask >> i & 1]
                cell = sum(1 << n - 1 - fan.rays.index(primitive(big.rays[i][:-1])) for i in rays)
                k = cell_at[(len(big.lineality) + grade, cell)]
                on = (1 << len(ids)) - 1
                for i in rays:
                    on &= lift.zero_on[i]
                assert list(res.active_sets.sorted_ids(k)) == [
                    x for j, x in enumerate(ids) if on >> j & 1]
                fewest = min(rays, key=lambda i: (len(items_of[i]), i), default=None)
                assert res.active_sets.rows[k][0] == (ids if fewest is None else items_of[fewest])


@pytest.mark.parametrize("spec", ZERO_CHART_SPECS, ids=str)
def test_chained_active_sets_are_the_per_ray_and_on_the_zero_chart(spec):
    ch = zero_chart(spec)
    levels = subdivide_chart(ch, verify=False).face_levels
    assert any(mask.bit_count() > grade for grade, level in enumerate(levels) for mask in level)
    assert_chained_active_sets_are_the_per_ray_and(ch)


@given(general_charts())
@settings(max_examples=40, deadline=None)
def test_chained_active_sets_are_the_per_ray_and_on_random_charts(ch):
    assume(subdivide_full_support(ch) is not None)
    assert_chained_active_sets_are_the_per_ray_and(ch)


def test_no_item_active_names_the_first_cell_in_fan_order(monkeypatch):
    # with no lifted item zero on any ray, the minimal face keeps every item
    # and the first cell without one is the first ray of the fan
    fan = subdivide_chart(triangle_chart(), verify=False).projected_fan
    lifted_cone = subdivision._lifted_cone
    monkeypatch.setattr(subdivision, "_lifted_cone", lambda chart, span_eqs: (
        lifted_cone(chart, span_eqs)[0],
        {g: 0 for g in subdivision._generators_of_D(chart)}, []))
    with pytest.raises(SubdivisionInconsistency) as info:
        subdivide_chart(triangle_chart(), verify=False)
    assert str(info.value) == ("subdivision inconsistency: no item is active on "
                               f"{[fan.rays[0]]}")


def test_the_8_2_1_subdivision_expands_only_the_faces_it_cannot_chain(monkeypatch):
    # 198 expansions measured: the walked set, 176 faces that are not simplicial and
    # 21 of at most one ray; the bound leaves 10 % headroom over that, against the
    # 4,365 of one expansion per face before the active sets were chained
    lift = grassmann.verify(GrassmannSpec(8, 2, 1), verify_fan=False).lift   # the benchmark's
    expanded, real = [], cones._bit_indices
    monkeypatch.setattr(subdivision, "_bit_indices", lambda m: expanded.append(m) or real(m))
    res = lift.subdivide()
    unchained = [m for grade, level in enumerate(res.face_levels) for m in level
                 if m.bit_count() > grade or m.bit_count() <= 1]
    assert len(res.projected_fan) == 4364 and len(unchained) == 197
    assert len(expanded) <= 1 + len(unchained) and len(expanded) <= 220
