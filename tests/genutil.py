"""Seeded random generators shared by the property and acceptance suites."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

import pytest

from mockfan import cones, formats, grassmann, subdivision
from mockfan.cones import (Cone, ConeError, Face, cone_from_generators, dual_cone,
                           faces_of_masks, is_subcone, walk_masks, zero_cone)
from mockfan.exact import ExactError, IntVec, dot, hnf, kernel_basis, primitive, rank
from mockfan.fans import Fan, FanError, is_special_cone
from mockfan.grassmann import (GrassmannError, GrassmannSpec, index_data, lifted_cone_rays,
                               zero_chart)
from mockfan.subdivision import (ChartError, LiftedExponent, MockPolytopeChart,
                                 SubdivisionInconsistency, SubdivisionResult, build_D, lift_chart,
                                 lift_symmetric_chart, support_cone)


def random_generators(rng: random.Random, rank: int, count: int, entry: int = 5):
    return [tuple(rng.randint(-entry, entry) for _ in range(rank))
            for _ in range(count)]


def random_cone(rng: random.Random, max_rank: int = 6, max_gens: int = 10,
                entry: int = 5) -> Cone:
    rank = rng.randint(1, max_rank)
    count = rng.randint(0, max_gens)
    return cone_from_generators(rank, random_generators(rng, rank, count, entry))


def random_orthant_chart(rng: random.Random, max_rank: int = 4, max_items: int = 8,
                         exp_entry: int = 3, kappa_max: int = 4) -> MockPolytopeChart:
    """Chart supported on the first orthant (t last); spatial exponent entries
    in [-exp_entry, exp_entry], delta slot zero, kappa in [0, kappa_max]."""
    rank = rng.randint(2, max_rank)
    duals = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]
    items = []
    for k in range(rng.randint(1, max_items)):
        exponent = tuple(rng.randint(-exp_entry, exp_entry)
                         for _ in range(rank - 1)) + (0,)
        items.append(LiftedExponent(f"i{k}", exponent, rng.randint(0, kappa_max)))
    return MockPolytopeChart(f"rand{rng.random():.6f}", rank, tuple(duals),
                             tuple(items))


def interior_lattice_point(rng: random.Random, cone: Cone, lo: int = 1, hi: int = 5):
    """Random point in the relative interior: positive combination of all rays."""
    coeffs = [rng.randint(lo, hi) for _ in cone.rays]
    return tuple(sum(k * r[i] for k, r in zip(coeffs, cone.rays))
                 for i in range(cone.rank))


def lattice_points_in_support(rng: random.Random, chart: MockPolytopeChart,
                              count: int, hi: int = 6):
    """Nonnegative lattice points (the support is the first orthant)."""
    return [tuple(rng.randint(0, hi) for _ in range(chart.ambient_dual_rank))
            for _ in range(count)]


# Cone and lattice predicates that only the tests use.

def lattice_basis_extension_test(rows) -> bool:
    """True iff the (independent) rows extend to a basis of the ambient lattice.

    They do iff their lattice is saturated, that is equal to span(rows) ∩ Z^n,
    the kernel of their kernel; the Hermite forms of the two lattices are
    canonical, so comparing them decides it.
    """
    rows = [tuple(r) for r in rows]
    if rank(rows) != len(rows):
        raise ExactError("lattice_basis_extension_test requires independent rows")
    n = len(rows[0]) if rows else 0
    return hnf(rows) == kernel_basis(kernel_basis(rows, n), n)


def is_simplicial(c: Cone) -> bool:
    return c.is_strongly_convex() and len(c.rays) == c.dim()


def is_unimodular(c: Cone) -> bool:
    if not is_simplicial(c):
        return False
    if not c.rays:
        return True
    return lattice_basis_extension_test(c.rays)


def relative_interior_contains(c: Cone, v) -> bool:
    if len(v) != c.rank:
        raise ConeError(f"rank mismatch: point has {len(v)}, cone has {c.rank}")
    return (all(dot(v, e) == 0 for e in c.span_eqs)
            and all(dot(v, f) > 0 for f in c.facets))


def relative_interior_point(c: Cone):
    """Sum of the extreme rays; the zero vector for a linear subspace."""
    point = [0] * c.rank
    for r in c.rays:
        for k in range(c.rank):
            point[k] += r[k]
    return tuple(point)


# -- the face test by containment and tightness: the oracle of `is_face_of` -----

def is_face_of_oracle(face: Cone, c: Cone) -> bool:
    """True iff `face` lies in c and equals c cut by the facets of c that
    are tight on it (the AND of their facet masks)."""
    if face.rank != c.rank or not is_subcone(face, c):
        return False
    gens = list(face.rays) + list(face.lineality)
    mask = (1 << len(c.rays)) - 1
    for f, fm in zip(c.facets, c.facet_masks()):
        if all(dot(g, f) == 0 for g in gens):
            mask &= fm
    rays = tuple(r for i, r in enumerate(c.rays) if mask >> i & 1)
    return (rays, c.lineality) == (face.rays, face.lineality)


def walk_faces(c: Cone, lower: Optional[int] = None,
               within: Optional[int] = None) -> list[Face]:
    """Every face of c in walk order, graded as walked, pruned by `lower`
    and `within` as in `walk_masks`; the minimal face is always returned."""
    return faces_of_masks(c, walk_masks(c, lower, within))


# -- the face walk before it went up by covers: the oracle of `walk_faces` -----

def mask_closure(facet_masks: Sequence[int],
                 start: Iterable[int]) -> list[tuple[int, frozenset[int]]]:
    """Ray masks reachable from `start` by intersecting with facet masks.

    Returns each mask once, in breadth-first order, with the set of facets
    tight on it.  When the start masks are faces, the result is every face
    inside one of them.
    """
    seen: set[int] = set()
    order: list[int] = []
    for m in start:
        if m not in seen:
            seen.add(m)
            order.append(m)
    head = 0
    while head < len(order):
        cur = order[head]
        head += 1
        for fm in facet_masks:
            child = cur & fm
            if child not in seen:
                seen.add(child)
                order.append(child)
    return [(mask, frozenset(j for j, fm in enumerate(facet_masks) if mask & ~fm == 0))
            for mask in order]


def face_dims(masks: Sequence[int], facet_masks: Sequence[int]) -> dict[int, int]:
    """Grade of each face mask (closed under `& facet mask`): the face's
    dimension minus the lineality's.  The minimal face (empty mask) has
    grade 0; any other face F has one more than its largest proper face
    F & f, because each facet of F is cut out by one facet f of the cone.
    """
    dims: dict[int, int] = {}
    for mask in sorted(masks, key=int.bit_count):
        dims[mask] = 1 + max((dims[mask & fm] for fm in facet_masks if mask & fm != mask),
                             default=-1)
    return dims


def tight_facets(c: Cone, mask: int) -> frozenset[int]:
    """The indices of the facets of c that hold every ray in the mask."""
    return frozenset(j for j, fm in enumerate(c.facet_masks()) if mask & ~fm == 0)


def assert_walk_matches_oracle(c: Cone, lower: Optional[int] = None,
                               within: Optional[int] = None):
    """`walk_faces(c, lower, within)` gives each face once, with its rays,
    the lineality of c and the dimension that `mask_closure` and
    `face_dims` give: walked from the full mask, or with `lower` from the
    masks of the `lower` facets, or from the minimal face when there are
    none; with `within`, only the faces whose ray mask lies in it."""
    facet_masks = c.facet_masks()
    if lower is None:
        start = [(1 << len(c.rays)) - 1]
    else:
        start = [m for j, m in enumerate(facet_masks) if lower >> j & 1] or [0]
    masks = [mask for mask, _ in mask_closure(facet_masks, start)]
    dims = face_dims(masks, facet_masks)
    if within is not None:
        masks = [mask for mask in masks if mask & ~within == 0]
    walked = walk_faces(c, lower, within)
    assert len(walked) == len({f.mask for f in walked})
    assert [f.cone.dim() for f in walked] == sorted(f.cone.dim() for f in walked)
    assert ({f.mask: (f.cone.rays, f.cone.lineality, f.cone.dim()) for f in walked}
            == {mask: (tuple(r for i, r in enumerate(c.rays) if mask >> i & 1),
                       c.lineality, len(c.lineality) + dims[mask]) for mask in masks})


# -- the descent against the walk up by covers -------------------------------------

def assert_walk_down_equals_the_walk_up(c: Cone, lower: Optional[int] = None):
    """`walk_masks(c, lower)`, which goes down from c or the `lower` facets,
    has the faces of the walk up by covers over every ray (`within` all of
    them), level by level, each level sorted.  With `lower` it reads the
    facet masks once and takes one `exact.rank`; `lower = 0` gives the
    minimal face alone."""
    every_ray = (1 << len(c.rays)) - 1
    up = cones.walk_masks(c, lower, every_ray)
    c.dim()   # cached before the counts, as the walk without `lower` reads it
    reads, ranks = [], []
    real_masks, real_rank = cones.Cone.facet_masks, cones.matrix_rank

    def counted_masks(cone):
        reads.append(cone)
        return real_masks(cone)

    def counted_rank(rows):
        ranks.append(rows)
        return real_rank(rows)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones.Cone, "facet_masks", counted_masks)
        mp.setattr(cones, "matrix_rank", counted_rank)
        down = cones.walk_masks(c, lower)
    assert [set(level) for level in down] == [set(level) for level in up]
    assert all(level == sorted(level) for level in down)
    assert sum(map(len, down)) == len({mask for level in down for mask in level})
    if lower is not None:
        assert len(reads) == 1 and len(ranks) == 1
    if lower == 0:
        assert down == [[0]]


# -- the bounded cells against the full walk: the oracle of the pruned walk -------

def assert_bounded_cells_equal_the_full_walk(chart: MockPolytopeChart, verify: bool = False):
    """`LiftedChart.subdivide(bounded=True)` gives the bounded cones of the
    full walk's fan, in its order, with the same active sets, and the zero
    cone: each the projection of the same face of C, with the same grade,
    the full walk's faces whose rays all have t > 0."""
    lift = lift_chart(chart, verify)
    full = lift.subdivide()
    cells = lift.subdivide(bounded=True)
    bounded = full.projected_fan.bounded_cones()
    assert cells.projected_fan.bounded_cones() == bounded
    assert [c for c in cells.projected_fan if c not in bounded] == [
        zero_cone(chart.ambient_dual_rank)]
    assert {c: cells.active_sets[c] for c in cells.projected_fan} == {
        c: full.active_sets[c] for c in cells.projected_fan}
    t_positive = sum(1 << i for i, x in enumerate(lift.big_cone.rays) if x[-2] > 0)
    assert {f.mask: (f.cone, f.cone.dim()) for f in cells.faces_avoiding} == {
        f.mask: (f.cone, f.cone.dim()) for f in full.faces_avoiding
        if f.mask & ~t_positive == 0}
    assert len(cells.faces_avoiding) == len(cells.projected_fan)


# -- the lifted cone C by the dual of D: the oracle of `subdivision._lifted_cone` --

def pair_with_D(chart: MockPolytopeChart, rays: Sequence[IntVec]
                ) -> tuple[dict[IntVec, int], list[IntVec]]:
    """Pair each generator of D with the rays of C once, in all coordinates:
    the mask of the rays it is zero on, and the generators negative on a ray,
    in D's order.  The oracle of the pairing in span coordinates."""
    masks, negative = {}, []
    for g in subdivision._generators_of_D(chart):
        pairing = [dot(g, x) for x in rays]
        if any(v < 0 for v in pairing):
            negative.append(g)
        masks[g] = sum(1 << i for i, v in enumerate(pairing) if v == 0)
    return masks, negative


def lifted_from(d: Cone):
    """A stand-in for `subdivision._lifted_cone` that gives C = dual_cone(d),
    for a D that may be wrong, with its pairing with the chart's generators."""
    c = dual_cone(d)
    return lambda chart, span_eqs: (c, *pair_with_D(chart, c.rays))


def cone_fields(c: Cone) -> tuple:
    """What a lifted cone is compared by: rays, lineality, facets, span
    equalities, dimension and facet masks."""
    return c.rays, c.lineality, c.facets, c.span_eqs, c.dim(), c.facet_masks()


def assert_lift_equals_the_dual_of_build_D(chart: MockPolytopeChart):
    """The C that `subdivision._lifted_cone` builds is `dual_cone(build_D(chart))`,
    with the same rays, facets, span equalities, dimension and facet masks;
    its mask and negative table is `pair_with_D`'s, and so is `zero_on`,
    with the items numbered in sorted-id order.
    Where C has lineality, or the support reaches t < 0, `lift_chart` raises
    ChartError instead."""
    support = support_cone(chart)
    big = dual_cone(build_D(chart))
    if big.lineality or any(x[-1] < 0 for x in support.rays) or any(
            v[-1] for v in support.lineality):
        try:
            lift_chart(chart)
        except ChartError:
            return
        raise AssertionError("a lifted cone with lineality or t < 0 was not rejected")
    c, *table = subdivision._lifted_cone(chart, support.span_eqs)
    assert cone_fields(c) == cone_fields(big)
    masks, negative = pair_with_D(chart, big.rays)
    assert table == [masks, negative] and not negative
    by_id = sorted(chart.items, key=lambda it: it.id)
    zero_on = tuple(sum(1 << k for k, it in enumerate(by_id)
                        if masks[chart.effective_exponent(it) + (1,)] >> i & 1)
                    for i in range(len(big.rays)))
    for verify in (False, True):
        lift = lift_chart(chart, verify)
        assert lift.big_cone == big and lift.zero_on == zero_on


def assert_claim_equals_the_lift(spec: GrassmannSpec):
    """The item-level lift of `verify`, on the orbit lift's C with E's zeros
    padded back, is the lift that the DD of `lift_chart` builds, certified
    or not: the same C, field by field, which is `dual_cone(build_D(chart))`
    and has the rays `grassmann.lifted_cone_rays` claims, and the same
    `zero_on`."""
    chart = zero_chart(spec)
    big = dual_cone(build_D(chart))
    rays = lifted_cone_rays(spec)
    assert len(rays) == 2 * spec.n + 4 and big.rays == rays and not big.lineality
    for verify in (False, True):
        lift, claimed = lift_chart(chart, verify), grassmann.verify(spec, verify).lift
        assert cone_fields(claimed.big_cone) == cone_fields(lift.big_cone) == cone_fields(big)
        assert (claimed.chart, claimed.zero_on) == (chart, lift.zero_on)


def assert_own_claim_equals_the_lift(chart: MockPolytopeChart):
    """The C that the DD of `lift_chart` builds, claimed back by its own rays
    with the trivial group (`lift_symmetric_chart` with no slots), lifts the
    chart as the DD does, certified or not: the same C, field by field, and
    the same `zero_on`.  A claim with one ray dropped is rejected by the
    certificate."""
    for verify in (False, True):
        lift = lift_chart(chart, verify)
        claimed = lift_symmetric_chart(chart, lift.big_cone.rays, (), verify)
        assert cone_fields(claimed.big_cone) == cone_fields(lift.big_cone)
        assert claimed.zero_on == lift.zero_on
    rays = lift.big_cone.rays
    for k in range(len(rays)):
        with pytest.raises(SubdivisionInconsistency):
            lift_symmetric_chart(chart, rays[:k] + rays[k + 1:], (), True)


# -- the canonical form by two HNFs per lattice: the oracle of `_canonical_vrep` --

def integerize(v) -> tuple[int, ...]:
    """Clear denominators and primitivize a nonzero rational vector."""
    fracs = [Fraction(x) for x in v]
    den = math.lcm(*(f.denominator for f in fracs))
    return primitive(tuple(int(f * den) for f in fracs))


def saturated_subspace_basis(vectors, dim: int) -> tuple[tuple[int, ...], ...]:
    """Canonical (HNF) basis of span(vectors) ∩ Z^dim: the kernel of the kernel."""
    vectors = [v for v in vectors if any(v)]
    if not vectors:
        return ()
    return kernel_basis(kernel_basis(vectors, dim), dim)


def vrep_from_constraints(dim: int, ineqs, eqs) -> tuple[list, list]:
    """Raw rays and lineality of {x : <a,x> >= 0, <e,x> = 0}, by one DD.

    The inequalities must be nonzero and primitive.  A repeated one is
    dropped and a negated one becomes an equality; the equalities are
    handled by restricting to their integer kernel, and the DD's rays and
    lineality are lifted back through it.
    """
    seen: set = set()
    uniq = []
    extra_eqs = []
    for a in ineqs:
        if a in seen:
            continue
        if tuple(-x for x in a) in seen:
            extra_eqs.append(a)
            continue
        seen.add(a)
        uniq.append(a)
    eqs = [e for e in eqs if any(e)] + extra_eqs
    if not eqs:
        return cones._dd(dim, uniq)
    sub = kernel_basis(eqs, dim)
    if not sub:
        return [], []
    rays_c, lin_c = cones._dd(len(sub), [tuple(dot(b, a) for b in sub) for a in uniq])
    columns = list(zip(*sub))
    return ([tuple(dot(c, column) for column in columns) for c in rays_c],
            [tuple(dot(c, column) for column in columns) for c in lin_c])


def make_cone(rank: int, rays, lineality) -> Cone:
    """The canonical cone of raw rays over a raw lineality spanning set: the
    lineality as `saturated_subspace_basis`, the rays reduced modulo it."""
    lin = saturated_subspace_basis(lineality, rank)
    ortho = cones._orthogonal_basis(lin)
    reps = {cones._orthogonal_representative(r, ortho) for r in rays} - {None}
    return Cone(rank, tuple(sorted(reps)), lin, None, None, _token=cones._CONE_TOKEN)


# -- a fan and its result text by `Cone`s: the oracles of the cell path ------------

def oracle_cells(cones: Iterable[Cone]) -> tuple[list, list[tuple[int, tuple[int, ...]]]]:
    """The sorted distinct rays of a cone family and, per distinct cone in
    the (dim, rays) order of the cones, its (dim, positions) cell: its rays'
    positions in that table, sorted."""
    cones = sorted(set(cones), key=lambda c: (c.dim(), c.rays))
    rays = sorted({r for c in cones for r in c.rays})
    at = dict(zip(rays, range(len(rays))))
    return rays, [(c.dim(), tuple(map(at.__getitem__, c.rays))) for c in cones]


def position_cells(fan: Fan) -> list[tuple[int, tuple[int, ...]]]:
    """The fan's (dim, mask) cells as (dim, positions): position p is in a
    cell iff its mask has bit N - 1 - p, N the fan's ray count."""
    n = len(fan.rays)
    return [(dim, tuple(p for p in range(n) if mask >> (n - 1 - p) & 1))
            for dim, mask in fan.cells]


def assert_mask_cells_are_position_cells(fan: Fan):
    """The fan's (dim, -mask) order is the (dim, sorted positions) order of
    its cells, and those are the `oracle_cells` of its cones."""
    at = position_cells(fan)
    assert list(fan.cells) == sorted(fan.cells, key=lambda cell: (cell[0], -cell[1]))
    assert at == sorted(at) and len(set(at)) == len(at)
    assert oracle_cells(fan.cones) == (list(fan.rays), at)
    assert [tuple(fan.rays[p] for p in positions) for _, positions in at] == [
        c.rays for c in fan.cones]


def first_use_fan_body(fan: Fan) -> list[str]:
    """The lines of `formats._fan_body` with the rays numbered in first-use
    order over the cells, as the writer numbered them before it wrote each
    ray's position."""
    number: dict[int, int] = {}
    lines = []
    for _, positions in position_cells(fan):
        for p in positions:
            number.setdefault(p, len(number))
        lines.append(" ".join(["cone", *(str(number[p]) for p in positions)]))
    return ([f"rank {fan.rank}", f"has_t {int(fan.has_t_coordinate)}", f"rays {len(number)}"]
            + [" ".join(map(str, fan.rays[p])) for p in number] + [f"cones {len(lines)}"]
            + lines)


def oracle_fan(rank: int, cones: Iterable[Cone], has_t: bool) -> Fan:
    """The fan of a cone family already known to satisfy the fan conditions
    (images under invertible maps, verified subdivisions), in any order and
    with duplicates; the fan's `cones` are those given, its cells
    `oracle_cells` with each position list as its mask, in the same order."""
    cones = tuple(sorted(set(cones), key=lambda c: (c.dim(), c.rays)))
    rays, cells = oracle_cells(cones)
    fan = Fan._of_cells(rank, rays, [(dim, sum(1 << len(rays) - 1 - p for p in at))
                                     for dim, at in cells], has_t)
    fan.__dict__["cones"] = cones
    return fan


def oracle_write_result(fan: Fan, active_sets: Mapping[Cone, Iterable[str]]) -> str:
    """The result text of `fan` with each cone's active set looked up by the
    cone and sorted, a cone missing from `active_sets` written with none."""
    out = [f"schema {formats.RESULT_SCHEMA}"] + formats._fan_body(fan)
    out.append(f"active_sets {len(fan)}")
    rows = (sorted(active_sets.get(c, ())) for c in fan.cones)
    out += [" ".join(["cone", str(k), "items", *ids]) for k, ids in enumerate(rows)]
    return "\n".join(out) + "\n"


# -- predicates only the tests use: refinement, compact arrangement, strata ------

def special_cones(f: Fan) -> list[Cone]:
    """The cones of a t-flagged fan not inside {t = 0}."""
    f._require_t("special_cones")
    return [c for c in f.cones if is_special_cone(c)]


def is_specifically_reduced_oracle(f: Fan) -> bool:
    """`fans.is_specifically_reduced` by cones: every 1-dimensional special
    cone has its primitive generator at t = 1."""
    f._require_t("is_specifically_reduced")
    return all(c.rays[0][-1] == 1
               for c in f.cones if c.dim() == 1 and is_special_cone(c))


def specifically_reduced_scale_oracle(f: Fan) -> int:
    """`fans.specifically_reduced_scale` by cones: the lcm of the
    t-coordinates of the 1-dimensional special cones."""
    f._require_t("specifically_reduced_scale")
    return math.lcm(*[c.rays[0][-1] for c in f.cones if c.dim() == 1 and is_special_cone(c)])


def is_refinement(fine: Fan, coarse: Fan) -> bool:
    """True iff `fine` subdivides `coarse` with equal support.

    Containment of every fine cone in a coarse cone is checked directly;
    coverage of each coarse cone is certified wall by wall: every facet of a
    maximal-dimensional fine cone inside sigma either lies on the boundary
    of sigma or is shared with exactly one other such cone.
    """
    if fine.rank != coarse.rank:
        raise FanError("refinement test requires equal rank")
    coarse_list = list(coarse.cones)
    for tau in fine.cones:
        if not any(is_subcone(tau, sigma) for sigma in coarse_list):
            return False
    for sigma in coarse.cones:
        if not _covers(fine, sigma):
            return False
    return True


def _covers(fine: Fan, sigma: Cone) -> bool:
    d = sigma.dim()
    if d == 0:
        return zero_cone(sigma.rank) in fine
    cells = [tau for tau in fine.cones
             if tau.dim() == d and is_subcone(tau, sigma)]
    if not cells:
        return False
    wall_counts: dict[tuple, int] = {}
    for tau in cells:
        for fm in tau.facet_masks():
            wall = tuple(r for i, r in enumerate(tau.rays) if fm >> i & 1)
            wall_counts[wall] = wall_counts.get(wall, 0) + 1
    for wall, count in wall_counts.items():
        on_boundary = any(all(dot(g, f) == 0 for g in wall) for f in sigma.facets)
        if on_boundary:
            continue
        if count != 2:
            return False
    return True


def refines_cone_faces(fine: Fan, support: Cone) -> bool:
    """True iff `fine` subdivides the face collection of one support cone.

    The support may contain a linear subspace (fan membership is not
    required of it); coverage of every face is certified by the same
    wall-pairing scheme as `is_refinement`.
    """
    if fine.rank != support.rank:
        raise FanError("refinement test requires equal rank")
    for tau in fine.cones:
        if not is_subcone(tau, support):
            return False
    return all(_covers(fine, face.cone) for face in support.faces())


def is_compactly_arranged(f: Fan) -> bool:
    """Special rays that share a cone always share a bounded cone.

    For every cone of the fan, its rays with t > 0 must lie in one common
    bounded cone.  This is the inferred operational form of the property:
    what the downstream bookkeeping consumes is that any collection of
    height-positive rays with a common coface admits a common bounded
    coface.  A ray of c lies in b iff it is one of b's rays: in a fan it
    spans a face of c, whose meet with b is a face of b.
    """
    f._require_t("is_compactly_arranged")
    bounded = [set(b.rays) for b in f.bounded_cones()]
    for c in f.cones:
        special_rays = {r for r in c.rays if r[-1] > 0}
        if special_rays and not any(special_rays <= b for b in bounded):
            return False
    return True


def active_set(result: SubdivisionResult, cone: Cone) -> frozenset[str]:
    """Items attaining the minimum identically on a cone of the result's fan."""
    if cone not in result.projected_fan:
        raise ChartError("cone does not belong to the projected fan")
    return result.active_sets[cone]


def effective_dimension(result: SubdivisionResult, cone: Cone) -> int:
    """Number of distinct effective exponents among the cone's active items."""
    active = active_set(result, cone)
    return len({result.chart.effective_exponent(it)
                for it in result.chart.items if it.id in active})


# -- the Gr(2, n) monomials as dense multidegrees, the oracles of the sparse chart --

Alpha = tuple[int, ...]


def enumerate_S(spec: GrassmannSpec) -> list[Alpha]:
    """All degree-d multidegrees over J, in lexicographic order."""
    m = len(index_data(spec.n).J)
    out: list[Alpha] = []
    for slots in itertools.combinations_with_replacement(range(m), spec.d):
        alpha = [0] * m
        for k in slots:
            alpha[k] += 1
        out.append(tuple(alpha))
    return sorted(out)


def weight_split(n: int, alpha: Alpha) -> tuple[int, int, int]:
    """(c0, c1, c2): the weight of alpha on J0, J1, J2, which are the
    contiguous slices J[:1], J[1:k] and J[k:] of J, with k = 1 + |J1|."""
    k = 1 + len(index_data(n).J1)
    return alpha[0], sum(alpha[1:k]), sum(alpha[k:])


def kappa(spec: GrassmannSpec, alpha: Alpha) -> int:
    """t-weight of a monomial: 0 at full J1 weight, else 2(d - c1) - 1."""
    if sum(alpha) != spec.d:
        raise GrassmannError("alpha must have total degree d")
    c1 = weight_split(spec.n, alpha)[1]
    return 0 if c1 == spec.d else 2 * (spec.d - c1) - 1


def alpha_id(n: int, alpha: Alpha) -> str:
    """Readable canonical id of a multidegree, e.g. '(0,1)^2*(2,3)'."""
    parts = []
    for a, (i, j) in zip(alpha, index_data(n).J):
        if a == 1:
            parts.append(f"({i},{j})")
        elif a > 1:
            parts.append(f"({i},{j})^{a}")
    return "*".join(parts) if parts else "1"


def stratify_S(spec: GrassmannSpec, d0: int, d1: int, d2: int) -> list[Alpha]:
    """The stratum of S_{J,d} with weight split exactly (d0, d1, d2)."""
    if d0 + d1 + d2 != spec.d:
        raise GrassmannError("stratum weights must sum to d")
    if min(d0, d1, d2) < 0:
        raise GrassmannError("stratum weights must be nonnegative")
    return [a for a in enumerate_S(spec) if weight_split(spec.n, a) == (d0, d1, d2)]
