"""Min-plus subdivision of a chart support from lifted monomial exponents.

A chart supplies dual generators of its support cone together with a family
of exponent vectors, one per item, each carrying an integer t-weight kappa
and sharing a scale l.  The engine lifts every item to height one, forms the
cone D generated by the lifted items and the support duals, dualizes to C,
and reads the subdivision off the faces of C that avoid the lift direction
(0, 1): projecting those faces along the lift coordinate yields the fan on
which the pointwise minimum of the item functionals is cell-wise linear.
The items attaining the minimum on a cell form its active set.  They are
read off the rays of C: C lies on the nonnegative side of every lifted item
(w, 1), and on a face that avoids (0, 1) the items attaining the minimum
are exactly those whose lifted vector is zero on every ray of the face.

Coordinates: a chart of ambient dual rank r has exponent vectors of rank r
whose last slot is the delta (t-dual) coordinate; the lift appends one more
coordinate.  The kappa weight contributes scale * kappa to the delta slot
when D is built, so an item's stored exponent never includes it.
"""

from __future__ import annotations

import functools
import operator
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

from .cones import Cone, Face, cone_from_generators, dual_cone, walk_faces
from .exact import IntVec, Scalar, dot, is_zero_vec, primitive, rank as matrix_rank
from .fans import Fan, FanError, fan_from_cones


class ChartError(ValueError):
    """Invalid chart data (ranks, ids, degenerate support)."""


class SubdivisionInconsistency(RuntimeError):
    """An internal invariant of the face/projection pipeline failed."""


class GlueError(ValueError):
    """Charts whose subdivisions cannot be merged into one fan."""


@dataclass(frozen=True)
class LiftedExponent:
    """One item: an opaque id, its exponent vector, and its t-weight."""
    id: str
    exponent: IntVec
    kappa: int = 0

    def __post_init__(self):
        object.__setattr__(self, "exponent", tuple(self.exponent))


def _check_token(what: str, token: str):
    """Ids and labels are single tokens of the chart and result files."""
    if not isinstance(token, str) or not token or any(ch.isspace() for ch in token):
        raise ChartError(f"{what} {token!r} must be a nonempty string without whitespace")


@dataclass(frozen=True)
class MockPolytopeChart:
    """Input data of one chart: support dual generators plus the item family."""
    label: str
    ambient_dual_rank: int
    sigma_dual_generators: tuple[IntVec, ...]
    items: tuple[LiftedExponent, ...]
    scale: int = 1

    def __post_init__(self):
        object.__setattr__(self, "sigma_dual_generators",
                           tuple(tuple(g) for g in self.sigma_dual_generators))
        object.__setattr__(self, "items", tuple(self.items))
        r = self.ambient_dual_rank
        _check_token("chart label", self.label)
        if r < 1:
            raise ChartError("chart ambient rank must be positive")
        if self.scale < 1:
            raise ChartError("chart scale must be a positive integer")
        if not self.items:
            raise ChartError("chart needs at least one item")
        for g in self.sigma_dual_generators:
            if len(g) != r:
                raise ChartError("sigma dual generator rank mismatch")
        ids = set()
        for it in self.items:
            _check_token("item id", it.id)
            if len(it.exponent) != r:
                raise ChartError(f"item {it.id!r} exponent rank mismatch")
            if it.id in ids:
                raise ChartError(f"duplicate item id {it.id!r}")
            ids.add(it.id)

    def effective_exponent(self, item: LiftedExponent) -> IntVec:
        """Exponent with the t-weight folded in: scale * kappa on the delta slot."""
        w = list(item.exponent)
        w[-1] += self.scale * item.kappa
        return tuple(w)

    def lifted_generators(self) -> list[IntVec]:
        """Height-one lifts of the effective exponents, deduplicated."""
        seen = set()
        out = []
        for it in self.items:
            g = self.effective_exponent(it) + (1,)
            if g not in seen:
                seen.add(g)
                out.append(g)
        return out

    def in_support(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.ambient_dual_rank:
            raise ChartError("point rank does not match chart rank")
        return all(dot(v, g) >= 0 for g in self.sigma_dual_generators)


@functools.lru_cache(maxsize=128)
def support_cone(chart: MockPolytopeChart) -> Cone:
    """The chart support: the dual of the cone its sigma-duals generate."""
    return dual_cone(cone_from_generators(
        chart.ambient_dual_rank, chart.sigma_dual_generators))


def val_min(chart: MockPolytopeChart, v: Sequence[Scalar]) -> Fraction:
    """Pointwise minimum of the item functionals at a support point."""
    if not chart.in_support(v):
        raise ChartError("outside chart support")
    return Fraction(min(dot(v, chart.effective_exponent(it)) for it in chart.items))


def build_D(chart: MockPolytopeChart) -> Cone:
    """Lifted cone D: support duals at height 0 plus items at height 1."""
    r = chart.ambient_dual_rank
    gens = [tuple(g) + (0,) for g in chart.sigma_dual_generators if not is_zero_vec(g)]
    gens += chart.lifted_generators()
    return cone_from_generators(r + 1, gens)


@dataclass(frozen=True)
class SubdivisionResult:
    chart: MockPolytopeChart
    big_cone: Cone
    faces_avoiding: tuple[Face, ...]
    projected_fan: Fan
    active_sets: Mapping[Cone, frozenset[str]]

    def active_set(self, cone: Cone) -> frozenset[str]:
        """Items attaining the minimum identically on the given fan cone."""
        if cone not in self.projected_fan:
            raise ChartError("cone does not belong to the projected fan")
        return self.active_sets[cone]

    def effective_dimension(self, cone: Cone) -> int:
        """Number of distinct effective exponents among the cone's active items."""
        active = self.active_set(cone)
        return len({self.chart.effective_exponent(it)
                    for it in self.chart.items if it.id in active})


def subdivide_chart(chart: MockPolytopeChart, verify: bool = True) -> SubdivisionResult:
    """Run the full pipeline on one chart.

    The fan is the projection of the faces of the lifted cone C that avoid
    the apex direction (0, 1).  With `verify` set, `_certify_lower_faces`
    checks, from the rays, facets and face masks of C and the chart alone,
    that this family is a fan, that it covers the chart support exactly
    once, and that it is the subdivision of the chart; no face is derived
    again.  A failed check is a pipeline bug and raises
    SubdivisionInconsistency.  Input that has no lifted cone behind it, a
    fan or result read from a file or the union of glued charts, is
    checked by `fan_from_cones` instead.  A support that reaches t < 0 is
    bad input and raises ChartError before the walk.

    Every walked face and its projection take their dimension from one
    source, the grade `cones.walk_faces` gives the face's mask: a lower face
    lies on a facet hyperplane that (0, 1) is not in, so pi keeps its
    dimension.  The certificate, whose soundness argument needs exact
    ranks, computes them and fails where a grade differs.

    The per-face work is done from data computed once per ray of C.  Each
    walked ray is projected and primitivised once; a face's projection is
    the images of its rays in one fixed sorted order, canonical as it
    stands.  Active sets come from one pairing of each distinct lifted item
    (w, 1) with the rays of C, kept per ray as the bitset of the items zero
    on it.  The active set of a face is the AND of these bitsets over its
    rays: every item zero on all of them.  This is exact: each (w, 1) is
    >= 0 on C, so it is zero at a relative interior point (v, s) of the
    face iff it is zero on all the face's rays, and then
    <w, v> = -s <= <w', v> for every item w'.  A face on which no item is
    zero is not a lower face and raises SubdivisionInconsistency.
    """
    r = chart.ambient_dual_rank
    support = support_cone(chart)
    if any(x[-1] < 0 for x in support.rays) or any(v[-1] != 0 for v in support.lineality):
        raise ChartError("chart support reaches t < 0: its sigma duals must imply t >= 0")
    big = dual_cone(build_D(chart))
    apex = (0,) * r + (1,)
    if not big.contains(apex):
        raise SubdivisionInconsistency("subdivision inconsistency: (0,1) not in C")
    if not big.is_strongly_convex():
        raise ChartError(
            "chart support and items do not span the dual space: "
            "the subdivision would not be strongly convex")
    # a face avoids (0, 1) exactly when some facet tight on it pairs
    # positively with (0, 1); these faces are downward closed, so the walk
    # from the apex-positive facets reaches them all
    facet_masks = big.facet_masks()
    faces = walk_faces(big, [m for m, f in zip(facet_masks, big.facets) if f[-1] > 0] or [0])
    # pi is injective on the span of a lower face, which lies on a facet
    # hyperplane that (0, 1) is not in, so the primitive images of a face's
    # rays are distinct and nonzero: in one sorted order of the images they
    # are the canonical rays of its projection.  Each ray of C is projected
    # once.  pi is also injective on the union of the lower faces (see
    # `_certify_lower_faces`), so the images of all walked rays are checked
    # for that once, not face by face.
    walked = functools.reduce(operator.or_, (face.mask for face in faces), 0)
    images = {i: big.rays[i][:-1] for i in _bits(walked)}
    if any(is_zero_vec(v) for v in images.values()):
        raise SubdivisionInconsistency(
            "subdivision inconsistency: a walked ray of C projects to zero")
    images = {i: primitive(v) for i, v in images.items()}
    if len(set(images.values())) != len(images):
        raise SubdivisionInconsistency(
            "subdivision inconsistency: two walked rays of C have one projection")
    ordered = [(1 << i, images[i]) for i in sorted(images, key=images.__getitem__)]
    proj_cones = [Cone._trusted(r, tuple(v for bit, v in ordered if face.mask & bit), (),
                                face.cone.dim())
                  for face in faces]
    if len(set(proj_cones)) != len(proj_cones):
        raise SubdivisionInconsistency(
            "subdivision inconsistency: projection identified two faces")
    item_masks, negative = _lifted_item_masks(chart, big.rays)
    if verify:
        _certify_lower_faces(chart, big, facet_masks, faces, proj_cones,
                             item_masks, negative)
    fan = Fan._trusted(r, proj_cones, True)
    zero_on = [0] * len(big.rays)
    for k, it in enumerate(chart.items):
        for i in _bits(item_masks[chart.effective_exponent(it) + (1,)]):
            zero_on[i] |= 1 << k
    everything = (1 << len(chart.items)) - 1
    active = {}
    for face, cone in zip(faces, proj_cones):
        on_face = functools.reduce(operator.and_, (zero_on[i] for i in _bits(face.mask)),
                                   everything)
        if not on_face:
            raise SubdivisionInconsistency(
                f"subdivision inconsistency: no item is active on {list(cone.rays)}")
        active[cone] = frozenset(chart.items[k].id for k in _bits(on_face))
    return SubdivisionResult(chart, big, tuple(faces), fan, active)


def _bits(mask: int):
    """The indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _lifted_item_masks(chart: MockPolytopeChart, rays: Sequence[IntVec]
                       ) -> tuple[dict[IntVec, int], list[IntVec]]:
    """Pair each distinct lifted item (w, 1) with the rays of C once.

    Returns the mask of the rays each lifted item is zero on, and the lifted
    items that are negative on some ray (none, when C is the dual of D).
    """
    masks, negative = {}, []
    for w in chart.lifted_generators():
        pairing = [dot(w, x) for x in rays]
        if any(v < 0 for v in pairing):
            negative.append(w)
        masks[w] = sum(1 << i for i, v in enumerate(pairing) if v == 0)
    return masks, negative


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
    if any(not any(facets[j][-1] > 0 for j in face.tight_facets) for face in faces):
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
        around = [j for j in face.tight_facets if facets[j][-1] > 0]
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
    p = cone_of[facet_masks[a]].relative_interior_point()
    for b in cells[1:]:
        fb = facets[b]
        lift = tuple(fb[-1] * u for u in p) + (-dot(fb[:-1], p),)
        if big.contains(lift):
            fail(f"an interior point of cell {a} also lies in cell {b}")


@dataclass(frozen=True)
class GlueResult:
    fan: Fan
    active_sets: Mapping[Cone, frozenset[str]]


def glue_charts(results: Sequence[SubdivisionResult]) -> GlueResult:
    """Merge chart subdivisions into one fan with consistent active sets."""
    if not results:
        raise GlueError("charts do not glue: nothing to glue")
    rank = results[0].projected_fan.rank
    merged: dict[Cone, frozenset[str]] = {}
    for res in results:
        if res.projected_fan.rank != rank:
            raise GlueError("charts do not glue: rank mismatch")
        for cone in res.projected_fan:
            have = merged.get(cone)
            if have is None:
                merged[cone] = res.active_sets[cone]
            elif have != res.active_sets[cone]:
                raise GlueError("charts do not glue: active sets disagree on a shared cone")
    try:
        fan = fan_from_cones(rank, list(merged), has_t=True)
    except FanError as exc:
        raise GlueError(f"charts do not glue: {exc}") from exc
    if len(fan) != len(merged):
        raise GlueError("charts do not glue: union is not face-closed")
    return GlueResult(fan, merged)


def rescaled_chart(chart: MockPolytopeChart, n: int) -> MockPolytopeChart:
    """The chart with every t-weight multiplied by n (same scale)."""
    if n < 1:
        raise ChartError("rescale factor must be a positive integer")
    return replace(chart, items=tuple(replace(it, kappa=n * it.kappa)
                                      for it in chart.items))
