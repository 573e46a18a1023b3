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

The pipeline has two steps.  `lift_chart` builds C once, with its checks,
and reads off each ray of C the items zero on it; `LiftedChart.subdivide`
projects a walk of C's lower faces, all of them or only those whose rays
all have t > 0, which project to the bounded cells.  `subdivide_chart` runs
both with the full walk.  `_lifted_cone` builds C as the dual of D: its
rays come from the one generator-side double description (DD) of `cones`,
and D's generators are paired with them in the coordinates of C's span.
C is built by that DD or, with rays known in closed form, as for the
Gr(2, n) zero chart, claimed by `lift_symmetric_chart` for a chart given
up to a symmetry, one item per orbit, C's facets the orbits of
generators, with no DD.  Verification certifies C, not its faces
(`_certify_lifted_cone`): C is the dual of D, checked against its
pairing and by a second DD from its facets; every walk is trusted.

Coordinates: a chart of ambient dual rank r has exponent vectors of rank r
whose last slot is the delta (t-dual) coordinate; the lift appends one more
coordinate.  The kappa weight contributes scale * kappa to the delta slot
when D is built, so an item's stored exponent never includes it.
"""

from __future__ import annotations

import functools
import operator
from itertools import chain, compress
from typing import TYPE_CHECKING, Collection, Iterable, Mapping, Sequence

from ._record import record, replace
from .cones import (Cone, Face, _bit_indices, _by_byte, _canonical_vrep, _orthogonal_basis,
                    _orthogonal_representative, _pair_rows, _read_off, cone_from_generators,
                    dual_cone, faces_of_masks, walk_masks)
from .exact import IntVec, dot, is_zero_vec, primitive, rank as matrix_rank
from .fans import Fan, FanError, _at, fan_from_cones

if TYPE_CHECKING:
    from .exact import Scalar

_BITS = bytes.maketrans(b"01", b"\0\1")   # binary digits to the bytes `compress` reads


class ChartError(ValueError):
    """Invalid chart data (ranks, ids, degenerate support)."""


class SubdivisionInconsistency(RuntimeError):
    """An internal invariant of the face/projection pipeline failed."""


class GlueError(ValueError):
    """Charts whose subdivisions cannot be merged into one fan."""


@record
class LiftedExponent:
    """One item: an opaque id, its exponent vector, and its t-weight."""
    id: str
    exponent: IntVec
    kappa: int = 0

    def __post_init__(self):
        object.__setattr__(self, "exponent", tuple(self.exponent))


def _check_token(what: str, token: str):
    """Ids and labels are single tokens of the chart and result files."""
    if not isinstance(token, str) or token.split() != [token]:
        raise ChartError(f"{what} {token!r} must be a nonempty string without whitespace")


@record
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
        return item.exponent[:-1] + (item.exponent[-1] + self.scale * item.kappa,)

    def lifted_generators(self) -> list[IntVec]:
        """Height-one lifts of the effective exponents, deduplicated."""
        return list(dict.fromkeys(self.effective_exponent(it) + (1,) for it in self.items))

    def in_support(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.ambient_dual_rank:
            raise ChartError("point rank does not match chart rank")
        return all(dot(v, g) >= 0 for g in self.sigma_dual_generators)


def support_cone(chart: MockPolytopeChart) -> Cone:
    """The chart support: the dual of the cone its sigma-duals generate."""
    return dual_cone(cone_from_generators(
        chart.ambient_dual_rank, chart.sigma_dual_generators))


def val_min(chart: MockPolytopeChart, v: Sequence[Scalar]) -> Scalar:
    """Pointwise minimum of the item functionals at a support point."""
    if not chart.in_support(v):
        raise ChartError("outside chart support")
    return min(dot(v, chart.effective_exponent(it)) for it in chart.items)


def _generators_of_D(chart: MockPolytopeChart) -> list[IntVec]:
    """The nonzero support duals at height 0, then the lifted items."""
    return ([g + (0,) for g in chart.sigma_dual_generators if not is_zero_vec(g)]
            + chart.lifted_generators())


def build_D(chart: MockPolytopeChart) -> Cone:
    """Lifted cone D: support duals at height 0 plus items at height 1."""
    return cone_from_generators(chart.ambient_dual_rank + 1, _generators_of_D(chart))


@record(eq=False)
class ActiveSets(Mapping[Cone, frozenset[str]]):
    """Active sets as bitsets, by position in `fan`: per cell, item ids in
    sorted order and the bitset of the active ones.  A set is built when
    read; `sorted_ids(k)` gives those of the k-th cone in written order."""
    fan: Fan
    rows: Sequence[tuple[Sequence[str], int]]

    def __getitem__(self, cone: Cone) -> frozenset[str]:
        return frozenset(self.sorted_ids(self.fan._positions[cone]))

    def __iter__(self):
        return iter(self.fan)

    def __len__(self) -> int:
        return len(self.rows)

    def sorted_ids(self, k: int) -> Iterable[str]:
        ids, mask = self.rows[k]
        return compress(ids, bin(mask)[:1:-1].encode().translate(_BITS))

    @staticmethod
    def row(ids: Collection[str]) -> tuple[list[str], int]:
        """The row of a set of distinct ids, all of them active."""
        return sorted(ids), (1 << len(ids)) - 1


@record
class SubdivisionResult:
    """The projected fan (one cell per walked face), its `ActiveSets` by cell,
    and the walked lower faces of C: their ray masks level by level, level k
    of grade k (`cones.walk_masks`), as `Face`s in `faces_avoiding` when read."""
    chart: MockPolytopeChart
    big_cone: Cone
    face_levels: tuple[tuple[int, ...], ...]
    projected_fan: Fan
    active_sets: ActiveSets

    @functools.cached_property
    def faces_avoiding(self) -> tuple[Face, ...]:
        return tuple(faces_of_masks(self.big_cone, self.face_levels))


@record
class LiftedChart:
    """A chart's lifted cone C, built and checked once by `lift_chart`, and
    per ray of C the bitset of the items, in sorted-id order, whose lifted
    vector is zero on it.  `subdivide` projects a walk of C's lower faces,
    whole or pruned to the bounded cells; each walk reads this one C, so no
    DD runs again."""
    chart: MockPolytopeChart
    big_cone: Cone
    zero_on: tuple[int, ...]

    def subdivide(self, bounded: bool = False) -> SubdivisionResult:
        """Project the lower faces of C, the faces that avoid the apex
        direction (0, 1), to the chart's subdivision.  With `bounded`, only
        its bounded cells: the walk is also pruned to the rays of C with
        t > 0 (`x[-2] > 0`), whose faces project to the bounded cones, and
        the fan is the bounded subfan, those cones and the zero cone.

        `cones.walk_masks` walks the faces on the facets that pair
        positively with (0, 1): down from those facets or, with `bounded`,
        up from the minimal face within the rays with t > 0, whose faces
        cannot hold (0, 1).  A face and its projection take their dimension
        from the walk level: a lower face lies on a facet hyperplane that
        (0, 1) is not in, so pi keeps its dimension.

        Each walked ray is projected and primitivised once, and the images
        sorted once: the fan's ray table.  A face's cell is its dimension and
        the mask of its rays' images (`Fan`), read per byte of its mask off
        one table; each level sorted by -mask is in the fan's order.  A face
        F's active set is the AND of `zero_on` over its rays, among the items,
        in sorted-id order, of its ray a with the fewest (the lowest on a
        tie), which a second table finds per byte, kept at its cell's position
        (`ActiveSets`).  It is on(F - b) & on(b), b the lowest ray of F but a,
        if F - b was walked (a numbers F - b too); else, on a face of at most
        one ray or not simplicial, the AND over F's rays.  This is
        exact: each lifted item (w, 1) is >= 0 on C, so it is zero at a
        relative interior point (v, s) of the face iff it is zero on all
        its rays, and then <w, v> = -s <= <w', v> for every item w'.  A
        face on which no item is zero is not a lower face and raises
        SubdivisionInconsistency, as do the projection checks below.
        """
        big = self.big_cone
        r = big.rank - 1
        within = sum(1 << i for i, x in enumerate(big.rays) if x[-2] > 0) if bounded else None
        # a face avoids (0, 1) exactly when some facet tight on it pairs
        # positively with (0, 1)
        levels = walk_masks(big, sum(1 << j for j, f in enumerate(big.facets) if f[-1] > 0),
                            within)
        # pi is injective on the span of a lower face, which lies on a facet
        # hyperplane that (0, 1) is not in, so the primitive images of a face's
        # rays are distinct and nonzero: in one sorted order of the images they
        # are the canonical rays of its projection.  Each ray of C is projected
        # once.  pi is also injective on the union of the lower faces: were x
        # and x + l(0, 1), l > 0, on lower facets A and B, x would not be in C,
        # as <f_B, x> = -l <f_B, (0, 1)> < 0.  So the images of all walked rays
        # are checked for that once, not face by face; the walk's masks are
        # distinct, so then are the projected cones.
        walked = functools.reduce(operator.or_, chain.from_iterable(levels), 0)
        images = {i: big.rays[i][:-1] for i in _bit_indices(walked)}
        if any(is_zero_vec(v) for v in images.values()):
            raise SubdivisionInconsistency(
                "subdivision inconsistency: a walked ray of C projects to zero")
        images = {i: primitive(v) for i, v in images.items()}
        if len(set(images.values())) != len(images):
            raise SubdivisionInconsistency(
                "subdivision inconsistency: two walked rays of C have one projection")
        order = sorted(images, key=images.__getitem__)
        projected = [images[i] for i in order]
        # `spaces[k]`, k = (count, a) as one int: walked ray a's ids, bit and, per walked
        # ray's bit, the bitset of a's items zero on it; `none`: the minimal face's, every item
        ids = sorted(it.id for it in self.chart.items)
        width = walked.bit_length() or 1   # one byte at least: the minimal face reads `none`
        key, bit, none = [None] * width, [None] * width, (len(ids) + 1) * width   # None: unwalked
        spaces = {none: (ids, 0, {1 << i: self.zero_on[i] for i in images})}
        zeros = {i: bin(self.zero_on[i])[:1:-1] for i in images}
        for p, a in enumerate(reversed(order)):
            on_a = zeros[a].encode().translate(_BITS)
            key[a], bit[a] = len(space := list(compress(ids, on_a))) * width + a, 1 << p
            spaces[key[a]] = space, 1 << a, {
                1 << j: int("".join(compress(d, on_a))[::-1] or "0", 2) for j, d in zeros.items()}
        fewest, cell_of = _by_byte(key, min, none), _by_byte(bit, operator.or_, 0)
        done, cells, active = {}, [], []   # `done`: each face's active bitset, by its mask
        for dim, level in enumerate(levels, len(big.lineality)):
            rows = {}
            for mask in level:
                at = mask.to_bytes(len(cell_of), "little")
                space, own, on = spaces[min(map(list.__getitem__, fewest, at))]
                other = (rest := mask & ~own) & -rest
                if (on_face := done.get(mask ^ other)) is None:   # F - b not walked, or no b
                    on_face = functools.reduce(operator.and_, [on[1 << i] for i in
                                               _bit_indices(mask)], (1 << len(space)) - 1)
                else:
                    on_face &= on[other]
                done[mask] = on_face
                rows[sum(map(list.__getitem__, cell_of, at))] = space, on_face
            by_rays = sorted(rows, reverse=True)   # the fan's order: see `Fan`
            cells += [(dim, cell) for cell in by_rays]
            active += map(rows.__getitem__, by_rays)
        bad = next((k for k, (_, on_face) in enumerate(active) if not on_face), None)
        if bad is not None:
            raise SubdivisionInconsistency("subdivision inconsistency: no item is active "
                                           f"on {list(_at(cells[bad][1], projected))}")
        fan = Fan._of_cells(r, projected, cells, True)
        return SubdivisionResult(self.chart, big, tuple(map(tuple, levels)), fan,
                                 ActiveSets(fan, active))


def lift_chart(chart: MockPolytopeChart, verify: bool = True) -> LiftedChart:
    """Build the lifted cone C, the dual of the lifted cone D, and check it.

    A support that reaches t < 0 is bad input and raises ChartError, as
    does a C with lineality.  `_lifted_cone` builds C by one DD and pairs
    D's generators with its rays once.  With `verify` set,
    `_certify_lifted_cone` checks that C is the dual of D, whose lower
    faces project to the subdivision, so every walk of it is trusted; a
    failed check is a pipeline bug and raises SubdivisionInconsistency.
    Input with no lifted cone behind it, read from a file or glued, is
    checked by `fan_from_cones` instead.  The pairing gives, per ray of C,
    the bitset of the items zero on it, which the active sets of
    `LiftedChart.subdivide` read.
    """
    support = _checked_support(chart)
    big, masks, negative = _lifted_cone(chart, support.span_eqs)
    return _lifted(chart, big, verify, support.dim(), masks, negative)


def lift_symmetric_chart(chart: MockPolytopeChart, rays: Sequence[IntVec],
                         slots: Sequence[int], verify: bool = True) -> LiftedChart:
    """`lift_chart` for C claimed by `rays` and a chart given up to the
    permutations of the coordinates `slots`, one item per orbit, with a
    full-dimensional support.  The rays and support duals must be invariant
    under both `_moves`, which generate the permutations.  C's facets, with
    no DD, are the orbits of the generators given whose tight rays have
    rank dim C - 1, masks moved along; each is a generator of D, so
    `_certify_lifted_cone` certifies C from them."""
    support = _checked_support(chart)
    rank = chart.ambient_dual_rank + 1
    rays = _claimed(rays, rank)
    index = {x: i for i, x in enumerate(rays)}
    moves = _moves(slots, rank)
    on_rays = [[index.get(tuple(map(x.__getitem__, p))) for x in rays] for p in moves]
    duals = {g + (0,) for g in chart.sigma_dual_generators}
    if any(None in q for q in on_rays) or any(
            {tuple(map(g.__getitem__, p)) for g in duals} != duals for p in moves):
        raise SubdivisionInconsistency("subdivision inconsistency: the claimed rays of C or the "
                                       f"support duals are not invariant under {list(slots)}")
    masks, negative = _pair_rows(rays, _generators_of_D(chart))
    facets: dict[IntVec, int] = {}
    for g, m in masks.items():
        tight = list(map(rays.__getitem__, _bit_indices(m)))
        if len(tight) >= rank - 1 and matrix_rank(tight) == rank - 1 and g not in facets:
            facets[g], orbit = m, [g]
            for f in orbit:   # grows as the moves reach new images
                for p, q in zip(moves, on_rays):
                    image = tuple(map(f.__getitem__, p))
                    if image not in facets:
                        facets[image] = sum(1 << q[i] for i in _bit_indices(facets[f]))
                        orbit.append(image)
    order = sorted(facets)
    big = Cone._trusted(rank, rays, (), rank, tuple(order), (),
                        tuple(map(facets.__getitem__, order)))
    return _lifted(chart, big, verify, support.dim(), {**masks, **facets}, negative)


def _moves(slots: Sequence[int], length: int) -> list[list[int]]:
    """One transposition and one cycle of the coordinates `slots`, each as
    the list p of the image `tuple(map(x.__getitem__, p))` of a vector x."""
    s = list(slots)
    return [[dict(zip(s, source)).get(i, i) for i in range(length)]
            for source in (s[1:2] + s[:1] + s[2:], s[1:] + s[:1])]


def _checked_support(chart: MockPolytopeChart) -> Cone:
    """The chart's support, which must not reach t < 0 (ChartError)."""
    support = support_cone(chart)
    if any(x[-1] < 0 for x in support.rays) or any(v[-1] != 0 for v in support.lineality):
        raise ChartError("chart support reaches t < 0: its sigma duals must imply t >= 0")
    return support


def _claimed(rays: Sequence[IntVec], rank: int) -> tuple[IntVec, ...]:
    """Claimed rays of C; rays that are not primitive, distinct, sorted and
    of C's rank are no claim of a canonical C (SubdivisionInconsistency)."""
    rays = tuple(rays)
    if (list(rays) != sorted(set(rays))
            or any(len(x) != rank or not any(x) or primitive(x) != x for x in rays)):
        raise SubdivisionInconsistency("subdivision inconsistency: the claimed rays of C "
                                       "are not primitive, distinct and sorted")
    return rays


def _lifted(chart: MockPolytopeChart, big: Cone, verify: bool, d: int,
            masks: Mapping[IntVec, int], negative: Sequence[IntVec]) -> LiftedChart:
    """The lift's checks and certificate, and per ray of C its items' bitset."""
    apex = (0,) * chart.ambient_dual_rank + (1,)
    if not big.contains(apex):
        raise SubdivisionInconsistency("subdivision inconsistency: (0,1) not in C")
    if verify:
        _certify_lifted_cone(big, d, masks, negative)
    zero_on = [0] * len(big.rays)
    for k, it in enumerate(sorted(chart.items, key=operator.attrgetter("id"))):
        for i in _bit_indices(masks[chart.effective_exponent(it) + (1,)]):
            zero_on[i] |= 1 << k
    return LiftedChart(chart, big, tuple(zero_on))


def _lifted_cone(chart: MockPolytopeChart, span_eqs: Sequence[IntVec]
                 ) -> tuple[Cone, dict[IntVec, int], list[IntVec]]:
    """C = D^vee, for D over lin D = span{(e, 0) : e in `span_eqs`}, and its
    table: the zero mask on C's rays of each generator of D, and those
    negative on one.  C's rays and the pairing come from the DD of
    `cones._canonical_vrep` on D's generators, in the coordinates of C's
    span; `cones._read_off` reads D and the table off the pairing, and C
    takes D's ray masks as its facet masks."""
    rank = chart.ambient_dual_rank + 1
    lins = [e + (0,) for e in span_eqs]
    rays, eqs, pairing = _canonical_vrep(rank, _generators_of_D(chart), lins)
    if eqs:
        raise ChartError("chart support and items do not span the dual space: "
                         "the subdivision would not be strongly convex")
    d, masks, negative, ray_masks = _read_off(rank, rays, eqs, pairing, lins)
    return (Cone._trusted(rank, rays, (), rank - len(d.lineality), d.rays, d.lineality,
                          ray_masks), masks, negative)


def subdivide_chart(chart: MockPolytopeChart, verify: bool = True) -> SubdivisionResult:
    """Run the full pipeline on one chart: the lifted cone C, checked by
    `lift_chart`, and the projection of all its lower faces, by
    `LiftedChart.subdivide`."""
    return lift_chart(chart, verify).subdivide()


def _certify_lifted_cone(big: Cone, d: int, masks: Mapping[IntVec, int],
                         negative: Sequence[IntVec]) -> None:
    """Certify that C = `big` is D^vee, for D spanned by the generators G
    of `_generators_of_D`, seen only through their pairing with the rays R
    of C, the table of `_lifted_cone` or of a claim.  With F, E the
    facets and span equalities of C and d = dim S:

    1. no g in G is `negative`: each is >= 0 on R, so cone(R) lies in D^vee;
    2. each f in F, none repeated, is the representative modulo span(E) of
       a g in G with f's facet mask: f = lambda g + e, lambda > 0, Ee = 0;
    3. rank(R) = d + 1 = dim D^vee, as D^vee = {(v, s) : v in S,
       s >= -val(v)}; with 1, span(R) = span(D^vee);
    4. a second DD gives {x : Fx >= 0, Ex = 0} the rays R, no lineality.

    Soundness: by 4 and 3 D^vee lies in ker E, where f = lambda g >= 0 by
    2, so D^vee lies in {x : Fx >= 0, Ex = 0} = cone(R); with 1, C = D^vee.
    The facet masks, taken from the table, are then right: R lies in ker E
    by 4, so f.x = lambda g.x on R.  The lower faces of an exact C, which
    the walk finds, project to the chart's regular subdivision (De
    Loera-Rambau-Santos, Triangulations, ch. 2 and 5).  Trusted: d; the
    pairing, made by `cones._read_off` from G in the coordinates y of the DD
    that made C, a basis B of span(C), with R = yB, by g.(yB) = (Bg).y, or
    made from G and the claimed R as they stand; and the second DD, which
    runs on other input than the one that made or claimed C and must
    reproduce its rays.  So a claimed C needs no DD of its own: this
    certificate is what makes the claim a result (McConnell-Mehlhorn-
    Naeher-Schweitzer, Certifying algorithms, Comput. Sci. Rev. 5, 2011).
    For a chart given up to symmetry (`lift_symmetric_chart`), G is the
    generators given and C's facets, and step 1 holds for every image of
    G as R is invariant.
    """
    def fail(what: str):
        raise SubdivisionInconsistency(f"subdivision inconsistency: {what}")

    rays, facets, eqs = big.rays, big.facets, big.span_eqs
    if negative:
        g = max(negative, key=operator.itemgetter(-1))   # an item before a support dual
        fail(f"{'item exponent' if g[-1] else 'support dual'} {g[:-1]} is negative on a ray of C")
    generator_of = {m: g for g, m in masks.items()}   # the items, last, win a shared mask
    space = _orthogonal_basis(eqs)
    seen = set()
    for f, m in zip(facets, big.facet_masks()):
        if f in seen:
            fail(f"facet {f} of C repeats")
        seen.add(f)
        g = generator_of.get(m)
        if g is None or _orthogonal_representative(g, space) != f:
            fail(f"facet {f} of C is no generator of D")
    if matrix_rank(rays) != d + 1:
        fail(f"the rays of C have rank {matrix_rank(rays)}, not {d + 1}")
    again, lin, _ = _canonical_vrep(big.rank, facets, eqs)
    odd = list(lin) + sorted(x for x in set(rays + again) if rays.count(x) != again.count(x))
    if odd:
        fail(f"C and the cone its facets cut out differ at the ray or line {odd[0]}")


@record
class GlueResult:
    fan: Fan
    active_sets: ActiveSets


def glue_charts(results: Sequence[SubdivisionResult]) -> GlueResult:
    """Merge chart subdivisions into one fan with consistent active sets."""
    if not results:
        raise GlueError("charts do not glue: nothing to glue")
    rank = results[0].projected_fan.rank
    merged: dict[tuple[IntVec, ...], tuple[Cone, frozenset[str]]] = {}   # by the cone's rays
    for res in results:
        if res.projected_fan.rank != rank:
            raise GlueError("charts do not glue: rank mismatch")
        for cone, ids in res.active_sets.items():
            if merged.setdefault(cone.rays, (cone, ids))[1] != ids:
                raise GlueError("charts do not glue: active sets disagree on a shared cone")
    # each chart's fan is face-closed, so their union is too
    try:
        fan = fan_from_cones(rank, [cone for cone, _ in merged.values()], has_t=True)
    except FanError as exc:
        raise GlueError(f"charts do not glue: {exc}") from exc
    ids = [merged[_at(mask, fan.rays)][1] for _, mask in fan.cells]
    return GlueResult(fan, ActiveSets(fan, list(map(ActiveSets.row, ids))))


def rescaled_chart(chart: MockPolytopeChart, n: int) -> MockPolytopeChart:
    """The chart with every t-weight multiplied by n (same scale)."""
    if n < 1:
        raise ChartError("rescale factor must be a positive integer")
    return replace(chart, items=tuple(replace(it, kappa=n * it.kappa)
                                      for it in chart.items))
