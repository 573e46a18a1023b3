"""Face-closed fans of strongly convex cones, with height-one bookkeeping.

Fans here may carry a distinguished last coordinate ("t").  On t-flagged
fans the classification predicates follow the degeneration picture: a cone
is *special* when it is not contained in the hyperplane {t = 0}, and
*bounded* when it is nonzero and every extreme ray has strictly positive
t-coordinate (equivalently, its slice at t = 1 is a bounded polytope).
The predicates "special", "bounded" and "specifically reduced" are
inferred from how they are used in the source constructions, not
restatements of external definitions; see the project README.

The Euler characteristic of the open t = 1 slice of a special cone is
(-1)^(dim - 1) when the cone is bounded and 0 otherwise; its additivity over
refinements is what the signed volume skeleton rests on.
"""

from __future__ import annotations

import functools
import itertools
import math
from operator import mul, not_
from typing import Iterable, Sequence

from .cones import Cone, _bit_indices, intersect, is_face_of, walk_masks, zero_cone
from .exact import IntVec, primitive, vec_neg


class FanError(ValueError):
    """Raised when a collection of cones does not form a fan."""


# ---------------------------------------------------------------------------
# cone-level classification (t = last coordinate)
# ---------------------------------------------------------------------------

def is_special_cone(c: Cone) -> bool:
    """Not contained in {t = 0}: some generator has nonzero t-coordinate."""
    return any(v[-1] != 0 for v in c.rays) or any(v[-1] != 0 for v in c.lineality)


def is_bounded_cone(c: Cone) -> bool:
    """Nonzero, strongly convex, and every extreme ray has t > 0."""
    if c.is_zero() or c.lineality:
        return False
    return all(r[-1] > 0 for r in c.rays)


def euler_char_height1(c: Cone) -> int:
    """(-1)^(dim - 1) for bounded cones, 0 otherwise."""
    if not is_bounded_cone(c):
        return 0
    return -1 if c.dim() % 2 == 0 else 1


def rescale_cone(c: Cone, n: int) -> Cone:
    """Image of a strongly convex cone under (v, t) -> (n*v, t); t is the
    last coordinate.  The map is invertible, so the primitive images of the
    extreme rays are the extreme rays of the image, of the same dimension."""
    if n < 1:
        raise FanError("rescale factor must be a positive integer")
    if c.lineality:
        raise FanError("rescale_cone requires a strongly convex cone")
    return Cone._trusted(c.rank, tuple(sorted(_rescaled(r, n) for r in c.rays)), (), c.dim())


def _rescaled(r: IntVec, n: int) -> IntVec:
    return primitive(tuple(n * x for x in r[:-1]) + (r[-1],))


# ---------------------------------------------------------------------------
# fans
# ---------------------------------------------------------------------------

class Fan:
    """Finite face-closed collection of strongly convex cones in one lattice,
    kept as one ray table: `rays`, the distinct rays of its cones, sorted, and
    per cone one cell (dim, mask), the ray at position p of N on bit N - 1 - p,
    in the fan's (dim, rays) order, which is the (dim, -mask) order: two cones
    of one dimension do not hold each other's rays, so the highest bit in
    which their masks differ is the lowest position at which their rays
    differ, a ray of the earlier cone.  `cones` and `in` are built when read."""

    def __init__(self, rank: int, rays: tuple[IntVec, ...], cells: tuple, has_t: bool = False,
                 _token: object = None):
        if _token is not _FAN_TOKEN:
            raise FanError("use fan_from_cones")
        self.rank = rank
        self.rays = rays
        self.cells = cells
        self.has_t_coordinate = has_t

    @staticmethod
    def _of_cells(rank: int, rays: Sequence[IntVec], cells: Iterable, has_t: bool) -> "Fan":
        """Internal constructor for a ray table and cells already in the fan's form."""
        return Fan(rank, tuple(rays), tuple(cells), has_t, _token=_FAN_TOKEN)

    @functools.cached_property
    def cones(self) -> tuple[Cone, ...]:
        return tuple(Cone._trusted(self.rank, _at(mask, self.rays), (), dim)
                     for dim, mask in self.cells)

    @functools.cached_property
    def _positions(self) -> dict[Cone, int]:   # each cone's index in `cones`, behind `in`
        return dict(zip(self.cones, range(len(self.cells))))

    def __iter__(self):
        return iter(self.cones)

    def __len__(self) -> int:
        return len(self.cells)

    def __contains__(self, c: Cone) -> bool:
        return c in self._positions

    def __eq__(self, other) -> bool:
        return (isinstance(other, Fan) and self.rank == other.rank
                and self.has_t_coordinate == other.has_t_coordinate
                and self.rays == other.rays and self.cells == other.cells)

    def __hash__(self) -> int:
        return hash((self.rank, self.has_t_coordinate, self.rays, self.cells))

    def __repr__(self) -> str:
        return (f"Fan(rank={self.rank}, cones={len(self.cells)}, "
                f"has_t={self.has_t_coordinate})")

    def _require_t(self, op: str):
        if not self.has_t_coordinate:
            raise FanError(f"{op} requires a fan with a t coordinate")

    def bounded_cones(self) -> list[Cone]:
        self._require_t("bounded_cones")
        return [c for c in self.cones if is_bounded_cone(c)]


_FAN_TOKEN = object()


def _at(mask: int, table: Sequence) -> tuple:
    """The entries of `table` at the positions of a cell's mask (see `Fan`)."""
    return tuple(itertools.compress(table, map("1".__eq__, f"{mask:0{len(table)}b}")))


def fan_from_cones(rank: int, cones: Sequence[Cone], has_t: bool = False) -> Fan:
    """Close the given cones under faces and verify the fan conditions.

    Checks run in this order: each member's rank, in input order; then
    "member cone is not strongly convex" if any member has lineality; then,
    on t-flagged fans, "rank 0" if there is no t coordinate, and "negative
    t" if any member has a ray with t < 0 (height-one semantics break
    otherwise).  Then one pass goes over the members, largest first, sorted
    by (-dim, rays), and skips those in the face closure.  A member inside
    an earlier maximal cone is the stray, a face of no maximal cone, and is
    named; any other is maximal, and its faces join the closure.  Last,
    maximal cones must meet pairwise in a common face.

    Both tests read one table of ray bits (`_table`): a member lies in m iff
    its rays are >= 0 on every cut of m.  Faces of faces are faces (Ziegler,
    Lectures on Polytopes, ch. 2; De Loera-Rambau-Santos, Triangulations,
    ch. 2): if ray sets A of m1 and B of m2 span faces holding the meet, a
    cut of m1 with no positive ray in B is zero on the meet, so A and B
    shrink to their rays on it; likewise with m2.  At the fixpoint
    (`_certified`), A == B spans the meet, a common face, and an empty A or
    B makes it {0}; otherwise `intersect` and `is_face_of` decide.  So the
    first failing pair, and its message, stay those of `intersect` alone.
    The ray bits are those of the cells, so a closed face's bits are its cell.
    """
    members: set[Cone] = set()
    for c in cones:
        if c.rank != rank:
            raise FanError(f"cone rank {c.rank} does not match fan rank {rank}")
        members.add(c)
    if not all(c.is_strongly_convex() for c in members):
        raise FanError("not a fan: member cone is not strongly convex")
    if has_t and rank < 1:
        raise FanError("not a fan: a t-flagged fan of rank 0 has no t-coordinate")
    if has_t and any(r[-1] < 0 for c in members for r in c.rays):
        raise FanError("not a fan: negative t-coordinate ray in t-flagged fan")
    rays = sorted({r for c in members for r in c.rays})
    bit_of = {r: 1 << i for i, r in enumerate(reversed(rays))}   # cell bits: see `Fan`
    maximal: list[tuple[Cone, int, int, list[tuple[int, int]]]] = []
    known: dict[IntVec, tuple[int, int]] = {}
    closed: dict[int, int] = {}   # the faces of the maximal cones: their ray bits, dims
    for c in sorted(members or [zero_cone(rank)], key=lambda c: (-c.dim(), c.rays)):
        ray_bits = list(map(bit_of.__getitem__, c.rays))
        if (bits := sum(ray_bits)) in closed:
            continue
        if any(not bits & ~inside for _, _, inside, _ in maximal):
            raise FanError("not a fan: cone is not a face of any maximal cone: "
                           f"{list(c.rays)}")
        maximal.append((c, bits, *_table(c, bit_of, known)))
        for dim, level in enumerate(walk_masks(c)):
            for at in map(_bit_indices, level):
                closed.setdefault(sum(map(ray_bits.__getitem__, at)), dim)
    for (m1, a, _, cuts1), (m2, b, _, cuts2) in itertools.combinations(maximal, 2):
        if not _certified(a, b, cuts1, cuts2) and not (
                is_face_of(meet := intersect(m1, m2), m1) and is_face_of(meet, m2)):
            raise FanError("not a fan: intersection is not a common face: "
                           f"{list(m1.rays)} and {list(m2.rays)}")
    return Fan._of_cells(rank, rays, sorted(zip(closed.values(), closed),
                                           key=lambda cell: (cell[0], -cell[1])), has_t)


def _table(m: Cone, bit_of: dict[IntVec, int], known: dict) -> tuple[int, list[tuple[int, int]]]:
    """The bits of the rays in m; per cut of m (a facet, or a span equality in either sign)
    not zero on all rays, of those it is > 0 and = 0 on, paired once into `known` up to sign."""
    bits, cuts = list(bit_of.values()), []
    inside = everything = sum(bits)
    for f in m.facets + m.span_eqs + tuple(map(vec_neg, m.span_eqs)):
        if f not in known and (neg := known.get(vec_neg(f))):
            known[f] = (everything & ~(neg[0] | neg[1]), neg[1])   # > 0 where -f is < 0
        elif f not in known:
            paired = [sum(map(mul, f, r)) for r in bit_of]
            known[f] = (sum(itertools.compress(bits, [v > 0 for v in paired])),
                        sum(itertools.compress(bits, map(not_, paired))))
        cuts.append(known[f])
        inside &= cuts[-1][0] | cuts[-1][1]
    return inside, [(pos, zero) for pos, zero in cuts if zero != everything]


def _certified(a: int, b: int, cuts1: list[tuple[int, int]], cuts2: list[tuple[int, int]]) -> bool:
    """Whether ray sets a and b, shrunk by the cuts to their fixpoint, certify the meet."""
    while True:
        zero = next(itertools.chain((z for p, z in cuts1 if not p & b and (a | b) & ~z),
                                    (z for p, z in cuts2 if not p & a and (a | b) & ~z)), None)
        if zero is None:
            return a == b or not (a and b)
        a, b = a & zero, b & zero


def rescale(f: Fan, n: int) -> Fan:
    """Image fan under (v, t) -> (n*v, t); bijective on cones, each the
    `rescale_cone` image of its own, so the table maps ray by ray."""
    f._require_t("rescale")
    if n < 1:
        raise FanError("rescale factor must be a positive integer")
    rays = sorted(images := [_rescaled(r, n) for r in f.rays])   # distinct: the map is invertible
    bit = {r: 1 << i for i, r in enumerate(reversed(rays))}
    return Fan._of_cells(f.rank, rays, sorted(   # the rays are sorted: position order is ray order
        ((dim, sum(map(bit.__getitem__, _at(mask, images)))) for dim, mask in f.cells),
        key=lambda cell: (cell[0], -cell[1])), True)


def is_specifically_reduced(f: Fan) -> bool:
    """Every 1-dimensional special cone has primitive generator with t = 1."""
    f._require_t("is_specifically_reduced")
    return all(r[-1] in (0, 1) for r in f.rays)   # each ray is a 1-dim cone; t >= 0


def specifically_reduced_scale(f: Fan) -> int:
    """Least m >= 1 such that rescale(f, m) is specifically reduced.

    For a primitive special ray (v, c) the least m with m*v/c integral is c
    itself, so the answer is the lcm of the t-coordinates of the special rays.
    """
    f._require_t("specifically_reduced_scale")
    return math.lcm(*(r[-1] for r in f.rays if r[-1]))
