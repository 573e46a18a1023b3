"""Rational polyhedral cones with exact dual representations and face data.

A `Cone` is canonical: extreme rays are primitive, reduced modulo the
lineality space (orthogonal representative), and sorted; the lineality basis
is the Hermite normal form of the saturated lineality lattice.  Cones that
describe the same point set therefore compare equal as structures, which is
what fans and the subdivision pipeline rely on.

Everything is integer arithmetic.  The orthogonal representative comes from
an integer Gram-Schmidt basis of the lineality, each step scaled by o.o > 0
so that no `Fraction` is needed: the primitive result is the rational
projection cleared to integers.  Unit vectors of the lineality, common in
Hermite bases, are projected off by zeroing their coordinates.

Representation conversion is one routine, `_canonical_vrep`, the only
caller of `_dd`: an incremental double description (DD) method over exact
integers, run in the integer kernel of the equalities on the distinct
projected rows, then the canonical form, with one Hermite normal form (HNF)
for the lineality when there is any.  Internal callers pass facets and span
equalities.  Both the V-representation (rays, lineality) and the
H-representation (facet inequalities plus span equalities) are available on
every cone; the H-side is computed lazily, by one call of the same routine
on the dual side, for cones created through trusted internal paths and
eagerly for generators.  A cone given by generators costs one DD
(generators to facets) and one pairing of the distinct rows with its rays
in the DD's coordinates; `_read_off` makes that pairing, the generator x
facet incidence, and reads the rays, lineality and ray masks off it, for
`cone_from_generators` and for the lifted cone of a chart in
`subdivision`.
"""

from __future__ import annotations

from itertools import compress
from operator import mul, not_
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from ._record import record
from .exact import (
    IntVec,
    dot,
    is_zero_vec,
    kernel_basis,
    primitive,
    rank as matrix_rank,
    vec_neg,
)

if TYPE_CHECKING:
    from .exact import Scalar


class ConeError(ValueError):
    """Raised for invalid cone inputs (rank mismatches, bad generators)."""


# ---------------------------------------------------------------------------
# double description core
# ---------------------------------------------------------------------------

def _dd(dim: int, inequalities: Sequence[IntVec]) -> tuple[list[IntVec], list[IntVec]]:
    """V-representation of {x in Q^dim : <a, x> >= 0 for all a}.

    Incremental double description: the state is a lineality basis plus a
    list of extreme rays tagged with the bitmask of already-processed
    inequalities they are tight on.  Adjacency of a positive/negative ray
    pair is decided by the standard combinatorial test (no third ray is
    tight on the common tight set).  Two adjacent rays span a face of
    dimension len(lin) + 2, cut out by their common tight set, so that set
    has at least dim - len(lin) - 2 members; a pair with fewer is skipped
    before the scan over all rays (Fukuda-Prodon 1996).

    Each step pairs the new inequality once with every lineality vector and
    every ray; the sign tests and the combinations reuse those pairings.  A
    vector with pairing 0 is kept as it is: it is already primitive.
    """
    constraints = [a for a in inequalities if any(a)]
    lin: list[IntVec] = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays: list[tuple[IntVec, int]] = []
    for idx, a in enumerate(constraints):
        bit = 1 << idx
        on_lin = [sum(map(mul, a, u)) for u in lin]
        hit = next((i for i, v in enumerate(on_lin) if v), None)
        if hit is not None:
            b = lin.pop(hit)
            vb = on_lin.pop(hit)
            if vb < 0:
                b, vb = vec_neg(b), -vb
            lin = [primitive(tuple(vb * x - v * y for x, y in zip(u, b))) if v else u
                   for u, v in zip(lin, on_lin)]
            rays = [(primitive(tuple(vb * x - v * y for x, y in zip(r, b))) if v else r,
                     mask | bit)
                    for (r, mask), v in zip(rays, [sum(map(mul, a, r)) for r, _ in rays])]
            rays.append((b, bit - 1))
            continue
        pos, zero, neg = [], [], []
        for pos_in_list, (r, mask) in enumerate(rays):
            v = sum(map(mul, a, r))
            if v > 0:
                pos.append((r, mask, v, pos_in_list))
            elif v < 0:
                neg.append((r, mask, v, pos_in_list))
            else:
                zero.append((r, mask | bit))
        if not neg:
            rays = [(r, m) for r, m, _, _ in pos] + zero
            continue
        new = [(r, m) for r, m, _, _ in pos] + zero
        need = dim - len(lin) - 2
        masks = [m for _, m in rays]
        for rp, mp, vp, ip in pos:
            for rn, mn, vn, jn in neg:
                common = mp & mn
                if common.bit_count() < need or any(
                        common & ~m == 0 and k != ip and k != jn
                        for k, m in enumerate(masks)):
                    continue
                combo = primitive(tuple(vp * x - vn * y for x, y in zip(rn, rp)))
                new.append((combo, common | bit))
        rays = new
    return [r for r, _ in rays], lin


# a subspace ready to project off: see `_orthogonal_basis`
Subspace = tuple[Optional[IntVec], list[IntVec]]
# a pairing to read a table off: see `_canonical_vrep` and `_read_off`
Pairing = tuple[Sequence[IntVec], Iterable[IntVec], Optional[Mapping[IntVec, IntVec]]]


def _orthogonal_basis(basis: Sequence[IntVec]) -> Subspace:
    """The subspace spanned by the independent `basis`, ready to project
    off: a selector that is 0 on the coordinate of each vector of `basis`
    with one nonzero entry and 1 elsewhere (None when there is no such
    vector), and the other vectors, zeroed there, by integer Gram-Schmidt:
    primitive, pairwise orthogonal, each a positive multiple of its
    rational counterpart.  Zeroing a coordinate projects off its unit
    vector in one pass; a coordinate subspace is the common lineality.
    """
    if not basis:
        return None, []
    units = {k for w in basis if w.count(0) == len(w) - 1 for k, x in enumerate(w) if x}
    space: Subspace = (tuple(int(k not in units) for k in range(len(basis[0]))) if units
                       else None, [])
    for w in basis:
        if w.count(0) != len(w) - 1:
            space[1].append(_orthogonal_representative(w, space))
    return space


def _orthogonal_representative(v: IntVec, space: Subspace) -> Optional[IntVec]:
    """Primitive orthogonal-complement representative of v modulo the
    subspace `space` of `_orthogonal_basis`: v zeroed on its unit
    coordinates, then projected off one orthogonal vector at a time.
    Returns None when v lies in the subspace.  The representative is
    unique up to positive scaling, so primitivizing makes it canonical,
    whatever basis spans the subspace.
    """
    selector, ortho = space
    if selector is not None:
        v = tuple(map(mul, v, selector))
    for o in ortho:
        ov = dot(o, v)
        if ov:
            oo = dot(o, o)
            v = tuple(oo * x - ov * y for x, y in zip(v, o))
    if is_zero_vec(v):
        return None
    return primitive(v)


def _canonical_vrep(rank: int, ineqs: Sequence[IntVec], eqs: Sequence[IntVec]
                    ) -> tuple[tuple[IntVec, ...], tuple[IntVec, ...], Pairing]:
    """Canonical rays and lineality of {x : <a,x> >= 0, <e,x> = 0}, by one DD,
    and the pairing that `_read_off` reads the table off: the DD's rays y,
    in the order of the canonical rays, its distinct rows, and each distinct
    inequality's row, or None when the rows are the inequalities.

    Of an inequality and its negation, the one lexicographically below zero
    joins the equalities; rows made primitive, as the public constructors
    make them, let every such pair be found.  The DD runs in the integer
    kernel of the equalities, basis B, on the distinct rows Ba; those
    absorbed into equalities restrict to zero and drop out.  B is saturated,
    so the DD's primitive rays y lift to primitive yB, and a.(yB) = (Ba).y:
    each distinct row can be paired with the rays in the DD's coordinates.
    The lineality, when the DD finds any, is the integer kernel of all the
    rows, one HNF, saturated and canonical.  The rays are their
    representatives modulo it, positive multiples plus lineality vectors,
    on which every inequality is zero: the pairing's signs hold for them.
    """
    ineqs = dict.fromkeys(ineqs)
    origin = (0,) * rank   # a row is below it iff its first nonzero entry is negative
    eqs = [e for e in eqs if any(e)] + [a for a in ineqs if a < origin and vec_neg(a) in ineqs]
    row_of = None
    if eqs:
        basis = kernel_basis(eqs, rank)
        if not basis:   # the cone is {0}: no rays, every row is ()
            return (), (), ([], [()], dict.fromkeys(ineqs, ()))
        row_of = {a: tuple(sum(map(mul, b, a)) for b in basis) for a in ineqs}
        rows, dim = list(dict.fromkeys(row_of.values())), len(basis)
    else:
        basis, rows, dim = (), list(ineqs), rank
    ys, lin = _dd(dim, rows)
    columns = list(zip(*basis))
    xs = [tuple(sum(map(mul, y, column)) for column in columns) for y in ys] if eqs else ys
    lin = kernel_basis(list(ineqs) + eqs, rank) if lin else ()
    space = _orthogonal_basis(lin)
    order = sorted((_orthogonal_representative(x, space), y) for x, y in zip(xs, ys))
    return tuple(r for r, _ in order), lin, ([y for _, y in order], rows, row_of)


def _checked_rows(rank: int, rows: Iterable[Sequence[int]], what: str) -> list[IntVec]:
    """The nonzero rows made primitive; ConeError if one is not of length `rank`."""
    out = []
    for v in rows:
        if len(v) != rank:
            raise ConeError(f"{what} rank {len(v)} does not match cone rank {rank}")
        if any(v):
            out.append(primitive(v))
    return out


# ---------------------------------------------------------------------------
# the Cone type
# ---------------------------------------------------------------------------

class Cone:
    """Canonical rational polyhedral cone.

    Do not call the constructor directly; use `cone_from_generators`,
    `cone_from_inequalities`, or `dual_cone`.
    """

    __slots__ = ("rank", "rays", "lineality", "_facets", "_span_eqs", "_dim", "_facet_masks",
                 "_hash")

    def __init__(self, rank: int, rays: tuple[IntVec, ...], lineality: tuple[IntVec, ...],
                 facets: Optional[tuple[IntVec, ...]], span_eqs: Optional[tuple[IntVec, ...]],
                 _token: object = None):
        if _token is not _CONE_TOKEN:
            raise ConeError("use cone_from_generators / cone_from_inequalities")
        self.rank = rank
        self.rays = rays
        self.lineality = lineality
        self._facets = facets
        self._span_eqs = span_eqs
        self._dim: Optional[int] = None
        self._facet_masks: Optional[tuple[int, ...]] = None
        self._hash = hash((rank, rays, lineality))

    # -- construction helper -------------------------------------------------

    @staticmethod
    def _trusted(rank: int, rays: tuple[IntVec, ...], lineality: tuple[IntVec, ...],
                 dim: int, facets: Optional[tuple[IntVec, ...]] = None,
                 span_eqs: Optional[tuple[IntVec, ...]] = None,
                 facet_masks: Optional[tuple[int, ...]] = None) -> "Cone":
        """Internal constructor for rays and lineality already in canonical
        form, of a cone whose dimension, and maybe H-side and facet masks,
        are known."""
        cone = Cone(rank, rays, lineality, facets, span_eqs, _token=_CONE_TOKEN)
        cone._dim = dim
        cone._facet_masks = facet_masks
        return cone

    # -- H-representation ----------------------------------------------------

    @property
    def span_eqs(self) -> tuple[IntVec, ...]:
        """Basis of span(cone)^perp: the implicit equalities of the H-rep."""
        if self._span_eqs is None:
            self.facets  # the DD that finds the facets finds them too
        return self._span_eqs

    @property
    def facets(self) -> tuple[IntVec, ...]:
        """Inner-normal facet inequality vectors (canonical, irredundant)."""
        if self._facets is None:
            self._facets, self._span_eqs, _ = _canonical_vrep(self.rank, self.rays,
                                                              self.lineality)
        return self._facets

    # -- basic queries ---------------------------------------------------------

    def dim(self) -> int:
        if self._dim is None:
            if not self.rays and not self.lineality:
                self._dim = 0
            else:
                self._dim = matrix_rank(list(self.rays) + list(self.lineality))
        return self._dim

    def is_strongly_convex(self) -> bool:
        return not self.lineality

    def is_zero(self) -> bool:
        return not self.rays and not self.lineality

    def contains(self, v: Sequence[Scalar]) -> bool:
        if len(v) != self.rank:
            raise ConeError(f"rank mismatch: point has {len(v)}, cone has {self.rank}")
        return (all(dot(v, e) == 0 for e in self.span_eqs)
                and all(dot(v, f) >= 0 for f in self.facets))

    # -- face enumeration ------------------------------------------------------

    def facet_masks(self) -> tuple[int, ...]:
        """Per facet, the bitmask of the extreme rays tight on it; kept once computed."""
        if self._facet_masks is None:
            self._facet_masks = tuple(
                sum(1 << i for i, r in enumerate(self.rays) if not sum(map(mul, r, f)))
                for f in self.facets)
        return self._facet_masks

    def faces(self) -> list["Face"]:
        """All faces, each exactly once, including the cone and its minimal face.

        The unpruned walk (`walk_masks`), sorted by dimension and rays.
        """
        return sorted(faces_of_masks(self, walk_masks(self)),
                      key=lambda f: (f.cone.dim(), f.cone.rays))

    def face_mask(self, rays: Iterable[IntVec]) -> Optional[int]:
        """The ray mask of the face whose extreme rays are exactly `rays`, or
        None when there is no such face: one of `rays` is not a canonical ray
        of this cone, or their mask is not the meet of the facet masks that
        hold it."""
        bit_of = {r: 1 << i for i, r in enumerate(self.rays)}
        bits = {bit_of.get(r) for r in rays}
        if None in bits:
            return None
        mask = sum(bits)
        meet = (1 << len(self.rays)) - 1
        for fm in self.facet_masks():
            if mask & ~fm == 0:
                meet &= fm
        return mask if meet == mask else None

    # -- dunder ----------------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (isinstance(other, Cone) and self.rank == other.rank
                and self.rays == other.rays and self.lineality == other.lineality)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        lin = f", lineality={list(self.lineality)}" if self.lineality else ""
        return f"Cone(rank={self.rank}, rays={list(self.rays)}{lin})"


_CONE_TOKEN = object()


@record
class Face:
    """A face of a cone: its extreme-ray mask and the face as a cone."""
    mask: int
    cone: Cone


def _bit_indices(mask: int) -> list[int]:
    """The indices of the set bits of mask, lowest first."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def walk_masks(c: Cone, lower: Optional[int] = None,
               within: Optional[int] = None) -> list[list[int]]:
    """The ray masks of every face of c, level by level, the faces at level
    k of grade k, the dimension of the lineality plus k.  With `lower`, a
    bitset of facet indices, only the faces on one of those facets; with
    `within`, a bitset of ray indices, only those whose rays are all in it.
    Both sets are downward closed; the minimal face is always walked.

    Without `within` the walk goes down from c, or from the `lower` facets,
    graded by the rank of one's rays (not by c's span equalities), each
    level sorted.  A face's facets are its largest proper meets with c's
    facet masks; a face with as many rays as its grade is simplicial, and
    every subset of its rays is a face (Kaibel-Pfetsch, Comput. Geom. 23,
    2002).  Faces found by meets count as seen after their level, so below
    a level every subset of a seen face is seen, and a simplicial face's
    subsets stop there.  With `within` the walk goes up by covers, as the
    bounded cells are a few faces of a lattice that a descent would visit
    whole: a face F with tight set t and a ray r in `within` outside F span
    the smallest face G above both, of tight set t & tight(r), and G covers
    F iff as many such r give G as G has rays outside F, so the level is
    the grade; a candidate whose tight set misses `lower` is dropped.
    """
    if within is None:
        facet_masks = None
        if lower is None:
            tops, grade = [(1 << len(c.rays)) - 1], c.dim() - len(c.lineality)
        else:
            facet_masks = c.facet_masks()
            tops = list(dict.fromkeys(fm for j, fm in enumerate(facet_masks)
                                      if lower >> j & 1)) or [0]
            grade = matrix_rank([c.rays[i] for i in _bit_indices(tops[0])]
                                + list(c.lineality)) - len(c.lineality)
        levels: list[list[int]] = [[] for _ in range(grade)] + [tops]
        seen, expand = set(tops), tops
        for g in range(grade, 0, -1):
            # each subset of a simplicial face once, its bits dropped from the highest
            stack = [(mask, mask) for mask in expand if mask.bit_count() == g]
            while stack:
                face, free = stack.pop()
                for i in _bit_indices(free):
                    sub = face ^ 1 << i
                    if sub not in seen:
                        seen.add(sub)
                        levels[sub.bit_count()].append(sub)
                        stack.append((sub, free & ((1 << i) - 1)))
            below: set[int] = set()
            for mask in expand:
                if mask.bit_count() != g:
                    facet_masks = facet_masks or c.facet_masks()   # read once: c has facets
                    # a facet of the face has g - 1 rays or more, and no larger meet holds it
                    cut = {m for fm in facet_masks if (m := mask & fm).bit_count() >= g - 1}
                    meets = sorted(cut - {mask}, key=int.bit_count, reverse=True)
                    below.update(m for k, m in enumerate(meets) if all(m & ~n for n in meets[:k]))
            expand = below - seen
            seen |= expand
            levels[g - 1] += expand
        return [sorted(level) for level in levels]
    facet_masks = c.facet_masks()
    tight = [0] * len(c.rays)
    for j, fm in enumerate(facet_masks):
        for i in _bit_indices(fm):
            tight[i] |= 1 << j
    ray_tight = [(1 << i, tr) for i, tr in enumerate(tight)]
    tried = ((1 << len(c.rays)) - 1) & within
    closure: dict[int, int] = {}
    levels = []
    level = [(0, (1 << len(facet_masks)) - 1)]
    seen = {0}
    while level:
        levels.append([mask for mask, _ in level])
        above = []
        for mask, t in level:
            counts: dict[int, int] = {}
            for i in _bit_indices(tried & ~mask):
                u = t & tight[i]
                counts[u] = counts.get(u, 0) + 1
            for u, k in counts.items():
                if lower is not None and not u & lower:
                    continue
                g = closure.get(u)
                if g is None:
                    g = closure[u] = sum(bit for bit, tr in ray_tight if tr & u == u)
                if g not in seen and k == (g & ~mask).bit_count():
                    seen.add(g)
                    above.append((g, u))
        level = above
    return levels


def faces_of_masks(c: Cone, levels: Iterable[Iterable[int]]) -> list[Face]:
    """The faces of c with the ray masks of `levels`, level k graded k as
    in `walk_masks`.  A subset of c's sorted canonical rays, reduced modulo
    the same lineality, is canonical as it stands."""
    out = []
    for dim, level in enumerate(levels, len(c.lineality)):
        for mask in level:
            rays = tuple(map(c.rays.__getitem__, _bit_indices(mask)))
            out.append(Face(mask, Cone._trusted(c.rank, rays, c.lineality, dim)))
    return out


# ---------------------------------------------------------------------------
# public constructors and operations
# ---------------------------------------------------------------------------

def cone_from_generators(rank: int, generators: Sequence[Sequence[int]],
                         lineality_generators: Sequence[Sequence[int]] = ()) -> Cone:
    """Canonical cone spanned by `generators` plus the span of `lineality_generators`.

    Every row must have length `rank` (ConeError otherwise).  One DD, on
    the generators as inequalities of the dual, gives the facets and span
    equalities, and `_read_off` reads the cone off its pairing.
    """
    lins = _checked_rows(rank, lineality_generators, "lineality")
    return _read_off(rank, *_canonical_vrep(rank, _checked_rows(rank, generators, "generator"),
                                            lins), lins)[0]


def _read_off(rank: int, facets: tuple[IntVec, ...], span_eqs: tuple[IntVec, ...],
              pairing: Pairing, lins: Sequence[IntVec]
              ) -> tuple[Cone, dict[IntVec, int], list[IntVec], tuple[int, ...]]:
    """The cone spanned by the generators plus the span of `lins`, its
    table, and each of its rays' facet mask, read off its facets, span
    equalities and `pairing`, the third value of `_canonical_vrep`.

    Each distinct row is paired with the ys once.  The table is each
    generator's mask of the facets it is zero on (bit i for facet i), and
    the generators negative on one, in order.  The rest needs no DD or
    pairing:

    - the lineality space is the span of the lineality generators and of
      every generator tight on all facets (the minimal face of a cone is
      generated by the generators in it); when there is any, it is the
      integer kernel of the span equalities and the facets, one HNF;
    - the tight set of a generator g cuts out the smallest face holding g,
      so g spans an extreme ray modulo the lineality iff no generator
      outside the lineality has a strictly larger tight set; every such
      tight set is one ray, whatever generator carries it, and is that
      ray's facet mask.  A mask lies strictly inside only masks with more
      bits, and then inside a maximal one; so, by falling popcount, a mask
      is maximal iff it lies in none kept so far.

    The rays are reduced modulo the lineality as in `_canonical_vrep`.
    Each kernel is a saturated lattice in Hermite form, so canonical.
    """
    ys, rows, row_of = pairing
    zero, negative = _pair_rows(ys, rows)
    if row_of is not None:
        below = set(negative)
        zero = {a: zero[w] for a, w in row_of.items()}
        negative = [a for a, w in row_of.items() if w in below]
    by_mask = dict(zip(zero.values(), zero))   # one generator per mask, the last
    full = (1 << len(facets)) - 1
    lin = kernel_basis(span_eqs + facets, rank) if by_mask.pop(full, None) or lins else ()
    space = _orthogonal_basis(lin)
    kept: list[int] = []
    for mask in sorted(by_mask, key=int.bit_count, reverse=True):
        if all(mask & ~k for k in kept):
            kept.append(mask)
    rays = sorted((_orthogonal_representative(by_mask[mask], space), mask) for mask in kept)
    cone = Cone._trusted(rank, tuple(r for r, _ in rays), lin, rank - len(span_eqs),
                         facets, span_eqs)
    return cone, zero, negative, tuple(mask for _, mask in rays)


def _pair_rows(ys: Sequence[IntVec], rows: Iterable[IntVec]
               ) -> tuple[dict[IntVec, int], list[IntVec]]:
    """Each row's mask of the ys it is zero on, and the rows negative on one."""
    bits = [1 << i for i in range(len(ys))]
    zero, negative = {}, []
    for w in rows:
        paired = [sum(map(mul, w, y)) for y in ys]
        zero[w] = sum(compress(bits, map(not_, paired)))
        if paired and min(paired) < 0:
            negative.append(w)
    return zero, negative


def cone_from_inequalities(rank: int, inequalities: Sequence[Sequence[int]],
                           equalities: Sequence[Sequence[int]] = ()) -> Cone:
    """Canonical cone {x : <a,x> >= 0, <e,x> = 0}; facet data computed lazily.

    Every row must have length `rank` (ConeError otherwise).
    """
    rays, lin, _ = _canonical_vrep(rank, _checked_rows(rank, inequalities, "inequality"),
                                   _checked_rows(rank, equalities, "equality"))
    return Cone(rank, rays, lin, None, None, _token=_CONE_TOKEN)


def dual_cone(c: Cone) -> Cone:
    """The dual cone {y : <x, y> >= 0 for all x in c} in the dual lattice.

    Swaps the two stored representations; duality is an involution on
    canonical cones.  The dual spans the complement of c's lineality.
    """
    return Cone._trusted(c.rank, c.facets, c.span_eqs, c.rank - len(c.lineality), c.rays,
                         c.lineality)


def intersect(c1: Cone, c2: Cone) -> Cone:
    if c1.rank != c2.rank:
        raise ConeError("cannot intersect cones of different rank")
    rays, lin, _ = _canonical_vrep(c1.rank, c1.facets + c2.facets, c1.span_eqs + c2.span_eqs)
    return Cone(c1.rank, rays, lin, None, None, _token=_CONE_TOKEN)


def is_subcone(inner: Cone, outer: Cone) -> bool:
    """Point-set containment, tested against the outer H-representation."""
    gens = list(inner.rays) + list(inner.lineality) + [vec_neg(v) for v in inner.lineality]
    return all(outer.contains(g) for g in gens)


def is_face_of(face: Cone, c: Cone) -> bool:
    """True iff `face` is a face of c.

    Both cones are canonical, so a face of c has c's lineality (the same
    Hermite basis) and a subset of c's rays, and it is a face iff that
    subset is a face mask (`Cone.face_mask`).
    """
    return (face.rank == c.rank and face.lineality == c.lineality
            and c.face_mask(face.rays) is not None)


def zero_cone(rank: int) -> Cone:
    return Cone._trusted(rank, (), (), 0)
