import itertools
import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from genutil import (assert_walk_down_equals_the_walk_up, assert_walk_matches_oracle,
                     integerize, is_face_of_oracle, is_unimodular, make_cone, random_cone,
                     random_generators, relative_interior_point, saturated_subspace_basis,
                     tight_facets, vrep_from_constraints, walk_faces)
from mockfan import cones, formats
from mockfan.cones import (Cone, ConeError, cone_from_generators,
                           cone_from_inequalities, dual_cone, intersect,
                           is_face_of, is_subcone, zero_cone)
from mockfan.exact import (dot, is_zero_vec, kernel_basis, primitive,
                           rank as matrix_rank, vec_neg)


def orthant(rank=2):
    return cone_from_generators(rank, [tuple(1 if j == i else 0 for j in range(rank))
                                       for i in range(rank)])


def test_from_generators_drops_redundant():
    c = cone_from_generators(2, [(1, 0), (0, 1), (1, 1)])
    assert c.rays == ((0, 1), (1, 0))
    assert c.lineality == ()


@pytest.mark.parametrize("rank, ineqs, eqs", [
    (2, [(1, 0, 0)], []),
    (3, [(1, 0)], []),
    (2, [(1, 0)], [(0, 1, 5)]),
])
def test_from_inequalities_rejects_rows_of_another_rank(rank, ineqs, eqs):
    with pytest.raises(ConeError, match="does not match cone rank"):
        cone_from_inequalities(rank, ineqs, eqs)


def test_from_generators_extracts_lineality():
    c = cone_from_generators(2, [(1, 0), (-1, 0), (0, 1)])
    assert c.lineality == ((1, 0),)
    assert c.rays == ((0, 1),)


def test_from_generators_primitivizes():
    c = cone_from_generators(3, [(2, 0, 0)])
    assert c.rays == ((1, 0, 0),)


def test_from_generators_rank_mismatch():
    with pytest.raises(ConeError, match="rank"):
        cone_from_generators(2, [(1, 0, 0)])


def test_dual_self_dual_orthant():
    assert dual_cone(orthant()) == orthant()


def test_dual_of_full_space_is_origin():
    full = cone_from_generators(2, [], [(1, 0), (0, 1)])
    assert dual_cone(full) == zero_cone(2)
    assert dual_cone(zero_cone(2)) == full


def test_dual_hand_example():
    d = dual_cone(cone_from_generators(2, [(1, 0), (1, 2)]))
    assert set(d.rays) == {(2, -1), (0, 1)}
    # tightness pattern: each dual ray vanishes on exactly one primal ray
    for f in d.rays:
        zeros = [r for r in ((1, 0), (1, 2)) if dot(r, f) == 0]
        assert len(zeros) == 1


def test_duality_involution_random():
    rng = random.Random(421)
    for _ in range(120):
        c = random_cone(rng)
        d = dual_cone(c)
        rebuilt = dual_cone(cone_from_generators(c.rank, d.rays, d.lineality))
        assert rebuilt == c
        for g in c.rays:
            assert rebuilt.contains(g)
        assert c.dim() + len(d.lineality) == c.rank


@pytest.mark.parametrize("with_lineality", [False, True])
def test_dual_dimension_is_rank_minus_lineality(with_lineality):
    rng = random.Random(2718 + with_lineality)
    for _ in range(60):
        c = random_cone(rng, max_rank=5, max_gens=8, entry=3)
        if with_lineality:
            c = cone_from_generators(c.rank, c.rays,
                                     random_generators(rng, c.rank, rng.randint(1, 2), 2))
        d = dual_cone(c)
        assert d._dim == matrix_rank(list(d.rays) + list(d.lineality))
        assert dual_cone(d).dim() == c.dim()


@pytest.mark.parametrize("with_lineality", [False, True])
def test_intersect_equals_the_cone_its_rows_cut_out(with_lineality):
    """`intersect` passes canonical rows to the conversion unchecked; the
    public constructor checks and primitivizes them.  Half the pairs share
    a wall with opposite normals, which the conversion makes an equality."""
    rng = random.Random(3141 + with_lineality)
    opposite = 0
    for k in range(80):
        rank = rng.randint(1, 5)
        lins = random_generators(rng, rank, with_lineality, 2)
        a = cone_from_generators(rank, random_generators(rng, rank, rng.randint(0, 7), 3), lins)
        if k % 2 and a.facets:
            j = rng.randrange(len(a.facets))
            b = cone_from_inequalities(rank, [vec_neg(a.facets[j])] + list(a.facets[:j]))
            opposite += vec_neg(a.facets[j]) in b.facets
        else:
            b = cone_from_generators(rank, random_generators(rng, rank, rng.randint(0, 7), 3),
                                     random_generators(rng, rank, with_lineality, 2))
        meet = intersect(a, b)
        assert meet == cone_from_inequalities(rank, a.facets + b.facets,
                                              a.span_eqs + b.span_eqs)
        for _ in range(10):
            v = tuple(rng.randint(-3, 3) for _ in range(rank))
            assert meet.contains(v) == (a.contains(v) and b.contains(v))
    assert opposite >= 10


def test_faces_counts():
    assert len(orthant().faces()) == 4
    assert len(cone_from_generators(3, [(1, 0, -2)]).faces()) == 2
    assert len(orthant(3).faces()) == 8


def test_faces_brute_force_simplicial():
    c = orthant(3)
    found = {f.cone for f in c.faces()}
    expected = set()
    rays = c.rays
    for k in range(4):
        for sub in itertools.combinations(rays, k):
            expected.add(cone_from_generators(3, list(sub)))
    assert found == expected


def test_face_lattice_closed_under_intersection():
    rng = random.Random(31)
    for _ in range(25):
        c = random_cone(rng, max_rank=4, max_gens=6, entry=3)
        faces = [f.cone for f in c.faces()]
        fset = set(faces)
        for f1, f2 in itertools.combinations(faces, 2):
            assert intersect(f1, f2) in fset


def test_face_interior_point_recovers_tight_set():
    rng = random.Random(97)
    for _ in range(25):
        c = random_cone(rng, max_rank=4, max_gens=7, entry=3)
        for f in c.faces():
            p = relative_interior_point(f.cone)
            assert c.contains(p)
            if not f.cone.rays and f.cone.lineality:
                continue  # subspace face: the origin is tight on everything
            tight = frozenset(j for j, fac in enumerate(c.facets) if dot(p, fac) == 0)
            assert tight == tight_facets(c, f.mask)


def test_relative_interior_point_examples():
    assert relative_interior_point(orthant()) == (1, 1)
    assert relative_interior_point(cone_from_generators(3, [(1, 0, -2)])) == (1, 0, -2)
    assert relative_interior_point(zero_cone(2)) == (0, 0)


def test_contains_examples():
    c = orthant()
    assert c.contains((0, 0))
    assert not c.contains((-1, 2))
    from fractions import Fraction
    assert c.contains((Fraction(1, 2), Fraction(3, 7)))


def test_predicates():
    c = orthant()
    assert c.is_strongly_convex() and is_unimodular(c) and c.dim() == 2
    s = cone_from_generators(2, [(1, 1), (1, -1)])
    assert s.is_strongly_convex() and not is_unimodular(s) and s.dim() == 2
    h = cone_from_generators(2, [(0, 1)], [(1, 0)])
    assert not h.is_strongly_convex() and h.dim() == 2


def test_dual_strong_convexity_iff_full_dimensional():
    rng = random.Random(5150)
    for _ in range(60):
        c = random_cone(rng, max_rank=5, max_gens=8, entry=3)
        assert dual_cone(c).is_strongly_convex() == (c.dim() == c.rank)


def test_cone_from_inequalities_matches_membership():
    rng = random.Random(77)
    for _ in range(40):
        n = rng.randint(1, 4)
        ineqs = random_generators(rng, n, rng.randint(0, 5), 3)
        c = cone_from_inequalities(n, ineqs)
        for _ in range(15):
            v = tuple(rng.randint(-3, 3) for _ in range(n))
            assert c.contains(v) == all(dot(v, a) >= 0 for a in ineqs)


def test_is_face_of():
    c = orthant()
    assert is_face_of(cone_from_generators(2, [(1, 0)]), c)
    assert is_face_of(zero_cone(2), c)
    assert is_face_of(c, c)
    assert not is_face_of(cone_from_generators(2, [(1, 1)]), c)
    sub = cone_from_generators(2, [(1, 0), (1, 1)])
    assert is_subcone(sub, c) and not is_face_of(sub, c)


@pytest.mark.parametrize("with_lineality", [False, True])
def test_face_mask_and_is_face_of_agree_with_the_oracle(with_lineality):
    rng = random.Random(1414 + with_lineality)
    for _ in range(40):
        c = random_cone(rng, max_rank=4, max_gens=7, entry=3)
        if with_lineality:
            c = cone_from_generators(c.rank, list(c.rays),
                                     list(c.lineality) + random_generators(rng, c.rank, 1, 2))
        walked = walk_faces(c)
        for f in walked:
            assert c.face_mask(f.cone.rays) == f.mask
            assert is_face_of(f.cone, c) and is_face_of_oracle(f.cone, c)
        masks = {f.mask for f in walked}
        for _ in range(8):
            m = rng.getrandbits(len(c.rays)) if c.rays else 0
            rays = [r for i, r in enumerate(c.rays) if m >> i & 1]
            assert c.face_mask(rays) == (m if m in masks else None)
        others = [zero_cone(c.rank), zero_cone(c.rank + 1), c,
                  cone_from_generators(c.rank, c.rays),
                  cone_from_generators(c.rank, c.rays, c.lineality
                                       + tuple(random_generators(rng, c.rank, 1, 2)))]
        for _ in range(6):
            sub = [r for r in c.rays if rng.random() < 0.5]
            if len(c.rays) > 1 and rng.random() < 0.5:
                a, b = rng.sample(c.rays, 2)
                sub.append(tuple(x + y for x, y in zip(a, b)))
            others.append(cone_from_generators(c.rank, sub, c.lineality))
        for d in others:
            assert is_face_of(d, c) == is_face_of_oracle(d, c), (d, c)


def test_direct_construction_forbidden():
    with pytest.raises(ConeError):
        Cone(2, ((1, 0),), (), None, None)


def test_equality_is_canonical():
    a = cone_from_generators(2, [(1, 0), (0, 1), (2, 3)])
    b = cone_from_generators(2, [(0, 2), (3, 0)])
    assert a == b and hash(a) == hash(b)


@given(st.lists(st.lists(st.integers(-3, 3), min_size=3, max_size=3).map(tuple),
                min_size=1, max_size=5),
       st.integers(1, 4), st.randoms(use_true_random=False))
@settings(max_examples=50, deadline=None)
def test_canonical_form_invariant_under_scaling_and_order(gens, scale, rnd):
    c = cone_from_generators(3, gens)
    shuffled = list(gens)
    rnd.shuffle(shuffled)
    scaled = [tuple(scale * x for x in g) for g in shuffled]
    assert cone_from_generators(3, scaled) == c


# -- the integer, single-DD construction against the Fraction, two-DD oracle ----

def _solve_fraction(matrix, rhs):
    """Solve a square nonsingular system exactly (Gaussian elimination)."""
    n = len(matrix)
    m = [row[:] + [rhs[i]] for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next(i for i in range(col, n) if m[i][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [m[i][n] for i in range(n)]


def fraction_reduction(v, basis):
    """Orthogonal representative of v modulo span(basis), by a Fraction Gram
    solve, integerized; None when v lies in the span."""
    if not basis:
        return primitive(v)
    gram = [[Fraction(dot(bi, bj)) for bj in basis] for bi in basis]
    coeff = _solve_fraction(gram, [Fraction(dot(bi, v)) for bi in basis])
    w = [x - sum(c * b[k] for c, b in zip(coeff, basis)) for k, x in enumerate(v)]
    return None if all(x == 0 for x in w) else integerize(w)


def oracle_canonicalize(rank, raw_rays, raw_lin):
    lin = saturated_subspace_basis(raw_lin, rank)
    rays = {fraction_reduction(r, lin) for r in raw_rays if any(r)}
    return tuple(sorted(rays - {None})), lin


def two_dd_oracle(rank, generators, lineality_generators=()):
    """(rays, lineality, facets, span_eqs) by DD twice: generators -> facets
    -> rays, each result canonicalized with the Fraction reduction."""
    gens = [primitive(g) for g in generators if any(g)]
    lins = [primitive(g) for g in lineality_generators if any(g)]
    facets, span_eqs = oracle_canonicalize(rank, *vrep_from_constraints(rank, gens, lins))
    rays, lin = oracle_canonicalize(
        rank, *vrep_from_constraints(rank, list(facets), list(span_eqs)))
    return rays, lin, facets, span_eqs


@st.composite
def generator_sets(draw):
    """Rank 1-7, 0-12 generators and 0-3 lineality generators, with
    duplicates, positive multiples, zero vectors and generators inside the
    lineality mixed in."""
    rank = draw(st.integers(1, 7))
    vec = st.lists(st.integers(-3, 3), min_size=rank, max_size=rank).map(tuple)
    gens = draw(st.lists(vec, max_size=12))
    lins = draw(st.lists(vec, max_size=3))
    extras = []
    for kind in draw(st.lists(st.sampled_from(["dup", "multiple", "zero", "in_lin"]),
                              max_size=3)):
        if kind == "zero":
            extras.append((0,) * rank)
        elif kind == "in_lin" and lins:
            coeffs = draw(st.lists(st.integers(-2, 2), min_size=len(lins),
                                   max_size=len(lins)))
            extras.append(tuple(sum(c * l[k] for c, l in zip(coeffs, lins))
                                for k in range(rank)))
        elif gens and kind in ("dup", "multiple"):
            g = draw(st.sampled_from(gens))
            extras.append(g if kind == "dup" else tuple(draw(st.integers(2, 4)) * x
                                                        for x in g))
    gens = draw(st.permutations(gens + extras))
    return rank, gens[:12], lins


def assert_matches_oracle(rank, gens, lins=()):
    c = cone_from_generators(rank, gens, lins)
    assert (c.rays, c.lineality, c.facets, c.span_eqs) == two_dd_oracle(rank, gens, lins)
    assert c.dim() == matrix_rank(list(c.rays) + list(c.lineality))
    assert (c.rays, c.lineality, c.facets, c.span_eqs, c.dim()) == \
        cone_from_generators_oracle(rank, gens, lins)


@given(generator_sets())
@settings(max_examples=300, deadline=None)
def test_single_dd_construction_matches_two_dd_oracle(data):
    assert_matches_oracle(*data)


@pytest.mark.parametrize("rank, gens, lins", [
    (3, [], []),                                               # {0}
    (3, [(0, 0, 0)], []),                                      # {0} from a zero vector
    (3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)], []),
    (3, [(1, 1, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),      # full space
    (3, [(1, 0, 0), (2, 0, 0), (1, 0, 0), (0, 1, 0)], []),    # duplicate, multiple
    (3, [(1, 2, 0), (0, 0, 1), (1, 2, 5)], [(1, 2, 3)]),       # generator in the lineality
    (4, [(1, 0, 0, 0), (0, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 1, 1)], []),
    (3, [(0, 0, 0), (0, 0, 0)], [(0, 0, 0)]),                  # zero generators only
    (2, [], [(1, 0), (0, 1)]),                                 # lineality only, full space
    (3, [(2, 0, 0), (0, 0, 0)], [(0, 3, 0), (0, -3, 0)]),      # ray over a line
    (4, [(1, 1, 0, 0), (0, 0, 1, 0)], [(1, -1, 0, 0), (2, -2, 0, 0)]),
])
def test_single_dd_construction_edge_cases(rank, gens, lins):
    assert_matches_oracle(rank, gens, lins)


@given(st.integers(1, 7).flatmap(lambda rank: st.tuples(
    st.lists(st.integers(-4, 4), min_size=rank, max_size=rank).map(tuple),
    st.lists(st.lists(st.integers(-4, 4), min_size=rank, max_size=rank).map(tuple),
             max_size=rank))))
@example(((3, -2, 5, 1), [(1, 0, 0, 0), (0, 0, 1, 0)]))   # a coordinate subspace
@example(((2, -3, 4), [(1, 1, 0), (0, 0, 1)]))          # a non-unit vector, then a unit one
@example(((2, -3, 4), [(0, 1, 0), (1, 1, 1)]))          # a unit vector, then a non-unit one
@example(((2, -3, 4), [(1, 0, 0), (0, 1, 1)]))          # the same, in Hermite form
@settings(max_examples=300, deadline=None)
def test_integer_reduction_equals_fraction_reduction(data):
    v, vectors = data
    lin = saturated_subspace_basis(vectors, len(v))
    space = cones._orthogonal_basis(lin)
    # the Gram-Schmidt vectors are pairwise orthogonal and span the lineality
    assert all(dot(a, b) == 0 for a, b in itertools.combinations(space, 2))
    assert len(space) == len(lin) == matrix_rank(list(lin) + space)
    expected = fraction_reduction(v, lin) if any(v) else None
    assert cones._orthogonal_representative(v, space) == expected


# -- face dimensions graded from the mask walk against exact.rank ---------------

@given(generator_sets())
@settings(max_examples=150, deadline=None)
def test_graded_face_dims_equal_rank(data):
    c = cone_from_generators(*data)
    faces = c.faces()
    for f in faces:
        gens = list(f.cone.rays) + list(f.cone.lineality)
        assert f.cone.dim() == (matrix_rank(gens) if gens else 0)
    assert [f.cone.dim() for f in faces] == sorted(f.cone.dim() for f in faces)
    assert faces[-1].cone == c


@given(st.integers(min_value=0, max_value=1 << 300))
def test_bit_indices_are_the_set_bits_lowest_first(mask):
    assert cones._bit_indices(mask) == [i for i, b in enumerate(bin(mask)[:1:-1]) if b == "1"]


# -- a walk pruned to some facets against the whole face lattice ----------------

@given(generator_sets(), st.data())
@settings(max_examples=150, deadline=None)
def test_walk_faces_equals_the_faces_inside_its_start(gens, data):
    # the start is the set of `lower` facets: the walk gives the faces on
    # one of them, and the minimal face
    c = cone_from_generators(*gens)
    faces = c.faces()
    lower = data.draw(st.integers(0, (1 << len(c.facets)) - 1))
    walked = walk_faces(c, lower)
    expected = [f for f in faces
                if f is faces[0] or any(lower >> j & 1 for j in tight_facets(c, f.mask))]
    assert len(walked) == len({f.mask for f in walked})
    assert ({f.mask: (f.cone, f.cone.dim()) for f in walked}
            == {f.mask: (f.cone, f.cone.dim()) for f in expected})


# -- the walk up by covers against the closure-and-grade walk it replaced --------

@given(generator_sets(), st.data())
@settings(max_examples=200, deadline=None)
def test_walk_faces_matches_the_closure_oracle(gens, data):
    c = cone_from_generators(*gens)
    assert_walk_matches_oracle(c)
    assert_walk_matches_oracle(c, data.draw(st.integers(0, (1 << len(c.facets)) - 1)))
    assert_walk_matches_oracle(c, data.draw(st.none() | st.integers(0, (1 << len(c.facets)) - 1)),
                               data.draw(st.integers(0, (1 << len(c.rays)) - 1)))


# -- a walk pruned to some rays against the unpruned walk ------------------------

@given(generator_sets(), st.data())
@settings(max_examples=150, deadline=None)
def test_walk_faces_within_equals_the_unpruned_walk_filtered(gens, data):
    # the walk with `within` gives the faces of the walk without it whose
    # rays all lie in `within`, with the same grades
    c = cone_from_generators(*gens)
    lower = data.draw(st.none() | st.integers(0, (1 << len(c.facets)) - 1))
    within = data.draw(st.integers(0, (1 << len(c.rays)) - 1))
    walked = walk_faces(c, lower, within)
    expected = [f for f in walk_faces(c, lower) if f.mask & ~within == 0]
    assert len(walked) == len(expected)
    assert ({f.mask: (f.cone, f.cone.dim()) for f in walked}
            == {f.mask: (f.cone, f.cone.dim()) for f in expected})


@pytest.mark.parametrize("c", [
    zero_cone(3),
    cone_from_inequalities(3, [], [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),   # its dim not yet known
    cone_from_generators(3, [], [(1, 0, 0), (0, 1, 1)]),
    orthant(3),
    cone_from_generators(4, [(1, 0, 0, 0), (0, 1, 0, 0), (1, 1, 2, 0)], [(0, 0, 1, 1)]),
], ids=["zero", "zero-by-equalities", "subspace", "orthant", "lineality"])
def test_walk_faces_matches_the_closure_oracle_on_every_pruning(c):
    for lower in [None, *range(1 << len(c.facets))]:
        assert_walk_matches_oracle(c, lower)
        for within in range(1 << len(c.rays)):
            assert_walk_matches_oracle(c, lower, within)


# -- the boolean lattice of a simplicial cone against the generic walk -----------

@st.composite
def simplicial_cones(draw):
    """A cone on generators independent modulo its lineality generators,
    pointed or not: a prefix of independent vectors spans the lineality."""
    rank = draw(st.integers(1, 6))
    vectors = draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank)
                            .map(tuple), max_size=rank))
    assume(not vectors or matrix_rank(vectors) == len(vectors))
    lineality = draw(st.integers(0, len(vectors)))
    return cone_from_generators(rank, vectors[lineality:], vectors[:lineality])


@given(simplicial_cones())
@settings(max_examples=150, deadline=None)
def test_simplicial_walk_is_the_boolean_lattice_of_the_generic_walk(c):
    assert len(c.rays) == c.dim() - len(c.lineality)
    boolean = cones.walk_masks(c)
    assert c._facet_masks is None
    # `within` holding every ray prunes nothing but takes the generic walk (a
    # `lower` of every facet would drop the cone itself, tight on none)
    every_ray = (1 << len(c.rays)) - 1
    generic = cones.walk_masks(c, within=every_ray)
    assert [set(level) for level in boolean] == [set(level) for level in generic]
    assert [len(level) for level in boolean] == [comb(len(c.rays), k)
                                                  for k in range(len(c.rays) + 1)]
    text = formats.write_faces(c)
    real = cones.walk_masks
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cones, "walk_masks", lambda cone, lower=None, within=None: real(
            cone, lower, within if lower is not None or within is not None
            else (1 << len(cone.rays)) - 1))
        assert formats.write_faces(c) == text


# -- the descent from the cone or its facets against the walk up by covers -------

@st.composite
def cones_with_many_rays(draw):
    """Cones on rank + 1 to 10 generators with a first entry > 0 and 0-2
    lineality generators with a first entry 0: pointed modulo the
    lineality, and more often than `generator_sets` gives, with more rays
    than their grade."""
    rank = draw(st.integers(2, 6))
    tail = st.lists(st.integers(-3, 3), min_size=rank - 1, max_size=rank - 1).map(tuple)
    gens = draw(st.lists(st.tuples(st.integers(1, 3)).flatmap(
        lambda head: tail.map(lambda rest: head + rest)), min_size=rank + 1, max_size=10))
    lins = draw(st.lists(tail.map(lambda rest: (0,) + rest), max_size=2))
    return cone_from_generators(rank, gens, lins)


@st.composite
def zero_one_cones(draw):
    """Cones over 0/1 polytopes of dimension 4 and 5: their faces of grade 3
    and more are often not simplicial, so a meet of a face with a facet of
    the cone can hold as many rays as a facet of the face and be none."""
    rank = draw(st.integers(5, 6))
    corners = list(itertools.product((0, 1), repeat=rank - 1))
    chosen = draw(st.lists(st.sampled_from(corners), min_size=rank + 4, unique=True))
    return cone_from_generators(rank, [(1,) + corner for corner in chosen])


walk_cones = st.one_of(generator_sets().map(lambda gens: cone_from_generators(*gens)),
                       cones_with_many_rays(), zero_one_cones())


@given(walk_cones, st.data())
@settings(max_examples=300, deadline=None)
def test_walk_down_equals_the_walk_up_over_every_ray(c, data):
    # `lower` None, 0, or any set of facets
    assert_walk_down_equals_the_walk_up(c)
    assert_walk_down_equals_the_walk_up(c, 0)
    assert_walk_down_equals_the_walk_up(
        c, data.draw(st.integers(0, (1 << len(c.facets)) - 1)))


def test_walk_cones_are_pointed_or_not_and_often_not_simplicial():
    seen = set()

    @given(walk_cones)
    @settings(max_examples=200, deadline=None, database=None)
    def probe(c):
        kind = "with lineality" if c.lineality else "pointed"
        seen.add(kind)
        if len(c.rays) > c.dim() - len(c.lineality):
            seen.add(f"non-simplicial {kind}")

    probe()
    assert seen == {"pointed", "with lineality", "non-simplicial pointed",
                    "non-simplicial with lineality"}


# -- DD with the adjacency pre-filter against DD without it ----------------------

def dd_without_prefilter(dim, inequalities):
    """`cones._dd` as it was before the popcount pre-filter: every
    positive/negative pair goes through the scan over all rays."""
    constraints = [a for a in inequalities if any(a)]
    lin = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    for idx, a in enumerate(constraints):
        hit = next((i for i, b in enumerate(lin) if dot(a, b) != 0), None)
        if hit is not None:
            b = lin.pop(hit)
            vb = dot(a, b)
            if vb < 0:
                b, vb = tuple(-x for x in b), -vb
            lin = [primitive(tuple(vb * u[k] - dot(a, u) * b[k] for k in range(dim)))
                   for u in lin]
            rays = [(primitive(tuple(vb * r[k] - dot(a, r) * b[k] for k in range(dim))),
                     mask | (1 << idx)) for r, mask in rays]
            rays.append((b, (1 << idx) - 1))
            continue
        pos, zero, neg = [], [], []
        for i, (r, mask) in enumerate(rays):
            v = dot(a, r)
            if v > 0:
                pos.append((r, mask, v, i))
            elif v < 0:
                neg.append((r, mask, v, i))
            else:
                zero.append((r, mask | (1 << idx)))
        new = [(r, m) for r, m, _, _ in pos] + zero
        for rp, mp, vp, ip in pos:
            for rn, mn, vn, jn in neg:
                common = mp & mn
                if any(k != ip and k != jn and (common & ~m) == 0
                       for k, (_, m) in enumerate(rays)):
                    continue
                combo = primitive(tuple(vp * rn[k] - vn * rp[k] for k in range(dim)))
                new.append((combo, common | (1 << idx)))
        rays = new
    return [r for r, _ in rays], lin


@given(st.integers(1, 6).flatmap(lambda dim: st.tuples(st.just(dim), st.lists(
    st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple), max_size=12))))
@settings(max_examples=300, deadline=None)
def test_dd_prefilter_keeps_rays_and_lineality(system):
    dim, inequalities = system
    rays, lin = cones._dd(dim, inequalities)
    expected_rays, expected_lin = dd_without_prefilter(dim, inequalities)
    assert (set(rays), set(lin)) == (set(expected_rays), set(expected_lin))


# -- the one-pairing-per-vector kernel against its per-coordinate version --------
# `dd_oracle`, `vrep_oracle` and `cone_from_generators_oracle` are the DD,
# the constraint conversion and the generator construction as they were
# before each DD step paired a vector once and before the span equalities
# and the lineality each took one HNF instead of two.

def dd_oracle(dim, inequalities):
    constraints = [a for a in inequalities if not is_zero_vec(a)]
    lin = [tuple(1 if j == i else 0 for j in range(dim)) for i in range(dim)]
    rays = []
    for idx, a in enumerate(constraints):
        hit = next((i for i, b in enumerate(lin) if dot(a, b) != 0), None)
        if hit is not None:
            b = lin.pop(hit)
            vb = dot(a, b)
            if vb < 0:
                b, vb = vec_neg(b), -vb
            lin = [primitive(tuple(vb * u[k] - dot(a, u) * b[k] for k in range(dim)))
                   for u in lin]
            rays = [(primitive(tuple(vb * r[k] - dot(a, r) * b[k] for k in range(dim))),
                     mask | (1 << idx)) for r, mask in rays]
            rays.append((b, (1 << idx) - 1))
            continue
        pos, zero, neg = [], [], []
        for pos_in_list, (r, mask) in enumerate(rays):
            v = dot(a, r)
            if v > 0:
                pos.append((r, mask, v, pos_in_list))
            elif v < 0:
                neg.append((r, mask, v, pos_in_list))
            else:
                zero.append((r, mask | (1 << idx)))
        if not neg:
            rays = [(r, m) for r, m, _, _ in pos] + zero
            continue
        new = [(r, m) for r, m, _, _ in pos] + zero
        need = dim - len(lin) - 2
        for rp, mp, vp, ip in pos:
            for rn, mn, vn, jn in neg:
                common = mp & mn
                if common.bit_count() < need or any(
                        k != ip and k != jn and (common & ~m) == 0
                        for k, (_, m) in enumerate(rays)):
                    continue
                combo = primitive(tuple(vp * rn[k] - vn * rp[k] for k in range(dim)))
                new.append((combo, common | (1 << idx)))
        rays = new
    return [r for r, _ in rays], lin


def vrep_oracle(dim, ineqs, eqs):
    ineqs = [primitive(a) for a in ineqs if not is_zero_vec(a)]
    seen = set()
    uniq = []
    extra_eqs = []
    for a in ineqs:
        if a in seen:
            continue
        if vec_neg(a) in seen:
            extra_eqs.append(a)
            continue
        seen.add(a)
        uniq.append(a)
    eqs = [e for e in eqs if not is_zero_vec(e)] + extra_eqs
    if eqs:
        sub = kernel_basis(eqs, dim)
        if not sub:
            return [], []
        restricted = [tuple(dot(b, a) for b in sub) for a in uniq]
        rays_c, lin_c = dd_oracle(len(sub), restricted)
        return ([tuple(sum(ci * b[k] for ci, b in zip(c, sub)) for k in range(dim))
                 for c in rays_c],
                [tuple(sum(ci * b[k] for ci, b in zip(c, sub)) for k in range(dim))
                 for c in lin_c])
    return dd_oracle(dim, uniq)


def canonicalize_oracle(rank, raw_rays, raw_lin):
    lin = saturated_subspace_basis(raw_lin, rank)
    ortho = cones._orthogonal_basis(lin)
    rays = set()
    for r in raw_rays:
        red = cones._orthogonal_representative(r, ortho)
        if red is not None:
            rays.add(red)
    return tuple(sorted(rays)), lin


def cone_from_generators_oracle(rank, generators, lineality_generators=()):
    """(rays, lineality, facets, span_eqs, dim)."""
    gens = [primitive(g) for g in generators if not is_zero_vec(g)]
    lins = [primitive(g) for g in lineality_generators if not is_zero_vec(g)]
    facets_raw, span_raw = vrep_oracle(rank, gens, lins)
    facets, span_eqs = canonicalize_oracle(rank, facets_raw, span_raw)
    full = (1 << len(facets)) - 1
    ray_of_mask = {}
    for g in gens:
        mask = 0
        for j, f in enumerate(facets):
            if dot(g, f) == 0:
                mask |= 1 << j
        if mask == full:
            lins.append(g)
        else:
            ray_of_mask.setdefault(mask, g)
    lin = saturated_subspace_basis(lins, rank)
    ortho = cones._orthogonal_basis(lin)
    rays = sorted(cones._orthogonal_representative(g, ortho)
                  for mask, g in ray_of_mask.items()
                  if not any(mask & ~other == 0 for other in ray_of_mask if other != mask))
    return tuple(rays), lin, facets, span_eqs, rank - len(span_eqs)


@st.composite
def lineality_rich_systems(draw):
    """Dim 1-6 and up to 8 rows, plus repeated rows, negated rows and integer
    combinations of two rows, inserted at random places."""
    dim = draw(st.integers(1, 6))
    vec = st.lists(st.integers(-3, 3), min_size=dim, max_size=dim).map(tuple)
    rows = draw(st.lists(vec, max_size=8))
    for kind in draw(st.lists(st.sampled_from(["repeat", "negate", "combine"]),
                              max_size=6)):
        if not rows:
            break
        a = draw(st.sampled_from(rows))
        if kind == "repeat":
            extra = a
        elif kind == "negate":
            extra = tuple(-x for x in a)
        else:
            b = draw(st.sampled_from(rows))
            c, d = draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
            extra = tuple(c * x + d * y for x, y in zip(a, b))
        rows.insert(draw(st.integers(0, len(rows))), extra)
    return dim, rows


@given(lineality_rich_systems())
@settings(max_examples=250, deadline=None)
def test_dd_equals_per_coordinate_oracle_in_order(system):
    dim, rows = system
    assert cones._dd(dim, rows) == dd_oracle(dim, rows)
    assert cone_from_inequalities(dim, rows, rows[:2]) == make_cone(
        dim, *vrep_oracle(dim, rows, rows[:2]))


@given(generator_sets())
@settings(max_examples=150, deadline=None)
def test_lazy_facets_of_every_face_equal_the_two_hnf_oracle(data):
    rank, gens, lins = data
    for c in (cone_from_generators(rank, gens, lins), cone_from_inequalities(rank, gens, lins)):
        for facets_first in (True, False):
            for face in walk_faces(c):
                f = face.cone
                assert f._facets is None and f._span_eqs is None
                if facets_first:
                    got = f.facets, f.span_eqs
                else:
                    span_eqs = f.span_eqs
                    got = f.facets, span_eqs
                expected = oracle_canonicalize(
                    rank, *vrep_oracle(rank, list(f.rays), list(f.lineality)))
                assert got == expected


@given(generator_sets())
@settings(max_examples=100, deadline=None)
def test_span_equalities_of_walked_faces_are_the_kernel_of_their_generators(data):
    # the separate kernel of the rays and lineality, kept as the oracle of
    # the span equalities the facet DD gives
    rank, gens, lins = data
    for facets_first in (True, False):
        for face in walk_faces(cone_from_generators(rank, gens, lins)):
            f = face.cone
            if facets_first:
                f.facets
            assert f.span_eqs == kernel_basis(list(f.rays) + list(f.lineality), rank)


@given(lineality_rich_systems())
@settings(max_examples=150, deadline=None)
def test_cone_from_generators_equals_two_hnf_oracle_on_lineality_rich_input(system):
    dim, rows = system
    assert_matches_oracle(dim, rows)
    assert_matches_oracle(dim, rows[2:], rows[:2])


# -- the table of `_read_off` against an explicit pairing -------------------------

def assert_table_is_the_full_coordinate_pairing(rank, gens, lins):
    """`_read_off` of `_canonical_vrep` on raw rows, with each generator
    also shifted by a lineality generator so that projections coincide,
    builds the cone of `cone_from_generators`; its masks and negatives are `pair_with_D`'s
    rule, each generator paired with the canonical facets in all
    coordinates, and its ray masks are the rays' facet masks."""
    gens = list(gens) + [tuple(x + y for x, y in zip(g, l)) for g, l in zip(gens, lins)]
    lins = list(lins)
    c, masks, negative, ray_masks = cones._read_off(
        rank, *cones._canonical_vrep(rank, gens, lins), lins)
    expected = cone_from_generators(rank, gens, lins)
    assert (c.rays, c.lineality, c.facets, c.span_eqs, c.dim()) == (
        expected.rays, expected.lineality, expected.facets, expected.span_eqs, expected.dim())
    paired = {g: [dot(g, f) for f in c.facets] for g in gens}
    assert masks == {g: sum(1 << j for j, v in enumerate(p) if v == 0) for g, p in paired.items()}
    assert negative == [g for g, p in paired.items() if any(v < 0 for v in p)] == []
    assert ray_masks == tuple(sum(1 << j for j, f in enumerate(c.facets) if dot(r, f) == 0)
                              for r in c.rays)


@given(generator_sets())
@settings(max_examples=200, deadline=None)
def test_generated_table_equals_the_full_coordinate_pairing(data):
    assert_table_is_the_full_coordinate_pairing(*data)


@given(lineality_rich_systems())
@settings(max_examples=150, deadline=None)
def test_generated_table_equals_the_full_coordinate_pairing_on_lineality_rich_input(system):
    dim, rows = system
    assert_table_is_the_full_coordinate_pairing(dim, rows, [])
    assert_table_is_the_full_coordinate_pairing(dim, rows[2:], rows[:2])
