import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import integerize, lattice_basis_extension_test
from mockfan.exact import (ExactError, dot, hnf, is_zero_vec,
                           kernel_basis, primitive, rank, xgcd)

vec = st.lists(st.integers(-20, 20), min_size=1, max_size=6).map(tuple)
nonzero_vec = vec.filter(lambda v: any(v))


def elementary_divisors(rows):
    """Nonzero elementary divisors d_1 | d_2 | ... (Smith normal form diagonal).

    The oracle of `lattice_basis_extension_test`: independent rows extend to
    a lattice basis iff every elementary divisor is 1.
    """
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    divisors = []
    top = 0
    while True:
        piv = None
        for i in range(top, m):
            for j in range(top, n):
                if work[i][j] != 0 and (piv is None or abs(work[i][j]) < abs(work[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        pi, pj = piv
        work[top], work[pi] = work[pi], work[top]
        for row in work:
            row[top], row[pj] = row[pj], row[top]
        dirty = False
        p = work[top][top]
        for i in range(top + 1, m):
            if work[i][top] % p:
                dirty = True
            q = work[i][top] // p
            if q:
                work[i] = [work[i][k] - q * work[top][k] for k in range(n)]
        for j in range(top + 1, n):
            if work[top][j] % p:
                dirty = True
            q = work[top][j] // p
            if q:
                for row in work:
                    row[j] -= q * row[top]
        if dirty:
            continue
        # pivot divides everything it cleared; enforce divisibility on the rest
        bad = None
        for i in range(top + 1, m):
            for j in range(top + 1, n):
                if work[i][j] % p:
                    bad = i
                    break
            if bad is not None:
                break
        if bad is not None:
            work[top] = [a + b for a, b in zip(work[top], work[bad])]
            continue
        divisors.append(abs(p))
        top += 1
    return tuple(divisors)


def test_primitive_examples():
    assert primitive((2, 4, -6)) == (1, 2, -3)
    assert primitive((0, 0, 5)) == (0, 0, 1)
    assert primitive((7, -7)) == (1, -1)


def test_primitive_zero_vector():
    with pytest.raises(ExactError, match="zero vector"):
        primitive((0, 0, 0))


@given(nonzero_vec)
def test_primitive_idempotent(v):
    p = primitive(v)
    assert primitive(p) == p
    assert math.gcd(*[abs(x) for x in p]) in (0, 1) or len(p) == 1


@given(nonzero_vec, st.integers(1, 9))
def test_primitive_scaling_invariant(v, c):
    assert primitive(tuple(c * x for x in v)) == primitive(v)


def test_rank_examples():
    assert rank([(1, 0, 0), (0, 1, 0), (0, 0, 1)]) == 3
    assert rank([(1, 0), (2, 0)]) == 1
    assert rank([]) == 0
    assert rank([(0, 0)]) == 0


@given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3).map(tuple),
                min_size=1, max_size=5), st.randoms(use_true_random=False))
@settings(max_examples=80)
def test_rank_invariant_under_row_ops(rows, rnd):
    r = rank(rows)
    shuffled = list(rows)
    rnd.shuffle(shuffled)
    assert rank(shuffled) == r
    if len(rows) >= 2:
        i, j = 0, len(rows) - 1
        modified = list(rows)
        modified[i] = tuple(a + 3 * b for a, b in zip(rows[i], rows[j]))
        if i != j:
            assert rank(modified) == r


def test_hnf_canonical_for_row_lattice():
    a = hnf([(2, 4), (2, 2)])
    b = hnf([(2, 2), (2, 4), (4, 6)])
    assert a == b
    assert a == ((2, 0), (0, 2))


def test_hnf_pivots_positive_and_reduced():
    h = hnf([(0, 3), (5, 7)])
    assert h == ((5, 1), (0, 3))


def test_kernel_basis_orthogonal_and_saturated():
    rows = [(1, 1, 1)]
    k = kernel_basis(rows, 3)
    assert len(k) == 2
    for v in k:
        assert dot(v, rows[0]) == 0
    # saturation: (1, -1, 0) und (0, 1, -1) must be integer combinations
    assert rank(list(k) + [(1, -1, 0)]) == 2
    assert elementary_divisors(k) == (1, 1)


def test_kernel_of_nothing_is_identity():
    assert kernel_basis([], 2) == ((1, 0), (0, 1))
    assert kernel_basis([(0, 0)], 2) == ((1, 0), (0, 1))


def test_elementary_divisors():
    assert elementary_divisors([(1, 1), (1, -1)]) == (1, 2)
    assert elementary_divisors([(2, 0), (0, 3)]) == (1, 6)
    assert elementary_divisors([(0, 0)]) == ()


def test_lattice_basis_extension_examples():
    assert lattice_basis_extension_test([(1, 0, 0), (0, 1, 0)]) is True
    assert lattice_basis_extension_test([(2, 0)]) is False
    assert lattice_basis_extension_test([(1, 1), (1, -1)]) is False


def test_lattice_basis_extension_dependent_rows():
    with pytest.raises(ExactError, match="independent"):
        lattice_basis_extension_test([(1, 0), (2, 0)])


@given(nonzero_vec)
@settings(max_examples=60)
def test_single_vector_extension_iff_primitive(v):
    assert lattice_basis_extension_test([v]) == (primitive(v) == tuple(v))


@given(st.integers(1, 5).flatmap(lambda n: st.lists(
    st.lists(st.integers(-4, 4), min_size=n, max_size=n).map(tuple),
    min_size=0, max_size=n)))
@settings(max_examples=300)
def test_lattice_basis_extension_iff_elementary_divisors_are_one(rows):
    if rank(rows) != len(rows):
        with pytest.raises(ExactError, match="independent"):
            lattice_basis_extension_test(rows)
        return
    divisors = elementary_divisors(rows)
    assert len(divisors) == len(rows)
    assert lattice_basis_extension_test(rows) == all(d == 1 for d in divisors)


def test_integerize():
    from fractions import Fraction
    assert integerize((Fraction(1, 2), Fraction(1, 3))) == (3, 2)
    assert integerize((2, 4)) == (1, 2)


# -- the builtin-call kernel against its per-coordinate loop versions ------------
# The oracles below are the loop versions the kernel had before `primitive`
# and `is_zero_vec` became single builtin calls and `hnf` and `kernel_basis`
# took their row operations through `zip`.

def gcd_all_oracle(values) -> int:
    g = 0
    for v in values:
        g = math.gcd(g, v)
        if g == 1:
            return 1
    return g


def is_zero_vec_oracle(a) -> bool:
    return all(x == 0 for x in a)


def primitive_oracle(v):
    g = gcd_all_oracle(v)
    if g == 0:
        raise ExactError("zero vector has no primitive representative")
    if g == 1:
        return tuple(v)
    return tuple(x // g for x in v)


def hnf_oracle(rows):
    work = [list(r) for r in rows]
    m = len(work)
    n = len(work[0]) if m else 0
    pr = 0
    for col in range(n):
        piv = None
        for i in range(pr, m):
            if work[i][col] == 0:
                continue
            if piv is None:
                piv = i
                continue
            a, b = work[piv][col], work[i][col]
            g, x, y = xgcd(a, b)
            u, v = a // g, b // g
            rp = [x * work[piv][k] + y * work[i][k] for k in range(n)]
            ri = [u * work[i][k] - v * work[piv][k] for k in range(n)]
            work[piv], work[i] = rp, ri
        if piv is None:
            continue
        work[pr], work[piv] = work[piv], work[pr]
        if work[pr][col] < 0:
            work[pr] = [-x for x in work[pr]]
        p = work[pr][col]
        for i in range(pr):
            q = work[i][col] // p
            if q:
                work[i] = [work[i][k] - q * work[pr][k] for k in range(n)]
        pr += 1
    return tuple(tuple(r) for r in work[:pr])


def kernel_basis_oracle(rows, n):
    rows = [r for r in rows if not is_zero_vec_oracle(r)]
    if not rows:
        return tuple(tuple(1 if k == j else 0 for k in range(n)) for j in range(n))
    m = len(rows)
    aug = [[rows[i][j] for i in range(m)] + [1 if k == j else 0 for k in range(n)]
           for j in range(n)]
    reduced = hnf_oracle(aug)
    kernel = [r[m:] for r in reduced if is_zero_vec_oracle(r[:m])]
    return tuple(tuple(r) for r in kernel)


any_vec = st.lists(st.integers(-30, 30) | st.just(0), max_size=6).map(tuple)


@given(any_vec)
@settings(max_examples=200)
def test_gcd_primitive_and_zero_test_match_loop_oracles(v):
    assert is_zero_vec(v) == is_zero_vec_oracle(v)
    if gcd_all_oracle(v) == 0:
        with pytest.raises(ExactError, match="zero vector"):
            primitive(v)
        with pytest.raises(ExactError, match="zero vector"):
            primitive_oracle(v)
    else:
        assert primitive(v) == primitive_oracle(v)
        assert type(primitive(list(v))) is tuple


def test_kernel_edge_vectors_match_loop_oracles():
    for v in [(), (0,), (0, 0, 0), (-4,), (-6, -9), (0, -3, 0), (1,), (-1, 0, 1)]:
        assert is_zero_vec(v) == is_zero_vec_oracle(v)
    assert primitive((-6, -9)) == primitive_oracle((-6, -9)) == (-2, -3)
    for zero in [(), (0,), (0, 0)]:
        with pytest.raises(ExactError, match="zero vector"):
            primitive(zero)


@given(st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=4)
                | st.just(Fraction(0)) | st.integers(-2, 2), max_size=5))
@settings(max_examples=100)
def test_is_zero_vec_matches_oracle_on_fractions(v):
    assert is_zero_vec(v) == is_zero_vec_oracle(v)
    assert is_zero_vec([Fraction(0)] * len(v)) is True


@st.composite
def matrices_with_zero_rows_and_columns(draw):
    """An integer matrix, 0-6 rows by 1-6 columns, with whole zero rows and
    zero columns put in at random places."""
    n = draw(st.integers(1, 6))
    rows = draw(st.lists(st.lists(st.integers(-9, 9), min_size=n, max_size=n),
                         max_size=6))
    for j in draw(st.lists(st.integers(0, n - 1), max_size=2)):
        for r in rows:
            r[j] = 0
    for i in draw(st.lists(st.integers(0, len(rows)), max_size=2)):
        rows.insert(i, [0] * n)
    return n, [tuple(r) for r in rows]


@given(matrices_with_zero_rows_and_columns())
@settings(max_examples=250)
def test_hnf_and_kernel_basis_match_loop_oracles(data):
    n, rows = data
    assert hnf(rows) == hnf_oracle(rows)
    assert kernel_basis(rows, n) == kernel_basis_oracle(rows, n)
