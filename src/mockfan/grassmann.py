"""Hypersurface-in-Gr(2,n) instance data and its machine verification.

Everything here is explicit integer data for the degree-d linear system on
Gr(2, n) pulled back to a torus fibration over a hyperplane-arrangement
base.  Index conventions:

  I = {(i, j) : 0 <= i <= j <= n-3} indexes the arrangement coordinates;
  the base lattice N is Z^I modulo the all-ones vector and we use the basis
  {e_ij : (i,j) in I, (i,j) != (0,0)}, so the dual M has the basis
  {w_ij - w_00}, which the exponent table below hits directly.

  J = {(i, j) : 0 <= i < j <= n-1} indexes Pluecker coordinates, split as
  J0 = {(0,1)}, J1 = {(i,j) : i < 2, j > 1}, J2 = {(i,j) : i > 1}; a
  degree-d monomial is an alpha in S_{J,d} with weight split (c0, c1, c2)
  across (J0, J1, J2).

Ambient coordinate order for charts: (M block | M-dagger block indexed
-1..n-3 | delta), with the torus-fiber dual block of rank n-1 and one
t-dual slot; the primal side reads (N block | N-dagger block | t).

The instance is symmetric under S_(n-2), the permutations sigma of the
Pluecker indices 2 .. n-1: sigma keeps J0, J1 and J2, so each monomial's
weight split and kappa, and modulo the M block, E = lin D, it permutes the
dagger slots 0 .. n-3.  `verify` works in C's own coordinates, E dropped,
on one row per orbit (`orbit_chart`): C is claimed in closed form
(`lifted_cone_rays`) and certified up to symmetry, the faces of C that
give bounded cells are walked, and each orbit's active cells are compared
with those its weight split expects; the monomials are enumerated only for
the item-level chart (`zero_chart`) behind `report.result`.
`vol_expression` then assembles the signed stratum-class sum over the seven
bounded cones with the known annotations (two point strata, one very
general degree-d hypersurface stratum in P^(2n-5), four symbolic strata).
"""

from __future__ import annotations

import functools
import itertools
from collections import Counter
from math import comb, factorial, prod
from operator import add
from typing import Optional

from ._record import record
from .cones import Cone, _pair_rows
from .exact import IntVec, vec_neg
from .fans import Fan
from .subdivision import (ActiveSets, LiftedChart, LiftedExponent, MockPolytopeChart,
                          SubdivisionInconsistency, SubdivisionResult, _claimed, _lifted, _moves,
                          lift_symmetric_chart)
from .volume import ClassLabel, FormalSum, StratumAnnotation, vol_skeleton


class GrassmannError(ValueError):
    """Invalid parameters or indices for the Gr(2,n) instance."""


class VerificationFailed(RuntimeError):
    """Raised when the computed subdivision does not match the expected data."""


@record
class GrassmannSpec:
    n: int
    d: int
    l: int = 1

    def __post_init__(self):
        if self.n < 4:
            raise GrassmannError("n must be at least 4")
        if self.d < 2:
            raise GrassmannError("d must be at least 2")
        if self.l < 1:
            raise GrassmannError("scale l must be a positive integer")


Pair = tuple[int, int]


@record
class IndexData:
    """Index sets and coordinate layout for one n."""
    n: int
    I: tuple[Pair, ...]
    J: tuple[Pair, ...]
    J0: tuple[Pair, ...]
    J1: tuple[Pair, ...]
    J2: tuple[Pair, ...]

    @property
    def m_rank(self) -> int:
        return len(self.I) - 1

    @property
    def ambient_rank(self) -> int:
        """Rank of the chart lattice: M block + dagger block (n - 1) + delta."""
        return self.m_rank + self.n

    def m_slot(self, pair: Pair) -> int:
        """Coordinate slot of the M basis vector w_pair - w_00; pair != (0,0)."""
        if pair == (0, 0):
            raise GrassmannError("(0,0) has no M coordinate slot")
        return self.I.index(pair) - 1  # (0,0) is lexicographically first in I

    def dagger_slot(self, j: int) -> int:
        """Coordinate slot of eta_j (or e-dagger_j), -1 <= j <= n-3."""
        if not -1 <= j <= self.n - 3:
            raise GrassmannError(f"dagger index {j} out of range")
        return self.m_rank + (j + 1)

    @property
    def delta_slot(self) -> int:
        return self.ambient_rank - 1


@functools.lru_cache(maxsize=None)
def index_data(n: int) -> IndexData:
    if n < 4:
        raise GrassmannError("n must be at least 4")
    I = tuple((i, j) for i in range(n - 2) for j in range(i, n - 2))
    J = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    J0 = ((0, 1),)
    J1 = tuple(p for p in J if p[0] < 2 and p[1] > 1)
    J2 = tuple(p for p in J if p[0] > 1)
    assert len(J) == n * (n - 1) // 2
    return IndexData(n, I, J, J0, J1, J2)


@functools.lru_cache(maxsize=None)
def varpi(n: int, pair: Pair) -> IntVec:
    """Exponent vector of one Pluecker coordinate, in the M + M-dagger blocks."""
    data = index_data(n)
    if pair not in data.J:
        raise GrassmannError(f"{pair} is not in J")
    i, j = pair
    if i == 0:   # (0,1) is 1; (0,2) has no M part, as w_00 - w_00 = 0
        etas, m = ((), None) if j == 1 else ((-1, j - 2), (j - 2, j - 2) if j > 2 else None)
    elif i == 1:
        etas, m = (j - 2,), None
    else:
        etas, m = (-1, i - 2, j - 2), (i - 2, j - 2)
    v = [0] * (data.ambient_rank - 1)
    for k in etas:
        v[data.dagger_slot(k)] += 1
    if m:
        v[data.m_slot(m)] += 1
    return tuple(v)


def _kappa(d: int, c1: int) -> int:
    """t-weight of a monomial of J1 weight c1: 0 at c1 = d, else 2(d - c1) - 1."""
    return 0 if c1 == d else 2 * (d - c1) - 1


def _monomials(spec: GrassmannSpec) -> list[tuple[int, ...]]:
    """S sparse: each monomial as the sorted slots in J of its d factors,
    in lexicographic order of the multidegrees."""
    m = len(index_data(spec.n).J)
    return list(itertools.combinations_with_replacement(range(m), spec.d))[::-1]


@functools.lru_cache(maxsize=None)
def _pair_names(n: int) -> tuple[str, ...]:
    return tuple(f"({i},{j})" for i, j in index_data(n).J)


def _slot_id(names: tuple[str, ...], slots: tuple[int, ...]) -> str:
    """The id of a sparse monomial, e.g. '(0,1)^2*(2,3)', from `_pair_names`."""
    return "*".join(names[s] if k == 1 else f"{names[s]}^{k}"
                    for s, k in Counter(slots).items())


def zero_chart(spec: GrassmannSpec) -> MockPolytopeChart:
    """Chart over the zero cone of the base: support {0} x N-dagger x [0, inf).

    Sigma duals are the +/- M basis (a lineality of the lifted cone) plus
    delta; items are the monomials alpha, with exponent varpi_alpha, the
    sum of the nonzero entries of their factors' varpi, and t-weight
    kappa: 0 at J1 weight c1 = d, else 2(d - c1) - 1, at scale l.
    """
    data = index_data(spec.n)
    r = data.ambient_rank
    duals = [tuple(sign * (j == k) for j in range(r))
             for k in range(data.m_rank) for sign in (1, -1)]
    duals.append(tuple(int(j == data.delta_slot) for j in range(r)))
    names = _pair_names(spec.n)
    entries = [[(k, x) for k, x in enumerate(varpi(spec.n, pair)) if x] for pair in data.J]
    j1 = range(1, 1 + len(data.J1))
    items = []
    for slots in _monomials(spec):
        exponent = [0] * r
        for s in slots:
            for k, x in entries[s]:
                exponent[k] += x
        items.append(LiftedExponent(_slot_id(names, slots), tuple(exponent),
                                    _kappa(spec.d, sum(s in j1 for s in slots))))
    return MockPolytopeChart("zero", r, tuple(duals), tuple(items), scale=spec.l)


def orbit_chart(spec: GrassmannSpec) -> MockPolytopeChart:
    """The zero chart up to symmetry: one item o0, o1, ... per S_(n-2)-orbit
    of its rows (a; b; delta), b sorted, in C's own coordinates (E
    dropped), and the support dual delta.  With V the distinct rows (a; b)
    of J, each with its J1 flag, which must be invariant, the rows of
    degree k are {sort_b(r + v) : r of degree k - 1, v in V}: r + sigma(v)
    and sigma^-1(r) + v lie in one orbit.  No monomial is enumerated.
    """
    n, d, data = spec.n, spec.d, index_data(spec.n)
    j1 = range(1, 1 + len(data.J1))
    V = {(int(s in j1),) + varpi(n, pair)[data.m_rank:] for s, pair in enumerate(data.J)}
    if any({tuple(map(v.__getitem__, p)) for v in V} != V for p in _moves(range(2, n), n)):
        raise SubdivisionInconsistency("subdivision inconsistency: the rows of J are not "
                                       "invariant under the permutations of b")
    reps = {(0,) * n}   # (c1; a; b)
    for _ in range(d):
        reps = {x[:2] + tuple(sorted(x[2:]))
                for x in (tuple(map(add, r, v)) for r in reps for v in V)}
    items = [LiftedExponent(f"o{k}", x[1:] + (0,), _kappa(d, x[0]))
             for k, x in enumerate(sorted(reps))]
    return MockPolytopeChart("zero", n, ((0,) * (n - 1) + (1,),), tuple(items), scale=spec.l)


def _orbit_split(d: int, item: LiftedExponent) -> tuple[int, int, int]:
    """An orbit row's weight split: c1 from kappa, sum(b) = c1 + 2 c2."""
    c1 = d if item.kappa == 0 else d - (item.kappa + 1) // 2
    c2 = (sum(item.exponent[1:-1]) - c1) // 2
    return d - c1 - c2, c1, c2


def _orbit_size(item: LiftedExponent) -> int:
    """The distinct permutations of an orbit row's b: its rows in C's coordinates."""
    b = item.exponent[1:-1]
    return factorial(len(b)) // prod(map(factorial, Counter(b).values()))


CONE_NAMES = ("tau0", "tau1", "tau2", "tau3", "sigma0", "sigma1", "sigma2")


def _dagger_sum_ray(spec: GrassmannSpec, coeff: int) -> IntVec:
    """e_t + coeff * sum of e-dagger_j over 0 <= j <= n-3, as a primal vector."""
    data = index_data(spec.n)
    v = [0] * data.ambient_rank
    for j in range(0, spec.n - 2):
        v[data.dagger_slot(j)] = coeff
    v[data.delta_slot] = 1
    return tuple(v)


def lifted_cone_rays(spec: GrassmannSpec) -> tuple[IntVec, ...]:
    """The 2n + 4 rays of the lifted cone C = D^vee of the zero chart,
    primitive and sorted: instance data, like the expected cones.

    Write a ray (a; b; delta; h), with a the dagger slot -1, b in Z^(n-2)
    the dagger slots 0 .. n-3, delta and the lift h; the M block is 0.
    With 1 the all-ones vector the rays are (1; 0; 0; 0), (-1; 0; 0; d),
    (-1; 1; 0; 0) and (1; -1; 0; d); (0; e_j; 0; 0) and (0; -e_j; 0; d)
    for each j; and the four over tau0 .. tau3, (0; c l 1; 1; h l) for
    (c, h) in (-2, 2d + 1), (-1, d), (1, -d), (2, 1 - 2d).  `verify`
    certifies this claim up to symmetry.
    """
    n, d, l = spec.n, spec.d, spec.l
    m = index_data(n).m_rank
    zero, ones = (0,) * (n - 2), (1,) * (n - 2)
    rays = [(0,) * m + (a,) + b + (0, h)
            for a, b, h in ((1, zero, 0), (-1, zero, d), (-1, ones, 0), (1, vec_neg(ones), d))]
    for j in range(n - 2):
        e = zero[:j] + (1,) + zero[j + 1:]
        rays += [(0,) * (m + 1) + e + (0, 0), (0,) * (m + 1) + vec_neg(e) + (0, d)]
    rays += [_dagger_sum_ray(spec, c * l) + (h * l,)
             for c, h in ((-2, 2 * d + 1), (-1, d), (1, -d), (2, 1 - 2 * d))]
    return tuple(sorted(rays))


def expected_bounded_cones(spec: GrassmannSpec) -> dict[str, Cone]:
    """The seven bounded cones, with l-scaled dagger coefficients.

    Built with no DD: each generator has t = 1, so it is primitive, and the
    generators differ in their dagger coefficients, so each sigma is the
    simplicial cone on its two sorted generators.
    """
    r = index_data(spec.n).ambient_rank
    g = {
        "tau0": _dagger_sum_ray(spec, -2 * spec.l),
        "tau1": _dagger_sum_ray(spec, -spec.l),
        "tau2": _dagger_sum_ray(spec, spec.l),
        "tau3": _dagger_sum_ray(spec, 2 * spec.l),
    }
    cones = {name: Cone._trusted(r, (gen,), (), 1) for name, gen in g.items()}
    for k in range(3):
        pair = tuple(sorted((g[f"tau{k}"], g[f"tau{k + 1}"])))
        cones[f"sigma{k}"] = Cone._trusted(r, pair, (), 2)
    return cones


def _strata(d: int) -> dict[str, list[tuple[int, int, int]]]:
    """Each expected cone's strata: the weight splits of its active monomials."""
    return {
        "tau0": [(0, d - i, i) for i in range(1, d + 1)],
        "tau1": [(0, d - 1, 1), (0, d, 0)],
        "tau2": [(0, d, 0), (1, d - 1, 0)],
        "tau3": [(i, d - i, 0) for i in range(1, d + 1)],
        "sigma0": [(0, d - 1, 1)],
        "sigma1": [(0, d, 0)],
        "sigma2": [(1, d - 1, 0)],
    }


def stratum_size(n: int, split: tuple[int, int, int]) -> int:
    """|S_(c0,c1,c2)|: multisets of sizes c1 over J1 and c2 over J2."""
    _, c1, c2 = split
    return comb(2 * (n - 2) + c1 - 1, c1) * comb((n - 2) * (n - 3) // 2 + c2 - 1, c2)


def expected_active_sets(spec: GrassmannSpec) -> dict[str, frozenset[str]]:
    """Each cone's active set: the ids of the monomials of its strata."""
    k, names = 1 + len(index_data(spec.n).J1), _pair_names(spec.n)
    ids_by_split: dict[tuple[int, int, int], list[str]] = {}
    for slots in _monomials(spec):
        c0, c2 = slots.count(0), sum(s >= k for s in slots)
        ids_by_split.setdefault((c0, spec.d - c0 - c2, c2), []).append(_slot_id(names, slots))
    return {name: frozenset(i for split in strata for i in ids_by_split.get(split, ()))
            for name, strata in _strata(spec.d).items()}


@record
class ConeCheck:
    """An expected cone, found or not, and whether its active set, of
    `items` items, matches; a mismatch names the ids `missing` and `extra`."""
    name: str
    expected: Cone
    found: bool
    items: int
    active_matches: bool
    missing: tuple[str, ...] = ()
    extra: tuple[str, ...] = ()


@record
class VerificationReport:
    """The seven checks of `verify` and any unexpected bounded cone, read off
    `bounded_fan`, the bounded cells in chart coordinates, and the ids of
    the orbits of `orbits.chart`, the orbit lift, active on each.  `lift`,
    the item-level lift of `zero_chart` on the orbit lift's C, and its full
    subdivision `result` are built when read."""
    spec: GrassmannSpec
    checks: tuple[ConeCheck, ...]
    extra_bounded: tuple[Cone, ...]
    bounded_fan: Fan
    active_orbits: ActiveSets
    orbits: LiftedChart

    @functools.cached_property
    def lift(self) -> LiftedChart:
        """`zero_chart` lifted on C with no DD: the orbit lift's C, E's m
        zeros padded back onto its rays and facets, and E's unit vectors
        its span equalities; masks and dim unchanged.  C is 0 on E, so each
        distinct item row is paired with its rays in C's own coordinates."""
        chart, small = zero_chart(self.spec), self.orbits.big_cone
        m = index_data(self.spec.n).m_rank
        pad, rank = (0,) * m, small.rank + m
        eqs = tuple(tuple(int(j == k) for j in range(rank)) for k in range(m))
        big = Cone._trusted(rank, tuple(pad + x for x in small.rays), (), small.dim(),
                            tuple(pad + f for f in small.facets), eqs, small.facet_masks())
        rows = {g: g[m:] for g in chart.lifted_generators()}
        zero, negative = _pair_rows(small.rays, dict.fromkeys(rows.values()))
        return _lifted(chart, big, False, small.dim() - 1,
                       {g: zero[w] for g, w in rows.items()}, negative)

    @functools.cached_property
    def result(self) -> SubdivisionResult:
        return self.lift.subdivide()

    @property
    def cones_matched(self) -> int:
        return sum(1 for c in self.checks if c.found)

    @property
    def active_matched(self) -> int:
        return sum(1 for c in self.checks if c.active_matches)

    @property
    def passed(self) -> bool:
        return (self.cones_matched == len(self.checks)
                and self.active_matched == len(self.checks)
                and not self.extra_bounded)

    def render(self) -> str:
        lines = [f"grassmann-verify n={self.spec.n} d={self.spec.d} l={self.spec.l}"]
        for c in self.checks:
            lines.append(f"cone {c.name}: {'found' if c.found else 'NOT FOUND'}")
            if c.found:
                if c.active_matches:
                    lines.append(f"active {c.name}: match ({c.items} items)")
                else:
                    lines.append(f"active {c.name}: MISMATCH missing={list(c.missing)} "
                                 f"extra={list(c.extra)}")
        for c in self.extra_bounded:
            lines.append(f"unexpected bounded cone: rays={list(c.rays)}")
        total = len(self.checks)
        lines.append(f"result: {self.cones_matched}/{total} cones, "
                     f"{self.active_matched}/{total} active sets"
                     + ("" if not self.extra_bounded
                        else f", {len(self.extra_bounded)} unexpected bounded cones"))
        lines.append("status: " + ("PASS" if self.passed else "FAIL"))
        return "\n".join(lines)


def verify(spec: GrassmannSpec, verify_fan: bool = True) -> VerificationReport:
    """Compare the bounded cells of the zero chart with the expected seven
    bounded cones and their active sets, one row per S_(n-2)-orbit.

    C, claimed by `lifted_cone_rays` and 0 on E, is lifted in its own
    coordinates with the rows of `orbit_chart` (`lift_symmetric_chart`);
    with `verify_fan` it is certified up to symmetry, and a rejected claim
    raises SubdivisionInconsistency.  Its faces over tau0 .. tau3 are
    walked, projected and padded back with E's zeros.  The tau rays are
    fixed by S_(n-2), so an orbit is active on a cell or not as a whole:
    a check compares the active orbits with those whose split the cell
    expects, counts items by stratum sizes, and names the items of failing
    orbits alone.  No monomial is enumerated unless a check fails.
    """
    data = index_data(spec.n)
    m, r = data.m_rank, data.ambient_rank
    rays = _claimed(lifted_cone_rays(spec), r + 1)
    if any(any(x[:m]) for x in rays):
        raise SubdivisionInconsistency("subdivision inconsistency: a claimed ray is nonzero on E")
    orbits = lift_symmetric_chart(orbit_chart(spec), [x[m:] for x in rays],
                                  range(1, spec.n - 1), verify_fan)
    cells = orbits.subdivide(bounded=True)
    small = cells.projected_fan   # E's zeros padded back: the rays stay sorted, the cells valid
    fan = Fan._of_cells(r, [(0,) * m + x for x in small.rays], small.cells, True)
    active = ActiveSets(fan, cells.active_sets.rows)
    split = {it.id: _orbit_split(spec.d, it) for it in orbits.chart.items}
    expected = expected_bounded_cones(spec)
    checks = []
    for name, strata in _strata(spec.d).items():
        want = frozenset(i for i, s in split.items() if s in strata)
        got = active.get(expected[name])
        missing = extra = ()
        if got is not None and got != want:
            missing, extra = (_items_of(spec, orbits.chart, ids)
                              for ids in (want - got, got - want))
        checks.append(ConeCheck(name, expected[name], got is not None,
                                sum(stratum_size(spec.n, s) for s in strata), got == want,
                                missing, extra))
    extras = tuple(c for c in fan.bounded_cones() if c not in expected.values())   # fan order
    return VerificationReport(spec, tuple(checks), extras, fan, active, orbits)


def _items_of(spec: GrassmannSpec, orbits: MockPolytopeChart,
              ids: frozenset[str]) -> tuple[str, ...]:
    """The sorted ids of the monomials in the orbits `ids` of `orbit_chart`."""
    def key(e: IntVec, kappa: int) -> IntVec:
        return e[:1] + tuple(sorted(e[1:-1])) + (kappa,)

    orbit = {key(it.exponent, it.kappa): it.id for it in orbits.items}
    m = index_data(spec.n).m_rank
    return tuple(sorted(it.id for it in zero_chart(spec).items
                        if orbit.get(key(it.exponent[m:], it.kappa)) in ids))


def hypersurface_label(spec: GrassmannSpec) -> ClassLabel:
    """The very general degree-d hypersurface in P^(2n-5)."""
    return ClassLabel.hypersurface(2 * spec.n - 5, spec.d)


def grassmann_annotations(spec: GrassmannSpec) -> dict[Cone, StratumAnnotation]:
    """A point at tau1 and tau2, the hypersurface at sigma1, E(name) elsewhere."""
    known = {"tau1": ClassLabel.point(), "tau2": ClassLabel.point(),
             "sigma1": hypersurface_label(spec)}
    return {cone: StratumAnnotation(name, (known.get(name, ClassLabel.symbolic(f"E({name})")),))
            for name, cone in expected_bounded_cones(spec).items()}


def vol_expression(spec: GrassmannSpec, report: Optional[VerificationReport] = None) -> FormalSum:
    """The signed stratum-class sum over the verified bounded cones.

    Runs (or reuses) the verification and sums over `report.bounded_fan`.
    Cones with fewer than two distinct active exponents on the support,
    rows in C's own coordinates (the active orbits' sizes summed), are
    filtered out, which keeps all seven here.
    """
    if report is None:
        report = verify(spec)
    if not report.passed:
        raise VerificationFailed(
            f"verification failed for n={spec.n} d={spec.d} l={spec.l}")
    rows = {it.id: _orbit_size(it) for it in report.orbits.chart.items}
    return vol_skeleton(report.bounded_fan, grassmann_annotations(spec),
                        active_filter=lambda c: sum(map(rows.__getitem__,
                                                        report.active_orbits[c])) >= 2)


def expected_vol_expression(spec: GrassmannSpec) -> FormalSum:
    """The closed-form answer the pipeline must reproduce."""
    def e(name: str) -> FormalSum:
        return FormalSum.of(ClassLabel.symbolic(f"E({name})"))

    return (e("tau0") + e("tau3") + FormalSum.of(ClassLabel.point(), 2) - e("sigma0")
            - e("sigma2") - FormalSum.of(hypersurface_label(spec)))
