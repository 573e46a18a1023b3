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

`verify` lifts the zero chart once, with its lifted cone C given in
closed form (`lifted_cone_rays`) and certified rather than built by a
double description, projects only the faces of C that give bounded cells,
and compares those bounded cones and active sets against the seven
expected ones; `vol_expression` then assembles the signed stratum-class
sum over them with the known annotations (two point strata, one very
general degree-d hypersurface stratum in P^(2n-5), four symbolic strata).
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import Optional

from .cones import Cone
from .exact import IntVec, vec_neg
from .subdivision import (LiftedChart, LiftedExponent, MockPolytopeChart, SubdivisionResult,
                          lift_chart)
from .volume import ClassLabel, FormalSum, StratumAnnotation, vol_skeleton


class GrassmannError(ValueError):
    """Invalid parameters or indices for the Gr(2,n) instance."""


class VerificationFailed(RuntimeError):
    """Raised when the computed subdivision does not match the expected data."""


@dataclass(frozen=True)
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
Alpha = tuple[int, ...]


@dataclass(frozen=True)
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
    def dagger_rank(self) -> int:
        return self.n - 1

    @property
    def ambient_rank(self) -> int:
        """Rank of the chart lattice: M block + dagger block + delta."""
        return self.m_rank + self.dagger_rank + 1

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
    v = [0] * (data.ambient_rank - 1)

    def eta(k: int):
        v[data.dagger_slot(k)] += 1

    def m_basis(p: Pair):
        v[data.m_slot(p)] += 1

    if pair == (0, 1):
        pass
    elif pair == (0, 2):
        eta(-1)
        eta(0)
    elif i == 0:
        eta(-1)
        eta(j - 2)
        m_basis((j - 2, j - 2))
    elif i == 1:
        eta(j - 2)
    else:
        eta(-1)
        eta(i - 2)
        eta(j - 2)
        m_basis((i - 2, j - 2))
    return tuple(v)


def varpi_alpha(n: int, alpha: Alpha) -> IntVec:
    data = index_data(n)
    v = [0] * (data.ambient_rank - 1)
    for a, pair in zip(alpha, data.J):
        if a:
            w = varpi(n, pair)
            for k in range(len(v)):
                v[k] += a * w[k]
    return tuple(v)


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
    if c1 == spec.d:
        return 0
    return 2 * (spec.d - c1) - 1


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


def alpha_id(n: int, alpha: Alpha) -> str:
    """Readable canonical id of a multidegree, e.g. '(0,1)^2*(2,3)'."""
    data = index_data(n)
    parts = []
    for a, (i, j) in zip(alpha, data.J):
        if a == 1:
            parts.append(f"({i},{j})")
        elif a > 1:
            parts.append(f"({i},{j})^{a}")
    return "*".join(parts) if parts else "1"


def zero_chart(spec: GrassmannSpec) -> MockPolytopeChart:
    """Chart over the zero cone of the base: support {0} x N-dagger x [0, inf).

    Sigma duals are the +/- M basis (a lineality of the lifted cone) plus
    delta; items are the monomials with exponent varpi_alpha and t-weight
    kappa(alpha) at scale l.
    """
    data = index_data(spec.n)
    r = data.ambient_rank
    duals: list[IntVec] = []
    for k in range(data.m_rank):
        e = [0] * r
        e[k] = 1
        duals.append(tuple(e))
        e2 = [0] * r
        e2[k] = -1
        duals.append(tuple(e2))
    delta = [0] * r
    delta[data.delta_slot] = 1
    duals.append(tuple(delta))
    items = []
    for alpha in enumerate_S(spec):
        exponent = varpi_alpha(spec.n, alpha) + (0,)
        items.append(LiftedExponent(alpha_id(spec.n, alpha), exponent, kappa(spec, alpha)))
    return MockPolytopeChart("zero", r, tuple(duals), tuple(items), scale=spec.l)


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
    certifies this claim (`subdivision._certify_lifted_cone`).
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


def expected_active_sets(spec: GrassmannSpec) -> dict[str, frozenset[str]]:
    """Each cone's active set: the ids of the strata of S, by weight split,
    it is made of, with S enumerated once and bucketed by weight split."""
    d = spec.d
    ids_by_split: dict[tuple[int, int, int], list[str]] = {}
    for alpha in enumerate_S(spec):
        ids_by_split.setdefault(weight_split(spec.n, alpha), []).append(
            alpha_id(spec.n, alpha))

    def ids(strata: list[tuple[int, int, int]]) -> frozenset[str]:
        return frozenset(i for split in strata for i in ids_by_split.get(split, ()))

    return {
        "tau0": ids([(0, d - i, i) for i in range(1, d + 1)]),
        "tau1": ids([(0, d - 1, 1), (0, d, 0)]),
        "tau2": ids([(0, d, 0), (1, d - 1, 0)]),
        "tau3": ids([(i, d - i, 0) for i in range(1, d + 1)]),
        "sigma0": ids([(0, d - 1, 1)]),
        "sigma1": ids([(0, d, 0)]),
        "sigma2": ids([(1, d - 1, 0)]),
    }


@dataclass(frozen=True)
class ConeCheck:
    name: str
    expected: Cone
    found: bool
    expected_active: frozenset[str]
    computed_active: Optional[frozenset[str]]

    @property
    def active_matches(self) -> bool:
        return self.computed_active is not None and \
            self.computed_active == self.expected_active


@dataclass(frozen=True)
class VerificationReport:
    """The seven checks of `verify` and any unexpected bounded cone, read
    off `bounded`: the bounded cells of the zero chart, that is its bounded
    cones and the zero cone with their active sets.  `result`, the full
    subdivision, is walked from the same lifted cone `lift` when it is
    first read, and kept; no second DD runs."""
    spec: GrassmannSpec
    checks: tuple[ConeCheck, ...]
    extra_bounded: tuple[Cone, ...]
    bounded: SubdivisionResult
    lift: LiftedChart

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
                    lines.append(f"active {c.name}: match ({len(c.expected_active)} items)")
                else:
                    missing = sorted(c.expected_active - (c.computed_active or frozenset()))
                    extra = sorted((c.computed_active or frozenset()) - c.expected_active)
                    lines.append(f"active {c.name}: MISMATCH missing={missing} extra={extra}")
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
    bounded cones and their active sets.

    The lifted cone C is taken once from its closed form
    (`lifted_cone_rays`, through `subdivision.lift_chart`), with no DD;
    with `verify_fan` it is first certified to be the dual of D
    (`subdivision._certify_lifted_cone`), and a claim the certificate
    rejects raises SubdivisionInconsistency, with no fallback to a DD;
    without `verify_fan` it is trusted.  Only the lower faces of C whose
    rays all have t > 0 are walked and projected
    (`LiftedChart.subdivide(bounded=True)`), with every per-face check of
    the full walk; C has four such rays, the rays over tau0 .. tau3, so
    the walk visits at most 16 faces.  The full subdivision is built only
    when `report.result` is read.
    """
    lift = lift_chart(zero_chart(spec), verify_fan, lifted_cone_rays(spec))
    cells = lift.subdivide(bounded=True)
    bounded = set(cells.projected_fan.bounded_cones())
    expected = expected_bounded_cones(spec)
    expected_active = expected_active_sets(spec)
    checks = []
    for name in CONE_NAMES:
        cone = expected[name]
        found = cone in bounded
        computed = cells.active_sets.get(cone) if found else None
        checks.append(ConeCheck(name, cone, found, expected_active[name], computed))
    extras = tuple(sorted(bounded - set(expected.values()),
                          key=lambda c: (c.dim(), c.rays)))
    return VerificationReport(spec, tuple(checks), extras, cells, lift)


def hypersurface_label(spec: GrassmannSpec) -> ClassLabel:
    """The very general degree-d hypersurface in P^(2n-5)."""
    return ClassLabel.hypersurface(2 * spec.n - 5, spec.d)


def grassmann_annotations(spec: GrassmannSpec) -> dict[Cone, StratumAnnotation]:
    expected = expected_bounded_cones(spec)
    ann: dict[Cone, StratumAnnotation] = {}
    for name in ("tau1", "tau2"):
        ann[expected[name]] = StratumAnnotation(name, (ClassLabel.point(),))
    ann[expected["sigma1"]] = StratumAnnotation("sigma1", (hypersurface_label(spec),))
    for name in ("tau0", "tau3", "sigma0", "sigma2"):
        ann[expected[name]] = StratumAnnotation(name, (ClassLabel.symbolic(f"E({name})"),))
    return ann


def vol_expression(spec: GrassmannSpec, report: Optional[VerificationReport] = None) -> FormalSum:
    """The signed stratum-class sum over the verified bounded cones.

    Runs (or reuses) the verification first and sums over its bounded
    subfan (`report.bounded`), so the full subdivision is never built; cones
    with fewer than two distinct active exponents are filtered out, which
    keeps all seven here.
    """
    if report is None:
        report = verify(spec)
    if not report.passed:
        raise VerificationFailed(
            f"verification failed for n={spec.n} d={spec.d} l={spec.l}")
    cells = report.bounded
    return vol_skeleton(cells.projected_fan, grassmann_annotations(spec),
                        active_filter=lambda c: cells.effective_dimension(c) >= 2)


def expected_vol_expression(spec: GrassmannSpec) -> FormalSum:
    """The closed-form answer the pipeline must reproduce."""
    total = FormalSum.zero()
    for name in ("tau0", "tau3"):
        total = total + FormalSum.of(ClassLabel.symbolic(f"E({name})"))
    total = total + FormalSum.of(ClassLabel.point(), 2)
    for name in ("sigma0", "sigma2"):
        total = total - FormalSum.of(ClassLabel.symbolic(f"E({name})"))
    total = total - FormalSum.of(hypersurface_label(spec))
    return total
