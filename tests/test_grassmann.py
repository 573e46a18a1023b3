import hashlib
import importlib.util
import itertools
import os
import random
import re
from math import comb
from pathlib import Path

import pytest

from genutil import (alpha_id, assert_bounded_cells_equal_the_full_walk,
                     assert_claim_equals_the_lift, assert_lift_equals_the_dual_of_build_D,
                     assert_walk_down_equals_the_walk_up, effective_dimension, enumerate_S,
                     is_compactly_arranged, is_refinement, kappa, oracle_fan,
                     oracle_write_result, refines_cone_faces, stratify_S, weight_split)
from mockfan import cli, cones, formats, grassmann, subdivision
from mockfan.cones import cone_from_generators as cg
from mockfan.exact import dot, primitive, rank as matrix_rank
from mockfan.fans import fan_from_cones, rescale_cone
from mockfan.grassmann import (CONE_NAMES, ConeCheck, GrassmannError, GrassmannSpec,
                               VerificationFailed, VerificationReport, _dagger_sum_ray,
                               _monomials, _orbit_size, expected_bounded_cones,
                               expected_active_sets, expected_vol_expression,
                               grassmann_annotations, index_data, lifted_cone_rays,
                               orbit_chart, stratum_size, varpi, verify, vol_expression,
                               zero_chart)
from mockfan.subdivision import (LiftedExponent, MockPolytopeChart, SubdivisionInconsistency,
                                 build_D, lift_chart, subdivide_chart, support_cone)
from mockfan.volume import ClassLabel, vol_skeleton


def alpha_of(n, pairs):
    """Multidegree from a list of J pairs, repeats allowed."""
    data = index_data(n)
    counts = {p: 0 for p in data.J}
    for p in pairs:
        counts[p] += 1
    return tuple(counts[p] for p in data.J)


@pytest.fixture(scope="module")
def report521():
    return verify(GrassmannSpec(5, 2, 1))


def test_index_sets():
    data = index_data(5)
    assert len(data.I) == 6 and len(data.J) == 10
    assert data.J0 == ((0, 1),)
    assert set(data.J) == set(data.J0) | set(data.J1) | set(data.J2)
    assert len(data.J1) == 2 * (5 - 2)
    assert data.ambient_rank == len(data.I) - 1 + 4 + 1


def test_spec_validation():
    with pytest.raises(GrassmannError):
        GrassmannSpec(3, 2)
    with pytest.raises(GrassmannError):
        GrassmannSpec(5, 1)
    with pytest.raises(GrassmannError):
        GrassmannSpec(5, 2, 0)


def test_varpi_table():
    data = index_data(5)
    assert varpi(5, (0, 1)) == (0,) * (data.ambient_rank - 1)
    w02 = varpi(5, (0, 2))
    assert w02[data.dagger_slot(-1)] == 1 and w02[data.dagger_slot(0)] == 1
    assert sum(map(abs, w02)) == 2
    w14 = varpi(5, (1, 4))
    assert w14[data.dagger_slot(2)] == 1 and sum(map(abs, w14)) == 1
    w03 = varpi(5, (0, 3))
    assert w03[data.dagger_slot(-1)] == 1 and w03[data.dagger_slot(1)] == 1
    assert w03[data.m_slot((1, 1))] == 1 and sum(map(abs, w03)) == 3
    w23 = varpi(5, (2, 3))
    assert w23[data.dagger_slot(-1)] == 1
    assert w23[data.dagger_slot(0)] == 1 and w23[data.dagger_slot(1)] == 1
    assert w23[data.m_slot((0, 1))] == 1 and sum(map(abs, w23)) == 4
    with pytest.raises(GrassmannError):
        varpi(5, (4, 4))


def test_kappa_values():
    spec = GrassmannSpec(5, 2)
    assert kappa(spec, alpha_of(5, [(0, 2), (0, 2)])) == 0
    assert kappa(spec, alpha_of(5, [(0, 1), (0, 1)])) == 3
    assert kappa(spec, alpha_of(5, [(0, 1), (0, 2)])) == 1
    with pytest.raises(GrassmannError):
        kappa(spec, alpha_of(5, [(0, 1)]))


def test_enumerate_and_stratify():
    spec = GrassmannSpec(5, 2)
    S = enumerate_S(spec)
    assert len(S) == comb(11, 2) == 55
    assert S == sorted(S)
    s_0d0 = stratify_S(spec, 0, 2, 0)
    assert len(s_0d0) == comb(6 + 2 - 1, 2) == 21
    # strata partition S over all weight splits
    seen = []
    for d0 in range(3):
        for d1 in range(3 - d0):
            seen += stratify_S(spec, d0, d1, 2 - d0 - d1)
    assert sorted(seen) == S
    with pytest.raises(GrassmannError):
        stratify_S(spec, 1, 1, 1)


def enumerate_S_oracle(spec):
    """S by recursion over the slots of J, one prefix copy per step: the
    enumeration `enumerate_S` replaced."""
    m = len(index_data(spec.n).J)
    out = []

    def rec(prefix, remaining, pos):
        if pos == m - 1:
            out.append(tuple(prefix + [remaining]))
            return
        for a in range(remaining, -1, -1):
            rec(prefix + [a], remaining - a, pos + 1)

    rec([], spec.d, 0)
    out.sort()
    assert len(out) == comb(m + spec.d - 1, spec.d)
    return out


def weight_split_oracle(n, alpha):
    """(c0, c1, c2) by the pair behind each slot of J."""
    c0 = c1 = c2 = 0
    for a, pair in zip(alpha, index_data(n).J):
        if pair == (0, 1):
            c0 += a
        elif pair[0] < 2:
            c1 += a
        else:
            c2 += a
    return c0, c1, c2


@pytest.mark.parametrize("n, d", [(4, 2), (5, 3), (6, 4), (8, 2), (12, 2), (16, 2), (6, 5)])
def test_S_and_weight_splits_match_the_slot_by_slot_oracles(n, d):
    spec = GrassmannSpec(n, d)
    S = enumerate_S(spec)
    assert S == enumerate_S_oracle(spec)
    assert [weight_split(n, a) for a in S] == [weight_split_oracle(n, a) for a in S]
    m = len(index_data(n).J)   # the sparse monomials of `zero_chart`, in the same order
    assert [tuple(slots.count(k) for k in range(m)) for slots in _monomials(spec)] == S


def expected_active_sets_oracle(spec):
    """Each cone's strata, one `stratify_S` call (a full scan of S) each."""
    d = spec.d

    def ids(strata):
        return frozenset(alpha_id(spec.n, alpha) for split in strata
                         for alpha in stratify_S(spec, *split))

    return {
        "tau0": ids([(0, d - i, i) for i in range(1, d + 1)]),
        "tau1": ids([(0, d - 1, 1), (0, d, 0)]),
        "tau2": ids([(0, d, 0), (1, d - 1, 0)]),
        "tau3": ids([(i, d - i, 0) for i in range(1, d + 1)]),
        "sigma0": ids([(0, d - 1, 1)]),
        "sigma1": ids([(0, d, 0)]),
        "sigma2": ids([(1, d - 1, 0)]),
    }


@pytest.mark.parametrize("n, d", [(4, 2), (5, 2), (5, 3), (6, 4), (7, 3)])
def test_expected_active_sets_match_the_strata(n, d):
    spec = GrassmannSpec(n, d)
    assert expected_active_sets(spec) == expected_active_sets_oracle(spec)


def test_alpha_id_roundtrip_unique():
    spec = GrassmannSpec(5, 3)
    ids = [alpha_id(5, a) for a in enumerate_S(spec)]
    assert len(set(ids)) == len(ids)
    assert alpha_id(5, alpha_of(5, [(0, 1), (0, 1), (2, 3)])) == "(0,1)^2*(2,3)"


def test_zero_chart_layout():
    spec = GrassmannSpec(5, 2)
    chart = zero_chart(spec)
    data = index_data(5)
    assert chart.ambient_dual_rank == data.ambient_rank
    assert len(chart.items) == 55
    assert len(chart.sigma_dual_generators) == 2 * data.m_rank + 1
    # the pure (0,1)-power monomial lifts to (2d-1) * l in the delta slot
    a0 = alpha_of(5, [(0, 1), (0, 1)])
    it = next(i for i in chart.items if i.id == alpha_id(5, a0))
    eff = chart.effective_exponent(it)
    assert eff[data.delta_slot] == 3 and sum(map(abs, eff)) == 3

    chart_l2 = zero_chart(GrassmannSpec(5, 2, 2))
    it2 = next(i for i in chart_l2.items if i.id == alpha_id(5, a0))
    assert chart_l2.effective_exponent(it2)[data.delta_slot] == 6


def zero_chart_oracle(spec):
    """The zero chart from the dense multidegrees of `enumerate_S`: each
    exponent the slot-by-slot sum of its factors' varpi, as `zero_chart`
    built it before it took sparse monomials."""
    data = index_data(spec.n)
    items = []
    for alpha in enumerate_S(spec):
        v = [0] * (data.ambient_rank - 1)
        for a, pair in zip(alpha, data.J):
            for k, x in enumerate(varpi(spec.n, pair)):
                v[k] += a * x
        items.append(LiftedExponent(alpha_id(spec.n, alpha), tuple(v) + (0,), kappa(spec, alpha)))
    r, duals = data.ambient_rank, []
    for k in range(data.m_rank):   # +e_k, -e_k on the M block, then delta
        for sign in (1, -1):
            e = [0] * r
            e[k] = sign
            duals.append(tuple(e))
    e = [0] * r
    e[data.delta_slot] = 1
    duals.append(tuple(e))
    return MockPolytopeChart("zero", r, tuple(duals), tuple(items), scale=spec.l)


@pytest.mark.parametrize("case", ["4,2,1", "5,3,2", "6,2,1", "6,4,1", "8,2,3", "5,5,1"])
def test_zero_chart_equals_the_dense_oracle(case):
    spec = GrassmannSpec(*map(int, case.split(",")))
    assert zero_chart(spec) == zero_chart_oracle(spec)


def test_build_D_full_dimensional():
    spec = GrassmannSpec(5, 2)
    chart = zero_chart(spec)
    d = build_D(chart)
    assert d.rank == 11
    assert d.dim() == 11
    assert matrix_rank(list(d.rays) + list(d.lineality)) == 11
    # raw generator matrix (duals at height 0, items at height 1) is full rank
    raw = [tuple(g) + (0,) for g in chart.sigma_dual_generators]
    raw += chart.lifted_generators()
    assert matrix_rank(raw) == 11


def sweep_module():
    path = Path(__file__).resolve().parents[1] / "scripts" / "run_grassmann_sweep.py"
    spec = importlib.util.spec_from_file_location("run_grassmann_sweep", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def sweep_default_cases():
    return sweep_module().DEFAULT_CASES


def test_sweep_full_times_the_full_subdivision_in_its_own_columns(capsys, monkeypatch):
    sweep = sweep_module()
    assert sweep.main(["--cases", "4,2,1", "5,2,1"]) == 0
    plain = capsys.readouterr().out.splitlines()
    assert sweep.main(["--cases", "4,2,1", "5,2,1", "--full"]) == 0
    full = capsys.readouterr().out.splitlines()
    assert plain[0].split() == ["case", "items", "C", "rays", "facets", "bounded", "time",
                                "status"]
    assert full[0].split() == plain[0].split()[:-1] + ["cones", "full", "write", "read",
                                                       "status"]
    for case, plain_row, full_row in zip(("4,2,1", "5,2,1"), plain[1:], full[1:]):
        n, d, l = map(int, case.split(","))
        count = len(subdivide_chart(zero_chart(GrassmannSpec(n, d, l))).projected_fan)
        assert full_row.split()[:5] == plain_row.split()[:5]
        cells = full_row.split()[6:]
        assert cells[0] == str(count) and cells[-1] == "PASS" and len(cells) == 5
        assert all(re.fullmatch(r"\d+ms", cell) for cell in cells[1:4])
    assert len(full) == len(plain) == 4 and full[-1].split()[0] == "total"
    # a result that reads back to other text fails its case
    written, write = [], sweep.formats.write_result
    monkeypatch.setattr(sweep.formats, "write_result", lambda *args: written.append(
        write(*args)) or written[-1] + "\n" * (len(written) % 2 == 0))
    assert sweep.main(["--cases", "4,2,1", "--full"]) == 1
    assert capsys.readouterr().out.splitlines()[1].split()[-1] == "FAIL"


def test_sweep_full_fails_a_case_whose_reading_builds_the_cones(capsys, monkeypatch):
    sweep = sweep_module()
    read = sweep.formats.read_result

    def read_by_cones(text):   # as a reader keyed by `Cone` would
        fan, active = read(text)
        return fan, fan.cones and active

    monkeypatch.setattr(sweep.formats, "read_result", read_by_cones)
    assert sweep.main(["--cases", "4,2,1", "--full"]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[1].split()[-1] == "FAIL" and "built its cones" in out[2]


@pytest.mark.parametrize("case, reason", [
    ("4,2", "expected n,d,l"),
    ("3,2,1", "n must be at least 4"),
    ("4,x,1", "invalid literal for int()"),
])
def test_sweep_refuses_a_bad_case_in_one_line_before_any_case_runs(capsys, case, reason):
    with pytest.raises(SystemExit) as exc:
        sweep_module().main(["--cases", "4,2,1", case])
    assert str(exc.value).startswith(f"bad case {case!r}: ") and reason in str(exc.value)
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("case", sweep_default_cases())
def test_expected_cones_equal_the_cones_built_by_dd(case):
    n, d, l = map(int, case.split(","))
    for scale in sorted({l, 2, 3}):
        spec = GrassmannSpec(n, d, scale)
        cones = expected_bounded_cones(spec)
        r = cones["tau0"].rank
        gens = {f"tau{i}": _dagger_sum_ray(spec, k * scale)
                for i, k in enumerate((-2, -1, 1, 2))}
        for name, members in (("tau0", ["tau0"]), ("tau1", ["tau1"]), ("tau2", ["tau2"]),
                              ("tau3", ["tau3"]), ("sigma0", ["tau0", "tau1"]),
                              ("sigma1", ["tau1", "tau2"]), ("sigma2", ["tau2", "tau3"])):
            built = cg(r, [gens[m] for m in members])
            assert cones[name] == built and cones[name].dim() == built.dim()
            assert cones[name].facets == built.facets


@pytest.mark.parametrize("case", [c for c in sweep_default_cases() if int(c.split(",")[0]) <= 8])
def test_bounded_cells_equal_the_full_walk_on_the_sweep(case):
    assert_bounded_cells_equal_the_full_walk(zero_chart(GrassmannSpec(*map(int, case.split(",")))))


@pytest.mark.parametrize("case", [c for c in sweep_default_cases() if int(c.split(",")[0]) <= 8])
def test_lift_equals_the_dual_of_build_D_on_the_sweep(case):
    assert_lift_equals_the_dual_of_build_D(zero_chart(GrassmannSpec(*map(int, case.split(",")))))


# the cases on which the closed form of C was first checked against the DD
CLAIM_CASES = ["4,2,1", "5,2,1", "6,2,1", "6,3,1", "6,4,1", "6,2,2", "6,2,3", "7,3,2", "8,2,1",
               "8,3,1", "7,5,1", "10,2,1", "12,2,1", "5,3,2"]


def claim_cases(small: bool):
    """The sweep's and `CLAIM_CASES`, those with n <= 8 and d <= 4 or the others."""
    cases = sorted(set(sweep_default_cases()) | set(CLAIM_CASES),
                   key=lambda c: tuple(map(int, c.split(","))))
    return [c for c in cases
            if (int(c.split(",")[0]) <= 8 and int(c.split(",")[1]) <= 4) == small]


def monomials(case):
    """|S| of a case: the DD that builds C from them reaches about 60,000."""
    n, d, _ = map(int, case.split(","))
    return comb(n * (n - 1) // 2 + d - 1, d)


@pytest.mark.parametrize("case", claim_cases(small=True))
def test_claimed_C_equals_the_lift_and_the_dual_of_build_D(case):
    assert_claim_equals_the_lift(GrassmannSpec(*map(int, case.split(","))))


@pytest.mark.skipif(not os.environ.get("MOCKFAN_LARGE_CASES"),
                    reason="large cases, about 15 s: set MOCKFAN_LARGE_CASES=1")
@pytest.mark.parametrize("case", [c for c in claim_cases(small=False) if monomials(c) <= 60_000])
def test_claimed_C_equals_the_lift_and_the_dual_of_build_D_on_large_cases(case):
    assert_claim_equals_the_lift(GrassmannSpec(*map(int, case.split(","))))


def claims_one_ray_off(rays):
    """Each claim of C with one ray moved by +-1 in one coordinate, one ray
    dropped or one ray repeated."""
    for k, x in enumerate(rays):
        yield rays[:k] + rays[k + 1:]
        yield rays[:k] + (x,) + rays[k:]
        for j in range(len(x)):
            for step in (-1, 1):
                yield rays[:k] + (x[:j] + (x[j] + step,) + x[j + 1:],) + rays[k + 1:]


@pytest.mark.parametrize("case", ["4,2,1", "5,2,2"])
def test_verify_rejects_every_claim_of_C_one_ray_off(monkeypatch, case):
    # a claim that is primitive, distinct and sorted reaches the certificate
    spec = GrassmannSpec(*map(int, case.split(",")))
    certified = 0
    for claim in claims_one_ray_off(lifted_cone_rays(spec)):
        monkeypatch.setattr(grassmann, "lifted_cone_rays", lambda spec: claim)
        with pytest.raises(SubdivisionInconsistency) as failure:
            verify(spec)
        canonical = list(claim) == sorted(set(claim)) and all(
            any(x) and primitive(x) == x for x in claim)
        assert ("are not primitive, distinct and sorted" in str(failure.value)) != canonical
        certified += canonical
    assert certified >= len(lifted_cone_rays(spec))


def test_grassmann_vol_exits_internal_on_a_wrong_claim(monkeypatch, capsys):
    spec = GrassmannSpec(5, 2, 1)
    rays = lifted_cone_rays(spec)
    argv = ["grassmann-vol", "--n", "5", "--d", "2"]
    for claim in (rays[1:], rays[:1] + rays, rays[:-1] + (rays[-1][:-1] + (rays[-1][-1] + 1,),)):
        monkeypatch.setattr(grassmann, "lifted_cone_rays", lambda spec: claim)
        assert cli.main(argv) == cli.EXIT_INTERNAL
        captured = capsys.readouterr()
        assert not captured.out and captured.err.startswith("error[internal]: ")


def orbit_of_item(spec, item):
    """The row of a `zero_chart` item in C's own coordinates, b sorted: its
    orbit, as a row of `orbit_chart`."""
    e = item.exponent[index_data(spec.n).m_rank:]
    return e[:1] + tuple(sorted(e[1:-1])) + e[-1:], item.kappa


def item_level_report(spec):
    """`verify` as it was, the item-level oracle: C built by DD on
    `zero_chart` and certified item by item, its bounded cells, the item
    active sets against `expected_active_sets`, and the vol expression
    filtered by distinct effective exponents."""
    cells = lift_chart(zero_chart(spec), True).subdivide(bounded=True)
    expected, expected_active = expected_bounded_cones(spec), expected_active_sets(spec)
    checks = []
    for name in CONE_NAMES:
        want, got = expected_active[name], cells.active_sets.get(expected[name])
        names = ((tuple(sorted(want - got)), tuple(sorted(got - want)))
                 if got is not None and got != want else ((), ()))
        checks.append(ConeCheck(name, expected[name], got is not None, len(want), got == want,
                                *names))
    extras = tuple(sorted(set(cells.projected_fan.bounded_cones()) - set(expected.values()),
                          key=lambda c: (c.dim(), c.rays)))
    report = VerificationReport(spec, tuple(checks), extras, cells.projected_fan, {}, None)
    vol = vol_skeleton(cells.projected_fan, grassmann_annotations(spec),
                       active_filter=lambda c: effective_dimension(cells, c) >= 2)
    return report, cells, vol


def padded_oracle(spec, report):
    """The bounded fan and active orbits of `verify` as the padded-`Cone`
    path built them: each bounded cell of the orbit lift rebuilt with E's
    zeros padded back, and the oracle fan of those cones."""
    m, r = index_data(spec.n).m_rank, index_data(spec.n).ambient_rank
    cells = report.orbits.subdivide(bounded=True)
    active = {cones.Cone._trusted(r, tuple((0,) * m + x for x in c.rays), (), c.dim()): ids
              for c, ids in cells.active_sets.items()}
    return oracle_fan(r, active, True), active


@pytest.mark.parametrize("n", [4, 5, 6])
def test_bounded_fan_and_active_orbits_equal_the_padded_cones(monkeypatch, n):
    spec = GrassmannSpec(n, 2, 1)
    report = verify(spec)
    fan, active = report.bounded_fan, report.active_orbits
    oracle, oracle_active = padded_oracle(spec, report)
    assert (fan.rays, fan.cells) == (oracle.rays, oracle.cells)
    assert fan == oracle and hash(fan) == hash(oracle) and fan.cones == oracle.cones
    assert active.fan is fan and dict(active) == oracle_active
    assert formats.write_result(fan, active) == oracle_write_result(oracle, oracle_active)
    # two expected cones swapped for the zero cone: the two cells become
    # unexpected bounded cones, listed in (dim, rays) order
    expected = expected_bounded_cones(spec)
    monkeypatch.setattr(grassmann, "expected_bounded_cones", lambda spec: {
        **expected, "sigma1": cones.zero_cone(fan.rank), "tau1": cones.zero_cone(fan.rank)})
    report = verify(spec)
    oracle, _ = padded_oracle(spec, report)
    assert report.extra_bounded == tuple(sorted(
        {expected["sigma1"], expected["tau1"]}, key=lambda c: (c.dim(), c.rays)))
    assert report.extra_bounded == tuple(sorted(
        set(oracle.bounded_cones()) - set(grassmann.expected_bounded_cones(spec).values()),
        key=lambda c: (c.dim(), c.rays)))
    assert not report.passed


def assert_orbits_agree_with_the_items(spec):
    """The orbit report and the item-level oracle agree: cones found, active
    sets expanded to item ids, unexpected bounded cones, `render()` and,
    when it passes, the vol expression."""
    oracle, cells, vol = item_level_report(spec)
    report = verify(spec)
    assert (report.checks, report.extra_bounded) == (oracle.checks, oracle.extra_bounded)
    assert report.render() == oracle.render()
    assert report.bounded_fan == cells.projected_fan
    orbit = {(it.exponent, it.kappa): it.id for it in report.orbits.chart.items}
    for cone in cells.projected_fan:
        assert {it.id for it in cells.chart.items if orbit[orbit_of_item(spec, it)]
                in report.active_orbits[cone]} == cells.active_sets[cone]
    if report.passed:
        assert vol_expression(spec, report) == vol == expected_vol_expression(spec)


@pytest.mark.parametrize("case", claim_cases(small=True))
def test_orbit_report_agrees_with_the_item_level_oracle(case):
    assert_orbits_agree_with_the_items(GrassmannSpec(*map(int, case.split(","))))


@pytest.mark.skipif(not os.environ.get("MOCKFAN_LARGE_CASES"),
                    reason="large cases, about 20 s: set MOCKFAN_LARGE_CASES=1")
@pytest.mark.parametrize("case", claim_cases(small=False))
def test_orbit_report_agrees_with_the_item_level_oracle_on_large_cases(case):
    assert_orbits_agree_with_the_items(GrassmannSpec(*map(int, case.split(","))))


@pytest.mark.parametrize("case", ["4,2,1", "5,3,2", "6,2,1"])
def test_a_mismatch_names_the_items_of_the_failing_orbits_alone(monkeypatch, case):
    # expect sigma2's stratum on sigma0 as well: both paths fail the same
    # checks and name the same item ids
    strata = grassmann._strata

    def wrong(d):
        out = strata(d)
        out["sigma0"] = out["sigma0"] + out["sigma2"]
        return out

    monkeypatch.setattr(grassmann, "_strata", wrong)
    assert_orbits_agree_with_the_items(GrassmannSpec(*map(int, case.split(","))))
    report = verify(GrassmannSpec(*map(int, case.split(","))))
    (check,) = [c for c in report.checks if not c.active_matches]
    assert check.name == "sigma0" and check.missing and not check.extra
    assert len(check.missing) == stratum_size(report.spec.n, (1, report.spec.d - 1, 0))


@pytest.mark.parametrize("case", ["5,2,2", "5,3,2", "6,2,1", "6,4,1", "7,3,1", "8,2,1"])
def test_orbits_expand_to_the_distinct_rows_of_the_chart(case):
    spec = GrassmannSpec(*map(int, case.split(",")))
    m = index_data(spec.n).m_rank
    rows = {g[m:] for g in zero_chart(spec).lifted_generators()}
    orbits = orbit_chart(spec)
    expanded = set()
    for g in orbits.lifted_generators():
        assert g[1:-2] == tuple(sorted(g[1:-2]))
        images = {g[:1] + p + g[-2:] for p in itertools.permutations(g[1:-2])}
        assert not expanded & images   # one row per orbit
        expanded |= images
    assert expanded == rows
    assert sum(map(_orbit_size, orbits.items)) == len(rows)


@pytest.mark.parametrize("case", ["4,2,1", "5,2,2", "6,2,1"])
def test_the_symmetric_certificate_rejects_each_mutation(monkeypatch, capsys, case):
    spec = GrassmannSpec(*map(int, case.split(",")))
    rays, m = lifted_cone_rays(spec), index_data(spec.n).m_rank
    b0 = m + 1   # the dagger slot 0
    # the ray (0; e_0; 0; 0) lifted by one, a claim with no image of it under b's permutations
    moved = tuple(sorted(x[:-1] + (1,) if x[b0 - 1:] == (0, 1) + (0,) * (spec.n - 1) else x
                         for x in rays))
    assert moved != rays
    orbits = {}
    for x in rays:
        orbits.setdefault(x[:b0] + tuple(sorted(x[b0:-2])) + x[-2:], []).append(x)
    dropped = [tuple(x for x in rays if x not in orbit) for orbit in orbits.values()]
    one_off = rays[:-1] + (rays[-1][:-1] + (rays[-1][-1] + 1,),)
    argv = ["grassmann-vol", "--n", str(spec.n), "--d", str(spec.d), "--l", str(spec.l)]
    for what, claim in [("not invariant", moved), ("one ray off", one_off)] + [
            ("an orbit dropped", c) for c in dropped]:
        monkeypatch.setattr(grassmann, "lifted_cone_rays", lambda spec: claim)
        with pytest.raises(SubdivisionInconsistency) as failure:
            verify(spec)
        assert ("not invariant" in str(failure.value)) == (what == "not invariant"), what
        assert cli.main(argv) == cli.EXIT_INTERNAL
        captured = capsys.readouterr()
        assert not captured.out and captured.err.startswith("error[internal]: ")
    assert len(dropped) >= 6


def test_dropping_a_facet_orbit_of_rows_is_rejected(monkeypatch):
    spec = GrassmannSpec(6, 2, 1)
    chart = orbit_chart(spec)
    facets = set(verify(spec).orbits.big_cone.facets)
    held = [k for k, g in enumerate(chart.lifted_generators())
            if any(g[:1] + p + g[-2:] in facets for p in itertools.permutations(g[1:-2]))]
    assert len(held) >= 2
    for k in held:
        items = chart.items[:k] + chart.items[k + 1:]
        monkeypatch.setattr(grassmann, "orbit_chart",
                            lambda spec: MockPolytopeChart("zero", chart.ambient_dual_rank,
                                                           chart.sigma_dual_generators, items,
                                                           chart.scale))
        with pytest.raises(SubdivisionInconsistency):
            verify(spec)


@pytest.mark.parametrize("verify_fan", [True, False])
def test_verify_runs_one_dd_and_walks_only_the_bounded_faces(monkeypatch, verify_fan):
    # verify and vol_expression: C is claimed and lifted on the orbit rows in
    # its own coordinates, so no item-level lift runs, and one walk of at
    # most 2^|T| faces runs; reading `result` builds the item-level lift on
    # that C with no DD, and runs the full walk once
    # every DD goes through `cones._dd`; the calls made inside
    # `subdivision._lifted_cone` are credited to the lift, the rest to "all"
    calls = {"lift": 0, "all": 0}
    crediting = ["all"]
    dims = []
    walks = []
    dd = cones._dd

    def counted_dd(dim, rows):
        calls[crediting[0]] += 1
        dims.append(dim)
        return dd(dim, rows)

    def counted(lift):
        def counted_lift(*args):
            crediting[0] = "lift"
            try:
                return lift(*args)
            finally:
                crediting[0] = "all"
        return counted_lift

    def counted_walk(c, lower, within):
        levels = cones.walk_masks(c, lower, within)
        walks.append(sum(map(len, levels)))
        return levels

    monkeypatch.setattr(cones, "_dd", counted_dd)
    monkeypatch.setattr(subdivision, "_lifted_cone", counted(subdivision._lifted_cone))
    monkeypatch.setattr(subdivision, "walk_masks", counted_walk)
    spec = GrassmannSpec(6, 2, 1)
    report = verify(spec, verify_fan)
    assert vol_expression(spec, report) == expected_vol_expression(spec)
    t_positive = sum(1 for x in report.orbits.big_cone.rays if x[-2] > 0)
    assert calls["lift"] == 0 and len(walks) == 1 and walks[0] <= 2 ** t_positive
    dds = calls["all"]
    assert dds == 1 + verify_fan   # the support's, and the certificate's
    assert max(dims) <= spec.n + 1   # in C's own coordinates, E dropped
    result = report.result
    assert report.result is result
    assert calls == {"lift": 0, "all": dds} and len(walks) == 2
    bounded = report.lift.subdivide(bounded=True)
    assert bounded.big_cone is report.lift.big_cone and len(walks) == 3
    assert (result.projected_fan.bounded_cones()
            == bounded.projected_fan.bounded_cones()
            == report.bounded_fan.bounded_cones())
    monkeypatch.undo()
    assert result == subdivide_chart(zero_chart(spec), verify=verify_fan)


@pytest.mark.parametrize("n", [4, 5, 6, 7, 8])
def test_walk_down_equals_the_walk_up_on_the_lifted_cone(n):
    spec = GrassmannSpec(n, 2, 1)
    big = verify(spec, False).lift.big_cone
    lower = sum(1 << j for j, f in enumerate(big.facets) if f[-1] > 0)
    assert_walk_down_equals_the_walk_up(big, lower)
    assert_walk_down_equals_the_walk_up(big)


# sha256 of `formats.write_result` of the full subdivision of the zero chart,
# the fingerprints of perfbench's RESULT_SHA256
RESULT_SHA256 = {
    (8, 2, 1): "af27cd9a4a5836ec5d05930fdb1a60d288de5728b071219c88746c055d29b6bc",
    (4, 2, 1): "9d51255da036ab8b3f51af8a1859c9e7d8f48d005bf2dc0bd1a69e686c064c42",
}


@pytest.mark.parametrize("case", sorted(RESULT_SHA256))
def test_full_subdivision_writes_the_pinned_result_file(case):
    res = verify(GrassmannSpec(*case), verify_fan=False).result
    text = formats.write_result(res.projected_fan, res.active_sets)
    assert hashlib.sha256(text.encode()).hexdigest() == RESULT_SHA256[case]
    assert text == oracle_write_result(res.projected_fan, dict(res.active_sets))


def test_the_full_10_2_1_subdivision_is_pinned():
    # 21,668 cones, the table fan written as the per-cone fan wrote it
    res = verify(GrassmannSpec(10, 2, 1), verify_fan=False).result
    text = formats.write_result(res.projected_fan, res.active_sets)
    assert len(res.projected_fan) == 21668
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8ee4fd93bbbceac602f71d8b9873c151a5dc4bafd388932467da56abb8e25451")


def test_expected_cones_are_primitive_height_one():
    for l in (1, 2, 3):
        cones = expected_bounded_cones(GrassmannSpec(5, 2, l))
        for name in ("tau0", "tau1", "tau2", "tau3"):
            (ray,) = cones[name].rays
            assert ray[-1] == 1


def test_verify_small_cases(report521):
    for report in (report521, verify(GrassmannSpec(4, 2, 1)),
                   verify(GrassmannSpec(4, 3, 2))):
        assert report.passed, report.render()
        assert report.cones_matched == 7 and report.active_matched == 7
        assert not report.extra_bounded


def test_report_render_contains_counts(report521):
    text = report521.render()
    assert "7/7 cones" in text and "7/7 active sets" in text
    assert text.endswith("PASS")


def test_active_sets_face_monotone(report521):
    expected = expected_bounded_cones(report521.spec)
    active = report521.result.active_sets
    for small, big in [("tau0", "sigma0"), ("tau1", "sigma0"),
                       ("tau1", "sigma1"), ("tau2", "sigma1"),
                       ("tau2", "sigma2"), ("tau3", "sigma2")]:
        assert active[expected[big]] <= active[expected[small]]


def test_effective_dimension_at_least_two_on_bounded(report521):
    for cone in report521.result.projected_fan.bounded_cones():
        assert effective_dimension(report521.result, cone) >= 2


def test_zero_chart_fan_compactly_arranged(report521):
    assert is_compactly_arranged(report521.result.projected_fan)


def test_zero_chart_fan_refines_support_faces(report521):
    chart = report521.result.chart
    sup = support_cone(chart)
    assert sup.lineality  # the dagger directions are free at t = 0
    assert refines_cone_faces(report521.result.projected_fan, sup)


def test_scale_consistency_with_rescaling():
    base = verify(GrassmannSpec(4, 2, 1))
    scaled = verify(GrassmannSpec(4, 2, 3))
    base_bounded = set(base.result.projected_fan.bounded_cones())
    scaled_bounded = set(scaled.result.projected_fan.bounded_cones())
    assert {rescale_cone(c, 3) for c in base_bounded} == scaled_bounded
    for c in base_bounded:
        assert scaled.result.active_sets[rescale_cone(c, 3)] == \
            base.result.active_sets[c]


def test_vol_expression_structure():
    spec = GrassmannSpec(5, 3, 1)
    v = vol_expression(spec)
    assert v == expected_vol_expression(spec)
    assert v.coefficient(ClassLabel.point()) == 2
    assert v.coefficient(ClassLabel.hypersurface(5, 3)) == -1
    for name in ("tau0", "tau3"):
        assert v.coefficient(ClassLabel.symbolic(f"E({name})")) == 1
    for name in ("sigma0", "sigma2"):
        assert v.coefficient(ClassLabel.symbolic(f"E({name})")) == -1
    assert v.coefficient(ClassLabel.symbolic("E(tau1)")) == 0


def test_vol_difference_of_annotations_at_one_cone(report521):
    # replacing the class at sigma1 changes the total by the signed difference
    from mockfan.grassmann import grassmann_annotations
    from mockfan.volume import FormalSum, StratumAnnotation, vol_skeleton
    spec = report521.spec
    result = report521.result
    base = grassmann_annotations(spec)
    changed = dict(base)
    sigma1 = expected_bounded_cones(spec)["sigma1"]
    f_label = ClassLabel.symbolic("F(sigma1)")
    changed[sigma1] = StratumAnnotation("sigma1", (f_label,))
    flt = lambda c: effective_dimension(result, c) >= 2
    v1 = vol_skeleton(result.projected_fan, base, active_filter=flt)
    v2 = vol_skeleton(result.projected_fan, changed, active_filter=flt)
    e_label = ClassLabel.hypersurface(2 * spec.n - 5, spec.d)
    assert v2 - v1 == FormalSum.of(f_label, -1) + FormalSum.of(e_label, 1)


def test_vol_point_coefficient_for_several_specs():
    for spec in (GrassmannSpec(4, 2, 1), GrassmannSpec(4, 2, 2),
                 GrassmannSpec(5, 2, 1)):
        v = vol_expression(spec)
        assert v.coefficient(ClassLabel.point()) == 2
        assert v.coefficient(ClassLabel.hypersurface(2 * spec.n - 5, spec.d)) == -1


def test_active_set_oracle_on_bounded_cones(report521):
    report = report521
    chart = report.result.chart
    effs = {it.id: chart.effective_exponent(it) for it in chart.items}
    rng = random.Random(220)
    for cone in report.result.projected_fan.bounded_cones():
        for _ in range(3):
            coeffs = [rng.randint(1, 4) for _ in cone.rays]
            v = tuple(sum(k * r[i] for k, r in zip(coeffs, cone.rays))
                      for i in range(cone.rank))
            vals = {i: dot(v, w) for i, w in effs.items()}
            m = min(vals.values())
            argmin = frozenset(i for i, val in vals.items() if val == m)
            assert argmin == report.result.active_sets[cone]
