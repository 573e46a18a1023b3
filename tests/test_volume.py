import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mockfan.cones import cone_from_generators as cg
from mockfan.fans import euler_char_height1, fan_from_cones
from mockfan.volume import (ClassLabel, FormalSum, StratumAnnotation,
                            vol_skeleton)

labels = st.sampled_from([
    ClassLabel.point(),
    ClassLabel.hypersurface(5, 3),
    ClassLabel.hypersurface(7, 2),
    ClassLabel.symbolic("E(tau0)"),
    ClassLabel.symbolic("E(sigma2)"),
])
sums = st.dictionaries(labels, st.integers(-6, 6), max_size=5).map(FormalSum)


def test_label_equality_structural():
    assert ClassLabel.point() == ClassLabel.point()
    assert ClassLabel.hypersurface(5, 3) == ClassLabel.hypersurface(5, 3)
    assert ClassLabel.hypersurface(5, 3) != ClassLabel.hypersurface(5, 4)
    assert ClassLabel.symbolic("a") != ClassLabel.symbolic("b")


def test_formal_sum_basics():
    pt = ClassLabel.point()
    x = FormalSum.of(pt)
    assert (x - x).is_zero()
    assert 2 * x - x == x
    assert x.coefficient(pt) == 1
    assert FormalSum.zero().render() == "0"


@given(sums, sums, sums)
@settings(max_examples=100)
def test_abelian_group_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a + FormalSum.zero() == a
    assert (a + (-a)).is_zero()
    assert a - b == a + (-b)


@given(sums)
def test_no_zero_coefficients_stored(a):
    assert all(c != 0 for c in a.terms.values())


def test_render_deterministic_order():
    s = FormalSum.of(ClassLabel.symbolic("E(tau0)")) \
        + 2 * FormalSum.of(ClassLabel.point()) \
        - FormalSum.of(ClassLabel.hypersurface(5, 3))
    assert s.render() == "-1*Hyp(P^5,d=3) +2*pt +1*E(tau0)"


def _bounded_fan():
    ray = cg(3, [(0, 0, 1)])
    two = cg(3, [(0, 0, 1), (1, 0, 1)])
    return fan_from_cones(3, [two], has_t=True), ray, two


def test_vol_skeleton_signs():
    fan, ray, two = _bounded_fan()
    pt = ClassLabel.point()
    ann = {ray: StratumAnnotation("r", (pt,)),
           two: StratumAnnotation("t", (pt,))}
    empty = vol_skeleton(fan, ann, active_filter=lambda c: False)
    assert empty.is_zero()
    only_ray = vol_skeleton(fan, ann, active_filter=lambda c: c == ray)
    assert only_ray == FormalSum.of(pt)
    only_two = vol_skeleton(fan, ann, active_filter=lambda c: c == two)
    assert only_two == -FormalSum.of(pt)


def test_vol_skeleton_default_annotation():
    fan, ray, two = _bounded_fan()
    ids = {c: f"c{i}" for i, c in enumerate(fan.cones)}
    total = vol_skeleton(fan, {})
    # bounded cones: two rays at t > 0 (sign +) and the 2-cone (sign -)
    expected = FormalSum.zero()
    for cone in fan.bounded_cones():
        sign = 1 if cone.dim() % 2 else -1
        expected = expected + sign * FormalSum.of(ClassLabel.symbolic(f"E({ids[cone]})"))
    assert total == expected
    assert len(total.terms) == 3
    assert sorted(total.terms.values()) == [-1, 1, 1]


def test_vol_skeleton_additive_in_annotations():
    fan, ray, two = _bounded_fan()
    pt = ClassLabel.point()
    e = ClassLabel.symbolic("E(x)")
    f = ClassLabel.symbolic("F(x)")
    base = {ray: StratumAnnotation("r", (pt,)),
            two: StratumAnnotation("t", (e,))}
    changed = dict(base)
    changed[two] = StratumAnnotation("t", (f,))
    v1 = vol_skeleton(fan, base)
    v2 = vol_skeleton(fan, changed)
    sign = 1 if two.dim() % 2 else -1
    assert v1 - v2 == sign * (FormalSum.of(e) - FormalSum.of(f))


def test_sign_matches_euler_characteristic():
    fan, _, _ = _bounded_fan()
    pt = ClassLabel.point()
    for cone in fan.bounded_cones():
        single = vol_skeleton(fan, {cone: StratumAnnotation("x", (pt,))},
                              active_filter=lambda c: c == cone)
        assert single.coefficient(pt) == euler_char_height1(cone)


def test_annotation_validation():
    with pytest.raises(ValueError, match="at least one label"):
        StratumAnnotation("x", ())


def test_multi_component_annotation():
    fan, ray, two = _bounded_fan()
    pt = ClassLabel.point()
    e = ClassLabel.symbolic("E(x)")
    ann = {two: StratumAnnotation("t", (pt, e))}
    assert len(ann[two].labels) == 2
    v = vol_skeleton(fan, ann, active_filter=lambda c: c == two)
    assert v == -(FormalSum.of(pt) + FormalSum.of(e))
