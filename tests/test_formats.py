import os
import random
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genutil import (is_face_of_oracle, oracle_fan, oracle_write_result, random_cone,
                     random_orthant_chart)
from mockfan import cones, fans, formats, subdivision
from mockfan.cli import main
from mockfan.cones import ConeError, zero_cone
from mockfan.cones import cone_from_generators as cg
from mockfan.exact import ExactError
from mockfan.fans import FanError, fan_from_cones
from mockfan.grassmann import (GrassmannSpec, grassmann_annotations, verify, vol_expression,
                               zero_chart)
from mockfan.subdivision import (LiftedExponent, MockPolytopeChart, rescaled_chart,
                                 subdivide_chart)
from mockfan.volume import ClassLabel, FormalSum, StratumAnnotation


def test_cone_roundtrip_byte_identical():
    rng = random.Random(88)
    for _ in range(20):
        c = random_cone(rng, max_rank=4, max_gens=6, entry=3)
        text = formats.write_cone(c)
        assert formats.read_cone(text) == c
        assert formats.write_cone(formats.read_cone(text)) == text


@pytest.mark.parametrize("cone, text", [
    (cg(2, [(1, 0), (0, 1)]),
     "schema mockfan.faces/1\nrank 2\nrays 2\n0 1\n1 0\nlineality 0\nfaces 4\n"
     "face dim 0 rays\nface dim 1 rays 0\nface dim 1 rays 1\nface dim 2 rays 0 1\n"),
    (cg(3, [(1, 0, 0), (1, 2, 0)], [(0, 1, 1)]),
     "schema mockfan.faces/1\nrank 3\nrays 2\n1 0 0\n1 1 -1\nlineality 1\n0 1 1\nfaces 4\n"
     "face dim 1 rays\nface dim 2 rays 0\nface dim 2 rays 1\nface dim 3 rays 0 1\n"),
    (zero_cone(3),
     "schema mockfan.faces/1\nrank 3\nrays 0\nlineality 0\nfaces 1\nface dim 0 rays\n"),
    (cg(3, [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)]),
     "schema mockfan.faces/1\nrank 3\nrays 4\n-1 0 1\n0 -1 1\n0 1 1\n1 0 1\nlineality 0\n"
     "faces 10\nface dim 0 rays\nface dim 1 rays 0\nface dim 1 rays 1\nface dim 1 rays 2\n"
     "face dim 1 rays 3\nface dim 2 rays 0 1\nface dim 2 rays 0 2\nface dim 2 rays 1 3\n"
     "face dim 2 rays 2 3\nface dim 3 rays 0 1 2 3\n"),
], ids=["orthant", "lineality", "zero", "square"])
def test_faces_listing_is_unchanged(cone, text):
    # the listings written before the face walk went up by covers
    assert formats.write_faces(cone) == text


def test_fan_roundtrip_byte_identical():
    f = fan_from_cones(2, [cg(2, [(1, 0), (0, 1)]), cg(2, [(0, 1), (-1, 0)])],
                       has_t=True)
    text = formats.write_fan(f)
    f2 = formats.read_fan(text)
    assert f2 == f
    assert formats.write_fan(f2) == text


def test_fan_text_is_the_same_whether_cones_share_ray_tuples_or_not():
    # the writer numbers rays by tuple identity first, then by value
    res = subdivide_chart(zero_chart(GrassmannSpec(5, 2, 1)))
    shared = res.projected_fan
    apart = oracle_fan(shared.rank, [
        cones.Cone._trusted(c.rank, tuple(tuple(list(r)) for r in c.rays), (), c.dim())
        for c in shared], True)
    rays = [r for fan in (shared, apart) for c in fan for r in c.rays]
    assert len({id(r) for r in rays[:len(rays) // 2]}) < len(rays) // 2
    assert len({id(r) for r in rays[len(rays) // 2:]}) == len(rays) // 2
    assert apart == shared
    assert formats.write_fan(apart) == formats.write_fan(shared)
    assert (formats.write_result(apart, res.active_sets)
            == formats.write_result(shared, res.active_sets))


def test_chart_roundtrip_byte_identical():
    rng = random.Random(99)
    for _ in range(10):
        chart = random_orthant_chart(rng)
        text = formats.write_chart(chart)
        back = formats.read_chart(text)
        assert back == chart
        assert formats.write_chart(back) == text


def test_grassmann_chart_roundtrip():
    chart = zero_chart(GrassmannSpec(4, 2, 1))
    text = formats.write_chart(chart)
    assert formats.read_chart(text) == chart


def test_result_roundtrip():
    rng = random.Random(17)
    res = subdivide_chart(random_orthant_chart(rng))
    text = formats.write_result(res.projected_fan, res.active_sets)
    fan, active = formats.read_result(text)
    assert fan == res.projected_fan
    assert active == dict(res.active_sets)
    assert formats.write_result(fan, active) == text


def test_reading_and_writing_back_a_result_builds_no_cone_of_its_fan():
    rng = random.Random(32)
    results = [subdivide_chart(zero_chart(GrassmannSpec(5, 2, 1)))]
    results += [subdivide_chart(random_orthant_chart(rng)) for _ in range(20)]
    for res in results:
        text = formats.write_result(res.projected_fan, res.active_sets)
        fan, active = formats.read_result(text)
        assert type(active) is subdivision.ActiveSets and active.fan is fan
        assert formats.write_result(fan, active) == text
        assert "cones" not in vars(fan)
        assert fan == res.projected_fan and active == dict(res.active_sets)


def result_listing(text, keep, rng):
    """`text` with only the active-set lines of the cone indices in `keep`,
    in a shuffled order."""
    head, sets = text.split("active_sets ")
    lines = [ln for ln in sets.splitlines()[1:] if int(ln.split()[1]) in keep]
    rng.shuffle(lines)
    return head + f"active_sets {len(lines)}\n" + "".join(ln + "\n" for ln in lines)


@pytest.mark.parametrize("seed", range(6))
def test_a_cone_with_no_active_set_line_reads_as_the_empty_set(seed):
    rng = random.Random(seed)
    chart = random_orthant_chart(rng) if seed else zero_chart(GrassmannSpec(5, 2, 1))
    res = subdivide_chart(chart)
    fan = res.projected_fan
    text = formats.write_result(fan, res.active_sets)
    for keep in (set(range(len(fan))), set(rng.sample(range(len(fan)), len(fan) // 2)), set()):
        read, active = formats.read_result(result_listing(text, keep, rng))
        listed = {c: res.active_sets[c] for k, c in enumerate(fan.cones) if k in keep}
        assert read == fan and len(active) == len(fan)
        assert all(active[c] == listed.get(c, frozenset()) for c in fan.cones)
        # what was written back from the dict of the listed cones alone
        assert formats.write_result(read, active) == oracle_write_result(fan, listed)


def test_write_result_refuses_the_active_sets_of_another_fan():
    rng = random.Random(7)
    res, other = (subdivide_chart(random_orthant_chart(rng)) for _ in range(2))
    assert res.projected_fan != other.projected_fan
    for active in (other.active_sets, dict(res.active_sets), {}):
        with pytest.raises(ValueError, match="ActiveSets of the fan it writes"):
            formats.write_result(res.projected_fan, active)


def test_expression_roundtrip():
    expr = vol_expression(GrassmannSpec(4, 2, 1))
    text = formats.write_expression(expr)
    assert formats.read_expression(text) == expr
    assert formats.write_expression(formats.read_expression(text)) == text
    assert "rendered" in text


def test_label_tokens():
    for label in (ClassLabel.point(), ClassLabel.hypersurface(5, 3),
                  ClassLabel.symbolic("E(tau0)")):
        assert formats.parse_label(formats.label_token(label)) == label
    with pytest.raises(formats.ParseError):
        formats.parse_label("nonsense")
    with pytest.raises(formats.ParseError):
        formats.parse_label("hyp:5")


LABELS = [ClassLabel.point(), ClassLabel.hypersurface(1, 1), ClassLabel.hypersurface(5, 3),
          ClassLabel.symbolic("E(tau0)"), ClassLabel.symbolic("pt"), ClassLabel.symbolic("a:b"),
          ClassLabel.symbolic("hyp:1:1"), ClassLabel.symbolic("#x")]


def test_every_label_kind_reads_back_as_written():
    expression = formats.write_expression(FormalSum({label: 1 for label in LABELS}))
    assert formats.read_expression(expression) == FormalSum({label: 1 for label in LABELS})
    fan = fan_from_cones(2, [cg(2, [(1, 0), (0, 1)])], has_t=True)
    for label in LABELS:
        assert formats.parse_label(formats.label_token(label)) == label
        annotations = {c: StratumAnnotation(f"c{k}", (label,)) for k, c in enumerate(fan.cones)}
        assert formats.read_annotations(formats.write_annotations(fan, annotations),
                                        fan) == annotations


@pytest.mark.parametrize("kind, fields", [
    ("symbolic", {"name": "a b"}), ("symbolic", {"name": ""}), ("symbolic", {"name": "a\u2028b"}),
    ("symbolic", {"name": "a", "degree": 1}), ("hypersurface", {"ambient_dim": 0, "degree": 2}),
    ("hypersurface", {"ambient_dim": 3, "degree": 0}), ("hypersurface", {"ambient_dim": 3}),
    ("hypersurface", {"ambient_dim": True, "degree": 2}), ("point", {"name": "x"}),
    ("line", {}),
])
def test_a_label_with_no_token_that_reads_back_is_rejected(kind, fields):
    # the writer would emit e.g. `sym:a b`, `sym:`, `hyp:0:2` or `pt` for these
    with pytest.raises(ValueError, match="is no point"):
        ClassLabel(kind, **fields)


@pytest.mark.parametrize("terms", ["terms 2\n+1 pt\n+1 pt\n", "terms 2\n+1 pt\n-1 pt\n",
                                   "terms 1\n+0 pt\n", "terms 2\n-1 pt\n+0 hyp:5:3\n"])
def test_expression_rejects_a_repeated_label_or_a_zero_coefficient(terms):
    # the writer emits each label once and never a zero coefficient
    with pytest.raises(formats.ParseError, match="repeated or has coefficient 0"):
        formats.read_expression(f"schema mockfan.expression/1\n{terms}rendered free text\n")


@pytest.mark.parametrize("token", ["hyp:-3:0", "hyp:0:2", "hyp:3:0", "hyp:3:-1"])
def test_hypersurface_label_needs_dimension_and_degree_at_least_one(token):
    with pytest.raises(formats.ParseError, match="dimension and degree"):
        formats.parse_label(token)


def test_annotations_roundtrip():
    fan = fan_from_cones(3, [cg(3, [(0, 0, 1), (1, 0, 1)])], has_t=True)
    two = cg(3, [(0, 0, 1), (1, 0, 1)])
    idx = fan.cones.index(two)
    ann = {two: StratumAnnotation(f"c{idx}",
                                  (ClassLabel.point(), ClassLabel.symbolic("E(x)")))}
    text = formats.write_annotations(fan, ann)
    back = formats.read_annotations(text, fan)
    assert back == ann


def test_annotations_of_a_cone_outside_the_fan_are_refused():
    spec = GrassmannSpec(4, 2, 1)
    fan = verify(spec).bounded_fan
    annotations = grassmann_annotations(spec)
    assert formats.write_annotations(fan, annotations).count("\ncone ") == 7
    ray = cg(fan.rank, [(1,) + (0,) * (fan.rank - 1)])   # t = 0: no bounded cone
    annotations[ray] = StratumAnnotation("ray", (ClassLabel.point(),))
    with pytest.raises(ValueError, match=re.escape(
            f"annotated cone is not a cone of the fan: {ray!r}")):
        formats.write_annotations(fan, annotations)


def test_parse_errors():
    with pytest.raises(formats.ParseError, match="schema"):
        formats.read_cone("garbage\n")
    with pytest.raises(formats.ParseError, match="schema"):
        formats.read_cone("schema mockfan.fan/1\n")
    with pytest.raises(formats.ParseError, match="integer"):
        formats.read_cone("schema mockfan.cone/1\nrank x\n")
    with pytest.raises(formats.ParseError, match="entries"):
        formats.read_cone("schema mockfan.cone/1\nrank 2\nrays 1\n1 2 3\nlineality 0\n")
    with pytest.raises(formats.ParseError, match="end of file"):
        formats.read_cone("schema mockfan.cone/1\nrank 2\nrays 1\n")
    with pytest.raises(formats.ParseError, match="out of range"):
        formats.read_fan("schema mockfan.fan/1\nrank 2\nhas_t 0\nrays 1\n1 0\n"
                         "cones 1\ncone 5\n")


def test_comments_and_blank_lines_ignored():
    text = ("# a cone\nschema mockfan.cone/1\n\nrank 2\nrays 1\n1 0\n"
            "# trailing\nlineality 0\n")
    assert formats.read_cone(text) == cg(2, [(1, 0)])


# Each text is well formed except for one negative count, a negative ray
# index or a has_t flag other than 0 or 1.
MALFORMED = {
    "fan cone -1": (formats.read_fan, "schema mockfan.fan/1\nrank 2\nhas_t 0\n"
                    "rays 2\n1 0\n0 1\ncones 1\ncone -1\n"),
    "fan has_t 7": (formats.read_fan, "schema mockfan.fan/1\nrank 2\nhas_t 7\n"
                    "rays 1\n0 1\ncones 1\ncone 0\n"),
    "fan has_t 7 rays -1": (formats.read_fan, "schema mockfan.fan/1\nrank 2\n"
                            "has_t 7\nrays -1\ncones 0\n"),
    "fan rays -1": (formats.read_fan, "schema mockfan.fan/1\nrank 2\nhas_t 0\n"
                    "rays -1\ncones 0\n"),
    "fan cones -1": (formats.read_fan, "schema mockfan.fan/1\nrank 2\nhas_t 0\n"
                     "rays 1\n1 0\ncones -1\n"),
    "cone rays -1": (formats.read_cone, "schema mockfan.cone/1\nrank 2\nrays -1\n"
                     "lineality 0\n"),
    "cone lineality -1": (formats.read_cone, "schema mockfan.cone/1\nrank 2\n"
                          "rays 1\n1 0\nlineality -1\n"),
    "chart sigma_duals -1": (formats.read_chart, "schema mockfan.chart/1\nlabel demo\n"
                             "rank 2\nscale 1\nsigma_duals -1\nitems 1\n"
                             "item a kappa 0 exponent 0 0\n"),
    "chart items -1": (formats.read_chart, "schema mockfan.chart/1\nlabel demo\n"
                       "rank 2\nscale 1\nsigma_duals 1\n0 1\nitems -1\n"),
    "result active_sets -1": (formats.read_result, "schema mockfan.result/1\nrank 2\n"
                              "has_t 1\nrays 1\n0 1\ncones 2\ncone\ncone 0\n"
                              "active_sets -1\n"),
    "annotations -1": (lambda text: formats.read_annotations(
        text, fan_from_cones(2, [], has_t=True)),
        "schema mockfan.annotations/1\nannotations -1\n"),
    "expression terms -1": (formats.read_expression,
                            "schema mockfan.expression/1\nterms -1\nrendered 0\n"),
}


@pytest.mark.parametrize("case", sorted(MALFORMED))
def test_rejects_negative_counts_indices_and_bad_flags(case):
    reader, text = MALFORMED[case]
    with pytest.raises(formats.ParseError):
        reader(text)


def test_cli_exits_2_on_negative_ray_index(tmp_path):
    path = tmp_path / "fan.txt"
    path.write_text(MALFORMED["fan cone -1"][1])
    assert main(["bounded", "-i", str(path)]) == 2


# Each text is a complete file with a negative rank, or a complete file
# followed by one more record.
CONE_TEXT = "schema mockfan.cone/1\nrank 2\nrays 1\n1 0\nlineality 0\n"
FAN_TEXT = "schema mockfan.fan/1\nrank 2\nhas_t 0\nrays 1\n1 0\ncones 2\ncone\ncone 0\n"
CHART_TEXT = ("schema mockfan.chart/1\nlabel demo\nrank 2\nscale 1\nsigma_duals 1\n"
              "0 1\nitems 1\nitem a kappa 0 exponent 0 0\n")
RESULT_TEXT = ("schema mockfan.result/1\nrank 2\nhas_t 1\nrays 1\n0 1\ncones 2\ncone\n"
               "cone 0\nactive_sets 2\ncone 0 items a\ncone 1 items a\n")
ANNOTATIONS_TEXT = "schema mockfan.annotations/1\nannotations 1\ncone 1 labels pt\n"
EXPRESSION_TEXT = "schema mockfan.expression/1\nterms 1\n+1 pt\nrendered +1*pt\n"


def read_annotations_on_result_fan(text):
    return formats.read_annotations(text, formats.read_result(RESULT_TEXT)[0])


STRICT = {
    "cone rank -3": (formats.read_cone,
                     "schema mockfan.cone/1\nrank -3\nrays 0\nlineality 0\n"),
    "fan rank -3": (formats.read_fan,
                    "schema mockfan.fan/1\nrank -3\nhas_t 0\nrays 0\ncones 0\n"),
    "chart rank -3": (formats.read_chart,
                      "schema mockfan.chart/1\nlabel demo\nrank -3\nscale 1\n"
                      "sigma_duals 0\nitems 0\n"),
    "result rank -3": (formats.read_result,
                       "schema mockfan.result/1\nrank -3\nhas_t 1\nrays 0\ncones 0\n"
                       "active_sets 0\n"),
    "cone trailing ray": (formats.read_cone, CONE_TEXT + "0 1\n"),
    "cone trailing cone": (formats.read_cone, CONE_TEXT + CONE_TEXT),
    "fan trailing cone": (formats.read_fan, FAN_TEXT + "cone 0\n"),
    "fan or result trailing word": (formats.read_fan_or_result, FAN_TEXT + "garbage\n"),
    "chart trailing item": (formats.read_chart,
                            CHART_TEXT + "item b kappa 0 exponent 1 0\n"),
    "result trailing active set": (formats.read_result, RESULT_TEXT + "cone 1 items b\n"),
    "result as fan trailing word": (formats.read_fan_or_result, RESULT_TEXT + "x\n"),
    "annotations trailing word": (read_annotations_on_result_fan,
                                  ANNOTATIONS_TEXT + "garbage\n"),
    "expression trailing word": (formats.read_expression, EXPRESSION_TEXT + "garbage\n"),
}


@pytest.mark.parametrize("case", sorted(STRICT))
def test_rejects_negative_rank_and_text_after_the_file(case):
    reader, text = STRICT[case]
    with pytest.raises(formats.ParseError):
        reader(text)


@pytest.mark.parametrize("reader, text", [
    (formats.read_cone, CONE_TEXT), (formats.read_fan, FAN_TEXT),
    (formats.read_chart, CHART_TEXT), (formats.read_result, RESULT_TEXT),
    (read_annotations_on_result_fan, ANNOTATIONS_TEXT),
    (formats.read_expression, EXPRESSION_TEXT)])
def test_trailing_blank_and_comment_lines_are_accepted(reader, text):
    assert reader(text + "\n# end\n\n") == reader(text)


# Two lines for one cone index: the second must be rejected, not read over the first.
REPEATED_RESULT_TEXT = RESULT_TEXT.replace(
    "active_sets 2\ncone 0 items a\ncone 1 items a\n",
    "active_sets 2\ncone 0 items a b\ncone 0 items zz a b\n")
REPEATED_ANNOTATIONS_TEXT = ("schema mockfan.annotations/1\nannotations 2\n"
                             "cone 1 labels pt\ncone 1 labels pt pt\n")
# One item id twice in one active set: read as a set, it would lose a token.
REPEATED_ITEM_RESULT_TEXT = RESULT_TEXT.replace("cone 1 items a\n", "cone 1 items a a\n")


@pytest.mark.parametrize("reader, text, match", [
    (formats.read_result, REPEATED_RESULT_TEXT, "active set cone index 0 repeated"),
    (read_annotations_on_result_fan, REPEATED_ANNOTATIONS_TEXT,
     "annotation cone index 1 repeated"),
    (formats.read_result, REPEATED_ITEM_RESULT_TEXT,
     "active set of cone index 1 has a repeated item id")],
    ids=["result", "annotations", "result item"])
def test_rejects_a_repeated_cone_index(reader, text, match):
    with pytest.raises(formats.ParseError, match=match):
        reader(text)


@pytest.mark.parametrize("result_text, annotations_text", [
    (REPEATED_RESULT_TEXT, ANNOTATIONS_TEXT), (RESULT_TEXT, REPEATED_ANNOTATIONS_TEXT),
    (REPEATED_ITEM_RESULT_TEXT, ANNOTATIONS_TEXT)],
    ids=["result", "annotations", "result item"])
def test_cli_exits_2_on_a_repeated_cone_index(tmp_path, capsys, result_text,
                                              annotations_text):
    result, annotations = tmp_path / "result.txt", tmp_path / "ann.txt"
    result.write_text(result_text)
    annotations.write_text(annotations_text)
    assert main(["vol", "-i", str(result), "--annotations", str(annotations)]) == 2
    assert "repeated" in capsys.readouterr().err


@pytest.mark.parametrize("case", ["cone rank -3", "cone trailing ray"])
def test_cli_exits_2_on_negative_rank_and_trailing_text(tmp_path, capsys, case):
    path = tmp_path / "cone.txt"
    path.write_text(STRICT[case][1])
    assert main(["dual", "-i", str(path)]) == 2
    assert "error[input]" in capsys.readouterr().err


token = st.text(min_size=1, max_size=6).filter(
    lambda s: not any(ch.isspace() for ch in s))


@st.composite
def charts(draw):
    rank = draw(st.integers(1, 4))
    vec = st.lists(st.integers(-99, 99), min_size=rank, max_size=rank).map(tuple)
    ids = draw(st.lists(token, min_size=1, max_size=6, unique=True))
    items = tuple(LiftedExponent(i, draw(vec), draw(st.integers(-9, 9))) for i in ids)
    return MockPolytopeChart(draw(token), rank, tuple(draw(st.lists(vec, max_size=4))),
                             items, scale=draw(st.integers(1, 5)))


@given(charts())
@settings(max_examples=200, deadline=None)
def test_chart_write_read_write_is_byte_identical(chart):
    text = formats.write_chart(chart)
    back = formats.read_chart(text)
    assert back == chart
    assert formats.write_chart(back) == text


@given(st.lists(token, min_size=3, max_size=3, unique=True), token)
@settings(max_examples=50, deadline=None)
def test_result_with_arbitrary_ids_round_trips(ids, label):
    items = tuple(LiftedExponent(i, e, k) for i, e, k in
                  zip(ids, [(0, 0, 0), (1, -1, 0), (-1, 2, 0)], [2, 0, 1]))
    duals = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    res = subdivide_chart(MockPolytopeChart(label, 3, duals, items))
    text = formats.write_result(res.projected_fan, res.active_sets)
    fan, active = formats.read_result(text)
    assert active == dict(res.active_sets)
    assert formats.write_result(fan, active) == text


@given(st.randoms(use_true_random=False), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_fan_write_read_write_is_byte_identical(rnd, scale):
    chart = random_orthant_chart(rnd, max_rank=4, max_items=8)
    res = subdivide_chart(rescaled_chart(chart, scale))
    fan = res.projected_fan
    text = formats.write_fan(fan)
    back = formats.read_fan(text)
    assert back == fan
    assert formats.write_fan(back) == text
    result_text = formats.write_result(fan, res.active_sets)
    assert formats.read_fan_or_result(text) == formats.read_fan_or_result(result_text) == fan


def test_expression_rejects_a_wrong_rendered_line():
    good = formats.write_expression(vol_expression(GrassmannSpec(4, 2, 1)))
    assert formats.read_expression(good)
    rendered = good.splitlines()[-1]
    with pytest.raises(formats.ParseError, match="rendered"):
        formats.read_expression(good.replace(rendered, "rendered +1*pt"))
    with pytest.raises(formats.ParseError, match="rendered"):
        formats.read_expression(EXPRESSION_TEXT.replace("+1*pt", "pt"))


# -- the fan reader against the cone-by-cone reading ---------------------------

def read_fan_oracle(lines):
    """The fan reader that builds every listed cone by DD: the oracle of
    `formats._read_fan_body`.  `assert_reads_as_the_oracle` runs it with
    the face test of `fan_from_cones` replaced by `is_face_of_oracle`."""
    rank = formats._nonnegative(lines, "rank")
    has_t = formats._one_int(lines.expect("has_t"), "has_t")
    if has_t not in (0, 1):
        raise formats.ParseError(f"has_t must be 0 or 1, got {has_t}")
    nrays = formats._nonnegative(lines, "rays")
    rays = formats._read_vectors(lines, nrays, rank, "ray")
    ncones = formats._nonnegative(lines, "cones")
    cones = []
    for _ in range(ncones):
        idx = formats._ints(lines.expect("cone"), "cone ray indices")
        bad = [i for i in idx if not 0 <= i < nrays]
        if bad:
            raise formats.ParseError(f"cone ray index {bad[0]} out of range for {nrays} rays")
        gens = [rays[i] for i in idx]
        cones.append(cg(rank, gens))
    return fan_from_cones(rank, cones, has_t=bool(has_t))


def read_outcome(text):
    """What `read_result` or `read_fan` returns for text, or the type and
    message of the input error it raises."""
    try:
        if text.startswith(f"schema {formats.RESULT_SCHEMA}"):
            return formats.read_result(text)
        return formats.read_fan(text)
    except (formats.ParseError, FanError, ConeError, ExactError) as exc:
        return type(exc), str(exc)


def assert_reads_as_the_oracle(text):
    got = read_outcome(text)
    with mock.patch.object(formats, "_read_fan_body", read_fan_oracle), \
            mock.patch.object(fans, "is_face_of", is_face_of_oracle):
        assert got == read_outcome(text)
    return got


@st.composite
def written_fans(draw):
    """A written fan or result file of a random chart, maybe with one line
    or token of its fan part replaced, deleted or duplicated."""
    chart = random_orthant_chart(draw(st.randoms(use_true_random=False)), max_rank=4,
                                 max_items=6)
    res = subdivide_chart(rescaled_chart(chart, draw(st.integers(1, 2))))
    if draw(st.booleans()):
        text = formats.write_result(res.projected_fan, res.active_sets)
    else:
        text = formats.write_fan(res.projected_fan)
    if not draw(st.booleans()):
        return text
    lines = text.splitlines()
    body = next((k for k, ln in enumerate(lines) if ln.startswith("active_sets")),
                len(lines))
    cone_lines = [k for k in range(body) if lines[k].startswith("cone")]
    if cone_lines and draw(st.booleans()):
        i = draw(st.sampled_from(cone_lines))
    else:
        i = draw(st.integers(1, body - 1))
    action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    tokens = lines[i].split()
    if draw(st.booleans()) or not tokens:
        if action == "replace":
            lines[i] = draw(st.sampled_from(lines[1:body]))
        elif action == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    else:
        j = draw(st.integers(0, len(tokens) - 1))
        if action == "replace":
            tokens[j] = draw(st.sampled_from(text.split()) | st.integers(-3, 6).map(str))
        elif action == "delete":
            del tokens[j]
        else:
            tokens.insert(j, tokens[j])
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@given(written_fans())
@settings(max_examples=200, deadline=None)
def test_fan_reader_agrees_with_the_cone_by_cone_oracle(text):
    assert_reads_as_the_oracle(text)


def fan_text(rays, cones, rank=2, has_t=0):
    out = ["schema mockfan.fan/1", f"rank {rank}", f"has_t {has_t}", f"rays {len(rays)}"]
    out += [" ".join(map(str, r)) for r in rays]
    out.append(f"cones {len(cones)}")
    out += [f"cone {' '.join(map(str, c))}".rstrip() for c in cones]
    return "\n".join(out) + "\n"


QUADRANT = fan_from_cones(2, [cg(2, [(1, 0), (0, 1)])])

READER_CASES = {
    # (1, 1) is no extreme ray of the listed cone 0 1 2
    "extra non-extreme ray index": (
        fan_text([(1, 0), (1, 1), (0, 1)], [(0, 1, 2), (0,), (2,), ()]), QUADRANT),
    # (2, 0) is no primitive ray, row 3 repeats row 1, index 0 is repeated
    "non-primitive and duplicated rows, repeated index": (
        fan_text([(1, 0), (0, 1), (2, 0), (0, 1)],
                 [(0, 1, 2), (2,), (3,), (0, 0, 1), (1, 0), ()]), QUADRANT),
    "the diagonal of a square cone": (
        fan_text([(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1)], [(0, 1, 2, 3), (0, 2)],
                 rank=3), (FanError, "not a fan: cone is not a face of any maximal "
                           "cone: [(-1, 0, 1), (1, 0, 1)]")),
    "only the zero cone": (fan_text([], [()]), fan_from_cones(2, [zero_cone(2)])),
    "t-flagged, rank 0": (fan_text([], [()], rank=0, has_t=1),
                          (FanError, "not a fan: a t-flagged fan of rank 0 has no t-coordinate")),
    "only the zero cone, rays listed": (fan_text([(1, 0)], [()]),
                                       fan_from_cones(2, [zero_cone(2)])),
    "a candidate with lineality": (
        fan_text([(1, 0), (-1, 0), (0, 1)], [(0, 1, 2), (0,), ()]),
        (FanError, "not a fan: member cone is not strongly convex")),
    # the listed cone 0 2 lies in the quadrant 0 1 without being a face of
    # it: the first stray of the pass; its face, the ray (1, 1), comes later
    "a listed face of a non-face": (
        fan_text([(1, 0), (0, 1), (1, 1)], [(0, 1), (0, 2), (2,)]),
        (FanError, "not a fan: cone is not a face of any maximal cone: [(1, 0), (1, 1)]")),
    # the ray (1, 1) lies in the quadrant 0 1 (with a non-extreme index 2)
    # and in the cone 2 3, and is a face of the second only: its first
    # holder, the quadrant, builds it; the pair then fails to meet in a face
    "a listed cone inside two candidates, a face of the second only": (
        fan_text([(1, 0), (0, 1), (1, 1), (-1, 1)], [(0, 1, 2), (2, 3), (2,)]),
        (FanError, "not a fan: intersection is not a common face: "
                   "[(-1, 1), (1, 1)] and [(0, 1), (1, 0)]")),
}


@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_fan_reader_cases(case):
    text, expected = READER_CASES[case]
    assert assert_reads_as_the_oracle(text) == expected


def assert_reading_runs_one_dd_per_maximal_cone(monkeypatch, n):
    """Reading the zero chart's result for Gr(2, n) runs one DD per maximal
    cone and one face test per listed cone that is not maximal."""
    res = subdivide_chart(zero_chart(GrassmannSpec(n, 2, 1)), verify=False)
    text = formats.write_result(res.projected_fan, res.active_sets)
    calls, face_tests = [], []
    real = formats.cone_from_generators
    monkeypatch.setattr(formats, "cone_from_generators",
                        lambda *args: calls.append(args) or real(*args))
    real_face_mask = cones.Cone.face_mask
    monkeypatch.setattr(cones.Cone, "face_mask",
                        lambda cone, rays: face_tests.append(cone) or real_face_mask(cone, rays))
    fan, active = formats.read_result(text)
    assert fan == res.projected_fan and active == dict(res.active_sets)
    masks = [mask for _, mask in fan.cells]   # each cone's rays
    maximal = [m for m in masks if not any(m & ~d == 0 for d in masks if d != m)]
    assert len(calls) == len(maximal) < len(fan)
    assert len(face_tests) == len(fan) - len(maximal)   # against its first holder


def test_reading_a_result_runs_one_dd_per_maximal_cone(monkeypatch):
    assert_reading_runs_one_dd_per_maximal_cone(monkeypatch, 5)


@pytest.mark.skipif(not os.environ.get("MOCKFAN_LARGE_CASES"),
                    reason="large case, about 2 s: set MOCKFAN_LARGE_CASES=1")
def test_reading_the_8_2_1_result_runs_one_dd_per_maximal_cone(monkeypatch):
    assert_reading_runs_one_dd_per_maximal_cone(monkeypatch, 8)


def test_facet_masks_are_computed_once_per_cone(monkeypatch):
    asked = []
    real = cones.Cone.facet_masks

    def spy(cone):
        asked.append((cone, cone._facet_masks is None))
        return real(cone)

    monkeypatch.setattr(cones.Cone, "facet_masks", spy)
    res = subdivide_chart(zero_chart(GrassmannSpec(5, 2, 1)), verify=True)
    # the certificate, then the walk; the lift took the masks of C from the
    # table of its one pairing, so neither computes them
    assert asked == [(res.big_cone, False), (res.big_cone, False)]
    asked.clear()
    face_tests = []
    real_face_mask = cones.Cone.face_mask

    def face_mask_spy(cone, rays):
        face_tests.append(cone)
        return real_face_mask(cone, rays)

    monkeypatch.setattr(cones.Cone, "face_mask", face_mask_spy)
    fan, _ = formats.read_result(formats.write_result(res.projected_fan, res.active_sets))
    maximal = [c for c in fan.cones
               if not any(set(c.rays) < set(d.rays) for d in fan.cones)]
    simplicial = [c for c in maximal if len(c.rays) == c.dim()]
    assert 0 < len(simplicial) < len(maximal)
    computed = [cone for cone, first in asked if first]
    assert len({id(c) for c in computed}) == len(computed)
    assert set(maximal) - set(simplicial) <= set(computed) <= set(maximal)
    # each face test (the reader's skip test of a listed face against its
    # first holder; fan_from_cones certifies every meet from its table), then
    # one walk per maximal cone in fan_from_cones, which gives a simplicial
    # one its boolean lattice with no facet mask
    assert len(asked) == len(face_tests) + len(maximal) - len(simplicial)
    assert {id(c) for c, _ in asked} == {id(c) for c in computed}


def intersect_calls_reading(monkeypatch, results):
    """The `intersect` calls of `fan_from_cones` while each result is read,
    written back and compared with what was written."""
    calls = []
    real = fans.intersect
    monkeypatch.setattr(fans, "intersect", lambda *args: calls.append(args) or real(*args))
    for res in results:
        text = formats.write_result(res.projected_fan, res.active_sets)
        assert formats.write_result(*formats.read_result(text)) == text
    return len(calls)


def test_reading_results_meets_no_pair_of_maximal_cones_by_dd(monkeypatch):
    rng = random.Random(2025)
    results = [subdivide_chart(zero_chart(GrassmannSpec(n, 2, 1)), verify=False)
               for n in (5, 6)]
    results += [subdivide_chart(random_orthant_chart(rng), verify=False) for _ in range(40)]
    assert intersect_calls_reading(monkeypatch, results) == 0


@pytest.mark.skipif(not os.environ.get("MOCKFAN_LARGE_CASES"),
                    reason="large case, about 2 s: set MOCKFAN_LARGE_CASES=1")
def test_reading_the_8_2_1_result_meets_no_pair_of_maximal_cones_by_dd(monkeypatch):
    result = verify(GrassmannSpec(8, 2, 1), verify_fan=False).result
    assert intersect_calls_reading(monkeypatch, [result]) == 0


# -- integers: an optional sign and ASCII digits, nothing else that int() takes --

GRAMMAR_CHART = MockPolytopeChart("demo", 2, ((0, 1),), (LiftedExponent("a", (0, 0), 2),
                                                         LiftedExponent("b", (1, 0))), scale=3)
GRAMMAR_RESULT = subdivide_chart(GRAMMAR_CHART)
GRAMMAR_TEXTS = {
    formats.read_cone: formats.write_cone(cg(2, [(2, 1)])),
    formats.read_fan: formats.write_fan(GRAMMAR_RESULT.projected_fan),
    formats.read_chart: formats.write_chart(GRAMMAR_CHART),
    formats.read_result: formats.write_result(GRAMMAR_RESULT.projected_fan,
                                              GRAMMAR_RESULT.active_sets),
    formats.read_expression: formats.write_expression(FormalSum({ClassLabel.point(): 3})),
}


@pytest.mark.parametrize("reader, line, bad_line, what", [
    (formats.read_cone, "2 1", "2 0_1", "ray"),
    (formats.read_cone, "2 1", "２ 1", "ray"),                       # fullwidth 2
    (formats.read_fan, "cone 0 2", "cone 0 0_2", "cone ray indices"),
    (formats.read_fan, "cone 0 2", "cone ０ 2", "cone ray indices"),
    (formats.read_chart, "scale 3", "scale 0_3", "scale"),
    (formats.read_chart, "scale 3", "scale ٣", "scale"),             # Arabic-Indic 3
    (formats.read_chart, "item a kappa 2 exponent 0 0", "item a kappa 0_2 exponent 0 0",
     "kappa"),
    (formats.read_chart, "item a kappa 2 exponent 0 0", "item a kappa ٢ exponent 0 0",
     "kappa"),
    (formats.read_chart, "item b kappa 0 exponent 1 0", "item b kappa 0 exponent 1 0_0",
     "exponent"),
    (formats.read_chart, "item b kappa 0 exponent 1 0", "item b kappa 0 exponent １ 0",
     "exponent"),
    (formats.read_result, "cone 0 items a b", "cone 0_0 items a b", "cone index"),
    (formats.read_result, "cone 0 items a b", "cone ０ items a b", "cone index"),
    (formats.read_expression, "+3 pt", "+0_3 pt", "coefficient"),
    (formats.read_expression, "+3 pt", "+３ pt", "coefficient"),
])
def test_integers_outside_the_grammar_are_rejected(reader, line, bad_line, what):
    # each bad token is one that int() reads as the value it replaces
    lines = GRAMMAR_TEXTS[reader].splitlines()
    reader("\n".join(lines) + "\n")
    lines[lines.index(line)] = bad_line
    with pytest.raises(formats.ParseError, match=f"bad integer in {what}"):
        reader("\n".join(lines) + "\n")


@pytest.mark.parametrize("token", ["1_0", "５", " 5", "5 ", "+-5", "0x5", "", "+"])
def test_ints_takes_only_a_sign_and_ascii_digits(token):
    assert formats._ints(["+5", "-0", "07"], "x") == (5, 0, 7)
    with pytest.raises(formats.ParseError, match=re.escape(f"bad integer in x: {token!r}")):
        formats._ints(["1", token], "x")


def test_writing_the_8_2_1_fan_expands_no_mask(monkeypatch):
    # 0 expansions measured, no headroom: each cone line is read off per-byte
    # strings of its mask, and no `Cone` of the fan is built
    res = verify(GrassmannSpec(8, 2, 1), verify_fan=False).result
    expanded, real = [], cones._bit_indices
    for module in (cones, fans, formats, subdivision):
        monkeypatch.setattr(module, "_bit_indices", lambda m: expanded.append(m) or real(m))
    lines = formats._fan_body(res.projected_fan)
    assert len(lines) == 4 + 20 + 4364 and expanded == []
    assert "cones" not in vars(res.projected_fan)
