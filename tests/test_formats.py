import random

import pytest

from genutil import random_cone, random_orthant_chart
from mockfan import formats
from mockfan.cli import main
from mockfan.cones import cone_from_generators as cg
from mockfan.fans import fan_from_cones
from mockfan.grassmann import GrassmannSpec, vol_expression, zero_chart
from mockfan.subdivision import subdivide_chart
from mockfan.volume import ClassLabel, FormalSum, StratumAnnotation


def test_cone_roundtrip_byte_identical():
    rng = random.Random(88)
    for _ in range(20):
        c = random_cone(rng, max_rank=4, max_gens=6, entry=3)
        text = formats.write_cone(c)
        assert formats.read_cone(text) == c
        assert formats.write_cone(formats.read_cone(text)) == text


def test_fan_roundtrip_byte_identical():
    f = fan_from_cones(2, [cg(2, [(1, 0), (0, 1)]), cg(2, [(0, 1), (-1, 0)])],
                       has_t=True)
    text = formats.write_fan(f)
    f2 = formats.read_fan(text)
    assert f2 == f
    assert formats.write_fan(f2) == text


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


def test_annotations_roundtrip():
    fan = fan_from_cones(3, [cg(3, [(0, 0, 1), (1, 0, 1)])], has_t=True)
    two = cg(3, [(0, 0, 1), (1, 0, 1)])
    idx = fan.cones.index(two)
    ann = {two: StratumAnnotation(f"c{idx}", 2,
                                  (ClassLabel.point(), ClassLabel.symbolic("E(x)")))}
    text = formats.write_annotations(fan, ann)
    back = formats.read_annotations(text, fan)
    assert back == ann


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
