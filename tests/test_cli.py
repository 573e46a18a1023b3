import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

from mockfan import cli, formats
from mockfan.cli import COMMANDS, build_parser, main
from mockfan.cones import cone_from_generators as cg
from mockfan.fans import fan_from_cones
from mockfan.grassmann import GrassmannSpec, expected_vol_expression
from mockfan.subdivision import LiftedExponent, MockPolytopeChart, subdivide_chart


@pytest.fixture
def orthant_file(tmp_path):
    p = tmp_path / "orthant.txt"
    p.write_text(formats.write_cone(cg(2, [(1, 0), (0, 1)])))
    return p


def test_dual_on_orthant_is_identity(orthant_file, tmp_path, capsys):
    out = tmp_path / "dual.txt"
    assert main(["dual", "-i", str(orthant_file), "-o", str(out)]) == 0
    assert out.read_text() == orthant_file.read_text()


def test_faces_listing(orthant_file, capsys):
    assert main(["faces", "-i", str(orthant_file)]) == 0
    text = capsys.readouterr().out
    assert "faces 4" in text


def test_subdivide_and_glue(tmp_path, capsys):
    chart = tmp_path / "chart.txt"
    chart.write_text(
        "schema mockfan.chart/1\nlabel demo\nrank 2\nscale 1\n"
        "sigma_duals 1\n0 1\nitems 2\n"
        "item a kappa 0 exponent 0 0\nitem b kappa 0 exponent 1 0\n")
    out1 = tmp_path / "r1.txt"
    assert main(["subdivide", "-i", str(chart), "-o", str(out1)]) == 0
    out2 = tmp_path / "r2.txt"
    assert main(["glue", "-i", str(chart), str(chart), "-o", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()
    fan, active = formats.read_result(out1.read_text())
    assert len(fan) == 6


def test_rescale_composition(tmp_path):
    fan_file = tmp_path / "fan.txt"
    fan_file.write_text(formats.write_fan(
        fan_from_cones(2, [cg(2, [(1, 2)])], has_t=True)))
    a = tmp_path / "a.txt"
    b = tmp_path / "b.txt"
    c = tmp_path / "c.txt"
    assert main(["rescale", "-i", str(fan_file), "--scale", "3", "-o", str(a)]) == 0
    assert main(["rescale", "-i", str(a), "--scale", "2", "-o", str(b)]) == 0
    assert main(["rescale", "-i", str(fan_file), "--scale", "6", "-o", str(c)]) == 0
    assert b.read_text() == c.read_text()


def test_bounded_classification(tmp_path, capsys):
    fan_file = tmp_path / "fan.txt"
    fan_file.write_text(formats.write_fan(
        fan_from_cones(3, [cg(3, [(1, 0, 1), (0, 0, 1)])], has_t=True)))
    assert main(["bounded", "-i", str(fan_file)]) == 0
    out = capsys.readouterr().out
    assert "special bounded" in out


def test_commands_that_read_t_reject_a_fan_without_it(tmp_path, capsys):
    # bounded, rescale and vol each classify by the t coordinate; a fan
    # flagged has_t 1 but of rank 0 has no coordinate to be t
    fan_file = tmp_path / "fan.txt"
    for text, message in [
            ("schema mockfan.fan/1\nrank 2\nhas_t 0\nrays 2\n1 1\n0 1\ncones 1\ncone 0 1\n",
             "requires a fan with a t coordinate"),
            ("schema mockfan.fan/1\nrank 0\nhas_t 1\nrays 0\ncones 1\ncone\n",
             "a t-flagged fan of rank 0 has no t-coordinate")]:
        fan_file.write_text(text)
        for argv in (["bounded"], ["rescale", "--scale", "2"], ["vol"]):
            assert main(argv + ["-i", str(fan_file)]) == 2
            captured = capsys.readouterr()
            assert not captured.out
            assert message in captured.err


def test_vol_with_annotations(tmp_path, capsys):
    fan = fan_from_cones(3, [cg(3, [(0, 0, 1), (1, 0, 1)])], has_t=True)
    fan_file = tmp_path / "fan.txt"
    fan_file.write_text(formats.write_fan(fan))
    two = cg(3, [(0, 0, 1), (1, 0, 1)])
    ann_file = tmp_path / "ann.txt"
    ann_file.write_text(
        f"schema mockfan.annotations/1\nannotations 1\n"
        f"cone {fan.cones.index(two)} labels pt pt\n")
    assert main(["vol", "-i", str(fan_file), "--annotations", str(ann_file)]) == 0
    out = capsys.readouterr().out
    assert "-2 pt" in out


def test_vol_accepts_result_file_and_matches_grassmann_vol(tmp_path, capsys):
    from mockfan.grassmann import grassmann_annotations, verify, vol_expression
    spec = GrassmannSpec(4, 2, 1)
    report = verify(spec)
    res = report.result
    result_file = tmp_path / "result.txt"
    result_file.write_text(formats.write_result(res.projected_fan, res.active_sets))
    ann_file = tmp_path / "ann.txt"
    ann_file.write_text(formats.write_annotations(
        res.projected_fan, grassmann_annotations(spec)))
    assert main(["vol", "-i", str(result_file),
                 "--annotations", str(ann_file)]) == 0
    expr = formats.read_expression(capsys.readouterr().out)
    assert expr == vol_expression(spec, report)


def test_grassmann_verify_pass(capsys):
    assert main(["grassmann-verify", "--n", "5", "--d", "2", "--l", "1"]) == 0
    out = capsys.readouterr().out
    assert "7/7 cones, 7/7 active sets" in out
    assert out.strip().endswith("PASS")


def test_grassmann_vol_expression(capsys):
    assert main(["grassmann-vol", "--n", "4", "--d", "2"]) == 0
    out = capsys.readouterr().out
    expr = formats.read_expression(out)
    assert expr == expected_vol_expression(GrassmannSpec(4, 2, 1))


def test_input_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("garbage\n")
    assert main(["dual", "-i", str(bad)]) == 2
    assert "error[input]" in capsys.readouterr().err
    assert main(["dual", "-i", str(tmp_path / "missing.txt")]) == 2
    assert main(["grassmann-verify", "--n", "3", "--d", "2"]) == 2


def test_glue_failure_exit_code(tmp_path, capsys):
    c1 = tmp_path / "c1.txt"
    c2 = tmp_path / "c2.txt"
    body = ("schema mockfan.chart/1\nlabel {label}\nrank 2\nscale 1\n"
            "sigma_duals 1\n0 1\nitems 3\n"
            "item a kappa {ka} exponent 0 0\n"
            "item b kappa 0 exponent 1 0\nitem c kappa 0 exponent -1 0\n")
    c1.write_text(body.format(label="k1", ka=0))
    c2.write_text(body.format(label="k2", ka=1))
    assert main(["glue", "-i", str(c1), str(c2)]) == 2
    assert "charts do not glue" in capsys.readouterr().err


def src_env() -> dict:
    """The environment with `src` on PYTHONPATH, for a subprocess that imports
    mockfan from this checkout."""
    return dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "mockfan.cli", "grassmann-verify",
         "--n", "4", "--d", "2"],
        capture_output=True, text=True, env=src_env())
    assert proc.returncode == 0
    assert "status: PASS" in proc.stdout


def _inputs(tmp_path):
    """A valid input file per reading subcommand (and one annotations file)."""
    chart = MockPolytopeChart("demo", 2, ((0, 1),), (LiftedExponent("a", (0, 0)),
                                                     LiftedExponent("b", (1, 0))))
    res = subdivide_chart(chart)
    texts = {
        "cone": formats.write_cone(cg(2, [(1, 0), (0, 1)])),
        "chart": formats.write_chart(chart),
        "fan": formats.write_fan(res.projected_fan),
        "result": formats.write_result(res.projected_fan, res.active_sets),
        "annotations": formats.write_annotations(res.projected_fan, {}),
    }
    paths = {}
    for kind, text in texts.items():
        paths[kind] = tmp_path / f"{kind}.txt"
        paths[kind].write_text(text, encoding="utf-8")
    return paths


@pytest.mark.parametrize("command, kind, annotations", [
    (["dual"], "cone", False),
    (["faces"], "cone", False),
    (["subdivide"], "chart", False),
    (["glue"], "chart", False),
    (["bounded"], "fan", False),
    (["rescale", "--scale", "2"], "fan", False),
    (["vol"], "result", False),
    (["vol"], "fan", True),
], ids=["dual", "faces", "subdivide", "glue", "bounded", "rescale", "vol",
        "vol-annotations"])
def test_non_utf8_input_is_bad_input(tmp_path, capsys, command, kind, annotations):
    paths = _inputs(tmp_path)
    argv = command + ["-i", str(paths[kind])]
    broken = paths[kind]
    if annotations:
        argv += ["--annotations", str(paths["annotations"])]
        broken = paths["annotations"]
    assert main(argv) == 0
    # one byte 0xff, in a comment line that the reader would skip
    broken.write_bytes(broken.read_bytes() + b"# \xff\n")
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[input]: ") and "utf-8" in err and "Traceback" not in err


# Each result file is well formed but for one active-set line.
BAD_ACTIVE_SETS = {
    "repeated cone index": ("cone 0 items a\ncone 0 items a", "active set cone index 0 repeated"),
    "repeated item id": ("cone 0 items a\ncone 1 items b a b",
                         "active set of cone index 1 has a repeated item id"),
}


@pytest.mark.parametrize("case", sorted(BAD_ACTIVE_SETS))
def test_vol_exits_2_on_a_bad_active_set_line(tmp_path, capsys, case):
    lines, message = BAD_ACTIVE_SETS[case]
    path = tmp_path / "result.txt"
    path.write_text("schema mockfan.result/1\nrank 2\nhas_t 1\nrays 1\n0 1\ncones 2\ncone\n"
                    f"cone 0\nactive_sets 2\n{lines}\n", encoding="utf-8")
    assert main(["vol", "-i", str(path)]) == 2
    assert capsys.readouterr().err == f"error[input]: {message}\n"


def test_integers_outside_the_grammar_exit_2(tmp_path, capsys):
    cone = tmp_path / "cone.txt"
    cone.write_text("schema mockfan.cone/1\nrank 2\nrays 1\n1_0 ５\nlineality 0\n",
                    encoding="utf-8")
    assert main(["dual", "-i", str(cone)]) == 2
    assert "error[input]: bad integer in ray: '1_0'" in capsys.readouterr().err


def test_files_and_stdout_are_utf8(tmp_path, capsys):
    chart = tmp_path / "chart.txt"
    chart.write_text(formats.write_chart(MockPolytopeChart(
        "démo", 2, ((0, 1),), (LiftedExponent("ä", (0, 0)), LiftedExponent("b", (1, 0))))),
        encoding="utf-8")
    out = tmp_path / "result.txt"
    assert main(["subdivide", "-i", str(chart), "-o", str(out)]) == 0
    assert main(["subdivide", "-i", str(chart)]) == 0
    assert capsys.readouterr().out == out.read_bytes().decode("utf-8")
    assert "items ä" in out.read_text(encoding="utf-8")


# -- the parser of one subcommand against the parser of all of them -------------

def parse_outcome(parser, argv, capsys):
    """What parsing argv does: the namespace, or the exit code; and the output."""
    try:
        outcome = vars(parser.parse_args(argv))
    except SystemExit as exc:
        outcome = exc.code
    captured = capsys.readouterr()
    return outcome, captured.out, captured.err


# a valid command line per subcommand, after its name
VALID_ARGS = {"dual": ["-i", "x"], "faces": ["-i", "x"], "subdivide": ["-i", "x"],
              "glue": ["-i", "x", "y"], "bounded": ["-i", "x"],
              "rescale": ["-i", "x", "--scale", "2"],
              "vol": ["-i", "x", "--annotations", "a"],
              "grassmann-verify": ["--n", "5", "--d", "2"],
              "grassmann-vol": ["--n", "6", "--d", "2", "--l", "1", "-o", "v"]}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_one_command_parser_parses_like_the_full_parser(command, capsys):
    # --help, a missing or unknown argument, a bad value and a valid line:
    # byte-identical output, equal exit codes and equal namespaces
    assert sorted(VALID_ARGS) == sorted(COMMANDS)
    for args in (["--help"], [], ["--bogus"], ["-o"], ["--scale", "x"], ["--n", "x"],
                 VALID_ARGS[command], VALID_ARGS[command] + ["extra"]):
        argv = [command] + args
        assert (parse_outcome(build_parser(command), argv, capsys)
                == parse_outcome(build_parser(), argv, capsys))


def test_main_builds_only_the_parser_of_its_subcommand(monkeypatch, capsys):
    built = []

    def recording_build_parser(command=None):
        built.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", recording_build_parser)
    assert main(["grassmann-verify", "--n", "4", "--d", "2"]) == 0
    for argv in ([], ["--help"], ["nosuch"], ["-o", "x", "dual"]):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == (0 if argv == ["--help"] else 2)
    assert built == ["grassmann-verify", None, None, None, None]
    capsys.readouterr()


def test_importing_the_cli_loads_no_fractions():
    # fractions pulls in decimal and numbers, which the engine never needs
    code = ("import sys, mockfan.cli; "
            "print(sorted({'fractions', 'decimal', 'numbers'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_importing_mockfan_loads_no_dataclasses_or_inspect():
    # dataclasses imports inspect, ast and dis, and writes each class's methods
    # with exec: most of a command's start-up.  Measured against the modules the
    # interpreter had before, so a site hook that loads them fails nothing.
    code = ("import sys; bare = set(sys.modules); "
            "import mockfan, mockfan.cli, mockfan.formats; "
            "print(sorted(set(sys.modules) - bare))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env())
    assert proc.returncode == 0, proc.stderr
    added = ast.literal_eval(proc.stdout)
    assert "mockfan.cli" in added and "mockfan.formats" in added
    assert not {"dataclasses", "inspect"} & set(added)
