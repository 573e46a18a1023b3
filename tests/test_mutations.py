"""Mutation fuzzing of the file readers through the command-line interface.

Valid cone, fan, chart and result files get one token or one line replaced,
deleted or duplicated.  Whatever the mutation, `cli.main` must succeed
(exit 0) or report bad input (exit 2): never an internal inconsistency
(exit 3) and never an exception.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mockfan import formats
from mockfan.cli import main
from mockfan.cones import cone_from_generators as cg
from mockfan.subdivision import LiftedExponent, MockPolytopeChart, subdivide_chart

# A valid chart whose support, x >= 0 and t <= 0, reaches t < 0.
NEGATIVE_T_CHART = ("schema mockfan.chart/1\nlabel down\nrank 2\nscale 1\n"
                    "sigma_duals 2\n1 0\n0 -1\nitems 3\n"
                    "item i0 kappa 1 exponent 3 0\nitem i1 kappa 2 exponent -1 0\n"
                    "item i2 kappa 4 exponent -2 0\n")

CHART = MockPolytopeChart("tri", 3, ((1, 0, 0), (0, 1, 0), (0, 0, 1)),
                          (LiftedExponent("a", (0, 0, 0), 2),
                           LiftedExponent("b", (1, -1, 0), 0),
                           LiftedExponent("c", (-1, 2, 0), 1)))
RESULT = subdivide_chart(CHART)

# (command line without input and output, a valid file)
VALID = [
    (["dual"], formats.write_cone(cg(3, [(1, 0, 0), (1, 2, 0), (0, 1, 1)]))),
    (["faces"], formats.write_cone(cg(3, [(1, 0, 0), (0, 1, 0)], [(1, 1, 1)]))),
    (["subdivide"], formats.write_chart(CHART)),
    (["bounded"], formats.write_fan(RESULT.projected_fan)),
    (["rescale", "--scale", "2"], formats.write_fan(RESULT.projected_fan)),
    (["vol"], formats.write_result(RESULT.projected_fan, RESULT.active_sets)),
]
VOCABULARY = sorted({token for _, text in VALID for token in text.split()}
                    | {"1_0", "５"})   # integers that int() reads but the grammar does not


@st.composite
def mutated_files(draw):
    command, text = draw(st.sampled_from(VALID))
    lines = text.splitlines()
    i = draw(st.integers(0, len(lines) - 1))
    action = draw(st.sampled_from(["replace", "delete", "duplicate"]))
    if draw(st.booleans()):
        if action == "replace":
            lines[i] = draw(st.sampled_from(lines))
        elif action == "delete":
            del lines[i]
        else:
            lines.insert(i, lines[i])
    else:
        tokens = lines[i].split()
        j = draw(st.integers(0, max(len(tokens) - 1, 0)))
        if action == "replace" and tokens:
            tokens[j] = draw(st.sampled_from(VOCABULARY) | st.integers(-3, 6).map(str))
        elif action == "delete" and tokens:
            del tokens[j]
        elif tokens:
            tokens.insert(j, tokens[j])
        lines[i] = " ".join(tokens)
    return command, "\n".join(lines) + "\n"


@example((["subdivide"], NEGATIVE_T_CHART))
@given(mutated_files())
@settings(max_examples=150, deadline=None)
def test_mutated_files_exit_0_or_2(tmp_path_factory, case):
    command, text = case
    directory = tmp_path_factory.mktemp("mutated")
    source = directory / "in.txt"
    source.write_text(text)
    code = main(command + ["-i", str(source), "-o", str(directory / "out.txt")])
    assert code in (0, 2)


def test_support_reaching_negative_t_exits_2(tmp_path, capsys):
    chart = tmp_path / "chart.txt"
    chart.write_text(NEGATIVE_T_CHART)
    assert main(["subdivide", "-i", str(chart)]) == 2
    assert main(["glue", "-i", str(chart)]) == 2
    err = capsys.readouterr().err
    assert "error[input]" in err and "t < 0" in err and "error[internal]" not in err
