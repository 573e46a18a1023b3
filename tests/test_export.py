"""The files `scripts/export_instance_files.py` writes, pinned by sha256.

The digests were recorded before face and fan orders were sorted on graded
dimensions; any change to the chart, result, annotation or volume bytes of
the four reference specs fails here.
"""

import hashlib
import importlib.util
from pathlib import Path

import pytest

from mockfan import replace
from mockfan.cli import main
from mockfan.grassmann import GrassmannSpec, verify

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "export_instance_files.py"

DIGESTS = {
    (5, 2, 1): {
        "zero_chart.txt": "2b686f5e2a6fea592dc7b1a636a14788c8243c04f9f68a0d05397a21bb79c621",
        "result.txt": "73a54507101b7239c1a2a4df95bbad6e63ef6cfdf74be6932fc82b654b644bc6",
        "annotations.txt": "eed838c19f2cfcfc4dcea901b40daece5e688520c8c706c1a9df031a1c76cc54",
        "vol.txt": "63c44bab30a3f5c3a2cd5235a293c0b267df4ab37559e0eed9ccbac022d467d5",
    },
    (5, 3, 1): {
        "zero_chart.txt": "4dea3bbcc6b21c12bb6683f1e1cb2c496dd39aa28848a0e68616b5b015581dd9",
        "result.txt": "f6e5f1ff4fd1b8d02224e9d96006b7546658afe30675053c79a2c0ec16d1c1de",
        "annotations.txt": "8279baecf9e2f66e5325587b6c9dd6aeb3e04f7036ee3384cf8f17bb5e670ae3",
        "vol.txt": "405799bf9289f65300ee4521498f99f08d05c80fcb8a4021a5c3a9e94fba8eff",
    },
    (5, 2, 2): {
        "zero_chart.txt": "304d771046e19003e84a23188b66887271302aabcdbbc1f0594d3d0f3e59df2f",
        "result.txt": "b703666fc916643b9a3ac749e2cd6a77d560d5da475bc43985cfaa5c38866bb4",
        "annotations.txt": "eed838c19f2cfcfc4dcea901b40daece5e688520c8c706c1a9df031a1c76cc54",
        "vol.txt": "63c44bab30a3f5c3a2cd5235a293c0b267df4ab37559e0eed9ccbac022d467d5",
    },
    (6, 2, 1): {
        "zero_chart.txt": "d1f5713a6a90ba4dde905d48e62cf601e14191593d5b57b9bc442dfaa8058f4a",
        "result.txt": "29ddfe97191cb6085720fb9f436d4daae2fb4ef4624131e01a76cfc3c284f47c",
        "annotations.txt": "519cabb5bf2da85c0d44bbd80b0a7e33f62b4ccb6dba4eaa37eaa108537a6a6d",
        "vol.txt": "7c183f73d7c1b08f07f489f4f1f31ec125460a9a89fdc76aac60e1cf469d115f",
    },
}


@pytest.fixture(scope="module")
def export_main():
    spec = importlib.util.spec_from_file_location("export_instance_files", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.main


@pytest.mark.parametrize("n, d, l", sorted(DIGESTS))
def test_export_files_are_byte_identical(export_main, tmp_path, n, d, l):
    assert export_main(["--n", str(n), "--d", str(d), "--l", str(l),
                        "-o", str(tmp_path)]) == 0
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.iterdir()}
    assert written == DIGESTS[n, d, l]


@pytest.mark.parametrize("n, d, l", [(5, 2, 1), (6, 2, 1)])
def test_exported_files_come_back_through_the_command_line(export_main, tmp_path, n, d, l):
    # `mockfan subdivide` of the chart writes the result, and `mockfan vol`
    # of the result and the annotations writes the expression, byte for byte
    assert export_main(["--n", str(n), "--d", str(d), "--l", str(l),
                        "-o", str(tmp_path)]) == 0
    again = tmp_path / "again"
    again.mkdir()
    assert main(["subdivide", "-i", str(tmp_path / "zero_chart.txt"),
                 "-o", str(again / "result.txt")]) == 0
    assert main(["vol", "-i", str(tmp_path / "result.txt"),
                 "--annotations", str(tmp_path / "annotations.txt"),
                 "-o", str(again / "vol.txt")]) == 0
    for name in ("result.txt", "vol.txt"):
        assert (again / name).read_bytes() == (tmp_path / name).read_bytes()


def test_a_failed_verification_exits_1_with_its_report_and_no_annotations(
        export_main, tmp_path, monkeypatch, capsys):
    # the report of Gr(2, 4), failed by one unexpected bounded cone, given for
    # Gr(2, 5): its fan holds none of the cones the annotations would name
    report = verify(GrassmannSpec(4, 2, 1))
    failed = replace(report, extra_bounded=tuple(report.bounded_fan.bounded_cones()[:1]))
    monkeypatch.setitem(export_main.__globals__, "verify", lambda spec: failed)
    assert export_main(["--n", "5", "--d", "2", "-o", str(tmp_path)]) == 1
    assert capsys.readouterr().err == failed.render() + "\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["result.txt", "zero_chart.txt"]
