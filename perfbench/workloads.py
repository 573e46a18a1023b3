"""The three benchmark workloads: inputs from a seed, the timed tasks, checks.

Every workload has the same shape:

  prepare(seed, size, workdir) -> state    set-up: import, inputs
  run(state) -> list of task latencies      the timed phase
  check(state) -> (attempted, failed)       correctness, after the timer

The module reaches mockfan only through module attributes
(`grassmann.verify`, not a name imported from it), so the tracer's patched
bindings are the ones called.  Inputs come from this file alone, never from
the repository's test helpers, so editing a test cannot change a workload.
The two Gr(2, n) workloads have no random input; the seed does not change
them.

Sizes: "full" is what the benchmark measures; "tiny" runs the same code on a
small instance, for the harness's own tests.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from pathlib import Path

from mockfan import cli, cones, formats, grassmann, subdivision

# sha256 of formats.write_result for the Gr(2, n) zero chart, recorded at the
# commit that introduced the benchmark; the output must never change.
RESULT_SHA256 = {
    (8, 2, 1): "af27cd9a4a5836ec5d05930fdb1a60d288de5728b071219c88746c055d29b6bc",
    (4, 2, 1): "9d51255da036ab8b3f51af8a1859c9e7d8f48d005bf2dc0bd1a69e686c064c42",
}

GRASSMANN_SPECS = {"full": {"verify-6-2-1": (6, 2, 1), "subdivide-8-2-1": (8, 2, 1)},
                   "tiny": {"verify-6-2-1": (4, 2, 1), "subdivide-8-2-1": (4, 2, 1)}}

# random-roundtrip: (cone tasks, chart tasks) per size
RANDOM_TASKS = {"full": (3000, 300), "tiny": (30, 3)}


class VerifyVol:
    """`mockfan grassmann-vol` in process: verify with the full fan check,
    then write the signed class sum to a file."""

    name = "verify-6-2-1"

    def prepare(self, seed: int, size: str, workdir: Path) -> dict:
        n, d, l = GRASSMANN_SPECS[size][self.name]
        spec = grassmann.GrassmannSpec(n, d, l)
        out = workdir / f"{self.name}-vol.txt"
        out.unlink(missing_ok=True)
        argv = ["grassmann-vol", "--n", str(n), "--d", str(d), "--l", str(l),
                "-o", str(out)]
        return {"spec": spec, "argv": argv, "out": out}

    def run(self, state: dict) -> list[float]:
        start = time.perf_counter()
        state["exit_code"] = cli.main(state["argv"])
        return [time.perf_counter() - start]

    def check(self, state: dict) -> tuple[int, int]:
        expected = formats.write_expression(
            grassmann.expected_vol_expression(state["spec"]))
        out = state["out"]
        ok = (state["exit_code"] == 0 and out.is_file()
              and out.read_bytes() == expected.encode())
        return 1, 0 if ok else 1


class SubdivideUnverified:
    """`grassmann.verify` without the fan check, then the result file text."""

    name = "subdivide-8-2-1"

    def prepare(self, seed: int, size: str, workdir: Path) -> dict:
        return {"spec": grassmann.GrassmannSpec(*GRASSMANN_SPECS[size][self.name])}

    def run(self, state: dict) -> list[float]:
        start = time.perf_counter()
        report = grassmann.verify(state["spec"], verify_fan=False)
        result = report.result
        state["report"] = report
        state["text"] = formats.write_result(result.projected_fan, result.active_sets)
        return [time.perf_counter() - start]

    def check(self, state: dict) -> tuple[int, int]:
        spec, report = state["spec"], state["report"]
        digest = hashlib.sha256(state["text"].encode()).hexdigest()
        ok = (report.passed and report.cones_matched == 7
              and report.active_matched == 7
              and digest == RESULT_SHA256[(spec.n, spec.d, spec.l)])
        return 1, 0 if ok else 1


# Every seed gets the same mix of shapes (rank and generator count, rank and
# item count); the seed draws the entries.  Shape decides most of a task's
# cost, so a fixed mix keeps the work of a run nearly the same across seeds.
CONE_SHAPES = [(rank, count) for rank in range(1, 7) for count in range(11)]
CHART_SHAPES = [(rank, count) for rank in range(2, 5) for count in range(1, 9)]


def random_cone_input(rng: random.Random, rank: int,
                      count: int) -> tuple[int, list[tuple[int, ...]]]:
    """`count` generators of rank `rank` with entries in [-5, 5]."""
    return rank, [tuple(rng.randint(-5, 5) for _ in range(rank)) for _ in range(count)]


def random_orthant_chart(rng: random.Random, label: str, rank: int,
                         count: int) -> subdivision.MockPolytopeChart:
    """Chart on the first orthant with `count` items: spatial exponent
    entries in [-3, 3], delta slot 0 and kappa in [0, 4]."""
    duals = tuple(tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank))
    items = tuple(
        subdivision.LiftedExponent(
            f"i{k}", tuple(rng.randint(-3, 3) for _ in range(rank - 1)) + (0,),
            rng.randint(0, 4))
        for k in range(count))
    return subdivision.MockPolytopeChart(label, rank, duals, items)


def cone_task(rank: int, generators: list[tuple[int, ...]]) -> bool:
    cone = cones.cone_from_generators(rank, generators)
    dual = cones.dual_cone(cone)
    text = formats.write_cone(dual)
    return (cones.dual_cone(dual) == cone
            and formats.write_cone(formats.read_cone(text)) == text)


def chart_task(chart: subdivision.MockPolytopeChart) -> bool:
    text = formats.write_chart(chart)
    parsed = formats.read_chart(text)
    if formats.write_chart(parsed) != text:
        return False
    result = subdivision.subdivide_chart(parsed)
    out = formats.write_result(result.projected_fan, result.active_sets)
    fan, active = formats.read_result(out)
    return formats.write_result(fan, active) == out


class RandomRoundtrip:
    """Many small seeded tasks: cones through DD and duality, charts through
    subdivision, every file written, read back and written again."""

    name = "random-roundtrip"

    def prepare(self, seed: int, size: str, workdir: Path) -> dict:
        rng = random.Random(seed)
        n_cones, n_charts = RANDOM_TASKS[size]
        per_chart = n_cones // n_charts
        tasks = []
        for k in range(n_charts):
            for j in range(k * per_chart, (k + 1) * per_chart):
                shape = CONE_SHAPES[j % len(CONE_SHAPES)]
                tasks.append((cone_task, random_cone_input(rng, *shape)))
            shape = CHART_SHAPES[k % len(CHART_SHAPES)]
            tasks.append((chart_task, (random_orthant_chart(rng, f"chart{k}", *shape),)))
        return {"tasks": tasks}

    def run(self, state: dict) -> list[float]:
        latencies, failed, errors = [], 0, []
        clock = time.perf_counter
        for task, args in state["tasks"]:
            start = clock()
            try:
                ok = task(*args)
            except Exception:   # a raising task is a failed task, not a crash
                ok = False
                errors.append(traceback.format_exc())
            latencies.append(clock() - start)
            failed += not ok
        state["failed"] = failed
        state["errors"] = errors
        return latencies

    def check(self, state: dict) -> tuple[int, int]:
        return len(state["tasks"]), state["failed"]


WORKLOADS = {w.name: w for w in (VerifyVol(), SubdivideUnverified(), RandomRoundtrip())}
