"""mockfan benchmark: one command that measures a workload and checks its output.

Usage (from the repository root):

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads and metric names are declared in BENCHMARK.json at the root; see
perfbench/README.md for why each workload exists and what each layer metric
predicts.  Every repetition runs in a fresh, single-threaded interpreter
(perfbench/rep.py), one after another.

--trace 0 prints the end-to-end metrics.  It first times SETUP_PROBES
set-ups alone, then repeats the workload at least MIN_REPS times, and again
while the next repetition is expected to end no later than half a
repetition after S seconds:

  setup_s      median set-up time (import mockfan, build inputs)
  run_s        median wall time of a repetition's timed phase
  task_p50_ms  median task latency, over the tasks of all repetitions
  task_p99_ms  99th percentile task latency (nearest rank), same tasks; with
               fewer than 1000 tasks no sample has ten beyond it, and the
               median is reported instead
  peak_rss_mb  median peak RSS of a repetition's process

--trace 1 runs the workload once untraced and once under the outside-in
tracer (perfbench/tracer.py) and prints the per-layer metrics, including
trace.overhead_s, the traced run_s minus the untraced one.

Human-readable lines go to stdout first; the last line is one JSON object
with the keys correct, attempted, failed and metrics.  Exits 2 without a
result when the checkout has no mockfan sources or a repetition crashes.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKDIR = ROOT / ".perfbench_run"

SETUP_PROBES = 10
MIN_REPS = 3
DEADLINE_S = 170     # a run must end within 180 s


class BenchError(RuntimeError):
    pass


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def rep(workload: str, seed: int, mode: str, deadline: float) -> dict:
    """Run one repetition in a fresh interpreter and return its JSON report."""
    cmd = [sys.executable, str(HERE / "rep.py"), "--workload", workload,
           "--seed", str(seed), "--mode", mode, "--workdir", str(WORKDIR)]
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} repetition of {workload} timed out") from exc
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{mode} repetition of {workload} exited {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def p99(sorted_values: list) -> float:
    """Nearest-rank 99th percentile, or the median when fewer than ten
    samples would lie beyond it."""
    n = len(sorted_values)
    if n < 1000:
        return statistics.median(sorted_values)
    return sorted_values[math.ceil(0.99 * n) - 1]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    rep(workload, seed, "setup", deadline)  # compiles bytecode, warms the file cache
    setups = [rep(workload, seed, "setup", deadline)["setup_s"]
              for _ in range(SETUP_PROBES)]
    reps = []
    start = time.monotonic()
    while True:
        reps.append(rep(workload, seed, "run", deadline))
        elapsed = time.monotonic() - start
        typical = statistics.median(r["run_s"] for r in reps)
        if len(reps) >= MIN_REPS and elapsed + typical / 2 > seconds:
            break
    latencies = sorted(x for r in reps for x in r["latencies_s"])
    metrics = {
        "setup_s": statistics.median(setups + [r["setup_s"] for r in reps]),
        "run_s": statistics.median(r["run_s"] for r in reps),
        "task_p50_ms": 1000 * statistics.median(latencies),
        "task_p99_ms": 1000 * p99(latencies),
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in reps),
    }
    print(f"{workload} seed {seed}: {len(reps)} repetitions, {len(latencies)} tasks, "
          f"{len(setups) + len(reps)} set-ups; run_s per repetition: "
          + " ".join(f"{r['run_s']:.3f}" for r in reps))
    return reps, metrics


def traced(workload: str, seed: int, deadline: float):
    plain = rep(workload, seed, "run", deadline)
    with_trace = rep(workload, seed, "trace", deadline)
    layers = with_trace["layers"]
    layers["trace.overhead_s"] = with_trace["run_s"] - plain["run_s"]
    print(f"{workload} seed {seed}: untraced run_s {plain['run_s']:.3f}, "
          f"traced run_s {with_trace['run_s']:.3f}")
    return [plain, with_trace], layers


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=names)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "mockfan" / "__init__.py").is_file():
        sys.stderr.write(f"error: no mockfan sources under {ROOT / 'src'}\n")
        return 2
    shutil.rmtree(WORKDIR, ignore_errors=True)
    WORKDIR.mkdir()
    try:
        if args.trace:
            reps, values = traced(args.workload, args.seed, deadline)
            declared = spec["per_layer"]
        else:
            reps, values = end_to_end(args.workload, args.seed, args.seconds, deadline)
            declared = spec["end_to_end"]
        if set(values) != {m["name"] for m in declared}:
            raise BenchError("measured metrics differ from those in BENCHMARK.json: "
                             f"{sorted(set(values) ^ {m['name'] for m in declared})}")
    except BenchError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    attempted = sum(r["attempted"] for r in reps)
    failed = sum(r["failed"] for r in reps)
    for name, m in metrics.items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  tasks attempted {attempted}, failed {failed}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
