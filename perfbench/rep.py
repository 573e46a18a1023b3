"""One repetition of a workload in a fresh interpreter.

A command-line user pays mockfan's import, its cold `lru_cache`s and its
lazy facet caches on every invocation, so each repetition gets a process of
its own.  Prints one JSON object on stdout:

  setup_s      import of mockfan plus building the workload inputs
  run_s        wall time of the timed phase
  latencies_s  one entry per task of the timed phase
  rss_mb       peak resident set size of this process
  attempted, failed   tasks checked, and tasks that raised or were wrong
  layers       per-layer metrics, with --mode trace only

Usage: python3 perfbench/rep.py --workload NAME --seed N --mode run|setup|trace
                                --workdir DIR
"""

import argparse
import json
import resource
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    ap.add_argument("--workdir", type=Path, required=True)
    args = ap.parse_args(argv)

    start = time.perf_counter()
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads
    if not Path(workloads.cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"mockfan was imported from outside {SRC}")
    workload = workloads.WORKLOADS[args.workload]
    state = workload.prepare(args.seed, "full", args.workdir)
    out = {"setup_s": time.perf_counter() - start}
    if args.mode == "setup":
        print(json.dumps(out))
        return 0

    tracer = None
    if args.mode == "trace":
        import tracer as tracing
        counters = tracing.Counters()
        tracer = tracing.Tracer(observers=counters.observers())
        tracer.install()
    start = time.perf_counter()
    try:
        latencies = workload.run(state)
        raised = False
    except Exception:   # the program failed this task; report, do not crash
        traceback.print_exc()
        latencies = [time.perf_counter() - start]
        raised = True
    run_s = time.perf_counter() - start
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracing.layer_metrics(tracer, counters, run_s)

    attempted, failed = (1, 1) if raised else workload.check(state)
    for error in state.get("errors", [])[:3]:
        sys.stderr.write(error)
    out.update(run_s=run_s, latencies_s=latencies,
               rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               attempted=attempted, failed=failed)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
