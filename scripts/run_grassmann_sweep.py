#!/usr/bin/env python3
"""Run the Gr(2,n) verification over a parameter grid and print a summary.

Each case builds the lifted cone C of the zero chart, walks only its faces
that project to bounded cells, checks the seven bounded cones and their
active sets, and reports the chart's items, the rays and facets of C, the
bounded cones found and the wall-clock time in milliseconds; a last line
gives the total time of all cases.  The full subdivision is never
built unless `--full` is given: then each case also reads `report.result`,
the full subdivision (every lower face of the same C walked and projected,
with its active sets), and prints its cones and its time in two more
columns, the verification's time left as it was.  Cases are `n,d,l`
triples; the default grid covers the reference
set, the n = 4 corner, 7,2,1, 8,2,1, 6,4,1, 7,3,1, 10,2,1, 12,2,1 (2211
items; C has 28 rays and 267 facets) and 6,5,1 (the highest degree).
C is taken from its closed form and certified, with no DD of its own.

Example:
    python3 scripts/run_grassmann_sweep.py
    python3 scripts/run_grassmann_sweep.py --cases 6,2,1 --vol
    python3 scripts/run_grassmann_sweep.py --cases 8,2,1 10,2,1 12,2,1 --full

The large cases, outside the default grid:
    python3 scripts/run_grassmann_sweep.py --cases 14,2,1 16,2,1 8,4,1 7,5,1 9,4,1
took 0.42, 0.79, 1.09, 1.90 and 4.13 s (82,251 items at 9,4,1), 8.8 s in
all, each the median of three runs, on 2 vCPUs with CPython 3.11.7 (a
shared host; single runs spread by up to 40 %).
"""

import argparse
import sys
import time

from mockfan.grassmann import GrassmannSpec, verify, vol_expression

DEFAULT_CASES = ["4,2,1", "4,3,1", "5,2,1", "5,2,2", "5,3,1", "6,2,1", "7,2,1",
                 "8,2,1", "6,4,1", "7,3,1", "10,2,1", "12,2,1", "6,5,1"]


def parse_case(text: str) -> GrassmannSpec:
    parts = text.split(",")
    if len(parts) != 3:
        raise SystemExit(f"bad case {text!r}: expected n,d,l")
    return GrassmannSpec(*(int(p) for p in parts))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--cases", nargs="+", default=DEFAULT_CASES,
                    help="n,d,l triples (default: %(default)s)")
    ap.add_argument("--vol", action="store_true",
                    help="also print the signed class sum per case")
    ap.add_argument("--full", action="store_true",
                    help="also build and time the full subdivision per case")
    args = ap.parse_args(argv)

    all_ok = True
    full_columns = f"{'cones':>7}  {'full':>9}  " if args.full else ""
    print(f"{'case':>10}  {'items':>6}  {'C rays':>6}  {'facets':>6}  {'bounded':>7}  "
          f"{'time':>9}  {full_columns}status")
    total = full_total = 0.0
    for text in args.cases:
        spec = parse_case(text)
        start = time.monotonic()
        report = verify(spec)
        elapsed = time.monotonic() - start
        total += elapsed
        big = report.lift.big_cone
        if args.full:
            start = time.monotonic()
            cones = len(report.result.projected_fan)
            full = time.monotonic() - start
            full_total += full
            full_columns = f"{cones:>7}  {full * 1000:>7.0f}ms  "
        status = "PASS" if report.passed else "FAIL"
        all_ok &= report.passed
        print(f"{text:>10}  {len(report.lift.chart.items):>6}  {len(big.rays):>6}  "
              f"{len(big.facets):>6}  {len(report.bounded.projected_fan.bounded_cones()):>7}  "
              f"{elapsed * 1000:>7.0f}ms  {full_columns}{status}")
        if not report.passed:
            print(report.render())
        elif args.vol:
            print(f"           vol = {vol_expression(spec, report).render()}")
    if args.full:
        full_columns = f"{'':>7}  {full_total * 1000:>7.0f}ms  "
    print(f"{'total':>10}  {'':>6}  {'':>6}  {'':>6}  {'':>7}  {total * 1000:>7.0f}ms  "
          f"{full_columns}{'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
