#!/usr/bin/env python3
"""Run the Gr(2,n) verification over a parameter grid and print a summary.

Each case verifies the zero chart on one row per S_(n-2)-orbit
(`grassmann.verify`): C in its own coordinates, certified up to symmetry,
and only its faces that project to bounded cells walked.  It reports the
chart's items, from the closed-form stratum sizes, the rays and facets of
C, the bounded cones found and the wall-clock time in milliseconds; a
last line gives the total time of all cases.  No item-level chart is
built unless `--full` is given: then each case also reads
`report.result`, the full subdivision (the item chart, its lift from the
same C, and every lower face walked and projected, with its active sets),
and prints its cones, its time, the time of `formats.write_result` on it
and that of `formats.read_result` on the text written, in four more
columns, the verification's time left as it was; a result whose text
does not read back as the same fan, its ray table and cells built by
`fan_from_cones` against those of `subdivide`, whose reading builds a
`Cone` of that fan (`Fan.cones`: the active sets are read by position),
or that does not write back to the same text fails its case.  Cases are
`n,d,l` triples; the default grid covers the reference set, the n = 4
corner, 7,2,1, 8,2,1, 6,4,1, 7,3,1, 10,2,1, 12,2,1, 6,5,1 (the highest degree), 16,2,1
(C has 36 rays and 513 facets), 9,4,1 and 10,4,1 (194,580 items).  C is taken from its closed
form and certified, with no DD of its own but the certificate's.

Example:
    python3 scripts/run_grassmann_sweep.py
    python3 scripts/run_grassmann_sweep.py --cases 6,2,1 --vol
    python3 scripts/run_grassmann_sweep.py --cases 8,2,1 10,2,1 12,2,1 --full

The large cases, outside the default grid:
    python3 scripts/run_grassmann_sweep.py --cases 24,2,1 32,2,1
took 0.56-0.94 s and 2.2-3.6 s (38,226 and 123,256 items, 17 orbit rows
each; C has 1,245 and 2,297 facets), three runs each, on 2 vCPUs with
CPython 3.11.7 (a shared host); the default grid took about 0.5 s in all.

The full subdivision, `--cases 8,2,1 10,2,1 12,2,1 --full`, on the same
host (full and write: medians of three runs; read: two runs).
`report.result` hands its fan over as one sorted ray table with a
(dim, positions) cell per cone, which `write` reads as it is; `read`
builds one DD per maximal cone, tests each other listed cone against its
first holder, and rebuilds the same table through `fan_from_cones`:

    case     cones   full      write     read
    8,2,1    4,364   0.033 s   0.012 s   0.23-0.25 s
    10,2,1   21,668  0.16 s    0.091 s   1.24-1.30 s
    12,2,1   101,932 0.81 s    0.57 s    6.9 s
"""

import argparse
import sys
import time

from mockfan import formats
from mockfan.fans import Fan
from mockfan.grassmann import GrassmannSpec, stratum_size, verify, vol_expression

DEFAULT_CASES = ["4,2,1", "4,3,1", "5,2,1", "5,2,2", "5,3,1", "6,2,1", "7,2,1",
                 "8,2,1", "6,4,1", "7,3,1", "10,2,1", "12,2,1", "6,5,1", "16,2,1", "9,4,1",
                 "10,4,1"]


def parse_case(text: str) -> GrassmannSpec:
    parts = text.split(",")
    if len(parts) != 3:
        raise SystemExit(f"bad case {text!r}: expected n,d,l")
    return GrassmannSpec(*(int(p) for p in parts))


def read_back(written: str, fan: Fan) -> tuple[float, bool]:
    """The time of `formats.read_result` on `written`, and whether what it
    reads is `fan`, its ray table and cells built by `fan_from_cones` with
    no `Fan.cones` built, and writes `written` again; nothing read outlives
    the call, so the next case's collector passes do not scan it."""
    start = time.monotonic()
    read_fan, active = formats.read_result(written)
    read = time.monotonic() - start
    return read, (read_fan == fan and "cones" not in vars(read_fan)
                  and formats.write_result(read_fan, active) == written)


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
    full_columns = (f"{'cones':>7}  {'full':>9}  {'write':>9}  {'read':>9}  "
                    if args.full else "")
    print(f"{'case':>10}  {'items':>6}  {'C rays':>6}  {'facets':>6}  {'bounded':>7}  "
          f"{'time':>9}  {full_columns}status")
    total = full_total = write_total = read_total = 0.0
    for text in args.cases:
        spec = parse_case(text)
        start = time.monotonic()
        report = verify(spec)
        elapsed = time.monotonic() - start
        total += elapsed
        big = report.orbits.big_cone
        passed = report.passed
        if args.full:
            start = time.monotonic()
            result = report.result
            full = time.monotonic() - start
            start = time.monotonic()
            written = formats.write_result(result.projected_fan, result.active_sets)
            write = time.monotonic() - start
            read, same = read_back(written, result.projected_fan)
            passed &= same
            full_total += full
            write_total += write
            read_total += read
            full_columns = (f"{len(result.projected_fan):>7}  {full * 1000:>7.0f}ms  "
                            f"{write * 1000:>7.0f}ms  {read * 1000:>7.0f}ms  ")
        status = "PASS" if passed else "FAIL"
        all_ok &= passed
        items = sum(stratum_size(spec.n, (c0, c1, spec.d - c0 - c1))
                    for c0 in range(spec.d + 1) for c1 in range(spec.d + 1 - c0))
        print(f"{text:>10}  {items:>6}  {len(big.rays):>6}  "
              f"{len(big.facets):>6}  {len(report.bounded_fan.bounded_cones()):>7}  "
              f"{elapsed * 1000:>7.0f}ms  {full_columns}{status}")
        if not report.passed:
            print(report.render())
        elif not passed:
            print("           the result read back from its text is another fan, built its "
                  "cones or writes other text")
        elif args.vol:
            print(f"           vol = {vol_expression(spec, report).render()}")
    if args.full:
        full_columns = (f"{'':>7}  {full_total * 1000:>7.0f}ms  {write_total * 1000:>7.0f}ms  "
                        f"{read_total * 1000:>7.0f}ms  ")
    print(f"{'total':>10}  {'':>6}  {'':>6}  {'':>6}  {'':>7}  {total * 1000:>7.0f}ms  "
          f"{full_columns}{'PASS' if all_ok else 'FAIL'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
