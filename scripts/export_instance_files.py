#!/usr/bin/env python3
"""Write the chart, subdivision result, and annotation files for one Gr(2,n) case.

Produces, in the output directory:
    zero_chart.txt   chart file (feed to `mockfan subdivide`)
    result.txt       fan + active sets of the zero-chart subdivision
    annotations.txt  stratum annotations for the seven bounded cones
    vol.txt          the signed class-sum expression

Example:
    python3 scripts/export_instance_files.py --n 5 --d 2 --l 1 -o out/
"""

import argparse
import sys
from pathlib import Path

from mockfan import formats
from mockfan.grassmann import (GrassmannSpec, grassmann_annotations, verify,
                               vol_expression, zero_chart)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, required=True)
    ap.add_argument("--d", type=int, required=True)
    ap.add_argument("--l", type=int, default=1)
    ap.add_argument("-o", "--outdir", default=".")
    args = ap.parse_args(argv)

    spec = GrassmannSpec(args.n, args.d, args.l)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    chart = zero_chart(spec)
    (outdir / "zero_chart.txt").write_text(formats.write_chart(chart))

    report = verify(spec)
    result = report.result
    (outdir / "result.txt").write_text(
        formats.write_result(result.projected_fan, result.active_sets))
    if not report.passed:   # the annotated cones are the verified bounded ones
        sys.stderr.write(report.render() + "\n")
        return 1
    (outdir / "annotations.txt").write_text(
        formats.write_annotations(result.projected_fan, grassmann_annotations(spec)))
    (outdir / "vol.txt").write_text(
        formats.write_expression(vol_expression(spec, report)))
    print(f"wrote 4 files to {outdir} "
          f"({len(result.projected_fan)} cones, "
          f"{len(result.projected_fan.bounded_cones())} bounded)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
