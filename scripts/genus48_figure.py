#!/usr/bin/env python3
"""Reproduce the genus-48 plane: figure, CSV dataset, and gap certificates.

Writes plot.svg and points.csv to --outdir, prints the gap verification
summary and the exception-line story on the order-5 cyclic line.
"""

import argparse
import time
from pathlib import Path

from skelsig.cli import parse_budget, points_csv
from skelsig.groups import bundled_catalog
from skelsig.kspace import figure_dataset, verify_gap
from skelsig.svg import render_figure


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sigma", type=int, default=48)
    ap.add_argument("--outdir", type=Path, default=Path("out_genus48"))
    ap.add_argument("--with-realized", action="store_true",
                    help="run the catalog witness search (slower)")
    ap.add_argument("--budget", type=parse_budget, default=200_000)
    args = ap.parse_args()

    args.outdir.mkdir(parents=True, exist_ok=True)
    catalog = bundled_catalog()

    t0 = time.time()
    dataset = figure_dataset(
        args.sigma,
        catalog if args.with_realized else None,
        max_order=15,
        budget=args.budget,
    )
    svg_path = args.outdir / "plot.svg"
    svg_path.write_text(render_figure(dataset, f"genus {args.sigma}"), encoding="utf-8")
    csv_path = args.outdir / "points.csv"
    csv_path.write_text(points_csv(dataset.to_csv_rows()), encoding="utf-8")
    counts: dict[str, int] = {}
    for _, status in dataset.points:
        counts[status] = counts.get(status, 0) + 1
    print(f"figure dataset in {time.time() - t0:.1f}s: {counts}")
    print(f"wrote {svg_path} and {csv_path}")

    for n in (3, 4):
        report = verify_gap(args.sigma, n, catalog, args.budget)
        n_points = len(report.points)
        print(f"gap at orders {n}/{report.region.upper_index}: {report.conclusion} "
              f"({n_points} lattice points)")
        for p in report.points:
            if p.on_exception_line:
                rules = sorted({r.rule for r in p.analysis.reasons})
                print(f"  exception point {tuple(p.point)}: {p.analysis.status}"
                      + (f" via {p.analysis.witness.group_name}" if p.analysis.witness else
                         f" ({', '.join(rules)})"))


if __name__ == "__main__":
    main()
