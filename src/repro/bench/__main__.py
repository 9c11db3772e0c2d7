"""Command-line entry point: ``python -m repro.bench --exp t1`` or
``repro-bench --exp all``."""

from __future__ import annotations

import argparse
import pathlib
import sys

from repro.bench.harness import list_experiments, run_experiment


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro-bench",
        description="Regenerate the paper's tables and figures "
        "(see DESIGN.md section 4 for the experiment index).",
    )
    parser.add_argument(
        "--exp",
        default="all",
        help="experiment id (see --list) or 'all'",
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="shrink workload sizes for a fast smoke run",
    )
    parser.add_argument(
        "--list", action="store_true", help="list experiment ids and exit"
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="DIR",
        help="also write each experiment's rendered output to DIR/<id>.txt",
    )
    parser.add_argument(
        "--no-record",
        action="store_true",
        help="skip appending each experiment to the run-record store "
        "(RUNS.jsonl; see docs/observability.md)",
    )
    parser.add_argument(
        "--runs-file",
        default=None,
        metavar="FILE",
        help="run-record store to append to (default: RUNS.jsonl at the "
        "repo root)",
    )
    args = parser.parse_args(argv)

    if args.list:
        for eid, title in list_experiments():
            print(f"{eid:8s} {title}")
        return 0

    known = [eid for eid, _ in list_experiments()]
    if args.exp != "all" and args.exp not in known:
        parser.error(
            f"unknown experiment {args.exp!r}; known: {', '.join(known)}"
        )
    ids = known if args.exp == "all" else [args.exp]
    out_dir = None
    if args.out is not None:
        out_dir = pathlib.Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
    total = 0.0
    for eid in ids:
        result = run_experiment(
            eid,
            quick=args.quick,
            record=not args.no_record,
            runs_file=args.runs_file,
        )
        total += result.duration_s
        print(result.rendered)
        extras = ""
        if result.metrics.get("cells_computed"):
            extras = (
                f" cells={result.metrics['cells_computed']:.0f}"
                f" peak_cells/s={result.metrics.get('cells_per_s', 0.0):.3g}"
            )
        print(f"[{eid} completed in {result.duration_s:.2f}s{extras}]\n")
        if out_dir is not None:
            (out_dir / f"{eid}.txt").write_text(result.rendered + "\n")
    print(f"[suite total: {len(ids)} experiment(s) in {total:.2f}s]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
