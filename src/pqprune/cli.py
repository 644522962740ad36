"""Command-line surface: measure, audit, run, report.

Exit codes: 0 success, 1 runtime failure, 2 invalid input or undefined
index.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .audit import (
    audit_measure,
    gini_measure,
    pq_measure,
    robin_hood_counterexample,
)
from .config import parse_config
from .data_io import write_text_atomic
from .experiment import run_experiment, write_report
from .records import csv_text, format_value
from .sparsity import (
    DEFAULT_NORMS,
    NormPair,
    eta_r,
    gini_index,
    pq_index,
    pqi_lower_bound,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2


def cmd_measure(args) -> int:
    norms = NormPair(args.p, args.q)
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            values = np.loadtxt(args.file, ndmin=2)
        if values.size == 0:
            raise ValueError("no values to measure")
        if values.shape[1] != 1:  # pq_index would measure each line as a row
            raise ValueError(f"expected a non-empty 1-D vector, got {values.shape[1]} columns")
        values = values[:, 0]
        index = pq_index(values, norms)
    except ValueError as exc:  # an undefined index is a ValueError too
        raise ValueError(f"{args.file}: {exc}") from None
    print(f"pq_index = {format_value(index)}")
    print(f"gini_index = {format_value(gini_index(values))}")
    rows = []
    for r, eta in enumerate(eta_r(values, norms.p).tolist(), 1):
        bound = pqi_lower_bound(values.size, index, eta, norms)
        rows.append((r, eta, bound, r >= bound - 1e-9))
    print(csv_text(("r", "eta_r", "bound", "satisfied"), rows), end="")
    return EXIT_OK


def cmd_audit(args) -> int:
    for flag, value, low in (("--trials", args.trials, 1), ("--seed", args.seed, 0)):
        if value < low:
            raise ValueError(f"{flag} must be >= {low}, got {value}")
    if args.measure == "gini":
        if args.negative:
            raise ValueError("negative search applies only to the pq measure")
        for flag, value in (("--p", args.p), ("--q", args.q)):
            if value is not None:
                raise ValueError(f"{flag} applies only to the pq measure")
        measure = gini_measure()
    else:
        norms = NormPair(DEFAULT_NORMS.p if args.p is None else args.p,
                         DEFAULT_NORMS.q if args.q is None else args.q, relaxed=args.negative)
        measure = pq_measure(norms)
    report = audit_measure(measure, trials=args.trials, seed=args.seed)
    text = json.dumps(report, indent=2)
    print(text)
    if args.out is not None:
        write_text_atomic(Path(args.out), text + "\n")
    if not args.negative:
        return EXIT_RUNTIME if any(r["violations"] for r in report["results"]) else EXIT_OK
    first = report["results"][0]["first_counterexample"]  # robin_hood's
    if first is not None:
        verdict = f"found by the random trials {json.dumps(first)}"
    else:  # the directed search reaches p < q < 1, where random trials rarely break robin_hood
        witness = robin_hood_counterexample(norms)
        verdict = "inconclusive" if witness is None else f"found {json.dumps(witness)}"
    print(f"negative robin_hood search: {verdict}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = parse_config(Path(args.config).read_text())
    results = run_experiment(cfg, args.out)
    summary_path = Path(args.out) / "summary.csv"
    print(f"wrote {len(results)} run directories under {args.out}")
    print(summary_path.read_text(), end="")
    expected = len(cfg.algorithms) * len(cfg.seeds)
    return EXIT_OK if len(results) == expected else EXIT_RUNTIME


def cmd_report(args) -> int:
    stats = write_report(args.run_dirs, args.out)
    print(json.dumps(stats, indent=2))
    print(f"wrote panels under {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqprune",
        description="Sparsity index, axiom audit, and adaptive pruning runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="index and retention bound of a vector file")
    p.add_argument("file", help="newline-separated decimals")
    p.add_argument("--p", type=float, default=DEFAULT_NORMS.p)
    p.add_argument("--q", type=float, default=DEFAULT_NORMS.q)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("audit", help="randomized six-axiom audit")
    p.add_argument("--measure", choices=["pq", "gini"], default="pq")
    p.add_argument("--p", type=float, help=f"pq only (default: {DEFAULT_NORMS.p})")
    p.add_argument("--q", type=float, help=f"pq only (default: {DEFAULT_NORMS.q})")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="also write the JSON report here")
    p.add_argument(
        "--negative",
        action="store_true",
        help="relax the norm regime and run the directed robin_hood search",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("run", help="execute all (seed x algorithm) cells")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default="runs", help="output root (default: runs)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="panel CSVs and trajectory stats")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out", default="report", help="output directory (default: report)")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if getattr(args, "out", None) == "":  # Path("") is the working directory
            raise ValueError("--out: empty")
        return args.func(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (RuntimeError, OSError) as exc:  # OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
