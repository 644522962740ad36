"""Command-line surface: measure, audit, run, report.

Exit codes: 0 success, 1 runtime failure, 2 invalid input or undefined
index.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from .audit import (
    audit_measure,
    gini_measure,
    pq_measure,
    robin_hood_counterexample,
)
from .config import load_config
from .data_io import write_text_atomic
from .experiment import run_experiment, write_report
from .records import format_value
from .sparsity import (
    NormPair,
    UndefinedIndexError,
    eta_r,
    gini_index,
    pq_index,
    pqi_lower_bound,
)

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_INPUT = 2


def cmd_measure(args) -> int:
    values = np.loadtxt(args.file, ndmin=1)
    norms = NormPair(args.p, args.q)
    index = pq_index(values, norms)
    print(f"pq_index = {format_value(index)}")
    print(f"gini_index = {format_value(gini_index(values))}")
    print("r,eta_r,bound,satisfied")
    d = values.size
    for r, eta in enumerate(eta_r(values, norms.p).tolist(), 1):
        bound = pqi_lower_bound(d, index, eta, norms)
        print(",".join(map(format_value, (r, eta, bound, r >= bound - 1e-9))))
    return EXIT_OK


def cmd_audit(args) -> int:
    if args.measure == "gini":
        if args.negative:
            raise ValueError("negative search applies only to the pq measure")
        measure = gini_measure()
    else:
        norms = NormPair(args.p, args.q, relaxed=args.negative)
        measure = pq_measure(norms)
    report = audit_measure(measure, trials=args.trials, seed=args.seed)
    text = report.to_json()
    print(text)
    if args.out:
        write_text_atomic(Path(args.out), text + "\n")
    if not args.negative:
        return EXIT_OK if report.ok else EXIT_RUNTIME
    witness = robin_hood_counterexample(norms)
    if witness is None:
        print("negative robin_hood search: inconclusive")
    else:
        print(f"negative robin_hood search: found {json.dumps(witness)}")
    return EXIT_OK


def cmd_run(args) -> int:
    cfg = load_config(args.config)
    if args.workers < 0:
        raise ValueError("--workers must be >= 1, or 0 to use the config's workers")
    out = args.out or os.environ.get("PQI_PRUNE_OUT") or cfg.output_dir
    workers = args.workers if args.workers else cfg.workers
    results = run_experiment(cfg, out_dir=out, workers=workers)
    summary_path = Path(out) / "summary.csv"
    print(f"wrote {len(results)} run directories under {out}")
    print(summary_path.read_text(), end="")
    expected = len(cfg.algorithms()) * len(cfg.seeds)
    return EXIT_OK if len(results) == expected else EXIT_RUNTIME


def cmd_report(args) -> int:
    out = args.out or os.environ.get("PQI_PRUNE_OUT") or "report"
    stats = write_report(args.run_dirs, out)
    print(json.dumps(stats, indent=2))
    print(f"wrote panels under {out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pqprune",
        description="Sparsity index, axiom audit, and adaptive pruning runs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="index and retention bound of a vector file")
    p.add_argument("file", help="newline-separated decimals")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=float, default=1.0)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("audit", help="randomized six-axiom audit")
    p.add_argument("--measure", choices=["pq", "gini"], default="pq")
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--q", type=float, default=1.0)
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
    p.add_argument("--workers", type=int, default=0)
    p.add_argument("--out", help="output root (overrides config and env)")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("report", help="panel CSVs and trajectory stats")
    p.add_argument("run_dirs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except UndefinedIndexError as exc:
        print(f"error: index undefined: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
