"""Benchmark of the pqprune command-line tool.

    python3 perfbench/run.py --workload train_grid --seed 0 --seconds 60 --trace 0

Runs from the root of a source checkout. Each CLI invocation is a child
process with the caller's environment, BLAS pinned to one thread (see
PINNED_ENV), and `src/` on PYTHONPATH so the checkout's code is what runs.
Passes of the workload repeat until `--seconds` would be exceeded (at
least MIN_PASSES); timings are medians over passes. Every output is
checked, and the last
line of stdout is the JSON result. With `--trace 1` the untraced passes
are followed by one traced pass in this process, and the result carries
the per-layer metrics instead. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
# Hard stop for one benchmark run; children still alive then are killed.
RUN_LIMIT_S = 170.0
# Timings are medians over at least this many passes, so that one slow pass
# (the first invocation of a run is often about a second slower) is outvoted.
MIN_PASSES = 3
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0)

# BLAS thread count for every child and for the in-process traced pass. With
# the library default (one thread per CPU) the BLAS threads spin against each
# other and against the host's other load on a small machine: cpu_s nearly
# doubles and wall time swings more between runs (perfbench/README.md,
# Steadiness). Output bytes depend on this count, so it is fixed, not inherited.
PINNED_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# name -> unit; the metrics a user of the CLI sees (BENCHMARK.json end_to_end).
END_TO_END = {"wall_s": "s", "setup_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Child:
    exit_code: int
    wall_s: float
    cpu_s: float
    maxrss_mb: float


def run_child(argv, env, stdout_path: Path, deadline: float) -> Child:
    """Run argv to completion and take its wall time and its own rusage.

    os.wait4 reports this child alone; RUSAGE_CHILDREN would fold in every
    child ever waited for, so its ru_maxrss could not be attributed.
    """
    with open(stdout_path, "wb") as out, open(stdout_path.with_suffix(".stderr"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        killer = threading.Timer(max(deadline - time.monotonic(), 0.0), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(
        exit_code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,  # Linux reports kilobytes
    )


def child_env() -> dict[str, str]:
    env = {**os.environ, **PINNED_ENV}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


# --- machine and environment ------------------------------------------------


def _blas_threads():
    """Thread count the loaded OpenBLAS will use, or None if not OpenBLAS."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(seed: int) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((l.split(":", 1)[1].strip() for l in f if l.startswith("model name")), "")
    except OSError:
        pass
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "loadavg_at_start": list(os.getloadavg()),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "env_vars": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                      "PYTHONDONTWRITEBYTECODE")
            if k in os.environ
        },
    }


def steal_s() -> float:
    """CPU time the hypervisor gave to other guests, summed over CPUs."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def source_hash() -> str:
    """sha256 over the program's and the benchmark's Python sources."""
    h = hashlib.sha256()
    for path in sorted([*(SRC / "pqprune").glob("*.py"), *Path(__file__).parent.glob("*.py")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


# --- statistics --------------------------------------------------------------


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(-(-len(ordered) * p // 100), 1)
    return ordered[int(rank) - 1]


def describe(samples, unit: str) -> str:
    """Median, the highest listed percentile with at least ten samples
    beyond it, and the sample count."""
    text = f"median {statistics.median(samples):.6g} {unit}, n={len(samples)}"
    for p in TAIL_PERCENTILES:
        if len(samples) * (100.0 - p) / 100.0 >= 10:
            return text + f", p{p:g} {percentile(samples, p):.6g} {unit}"
    return text + ", no percentile has 10 samples beyond it"


# --- passes ------------------------------------------------------------------


@dataclass
class PassResult:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    command_wall: dict[str, float]
    judgements: list


def clear_outputs(workload, workdir: Path) -> None:
    for cmd in workload.commands:
        shutil.rmtree(workdir / cmd.label, ignore_errors=True)


def untraced_pass(workload, workdir: Path, env, deadline: float) -> PassResult:
    clear_outputs(workload, workdir)
    children, judgements, command_wall = [], [], {}
    for cmd in workload.commands:
        stdout_path = workdir / f"{cmd.label}.stdout"
        child = run_child(
            [sys.executable, "-m", "pqprune.cli", *cmd.argv], env, stdout_path, deadline
        )
        if child.exit_code != 0:
            err = stdout_path.with_suffix(".stderr").read_text(errors="replace")
            print(f"{cmd.label}: exit {child.exit_code}\n{err[-2000:]}", file=sys.stderr)
        children.append(child)
        command_wall[cmd.label] = child.wall_s
        judgements.append(cmd.check(child.exit_code, stdout_path.read_text()))
    return PassResult(
        wall_s=sum(c.wall_s for c in children),
        cpu_s=sum(c.cpu_s for c in children),
        peak_rss_mb=max(c.maxrss_mb for c in children),
        command_wall=command_wall,
        judgements=judgements,
    )


def traced_pass(workload, workdir: Path, seed: int):
    """One pass in this process through pqprune.cli.main, with every layer
    wrapped. Returns (tracer, judgements)."""
    from pqprune import cli

    import tracing

    clear_outputs(workload, workdir)
    tracer = tracing.Tracer()
    judgements = []
    with tracing.installed(tracer):
        main = tracer.wrap("cli.main", cli.main)
        for cmd in workload.commands:
            tracer.run_id = f"{workload.name}:seed{seed}:{cmd.label}"
            buf = io.StringIO()
            with redirect_stdout(buf):
                try:
                    code = main(cmd.argv)
                except SystemExit as exc:  # argparse rejects the arguments
                    code = exc.code if isinstance(exc.code, int) else 1
            judgements.append(cmd.check(code, buf.getvalue()))
    return tracer, judgements


def check_fingerprints(judgements, reference: dict[str, str]) -> None:
    """Fail the operation behind any output whose sha256 differs from the
    reference; outputs not yet in the reference are added to it."""
    for j in judgements:
        ops = {op.name: op for op in j.ops}
        for key, digest in j.fingerprints.items():
            if reference.setdefault(key, digest) != digest:
                op = ops[key.rsplit("/", 1)[0]]
                op.ok = False
                op.why = (op.why + "; " if op.why else "") + f"fingerprint of {key} changed"


def load_reference(key: str) -> dict[str, str]:
    path = STATE / "fingerprints.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    return dict(store.get(key, {}))


def save_reference(key: str, reference: dict[str, str]) -> None:
    path = STATE / "fingerprints.json"
    store = json.loads(path.read_text()) if path.exists() else {}
    store[key] = reference
    path.write_text(json.dumps(store, indent=1, sort_keys=True) + "\n")


# --- main --------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None, small: bool = False) -> int:
    """Run one benchmark. `small` is for the self-tests: reduced sizes and
    a single pass."""
    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    args = parse_args(argv)
    # Before numpy is first imported here, so the traced pass and the `env`
    # line see the same BLAS threads as the children.
    os.environ.update(PINNED_ENV)
    if not (SRC / "pqprune" / "cli.py").is_file():
        print(f"error: no pqprune sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.NAMES:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    info = machine_info(args.seed)
    workdir = STATE / "work" / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        return _run(args, info, workdir, deadline, small, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, info, workdir, deadline, small, workloads) -> int:
    workload = workloads.build(args.workload, args.seed, workdir, small=small)
    env = child_env()
    print(f"perfbench {workload.name}: {workload.why}")
    print("env " + json.dumps(info, sort_keys=True))

    # Start-up cost every invocation pays: interpreter plus `import pqprune.cli`,
    # with bytecode cached or not as the environment says. One start is timed
    # before each pass, so the starts sample the same stretch of machine time
    # as the passes.
    probe = [sys.executable, "-c", "import pqprune.cli"]
    min_passes = 1 if small else MIN_PASSES
    setups: list[Child] = []
    passes: list[PassResult] = []
    steal_start = steal_s()
    measure_start = time.monotonic()
    reserve = 1.5 if args.trace else 0.0  # room for the traced pass
    while True:
        setups.append(run_child(probe, env, workdir / "setup.stdout", deadline))
        passes.append(untraced_pass(workload, workdir, env, deadline))
        elapsed = time.monotonic() - measure_start
        mean_pass = elapsed / len(passes)
        if len(passes) >= min_passes and elapsed + mean_pass > args.seconds:
            break
        if time.monotonic() + mean_pass * (1.2 + reserve) > deadline:
            break
    stolen = steal_s() - steal_start

    judgements = [j for p in passes for j in p.judgements]
    tracer = None
    if args.trace:
        tracer, traced_judgements = traced_pass(workload, workdir, args.seed)
        judgements += traced_judgements

    key = "|".join(
        [workload.name, f"seed={args.seed}", f"small={small}", source_hash(),
         info["python"], info["numpy"], f"blas_threads={info['blas_threads']}"]
    )
    reference = load_reference(key)
    check_fingerprints(judgements, reference)
    ops = [op for j in judgements for op in j.ops]
    failed = sum(not op.ok for op in ops) + sum(c.exit_code != 0 for c in setups)
    attempted = len(ops) + len(setups)
    if not failed:
        save_reference(key, reference)

    end_to_end = report_end_to_end(workload, passes, setups)
    print(f"steal_s = {stolen:.3f} s of CPU time taken by the hypervisor during the passes")
    print(f"error_rate = {failed / attempted:.6g} ratio ({failed} failed of {attempted} operations)")
    for op in ops:
        if not op.ok:
            print(f"FAILED {op.name}: {op.why}")
    combined = hashlib.sha256(json.dumps(reference, sort_keys=True).encode()).hexdigest()
    print(f"fingerprint {combined} over {len(reference)} outputs")

    if tracer is None:
        metrics = {name: {"value": end_to_end[name], "unit": unit} for name, unit in END_TO_END.items()}
    else:
        import tracing

        # The traced pass runs in this process, so it pays no interpreter
        # start or import per invocation; take those out of the comparison.
        untraced = end_to_end["wall_s"] - len(workload.commands) * end_to_end["setup_s"]
        layer = tracing.layer_metrics(tracer, untraced)
        tracer.write(STATE / f"spans-{workload.name}.json")
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in tracing.LAYER_METRICS.items()}
        for name, m in metrics.items():
            print(f"layer {name} = {m['value']:.6g} {m['unit']}")

    print(json.dumps({"correct": not failed, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def report_end_to_end(workload, passes: list[PassResult], setups: list[Child]) -> dict[str, float]:
    """Print the per-pass figures and every end-to-end timing; return the
    END_TO_END values."""
    walls = [p.wall_s for p in passes]
    setup_walls = [c.wall_s for c in setups]
    cpus = [p.cpu_s for p in passes]
    values = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setup_walls),
        "cpu_s": statistics.median(cpus),
        "peak_rss_mb": max(p.peak_rss_mb for p in passes),
    }
    for i, p in enumerate(passes, 1):
        print(
            f"pass {i}: wall {p.wall_s:.4f} s, cpu {p.cpu_s:.4f} s, "
            f"peak rss {p.peak_rss_mb:.1f} MB, commands "
            + ", ".join(f"{k} {v:.4f} s" for k, v in p.command_wall.items())
        )
    print(f"wall_s = {values['wall_s']:.6g} s ({describe(walls, 's')})")
    print(f"setup_s = {values['setup_s']:.6g} s ({describe(setup_walls, 's')})")
    print(f"cpu_s = {values['cpu_s']:.6g} s ({describe(cpus, 's')})")
    print(f"peak_rss_mb = {values['peak_rss_mb']:.6g} MB (largest child of {len(passes)} passes)")
    for label in passes[0].command_wall:
        print(f"command {label}: {describe([p.command_wall[label] for p in passes], 's')}")
    # prune_index mixes command kinds; report each apart (run_s, measure_s, audit_s).
    kinds: dict[str, list[str]] = {}
    for cmd in workload.commands:
        kinds.setdefault(f"{cmd.argv[0]}_s", []).append(cmd.label)
    if len(kinds) > 1:
        for kind, labels in kinds.items():
            samples = [sum(p.command_wall[label] for label in labels) for p in passes]
            print(f"{kind} = {statistics.median(samples):.6g} s ({describe(samples, 's')})")
    return values


if __name__ == "__main__":
    sys.exit(main())
