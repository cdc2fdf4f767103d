"""Benchmark of the carrysim CLI: one workload per process, outputs checked.

Run from the root of a carrysim checkout:

    python3 perfbench/run.py --workload periodic_check --seed 1 --seconds 30 --trace 0

The workload's operations (see workloads.py) run as whole rounds through
``carrysim.cli.main`` in this process until ``--seconds`` have passed.  Set-up
(importing carrysim and loading the model files) is timed apart, in fresh
interpreters.  The files the last round wrote are then checked against the
references in oracles.py, and every round must have written the same bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones (``wall_s``, ``setup_s``,
``peak_rss_mb``).  With ``--trace 1`` untraced and traced rounds alternate,
and the metrics are the per-layer ones from tracer.py plus
``trace.overhead_s``; the traced rounds' records are written to
``perfbench/out/<workload>/trace.json``.  Metric names and units are the
ones ``BENCHMARK.json`` declares.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

BLAS_THREADS = 1  # never above nproc; the workloads' matrices are at most 3x3
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 9
BENCHMARK_FILE = Path("BENCHMARK.json")
REQUIRED_FILES = (BENCHMARK_FILE, Path("src/carrysim/cli.py"), Path("models/periodic_lv2.json"))

SETUP_PROGRAM = """
import sys, time
start = time.perf_counter()
import carrysim
from carrysim.modelio import load_model_file
for path in sys.argv[1:]:
    load_model_file(path)
print(repr(time.perf_counter() - start))
"""


@dataclass
class Round:
    walls: list[float]  # seconds per operation
    codes: list[int | None]  # exit codes; None where the call raised
    digests: list[str]  # digest of each operation's output files
    tracer: object = None  # the Tracer of a traced round


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def declared_units(path: Path = BENCHMARK_FILE) -> dict[str, str]:
    bench = json.loads(path.read_text())
    return {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}


def measure_setup(model_files: list[Path]) -> list[float]:
    """Import carrysim and load the model files in fresh interpreters.

    One untimed call first compiles the bytecode, as an installed package
    would have it; the timed calls follow.
    """
    cmd = [sys.executable, "-c", SETUP_PROGRAM] + [str(p) for p in model_files]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, ["src", env.get("PYTHONPATH")]))
    times = []
    for k in range(SETUP_REPEATS + 1):
        done = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up failed: {done.stderr.strip()}")
        if k > 0:
            times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def digest(paths: list[Path]) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


def run_round(workload, cli_main) -> Round:
    """Run every operation once, with the CLI's own printing discarded."""
    result = Round([], [], [])
    for op in workload.operations:
        sink = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            try:
                code = cli_main(op.argv)
            except Exception:  # a traceback is a failed operation
                code = None
        result.walls.append(time.perf_counter() - start)
        result.codes.append(code)
        result.digests.append(digest(op.outputs))
    return result


def run_rounds(workload, seconds: float, trace: bool) -> list[Round]:
    """Whole rounds until ``seconds`` have passed; with ``trace``, untraced
    and traced rounds alternate and each kind runs at least once."""
    from carrysim.cli import main as cli_main

    from tracer import Tracer

    rounds: list[Round] = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if trace and len(rounds) % 2 == 1 else None
        if tracer is not None:
            tracer.install()
        try:
            rounds.append(run_round(workload, cli_main))
        finally:
            if tracer is not None:
                tracer.uninstall()
        rounds[-1].tracer = tracer
        enough = len(rounds) >= (2 if trace else 1)
        if enough and time.perf_counter() - start >= seconds:
            return rounds


def judge(workload, rounds: list[Round]) -> tuple[int, int, list[str], list[str]]:
    """(attempted, failed, failure lines, problem lines) over all rounds."""
    failures, problems = [], []
    failed_per_round = 0
    first = rounds[0]
    for k, op in enumerate(workload.operations):
        if any(r.codes[k] != first.codes[k] or r.digests[k] != first.digests[k] for r in rounds):
            problems.append(f"{op.name}: rounds differ in exit code or output bytes")
        if first.codes[k] is None:
            failed_per_round += 1
            failures.append(f"{op.name}: raised an exception")
            continue
        try:
            outcome = op.check(first.codes[k])
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            problems.append(f"{op.name}: unreadable output ({type(exc).__name__}: {exc})")
            continue
        problems.extend(f"{op.name}: {p}" for p in outcome.problems)
        if outcome.failed:
            failed_per_round += 1
            failures.append(f"{op.name}: {outcome.failed}")
    attempted = len(rounds) * len(workload.operations)
    return attempted, len(rounds) * failed_per_round, failures, problems


def layer_report(rounds: list[Round], out_dir: Path, steps_per_period: int) -> dict:
    """Per-layer medians over the traced rounds, and the tracing overhead."""
    from tracer import layer_metrics

    traced = [r for r in rounds if r.tracer is not None]
    untraced = [r for r in rounds if r.tracer is None]
    per_round = [layer_metrics(r.tracer, steps_per_period) for r in traced]
    metrics = {name: statistics.median(m[name] for m in per_round) for name in per_round[0]}
    metrics["trace.overhead_s"] = statistics.median(
        sum(r.walls) for r in traced
    ) - statistics.median(sum(r.walls) for r in untraced)
    records = [
        {
            name: vars(rec) | {"self_seconds": rec.self_seconds}
            for name, rec in r.tracer.records.items()
        }
        for r in traced
    ]
    (out_dir / "trace.json").write_text(
        json.dumps({"rounds": records, "metrics": metrics}, indent=1, default=str) + "\n"
    )
    return metrics


def format_report(
    correct: bool, attempted: int, failed: int, metrics: dict, units: dict[str, str]
) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(value), "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def main(argv=None) -> int:
    args = parse_args(argv)
    missing = [str(p) for p in REQUIRED_FILES if not p.is_file()]
    if missing:
        print(
            f"error: run from the root of a carrysim checkout; missing {missing}",
            file=sys.stderr,
        )
        return 2
    units = declared_units()
    os.environ.update({var: str(BLAS_THREADS) for var in BLAS_VARIABLES})
    sys.path.insert(0, str(Path("src").resolve()))
    import numpy

    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    out_dir = Path("perfbench/out") / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)

    workload = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    setup_times = measure_setup(workload.model_files)
    rounds = run_rounds(workload, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted, failed, failures, problems = judge(workload, rounds)

    untraced = [r for r in rounds if r.tracer is None]
    walls = [sum(r.walls) for r in untraced]
    print(
        f"# workload={args.workload} seed={args.seed} rounds={len(rounds)} "
        f"operations={len(workload.operations)} blas_threads={BLAS_THREADS} "
        f"nproc={os.cpu_count()} python={sys.version.split()[0]} numpy={numpy.__version__}"
    )
    print(f"# untraced round walls: {[round(w, 4) for w in walls]}")
    for k, op in enumerate(workload.operations):
        op_median = statistics.median(r.walls[k] for r in untraced)
        print(f"# {op.name}: median {op_median:.4f} s over {len(untraced)} rounds")
    print(f"# setup times: {[round(t, 4) for t in setup_times]}")
    for line in failures:
        print(f"# failed: {line}")
    for line in problems:
        print(f"# WRONG: {line}")

    if args.trace:
        metrics = layer_report(rounds, out_dir, workloads.ODE_STEPS)
    else:
        metrics = {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": peak_rss_mb,
        }
    print(format_report(not problems, attempted, failed, metrics, units))
    return 0


if __name__ == "__main__":
    sys.exit(main())
