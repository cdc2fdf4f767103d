"""Run-to-run spread of the end-to-end metrics, over several seeds.

Run from the root of a carrysim checkout:

    python3 perfbench/spread.py --runs 10 [--workload closed_form ...]

Each run is ``perfbench/run.py`` in a fresh process with its own seed and the
run length from ``BENCHMARK.json``.  For every end-to-end metric this prints
the median and the spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to the
metric's bound.  It also prints the share of failed operations.  Everything is
written to ``perfbench/results/spread-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def main(argv=None) -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", default=None)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    names = args.workload or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out_dir = Path("perfbench/results")
    out_dir.mkdir(parents=True, exist_ok=True)

    for name in names:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = list(bench["command"]) + [
                "--workload", name, "--seed", str(seed),
                "--seconds", str(bench["run_seconds"]), "--trace", "0",
            ]  # fmt: skip
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=300, check=True)
            report = json.loads(done.stdout.strip().splitlines()[-1])
            report["seed"] = seed
            runs.append(report)
            values = {k: round(v["value"], 4) for k, v in report["metrics"].items()}
            print(f"{name} seed {seed}: {values} failed {report['failed']}/{report['attempted']}")
        summary = {}
        for metric, bound in bounds.items():
            values = [r["metrics"][metric]["value"] for r in runs]
            summary[metric] = {
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bound,
                "values": values,
            }
            print(
                f"  {metric:12s} median {summary[metric]['median']:.4f}  "
                f"spread {summary[metric]['spread']:.4f}  bound {bound}"
            )
        shares = sorted({r["failed"] / r["attempted"] for r in runs})
        all_correct = all(r["correct"] for r in runs)
        print(f"  failed share {shares}  all correct {all_correct}")
        (out_dir / f"spread-{name}.json").write_text(
            json.dumps({"workload": name, "summary": summary, "runs": runs}, indent=1) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
