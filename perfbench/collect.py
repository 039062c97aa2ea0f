"""Run the benchmark over several seeds and summarise each metric.

Usage (from the root of a catspan checkout):

    python3 perfbench/collect.py [--first-seed 1] [--out perfbench/results/NAME.json]

For every workload in BENCHMARK.json it runs `run.py --trace 0` once for each
of ten seeds, for the `run_seconds` that BENCHMARK.json declares, and reports
for each end-to-end metric the median, the quartiles (statistics.quantiles
with n=4), the sample count and the spread (Q3 - Q1) / median.  A spread at
or above a third of the metric's bound is flagged.  It also runs
`run.py --trace 1` once per workload on the first seed and keeps its
per-layer metrics.  The summary goes to stdout and, with --out, to a JSON
file together with the Python version, nproc and the CPU model.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUNS = 10


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect result\n{proc.stdout}\n{proc.stderr}")
    return result


def summarise(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {
        "median": med,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "spread": (q3 - q1) / med,
        "values": values,
    }


def cpu_model() -> str:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "seconds": seconds,
        "seeds": list(range(args.first_seed, args.first_seed + RUNS)),
        "end_to_end": {},
        "per_layer": {},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [bench(workload, seed, seconds, 0) for seed in report["seeds"]]
        table = {}
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            s["unit"] = runs[0]["metrics"][name]["unit"]
            table[name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:8s} {name:14s} median={s['median']:.4f} {s['unit']} q1={s['q1']:.4f} "
                  f"q3={s['q3']:.4f} n={s['n']} spread={s['spread']:.3f} bound={bounds[name]}{flag}",
                  flush=True)
        report["end_to_end"][workload] = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "metrics": table,
        }
        traced = bench(workload, report["seeds"][0], seconds, 1)
        report["per_layer"][workload] = traced["metrics"]
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
