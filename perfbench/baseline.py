"""Record a baseline: repeated benchmark runs summarised per workload.

    python3 perfbench/baseline.py --out perfbench/baseline_seed.json

Run from the root of a checkout. For each workload this runs
`BENCHMARK.json`'s command once per seed 1..RUNS with `--trace 0`, one
process per run, and records every end-to-end value with its median,
quartiles (`statistics.quantiles(n=4)`) and spread (interquartile distance
over the median) next to the metric's bound. It then makes two `--trace 1`
runs with seed 1 and records the per-layer values of the first, after
checking that both runs report the same counts.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUNS = 10


def run_once(command, workload, seed, seconds, trace):
    argv = command + ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    started = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600, check=False)
    elapsed = time.perf_counter() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(argv)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{' '.join(argv)} reported failures:\n" + "\n".join(lines[:-1]))
    return result, elapsed


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "values": values,
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else None,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    counted = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "ratio")}
    seconds = spec["run_seconds"]
    report = {"run_seconds": seconds, "runs": RUNS, "workloads": {}}
    for workload in [w["name"] for w in spec["workloads"]]:
        values, attempted, elapsed = {}, [], []
        for seed in range(1, RUNS + 1):
            result, took = run_once(spec["command"], workload, seed, seconds, 0)
            attempted.append(result["attempted"])
            elapsed.append(took)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            shown = " ".join(f"{k}={m['value']:.4f} {m['unit']}" for k, m in result["metrics"].items())
            rate = result["failed"] / result["attempted"]
            print(f"{workload} seed {seed} ({took:.1f} s): {shown} error_rate={rate:.4f}", flush=True)
        end_to_end = {}
        for name, vals in values.items():
            end_to_end[name] = dict(summarize(vals), bound=bounds[name])
            s = end_to_end[name]
            print(f"  {workload} {name}: median {s['median']:.4f} spread {s['spread']:.4f} bound {bounds[name]}")
        traced = [run_once(spec["command"], workload, 1, seconds, 1)[0] for _ in range(2)]
        first, second = ({k: m["value"] for k, m in t["metrics"].items()} for t in traced)
        repeat = all(first[k] == second[k] for k in counted)
        print(f"  {workload} traced counts repeat: {repeat}", flush=True)
        report["workloads"][workload] = {
            "checks_per_run": attempted,
            "seconds_per_run": elapsed,
            "end_to_end": end_to_end,
            "per_layer_seed1": first,
            "per_layer_counts_repeat": repeat,
        }
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
