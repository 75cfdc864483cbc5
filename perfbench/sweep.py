"""Run the benchmark once per seed and summarise each metric over the runs.

    python3 perfbench/sweep.py --workloads certify,germs,search --seeds 1-10 \\
        [--trace 0] [--out results.json]

Runs are sequential, one ``run.py`` process at a time.  For every workload
and metric it prints the median over runs, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the spread (quartile
distance over the median) and, for end-to-end metrics, the bound from
``BENCHMARK.json`` with ``ok`` when the spread is below a third of it.
``--out`` writes the same summary, the per-run records (Python version, git
rev, nproc, seed, op count, digests) and every run's metrics as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.strip().splitlines()
    record = json.loads(next(l for l in lines if l.startswith("record: "))[len("record: "):])
    return record, json.loads(lines[-1])


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="certify,germs,search")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    report = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        records, runs = [], []
        for seed in parse_seeds(args.seeds):
            record, result = run_once(workload, seed, seconds, args.trace)
            records.append(record)
            runs.append(result)
            print(f"{workload} seed {seed}: ops {record['attempted']} failed {record['failed']} "
                  + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
        metrics = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            metrics[name] = {"unit": runs[0]["metrics"][name]["unit"], **summarise(values)}
        report["workloads"][workload] = {"records": records, "runs": runs, "metrics": metrics}
        print(f"== {workload}: {len(runs)} runs, ops per run "
              f"{[r['attempted'] for r in runs]}, all correct: {all(r['correct'] for r in runs)}")
        for name, m in metrics.items():
            bound = bounds.get(name)
            verdict = "" if bound is None else (
                f"bound {bound}  {'ok' if m['spread'] < bound / 3 else 'WIDE'}")
            print(f"   {name:<48} median {m['median']:<12.6g} q1 {m['q1']:<12.6g} "
                  f"q3 {m['q3']:<12.6g} spread {m['spread']:.4f} {m['unit']}  {verdict}")
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
