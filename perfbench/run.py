"""cantorstab benchmark runner.

    python3 perfbench/run.py --workload certify --seed 1 --seconds 40 --trace 0

Workloads (``workloads.py``): ``certify`` (conjugate + verify certificates),
``germs`` (germ classes of seeded points) and ``search`` (rist searches and
cylinder orbits).  Each is a closed loop with one client: a fresh worker
process (``worker.py``) calls ``cantorstab.cli.main`` with one op's argv
after another, and every op's output is checked against a known answer
outside its timed span.

``--trace 0`` measures the end-to-end metrics.  ``setup_s`` is the median
time from spawning a worker until it is ready for its first op, over several
set-up-only workers and the measuring one.  Times are in reference seconds
(``hostspeed.py``): raw seconds scaled by the host's current speed on a
fixed loop, which keeps the host's drift out of the figures; the table also
shows the raw values.  The runner and its workers stay on one CPU.

``--trace 1`` runs the first ops of the first deck twice in fresh workers,
once with the layer tracer (``tracer.py``) installed and once without, and
reports the per-layer metrics, the tracing overhead, and whether both runs
produced the same canonical outputs.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it are a readable table and a
``record:`` line with the environment, op-list and output digests.  The
program is imported from ``src/`` next to this directory; scratch files go
to ``.perfbench-tmp/`` there and are removed at exit.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import hostspeed
import workloads
from tracer import layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 5
# A traced run replays this many ops (at most one deck) twice; tracing slows
# ops down about four times, so a whole germs deck would take over a minute.
TRACE_OPS = 25
WORKER_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("CANTORSTAB_BUDGET_SCALE", None)
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(SRC)
    return env


def run_worker(tmp: Path, args: list[str]) -> tuple[float, dict | None]:
    """Start a worker; return seconds from spawn to ready, and its result."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=tmp, env=worker_env(), stdout=subprocess.PIPE, text=True,
    )
    watchdog = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or code != 0:
        raise BenchError(f"worker {' '.join(args)} exited with {code}")
    lines = rest.strip().splitlines()
    return setup_s, json.loads(lines[-1]) if lines else None


def deck_rate(latencies, size: int) -> float:
    """Ops per second of timed ops: the median over the run's full decks,
    which keeps a burst of host noise in one deck out of the figure; the
    whole run when it holds fewer than three full decks."""
    decks = [latencies[i:i + size] for i in range(0, len(latencies) - size + 1, size)]
    if len(decks) < 3:
        return len(latencies) / sum(latencies)
    return statistics.median(size / sum(d) for d in decks)


def percentile(values, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_rev() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def summarize(records) -> dict:
    """Counts and digests shared by traced and untraced runs."""
    return {
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "items": sum(r["items"] for r in records),
        "undecided": sum(r["undecided"] for r in records),
        "op_list_sha256": workloads.digest([r["argvs"] for r in records]),
        "outputs_sha256": workloads.digest([r["digest"] for r in records]),
        "op_output_sha256": [r["digest"][:16] for r in records],
        "failures": [f"op {i}: {r['reason']}" for i, r in enumerate(records) if not r["ok"]][:10],
    }


def timed_start(tmp: Path, args: list[str]):
    """A worker start, with its set-up time in raw and reference seconds."""
    reference_s = statistics.median(hostspeed.reference_seconds() for _ in range(3))
    setup_s, result = run_worker(tmp, args)
    return setup_s, setup_s * hostspeed.REFERENCE_S / reference_s, result


def measure(tmp: Path, workload: str, seed: int, seconds: int):
    base = ["--workload", workload, "--seed", str(seed)]
    starts = [timed_start(tmp, [*base, "--setup-only"]) for _ in range(SETUP_PROBES)]
    starts.append(timed_start(tmp, [*base, "--seconds", str(seconds)]))
    result = starts[-1][2]
    records = result["records"]
    raw = [r["latency_s"] for r in records]
    reference = [r["reference_s"] for r in records]
    latencies = hostspeed.scaled(raw, reference)
    deck_size = len(workloads.deck(workload, seed, 0))
    summary = summarize(records)
    undecided_frac = summary["undecided"] / summary["items"] if summary["items"] else 0.0
    summary["op_latency_s"] = [round(t, 6) for t in latencies]
    metrics = {
        "setup_s": (statistics.median(s for _, s, _ in starts), "s"),
        "ops_per_s": (deck_rate(latencies, deck_size), "ops/s"),
        "op_p50_s": (statistics.median(latencies), "s"),
        "op_p90_s": (percentile(latencies, 90), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "decided_frac": (1.0 - undecided_frac, "ratio"),
    }
    notes = {
        "setup_s": (f"median of {len(starts)} worker starts; "
                    f"raw {statistics.median(s for s, _, _ in starts):.4f} s"),
        "ops_per_s": (f"median over {len(records) // deck_size} decks of {deck_size} ops; "
                      f"raw {len(records)} ops in {result['busy_s']:.2f} s"),
        "op_p50_s": f"{len(records)} op latencies; raw {statistics.median(raw):.4f} s",
        "op_p90_s": (f"{len(records) // 10} beyond p90; raw {percentile(raw, 90):.4f} s; "
                     f"reference loop median {statistics.median(reference) * 1000:.3f} ms"),
        "peak_rss_mb": "ru_maxrss of the measuring worker",
        "decided_frac": "1 - undecided_frac",
    }
    shown = {
        **metrics,
        "failed_frac": (summary["failed"] / len(records), "ratio"),
        "undecided_frac": (undecided_frac, "ratio"),
    }
    notes["failed_frac"] = f"{summary['failed']} of {len(records)} ops failed their check"
    notes["undecided_frac"] = (
        f"{summary['undecided']} of {summary['items']} verdict items left undecided by a budget")
    return metrics, shown, notes, summary, result["python"]


def trace(tmp: Path, workload: str, seed: int):
    count = min(TRACE_OPS, len(workloads.deck(workload, seed, 0)))
    base = ["--workload", workload, "--seed", str(seed), "--ops", str(count)]
    _, traced = run_worker(tmp, [*base, "--trace", "1"])
    _, plain = run_worker(tmp, [*base, "--trace", "0"])
    summary = summarize(traced["records"])
    plain_summary = summarize(plain["records"])
    summary["digests_match"] = (
        summary["outputs_sha256"] == plain_summary["outputs_sha256"]
        and summary["op_list_sha256"] == plain_summary["op_list_sha256"]
    )
    if not summary["digests_match"]:
        summary["failures"].append("traced outputs differ from untraced outputs")
    metrics = layer_metrics(traced["trace"], traced["certificate_bytes"])
    traced_rate = count / traced["busy_s"]
    plain_rate = count / plain["busy_s"]
    metrics["trace.ops"] = (count, "count")
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "ops/s")
    metrics["trace.traced_ops_per_s"] = (traced_rate, "ops/s")
    metrics["trace.overhead_frac"] = (1.0 - traced_rate / plain_rate, "ratio")
    notes = {"trace.overhead_frac": "ops_per_s lost to tracing, base trace.untraced_ops_per_s"}
    summary["by_depth"] = by_depth(traced["records"])
    return metrics, metrics, notes, summary, traced["python"]


def by_depth(records) -> dict:
    """Per family and depth: cylinders listed per op and in_rigid_stabiliser
    cylinders per call, to show how they grow with depth."""
    groups: dict = {}
    for r in records:
        if r["depth"] is not None:
            totals = groups.setdefault((r["family"], r["depth"]), [0, 0, 0, 0])
            totals[0] += 1
            for i, value in enumerate(r["layer"], start=1):
                totals[i] += value
    return {
        f"{family} d={depth}": {"ops": n, "cylinders_per_op": cylinders / n,
                                "cylinders_per_call": children / calls if calls else 0.0}
        for (family, depth), (n, cylinders, calls, children) in sorted(groups.items())
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cantorstab benchmark runner")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "cantorstab" / "cli.py").is_file():
        print(f"error: no cantorstab sources under {SRC}", file=sys.stderr)
        return 2

    hostspeed.pin_to_one_cpu()
    scratch_root = ROOT / ".perfbench-tmp"
    scratch_root.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch_root))
    try:
        if args.trace:
            metrics, shown, notes, summary, python = trace(tmp, args.workload, args.seed)
        else:
            metrics, shown, notes, summary, python = measure(
                tmp, args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # another run may still use it
            scratch_root.rmdir()

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    width = max(len(name) for name in shown)
    for name, (value, unit) in shown.items():
        print(f"  {name:<{width}}  {value:>12.6g} {unit:<6}  {notes.get(name, '')}")
    for key, row in summary.get("by_depth", {}).items():
        print(f"  {key:<20} {row['ops']:>3} ops  cylinders listed per op {row['cylinders_per_op']:>9.1f}"
              f"  in_rigid_stabiliser cylinders per call {row['cylinders_per_call']:>7.1f}")
    for failure in summary["failures"]:
        print(f"  FAILED {failure}")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": python, "git_rev": git_rev(),
        "nproc": os.cpu_count(), **summary,
    }
    print("record: " + json.dumps(record, sort_keys=True))
    correct = summary["failed"] == 0 and summary.get("digests_match", True)
    print(json.dumps({
        "correct": correct,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
