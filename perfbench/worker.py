"""Benchmark worker: one client running one workload's ops in a closed loop.

The runner (``run.py``) starts a fresh worker for every run, in a per-run
scratch directory, so the program's module-level caches start empty as they
do for every CLI user.  The worker sets up (imports ``cantorstab``, builds
the preset families, generates the op list), prints ``ready``, then calls
``cantorstab.cli.main`` for each op until its ops have used ``--seconds`` of
timed time (or, with ``--ops N``, for exactly the first N ops).  Only the
CLI calls are timed; reading and checking their output happens between
ops, as does a run of the host-speed reference loop (``hostspeed.py``)
before each op.  Rigid-stabiliser re-checks, which run the program, wait
until after the loop and after peak memory has been read.  The last line on
stdout is a JSON result for the runner.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

import checks
import hostspeed
import workloads

# Decks generated up front; a loop that uses them all starts over.
SETUP_DECKS = 24
CERT_FILE = "cert.json"


def run_op(cli, op, tracer):
    """Run one op's CLI calls; returns exit codes, stdout texts and seconds.

    A call that raises counts as a failed op with the exception as its code.
    """
    rcs, outputs = [], []
    start = time.perf_counter()
    for argv in op["argvs"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            if tracer is not None:
                tracer.enter(f"cli.{argv[0]}")
            try:
                rc = cli.main(argv)
            except (Exception, SystemExit):
                rc = "raised " + traceback.format_exc().strip().splitlines()[-1]
            finally:
                if tracer is not None:
                    tracer.exit()
        rcs.append(rc)
        outputs.append(out.getvalue())
        if rc != 0:
            break
    return rcs, outputs, time.perf_counter() - start


def layer_counts(tracer) -> tuple:
    """Counters whose per-op growth shows how rist checks scale with depth:
    cylinders listed, in_rigid_stabiliser calls, and their direct
    fixes_cylinder_pointwise children."""
    if tracer is None:
        return ()
    return (
        tracer.counts["space.cylinders_at_depth.cylinders"],
        tracer.calls["engine.in_rigid_stabiliser"],
        tracer.counts["engine.in_rigid_stabiliser.children"],
    )


def run_loop(cli, ops, seconds, count, tracer):
    records, rist_bodies = [], []
    certificate_bytes = 0
    busy = 0.0
    if tracer is not None:
        tracer.enabled = True
    i = 0
    while (i < count) if count else (busy < seconds):
        op = ops[i % len(ops)]
        if op["kind"] == "certify" and os.path.exists(CERT_FILE):
            os.remove(CERT_FILE)
        reference_s = hostspeed.reference_seconds()
        before = layer_counts(tracer)
        rcs, outputs, elapsed = run_op(cli, op, tracer)
        busy += elapsed
        after = layer_counts(tracer)
        cert_text = None
        if op["kind"] == "certify" and rcs[0] == 0:
            with open(CERT_FILE) as handle:
                cert_text = handle.read()
            certificate_bytes += len(cert_text.encode())
        outcome = checks.check_op(op, rcs, outputs, cert_text)
        if op["kind"] == "rist" and outcome.ok:
            rist_bodies.append((len(records), op, checks.canonical_body(outputs[0])))
        records.append({
            "argvs": op["argvs"], "family": op["family"], "depth": op.get("depth"),
            "latency_s": elapsed, "reference_s": reference_s,
            "layer": [a - b for a, b in zip(after, before)], **vars(outcome),
        })
        i += 1
    if tracer is not None:
        tracer.enabled = False
    return records, rist_bodies, busy, certificate_bytes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--ops", type=int, default=0, help="run exactly this many ops")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    from cantorstab import cli, presets

    for name in presets.PRESETS:
        presets.load_preset(name)
    ops = workloads.generate(args.workload, args.seed, SETUP_DECKS)
    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    records, rist_bodies, busy, certificate_bytes = run_loop(
        cli, ops, args.seconds, args.ops, tracer
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for index, op, body in rist_bodies:
        reason = checks.check_rist_elements(op, body)
        if reason:
            records[index].update(ok=False, reason=reason)

    result = {
        "python": sys.version.split()[0],
        "busy_s": busy,
        "peak_rss_mb": peak_rss_mb,
        "records": records,
        "certificate_bytes": certificate_bytes,
        "trace": tracer.snapshot() if tracer is not None else None,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
