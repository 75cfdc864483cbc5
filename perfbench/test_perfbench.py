"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from cantorstab import cli, parse_point  # noqa: E402


def cli_output(*argv) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(list(argv))
    return rc, out.getvalue()


# -- tracer ---------------------------------------------------------------------


def test_self_time_on_nested_span_tree():
    # A [0, 10] holds B [1, 4] (which holds C [2, 3]) and D [5, 9].
    ticks = iter([0, 1, 2, 3, 4, 5, 9, 10])
    t = tracer.Tracer(clock=lambda: next(ticks))
    t.enter("A")
    t.enter("B")
    t.enter("C")
    t.exit()
    t.exit()
    t.enter("D")
    t.exit()
    t.exit()
    assert dict(t.total_s) == {"A": 10, "B": 3, "C": 1, "D": 4}
    assert dict(t.self_s) == {"A": 3, "B": 2, "C": 1, "D": 4}
    assert dict(t.calls) == {"A": 1, "B": 1, "C": 1, "D": 1}
    assert t.stack == []


def test_direct_children_only_count_towards_cylinders_per_call():
    t = tracer.Tracer(clock=lambda: 0.0)
    t.enter("engine.in_rigid_stabiliser")
    for _ in range(3):
        t.enter("engine.fixes_cylinder_pointwise")
        t.enter("engine.fixes_cylinder_pointwise")  # a refinement, not a direct child
        t.exit()
        t.exit()
    t.exit()
    metrics = tracer.layer_metrics(t.snapshot(), 0)
    assert metrics["engine.in_rigid_stabiliser.cylinders_per_call"] == (3.0, "count")
    assert metrics["engine.fixes_cylinder_pointwise.calls"] == (6, "count")


def test_untouched_layers_read_zero():
    metrics = tracer.layer_metrics(tracer.Tracer().snapshot(), 0)
    assert all(value == 0 for value, _ in metrics.values())


def test_traced_worker_counts_layers(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--workload", "search", "--seed", "3",
         "--ops", "17", "--trace", "1"],
        cwd=tmp_path, env=run.worker_env(), capture_output=True, text=True, timeout=170,
        check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert all(r["ok"] for r in result["records"])
    metrics = tracer.layer_metrics(result["trace"], result["certificate_bytes"])
    assert metrics["search.cylinder_orbit.calls"][0] == 9
    assert metrics["search.rist_search.calls"][0] == 8
    assert metrics["engine.in_rigid_stabiliser.calls"][0] > 0
    assert metrics["cli.orbit.s"][0] > 0 and metrics["cli.conjugate.s"][0] == 0


# -- workloads -------------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_op_list_follows_the_seed(workload):
    assert workloads.generate(workload, 7, 3) == workloads.generate(workload, 7, 3)
    assert workloads.generate(workload, 7, 3) != workloads.generate(workload, 8, 3)


def test_deck_composition_is_fixed():
    def shape(ops):
        return sorted((op["kind"], op["family"], op.get("depth", 0), op.get("maxlen", 0))
                      for op in ops)

    for workload in workloads.WORKLOADS:
        assert shape(workloads.deck(workload, 1, 0)) == shape(workloads.deck(workload, 2, 5))


def test_points_are_canonical():
    rng = random.Random(0)
    for _ in range(300):
        text = workloads.regular_point(rng)
        assert str(parse_point(text)) == text
        assert not text.endswith("(1)")


def test_certify_pairs_differ_in_infinitely_many_letters():
    assert workloads.eventually_equal("1(0)", "(0)")
    assert workloads.eventually_equal("110(01)", "(10)")
    assert not workloads.eventually_equal("(01)", "(10)")
    assert not workloads.eventually_equal("(001)", "(01)")
    for op in workloads.generate("certify", 3, 2):
        x, y = parse_point(op["x"]), parse_point(op["y"])
        far = len(x.preperiod) + len(y.preperiod) + 6
        assert any(x.letter_at(n) != y.letter_at(n) for n in range(far, far + 6))


# -- known-answer checks ------------------------------------------------------------


@pytest.fixture(scope="module")
def certify_output(tmp_path_factory):
    cert = tmp_path_factory.mktemp("cert") / "cert.json"
    op = {"kind": "certify", "family": "grigorchuk", "depth": 4, "x": "(0)", "y": "0(01)"}
    rc1, _ = cli_output("conjugate", "--family", "grigorchuk", "--x", "(0)", "--y", "0(01)",
                        "--depth", "4", "--out", str(cert))
    rc2, report = cli_output("verify", "--family", "grigorchuk", "--cert", str(cert),
                             "--samples", "8", "--format", "json")
    return op, [rc1, rc2], report, cert.read_text()


def test_certify_check_passes_real_output(certify_output):
    op, rcs, report, cert = certify_output
    outcome = checks.check_op(op, rcs, ["", report], cert)
    assert outcome.ok, outcome.reason
    assert outcome.items > 1 and outcome.undecided == 0


def test_certify_check_flags_one_failed_check(certify_output):
    op, rcs, report, cert = certify_output
    planted = json.loads(report)
    planted["canonical"]["checks"][3]["status"] = "FAIL"
    assert not checks.check_op(op, rcs, ["", json.dumps(planted)], cert).ok


def test_certify_check_flags_wrong_depth_and_exit_3(certify_output):
    op, rcs, report, cert = certify_output
    assert not checks.check_op({**op, "depth": 5}, rcs, ["", report], cert).ok
    outcome = checks.check_op(op, [3], [""], None)
    assert not outcome.ok and (outcome.items, outcome.undecided) == (1, 1)


def test_germs_check_flags_false_separation():
    op = {"kind": "germs", "family": "grigorchuk", "point": "(1)"}
    rc, text = cli_output("germs", "--family", "grigorchuk", "--point", "(1)", "--maxlen", "3",
                          "--format", "json")
    assert checks.check_op(op, [rc], [text]).ok
    planted = json.loads(text)
    body = planted["canonical"]
    while len(body["classes"]) < 5:
        body["classes"].append(dict(body["classes"][-1]))
    body["lower_bound"] = 5
    outcome = checks.check_op(op, [rc], [json.dumps(planted)])
    assert not outcome.ok and "exceeds germ order 4" in outcome.reason


def test_orbit_check_flags_missing_cylinder():
    op = {"kind": "orbit", "family": "grigorchuk", "seed": "01", "depth": 5}
    rc, text = cli_output("orbit", "--family", "grigorchuk", "--seed", "01", "--depth", "5",
                          "--format", "json")
    assert checks.check_op(op, [rc], [text]).ok
    planted = json.loads(text)
    planted["canonical"]["reached"].pop(7)
    assert not checks.check_op(op, [rc], [json.dumps(planted)]).ok


def test_rist_check_flags_element_outside_rist():
    op = {"kind": "rist", "family": "grigorchuk", "cylinder": "0"}
    rc, text = cli_output("rist", "--family", "grigorchuk", "--cylinder", "0", "--maxlen", "4",
                          "--format", "json")
    body = checks.canonical_body(text)
    assert checks.check_op(op, [rc], [text]).ok
    assert checks.check_rist_elements(op, body) == ""
    body["elements"].append({"kind": "word", "word": "a"})
    assert checks.check_rist_elements(op, body)


# -- BENCHMARK.json --------------------------------------------------------------------------


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    layer = tracer.layer_metrics(tracer.Tracer().snapshot(), 0)
    trace_names = {"trace.ops", "trace.untraced_ops_per_s", "trace.traced_ops_per_s",
                   "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == set(layer) | trace_names
    assert {m["name"]: m["unit"] for m in spec["per_layer"] if m["name"] in layer} == {
        name: unit for name, (_, unit) in layer.items()}
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_runner_refuses_a_tree_without_the_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "germs", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
