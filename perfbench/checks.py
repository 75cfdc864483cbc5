"""Known-answer checks and verdict-item counts for benchmark ops.

Every function here runs outside the timed span of an op.  ``check_op``
takes an op (see ``workloads``) and what its CLI calls returned, and yields
an ``Outcome``: whether the output is right, how many verdict items it
holds and how many of them a budget left undecided, and a digest of its
canonical output.  The rigid-stabiliser re-check needs the program itself
and is kept apart in ``check_rist_elements``, so that a worker can run it
after its timed loop without warming the program's caches mid-run.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from workloads import digest

EXIT_SEARCH = 3

# Order of the germ group at a point: 4 at Grigorchuk points cofinal with
# 1^infinity, 1 at every other Grigorchuk point and at every odometer point.
# A germ report whose lower bound exceeds it claims a false separation.
def known_germ_order(family: str, point: str) -> int | None:
    if family == "grigorchuk":
        return 4 if point.endswith("(1)") else 1
    if family == "odometer-full":
        return 1
    return None


@dataclass
class Outcome:
    ok: bool
    reason: str
    items: int  # verdict items in the output
    undecided: int  # of those, left undecided by a budget
    digest: str  # sha256 of the canonical output bodies


def canonical_body(text: str):
    """Parse one canonical JSON envelope and return its body."""
    return json.loads(text)["canonical"]


def _fail(reason: str, items=0, undecided=0, dig="") -> Outcome:
    return Outcome(False, reason, items, undecided, dig)


def check_certify(op, rcs, outputs, cert_text) -> Outcome:
    if rcs[0] == EXIT_SEARCH:
        return _fail("conjugate exit 3 (search budget exhausted)", 1, 1)
    if rcs != [0, 0]:
        return _fail(f"exit codes {rcs}", 1)
    cert = canonical_body(cert_text)
    report = canonical_body(outputs[1])
    checks = report["checks"]
    entries = report.get("suite", {}).get("entries", [])
    items = 1 + len(checks) + len(entries)
    undecided = sum(c["status"] == "UNKNOWN" for c in checks + entries)
    dig = digest([cert, report])
    if not report["ok"]:
        return _fail("verify reports ok: false", items, undecided, dig)
    bad = [c for c in checks if c["status"] != "PASS"]
    if bad:
        return _fail(f"verify check {bad[0]['stage']}/{bad[0]['condition']}: {bad[0]['status']}",
                     items, undecided, dig)
    if "suite" not in report:
        return _fail("verify ran no conjugation suite", items, undecided, dig)
    if any(e["status"] in ("FAIL", "UNKNOWN") for e in entries):
        return _fail(f"suite counts {report['suite']['counts']}", items, undecided, dig)
    if len(cert["stages"]) - 1 != op["depth"]:
        return _fail(f"{len(cert['stages']) - 1} stages for depth {op['depth']}", items, undecided, dig)
    if (cert["x"], cert["y"]) != (op["x"], op["y"]):
        return _fail(f"certificate is for {cert['x']} -> {cert['y']}", items, undecided, dig)
    return Outcome(True, "", items, undecided, dig)


def check_germs(op, body) -> Outcome:
    classes = body["classes"]
    undecided = sum(
        c["provisional"] or c["verdict"]["kind"] == "unknown" for c in classes
    )
    out = Outcome(True, "", len(classes), undecided, digest(body))
    bound = body["lower_bound"]
    known = known_germ_order(op["family"], body["point"])
    if bound != len(classes) or bound < 1:
        out.ok, out.reason = False, f"lower_bound {bound} with {len(classes)} classes"
    elif known is not None and bound > known:
        out.ok, out.reason = False, f"lower_bound {bound} exceeds germ order {known} at {body['point']}"
    return out


LEVEL_TRANSITIVE = ("grigorchuk", "odometer-full")


def check_orbit(op, body) -> Outcome:
    depth = op["depth"]
    reached = [r["cylinder"] for r in body["reached"]]
    out = Outcome(True, "", 1, int(body["truncated"]), digest(body))
    if any(len(c) != depth for c in reached) or len(set(reached)) != len(reached):
        out.ok, out.reason = False, "reached labels are not distinct depth-d words"
    elif op["family"] in LEVEL_TRANSITIVE and len(reached) != 2**depth:
        out.ok, out.reason = False, f"{len(reached)} of {2**depth} cylinders reached"
    elif not any(c.startswith(op["seed"]) for c in reached):
        out.ok, out.reason = False, "the seed cylinder is missing from its own orbit"
    return out


def check_rist(op, body) -> Outcome:
    out = Outcome(True, "", 0, 0, digest(body))
    if body["cylinder"] != op["cylinder"] or body["count"] != len(body["elements"]):
        out.ok, out.reason = False, "rist report does not match its request"
    return out


def check_op(op, rcs, outputs, cert_text=None) -> Outcome:
    """Known-answer check of one op from its exit codes and captured output."""
    try:
        if op["kind"] == "certify":
            return check_certify(op, rcs, outputs, cert_text)
        if rcs != [0]:
            return _fail(f"exit codes {rcs}")
        body = canonical_body(outputs[0])
        return {"germs": check_germs, "orbit": check_orbit, "rist": check_rist}[
            op["kind"]
        ](op, body)
    except (ValueError, KeyError, TypeError) as exc:
        return _fail(f"unreadable output: {exc!r}")


def check_rist_elements(op, body) -> str:
    """Re-parse each element of a rist report and test it against the
    definition on its cylinder; returns "" or the first failure."""
    from cantorstab import presets, serialize
    from cantorstab.elements import Tri
    from cantorstab.engine import in_rigid_stabiliser
    from cantorstab.space import Cylinder, Word

    family = presets.load_preset(op["family"])
    table = serialize.family_table(family)
    u = Cylinder(Word.from_string(body["cylinder"], family.alphabet))
    for obj in body["elements"]:
        g = serialize.element_from_obj(obj, table, family.alphabet)
        verdict = in_rigid_stabiliser(g, u)
        if verdict is not Tri.YES:
            return f"{obj} has rist verdict {verdict.value} on {u}"
    return ""
