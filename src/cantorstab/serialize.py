"""JSON schemas and canonical serialization.

Every report has a canonical body (sorted keys, compact separators, no
timestamps or environment data), wrapped in an envelope carrying the schema
name and static tool metadata.  Identical runs therefore produce
byte-identical files.
"""

from __future__ import annotations

import json
import os
import tempfile

from .space import Alphabet, Cylinder, Word, parse_point
from .elements import (
    FullGroupTable,
    GroupElement,
    PrefixBijection,
    TreeAutomorphism,
    WreathTable,
    format_generator_word,
    parse_generator_word,
)
from .engine import GermReport, GermKind
from .conjugator import (
    BuildBudgets,
    ConjugatorCertificate,
    Stage,
    SuiteReport,
    VerificationReport,
)
from .search import MinimalityWitness, OrbitCertificate

TOOL_TAG = "cantorstab 0.1.0"

SCHEMA_CERTIFICATE = "cantorstab/certificate-v1"
SCHEMA_CLASSIFY = "cantorstab/classify-v1"
SCHEMA_ORBIT = "cantorstab/orbit-v1"
SCHEMA_GERMS = "cantorstab/germs-v1"
SCHEMA_VERIFY = "cantorstab/verify-v1"
SCHEMA_WITNESS = "cantorstab/witness-v1"
SCHEMA_RIST = "cantorstab/rist-v1"


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def envelope(schema: str, body) -> dict:
    return {"schema": schema, "canonical": body, "meta": {"tool": TOOL_TAG}}


def dumps_envelope(schema: str, body) -> str:
    return canonical_dumps(envelope(schema, body))


def atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".cantorstab-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# elements


def element_to_obj(g: GroupElement):
    if isinstance(g, TreeAutomorphism):
        return {"kind": "word", "word": format_generator_word(g.word)}
    if isinstance(g, PrefixBijection):
        return {
            "kind": "prefix",
            "rules": [["".join(map(str, u)), "".join(map(str, v))] for u, v in g.rules],
        }
    if isinstance(g, FullGroupTable):
        return {
            "kind": "table",
            "rows": [["".join(map(str, c)), k] for c, k in g.rows],
        }
    raise TypeError(f"cannot serialize {type(g).__name__}")


def element_from_obj(obj, table: WreathTable | None = None, alphabet: Alphabet | None = None):
    kind = obj["kind"]
    if kind == "word":
        if table is None:
            raise ValueError("word elements need a wreath table")
        return TreeAutomorphism(table, parse_generator_word(obj["word"]))
    if kind == "prefix":
        return PrefixBijection(obj["rules"], alphabet or Alphabet(2))
    if kind == "table":
        return FullGroupTable([(c, k) for c, k in obj["rows"]])
    raise ValueError(f"unknown element kind {kind!r}")


def family_table(family) -> WreathTable | None:
    g = family.generators[0][1]
    return g.table if isinstance(g, TreeAutomorphism) else None


# ---------------------------------------------------------------------------
# certificates


def certificate_to_obj(cert: ConjugatorCertificate) -> dict:
    return {
        "family": cert.family_name,
        "alphabet": cert.alphabet.size,
        "x": str(cert.x),
        "y": str(cert.y),
        "design_flags": list(cert.design_flags),
        "budgets": cert.budgets.to_obj(),
        "stages": [
            {
                "i": s.index,
                "d": s.depth,
                "U": str(s.u.prefix),
                "V": str(s.v.prefix),
                "h": element_to_obj(s.h),
                "g": element_to_obj(s.g),
            }
            for s in cert.stages
        ],
    }


STAGE_FIELDS = {"i": int, "d": int, "U": str, "V": str, "h": dict, "g": dict}


def certificate_from_obj(obj: dict, family) -> ConjugatorCertificate:
    alphabet = Alphabet(obj["alphabet"])
    if family.name != obj["family"]:
        raise ValueError(f"certificate family {obj['family']!r} != {family.name!r}")
    if not isinstance(obj["stages"], list) or not obj["stages"]:
        raise ValueError("certificate stages must be a nonempty list")
    table = family_table(family)
    stages = []
    for n, raw in enumerate(obj["stages"]):
        if not isinstance(raw, dict) or any(not isinstance(raw.get(k), t) for k, t in STAGE_FIELDS.items()):
            raise ValueError(f"certificate stage {n} must have fields {', '.join(STAGE_FIELDS)} of the right types")
        stages.append(
            Stage(
                index=raw["i"],
                depth=raw["d"],
                u=Cylinder(Word.from_string(raw["U"], alphabet)),
                v=Cylinder(Word.from_string(raw["V"], alphabet)),
                h=element_from_obj(raw["h"], table, alphabet),
                g=element_from_obj(raw["g"], table, alphabet),
            )
        )
    return ConjugatorCertificate(
        family_name=obj["family"],
        alphabet=alphabet,
        x=parse_point(obj["x"], alphabet),
        y=parse_point(obj["y"], alphabet),
        stages=tuple(stages),
        budgets=BuildBudgets.from_obj(obj["budgets"]),
        design_flags=tuple(obj["design_flags"]),
    )


# ---------------------------------------------------------------------------
# reports


def _word_text(word) -> str:
    return format_generator_word(word) or "1"


def orbit_to_obj(cert: OrbitCertificate) -> dict:
    return {
        "seed": str(cert.seed.prefix),
        "depth": cert.depth,
        "truncated": cert.truncated,
        "generators": list(cert.generator_names),
        "reached": [
            {"cylinder": "".join(map(str, label)), "word": _word_text(word)}
            for label, word in sorted(cert.reached.items())
        ],
    }


def witness_to_obj(witness: MinimalityWitness) -> dict:
    return {
        "depth": witness.depth,
        "label": witness.label(),
        "ok": witness.ok,
        "truncated": witness.truncated,
        "seeds": [
            {
                "seed": "".join(map(str, seed)),
                "reached": len(cert.reached),
            }
            for seed, cert in sorted(witness.certificates.items())
        ],
    }


def germ_verdict_to_obj(verdict) -> dict:
    out = {"kind": verdict.kind.value}
    if verdict.depth is not None:
        if verdict.kind is GermKind.TRIVIAL:
            out["witness_depth"] = verdict.depth
        else:
            out["depth"] = verdict.depth
    return out


def germs_to_obj(report: GermReport) -> dict:
    return {
        "point": str(report.point),
        "max_word_len": report.max_word_len,
        "max_depth": report.max_depth,
        "lower_bound": report.lower_bound,
        "classes": [
            {
                "representative": _word_text(c.representative_word),
                "verdict": germ_verdict_to_obj(c.verdict),
                "provisional": c.provisional,
                "members": len(c.members),
            }
            for c in report.classes
        ],
        "separations": [
            {"first": i, "second": j, "verdict": germ_verdict_to_obj(v)}
            for i, j, v in report.separations
        ],
    }


def verify_to_obj(report: VerificationReport, suite: SuiteReport | None = None) -> dict:
    out = {
        "ok": report.ok and (suite is None or suite.ok),
        "checks": [
            {
                "stage": r.stage,
                "condition": r.condition,
                "status": r.status,
                "detail": r.detail,
            }
            for r in report.results
        ],
    }
    if suite is not None:
        out["suite"] = {
            "counts": suite.counts(),
            "entries": [
                {"label": e.label, "status": e.status, "detail": e.detail}
                for e in suite.entries
            ],
        }
    return out


def rist_to_obj(u: Cylinder, elements) -> dict:
    return {
        "cylinder": str(u.prefix),
        "count": len(elements),
        "elements": [element_to_obj(g) for g in elements],
    }
