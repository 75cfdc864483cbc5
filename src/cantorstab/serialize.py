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


ELEMENT_SHAPES = {
    "word": {"kind": str, "word": str},
    "prefix": {"kind": str, "rules": [[str, str]]},
    "table": {"kind": str, "rows": [[str, int]]},
}


def _check_shape(obj, shape, path: str) -> None:
    """Raise ValueError naming the first place where the JSON value ``obj``
    leaves ``shape``: a type, ``{field: shape}`` for an object with exactly
    these fields, ``[shape]`` for a list of them, ``[shape, shape]`` for a pair."""
    if isinstance(shape, dict):
        if not isinstance(obj, dict) or obj.keys() != shape.keys():
            raise ValueError(f"{path} must have exactly the fields {', '.join(shape)}")
        for key, sub in shape.items():
            _check_shape(obj[key], sub, f"{path}.{key}")
    elif isinstance(shape, list):
        if not isinstance(obj, list) or len(shape) == 2 and len(obj) != 2:
            raise ValueError(f"{path} must be a {'pair' if len(shape) == 2 else 'list'}")
        for n, item in enumerate(obj):
            _check_shape(item, shape[n] if len(shape) == 2 else shape[0], f"{path}[{n}]")
    elif not isinstance(obj, shape):
        raise ValueError(f"{path} must be of type {shape.__name__}")


def element_from_obj(obj, table: WreathTable | None = None, alphabet: Alphabet | None = None):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in ELEMENT_SHAPES:
        raise ValueError(f"unknown element kind {kind!r}")
    _check_shape(obj, ELEMENT_SHAPES[kind], f"{kind} element")
    if kind == "word":
        if table is None:
            raise ValueError("word elements need a wreath table")
        return TreeAutomorphism(table, parse_generator_word(obj["word"]))
    if kind == "prefix":
        return PrefixBijection(obj["rules"], alphabet or Alphabet(2))
    return FullGroupTable([(c, k) for c, k in obj["rows"]])


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


SEARCH_BUDGET_SHAPE = {"max_word_len": int, "max_states": int}
CERTIFICATE_SHAPE = {
    "family": str, "alphabet": int, "x": str, "y": str, "design_flags": [str],
    "budgets": {"transporter": SEARCH_BUDGET_SHAPE, "rist": SEARCH_BUDGET_SHAPE,
                "id_budget": int, "retries": int, "retry_step": int},
    "stages": [{"i": int, "d": int, "U": str, "V": str, "h": dict, "g": dict}],
}


def certificate_from_obj(obj: dict, family) -> ConjugatorCertificate:
    _check_shape(obj, CERTIFICATE_SHAPE, "certificate")
    alphabet = Alphabet(obj["alphabet"])
    if family.name != obj["family"]:
        raise ValueError(f"certificate family {obj['family']!r} != {family.name!r}")
    if not obj["stages"]:
        raise ValueError("certificate stages must be a nonempty list")
    table = family_table(family)
    stages = []
    for n, raw in enumerate(obj["stages"]):
        if raw["i"] != n:
            raise ValueError(f"certificate stage {n} has index {raw['i']}")
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
