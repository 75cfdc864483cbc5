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

from .space import BINARY, Alphabet, Cylinder, Word, parse_point
from .elements import (
    ACT_POINT_STATE_BUDGET,
    FamilyMismatch,
    FullGroupTable,
    GroupElement,
    PrefixBijection,
    TreeAutomorphism,
    WreathTable,
    format_generator_word,
    parse_generator_word,
)
from .engine import GermReport, GroupFamily
from .conjugator import (
    BuildBudgets,
    ConjugatorCertificate,
    SuiteReport,
    VerificationReport,
)
from .search import MinimalityWitness, OrbitCertificate

TOOL_TAG = "cantorstab 0.1.0"

SCHEMA_CERTIFICATE = "cantorstab/certificate-v2"
SCHEMA_CERTIFICATE_V1 = "cantorstab/certificate-v1"
SCHEMA_CLASSIFY = "cantorstab/classify-v1"
SCHEMA_ORBIT = "cantorstab/orbit-v1"
SCHEMA_GERMS = "cantorstab/germs-v1"
SCHEMA_VERIFY = "cantorstab/verify-v1"
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
    leaves ``shape``: a type or a union of types (``str | None``),
    ``{field: shape}`` for an object with exactly these fields, ``[shape]``
    for a list of them, ``[shape, shape]`` for a pair."""
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
        raise ValueError(f"{path} must be of type {getattr(shape, '__name__', shape)}")


def _letters(text: str, alphabet: Alphabet) -> tuple:
    return Word.from_string(text, alphabet).letters


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
        alphabet = alphabet or BINARY
        return PrefixBijection(
            [(_letters(u, alphabet), _letters(v, alphabet)) for u, v in obj["rules"]], alphabet
        )
    for n, (_, k) in enumerate(obj["rows"]):
        # a carry this long cannot settle within the point-action budget
        if k.bit_length() > ACT_POINT_STATE_BUDGET:
            raise ValueError(f"table element.rows[{n}]: power of {k.bit_length()} bits "
                             f"exceeds {ACT_POINT_STATE_BUDGET} bits")
    return FullGroupTable([(_letters(c, BINARY), int(k)) for c, k in obj["rows"]])


def family_table(family) -> WreathTable | None:
    g = family.generators[0][1]
    return g.table if isinstance(g, TreeAutomorphism) else None


# ---------------------------------------------------------------------------
# family files

FAMILY_COMMON = {"type": str, "name": str, "alphabet": int, "transporter_margin": int, "generators": dict}
FAMILY_SHAPES = {
    "wreath": {**FAMILY_COMMON, "public": [str]},
    "prefix": FAMILY_COMMON,
    "table": FAMILY_COMMON,
}
WREATH_GENERATOR_SHAPE = {"perm": [int], "sections": [str | None]}
# prefix and table generators are element bodies without their kind
ELEMENT_BODY_FIELD = {"prefix": "rules", "table": "rows"}


def family_from_obj(obj) -> GroupFamily:
    """A family from its JSON definition; optional fields (``name``,
    ``alphabet``, ``transporter_margin``, and for wreath families
    ``public``) take their defaults before the shape is checked."""
    kind = obj.get("type") if isinstance(obj, dict) else None
    if not isinstance(kind, str) or kind not in FAMILY_SHAPES:
        raise ValueError(f"unknown family type {kind!r}")
    defaults = {"name": "custom", "alphabet": 2, "transporter_margin": 0}
    if kind == "wreath":
        names = obj.get("generators")
        defaults.update(public=sorted(names) if isinstance(names, dict) else [])
    obj = {**defaults, **obj}
    _check_shape(obj, FAMILY_SHAPES[kind], "family")
    alphabet = Alphabet(obj["alphabet"])
    if kind == "wreath":
        entries = {}
        for name, data in obj["generators"].items():
            _check_shape(data, WREATH_GENERATOR_SHAPE, f"family.generators.{name}")
            entries[name] = (tuple(data["perm"]), tuple(data["sections"]))
        table = WreathTable(alphabet, entries)
        gens = tuple((n, TreeAutomorphism.generator(table, n)) for n in obj["public"])
    else:
        field = ELEMENT_BODY_FIELD[kind]
        gens = tuple(
            (name, element_from_obj({"kind": kind, field: body}, None, alphabet))
            for name, body in sorted(obj["generators"].items())
        )
    if not gens:
        raise ValueError("family must have at least one public generator")
    return GroupFamily(
        name=obj["name"],
        alphabet=alphabet,
        generators=gens,
        transporter_margin=obj["transporter_margin"],
    )


# ---------------------------------------------------------------------------
# certificates


def certificate_to_obj(cert: ConjugatorCertificate) -> dict:
    return {
        "family": cert.family_name,
        "alphabet": cert.alphabet.size,
        "x": str(cert.x),
        "y": str(cert.y),
        "budgets": cert.budgets.to_obj(),
        "stages": [{"d": s.depth, "h": element_to_obj(s.h)} for s in cert.stages],
    }


SEARCH_BUDGET_SHAPE = {"max_word_len": int, "max_states": int}
CERTIFICATE_SHAPE = {
    "family": str, "alphabet": int, "x": str, "y": str,
    "budgets": {"transporter": SEARCH_BUDGET_SHAPE, "rist": SEARCH_BUDGET_SHAPE, "id_budget": int},
    "stages": [{"d": int, "h": dict}],
}


def certificate_from_obj(obj: dict, family) -> ConjugatorCertificate:
    """A certificate from its v2 body; every stage is derived from the
    stored depths and corrections through ``next_stage``."""
    _check_shape(obj, CERTIFICATE_SHAPE, "certificate")
    alphabet = Alphabet(obj["alphabet"])
    if family.name != obj["family"]:
        raise ValueError(f"certificate family {obj['family']!r} != {family.name!r}")
    family.alphabet.check(alphabet)
    if not obj["stages"]:
        raise ValueError("certificate stages must be a nonempty list")
    table = family_table(family)
    corrections = [(raw["d"], element_from_obj(raw["h"], table, alphabet)) for raw in obj["stages"]]
    try:
        return ConjugatorCertificate.from_corrections(
            obj["family"],
            alphabet,
            parse_point(obj["x"], alphabet),
            parse_point(obj["y"], alphabet),
            corrections,
            BuildBudgets.from_obj(obj["budgets"]),
        )
    except FamilyMismatch as exc:
        raise ValueError(f"certificate corrections do not compose: {exc}") from None


CERTIFICATE_V1_SHAPE = {
    **CERTIFICATE_SHAPE, "design_flags": [str],
    "budgets": {**CERTIFICATE_SHAPE["budgets"], "retries": int, "retry_step": int},
    "stages": [{"i": int, "d": int, "U": str, "V": str, "h": dict, "g": dict}],
}


def certificate_from_v1(obj: dict, family) -> ConjugatorCertificate:
    """A certificate from a v1 body: its transporter cap becomes
    ``max_word_len + retries * retry_step``, and each stored ``i``, ``U``,
    ``V`` and ``g`` must equal the value derived from ``d`` and ``h``."""
    _check_shape(obj, CERTIFICATE_V1_SHAPE, "certificate")
    budgets = {k: v for k, v in obj["budgets"].items() if k not in ("retries", "retry_step")}
    cap = budgets["transporter"]["max_word_len"] + obj["budgets"]["retries"] * obj["budgets"]["retry_step"]
    budgets["transporter"] = {**budgets["transporter"], "max_word_len": cap}
    body = {key: obj[key] for key in ("family", "alphabet", "x", "y")}
    body.update(budgets=budgets, stages=[{"d": raw["d"], "h": raw["h"]} for raw in obj["stages"]])
    cert = certificate_from_obj(body, family)
    table = family_table(family)
    for n, (raw, stage) in enumerate(zip(obj["stages"], cert.stages)):
        derived = {"i": stage.index, "U": str(stage.u.prefix), "V": str(stage.v.prefix), "g": stage.g}
        stored = {**raw, "g": element_from_obj(raw["g"], table, cert.alphabet)}
        for key, value in derived.items():
            if stored[key] != value:
                raise ValueError(f"certificate-v1 stage {n}: stored {key} differs from the one derived from d and h")
    return cert


def certificate_from_envelope(envelope, family) -> ConjugatorCertificate:
    """A certificate from a v2 or a v1 envelope."""
    schema = envelope.get("schema") if isinstance(envelope, dict) else None
    if schema == SCHEMA_CERTIFICATE:
        return certificate_from_obj(envelope["canonical"], family)
    if schema == SCHEMA_CERTIFICATE_V1:
        return certificate_from_v1(envelope["canonical"], family)
    raise ValueError(f"not a certificate file: schema {schema!r}")


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
        out["witness_depth"] = verdict.depth
    return out


def germs_to_obj(report: GermReport) -> dict:
    return {
        "point": str(report.point),
        "max_word_len": report.max_word_len,
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
