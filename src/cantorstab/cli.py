"""Command-line front end.

Subcommands: ``classify``, ``conjugate``, ``verify``, ``orbit``, ``rist``,
``germs``.  Reports are emitted as canonical JSON envelopes (deterministic
bytes) or plain text.  Exit codes: 0 success, 1 verification failure,
2 parse/schema error, 3 search failure (partial certificate written),
4 budget exceeded under ``--strict``.

Input grammar
  points     ``u(v)``: digit preperiod ``u``, repeating digit period ``v``
             ("(01)" is 0101..., "1(10)" is 1 1010...).
  words      digit strings, one digit per letter ("00000").
  elements   generator words ``name['^'exp]('*'name['^'exp])*`` with integer
             exponents, e.g. ``a*b*a^-1``; localized table generators carry a
             vertex suffix (``k2@01``).  Prefix bijections are JSON rule
             pairs ``[["10","01"], ...]``, full-group tables JSON row pairs
             ``[["cylinder", power], ...]``.

Budgets (``--id-budget``, ``--maxlen``, ``--rist-maxlen``, ``--max-states``)
and ``conjugate --depth`` must be at least 1, ``verify --samples`` at least
0; ``orbit --maxlen 0`` means no cap.  ``conjugate --maxlen`` is the exact word-length cap of each stage's
transporter search.  Germ verdicts need no depth bound.

Certificates are written as ``cantorstab/certificate-v2``, which stores
each stage's depth and correction only; ``verify`` also reads
``cantorstab/certificate-v1`` files.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import presets
from .space import Cylinder, DepthSchedule, Word, parse_point
from .engine import (
    DEFAULT_ENUM_MAXLEN,
    DEFAULT_ID_BUDGET,
    GroupFamily,
    classify_point,
    germ_classes,
)
from .conjugator import (
    BuildBudgets,
    ConjugatorBuildError,
    build_conjugator,
    conjugation_suite,
    rist_samples,
    verify_certificate,
)
from .search import (
    EmptyRist,
    SearchBudget,
    cylinder_orbit,
    rist_generators,
    rist_search,
)
from . import serialize

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_PARSE = 2
EXIT_SEARCH = 3
EXIT_BUDGET = 4

DEFAULT_SEARCH_MAXLEN = 10


def int_at_least(low: int):
    """Argument type of an integer of at least ``low``."""
    def parse(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    parse.__name__ = "int"  # argparse names it in "invalid int value: ..."
    return parse


positive_int = int_at_least(1)  # budgets and depths


def load_family(spec: str) -> GroupFamily:
    if spec in presets.PRESETS:
        return presets.load_preset(spec)
    with open(spec) as handle:
        obj = json.load(handle)
    return serialize.family_from_obj(obj)


def emit(args, schema: str, body, text_lines) -> None:
    if args.format == "json":
        payload = serialize.dumps_envelope(schema, body) + "\n"
    else:
        payload = "\n".join(text_lines) + "\n"
    if getattr(args, "out", None):
        serialize.atomic_write(args.out, payload)
    else:
        sys.stdout.write(payload)


def write_certificate(path: str, cert) -> None:
    serialize.atomic_write(
        path,
        serialize.dumps_envelope(serialize.SCHEMA_CERTIFICATE, serialize.certificate_to_obj(cert)) + "\n",
    )


def cmd_classify(args) -> int:
    family = load_family(args.family)
    point = parse_point(args.point, family.alphabet)
    verdict = classify_point(family, point)
    body = {"family": family.name, "point": str(point), "class": verdict.value}
    lines = [f"{point}: {verdict.value.upper()}"]
    if args.germs:
        report = germ_classes(family, point, args.maxlen, args.id_budget)
        body["germs"] = serialize.germs_to_obj(report)
        lines.append(
            f"germ classes (words <= {report.max_word_len}): "
            f"lower bound {report.lower_bound}"
        )
        for cls in report.classes:
            rep = serialize._word_text(cls.representative_word)
            lines.append(f"  class {rep}: {cls.verdict}, members {len(cls.members)}")
    emit(args, serialize.SCHEMA_CLASSIFY, body, lines)
    return EXIT_OK


def cmd_conjugate(args) -> int:
    family = load_family(args.family)
    x = parse_point(args.x, family.alphabet)
    y = parse_point(args.y, family.alphabet)
    schedule = DepthSchedule.unit_steps(args.depth)
    budgets = BuildBudgets(
        transporter=SearchBudget(args.maxlen, args.max_states),
        rist=SearchBudget(args.rist_maxlen, args.max_states),
        id_budget=args.id_budget,
    )
    try:
        cert = build_conjugator(family, x, y, schedule, budgets)
    except ConjugatorBuildError as exc:
        if args.out:
            write_certificate(args.out, exc.partial)
            sys.stderr.write(f"partial certificate written to {args.out}\n")
        sys.stderr.write(f"conjugate failed: {exc}\n")
        return EXIT_SEARCH
    if args.out:
        write_certificate(args.out, cert)
        sys.stdout.write(f"certificate written to {args.out}\n")
    else:
        emit(args, serialize.SCHEMA_CERTIFICATE, serialize.certificate_to_obj(cert),
             [f"certificate {family.name}: {x} -> {y}, stages {len(cert.stages) - 1}"])
    return EXIT_OK


def cmd_verify(args) -> int:
    family = load_family(args.family)
    with open(args.cert) as handle:
        cert = serialize.certificate_from_envelope(json.load(handle), family)
    report = verify_certificate(cert, id_budget=args.id_budget)
    suite = None
    if args.samples > 0:
        samples = rist_samples(family, cert, args.samples)
        suite = conjugation_suite(cert, samples, id_budget=args.id_budget)
    body = serialize.verify_to_obj(report, suite)
    lines = [f"verify {args.cert}: {'PASS' if body['ok'] else 'FAIL'}"]
    for check in report.results:
        if check.status != "PASS":
            lines.append(f"  stage {check.stage} {check.condition}: {check.status} {check.detail}")
    if suite is not None:
        lines.append(f"  conjugation suite: {suite.counts()}")
    emit(args, serialize.SCHEMA_VERIFY, body, lines)
    return EXIT_OK if body["ok"] else EXIT_FAIL


def cmd_orbit(args) -> int:
    family = load_family(args.family)
    seed = Cylinder(Word.from_string(args.seed, family.alphabet))
    budget = SearchBudget(args.maxlen, args.max_states) if args.maxlen else None
    cert = cylinder_orbit(list(family.generators), seed, args.depth, budget)
    body = serialize.orbit_to_obj(cert)
    lines = [
        f"orbit of {seed} at depth {args.depth}: {len(cert.reached)} cylinders reached"
        + (" (truncated)" if cert.truncated else "")
    ]
    emit(args, serialize.SCHEMA_ORBIT, body, lines)
    if cert.truncated and args.strict:
        return EXIT_BUDGET
    return EXIT_OK


def cmd_rist(args) -> int:
    family = load_family(args.family)
    u = Cylinder(Word.from_string(args.cylinder, family.alphabet))
    budget = SearchBudget(args.maxlen)
    if args.oracle:
        try:
            elements = rist_generators(family, u, budget, args.id_budget)
        except EmptyRist:
            elements = []
    else:
        elements = [g for _, g in rist_search(family, u, budget, args.id_budget)]
    body = serialize.rist_to_obj(u, elements)
    lines = [f"rist({u}): {len(elements)} elements"]
    lines.extend(f"  {g!r}" for g in elements[:20])
    emit(args, serialize.SCHEMA_RIST, body, lines)
    return EXIT_OK


def cmd_germs(args) -> int:
    family = load_family(args.family)
    point = parse_point(args.point, family.alphabet)
    report = germ_classes(family, point, args.maxlen, args.id_budget)
    body = serialize.germs_to_obj(report)
    lines = [
        f"germ classes of {point} (words <= {report.max_word_len}): "
        f"lower bound {report.lower_bound}"
    ]
    for cls in report.classes:
        rep = serialize._word_text(cls.representative_word)
        flag = " provisional" if cls.provisional else ""
        lines.append(f"  {rep}: {cls.verdict}, members {len(cls.members)}{flag}")
    emit(args, serialize.SCHEMA_GERMS, body, lines)
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it costs more than a small command."""
    parser = argparse.ArgumentParser(
        prog="cantorstab",
        description="Stabiliser, germ, and conjugator computations on the space of infinite words",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, id_budget=True, max_states=False):
        p.add_argument("--family", required=True,
                       help="preset name (grigorchuk, odometer-full, prefix-v) or JSON family file")
        p.add_argument("--format", choices=("json", "text"), default="text")
        p.add_argument("--out", help="write the report to this path (atomic)")
        if id_budget:
            p.add_argument("--id-budget", type=positive_int, default=DEFAULT_ID_BUDGET)
        if max_states:
            p.add_argument("--max-states", type=positive_int, default=50000)

    p = sub.add_parser("classify", help="regular/singular classification of a point")
    common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--germs", action="store_true", help="attach germ-class evidence")
    p.add_argument("--maxlen", type=positive_int, default=4)
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("conjugate", help="build a conjugator certificate x -> y")
    common(p, max_states=True)
    p.add_argument("--x", required=True)
    p.add_argument("--y", required=True)
    p.add_argument("--depth", type=positive_int, required=True)
    p.add_argument("--maxlen", type=positive_int, default=18,
                   help="exact transporter word-length cap (default %(default)s)")
    p.add_argument("--rist-maxlen", type=positive_int, default=8)
    p.set_defaults(func=cmd_conjugate)

    p = sub.add_parser("verify", help="re-verify a certificate file")
    common(p)
    p.add_argument("--cert", required=True)
    p.add_argument("--samples", type=int_at_least(0), default=0,
                   help="also run the conjugation suite on N rigid-stabiliser samples")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("orbit", help="BFS orbit of a cylinder at a depth")
    common(p, id_budget=False, max_states=True)
    p.add_argument("--strict", action="store_true",
                   help="exit 4 when the orbit search is budget-truncated")
    p.add_argument("--seed", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--maxlen", type=int, default=0,
                   help="cap transporter word length (default: cylinder count)")
    p.set_defaults(func=cmd_orbit)

    p = sub.add_parser("rist", help="rigid-stabiliser elements of a cylinder")
    common(p)
    p.add_argument("--cylinder", required=True)
    p.add_argument("--maxlen", type=positive_int, default=DEFAULT_SEARCH_MAXLEN)
    p.add_argument("--oracle", action="store_true",
                   help="use the family oracle instead of word enumeration")
    p.set_defaults(func=cmd_rist)

    p = sub.add_parser("germs", help="germ classes of a point")
    common(p)
    p.add_argument("--point", required=True)
    p.add_argument("--maxlen", type=positive_int, default=DEFAULT_ENUM_MAXLEN)
    p.set_defaults(func=cmd_germs)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
