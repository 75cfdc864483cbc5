"""Seeded op lists for the three benchmark workloads.

An op is one user task: a list of ``cantorstab`` argv lists run back to back
plus the facts its known-answer check needs.  Ops come in decks with a fixed
composition (families, depths, word lengths); the seed picks the points,
cylinders and order inside each deck.  A fixed composition keeps the cost of
a deck nearly independent of the seed, so runs on different seeds measure
the same amount of work.

The program only ever sees the generated argv.  File arguments are relative
(``cert.json``), so the op list does not depend on where a run happens.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("certify", "germs", "search")

# Grigorchuk singular points u(1) with |u| <= 2, as typed by a user.
SINGULAR_STEMS = ("", "0", "1", "00", "01", "10", "11")


def canonical_point(pre: str, per: str) -> str:
    """``u(v)`` text in the program's canonical form: primitive period,
    shortest preperiod (the known answers compare against this)."""
    n = len(per)
    for p in range(1, n + 1):
        if n % p == 0 and per[:p] * (n // p) == per:
            per = per[:p]
            break
    while pre and pre[-1] == per[-1]:
        pre, per = pre[:-1], per[-1] + per[:-1]
    return f"{pre}({per})"


def _digits(rng: random.Random, n: int) -> str:
    return "".join(rng.choice("01") for _ in range(n))


def regular_point(rng: random.Random) -> str:
    """Preperiod of length <= 3, period of length 1-3 that is not all 1s."""
    pre = _digits(rng, rng.randint(0, 3))
    while True:
        per = _digits(rng, rng.randint(1, 3))
        if set(per) != {"1"}:
            return canonical_point(pre, per)


def eventually_equal(x: str, y: str) -> bool:
    """Whether two ``u(v)`` points differ in finitely many letters only."""
    (px, vx), (py, vy) = (p[:-1].split("(") for p in (x, y))
    start = max(len(px), len(py))
    span = len(vx) * len(vy)

    def letters(pre, per):
        return [(pre + per * (start + span))[i] for i in range(start, start + span)]

    return letters(px, vx) == letters(py, vy)


def _certify_deck(rng: random.Random) -> list[dict]:
    # prefix-v runs at depths 6 and 8, not 7: its cost swings widely from
    # pair to pair, and at depth 7 it sits on the median rank of the deck.
    specs = (
        [("grigorchuk", d) for d in (9, 10, 11, 12)] * 4
        + [("prefix-v", d) for d in (6, 8)] * 3
        + [("odometer-full", d) for d in (4, 5, 6)]
    )
    ops = []
    for family, depth in specs:
        # Pairs that differ in finitely many letters need only a stage or
        # two of work; as a cheap second mode, how many of them a seed draws
        # would move the run's percentiles.  They are left out.
        x = regular_point(rng)
        y = regular_point(rng)
        while eventually_equal(x, y):
            y = regular_point(rng)
        ops.append({
            "kind": "certify", "family": family, "depth": depth, "x": x, "y": y,
            "argvs": [
                ["conjugate", "--family", family, "--x", x, "--y", y,
                 "--depth", str(depth), "--out", "cert.json"],
                ["verify", "--family", family, "--cert", "cert.json",
                 "--samples", "8", "--format", "json"],
            ],
        })
    return ops


def _germs_op(family: str, point: str, maxlen: int) -> dict:
    return {
        "kind": "germs", "family": family, "point": point, "maxlen": maxlen,
        "argvs": [["germs", "--family", family, "--point", point,
                   "--maxlen", str(maxlen), "--format", "json"]],
    }


def _germs_deck(rng: random.Random) -> list[dict]:
    # Forty ops, so that the 90th percentile falls inside the 0(1) group
    # (ranks 4-5 from the top) and the median inside the cheap regular
    # group, not on the edge between two groups of very different cost.
    ops = [_germs_op("grigorchuk", f"{u}(1)", 6) for u in SINGULAR_STEMS]
    ops += [_germs_op("grigorchuk", regular_point(rng), 6) for _ in range(5)]
    ops += [_germs_op("odometer-full", regular_point(rng), 6) for _ in range(14)]
    ops += [_germs_op("prefix-v", regular_point(rng), 5) for _ in range(14)]
    return ops


def _rist_op(family: str, cylinder: str, maxlen: int) -> dict:
    return {
        "kind": "rist", "family": family, "cylinder": cylinder, "maxlen": maxlen,
        "argvs": [["rist", "--family", family, "--cylinder", cylinder,
                   "--maxlen", str(maxlen), "--format", "json"]],
    }


def _orbit_op(family: str, seed: str, depth: int) -> dict:
    return {
        "kind": "orbit", "family": family, "seed": seed, "depth": depth,
        "argvs": [["orbit", "--family", family, "--seed", seed,
                   "--depth", str(depth), "--format", "json"]],
    }


def _search_deck(rng: random.Random) -> list[dict]:
    ops = []
    for family, maxlens in (("grigorchuk", (7, 8)), ("prefix-v", (5, 6))):
        for depth in (1, 2):
            for maxlen in maxlens:
                ops.append(_rist_op(family, _digits(rng, depth), maxlen))
    for family, depths in (
        ("prefix-v", (6, 7, 8)),
        ("grigorchuk", (10, 11, 12)),
        ("odometer-full", (10, 11, 12)),
    ):
        for depth in depths:
            ops.append(_orbit_op(family, _digits(rng, rng.randint(1, 3)), depth))
    return ops


DECKS = {"certify": _certify_deck, "germs": _germs_deck, "search": _search_deck}


def deck(workload: str, seed: int, index: int) -> list[dict]:
    """The index-th deck of a workload: fixed composition, seeded content
    and order."""
    rng = random.Random(f"{workload}:{seed}:{index}")
    ops = DECKS[workload](rng)
    rng.shuffle(ops)
    return ops


def generate(workload: str, seed: int, decks: int) -> list[dict]:
    """The first ``decks`` decks of the workload's op stream."""
    if workload not in DECKS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return [op for i in range(decks) for op in deck(workload, seed, i)]


def digest(obj) -> str:
    """sha256 of the canonical JSON of ``obj`` (sorted keys, compact)."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
