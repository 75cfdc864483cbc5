"""Built-in group families.

``grigorchuk``
    The four-generator self-similar group on the binary tree, with its
    classical wreath recursion.  The preset also carries the branching
    subgroup ``K = <k1, k2, k3>`` (k1 = (a b)^2, and k2, k3 its one-level
    copies), whose defining recursion

        k1 = (ca, ac)    k2 = (k1, 1)    k3 = (1, k1)

    closes inside the table.  Copies of K acting below a vertex v supply
    rigid-stabiliser generators for the cylinder [v]; orbits of such copies
    are confined one level below v, hence ``transporter_margin = 1``.

``odometer_full``
    The topological full group of the binary odometer.  Elements are
    piecewise odometer powers; rigid-stabiliser generators come from the
    first-return map to a cylinder (the return time to a depth-d cylinder
    is uniformly 2^d).

``prefix_v``
    A prefix-exchange family acting by complete-prefix-code substitutions,
    with sibling-cylinder swaps as rigid-stabiliser generators.
"""

from __future__ import annotations

from .space import Alphabet, BoundaryPoint, Cylinder, Word, complement
from .elements import (
    FullGroupTable,
    PrefixBijection,
    TreeAutomorphism,
    WreathTable,
)
from .engine import GroupFamily, PointClass

GRIGORCHUK_TABLE = WreathTable(
    Alphabet(2),
    {
        "a": ((1, 0), (None, None)),
        "b": ((0, 1), ("a", "c")),
        "c": ((0, 1), ("a", "d")),
        "d": ((0, 1), (None, "b")),
        # ca = c after a, ac = a after c; sections of k1
        "ca": ((1, 0), ("d", "a")),
        "ac": ((1, 0), ("a", "d")),
        "k1": ((0, 1), ("ca", "ac")),
        "k2": ((0, 1), ("k1", None)),
        "k3": ((0, 1), (None, "k1")),
    },
)


def _grigorchuk_rist(u: Cylinder):
    path = str(u.prefix)
    if not path:
        return [TreeAutomorphism.generator(GRIGORCHUK_TABLE, n) for n in "abcd"]
    return [
        TreeAutomorphism.generator(GRIGORCHUK_TABLE, f"{name}@{path}")
        for name in ("k1", "k2", "k3")
    ]


def _grigorchuk_classifier(x: BoundaryPoint) -> PointClass:
    # singular points are exactly those with all but finitely many letters 1
    if x.period == (1,):
        return PointClass.SINGULAR
    return PointClass.REGULAR


def grigorchuk() -> GroupFamily:
    return GroupFamily(
        name="grigorchuk",
        alphabet=Alphabet(2),
        generators=tuple(
            (n, TreeAutomorphism.generator(GRIGORCHUK_TABLE, n)) for n in "abcd"
        ),
        rist_oracle=_grigorchuk_rist,
        classifier=_grigorchuk_classifier,
        transporter_margin=1,
    )


def _odometer_rist(u: Cylinder):
    rows = [(u.prefix.letters, 1 << u.depth)] + [(c, 0) for c in complement(u)]
    return [FullGroupTable(rows)]


def odometer_full() -> GroupFamily:
    return GroupFamily(
        name="odometer-full",
        alphabet=Alphabet(2),
        generators=(("t", FullGroupTable.odometer()),),
        rist_oracle=_odometer_rist,
        classifier=lambda x: PointClass.REGULAR,
        transporter_margin=0,
    )


def sibling_swap(prefix: Word) -> PrefixBijection:
    """Swap the two child cylinders below ``prefix``, identity elsewhere."""
    p = prefix.letters
    rules = [(p + (0,), p + (1,)), (p + (1,), p + (0,))]
    rules.extend((c, c) for c in complement(Cylinder(prefix)))
    return PrefixBijection(rules, prefix.alphabet)


PREFIX_V_RIST_RELATIVE_DEPTH = 4


def _prefix_v_rist(u: Cylinder):
    out = []
    stems = [u.prefix.letters]
    for _ in range(PREFIX_V_RIST_RELATIVE_DEPTH):
        out.extend(sibling_swap(Word(s, u.alphabet)) for s in stems)
        stems = [s + (a,) for s in stems for a in u.alphabet.letters()]
    return out


def _prefix_rules(pairs, alphabet: Alphabet) -> PrefixBijection:
    """A prefix bijection from digit-string rules ``(u, v)``."""
    return PrefixBijection(
        [tuple(Word.from_string(w, alphabet).letters for w in pair) for pair in pairs], alphabet
    )


def prefix_v() -> GroupFamily:
    alphabet = Alphabet(2)
    swap = _prefix_rules([("0", "1"), ("1", "0")], alphabet)
    shift = _prefix_rules([("0", "00"), ("10", "01"), ("11", "1")], alphabet)
    local = _prefix_rules([("0", "0"), ("10", "11"), ("11", "10")], alphabet)
    return GroupFamily(
        name="prefix-v",
        alphabet=alphabet,
        generators=(("s", swap), ("p", shift), ("w", local)),
        rist_oracle=_prefix_v_rist,
        classifier=None,
        transporter_margin=0,
    )


PRESETS = {
    "grigorchuk": grigorchuk,
    "odometer-full": odometer_full,
    "prefix-v": prefix_v,
}


def load_preset(name: str) -> GroupFamily:
    try:
        return PRESETS[name]()
    except KeyError:
        raise KeyError(
            f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}"
        ) from None
