"""Stabiliser, neighbourhood-stabiliser, and germ computations.

For a point ``x`` and a group family, this module decides membership in the
stabiliser, in rigid stabilisers of cylinders, and in the neighbourhood
stabiliser (elements fixing a whole cylinder around ``x`` pointwise), and
enumerates germ classes of the stabiliser modulo the neighbourhood
stabiliser.  Everything is three-valued: budgets exhaust to UNKNOWN, never
to a guess, and raising a budget can only turn UNKNOWN into YES or NO.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .space import Alphabet, BoundaryPoint, Cylinder, complement
from .elements import (
    GroupElement,
    NoCycleWithinBound,
    Tri,
    UnresolvedWord,
    _run_to_cycle,
    tri_all,
)

DEFAULT_ID_BUDGET = 512
DEFAULT_ENUM_MAXLEN = 8
INVOLUTION_BUDGET = 64


class PointClass(Enum):
    REGULAR = "regular"
    SINGULAR = "singular"
    NO_RULE = "no_rule"


@dataclass(frozen=True)
class GroupFamily:
    """A named group given by generators, with optional preset knowledge.

    ``rist_oracle(cylinder)`` may return generators of a subgroup of the
    rigid stabiliser (every returned element is re-checked against the
    definition before use).  ``classifier`` is a proven regular/singular
    rule.  ``transporter_margin`` is how many levels deeper than the stage
    depth the conjugator builder must aim: rigid-stabiliser orbits of some
    families (branch-type) are confined one level below their cylinder, so
    aiming exactly at the stage depth can strand the next stage in an
    unreachable half.
    """

    name: str
    alphabet: Alphabet
    generators: tuple[tuple[str, GroupElement], ...]
    rist_oracle: object = None
    classifier: object = None
    transporter_margin: int = 0
    _caches: dict = field(default_factory=dict, compare=False, repr=False)

    @property
    def identity(self) -> GroupElement:
        return self.generators[0][1].identity_like()

    def generator(self, name: str) -> GroupElement:
        for n, g in self.generators:
            if n == name:
                return g
        raise KeyError(name)

    def moves(self) -> tuple:
        """``generator_moves`` of the family's own generators, cached."""
        if "moves" not in self._caches:
            self._caches["moves"] = generator_moves(self.generators)
        return self._caches["moves"]


def generator_moves(named_generators) -> tuple:
    """Expansion letters ``((name, exp), element)`` in declared order: each
    generator, then its inverse unless the identity oracle confirms the
    generator involutive.  An involution left unconfirmed only keeps a
    redundant inverse letter."""
    moves = []
    for name, g in named_generators:
        moves.append(((name, 1), g))
        if g.compose(g).is_identity(INVOLUTION_BUDGET) is not Tri.YES:
            moves.append(((name, -1), g.inverse()))
    return tuple(moves)


def stabilises(g: GroupElement, x: BoundaryPoint) -> Tri:
    """YES iff g fixes the point exactly; UNKNOWN on image-budget exhaustion."""
    try:
        return Tri.YES if g.act_point(x) == x else Tri.NO
    except NoCycleWithinBound:
        return Tri.UNKNOWN


def fixes_cylinder_pointwise(g: GroupElement, prefix: tuple, budget: int = DEFAULT_ID_BUDGET) -> Tri:
    """YES iff g maps the cylinder of ``prefix`` (a letter tuple) to itself
    and acts trivially beyond it.

    Where the prefix resolves no rule of g, the check refines to
    sub-cylinders; every sub-cylinder of one rule shares that rule's verdict.
    """
    try:
        image = g.act_letters(prefix)
    except UnresolvedWord:
        return tri_all(fixes_cylinder_pointwise(g, prefix + (a,), budget) for a in g.alphabet.letters())
    if image != prefix:
        return Tri.NO
    return g.section(prefix).is_identity(budget)


def in_rigid_stabiliser(g: GroupElement, u: Cylinder, budget: int = DEFAULT_ID_BUDGET) -> Tri:
    """YES iff g fixes the complement of u pointwise, sibling by sibling."""
    g.alphabet.check(u.alphabet)
    return tri_all(fixes_cylinder_pointwise(g, c, budget) for c in complement(u))


class GermKind(Enum):
    TRIVIAL = "trivial"
    NONTRIVIAL = "nontrivial"
    NOT_IN_STABILISER = "not_in_stabiliser"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class GermVerdict:
    """``depth`` is the least witness depth of a TRIVIAL verdict."""

    kind: GermKind
    depth: int | None = None

    def __str__(self):
        if self.depth is None:
            return self.kind.value
        return f"{self.kind.value}({self.depth})"


def in_neighbourhood_stabiliser(
    g: GroupElement, x: BoundaryPoint, budget: int = DEFAULT_ID_BUDGET
) -> GermVerdict:
    """Least-depth witness that g fixes a cylinder around x pointwise.

    Below g's resolution depth r each depth is tested on its own.  From
    depth n = max(r, 1) on, g (which fixes x) fixes the depth-n cylinder
    pointwise iff it fixes x_1..x_n and its section there is the identity,
    so one walk along x visits these sections until (section, phase of x)
    repeats.  The walk closes in every family: sections of a tree
    automorphism are reduced words no longer than g, those of a prefix
    bijection are the identity, and those of a table are odometer powers
    whose carry stays bounded.  TRIVIAL(n) carries the least depth,
    NONTRIVIAL means no depth at all works, and UNKNOWN means a budget ran
    out.
    """
    st = stabilises(g, x)
    if st is Tri.NO:
        return GermVerdict(GermKind.NOT_IN_STABILISER)
    if st is Tri.UNKNOWN:
        return GermVerdict(GermKind.UNKNOWN)
    return _germ_walk(g, x, budget)


def _germ_walk(g: GroupElement, x: BoundaryPoint, budget: int) -> GermVerdict:
    """``in_neighbourhood_stabiliser`` for a g known to fix x."""
    start = max(g.resolution_depth(), 1)
    verdicts = []  # verdicts[n - 1] is the verdict at depth n
    for n in range(1, start):
        verdicts.append(fixes_cylinder_pointwise(g, x.prefix(n).letters, budget))
        if verdicts[-1] is Tri.YES:
            return GermVerdict(GermKind.TRIVIAL, n)
    prefix = x.prefix(start).letters
    # only a prefix rule u -> v with u != v fails here, and then at every depth
    if g.act_letters(prefix) == prefix:
        checked: dict = {}  # one identity test per distinct section

        def step(section, letter):
            if section not in checked:
                checked[section] = section.is_identity(budget)
            return checked[section], section.section((letter,))

        try:
            verdicts += _run_to_cycle(step, g.section(prefix), x, start)[0]
        except NoCycleWithinBound:
            verdicts.append(Tri.UNKNOWN)
    if Tri.YES in verdicts:
        return GermVerdict(GermKind.TRIVIAL, verdicts.index(Tri.YES) + 1)
    return GermVerdict(GermKind.UNKNOWN if Tri.UNKNOWN in verdicts else GermKind.NONTRIVIAL)


def reduced_generator_words(family: GroupFamily, max_len: int):
    """Shortlex stream of reduced words over the family's generators.

    Yields ``(word, element)`` with words over the family's ``moves``;
    free cancellations, and squares of involutions, are skipped.
    """
    letters = family.moves()
    inverted = {name for (name, exp), _ in letters if exp < 0}

    def cancels(last, nxt):
        return last[0] == nxt[0] and (last[0] not in inverted or last[1] == -nxt[1])

    frontier = [((), family.identity)]
    yield (), family.identity
    for _ in range(max_len):
        nxt_frontier = []
        for word, elem in frontier:
            for letter, gen in letters:
                if word and cancels(word[-1], letter):
                    continue
                new_word = word + (letter,)
                new_elem = elem.compose(gen)
                nxt_frontier.append((new_word, new_elem))
                yield new_word, new_elem
        frontier = nxt_frontier


@dataclass(frozen=True)
class GermClass:
    representative_word: tuple
    representative: GroupElement
    verdict: GermVerdict
    members: tuple
    provisional: bool


@dataclass(frozen=True)
class GermReport:
    point: BoundaryPoint
    classes: tuple[GermClass, ...]
    lower_bound: int
    max_word_len: int
    separations: tuple  # ((i, j, verdict), ...) for class pairs


def germ_classes(
    family: GroupFamily,
    x: BoundaryPoint,
    max_word_len: int = DEFAULT_ENUM_MAXLEN,
    budget: int = DEFAULT_ID_BUDGET,
) -> GermReport:
    """Partition enumerated stabiliser words by triviality of quotients.

    Words g, h fall in one class when ``g h^-1`` fixes a cylinder around x
    pointwise.  The class count is a lower bound for the germ group order:
    classes separated only by UNKNOWN verdicts are flagged provisional, and
    every other separation is an exact NONTRIVIAL verdict.
    """
    reps: list[list] = []  # [rep_word, rep_elem, members]
    separations: dict = {}
    for word, elem in reduced_generator_words(family, max_word_len):
        if stabilises(elem, x) is not Tri.YES:
            continue
        placed = False
        quotient_verdicts = []
        for rep in reps:
            # both words fix x, so their quotient does
            verdict = _germ_walk(elem.compose(rep[1].inverse()), x, budget)
            if verdict.kind is GermKind.TRIVIAL:
                rep[2].append(word)
                placed = True
                break
            quotient_verdicts.append(verdict)
        if not placed:
            new_idx = len(reps)
            for idx, verdict in enumerate(quotient_verdicts):
                separations[(idx, new_idx)] = verdict
            reps.append([word, elem, [word]])
    classes = []
    for idx, (word, elem, members) in enumerate(reps):
        own = _germ_walk(elem, x, budget)
        provisional = any(
            v.kind is GermKind.UNKNOWN
            for (i, j), v in separations.items()
            if idx in (i, j)
        )
        classes.append(GermClass(word, elem, own, tuple(members), provisional))
    return GermReport(
        point=x,
        classes=tuple(classes),
        lower_bound=len(classes),
        max_word_len=max_word_len,
        separations=tuple(sorted((i, j, v) for (i, j), v in separations.items())),
    )


def classify_point(family: GroupFamily, x: BoundaryPoint) -> PointClass:
    if family.classifier is None:
        return PointClass.NO_RULE
    return family.classifier(x)
