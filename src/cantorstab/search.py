"""Finite-depth orbit witnesses, rigid-stabiliser discovery, transporters.

All searches are breadth-first with a fixed expansion order (declared
generator order, direct letter before inverse), so identical inputs and
budgets always produce identical certificates.  Orbit certificates carry a
transporter word per reached cylinder; replaying the word through
``act_letters`` reproduces a word that is the target prefix or extends it
(for families that change prefix depth, the exact image may be deeper or
shallower than the label; a shallower image covers the label entirely).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .space import Cylinder, BoundaryPoint, Word, cylinders_at_depth
from .elements import GroupElement, NoCycleWithinBound, Tri
from .engine import (
    DEFAULT_ID_BUDGET,
    GroupFamily,
    generator_moves,
    in_rigid_stabiliser,
    reduced_generator_words,
)


class EmptyRist(RuntimeError):
    """No rigid-stabiliser elements available; conjugator building cannot proceed."""


class SearchExhausted(RuntimeError):
    """No product within the word-length/state budget reaches the target."""

    def __init__(self, message, explored=0):
        super().__init__(message)
        self.explored = explored


class OracleError(RuntimeError):
    """A rigid-stabiliser oracle returned an element failing the definition."""


@dataclass(frozen=True)
class SearchBudget:
    max_word_len: int = 10
    max_states: int = 50000

    def __post_init__(self):
        if self.max_word_len < 1 or self.max_states < 1:
            raise ValueError("budgets must be >= 1")


@dataclass(frozen=True)
class OrbitCertificate:
    seed: Cylinder
    depth: int
    reached: dict  # depth-d prefix letters -> transporter word ((name, exp), ...)
    generator_names: tuple[str, ...]
    truncated: bool = False


def orbit_budget(alphabet_size: int, depth: int) -> SearchBudget:
    """Default orbit budget: transporter words can be as long as the label
    graph has nodes, so the word cap follows the cylinder count."""
    return SearchBudget(max_word_len=alphabet_size**depth, max_states=50000)


def cylinder_orbit(
    named_generators,
    seed: Cylinder,
    depth: int,
    budget: SearchBudget | None = None,
) -> OrbitCertificate:
    """BFS image cylinders of the seed; record shortest transporter words.

    Nodes are exact image words.  A generator unresolvable on a short node
    forces a refinement step (children inherit the transporter word); a node
    shorter than the target depth marks all its depth-d extensions, since
    its cylinder covers them.
    """
    if depth < seed.depth:
        raise ValueError("depth must be >= seed depth")
    alphabet = seed.alphabet
    if budget is None:
        budget = orbit_budget(alphabet.size, depth)
    moves = []  # (move letter, letter-tuple action, resolution depth)
    for letter_move, g in generator_moves(named_generators):
        alphabet.check(g.alphabet)
        moves.append((letter_move, g.act_letters, g.resolution_depth()))
    reached: dict = {}
    truncated = False

    def mark(node, word):
        if len(node) >= depth:
            reached.setdefault(node[:depth], word)
        else:
            suffixes = [()]
            for _ in range(depth - len(node)):
                suffixes = [s + (a,) for s in suffixes for a in alphabet.letters()]
            for s in suffixes:
                reached.setdefault(node + s, word)

    start = seed.prefix.letters
    visited = {start}
    queue = deque([(start, ())])
    mark(start, ())
    while queue:
        node, word = queue.popleft()
        if len(word) >= budget.max_word_len:
            truncated = True
            continue
        unresolved = False
        for letter_move, act, resolution_depth in moves:
            if len(node) < resolution_depth:
                unresolved = True
                continue
            image = act(node)
            if image not in visited:
                if len(visited) >= budget.max_states:
                    truncated = True
                    break
                visited.add(image)
                new_word = word + (letter_move,)
                mark(image, new_word)
                queue.append((image, new_word))
        if unresolved:
            for a in alphabet.letters():
                child = node + (a,)
                if child not in visited:
                    if len(visited) >= budget.max_states:
                        truncated = True
                        break
                    visited.add(child)
                    mark(child, word)
                    queue.append((child, word))
    return OrbitCertificate(
        seed=seed,
        depth=depth,
        reached=reached,
        generator_names=tuple(name for name, _ in named_generators),
        truncated=truncated,
    )


@dataclass(frozen=True)
class MinimalityWitness:
    depth: int
    ok: bool
    truncated: bool
    certificates: dict  # seed prefix letters -> OrbitCertificate

    def label(self) -> str:
        return f"witness at depth {self.depth}"


def minimality_witness(
    named_generators, depth: int, budget: SearchBudget | None = None
) -> MinimalityWitness:
    """True iff every depth-d cylinder reaches every depth-d cylinder.

    A finite surrogate: necessary at this depth for minimality of the
    action, never sufficient for the infinite statement.
    """
    if not named_generators:
        raise ValueError("need at least one generator")
    whole = Cylinder(Word((), named_generators[0][1].alphabet))
    return _orbit_witness(named_generators, whole, depth, budget)


def _orbit_witness(named_generators, u: Cylinder, depth: int, budget) -> MinimalityWitness:
    """Whether every depth-d sub-cylinder of u reaches every other one."""
    alphabet = u.alphabet
    seeds = [
        Cylinder(Word(u.prefix.letters + c.prefix.letters, alphabet))
        for c in cylinders_at_depth(alphabet, depth - u.depth)
    ]
    targets = {c.prefix.letters for c in seeds}
    certificates = {}
    ok = True
    truncated = False
    for seed in seeds:
        cert = cylinder_orbit(named_generators, seed, depth, budget)
        certificates[seed.prefix.letters] = cert
        ok = ok and targets <= cert.reached.keys()
        truncated = truncated or cert.truncated
    return MinimalityWitness(depth=depth, ok=ok, truncated=truncated, certificates=certificates)


def rist_search(
    family: GroupFamily,
    u: Cylinder,
    budget: SearchBudget = SearchBudget(max_word_len=8),
    id_budget: int = DEFAULT_ID_BUDGET,
):
    """Enumerate reduced generator words lying in rist(u), definitional test.

    Returns ``(word, element)`` pairs with in_rigid_stabiliser = YES and
    is_identity = NO.
    """
    found = []
    for word, elem in reduced_generator_words(family, budget.max_word_len):
        if not word:
            continue
        if elem.is_identity(id_budget) is not Tri.NO:
            continue
        if in_rigid_stabiliser(elem, u, id_budget) is Tri.YES:
            found.append((word, elem))
    return found


def rist_generators(
    family: GroupFamily,
    u: Cylinder,
    budget: SearchBudget = SearchBudget(max_word_len=8),
    id_budget: int = DEFAULT_ID_BUDGET,
):
    """Rigid-stabiliser generators for u: oracle first, then enumeration.

    Oracle output is never trusted: each element is re-checked against the
    definition before being returned.
    """
    if family.rist_oracle is not None:
        elems = list(family.rist_oracle(u))
        if elems:
            for g in elems:
                verdict = in_rigid_stabiliser(g, u, id_budget)
                if verdict is not Tri.YES:
                    raise OracleError(
                        f"{family.name} oracle returned {g!r} with rist verdict {verdict.value} on {u}"
                    )
            return elems
    found = [elem for _, elem in rist_search(family, u, budget, id_budget)]
    if not found:
        raise EmptyRist(
            f"no rigid-stabiliser elements found for {u} in {family.name} "
            f"(word length <= {budget.max_word_len})"
        )
    return found


def transporter(
    rist_gens,
    current: BoundaryPoint,
    target_prefix: Word,
    budget: SearchBudget = SearchBudget(),
    identity: GroupElement | None = None,
) -> GroupElement:
    """Shortest product of the given elements moving ``current`` into the
    target cylinder; BFS over exact point images."""
    n = len(target_prefix)
    if current.prefix(n) == target_prefix:
        if identity is not None:
            return identity
        if rist_gens:
            return rist_gens[0].identity_like()
        raise SearchExhausted("no generators and no identity prototype")
    if not rist_gens:
        raise SearchExhausted("no generators to search over")
    moves = generator_moves([(f"r{i}", g) for i, g in enumerate(rist_gens)])
    visited = {current}
    queue = deque([(current, identity or rist_gens[0].identity_like(), 0)])
    while queue:
        point, elem, length = queue.popleft()
        if length >= budget.max_word_len:
            continue
        for _, g in moves:
            try:
                image = g.act_point(point)
            except NoCycleWithinBound:
                continue
            if image in visited:
                continue
            candidate = g.compose(elem)
            if image.prefix(n) == target_prefix:
                return candidate
            if len(visited) >= budget.max_states:
                raise SearchExhausted(
                    f"state budget {budget.max_states} exhausted", explored=len(visited)
                )
            visited.add(image)
            queue.append((image, candidate, length + 1))
    raise SearchExhausted(
        f"no product of length <= {budget.max_word_len} reaches [{target_prefix}]",
        explored=len(visited),
    )


def local_minimality_witness(
    family: GroupFamily,
    u: Cylinder,
    depth: int,
    budget: SearchBudget | None = None,
    id_budget: int = DEFAULT_ID_BUDGET,
) -> MinimalityWitness:
    """Minimality witness restricted to sub-cylinders of u, generated by
    rist_generators(family, u)."""
    if depth < u.depth:
        raise ValueError("depth must be >= cylinder depth")
    gens = rist_generators(family, u, id_budget=id_budget)
    return _orbit_witness([(f"r{i}", g) for i, g in enumerate(gens)], u, depth, budget)
