"""The three computable families of homeomorphisms of the word space.

* ``TreeAutomorphism`` — unevaluated words over the named generators of a
  ``WreathTable`` (root permutation + one section name per letter).  Sections
  of a word never get longer than the word itself, so section closures are
  finite and identity testing has an honest budgeted oracle.
* ``PrefixBijection`` — bijections given by a finite complete-prefix-code
  rule set ``u_j -> v_j`` (exchange the prefix, keep the tail).
* ``FullGroupTable`` — piecewise powers of the binary odometer (add one with
  carry), given by rows ``(cylinder, power)`` whose cylinders partition the
  space.

All values are immutable; composition/inversion stay inside one family.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import Protocol

from .space import (
    BINARY,
    Alphabet,
    BoundaryPoint,
    Word,
)


class Tri(Enum):
    """Three-valued verdict; UNKNOWN means a budget ran out, never a guess."""

    YES = "yes"
    NO = "no"
    UNKNOWN = "unknown"


def tri_all(verdicts) -> Tri:
    """Three-valued conjunction: NO dominates, then UNKNOWN."""
    result = Tri.YES
    for v in verdicts:
        if v is Tri.NO:
            return Tri.NO
        if v is Tri.UNKNOWN:
            result = Tri.UNKNOWN
    return result


class FamilyMismatch(TypeError):
    """Composition/inversion across distinct element families."""


class UnresolvedWord(ValueError):
    """Word shorter than the element's resolution depth."""


class NoCycleWithinBound(RuntimeError):
    """Point-image recursion did not close within the state budget."""


class IncompleteCode(ValueError):
    """Prefix code does not cover the whole space."""


class OverlappingCode(ValueError):
    """Prefix code has one word extending another."""


class NotBijective(ValueError):
    """Rule images do not partition the space."""


ACT_POINT_STATE_BUDGET = 4096
# The wreath caches are emptied at this many section words: memory stays
# bounded in a long-lived process, yet one germs command at word length 6,
# or one conjugate and verify at depth 12, computes fewer sections than this.
SECTION_CACHE_LIMIT = 4096

GENERATOR_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*(?:@[0-9]+)?")


# ---------------------------------------------------------------------------
# wreath tables and tree automorphisms


class WreathTable:
    """Named self-similar generators: root permutation + section per letter.

    ``entries`` maps a name to ``(perm, sections)`` where ``perm`` is a tuple
    permutation of the alphabet and ``sections`` is a tuple of generator
    names or ``None`` (identity), one per letter.  Generators listed in
    ``involutive`` rewrite ``x x -> 1`` and ``x^-1 -> x``; the declarations
    are rewriting hints and must be confirmed by the identity oracle.

    Localized names ``"g@v"`` (``v`` a digit word) resolve structurally to
    the automorphism acting as ``g`` on the subtree below ``v`` and
    trivially elsewhere.

    Two caches memoize pure functions: ``state`` per word, and the resolved
    root permutation and sections per factor ``(name, exp)``.  Shared
    concurrent use cannot change observable results; each cache is emptied
    whenever it holds ``SECTION_CACHE_LIMIT`` section words.
    """

    def __init__(self, alphabet: Alphabet, entries: dict, involutive=()):
        self.alphabet = alphabet
        self.entries = dict(entries)
        self.involutive = frozenset(involutive)
        identity = tuple(range(alphabet.size))
        self._identity_perm = identity
        # each cached state or factor holds one section word per letter
        self._cache_limit = SECTION_CACHE_LIMIT // alphabet.size
        self._factors: dict = {}
        self._states: dict = {}
        for name, (perm, sections) in self.entries.items():
            if not GENERATOR_NAME_RE.fullmatch(name) or "@" in name:
                raise ValueError(f"bad generator name {name!r}")
            if sorted(perm) != list(identity):
                raise ValueError(f"{name}: root action {perm} is not a permutation")
            if len(sections) != alphabet.size:
                raise ValueError(f"{name}: expected {alphabet.size} sections")
            for s in sections:
                if s is not None:
                    try:
                        self.resolve(s)
                    except KeyError:
                        raise ValueError(f"{name}: unknown section {s!r}") from None
        for name in self.involutive:
            if name not in self.entries:
                raise ValueError(f"involutive name {name!r} not in table")

    def resolve(self, name: str) -> tuple[tuple[int, ...], tuple]:
        """Permutation and section names of a (possibly localized) generator."""
        if name in self.entries:
            return self.entries[name]
        base, _, path = name.partition("@")
        if not path:
            raise KeyError(name)
        if base not in self.entries:
            raise KeyError(f"unknown generator {base!r} in {name!r}")
        if int(max(path)) >= self.alphabet.size:
            raise ValueError(f"path of {name!r} leaves the alphabet of size {self.alphabet.size}")
        letter = int(path[0])
        child = base if len(path) == 1 else f"{base}@{path[1:]}"
        sections = tuple(child if a == letter else None for a in self.alphabet.letters())
        return self._identity_perm, sections

    def _factor(self, name: str, exp: int) -> tuple:
        """Root permutation of ``name^exp`` and its section at each letter as
        a reduced word of at most one letter, resolved once per factor."""
        cached = self._factors.get((name, exp))
        if cached is None:
            perm, names = self.resolve(name)
            if exp != 1:
                inv = [0] * len(perm)
                for i, p in enumerate(perm):
                    inv[p] = i
                perm = tuple(inv)
                # (g^-1)|_x = (g|_{g^-1 x})^-1
                names = tuple(names[p] for p in perm)
            cached = perm, tuple(
                () if s is None else ((s, 1 if s in self.involutive else exp),) for s in names
            )
            if len(self._factors) >= self._cache_limit:
                self._factors.clear()
            self._factors[name, exp] = cached
        return cached

    def state(self, word) -> tuple:
        """Root permutation of the element ``word`` and the reduced word of
        its section at each letter, computed in one pass over the factors."""
        cached = self._states.get(word)
        if cached is None:
            at = list(self._identity_perm)  # letter reaching each factor, per input letter
            parts: list = [[] for _ in at]  # factor sections, rightmost factor first
            for name, exp in reversed(word):
                perm, sections = self._factor(name, exp)
                for x, a in enumerate(at):
                    parts[x] += sections[a]
                    at[x] = perm[a]
            cached = tuple(at), tuple(self.reduce(part[::-1]) for part in parts)
            if len(self._states) >= self._cache_limit:
                self._states.clear()
            self._states[word] = cached
        return cached

    def reduce(self, word) -> tuple:
        """Free reduction plus involution rewriting of a generator word."""
        out: list = []
        for name, exp in word:
            if name in self.involutive:
                exp = 1
            if out and out[-1][0] == name and (
                name in self.involutive or out[-1][1] == -exp
            ):
                out.pop()
            else:
                out.append((name, exp))
        return tuple(out)


class GroupElement(Protocol):
    """Common contract: act on finite words (letter tuples) and points,
    compose, invert, take sections.  Letter tuples come from checked points
    and cylinders; the alphabet is checked where those enter."""

    alphabet: Alphabet

    def act_letters(self, letters: tuple) -> tuple: ...

    def act_point(self, x: BoundaryPoint) -> BoundaryPoint: ...

    def section(self, letters: tuple) -> "GroupElement": ...

    def compose(self, other: "GroupElement") -> "GroupElement": ...

    def inverse(self) -> "GroupElement": ...

    def is_identity(self, budget: int = 512) -> Tri: ...

    def resolution_depth(self) -> int: ...

    def identity_like(self) -> "GroupElement": ...


class TreeAutomorphism:
    """Reduced word over a wreath table; depth-preserving on finite words."""

    __slots__ = ("table", "word", "alphabet")

    def __init__(self, table: WreathTable, word=()):
        self.table = table
        self.word = table.reduce(word)
        self.alphabet = table.alphabet

    @classmethod
    def generator(cls, table: WreathTable, name: str, exp: int = 1) -> "TreeAutomorphism":
        table.resolve(name)
        return cls(table, ((name, exp),))

    @classmethod
    def identity(cls, table: WreathTable) -> "TreeAutomorphism":
        return cls(table, ())

    def __eq__(self, other):
        return (
            isinstance(other, TreeAutomorphism)
            and self.table is other.table
            and self.word == other.word
        )

    def __hash__(self):
        return hash((id(self.table), self.word))

    def __repr__(self):
        return f"TreeAutomorphism({format_generator_word(self.word) or '1'})"

    def _check_family(self, other):
        if not isinstance(other, TreeAutomorphism) or other.table is not self.table:
            raise FamilyMismatch("tree automorphisms must share a wreath table")

    def act_letters(self, letters) -> tuple:
        state = self.table.state
        out = []
        word = self.word
        for letter in letters:
            perm, sections = state(word)
            out.append(perm[letter])
            word = sections[letter]
        return tuple(out)

    def act_point(self, x: BoundaryPoint) -> BoundaryPoint:
        self.alphabet.check(x.alphabet)
        state = self.table.state

        def step(word, a):
            perm, sections = state(word)
            return perm[a], sections[a]

        return _transduce(step, self.word, x)

    def section(self, letters) -> "TreeAutomorphism":
        word = self.word
        for letter in letters:
            word = self.table.state(word)[1][letter]
        return TreeAutomorphism(self.table, word)

    def compose(self, other) -> "TreeAutomorphism":
        self._check_family(other)
        return TreeAutomorphism(self.table, self.word + other.word)

    def inverse(self) -> "TreeAutomorphism":
        return TreeAutomorphism(
            self.table, tuple((n, -e) for n, e in reversed(self.word))
        )

    def is_identity(self, budget: int = 512) -> Tri:
        """Budgeted coinductive check: the section closure of the element
        must stay within ``budget`` distinct reduced words, all with trivial
        root action."""
        seen = {self.word}
        stack = [self.word]
        while stack:
            perm, sections = self.table.state(stack.pop())
            if perm != self.table._identity_perm:
                return Tri.NO
            for sec in sections:
                if sec and sec not in seen:
                    if len(seen) >= budget:
                        return Tri.UNKNOWN
                    seen.add(sec)
                    stack.append(sec)
        return Tri.YES

    def resolution_depth(self) -> int:
        return 0

    def identity_like(self) -> "TreeAutomorphism":
        return TreeAutomorphism.identity(self.table)


def _transduce(step, state, x: BoundaryPoint) -> BoundaryPoint:
    """Exact image of an eventually periodic point under a transducer: the
    output letters of one cycle of ``_run_to_cycle`` form the image period."""
    out, start = _run_to_cycle(step, state, x)
    return BoundaryPoint(tuple(out[:start]), tuple(out[start:]), x.alphabet)


def _run_to_cycle(step, state, x: BoundaryPoint, n: int = 0) -> tuple[list, int]:
    """Run a transducer along ``x`` from position ``n`` until it cycles.

    ``step(state, letter)`` returns ``(output, next state)``; states must be
    hashable.  Once inside the periodic part of ``x``, the (state, phase)
    pair must repeat, and from then on the outputs repeat too.  Returns the
    outputs up to the repeat and the index of the first output of the cycle.
    """
    pre_len = len(x.preperiod)
    per_len = len(x.period)
    out: list = []
    seen: dict = {}
    while True:
        if n >= pre_len:
            key = (state, (n - pre_len) % per_len)
            if key in seen:
                return out, seen[key]
            if len(seen) >= ACT_POINT_STATE_BUDGET:
                raise NoCycleWithinBound(
                    f"no closing state within {ACT_POINT_STATE_BUDGET} steps"
                )
            seen[key] = len(out)
        output, state = step(state, x.letter_at(n))
        out.append(output)
        n += 1


# ---------------------------------------------------------------------------
# prefix bijections


def _prefix_free(words) -> bool:
    ws = sorted(words)
    return all(ws[i] != ws[i + 1][: len(ws[i])] for i in range(len(ws) - 1))


def _code_complete(words, size: int) -> bool:
    depth = max((len(w) for w in words), default=0)
    return sum(size ** (depth - len(w)) for w in words) == size**depth


def _validate_code(words, size: int, side: str):
    outside = set().union(*words).difference(range(size))
    if outside:
        raise ValueError(f"{side} code has letter {min(outside)} outside alphabet of size {size}")
    if not _prefix_free(words):
        if side == "domain":
            raise OverlappingCode(f"{side} code has nested words")
        raise NotBijective(f"{side} code has nested words")
    if not _code_complete(words, size):
        if side == "domain":
            raise IncompleteCode(f"{side} code does not cover the space")
        raise NotBijective(f"{side} code does not cover the space")


class PrefixBijection:
    """Homeomorphism replacing a prefix ``u_j`` by ``v_j``, tail unchanged.

    Rules are pairs of letter tuples ``(u_j, v_j)``.  Both ``{u_j}`` and
    ``{v_j}`` must be complete prefix codes over the alphabet; validated at
    construction.  Rules are canonicalized by merging sibling rules that
    agree (``u0 -> v0, u1 -> v1`` becomes ``u -> v``), so the stored rule
    set is a normal form.
    """

    __slots__ = ("alphabet", "rules", "_depth")

    def __init__(self, rules, alphabet: Alphabet = BINARY):
        pairs = list(rules)
        if not pairs:
            raise IncompleteCode("rule set must be nonempty")
        self.alphabet = alphabet
        size = alphabet.size
        _validate_code([u for u, _ in pairs], size, "domain")
        _validate_code([v for _, v in pairs], size, "range")
        self.rules = _merge_siblings(pairs, size, _merge_images)
        self._depth = max(len(u) for u, _ in self.rules)

    def __eq__(self, other):
        return (
            isinstance(other, PrefixBijection)
            and self.alphabet == other.alphabet
            and self.rules == other.rules
        )

    def __hash__(self):
        return hash((self.alphabet, self.rules))

    def __repr__(self):
        body = ", ".join(
            f"{''.join(map(str, u))}->{''.join(map(str, v))}" for u, v in self.rules
        )
        return f"PrefixBijection({body})"

    @classmethod
    def identity(cls, alphabet: Alphabet) -> "PrefixBijection":
        return cls([((), ())], alphabet)

    def _check_family(self, other):
        if not isinstance(other, PrefixBijection) or other.alphabet != self.alphabet:
            raise FamilyMismatch("prefix bijections must share an alphabet")

    def act_letters(self, letters) -> tuple:
        rule = _lookup(self.rules, letters)
        if rule is None:
            word = Word(letters, self.alphabet)
            raise UnresolvedWord(f"word {word} shorter than resolution depth {self._depth}")
        u, v = rule
        return v + letters[len(u):]

    def act_point(self, x: BoundaryPoint) -> BoundaryPoint:
        self.alphabet.check(x.alphabet)
        u, v = _lookup(self.rules, x.prefix(self._depth).letters)
        return x.shift(len(u)).prepend(Word(v, self.alphabet))

    def section(self, letters) -> "PrefixBijection":
        if _lookup(self.rules, letters) is None:
            raise UnresolvedWord(f"word {Word(letters, self.alphabet)} does not resolve a rule")
        return PrefixBijection.identity(self.alphabet)

    def compose(self, other) -> "PrefixBijection":
        self._check_family(other)
        out = []

        def refine(u, v):
            rule = _lookup(self.rules, v)
            if rule is not None:
                p, q = rule
                out.append((u, q + v[len(p):]))
            else:
                for a in self.alphabet.letters():
                    refine(u + (a,), v + (a,))

        for u, v in other.rules:
            refine(u, v)
        return PrefixBijection(out, self.alphabet)

    def inverse(self) -> "PrefixBijection":
        return PrefixBijection([(v, u) for u, v in self.rules], self.alphabet)

    def is_identity(self, budget: int = 512) -> Tri:
        return Tri.YES if all(u == v for u, v in self.rules) else Tri.NO

    def resolution_depth(self) -> int:
        return self._depth

    def identity_like(self) -> "PrefixBijection":
        return PrefixBijection.identity(self.alphabet)


def _lookup(rows, letters) -> tuple | None:
    """The row ``(prefix, value)`` whose prefix starts ``letters``, if any."""
    for row in rows:
        if letters[: len(row[0])] == row[0]:
            return row
    return None


def _merge_siblings(rows, size: int, merge) -> tuple:
    """Normal form of a prefix-keyed table: sorted rows, with every full set
    of siblings ``u a`` replaced by ``u`` wherever ``merge`` (the sibling
    values in letter order) returns a merged value rather than ``None``."""
    table = dict(rows)
    changed = True
    while changed:
        changed = False
        for key in sorted(table, key=len, reverse=True):
            if not key or key not in table:
                continue
            stem = key[:-1]
            siblings = [stem + (a,) for a in range(size)]
            if all(s in table for s in siblings):
                merged = merge([table[s] for s in siblings])
                if merged is not None:
                    for s in siblings:
                        del table[s]
                    table[stem] = merged
                    changed = True
    return tuple(sorted(table.items()))


def _merge_images(images):
    """Rules ``u a -> v a`` for every letter ``a`` merge into ``u -> v``."""
    head = images[0][:-1]
    if all(v and v[-1] == a and v[:-1] == head for a, v in enumerate(images)):
        return head
    return None


# ---------------------------------------------------------------------------
# odometer full-group tables


def _word_value(letters) -> int:
    return sum(a << i for i, a in enumerate(letters))


def _value_word(value: int, length: int) -> tuple[int, ...]:
    value %= 1 << length
    return tuple((value >> i) & 1 for i in range(length))


def odometer_word_image(letters, power: int) -> tuple[int, ...]:
    """Image of a depth-d cylinder under the odometer power (add with carry,
    least-significant letter first)."""
    return _value_word(_word_value(letters) + power, len(letters))


class FullGroupTable:
    """Piecewise power of the binary odometer.

    Rows ``(cylinder letters, power)`` with the cylinders partitioning the
    space; a point with prefix ``c`` maps through the odometer applied
    ``power`` times.  Row cylinders and row images must both partition the space
    (checked at construction).  A power may be any integer: refinement in
    ``compose`` stops at the depth of the rows, whatever the powers.
    """

    __slots__ = ("alphabet", "rows")

    def __init__(self, rows):
        self.alphabet = BINARY
        rows = list(rows)
        if not rows:
            raise IncompleteCode("table must have at least one row")
        _validate_code([c for c, _ in rows], 2, "domain")
        images = [odometer_word_image(c, k) for c, k in rows]
        _validate_code(images, 2, "range")
        self.rows = _merge_siblings(rows, 2, _merge_powers)

    def __eq__(self, other):
        return isinstance(other, FullGroupTable) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self):
        body = ", ".join(f"[{''.join(map(str, c))}]:{k:+d}" for c, k in self.rows)
        return f"FullGroupTable({body})"

    @classmethod
    def identity(cls) -> "FullGroupTable":
        return cls([((), 0)])

    @classmethod
    def odometer(cls, power: int = 1) -> "FullGroupTable":
        return cls([((), power)])

    def _check_family(self, other):
        if not isinstance(other, FullGroupTable):
            raise FamilyMismatch("full-group tables only compose with each other")

    def act_letters(self, letters) -> tuple:
        row = _lookup(self.rows, letters)
        if row is None:
            word = Word(letters, self.alphabet)
            raise UnresolvedWord(f"word {word} shorter than resolution depth {self.resolution_depth()}")
        return odometer_word_image(letters, row[1])

    def act_point(self, x: BoundaryPoint) -> BoundaryPoint:
        self.alphabet.check(x.alphabet)
        _, k = _lookup(self.rows, x.prefix(self.resolution_depth()).letters)
        return _transduce(_odometer_step, k, x)

    def section(self, letters) -> "FullGroupTable":
        row = _lookup(self.rows, letters)
        if row is None:
            raise UnresolvedWord(f"word {Word(letters, self.alphabet)} does not resolve a row")
        _, k = row
        carry = (_word_value(letters) + k) >> len(letters)
        return FullGroupTable([((), carry)])

    def compose(self, other) -> "FullGroupTable":
        self._check_family(other)
        out = []

        def refine(c, k):
            image = odometer_word_image(c, k)
            row = _lookup(self.rows, image)
            if row is not None:
                out.append((c, k + row[1]))
            else:
                carry = (_word_value(c) + k) >> len(c)
                for b in (0, 1):
                    # letter that maps to image extension b under the carry
                    refine(c + ((b - carry) % 2,), k)

        for c, k in other.rows:
            refine(c, k)
        return FullGroupTable(out)

    def inverse(self) -> "FullGroupTable":
        return FullGroupTable([(odometer_word_image(c, k), -k) for c, k in self.rows])

    def is_identity(self, budget: int = 512) -> Tri:
        return Tri.YES if all(k == 0 for _, k in self.rows) else Tri.NO

    def resolution_depth(self) -> int:
        return max(len(c) for c, _ in self.rows)

    def identity_like(self) -> "FullGroupTable":
        return FullGroupTable.identity()


def _merge_powers(powers):
    """Sibling rows with one power merge into their parent row."""
    return powers[0] if len(set(powers)) == 1 else None


def _odometer_step(carry: int, letter: int) -> tuple[int, int]:
    """Add-with-carry, least-significant letter first; the carry is the state."""
    total = letter + carry
    return total & 1, total >> 1


# ---------------------------------------------------------------------------
# generator-word syntax ("a*b*a^-1")


def parse_generator_word(text: str) -> tuple[tuple[str, int], ...]:
    word = []
    text = text.strip()
    if text in ("", "1"):
        return ()
    for token in text.split("*"):
        token = token.strip()
        m = re.fullmatch(rf"({GENERATOR_NAME_RE.pattern})(?:\^(-?\d+))?", token)
        if m is None:
            raise ValueError(f"bad generator token {token!r}")
        name, exp = m.group(1), int(m.group(2) or 1)
        if exp == 0:
            continue
        sign = 1 if exp > 0 else -1
        word.extend((name, sign) for _ in range(abs(exp)))
    return tuple(word)


def format_generator_word(word) -> str:
    return "*".join(name if exp == 1 else f"{name}^-1" for name, exp in word)
