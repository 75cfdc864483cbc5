"""Words, cylinders, and eventually periodic points of the word space.

The space is ``X^N``: right-infinite words over a finite alphabet
``X = {0, ..., size-1}``.  Clopen cylinders (all words with a fixed finite
prefix) form a basis.  Points are restricted to eventually periodic words
``u . v v v ...`` so that equality, membership, and images are exactly
decidable; every point is stored in a canonical form (primitive period,
shortest preperiod), which makes structural equality semantic equality.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterator
from dataclasses import dataclass


class AlphabetMismatch(ValueError):
    """Operands live over different alphabets."""


@dataclass(frozen=True)
class Alphabet:
    """Finite alphabet {0, ..., size-1}, 2 <= size <= 10: every text form
    (points, digit words, table rows, ``g@v`` paths) writes one digit per
    letter."""

    size: int

    def __post_init__(self):
        if not 2 <= self.size <= 10:
            raise ValueError(f"alphabet size must be 2 to 10, got {self.size}")

    def letters(self) -> range:
        return range(self.size)

    def check(self, other: "Alphabet") -> None:
        if self != other:
            raise AlphabetMismatch(f"{self} vs {other}")


BINARY = Alphabet(2)


@dataclass(frozen=True)
class Word:
    """Finite word; the empty word denotes the whole space as a cylinder."""

    letters: tuple[int, ...]
    alphabet: Alphabet = BINARY

    def __post_init__(self):
        for a in self.letters:
            if not 0 <= a < self.alphabet.size:
                raise ValueError(f"letter {a} outside alphabet of size {self.alphabet.size}")

    @classmethod
    def from_string(cls, text: str, alphabet: Alphabet = BINARY) -> "Word":
        if not re.fullmatch(r"[0-9]*", text):
            raise ValueError(f"word must be a digit string, got {text!r}")
        return cls(tuple(int(ch) for ch in text), alphabet)

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __getitem__(self, i):
        return self.letters[i]

    def __str__(self) -> str:
        return "".join(str(a) for a in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r})"


@dataclass(frozen=True)
class Cylinder:
    """Clopen set of infinite words extending a fixed prefix."""

    prefix: Word

    @property
    def depth(self) -> int:
        return len(self.prefix)

    @property
    def alphabet(self) -> Alphabet:
        return self.prefix.alphabet

    @classmethod
    def from_string(cls, text: str, alphabet: Alphabet = BINARY) -> "Cylinder":
        return cls(Word.from_string(text, alphabet))

    def __str__(self) -> str:
        return f"[{self.prefix}]"

    def __repr__(self) -> str:
        return f"Cylinder({str(self.prefix)!r})"


def _primitive(period: tuple[int, ...]) -> tuple[int, ...]:
    n = len(period)
    for p in range(1, n + 1):
        if n % p == 0 and period[:p] * (n // p) == period:
            return period[:p]
    return period


@dataclass(frozen=True)
class BoundaryPoint:
    """Eventually periodic infinite word ``preperiod . period^infinity``.

    Canonical form is enforced at construction: the period is primitive and
    the preperiod is as short as possible, so two points are equal as
    infinite words iff they are equal as values.
    """

    preperiod: tuple[int, ...]
    period: tuple[int, ...]
    alphabet: Alphabet = BINARY

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")
        for a in self.preperiod + self.period:
            if not 0 <= a < self.alphabet.size:
                raise ValueError(f"letter {a} outside alphabet of size {self.alphabet.size}")
        pre, per = self.preperiod, _primitive(self.period)
        while pre and pre[-1] == per[-1]:
            pre, per = pre[:-1], per[-1:] + per[:-1]
        object.__setattr__(self, "preperiod", pre)
        object.__setattr__(self, "period", per)

    def letter_at(self, n: int) -> int:
        if n < len(self.preperiod):
            return self.preperiod[n]
        return self.period[(n - len(self.preperiod)) % len(self.period)]

    def prefix(self, n: int) -> Word:
        if n < 0:
            raise ValueError("prefix length must be >= 0")
        return Word(tuple(self.letter_at(i) for i in range(n)), self.alphabet)

    def shift(self, n: int) -> "BoundaryPoint":
        """Drop the first n letters."""
        if n <= len(self.preperiod):
            return BoundaryPoint(self.preperiod[n:], self.period, self.alphabet)
        k = (n - len(self.preperiod)) % len(self.period)
        return BoundaryPoint((), self.period[k:] + self.period[:k], self.alphabet)

    def prepend(self, w: Word) -> "BoundaryPoint":
        self.alphabet.check(w.alphabet)
        return BoundaryPoint(w.letters + self.preperiod, self.period, self.alphabet)

    def __str__(self) -> str:
        pre = "".join(str(a) for a in self.preperiod)
        per = "".join(str(a) for a in self.period)
        return f"{pre}({per})"

    def __repr__(self) -> str:
        return f"BoundaryPoint({str(self)!r})"


_POINT_RE = re.compile(r"([0-9]*)\(([0-9]+)\)")


def parse_point(text: str, alphabet: Alphabet = BINARY) -> BoundaryPoint:
    """Parse the ``u(v)`` encoding: preperiod u, then period v repeated."""
    m = _POINT_RE.fullmatch(text.strip())
    if m is None:
        raise ValueError(f"point must have the form 'u(v)', got {text!r}")
    pre = tuple(int(ch) for ch in m.group(1))
    per = tuple(int(ch) for ch in m.group(2))
    return BoundaryPoint(pre, per, alphabet)


def first_disagreement(x: BoundaryPoint, y: BoundaryPoint) -> int | None:
    """Smallest index where the infinite words differ, or None when equal.

    Past index ``|pre_x| + |pre_y| + 2 lcm(|per_x|, |per_y|)`` both words are
    periodic with aligned phase, so the comparison terminates.
    """
    x.alphabet.check(y.alphabet)
    bound = (
        len(x.preperiod)
        + len(y.preperiod)
        + 2 * math.lcm(len(x.period), len(y.period))
    )
    for n in range(bound):
        if x.letter_at(n) != y.letter_at(n):
            return n
    return None


def contains_point(c: Cylinder, x: BoundaryPoint) -> bool:
    c.alphabet.check(x.alphabet)
    return x.prefix(c.depth) == c.prefix


def cylinders_at_depth(alphabet: Alphabet, depth: int) -> list[tuple[int, ...]]:
    """The prefixes, as letter tuples, of all alphabet.size**depth cylinders
    of the given depth, lexicographic."""
    out = [()]
    for _ in range(depth):
        out = [w + (a,) for w in out for a in alphabet.letters()]
    return out


def complement(c: Cylinder) -> Iterator[tuple[int, ...]]:
    """The prefixes, as letter tuples, of the (size-1)*depth siblings of c's
    prefixes, shallowest first, then by letter: the cylinders partitioning
    the space outside c.  Lazy, so a caller holds one prefix at a time."""
    path = c.prefix.letters
    return (path[:j] + (a,) for j in range(len(path)) for a in c.alphabet.letters() if a != path[j])


@dataclass(frozen=True)
class DepthSchedule:
    """Strictly increasing positive depths d_1 < d_2 < ... < d_n."""

    depths: tuple[int, ...]

    def __post_init__(self):
        if not self.depths:
            raise ValueError("schedule must be nonempty")
        if self.depths[0] < 1 or any(b <= a for a, b in zip(self.depths, self.depths[1:])):
            raise ValueError(f"depths must be strictly increasing positive: {self.depths}")

    @classmethod
    def unit_steps(cls, max_depth: int) -> "DepthSchedule":
        return cls(tuple(range(1, max_depth + 1)))

    def __iter__(self):
        return iter(self.depths)

    def __len__(self):
        return len(self.depths)
