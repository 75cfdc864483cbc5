import math

import pytest
from hypothesis import given, strategies as st

from cantorstab import (
    Alphabet,
    AlphabetMismatch,
    BoundaryPoint,
    Cylinder,
    DepthSchedule,
    Word,
    complement,
    contains_point,
    cylinders_at_depth,
    first_disagreement,
    parse_point,
)

BIN = Alphabet(2)


def pt(text):
    return parse_point(text)


def cyl(text):
    return Cylinder.from_string(text)


# -- prefix ------------------------------------------------------------


def test_prefix_constant_word():
    assert str(pt("(0)").prefix(3)) == "000"


def test_prefix_periodic_unrolling():
    assert str(pt("(01)").prefix(5)) == "01010"


def test_prefix_preperiod_then_period():
    assert str(pt("1(10)").prefix(4)) == "1101"


# -- first_disagreement ------------------------------------------------


def test_disagreement_first_letter():
    assert first_disagreement(pt("(0)"), pt("(1)")) == 0


def test_disagreement_equal():
    assert first_disagreement(pt("(01)"), pt("(01)")) is None


def test_disagreement_after_shared_prefix():
    assert first_disagreement(pt("(0)"), pt("000(1)")) == 3


def test_disagreement_alphabet_mismatch():
    with pytest.raises(AlphabetMismatch):
        first_disagreement(pt("(0)"), BoundaryPoint((), (1,), Alphabet(3)))


# -- contains_point ----------------------------------------------------


def test_contains_point_examples():
    assert contains_point(cyl("01"), pt("(01)"))
    assert not contains_point(cyl("1"), pt("(0)"))
    assert contains_point(cyl(""), pt("1(10)"))


# -- canonical form ----------------------------------------------------


def test_canonical_primitive_period():
    assert pt("(0101)") == pt("(01)")
    assert pt("(0101)").period == (0, 1)


def test_canonical_preperiod_rolls_into_period():
    # 1(01) unrolls to 1 01 01 ... = (10)(10)...
    assert pt("1(01)") == pt("(10)")
    assert pt("1(01)").preperiod == ()


def test_points_equal_iff_same_letters():
    assert pt("1(1)") == pt("(1)")
    assert pt("0(10)") == pt("(01)")


letters = st.integers(min_value=0, max_value=1)
word_tuples = st.lists(letters, max_size=6).map(tuple)
period_tuples = st.lists(letters, min_size=1, max_size=4).map(tuple)


@given(word_tuples, period_tuples)
def test_canonicalization_idempotent(pre, per):
    p = BoundaryPoint(pre, per)
    again = BoundaryPoint(p.preperiod, p.period)
    assert again == p
    assert again.preperiod == p.preperiod and again.period == p.period


@given(word_tuples, period_tuples, st.integers(min_value=1, max_value=3))
def test_period_unrolling_is_same_point(pre, per, k):
    assert BoundaryPoint(pre + per * k, per) == BoundaryPoint(pre, per)


@given(word_tuples, period_tuples, word_tuples, period_tuples)
def test_equality_soundness_via_brute_force(pre1, per1, pre2, per2):
    x = BoundaryPoint(pre1, per1)
    y = BoundaryPoint(pre2, per2)
    bound = len(x.preperiod) + len(y.preperiod) + 2 * math.lcm(len(x.period), len(y.period))
    brute_equal = all(x.letter_at(i) == y.letter_at(i) for i in range(bound))
    assert (first_disagreement(x, y) is None) == brute_equal
    assert (x == y) == brute_equal


# -- partition ---------------------------------------------------------


@pytest.mark.parametrize("size,depth", [(2, 1), (2, 3), (3, 2)])
def test_depth_partition(size, depth):
    alphabet = Alphabet(size)
    prefixes = cylinders_at_depth(alphabet, depth)
    assert len(prefixes) == size**depth
    assert prefixes == sorted(prefixes)
    # cylinders of one depth are disjoint iff their prefixes differ
    assert len(set(prefixes)) == len(prefixes)
    assert all(len(p) == depth and all(0 <= a < size for a in p) for p in prefixes)
    point = BoundaryPoint((0, 1) if size == 2 else (2,), (1, 0), alphabet)
    homes = [p for p in prefixes if contains_point(Cylinder(Word(p, alphabet)), point)]
    assert len(homes) == 1


def test_complement_prefixes():
    assert complement(cyl("011")) == [(1,), (0, 0), (0, 1, 0)]
    assert complement(Cylinder(Word((2,), Alphabet(3)))) == [(0,), (1,)]
    assert complement(cyl("")) == []


@pytest.mark.parametrize("size,depth", [(2, 3), (3, 2)])
def test_complement_partitions_outside(size, depth):
    # every depth-d prefix but u's own extends exactly one sibling prefix
    alphabet = Alphabet(size)
    u = Cylinder(Word((size - 1,) * depth, alphabet))
    siblings = complement(u)
    assert len(siblings) == (size - 1) * depth
    for p in cylinders_at_depth(alphabet, depth):
        homes = [s for s in siblings if p[: len(s)] == s]
        assert len(homes) == (0 if p == u.prefix.letters else 1)


# -- parsing and formatting --------------------------------------------


@given(word_tuples, period_tuples)
def test_point_text_round_trip(pre, per):
    p = BoundaryPoint(pre, per)
    assert parse_point(str(p)) == p


def test_parse_point_rejects_garbage():
    for bad in ("", "01", "(01", "a(b)", "(  )"):
        with pytest.raises(ValueError):
            parse_point(bad)


@pytest.mark.parametrize("size", [0, 1, 11])
def test_alphabet_size_2_to_10(size):
    # every text form writes one digit per letter
    with pytest.raises(ValueError, match="2 to 10"):
        Alphabet(size)
    assert Alphabet(10).size == 10


def test_word_rejects_bad_letters():
    with pytest.raises(ValueError):
        Word((0, 2), BIN)


# -- depth schedule ----------------------------------------------------


def test_schedule_unit_steps():
    assert tuple(DepthSchedule.unit_steps(4)) == (1, 2, 3, 4)


def test_schedule_must_increase():
    with pytest.raises(ValueError):
        DepthSchedule((1, 1, 2))
    with pytest.raises(ValueError):
        DepthSchedule((0, 1))


def test_shift_and_prepend():
    p = pt("01(10)")
    assert p.shift(2) == pt("(10)")
    assert p.shift(3) == pt("(01)")
    assert p.shift(2).prepend(Word((0, 1))) == p
