import itertools
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from cantorstab import (
    Alphabet,
    BoundaryPoint,
    Cylinder,
    FamilyMismatch,
    FullGroupTable,
    IncompleteCode,
    NoCycleWithinBound,
    NotBijective,
    PrefixBijection,
    TreeAutomorphism,
    Tri,
    UnresolvedWord,
    WreathTable,
    first_disagreement,
    parse_generator_word,
    parse_point,
)
from cantorstab.elements import ACT_POINT_STATE_BUDGET, SECTION_CACHE_LIMIT
from cantorstab.presets import GRIGORCHUK_TABLE

from conftest import L, grig_gen, grig_word, prefix_bijection, table

BIN = Alphabet(2)

ODOMETER_TABLE = WreathTable(BIN, {"t": ((1, 0), (None, "t"))})


def tau_tree():
    return TreeAutomorphism.generator(ODOMETER_TABLE, "t")


def act(g, text):
    """Image of a binary digit string under g, as a digit string."""
    return "".join(map(str, g.act_letters(L(text))))


# -- independent oracle: textbook recursion on strings ------------------

GRIG_RULES = {
    "a": None,  # swap first letter
    "b": ("a", "c"),
    "c": ("a", "d"),
    "d": (None, "b"),
}


def grig_apply_one(name, w):
    if not w:
        return w
    head, rest = w[0], w[1:]
    if name == "a":
        return ("1" if head == "0" else "0") + rest
    sec = GRIG_RULES[name][int(head)]
    return head + (grig_apply_one(sec, rest) if sec else rest)


def grig_apply_word(letters, w):
    for name in reversed(letters):  # rightmost factor acts first
        w = grig_apply_one(name, w)
    return w


# -- act_letters ---------------------------------------------------------


def test_act_word_a():
    assert act(grig_gen("a"), "011") == "111"


def test_act_word_b():
    assert act(grig_gen("b"), "011") == "001"


def test_act_word_odometer_carry():
    assert act(tau_tree(), "11") == "00"


def test_act_word_prefix_bijection():
    g = prefix_bijection(("0", "00"), ("10", "01"), ("11", "1"))
    assert act(g, "101") == "011"


@given(st.text(alphabet="abcd", min_size=0, max_size=6), st.text(alphabet="01", min_size=0, max_size=8))
def test_act_word_matches_textbook_recursion(letters, w):
    elem = grig_word(letters)
    assert act(elem, w) == grig_apply_word(letters, w)


# -- act_point -----------------------------------------------------------


def test_act_point_odometer():
    assert tau_tree().act_point(parse_point("(0)")) == parse_point("1(0)")


def test_act_point_b_fixes_ones():
    assert grig_gen("b").act_point(parse_point("(1)")) == parse_point("(1)")


def test_act_point_a_root_swap():
    assert grig_gen("a").act_point(parse_point("(1)")) == parse_point("0(1)")


@given(
    st.text(alphabet="abcd", min_size=0, max_size=5),
    st.lists(st.integers(0, 1), max_size=4).map(tuple),
    st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
)
@settings(max_examples=60)
def test_act_point_prefix_agrees_with_act_word(letters, pre, per):
    elem = grig_word(letters)
    x = BoundaryPoint(pre, per)
    image = elem.act_point(x)
    for n in (1, 4, 9):
        assert image.prefix(n).letters == elem.act_letters(x.prefix(n).letters)


def test_act_point_eventual_period_bound():
    # image period is bounded by (#reachable sections) * (input period)
    elem = grig_word("abab")
    x = parse_point("(10)")
    closure = {elem.word}
    stack = [elem]
    while stack:
        e = stack.pop()
        for letter in (0, 1):
            s = e.section((letter,))
            if s.word not in closure:
                closure.add(s.word)
                stack.append(s)
    image = elem.act_point(x)
    assert len(image.period) <= len(closure) * len(x.period)


# -- sections ------------------------------------------------------------


def test_section_examples():
    assert grig_gen("b").section((1,)) == grig_gen("c")
    assert grig_gen("d").section((0,)).is_identity() is Tri.YES
    assert tau_tree().section((1,)) == tau_tree()


@given(
    st.text(alphabet="abcd", min_size=0, max_size=5),
    st.text(alphabet="01", min_size=0, max_size=4),
    st.text(alphabet="01", min_size=0, max_size=4),
)
@settings(max_examples=80)
def test_section_law(letters, w, s):
    g = grig_word(letters)
    lhs = g.act_letters(L(w + s))
    rhs = g.act_letters(L(w)) + g.section(L(w)).act_letters(L(s))
    assert lhs == rhs


# test-only reference: the per-factor loop that resolves every factor again
# for every letter, which ``WreathTable.state`` replaces


def reference_perm(table, name, exp):
    perm, _ = table.resolve(name)
    if exp == 1:
        return perm
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return tuple(inv)


def reference_image(table, word, letter):
    for name, exp in reversed(word):
        letter = reference_perm(table, name, exp)[letter]
    return letter


def reference_section_word(table, word, letter):
    parts = []
    for name, exp in reversed(word):
        _, sections = table.resolve(name)
        # (g^-1)|_x = (g|_{g^-1 x})^-1
        s = sections[letter if exp == 1 else reference_perm(table, name, -1)[letter]]
        if s is not None:
            parts.append((s, 1 if s in table.involutive else exp))
        letter = reference_perm(table, name, exp)[letter]
    return table.reduce(parts[::-1])


GRIG_NAMES = sorted(GRIGORCHUK_TABLE.entries)
grig_factors = st.tuples(
    st.one_of(
        st.sampled_from(GRIG_NAMES),
        st.builds(
            "{}@{}".format,
            st.sampled_from(GRIG_NAMES),
            st.text(alphabet="01", min_size=1, max_size=12),
        ),
    ),
    st.sampled_from((1, -1)),
)


@given(st.lists(grig_factors, max_size=8).map(tuple))
@settings(max_examples=200, deadline=None)
def test_state_matches_reference(word):
    table = GRIGORCHUK_TABLE
    perm, sections = table.state(word)
    assert perm == tuple(reference_image(table, word, a) for a in (0, 1))
    assert sections == tuple(reference_section_word(table, word, a) for a in (0, 1))
    assert table.state(word) == (perm, sections)


def test_section_cache_is_bounded():
    # each cached state holds one section word per letter; the cache is
    # emptied once it holds SECTION_CACHE_LIMIT section words
    table = WreathTable(BIN, GRIGORCHUK_TABLE.entries)
    fresh = WreathTable(BIN, GRIGORCHUK_TABLE.entries)
    peak = 0
    for letters in itertools.product("abcd", repeat=7):
        table.state(table.reduce([(name, 1) for name in letters]))
        peak = max(peak, len(table._states))
    assert peak * BIN.size == SECTION_CACHE_LIMIT
    assert len(table._factors) * BIN.size <= SECTION_CACHE_LIMIT
    # emptying the cache changes no result
    word = table.reduce([(name, 1) for name in "abcdabc"])
    before = table.state(word)
    table._states.clear()
    table._factors.clear()
    assert table.state(word) == before == fresh.state(word)


# -- derived involutions ---------------------------------------------------


def test_grigorchuk_involutions_are_derived():
    # a, b, c, d square to 1; ca, ac and k1..k3 do not, nor the odometer
    assert GRIGORCHUK_TABLE.involutive == frozenset("abcd")
    assert ODOMETER_TABLE.involutive == frozenset()
    # the squares walked during the derivation are computed again with the
    # rewriting, so no section keeps an a*a
    fresh = WreathTable(BIN, GRIGORCHUK_TABLE.entries)
    assert fresh.state((("b", 1), ("b", 1))) == ((0, 1), ((), ()))


def test_localized_involutions_rewrite():
    # a@v squares to 1 as a does; k1@v has order 4 as k1 has
    rewrite = GRIGORCHUK_TABLE.reduce
    assert rewrite((("a@01", 1), ("a@01", 1))) == ()
    assert rewrite((("a@01", -1),)) == (("a@01", 1),)
    assert rewrite((("k1@0", 1), ("k1@0", 1))) == (("k1@0", 1), ("k1@0", 1))


def reference_is_identity(table, word):
    """Definitional identity test, unbudgeted: the section closure under the
    reference helpers is finite because no section outgrows its word."""
    letters = table.alphabet.letters()
    seen, stack = {word}, [word]
    while stack:
        w = stack.pop()
        if any(reference_image(table, w, a) != a for a in letters):
            return False
        for a in letters:
            s = reference_section_word(table, w, a)
            if s not in seen:
                seen.add(s)
                stack.append(s)
    return True


@st.composite
def small_wreath_tables(draw):
    size = draw(st.integers(2, 3))
    names = [f"g{i}" for i in range(draw(st.integers(1, 3)))]
    digits = "".join(map(str, range(size)))
    section = st.one_of(
        st.none(),
        st.sampled_from(names),
        st.builds("{}@{}".format, st.sampled_from(names), st.text(alphabet=digits, min_size=1, max_size=3)),
    )
    entries = {
        n: (tuple(draw(st.permutations(range(size)))), tuple(draw(section) for _ in range(size)))
        for n in names
    }
    return Alphabet(size), entries


@given(small_wreath_tables(), st.lists(st.tuples(st.integers(0, 2), st.sampled_from((1, -1))), max_size=6))
@settings(max_examples=200, deadline=None)
def test_derived_involutions_match_reference(spec, picks):
    alphabet, entries = spec
    verdicts = []
    is_identity = TreeAutomorphism.is_identity

    def spy(self, budget=512):
        verdicts.append(is_identity(self, budget))
        return verdicts[-1]

    with mock.patch.object(TreeAutomorphism, "is_identity", spy):
        table = WreathTable(alphabet, entries)
    assert len(verdicts) == len(entries) and Tri.UNKNOWN not in verdicts
    plain = WreathTable(alphabet, entries)
    plain.involutive = frozenset()  # free reduction only
    assert table.involutive == {n for n in entries if reference_is_identity(plain, ((n, 1), (n, 1)))}
    # rewriting with the derived involutions changes no action
    names = sorted(entries)
    word = tuple((names[i % len(names)], exp) for i, exp in picks)
    for letters in itertools.product(alphabet.letters(), repeat=3):
        assert TreeAutomorphism(table, word).act_letters(letters) == TreeAutomorphism(plain, word).act_letters(letters)


# -- compose / invert ----------------------------------------------------


def test_compose_involution():
    a = grig_gen("a")
    assert a.compose(a).is_identity(64) is Tri.YES


def test_invert_odometer():
    assert act(tau_tree().inverse(), "10") == "00"


def test_compose_identity_law():
    g = grig_word("abac")
    ident = g.identity_like()
    for w in ("", "0110011001", "1111111111"):
        assert act(g.compose(ident), w) == act(g, w)
        assert act(ident.compose(g), w) == act(g, w)


def test_family_mismatch():
    with pytest.raises(FamilyMismatch):
        grig_gen("a").compose(tau_tree())
    with pytest.raises(FamilyMismatch):
        FullGroupTable.odometer().compose(PrefixBijection([((), ())]))


@given(
    st.text(alphabet="abcd", max_size=4),
    st.text(alphabet="abcd", max_size=4),
    st.text(alphabet="abcd", max_size=4),
    st.text(alphabet="01", min_size=5, max_size=10),
)
@settings(max_examples=60)
def test_group_laws_under_act_word(u, v, w, test_word):
    gu, gv, gw = grig_word(u), grig_word(v), grig_word(w)
    # associativity
    assert act(gu.compose(gv).compose(gw), test_word) == act(gu.compose(gv.compose(gw)), test_word)
    # inverse law
    assert act(gu.compose(gu.inverse()), test_word) == test_word
    assert act(gu.inverse().compose(gu), test_word) == test_word


@given(st.text(alphabet="abcd", max_size=5), st.text(alphabet="01", max_size=8))
def test_depth_preservation(letters, w):
    assert len(act(grig_word(letters), w)) == len(w)


# -- is_identity ---------------------------------------------------------


def test_is_identity_examples():
    assert grig_word("aa").is_identity(64) is Tri.YES
    assert grig_gen("a").is_identity(64) is Tri.NO
    assert grig_word("bcd").is_identity(256) is Tri.YES
    assert grig_word("ab").is_identity(256) is Tri.NO


def test_is_identity_all_generator_relations():
    for name in "abcd":
        g = grig_gen(name)
        assert g.is_identity(64) is Tri.NO
        assert g.compose(g).is_identity(512) is Tri.YES


def test_is_identity_budget_exhaustion_is_unknown():
    g = grig_word("bcd")
    assert g.is_identity(1) in (Tri.UNKNOWN, Tri.YES)
    # monotonicity: a definite answer never flips when the budget grows
    verdicts = [g.is_identity(b) for b in (1, 2, 8, 64, 512)]
    definite = [v for v in verdicts if v is not Tri.UNKNOWN]
    assert all(v is definite[0] for v in definite)


# -- branching subgroup recursion vs plain words -------------------------


def test_k1_is_ab_squared():
    k1 = grig_gen("k1")
    assert k1.compose(grig_word("abab").inverse()).is_identity(512) is Tri.YES


def test_k2_is_bada_squared():
    k2 = grig_gen("k2")
    assert k2.compose(grig_word("badabada").inverse()).is_identity(512) is Tri.YES


def test_k3_is_abad_squared():
    k3 = grig_gen("k3")
    assert k3.compose(grig_word("abadabad").inverse()).is_identity(512) is Tri.YES


def test_localized_k2_matches_plain_word():
    # hand-derived preimage of k2 under the one-level embedding into [0]
    w16 = grig_word("adabacabadabacab")
    local = TreeAutomorphism.generator(GRIGORCHUK_TABLE, "k2@0")
    assert local.compose(w16.inverse()).is_identity(2048) is Tri.YES


def test_localized_generator_conjugation():
    # a k1@0 a = k1@1
    a = grig_gen("a")
    lhs = a.compose(TreeAutomorphism.generator(GRIGORCHUK_TABLE, "k1@0")).compose(a)
    rhs = TreeAutomorphism.generator(GRIGORCHUK_TABLE, "k1@1")
    assert lhs.compose(rhs.inverse()).is_identity(512) is Tri.YES


# -- resolution depth ----------------------------------------------------


def test_resolution_depths():
    assert grig_word("abcd").resolution_depth() == 0
    assert prefix_bijection(("0", "00"), ("10", "01"), ("11", "1")).resolution_depth() == 2
    assert table(("", 0)).resolution_depth() == 0
    # computed once, at construction, on the merged rule set
    assert prefix_bijection(("00", "00"), ("01", "01"), ("1", "1")).resolution_depth() == 0


def test_unresolved_word_error():
    g = prefix_bijection(("0", "00"), ("10", "01"), ("11", "1"))
    with pytest.raises(UnresolvedWord):
        g.act_letters((1,))


# -- validation ----------------------------------------------------------


def test_validate_prefix_ok():
    prefix_bijection(("0", "00"), ("10", "01"), ("11", "1"))


def test_validate_prefix_not_bijective():
    with pytest.raises(NotBijective):
        prefix_bijection(("0", "00"), ("1", "01"))


def test_validate_prefix_incomplete():
    with pytest.raises(IncompleteCode):
        prefix_bijection(("0", "0"))


def test_validate_table_swap():
    g = table(("0", 1), ("1", -1))
    assert act(g, "0") == "1"
    assert act(g, "1") == "0"


def test_validate_table_not_bijective():
    with pytest.raises(NotBijective):
        table(("0", 0), ("1", 1))


@pytest.mark.parametrize("build", [
    lambda: FullGroupTable([((0,), 1), ((2,), 0)]),
    lambda: PrefixBijection([((0,), (1,)), ((1,), (0,)), ((2,), (2,))]),
    lambda: PrefixBijection([((0,), (0,)), ((1,), (1,)), ((2,), (3,))], Alphabet(3)),
], ids=["table-domain", "prefix-domain", "prefix-range"])
def test_validate_letter_outside_alphabet(build):
    with pytest.raises(ValueError, match="outside alphabet"):
        build()


# -- cross representation ------------------------------------------------


def test_odometer_tree_vs_table_to_depth_12():
    tree = tau_tree()
    table = FullGroupTable.odometer()
    words = [()]
    for depth in range(1, 13):
        words = [w + (b,) for w in words for b in (0, 1)]
        for w in words:
            assert tree.act_letters(w) == table.act_letters(w)


def test_odometer_tree_vs_table_on_points():
    tree, table = tau_tree(), FullGroupTable.odometer()
    for text in ("(0)", "(1)", "1(10)", "0110(101)"):
        p = parse_point(text)
        assert tree.act_point(p) == table.act_point(p)


def test_odometer_point_image_state_budget():
    # the carry settles within a few letters, so the (carry, phase) states
    # outgrow the budget only on periods of thousands of letters
    tree, table = tau_tree(), FullGroupTable.odometer()
    p = BoundaryPoint((), (0,) * 2000 + (1,))
    assert table.act_point(p) == tree.act_point(p)
    with pytest.raises(NoCycleWithinBound):
        table.act_point(BoundaryPoint((), (0,) * ACT_POINT_STATE_BUDGET + (1,)))


# -- table/prefix composition and sections -------------------------------


def test_table_section_is_carry_power():
    t2 = FullGroupTable.odometer(2)
    section = t2.section((1,))
    # adding 2 to 1... consumes the first letter with carry 1
    assert section == FullGroupTable.odometer(1)


def test_prefix_compose_and_inverse():
    g = prefix_bijection(("0", "00"), ("10", "01"), ("11", "1"))
    gi = g.inverse()
    for text in ("(0)", "(10)", "11(0)", "0101(1)"):
        p = parse_point(text)
        assert gi.act_point(g.act_point(p)) == p
    assert g.compose(gi).is_identity() is Tri.YES


def test_prefix_section_identity_beyond_resolution():
    g = prefix_bijection(("0", "00"), ("10", "01"), ("11", "1"))
    assert g.section((1, 0)).is_identity() is Tri.YES


# -- generator word syntax ------------------------------------------------


def test_parse_generator_word():
    assert parse_generator_word("a*b*a^-1") == (("a", 1), ("b", 1), ("a", -1))
    assert parse_generator_word("a^2") == (("a", 1), ("a", 1))
    assert parse_generator_word("1") == ()
    assert parse_generator_word("k2@01") == (("k2@01", 1),)
    with pytest.raises(ValueError):
        parse_generator_word("a**b")


# -- composition vs pointwise application (all three families) -------------


from functools import reduce

from cantorstab.presets import grigorchuk, odometer_full, prefix_v

PREFIX_FAMILY = prefix_v()
ODO_FAMILY = odometer_full()


def preset_elements(family):
    """A preset's moves, and its rist-oracle generators below a few
    cylinders, which resolve only at the cylinder's depth or deeper."""
    elems = [g for _, g in family.moves()]
    for u in ("0", "10", "011"):
        elems += family.rist_oracle(Cylinder.from_string(u))
    return elems


points = st.builds(
    BoundaryPoint,
    st.lists(st.integers(0, 1), max_size=4).map(tuple),
    st.lists(st.integers(0, 1), min_size=1, max_size=3).map(tuple),
)


# multi-row factors: sibling swaps and first-return tables have keys that
# extend the image of a row of the other factor
@given(st.lists(st.sampled_from(preset_elements(PREFIX_FAMILY)), min_size=1, max_size=4), points)
@settings(max_examples=60, deadline=None)
def test_prefix_compose_matches_pointwise(gens, p):
    composed = reduce(lambda a, b: a.compose(b), gens)
    expected = p
    for g in reversed(gens):
        expected = g.act_point(expected)
    assert composed.act_point(p) == expected


table_factors = st.one_of(
    st.sampled_from(preset_elements(ODO_FAMILY)),
    st.integers(-4, 4).map(FullGroupTable.odometer),
)


@given(st.lists(table_factors, min_size=1, max_size=3), points)
@settings(max_examples=100, deadline=None)
def test_table_compose_matches_pointwise(gens, p):
    composed = reduce(lambda a, b: a.compose(b), gens)
    expected = p
    for g in reversed(gens):
        expected = g.act_point(expected)
    assert composed.act_point(p) == expected
    # one point seldom meets a wrong row; the words one letter deeper than
    # the deepest factor meet every row of the composite
    depth = max(g.resolution_depth() for g in gens) + 1
    for w in itertools.product((0, 1), repeat=depth):
        expected = w
        for g in reversed(gens):
            expected = g.act_letters(expected)
        assert composed.act_letters(w) == expected


# -- rules far deeper than the interpreter's recursion limit ---------------

DEEP = 1100
ZEROS = (0,) * DEEP


def test_deep_prefix_rule_composes():
    # d swaps [0^1099 1] and [0^1100] and fixes the other cylinders of that code
    d = PrefixBijection(
        [(ZEROS[:-1] + (1,), ZEROS), (ZEROS, ZEROS[:-1] + (1,))]
        + [(ZEROS[:i] + (1,), ZEROS[:i] + (1,)) for i in range(DEEP - 1)]
    )
    s = PrefixBijection([((0,), (1,)), ((1,), (0,))])
    ds = d.compose(s)
    assert ds.resolution_depth() == DEEP
    assert ds.act_point(parse_point("1(0)")) == BoundaryPoint(ZEROS[:-1] + (1,), (0,))
    assert ds.act_point(parse_point("0(1)")) == parse_point("(1)")
    for p in ("1(0)", "0(1)", "1" + "0" * 1099 + "1(0)", "(01)"):
        assert ds.act_point(parse_point(p)) == d.act_point(s.act_point(parse_point(p)))


def test_deep_first_return_composes():
    # T is the first return to [0^1100]: it adds 2^1100 there, 0 elsewhere
    T = FullGroupTable([(ZEROS, 1 << DEEP)] + [(ZEROS[:i] + (1,), 0) for i in range(DEEP)])
    t = FullGroupTable.odometer()
    Tt = T.compose(t)
    assert Tt.resolution_depth() == DEEP
    assert Tt.act_point(parse_point("(1)")) == BoundaryPoint(ZEROS + (1,), (0,))
    assert Tt.act_point(parse_point("(0)")) == parse_point("1(0)")
    for p in ("(1)", "(0)", "1" + "0" * 1099 + "(1)", "(10)"):
        assert Tt.act_point(parse_point(p)) == T.act_point(t.act_point(parse_point(p)))


@given(st.lists(st.sampled_from("spw"), min_size=1, max_size=4), points)
@settings(max_examples=60, deadline=None)
def test_prefix_inverse_round_trip(names, p):
    gens = [PREFIX_FAMILY.generator(n) for n in names]
    composed = reduce(lambda a, b: a.compose(b), gens)
    assert composed.inverse().act_point(composed.act_point(p)) == p
    assert composed.compose(composed.inverse()).is_identity() is Tri.YES


@given(st.lists(st.sampled_from("spw"), min_size=1, max_size=4),
       st.text(alphabet="01", min_size=6, max_size=10))
@settings(max_examples=60, deadline=None)
def test_prefix_compose_matches_on_words(names, w):
    gens = [PREFIX_FAMILY.generator(n) for n in names]
    composed = reduce(lambda a, b: a.compose(b), gens)
    if len(w) < composed.resolution_depth():
        return
    expected = L(w)
    for g in reversed(gens):
        if len(expected) < g.resolution_depth():
            return
        expected = g.act_letters(expected)
    image = composed.act_letters(L(w))
    shorter = min(len(image), len(expected))
    assert image[:shorter] == expected[:shorter]


def test_localization_coheres_with_one_level_embeddings():
    # k2 and k3 are the two one-level copies of k1, so localizing them below
    # v equals localizing k1 one level deeper: k2@v == k1@(v0), k3@v == k1@(v1)
    def gen(name):
        return TreeAutomorphism.generator(GRIGORCHUK_TABLE, name)

    for path in ("", "0", "1", "01", "11"):
        lhs0 = gen(f"k1@{path}0")
        rhs0 = gen(f"k2@{path}" if path else "k2")
        assert lhs0.compose(rhs0.inverse()).is_identity(2048) is Tri.YES
        lhs1 = gen(f"k1@{path}1")
        rhs1 = gen(f"k3@{path}" if path else "k3")
        assert lhs1.compose(rhs1.inverse()).is_identity(2048) is Tri.YES


@pytest.mark.parametrize("letters,power,expected", [
    ("ad", 4, Tri.YES),
    ("ac", 8, Tri.YES),
    ("ab", 16, Tri.YES),
    ("ad", 2, Tri.NO),
    ("ac", 4, Tri.NO),
    ("ab", 8, Tri.NO),
])
def test_identity_oracle_confirms_pair_orders(letters, power, expected):
    # the orders of the generator pairs fall out of the section closure;
    # nothing in the table declares them
    assert grig_word(letters * power).is_identity(4096) is expected


preset_products = st.sampled_from(
    [preset_elements(f) for f in (grigorchuk(), PREFIX_FAMILY, ODO_FAMILY)]
).flatmap(lambda elems: st.lists(st.sampled_from(elems), min_size=1, max_size=3)).map(
    lambda gens: reduce(lambda a, b: a.compose(b), gens)
)


@given(preset_products, st.lists(st.integers(0, 1), max_size=6).map(tuple))
@settings(max_examples=200, deadline=None)
def test_act_letters_agrees_with_act_point(g, letters):
    # g maps the cylinder [w] onto the cylinder [g(w)]: the images of w0000...
    # and w1111... share the prefix g(w) and differ right after it
    try:
        image = g.act_letters(letters)
    except UnresolvedWord:
        # only a word shorter than the resolution depth can resolve no rule
        assert len(letters) < g.resolution_depth()
        return
    zeros, ones = (g.act_point(BoundaryPoint(letters, (a,))) for a in (0, 1))
    assert zeros.prefix(len(image)).letters == image
    assert first_disagreement(zeros, ones) == len(image)
