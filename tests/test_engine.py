import pytest
from hypothesis import given, settings, strategies as st

from cantorstab import (
    Alphabet,
    AlphabetMismatch,
    Cylinder,
    FullGroupTable,
    GermKind,
    GermVerdict,
    PointClass,
    TreeAutomorphism,
    Tri,
    Word,
    classify_point,
    cylinders_at_depth,
    fixes_cylinder_pointwise,
    germ_classes,
    in_neighbourhood_stabiliser,
    in_rigid_stabiliser,
    parse_point,
    stabilises,
)
from cantorstab.elements import tri_all
from cantorstab.engine import DEFAULT_ID_BUDGET, generator_moves, reduced_generator_words
from cantorstab.presets import GRIGORCHUK_TABLE, PRESETS

from conftest import L, grig_gen, grig_word, table

cyl = Cylinder.from_string
pt = parse_point


# -- stabilises ----------------------------------------------------------


def test_stabilises_b_fixes_ones(grig):
    assert stabilises(grig.generator("b"), pt("(1)")) is Tri.YES


def test_stabilises_a_moves_ones(grig):
    assert stabilises(grig.generator("a"), pt("(1)")) is Tri.NO


def test_stabilises_identity(grig):
    for text in ("(0)", "(1)", "01(10)"):
        assert stabilises(grig.identity, pt(text)) is Tri.YES


# -- fixes_cylinder_pointwise ---------------------------------------------


def test_fixes_cylinder_examples(grig):
    assert fixes_cylinder_pointwise(grig.generator("d"), L("0"), 64) is Tri.YES
    assert fixes_cylinder_pointwise(grig.generator("b"), L("0"), 64) is Tri.NO
    assert fixes_cylinder_pointwise(grig.identity, L("1"), 1) is Tri.YES


def test_fixes_cylinder_refines_below_resolution(odometer):
    # depth-1 cylinder, resolution-2 element: verdict via refinement
    g = table(("00", 0), ("01", 0), ("1", 0))
    assert fixes_cylinder_pointwise(g, L("0"), 8) is Tri.YES
    swap = table(("00", 2), ("01", -2), ("1", 0))
    assert fixes_cylinder_pointwise(swap, L("0"), 8) is Tri.NO


# -- in_rigid_stabiliser ---------------------------------------------------


def test_rigid_stabiliser_examples(grig):
    d = grig.generator("d")
    assert in_rigid_stabiliser(d, cyl("0"), 64) is Tri.NO
    assert in_rigid_stabiliser(d, cyl("1"), 256) is Tri.YES
    assert in_rigid_stabiliser(grig.generator("a"), cyl("0"), 64) is Tri.NO
    assert in_rigid_stabiliser(grig.identity, cyl("01"), 1) is Tri.YES


def test_rigid_stabiliser_checks_alphabet(grig):
    # checked once on entry, also where the complement is empty
    for prefix in ((), (2,)):
        with pytest.raises(AlphabetMismatch):
            in_rigid_stabiliser(grig.identity, Cylinder(Word(prefix, Alphabet(3))))


# -- definitional references -----------------------------------------------
# Rigid-stabiliser membership spelt out: every depth-d cylinder other than
# u, each refined down to the element's resolution depth.  It costs |X|^d,
# so it only cross-checks the sibling-complement test.  Neighbourhood-
# stabiliser membership spelt out: each depth up to a cap tested from the
# root, which only cross-checks the walk along x.


def reference_fixes_cylinder_pointwise(g, prefix, budget=DEFAULT_ID_BUDGET):
    if len(prefix) < g.resolution_depth():
        return tri_all(
            reference_fixes_cylinder_pointwise(g, prefix + (a,), budget)
            for a in g.alphabet.letters()
        )
    if g.act_letters(prefix) != prefix:
        return Tri.NO
    return g.section(prefix).is_identity(budget)


def reference_in_rigid_stabiliser(g, u, budget=DEFAULT_ID_BUDGET):
    return tri_all(
        reference_fixes_cylinder_pointwise(g, p, budget)
        for p in cylinders_at_depth(u.alphabet, u.depth)
        if p != u.prefix.letters
    )


def reference_in_neighbourhood_stabiliser(g, x, max_depth, budget=DEFAULT_ID_BUDGET):
    """TRIVIAL(n) for the least n <= max_depth whose cylinder g fixes
    pointwise; NONTRIVIAL(max_depth) when every depth up to the cap
    definitely fails, which says nothing of deeper ones."""
    st = stabilises(g, x)
    if st is not Tri.YES:
        return GermVerdict(GermKind.NOT_IN_STABILISER if st is Tri.NO else GermKind.UNKNOWN)
    saw_unknown = False
    for n in range(1, max_depth + 1):
        verdict = reference_fixes_cylinder_pointwise(g, x.prefix(n).letters, budget)
        if verdict is Tri.YES:
            return GermVerdict(GermKind.TRIVIAL, n)
        saw_unknown |= verdict is Tri.UNKNOWN
    return GermVerdict(GermKind.UNKNOWN if saw_unknown else GermKind.NONTRIVIAL, max_depth)


FAMILIES = {name: load() for name, load in PRESETS.items()}
prefixes = st.lists(st.integers(0, 1), max_size=4).map(lambda p: Cylinder(Word(tuple(p))))


@given(st.sampled_from(sorted(FAMILIES)), prefixes, prefixes, st.data())
@settings(max_examples=150, deadline=None)
def test_rist_membership_matches_reference(name, u, v, data):
    # short words over the generators and the oracle's rist generators of
    # u and of v, so that YES verdicts are common too
    family = FAMILIES[name]
    pool = [g for _, g in family.moves()] + family.rist_oracle(u) + family.rist_oracle(v)
    g = family.identity
    for i in data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=4)):
        g = g.compose(pool[i])
    assert in_rigid_stabiliser(g, u) is reference_in_rigid_stabiliser(g, u)
    p = u.prefix.letters
    assert fixes_cylinder_pointwise(g, p) is reference_fixes_cylinder_pointwise(g, p)
    # a tight budget may leave either side UNKNOWN, never two definite
    # verdicts that disagree
    for budget in (1, 4):
        verdicts = {in_rigid_stabiliser(g, u, budget), reference_in_rigid_stabiliser(g, u, budget)}
        assert verdicts != {Tri.YES, Tri.NO}


def test_rist_tight_budget_may_leave_unknown(grig):
    # d = (1, b) fixes [1] only if its section b is the identity; with room
    # for one section word that stays open, while the depth-2 cylinder [10]
    # shows at once that b moves it
    d = grig.generator("d")
    assert in_rigid_stabiliser(d, cyl("00"), 1) is Tri.UNKNOWN
    assert reference_in_rigid_stabiliser(d, cyl("00"), 1) is Tri.NO
    assert in_rigid_stabiliser(d, cyl("00")) is Tri.NO


# -- in_neighbourhood_stabiliser -------------------------------------------


def test_nbhd_d_trivial_at_zero_ray(grig):
    verdict = in_neighbourhood_stabiliser(grig.generator("d"), pt("(0)"), 64)
    assert verdict.kind is GermKind.TRIVIAL and verdict.depth == 1


def test_nbhd_b_nontrivial_on_ones(grig):
    verdict = in_neighbourhood_stabiliser(grig.generator("b"), pt("(1)"), 256)
    assert verdict.kind is GermKind.NONTRIVIAL and verdict.depth is None


def test_nbhd_a_not_in_stabiliser(grig):
    verdict = in_neighbourhood_stabiliser(grig.generator("a"), pt("(1)"), 64)
    assert verdict.kind is GermKind.NOT_IN_STABILISER


GERM_POINTS = ("(1)", "0(1)", "(0)", "(01)", "1(0)")


@given(st.sampled_from(sorted(FAMILIES)), st.sampled_from(GERM_POINTS), st.data())
@settings(max_examples=200, deadline=None)
def test_nbhd_walk_matches_reference(name, point, data):
    family = FAMILIES[name]
    moves = [g for _, g in family.moves()]
    g = family.identity
    for i in data.draw(st.lists(st.integers(0, len(moves) - 1), max_size=6)):
        g = g.compose(moves[i])
    x = pt(point)
    walk = in_neighbourhood_stabiliser(g, x)
    reference = reference_in_neighbourhood_stabiliser(g, x, 40)
    assert walk.kind is not GermKind.UNKNOWN
    if walk.kind is GermKind.NONTRIVIAL:
        assert reference == GermVerdict(GermKind.NONTRIVIAL, 40)
    else:
        assert walk == reference
    # a tight budget may leave the walk UNKNOWN, or find a deeper witness
    # than the least one, never contradict the default budget
    for budget in (1, 4):
        tight = in_neighbourhood_stabiliser(g, x, budget)
        if tight.kind is GermKind.TRIVIAL:
            assert walk.kind is GermKind.TRIVIAL and walk.depth <= tight.depth
        elif tight.kind is not GermKind.UNKNOWN:
            assert tight == walk


def test_witness_deeper_than_old_bound():
    # k1 below [0^34 1] fixes [0^35] pointwise but moves points of [0^34];
    # the walk along (0) reaches its identity section at depth 35
    g = grig_gen("k1@" + "0" * 34 + "1")
    verdict = in_neighbourhood_stabiliser(g, pt("(0)"))
    assert str(verdict) == "trivial(35)"
    assert verdict == reference_in_neighbourhood_stabiliser(g, pt("(0)"), 40)


def test_nbhd_consistency(grig):
    # TRIVIAL(n) implies stabilises and a depth-n pointwise fix
    g = grig_word("ada")
    verdict = in_neighbourhood_stabiliser(g, pt("(1)"), 256)
    assert verdict.kind is GermKind.TRIVIAL
    assert stabilises(g, pt("(1)")) is Tri.YES
    assert fixes_cylinder_pointwise(g, pt("(1)").prefix(verdict.depth).letters, 256) is Tri.YES


# -- germ classes ------------------------------------------------------------


def test_germ_classes_singular_point(grig):
    report = germ_classes(grig, pt("(1)"), max_word_len=4, budget=256)
    assert report.lower_bound >= 4
    reps = {"".join(n for n, _ in c.representative_word) for c in report.classes}
    assert {"", "b", "c", "d"} <= reps
    for i, j, verdict in report.separations:
        assert verdict.kind is GermKind.NONTRIVIAL


def test_germ_classes_regular_point(grig):
    report = germ_classes(grig, pt("(0)"), max_word_len=6, budget=512)
    assert report.lower_bound == 1
    assert report.classes[0].verdict.kind is GermKind.TRIVIAL
    assert not report.classes[0].provisional


def test_germ_classes_no_stabilisers_is_identity_class(odometer):
    report = germ_classes(odometer, pt("(01)"), max_word_len=4)
    assert report.lower_bound == 1
    assert report.classes[0].representative_word == ()


def test_germ_quotient_bc_equals_d_class(grig):
    # b*c has the same germ as d at the all-ones point
    report = germ_classes(grig, pt("(1)"), max_word_len=2, budget=256)
    by_rep = {"".join(n for n, _ in c.representative_word): c for c in report.classes}
    d_class = by_rep["d"]
    assert any("".join(n for n, _ in w) == "bc" for w in d_class.members)


# -- normality ----------------------------------------------------------------


def test_normality_witness(grig):
    x = pt("(1)")
    trivial = grig_word("ada")  # supported inside [0], trivial germ at the ones ray
    for h_letters in ("b", "c", "d", "bc", "db"):
        h = grig_word(h_letters)
        if stabilises(h, x) is not Tri.YES:
            continue
        conj = h.compose(trivial).compose(h.inverse())
        verdict = in_neighbourhood_stabiliser(conj, x, 512)
        assert verdict.kind is GermKind.TRIVIAL


# -- three-valued monotonicity -------------------------------------------------


@given(st.text(alphabet="abcd", min_size=1, max_size=5))
@settings(max_examples=40, deadline=None)
def test_identity_budget_monotonicity(letters):
    g = grig_word(letters)
    verdicts = [g.is_identity(b) for b in (1, 4, 16, 64, 256, 1024)]
    definite = [v for v in verdicts if v is not Tri.UNKNOWN]
    assert all(v is definite[0] for v in definite)


def test_germ_depth_monotonicity(grig):
    # the depth-by-depth reference finds the walk's witness under every cap
    # at least that deep
    g = grig_word("ada")
    x = pt("(1)")
    verdict = in_neighbourhood_stabiliser(g, x, 256)
    assert verdict.kind is GermKind.TRIVIAL
    for cap in (verdict.depth, 5, 20):
        assert reference_in_neighbourhood_stabiliser(g, x, cap, 256) == verdict


# -- classify -----------------------------------------------------------------


def test_classify_preset_rule(grig):
    assert classify_point(grig, pt("(1)")) is PointClass.SINGULAR
    assert classify_point(grig, pt("(0)")) is PointClass.REGULAR
    assert classify_point(grig, pt("0110(1)")) is PointClass.SINGULAR
    assert classify_point(grig, pt("111(01)")) is PointClass.REGULAR


def test_classify_odometer_always_regular(odometer):
    for text in ("(0)", "(1)", "01(10)"):
        assert classify_point(odometer, pt(text)) is PointClass.REGULAR


def test_classify_without_rule(prefix_family):
    assert classify_point(prefix_family, pt("(0)")) is PointClass.NO_RULE


# -- enumeration ---------------------------------------------------------------


def test_reduced_words_shortlex_and_reduced(grig):
    words = [w for w, _ in reduced_generator_words(grig, 3)]
    assert words[0] == ()
    lengths = [len(w) for w in words]
    assert lengths == sorted(lengths)
    # involutive generators never repeat adjacently
    for w in words:
        for u, v in zip(w, w[1:]):
            assert u[0] != v[0]
    # counts: 4 letters, then 4*3 two-letter words, 4*9 three-letter
    assert lengths.count(1) == 4 and lengths.count(2) == 12 and lengths.count(3) == 36


def test_involutive_detection(grig, odometer, prefix_family):
    # an involution contributes its letter only, any other generator its
    # inverse too; a nonzero odometer power is never involutive
    assert [letter for letter, _ in grig.moves()] == [(n, 1) for n in "abcd"]
    assert [letter for letter, _ in odometer.moves()] == [("t", 1), ("t", -1)]
    assert [letter for letter, _ in prefix_family.moves()] == [("s", 1), ("p", 1), ("p", -1), ("w", 1)]
    big = FullGroupTable.odometer(40)
    assert [letter for letter, _ in generator_moves([("u", big)])] == [("u", 1), ("u", -1)]
    # the first return to [011] adds 8 there: its inverse subtracts 8
    (first_return,) = odometer.rist_oracle(cyl("011"))
    assert [letter for letter, _ in generator_moves([("r", first_return)])] == [("r", 1), ("r", -1)]
    # a localized copy of an involution is one, of k1 (order 4) is not
    localized = [(n, TreeAutomorphism.generator(GRIGORCHUK_TABLE, n)) for n in ("a@0", "k1@0")]
    assert [letter for letter, _ in generator_moves(localized)] == [("a@0", 1), ("k1@0", 1), ("k1@0", -1)]
    assert grig.moves() is grig.moves()


def test_tiny_budget_yields_provisional_classes(grig):
    # with an identity budget of 1 every section check exhausts, so class
    # separations rest on UNKNOWN verdicts and must be flagged provisional
    report = germ_classes(grig, pt("(1)"), max_word_len=1, budget=1)
    multi = [c for c in report.classes if c.representative_word]
    assert multi
    assert all(c.provisional for c in multi)
