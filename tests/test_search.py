import pytest

from cantorstab import (
    Alphabet,
    Cylinder,
    EmptyRist,
    SearchBudget,
    SearchExhausted,
    Tri,
    Word,
    cylinder_orbit,
    in_rigid_stabiliser,
    local_minimality_witness,
    minimality_witness,
    parse_point,
    rist_generators,
    rist_search,
    transporter,
)
from cantorstab.presets import sibling_swap

cyl = Cylinder.from_string


def replay(word, named, start):
    """Independent replay: apply the transporter word letter by letter."""
    gens = dict(named)
    current = start
    for name, exp in word:
        g = gens[name]
        current = (g if exp == 1 else g.inverse()).act_letters(current)
    return current


# -- cylinder_orbit -------------------------------------------------------


def test_grigorchuk_orbit_depth_5(grig):
    cert = cylinder_orbit(list(grig.generators), cyl("00000"), 5)
    assert len(cert.reached) == 32 and not cert.truncated


def test_orbit_transporter_soundness(grig):
    named = list(grig.generators)
    cert = cylinder_orbit(named, cyl("000"), 3)
    for label, word in cert.reached.items():
        assert replay(word, named, (0, 0, 0)) == label


def test_odometer_orbit(odometer):
    cert = cylinder_orbit(list(odometer.generators), cyl("0"), 1)
    assert sorted(cert.reached) == [(0,), (1,)]


def test_empty_generators_orbit():
    cert = cylinder_orbit([], cyl("01"), 2)
    assert sorted(cert.reached) == [(0, 1)]


def test_orbit_with_depth_changing_generators(prefix_family):
    cert = cylinder_orbit(list(prefix_family.generators), cyl("00"), 2)
    assert len(cert.reached) == 4


def test_bfs_optimality_against_brute_force(grig):
    # shortest words by exhaustive products, compared with BFS transporters
    named = [(n, grig.generator(n)) for n in "ab"]
    depth = 3
    seed = Word.from_string("000")
    cert = cylinder_orbit(named, Cylinder(seed), depth)
    shortest = {seed.letters: 0}
    frontier = {seed.letters}
    for length in range(1, 7):
        nxt = set()
        for node in frontier:
            for _, g in named:
                image = g.act_letters(node)
                if image not in shortest:
                    shortest[image] = length
                    nxt.add(image)
        frontier = nxt
    for label, word in cert.reached.items():
        if label in shortest:
            assert len(word) == shortest[label]


def test_orbit_determinism(grig):
    a = cylinder_orbit(list(grig.generators), cyl("0000"), 4)
    b = cylinder_orbit(list(grig.generators), cyl("0000"), 4)
    assert a == b


# -- minimality witness ----------------------------------------------------


def test_grigorchuk_minimality_depth_4(grig):
    assert minimality_witness(list(grig.generators), 4).ok


def test_a_alone_is_not_minimal(grig):
    witness = minimality_witness([("a", grig.generator("a"))], 2)
    assert not witness.ok
    cert = witness.certificates[(0, 0)]
    assert (0, 1) not in cert.reached


def test_minimality_depth_zero_vacuous(grig):
    assert minimality_witness(list(grig.generators), 0).ok


def test_odometer_minimality(odometer):
    assert minimality_witness(list(odometer.generators), 4).ok


def test_prefix_family_minimality(prefix_family):
    assert minimality_witness(list(prefix_family.generators), 3).ok


# -- rist search ------------------------------------------------------------


def test_rist_search_finds_d_in_complement_of_zero(grig):
    found = rist_search(grig, cyl("1"), SearchBudget(max_word_len=4), 256)
    words = {"".join(n for n, _ in w) for w, _ in found}
    assert "d" in words


def test_rist_search_soundness_with_doubled_budget(grig):
    found = rist_search(grig, cyl("1"), SearchBudget(max_word_len=4), 256)
    for _, elem in found:
        assert in_rigid_stabiliser(elem, cyl("1"), 512) is Tri.YES
        assert elem.is_identity(512) is Tri.NO


def test_rist_search_whole_space_returns_nonidentity_words(grig):
    found = rist_search(grig, cyl(""), SearchBudget(max_word_len=2), 256)
    assert len(found) == 4 + 12  # every reduced nonempty word, none identity


# -- rist generators (oracle) ------------------------------------------------


def test_grig_oracle_supplies_verified_generators(grig):
    gens = rist_generators(grig, cyl("01"))
    assert len(gens) == 3
    for g in gens:
        assert in_rigid_stabiliser(g, cyl("01"), 512) is Tri.YES


def test_odometer_oracle_first_return(odometer):
    gens = rist_generators(odometer, cyl("0"))
    assert len(gens) == 1
    r = gens[0]
    # the return power to a depth-1 cylinder is 2
    assert r.act_point(parse_point("(0)")) == parse_point("01(0)")
    assert in_rigid_stabiliser(r, cyl("0"), 8) is Tri.YES


def test_odometer_oracle_deep_cylinder(odometer):
    # the first return to a depth-7 cylinder is the odometer power 2^7
    u = cyl("0110100")
    [r] = odometer.rist_oracle(u)
    assert dict(r.rows)[u.prefix.letters] == 1 << 7
    assert in_rigid_stabiliser(r, u, 8) is Tri.YES


def test_prefix_oracle_sibling_swaps(prefix_family):
    gens = rist_generators(prefix_family, cyl("1"))
    assert gens
    swap = gens[0]
    assert swap.act_letters((1, 0)) == (1, 1)
    assert in_rigid_stabiliser(swap, cyl("1"), 8) is Tri.YES


def test_sibling_swap_structure():
    swap = sibling_swap(Word.from_string("01"))
    assert swap.act_letters((0, 1, 0)) == (0, 1, 1)
    assert swap.act_letters((1,)) == (1,)
    assert swap.compose(swap).is_identity() is Tri.YES


def test_empty_rist_is_fatal():
    # a family with no oracle whose single generator never lies in a proper rist
    from cantorstab import FullGroupTable
    from cantorstab.engine import GroupFamily

    bare = GroupFamily(
        name="bare-odometer",
        alphabet=Alphabet(2),
        generators=(("t", FullGroupTable.odometer()),),
    )
    with pytest.raises(EmptyRist):
        rist_generators(bare, cyl("0"), SearchBudget(max_word_len=4))


# -- transporter --------------------------------------------------------------


def test_transporter_single_step(odometer):
    t = odometer.generator("t")
    h = transporter([t], parse_point("(0)"), Word.from_string("1"))
    assert h == t


def test_transporter_identity_when_already_there(grig):
    h = transporter(
        [grig.generator("b")], parse_point("(0)"), parse_point("(0)").prefix(3),
        identity=grig.identity,
    )
    assert h.is_identity(64) is Tri.YES


def test_transporter_within_reachable_piece(grig):
    # rist([1]) orbits stay below the next letter of the current point;
    # a same-piece target is reachable
    gens = rist_generators(grig, cyl("1"))
    h = transporter(gens, parse_point("1(0)"), Word.from_string("101"))
    assert h.act_point(parse_point("1(0)")).prefix(3) == Word.from_string("101")


def test_transporter_cross_piece_target_exhausts(grig):
    # ... but the sibling piece [11] is out of reach for rist([1])
    gens = rist_generators(grig, cyl("1"))
    with pytest.raises(SearchExhausted):
        transporter(
            gens, parse_point("1(0)"), Word.from_string("11"),
            SearchBudget(max_word_len=6, max_states=3000),
        )


def test_transporter_soundness(grig):
    gens = rist_generators(grig, cyl("0"))
    target = Word.from_string("0010")
    h = transporter(gens, parse_point("(0)"), target)
    assert h.act_point(parse_point("(0)")).prefix(4) == target
    assert in_rigid_stabiliser(h, cyl("0"), 512) is Tri.YES


# -- local minimality witness ---------------------------------------------------


def test_local_minimality_vacuous_at_own_depth(grig):
    assert local_minimality_witness(grig, cyl("1"), 1).ok


def test_local_minimality_grigorchuk_splits_one_level_down(grig):
    # rigid-stabiliser orbits below [1] preserve the next letter, so the
    # depth-2 witness over all of [1] must fail...
    assert not local_minimality_witness(grig, cyl("1"), 2).ok
    # ... and the certificates show each half staying put
    witness = local_minimality_witness(grig, cyl("1"), 3)
    cert = witness.certificates[(1, 0, 0)]
    assert all(label[:2] == (1, 0) for label in cert.reached)
    assert set(cert.reached) == {(1, 0, 0), (1, 0, 1)}


def test_local_minimality_odometer(odometer):
    assert local_minimality_witness(odometer, cyl("0"), 3).ok


def test_local_minimality_prefix_family(prefix_family):
    assert local_minimality_witness(prefix_family, cyl("1"), 3).ok


def test_single_swap_is_not_locally_minimal():
    # one swap inside [1] generates a two-cylinder orbit at depth 3
    swap = sibling_swap(Word.from_string("1"))
    cert = cylinder_orbit([("s", swap)], cyl("100"), 3)
    assert set(cert.reached) == {(1, 0, 0), (1, 1, 0)}


def test_oracle_output_is_rechecked(grig):
    # an oracle returning a non-rist element must be caught at use time
    from cantorstab.engine import GroupFamily
    from cantorstab.search import OracleError

    lying = GroupFamily(
        name="lying",
        alphabet=grig.alphabet,
        generators=grig.generators,
        rist_oracle=lambda u: [grig.generator("a")],
    )
    with pytest.raises(OracleError):
        rist_generators(lying, cyl("0"))
