import json
import random

import pytest

from cantorstab import (
    BoundaryPoint,
    BuildBudgets,
    DepthSchedule,
    NotInNeighbourhoodStabiliser,
    SearchBudget,
    Tri,
    build_conjugator,
    conjugate_element,
    conjugation_suite,
    contains_point,
    eval_limit,
    eval_limit_inverse,
    fixes_cylinder_pointwise,
    load_preset,
    parse_point,
    verify_certificate,
)

from cantorstab import serialize
from cantorstab.conjugator import rist_samples
from conftest import grig_gen, grig_word, mutate, with_corrections
from test_golden import GOLDEN

pt = parse_point


@pytest.fixture(scope="module")
def grig_cert(grig):
    return build_conjugator(grig, pt("(0)"), pt("(01)"), DepthSchedule.unit_steps(8))


@pytest.fixture(scope="module")
def odometer_cert(odometer):
    return build_conjugator(odometer, pt("(0)"), pt("(1)"), DepthSchedule.unit_steps(6))


# -- building ----------------------------------------------------------------


def test_grig_build_stage_invariants(grig, grig_cert):
    cert = grig_cert
    x, y = cert.x, cert.y
    assert len(cert.stages) == 9
    for prev, stage in zip(cert.stages, cert.stages[1:]):
        assert stage.u.depth == stage.depth
        assert contains_point(stage.u, x) and contains_point(stage.v, y)
        assert stage.g.act_letters(stage.u.prefix.letters) == stage.v.prefix.letters
        assert stage.g.act_point(x).prefix(stage.depth) == y.prefix(stage.depth)


def test_identity_certificate(grig):
    cert = build_conjugator(grig, pt("(0)"), pt("(0)"), DepthSchedule.unit_steps(3))
    assert all(s.h.is_identity(64) is Tri.YES for s in cert.stages)
    assert verify_certificate(cert).ok
    z = pt("1(10)")
    assert eval_limit(cert, z).point == z


def test_odometer_build_and_verify(odometer_cert):
    assert verify_certificate(odometer_cert).ok


# -- verification -------------------------------------------------------------


def test_grig_verify_all_pass(grig_cert):
    report = verify_certificate(grig_cert)
    assert report.ok, report.failures()


@pytest.mark.parametrize("family, x, y, depth", [
    ("grigorchuk", "(0)", "(01)", 40),
    ("grigorchuk", "(0)", "(01)", 128),
    ("prefix-v", "(0)", "1(01)", 12),
    # the first return to a depth-d cylinder is the odometer power 2^d
    ("odometer-full", "(0)", "(1)", 32),
    ("odometer-full", "(0)", "(01)", 32),
])
def test_deep_certificate_builds_and_verifies(family, x, y, depth):
    # rist checks walk the (|X|-1)*d siblings of U and V, not all |X|^d
    # cylinders of depth d, so deep schedules stay cheap
    cert = build_conjugator(load_preset(family), pt(x), pt(y), DepthSchedule.unit_steps(depth))
    report = verify_certificate(cert)
    assert len(cert.stages) == depth + 1
    assert report.ok, report.failures()


def test_transporter_word_cap_is_exact(grig):
    from cantorstab import ConjugatorBuildError

    def build(max_word_len):
        budgets = BuildBudgets(transporter=SearchBudget(max_word_len, 20000))
        return build_conjugator(grig, pt("(0)"), pt("11(0)"), DepthSchedule.unit_steps(4), budgets)

    with pytest.raises(ConjugatorBuildError, match="no product of length <= 1 reaches"):
        build(1)
    assert build(3).stages == build(18).stages


def test_verify_detects_h_not_in_chain(grig):
    # k2@V_2 lies in rist(V_2), so in a v1 file only the stored g_3, which
    # is no longer h_3 g_2, shows the change; the v1 reader rejects it
    body = json.loads((GOLDEN / "v1" / "conjugate-grigorchuk.json").read_text())
    body["stages"][3]["h"] = {"kind": "word", "word": f"k2@{body['stages'][2]['V']}"}
    with pytest.raises(ValueError, match="stage 3: stored g differs"):
        serialize.certificate_from_v1(body, grig)


def test_verify_detects_composed_generator(grig, grig_cert):
    # replace h_2 by h_2 * a: the root swap leaves rist(V_1)
    corrections = [(s.depth, s.h) for s in grig_cert.stages]
    corrections[2] = (2, corrections[2][1].compose(grig.generator("a")))
    report = verify_certificate(with_corrections(grig_cert, corrections))
    assert not report.ok
    assert statuses(report, 2)["rist"] == "FAIL"


def statuses(report, stage):
    return {r.condition: r.status for r in report.results if r.stage == stage}


def test_verify_detects_change_below_depth_outside_u(grig, grig_cert):
    # h_3 * g_2 * k1@10 * g_2^-1 derives g_3 * k1@10; k1@10 fixes every word
    # of length 3, so g_3 keeps its words at depth d_3 = 3, but it differs
    # from g_2 below [10], which is disjoint from U_2, so h_3 moves points
    # outside V_2
    assert grig_cert.stages[2].u.prefix.letters == (0, 0)
    g2 = grig_cert.stages[2].g
    corrections = [(s.depth, s.h) for s in grig_cert.stages]
    h3 = corrections[3][1].compose(g2).compose(grig_gen("k1@10")).compose(g2.inverse())
    corrections[3] = (3, h3)
    bad = with_corrections(grig_cert, corrections)
    assert bad.stages[3].g == grig_cert.stages[3].g.compose(grig_gen("k1@10"))
    found = statuses(verify_certificate(bad), 3)
    assert found["depth"] == found["y-in-V"] == found["nesting"] == "PASS"
    assert found["rist"] == "FAIL"


def test_verify_zero_stage_certificate(grig):
    cert = build_conjugator(grig, pt("(1)"), pt("(1)"), DepthSchedule((1,)))
    assert verify_certificate(cert).ok


def test_mutation_detection(grig, grig_cert):
    rng = random.Random(20240)
    for _ in range(20):
        bad, what = mutate(grig_cert, rng, grig)
        report = verify_certificate(bad)
        assert not report.ok, f"mutation {what} went undetected"


def test_mutation_detection_odometer(odometer, odometer_cert):
    rng = random.Random(33)
    for _ in range(10):
        bad, what = mutate(odometer_cert, rng, odometer)
        assert not verify_certificate(bad).ok, f"mutation {what} went undetected"


# -- limit evaluation -----------------------------------------------------------


def test_eval_limit_at_x_returns_certified_prefix(grig_cert):
    value = eval_limit(grig_cert, grig_cert.x)
    assert not value.exact
    assert value.prefix == grig_cert.y.prefix(8)
    assert value.limit_point == grig_cert.y


def test_eval_limit_outside_u1_uses_stage_1(grig_cert):
    z = pt("1(0)")
    value = eval_limit(grig_cert, z)
    assert value.exact and value.stage_used == 1
    assert value.point == grig_cert.stages[1].g.act_point(z)


def test_eval_limit_deep_inside_last_u(grig_cert):
    z = pt("000000000(10)")  # inside U_8, not equal to x
    value = eval_limit(grig_cert, z)
    assert not value.exact
    assert value.prefix == grig_cert.stages[-1].v.prefix


def test_eval_limit_round_trip(grig_cert):
    rng = random.Random(5)
    for _ in range(50):
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        z = BoundaryPoint(pre, per)
        if contains_point(grig_cert.stages[1].u, z):
            z = BoundaryPoint((1,) + pre, per)
        image = eval_limit(grig_cert, z)
        assert image.exact
        back = eval_limit_inverse(grig_cert, image.point)
        assert back.exact and back.point == z


def test_eval_limit_inverse_at_y(grig_cert):
    value = eval_limit_inverse(grig_cert, grig_cert.y)
    assert value.prefix == grig_cert.x.prefix(8)
    assert value.limit_point == grig_cert.x


def test_stability_under_extension(grig):
    short = build_conjugator(grig, pt("(0)"), pt("(01)"), DepthSchedule.unit_steps(6))
    long = build_conjugator(grig, pt("(0)"), pt("(01)"), DepthSchedule.unit_steps(8))
    rng = random.Random(11)
    checked = 0
    while checked < 40:
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        z = BoundaryPoint(pre, per)
        if contains_point(short.stages[-1].u, z):
            continue
        a = eval_limit(short, z)
        b = eval_limit(long, z)
        assert a.exact and b.exact and a.point == b.point
        checked += 1


def test_extension_preserves_stage_prefix(grig):
    short = build_conjugator(grig, pt("(0)"), pt("(01)"), DepthSchedule.unit_steps(6))
    long = build_conjugator(grig, pt("(0)"), pt("(01)"), DepthSchedule.unit_steps(8))
    for s, l in zip(short.stages, long.stages):
        assert s.u == l.u and s.v == l.v
        assert s.g.compose(l.g.inverse()).is_identity(512) is Tri.YES


# -- conjugation -----------------------------------------------------------------


def test_conjugate_d_lands_in_target_stabiliser(grig, grig_cert):
    d = grig.generator("d")
    result = conjugate_element(grig_cert, d)
    assert result.stage_index == 1
    assert result.image_check is Tri.YES
    assert fixes_cylinder_pointwise(
        result.conjugate, grig_cert.stages[1].v, 512
    ) is Tri.YES


def test_conjugate_through_identity_certificate(grig):
    cert = build_conjugator(grig, pt("(0)"), pt("(0)"), DepthSchedule.unit_steps(3))
    d = grig.generator("d")
    result = conjugate_element(cert, d)
    assert result.conjugate.compose(d.inverse()).is_identity(512) is Tri.YES


def test_conjugate_rejects_nontrivial_germ(grig):
    cert = build_conjugator(grig, pt("(1)"), pt("(1)"), DepthSchedule.unit_steps(3))
    with pytest.raises(NotInNeighbourhoodStabiliser):
        conjugate_element(cert, grig.generator("b"))


def test_conjugation_suite_passes_on_rist_samples(grig, grig_cert):
    samples = rist_samples(grig, grig_cert, 30)
    assert len(samples) == 30
    report = conjugation_suite(grig_cert, samples)
    counts = report.counts()
    assert counts["PASS"] == 30 and counts["FAIL"] == 0 and counts["UNKNOWN"] == 0


def test_conjugation_suite_skips_non_stabilisers(grig, grig_cert):
    report = conjugation_suite(grig_cert, [grig.generator("a")])
    assert report.entries[0].status == "SKIPPED"


def test_conjugation_suite_empty(grig_cert):
    report = conjugation_suite(grig_cert, [])
    assert report.entries == () and report.ok


# -- failure modes -----------------------------------------------------------------


def test_builder_unreachable_target_reports_stage(grig):
    # aiming the build at a point in the unreachable sibling piece must fail
    # loudly once the margin cannot be satisfied
    from cantorstab import ConjugatorBuildError
    from cantorstab.engine import GroupFamily

    crippled = GroupFamily(
        name="grig-no-oracle",
        alphabet=grig.alphabet,
        generators=grig.generators,
        rist_oracle=lambda u: [grig_word("ada")] if u.depth == 0 else [],
        classifier=None,
        transporter_margin=1,
    )
    budgets = BuildBudgets(
        transporter=SearchBudget(max_word_len=5, max_states=500),
        rist=SearchBudget(max_word_len=3, max_states=500),
    )
    with pytest.raises(ConjugatorBuildError) as info:
        build_conjugator(crippled, pt("(0)"), pt("(1)"), DepthSchedule.unit_steps(4),
                         budgets, warn_on_nonminimal=False)
    assert info.value.partial.stages  # partial certificate is attached


def test_builder_warns_on_nonminimal_family(grig):
    import warnings

    from cantorstab.engine import GroupFamily

    # d fixes the first letter, so depth-1 transitivity already fails
    stuck = GroupFamily(
        name="only-d",
        alphabet=grig.alphabet,
        generators=(("d", grig.generator("d")),),
        rist_oracle=lambda u: [grig.generator("d")] if u.depth == 0 else [],
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            build_conjugator(stuck, pt("(0)"), pt("(0)"), DepthSchedule.unit_steps(1))
        except Exception:
            pass
    assert any("minimality" in str(w.message) for w in caught)


def test_prefix_family_certificate_end_to_end(prefix_family):
    cert = build_conjugator(
        prefix_family, pt("(0)"), pt("(1)"), DepthSchedule.unit_steps(4)
    )
    assert verify_certificate(cert).ok
    for text in ("1(0)", "(10)", "01(1)"):
        z = pt(text)
        if contains_point(cert.stages[1].u, z):
            continue
        image = eval_limit(cert, z)
        assert image.exact
        back = eval_limit_inverse(cert, image.point)
        assert back.exact and back.point == z
