"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import random
import time

import pytest

from cantorstab import (
    BoundaryPoint,
    DepthSchedule,
    GermKind,
    PointClass,
    Tri,
    build_conjugator,
    classify_point,
    conjugation_suite,
    contains_point,
    eval_limit,
    eval_limit_inverse,
    germ_classes,
    grigorchuk,
    in_neighbourhood_stabiliser,
    minimality_witness,
    odometer_full,
    parse_point,
    stabilises,
    verify_certificate,
)
from cantorstab.engine import reduced_generator_words
from cantorstab import serialize

from cantorstab.conjugator import rist_samples
from conftest import grig_word, mutate

pt = parse_point


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS — {text}")


@pytest.fixture(scope="module")
def grig():
    return grigorchuk()


@pytest.fixture(scope="module")
def odometer():
    return odometer_full()


@pytest.fixture(scope="module")
def grig_cert(grig):
    return build_conjugator(grig, pt("(0)"), pt("(01)"), DepthSchedule.unit_steps(8))


@pytest.fixture(scope="module")
def odometer_cert(odometer):
    return build_conjugator(odometer, pt("(0)"), pt("(1)"), DepthSchedule.unit_steps(6))


def test_criterion_1_level_transitivity(grig):
    start = time.monotonic()
    witness = minimality_witness(list(grig.generators), 5)
    elapsed = time.monotonic() - start
    assert witness.ok and not witness.truncated
    for seed, cert in witness.certificates.items():
        assert len(cert.reached) == 32, seed
    assert elapsed < 5.0, f"took {elapsed:.2f}s"
    report(1, f"all 32 depth-5 cylinders reached from every seed in {elapsed:.2f}s")


def test_criterion_2_defining_relations():
    timings = []
    for letters, expected, budget in [
        ("aa", Tri.YES, 512),
        ("bb", Tri.YES, 512),
        ("cc", Tri.YES, 512),
        ("dd", Tri.YES, 512),
        ("bcd", Tri.YES, 512),
        ("a", Tri.NO, 512),
        ("b", Tri.NO, 512),
        ("c", Tri.NO, 512),
        ("d", Tri.NO, 512),
        ("ab", Tri.NO, 512),
    ]:
        start = time.monotonic()
        verdict = grig_word(letters).is_identity(budget)
        elapsed = time.monotonic() - start
        assert verdict is expected, letters
        assert elapsed < 1.0, f"{letters} took {elapsed:.2f}s"
        timings.append(elapsed)
    report(2, f"10 identity-oracle verdicts, max {max(timings) * 1000:.1f}ms")


def test_criterion_3_classification(grig):
    assert classify_point(grig, pt("(1)")) is PointClass.SINGULAR
    assert classify_point(grig, pt("(0)")) is PointClass.REGULAR
    verdict = in_neighbourhood_stabiliser(grig.generator("b"), pt("(1)"), 256)
    assert verdict.kind is GermKind.NONTRIVIAL
    x0 = pt("(0)")
    checked = 0
    for word, elem in reduced_generator_words(grig, 6):
        if stabilises(elem, x0) is not Tri.YES:
            continue
        own = in_neighbourhood_stabiliser(elem, x0, 512)
        assert own.kind is GermKind.TRIVIAL, (word, str(own))
        checked += 1
    report(3, f"singular/regular rule corroborated; {checked} stabiliser words all trivial at the zero ray")


def test_criterion_4_germ_lower_bound(grig):
    rep = germ_classes(grig, pt("(1)"), max_word_len=4, budget=256)
    assert rep.lower_bound >= 4
    reps = {"".join(n for n, _ in c.representative_word) for c in rep.classes}
    assert {"", "b", "c", "d"} <= reps
    assert rep.separations, "pairwise separations must be recorded"
    for _, _, verdict in rep.separations:
        assert verdict.kind is GermKind.NONTRIVIAL
    assert not any(c.provisional for c in rep.classes)
    report(4, f"{rep.lower_bound} germ classes at the ones ray, all separations exact")


def test_criterion_5_theorem_end_to_end(grig, grig_cert):
    start = time.monotonic()
    verification = verify_certificate(grig_cert)
    assert verification.ok, verification.failures()
    samples = rist_samples(grig, grig_cert, 50)
    assert len(samples) >= 50
    suite = conjugation_suite(grig_cert, samples)
    counts = suite.counts()
    elapsed = time.monotonic() - start
    assert counts["PASS"] == len(samples)
    assert counts["FAIL"] == 0 and counts["UNKNOWN"] == 0 and counts["SKIPPED"] == 0
    assert elapsed < 60.0, f"took {elapsed:.2f}s"
    report(5, f"8-stage certificate verified; {counts['PASS']}/{len(samples)} conjugations pass in {elapsed:.2f}s")


def test_criterion_6_odometer_full_group(odometer, odometer_cert):
    start = time.monotonic()
    verification = verify_certificate(odometer_cert)
    assert verification.ok, verification.failures()
    rng = random.Random(60)
    u1 = odometer_cert.stages[1].u
    trips = 0
    while trips < 100:
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 5)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 4)))
        z = BoundaryPoint(pre, per)
        if contains_point(u1, z):
            z = BoundaryPoint((1,) + pre, per)
        image = eval_limit(odometer_cert, z)
        assert image.exact
        back = eval_limit_inverse(odometer_cert, image.point)
        assert back.exact and back.point == z
        trips += 1
    elapsed = time.monotonic() - start
    assert elapsed < 30.0, f"took {elapsed:.2f}s"
    report(6, f"6-stage odometer certificate verified; 100 round trips exact in {elapsed:.2f}s")


def test_criterion_7_mutation_detection(grig, grig_cert):
    rng = random.Random(7777)
    detected = 0
    for _ in range(20):
        bad, _ = mutate(grig_cert, rng, grig)
        if not verify_certificate(bad).ok:
            detected += 1
    assert detected == 20
    report(7, "20/20 single-stage corruptions detected")


def test_criterion_8_stability_under_extension(grig):
    base = build_conjugator(grig, pt("(0)"), pt("(01)"), DepthSchedule.unit_steps(6))
    extended = build_conjugator(grig, pt("(0)"), pt("(01)"), DepthSchedule.unit_steps(8))
    rng = random.Random(88)
    compared = 0
    while compared < 60:
        pre = tuple(rng.randint(0, 1) for _ in range(rng.randint(0, 6)))
        per = tuple(rng.randint(0, 1) for _ in range(rng.randint(1, 3)))
        z = BoundaryPoint(pre, per)
        if contains_point(base.stages[-1].u, z):
            continue
        a, b = eval_limit(base, z), eval_limit(extended, z)
        assert a.exact and b.exact and a.point == b.point, z
        compared += 1
    report(8, f"depth-6 and depth-8 certificates agree on {compared} points outside U_6")


def test_criterion_9_determinism():
    bodies = []
    for _ in range(2):
        grig_family = grigorchuk()
        odo_family = odometer_full()
        witness = minimality_witness(list(grig_family.generators), 5)
        cert_g = build_conjugator(
            grig_family, pt("(0)"), pt("(01)"), DepthSchedule.unit_steps(8)
        )
        cert_o = build_conjugator(
            odo_family, pt("(0)"), pt("(1)"), DepthSchedule.unit_steps(6)
        )
        bodies.append(
            (
                serialize.canonical_dumps(serialize.witness_to_obj(witness)),
                serialize.canonical_dumps(serialize.certificate_to_obj(cert_g)),
                serialize.canonical_dumps(serialize.certificate_to_obj(cert_o)),
            )
        )
    assert bodies[0] == bodies[1]
    report(9, "criteria 1, 5, 6 reproduce byte-identical canonical JSON")
