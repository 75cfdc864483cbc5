import pytest

from cantorstab import (
    ConjugatorCertificate,
    FullGroupTable,
    PrefixBijection,
    TreeAutomorphism,
    Word,
    grigorchuk,
    odometer_full,
    prefix_v,
)
from cantorstab.presets import GRIGORCHUK_TABLE


@pytest.fixture(scope="session")
def grig():
    return grigorchuk()


@pytest.fixture(scope="session")
def odometer():
    return odometer_full()


@pytest.fixture(scope="session")
def prefix_family():
    return prefix_v()


def grig_gen(name):
    return TreeAutomorphism.generator(GRIGORCHUK_TABLE, name)


def grig_word(letters):
    return TreeAutomorphism(GRIGORCHUK_TABLE, tuple((n, 1) for n in letters))


def L(text):
    """Letter tuple of a binary digit string."""
    return Word.from_string(text).letters


def prefix_bijection(*rules):
    """Binary prefix bijection from digit-string rules ``(u, v)``."""
    return PrefixBijection([(L(u), L(v)) for u, v in rules])


def table(*rows):
    """Full-group table from rows ``(digit string, power)``."""
    return FullGroupTable([(L(c), k) for c, k in rows])


def with_corrections(cert, corrections):
    """``cert`` with its stages derived again from ``[(d_i, h_i)]``."""
    return ConjugatorCertificate.from_corrections(
        cert.family_name, cert.alphabet, cert.x, cert.y, corrections, cert.budgets
    )


def mutate(cert, rng, family):
    """One random corruption of what a certificate stores, at a stage i >= 2
    (rist(V_0) is the whole group, so a changed h_1 can be another valid
    certificate): compose a family generator into h_i, or swap d_i with
    d_{i-1}."""
    corrections = [(s.depth, s.h) for s in cert.stages]
    i = rng.randrange(2, len(corrections))
    (d_prev, h_prev), (d, h) = corrections[i - 1], corrections[i]
    kind = rng.choice(("h", "d"))
    if kind == "h":
        _, gen = family.generators[rng.randrange(len(family.generators))]
        corrections[i] = (d, h.compose(gen))
    else:
        corrections[i - 1], corrections[i] = (d, h_prev), (d_prev, h)
    return with_corrections(cert, corrections), (i, kind)
