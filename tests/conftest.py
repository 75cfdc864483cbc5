import pytest

from cantorstab import TreeAutomorphism, grigorchuk, odometer_full, prefix_v
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
