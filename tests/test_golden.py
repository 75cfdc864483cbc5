"""Canonical report bodies pinned byte for byte.

Each file under ``tests/golden/`` holds the canonical body (``canonical_dumps``
plus a newline) of one CLI run in ``--format json``; ``tests/golden/v1/``
holds the conjugate bodies as ``certificate-v1`` wrote them.  A refactor that keeps
behaviour keeps these bytes; a change that alters a report on purpose
replaces the file and says why.
"""

import contextlib
import io
import json
from pathlib import Path

import pytest

from cantorstab import cli, presets, serialize

GOLDEN = Path(__file__).parent / "golden"

CONJUGATE = {
    "conjugate-grigorchuk": ["--family", "grigorchuk", "--x", "(0)", "--y", "(01)", "--depth", "6"],
    "conjugate-prefix-v": ["--family", "prefix-v", "--x", "(0)", "--y", "(1)", "--depth", "6"],
    "conjugate-odometer-full": ["--family", "odometer-full", "--x", "(0)", "--y", "(1)", "--depth", "4"],
}

CASES = {
    **{name: ["conjugate", *argv] for name, argv in CONJUGATE.items()},
    "germs": ["germs", "--family", "grigorchuk", "--point", "(1)", "--maxlen", "4"],
    "orbit": ["orbit", "--family", "grigorchuk", "--seed", "000", "--depth", "5"],
    "rist": ["rist", "--family", "grigorchuk", "--cylinder", "1", "--maxlen", "6"],
    "classify": ["classify", "--family", "grigorchuk", "--point", "(0)", "--germs", "--maxlen", "3"],
}


def canonical_body(argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main([*argv, "--format", "json"]) == 0
    return serialize.canonical_dumps(json.loads(out.getvalue())["canonical"]) + "\n"


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_body(name):
    assert canonical_body(CASES[name]) == (GOLDEN / f"{name}.json").read_text()


def test_golden_verify_body(tmp_path):
    cert_path = tmp_path / "cert.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(CASES["conjugate-grigorchuk"] + ["--out", str(cert_path)]) == 0
    argv = ["verify", "--family", "grigorchuk", "--cert", str(cert_path), "--samples", "4"]
    assert canonical_body(argv) == (GOLDEN / "verify.json").read_text()


@pytest.mark.parametrize("name", sorted(CONJUGATE))
def test_v1_certificate_loads_and_verifies(tmp_path, name):
    # v1 bodies pinned before certificate-v2; each reads as today's v2 body
    body = json.loads((GOLDEN / "v1" / f"{name}.json").read_text())
    family = CONJUGATE[name][1]
    envelope = {"schema": serialize.SCHEMA_CERTIFICATE_V1, "canonical": body}
    cert = serialize.certificate_from_envelope(envelope, presets.load_preset(family))
    v2 = serialize.canonical_dumps(serialize.certificate_to_obj(cert)) + "\n"
    assert v2 == (GOLDEN / f"{name}.json").read_text()
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(envelope))
    argv = ["verify", "--family", family, "--cert", str(cert_path)]
    assert json.loads(canonical_body(argv))["ok"]
