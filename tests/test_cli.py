import json
import subprocess
import sys

import pytest

from cantorstab import (
    DepthSchedule,
    TreeAutomorphism,
    Tri,
    build_conjugator,
    parse_generator_word,
    parse_point,
    verify_certificate,
)
from cantorstab import cli, serialize
from test_golden import GOLDEN


def run_cli(*args, env=None, timeout=None):
    return subprocess.run(
        [sys.executable, "-m", "cantorstab.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=timeout,
    )


# the binary odometer as a one-generator wreath family (README example)
ODO_WREATH = {
    "type": "wreath", "name": "odo-wreath", "alphabet": 2,
    "generators": {"t": {"perm": [1, 0], "sections": [None, "t"]}},
    "public": ["t"],
}

# the root swap a next to the odometer t, whose square is not the identity
SWAP_ODO_WREATH = {
    "type": "wreath", "name": "swap-odo", "alphabet": 2,
    "generators": {"a": {"perm": [1, 0], "sections": [None, None]},
                   "t": {"perm": [1, 0], "sections": [None, "t"]}},
}

# a well-formed odometer on 11 letters, which no digit text can address
ODO_WREATH_11 = {
    "type": "wreath", "name": "odo-11", "alphabet": 11,
    "generators": {"t": {"perm": [*range(1, 11), 0], "sections": [None] * 10 + ["t"]}},
    "public": ["t"],
}

# the odometer alone as a table family: no oracle, no proper rigid stabilisers
BARE_TABLE = {"type": "table", "name": "bare", "alphabet": 2, "generators": {"t": [["", 1]]}}


# -- classify -----------------------------------------------------------------


def test_classify_singular():
    proc = run_cli("classify", "--family", "grigorchuk", "--point", "(1)")
    assert proc.returncode == 0 and "SINGULAR" in proc.stdout


def test_classify_regular():
    proc = run_cli("classify", "--family", "grigorchuk", "--point", "(0)")
    assert proc.returncode == 0 and "REGULAR" in proc.stdout


def test_classify_odometer():
    proc = run_cli("classify", "--family", "odometer-full", "--point", "01(10)")
    assert proc.returncode == 0 and "REGULAR" in proc.stdout


def test_classify_no_rule():
    proc = run_cli("classify", "--family", "prefix-v", "--point", "(0)")
    assert proc.returncode == 0 and "NO_RULE" in proc.stdout


def test_classify_parse_error_exit_2():
    proc = run_cli("classify", "--family", "grigorchuk", "--point", "zzz")
    assert proc.returncode == 2


def test_classify_with_germ_evidence():
    proc = run_cli(
        "classify", "--family", "grigorchuk", "--point", "(1)",
        "--germs", "--maxlen", "3", "--format", "json",
    )
    assert proc.returncode == 0
    body = json.loads(proc.stdout)["canonical"]
    assert body["class"] == "singular"
    assert body["germs"]["lower_bound"] >= 4


# -- conjugate / verify round trip ----------------------------------------------


def test_conjugate_verify_round_trip(tmp_path):
    cert_path = tmp_path / "cert.json"
    proc = run_cli(
        "conjugate", "--family", "grigorchuk",
        "--x", "(0)", "--y", "(01)", "--depth", "8", "--out", str(cert_path),
    )
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(
        "verify", "--family", "grigorchuk", "--cert", str(cert_path), "--samples", "5",
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_conjugate_odometer_full(tmp_path):
    cert_path = tmp_path / "odo.json"
    proc = run_cli(
        "conjugate", "--family", "odometer-full",
        "--x", "(0)", "--y", "(1)", "--depth", "6", "--out", str(cert_path),
    )
    assert proc.returncode == 0
    proc = run_cli("verify", "--family", "odometer-full", "--cert", str(cert_path))
    assert proc.returncode == 0


def test_conjugate_identity_points(tmp_path):
    cert_path = tmp_path / "id.json"
    proc = run_cli(
        "conjugate", "--family", "odometer-full",
        "--x", "(0)", "--y", "(0)", "--depth", "3", "--out", str(cert_path),
    )
    assert proc.returncode == 0
    envelope = json.loads(cert_path.read_text())
    assert envelope["schema"] == serialize.SCHEMA_CERTIFICATE


def test_verify_corrupted_certificate_exit_1(tmp_path):
    cert_path = tmp_path / "cert.json"
    run_cli(
        "conjugate", "--family", "grigorchuk",
        "--x", "(0)", "--y", "(01)", "--depth", "5", "--out", str(cert_path),
    )
    envelope = json.loads(cert_path.read_text())
    envelope["canonical"]["stages"][3]["h"]["word"] += "*a"
    cert_path.write_text(json.dumps(envelope))
    proc = run_cli("verify", "--family", "grigorchuk", "--cert", str(cert_path))
    assert proc.returncode == 1
    assert "FAIL" in proc.stdout


def test_verify_schema_error_exit_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"schema": "nope", "canonical": {}}')
    proc = run_cli("verify", "--family", "grigorchuk", "--cert", str(bad))
    assert proc.returncode == 2


@pytest.fixture(scope="module")
def small_certificate(tmp_path_factory):
    cert_path = tmp_path_factory.mktemp("cert") / "cert.json"
    proc = run_cli(
        "conjugate", "--family", "grigorchuk",
        "--x", "(0)", "--y", "(01)", "--depth", "3", "--out", str(cert_path),
    )
    assert proc.returncode == 0, proc.stderr
    return cert_path.read_text()


@pytest.mark.parametrize("path, value", [
    (("canonical", "stages"), 5),
    (("canonical", "stages", 1, "h"), None),
    (("canonical", "stages"), []),
    (("canonical", "alphabet"), "2"),
    (("canonical", "budgets"), 5),
    (("canonical", "budgets", "transporter", "extra"), 1),
    (("canonical", "design_flags"), 5),
    (("canonical", "x"), 5),
    (("canonical", "stages", 1, "h", "word"), 5),
    (("canonical", "stages", 1, "h"), {"kind": "prefix", "rules": 5}),
    (("canonical",), []),
    (("canonical", "stages", 1, "i"), 7),
    (("canonical", "stages", 1, "g"), {"kind": "word", "word": "b"}),
    # a localized path digit outside the binary alphabet
    (("canonical", "stages", 1, "h", "word"), "k1@0123"),
    # a correction from another family
    (("canonical", "stages", 2, "h"), {"kind": "table", "rows": [["", 1]]}),
    # a table row letter outside the binary alphabet
    (("canonical", "stages", 2, "h"), {"kind": "table", "rows": [["0", 1], ["2", 0]]}),
    # an alphabet other than the family's
    (("canonical", "alphabet"), 3),
], ids=[
    "stages-int", "h-null", "stages-empty", "alphabet-str", "budgets-int",
    "transporter-extra-key", "design-flags-int", "x-int", "h-word-int",
    "h-rules-int", "canonical-list", "stage-index", "stage-extra-g",
    "path-digit-outside-alphabet", "h-other-family", "table-row-letter", "alphabet-3",
])
def test_verify_malformed_certificate_exit_2(tmp_path, small_certificate, path, value):
    envelope = json.loads(small_certificate)
    target = envelope
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps(envelope))
    proc = run_cli("verify", "--family", "grigorchuk", "--cert", str(cert_path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


def test_verify_v1_certificate_with_stale_g_exit_2(tmp_path):
    # the stored g_3 of a v1 file must be h_3 g_2
    body = json.loads((GOLDEN / "v1" / "conjugate-grigorchuk.json").read_text())
    body["stages"][3]["g"]["word"] += "*a"
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(json.dumps({"schema": "cantorstab/certificate-v1", "canonical": body}))
    proc = run_cli("verify", "--family", "grigorchuk", "--cert", str(cert_path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr.splitlines() == ["error: certificate-v1 stage 3: stored g differs from the one derived from d and h"]


def test_verify_samples_family_without_rigid_stabilisers(tmp_path):
    # every proper rigid stabiliser of the odometer is trivial: the sample
    # search must stop at its depth cap with an empty suite
    family_path = tmp_path / "odo.json"
    family_path.write_text(json.dumps(ODO_WREATH))
    cert_path = tmp_path / "cert.json"
    proc = run_cli(
        "conjugate", "--family", str(family_path),
        "--x", "(0)", "--y", "(0)", "--depth", "3", "--out", str(cert_path),
    )
    assert proc.returncode == 0, proc.stderr
    proc = run_cli(
        "verify", "--family", str(family_path), "--cert", str(cert_path),
        "--samples", "1", "--format", "json", timeout=60,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert json.loads(proc.stdout)["canonical"]["suite"]["entries"] == []


def test_conjugate_search_failure_exit_3(tmp_path):
    family_path = tmp_path / "bare.json"
    family_path.write_text(json.dumps(BARE_TABLE))
    proc = run_cli(
        "conjugate", "--family", str(family_path),
        "--x", "(0)", "--y", "(1)", "--depth", "3",
    )
    assert proc.returncode == 3, proc.stderr


# -- orbit / rist / germs ---------------------------------------------------------


def test_orbit_reaches_32():
    proc = run_cli("orbit", "--family", "grigorchuk", "--seed", "00000", "--depth", "5")
    assert proc.returncode == 0 and "32 cylinders" in proc.stdout


def test_rist_nonempty():
    proc = run_cli("rist", "--family", "grigorchuk", "--cylinder", "1", "--maxlen", "6")
    assert proc.returncode == 0
    assert "0 elements" not in proc.stdout


def test_germs_at_least_four_classes():
    proc = run_cli(
        "germs", "--family", "grigorchuk", "--point", "(1)", "--maxlen", "4",
        "--format", "json",
    )
    assert proc.returncode == 0
    body = json.loads(proc.stdout)["canonical"]
    assert body["lower_bound"] >= 4


# -- determinism -------------------------------------------------------------------


def test_byte_identical_output(tmp_path):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        proc = run_cli(
            "conjugate", "--family", "grigorchuk",
            "--x", "(0)", "--y", "(01)", "--depth", "6", "--out", str(path),
        )
        assert proc.returncode == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


@pytest.mark.parametrize("argv", [
    ("germs", "--family", "grigorchuk", "--point", "(1)", "--id-budget", "0"),
    ("classify", "--family", "grigorchuk", "--point", "(1)", "--germs", "--maxlen", "-1"),
    ("conjugate", "--family", "grigorchuk", "--x", "(0)", "--y", "(01)", "--depth", "2",
     "--rist-maxlen", "0"),
    ("conjugate", "--family", "grigorchuk", "--x", "(0)", "--y", "(01)", "--depth", "2",
     "--max-states", "0"),
], ids=["id-budget", "maxlen", "rist-maxlen", "max-states"])
def test_budget_below_one_exit_2(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert "must be >= 1" in proc.stderr


def test_negative_samples_exit_2():
    proc = run_cli("verify", "--family", "grigorchuk", "--cert", "cert.json", "--samples", "-1")
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == ["cantorstab verify: error: argument --samples: must be >= 0, got -1"]


def test_alphabet_11_rejected_at_load():
    # before any command reads a digit word
    with pytest.raises(ValueError, match="alphabet size must be 2 to 10, got 11"):
        serialize.family_from_obj(ODO_WREATH_11)


def test_rist_takes_no_max_states():
    # rist_search reads only the word-length cap
    proc = run_cli("rist", "--family", "grigorchuk", "--cylinder", "1", "--max-states", "10")
    assert proc.returncode == 2
    assert "unrecognized arguments: --max-states" in proc.stderr


# -- serialization round trip -------------------------------------------------------


def test_certificate_json_round_trip(grig):
    cert = build_conjugator(
        grig, parse_point("(0)"), parse_point("(01)"), DepthSchedule.unit_steps(6)
    )
    obj = serialize.certificate_to_obj(cert)
    text = serialize.canonical_dumps(obj)
    restored = serialize.certificate_from_obj(json.loads(text), grig)
    assert restored.x == cert.x and restored.y == cert.y
    assert len(restored.stages) == len(cert.stages)
    for a, b in zip(cert.stages, restored.stages):
        assert a.u == b.u and a.v == b.v
        assert a.g.act_letters(a.u.prefix.letters) == b.g.act_letters(b.u.prefix.letters)
    assert verify_certificate(restored).ok


def test_custom_wreath_family_file(tmp_path):
    family_path = tmp_path / "odo.json"
    family_path.write_text(json.dumps(ODO_WREATH))
    proc = run_cli("orbit", "--family", str(family_path), "--seed", "00", "--depth", "2")
    assert proc.returncode == 0 and "4 cylinders" in proc.stdout


@pytest.mark.parametrize("family", [
    {"type": "prefix", "name": "p", "generators": 5},
    {**ODO_WREATH, "alphabet": "2"},
    {**ODO_WREATH, "generators": {"t": {"perm": "10", "sections": [None, "t"]}}},
    {**ODO_WREATH, "transporter_margin": [1]},
    # t@2 leaves the binary alphabet, in a section that neither the depth-1
    # orbit nor the involution test of s reads
    {**ODO_WREATH, "generators": {**ODO_WREATH["generators"],
                                  "s": {"perm": [0, 1], "sections": ["t@2", "t"]}},
     "public": ["t", "s"]},
    # a row letter outside the binary alphabet
    {"type": "table", "generators": {"t": [["0", 1], ["2", 0]]}},
    ODO_WREATH_11,
    # involutions are derived from the recursion, never declared
    {**ODO_WREATH, "involutive": ["t"]},
], ids=["generators-int", "alphabet-str", "perm-str", "margin-list", "section-path-digit",
        "table-row-letter", "alphabet-11", "involutive-field"])
def test_malformed_family_file_exit_2(tmp_path, family):
    family_path = tmp_path / "family.json"
    family_path.write_text(json.dumps(family))
    proc = run_cli("orbit", "--family", str(family_path), "--seed", "0", "--depth", "1")
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")


def test_family_involutions_are_derived():
    # t is not an involution, so t*t stays a word and acts as adding two
    family = serialize.family_from_obj(SWAP_ODO_WREATH)
    table = family.generator("t").table
    assert table.involutive == {"a"}
    assert family.generator("t").compose(family.generator("t")).is_identity() is Tri.NO
    word = TreeAutomorphism(table, parse_generator_word("t*a*t*a*t*a"))
    assert word.act_point(parse_point("(0)")) == parse_point("011(0)")


def test_family_rist_counts_non_involutions(tmp_path):
    # reading t as an involution collapses t*t to 1 and finds 2 of these 20
    family_path = tmp_path / "swap-odo.json"
    family_path.write_text(json.dumps(SWAP_ODO_WREATH))
    proc = run_cli("rist", "--family", str(family_path), "--cylinder", "0", "--maxlen", "6",
                   "--format", "json")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["canonical"]["count"] == 20


def test_orbit_strict_budget_exit_4():
    proc = run_cli(
        "orbit", "--family", "grigorchuk", "--seed", "00000", "--depth", "5",
        "--maxlen", "2", "--strict",
    )
    assert proc.returncode == 4


def test_strict_only_on_orbit():
    # only orbit can be budget-truncated; elsewhere --strict is not an option
    proc = run_cli("germs", "--family", "grigorchuk", "--point", "(1)", "--strict")
    assert proc.returncode == 2


def test_rist_oracle_flag():
    proc = run_cli(
        "rist", "--family", "grigorchuk", "--cylinder", "01", "--oracle",
        "--format", "json",
    )
    assert proc.returncode == 0
    body = json.loads(proc.stdout)["canonical"]
    assert body["count"] == 3


def test_conjugate_beyond_capacity_exit_3_with_partial(tmp_path):
    # moving (0) into [11] needs a transporter word of length 2
    cert_path = tmp_path / "partial.json"
    proc = run_cli(
        "conjugate", "--family", "grigorchuk", "--x", "(0)", "--y", "11(0)",
        "--depth", "4", "--maxlen", "1", "--out", str(cert_path),
    )
    assert proc.returncode == 3
    assert "stage 1: no product of length <= 1 reaches [11]" in proc.stderr
    envelope = json.loads(cert_path.read_text())
    assert envelope["canonical"]["stages"] == [{"d": 0, "h": {"kind": "word", "word": ""}}]
    proc = run_cli("verify", "--family", "grigorchuk", "--cert", str(cert_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_rist_oracle_empty_reports_no_elements(tmp_path):
    # the bare family has no oracle and no proper rigid-stabiliser elements:
    # with or without --oracle, the report is the same empty one
    family_path = tmp_path / "bare.json"
    family_path.write_text(json.dumps(BARE_TABLE))
    argv = ("rist", "--family", str(family_path), "--cylinder", "1", "--maxlen", "1", "--format", "json")
    search, oracle = run_cli(*argv), run_cli(*argv, "--oracle")
    assert oracle.returncode == search.returncode == 0, oracle.stderr
    assert oracle.stdout == search.stdout
    assert json.loads(oracle.stdout)["canonical"]["count"] == 0


def odometer_certificate_with_power(power) -> str:
    """The golden odometer-full certificate with the power 8 of stage 4's
    correction (the first return to [111]) replaced."""
    body = json.loads((GOLDEN / "conjugate-odometer-full.json").read_text())
    assert body["stages"][4]["h"]["rows"][3] == ["111", 8]
    body["stages"][4]["h"]["rows"][3][1] = power
    return serialize.dumps_envelope(serialize.SCHEMA_CERTIFICATE, body)


@pytest.mark.parametrize("where", ["certificate", "family"])
def test_table_power_beyond_point_budget_exit_2(tmp_path, where):
    path = tmp_path / "input.json"
    if where == "certificate":
        path.write_text(odometer_certificate_with_power(2**5000))
        argv = ("verify", "--family", "odometer-full", "--cert", str(path))
    else:
        path.write_text(json.dumps({**BARE_TABLE, "generators": {"t": [["", 2**5000]]}}))
        argv = ("orbit", "--family", str(path), "--seed", "0", "--depth", "1")
    proc = run_cli(*argv)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("error:")
    # the message names the row and the bit length, not the 1,506-digit power
    assert "rows[" in proc.stderr and "power of 5001 bits" in proc.stderr
    assert len(proc.stderr) < 200


def test_table_power_of_71_bits_loads_and_fails_verify(tmp_path):
    # t^(2^70) leaves the letter it should flip alone, so the certificate
    # loads and fails verification
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(odometer_certificate_with_power(2**70))
    proc = run_cli("verify", "--family", "odometer-full", "--cert", str(cert_path))
    assert proc.returncode == 1 and proc.stderr == "", proc.stdout + proc.stderr
    assert "FAIL" in proc.stdout


def test_verify_table_row_letter_outside_alphabet_exit_2(tmp_path):
    # the row [0] of h_2 becomes [2]: the rows still count as a complete
    # prefix code, but no binary word lies in [2]
    body = json.loads((GOLDEN / "conjugate-odometer-full.json").read_text())
    assert body["stages"][2]["h"]["rows"][0] == ["0", 0]
    body["stages"][2]["h"]["rows"][0][0] = "2"
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps_envelope(serialize.SCHEMA_CERTIFICATE, body))
    proc = run_cli("verify", "--family", "odometer-full", "--cert", str(cert_path))
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert proc.stderr == "error: letter 2 outside alphabet of size 2\n"


# a period of 4,201 letters: the point action does not close within its
# state budget, whatever the element
LONG_PERIOD_POINT = "(" + "0" * 4200 + "1)"


def test_conjugate_long_period_point_exit_3(tmp_path):
    cert_path = tmp_path / "partial.json"
    proc = run_cli(
        "conjugate", "--family", "grigorchuk", "--x", LONG_PERIOD_POINT, "--y", "(01)",
        "--depth", "3", "--out", str(cert_path),
    )
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr.splitlines()[-1] == "conjugate failed: stage 1: no closing state within 4096 steps"
    assert len(json.loads(cert_path.read_text())["canonical"]["stages"]) == 1


def test_verify_long_period_point_definite(tmp_path):
    # x has no image within the point-action budget, but no check needs one:
    # x agrees with (0) on the first 4,200 letters, so every derived stage is
    # that of the golden certificate, and each row is a definite PASS
    body = json.loads((GOLDEN / "conjugate-grigorchuk.json").read_text())
    body["x"] = LONG_PERIOD_POINT
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps_envelope(serialize.SCHEMA_CERTIFICATE, body))
    proc = run_cli("verify", "--family", "grigorchuk", "--cert", str(cert_path), "--format", "json")
    assert proc.returncode == 0 and proc.stderr == ""
    checks = json.loads(proc.stdout)["canonical"]["checks"]
    assert len(checks) == 1 + 3 * 6
    assert {c["status"] for c in checks} == {"PASS"}


# -- rules far deeper than the interpreter's recursion limit, run in process


def test_rist_deep_prefix_rule(tmp_path, capsys):
    # d swaps [0^499 1] and [0^500] and fixes the rest: it moves points of
    # [0], so it is not in rist([1]), and finding that refines 500 levels
    n = 500
    rules = [["0" * (n - 1) + "1", "0" * n], ["0" * n, "0" * (n - 1) + "1"]]
    rules += [["0" * i + "1", "0" * i + "1"] for i in range(n - 1)]
    family_path = tmp_path / "deep.json"
    family_path.write_text(json.dumps({"type": "prefix", "name": "deep", "generators": {"d": rules}}))
    assert cli.main(["rist", "--family", str(family_path), "--cylinder", "1", "--maxlen", "1"]) == 0
    out, err = capsys.readouterr()
    assert out == "rist([1]): 0 elements\n" and err == ""


def test_verify_deep_correction_fails_definitely(tmp_path, capsys):
    # the last correction of the golden odometer-full certificate becomes the
    # first return to [0^500]: it moves [111], and the verifier says so
    n = 500
    body = json.loads((GOLDEN / "conjugate-odometer-full.json").read_text())
    body["stages"][4]["h"]["rows"] = [["0" * n, 2**n]] + [["0" * i + "1", 0] for i in range(n)]
    cert_path = tmp_path / "cert.json"
    cert_path.write_text(serialize.dumps_envelope(serialize.SCHEMA_CERTIFICATE, body))
    assert cli.main(["verify", "--family", "odometer-full", "--cert", str(cert_path), "--format", "json"]) == 1
    out, err = capsys.readouterr()
    assert err == ""
    failed = [(c["stage"], c["condition"]) for c in json.loads(out)["canonical"]["checks"] if c["status"] == "FAIL"]
    assert failed == [(4, "y-in-V"), (4, "rist")]
