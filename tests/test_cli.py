import hashlib
import json

import pytest

from cycdiv import cli, verify
from cycdiv.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_anagram_table_json(capsys):
    code, out, _ = run(capsys, "anagram-table", "--q", "3", "--json")
    assert code == 0
    rows = json.loads(out)
    assert len(rows) == 10
    mixed = next(r for r in rows if r["representative"] == [0, 1, 2])
    assert mixed["level_counts"] == [0, 3, 3]
    assert mixed["f"] == -3
    assert mixed["in_C0"] is True


def test_norm_command(capsys):
    code, out, _ = run(capsys, "norm", "--element", "1;1;1")
    assert code == 0
    assert "oracle  = 1 + 5*t + t^2" in out
    assert "formula = 1 + 5*t + t^2" in out
    assert "valuation = 0" in out


# a dense F_11((t)) element, q = 5, with another O-term in each coordinate but
# the last; the product of its conjugates takes the u-series route
DENSE_NORM_ELEMENT = (
    "3 + 2*t + 5*t^2 + t^3 + 7*t^4 + 4*t^6 + 9*t^7 + O(t^40);"
    "1 + 4*t + 9*t^3 + 10*t^4 + 2*t^8 + O(t^35);"
    "t^(-1) + 6 + 2*t^2 + 8*t^5 + O(t^50);"
    "5*t + 8*t^2 + 3*t^9 + O(t^45);"
    "2 + 10*t + 3*t^5 + 7*t^11")
# stdout of `norm --p 11 --q 5 --prec 60` on it, recorded while kummer_mul
# multiplied coordinate by coordinate; it must stay byte-identical
GOLDEN_DENSE_NORM = (
    'oracle  = t^(-3) + 8*t^(-2) + t^(-1) + 8*t + 8*t^2 + 7*t^3 + 8*t^4 + 10*t^5 + t^6 + '
    '9*t^7 + 10*t^9 + 9*t^10 + t^11 + 3*t^12 + 8*t^13 + 4*t^14 + 6*t^15 + 4*t^16 + 3*t^17 +'
    ' 2*t^19 + 4*t^20 + 10*t^21 + 10*t^22 + 5*t^23 + 9*t^25 + 3*t^26 + 6*t^27 + 4*t^28 + '
    't^29 + 6*t^30 + 8*t^31 + 5*t^32 + 9*t^33 + O(t^34)\n'
    'formula = t^(-3) + 8*t^(-2) + t^(-1) + 8*t + 8*t^2 + 7*t^3 + 8*t^4 + 10*t^5 + t^6 + '
    '9*t^7 + 10*t^9 + 9*t^10 + t^11 + 3*t^12 + 8*t^13 + 4*t^14 + 6*t^15 + 4*t^16 + 3*t^17 +'
    ' 2*t^19 + 4*t^20 + 10*t^21 + 10*t^22 + 5*t^23 + 9*t^25 + 3*t^26 + 6*t^27 + 4*t^28 + '
    't^29 + 6*t^30 + 8*t^31 + 5*t^32 + 9*t^33 + O(t^34)\n'
    'valuation = -3\n')


def test_norm_golden_stdout(capsys):
    argv = ["norm", "--p", "11", "--q", "5", "--prec", "60", "--element", DENSE_NORM_ELEMENT]
    assert run(capsys, *argv)[:2] == (0, GOLDEN_DENSE_NORM)


@pytest.mark.parametrize("argv", [
    ["norm", "--p", "11", "--q", "5", "--prec", "60", "--element", DENSE_NORM_ELEMENT],
    ["norm", "--hahn", "7", "--prec", "4", "--element", "(1 + x) + (2)*t^(1/7);(3*x^(-1));(x)*t"],
])
def test_norm_exits_1_when_oracle_and_formula_disagree(capsys, monkeypatch, argv):
    code, out, err = run(capsys, *argv)
    assert code == 0 and not err
    # a planted fault: the formula's coefficient of t is off by one
    real = cli.norm_formula

    def planted(a):
        F = a.context.F
        return F.add(real(a), F.monomial(1))

    monkeypatch.setattr(cli, "norm_formula", planted)
    code, faulty, err = run(capsys, *argv)
    assert code == 1 and "disagree" in err
    assert faulty.splitlines()[0] == out.splitlines()[0]  # stdout as before


def test_is_norm_negative(capsys):
    code, out, _ = run(capsys, "is-norm", "--x", "2")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is False
    assert data["certificate"]["kind"] == "residue"


def test_is_norm_positive(capsys):
    code, out, _ = run(capsys, "is-norm", "--x", "6 + t")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] is True
    assert "preimage" in data


def test_is_norm_with_inner_o_terms_over_the_hahn_tower(capsys):
    argv = ("is-norm", "--hahn", "7", "--prec", "4", "--x")
    code, out, err = run(capsys, *argv, "(O(x^2)) + (1)*t^(1/7)")
    assert code == 2 and not out and "valuation unknown" in err
    code, out, _ = run(capsys, *argv, "(6*x^(-6) + O(x^(-1))) + (4 + O(x^5))*t")
    assert code == 0 and json.loads(out)["verdict"] is True


def test_algebra_build_and_certify(capsys):
    code, out, _ = run(capsys, "algebra", "build", "--alpha", "2")
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 9 and data["basis"][1] == "u"
    code, out, _ = run(capsys, "algebra", "certify", "--alpha", "2")
    assert code == 0
    assert json.loads(out)["division"] is True
    code, out, _ = run(capsys, "algebra", "certify", "--alpha", "6")
    assert code == 0
    assert json.loads(out)["division"] is False


def test_algebra_mul(capsys):
    # (u X) * u = xi u^2 X = 2 u^2 X  over F_7((t)), xi = 2
    a = "0;0;0;0;1;0;0;0;0"
    b = "0;1;0;0;0;0;0;0;0"
    code, out, _ = run(capsys, "algebra", "mul", "--alpha", "2", "--a", a, "--b", b)
    assert code == 0
    assert out.strip() == "(2)*u^2*X"


def test_algebra_invert_zero_divisor_exit_code(capsys):
    d = "4;0;0;1;0;0;0;0;0"  # X - 3 in the alpha = 6 algebra
    code, out, _ = run(capsys, "algebra", "invert", "--alpha", "6", "--d", d)
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "zero divisor"
    assert "kernel" in data


def test_algebra_invert_over_k_readme_commands(capsys):
    # g*(X - 2) over F_11((t)), q = 5: the 25 x 25 solve over F did not finish
    d = "9;5;4;10;2;2;4;2;0;8;10;10;9;2;7;4;0;0;4;9;5;7;0;1;5"
    code, out, _ = run(capsys, "algebra", "invert", "--p", "11", "--q", "5", "--alpha", "10",
                       "--d", d)
    assert code == 1 and json.loads(out)["error"] == "zero divisor"
    # t^-1 + u: the solve over F knew O(t^30), O(t^31), O(t^31)
    code, out, _ = run(capsys, "algebra", "invert", "--alpha", "2", "--d", "t^(-1);1;0;0;0;0;0;0;0")
    assert code == 0 and out.count("O(t^36)") == 3 and out.count("O(") == 3


# stdout of `algebra invert`, recorded before the linear algebra shared one
# elimination core; it must stay byte-identical
GOLDEN_KERNEL = '{"error": "zero divisor", "kernel": "(2) + (3)*X + (1)*X^2"}\n'
GOLDEN_UNIT_INVERSE = (
    '(1 + 6*t + 3*t^2 + 5*t^3 + 6*t^4 + 6*t^5 + 2*t^6 + 6*t^8 + 3*t^9 + 2*t^10 + 5*t^11 + '
    '2*t^13 + 4*t^14 + 3*t^15 + 2*t^16 + 4*t^18 + 5*t^19 + t^20 + 5*t^21 + 6*t^22 + '
    '4*t^23 + 3*t^24 + 5*t^25 + t^26 + 3*t^27 + 3*t^28 + 3*t^29 + O(t^30)) + (4*t^3 + '
    '2*t^4 + 4*t^5 + 3*t^6 + t^9 + 5*t^10 + 6*t^11 + 2*t^12 + 5*t^13 + t^14 + 2*t^17 + '
    't^18 + 4*t^19 + 5*t^20 + 2*t^21 + 4*t^22 + t^23 + 2*t^25 + 5*t^26 + t^28 + 2*t^29 + '
    'O(t^30))*u + (5*t + 4*t^2 + 4*t^3 + 2*t^5 + 3*t^7 + 4*t^8 + 5*t^9 + 3*t^10 + 4*t^12 '
    '+ 3*t^13 + 6*t^15 + 2*t^16 + t^17 + 6*t^18 + 4*t^20 + t^21 + 3*t^22 + 6*t^23 + t^25 '
    '+ 3*t^26 + 2*t^27 + 6*t^28 + 2*t^29 + O(t^30))*u^2 + (2*t^2 + t^3 + 5*t^4 + 3*t^5 + '
    '3*t^6 + 4*t^7 + 4*t^8 + 6*t^9 + 2*t^10 + 3*t^11 + 2*t^13 + 2*t^14 + 6*t^15 + t^16 + '
    '4*t^17 + 5*t^19 + 4*t^20 + 4*t^21 + 2*t^22 + 3*t^23 + 6*t^25 + 5*t^26 + 6*t^27 + '
    't^28 + 6*t^29 + O(t^30))*u*X + (4 + 6*t + 5*t^2 + 2*t^3 + 5*t^4 + 2*t^6 + 6*t^7 + '
    '2*t^8 + 3*t^9 + 6*t^10 + 4*t^11 + t^12 + 2*t^13 + 3*t^15 + t^16 + 3*t^17 + 4*t^18 + '
    '2*t^19 + 5*t^20 + 3*t^21 + 6*t^22 + 5*t^23 + t^24 + t^25 + 4*t^28 + 5*t^29 + '
    'O(t^30))*u^2*X + (t + 4*t^2 + 4*t^3 + 4*t^4 + 6*t^6 + 6*t^7 + 6*t^8 + 4*t^9 + 6*t^10 '
    '+ 5*t^11 + 5*t^12 + t^13 + t^14 + 2*t^15 + 3*t^16 + 6*t^17 + 2*t^18 + 2*t^19 + '
    '4*t^20 + 4*t^21 + t^22 + 5*t^23 + 6*t^25 + 4*t^26 + 6*t^27 + 4*t^28 + 4*t^29 + '
    'O(t^30))*u*X^2'
    "\n")


@pytest.mark.parametrize("d, alpha, code, stdout", [
    ("4;0;0;1;0;0;0;0;0", "6", 1, GOLDEN_KERNEL),
    ("1 + t;0;2*t;0;0;3 + t^2;0;0;0", "2", 0, GOLDEN_UNIT_INVERSE),
])
def test_algebra_invert_golden_stdout(capsys, d, alpha, code, stdout):
    assert run(capsys, "algebra", "invert", "--alpha", alpha, "--d", d)[:2] == (code, stdout)


# stdout of `algebra invert` over K for q = 5, recorded before the solve over
# K read its solution and kernel off one forward elimination; it must stay
# byte-identical.  The unit is pinned by its sha256 (2277 bytes).
Q5_UNIT = "1;0;0;2*t;0;0;0;0;0;0;0;0;0;0;0;0;3*t^2 + t^4;0;0;0;0;0;0;0;0"
Q5_UNIT_INVERSE_SHA256 = "f87968becbdb86e41e1a916d297f7278bf7012d2290244f8f49d3279a4adce94"
Q5_README_ZERO_DIVISOR = "9;5;4;10;2;2;4;2;0;8;10;10;9;2;7;4;0;0;4;9;5;7;0;1;5"
GOLDEN_Q5_KERNEL = (
    '{"error": "zero divisor", "kernel": "(3 + 8*t + 3*t^2 + 3*t^3) + (7 + 7*t + 4*t^2 + '
    '8*t^3)*u + (1 + t + 9*t^2)*u^2 + (9 + t + t^2)*u^3 + (9 + 8*t + 9*t^2)*u^4 + (7 + '
    '4*t + 7*t^2 + 7*t^3)*X + (5 + 5*t + 6*t^2 + t^3)*u*X + (10 + 10*t + 2*t^2)*u^2*X + '
    '(6 + 8*t + 8*t^2)*u^3*X + (7 + 5*t + 7*t^2)*u^4*X + (9 + 2*t + 9*t^2 + 9*t^3)*X^2 + '
    '(2 + 2*t + 9*t^2 + 7*t^3)*u*X^2 + (1 + t + 9*t^2)*u^2*X^2 + (4 + 9*t + '
    '9*t^2)*u^3*X^2 + (3 + 10*t + 3*t^2)*u^4*X^2 + (10 + t + 10*t^2 + 10*t^3)*X^3 + (3 + '
    '3*t + 8*t^2 + 5*t^3)*u*X^3 + (10 + 10*t + 2*t^2)*u^2*X^3 + (10 + 6*t + '
    '6*t^2)*u^3*X^3 + (6 + 9*t + 6*t^2)*u^4*X^3 + (5 + 6*t + 5*t^2 + 5*t^3)*X^4 + (10 + '
    '10*t + t^2 + 2*t^3)*u*X^4 + (1 + t + 9*t^2)*u^2*X^4 + (3 + 4*t + 4*t^2)*u^3*X^4 + (1 + '
    '7*t + t^2)*u^4*X^4"}'
    "\n")


def test_algebra_invert_over_k_golden_stdout(capsys):
    argv = ["algebra", "invert", "--p", "11", "--q", "5", "--alpha", "10", "--d"]
    code, out, _ = run(capsys, *argv, Q5_UNIT)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == Q5_UNIT_INVERSE_SHA256
    assert run(capsys, *argv, Q5_README_ZERO_DIVISOR)[:2] == (1, GOLDEN_Q5_KERNEL)


# stdout of `algebra invert` for a q = 5 unit whose coordinates are truncated,
# so that it is solved over F = F_11((t)), recorded before that solve ran on
# Series arithmetic; it must stay byte-identical.  Pinned by its sha256
# (16609 bytes).
TRUNCATED_Q5_UNIT = ("1 + 3*t + O(t^100);2*t + O(t^100);0;0;0;0;t^2 + O(t^100);0;0;0;0;0;"
                     "4 + O(t^100);0;0;0;0;0;0;0;0;0;0;0;5*t + O(t^100)")
TRUNCATED_Q5_INVERSE_SHA256 = "ffa64804cd20c5a63b8d71f9863e1db2b72e261857af29f9e92ea5ffb9b8188c"


def test_algebra_invert_truncated_unit_golden_stdout(capsys):
    code, out, _ = run(capsys, "algebra", "invert", "--p", "11", "--q", "5", "--alpha", "3",
                       "--prec", "100", "--d", TRUNCATED_Q5_UNIT)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == TRUNCATED_Q5_INVERSE_SHA256


def test_algebra_constants_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "constants.json"
    code, out, _ = run(capsys, "algebra", "constants", "--alpha", "2",
                       "--out", str(out_path))
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["n"] == 9
    assert len(data["matrices"]) == 9


def test_albert_command(capsys):
    code, out, _ = run(capsys, "albert", "--trials", "20", "--seed", "1")
    assert code == 0
    data = json.loads(out)
    assert data["failures"] == 0 and data["trials"] == 20


def test_biquat_constants(tmp_path, capsys):
    out_path = tmp_path / "biquat.json"
    code, _, _ = run(capsys, "biquat", "constants", "--out", str(out_path), "--prec", "6")
    assert code == 0
    data = json.loads(out_path.read_text())
    assert data["n"] == 16
    assert data["basis"][0] == "1(x)1"


# sha256 of the written files, recorded before the flat structure-constant
# product existed; the files must not change byte for byte
BIQUAT_CONSTANTS = "4d8dbe2dab7b534459d6b0da93d0cffbd51789643c289da1d681e08f3eafe131"


@pytest.mark.parametrize("argv, digest", [
    (["algebra", "constants", "--alpha", "2"],
     "f5de5628f8e1c4650e94143d9c44b43f88626614b7645abc6ce3a1cbe1664293"),
    (["biquat", "constants"], BIQUAT_CONSTANTS),
    (["biquat", "constants", "--prec", "6"], BIQUAT_CONSTANTS),
])
def test_constants_files_byte_identical(tmp_path, capsys, argv, digest):
    out_path = tmp_path / "constants.json"
    assert run(capsys, *argv, "--out", str(out_path))[0] == 0
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == digest


def test_verify_selected_claims(capsys, tmp_path):
    out_path = tmp_path / "reports.jsonl"
    code, out, err = run(capsys, "verify", "--trials", "10",
                         "--claims", "norm-closed-forms", "norm-valuation-identity",
                         "--out", str(out_path))
    assert code == 0
    lines = out_path.read_text().strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        report = json.loads(line)
        assert report["passed"] is True
        assert "elapsed" not in report
    assert "PASS" in err


def test_verify_determinism(capsys):
    args = ["verify", "--trials", "5", "--claims", "norm-residues"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"trials": 7, "seed": 3}))
    code, out, _ = run(capsys, "verify", "--config", str(cfg),
                       "--claims", "norm-closed-forms")
    assert code == 0
    assert json.loads(out.splitlines()[0])["seed"] == 3
    # flags beat the config file
    code, out, _ = run(capsys, "verify", "--config", str(cfg), "--seed", "5",
                       "--claims", "norm-closed-forms")
    assert json.loads(out.splitlines()[0])["seed"] == 5


def test_verify_invalid_config_exit_2(capsys):
    code, _, err = run(capsys, "verify", "--p", "6")
    assert code == 2
    assert "error" in err


def test_env_precision(capsys, monkeypatch):
    monkeypatch.setenv("CDA_PRECISION", "8")
    code, out, _ = run(capsys, "is-norm", "--x", "6")
    assert code == 0
    assert "O(t^8)" in json.loads(out)["preimage"]
    monkeypatch.setenv("CDA_PRECISION", "notanint")
    code, _, err = run(capsys, "is-norm", "--x", "6")
    assert code == 2
    assert "CDA_PRECISION" in err


def test_usage_error_exit_2():
    with pytest.raises(SystemExit) as exc_info:
        main(["not-a-command"])
    assert exc_info.value.code == 2


def test_rationals_mode(capsys):
    code, out, _ = run(capsys, "algebra", "invert", "--rationals", "--q", "2",
                       "--alpha", "-1", "--d", "1;1;1;1")
    assert code == 0
    assert out.strip() == "1/4 + -1/4*u + -1/4*X + -1/4*u*X"


def test_hahn_mode(capsys):
    code, out, _ = run(capsys, "algebra", "certify", "--hahn", "7", "--alpha", "x",
                       "--prec", "6")
    assert code == 0
    assert json.loads(out)["division"] is True


@pytest.mark.parametrize("argv", [
    ["is-norm", "--x", "*t"],
    ["is-norm", "--x", "1/0"],
    ["is-norm", "--q", "4", "--x", "t"],
    ["is-norm", "--p", "8", "--x", "t"],
    ["algebra", "build", "--rationals", "--q", "2", "--alpha", "1/0"],
    ["algebra", "build", "--rationals", "--q", "2", "--hahn", "7", "--alpha", "-1"],
    ["algebra", "mul", "--alpha", "2", "--a", "1;;0;0;0;0;0;0;0", "--b", "1;0;0;0;0;0;0;0;0"],
    ["algebra", "certify", "--hahn", "4", "--alpha", "x", "--prec", "6"],
    ["algebra", "certify", "--hahn", "5", "--alpha", "x", "--prec", "6"],
    ["algebra", "certify", "--hahn", "0", "--alpha", "x", "--prec", "6"],
    ["is-norm", "--x", "1 + + t"],
    ["algebra", "invert", "--alpha", "2", "--d", "0;0;0;0;0;0;0;0;0"],
    ["algebra", "invert", "--alpha", "6", "--d", "4 + O(t^3);0;0;1;0;0;0;0;0"],
    # a precision below 1 leaves a norm certificate with no known coefficient
    ["is-norm", "--x", "6 + t", "--prec", "0"],
    ["is-norm", "--x", "6 + t", "--prec", "-4"],
    ["is-norm", "--hahn", "7", "--x", "6 + t", "--prec", "0"],
    ["algebra", "certify", "--alpha", "6 + t", "--prec", "0"],
    ["algebra", "certify", "--hahn", "7", "--alpha", "x", "--prec", "0"],
    ["albert", "--trials", "5", "--prec", "0"],
    ["albert", "--trials", "0"],
    ["albert", "--trials", "-2"],
])
def test_malformed_input_exits_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: ")


def test_precision_below_1_from_env_or_biquat_exits_2(capsys, monkeypatch, tmp_path):
    out_path = tmp_path / "biquat.json"
    code, out, err = run(capsys, "biquat", "constants", "--out", str(out_path), "--prec", "0")
    assert (code, out) == (2, "") and err.startswith("error: ") and not out_path.exists()
    monkeypatch.setenv("CDA_PRECISION", "0")
    for argv in (["is-norm", "--x", "6 + t"], ["algebra", "certify", "--alpha", "6 + t"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "") and err.startswith("error: ")


@pytest.mark.parametrize("text, reason", [
    ('{"bogus": 1}', "unknown keys"),
    ("{nope", "not valid JSON"),
    ("[1,2]", "JSON object"),
    ('"trials"', "JSON object"),
    ('{"trials": "5"}', "trials must be an integer"),
    ('{"trials": true}', "trials must be an integer"),
    ('{"seed": 1.5}', "seed must be an integer"),
    ('{"p": null}', "p must be an integer"),
    ('{"claims": "albert-anisotropy"}', "claims must be a list"),
    ('{"claims": [1]}', "claims must be a list"),
    ('{"claims": []}', "at least one claim id"),
])
def test_malformed_verify_config_exits_2(capsys, monkeypatch, tmp_path, text, reason):
    def claim_runs(config, tally):
        raise AssertionError("a claim ran on a malformed config")

    monkeypatch.setattr(verify, "_CLAIM_FUNCS", dict.fromkeys(verify.CLAIM_IDS, claim_runs))
    cfg = tmp_path / "config.json"
    cfg.write_text(text)
    code, out, err = run(capsys, "verify", "--config", str(cfg))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and reason in err


def test_verify_claims_flag_without_ids_exits_2(capsys, monkeypatch, tmp_path):
    # an empty --claims names no claim; it used to run every claim and exit 0
    def claim_runs(config, tally):
        raise AssertionError("a claim ran with an empty claim list")

    monkeypatch.setattr(verify, "_CLAIM_FUNCS", dict.fromkeys(verify.CLAIM_IDS, claim_runs))
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"claims": ["norm-closed-forms"]}))
    for extra in ([], ["--config", str(cfg)]):
        code, out, err = run(capsys, "verify", "--trials", "5", *extra, "--claims")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and "at least one claim id" in err


def test_unreadable_verify_config_exits_2(capsys, tmp_path):
    code, out, err = run(capsys, "verify", "--config", str(tmp_path))  # a directory
    assert (code, out) == (2, "") and err.startswith("error: ")
