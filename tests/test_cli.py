import io
import json
import sys

from canonform import forms_close, parse_form
from canonform.cli import main
from canonform.forms import parse_decomposition


def run_cli(argv, stdin_text=None, capsys=None):
    if stdin_text is not None:
        old = sys.stdin
        sys.stdin = io.StringIO(stdin_text)
        try:
            code = main(argv)
        finally:
            sys.stdin = old
    else:
        code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err


def test_sylvester_worked_example(capsys):
    code, out, _ = run_cli(["decompose", "sylvester",
                            "2*x^3+3*x^2*y-21*x*y^2-41*y^3"], capsys=capsys)
    assert code == 0
    assert out.strip() == "5*(x+2*y)^3 - 3*(x+3*y)^3"


def test_count_s(capsys):
    code, out, _ = run_cli(["count", "s", "--d", "15"], capsys=capsys)
    assert code == 0 and out.strip() == "2"


def test_certify_sextican(capsys):
    code, out, _ = run_cli(["certify", "sextican"], capsys=capsys)
    assert code == 0
    assert out.strip() == "Certified (rank 7/7)"


def test_certify_inconclusive_exit_code(capsys):
    code, out, _ = run_cli(["certify", "quarticgen", "--param", "d=5",
                            "--param", "B=0,1,2,3", "--trials", "4"],
                           capsys=capsys)
    assert code == 2
    assert out.startswith("NotFullRankAtWitness")


def test_usage_error_exit_code(capsys):
    code, _, _ = run_cli(["definitely-not-a-command"], capsys=capsys)
    assert code == 1


def test_degenerate_input_exit_code(capsys):
    code, _, err = run_cli(["decompose", "uppertri", "x*y"], capsys=capsys)
    assert code == 2
    assert "PivotZero" in err or "pivot" in err


def test_stdin_form(capsys):
    code, out, _ = run_cli(["decompose", "sylvester", "-"],
                           stdin_text="x^3 + y^3", capsys=capsys)
    assert code == 0
    assert "^3" in out


def test_json_determinism(capsys):
    argv = ["--json", "--seed", "11", "count", "reps", "--d", "4", "--e",
            "2", "--m", "2", "--trials", "300"]
    code1, out1, _ = run_cli(list(argv), capsys=capsys)
    code2, out2, _ = run_cli(list(argv), capsys=capsys)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["flag"] == "ESTIMATE" and payload["estimate"] == 2


def test_certify_with_witness_file(capsys, tmp_path):
    path = tmp_path / "witness.txt"
    path.write_text("1 0 0 0 0 0 1\n")
    code, out, _ = run_cli(["certify", "sextican", "--witness", str(path)],
                           capsys=capsys)
    assert code == 0 and out.strip() == "Certified (rank 7/7)"


def test_epsilon_validation(capsys):
    code, _, err = run_cli(["--epsilon", "-1", "count", "s", "--d", "3"],
                           capsys=capsys)
    assert code == 1 and "epsilon" in err


def test_env_seed_fallback(capsys, monkeypatch):
    monkeypatch.setenv("CANONFORM_SEED", "77")
    code, out, _ = run_cli(["--json", "certify", "sylvgen", "--param", "u=2",
                            "--param", "v=2", "--trials", "6"], capsys=capsys)
    assert code == 0
    assert json.loads(out)["seed"] == 77


def test_printed_decomposition_round_trips(capsys):
    src = "-x^5 + 15*x^4*y - 170*x^3*y^2 + 390*x^2*y^3 - 505*x*y^4 + 483*y^5"
    code, out, _ = run_cli(["decompose", "mixed", src, "--fixed", "x+y",
                            "--fixed=-x+3*y"], capsys=capsys)
    assert code == 0
    rebuilt = parse_decomposition(out.strip()).reconstruct()
    assert rebuilt == parse_form(src)


def test_two_squares_lists_all(capsys):
    code, out, _ = run_cli(["decompose", "two-squares", "x^4 - y^4"],
                           capsys=capsys)
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert len(lines) == 3
    for ln in lines:
        rec = parse_decomposition(ln).reconstruct()
        assert forms_close(rec.approx(), parse_form("x^4 - y^4").approx(),
                           1e-8)


def test_enumerate_obstruction(capsys):
    code, out, _ = run_cli(["enumerate", "obstruction", "--d", "10",
                            "--max", "30"], capsys=capsys)
    assert code == 0
    assert out.split()[0] == "6"


def test_classify_hyperplane_exceptional_exit(capsys):
    code, out, _ = run_cli(["classify-hyperplane", "1,0,i,0"], capsys=capsys)
    assert code == 2
    assert "Exceptional" in out


def test_verify_examples(capsys):
    code, out, _ = run_cli(["verify-examples"], capsys=capsys)
    assert code == 0
    assert "FAIL" not in out
    lines = [ln for ln in out.splitlines() if ln.startswith("PASS")]
    assert len(lines) >= 25


def test_approx_backend_flag(capsys):
    code, out, _ = run_cli(["--backend", "approx", "decompose", "sylvester",
                            "x^3 + y^3"], capsys=capsys)
    assert code == 0
    rec = parse_decomposition(out.strip()).reconstruct()
    assert forms_close(rec.approx(), parse_form("x^3 + y^3").approx(), 1e-8)


def test_quartic_six_model(capsys):
    code, out, _ = run_cli(["decompose", "quartic-six", "x^4+y^4", "--lam",
                            "0"], capsys=capsys)
    assert code == 0
    lines = [ln for ln in out.strip().splitlines() if ln]
    assert len(lines) == 6
    target = parse_form("x^4 + y^4")
    for ln in lines:
        assert parse_decomposition(ln).reconstruct() == target


def test_sylvester_skips_an_order_with_every_multiplier_negligible(capsys):
    # At order 5 every multiplier of this nonic drops out as negligible; the
    # search must go on to the next order instead of failing internally.
    src = ("-x1^9 - 8*x1^8*x2 + 4*x1^7*x2^2 - 7*x1^6*x2^3 - 2*x1^5*x2^4 "
           "+ 9*x1^4*x2^5 + 2*x2^9")
    code, out, _ = run_cli(["decompose", "sylvester", src], capsys=capsys)
    assert code == 0
    rec = parse_decomposition(out.strip()).reconstruct()
    assert forms_close(rec.approx(), parse_form(src).approx(), 1e-8)


def test_coefficient_beyond_float_range_is_a_usage_error(capsys):
    for argv in (["decompose", "sylvester", "(1e400)*x^3+y^3"],
                 ["--backend", "approx", "decompose", "sylvester",
                  "(1e400)*x^3+y^3"],
                 ["decompose", "mixed", "x^3+y^3", "--fixed", "1e400*x+y"]):
        code, out, err = run_cli(argv, capsys=capsys)
        assert code == 1 and out == ""
        assert "coefficient of x" in err and "float" in err
