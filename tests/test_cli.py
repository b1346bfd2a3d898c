import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor

import pytest

from canonform import cli, commands, forms_close, parse_form
from canonform.cli import main
from canonform.errors import ParseError
from canonform.forms import ACCEPT_TOL, parse_decomposition
from tests_support import (FUZZ_SHAPES, exact_backward_error, fresh_json,
                           fuzz_argvs, fuzz_runs, printed_errors,
                           subprocess_env)


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


def test_verify_examples_bytes_are_pinned(capsys):
    # every label, its order and the JSON layout, by sha256 of stdout
    for flags, sha in (([], "6d7115158a772bf034756aa9b6f1874e"
                            "3f9a7ba40960d254c63fda441fc28007"),
                       (["--json"], "5c00549cc57238da13b361aad1975c87"
                                    "de81f5887a0f98e7cdd1052b90e48635")):
        code, out, _ = run_cli(flags + ["verify-examples"], capsys=capsys)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha


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


# Exact stdout of the decompose paths that print lists, shear, or ignore
# --shear: text bytes literally, --json bytes by sha256.  Several outputs are
# floats from numpy's root finders and SVD, so they pin this numpy/LAPACK
# build's rounding as well as the output format.
_GOLDEN_DECOMPOSE = [
    (['decompose', 'two-squares', 'x^4 - y^4'],
     ('(x^2+(0+1*i)*y^2)^2 + ((-1+1*i)*x*y)^2\n'
      '(x^2+(0-1*i)*y^2)^2 + ((1+1*i)*x*y)^2\n'
      '(x^2)^2 + ((0+1*i)*y^2)^2\n'),
     '09d08abe7836c93d53aa103a416fc429cbb70d6941a2bfc25eb9a325271fdd89'),
    (['decompose', 'quartic-six', 'x^4+y^4', '--lam', '1/5'],
     ('(x^2+3/5*y^2)^2 + 16/25*y^4\n'
      '(3/5*x^2+y^2)^2 + 16/25*x^4\n'
      '5/4*(x^2+2/5*x*y+y^2)^2 - 1/4*(x+y)^4\n'
      '5*(x^2+(0+8/5*i)*x*y-y^2)^2 - 4*(x+(0+1*i)*y)^4\n'
      '5/4*(x^2-2/5*x*y+y^2)^2 - 1/4*(x-y)^4\n'
      '5*(x^2+(0-8/5*i)*x*y-y^2)^2 - 4*(x+(0-1*i)*y)^4\n'),
     '1fc1f6ef77a0b7e2eb26967e8f5d74247305d0a4b975cc88c756c8fffb462ed5'),
    (['decompose', 'quartic-six', 'x^4 + 2*x^3*y + 3*y^4'],
     ('(0.11147260975035606+1.5088070175156962e-18*i)*'
      '((7.594242855261639-4.1660191217083054e-18*i)*'
      'x^2+(23.01768973080157-1.1821510737445325e-16*i)*x*'
      'y+(20.88275914817196-2.1427648599948225e-16*i)*y^2)^2 + '
      '(-5.428906821888333-7.348148328677469e-17*i)*'
      '((1.0+1.2653384971543908e-33*i)*'
      'x+(1.702518339591199-8.830945514012026e-18*i)*y)^4\n'
      '(0.11147260975035606+1.5088070175156962e-18*i)*'
      '((4.837276184184784-2.937020168046177e-17*i)*'
      'x^2+(-3.557687666877039+2.675442039675678e-17*i)*x*'
      'y+(6.057028499395587-4.619171903335702e-17*i)*y^2)^2 + '
      '(-5.428906821888333-7.348148328677469e-17*i)*'
      '((0.7377660974712205-2.8234010318363768e-18*i)*'
      'x+(-0.6693370143295323+1.708280172131481e-18*i)*y)^4\n'
      '(0.027695250845715964+3.7486149217691844e-19*i)*'
      '((-2.9191447902365835+1.2915399125310515e-17*i)*'
      'x^2+(-1.1322347486032203+4.680120066130079e-17*i)*x*'
      'y+(10.240846147171704-8.571253517651478e-17*i)*y^2)^2 + '
      '(0.0837773589046401+1.1339455253387777e-18*i)*'
      '((1.7377660974712206-2.8234010318363756e-18*i)*'
      'x+(1.0331813252616666-7.122665341880545e-18*i)*y)^4\n'
      '(-0.036850790354668525-4.98783792831638e-19*i)*'
      '((-0.4557011854220856+5.938975799756939*i)*'
      'x^2+(-4.392664993092272+4.723089707763441*i)*x*'
      'y+(-2.4505566578928004-9.17338249630225*i)*y^2)^2 + '
      '(0.14832340010502457+2.007590810347334e-18*i)*'
      '((0.7377660974712205+1.0*i)*'
      'x+(-0.6693370143295323+1.702518339591199*i)*y)^4\n'
      '(0.027695250845715964+3.7486149217691844e-19*i)*'
      '((6.007742419392413-2.1247437368727074e-17*i)*'
      'x^2+(5.9670514791482665-6.952451066580814e-17*i)*x*'
      'y+(-3.5476846763798116+2.0999487802159077e-17*i)*y^2)^2 + '
      '(0.0837773589046401+1.1339455253387777e-18*i)*'
      '((-0.26223390252877954-2.823401031836378e-18*i)*'
      'x+(-2.371855353920731+1.0539225686143507e-17*i)*y)^4\n'
      '(-0.036850790354668525-4.98783792831638e-19*i)*'
      '((-0.4557011854220856-5.938975799756939*i)*'
      'x^2+(-4.392664993092273-4.723089707763441*i)*x*'
      'y+(-2.4505566578928004+9.17338249630225*i)*y^2)^2 + '
      '(0.14832340010502457+2.007590810347334e-18*i)*'
      '((0.7377660974712205-1.0*i)*'
      'x+(-0.6693370143295323-1.702518339591199*i)*y)^4\n'),
     '5c583d27eb49fe9c3c631fa39f27c9435cb87a4fc66270ae0115e7f077710988'),
    (['decompose', 'quartic-two-fixed',
      'x^4 + 4*x^3*y + 5*x^2*y^2 + 2*x*y^3 + y^4', '--l1', 'x', '--l2', 'y'],
     ('(x^2+2*x*y+1/2*y^2)^2 + 0*x^4 + 3/4*y^4\n'
      '4*(x^2+1/2*x*y+1/2*y^2)^2 - 3*x^4 + 0*y^4\n'),
     '56b6808407ecc9513c4c8af9440b3b8ab20b1edab181aad9df66cfbbfb7cbc16'),
    (['decompose', 'uppertri', 'x^2 + 2*x*y + 5*y^2'],
     ('(x + y)^2\n'
      '(2*y)^2\n'),
     'de01862e995f37324c7af9958aa68ebebca358562601d4c00f1e73cc7d22e48f'),
    (['decompose', 'reichstein-step', 'x^3 + 3*x^2*y + 6*x*y^2 + 2*y^3'],
     ('-0.502896319656381*(-0.6628271480711835*x+0.9373791423113474*'
      'y)^3 + 0.2083064760691883*(1.600206290382531*'
      'x+2.2630334384537147*y)^3\n'),
     '30d252a8c72ec75acdaaecdbc0a2e79a1f32d3ab08542993e7fc11f62b9c0bc7'),
    (['--seed', '3', 'decompose', 'uppertri', 'x^2 + 2*x*y + 5*y^2 + z^2',
      '--shear'],
     ('(5.65685424949238*x + 1.414213562373095*y - 2.82842712474619*'
      'z)^2\n'
      '(2.4494897427831783*y + 0.8164965809277261*z)^2\n'
      '(0.5773502691896257*z)^2\n'),
     'bbf186eca5f5de7d6342f41a9e6d496721f0897240cf72be4e62b2242fe7543a'),
    (['--seed', '5', 'decompose', 'slinky', 'x^3 + 3*x^2*y + 6*x*y^2 + 2*y^3',
      '--shear'],
     '-1/15390*(-90*x+57*y)^3 + 100/3*(1/10*y)^3 - 7/19*x^3\n',
     'a25ec0ac6643ecccecfe1234e7d61a21a2cd7f5de5051cf342b856021ca36d1e'),
    (['decompose', 'sylvester', '2*x^3+3*x^2*y-21*x*y^2-41*y^3', '--shear'],
     '5*(x+2*y)^3 - 3*(x+3*y)^3\n',
     '2d08b559305db1b9730e759143d1feb998aa99b8d4d10c2b9cae64305d9b4a66'),
    (['decompose', 'slowpoke',
      'x1^3 + 2*x1*x2*x3 - x2^2*x4 + 3*x3*x4^2 + x4^3 - x1*x4^2'],
     ('0.25*(x1+(-0.13608276348795434-0.13608276348795434*i)*x2+(-0.136'
      '08276348795434+0.13608276348795434*i)*x3+(-5.892084659582816e-17'
      '+0.9622504486493765*i)*x4)^3 + 0.25*(x1+(0.6804138174397717-0.13'
      '608276348795434*i)*x2+(0.6804138174397717+0.13608276348795434*i)'
      '*x3+(1.1784169319165633e-17-0.19245008972987523*i)*x4)^3 + 0.25*'
      '(x1+(-0.1360827634879544+0.6804138174397717*i)*x2+(-0.1360827634'
      '879543-0.6804138174397717*i)*x3+(1.1784169319165633e-17-0.192450'
      '08972987523*i)*x4)^3 + 0.25*(x1+(-0.408248290463863-0.4082482904'
      '63863*i)*x2+(-0.408248290463863+0.408248290463863*i)*x3+(3.53525'
      '079574969e-17-0.5773502691896258*i)*x4)^3 + (-0.0100560876639600'
      '09+0.01693135829873989*i)*(x2+(-2.605423204469093+2.998468732313'
      '8024*i)*x3+(0.314418784485252+2.560732542098203*i)*x4)^3 + (0.06'
      '174920095150573+0.03977454762585391*i)*(x2+(1.0978178567014556+1'
      '.8273876123354713*i)*x3+(-0.6314481119500847+1.5391037662813676*'
      'i)*x4)^3 + (0.04464189532472868-0.1640276327115758*i)*((1.0-4.24'
      '9023381433485e-18*i)*x2+(-0.5529823313783667-1.2057468985148403*'
      'i)*x3+(-0.040363687806095595-1.2570302104366746*i)*x4)^3 + (-0.1'
      '590120135981542+0.3760868620650416*i)*(x2+(-0.3632717719058926-0'
      '.7096801061617527*i)*x3)^3 + (-0.0010218781030341309+0.001415641'
      '129980222*i)*(x2+(2.1214097411219197+9.402546373218282*i)*x3)^3 '
      '+ (-0.08750418745325779-0.11897770586586803*i)*(x2+x3)^3\n'),
     'b3fb2bd53dcb80b7f41ad3e564668a11b755413418886671d9f7b2c299373c05'),
    (['--backend', 'approx', 'decompose', 'slowpoke',
      'x^3 + 2*x*y*z - y^2*z + 3*z^3 + x*y^2'],
     ('0.3333333333333333*(x+0.7886751345948129*y+(0.7886751345948129-0'
      '.21132486540518716*i)*z)^3 + 0.3333333333333333*(x-0.21132486540'
      '518713*y+(-0.21132486540518716+0.7886751345948131*i)*z)^3 + 0.33'
      '33333333333333*(x-0.5773502691896257*y+(-0.5773502691896257-0.57'
      '73502691896258*i)*z)^3 - 0.048112522432468795*(y+(5.289598212107'
      '522+3.196385094564628*i)*z)^3 - 0.048112522432468795*(y+(3.63860'
      '50181679868-5.1963850945646275*i)*z)^3 + (-9.9282032302755+8.543'
      '30305081575*i)*z^3\n'),
     'bf7afde3fafad71943a6ee70ee7c045393a0888bf17555c1a49f476018a0aa30'),
    (['--backend', 'approx', 'decompose', 'quartic-lift',
      'x^4 + 2*x^3*y - x*y^2*z + 3*z^4 + y^4 + x^2*z^2 + y*z^3'],
     ('(0.12499999999999985+1.930659734144111e-17*i)*((5.72376645386371'
      '9e-17-0.6354561953312908*i)*x+(-3.46175404942473e-17+0.577350269'
      '1896254*i)*y+(2.5653603885618625e-16+1.0491150634216497*i)*z)^4 '
      '+ (0.125-5.727930714625022e-17*i)*((0.5503212081491045-0.3177280'
      '9766564547*i)*x+(-1.20325571765733e-16-0.577350269189626*i)*y+(0'
      '.9085602964160696+0.5245575317108244*i)*z)^4 + (0.12500000000000'
      '006+2.291172285850009e-17*i)*((0.5503212081491043+0.317728097665'
      '64547*i)*x+(-5.035552331398885e-17+0.577350269189626*i)*y+(0.908'
      '5602964160695-0.5245575317108243*i)*z)^4 + (2.9999999999999996+8'
      '.326672684688674e-17*i)*z^4 + ((1.0-6.938893903907228e-18*i)*x^4'
      '+(2.222222222222222+2.895978387254865e-17*i)*x^3*y+(2.9143354396'
      '41036e-16-5.204170427930421e-17*i)*x^2*y^2+(-3.5041414214731503e'
      '-16+6.938893903907228e-17*i)*x*y^3+(0.9583333333333334+5.0752396'
      '58332559e-18*i)*y^4)\n'),
     'eef3f63e8cf2cb9df46b87d9adc120486878c2a951efb1b7233d1c28e93a6b58'),
    # float constructions whose exact snap is accepted
    (['decompose', 'sylvester', 'x^3+y^3'], 'y^3 + x^3\n',
     '78dc7b3b801213327a23709bd600792185009a326f2b2a99b0efa776a8be7814'),
    (['decompose', 'slowpoke', 'x^3+y^3+z^3'], 'x^3 + y^3 + z^3\n',
     'b7aebdff100ea9118daab21d51216abd7ac475fe2f1a1c697fa51b44fb203b95'),
    (['decompose', 'quartic-two-fixed', 'x^4+x^3*y+x^2*y^2+x*y^3+y^4',
      '--l1', 'x', '--l2', 'y'],
     ('(1/4-1/4*i)*(x^2+(1+1*i)*x*y+y^2)^2 + (3/4+1/4*i)*x^4 + '
      '(3/4+1/4*i)*y^4\n'
      '(1/4+1/4*i)*(x^2+(1-1*i)*x*y+y^2)^2 + (3/4-1/4*i)*x^4 + '
      '(3/4-1/4*i)*y^4\n'),
     '500ce405d68883f6f38663b5cf13c1c6ac8309cdef782d63a03d9886c37c38d9'),
]


@pytest.mark.parametrize("argv,text,json_sha256", _GOLDEN_DECOMPOSE,
                         ids=[" ".join(c[0]) for c in _GOLDEN_DECOMPOSE])
def test_decompose_golden_stdout(capsys, argv, text, json_sha256):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out, err) == (0, text, "")
    code, out, err = run_cli(["--json"] + argv, capsys=capsys)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == json_sha256


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "neat", "--r", "0"], "--r must be at least 1, got 0"),
    (["count", "s", "--d", "0"], "--d must be at least 1, got 0"),
    (["count", "S", "--N", "-1"], "--N must be at least 1, got -1"),
    (["enumerate", "obstruction", "--d", "0"],
     "--d must be at least 2, got 0"),
    (["count", "reps", "--d", "4", "--e", "abc"], "cannot parse scalar 'abc'"),
    (["count", "reps", "--d", "1100", "--e", "1", "--m", "1099", "--trials",
      "1"], "--d must be at most 30, got 1100"),
    (["count", "reps", "--d", "31", "--e", "1", "--m", "30", "--trials", "1"],
     "--d must be at most 30, got 31"),
    (["count", "reps", "--d", "4", "--e", "2,1", "--trials",
      "99999999999999999999"],
     "--trials must be at most 1000000, got 99999999999999999999"),
    (["count", "reps", "--d", "12", "--e", "6", "--m", "5"],
     "--trials (default for --d 12) must be at most 1000000, got 1555200"),
    (["count", "s", "--d", str(10 ** 23)],
     f"--d must be at most 100000000000000, got {10 ** 23}"),
    (["count", "s", "--d", str(10 ** 14 + 1)],
     "--d must be at most 100000000000000, got 100000000000001"),
    (["count", "S", "--N", str(10 ** 23)],
     f"--N must be at most 100000000000000, got {10 ** 23}"),
])
def test_bad_enumeration_arguments_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("argv,message", [
    (["enumerate", "neat", "--r", "7"], "--r must be at most 6, got 7"),
    (["enumerate", "obstruction", "--d", "101"],
     "--d must be at most 100, got 101"),
    (["enumerate", "obstruction", "--d", "1000000", "--max", "200"],
     "--d must be at most 100, got 1000000"),
    (["enumerate", "obstruction", "--max", "10001"],
     "--max must be at most 10000, got 10001"),
])
def test_enumerate_above_its_caps_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out, err) == (1, "", message + "\n")


@pytest.mark.parametrize("argv,message", [
    (["certify", "sextican", "--param", "foo"],
     "--param needs key=value, got 'foo'"),
    (["--epsilon", "0", "count", "s", "--d", "3"], "--epsilon must be positive"),
    (["--epsilon", "-1", "count", "s", "--d", "3"],
     "--epsilon must be positive"),
    (["decompose", "mixed", "x^3+y^3"], "mixed needs at least one --fixed form"),
    (["decompose", "quartic-two-fixed", "x^4+y^4", "--l1", "x"],
     "quartic-two-fixed needs --l1 and --l2"),
    (["count", "s"], "count s needs --d"),
    (["count", "S"], "count S needs --N"),
    (["count", "reps", "--d", "4"], "count reps needs --d and --e"),
    (["count", "reps", "--e", "2,1"], "count reps needs --d and --e"),
])
def test_missing_or_malformed_options_are_one_line_usage_errors(capsys, argv,
                                                                message):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out, err) == (1, "", message + "\n")


def test_enumerate_takes_inputs_at_its_caps(capsys, monkeypatch):
    scanned = []
    monkeypatch.setattr(commands.enumeration, "obstruction_A",
                        lambda d, n: scanned.append((d, n)) or n == 7)
    code, out, _ = run_cli(["enumerate", "obstruction", "--d", "100",
                            "--max", "10000"], capsys=capsys)
    assert (code, out) == (0, "7\n")
    assert scanned == [(100, n) for n in range(1, 10001)]


def test_hyperplane_coefficient_beyond_float_range_is_a_usage_error(capsys):
    for argv in (["classify-hyperplane", "1e400,0,i,0"],
                 ["certify", "hyperplane", "--param", "c=1e400,0,i,0"]):
        code, out, err = run_cli(argv, capsys=capsys)
        assert (code, out) == (1, "")
        assert "hyperplane coefficient c1 does not fit in a float" in err
    # a scalar option stays exact and unbounded
    code, out, _ = run_cli(["decompose", "quartic-six", "x^4+y^4", "--lam",
                            "1e400"], capsys=capsys)
    assert code == 0 and len(out.splitlines()) == 6


@pytest.mark.parametrize("argv,message", [
    (["classify-hyperplane", "1,2"], "exactly 4 coefficients c1,c2,c3,c4, got 2"),
    (["certify", "hyperplane", "--param", "c=1"],
     "exactly 4 coefficients c1,c2,c3,c4, got 1"),
    (["certify", "hyperplane", "--param", "c=1,2,3,4,5"],
     "exactly 4 coefficients c1,c2,c3,c4, got 5"),
    (["count", "reps", "--d", "4", "--e", "1/2"],
     "--e entries must be integers, got 1/2"),
    (["count", "reps", "--d", "4", "--e", "2,(1+i)"],
     "--e entries must be integers, got (1+1*i)"),
])
def test_malformed_hyperplane_and_exponent_vectors_are_usage_errors(
        capsys, argv, message):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (1, "")
    assert message in err


@pytest.mark.parametrize("argv,message", [
    (["certify", "zerosum", "--param", "s=1/2"],
     "--param s needs integer values, got '1/2'"),
    (["certify", "uppertri", "--param", "n=i"],
     "--param n needs integer values, got 'i'"),
    (["certify", "wakeford", "--param", "n=2,3", "--param", "d=3"],
     "--param n takes one integer, got '2,3'"),
    (["certify", "omnibus", "--param", "d=1/2", "--param", "e=1",
      "--param", "m=0"], "--param d needs integer values, got '1/2'"),
    (["certify", "quarticgen", "--param", "d=5", "--param", "B=0,1,2,i"],
     "--param B needs integer values, got '0,1,2,i'"),
    (["certify", "sylv622", "--param", "s=1/2"],
     "--param s needs integer values, got '1/2'"),
])
def test_certify_parameters_of_the_wrong_type_are_usage_errors(
        capsys, argv, message):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (1, "")
    assert message in err


def test_certify_list_parameter_with_one_entry(capsys):
    code, out, _ = run_cli(["certify", "omnibus", "--param", "d=4",
                            "--param", "e=2", "--param", "m=2"], capsys=capsys)
    assert code == 0 and out.strip() == "Certified (rank 5/5)"



@pytest.mark.parametrize("form", ["x0^3 + y^3", "x0*y", "x01^3 + y^3"])
def test_variable_x0_is_a_parse_error(capsys, form):
    code, out, err = run_cli(["decompose", "sylvester", form], capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith("parse error: unknown name 'x0")


# Each of these once read as some other form (or was accepted with a stray *).
@pytest.mark.parametrize("form", [
    "(3i)*x^3 + y^3", "(1 2)*x^3 + y^3", "(2 i 2)*x^3 + y^3", "*x", "2**x",
    "x^3 + y^3*",
])
def test_misreadable_forms_are_parse_errors(capsys, form):
    with pytest.raises(ParseError):
        parse_form(form)
    code, out, err = run_cli(["decompose", "sylvester", form], capsys=capsys)
    assert (code, out) == (1, "")
    assert err.startswith("parse error: ")


def _same_outputs(argvs, capsys):
    """The (exit, stdout) that every argv gives, asserting that they agree."""
    results = {run_cli(argv, capsys=capsys)[:2] for argv in argvs}
    assert len(results) == 1
    return results.pop()


def _rejected(argv, capsys, message):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (1, "")
    assert message in err


def test_lam_is_read_in_the_form_grammar(capsys):
    quartic = ["decompose", "quartic-six", "x^4+y^4", "--lam"]
    code, out = _same_outputs([quartic + [lam] for lam in
                               ("2*i", "(1+i)^2", "(0+2*i)")], capsys)
    assert code == 0 and len(out.splitlines()) == 6
    assert _same_outputs([quartic + [lam] for lam in (".5", "1/2", "5e-1")],
                         capsys)[0] == 0
    _rejected(quartic + ["1_000"], capsys, "cannot parse scalar '1_000'")


def test_param_is_read_in_the_form_grammar(capsys):
    code, out = _same_outputs(
        [["certify", "hyperplane", "--param", f"c=1,0,{c},0"]
         for c in ("2*i", "(1+i)^2", "(0+2*i)")], capsys)
    assert (code, out) == (0, "Certified (rank 3/3)\n")
    _rejected(["certify", "hyperplane", "--param", "c=1,0,2 i,0"], capsys,
              "cannot parse scalar '2 i'")


def test_hyperplane_c_rejects_what_the_form_grammar_rejects(capsys):
    _rejected(["classify-hyperplane", "1_000,0,i,0"], capsys,
              "cannot parse scalar '1_000'")
    _rejected(["certify", "hyperplane", "--param", "c=1_000,0,i,0"], capsys,
              "cannot parse scalar '1_000'")
    # other spellings of an integer still give the same result
    assert _same_outputs([["classify-hyperplane", c] for c in
                          ("1000,0,i,0", "1e3,0,i,0", "2000/2,0,i,0")],
                         capsys)[0] == 0


def test_witness_is_read_in_the_form_grammar(capsys, tmp_path):
    path = tmp_path / "witness.txt"
    path.write_text("(1+i)^0 0 .0 0*i 0 0 -i*i\n")
    code, out, _ = run_cli(["certify", "sextican", "--witness", str(path)],
                           capsys=capsys)
    assert (code, out) == (0, "Certified (rank 7/7)\n")
    path.write_text("1 0 0 0 0 0 1_000\n")
    _rejected(["certify", "sextican", "--witness", str(path)], capsys,
              "cannot parse scalar '1_000'")


@pytest.mark.parametrize("make,reason", [
    (lambda path: None, "No such file or directory"),
    (lambda path: path.mkdir(), "Is a directory"),
    (lambda path: path.write_bytes(b"1 0 0 0 0 0 \xff\n"), "not UTF-8 text"),
], ids=["missing", "directory", "not-utf8"])
def test_unreadable_witness_file_is_a_usage_error(capsys, tmp_path, make,
                                                  reason):
    path = tmp_path / "witness.txt"
    make(path)
    code, out, err = run_cli(["certify", "sextican", "--witness", str(path)],
                             capsys=capsys)
    assert (code, out, err) == (
        1, "", f"cannot read --witness {path}: {reason}\n")


def test_e_is_read_in_the_form_grammar(capsys):
    code, out = _same_outputs(
        [["--seed", "3", "count", "reps", "--d", "4", "--e", e, "--trials",
          "40"] for e in ("2,1", " 2 , 1 ")], capsys)
    assert code == 0 and out.startswith("ESTIMATE: ")
    _rejected(["count", "reps", "--d", "4", "--e", "2,2*i"], capsys,
              "--e entries must be integers, got (0+2*i)")
    _rejected(["count", "reps", "--d", "4", "--e", "2,x"], capsys,
              "cannot parse scalar 'x'")


def test_classify_hyperplane_is_read_in_the_form_grammar(capsys):
    code, out = _same_outputs([["classify-hyperplane", f"1,0,{c},0"]
                               for c in ("2*i", "(1+i)^2")], capsys)
    assert code == 0 and out.startswith("Canonical (witness t = ")
    _rejected(["classify-hyperplane", "1,0,(2 i 2),0"], capsys,
              "cannot parse scalar '(2 i 2)'")


@pytest.mark.parametrize("argv,number", [
    (["decompose", "sylvester", "1/0*x^3+y^3"], "'1/0'"),
    (["decompose", "sylvester", "1.5/2*x^3+y^3"], "'1.5/2'"),
    (["decompose", "sylvester", "(1.5/2+i)*x^3+y^3"], "'1.5/2'"),
    (["certify", "zerosum", "--param", "s=(1/0)"], "'1/0'"),
])
def test_malformed_numbers_are_usage_errors(capsys, argv, number):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (1, "")
    assert f"bad number {number}" in err


@pytest.mark.parametrize("algo", ["reichstein-step", "reichstein"])
def test_dependent_pencil_eigenvectors_are_degenerate_input(capsys, algo):
    # a repeated pencil eigenvalue whose float roots pass the separation test
    code, out, err = run_cli(["--backend", "approx", "decompose", algo,
                              "1/3*z^3 + 7*x^3 + 5*x^2*y + 1/3*x*z^2"],
                             capsys=capsys)
    assert (code, out) == (2, "")
    assert "DegeneratePencil" in err


@pytest.mark.parametrize("backend", [[], ["--backend", "approx"]])
@pytest.mark.parametrize("form,splits", [
    ("531226592575*x1^6 - 253143392605*x1^5*x2 - 790449943128*x1^4*x2^2"
     " + 171068877588*x1^3*x2^3 + 242840731257*x1^2*x2^4"
     " - 354407936282*x1*x2^5 + 310406819769*x2^6", 10),
    ("1e20*x^4+2*1e20*x^3*y+3*1e20*x^2*y^2+5*1e20*x*y^3+7*1e20*y^4", 3),
])
def test_two_squares_far_from_norm_one_rebuild_the_input(capsys, backend,
                                                         form, splits):
    # with the leading constant on one side only, every split of the sextic
    # once rebuilt it only to about 1e-4, and a rotation of the quartic's
    # squares rounded to 0; both were refused
    code, out, err = run_cli(backend + ["decompose", "two-squares", form],
                             capsys=capsys)
    assert (code, err) == (0, "") and len(out.splitlines()) == splits
    for line in out.splitlines():
        assert exact_backward_error(line, parse_form(form)) <= ACCEPT_TOL


@pytest.mark.parametrize("argv", [["decompose", "nosuch", "x"],
                                  ["enumerate", "nosuch"], ["count", "nosuch"]])
def test_unknown_subcommand_choices_are_usage_errors(capsys, argv):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (1, "")
    assert "invalid choice: 'nosuch'" in err


def test_catalog_map_missing_a_parameter_is_degenerate_input(capsys):
    code, out, err = run_cli(["certify", "sylv622"], capsys=capsys)
    assert (code, out) == (2, "")
    assert "sylv622 takes parameters ['s']; missing ['s']" in err


def test_form_starting_with_a_minus_sign_after_double_dash(capsys):
    code, out, err = run_cli(["decompose", "sylvester", "--", "-x^3+y^3"],
                             capsys=capsys)
    assert (code, out, err) == (0, "y^3 - x^3\n", "")


def test_closed_output_pipe_is_not_an_internal_error():
    env = subprocess_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "canonform.cli", "decompose",
             "two-squares", "x^4 - y^4"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, text=True,
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "internal error" not in proc.stderr


def test_import_leaves_numpy_random_unimported():
    # numpy 2 imports numpy.random on first use; importing it at start-up
    # would add to every CLI call's set-up time
    code = ("import json, sys; import numpy;"
            " before = 'numpy.random' in sys.modules;"
            " import canonform, canonform.cli;"
            " print(json.dumps([before, 'numpy.random' in sys.modules]))")
    before, after = fresh_json(code)
    if before:
        pytest.skip("this numpy imports numpy.random with numpy")
    assert not after


_FRESH_MAIN = """
import contextlib, io, json, sys
import canonform, canonform.cli
rows = []
for argv in json.loads(sys.argv[1]):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = canonform.cli.main(argv)
    rows.append((code, out.getvalue(), "numpy" in sys.modules))
print(json.dumps(rows))
"""


def _fresh_main(argvs):
    """(exit, stdout, numpy imported) after each argv, run in turn through
    main in one new interpreter."""
    return [tuple(row) for row in fresh_json(_FRESH_MAIN, json.dumps(argvs))]


def test_exact_subcommands_start_without_numpy():
    # certify, classify-hyperplane, enumerate and count s/S are exact; numpy
    # would add more to a one-shot call's start-up than their work costs
    rows = _fresh_main([["certify", "sextican"],
                        ["classify-hyperplane", "1,2,3,4"],
                        ["enumerate", "obstruction"],
                        ["count", "s", "--d", "15"],
                        ["count", "S", "--N", "30"]])
    assert [code for code, _, _ in rows] == [0] * 5
    assert rows[0][1] == "Certified (rank 7/7)\n"
    assert [loaded for _, _, loaded in rows] == [False] * 5


@pytest.mark.parametrize("argv,sha256", [
    (["--json", "decompose", "slowpoke", "x^3+y^3+z^3"],
     "b7aebdff100ea9118daab21d51216abd7ac475fe2f1a1c697fa51b44fb203b95"),
    (["--json", "--seed", "11", "count", "reps", "--d", "4", "--e", "2",
      "--m", "2", "--trials", "300"],
     "d37dbc18d9033e186f5bdcc4686745d89b3446ed2a7b1c7dd06e0630629c9d2d"),
])
def test_numeric_subcommands_import_numpy_on_first_use(argv, sha256):
    [(code, out, loaded)] = _fresh_main([argv])
    assert (code, loaded) == (0, True)
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# -- the shared parser -------------------------------------------------------


def test_build_parser_returns_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


def test_main_builds_no_parser_after_the_first_call(capsys, monkeypatch):
    run_cli(["count", "s", "--d", "15"], capsys=capsys)
    built = []
    init = argparse.ArgumentParser.__init__

    def spy(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", spy)
    for argv in (["count", "s", "--d", "15"], ["certify", "sextican"],
                 ["decompose", "sylvester", "x^3+2*y^3"],
                 ["decompose", "nosuch", "x"], ["--json", "enumerate", "neat"]):
        run_cli(argv, capsys=capsys)
    assert built == []


def test_env_seed_is_read_on_each_call(capsys, monkeypatch):
    argv = ["--json", "certify", "sylvgen", "--param", "u=2", "--param",
            "v=2", "--trials", "6"]
    for seed in ("77", "78"):
        monkeypatch.setenv("CANONFORM_SEED", seed)
        code, out, _ = run_cli(argv, capsys=capsys)
        assert code == 0 and json.loads(out)["seed"] == int(seed)
    monkeypatch.delenv("CANONFORM_SEED")
    code, out, _ = run_cli(argv, capsys=capsys)
    assert code == 0 and json.loads(out)["seed"] == 0


def test_usage_error_leaves_the_shared_parser_intact(capsys):
    argv = ["decompose", "sylvester", "2*x^3+3*x^2*y-21*x*y^2-41*y^3"]
    want = run_cli(argv, capsys=capsys)
    code, out, err = run_cli(["decompose", "nosuchalgo", "x"], capsys=capsys)
    assert (code, out) == (1, "") and "invalid choice" in err
    assert run_cli(argv, capsys=capsys) == want == (
        0, "5*(x+2*y)^3 - 3*(x+3*y)^3\n", "")


def test_threads_share_the_parser():
    argvs = [["decompose", "sylvester", "x^3+y^3"],
             ["--json", "--seed", "4", "certify", "sextican", "--trials", "3"],
             ["--backend", "approx", "decompose", "mixed", "x^5",
              "--fixed", "x+y", "--fixed", "x-y"],
             ["--epsilon", "1e-6", "count", "reps", "--d", "4", "--e", "2,1"],
             ["enumerate", "obstruction", "--d", "6", "--max", "20"],
             ["classify-hyperplane", "1,0,i,0"],
             ["certify", "omnibus", "--param", "d=4", "--param", "e=2"],
             ["verify-examples"]] * 6

    def parse(argv):
        return vars(cli.build_parser().parse_args(argv))

    serial = [parse(argv) for argv in argvs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            shared = list(pool.map(parse, argvs, timeout=60))
    finally:
        sys.setswitchinterval(interval)
    assert shared == serial


# -- inputs that reached a traceback or exit 3 -------------------------------


def test_bad_env_seed_is_a_usage_error(capsys, monkeypatch):
    monkeypatch.setenv("CANONFORM_SEED", "abc")
    code, out, err = run_cli(["certify", "sextican"], capsys=capsys)
    assert (code, out) == (1, "")
    assert err == "$CANONFORM_SEED must be an integer, got 'abc'\n"
    # an explicit --seed never reads the variable
    code, out, err = run_cli(["--seed", "5", "certify", "sextican"],
                             capsys=capsys)
    assert (code, out, err) == (0, "Certified (rank 7/7)\n", "")


@pytest.mark.parametrize("eps,form", [("nan", "x^3+2*y^3"),
                                      ("inf", "x^3+2*y^3+x*y^2")])
def test_non_finite_epsilon_is_a_usage_error(capsys, eps, form):
    code, out, err = run_cli(["--epsilon", eps, "--backend", "approx",
                              "decompose", "sylvester", form], capsys=capsys)
    assert (code, out) == (1, "")
    assert err == f"--epsilon must be finite, got {eps}\n"


@pytest.mark.parametrize("argv,least,got", [
    (["certify", "sylwake", "--param", "s=2", "--trials", "-3"], 0, -3),
    (["--json", "count", "reps", "--d", "4", "--e", "2,1", "--trials", "-5"],
     1, -5),
    (["--json", "count", "reps", "--d", "4", "--e", "2,1", "--trials", "0"],
     1, 0),
])
def test_trials_below_the_least_are_usage_errors(capsys, argv, least, got):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (1, "")
    assert err == f"--trials must be at least {least}, got {got}\n"


@pytest.mark.parametrize("name,param", [
    ("sylwake", "s=2"), ("zerosum", "s=1"), ("hyperplane", "c=1,0,0,0"),
    ("slinkymap", "n=2"), ("reichmap", "n=2")])
def test_zero_trials_without_a_stored_witness_is_a_usage_error(capsys, tmp_path,
                                                               name, param):
    # such a map would try no witness at all and still report a verdict
    code, out, err = run_cli(["certify", name, "--param", param,
                              "--trials", "0"], capsys=capsys)
    assert (code, out) == (1, "")
    assert err == f"--trials for {name} (no stored witness) must be at least 1, got 0\n"
    code, out, _ = run_cli(["certify", name, "--param", param, "--trials", "1"],
                           capsys=capsys)
    assert code in (0, 2)
    # a --witness file is checked alone, so it needs no trials
    path = tmp_path / "witness.txt"
    path.write_text("0 " * int(out.split("/")[-1].rstrip(")\n")))
    code, out, err = run_cli(["certify", name, "--param", param, "--witness",
                              str(path), "--trials", "0"], capsys=capsys)
    assert (code, out.split(" (")[0], err) == (2, "NotFullRankAtWitness", "")


@pytest.mark.parametrize("algo", ["reichstein", "slinky"])
@pytest.mark.parametrize("flags", [[], ["--backend", "approx"]])
@pytest.mark.parametrize("shear", [[], ["--shear"]])
def test_zero_cubic_is_degenerate_input(capsys, algo, flags, shear):
    code, out, err = run_cli(flags + ["decompose", algo, "0*x*y*z"] + shear,
                             capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "ZeroForm: cannot decompose the zero form\n"


@pytest.mark.parametrize("argv,message", [
    (["decompose", "uppertri", "0*x^2+0*y^2"],
     "cannot decompose the zero form"),
    (["--json", "decompose", "uppertri", "0*x^2+0*y^2"],
     "cannot decompose the zero form"),
    (["--seed", "21", "--backend", "approx", "decompose", "uppertri", "--",
      "(0/2)*x*y"], "cannot decompose the zero form"),
    (["--epsilon", "5", "--backend", "approx", "decompose", "uppertri",
      "x^2+y^2"], "the quadratic is zero to within the tolerance 5"),
])
def test_zero_quadratic_is_degenerate_input(capsys, argv, message):
    # a form that is zero, exactly or to within --epsilon, has no rows
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out, err) == (2, "", f"ZeroForm: {message}\n")


@pytest.mark.parametrize("eps,argv", [
    ("5", ["reichstein", "x^3+y^3+z^3"]),
    ("1", ["slinky", "x^3+y^3+z^3"]),
    ("1", ["quartic-lift", "x^4+y^4+z^4"]),
    ("5", ["sylvester", "x^3+y^3"]),
    ("1", ["mixed", "x^4+y^4+x^2*y^2", "--fixed", "x", "--fixed", "y",
           "--fixed", "x+y"]),
    ("5", ["quartic-six", "x^4+y^4"]),
])
def test_epsilon_of_one_or_more_is_refused_on_the_approx_backend(capsys, eps,
                                                                  argv):
    # the tolerance is relative to the largest coefficient, so at 1 or more
    # every float form is zero to within it (these once exited 3); exact
    # arithmetic reads no tolerance
    code, out, err = run_cli(["--epsilon", eps, "--backend", "approx",
                              "decompose"] + argv, capsys=capsys)
    assert (code, out, err) == (
        2, "", f"ZeroForm: the form is zero to within the tolerance {eps}\n")
    code, _, err = run_cli(["--epsilon", eps, "decompose"] + argv,
                           capsys=capsys)
    assert code != 3 and "ZeroForm" not in err


def test_epsilon_above_one_leaves_exact_runs_alone(capsys):
    assert run_cli(["--epsilon", "2", "decompose", "sylvester", "x^3+y^3"],
                   capsys=capsys) == (0, "y^3 + x^3\n", "")


@pytest.mark.parametrize("argv,env,got", [
    (["--seed", "-5", "count", "reps", "--d", "4", "--e", "2,1",
      "--trials", "5"], None, -5),
    (["count", "reps", "--d", "4", "--e", "2,1", "--trials", "5"], "-3", -3),
])
def test_negative_seed_in_count_is_a_usage_error(capsys, monkeypatch, argv,
                                                 env, got):
    # numpy's generators take no negative seed, from --seed or the variable
    if env is not None:
        monkeypatch.setenv("CANONFORM_SEED", env)
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (1, "")
    assert err == f"--seed must be at least 0, got {got}\n"


_SCALED_P = "1e-12*x^3+2e-12*y^3+3e-12*x*y*z+5e-12*z^3+1e-12*x^2*z"
_APPROX = ["--backend", "approx"]


def _assert_rebuilds(out, target):
    """Every printed decomposition rebuilds target within ACCEPT_TOL of its
    norm."""
    assert out
    for line in out.splitlines():
        rebuilt = parse_decomposition(line).reconstruct().approx()
        assert (rebuilt - target.approx()).norm() <= ACCEPT_TOL * target.norm()


@pytest.mark.parametrize("flags,algo,scaled,twin,shear,code", [
    (_APPROX, "reichstein", "1e-20*x*y*z", "x*y*z", False, 2),
    (_APPROX, "slinky", "1e-20*x*y*z", "x*y*z", False, 2),
    (_APPROX, "slowpoke", "1e-20*x*y*z", "x*y*z", False, 0),
    ([], "slowpoke", "1e-20*x^3+1e-20*y^3+1e-20*z^3", "x^3+y^3+z^3", False, 0),
    (_APPROX, "reichstein", _SCALED_P, "x^3+2*y^3+3*x*y*z+5*z^3+x^2*z", True, 0),
    (_APPROX, "slinky", _SCALED_P, "x^3+2*y^3+3*x*y*z+5*z^3+x^2*z", True, 0),
])
def test_scaling_a_cubic_keeps_its_verdict(capsys, flags, algo, scaled, twin,
                                           shear, code):
    # c*p gets the exit code of p, and each result rebuilds its own input
    for text in (scaled, twin):
        argv = flags + ["--seed", "0", "decompose", algo, text]
        got, out, _ = run_cli(argv + ["--shear"] * shear, capsys=capsys)
        assert got == code
        if code == 0:
            p = parse_form(text).approx()
            _assert_rebuilds(out, commands._sheared(p, 0) if shear else p)


def test_uppertri_below_norm_one_prints_rows_that_rebuild_the_input(capsys):
    # the rows of a quadratic of norm 3e-15 were once dropped as zero
    text = "1e-15*x^2+2e-15*x*y+3e-15*y^2"
    code, out, err = run_cli(["--backend", "approx", "decompose", "uppertri",
                              text], capsys=capsys)
    assert (code, err) == (0, "") and len(out.splitlines()) == 2
    _assert_rebuilds(" + ".join(out.splitlines()), parse_form(text))


def test_uppertri_float_rows_drop_the_eliminated_variables(capsys):
    # the x^2 and x*y rounding left by the first square once printed a
    # second row -3.1e-17*x + 0.447*y
    code, out, err = run_cli(_APPROX + ["decompose", "uppertri",
                                        "0.1*x^2+0.2*x*y+0.3*y^2"], capsys=capsys)
    assert (code, err) == (0, "")
    assert out.splitlines()[1] == "(0.4472135954999579*y)^2"


def test_slowpoke_decomposes_the_five_variable_cubic(capsys):
    # its changes of variables amplify rounding by about 1e5; the recursion
    # on Forms rebuilt it within 3.1e-7 only and was refused
    text = ("3*x3*x4*x5 + 1/3*x1*x2*x4 - 3*x1^3 - (1+2*i)*x2*x5^2 - 7*x3^3"
            " + 5*x3^2*x4 + 2*x1^2*x5 - x1*x5^2")
    code, out, err = run_cli(["decompose", "slowpoke", text], capsys=capsys)
    assert (code, err) == (0, "")
    _assert_rebuilds(out, parse_form(text))


def test_quartic_six_below_norm_one_decomposes(capsys):
    # binary_factor once found every coefficient of this quartic zero (exit 3)
    text = "1e-12*x^4+2e-12*x^3*y+3e-12*x^2*y^2+5e-12*x*y^3+7e-12*y^4"
    code, out, err = run_cli(_APPROX + ["decompose", "quartic-six", text],
                             capsys=capsys)
    assert (code, err) == (0, "") and len(out.splitlines()) == 6
    _assert_rebuilds(out, parse_form(text))


def test_two_squares_that_cancel_is_degenerate_input(capsys):
    # the squares are near 8.6e22, so a float rebuild of the split rounds the
    # input's y^2 coefficient of 3 to 0: accepted() refuses them (R = 8.3e11)
    code, out, err = run_cli(["decompose", "two-squares", "--",
                              "1/8*x^2 - 207312311173*x*y + 3*y^2"],
                             capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "DegenerateInput: reconstruction check failed\n"


def test_two_squares_rebuild_binary_forms_of_every_height(capsys):
    """Two-squares of seeded integer binary forms of degrees 2, 4 and 6 and
    heights 10, 1e6 and 1e12, on both backends: every printed split rebuilds
    its input within ACCEPT_TOL, read exactly, and every refusal is a
    repeated root, a zero leading coefficient or a failed reconstruction
    check (squares that cancel among them)."""
    rng, decomposed = random.Random(5), 0
    for d, height in itertools.product((2, 4, 6), (10, 10**6, 10**12)):
        for _ in range(8):
            text = " + ".join(f"({rng.randint(-height, height)})*x^{d - j}*y^{j}"
                              for j in range(d + 1))
            for backend in ("exact", "approx"):
                code, out, err = run_cli(["--backend", backend, "decompose",
                                          "two-squares", "--", text],
                                         capsys=capsys)
                if code:
                    assert err.startswith((
                        "RepeatedRoot:", "LeadingZero:",
                        "DegenerateInput: reconstruction check failed")), err
                    continue
                decomposed += 1
                for line in out.splitlines():
                    assert exact_backward_error(line, parse_form(text)) \
                        <= ACCEPT_TOL, (text, backend, line)
    assert decomposed >= 138


def test_quartic_six_that_misses_the_input_is_degenerate_input(capsys):
    # each of the six representations misses this quartic by about 1e-6
    code, out, err = run_cli(
        ["decompose", "quartic-six", "399999999*x^4 - 300000000*x^3*y "
         "- 500000000*x^2*y^2 + 300000000*x*y^3 + 100000000*y^4"],
        capsys=capsys)
    assert (code, out) == (2, "")
    assert err == "DegenerateInput: reconstruction check failed\n"


@pytest.mark.parametrize("backend", ["exact", "approx"])
def test_near_degenerate_quartics_print_nothing_that_misses(capsys, backend):
    """x^4 - 2x^2y^2 + (1 - delta)y^4 has roots about sqrt(delta) apart, and
    two of its six representations cancel by R ~ 24/delta.  Every line that
    quartic-six prints rebuilds it within ACCEPT_TOL, read exactly.  At
    delta = 1e-8 two lines once missed by 1.3e-7 and 1.6e-7, and it is now
    refused; at 1e-6 all six are printed."""
    for delta, want in (("1/1000000", 0), ("1/10000000", None),
                        ("3/100000000", None), ("1/100000000", 2)):
        argv = ["--backend", backend, "decompose", "quartic-six", "--",
                f"x^4-2*x^2*y^2+(1-{delta})*y^4"]
        code, out, err = run_cli(argv, capsys=capsys)
        assert want in (None, code), (delta, err)
        if code:
            assert (code, out, err) == (
                2, "", "DegenerateInput: reconstruction check failed\n")
            continue
        errors = printed_errors(argv, out)
        assert len(errors) == 6 and max(errors) <= ACCEPT_TOL, (delta, errors)


def test_quartic_six_with_a_non_finite_normal_form_fails_to_normalize(capsys):
    # the x^4 and y^4 coefficients in the harmonic axes overflow; a multiplier
    # of inf or nan once reached the exact snap (exit 3, ValueError)
    code, out, err = run_cli(
        ["decompose", "quartic-six", "--",
         "-0.343e116*x^2*y^2 + 9*x*y^3 + 0.747e5*x^3*y"], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == ("NormalizationFailed: a X^4 + b X^2 Y^2 + c Y^4 has no "
                   "finite nonzero c/a\n")


def test_sylvester_with_a_huge_root_decomposes(capsys):
    # the chordal distance once squared a root near 1e187 (exit 3)
    text = "-y^6 + 4*x^5*y + 0.675e-93*x^3*y^3"
    code, out, err = run_cli(["decompose", "sylvester", "--", text],
                             capsys=capsys)
    assert (code, err) == (0, "")
    _assert_rebuilds(out, parse_form(text))


@pytest.mark.parametrize("text", [
    "0.719e145*x^3*y^7 + 5*x^9*y + 0.72e62*x*y^9 + (5+4*i)*x^6*y^4",
    "1e-200*x^4*y + 1e200*x*y^4 + x^2*y^3 + x^5",
    "1e-300*x^7 + 1e300*x^2*y^5 + x^3*y^4 + y^7",
])
def test_sylvester_skips_kernel_forms_beyond_float_range(capsys, text):
    # a kernel form whose leading coefficient is tiny next to the others, or
    # below float range, once sent infinite ratios into numpy's companion
    # matrix (exit 3, LinAlgError); one with a coefficient above float range
    # once overflowed in its norm (exit 3, OverflowError)
    code, out, err = run_cli(["decompose", "sylvester", "--", text],
                             capsys=capsys)
    assert code in (0, 2)
    if code == 0:
        _assert_rebuilds(out, parse_form(text))


def test_reichstein_with_a_charpoly_beyond_float_range_is_degenerate(capsys):
    # the pencil's exact characteristic polynomial once overflowed in
    # complex() (exit 3, OverflowError)
    code, out, err = run_cli(
        ["decompose", "reichstein", "--", "-0.102e83*x1*x2^2 + 2*x1*x2*x3"
         " + 0.106e143*x1^2*x3 + 4*x1^2*x2"], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == ("DegeneratePencil: stage 0: characteristic polynomial "
                   "beyond float range\n")


@pytest.mark.parametrize("form,l2,message", [
    ("x^4 + y^4", "y", "coefficient a1 vanishes after the change of variables"),
    ("x^4 + x^3*y + y^4", "y",
     "coefficient a3 vanishes after the change of variables"),
    ("x^4 + x^3*y + 2*x^2*y^2 + 2*x*y^3 + y^4", "y",
     "the quadratic for t2/t1 has a repeated root"),
    ("x^4 + x^3*y + y^4", "2*x", "fixed linear forms are proportional"),
])
def test_quartic_two_fixed_degenerate_exits(capsys, form, l2, message):
    code, out, err = run_cli(["decompose", "quartic-two-fixed", form,
                              "--l1", "x", "--l2", l2], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == f"DegenerateInput: {message}\n"


def test_mixed_with_more_than_d_plus_one_fixed_forms_exits_2(capsys):
    # four fixed forms on a linear form leave r = -1, and m + 2r = d + 1
    # still holds; the spec itself refuses it
    code, out, err = run_cli(["decompose", "mixed", "x+y", "--fixed", "x",
                              "--fixed", "y", "--fixed", "x+y",
                              "--fixed", "x-y"], capsys=capsys)
    assert (code, out) == (2, "")
    assert err == ("ShapeMismatch: need r >= 0 free powers (at most d + 1 "
                   "fixed forms); got r = -1\n")


@pytest.mark.parametrize("argv", [
    ["decompose", "sylvester", "--", "-650983368132*x + 4/7*y"],
    ["decompose", "slowpoke", "--",
     "- 847344730712*x1*x4^2 + 9*x3^2*x5 - 9*x2*x3*x4 + x1*x2*x3"
     " + 4.7*x2*x4*x5 + 17837214065*x1*x2*x4 - 8*x1^3"],
])
def test_inputs_with_tiny_roots_or_noise_levels_decompose(capsys, argv):
    # a factor's root below eps in absolute value is not a root at 0, and a
    # slowpoke level that vanishes on the grid is noise
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, err) == (0, "") and out


@pytest.mark.parametrize("argv", [
    ["decompose", "uppertri",
     "0.5*x^2 + 1/5*y^2 + 4*x^2 + 1e300*x*y + 8/4*x*y"],
    ["decompose", "quartic-two-fixed", "1e300*x^3*y + (2+5*i)*x*y^3",
     "--l1", "x+2*y", "--l2", "3*x+y"],
    ["decompose", "quartic-six", "-6*x^2*y^2 + (8+1*i)*x^3*y"
     " + 1e300*x^2*y^2 + 0.5*x*y^3 + 1e-12*x^3*y"],
    ["decompose", "slinky", "(-9+4*i)*x*y^2 + (9+4*i)*x*y^2 + 2/3*x^2*y"
     " + 1e-300*y^3 + 1e300*x*y^2"],
    ["decompose", "uppertri", "-2*x3^2 + 1e-300*x3*x4"],
    ["decompose", "quartic-lift", "--",
     "1e-12*x^2*y*z + 0.5*x*y*z^2 + (-3)*x*y*z^2 + (-1)*x*y*z^2"
     " + 3.14159*y^2*z^2 + 1e-300*x^2*z^2"],
    ["decompose", "slinky", "9/6*x2^2*x4 + 3*x1^2*x2 + 1e-300*x1*x2*x5",
     "--shear"],
])
def test_overflow_and_pivot_roots_below_float_range_are_degenerate(capsys,
                                                                   argv):
    # the first four once overflowed converting an exact value to a float
    # (exit 3, OverflowError); the fifth took the square root of a pivot
    # near 1e-601 as 0 and divided by it (exit 3, ZeroDivisionError); the
    # sixth handed numpy's companion matrix a subnormal leading coefficient
    # (exit 3, LinAlgError); the last built an exact coefficient past
    # Python's int-to-str digit limit (exit 3, ValueError)
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (2, "")
    assert "internal error" not in err
    assert "set_int_max_str_digits" not in err


def test_seeded_decompose_fuzz_has_no_internal_error():
    """550 seeded random inputs, 50 per algorithm, on both backends and about
    a third with --shear: every one exits 0, 1 or 2, never 3."""
    seen, failures = set(), []
    for argv, code, _, err in fuzz_runs():
        seen.add((argv[argv.index("decompose") + 1], argv[3], "--shear" in argv))
        if code == 3:
            failures.append((argv, err))
    assert not failures, failures[:3]
    assert {a for a, _, _ in seen} == set(FUZZ_SHAPES)
    assert {(b, s) for _, b, s in seen} == {(b, s) for b in ("exact", "approx")
                                          for s in (False, True)}


def test_seeded_decompose_fuzz_prints_what_rebuilds_its_input():
    """Every exit-0 output of the 550 fuzz argvs, its floats read at their
    exact values, rebuilds the form it decomposed within ACCEPT_TOL: the
    sheared input on a --shear run of an algorithm that shears, and
    uppertri's rows summed (tests_support.printed_errors)."""
    errors = [(e, argv) for argv, code, out, _ in fuzz_runs() if code == 0
              for e in printed_errors(argv, out)]
    assert len(errors) >= 500
    assert max(errors)[0] <= ACCEPT_TOL, max(errors)


def test_fuzz_report_counts_flips_and_referees_a_slice(capsys):
    import fuzz_report
    fuzz_report.main(["--first", "22", "--both-backends", "--exact-referee"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "22 argvs"
    counts = dict(line.split(": ", 1) for line in lines[1:12])
    assert set(counts) == set(FUZZ_SHAPES)
    assert sum(int(part.rsplit(" x", 1)[1]) for row in counts.values()
               for part in row.split(", ")) == 22
    at = lines.index("worst exact-read backward error of an exit-0 output:")
    flips = next(i for i, line in enumerate(lines) if "argvs flip" in line)
    assert all(float(line.split(": ")[1]) <= ACCEPT_TOL
               for line in lines[at + 1:flips])
    listed = [json.loads(line) for line in lines[flips + 1:]
              if line.startswith("    ")]
    assert lines[flips] == f"{len(listed)} of 22 argvs flip with the backend"
    for argv in listed:
        codes = {fuzz_report.on_backend(argv, b)[3]: run_cli(
            fuzz_report.on_backend(argv, b), capsys=capsys)[0]
            for b in ("exact", "approx")}
        assert codes["exact"] != codes["approx"], argv
