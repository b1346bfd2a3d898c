import hashlib
import io
import json
import sys

import pytest

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
     ('(0.0051387417299431325-0.005062671580013644*i)*'
      '((27.623096667605402+11.321388368090252*i)*'
      'x^2+(83.72393148559304+34.31444184038136*i)*x*'
      'y+(75.95839185424646+31.131717936823705*i)*y^2)^2 + '
      '(-0.2502655145159677+0.24656076806014116*i)*'
      '((0.3831760269222353-1.9453013210763652*i)*'
      'x+(0.6523642131267957-3.311911175163499*i)*y)^4\n'
      '(0.0051387417299431325-0.005062671580013644*i)*'
      '((-17.594979537830195-7.211341982160356*i)*'
      'x^2+(12.940638350431831+5.3037497663343025*i)*x*'
      'y+(-22.03167411762746-9.029731245786671*i)*y^2)^2 + '
      '(-0.2502655145159677+0.24656076806014116*i)*'
      '((-1.4351773640561198-0.28269428202694474*i)*'
      'x+(1.302062178220548+0.2564738978227812*i)*y)^4\n'
      '(-0.001698773309434573+0.0016736259198329724*i)*'
      '((-10.511295326681278+20.922919578902288*i)*'
      'x^2+(-23.01887705505716+10.63111869719478*i)*x*'
      'y+(4.761957594522562-37.02027186442983*i)*y^2)^2 + '
      '(0.006837515039377705-0.006736297499846616*i)*'
      '((-1.0520013371338846-2.22799560310331*i)*'
      'x+(1.9544263913473436-3.055437277340718*i)*y)^4\n'
      '(0.0012767148949042065-0.0012578153473930614*i)*'
      '((21.85240224309797+8.956256264344649*i)*'
      'x^2+(21.704394100972152+8.895594794024719*i)*x*'
      'y+(-12.904253739255132-5.288837451516377*i)*y^2)^2 + '
      '(0.003862026835038926-0.003804856232620583*i)*'
      '((0.5101239570202454+0.10048174489529055*i)*'
      'x+(4.613973353384047+0.9088381109495769*i)*y)^4\n'
      '(-0.001698773309434573+0.0016736259198329724*i)*'
      '((7.196184620750877-22.28162516635608*i)*'
      'x^2+(-8.936648214594952-23.72816268315476*i)*x*'
      'y+(-22.589136614355162+29.713762401727706*i)*y^2)^2 + '
      '(0.006837515039377705-0.006736297499846616*i)*'
      '((-1.8183533909783551+1.6626070390494205*i)*'
      'x+(0.6496979650937522+3.5683850729862803*i)*y)^4\n'
      '(0.0012767148949042065-0.0012578153473930614*i)*'
      '((-10.618019500334203-4.351819200785507*i)*'
      'x^2+(-4.118360514296617-1.687919330088702*i)*x*'
      'y+(37.24978098183984+15.266906610665265*i)*y^2)^2 + '
      '(0.003862026835038926-0.003804856232620583*i)*'
      '((-3.380478685132485-0.66587030894918*i)*'
      'x+(-2.009848996942951-0.39589031530401453*i)*y)^4\n'),
     'f7e0f962f0210c7c23c26052aa4ab18ff844958ee23d86984fae6b59ef204df7'),
    (['decompose', 'quartic-two-fixed',
      'x^4 + 4*x^3*y + 5*x^2*y^2 + 2*x*y^3 + y^4', '--l1', 'x', '--l2', 'y'],
     ('(x^2+2*x*y+1/2*y^2)^2 + 0*x^4 + 3/4*y^4\n'
      '4*(x^2+1/2*x*y+1/2*y^2)^2 - 3*x^4 + 0*y^4\n'),
     '56b6808407ecc9513c4c8af9440b3b8ab20b1edab181aad9df66cfbbfb7cbc16'),
    (['decompose', 'uppertri', 'x^2 + 2*x*y + 5*y^2'],
     ('(x + y)^2\n'
      '(2*y)^2\n'),
     'de01862e995f37324c7af9958aa68ebebca358562601d4c00f1e73cc7d22e48f'),
    (['decompose', 'uppertri', '0*x^2+0*y^2'],
     '',
     '37517e5f3dc66819f61f5a7bb8ace1921282415f10551d2defa5c3eb0985b570'),
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
      '19+0.01693135829873983*i)*(x2+(-2.6054232044690924+2.99846873231'
      '3806*i)*x3+(0.31441878448525395+2.560732542098205*i)*x4)^3 + (0.'
      '06174920095150582+0.039774547625854056*i)*(x2+(1.097817856701455'
      '6+1.8273876123354693*i)*x3+(-0.6314481119500837+1.53910376628136'
      '7*i)*x4)^3 + (0.04464189532472851-0.16402763271157583*i)*((1.0-4'
      '.249023381433485e-18*i)*x2+(-0.5529823313783656-1.20574689851484'
      '03*i)*x3+(-0.04036368780609516-1.2570302104366746*i)*x4)^3 + (-0'
      '.15901201359815373+0.3760868620650416*i)*((1.0-4.802041789205228'
      'e-17*i)*x2+(-0.36327177190589255-0.709680106161753*i)*x3)^3 + (-'
      '0.001021878103034129+0.0014156411299802178*i)*(x2+(2.12140974112'
      '19224+9.402546373218287*i)*x3)^3 + (-0.08750418745325787-0.11897'
      '770586586824*i)*(x2+x3)^3\n'),
     '65ed31bc143b5a7a6ab92111352a9a7caacbdc620b95a6e22c3d06c2b762b4d5'),
    (['--backend', 'approx', 'decompose', 'slowpoke',
      'x^3 + 2*x*y*z - y^2*z + 3*z^3 + x*y^2'],
     ('0.3333333333333333*(x+0.7886751345948129*y+(0.7886751345948128-0'
      '.21132486540518713*i)*z)^3 + 0.3333333333333333*(x-0.21132486540'
      '518713*y+(-0.21132486540518713+0.7886751345948129*i)*z)^3 + 0.33'
      '33333333333333*(x-0.5773502691896257*y+(-0.5773502691896256-0.57'
      '73502691896257*i)*z)^3 - 0.048112522432468795*(y+(5.289598212107'
      '522+3.1963850945646284*i)*z)^3 - 0.048112522432468795*(y+(3.6386'
      '05018167987-5.196385094564628*i)*z)^3 + (-9.928203230275509+8.54'
      '3303050815757*i)*z^3\n'),
     '2512e6428227f79e1de349f4cca3a389f579f1d596e8bcba4834432fc611f982'),
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
      '5602964160695-0.5245575317108243*i)*z)^4 + (2.999999999999999+8.'
      '326672684688674e-17*i)*z^4 + (x^4+(2.222222222222222+1.553270190'
      '223357e-17*i)*x^3*y+(2.706168622523819e-16-1.0408340855860843e-1'
      '7*i)*x^2*y^2+(-3.5735303605122226e-16+6.245004513516506e-17*i)*x'
      '*y^3+(0.9583333333333333+5.075239658332559e-18*i)*y^4)\n'),
     'f9310a2253fa770680651ab476ce1b390d2ad971851acb95ddfa6e71520e90cf'),
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
])
def test_bad_enumeration_arguments_are_usage_errors(capsys, argv, message):
    code, out, err = run_cli(argv, capsys=capsys)
    assert (code, out) == (1, "")
    assert message in err


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

