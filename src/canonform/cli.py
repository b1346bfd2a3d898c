"""Command-line front end: parse, decompose, certify, enumerate, count.

Exit codes: 0 success, 1 usage error, 2 inconclusive or degenerate input,
3 internal failure.  With --json and a fixed seed the output bytes are
identical across runs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import sys
from fractions import Fraction

from . import binary, canonicity, enumeration, multivar
from .apolarity import apply_diff, hankel, hankel_kernel
from .errors import CanonformError, ParseError
from .forms import (Decomposition, Form, _monomial_text,
                    _parse_complex_literal, binary_factor, dim, form_to_json,
                    forms_close, index_set, monomial_form, multinomial,
                    parse_form, var_names)
from .linalg import exact_det
from .scalars import EPS_DEFAULT, QQi, scalar_to_json

_DECOMPOSE_ALGOS = ("sylvester", "mixed", "two-squares", "quartic-six",
                    "quartic-two-fixed", "uppertri", "reichstein",
                    "reichstein-step", "slinky", "slowpoke", "quartic-lift")
# the algorithms that --shear applies to; the others ignore it
_SHEARING_ALGOS = ("uppertri", "reichstein", "reichstein-step", "slinky")


def _read_form(text: str, n=None, d=None) -> Form:
    if text == "-":
        text = sys.stdin.read()
    return _parse_float_range_form(text, n=n, d=d)


def _fits_float(v, weight: int = 1) -> bool:
    """Whether |v| * weight fits in a float.

    Every algorithm behind the CLI meets floats (norms, tolerances, the
    approximate backend), so a coefficient that does not is a usage error
    here; the library itself stays unbounded.
    """
    try:
        return math.isfinite(abs(complex(v)) * weight)
    except OverflowError:
        return False


def _parse_float_range_form(text: str, n=None, d=None) -> Form:
    """parse_form, refusing a coefficient that does not fit in a float."""
    p = parse_form(text, n=n, d=d)
    for idx, c in p.items():
        if not _fits_float(c, multinomial(idx)):
            raise ParseError(f"the coefficient of "
                             f"{_monomial_text(idx, var_names(p.n))} does not "
                             f"fit in a float")
    return p


def _hyperplane_c(value) -> list:
    """The hyperplane coefficient vector c1..c4 from a parsed parameter value."""
    c = value if isinstance(value, list) else [value]
    if len(c) != 4:
        raise ParseError(f"the hyperplane needs exactly 4 coefficients "
                         f"c1,c2,c3,c4, got {len(c)}")
    for k, v in enumerate(c):
        if not _fits_float(v):
            raise ParseError(f"the hyperplane coefficient c{k + 1} does not "
                             f"fit in a float")
    return c


# Catalog parameters that take a list of integers; every other parameter
# but the hyperplane's c takes one integer.
_INT_LIST_PARAMS = ("B", "e")


def _catalog_param(name: str, key: str, text: str):
    """A certify --param value, parsed and checked for the catalog builder."""
    value = _parse_param_value(text)
    if name == "hyperplane" and key == "c":
        return _hyperplane_c(value)
    if key in _INT_LIST_PARAMS:
        value = value if isinstance(value, list) else [value]
        entries = value
    elif isinstance(value, list):
        raise ParseError(f"--param {key} takes one integer, got {text!r}")
    else:
        entries = [value]
    if not all(isinstance(v, int) for v in entries):
        raise ParseError(f"--param {key} needs integer values, got {text!r}")
    return value


def _below(flag: str, value: int, least: int) -> bool:
    """Report a numeric option below its least allowed value."""
    if value >= least:
        return False
    print(f"{flag} must be at least {least}, got {value}", file=sys.stderr)
    return True


def _parse_scalar_token(tok: str):
    tok = tok.strip()
    if tok in ("i", "+i"):
        return QQi(0, 1)
    if tok == "-i":
        return QQi(0, -1)
    try:
        return QQi(Fraction(tok))
    except (ValueError, ZeroDivisionError):
        pass
    if tok.startswith("(") and tok.endswith(")"):
        return _parse_complex_literal(tok)
    raise ParseError(f"cannot parse scalar {tok!r}")


def _parse_param_value(text: str):
    parts = text.split(",")
    vals = []
    for tok in parts:
        tok = tok.strip()
        try:
            vals.append(int(tok))
            continue
        except ValueError:
            vals.append(_parse_scalar_token(tok))
    return vals if len(parts) > 1 else vals[0]


def _emit(args, output) -> None:
    """Write a command's result to stdout; nothing else prints there.

    output is the JSON payload under --json, else the text; a list of text
    is printed one item per line, so an empty list prints nothing.
    """
    if args.json:
        print(json.dumps(output, sort_keys=True))
        return
    for line in output if isinstance(output, list) else [output]:
        print(line)


def _render(args, item):
    """One decompose result, a decomposition or an uppertri row l_k (shown
    as (l_k)^2), as a JSON payload or as text."""
    if isinstance(item, Form):
        return form_to_json(item) if args.json else f"({item})^2"
    return item.to_json() if args.json else str(item)


# -- subcommand handlers -----------------------------------------------------


def _cmd_decompose(args) -> int:
    p = _read_form(args.form)
    if args.backend == "approx":
        p = p.approx()
    eps = args.epsilon
    algo = args.algo
    if args.shear and algo in _SHEARING_ALGOS:
        p = _sheared(p, args.seed)
    if algo == "sylvester":
        result = binary.sylvester_decompose(p, eps)
    elif algo == "mixed":
        if not args.fixed:
            print("mixed needs at least one --fixed form", file=sys.stderr)
            return 1
        fixed = [_parse_float_range_form(f, n=2, d=1) for f in args.fixed]
        r = (p.d + 1 - len(fixed)) // 2
        result = binary.mixed_decompose(p, binary.MixedSpec(fixed, r), eps)
    elif algo == "two-squares":
        result = binary.two_squares_all(p, eps)
    elif algo == "quartic-six":
        result = (binary.quartic_six_reps(_parse_scalar_token(args.lam), eps)
                  if args.lam is not None
                  else binary.quartic_six_for_form(p, eps))
    elif algo == "quartic-two-fixed":
        if not (args.l1 and args.l2):
            print("quartic-two-fixed needs --l1 and --l2", file=sys.stderr)
            return 1
        result = binary.quartic_two_fixed(
            p, _parse_float_range_form(args.l1, n=2, d=1),
            _parse_float_range_form(args.l2, n=2, d=1), eps)
    elif algo == "uppertri":
        result = multivar.uppertri(p, eps).rows
    elif algo == "reichstein":
        result = multivar.reichstein_full(p, eps)
    elif algo == "reichstein-step":
        cubes, residual = multivar.reichstein_step(p, eps)
        result = Decomposition(cubes.terms, residual=residual,
                               meta=dict(cubes.meta))
    elif algo == "slinky":
        result = multivar.slinky(p, eps)
    elif algo == "slowpoke":
        result = multivar.slowpoke(p, eps)
    elif algo == "quartic-lift":
        result = multivar.quartic_lift(p, eps)
    else:
        print(f"unknown algorithm {algo!r}", file=sys.stderr)
        return 1
    _emit(args, [_render(args, r) for r in result]
          if isinstance(result, list) else _render(args, result))
    return 0


def _sheared(p: Form, seed: int) -> Form:
    """Documented random change of variables applied before decomposing."""
    rng = random.Random(seed)
    n = p.n
    while True:
        m = [[QQi(rng.randint(-3, 3)) for _ in range(n)]
             for _ in range(n)]
        if exact_det(m):
            return p.substitute(m)


def _cmd_certify(args) -> int:
    params = {}
    for item in args.param or []:
        if "=" not in item:
            print(f"--param needs key=value, got {item!r}", file=sys.stderr)
            return 1
        key, val = item.split("=", 1)
        key = key.strip()
        params[key] = _catalog_param(args.name, key, val)
    pmap = canonicity.build_map(args.name, **params)
    witness = None
    if args.witness:
        with open(args.witness) as fh:
            witness = [_parse_scalar_token(tok) for tok in fh.read().split()]
    report = canonicity.jacobian_certify(pmap, witness=witness,
                                         trials=args.trials, seed=args.seed,
                                         eps=args.epsilon)
    _emit(args, report.to_json() if args.json
          else f"{report.verdict} (rank {report.rank}/{report.target})")
    return 0 if report.certified else 2


def _cmd_classify_hyperplane(args) -> int:
    c = _hyperplane_c(_parse_param_value(args.c))
    verdict = canonicity.hyperplane_classify(c, eps=args.epsilon, seed=args.seed)
    if verdict.kind == "Exceptional":
        _emit(args, {"kind": "Exceptional",
                     "epsilon": scalar_to_json(verdict.epsilon),
                     "zero_point": [scalar_to_json(v)
                                    for v in verdict.zero_point]}
              if args.json else
              f"Exceptional (epsilon = {verdict.epsilon}, zero point = "
              f"({verdict.zero_point[0]}, {verdict.zero_point[1]}))")
        return 2
    _emit(args, {"kind": "Canonical",
                 "witness": [scalar_to_json(v) for v in verdict.witness]}
          if args.json else "Canonical (witness t = ("
          + ", ".join(str(v) for v in verdict.witness) + "))")
    return 0


def _cmd_enumerate(args) -> int:
    if args.what == "neat":
        if _below("--r", args.r, 1):
            return 1
        forms = enumeration.neat_enumerate(args.r)
        _emit(args, [{"d": f.d, "e": list(f.e)} for f in forms] if args.json
              else [f"d={f.d}  e={list(f.e)}" for f in forms]
              + [f"total: {len(forms)}"])
        return 0
    if args.what == "obstruction":
        if _below("--d", args.d, 2):
            return 1
        members = [n for n in range(1, args.max + 1)
                   if enumeration.obstruction_A(args.d, n)]
        _emit(args, {"d": args.d, "max": args.max, "members": members}
              if args.json else " ".join(map(str, members))
              or f"no members of A_{args.d} up to {args.max}")
        return 0
    print(f"unknown enumeration {args.what!r}", file=sys.stderr)
    return 1


def _cmd_count(args) -> int:
    if args.what == "s":
        if args.d is None:
            print("count s needs --d", file=sys.stderr)
            return 1
        if _below("--d", args.d, 1):
            return 1
        value = enumeration.s_of_d(args.d)
        _emit(args, {"d": args.d, "s": value} if args.json else str(value))
        return 0
    if args.what == "S":
        if args.N is None:
            print("count S needs --N", file=sys.stderr)
            return 1
        if _below("--N", args.N, 1):
            return 1
        value = enumeration.partial_sum_S(args.N)
        _emit(args, {"N": args.N, "S": value} if args.json else str(value))
        return 0
    if args.what == "reps":
        if args.d is None or args.e is None:
            print("count reps needs --d and --e", file=sys.stderr)
            return 1
        e = _parse_param_value(args.e)
        e = e if isinstance(e, list) else [e]
        for v in e:
            if not isinstance(v, int):
                raise ParseError(f"--e entries must be integers, got {v}")
        value = binary.count_reps_monte_carlo(args.d, e, args.m,
                                              trials=args.trials,
                                              seed=args.seed)
        _emit(args, {"d": args.d, "e": e, "m": args.m, "estimate": value,
                     "flag": "ESTIMATE"} if args.json else
              f"ESTIMATE: {value} representations (Monte Carlo, seed "
              f"{args.seed}; never authoritative)")
        return 0
    print(f"unknown count {args.what!r}", file=sys.stderr)
    return 1


# -- verify-examples ------------------------------------------------------------


def _paper_examples() -> list[tuple[str, object]]:
    ex310 = "2*x^3 + 3*x^2*y - 21*x*y^2 - 41*y^3"
    ex41 = ("-x^5 + 15*x^4*y - 170*x^3*y^2 + 390*x^2*y^3 - 505*x*y^4 "
            "+ 483*y^5")

    def chk_index_set():
        return len(index_set(3, 4)) == 15 and dim(3, 4) == 5 * dim(3, 1)

    def chk_evaluate():
        return parse_form(ex310).evaluate((1, 0)) == QQi(2)

    def chk_factor():
        c, fs = binary_factor(parse_form("6*x^2 - 5*x*y + y^2"))
        prod = None
        for f, mult in fs:
            t = f ** mult
            prod = t if prod is None else prod * t
        return prod.scale(c) == parse_form("6*x^2 - 5*x*y + y^2") and len(fs) == 2

    def chk_diff_kernel():
        h = parse_form("6*x^2 - 5*x*y + y^2")
        return apply_diff(h, parse_form(ex310)).is_zero()

    def chk_diff_ex41():
        f = parse_form("3*x^2 - 2*x*y - y^2")
        target = parse_form("160*x^3 + 240*x^2*y - 1680*x*y^2 - 3280*y^3")
        return apply_diff(f, parse_form(ex41)) == target

    def chk_hankel():
        h = hankel(parse_form(ex310), 2)
        want = [[QQi(2), QQi(1), QQi(-7)], [QQi(1), QQi(-7), QQi(-41)]]
        return h.rows() == want

    def chk_kernel_vector():
        h = hankel(parse_form(ex310), 2)
        basis = hankel_kernel(h)
        if len(basis) != 1:
            return False
        v = basis[0]
        scaled = [x * 6 for x in v]
        return scaled == [QQi(6), QQi(-5), QQi(1)]

    def chk_sylvester():
        dec = binary.sylvester_decompose(parse_form(ex310))
        return str(dec) == "5*(x+2*y)^3 - 3*(x+3*y)^3"

    def chk_mixed():
        spec = binary.MixedSpec([parse_form("x + y"), parse_form("-x + 3*y")], 2)
        dec = binary.mixed_decompose(parse_form(ex41), spec)
        mults = sorted(str(t.multiplier) for t in dec.terms)
        return mults == sorted(["-4", "1", "7/2", "3/2"])

    def chk_mc_6():
        return binary.count_reps_monte_carlo(4, [2, 1], 0, seed=2026) == 6

    def chk_mc_2():
        return binary.count_reps_monte_carlo(4, [2], 2, seed=2026) == 2

    def chk_drab():
        for m in range(1, 9):
            fam = multivar.drab_family(m)
            total = fam[0]
            sq = fam[0] * fam[0]
            for f in fam[1:]:
                total = total + f
                sq = sq + f * f
            target = None
            for k in range(m):
                idx = [0] * m
                idx[k] = 2
                t = monomial_form(m, tuple(idx))
                target = t if target is None else target + t
            if not total.is_zero(1e-12, scale=1.0):
                return False
            if not forms_close(sq, target.approx(), 1e-12):
                return False
        return True

    def chk_sextican():
        rep = canonicity.jacobian_certify(canonicity.build_map("sextican"))
        return rep.certified and rep.rank == 7 and rep.trials == 1

    def chk_uppertri_witness():
        rep = canonicity.jacobian_certify(canonicity.build_map("uppertri", n=4))
        return rep.certified and rep.trials == 1

    def chk_quarticgen_excluded():
        pmap = canonicity.build_map("quarticgen", d=5, B=(0, 1, 2, 3))
        rep = canonicity.jacobian_certify(pmap, trials=8, seed=1)
        return rep.verdict == "NotFullRankAtWitness"

    def chk_hyperplane():
        verdict = canonicity.hyperplane_classify([QQi(1), QQi(0), QQi(0, 1),
                                                  QQi(0)])
        return (verdict.kind == "Exceptional" and verdict.epsilon == QQi(0, 1))

    def chk_zerosum_1():
        return canonicity.zerosum_verify(1, trials=10, seed=0).certified

    def chk_zerosum_4():
        return canonicity.zerosum_verify(4, trials=10, seed=0).certified

    def chk_omnibus_84():
        pmap = canonicity.build_map("omnibus", d=84, e=[42, 28, 12], m=0)
        return pmap.m == 85 == pmap.target

    def chk_s15():
        return enumeration.s_of_d(15) == 2

    def chk_s99():
        return enumeration.s_of_d(99) == 3

    def chk_s7316000():
        return enumeration.s_of_d(7316000) == 12

    def chk_neat2():
        got = [(f.d, f.e) for f in enumeration.neat_enumerate(2)]
        return got == [(3, (1, 1)), (4, (2, 1)), (6, (3, 2))]

    def chk_neat3():
        return len(enumeration.neat_enumerate(3)) == 22

    def chk_a4_12():
        return enumeration.obstruction_A(4, 12)

    def chk_smallest():
        wants = {6: 10, 8: 1792, 10: 6, 12: 242, 14: 338, 15: 273}
        return all(enumeration.smallest_in_A(d) == n for d, n in wants.items())

    def chk_a_prime():
        return all(enumeration.smallest_in_A(p, 200) is None
                   for p in (2, 3, 5, 7))

    return [
        ("index_set N(3,4) = 15 = 5 N(3,1)", chk_index_set),
        ("evaluate cubic at (1,0) = 2", chk_evaluate),
        ("binary_factor 6x^2-5xy+y^2 = (2x-y)(3x-y)", chk_factor),
        ("h(D)p = 0 for the catalecticant kernel form", chk_diff_kernel),
        ("f(D)p = 160x^3+240x^2y-1680xy^2-3280y^3", chk_diff_ex41),
        ("Hankel A_2 = [[2,1,-7],[1,-7,-41]]", chk_hankel),
        ("Hankel kernel contains (6,-5,1)", chk_kernel_vector),
        ("Sylvester: 5(x+2y)^3 - 3(x+3y)^3", chk_sylvester),
        ("mixed coefficients {-4, 1, 7/2, 3/2}", chk_mixed),
        ("Monte Carlo (4;[2,1];0) = 6", chk_mc_6),
        ("Monte Carlo (4;[2];2) = 2", chk_mc_2),
        ("zero-sum family identities, m <= 8", chk_drab),
        ("sextican certified at f=x^3, g=y^2 (rank 7/7)", chk_sextican),
        ("uppertri certified at the delta witness", chk_uppertri_witness),
        ("quarticgen excluded B never certified", chk_quarticgen_excluded),
        ("hyperplane (1,0,i,0) exceptional with eps=i", chk_hyperplane),
        ("zerosum degree 2 certified", chk_zerosum_1),
        ("zerosum degree 8 certified", chk_zerosum_4),
        ("omnibus(84;[42,28,12];0) has 85 = d+1 parameters", chk_omnibus_84),
        ("s(15) = 2", chk_s15),
        ("s(99) = 3", chk_s99),
        ("s(7316000) = 12", chk_s7316000),
        ("neat r=2: (3;1,1), (4;2,1), (6;3,2)", chk_neat2),
        ("neat r=3: twenty-two forms", chk_neat3),
        ("12 in A_4", chk_a4_12),
        ("smallest of A_6, A_8, A_10, A_12, A_14, A_15", chk_smallest),
        ("A_p empty for p in {2,3,5,7}", chk_a_prime),
    ]


def _cmd_verify_examples(args) -> int:
    results = []
    for label, check in _paper_examples():
        try:
            ok = bool(check())
        except Exception as exc:  # a failing example must not stop the replay
            ok = False
            label = f"{label} [{type(exc).__name__}: {exc}]"
        results.append({"example": label, "pass": ok})
    failures = sum(not r["pass"] for r in results)
    _emit(args, {"results": results, "failures": failures} if args.json
          else [f"{'PASS' if r['pass'] else 'FAIL'}  {r['example']}"
                for r in results]
          + [f"{len(results) - failures}/{len(results)} examples pass"])
    return 0 if failures == 0 else 3


# -- argument parsing -------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="canonform",
        description="Canonical decompositions and certification for complex "
                    "homogeneous forms.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (deterministic bytes)")
    parser.add_argument("--seed", type=int,
                        default=int(os.environ.get("CANONFORM_SEED", "0")),
                        help="random seed (default: $CANONFORM_SEED or 0)")
    parser.add_argument("--epsilon", type=float, default=EPS_DEFAULT,
                        help="relative tolerance for the approximate backend")
    parser.add_argument("--backend", choices=("exact", "approx"),
                        default="exact",
                        help="scalar backend for parsed forms")
    sub = parser.add_subparsers(dest="command", required=True)

    p_dec = sub.add_parser("decompose", help="decompose a form")
    p_dec.add_argument("algo", choices=_DECOMPOSE_ALGOS)
    p_dec.add_argument("form", help="form text, or - for stdin")
    p_dec.add_argument("--fixed", action="append",
                       help="fixed linear form (mixed; repeatable)")
    p_dec.add_argument("--l1", help="first fixed linear form (quartic-two-fixed)")
    p_dec.add_argument("--l2", help="second fixed linear form (quartic-two-fixed)")
    p_dec.add_argument("--lam", help="lambda for the quartic model (quartic-six)")
    p_dec.add_argument("--shear", action="store_true",
                       help="apply a seeded random change of variables first")
    p_dec.set_defaults(func=_cmd_decompose)

    p_cert = sub.add_parser("certify", help="Jacobian full-rank certification")
    p_cert.add_argument("name", help="catalog map name")
    p_cert.add_argument("--param", action="append",
                        help="shape parameter key=value (repeatable)")
    p_cert.add_argument("--witness", help="file with whitespace-separated scalars")
    p_cert.add_argument("--trials", type=int, default=40)
    p_cert.set_defaults(func=_cmd_certify)

    p_hyp = sub.add_parser("classify-hyperplane",
                           help="canonical / exceptional for sum c_j t_j = 0")
    p_hyp.add_argument("c", help="four comma-separated scalars")
    p_hyp.set_defaults(func=_cmd_classify_hyperplane)

    p_enum = sub.add_parser("enumerate", help="neat forms / obstruction sets")
    p_enum.add_argument("what", choices=("neat", "obstruction"))
    p_enum.add_argument("--r", type=int, default=2, help="summand count (neat)")
    p_enum.add_argument("--d", type=int, default=4, help="degree (obstruction)")
    p_enum.add_argument("--max", type=int, default=100,
                        help="scan bound (obstruction)")
    p_enum.set_defaults(func=_cmd_enumerate)

    p_count = sub.add_parser("count", help="s(d), S(N), Monte Carlo estimates")
    p_count.add_argument("what", choices=("s", "S", "reps"))
    p_count.add_argument("--d", type=int, help="degree")
    p_count.add_argument("--N", type=int, help="partial-sum bound")
    p_count.add_argument("--e", help="comma-separated exponents (reps)")
    p_count.add_argument("--m", type=int, default=0,
                         help="fixed-form count (reps)")
    p_count.add_argument("--trials", type=int, default=None)
    p_count.set_defaults(func=_cmd_count)

    p_ver = sub.add_parser("verify-examples",
                           help="replay the worked examples and report pass/fail")
    p_ver.set_defaults(func=_cmd_verify_examples)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.epsilon <= 0:
        print("--epsilon must be positive", file=sys.stderr)
        return 1
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except CanonformError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
