"""The handlers of decompose, enumerate, count and verify-examples, which
canonform.cli reads from here when one runs, so that only those subcommands
run this module."""

from __future__ import annotations

import random
import sys

from . import (apolarity, binary, canonicity, decompositions, enumeration,
               linalg, multivar)
from .cli import _Usage, _below, _emit, _fits_float, _parse_param_value
from .errors import ParseError
from .forms import Form, dim, index_set, multinomial, parse_scalar
from .scalars import QQi

# the algorithms that --shear applies to; the others ignore it
_SHEARING_ALGOS = ("uppertri", "reichstein", "reichstein-step", "slinky")


def parse_form(text: str, n=None, d=None) -> Form:
    # decompositions.parse_form, read when called: enumerate and count run
    # no decompositions
    return decompositions.parse_form(text, n=n, d=d)


def _read_form(text: str, n=None, d=None) -> Form:
    if text == "-":
        text = sys.stdin.read()
    return _parse_float_range_form(text, n=n, d=d)


def _parse_float_range_form(text: str, n=None, d=None) -> Form:
    """parse_form, refusing a coefficient that does not fit in a float."""
    p = parse_form(text, n=n, d=d)
    for idx, c in p.items():
        if not _fits_float(c, multinomial(idx)):
            mono = decompositions._monomial_text(idx, decompositions.var_names(p.n))
            raise ParseError(f"the coefficient of {mono} does not fit in a float")
    return p


def _above(flag: str, value: int, most: int) -> None:
    """Refuse a numeric option above its greatest allowed value."""
    if value > most:
        raise _Usage(f"{flag} must be at most {most}, got {value}")


def _render(args, item):
    """One decompose result, a decomposition or an uppertri row l_k (shown
    as (l_k)^2), as a JSON payload or as text."""
    if isinstance(item, Form):
        return decompositions.form_to_json(item) if args.json else f"({item})^2"
    return item.to_json() if args.json else str(item)


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
            raise _Usage("mixed needs at least one --fixed form")
        fixed = [_parse_float_range_form(f, n=2, d=1) for f in args.fixed]
        r = (p.d + 1 - len(fixed)) // 2
        result = binary.mixed_decompose(p, binary.MixedSpec(fixed, r), eps)
    elif algo == "two-squares":
        result = binary.two_squares_all(p, eps)
    elif algo == "quartic-six":
        result = (binary.quartic_six_reps(parse_scalar(args.lam), eps)
                  if args.lam is not None
                  else binary.quartic_six_for_form(p, eps))
    elif algo == "quartic-two-fixed":
        if not (args.l1 and args.l2):
            raise _Usage("quartic-two-fixed needs --l1 and --l2")
        result = binary.quartic_two_fixed(
            p, _parse_float_range_form(args.l1, n=2, d=1),
            _parse_float_range_form(args.l2, n=2, d=1), eps)
    elif algo == "uppertri":
        result = multivar.uppertri(p, eps).rows
    elif algo == "reichstein":
        result = multivar.reichstein_full(p, eps)
    elif algo == "reichstein-step":
        cubes, residual = multivar.reichstein_step(p, eps)
        result = decompositions.Decomposition(cubes.terms, residual=residual,
                                              meta=dict(cubes.meta))
    elif algo == "slinky":
        result = multivar.slinky(p, eps)
    elif algo == "slowpoke":
        result = multivar.slowpoke(p, eps)
    else:
        result = multivar.quartic_lift(p, eps)
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
        if linalg.exact_det(m):
            return p.substitute(m)


# The largest inputs `enumerate` takes; the library itself is unbounded.
# The neat search grows about 70-fold per summand (r = 6 takes about 40 s),
# and obstruction_A(d, n) may compute n binomials whose size grows with d
# (the slowest d <= 100 found, 96, scans up to 10**4 in about 1.3 s).
_ENUM_MAX_R = 6
_ENUM_MAX_D = 100
_ENUM_MAX_SCAN = 10 ** 4


def _cmd_enumerate(args) -> int:
    if args.what == "neat":
        _below("--r", args.r, 1)
        _above("--r", args.r, _ENUM_MAX_R)
        forms = enumeration.neat_enumerate(args.r)
        _emit(args, [{"d": f.d, "e": list(f.e)} for f in forms] if args.json
              else [f"d={f.d}  e={list(f.e)}" for f in forms]
              + [f"total: {len(forms)}"])
        return 0
    _below("--d", args.d, 2)
    _above("--d", args.d, _ENUM_MAX_D)
    _above("--max", args.max, _ENUM_MAX_SCAN)
    members = [n for n in range(1, args.max + 1)
               if enumeration.obstruction_A(args.d, n)]
    _emit(args, {"d": args.d, "max": args.max, "members": members}
          if args.json else " ".join(map(str, members))
          or f"no members of A_{args.d} up to {args.max}")
    return 0


# The largest inputs `count` takes; the library itself is unbounded.  A
# degree-d power of a random line leaves the float range from d ~ 160, each
# Monte Carlo trial is a Newton run, and s(d) finds divisors by trial
# division up to sqrt(d) (0.7 s at 10**14; S(N) loops to sqrt(N)).
_COUNT_MAX_D = 30
_COUNT_MAX_TRIALS = 10 ** 6
_COUNT_MAX_ARG = 10 ** 14


def _cmd_count(args) -> int:
    if args.what in ("s", "S"):
        key, count = (("d", enumeration.s_of_d) if args.what == "s"
                      else ("N", enumeration.partial_sum_S))
        arg = getattr(args, key)
        if arg is None:
            raise _Usage(f"count {args.what} needs --{key}")
        _below(f"--{key}", arg, 1)
        _above(f"--{key}", arg, _COUNT_MAX_ARG)
        value = count(arg)
        _emit(args, {key: arg, args.what: value} if args.json else str(value))
        return 0
    if args.d is None or args.e is None:
        raise _Usage("count reps needs --d and --e")
    if args.trials is not None:
        _below("--trials", args.trials, 1)
    _below("--seed", args.seed, 0)  # numpy's generators take seeds >= 0
    _above("--d", args.d, _COUNT_MAX_D)
    if args.trials is None:
        flag, budget = (f"--trials (default for --d {args.d})",
                        binary.default_trials(args.d))
    else:
        flag, budget = "--trials", args.trials
    _above(flag, budget, _COUNT_MAX_TRIALS)
    e = _parse_param_value(args.e)
    e = e if isinstance(e, list) else [e]
    for v in e:
        if not isinstance(v, int):
            raise ParseError(f"--e entries must be integers, got {v}")
    value = binary.count_reps_monte_carlo(args.d, e, args.m,
                                          trials=args.trials, seed=args.seed)
    _emit(args, {"d": args.d, "e": e, "m": args.m, "estimate": value,
                 "flag": "ESTIMATE"} if args.json else
          f"ESTIMATE: {value} representations (Monte Carlo, seed "
          f"{args.seed}; never authoritative)")
    return 0


# -- verify-examples ------------------------------------------------------------


_EX310 = "2*x^3 + 3*x^2*y - 21*x*y^2 - 41*y^3"
_EX41 = "-x^5 + 15*x^4*y - 170*x^3*y^2 + 390*x^2*y^3 - 505*x*y^4 + 483*y^5"


def _factor_product_ok() -> bool:
    c, fs = decompositions.binary_factor(parse_form("6*x^2 - 5*x*y + y^2"))
    prod = None
    for f, mult in fs:
        t = f ** mult
        prod = t if prod is None else prod * t
    return prod.scale(c) == parse_form("6*x^2 - 5*x*y + y^2") and len(fs) == 2


def _hankel_kernel_ok() -> bool:
    basis = apolarity.hankel_kernel(apolarity.hankel(parse_form(_EX310), 2))
    return (len(basis) == 1
            and [x * 6 for x in basis[0]] == [QQi(6), QQi(-5), QQi(1)])


def _drab_identities_ok() -> bool:
    for m in range(1, 9):
        fam = multivar.drab_family(m)
        squares = decompositions.Decomposition(
            [decompositions.Term(1, f, 2) for f in fam])
        target = Form.from_raw(m, 2, {tuple(2 * (j == k) for j in range(m)): 1
                                      for k in range(m)})
        if not (sum(fam[1:], fam[0]).is_zero(1e-12, scale=1.0)
                and squares.verify(target.approx(), 1e-12)):
            return False
    return True


# The paper's worked examples that verify-examples replays, in order: a label
# and a check that returns whether the example holds.
_PAPER_EXAMPLES = [
    ("index_set N(3,4) = 15 = 5 N(3,1)",
     lambda: len(index_set(3, 4)) == 15 and dim(3, 4) == 5 * dim(3, 1)),
    ("evaluate cubic at (1,0) = 2",
     lambda: parse_form(_EX310).evaluate((1, 0)) == QQi(2)),
    ("binary_factor 6x^2-5xy+y^2 = (2x-y)(3x-y)", _factor_product_ok),
    ("h(D)p = 0 for the catalecticant kernel form",
     lambda: apolarity.apply_diff(parse_form("6*x^2 - 5*x*y + y^2"),
                                  parse_form(_EX310)).is_zero()),
    ("f(D)p = 160x^3+240x^2y-1680xy^2-3280y^3",
     lambda: apolarity.apply_diff(parse_form("3*x^2 - 2*x*y - y^2"),
                                  parse_form(_EX41))
     == parse_form("160*x^3 + 240*x^2*y - 1680*x*y^2 - 3280*y^3")),
    ("Hankel A_2 = [[2,1,-7],[1,-7,-41]]",
     lambda: apolarity.hankel(parse_form(_EX310), 2).rows()
     == [[QQi(2), QQi(1), QQi(-7)], [QQi(1), QQi(-7), QQi(-41)]]),
    ("Hankel kernel contains (6,-5,1)", _hankel_kernel_ok),
    ("Sylvester: 5(x+2y)^3 - 3(x+3y)^3",
     lambda: str(binary.sylvester_decompose(parse_form(_EX310)))
     == "5*(x+2*y)^3 - 3*(x+3*y)^3"),
    ("mixed coefficients {-4, 1, 7/2, 3/2}",
     lambda: sorted(str(t.multiplier) for t in binary.mixed_decompose(
         parse_form(_EX41), binary.MixedSpec(
             [parse_form("x + y"), parse_form("-x + 3*y")], 2)).terms)
     == sorted(["-4", "1", "7/2", "3/2"])),
    ("Monte Carlo (4;[2,1];0) = 6",
     lambda: binary.count_reps_monte_carlo(4, [2, 1], 0, seed=2026) == 6),
    ("Monte Carlo (4;[2];2) = 2",
     lambda: binary.count_reps_monte_carlo(4, [2], 2, seed=2026) == 2),
    ("zero-sum family identities, m <= 8", _drab_identities_ok),
    ("sextican certified at f=x^3, g=y^2 (rank 7/7)",
     lambda: (rep := canonicity.jacobian_certify(
         canonicity.build_map("sextican"))).certified
     and rep.rank == 7 and rep.trials == 1),
    ("uppertri certified at the delta witness",
     lambda: (rep := canonicity.jacobian_certify(
         canonicity.build_map("uppertri", n=4))).certified
     and rep.trials == 1),
    ("quarticgen excluded B never certified",
     lambda: canonicity.jacobian_certify(
         canonicity.build_map("quarticgen", d=5, B=(0, 1, 2, 3)),
         trials=8, seed=1).verdict == "NotFullRankAtWitness"),
    ("hyperplane (1,0,i,0) exceptional with eps=i",
     lambda: (v := canonicity.hyperplane_classify(
         [QQi(1), QQi(0), QQi(0, 1), QQi(0)])).kind == "Exceptional"
     and v.epsilon == QQi(0, 1)),
    ("zerosum degree 2 certified",
     lambda: canonicity.zerosum_verify(1, trials=10, seed=0).certified),
    ("zerosum degree 8 certified",
     lambda: canonicity.zerosum_verify(4, trials=10, seed=0).certified),
    ("omnibus(84;[42,28,12];0) has 85 = d+1 parameters",
     lambda: (pmap := canonicity.build_map(
         "omnibus", d=84, e=[42, 28, 12], m=0)).m == 85 == pmap.target),
    ("s(15) = 2", lambda: enumeration.s_of_d(15) == 2),
    ("s(99) = 3", lambda: enumeration.s_of_d(99) == 3),
    ("s(7316000) = 12", lambda: enumeration.s_of_d(7316000) == 12),
    ("neat r=2: (3;1,1), (4;2,1), (6;3,2)",
     lambda: [(f.d, f.e) for f in enumeration.neat_enumerate(2)]
     == [(3, (1, 1)), (4, (2, 1)), (6, (3, 2))]),
    ("neat r=3: twenty-two forms",
     lambda: len(enumeration.neat_enumerate(3)) == 22),
    ("12 in A_4", lambda: enumeration.obstruction_A(4, 12)),
    ("smallest of A_6, A_8, A_10, A_12, A_14, A_15",
     lambda: all(enumeration.smallest_in_A(d) == n for d, n in
                 {6: 10, 8: 1792, 10: 6, 12: 242, 14: 338, 15: 273}.items())),
    ("A_p empty for p in {2,3,5,7}",
     lambda: all(enumeration.smallest_in_A(p, 200) is None
                 for p in (2, 3, 5, 7))),
]


def _cmd_verify_examples(args) -> int:
    results = []
    for label, check in _PAPER_EXAMPLES:
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
