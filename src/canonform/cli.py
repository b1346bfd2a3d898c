"""Command-line front end: parse, decompose, certify, enumerate, count.

Exit codes: 0 success, 1 usage error, 2 inconclusive or degenerate input,
3 internal failure.  With --json and a fixed seed the output bytes are
identical across runs.  The other subcommands' handlers are in
canonform.commands, run on first use.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import canonicity, commands
from .errors import CanonformError, ParseError
from .forms import parse_scalar
from .scalars import EPS_DEFAULT, scalar_to_json

_DECOMPOSE_ALGOS = ("sylvester", "mixed", "two-squares", "quartic-six",
                    "quartic-two-fixed", "uppertri", "reichstein",
                    "reichstein-step", "slinky", "slowpoke", "quartic-lift")


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


class _Usage(Exception):
    """A usage refusal: main prints its message to stderr and exits 1."""


def _below(flag: str, value: int, least: int) -> None:
    """Refuse a numeric option below its least allowed value."""
    if value < least:
        raise _Usage(f"{flag} must be at least {least}, got {value}")


def _parse_param_value(text: str):
    """One scalar in the form grammar, or a comma-separated list of them; a
    real scalar with denominator 1 is read as an int."""
    vals = [v.a if not v.b and v.d == 1 else v
            for v in map(parse_scalar, text.split(","))]
    return vals if len(vals) > 1 else vals[0]


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


# -- subcommand handlers -----------------------------------------------------


def _cmd_certify(args) -> int:
    _below("--trials", args.trials, 0)
    params = {}
    for item in args.param or []:
        if "=" not in item:
            raise _Usage(f"--param needs key=value, got {item!r}")
        key, val = item.split("=", 1)
        key = key.strip()
        params[key] = _catalog_param(args.name, key, val)
    pmap = canonicity.build_map(args.name, **params)
    if not (args.witness or pmap.witness):
        _below(f"--trials for {args.name} (no stored witness)", args.trials, 1)
    witness = None
    if args.witness:
        try:
            with open(args.witness, encoding="utf-8") as fh:
                text = fh.read()
        except (OSError, UnicodeDecodeError) as exc:
            reason = (exc.strerror if isinstance(exc, OSError)
                      else "not UTF-8 text")
            raise _Usage(f"cannot read --witness {args.witness}: {reason}")
        witness = [parse_scalar(tok) for tok in text.split()]
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


# -- argument parsing -------------------------------------------------------------


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and shared after it.

    main calls this once per request, so an in-process caller pays for the
    argparse tree once.  The parser reads nothing from the environment:
    main resolves the --seed default from $CANONFORM_SEED on each call.
    Every caller gets the same object, so none may add to it.
    """
    parser = argparse.ArgumentParser(
        prog="canonform",
        description="Canonical decompositions and certification for complex "
                    "homogeneous forms.")
    parser.add_argument("--json", action="store_true",
                        help="machine-readable output (deterministic bytes)")
    parser.add_argument("--seed", type=int, default=None,
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
    p_dec.set_defaults(func=lambda a: commands._cmd_decompose(a))

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
    p_enum.set_defaults(func=lambda a: commands._cmd_enumerate(a))

    p_count = sub.add_parser("count", help="s(d), S(N), Monte Carlo estimates")
    p_count.add_argument("what", choices=("s", "S", "reps"))
    p_count.add_argument("--d", type=int, help="degree")
    p_count.add_argument("--N", type=int, help="partial-sum bound")
    p_count.add_argument("--e", help="comma-separated exponents (reps)")
    p_count.add_argument("--m", type=int, default=0,
                         help="fixed-form count (reps)")
    p_count.add_argument("--trials", type=int, default=None)
    p_count.set_defaults(func=lambda a: commands._cmd_count(a))

    p_ver = sub.add_parser("verify-examples",
                           help="replay the worked examples and report pass/fail")
    p_ver.set_defaults(func=lambda a: commands._cmd_verify_examples(a))
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    try:
        if args.seed is None:
            env_seed = os.environ.get("CANONFORM_SEED", "0")
            try:
                args.seed = int(env_seed)
            except ValueError:
                raise _Usage(f"$CANONFORM_SEED must be an integer, "
                             f"got {env_seed!r}")
        if args.epsilon <= 0:
            raise _Usage("--epsilon must be positive")
        if not math.isfinite(args.epsilon):
            raise _Usage(f"--epsilon must be finite, got {args.epsilon}")
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, as the signal module
        # docs advise, so the flush at interpreter exit cannot fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except _Usage as exc:
        print(exc, file=sys.stderr)
        return 1
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 1
    except (CanonformError, OverflowError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    # commands.py imports from this module: let it find this copy
    sys.modules.setdefault("canonform.cli", sys.modules[__name__])
    sys.exit(main())
