"""Shared test helpers: decompositions compared up to term order, a child
interpreter that imports this canonform, digests of CLI outputs and runs,
the exact backward error of printed output, the quartic power ratio, the
hyperplane family's form, the seeded decompose fuzz and its runs, and the
per-trial reading of a Monte Carlo count."""

import contextlib
import functools
import hashlib
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import canonform
from canonform import cli, commands
from canonform.decompositions import (Decomposition, Term, parse_decomposition,
                                      parse_form)
from canonform.forms import (Form, index_set, linear_coeffs, linear_form,
                             var_names)
from canonform.scalars import QQi, as_scalar

BENCH = Path(__file__).resolve().parent.parent / "bench"


def cli_digests(argvs: dict) -> dict:
    """{key: sha256 of "{exit code}\\n{stdout}"} for each key's argv, run
    in-process through cli.main."""
    got = {}
    for key, argv in argvs.items():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(list(argv))
        got[key] = hashlib.sha256(f"{code}\n{out.getvalue()}".encode()).hexdigest()
    return got


def _exact(v):
    """A scalar at its exact value: a float as the rational it holds."""
    if isinstance(v, QQi):
        return v
    v = complex(v)
    return QQi(Fraction(v.real), Fraction(v.imag))


def _exact_form(f: Form) -> Form:
    return Form(f.n, f.d, {i: _exact(v) for i, v in f._a.items()})


def exact_backward_error(line: str, target: Form) -> float:
    """|rebuild - target| / |target| for one printed decomposition, its
    floats read at their exact values and rebuilt over the Gaussian
    rationals, as bench/checks.py does."""
    dec = parse_decomposition(line, target.n)
    rebuilt = Decomposition([Term(_exact(t.multiplier), _exact_form(t.base),
                                  t.power) for t in dec.terms]).reconstruct()
    return (rebuilt - _exact_form(target)).norm() / target.norm()


def printed_errors(argv: list[str], out: str) -> list[float]:
    """exact_backward_error of each decomposition that the decompose argv
    printed as text to out, against the form it decomposed: the input on
    the argv's backend, sheared by commands._sheared on a --shear run of an
    algorithm that shears, with uppertri's rows read as one sum of squares."""
    args = cli.build_parser().parse_args(argv)
    p = parse_form(args.form)
    p = p.approx() if args.backend == "approx" else p
    if args.shear and args.algo in commands._SHEARING_ALGOS:
        p = commands._sheared(p, args.seed)
    lines = out.splitlines()
    if args.algo == "uppertri":
        lines = [" + ".join(lines)]
    return [exact_backward_error(line, p) for line in lines]


def cli_run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of argv run through cli.main in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def run_record(argv: list[str], code: int, out: str, err: str) -> bytes:
    """One CLI run's (argv, exit code, stdout, stderr) as one JSON line."""
    return (json.dumps([argv, code, out, err]) + "\n").encode()


def runs_digest(runs) -> str:
    """sha256 over the run_record of each (argv, exit code, stdout, stderr)
    of runs, in order."""
    total = hashlib.sha256()
    for run in runs:
        total.update(run_record(*run))
    return total.hexdigest()


def bench_module(monkeypatch, name):
    """bench/<name>.py loaded as a module (writing no bytecode there)."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"_bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)  # for dataclasses
    spec.loader.exec_module(module)
    return module


def subprocess_env():
    """The environment for a child interpreter that imports this canonform."""
    src = str(Path(canonform.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def fresh_json(code: str, *args: str):
    """Run code in a new interpreter that imports this canonform and writes
    no bytecode, with args as sys.argv[1:]; return its stdout read as JSON."""
    proc = subprocess.run([sys.executable, "-B", "-c", code, *args],
                          capture_output=True, env=subprocess_env(), text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def used_vars(f: Form) -> list[int]:
    """The variables that f's monomials use, in order."""
    return sorted({k for idx, _ in f.items() for k, e in enumerate(idx) if e})


def term_vectors(dec):
    out = []
    for t in dec.terms:
        fa = t.form().approx()
        out.append(tuple(complex(fa.a(i)) for i in index_set(fa.n, fa.d)))
    return out


def multisets_match(a, b, tol=1e-6):
    if len(a) != len(b):
        return False
    scale = max((abs(x) for v in a + b for x in v), default=1.0)
    left = list(b)
    for u in a:
        hit = None
        for i, v in enumerate(left):
            if max(abs(x - y) for x, y in zip(u, v)) <= tol * max(scale, 1.0):
                hit = i
                break
        if hit is None:
            return False
        left.pop(hit)
    return True


# algorithm: (variable counts, degrees, extra argv) for the fuzz below
FUZZ_SHAPES = {
    "sylvester": ((2,), (1, 2, 3, 4, 5, 6, 7), []),
    "mixed": ((2,), (2, 3, 4, 5), ["--fixed", "x+2*y"]),
    "two-squares": ((2,), (2, 4, 6), []),
    "quartic-six": ((2,), (4,), []),
    "quartic-two-fixed": ((2,), (4,), ["--l1", "x+y", "--l2", "x-3*y"]),
    "uppertri": ((2, 3, 4), (2,), []),
    "reichstein": ((3, 4), (3,), []),
    "reichstein-step": ((3, 4), (3,), []),
    "slinky": ((3, 4), (3,), []),
    "slowpoke": ((3, 4, 5), (3,), []),
    "quartic-lift": ((3,), (4,), []),
}


def quartic_power_ratio(dec) -> complex | None:
    """t5/t4 of the fourth-power linear form; None encodes infinity."""
    for t in dec.terms:
        if t.power == 4:
            t4, t5 = (complex(v) for v in linear_coeffs(t.base))
            if t4 == 0:
                return None
            return t5 / t4
    raise ValueError("decomposition has no fourth-power term")


def hyperplane_form(t):
    """(t1 x + t2 y)^2 + (t3 x + t4 y)^2 for an explicit parameter 4-vector."""
    t = [as_scalar(v) for v in t]
    l1 = linear_form([t[0], t[1]])
    l2 = linear_form([t[2], t[3]])
    return l1 * l1 + l2 * l2


def _fuzz_coeff(rng):
    return rng.choice([
        lambda: f"({rng.randint(-9, 9)})",
        lambda: f"({rng.randint(-9, 9)}/{rng.randint(1, 9)})",
        lambda: f"({rng.randint(-9, 9)}+{rng.randint(1, 9)}*i)",
        lambda: f"({rng.randint(-10**12, 10**12)})",
        lambda: f"({rng.randint(-99, 99) / 10})",
        lambda: "0"])()


def _fuzz_form(rng, n, d):
    names = var_names(n)
    monos = [idx for idx in index_set(n, d) if rng.random() < 0.8]
    return " + ".join(
        _fuzz_coeff(rng) + "*" + "*".join(
            f"{names[k]}^{e}" if e > 1 else names[k]
            for k, e in enumerate(idx) if e)
        for idx in monos or index_set(n, d)[:1])


def fuzz_argvs() -> list[list[str]]:
    """550 seeded random decompose argvs, 50 per algorithm of FUZZ_SHAPES,
    on both backends and about a third with --shear."""
    rng, algos, out = random.Random(1), list(FUZZ_SHAPES), []
    for i in range(550):
        algo = algos[i % len(algos)]
        ns, ds, extra = FUZZ_SHAPES[algo]
        n, d = rng.choice(ns), rng.choice(ds)
        backend = rng.choice(["exact", "approx"])
        argv = ["--seed", str(rng.randint(0, 99)), "--backend", backend,
                "decompose", algo] + extra
        if rng.random() < 0.3:
            argv.append("--shear")
        out.append(argv + ["--", _fuzz_form(rng, n, d)])
    return out


@functools.cache
def fuzz_runs() -> tuple:
    """(argv, exit code, stdout, stderr) of each fuzz_argvs() argv, run
    once per process through cli_run."""
    return tuple((argv, *cli_run(argv)) for argv in fuzz_argvs())


def mc_draws(d: int, m: int, seed: int):
    """A Monte Carlo count's generator after it drew the random form and
    the extra fixed forms, that form and the m fixed forms."""
    import numpy as np
    rng = np.random.default_rng(seed)
    coeffs = rng.integers(-100, 101, size=(d + 1, 2))
    p = Form(2, d, {(d - j, j): complex(*coeffs[j]) for j in range(d + 1)})
    fixed = [linear_form([QQi(1), QQi(0)]), linear_form([QQi(0), QQi(1)])][:m]
    for _ in range(m - 2):
        c = rng.integers(-100, 101, size=4)
        fixed.append(linear_form([complex(c[0], c[1]), complex(c[2], c[3])]))
    return rng, p, fixed


def mc_reference_count(d: int, e: list[int], m: int, trials=None,
                       seed: int = 0) -> tuple[int, int]:
    """(estimate, Newton rows run) of count_reps_monte_carlo's random-form
    count, read one trial at a time: each batch's converged rows are
    evaluated again for their powers, and every trial in order either finds
    a new class or adds to the run of trials with nothing new, so the stop
    on patience may fall anywhere in a batch.  The reference for the
    counter's reading by new finds."""
    import numpy as np
    from canonform import binary
    e = sorted(e, reverse=True)
    rng, form, fixed = mc_draws(d, m, seed)
    p = form.approx()
    system = binary._mc_system(d, e, fixed, p)
    nvars, scale = d + 1, max(p.norm(), 1.0)
    trials = binary.default_trials(d) if trials is None else trials
    patience = max(120, trials // 5)
    start_mag = np.array([scale] * m + [scale ** (ek / d) for ek in e
                                        for _ in range(ek + 1)])
    groups = [(e.index(ek), e.index(ek) + e.count(ek))
              for ek in sorted(set(e), reverse=True)]
    found_ts = np.empty((0, m), dtype=complex)
    found_powers = np.empty((0, len(e), d + 1), dtype=complex)
    since_new = first = 0
    while first < trials:
        size = min(binary._MC_BATCH, patience - since_new, trials - first)
        buf = rng.standard_normal((size, 2 * nvars))
        z = (buf[:, :nvars] + 1j * buf[:, nvars:]) * start_mag
        first += size
        rows = np.flatnonzero(binary._mc_newton(system, z, scale)[0])
        powers = system[0](z[rows])[2]
        ts = z[rows, :m]
        dup = binary._signature_hits(ts, powers, found_ts, found_powers,
                                     groups).any(axis=1)
        good = np.zeros(len(z), dtype=bool)
        good[rows] = True
        for i, j in enumerate(np.cumsum(good) - 1):
            if good[i] and not dup[j]:
                found_ts = np.concatenate([found_ts, ts[j:j + 1]])
                found_powers = np.concatenate([found_powers, powers[j:j + 1]])
                dup[j + 1:] |= binary._signature_hits(
                    ts[j + 1:], powers[j + 1:], ts[j:j + 1], powers[j:j + 1],
                    groups)[:, 0]
                since_new = 0
                continue
            since_new += 1
            if since_new >= patience:
                return len(found_ts), first
    return len(found_ts), first


def mc_newton_reference(system, z, scale):
    """(converged mask, final z, powers of the converged rows) of
    binary._mc_newton's at most 60 Newton steps, run one row at a time: each
    row stops at its first pass whose largest residual value reaches
    1e-12*scale, with its powers from that pass, or when its solve raises.
    The reference for the counter's compact active set."""
    import numpy as np
    residual, jacobian = system
    converged, z, powers = np.zeros(len(z), dtype=bool), z.copy(), []
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(len(z)):
            row = z[i:i + 1].copy()
            for _ in range(60):
                r, slopes, pw = residual(row)
                if np.max(np.abs(r)) <= 1e-12 * scale:
                    converged[i] = True
                    powers.append(pw[0])
                    break
                try:
                    step = np.linalg.solve(jacobian(slopes), r[..., None])
                except np.linalg.LinAlgError:
                    break
                row = row - step[..., 0]
            z[i] = row[0]
    return converged, z, np.array(powers).reshape(-1, *pw.shape[1:])
