"""Shared test helpers: decompositions compared up to term order, a child
interpreter that imports this canonform, and digests of CLI outputs."""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import canonform
from canonform import cli
from canonform.forms import index_set


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


def term_vectors(dec):
    out = []
    for f in dec.term_forms():
        fa = f.approx()
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
