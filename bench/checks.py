"""Correctness checks for benchmark requests, independent of canonform.

Decompositions are expanded back to raw coefficients with this file's own
polynomial arithmetic: exactly over the Gaussian rationals when every
scalar in the output is exact, in complex doubles otherwise.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

from workloads import Request, multinomial

# Relative tolerance for float reconstructions.  Requests run at the CLI's
# default --epsilon (1e-9); the algorithms accept their own results at
# max(epsilon, 1e-7) (Decomposition.verify in sylvester, slowpoke and
# quartic-lift), so the check does the same.
FLOAT_TOL = 1e-7

ZERO = (Fraction(0), Fraction(0))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- Gaussian-rational and complex polynomial arithmetic ----------------------------


def _gmul(a, b):
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def _gadd(a, b):
    return (a[0] + b[0], a[1] + b[1])


class Ring:
    """Scalar operations for one backend: exact pairs or complex floats."""

    def __init__(self, exact: bool):
        self.exact = exact
        self.zero = ZERO if exact else 0j
        self.one = (Fraction(1), Fraction(0)) if exact else 1 + 0j

    def mul(self, a, b):
        return _gmul(a, b) if self.exact else a * b

    def add(self, a, b):
        return _gadd(a, b) if self.exact else a + b

    def scalar(self, obj: dict):
        re, im = obj["re"], obj["im"]
        if self.exact:
            return Fraction(re), Fraction(im)
        return complex(float(Fraction(re)) if isinstance(re, str) else re,
                       float(Fraction(im)) if isinstance(im, str) else im)

    def lift(self, v):
        return v if self.exact else complex(float(v[0]), float(v[1]))


def poly_mul(ring: Ring, p: dict, q: dict) -> dict:
    out: dict = {}
    for i, a in p.items():
        for j, b in q.items():
            k = tuple(x + y for x, y in zip(i, j))
            out[k] = ring.add(out.get(k, ring.zero), ring.mul(a, b))
    return out


def poly_pow(ring: Ring, p: dict, k: int, n: int) -> dict:
    out = {(0,) * n: ring.one}
    for _ in range(k):
        out = poly_mul(ring, out, p)
    return out


def poly_add_into(ring: Ring, acc: dict, p: dict, scale=None) -> None:
    for i, a in p.items():
        acc[i] = ring.add(acc.get(i, ring.zero), a if scale is None else ring.mul(scale, a))


def raw_of_form(ring: Ring, obj: dict) -> dict:
    """Raw monomial coefficients of a form JSON (normalized a(i) times c(i))."""
    return {tuple(c["idx"]): ring.mul(ring.scalar(c),
                                      ring.lift((Fraction(multinomial(c["idx"])), Fraction(0))))
            for c in obj["coeffs"]}


def all_exact(payload) -> bool:
    """True when every scalar in the JSON payload is an exact string pair."""
    if isinstance(payload, dict):
        if "re" in payload and "im" in payload:
            return isinstance(payload["re"], str) and isinstance(payload["im"], str)
        return all(all_exact(v) for v in payload.values())
    if isinstance(payload, list):
        return all(all_exact(v) for v in payload)
    return True


# -- the input a request should reconstruct ---------------------------------------------


def shear_matrix(n: int, seed: int) -> list[list[Fraction]]:
    """The documented seeded change of variables of ``decompose --shear``:
    integer entries in [-3, 3] drawn row by row until the matrix is invertible."""
    rng = random.Random(seed)
    while True:
        m = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if _det(m):
            return m


def _det(m) -> Fraction:
    a = [list(r) for r in m]
    n = len(a)
    det = Fraction(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if a[i][c]), None)
        if pr is None:
            return Fraction(0)
        if pr != c:
            a[c], a[pr] = a[pr], a[c]
            det = -det
        det *= a[c][c]
        for i in range(c + 1, n):
            f = a[i][c] / a[c][c]
            a[i] = [a[i][j] - f * a[c][j] for j in range(n)]
    return det


def target_raw(ring: Ring, req: Request) -> dict:
    """Raw coefficients of the form the request decomposes: the input, or
    the input composed with the shear x = M x'."""
    raw = {i: ring.lift(v) for i, v in req.raw.items()}
    if req.shear_seed is None:
        return raw
    n = req.n
    m = shear_matrix(n, req.shear_seed)
    lins = [{tuple(int(j == k) for j in range(n)): ring.lift((m[r][k], Fraction(0)))
             for k in range(n)} for r in range(n)]
    out: dict = {}
    for idx, c in raw.items():
        term = {(0,) * n: c}
        for r, e in enumerate(idx):
            if e:
                term = poly_mul(ring, term, poly_pow(ring, lins[r], e, n))
        poly_add_into(ring, out, term)
    return out


def _close(ring: Ring, got: dict, want: dict) -> bool:
    keys = set(got) | set(want)
    if ring.exact:
        return all(got.get(k, ZERO) == want.get(k, ZERO) for k in keys)
    tol = FLOAT_TOL * max([1.0] + [abs(v) for v in want.values()])
    return all(abs(got.get(k, 0j) - want.get(k, 0j)) <= tol for k in keys)


def _decomposition_raw(ring: Ring, dec: dict, n: int) -> dict:
    total: dict = {}
    for t in dec["terms"]:
        base = raw_of_form(ring, t["base"])
        poly_add_into(ring, total, poly_pow(ring, base, t["power"], n),
                      ring.scalar(t["multiplier"]))
    if "residual" in dec:
        poly_add_into(ring, total, raw_of_form(ring, dec["residual"]))
    return total


def _reconstructs(req: Request, payload) -> bool:
    ring = Ring(all_exact(payload))
    want = target_raw(ring, req)
    n = req.n
    if req.algo == "uppertri":
        total: dict = {}
        for row in payload:
            poly_add_into(ring, total, poly_pow(ring, raw_of_form(ring, row), 2, n))
        return _close(ring, total, want)
    decs = payload if isinstance(payload, list) else [payload]
    return bool(decs) and all(
        _close(ring, _decomposition_raw(ring, dec, n), want)
        for dec in decs)


# -- per-request verdict ------------------------------------------------------------------


def check(req: Request, code: int, out: str, ref: dict) -> str | None:
    """None if the request passed, else a one-line reason."""
    if code == 3:
        return "exit 3 (internal error)"
    if code == 2:
        return "exit 2 where the reference succeeded" if ref["exit"] == 0 else None
    if code != 0:
        return f"exit {code}"
    try:
        payload = json.loads(out)
    except ValueError:
        return "output is not JSON"
    if req.kind == "certify":
        if ref["exit"] == 0 and digest(out) != ref["sha256"]:
            return "JSON bytes differ from the reference"
        if payload["verdict"] != "Certified" or payload["rank"] != payload["target"]:
            return "exit 0 without a full-rank certificate"
        return None
    if req.kind == "count":
        lo, hi = req.truth
        if payload.get("flag") != "ESTIMATE" or not lo <= payload["estimate"] <= hi:
            return f"estimate {payload.get('estimate')} outside {lo}..{hi}"
        return None
    if ref["exit"] == 0 and ref["exact"] and digest(out) != ref["sha256"]:
        return "exact JSON bytes differ from the reference"
    if not _reconstructs(req, payload):
        return "result does not reconstruct the input"
    return None
