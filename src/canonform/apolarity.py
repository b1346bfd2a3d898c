"""The apolarity pairing, differential operators, and catalecticant matrices.

For forms of equal degree the pairing is [p,q] = sum c(i) a(p;i) a(q;i), and
p(D)q = d! [p,q].  For a binary form the order-r catalecticant is the
(d-r+1) x (r+1) Hankel matrix whose kernel vectors are exactly the
coefficient vectors of annihilating operators h with h(D)p = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ShapeMismatch
from .forms import Form, MultiIndex, Scalar, multinomial
from .linalg import mat_kernel
from .scalars import EPS_DEFAULT, QQi


def pair(p: Form, q: Form) -> Scalar:
    """The symmetric bilinear form [p,q] = sum c(i) a(p;i) a(q;i)."""
    if (p.n, p.d) != (q.n, q.d):
        raise ShapeMismatch("pairing needs equal shapes")
    total: Scalar = QQi(0) if (p.exact and q.exact) else 0j
    for idx, ap in p.items():
        aq = q.a(idx)
        if not aq:
            continue
        total = total + multinomial(idx) * ap * aq
    return total


def apply_diff(f: Form, p: Form) -> Form:
    """f(D)p, the differential operator of f applied to p (degree d-e).

    When the degrees match the result is the constant d! [f,p].
    """
    if f.n != p.n:
        raise ShapeMismatch("operator and operand have different variable counts")
    if f.d > p.d:
        raise ShapeMismatch(f"operator degree {f.d} exceeds form degree {p.d}")
    n, e, d = p.n, f.d, p.d
    raw: dict[MultiIndex, Scalar] = {}
    for i, af in f.items():
        ci_af = multinomial(i) * af
        for j, rawp in p.raw_items():
            if any(jk < ik for ik, jk in zip(i, j)):
                continue
            factor = 1
            for ik, jk in zip(i, j):
                factor *= math.factorial(jk) // math.factorial(jk - ik)
            k = tuple(jk - ik for ik, jk in zip(i, j))
            raw[k] = raw.get(k, 0) + ci_af * rawp * factor
    return Form.from_raw(n, d - e, raw)


def apolar(p: Form, q: Form, eps: float = EPS_DEFAULT) -> bool:
    """Whether the lower-degree form applied as an operator kills the other."""
    lo, hi = (p, q) if p.d <= q.d else (q, p)
    out = apply_diff(lo, hi)
    return out.is_zero(eps, scale=lo.norm() * hi.norm())


@dataclass(frozen=True)
class HankelMatrix:
    """The order-r catalecticant A_r(p) of a binary d-ic.

    entry(m, i) = a_{i+m} where p = sum binom(d,j) a_j x^(d-j) y^j; the matrix
    is constant along anti-diagonals.
    """

    r: int
    entries: tuple[tuple[Scalar, ...], ...]

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.entries), len(self.entries[0])

    def rows(self) -> list[list[Scalar]]:
        return [list(row) for row in self.entries]


def hankel(p: Form, r: int) -> HankelMatrix:
    """A_r(p) for a binary form p, shape (d-r+1) x (r+1)."""
    if p.n != 2:
        raise ShapeMismatch("catalecticants are defined for binary forms")
    if not 0 <= r <= p.d:
        raise ShapeMismatch(f"order r={r} out of range 0..{p.d}")
    d = p.d
    a = [p.a((d - j, j)) for j in range(d + 1)]
    rows = tuple(tuple(a[i + m] for i in range(r + 1)) for m in range(d - r + 1))
    return HankelMatrix(r, rows)


def hankel_kernel(h: HankelMatrix, eps: float = EPS_DEFAULT) -> list[list[Scalar]]:
    """Kernel basis of A_r(p); vectors c give h_c = sum c_t x^(r-t) y^t
    with h_c(D)p = 0."""
    return mat_kernel(h.rows(), eps)


def kernel_vector_form(c: list[Scalar]) -> Form:
    """The binary form h = sum c_t x^(r-t) y^t built from a kernel vector."""
    r = len(c) - 1
    return Form.from_raw(2, r, {(r - t, t): c[t] for t in range(r + 1)})
