"""Decompositions of forms (terms, acceptance, text and JSON), Biermann
points and the factoring of binary forms: what decomposers use and the
certifier does not.  canonform.forms serves these names too.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field

from .errors import ParseError, ShapeMismatch, ZeroForm
from .forms import (Form, MultiIndex, _Reader, _form, _is_negative_scalar,
                    _linear_powers, _monomials, _width, form_from_json,
                    form_to_json, format_form, forms_close, linear_coeffs,
                    linear_form, multinomial)
from .linalg import cluster_roots, poly_roots
from .scalars import (EPS_DEFAULT, MOD_P, SNAP_MAX_DEN, QQi, Scalar, _ONE,
                      _ZERO, _NoImage, _normalised, _over_lcm, as_scalar,
                      format_scalar, is_exact, mod_p, scalar_from_json,
                      scalar_is_zero, scalar_to_json, snap_scalar)

# Every decomposer's bound on the normwise backward error of an inexact
# result (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7).
ACCEPT_TOL = 1e-7


def check_decomposable(p: Form, shape_ok: bool, need: str) -> None:
    """The entry check of a decomposer: ShapeMismatch(need) unless shape_ok,
    then ZeroForm for the zero form."""
    if not shape_ok:
        raise ShapeMismatch(need)
    if p.is_zero():
        raise ZeroForm("cannot decompose the zero form")


@dataclass
class Term:
    """One summand: multiplier * base^power."""

    multiplier: Scalar
    base: Form
    power: int

    def form(self) -> Form:
        return (self.base ** self.power).scale(self.multiplier)


@dataclass
class Decomposition:
    """A structured representation sum multiplier_k base_k^power_k + residual.

    meta carries provenance: at least {"theorem": ...}; iterated constructions
    add per-stage entries.
    """

    terms: list[Term]
    residual: Form | None = None
    meta: dict = field(default_factory=dict)

    def shape(self) -> tuple[int, int]:
        if self.terms:
            t = self.terms[0]
            return t.base.n, t.base.d * t.power
        if self.residual is not None:
            return self.residual.n, self.residual.d
        raise ValueError("empty decomposition has no shape")

    def reconstruct(self) -> Form:
        """The sum of the terms and the residual: the powers of linear
        forms of the decomposition's shape in one pass (_linear_powers),
        any other term as its Term.form()."""
        n, d = self.shape()
        linear, rest = [], []
        for t in self.terms:
            if t.base.d == 1 and t.base.n == n and t.power == d:
                linear.append((as_scalar(t.multiplier), [
                    t.base._a.get(i, _ZERO) for i in _monomials(n, 1)]))
            else:
                rest.append(t.form())
        rest += [] if self.residual is None else [self.residual]
        return sum(rest, _linear_powers(n, d, linear))

    def verify(self, p: Form, eps: float = EPS_DEFAULT) -> bool:
        return forms_close(self.reconstruct(), p, eps)

    def accepted(self, p: Form, eps: float = EPS_DEFAULT) -> "Decomposition | None":
        """The exact snap when it rebuilds p, else self when it rebuilds p
        within max(eps, ACCEPT_TOL) of the larger norm, else None; None
        first when a multiplier or coefficient is infinite or NaN."""
        forms = [t.base for t in self.terms] + ([self.residual] if self.residual else [])
        values = [t.multiplier for t in self.terms] + [
            v for f in forms for v in f._a.values()]
        if not all(is_exact(v) or cmath.isfinite(v) for v in values):
            return None
        return self.snapped(p) or (self if self.verify(p, max(eps, ACCEPT_TOL))
                                   else None)

    def term_forms(self) -> list[Form]:
        return [t.form() for t in self.terms]

    def snapped(self, target: Form, max_den: int = SNAP_MAX_DEN) -> "Decomposition | None":
        """Exact rational reconstruction, accepted only if it rebuilds target."""
        if not target.exact:
            return None
        terms = [Term(snap_scalar(t.multiplier, max_den), t.base.snapped(max_den),
                      t.power) for t in self.terms]
        residual = self.residual.snapped(max_den) if self.residual is not None else None
        cand = Decomposition(terms, residual, dict(self.meta))
        if not _differs_mod_p(cand, target) and cand.reconstruct() == target:
            return cand
        return None

    def __str__(self) -> str:
        return format_decomposition(self)

    def to_json(self) -> dict:
        out = {"terms": [{"multiplier": scalar_to_json(t.multiplier),
                          "base": form_to_json(t.base), "power": t.power}
                         for t in self.terms], "meta": self.meta}
        if self.residual is not None:
            out["residual"] = form_to_json(self.residual)
        return out

    @classmethod
    def from_json(cls, obj: dict) -> "Decomposition":
        terms = [Term(scalar_from_json(t["multiplier"]), form_from_json(t["base"]),
                      t["power"]) for t in obj["terms"]]
        residual = form_from_json(obj["residual"]) if "residual" in obj else None
        return cls(terms, residual, obj.get("meta", {}))


# The fixed point of F_p^n at which a snapped candidate is compared with its
# target has coordinates k * _PROBE mod MOD_P, k = 1..n: a constant, not a
# random draw, so output and seed streams stay as they are.
_PROBE = 0x9E3779B97F4A7C15


def _differs_mod_p(dec: Decomposition, target: Form) -> bool:
    """Whether dec.reconstruct() != target is proved at one point mod MOD_P.

    Evaluation at a point and reduction mod MOD_P are ring maps, so values
    that differ there come from different forms.  False decides nothing: it
    is also the answer when a scalar has no image mod MOD_P or a part's
    shape does not fit target, which leaves those cases to the exact rebuild.
    """
    n, d = target.n, target.d
    parts = [(t.multiplier, t.base, t.power) for t in dec.terms]
    if dec.residual is not None:
        parts.append((QQi(1), dec.residual, 1))
    if not parts or any(f.n != n or k < 0 or f.d * k != d
                        for _, f, k in parts):
        return False
    top = max(d, *(f.d for _, f, _ in parts))
    powers = []
    for k in range(1, n + 1):
        u, row = k * _PROBE % MOD_P, [1]
        for _ in range(top):
            row.append(row[-1] * u % MOD_P)
        powers.append(row)
    try:
        value = sum(mod_p(c) * pow(_value_mod_p(f, powers), k, MOD_P)
                    for c, f, k in parts) - _value_mod_p(target, powers)
    except _NoImage:
        return False
    return value % MOD_P != 0


def _value_mod_p(p: Form, powers: list[list[int]]) -> int:
    """p at the point whose coordinate powers are given, from the raw
    coefficients a(i) * c(i), mod MOD_P."""
    total = 0
    for idx, v in p._a.items():
        m = mod_p(v) * multinomial(idx)
        for row, e in zip(powers, idx):
            m = m * row[e] % MOD_P
        total += m
    return total % MOD_P


def format_decomposition(dec: Decomposition) -> str:
    pieces = []
    for t in dec.terms:
        neg = _is_negative_scalar(t.multiplier)
        mag = -t.multiplier if neg else t.multiplier
        base_txt = format_form(t.base, compact=True)
        atomic = (len(t.base._a) == 1 and t.base.d == 1
                  and next(iter(t.base._a.values())) == 1)
        if not atomic:
            base_txt = f"({base_txt})"
        if t.power != 1:
            base_txt = f"{base_txt}^{t.power}"
        body = base_txt if mag == 1 else f"{format_scalar(mag)}*{base_txt}"
        sign = ("- " if neg else "+ ") if pieces else ("-" if neg else "")
        pieces.append(sign + body)
    if dec.residual:
        txt = format_form(dec.residual, compact=True)
        pieces.append(f"+ ({txt})" if pieces else f"({txt})")
    return " ".join(pieces) if pieces else "0"


def parse_decomposition(text: str, n: int | None = None) -> Decomposition:
    """Parse decomposition text back into terms; inverse of format_decomposition.

    A term reads as c*(f)^k -> Term(c, f, k), c*v^k for a variable v ->
    Term(c, v, k), and c times any other monomial m -> Term(c, m, 1).
    """
    if text.strip() in ("", "0"):
        raise ParseError("cannot infer the shape of an empty decomposition")
    products = _Reader(text, bases=True).read()
    n = max(_width(products), 1) if n is None else n
    terms = []
    for coeff, expo, base in products:
        if base is None and len(expo) == 1:
            (v, k), = expo.items()
            base = ([(1, {v: 1}, None)], k)
        elif base is None:
            base = ([(1, expo, None)], 1)
        elif expo:
            raise ParseError("a term is a scalar times a power of one form")
        terms.append(Term(as_scalar(coeff), _form(base[0], n, None), base[1]))
    if len(degrees := {t.base.d * t.power for t in terms}) > 1:
        raise ParseError(f"decomposition is not homogeneous: {sorted(degrees)}")
    return Decomposition(terms, meta={"theorem": "parsed"})


# -- Biermann points -----------------------------------------------------------------


def biermann_point(p: Form, eps: float = EPS_DEFAULT) -> MultiIndex:
    """A grid point i in I(n,d) with p(i) != 0, scanning graded-lex order."""
    if p.is_zero():
        raise ZeroForm("the zero form vanishes on the whole grid")
    scale = p.norm() * float(p.d + 1) ** p.d
    for idx in _monomials(p.n, p.d):
        if not scalar_is_zero(p.evaluate(idx), eps, scale):
            return idx
    raise ZeroForm("no nonvanishing grid point found")


# -- factoring binary forms ------------------------------------------------------------


def _deflate_exact(u: list[QQi], t0: QQi) -> list[QQi] | None:
    """Exact synthetic division of u by (t - t0); None unless t0 is a root.
    Horner's rule on Gaussian integers U = L u, t0 = T / D: each carry is
    L D^k times that of division in QQi, normalised only at a root."""
    (ta, tb, td), (nums, lcm) = (t0.a, t0.b, t0.d), _over_lcm(u)
    carries, re, im, scale = [], 0, 0, 1
    for c, e in reversed(nums):
        re, im = re * ta - im * tb + c * scale, re * tb + im * ta + e * scale
        carries.append((re, im, scale))
        scale *= td
    if re or im:
        return None
    return [_normalised(x, y, lcm * s) for x, y, s in reversed(carries[:-1])]


def binary_factor(p: Form, eps: float = EPS_DEFAULT,
                  max_den: int = SNAP_MAX_DEN) -> tuple[Scalar, list[tuple[Form, int]]]:
    """Factor a binary form into linear pieces: p = constant * prod(l_j^m_j).

    Each l_j is normalized with first nonzero coefficient 1.  Exact rational
    roots are split off exactly; anything irrational is factored numerically,
    with roots closer than sqrt(eps) merged in the chordal metric.
    """
    if p.n != 2:
        raise ShapeMismatch("binary_factor needs a binary form")
    if p.is_zero():
        raise ZeroForm("cannot factor the zero form")
    u = [p.raw((p.d - j, j)) for j in range(p.d + 1)]  # u(t) = p(1, t)
    scale = p.norm()
    m = max(j for j, v in enumerate(u) if not scalar_is_zero(v, eps, scale))
    factors: list[tuple[Form, int]] = []
    constant: Scalar = u[m]
    if p.d - m > 0:
        factors.append((linear_form([QQi(1), QQi(0)]), p.d - m))
    work = u[:m + 1]

    roots: list[tuple[Scalar, int]] = []
    found = poly_roots(work)
    if p.exact:
        # clustered roots lose accuracy, so try a ladder of denominator bounds
        bounds = [b for b in (1, 12, 10**3, max_den) if b <= max_den] or [max_den]
        while found:
            candidates = []
            for z in found:
                for b in bounds:
                    t0 = snap_scalar(z, b)
                    if t0 not in candidates:
                        candidates.append(t0)
            for t0 in candidates:
                count = 0
                while len(work) > 1 and (nxt := _deflate_exact(work, t0)):
                    work, count = nxt, count + 1
                if count:
                    roots.append((t0, count))
                    found = poly_roots(work)
                    break
            else:
                break
    if found:
        roots += cluster_roots(found, eps ** 0.5)

    for t0, mult in roots:
        # root t0 of u gives the factor (y - t0 x), normalized to leading 1;
        # an exact root stays exact and a float root stays float
        one = _ONE if is_exact(t0) else 1 + 0j
        if t0:
            factors.append((linear_form([one, -1 / t0]), mult))
            constant = constant * (-t0) ** mult
        else:
            factors.append((linear_form([0 * one, one]), mult))

    factors.sort(key=lambda item: [(z.real, z.imag) for z in map(
        complex, linear_coeffs(item[0]))])
    return constant, factors
