"""Decompositions of forms (terms, acceptance, text and JSON), Biermann
points and the factoring of binary forms, with the half of forms.py that
they use and the certifier does not: the product and power kernels, the
bodies of Form's substitution, evaluation, snapping and chopping, and form
text and JSON.  canonform.forms serves the public names among these too.
"""

from __future__ import annotations

import cmath
import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction

from . import LazyModule
from .errors import ParseError, ShapeMismatch, ZeroForm
from .forms import (_VAR_INDEX, Form, MultiIndex, _Reader, _monomials, _sum_into,
                    _trusted, dim, linear_coeffs, linear_form, multinomial)
from .linalg import cluster_roots, poly_roots
from .scalars import (EPS_DEFAULT, MOD_P, SNAP_MAX_DEN, QQi, Scalar, _ONE,
                      _INEXACT, _ZERO, _NoImage, _normalised, _over_lcm, as_scalar,
                      format_scalar, is_exact, mod_p, power, scalar_from_json,
                      scalar_is_zero, scalar_to_json, snap_scalar)

np = LazyModule("numpy", globals(), "np")

# -- products and powers of forms ------------------------------------------------


@functools.cache
def _pack(idx: MultiIndex, base: int) -> int:
    """idx as the digits of one int in base: while every exponent stays
    below base, a product monomial's code is the sum of its factors'."""
    code = 0
    for e in idx:
        code = code * base + e
    return code


@functools.cache
class _Codes(dict):
    """Packed code in base d + 1 -> (index, multinomial) for shape (n, d),
    entered when first read: a sparse product lists no other monomial."""

    def __init__(self, n: int, d: int):
        self.n, self.base = n, d + 1

    def __missing__(self, code: int) -> tuple[MultiIndex, int]:
        idx = tuple(code // self.base ** s % self.base
                    for s in range(self.n - 1, -1, -1))
        self[code] = entry = (idx, multinomial(idx))
        return entry


def _part(f: Form, base: int, lcm: int = 0) -> tuple:
    """f as a part (terms, exact, den): exact terms (code in base, re, im) are
    actual coefficients over den (lcm if given), float ones (code, a(i))."""
    if not f.exact:
        return [(_pack(i, base), v) for i, v in f._a.items()], False, 1
    nums, lcm = _over_lcm(f._a.values(), lcm)
    return [(_pack(i, base), a * (m := multinomial(i)), b * m)
            for i, (a, b) in zip(f._a, nums)], True, lcm


def _times(f: tuple, g: tuple, table: "_Codes") -> tuple:
    """The part f * g: Gaussian-integer sums, normalised in _form_of, or float
    sums over the terms in descending code order, each divided by its
    multinomial."""
    if f[1] and g[1]:
        re, im = {}, {}
        for i, a, b in f[0]:
            for j, c, e in g[0]:
                k = i + j
                re[k] = re.get(k, 0) + a * c - b * e
                im[k] = im.get(k, 0) + a * e + b * c
        return ([(k, x, im[k]) for k, x in re.items() if x or im[k]], True,
                f[2] * g[2])
    mine, theirs = (sorted(
        ((k, complex(a / den, b / den)) for k, a, b in terms) if exact else
        ((k, v * table[k][1]) for k, v in terms), reverse=True)
        for terms, exact, den in (f, g))
    raw: dict[int, complex] = {}
    for i, u in mine:
        for j, v in theirs:
            k = i + j
            raw[k] = raw.get(k, 0) + u * v
    terms = [(k, s) for k, v in raw.items() if (s := v / table[k][1])]
    return terms, not terms, 1


def _form_of(part: tuple, n: int, d: int, table: "_Codes") -> Form:
    terms, exact, den = part
    if exact:
        return _trusted(n, d, {(e := table[k])[0]: _normalised(a, b, den * e[1])
                               for k, a, b in terms}, True)
    return _trusted(n, d, {table[k][0]: v for k, v in terms}, False)


def _product(p: Form, q: Form) -> Form:
    if p.n != q.n:
        raise ShapeMismatch("variable counts differ")
    n, d, table = p.n, p.d + q.d, _Codes(p.n, p.d + q.d)
    return _form_of(_times(_part(p, d + 1), _part(q, d + 1), table), n, d, table)


@functools.cache
def _power_steps(n: int, d: int, support: tuple[int, ...]) -> tuple:
    """(parent, k) for each monomial of degree 1..d in the variables of
    support, in graded-lex order: it is x_k, its first variable, times the
    monomial at step `parent` (0 is 1); and the places in _monomials(n, d)
    of the degree-d ones, which come last."""
    place, steps = {(0,) * n: 0}, []
    for m in range(1, d + 1):
        for idx in _monomials(n, m):
            if all(k in support for k, e in enumerate(idx) if e):
                k = next(k for k, e in enumerate(idx) if e)
                steps.append((place[idx[:k] + (idx[k] - 1,) + idx[k + 1:]], k))
                place[idx] = len(place)
    return tuple(steps), tuple(r for r, idx in enumerate(_monomials(n, d))
                               if idx in place)


def _linear_powers(n: int, d: int, terms) -> Form:
    """sum mu (c . x)^d over terms (mu, c) in one pass: the normalised
    coefficient of x^i in (c . x)^d is prod c_k^i_k, one product from its
    parent in _power_steps.  Exact terms are summed as Gaussian-integer
    numerators over one common denominator, each only over the monomials
    in the variables where its c is nonzero; float ones as complex sums."""
    size, exact, floats = dim(n, d), [], [0j] * dim(n, d)
    for mu, coeffs in terms:
        if is_exact(mu) and all(map(is_exact, coeffs)):
            support = tuple(k for k, c in enumerate(coeffs) if c)
            steps, places = _power_steps(n, d, support)
            nums, lcm = _over_lcm(coeffs)
            re, im = [mu.a], [mu.b]
            for parent, k in steps:
                a, b, (c, e) = re[parent], im[parent], nums[k]
                re.append(a * c - b * e)
                im.append(a * e + b * c)
            first = len(re) - len(places)
            exact.append((places, re[first:], im[first:], mu.d * lcm ** d))
        else:
            row, cs = [complex(mu)], [complex(v) for v in coeffs]
            for parent, k in _power_steps(n, d, tuple(range(n)))[0]:
                row.append(row[parent] * cs[k])
            floats = [u + v for u, v in zip(floats, row[-size:])]
    den = math.lcm(*(part for *_, part in exact))
    re, im = [0] * size, [0] * size
    for places, xs, ys, part in exact:
        w = den // part
        for r, x, y in zip(places, xs, ys):
            re[r] += x * w
            im[r] += y * w
    mons = _monomials(n, d)
    total = _trusted(n, d, {i: _normalised(x, y, den) for i, x, y
                            in zip(mons, re, im) if x or y}, True)
    approx = _trusted(n, d, {i: v for i, v in zip(mons, floats) if v}, False)
    return total + approx if approx else total


def _power(p: Form, k: int) -> Form:
    if k < 0:
        raise ValueError("negative form power")
    one = QQi(1) if p.exact else 1 + 0j
    return power(p, k, _trusted(p.n, 0, {(0,) * p.n: one}, p.exact))


def power_of_linear(alpha, d: int) -> Form:
    """(alpha . x)^d computed directly: a(i) = alpha^i."""
    al = [as_scalar(v) for v in alpha]
    return _linear_powers(len(al), d, [(_ONE, al)])


def forms_close(p: Form, q: Form, eps: float = EPS_DEFAULT) -> bool:
    """Coefficientwise agreement within eps times the larger form's scale."""
    if (p.n, p.d) != (q.n, q.d):
        return False
    if p.exact and q.exact:
        return p._a == q._a
    cut, mine, theirs = eps * max(p.norm(), q.norm()), p._a, q._a
    return all(abs(complex(mine.get(i, 0)) - complex(theirs.get(i, 0)))
               * multinomial(i) <= cut for i in mine.keys() | theirs.keys())


# -- the bodies of Form.evaluate, substitute, partial, snapped and chop ----------


def _evaluate(p: Form, point) -> Scalar:
    if len(point) != p.n:
        raise ShapeMismatch(f"point length {len(point)} != n={p.n}")
    pt = [as_scalar(v) for v in point]
    total: Scalar = QQi(0) if p.exact else 0j
    for idx, rawc in p.raw_items():
        term = rawc
        for k, e in enumerate(idx):
            if e:
                term = term * pt[k] ** e
        total = total + term
    return total


def _substitute(p: Form, m) -> Form:
    """p o M: each monomial's image is the part (_times) of its prefix's image
    times a cached power of a row; exact rows share one lcm L, images L^d."""
    if len(m) != p.n:
        raise ShapeMismatch(f"matrix has {len(m)} rows, need {p.n}")
    n_new, lins = len(m[0]), [linear_form(row) for row in m]
    items = sorted(p._a.items(), reverse=True)  # as p.raw_items()
    tops = [max((i[k] for i, _ in items), default=0) for k in range(p.n)]
    if any(e and f.n != n_new for e, f in zip(tops, lins)):
        raise ShapeMismatch("variable counts differ")
    base, table = p.d + 1, _Codes(n_new, p.d)
    lcm = math.lcm(*(v.d for f in lins if f.exact for v in f._a.values()))
    unit, powers = ([(0, 1, 0)], True, 1), []
    for f, top in zip(lins, tops):
        row = _part(f, base, lcm)
        powers.append([unit])
        for _ in range(top):
            powers[-1].append(_times(powers[-1][-1], row, table))
    # an exact form under exact rows sums Gaussian integers, a float form
    # floats, and an exact form meeting a float row Forms, as it always did
    exact = p.exact and all(f.exact for f, e in zip(lins, tops) if e)
    nums, den = _over_lcm([v for _, v in items]) if exact else ((), 1)
    prefix, acc = {(): unit}, {} if exact or not p.exact else Form.zero(n_new, p.d)
    for j, (idx, v) in enumerate(items):
        for k, e in enumerate(idx):
            if (head := idx[:k + 1]) not in prefix:
                part = prefix[idx[:k]]
                prefix[head] = (part if not e else powers[k][e] if part is unit
                                else _times(part, powers[k][e], table))
        terms, part_exact, part_den = part = prefix[idx]
        if exact:
            ra, rb = (c * multinomial(idx) for c in nums[j])
            for k, a, b in terms:
                x, y = acc.get(k, (0, 0))
                x, y = x + a * ra - b * rb, y + a * rb + b * ra
                if x or y:
                    acc[k] = x, y
                else:
                    del acc[k]
        elif not p.exact:
            rawc = v * multinomial(idx)
            for k, w in (((k, complex(a / (dk := part_den * table[k][1]), b / dk))
                          for k, a, b in terms) if part_exact else terms):
                if s := acc.get(k, 0) + w * rawc:
                    acc[k] = s
                else:
                    acc.pop(k, None)
        else:
            acc = _sum_into(acc._a, acc, _form_of(part, n_new, p.d, table)
                            .scale(v * multinomial(idx)))
    if exact:
        return _form_of(([(k, x, y) for k, (x, y) in acc.items()], True,
                         den * lcm ** p.d), n_new, p.d, table)
    return _form_of((acc.items(), False, 1), n_new, p.d, table) if not p.exact else acc


def _partial(p: Form, j: int) -> Form:
    if p.d == 0:
        raise ValueError("cannot differentiate a constant form")
    a: dict[MultiIndex, Scalar] = {}
    for idx, v in p._a.items():
        e = idx[j]
        if not e:
            continue
        new = idx[:j] + (e - 1,) + idx[j + 1:]
        if p.exact:
            a[new] = v * p.d  # c(idx) * e / c(new) == d
        elif s := v * multinomial(idx) * e / multinomial(new):
            a[new] = s
    return _trusted(p.n, p.d - 1, a, p.exact)


def _snapped(p: Form, max_den: int) -> Form:
    return _trusted(p.n, p.d, {i: w for i, v in p._a.items()
                               if (w := snap_scalar(v, max_den))}, True)


def _chop(p: Form, eps: float, scale: float | None) -> Form:
    if p.exact:
        return p
    cut = eps * max(p.norm() if scale is None else scale, 1e-300)
    return _trusted(p.n, p.d, {i: v for i, v in p._a.items()
                               if abs(complex(v)) * multinomial(i) > cut}, False)


# -- random forms and variable embedding --------------------------------------------


def random_form(n: int, d: int, rng, lo: int = -9, hi: int = 9,
                gaussian: bool = False) -> Form:
    """Random exact form: normalized coefficients are integers in [lo, hi].

    With gaussian=True the coefficients are Gaussian integers t + u*i, the
    convention used for the numeric experiments.
    """
    coeffs = {}
    for idx in _monomials(n, d):
        re = rng.randint(lo, hi)
        im = rng.randint(lo, hi) if gaussian else 0
        coeffs[idx] = QQi(re, im)
    return Form(n, d, coeffs)


def restrict_form(p: Form, keep: list[int]) -> Form:
    """View p inside the variables `keep` (its support must lie there)."""
    pos = {v: k for k, v in enumerate(keep)}
    coeffs = {}
    for idx, v in p._a.items():
        new = [0] * len(keep)
        for k, e in enumerate(idx):
            if e and k not in pos:
                raise ShapeMismatch(f"form uses variable {k} outside {keep}")
            if e:
                new[pos[k]] = e
        coeffs[tuple(new)] = v
    return _trusted(len(keep), p.d, coeffs, p.exact)


def pad_form(p: Form, n: int, at: list[int]) -> Form:
    """Embed a form on variables `at` back into ambient dimension n."""
    coeffs = {}
    for idx, v in p._a.items():
        new = [0] * n
        for k, e in enumerate(idx):
            new[at[k]] = e
        coeffs[tuple(new)] = v
    return Form(n, p.d, coeffs)


# -- text format -------------------------------------------------------------------


def var_names(n: int) -> list[str]:
    if n <= 3:
        return ["x", "y", "z"][:n]
    return [f"x{k + 1}" for k in range(n)]


def _monomial_text(idx: MultiIndex, names: list[str]) -> str:
    parts = []
    for k, e in enumerate(idx):
        if e == 1:
            parts.append(names[k])
        elif e > 1:
            parts.append(f"{names[k]}^{e}")
    return "*".join(parts)


def _is_negative_scalar(v: Scalar) -> bool:
    if is_exact(v):
        return v.im == 0 and v.re < 0
    z = complex(v)
    return z.imag == 0.0 and z.real < 0


def format_form(p: Form, compact: bool = False) -> str:
    if not p:
        return "0"
    names = var_names(p.n)
    pieces = []
    for idx, _ in p.items():
        rawc = p.raw(idx)
        mono = _monomial_text(idx, names)
        neg = _is_negative_scalar(rawc)
        mag = -rawc if neg else rawc
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{format_scalar(mag)}*{mono}"
        else:
            body = format_scalar(mag)
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        elif compact:
            pieces.append(f"-{body}" if neg else f"+{body}")
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return "".join(pieces) if compact else " ".join(pieces)


def _width(products: list) -> int:
    """One more than the largest variable index in products and their bases."""
    width = 0
    for _, expo, base in products:
        width = max(width, max(expo, default=-1) + 1,
                    _width(base[0]) if base else 0)
    return width


def _form(products: list, n: int | None, d: int | None) -> Form:
    """The form that a sum of products without bases denotes."""
    inferred_n = _width(products)
    if n is None:
        n = max(inferred_n, 1)
    elif inferred_n > n:
        raise ParseError(f"form uses {inferred_n} variables, n={n} given")
    # a zero coefficient does not count toward the degree, unless all are zero
    degrees = ({sum(e.values()) for c, e, _ in products if c}
               or {sum(e.values()) for _, e, _ in products})
    if len(degrees) > 1:
        raise ParseError(f"form is not homogeneous: degrees {sorted(degrees)}")
    term_d = degrees.pop()
    if d is None:
        d = term_d
    elif term_d != d and any(c for c, _, _ in products):
        raise ParseError(f"form has degree {term_d}, d={d} given")
    if n < 1 or d < 0:
        raise ValueError(f"bad shape ({n}, {d})")
    raw: dict[MultiIndex, int | Fraction | QQi] = {}
    for coeff, expo, _ in products:
        key = tuple(expo.get(v, 0) for v in range(n))
        raw[key] = raw.get(key, 0) + coeff
    # every nonzero sum has degree d, by the checks above; c / c(i) is
    # normalised once
    return _trusted(n, d, {i: _normalised(c.a, c.b, c.d * multinomial(i))
                           if isinstance(c, QQi) else _normalised(
                               c.numerator, 0, c.denominator * multinomial(i))
                           for i, c in raw.items() if c}, True)


# Plain form text, one match per term: an optional integer or p/q
# coefficient, or a parenthesised (a) or (a±b*i), times x, y, z or xk with
# optional exponents.  _scan reads it as _Reader does and leaves all else to it.
_NUMBER, _POWER = r"[0-9]+(?:/[0-9]+)?", r"(x[1-9][0-9]*|[xyz])(?:\s*\^\s*([0-9]+))?"
_POWER_RE, _TERM_RE = re.compile(_POWER, re.ASCII), re.compile(
    rf"\s*([+-]?)\s*(?:(?:({_NUMBER})|\(\s*([+-]?)\s*({_NUMBER})\s*(?:([+-])\s*"
    rf"({_NUMBER})\s*\*\s*i\s*)?\))\s*\*\s*)?({_POWER}(?:\s*\*\s*{_POWER})*)\s*",
    re.ASCII)


def _number(sign: str, text: str) -> int | Fraction:
    num, _, den = text.partition("/")
    value = Fraction(int(num), int(den)) if den else int(num)
    return -value if sign == "-" else value


@functools.lru_cache(maxsize=4096)
def _exponents(text: str) -> dict[int, int]:
    """{variable: exponent} of monomial text, summed as _Reader sums it: one
    dict for every product of that text, which _form only reads."""
    expo: dict[int, int] = {}
    for name, k in _POWER_RE.findall(text):
        var = _VAR_INDEX[name] if name in _VAR_INDEX else int(name[1:]) - 1
        expo[var] = expo.get(var, 0) + (int(k) if k else 1)
    return expo


def _scan(text: str) -> list | None:
    """_Reader(text).read() for plain form text, else None."""
    products, pos = [], 0
    try:
        while pos < len(text) or not products:
            m = _TERM_RE.match(text, pos)
            if m is None or (products and not m[1]):  # signs join terms
                return None
            sign, whole, a_sign, a, b_sign, b, mono = m.groups()[:7]
            coeff = _number(sign, whole or "1") if whole or not a else (
                _number(a_sign, a) + (QQi(0, _number(b_sign, b)) if b else 0))
            coeff = -coeff if a and sign == "-" else coeff
            products.append((coeff, _exponents(mono), None))
            pos = m.end()
    except (ValueError, ZeroDivisionError):  # _Reader reports these
        return None
    return products


def parse_form(text: str, n: int | None = None, d: int | None = None) -> Form:
    """Parse form text: products such as `coef*x1^a*x2^b` joined by +/-.

    Variables are x, y, z (aliases of x1, x2, x3) or x1, x2, ...; a number
    is an integer, p/q rational or decimal, i, or a parenthesised sum of
    these such as (1+2*i) or (1+i)^2.
    """
    return _form(_scan(text) or _Reader(text).read(), n, d)


# -- JSON format ---------------------------------------------------------------------


def form_to_json(p: Form) -> dict:
    return {
        "n": p.n,
        "d": p.d,
        "coeffs": [dict(idx=list(i), **scalar_to_json(v)) for i, v in p.items()],
    }


def form_from_json(obj: dict) -> Form:
    coeffs = {tuple(c["idx"]): scalar_from_json(c) for c in obj["coeffs"]}
    return Form(obj["n"], obj["d"], coeffs)


# -- decompositions --------------------------------------------------------------


@functools.cache
def _layout(n: int, d: int) -> tuple:
    """For _monomials(n, d): the multinomials as floats, and the place of each
    exponent among the powers 0..d of n coordinates, one after another."""
    mons = _monomials(n, d)
    return (np.array([multinomial(i) for i in mons], float),
            np.array(mons).reshape(len(mons), n) + np.arange(n) * (d + 1))


def _dense(f: Form) -> "np.ndarray":
    """f's normalised coefficients as a complex array in _monomials order,
    made once per form (which is immutable) and read-only."""
    if not hasattr(f, "_array"):
        f._array = np.array([f._a.get(i, 0) for i in _monomials(f.n, f.d)], complex)
        f._array.setflags(write=False)
    return f._array


# Every decomposer's bound on the normwise backward error of an inexact
# result (Higham, Accuracy and Stability of Numerical Algorithms, ch. 7).
ACCEPT_TOL = 1e-7


def check_decomposable(p: Form, shape_ok: bool, need: str, eps: float = 0.0) -> None:
    """The first call of every decomposer, deciding in this order: the shape
    (ShapeMismatch(need) unless shape_ok), the zero form (ZeroForm), and the
    tolerance (ZeroForm for a float form at eps >= 1: eps is relative to its
    largest coefficient, so the form is zero to within eps)."""
    if not shape_ok:
        raise ShapeMismatch(need)
    if p.is_zero():
        raise ZeroForm("cannot decompose the zero form")
    if not p.exact and eps >= 1:
        raise ZeroForm(f"the form is zero to within the tolerance {eps:g}")


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

    def _parts(self) -> list[tuple[Scalar, Form, int]]:
        """(multiplier, base, power) of each term, then (1, residual, 1)."""
        return [(t.multiplier, t.base, t.power) for t in self.terms] + (
            [] if self.residual is None else [(_ONE, self.residual, 1)])

    def shape(self) -> tuple[int, int]:
        for _, f, k in self._parts():
            return f.n, f.d * k
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
        """forms_close(self.reconstruct(), p, eps), as _verdict decides it."""
        return self._verdict(p, eps)[0]

    def _verdict(self, p: Form, eps: float) -> tuple[bool, float]:
        """verify's verdict, on _rebuilt's array when a value is a float and
        every part has p's shape; R = max_i c(i) sum_k |T_k(i)| / |p| there, else 0."""
        parts = self._parts()
        if all(f.exact and not isinstance(c, _INEXACT) for c, f, _ in parts) or any(
                (f.n, f.d * k) != (p.n, p.d) for _, f, k in parts):
            return forms_close(self.reconstruct(), p, eps), 0.0
        with np.errstate(all="ignore"):
            (mine, size), theirs = self._rebuilt(p.n, p.d), _dense(p)
            # max error against max norm, weighted: a NaN fails, as in forms_close
            err = abs(np.array([mine - theirs, mine, theirs])) * _layout(p.n, p.d)[0]
            return bool(err[0].max() <= eps * err[1:].max()), size.max() / err[2].max()

    def _rebuilt(self, n: int, d: int) -> tuple["np.ndarray", "np.ndarray"]:
        """The sum's normalised coefficients in _monomials(n, d) order and its parts'
        absolute values summed, as actual coefficients: binary terms by convolving
        actual coefficients, powers of linear forms at once (each coordinate's powers
        0..d gathered by exponent), any other term as Term.form(), residual last."""
        weights, at = _layout(n, d)
        parts, linear = [], []
        for t in self.terms:
            if t.base.d == 1:
                linear.append(t)
            elif n == 2 and t.power:
                out = raw = _dense(t.base) * _layout(2, t.base.d)[0]
                for _ in range(t.power - 1):
                    out = np.convolve(out, raw)
                parts.append(complex(t.multiplier) * out / weights)
            else:
                parts.append(_dense(t.form()))
        total, size = sum(parts), sum(map(abs, parts))
        if linear:
            rows = np.array([t.base._a.get(i, 0) for t in linear
                             for i in _monomials(n, 1)], complex)
            rows = rows.reshape(len(linear), n, 1) ** np.arange(d + 1)
            rows = rows.reshape(len(linear), -1).take(at, axis=1).prod(2)
            mults = np.array([t.multiplier for t in linear], complex)
            total, size = total + mults.dot(rows), size + abs(mults).dot(abs(rows))
        rest = [_dense(r) for r in [self.residual] if r is not None]
        return total + sum(rest), (size + sum(map(abs, rest))) * weights

    def accepted(self, p: Form, eps: float = EPS_DEFAULT) -> "Decomposition | None":
        """The exact snap when it rebuilds p (self when every multiplier is a QQi
        and every form exact), else self when it rebuilds p within tol = max(eps,
        ACCEPT_TOL) of the larger norm with gamma u R <= tol/2, else None, and
        None for an infinite or NaN value.  Parts that cancel by R lose gamma u R
        |p| rebuilt: u = 2^-53, gamma = d + m for m terms and a nonzero residual."""
        parts = self._parts()
        if not all(is_exact(v) or cmath.isfinite(v)
                   for c, f, _ in parts for v in (c, *f._a.values())):
            return None
        exact = all(is_exact(c) and f.exact for c, f, _ in parts)
        if not exact and (snap := self.snapped(p)) is not None:
            return snap
        ok, ratio = self._verdict(p, tol := max(eps, ACCEPT_TOL))
        gamma = p.d + len(self.terms) + bool(self.residual)
        return self if ok and gamma * ratio * 2.0 ** -52 <= tol else None

    def snapped(self, target: Form, max_den: int = SNAP_MAX_DEN) -> "Decomposition | None":
        """Exact rational reconstruction, accepted only if it rebuilds target.

        The x_j^d coefficient of mu b^k is mu times b's x_j^deg(b) coefficient
        to the k, so one snapped coefficient per part and j refutes mod MOD_P,
        a ring map, a snap that differs from target at a pure power x_j^d,
        before the bases are snapped.  That test is skipped when there is no part,
        a part's shape does not fit target or a scalar has no image mod MOD_P."""
        if not target.exact:
            return None
        parts = self._parts()
        if parts and all(f.n == target.n and k >= 0 and f.d * k == target.d
                         for _, f, k in parts):
            def pure(f: Form, x: MultiIndex) -> int:  # x: the exponents of x_j
                return mod_p(snap_scalar(f.a([f.d * e for e in x]), max_den))
            try:
                mus = [mod_p(snap_scalar(c, max_den)) for c, _, _ in parts]
                if any((sum(mu * pow(pure(f, x), k, MOD_P)
                            for mu, (_, f, k) in zip(mus, parts))
                        - pure(target, x)) % MOD_P for x in _monomials(target.n, 1)):
                    return None
            except _NoImage:
                pass
        terms = [Term(snap_scalar(t.multiplier, max_den), t.base.snapped(max_den),
                      t.power) for t in self.terms]
        residual = self.residual.snapped(max_den) if self.residual is not None else None
        cand = Decomposition(terms, residual, dict(self.meta))
        return cand if cand.reconstruct() == target else None

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
    check_decomposable(p, p.n == 2, "binary_factor needs a binary form", eps)
    u = [p.raw((p.d - j, j)) for j in range(p.d + 1)]  # u(t) = p(1, t)
    scale = max(map(abs, u))  # not norm(), which may round above every |u_j|
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
