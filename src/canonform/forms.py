"""Complex homogeneous forms and their arithmetic.

A form p of degree d in n variables is stored densely as a map from exponent
multi-indices to normalized coefficients: the monomial x^i carries the actual
coefficient c(i) * a(i), where c(i) is the multinomial coefficient.  Binary
forms written Sum binom(d,j) a_j x^(d-j) y^j therefore store exactly the a_j
sequence, which is what the catalecticant construction consumes.

All values are immutable after construction and every operation is a pure
function of its inputs.  Form(...) checks every index and value; the ring
operations trust the indices they build and skip those checks.  Storage
stays normalised: moving c(i) into the values would reorder float
operations ((s/c)*c != s for some doubles) and change approximate results.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field
from fractions import Fraction
from operator import add

from .errors import ParseError, ShapeMismatch, ZeroForm
from .linalg import cluster_roots, poly_roots
from .scalars import (EPS_DEFAULT, SNAP_MAX_DEN, QQi, Scalar, as_scalar,
                      format_scalar, is_exact, scalar_from_json,
                      scalar_is_zero, scalar_to_json, snap_scalar)

MultiIndex = tuple[int, ...]


def dim(n: int, d: int) -> int:
    """N(n,d) = binom(n+d-1, d), the number of degree-d monomials."""
    return math.comb(n + d - 1, d)


def index_set(n: int, d: int) -> list[MultiIndex]:
    """All exponent multi-indices of degree d in n variables, graded-lex order.

    Within the fixed degree this is descending lexicographic order, so for
    binary forms the sequence is (d,0), (d-1,1), ..., (0,d).
    """
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if n == 1:
        return [(d,)]
    out = []
    for first in range(d, -1, -1):
        for rest in index_set(n - 1, d - first):
            out.append((first,) + rest)
    return out


@functools.cache
def multinomial(idx: MultiIndex) -> int:
    """c(i) = d! / prod(i_k!)."""
    total = sum(idx)
    c = 1
    for e in idx:
        c *= math.comb(total, e)
        total -= e
    return c


class Form:
    """Immutable homogeneous form; coefficients live in one scalar backend."""

    __slots__ = ("n", "d", "_a", "exact")

    def __init__(self, n: int, d: int, coeffs: dict | None = None):
        """coeffs maps multi-indices to normalized a(p;i) values."""
        if n < 1 or d < 0:
            raise ValueError(f"bad shape ({n}, {d})")
        self.n = n
        self.d = d
        items = [(tuple(i), as_scalar(v)) for i, v in (coeffs or {}).items()]
        approx = not all(is_exact(s) for _, s in items)
        clean: dict[MultiIndex, Scalar] = {}
        for idx, s in items:
            if approx:
                s = complex(s)
            if not s:
                continue
            if len(idx) != n or sum(idx) != d or any(e < 0 for e in idx):
                raise ShapeMismatch(f"index {idx} does not fit shape ({n}, {d})")
            clean[idx] = s
        self._a = clean
        # an empty form counts as exact whatever backend it came from
        self.exact = not (approx and clean)

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, n: int, d: int) -> "Form":
        return cls(n, d, {})

    @classmethod
    def from_raw(cls, n: int, d: int, raw: dict) -> "Form":
        """Build from actual monomial coefficients (divides out c(i))."""
        return cls(n, d, {tuple(i): as_scalar(v) / multinomial(tuple(i))
                          for i, v in raw.items()})

    # -- accessors -----------------------------------------------------------

    def a(self, idx: MultiIndex) -> Scalar:
        """Normalized coefficient a(p;i); absent keys are zero."""
        default = QQi(0) if self.exact else 0j
        return self._a.get(tuple(idx), default)

    def raw(self, idx: MultiIndex) -> Scalar:
        return self.a(idx) * multinomial(tuple(idx))

    def items(self):
        """(index, normalized coefficient) pairs in graded-lex order."""
        return sorted(self._a.items(), reverse=True)

    def raw_items(self):
        return [(i, v * multinomial(i)) for i, v in self.items()]

    def __bool__(self) -> bool:
        return bool(self._a)

    def is_zero(self, eps: float = 0.0, scale: float = 1.0) -> bool:
        if self.exact or eps == 0.0:
            return not self._a
        return all(abs(complex(v)) * multinomial(i) <= eps * max(scale, 1.0)
                   for i, v in self._a.items())

    def norm(self) -> float:
        """Max magnitude of the actual monomial coefficients."""
        return max((abs(complex(v)) * multinomial(i)
                    for i, v in self._a.items()), default=0.0)

    def used_vars(self) -> list[int]:
        used = set()
        for idx in self._a:
            for k, e in enumerate(idx):
                if e:
                    used.add(k)
        return sorted(used)

    # -- ring operations -----------------------------------------------------

    def _require_same_shape(self, other: "Form"):
        if self.n != other.n or self.d != other.d:
            raise ShapeMismatch(
                f"shape ({self.n},{self.d}) vs ({other.n},{other.d})")

    def __add__(self, other: "Form") -> "Form":
        self._require_same_shape(other)
        out = dict(self._a)
        for idx, v in other._a.items():
            s = out.get(idx, 0) + v
            if not s:
                out.pop(idx, None)
            else:
                out[idx] = s
        if self._a and other._a and self.exact != other.exact:
            return Form(self.n, self.d, out)  # mixed: survivors pick the backend
        return _trusted(self.n, self.d, out, self.exact and other.exact)

    def __neg__(self) -> "Form":
        return _trusted(self.n, self.d, {i: -v for i, v in self._a.items()},
                        self.exact)

    def __sub__(self, other: "Form") -> "Form":
        return self + (-other)

    def scale(self, s) -> "Form":
        s = as_scalar(s)
        if not s:
            return Form.zero(self.n, self.d)
        if type(s) not in (QQi, complex):  # a subclass such as numpy's
            return Form(self.n, self.d, {i: v * s for i, v in self._a.items()})
        return _trusted(self.n, self.d,
                        {i: w for i, v in self._a.items() if (w := v * s)},
                        self.exact and is_exact(s))

    def __mul__(self, other):
        if isinstance(other, Form):
            if self.n != other.n:
                raise ShapeMismatch("variable counts differ")
            # float sums keep graded-lex order; exact sums need none
            exact = self.exact and other.exact
            mine, theirs = ([(i, v * multinomial(i)) for i, v in
                             (f._a.items() if exact else f.items())]
                            for f in (self, other))
            raw: dict[MultiIndex, Scalar] = {}
            for i, u in mine:
                for j, v in theirs:
                    k = tuple(map(add, i, j))
                    raw[k] = raw.get(k, 0) + u * v
            return _trusted(self.n, self.d + other.d,
                            {k: s for k, v in raw.items()
                             if (s := v / multinomial(k))}, exact)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int) -> "Form":
        if k < 0:
            raise ValueError("negative form power")
        result = Form(self.n, 0, {(0,) * self.n: QQi(1) if self.exact else 1 + 0j})
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base if k > 1 else base
            k >>= 1
        return result

    # -- evaluation and substitution ------------------------------------------

    def evaluate(self, point) -> Scalar:
        """Value at a point under the c(i) a(p;i) convention."""
        if len(point) != self.n:
            raise ShapeMismatch(f"point length {len(point)} != n={self.n}")
        pt = [as_scalar(v) for v in point]
        total: Scalar = QQi(0) if self.exact else 0j
        for idx, rawc in self.raw_items():
            term = rawc
            for k, e in enumerate(idx):
                if e:
                    term = term * pt[k] ** e
            total = total + term
        return total

    def substitute(self, m) -> "Form":
        """p o M for x_i = sum_j M[i][j] x'_j; M may be rectangular (n x n')."""
        if len(m) != self.n:
            raise ShapeMismatch(f"matrix has {len(m)} rows, need {self.n}")
        n_new = len(m[0])
        rows = [[as_scalar(v) for v in row] for row in m]
        if self.d == 1 and all(
                len(row) == n_new and all(is_exact(w) == self.exact for w in row)
                for row in (rows[idx.index(1)] for idx in self._a)):
            # a vector-matrix product that repeats the scalar steps below value
            # for value (linear_form, one * lin, scale, running sum)
            one = QQi(1) if self.exact else 1 + 0j
            unit, out = index_set(n_new, 1), {}
            for idx, v in self.items():
                rawc = v * 1
                for k, w in zip(unit, rows[idx.index(1)]):
                    lin = w / 1 if self.exact else complex(w / 1)
                    if lin and (s := (0 + one * (lin * 1)) / 1 * rawc):
                        out[k] = out.get(k, 0) + s
                        if not out[k]:
                            del out[k]
            return _trusted(n_new, 1, out, self.exact)
        lins = [linear_form(row) for row in rows]
        unit_form = Form(n_new, 0, {(0,) * n_new: QQi(1)})
        powers: list[list[Form]] = []
        for k in range(self.n):
            cache = [unit_form]
            for _ in range(max((idx[k] for idx in self._a), default=0)):
                cache.append(cache[-1] * lins[k])
            powers.append(cache)
        out = Form.zero(n_new, self.d)
        for idx, rawc in self.raw_items():
            term = unit_form
            for k, e in enumerate(idx):
                if e:
                    term = powers[k][e] if term is unit_form else term * powers[k][e]
            out = out + term.scale(rawc)
        return out

    def partial(self, j: int) -> "Form":
        """d p / d x_j, degree d-1."""
        if self.d == 0:
            raise ValueError("cannot differentiate a constant form")
        a: dict[MultiIndex, Scalar] = {}
        for idx, v in self._a.items():
            e = idx[j]
            if not e:
                continue
            new = idx[:j] + (e - 1,) + idx[j + 1:]
            if self.exact:
                a[new] = v * self.d  # c(idx) * e / c(new) == d
            elif s := v * multinomial(idx) * e / multinomial(new):
                a[new] = s
        return _trusted(self.n, self.d - 1, a, self.exact)

    # -- backend conversion ----------------------------------------------------

    def approx(self) -> "Form":
        if not self.exact:
            return self
        return _trusted(self.n, self.d, {i: w for i, v in self._a.items()
                                         if (w := complex(v))}, False)

    def snapped(self, max_den: int = SNAP_MAX_DEN) -> "Form":
        """Rational reconstruction of all coefficients (caller must verify)."""
        return Form(self.n, self.d, {i: snap_scalar(v, max_den)
                                     for i, v in self._a.items()})

    def chop(self, eps: float = EPS_DEFAULT, scale: float | None = None) -> "Form":
        """Drop coefficients below eps relative to the form's own scale."""
        if self.exact:
            return self
        cut = eps * max(self.norm() if scale is None else scale, 1e-300)
        return _trusted(self.n, self.d, {i: v for i, v in self._a.items()
                                         if abs(complex(v)) * multinomial(i) > cut}, False)

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and self._a == other._a

    def __hash__(self):
        return hash((self.n, self.d, tuple(self.items())))

    def __str__(self) -> str:
        return format_form(self)

    def __repr__(self) -> str:
        return f"Form({self.n}, {self.d}, {format_form(self)!r})"


def _trusted(n: int, d: int, a: dict, exact: bool) -> Form:
    """Form(n, d, a) without its checks, for indices of shape (n, d) and
    nonzero values that are all QQi if `exact` and all complex if not."""
    f = object.__new__(Form)
    f.n, f.d, f._a, f.exact = n, d, a, exact or not a
    return f


def forms_close(p: Form, q: Form, eps: float = EPS_DEFAULT) -> bool:
    """Coefficientwise agreement within eps times the larger form's scale."""
    if (p.n, p.d) != (q.n, q.d):
        return False
    diff = p - q
    if diff.exact:
        return not diff
    return diff.is_zero(eps, scale=max(p.norm(), q.norm(), 1.0))


# -- linear forms ---------------------------------------------------------------


def linear_form(coeffs) -> Form:
    """The degree-1 form sum_j coeffs[j] x_j."""
    n = len(coeffs)
    return Form.from_raw(n, 1, {(0,) * j + (1,) + (0,) * (n - j - 1): v
                                for j, v in enumerate(coeffs)})


def linear_coeffs(f: Form) -> list[Scalar]:
    if f.d != 1:
        raise ShapeMismatch("not a linear form")
    return [f.raw(idx) for idx in index_set(f.n, 1)]


def power_of_linear(alpha, d: int) -> Form:
    """(alpha . x)^d computed directly: a(i) = alpha^i."""
    al = [as_scalar(v) for v in alpha]
    n = len(al)
    coeffs = {}
    for idx in index_set(n, d):
        v: Scalar = QQi(1)
        for k, e in enumerate(idx):
            if e:
                v = v * al[k] ** e
        coeffs[idx] = v
    return Form(n, d, coeffs)


def monomial_form(n: int, idx: MultiIndex, coeff=1) -> Form:
    """The form whose single monomial x^idx has actual coefficient `coeff`."""
    return Form.from_raw(n, sum(idx), {tuple(idx): as_scalar(coeff)})


# -- random forms -----------------------------------------------------------------


def random_form(n: int, d: int, rng, lo: int = -9, hi: int = 9,
                gaussian: bool = False) -> Form:
    """Random exact form: normalized coefficients are integers in [lo, hi].

    With gaussian=True the coefficients are Gaussian integers t + u*i, the
    convention used for the numeric experiments.
    """
    coeffs = {}
    for idx in index_set(n, d):
        re = rng.randint(lo, hi)
        im = rng.randint(lo, hi) if gaussian else 0
        coeffs[idx] = QQi(Fraction(re), Fraction(im))
    return Form(n, d, coeffs)


# -- variable embedding -------------------------------------------------------------


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
    return Form(len(keep), p.d, coeffs)


def pad_form(p: Form, n: int, at: list[int]) -> Form:
    """Embed a form on variables `at` back into ambient dimension n."""
    coeffs = {}
    for idx, v in p._a.items():
        new = [0] * n
        for k, e in enumerate(idx):
            new[at[k]] = e
        coeffs[tuple(new)] = v
    return Form(n, p.d, coeffs)


# -- Biermann points -----------------------------------------------------------------


def biermann_point(p: Form, eps: float = EPS_DEFAULT) -> MultiIndex:
    """A grid point i in I(n,d) with p(i) != 0, scanning graded-lex order."""
    if p.is_zero():
        raise ZeroForm("the zero form vanishes on the whole grid")
    scale = p.norm() * float(p.d + 1) ** p.d
    for idx in index_set(p.n, p.d):
        if not scalar_is_zero(p.evaluate(idx), eps, scale):
            return idx
    raise ZeroForm("no nonvanishing grid point found")


# -- factoring binary forms ------------------------------------------------------------


def _univariate_coeffs(p: Form) -> list[Scalar]:
    """Coefficients of u(t) = p(1, t), ascending."""
    return [p.raw((p.d - j, j)) for j in range(p.d + 1)]


def _deflate_exact(u: list[QQi], t0: QQi) -> list[QQi] | None:
    """Exact synthetic division of u by (t - t0); None unless t0 is a root."""
    q = [QQi(0)] * (len(u) - 1)
    carry = QQi(0)
    for j in range(len(u) - 1, 0, -1):
        carry = u[j] + t0 * carry
        q[j - 1] = carry
    rem = u[0] + t0 * carry
    return q if not rem else None


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
    u = _univariate_coeffs(p)
    scale = p.norm()
    m = max(j for j, v in enumerate(u) if not scalar_is_zero(v, eps, scale))
    factors: list[tuple[Form, int]] = []
    constant: Scalar = u[m]
    if p.d - m > 0:
        factors.append((linear_form([QQi(1), QQi(0)]), p.d - m))
    u = u[:m + 1]

    roots: list[tuple[Scalar, int]] = []
    if p.exact:
        # clustered roots lose accuracy, so try a ladder of denominator bounds
        bounds = [b for b in (1, 12, 10**3, max_den) if b <= max_den] or [max_den]
        work = list(u)
        while len(work) > 1:
            approx = poly_roots([complex(v) for v in work])
            candidates = []
            for z in approx:
                for b in bounds:
                    t0 = snap_scalar(z, b)
                    if t0 not in candidates:
                        candidates.append(t0)
            found = False
            for t0 in candidates:
                count = 0
                while len(work) > 1:
                    nxt = _deflate_exact(work, t0)
                    if nxt is None:
                        break
                    work = nxt
                    count += 1
                if count:
                    roots.append((t0, count))
                    found = True
                    break
            if not found:
                break
        if len(work) > 1:
            for z, mult in cluster_roots(poly_roots([complex(v) for v in work]),
                                         eps ** 0.5):
                roots.append((z, mult))
    else:
        roots = cluster_roots(poly_roots([complex(v) for v in u]), eps ** 0.5)

    for t0, mult in roots:
        # root t0 of u gives the factor (y - t0 x), normalized to leading 1
        if is_exact(t0):
            if t0:
                factors.append((linear_form([QQi(1), QQi(-1) / t0]), mult))
                constant = constant * (-t0) ** mult
            else:
                factors.append((linear_form([QQi(0), QQi(1)]), mult))
        else:
            z = complex(t0)
            if abs(z) > eps:
                factors.append((linear_form([1 + 0j, -1 / z]), mult))
                constant = constant * (-z) ** mult
            else:
                factors.append((linear_form([0j, 1 + 0j]), mult))

    def key(item):
        c = [complex(v) for v in linear_coeffs(item[0])]
        return [(v.real, v.imag) for v in c]

    factors.sort(key=key)
    return constant, factors


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


_NUM_PAT = r"\d+(?:\.\d+)?(?:[eE][+-]?\d+)?(?:/\d+)?"

_TOKEN_RE = re.compile(
    rf"""\s*(?:(?P<complex>\([^()]+\))
          |(?P<number>{_NUM_PAT})
          |(?P<var>x\d+|[xyz])(?!\w)
          |(?P<imag>i)(?!\w)
          |(?P<op>[+\-*^]))""",
    re.VERBOSE,
)

_COMPLEX_PART_RE = re.compile(
    rf"\s*(?P<sign>[+-]?)\s*(?:(?P<num>{_NUM_PAT})\s*(?:\*\s*(?P<i>i))?"
    r"|(?P<ionly>i))\s*")


def _parse_rational(text: str) -> Fraction:
    return Fraction(text)


def _parse_complex_literal(text: str) -> QQi:
    inner = text.strip()[1:-1]
    pos = 0
    re_part, im_part = Fraction(0), Fraction(0)
    while pos < len(inner):
        m = _COMPLEX_PART_RE.match(inner, pos)
        if not m or m.end() == pos:
            raise ParseError(f"bad complex literal {text!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("ionly") or m.group("i"):
            mag = _parse_rational(m.group("num")) if m.group("num") else Fraction(1)
            im_part += sign * mag
        else:
            re_part += sign * _parse_rational(m.group("num"))
        pos = m.end()
    return QQi(re_part, im_part)


def _tokenize(text: str) -> list[tuple[str, str]]:
    text = text.replace("−", "-").replace("–", "-")
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(text, pos)
        if not m:
            raise ParseError(f"unexpected character {text[pos]!r} at {pos}")
        for kind in ("complex", "number", "var", "imag", "op"):
            if m.group(kind) is not None:
                tokens.append((kind, m.group(kind)))
                break
        pos = m.end()
    return tokens


_VAR_INDEX = {"x": 0, "y": 1, "z": 2}


def parse_form(text: str, n: int | None = None, d: int | None = None) -> Form:
    """Parse the text grammar: terms `coef*x1^a*x2^b...` joined by +/-.

    Variables x, y, z alias x1, x2, x3; coefficients are integers, p/q
    rationals, decimals, or complex literals like (1+2*i).
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ParseError("empty form text")
    terms: list[tuple[QQi, dict[int, int]]] = []
    pos = 0
    sign = QQi(1)
    if tokens[0] == ("op", "+"):
        pos = 1
    elif tokens[0] == ("op", "-"):
        sign, pos = QQi(-1), 1
    while pos < len(tokens):
        coeff = sign
        expo: dict[int, int] = {}
        saw_factor = False
        expect_factor = True
        while pos < len(tokens):
            kind, val = tokens[pos]
            if kind == "op" and val in "+-":
                break
            if kind == "op" and val == "*":
                pos += 1
                expect_factor = True
                continue
            if not expect_factor and kind in ("number", "complex", "imag"):
                raise ParseError(f"missing operator before {val!r}")
            if kind == "number":
                coeff = coeff * QQi(_parse_rational(val))
            elif kind == "complex":
                coeff = coeff * _parse_complex_literal(val)
            elif kind == "imag":
                coeff = coeff * QQi(Fraction(0), Fraction(1))
            elif kind == "var":
                vi = _VAR_INDEX[val] if val in _VAR_INDEX else int(val[1:]) - 1
                e = 1
                if pos + 2 < len(tokens) and tokens[pos + 1] == ("op", "^"):
                    ek, ev = tokens[pos + 2]
                    if ek != "number" or not ev.isdigit():
                        raise ParseError("exponent must be a nonnegative integer")
                    e = int(ev)
                    pos += 2
                expo[vi] = expo.get(vi, 0) + e
            else:
                raise ParseError(f"unexpected token {val!r}")
            saw_factor = True
            expect_factor = False
            pos += 1
        if not saw_factor:
            raise ParseError("empty term")
        terms.append((coeff, expo))
        sign = QQi(1)
        if pos < len(tokens):
            op = tokens[pos][1]
            sign = QQi(-1) if op == "-" else QQi(1)
            pos += 1
            if pos == len(tokens):
                raise ParseError("dangling operator")

    inferred_n = max((max(e) + 1 for _, e in terms if e), default=0)
    if n is None:
        n = max(inferred_n, 1)
    elif inferred_n > n:
        raise ParseError(f"form uses {inferred_n} variables, n={n} given")
    degrees = {sum(e.values()) for _, e in terms}
    nonzero = [t for t in terms if t[0]]
    if nonzero:
        degrees = {sum(e.values()) for _, e in nonzero}
    if len(degrees) > 1:
        raise ParseError(f"form is not homogeneous: degrees {sorted(degrees)}")
    term_d = degrees.pop() if degrees else None
    if d is None:
        if term_d is None:
            raise ParseError("cannot infer degree of the zero form; pass d")
        d = term_d
    elif term_d is not None and term_d != d and nonzero:
        raise ParseError(f"form has degree {term_d}, d={d} given")

    raw: dict[MultiIndex, Scalar] = {}
    for coeff, expo in terms:
        idx = [0] * n
        for k, e in expo.items():
            idx[k] = e
        key = tuple(idx)
        raw[key] = raw.get(key, QQi(0)) + coeff
    return Form.from_raw(n, d, raw)


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


# -- decompositions -------------------------------------------------------------------


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
        n, d = self.shape()
        total = Form.zero(n, d)
        for t in self.terms:
            total = total + t.form()
        if self.residual is not None:
            total = total + self.residual
        return total

    def verify(self, p: Form, eps: float = EPS_DEFAULT) -> bool:
        return forms_close(self.reconstruct(), p, eps)

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
        if cand.reconstruct() == target:
            return cand
        return None

    def __str__(self) -> str:
        return format_decomposition(self)

    def to_json(self) -> dict:
        out = {
            "terms": [{"multiplier": scalar_to_json(t.multiplier),
                       "base": form_to_json(t.base),
                       "power": t.power} for t in self.terms],
            "meta": self.meta,
        }
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
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    if dec.residual is not None and dec.residual:
        txt = format_form(dec.residual, compact=True)
        pieces.append(f"+ ({txt})" if pieces else f"({txt})")
    return " ".join(pieces) if pieces else "0"


def _matching_paren(s: str, start: int) -> int:
    depth = 0
    for i in range(start, len(s)):
        if s[i] == "(":
            depth += 1
        elif s[i] == ")":
            depth -= 1
            if depth == 0:
                return i
    raise ParseError(f"unbalanced parentheses in {s!r}")


def _parse_term_text(s: str, n: int | None) -> Term:
    if s.startswith("("):
        close = _matching_paren(s, 0)
        rest = s[close + 1:]
        if not rest:
            return Term(QQi(1), parse_form(s[1:-1], n=n), 1)
        if rest.startswith("^"):
            return Term(QQi(1), parse_form(s[1:close], n=n), int(rest[1:]))
        if not rest.startswith("*"):
            raise ParseError(f"bad term {s!r}")
        coeff = _parse_complex_literal(s[:close + 1])
        body = rest[1:]
    else:
        at = s.find("*(")
        if at == -1:
            return Term(QQi(1), parse_form(s, n=n), 1)
        coeff = QQi(Fraction(s[:at]))
        body = s[at + 1:]
    if not body.startswith("("):
        # coefficient times a bare monomial, e.g. 5*x^3 or (..)*z^4
        return Term(coeff, parse_form(body, n=n), 1)
    close = _matching_paren(body, 0)
    base = parse_form(body[1:close], n=n)
    power = 1
    if close + 1 < len(body):
        if body[close + 1] != "^":
            raise ParseError(f"bad term {s!r}")
        power = int(body[close + 2:])
    return Term(coeff, base, power)


def parse_decomposition(text: str, n: int | None = None) -> Decomposition:
    """Parse the decomposition text format back into terms.

    Inverse of format_decomposition for round-trip checks; the parenthesized
    pieces are compact forms, so whitespace only separates top-level terms.
    """
    text = text.strip().replace("−", "-")
    if not text or text == "0":
        raise ParseError("cannot infer the shape of an empty decomposition")
    chunks = [c for c in text.split(" ") if c]
    signed: list[tuple[int, str]] = []
    sign = 1
    expect_term = True
    for chunk in chunks:
        if expect_term:
            body, s = chunk, sign
            if body.startswith("-"):
                s, body = -s, body[1:]
            signed.append((s, body))
            expect_term = False
            sign = 1
        elif chunk in ("+", "-"):
            sign = -1 if chunk == "-" else 1
            expect_term = True
        else:
            raise ParseError(f"expected + or - before {chunk!r}")
    if expect_term:
        raise ParseError("dangling operator in decomposition text")
    probe = [_parse_term_text(b, None) for _, b in signed]
    n_all = max(t.base.n for t in probe) if n is None else n
    terms = []
    for sgn, body in signed:
        t = _parse_term_text(body, n_all)
        terms.append(Term(-t.multiplier if sgn < 0 else t.multiplier,
                          t.base, t.power))
    return Decomposition(terms, meta={"theorem": "parsed"})
