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
from fractions import Fraction

from . import decompositions
from .errors import ParseError, ShapeMismatch
from .scalars import (EPS_DEFAULT, SNAP_MAX_DEN, QQi, Scalar, _ONE, _ZERO,
                      _normalised, _over_lcm, as_scalar, format_scalar,
                      is_exact, power, scalar_from_json, scalar_to_json,
                      snap_scalar)

MultiIndex = tuple[int, ...]


def dim(n: int, d: int) -> int:
    """N(n,d) = binom(n+d-1, d), the number of degree-d monomials."""
    return math.comb(n + d - 1, d)


def index_set(n: int, d: int) -> list[MultiIndex]:
    """All exponent multi-indices of degree d in n variables, graded-lex order.

    Within the fixed degree this is descending lexicographic order, so for
    binary forms the sequence is (d,0), (d-1,1), ..., (0,d).
    """
    return list(_monomials(n, d))


@functools.cache
def _monomials(n: int, d: int) -> tuple[MultiIndex, ...]:
    """index_set(n, d) as a shared tuple, for callers that only read it."""
    if n < 1:
        raise ValueError("need at least one variable")
    if d < 0:
        raise ValueError("degree must be nonnegative")
    if n == 1:
        return ((d,),)
    return tuple((first,) + rest for first in range(d, -1, -1)
                 for rest in _monomials(n - 1, d - first))


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
        return all(abs(complex(v)) * multinomial(i) <= eps * scale
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
        return _sum_into(dict(self._a), self, other)

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
            if self.exact and other.exact:
                return _exact_product(self, other)
            # float sums keep graded-lex order of (i, j), which is descending
            # code order; each sum is divided once by its multinomial
            n, d = self.n, self.d + other.d
            mine, theirs = (sorted(((_pack(i, d + 1), v * multinomial(i))
                                    for i, v in f._a.items()), reverse=True)
                            for f in (self, other))
            raw: dict[int, Scalar] = {}
            for i, u in mine:
                for j, v in theirs:
                    raw[i + j] = raw.get(i + j, 0) + u * v
            table, out = _Codes(n, d), {}
            for k, v in raw.items():
                idx, m = table[k]
                if s := v / m:
                    out[idx] = s
            return _trusted(n, d, out, False)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int) -> "Form":
        if k < 0:
            raise ValueError("negative form power")
        if self.exact and self.d == 1:
            row = [self._a.get(i, _ZERO) for i in _monomials(self.n, 1)]
            return _linear_powers(self.n, k, [(_ONE, row)])
        one = QQi(1) if self.exact else 1 + 0j
        return power(self, k, _trusted(self.n, 0, {(0,) * self.n: one}, self.exact))

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
        lins = [linear_form(row) for row in rows]
        unit_form = Form(n_new, 0, {(0,) * n_new: QQi(1)})
        powers: list[list[Form]] = []
        for k in range(self.n):
            cache = [unit_form]
            for _ in range(max((idx[k] for idx in self._a), default=0)):
                cache.append(cache[-1] * lins[k])
            powers.append(cache)
        # terms[idx[:k]] is the product over the first k variables, shared by
        # the monomials that start with those exponents
        out, terms = Form.zero(n_new, self.d), {(): unit_form}
        for idx, rawc in self.raw_items():
            for k, e in enumerate(idx):
                if (head := idx[:k + 1]) not in terms:
                    term = terms[idx[:k]]
                    terms[head] = (term if not e else powers[k][e]
                                   if term is unit_form else term * powers[k][e])
            out = _sum_into(out._a, out, terms[idx].scale(rawc))
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
        return _trusted(self.n, self.d, {i: w for i, v in self._a.items()
                                         if (w := snap_scalar(v, max_den))}, True)

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


def _sum_into(out: dict, p: Form, q: Form) -> Form:
    """p + q, summed into out: a copy of p's coefficients, or p's own dict
    where p is a running sum that nothing else holds."""
    mixed = p._a and q._a and p.exact != q.exact
    for idx, v in q._a.items():
        s = out.get(idx, 0) + v
        if not s:
            out.pop(idx, None)
        else:
            out[idx] = s
    if mixed:
        return Form(p.n, p.d, out)  # mixed: survivors pick the backend
    return _trusted(p.n, p.d, out, p.exact and q.exact)


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


def _exact_product(p: Form, q: Form) -> Form:
    """p * q for exact forms: each factor's actual coefficients as Gaussian
    integers over the lcm of its denominators, summed as int pairs under
    packed codes in base d + 1, each sum normalised once."""
    n, d = p.n, p.d + q.d
    base, den, factors = d + 1, 1, []
    for f in (p, q):
        nums, lcm = _over_lcm(f._a.values())
        factors.append([(_pack(i, base), a * (m := multinomial(i)), b * m)
                        for i, (a, b) in zip(f._a, nums)])
        den *= lcm
    re, im = {}, {}
    for i, a, b in factors[0]:
        for j, c, e in factors[1]:
            k = i + j
            re[k] = re.get(k, 0) + a * c - b * e
            im[k] = im.get(k, 0) + a * e + b * c
    table, out = _Codes(n, d), {}
    for k, x in re.items():
        if x or im[k]:
            idx, m = table[k]
            out[idx] = _normalised(x, im[k], den * m)
    return _trusted(n, d, out, True)


@functools.cache
def _power_steps(n: int, p: int) -> tuple[tuple[int, int], ...]:
    """(parent, k) for each monomial of degree 1..p in graded-lex order: it
    is x_k, its first variable, times the monomial at place `parent` (0 is 1)."""
    place, steps = {(0,) * n: 0}, []
    for m in range(1, p + 1):
        for idx in _monomials(n, m):
            k = next(k for k, e in enumerate(idx) if e)
            steps.append((place[idx[:k] + (idx[k] - 1,) + idx[k + 1:]], k))
            place[idx] = len(place)
    return tuple(steps)


def _linear_powers(n: int, d: int, terms) -> Form:
    """sum mu (c . x)^d over terms (mu, c) in one pass: the normalised
    coefficient of x^i in (c . x)^d is prod c_k^i_k, one product from its
    parent in _power_steps.  Exact terms are summed as Gaussian-integer
    numerators over one common denominator, float ones as complex sums."""
    size, exact, floats = dim(n, d), [], [0j] * dim(n, d)
    for mu, coeffs in terms:
        if is_exact(mu) and all(map(is_exact, coeffs)):
            nums, lcm = _over_lcm(coeffs)
            re, im = [mu.a], [mu.b]
            for parent, k in _power_steps(n, d):
                a, b, (c, e) = re[parent], im[parent], nums[k]
                re.append(a * c - b * e)
                im.append(a * e + b * c)
            exact.append((re[-size:], im[-size:], mu.d * lcm ** d))
        else:
            row, cs = [complex(mu)], [complex(v) for v in coeffs]
            for parent, k in _power_steps(n, d):
                row.append(row[parent] * cs[k])
            floats = [u + v for u, v in zip(floats, row[-size:])]
    den = math.lcm(*(part for _, _, part in exact))
    w = [den // part for _, _, part in exact]
    re = [sum(map(int.__mul__, col, w)) for col in zip(*(t[0] for t in exact))]
    im = [sum(map(int.__mul__, col, w)) for col in zip(*(t[1] for t in exact))]
    mons = _monomials(n, d)
    total = _trusted(n, d, {i: _normalised(x, y, den) for i, x, y
                            in zip(mons, re, im) if x or y}, True)
    approx = _trusted(n, d, {i: v for i, v in zip(mons, floats) if v}, False)
    return total + approx if approx else total


def forms_close(p: Form, q: Form, eps: float = EPS_DEFAULT) -> bool:
    """Coefficientwise agreement within eps times the larger form's scale."""
    if (p.n, p.d) != (q.n, q.d):
        return False
    if p.exact and q.exact:
        return p._a == q._a
    cut, mine, theirs = eps * max(p.norm(), q.norm()), p._a, q._a
    return all(abs(complex(mine.get(i, 0)) - complex(theirs.get(i, 0)))
               * multinomial(i) <= cut for i in mine.keys() | theirs.keys())


# -- linear forms ---------------------------------------------------------------


def linear_form(coeffs) -> Form:
    """The degree-1 form sum_j coeffs[j] x_j."""
    n = len(coeffs)
    return Form.from_raw(n, 1, {(0,) * j + (1,) + (0,) * (n - j - 1): v
                                for j, v in enumerate(coeffs)})


def linear_coeffs(f: Form) -> list[Scalar]:
    if f.d != 1:
        raise ShapeMismatch("not a linear form")
    return [f.raw(idx) for idx in _monomials(f.n, 1)]


def power_of_linear(alpha, d: int) -> Form:
    """(alpha . x)^d computed directly: a(i) = alpha^i."""
    al = [as_scalar(v) for v in alpha]
    return _linear_powers(len(al), d, [(_ONE, al)])


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
    for idx in _monomials(n, d):
        re = rng.randint(lo, hi)
        im = rng.randint(lo, hi) if gaussian else 0
        coeffs[idx] = QQi(re, im)
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


# One token regex and one recursive-descent reader serve form text, scalar
# text and decomposition text:
#   sum     := [+|-] product {(+|-) product}
#   product := factor {[*] factor}   (the * may be left out only before a variable)
#   factor  := number | i | var [^ k] | ( sum ) [^ k]
# A parenthesised sum without a variable is a number; one with a variable is
# the base of a decomposition term.
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?(?:/\d+)?)"
    r"|(?P<name>[^\W\d]\w*)|(?P<op>[-+*^()])|(?P<bad>\S))")
_VAR_RE = re.compile(r"x[1-9]\d*|[xyz]")
_VAR_INDEX = {"x": 0, "y": 1, "z": 2}
# Deeper parentheses are a parse error, before the reader's recursion (three
# Python frames per level) can reach the interpreter's limit.
_MAX_NESTING = 100


def _parse_rational(text: str) -> int | Fraction:
    try:
        return int(text) if text.isdigit() else Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"bad number {text!r}") from None


class _Reader:
    """The tokens of one text, read by the grammar above.

    A product reads as (int, Fraction or QQi coefficient, {variable:
    exponent}, base), where base is None or (the products of a parenthesised
    form, its exponent), allowed only where decomposition text is read.
    """

    def __init__(self, text: str, bases: bool = False):
        text = text.replace("−", "-").replace("–", "-")
        self.tokens = [("num", num) if num else ("name", name) if name
                       else ("op", op) if op else ("bad", bad)
                       for num, name, op, bad in _TOKEN_RE.findall(text)]
        if any(kind == "bad" for kind, _ in self.tokens):
            m = next(m for m in _TOKEN_RE.finditer(text) if m.lastgroup == "bad")
            raise ParseError(f"unexpected character {m['bad']!r} at {m.start('bad')}")
        self.tokens.append(("end", ""))
        self.pos = 0
        self.bases = bases

    def read(self) -> list:
        if len(self.tokens) == 1:
            raise ParseError("empty form text")
        products = self._sum()
        kind, val = self.tokens[self.pos]
        if kind != "end":
            raise ParseError("unbalanced parentheses" if val == ")"
                             else f"missing operator before {val!r}")
        return products

    def _at(self, ops: str) -> bool:
        kind, val = self.tokens[self.pos]
        return kind == "op" and val in ops

    def _sum(self, depth: int = 0) -> list:
        products = []
        while True:
            sign = -1 if self._at("-") else 1
            self.pos += self._at("+-")
            products.append(self._product(sign, depth))
            if not self._at("+-"):
                return products

    def _product(self, coeff: int, depth: int) -> tuple:
        expo: dict[int, int] = {}
        base = None
        while True:
            kind, val = self._factor(depth)
            if kind == "num":
                coeff = coeff * val
            elif kind == "var":
                expo[val[0]] = expo.get(val[0], 0) + val[1]
            elif base is None:
                base = val
            else:
                raise ParseError("a term has more than one parenthesised form")
            if self._at("*"):
                self.pos += 1
            elif self.tokens[self.pos][0] != "name" or \
                    self.tokens[self.pos][1] == "i":
                return coeff, expo, base

    def _factor(self, depth: int) -> tuple:
        kind, val = self.tokens[self.pos]
        self.pos += 1
        if kind == "num":
            return "num", _parse_rational(val)
        if val == "i":
            return "num", QQi(0, 1)
        if kind == "name":
            if not _VAR_RE.fullmatch(val):
                raise ParseError(f"unknown name {val!r}: variables are x, y, z "
                                 f"or x1, x2, ...")
            var = _VAR_INDEX[val] if val in _VAR_INDEX else int(val[1:]) - 1
            return "var", (var, self._exponent())
        if val != "(":
            raise ParseError(f"unexpected {val!r}" if val
                             else "dangling operator")
        if depth == _MAX_NESTING:
            raise ParseError(f"parentheses nested deeper than {_MAX_NESTING}")
        inner = self._sum(depth + 1)
        if not self._at(")"):
            raise ParseError("unbalanced parentheses")
        self.pos += 1
        k = self._exponent()
        if not any(expo or base for _, expo, base in inner):
            return "num", sum(c for c, _, _ in inner) ** k
        if not self.bases or any(base for _, _, base in inner):
            raise ParseError("a parenthesised form is allowed only as the base "
                             "of a decomposition term")
        return "base", (inner, k)

    def _exponent(self) -> int:
        if not self._at("^"):
            return 1
        kind, val = self.tokens[self.pos + 1]
        if kind != "num" or not val.isdigit():
            raise ParseError("exponent must be a nonnegative integer")
        self.pos += 2
        return int(val)


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
    # every nonzero sum has degree d, by the checks above
    return _trusted(n, d, {i: as_scalar(c) / multinomial(i)
                           for i, c in raw.items() if c}, True)


def parse_form(text: str, n: int | None = None, d: int | None = None) -> Form:
    """Parse form text: products such as `coef*x1^a*x2^b` joined by +/-.

    Variables are x, y, z (aliases of x1, x2, x3) or x1, x2, ...; a number
    is an integer, p/q rational or decimal, i, or a parenthesised sum of
    these such as (1+2*i) or (1+i)^2.
    """
    return _form(_Reader(text).read(), n, d)


def parse_scalar(text: str) -> QQi:
    """Parse a scalar in the form grammar: a sum without a variable, such as
    -3, 1/2, .5, 1e3, i, 2*i, (1-2*i) or (1+i)^2."""
    try:
        if (digits := text.strip()).isdecimal():  # what the reader reads as int
            return QQi(_parse_rational(digits))
        products = _Reader(text).read()
    except ParseError as exc:
        raise ParseError(f"cannot parse scalar {text!r}: {exc}") from None
    if any(expo for _, expo, _ in products):
        raise ParseError(f"cannot parse scalar {text!r}: it has a variable")
    return sum((c for c, _, _ in products), QQi(0))


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


# names of decompositions.py, which runs on the first read of one here
_MOVED = frozenset("""ACCEPT_TOL Decomposition Term biermann_point binary_factor
    check_decomposable format_decomposition parse_decomposition _PROBE
    _deflate_exact _differs_mod_p _value_mod_p""".split())


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(decompositions, name)
