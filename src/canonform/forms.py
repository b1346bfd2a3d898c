"""Complex homogeneous forms and their arithmetic.

A form p of degree d in n variables is stored densely as a map from exponent
multi-indices to normalized coefficients: the monomial x^i carries the actual
coefficient c(i) * a(i), where c(i) is the multinomial coefficient.  Binary
forms written Sum binom(d,j) a_j x^(d-j) y^j therefore store exactly the a_j
sequence, which is what the catalecticant construction consumes.  In the
same way a quadratic's stored a(e_i + e_j) are the entries M_ij of its
symmetric matrix, p(x) = x^T M x, and a cubic's stored a(e_i + e_j + e_k)
are the entries T_ijk of its symmetric coefficient tensor; multivar reads
both as they are stored.

All values are immutable after construction and every operation is a pure
function of its inputs.  Form(...) checks every index and value; the ring
operations trust the indices they build and skip those checks.  Storage
stays normalised: moving c(i) into the values would reorder float
operations ((s/c)*c != s for some doubles) and change approximate results.
The rest of the form code (products, powers, substitution, text, JSON) is
in canonform.decompositions, run on first use; forms serves its public names.
"""

from __future__ import annotations

import functools
import math
import re
from fractions import Fraction

from . import decompositions
from .errors import ParseError, ShapeMismatch
from .scalars import (EPS_DEFAULT, SNAP_MAX_DEN, QQi, Scalar, as_scalar,
                      is_exact)

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


def _fitting(idx: MultiIndex, n: int, d: int) -> MultiIndex:
    """idx, or ShapeMismatch unless it is an exponent index of shape (n, d)."""
    if len(idx) != n or sum(idx) != d or any(e < 0 for e in idx):
        raise ShapeMismatch(f"index {idx} does not fit shape ({n}, {d})")
    return idx


class Form:
    """Immutable homogeneous form; coefficients live in one scalar backend."""

    # _array is decompositions._dense(self), set when first made
    __slots__ = ("n", "d", "_a", "exact", "_array")

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
            if s:
                clean[_fitting(idx, n, d)] = s
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
        raw = {_fitting(tuple(i), n, d): v for i, v in raw.items()}
        return cls(n, d, {i: as_scalar(v) / multinomial(i) for i, v in raw.items()})

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
            return decompositions._product(self, other)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def __pow__(self, k: int) -> "Form":
        return decompositions._power(self, k)

    # -- evaluation and substitution ------------------------------------------

    def evaluate(self, point) -> Scalar:
        """Value at a point under the c(i) a(p;i) convention."""
        return decompositions._evaluate(self, point)

    def substitute(self, m) -> "Form":
        """p o M for x_i = sum_j M[i][j] x'_j; M may be rectangular (n x n')."""
        return decompositions._substitute(self, m)

    def partial(self, j: int) -> "Form":
        """d p / d x_j, degree d-1."""
        return decompositions._partial(self, j)

    # -- backend conversion ----------------------------------------------------

    def approx(self) -> "Form":
        if not self.exact:
            return self
        return _trusted(self.n, self.d, {i: w for i, v in self._a.items()
                                         if (w := complex(v))}, False)

    def snapped(self, max_den: int = SNAP_MAX_DEN) -> "Form":
        """Rational reconstruction of all coefficients (caller must verify)."""
        return decompositions._snapped(self, max_den)

    def chop(self, eps: float = EPS_DEFAULT, scale: float | None = None) -> "Form":
        """Drop coefficients below eps relative to the form's own scale."""
        return decompositions._chop(self, eps, scale)

    # -- comparisons ------------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return (self.n, self.d) == (other.n, other.d) and self._a == other._a

    def __hash__(self):
        return hash((self.n, self.d, tuple(self.items())))

    def __str__(self) -> str:
        return decompositions.format_form(self)

    def __repr__(self) -> str:
        return f"Form({self.n}, {self.d}, {decompositions.format_form(self)!r})"


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


# -- linear forms ---------------------------------------------------------------


def linear_form(coeffs) -> Form:
    """The degree-1 form sum_j coeffs[j] x_j."""
    n, vals = len(coeffs), [as_scalar(c) for c in coeffs]
    if not n:
        raise ValueError("bad shape (0, 1)")
    exact = all(map(is_exact, vals))  # a float is divided by c(i) = 1, as in from_raw
    return _trusted(n, 1, {(0,) * j + (1,) + (0,) * (n - j - 1): s
                           for j, v in enumerate(vals)
                           if (s := v if exact else complex(v / 1))}, exact)


def linear_coeffs(f: Form) -> list[Scalar]:
    if f.d != 1:
        raise ShapeMismatch("not a linear form")
    return [f.raw(idx) for idx in _monomials(f.n, 1)]


def monomial_form(n: int, idx: MultiIndex, coeff=1) -> Form:
    """The form whose single monomial x^idx has actual coefficient `coeff`."""
    return Form.from_raw(n, sum(idx), {tuple(idx): as_scalar(coeff)})


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


# names of decompositions.py, which runs on the first read of one here
_MOVED = frozenset("""ACCEPT_TOL Decomposition Term biermann_point binary_factor
    check_decomposable format_decomposition format_form form_from_json form_to_json
    forms_close pad_form parse_decomposition parse_form power_of_linear random_form
    restrict_form var_names""".split())


def __getattr__(name):
    if name not in _MOVED:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(decompositions, name)
