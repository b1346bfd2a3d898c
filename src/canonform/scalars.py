"""Scalar backends: exact Gaussian rationals and approximate complex doubles.

A computation runs uniformly in one backend.  The exact backend stores a
complex number as one normalised integer triple (a, b, d), the value
(a + b*i)/d with d > 0 and gcd(a, b, d) == 1, and is closed under +, -, *, /
with no rounding.  The approximate backend is the builtin complex, with
comparisons made at a relative tolerance carried by the caller
(default EPS_DEFAULT).
"""

from __future__ import annotations

import math
from fractions import Fraction
from math import gcd

EPS_DEFAULT = 1e-9

# Denominator bound for rational reconstruction of floating intermediates.
SNAP_MAX_DEN = 10**6

_EXACT_PARTS = (int, Fraction)
_INEXACT = (float, complex)


class QQi:
    """A Gaussian rational (a + b*i)/d with Python int a, b and d.

    d > 0 and gcd(a, b, d) == 1, so equal values have equal triples.  The
    parts read as Fractions through re and im.  Instances are immutable.
    """

    __slots__ = ("a", "b", "d")

    def __init__(self, re=0, im=0):
        if type(re) is int and type(im) is int:
            a, b, d = re, im, 1
        else:
            re, im = Fraction(re), Fraction(im)
            # lowest-terms parts over the lcm of their denominators are
            # already coprime to it: no gcd is needed
            d = re.denominator * im.denominator // gcd(re.denominator,
                                                       im.denominator)
            a = re.numerator * (d // re.denominator)
            b = im.numerator * (d // im.denominator)
        _set_a(self, a)
        _set_b(self, b)
        _set_d(self, d)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return QQi, (self.re, self.im)

    @property
    def re(self) -> Fraction:
        return Fraction(self.a, self.d)

    @property
    def im(self) -> Fraction:
        return Fraction(self.b, self.d)

    # -- arithmetic ---------------------------------------------------------
    # Only __rsub__, __rtruediv__ and __pow__ call other operators, so the
    # operator call counts in bench/tracing.py measure the same work as
    # before the integer triple.

    def __add__(self, other):
        if isinstance(other, QQi):
            c, e, f = other.a, other.b, other.d
        elif isinstance(other, int):
            # gcd(a + k*d, b, d) == gcd(a, b, d) == 1
            return _triple(self.a + other * self.d, self.b, self.d)
        elif isinstance(other, Fraction):
            c, e, f = other.numerator, 0, other.denominator
        elif isinstance(other, _INEXACT):
            return complex(self) + other
        else:
            return NotImplemented
        d = self.d
        if d == f:
            return _normalised(self.a + c, self.b + e, d)
        return _normalised(self.a * f + c * d, self.b * f + e * d, d * f)

    __radd__ = __add__

    def __neg__(self):
        return _triple(-self.a, -self.b, self.d)

    def __sub__(self, other):
        if isinstance(other, QQi):
            c, e, f = other.a, other.b, other.d
        elif isinstance(other, int):
            return _triple(self.a - other * self.d, self.b, self.d)
        elif isinstance(other, Fraction):
            c, e, f = other.numerator, 0, other.denominator
        elif isinstance(other, _INEXACT):
            return complex(self) - other
        else:
            return NotImplemented
        d = self.d
        if d == f:
            return _normalised(self.a - c, self.b - e, d)
        return _normalised(self.a * f - c * d, self.b * f - e * d, d * f)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, QQi):
            a, b, c, e = self.a, self.b, other.a, other.b
            return _normalised(a * c - b * e, a * e + b * c, self.d * other.d)
        if isinstance(other, int):
            return _normalised(self.a * other, self.b * other, self.d)
        if isinstance(other, Fraction):
            n = other.numerator
            return _normalised(self.a * n, self.b * n,
                               self.d * other.denominator)
        if isinstance(other, _INEXACT):
            return complex(self) * other
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, QQi):
            c, e, f = other.a, other.b, other.d
        elif isinstance(other, int):
            c, e, f = other, 0, 1
        elif isinstance(other, Fraction):
            c, e, f = other.numerator, 0, other.denominator
        elif isinstance(other, _INEXACT):
            return complex(self) / other
        else:
            return NotImplemented
        if not e:
            if not c:
                raise ZeroDivisionError("division by zero Gaussian rational")
            return _normalised(self.a * f, self.b * f, self.d * c)
        # z / ((c + e*i)/f) = z * f * (c - e*i) / (c^2 + e^2)
        a, b = self.a, self.b
        return _normalised((a * c + b * e) * f, (b * c - a * e) * f,
                           self.d * (c * c + e * e))

    def __rtruediv__(self, other):
        if isinstance(other, _EXACT_PARTS):
            return QQi(other) / self
        if isinstance(other, _INEXACT):
            return other / complex(self)
        return NotImplemented

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (_ONE / self) ** (-k)
        result = _ONE
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "QQi":
        return _triple(self.a, -self.b, self.d)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        return Fraction(self.a * self.a + self.b * self.b, self.d * self.d)

    def __complex__(self) -> complex:
        # int true division rounds correctly, as float(Fraction) does, and
        # raises the same OverflowError for values beyond float range
        return complex(self.a / self.d, self.b / self.d)

    def __abs__(self) -> float:
        return abs(complex(self))

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __eq__(self, other) -> bool:
        if isinstance(other, QQi):
            return (self.a == other.a and self.b == other.b
                    and self.d == other.d)
        if isinstance(other, int):
            return not self.b and self.d == 1 and self.a == other
        if isinstance(other, Fraction):
            return (not self.b and self.d == other.denominator
                    and self.a == other.numerator)
        if isinstance(other, _INEXACT):
            return complex(self) == other
        return NotImplemented

    def __hash__(self):
        if not self.b:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self) -> str:
        return format_exact(self)

    def __repr__(self) -> str:
        return f"QQi({self.re!r}, {self.im!r})"


_new = object.__new__
_set_a = QQi.a.__set__
_set_b = QQi.b.__set__
_set_d = QQi.d.__set__


def _triple(a: int, b: int, d: int) -> QQi:
    """The QQi (a + b*i)/d of a triple that is already normalised."""
    z = _new(QQi)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


def _normalised(a: int, b: int, d: int) -> QQi:
    """The QQi (a + b*i)/d for any d != 0 (the body of _triple is inlined:
    every arithmetic result passes through here)."""
    g = gcd(a, b, d)
    if d < 0:
        g = -g
    if g != 1:
        a //= g
        b //= g
        d //= g
    z = _new(QQi)
    _set_a(z, a)
    _set_b(z, b)
    _set_d(z, d)
    return z


_ONE = _triple(1, 0, 1)


Scalar = QQi | complex


def is_exact(v: Scalar) -> bool:
    return isinstance(v, QQi)


def as_scalar(v) -> Scalar:
    """Coerce a Python number to a backend scalar (exact when possible)."""
    if isinstance(v, (QQi, complex)):
        return v
    if isinstance(v, _EXACT_PARTS):
        return QQi(v)
    if isinstance(v, float):
        return complex(v)
    raise TypeError(f"cannot interpret {v!r} as a scalar")


def scalar_is_zero(v: Scalar, eps: float = EPS_DEFAULT, scale: float = 1.0) -> bool:
    if isinstance(v, QQi):
        return not v
    return abs(v) <= eps * max(scale, 1.0)


def scalars_close(a: Scalar, b: Scalar, eps: float = EPS_DEFAULT,
                  scale: float = 1.0) -> bool:
    if isinstance(a, QQi) and isinstance(b, QQi):
        return a == b
    return abs(complex(a) - complex(b)) <= eps * max(scale, 1.0)


# -- exact square roots -----------------------------------------------------

def sqrt_fraction(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative Fraction, or None."""
    if f < 0:
        return None
    rn = math.isqrt(f.numerator)
    rd = math.isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def exact_sqrt(z: QQi) -> QQi | None:
    """A Gaussian-rational square root of z, or None if no exact one exists."""
    if z.im == 0:
        if z.re >= 0:
            r = sqrt_fraction(z.re)
            return QQi(r) if r is not None else None
        r = sqrt_fraction(-z.re)
        return QQi(Fraction(0), r) if r is not None else None
    n = sqrt_fraction(z.norm2())
    if n is None:
        return None
    c2 = (z.re + n) / 2
    c = sqrt_fraction(c2)
    if c is None or c == 0:
        return None
    w = QQi(c, z.im / (2 * c))
    return w if w * w == z else None


def scalar_sqrt(v: Scalar) -> Scalar:
    """Square root: exact when the radicand is an exact square, else complex."""
    import cmath
    if isinstance(v, QQi):
        w = exact_sqrt(v)
        if w is not None:
            return w
        return cmath.sqrt(complex(v))
    return cmath.sqrt(v)


# -- rational reconstruction ------------------------------------------------

def snap_scalar(v: Scalar, max_den: int = SNAP_MAX_DEN) -> QQi:
    """Nearest Gaussian rational with bounded denominator (continued fractions)."""
    if isinstance(v, QQi):
        return v
    z = complex(v)
    return QQi(Fraction(z.real).limit_denominator(max_den),
               Fraction(z.imag).limit_denominator(max_den))


# -- text formatting --------------------------------------------------------

def _format_fraction(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def format_exact(z: QQi) -> str:
    """Canonical text form: "p/q" when real, "(a+b*i)" otherwise."""
    if z.im == 0:
        return _format_fraction(z.re)
    re = _format_fraction(z.re)
    im = _format_fraction(abs(z.im))
    sign = "+" if z.im > 0 else "-"
    return f"({re}{sign}{im}*i)"


def format_scalar(v: Scalar) -> str:
    if isinstance(v, QQi):
        return format_exact(v)
    z = complex(v)
    if z.imag == 0.0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"({z.real!r}{sign}{abs(z.imag)!r}*i)"


def scalar_to_json(v: Scalar) -> dict:
    if isinstance(v, QQi):
        return {"re": _format_fraction(v.re), "im": _format_fraction(v.im)}
    z = complex(v)
    return {"re": z.real, "im": z.imag}


def scalar_from_json(obj: dict) -> Scalar:
    re, im = obj["re"], obj["im"]
    if isinstance(re, str) and isinstance(im, str):
        return QQi(Fraction(re), Fraction(im))
    return complex(float(re), float(im))
