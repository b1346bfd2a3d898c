"""Scalar backends: exact Gaussian rationals and approximate complex doubles.

A computation runs uniformly in one backend.  The exact backend stores a
complex number as a pair of arbitrary-precision Fractions and is closed under
+, -, *, / with no rounding.  The approximate backend is the builtin complex,
with comparisons made at a relative tolerance carried by the caller
(default EPS_DEFAULT).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

EPS_DEFAULT = 1e-9

# Denominator bound for rational reconstruction of floating intermediates.
SNAP_MAX_DEN = 10**6

_EXACT_PARTS = (int, Fraction)


@dataclass(frozen=True)
class QQi:
    """A Gaussian rational: re + im*i with Fraction parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self):
        if not isinstance(self.re, Fraction):
            object.__setattr__(self, "re", Fraction(self.re))
        if not isinstance(self.im, Fraction):
            object.__setattr__(self, "im", Fraction(self.im))

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, QQi):
            return other
        if isinstance(other, _EXACT_PARTS):
            return QQi(Fraction(other))
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) + other
            return NotImplemented
        return QQi(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __neg__(self):
        return QQi(-self.re, -self.im)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) - other
            return NotImplemented
        return QQi(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) * other
            return NotImplemented
        return QQi(self.re * o.re - self.im * o.im,
                   self.re * o.im + self.im * o.re)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) / other
            return NotImplemented
        n2 = o.re * o.re + o.im * o.im
        if n2 == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return QQi((self.re * o.re + self.im * o.im) / n2,
                   (self.im * o.re - self.re * o.im) / n2)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return other / complex(self)
            return NotImplemented
        return o / self

    def __pow__(self, k: int):
        if not isinstance(k, int):
            return NotImplemented
        if k < 0:
            return (QQi(1) / self) ** (-k)
        result = QQi(1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure ----------------------------------------------------------

    def conjugate(self) -> "QQi":
        return QQi(self.re, -self.im)

    def norm2(self) -> Fraction:
        """|z|^2 as an exact Fraction."""
        return self.re * self.re + self.im * self.im

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __abs__(self) -> float:
        return abs(complex(self))

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def __eq__(self, other) -> bool:
        o = self._coerce(other)
        if o is None:
            if isinstance(other, (float, complex)):
                return complex(self) == other
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __str__(self) -> str:
        return format_exact(self)

    def __repr__(self) -> str:
        return f"QQi({self.re!r}, {self.im!r})"


Scalar = QQi | complex


def is_exact(v: Scalar) -> bool:
    return isinstance(v, QQi)


def as_scalar(v) -> Scalar:
    """Coerce a Python number to a backend scalar (exact when possible)."""
    if isinstance(v, (QQi, complex)):
        return v
    if isinstance(v, _EXACT_PARTS):
        return QQi(Fraction(v))
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
