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


def power(base, k: int, one):
    """base ** k for k >= 0 by repeated squaring: multiply from one and skip
    the last squaring, so a float result does not depend on the caller."""
    result = one
    while k:
        if k & 1:
            result = result * base
        k >>= 1
        if k:
            base = base * base
    return result


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
        elif isinstance(other, _EXACT_PARTS):
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
        if isinstance(other, _EXACT_PARTS):
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
        elif isinstance(other, _EXACT_PARTS):
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
        return power(self, k, _ONE)

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
        if isinstance(other, _EXACT_PARTS):
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
_ZERO = _triple(0, 0, 1)


def _over_lcm(values, lcm: int = 0) -> tuple[list[tuple[int, int]], int]:
    """QQi values as Gaussian-integer numerators (real, imaginary) over the
    lcm of their denominators (or over lcm, a multiple of it), and that lcm."""
    lcm = lcm or math.lcm(*(v.d for v in values))
    return [(v.a * (m := lcm // v.d), v.b * m) for v in values], lcm


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
    return abs(v) <= eps * scale


def scalars_close(a: Scalar, b: Scalar, eps: float = EPS_DEFAULT,
                  scale: float = 1.0) -> bool:
    if isinstance(a, QQi) and isinstance(b, QQi):
        return a == b
    return abs(complex(a) - complex(b)) <= eps * scale


# -- image modulo a prime -----------------------------------------------------

# Exact questions are tried modulo this prime first (p = 1 mod 4, so i maps
# to a fixed square root of -1).  Reduction mod p is a ring map from the
# Gaussian rationals whose denominators p does not divide: a minor that is
# nonzero mod p is nonzero over Q(i), and two values that differ mod p
# differ over Q(i).  Agreement mod p only sends the question to exact
# arithmetic.  p < 2^30 keeps each residue to one CPython digit.
MOD_P = 1073741789
MOD_I = 933053945


class _NoImage(ArithmeticError):
    """A scalar with no image mod MOD_P: inexact, or p divides a denominator."""


def mod_p(v) -> int:
    """The image of an exact scalar in the integers mod MOD_P."""
    if not isinstance(v, QQi):
        raise _NoImage
    try:
        inv = pow(v.d, -1, MOD_P)
    except ValueError:
        raise _NoImage from None
    return (v.a + v.b * MOD_I) * inv % MOD_P


# -- exact square roots -----------------------------------------------------

def exact_sqrt(z: QQi) -> QQi | None:
    """A Gaussian-rational square root of z, or None if no exact one exists.

    z = (a + b*i)/d has a root in Q(i) exactly when the Gaussian integer
    w = z*d^2 has one in Z[i], and the root of z is that of w over d.  It
    is u + v*i with u = isqrt((|w| + Re w)/2) >= 0 and v = Im w/(2u), or
    v = isqrt(|w|) when u = 0; a candidate that does not square to w means
    there is no root.
    """
    a, b, d = z.a * z.d, z.b * z.d, z.d
    n = math.isqrt(a * a + b * b)
    u = math.isqrt((n + a) // 2)
    v = b // (2 * u) if u else math.isqrt(n)
    if u * u - v * v != a or 2 * u * v != b:
        return None
    return _normalised(u, v, d)


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

def _limit_denominator(x: float, max_den: int) -> tuple[int, int]:
    """Fraction(x).limit_denominator(max_den) as a coprime (numerator,
    denominator) pair, by the same continued fraction in plain ints."""
    n, d = x.as_integer_ratio()
    if d <= max_den:
        return n, d
    p0, q0, p1, q1, whole = 0, 1, 1, 0, d
    while (q2 := q0 + (a := n // d) * q1) <= max_den:
        p0, q0, p1, q1 = p1, q1, p0 + a * p1, q2
        n, d = d, n - a * d
    k = (max_den - q0) // q1
    # p1/q1 wins unless the semiconvergent is strictly nearer x: the two lie
    # 1/(q1 (q0 + k q1)) apart, and p1/q1 lies d/(q1 whole) from x
    if 2 * d * (q0 + k * q1) <= whole:
        return p1, q1
    return p0 + k * p1, q0 + k * q1


def snap_scalar(v: Scalar, max_den: int = SNAP_MAX_DEN) -> QQi:
    """Nearest Gaussian rational with bounded denominator (continued fractions)."""
    if isinstance(v, QQi):
        return v
    if max_den < 1:
        raise ValueError("max_denominator should be at least 1")
    z = complex(v)
    (a, c), (b, e) = (_limit_denominator(x, max_den) for x in (z.real, z.imag))
    # lowest-terms parts over the lcm of their denominators are coprime to it
    d = c // gcd(c, e) * e
    return _triple(a * (d // c), b * (d // e), d)


# -- text formatting --------------------------------------------------------

def _part_text(n: int, d: int) -> str:
    """str(Fraction(n, d)) for d > 0, from one gcd."""
    g = gcd(n, d)
    try:
        return str(n // g) if g == d else f"{n // g}/{d // g}"
    except ValueError as exc:  # over Python's int-to-str digit limit
        raise OverflowError(str(exc).partition(";")[0]) from None


def format_exact(z: QQi) -> str:
    """Canonical text form: "p/q" when real, "(a+b*i)" otherwise."""
    if not z.b:
        return _part_text(z.a, z.d)
    sign = "+" if z.b > 0 else "-"
    return f"({_part_text(z.a, z.d)}{sign}{_part_text(abs(z.b), z.d)}*i)"


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
        return {"re": _part_text(v.a, v.d), "im": _part_text(v.b, v.d)}
    z = complex(v)
    return {"re": z.real, "im": z.imag}


def scalar_from_json(obj: dict) -> Scalar:
    re, im = obj["re"], obj["im"]
    if isinstance(re, str) and isinstance(im, str):
        return QQi(Fraction(re), Fraction(im))
    return complex(float(re), float(im))
