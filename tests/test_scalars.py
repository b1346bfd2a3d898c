import copy
import json
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform.scalars import (QQi, exact_sqrt, format_exact, scalar_sqrt,
                               scalar_to_json, snap_scalar, sqrt_fraction)


def test_field_operations_are_exact():
    a = QQi(Fraction(2, 3), Fraction(-1, 7))
    b = QQi(Fraction(5), Fraction(4, 9))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (QQi(1) / a) == QQi(1)
    assert -(-a) == a


def test_powers_and_conjugate():
    i = QQi(0, 1)
    assert i ** 2 == QQi(-1)
    assert i ** 103 == QQi(0, -1)
    z = QQi(Fraction(3), Fraction(4))
    assert z * z.conjugate() == QQi(z.norm2())
    assert z ** -1 == QQi(1) / z


def test_mixed_arithmetic_with_python_numbers():
    z = QQi(Fraction(1, 2))
    assert z + 1 == QQi(Fraction(3, 2))
    assert 2 * z == QQi(1)
    assert isinstance(z + 0.5, complex)
    assert complex(QQi(1, 2)) == 1 + 2j


def test_hash_matches_plain_numbers():
    assert hash(QQi(2)) == hash(2)
    assert hash(QQi(Fraction(1, 3))) == hash(Fraction(1, 3))


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(9, 4)) == Fraction(3, 2)
    assert sqrt_fraction(Fraction(2)) is None


def test_exact_sqrt_gaussian():
    assert exact_sqrt(QQi(0, 2)) == QQi(1, 1)
    assert exact_sqrt(QQi(-4)) == QQi(0, 2)
    assert exact_sqrt(QQi(Fraction(9, 16))) == QQi(Fraction(3, 4))
    assert exact_sqrt(QQi(2)) is None
    w = exact_sqrt(QQi(Fraction(-5), Fraction(12)))
    assert w == QQi(2, 3)
    assert exact_sqrt(QQi(Fraction(-5), Fraction(11))) is None


def test_scalar_sqrt_falls_back_to_complex():
    v = scalar_sqrt(QQi(2))
    assert isinstance(v, complex)
    assert math.isclose(v.real, 2 ** 0.5)


def test_snap_scalar_reconstruction():
    z = complex(Fraction(22, 7)) + 1e-13 + 0.25j
    s = snap_scalar(z)
    assert s.re == Fraction(22, 7)
    assert s.im == Fraction(1, 4)


def test_format_round_trip_strings():
    assert format_exact(QQi(Fraction(-7, 3))) == "-7/3"
    assert format_exact(QQi(Fraction(1), Fraction(-2))) == "(1-2*i)"
    assert format_exact(QQi(0, Fraction(1, 2))) == "(0+1/2*i)"


# -- properties against a plain (Fraction, Fraction) oracle -------------------

props = settings(max_examples=150, deadline=None, derandomize=True)
fractions = st.builds(Fraction, st.integers(-40, 40), st.integers(1, 24))
pairs = st.tuples(fractions, fractions)
exact_numbers = st.one_of(st.integers(-30, 30), fractions)
inexact_numbers = st.one_of(
    st.floats(-1e6, 1e6, allow_nan=False),
    st.builds(complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)))


def o_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def o_sub(x, y):
    return (x[0] - y[0], x[1] - y[1])


def o_mul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def o_div(x, y):
    n2 = y[0] * y[0] + y[1] * y[1]
    return ((x[0] * y[0] + x[1] * y[1]) / n2, (x[1] * y[0] - x[0] * y[1]) / n2)


def o_pow(x, k):
    result = (Fraction(1), Fraction(0))
    for _ in range(abs(k)):
        result = o_mul(result, x)
    return o_div((Fraction(1), Fraction(0)), result) if k < 0 else result


def o_text(f):
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def same(z, x):
    """z is a normalised QQi with the value of the oracle pair x."""
    assert type(z) is QQi
    assert z.d > 0 and math.gcd(z.a, z.b, z.d) == 1
    assert (z.re, z.im) == x
    return True


@props
@given(x=pairs, y=pairs)
def test_field_operations_match_the_pair_oracle(x, y):
    z, w = QQi(*x), QQi(*y)
    assert same(z, x) and same(w, y)
    assert same(z + w, o_add(x, y))
    assert same(z - w, o_sub(x, y))
    assert same(z * w, o_mul(x, y))
    assert same(-z, (-x[0], -x[1]))
    assert same(z.conjugate(), (x[0], -x[1]))
    assert z.norm2() == x[0] * x[0] + x[1] * x[1]
    assert bool(z) == (x != (0, 0))
    if any(y):
        assert same(z / w, o_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            z / w


@props
@given(x=pairs, k=st.integers(-5, 7))
def test_powers_match_the_pair_oracle(x, k):
    z = QQi(*x)
    if k < 0 and not any(x):
        with pytest.raises(ZeroDivisionError):
            z ** k
    else:
        assert same(z ** k, o_pow(x, k))


@props
@given(x=pairs, q=exact_numbers)
def test_mixed_operations_with_int_and_fraction(x, q):
    z, y = QQi(*x), (Fraction(q), Fraction(0))
    assert same(z + q, o_add(x, y)) and same(q + z, o_add(y, x))
    assert same(z - q, o_sub(x, y)) and same(q - z, o_sub(y, x))
    assert same(z * q, o_mul(x, y)) and same(q * z, o_mul(y, x))
    if q:
        assert same(z / q, o_div(x, y))
    else:
        with pytest.raises(ZeroDivisionError):
            z / q
    if any(x):
        assert same(q / z, o_div(y, x))


@props
@given(x=pairs, v=inexact_numbers)
def test_mixed_operations_with_float_and_complex_give_complex(x, v):
    z, c = QQi(*x), complex(float(x[0]), float(x[1]))
    for got, want in ((z + v, c + v), (v + z, v + c), (z - v, c - v),
                      (v - z, v - c), (z * v, c * v), (v * z, v * c)):
        assert type(got) is complex and got == want
    if v:
        assert z / v == c / v
    if c:
        assert v / z == v / c
    assert (z == v) == (c == v)


@props
@given(x=pairs, q=exact_numbers)
def test_equality_and_hash_agree_with_int_and_fraction(x, q):
    z = QQi(*x)
    assert z == QQi(*x) and hash(z) == hash(QQi(*x))
    real = QQi(q)
    assert real == q and q == real and hash(real) == hash(q)
    assert real == Fraction(q) and hash(real) == hash(Fraction(q))
    assert (z == q) == (x == (q, 0))
    assert (z == x[0]) == (x[1] == 0)
    if x[1] == 0:
        assert hash(z) == hash(x[0])


@props
@given(x=pairs)
def test_text_and_json_match_the_fraction_pair(x):
    z = QQi(*x)
    assert repr(z) == f"QQi({x[0]!r}, {x[1]!r})"
    if x[1] == 0:
        want = o_text(x[0])
    else:
        sign = "+" if x[1] > 0 else "-"
        want = f"({o_text(x[0])}{sign}{o_text(abs(x[1]))}*i)"
    assert str(z) == format_exact(z) == want
    assert (json.dumps(scalar_to_json(z), sort_keys=True)
            == json.dumps({"re": o_text(x[0]), "im": o_text(x[1])},
                          sort_keys=True))


@props
@given(re=st.builds(Fraction, st.integers(-10**320, 10**320),
                    st.integers(1, 10**12)),
       im=st.builds(Fraction, st.integers(-10**320, 10**320),
                    st.integers(1, 10**12)))
def test_complex_conversion_rounds_like_float_of_fraction(re, im):
    z = QQi(re, im)
    try:
        want = complex(float(re), float(im))
    except OverflowError:
        with pytest.raises(OverflowError):
            complex(z)
    else:
        assert complex(z) == want


@props
@given(x=pairs)
def test_scalar_is_immutable_and_copies_by_value(x):
    z = QQi(*x)
    for name in ("re", "im", "a", "b", "d", "other"):
        with pytest.raises(AttributeError):
            setattr(z, name, 1)
    with pytest.raises(AttributeError):
        del z.a
    assert same(z, x)
    assert copy.deepcopy(z) == z and pickle.loads(pickle.dumps(z)) == z
