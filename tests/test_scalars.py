import copy
import json
import math
import operator
import pickle
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform import canonicity
from canonform.scalars import (MOD_I, MOD_P, QQi, _NoImage, exact_sqrt,
                               format_exact, mod_p, scalar_is_zero,
                               scalar_sqrt, scalar_to_json, scalars_close,
                               snap_scalar)


def test_field_operations_are_exact():
    a = QQi(Fraction(2, 3), Fraction(-1, 7))
    b = QQi(Fraction(5), Fraction(4, 9))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * (QQi(1) / a) == QQi(1)
    assert -(-a) == a


def test_powers_and_inverse():
    i = QQi(0, 1)
    assert i ** 2 == QQi(-1)
    assert i ** 103 == QQi(0, -1)
    z = QQi(Fraction(3), Fraction(4))
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


def _fraction_sqrt(z: QQi) -> QQi | None:
    """exact_sqrt as computed on Fraction parts, kept as the oracle of the
    integer-triple one."""
    def root(f: Fraction) -> Fraction | None:
        if f < 0:
            return None
        rn, rd = math.isqrt(f.numerator), math.isqrt(f.denominator)
        if rn * rn == f.numerator and rd * rd == f.denominator:
            return Fraction(rn, rd)
        return None

    if z.im == 0:
        r = root(abs(z.re))
        if r is None:
            return None
        return QQi(r) if z.re >= 0 else QQi(0, r)
    n = root(z.re * z.re + z.im * z.im)
    c = root((z.re + n) / 2) if n is not None else None
    if not c:
        return None
    w = QQi(c, z.im / (2 * c))
    return w if w * w == z else None


def _triple(z: QQi | None):
    return None if z is None else (z.a, z.b, z.d)


_parts = st.builds(Fraction, st.integers(-10**6, 10**6),
                   st.integers(1, 10**3) | st.integers(10**20, 10**30))
_gaussian = st.builds(QQi, _parts, _parts)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(z=st.one_of(_gaussian.map(lambda w: w * w), _gaussian,
                   _parts.map(lambda q: QQi(-q * q)),
                   _parts.map(lambda q: QQi(-abs(q))), st.just(QQi(0))))
def test_exact_sqrt_matches_the_fraction_oracle(z):
    assert _triple(exact_sqrt(z)) == _triple(_fraction_sqrt(z))


def test_exact_sqrt_of_rationals():
    assert exact_sqrt(QQi(Fraction(9, 4))) == QQi(Fraction(3, 2))
    assert exact_sqrt(QQi(2)) is None
    assert exact_sqrt(QQi(Fraction(-9, 4))) == QQi(0, Fraction(3, 2))
    assert exact_sqrt(QQi(0)) == QQi(0)


@pytest.mark.parametrize("other", ["1", None, [1]])
@pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul,
                                operator.truediv, operator.pow])
def test_operations_with_a_non_number_raise_type_error(op, other):
    with pytest.raises(TypeError):
        op(QQi(1), other)
    with pytest.raises(TypeError):
        op(other, QQi(1))


@pytest.mark.parametrize("other", ["1", None, [1]])
def test_a_non_number_is_never_equal(other):
    assert (QQi(1) == other) is False
    assert (QQi(1) != other) is True


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


def _fraction_format(z: QQi) -> str:
    """format_exact as it was written on Fraction parts: the oracle."""
    re, im = Fraction(z.a, z.d), Fraction(z.b, z.d)
    if im == 0:
        return o_text(re)
    return f"({o_text(re)}{'+' if im > 0 else '-'}{o_text(abs(im))}*i)"


_text_ints = st.one_of(st.just(0), st.integers(-60, 60),
                       st.integers(-2**90, -2**64), st.integers(2**64, 2**90))


@settings(max_examples=600, deadline=None, derandomize=True)
@given(a=_text_ints, b=_text_ints,
       d=st.one_of(st.integers(1, 60), st.integers(2**64, 2**72)),
       g=st.integers(1, 30))
def test_exact_text_matches_the_fraction_formatting(a, b, d, g):
    # numerators times g over d times g: parts that share factors with the
    # denominator, which the triple keeps unless all three share them
    z = QQi(Fraction(a * g, d * g), Fraction(b, d * g))
    assert str(z) == format_exact(z) == _fraction_format(z)
    assert scalar_to_json(z) == {"re": o_text(Fraction(z.a, z.d)),
                                 "im": o_text(Fraction(z.b, z.d))}


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


# signed zeros, subnormals, huge values, integers, ratios that round, and
# ties: k + 2**-(m+1) lies midway between k and k + 2**-m, neighbours among
# the fractions of denominator at most 2**m
snap_parts = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                     1e300, -1e300, 1.7976931348623157e308]),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-10**6, 10**6).map(float),
    st.builds(lambda a, b: a / b, st.integers(-999, 999), st.integers(1, 9999)))
snap_ties = st.builds(lambda k, m, s: (s * (k + 2.0 ** -(m + 1)), 2 ** m),
                      st.integers(0, 50), st.integers(0, 20),
                      st.sampled_from([1, -1]))


@props
@given(re=snap_parts, im=snap_parts,
       max_den=st.one_of(st.integers(1, 50), st.just(10**6),
                         st.integers(1, 10**12)),
       tie=snap_ties)
def test_snap_matches_fraction_limit_denominator(re, im, max_den, tie):
    def want(x, bound):
        return Fraction(x).limit_denominator(bound)

    z = snap_scalar(complex(re, im), max_den)
    assert same(z, (want(re, max_den), want(im, max_den)))
    x, bound = tie
    assert snap_scalar(x, bound) == QQi(want(x, bound))


def test_snap_refuses_a_bound_below_one():
    with pytest.raises(ValueError):
        snap_scalar(0.5, 0)


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


# -- the image modulo MOD_P ------------------------------------------------------


@props
@given(x=pairs, y=pairs)
def test_mod_p_is_a_ring_map(x, y):
    z, w = QQi(*x), QQi(*y)
    assert mod_p(z * w) == mod_p(z) * mod_p(w) % MOD_P
    assert mod_p(z + w) == (mod_p(z) + mod_p(w)) % MOD_P
    assert mod_p(z - w) == (mod_p(z) - mod_p(w)) % MOD_P
    if w:
        assert mod_p(z / w) == mod_p(z) * pow(mod_p(w), -1, MOD_P) % MOD_P


def test_mod_p_sends_i_to_a_square_root_of_minus_one():
    assert mod_p(QQi(0, 1)) == MOD_I
    assert mod_p(QQi(-1)) == MOD_P - 1
    assert mod_p(QQi(Fraction(1, 2))) * 2 % MOD_P == 1


@pytest.mark.parametrize("v", [1.5, 1 + 2j, QQi(Fraction(1, MOD_P)),
                               QQi(1, Fraction(3, 2 * MOD_P))],
                         ids=["float", "complex", "over-p", "imaginary-over-p"])
def test_mod_p_has_no_image_for_inexact_values_or_a_denominator_of_p(v):
    with pytest.raises(_NoImage):
        mod_p(v)


def test_canonicity_reads_the_one_modular_image():
    assert canonicity.MOD_P is MOD_P
    assert canonicity.mod_p is mod_p and canonicity._NoImage is _NoImage


# Dyadic values, so scaling by 2^k for |k| <= 80 stays exact in floats.
dyadics = st.builds(math.ldexp, st.integers(-2**53, 2**53), st.integers(-60, 20))
dyadic_complex = st.builds(complex, dyadics, dyadics)
tolerances = st.sampled_from([1e-12, 1e-9, 1e-7, 1e-3])


@given(v=dyadic_complex, w=dyadic_complex, scale=dyadics.map(abs),
       near=st.floats(0, 2), eps=tolerances, k=st.integers(-80, 80))
def test_zero_and_closeness_verdicts_are_scale_invariant(v, w, scale, near, eps,
                                                         k):
    # there is no absolute floor: scaling the values and the scale by 2^k
    # keeps every verdict; near * eps * scale sits on either side of the bound
    c = 2.0 ** k
    for u in (v, complex(near * eps * scale)):
        assert scalar_is_zero(u * c, eps, scale * c) == scalar_is_zero(u, eps, scale)
        assert (scalars_close(w * c, (w + u) * c, eps, scale * c)
                == scalars_close(w, w + u, eps, scale))
