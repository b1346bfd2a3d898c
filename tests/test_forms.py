import json
import random
from fractions import Fraction

import pytest

from canonform import (QQi, ZeroForm, biermann_point, binary_factor, dim,
                       forms_close, index_set, linear_form, multinomial,
                       parse_form, power_of_linear, random_form)
from canonform.errors import ParseError, ShapeMismatch
from canonform.forms import (Form, form_from_json, form_to_json,
                             parse_decomposition)
from canonform.linalg import exact_inverse


def count_monomials(n, d):
    # independent recursive count for the index_set length check
    if n == 1:
        return 1
    return sum(count_monomials(n - 1, d - first) for first in range(d + 1))


def test_index_set_examples():
    assert index_set(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(index_set(3, 4)) == 15
    assert index_set(1, 5) == [(5,)]


def test_index_set_length_matches_recursive_count():
    for n in range(1, 7):
        for d in range(0, 11):
            assert len(index_set(n, d)) == count_monomials(n, d) == dim(n, d)


def test_multinomial():
    assert multinomial((3, 0)) == 1
    assert multinomial((1, 1)) == 2
    assert multinomial((2, 1, 1)) == 12


EX310 = "2*x^3 + 3*x^2*y - 21*x*y^2 - 41*y^3"


def test_evaluate_examples():
    p = parse_form("x^2 + y^2")
    assert p.evaluate((1, QQi(0, 1))) == QQi(0)
    assert parse_form(EX310).evaluate((1, 0)) == QQi(2)
    assert power_of_linear([1, 2], 3).evaluate((1, 1)) == QQi(27)


def test_evaluate_linearity():
    rng = random.Random(0)
    for _ in range(25):
        p = random_form(2, 4, rng)
        q = random_form(2, 4, rng)
        a, b = QQi(rng.randint(-5, 5)), QQi(rng.randint(-5, 5))
        u = (rng.randint(-4, 4), rng.randint(-4, 4))
        lhs = (p.scale(a) + q.scale(b)).evaluate(u)
        assert lhs == a * p.evaluate(u) + b * q.evaluate(u)


def test_substitute_examples():
    p = random_form(3, 3, random.Random(1))
    ident = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert p.substitute(ident) == p
    assert parse_form("x^2", n=2).substitute([[0, 1], [1, 0]]) == parse_form(
        "y^2", n=2)
    assert parse_form("x*y").substitute([[1, 1], [1, -1]]) == parse_form(
        "x^2 - y^2")


def test_substitute_inverse_round_trip():
    rng = random.Random(2)
    for n in (2, 3):
        p = random_form(n, 3, rng)
        while True:
            m = [[QQi(Fraction(rng.randint(-3, 3))) for _ in range(n)]
                 for _ in range(n)]
            inv = exact_inverse(m)
            if inv is not None:
                break
        assert p.substitute(m).substitute(inv) == p


def test_backend_tag_is_fixed_at_construction():
    # one complex coefficient turns the whole form approximate
    mixed = Form(2, 2, {(2, 0): QQi(1), (1, 1): 2, (0, 2): 0.5 + 1j})
    assert not mixed.exact
    assert all(type(v) is complex for _, v in mixed.items())
    assert type(mixed.a((1, 1))) is complex
    # a form with no coefficients counts as exact, whatever built it
    p = parse_form("x^2 + 3*x*y")
    zero = p.approx() - p.approx()
    assert zero.exact and not zero
    assert type(zero.a((2, 0))) is QQi and zero.a((2, 0)) == QQi(0)


def test_normalized_coefficient_convention():
    p = parse_form(EX310)
    assert [p.a((3 - j, j)) for j in range(4)] == [QQi(2), QQi(1), QQi(-7),
                                                   QQi(-41)]
    assert p.raw((2, 1)) == QQi(3)


def test_parse_rejects_inhomogeneous_and_garbage():
    with pytest.raises(ParseError):
        parse_form("x^2 + y")
    with pytest.raises(ParseError):
        parse_form("x +")
    with pytest.raises(ParseError):
        parse_form("q^2")


def test_parse_print_round_trip():
    texts = [EX310, "x^2 - y^2", "(1+2*i)*x^4 + 7/3*x^2*y^2 - i*y^4",
             "x1^2*x3 + x2^3"]
    for text in texts:
        p = parse_form(text)
        assert parse_form(str(p)) == p


def test_json_round_trip_bit_exact():
    p = parse_form("(1-1/3*i)*x^5 + 2/7*x^2*y^3 - y^5")
    blob = json.dumps(form_to_json(p), sort_keys=True)
    assert form_from_json(json.loads(blob)) == p
    blob2 = json.dumps(form_to_json(form_from_json(json.loads(blob))),
                       sort_keys=True)
    assert blob == blob2


def test_zero_form_has_shape():
    z = Form.zero(3, 4)
    assert z.n == 3 and z.d == 4 and z.is_zero()
    assert (z + z).d == 4
    with pytest.raises(ShapeMismatch):
        z + Form.zero(3, 5)


@pytest.mark.parametrize("coeffs", [{(2, 2): 1}, {(4, -1): 1},
                                    {(1, 1, 1): 1}])
def test_constructor_rejects_indices_off_the_shape(coeffs):
    with pytest.raises(ShapeMismatch):
        Form(2, 3, coeffs)


def test_constructor_rejects_non_numbers():
    with pytest.raises(TypeError):
        Form(2, 3, {(3, 0): "1"})
    with pytest.raises(TypeError):
        Form(2, 3, {(3, 0): 1, (0, 3): None})


def test_biermann_examples():
    assert biermann_point(parse_form("x*y")) == (1, 1)
    assert biermann_point(parse_form("x^4", n=3, d=4)) == (4, 0, 0)
    with pytest.raises(ZeroForm):
        biermann_point(Form.zero(2, 3))


def test_biermann_scan_is_first_nonzero_in_graded_lex():
    rng = random.Random(3)
    for _ in range(10):
        p = random_form(3, 3, rng)
        if p.is_zero():
            continue
        got = biermann_point(p)
        for idx in index_set(3, 3):
            if idx == got:
                break
            assert p.evaluate(idx) == QQi(0)
        assert p.evaluate(got) != QQi(0)


def reconstruct(constant, factors, n=2):
    total = None
    for lin, mult in factors:
        piece = lin ** mult
        total = piece if total is None else total * piece
    return total.scale(constant)


def test_binary_factor_examples():
    c, fs = binary_factor(parse_form("6*x^2 - 5*x*y + y^2"))
    assert c == QQi(6) and len(fs) == 2
    assert reconstruct(c, fs) == parse_form("6*x^2 - 5*x*y + y^2")

    c, fs = binary_factor(parse_form("x^2 + y^2"))
    assert sorted(str(f) for f, _ in fs) == ["x + (0+1*i)*y", "x + (0-1*i)*y"]

    c, fs = binary_factor(parse_form("x^3 - 3*x^2*y + 3*x*y^2 - y^3"))
    assert fs == [(linear_form([1, -1]), 3)]


def test_binary_factor_x_power_and_reconstruction():
    p = parse_form("5*x^2*y^3")
    c, fs = binary_factor(p)
    assert reconstruct(c, fs) == p
    rng = random.Random(4)
    for _ in range(10):
        q = random_form(2, 5, rng)
        c, fs = binary_factor(q)
        got = reconstruct(c, fs)
        assert forms_close(got.approx(), q.approx(), 1e-8)


def test_parse_decomposition_round_trip():
    text = "5*(x+2*y)^3 - 3*(x+3*y)^3"
    dec = parse_decomposition(text)
    assert dec.reconstruct() == parse_form(EX310)
