import functools
import hashlib
import itertools
import json
import math
import operator
import random
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform import (QQi, ZeroForm, biermann_point, binary_factor, dim,
                       forms_close, index_set, linear_form, multinomial,
                       parse_form, power_of_linear, random_form)
from canonform import binary, multivar
from canonform.errors import (CanonformError, DegenerateInput, DegenerateStage,
                              ParseError, ShapeMismatch)
from canonform.binary import sylvester_decompose, two_squares_all
from canonform.forms import (ACCEPT_TOL, Decomposition, Form, Term, _Reader,
                             form_from_json, form_to_json, monomial_form,
                             parse_decomposition, parse_scalar)
from canonform.linalg import exact_inverse
from canonform.multivar import quartic_lift, slinky, slowpoke
from canonform.scalars import MOD_P, SNAP_MAX_DEN, format_scalar, snap_scalar


def count_monomials(n, d):
    # independent recursive count for the index_set length check
    if n == 1:
        return 1
    return sum(count_monomials(n - 1, d - first) for first in range(d + 1))


def test_index_set_examples():
    assert index_set(2, 2) == [(2, 0), (1, 1), (0, 2)]
    assert len(index_set(3, 4)) == 15
    assert index_set(1, 5) == [(5,)]


def test_index_set_returns_a_fresh_list():
    first = index_set(3, 2)
    first.append((9, 9, 9))
    first[0] = (0, 0, 0)
    assert index_set(3, 2) == [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 2, 0),
                               (0, 1, 1), (0, 0, 2)]
    assert index_set(3, 2) is not index_set(3, 2)


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


gaussian_rationals = st.builds(
    QQi, *[st.fractions(-10 ** 6, 10 ** 6, max_denominator=10 ** 4)] * 2)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data(), n=st.integers(1, 3), d=st.integers(0, 4))
def test_parse_print_round_trip_on_random_forms(data, n, d):
    idx = index_set(n, d)
    p = Form(n, d, {i: data.draw(gaussian_rationals)
                    for i in data.draw(st.lists(st.sampled_from(idx),
                                                unique=True))})
    assert parse_form(str(p), n, d) == p
    # without n and d the text fixes them once the last variable shows
    if any(i[-1] for i, _ in p.items()):
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


@pytest.mark.parametrize("text", ["1e200*x^3 + x*y^2 + 1e-200*y^3",
                                  "x^3 + x*y^2 + 1e-400*y^3"])
def test_binary_factor_refuses_a_root_polynomial_beyond_float_range(text):
    # the companion matrix of p(1, t) would hold 1e400, or divide by the
    # leading coefficient rounded to 0.0
    with pytest.raises(DegenerateInput, match="beyond float range"):
        binary_factor(parse_form(text))


def test_binary_factor_keeps_exact_roots_exact_and_float_roots_float():
    _, fs = binary_factor(parse_form("x^3 - x^2*y - 2*x*y^2 + 2*y^3"))
    assert [f.exact for f, _ in fs] == [False, True, False]
    assert str(fs[1][0]) == "x - y"
    _, fs = binary_factor(parse_form("x*y + y^2").approx())
    assert [(f.exact, str(f)) for f, _ in fs] == [(False, "y"), (False, "x + y")]


def test_binary_factor_keeps_a_tiny_nonzero_root():
    # the root 1/1234567890123 of p(1, t) is below eps in absolute value but
    # not zero, so its factor is x - 1234567890123*y, not y
    p = parse_form("x - 1234567890123*y")
    c, fs = binary_factor(p)
    assert [m for _, m in fs] == [1] and fs[0][0].raw((1, 0)) == 1
    assert forms_close(reconstruct(c, fs).approx(), p.approx(), 1e-12)


def test_parse_decomposition_round_trip():
    text = "5*(x+2*y)^3 - 3*(x+3*y)^3"
    dec = parse_decomposition(text)
    assert dec.reconstruct() == parse_form(EX310)


def _form_digest(p: Form) -> str:
    blob = json.dumps(form_to_json(p), sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def test_parse_corpus_reads_as_recorded():
    # each row: kind, digest, source, text (see the header of the file)
    rows = [line.split("\t") for line in
            (Path(__file__).parent / "parse_corpus.tsv").read_text().splitlines()
            if line and not line.startswith("#")]
    assert len(rows) > 800
    changed = []
    for kind, digest, source, text in rows:
        try:
            p = (parse_form(text) if kind == "form"
                 else parse_decomposition(text).reconstruct())
        except ParseError as exc:
            changed.append((source, text, str(exc)))
            continue
        if _form_digest(p) != digest:
            changed.append((source, text, "another form"))
    assert changed == []


@pytest.mark.parametrize("text", ["x0^3 + y^3", "x0*y", "x01^2", "x1*x02"])
def test_variables_are_numbered_from_x1_without_leading_zeros(text):
    with pytest.raises(ParseError):
        parse_form(text)


def test_variable_numbering():
    assert parse_form("x10").n == 10
    assert parse_form("x*x1 + y^2") == parse_form("x1^2 + x2^2")
    assert parse_form("2x^2y") == parse_form("2*x^2*y")


@pytest.mark.parametrize("text,value", [
    (".5", QQi(Fraction(1, 2))), ("5.", QQi(5)), ("i", QQi(0, 1)),
    ("-i", QQi(0, -1)), ("+i", QQi(0, 1)), ("1/2", QQi(Fraction(1, 2))),
    ("1e3", QQi(1000)), ("-2.5e-1", QQi(Fraction(-1, 4))),
    ("(1-2*i)", QQi(1, -2)), ("2*i", QQi(0, 2)), ("(1+i)^2", QQi(0, 2)),
    (" ( 1/2 + i*3 ) ", QQi(Fraction(1, 2), 3)), ("((2))^3", QQi(8)),
])
def test_parse_scalar(text, value):
    assert parse_scalar(text) == value


@pytest.mark.parametrize("text", ["", "x", "abc", "1_000", "2 i", "(1 2)",
                                  "1/0", "1.5/2", "(1+i", "i^2", "2**i"])
def test_parse_scalar_rejects(text):
    with pytest.raises(ParseError, match="cannot parse scalar"):
        parse_scalar(text)


def _reader_scalar(text):
    """parse_scalar through the reader alone, without its digit fast path."""
    try:
        products = _Reader(text).read()
    except ParseError as exc:
        raise ParseError(f"cannot parse scalar {text!r}: {exc}") from None
    if any(expo for _, expo, _ in products):
        raise ParseError(f"cannot parse scalar {text!r}: it has a variable")
    return sum((c for c, _, _ in products), QQi(0))


def _outcome(read, text):
    try:
        return "value", read(text)
    except ParseError as exc:
        return "error", str(exc)


# the fast path takes str.isdecimal text, which is what the reader's \d+
# matches: '٥' (Arabic-Indic five) is a digit to both, '²' (superscript
# two) to neither, and 1_000 is not an integer literal here
@pytest.mark.parametrize("text,kind", [
    ("5", "value"), ("05", "value"), ("+5", "value"), ("-5", "value"),
    (" 5 ", "value"), ("\t5\n", "value"), ("1_000", "error"),
    ("\u0665", "value"), ("\u00b2", "error"), ("5/1", "value"),
    ("5" * 5000, "error"), ("", "error"), (" ", "error"),
])
def test_parse_scalar_fast_path_reads_as_the_reader(text, kind):
    got = _outcome(parse_scalar, text)
    assert got == _outcome(_reader_scalar, text)
    assert got[0] == kind


@settings(max_examples=150, deadline=None, derandomize=True)
@given(z=gaussian_rationals)
def test_parse_scalar_inverts_format_scalar(z):
    assert parse_scalar(format_scalar(z)) == z


def _triples(dec):
    return [(t.multiplier, t.base, t.power) for t in dec.terms]


def test_parse_decomposition_term_readings():
    x, y = linear_form([1, 0]), linear_form([0, 1])
    text = ("5*x^3 - 3*(x+3*y)^3 + 2*x^2*y + (1+i)^2*y^3 - (x^2*y)"
            " + 7/2*(x^3-y^3)")
    assert _triples(parse_decomposition(text)) == [
        (QQi(5), x, 3), (QQi(-3), linear_form([1, 3]), 3),
        (QQi(2), parse_form("x^2*y"), 1), (QQi(0, 2), y, 3),
        (QQi(-1), parse_form("x^2*y"), 1),
        (QQi(Fraction(7, 2)), parse_form("x^3 - y^3"), 1)]
    # n widens every base to the stated variable count
    assert parse_decomposition("x^3", n=3).terms[0].base == linear_form([1, 0, 0])


@pytest.mark.parametrize("text", [
    "x*(x+y)^2", "5*y5*(1+2*i)^3", "(x+y)*(x-y)", "((x+y))^2", "(x+y", "0",
    "x^3 +", "(x+y)^2*(1 2)", "(x+y)^1.5", "x^2 + y^3",
])
def test_parse_decomposition_rejects(text):
    with pytest.raises(ParseError):
        parse_decomposition(text)


def test_parenthesis_nesting_is_bounded():
    assert parse_scalar("(" * 100 + "2" + ")" * 100) == QQi(2)
    with pytest.raises(ParseError, match="nested deeper than 100"):
        parse_form("(" * 5000 + "2" + ")" * 5000 + "*x")


def test_parenthesised_forms_only_in_decomposition_text():
    with pytest.raises(ParseError, match="decomposition term"):
        parse_form("(x+y)^2")
    with pytest.raises(ParseError, match="cannot parse scalar"):
        parse_scalar("(x+y)")


def _is_exact(dec):
    return all(isinstance(t.multiplier, QQi) and t.base.exact
               for t in dec.terms)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2 ** 32))
def test_parse_decomposition_inverts_the_printer(seed):
    rng = random.Random(seed)
    d = rng.randint(3, 6)
    # sums of (d+1)//2 rational d-th powers and products of four rational
    # lines, which sylvester and two-squares decompose exactly
    binary = functools.reduce(operator.add, [
        (linear_form([1, t]) ** d).scale(rng.choice([1, 2, -3, 5]))
        for t in rng.sample(range(-6, 7), (d + 1) // 2)])
    quartic = functools.reduce(operator.mul, [
        linear_form([1, t]) for t in rng.sample(range(-6, 7), 4)])
    decs = [sylvester_decompose(binary), *two_squares_all(quartic)]
    try:
        decs.append(slinky(random_form(3, 3, rng)))
    except DegenerateStage:  # a special cubic, which slinky declines
        pass
    assert all(map(_is_exact, decs))
    n = rng.randint(2, 3)
    dec = slowpoke(monomial_form(n, rng.choice(index_set(n, 3)),
                                 rng.choice([1, -1, 2, 3])))
    decs += [dec] if _is_exact(dec) else []
    for dec in decs:
        n = dec.terms[0].base.n  # the text does not show unused variables
        assert _triples(parse_decomposition(str(dec), n)) == _triples(dec)


@pytest.mark.parametrize("make", [
    lambda: sylvester_decompose(parse_form(EX310)),
    lambda: slowpoke(random_form(3, 3, random.Random(5)).approx()),
    lambda: quartic_lift(random_form(3, 4, random.Random(41))),
], ids=["exact-sylvester", "approx-slowpoke", "quartic-lift-residual"])
def test_decomposition_json_round_trip(make):
    dec = make()
    blob = json.dumps(dec.to_json(), sort_keys=True)
    back = Decomposition.from_json(json.loads(blob))
    assert json.dumps(back.to_json(), sort_keys=True) == blob
    assert back.reconstruct() == dec.reconstruct()


json_floats = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e300, -1e-300]),
                        st.floats(allow_nan=False, allow_infinity=False))
json_scalars = st.one_of(
    st.builds(QQi, st.builds(Fraction, st.integers(-10**20, 10**20),
                             st.integers(1, 10**6)),
              st.builds(Fraction, st.integers(-99, 99), st.integers(1, 13))),
    st.builds(complex, json_floats, json_floats))


@st.composite
def generated_decompositions(draw):
    """Exact, approximate and mixed terms of any power, with and without a
    residual, and JSON-safe meta."""
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 2))

    def form(deg):
        return Form(n, deg, {i: draw(json_scalars) for i in index_set(n, deg)
                             if draw(st.booleans())})

    terms = []
    for _ in range(draw(st.integers(0, 3))):
        power = draw(st.integers(1, 3))
        terms.append(Term(draw(json_scalars), form(d), power))
    residual = form(d * terms[0].power if terms else d) if (
        not terms or draw(st.booleans())) else None
    meta = draw(st.dictionaries(
        st.sampled_from(["stage", "algorithm", "é"]),
        st.one_of(st.integers(), st.sampled_from(["exact", "ü"]), json_floats,
                  st.lists(st.integers(-9, 9), max_size=3)), max_size=2))
    return Decomposition(terms, residual, {"theorem": "generated", **meta})


def scalar_bits(v):
    if isinstance(v, QQi):
        return ("QQi", v.a, v.b, v.d)
    return ("complex", v.real.hex(), v.imag.hex())


def decomposition_bits(dec):
    def form(p):
        return p.n, p.d, p.exact, {i: scalar_bits(v) for i, v in p._a.items()}

    return ([(scalar_bits(t.multiplier), form(t.base), t.power)
             for t in dec.terms],
            None if dec.residual is None else form(dec.residual), dec.meta)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(dec=generated_decompositions())
def test_generated_decomposition_json_round_trips(dec):
    blob = json.dumps(dec.to_json(), sort_keys=True)
    back = Decomposition.from_json(json.loads(blob))
    assert decomposition_bits(back) == decomposition_bits(dec)
    assert json.dumps(back.to_json(), sort_keys=True) == blob


# -- exact snapping --------------------------------------------------------------


def snapped_reference(dec, target, max_den=SNAP_MAX_DEN):
    """Decomposition.snapped decided by the exact rebuild alone."""
    if not target.exact:
        return None
    terms = [Term(snap_scalar(t.multiplier, max_den), t.base.snapped(max_den),
                  t.power) for t in dec.terms]
    residual = (dec.residual.snapped(max_den) if dec.residual is not None
                else None)
    cand = Decomposition(terms, residual, dict(dec.meta))
    return cand if cand.reconstruct() == target else None


def approx_of(dec):
    return Decomposition([Term(complex(t.multiplier), t.base.approx(), t.power)
                          for t in dec.terms],
                         dec.residual.approx() if dec.residual is not None
                         else None, dict(dec.meta))


small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
gaussian = st.builds(QQi, small, small)


@st.composite
def exact_decompositions(draw):
    n = draw(st.integers(1, 3))
    power = draw(st.integers(1, 4))
    terms = [Term(draw(gaussian),
                  linear_form([draw(gaussian) for _ in range(n)]), power)
             for _ in range(draw(st.integers(1, 3)))]
    residual = None
    if draw(st.booleans()):
        residual = Form(n, power, {idx: draw(gaussian)
                                   for idx in index_set(n, power)})
    return Decomposition(terms, residual, {"theorem": "test"})


@settings(max_examples=120, deadline=None, derandomize=True)
@given(dec=exact_decompositions(), nudge=gaussian, at=st.integers(0, 20),
       den=st.sampled_from([1, 7, SNAP_MAX_DEN + 1, MOD_P]))
def test_snapped_matches_the_exact_only_reference(dec, nudge, at, den):
    exact = dec.reconstruct()
    idx = index_set(exact.n, exact.d)
    target = exact + Form(exact.n, exact.d,
                          {idx[at % len(idx)]: nudge / den})
    for want in (exact, target):
        approx = approx_of(dec)
        got = approx.snapped(want)
        assert got == snapped_reference(approx, want)
        if want == exact:
            assert got is not None and got.reconstruct() == exact


def test_snapped_refutes_a_perturbed_candidate_without_rebuilding(monkeypatch):
    target = parse_form(EX310)
    dec = approx_of(parse_decomposition("5*(x+2*y)^3 - 3*(x+3*y)^3"))
    assert dec.snapped(target).reconstruct() == target
    base = dec.terms[1].base
    dec.terms[1] = Term(dec.terms[1].multiplier,
                        base + Form(2, 1, {(0, 1): 1 / 7 + 0j}), 3)

    def refuse(self):
        raise AssertionError("the exact rebuild ran")

    monkeypatch.setattr(Decomposition, "reconstruct", refuse)
    assert dec.snapped(target) is None


def test_snapped_target_with_no_image_mod_p_reaches_the_exact_rebuild(
        monkeypatch):
    rebuild = Decomposition.reconstruct
    calls = []

    def counted(self):
        calls.append(self)
        return rebuild(self)

    monkeypatch.setattr(Decomposition, "reconstruct", counted)
    target = parse_form(EX310) + Form(2, 3, {(0, 3): QQi(Fraction(1, MOD_P))})
    dec = approx_of(parse_decomposition("5*(x+2*y)^3 - 3*(x+3*y)^3"))
    assert dec.snapped(target) is None
    assert len(calls) == 1


def test_snapped_candidate_that_does_not_fit_raises_as_before():
    target = parse_form(EX310)
    with pytest.raises(ValueError, match="empty decomposition"):
        Decomposition([]).snapped(target)
    x = linear_form([1, 0]).approx()
    with pytest.raises(ShapeMismatch):
        Decomposition([Term(1 + 0j, x, 3), Term(1 + 0j, x, 2)]).snapped(target)
    wide = Decomposition([Term(1 + 0j, linear_form([1, 0, 0]).approx(), 3)])
    assert wide.snapped(target) is None


@st.composite
def nudged_float_decompositions(draw):
    """(a float decomposition, the exact form it was made from): bases of
    degree 1 or 2, and one multiplier or coefficient, perhaps at a pure
    power x_j^deg, perhaps nudged off its exact value."""
    n, deg, power = (draw(st.integers(1, 3)), draw(st.integers(1, 2)),
                     draw(st.integers(1, 3)))

    def form(d):
        return Form(n, d, {i: draw(gaussian) for i in index_set(n, d)
                           if draw(st.booleans())})

    exact = Decomposition([Term(draw(gaussian), form(deg), power)
                           for _ in range(draw(st.integers(1, 3)))],
                          form(deg * power) if draw(st.booleans()) else None,
                          {"theorem": "test"})
    dec = approx_of(exact)
    nudge = complex(draw(gaussian)) / draw(st.sampled_from([1, 7, SNAP_MAX_DEN + 1]))
    k = draw(st.integers(0, len(dec.terms)))
    if k == len(dec.terms) or draw(st.booleans()):
        f = dec.residual if k == len(dec.terms) else dec.terms[k].base
        if f is not None:
            idx = draw(st.sampled_from(index_set(f.n, f.d)))
            f = f + Form(f.n, f.d, {idx: nudge})
            if k == len(dec.terms):
                dec.residual = f
            else:
                dec.terms[k] = Term(dec.terms[k].multiplier, f, power)
    else:
        dec.terms[k] = Term(dec.terms[k].multiplier + nudge, dec.terms[k].base, power)
    return dec, exact.reconstruct()


@settings(max_examples=150, deadline=None, derandomize=True)
@given(case=nudged_float_decompositions())
def test_snapped_refuting_at_pure_powers_keeps_the_full_path_result(case):
    dec, target = case
    assert dec.snapped(target) == snapped_reference(dec, target)


def test_snapped_refutes_at_a_pure_power_before_snapping_the_bases(monkeypatch):
    target = parse_form(EX310)
    dec = approx_of(parse_decomposition("5*(x+2*y)^3 - 3*(x+3*y)^3"))
    snap = Form.snapped
    calls = []
    monkeypatch.setattr(Form, "snapped", lambda self, max_den=SNAP_MAX_DEN:
                        calls.append(self) or snap(self, max_den))
    # a y^3 coefficient off: refuted before any base is snapped
    off = Decomposition(dec.terms[:1] + [Term(dec.terms[1].multiplier, dec.terms[1].base
                                              + Form(2, 1, {(0, 1): 1 / 7 + 0j}), 3)])
    assert off.snapped(target) is None and calls == []
    # an x^2 y coefficient off: only the full path refutes it
    mixed = Decomposition(dec.terms, Form(2, 3, {(2, 1): 1 / 7 + 0j}))
    assert mixed.snapped(target) is None and len(calls) == 3
    # the exact snap itself is found as before
    assert dec.snapped(target).reconstruct() == target


# -- acceptance and scale -----------------------------------------------------------


def test_verify_is_relative_below_norm_one():
    # the two cubics differ by about 5x their own norm
    p = parse_form("1e-9*x^3 + 2e-9*y^3").approx()
    dec = Decomposition([Term(5e-9, linear_form([1.0, -1.0]), 3)])
    assert not dec.verify(p, ACCEPT_TOL)
    assert dec.accepted(p) is None


def test_accepted_prefers_the_exact_snap():
    target = parse_form(EX310)
    dec = approx_of(parse_decomposition("5*(x+2*y)^3 - 3*(x+3*y)^3"))
    got = dec.accepted(target)
    assert got is not None and got.reconstruct() == target
    assert dec.accepted(target.approx()) is dec


def _reichstein_step(p):
    dec, residual = multivar.reichstein_step(p)
    return Decomposition(dec.terms, residual)


# decompose algorithm: (n, d, call) for the scale property below
_DECOMPOSERS = {
    "sylvester": (2, 5, sylvester_decompose),
    "mixed": (2, 4, lambda p: binary.mixed_decompose(
        p, binary.MixedSpec([parse_form("x+2*y")], 2))),
    "two-squares": (2, 4, two_squares_all),
    "quartic-six": (2, 4, binary.quartic_six_for_form),
    "quartic-two-fixed": (2, 4, lambda p: binary.quartic_two_fixed(
        p, parse_form("x+y"), parse_form("x-3*y"))),
    "uppertri": (3, 2, lambda p: Decomposition(
        [Term(1, row, 2) for row in multivar.uppertri(p).rows])),
    "reichstein": (3, 3, multivar.reichstein_full),
    "reichstein-step": (3, 3, _reichstein_step),
    "slinky": (3, 3, slinky),
    "slowpoke": (3, 3, slowpoke),
    "quartic-lift": (3, 4, quartic_lift),
}


@pytest.mark.parametrize("algo", list(_DECOMPOSERS))
def test_every_decomposer_gives_c_times_p_the_verdict_of_p(algo):
    """Each decomposer on c*p for four seeded p, both backends, c from 2^-40
    to 1e20: a result rebuilds c*p within ACCEPT_TOL of its norm, a refusal
    is a CanonformError, and the verdict is the one at c = 1."""
    n, d, call = _DECOMPOSERS[algo]
    successes = 0
    for seed, exact in itertools.product(range(4), (True, False)):
        base, verdicts = random_form(n, d, random.Random(seed)), []
        for c in (1, 2.0 ** -40, 1e-12, 1e-20, 1e20):
            p = (base.scale(QQi(Fraction(c))) if exact
                 else base.approx().scale(complex(c)))
            try:
                result = call(p)
            except CanonformError:
                verdicts.append(False)
                continue
            for dec in result if isinstance(result, list) else [result]:
                err = (dec.reconstruct().approx() - p.approx()).norm()
                assert err <= ACCEPT_TOL * p.norm(), (seed, exact, c)
            verdicts.append(True)
        successes += verdicts[0]
        assert verdicts == verdicts[:1] * 5, (seed, exact, verdicts)
    assert successes


_dyadics = st.builds(math.ldexp, st.integers(-2**53, 2**53), st.integers(-60, 20))
_dyadic_cubics = st.lists(st.builds(complex, _dyadics, _dyadics),
                          min_size=4, max_size=4).map(
    lambda vs: Form(2, 3, dict(zip(index_set(2, 3), vs))))


@given(p=_dyadic_cubics, r=_dyadic_cubics, near=st.floats(0, 2),
       eps=st.sampled_from([1e-12, 1e-9, 1e-7]), k=st.integers(-80, 80))
def test_form_zero_and_closeness_verdicts_are_scale_invariant(p, r, near, eps, k):
    # r is rescaled to near * eps * |p|, on either side of the bound; scaling
    # every input and the scale by 2^k keeps each verdict
    c = 2.0 ** k
    small = r.scale(near * eps * p.norm() / r.norm()) if r.norm() else r
    scale = p.norm()
    assert (small.scale(c).is_zero(eps, scale * c)
            == small.is_zero(eps, scale))
    assert (forms_close(p.scale(c), (p + small).scale(c), eps)
            == forms_close(p, p + small, eps))
