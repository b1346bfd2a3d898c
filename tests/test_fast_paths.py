"""The fast paths of decompose against the code they stand in for.

parse_form scans plain text one term per match (decompositions._scan) and
hands anything else to the recursive-descent reader; Decomposition.verify
rebuilds a float decomposition on one complex array.  Each must give what
the reader, or forms_close on reconstruct(), gives.
"""

import contextlib
import io
import random
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform import QQi, cli
from canonform.decompositions import (ACCEPT_TOL, Decomposition, Term, _form,
                                      _scan, forms_close, parse_form)
from canonform.errors import ParseError
from canonform.forms import (Form, _Reader, index_set, linear_form,
                             monomial_form, multinomial)
from tests_support import bench_module, fuzz_argvs

TESTS = Path(__file__).resolve().parent


def _pool_argvs(monkeypatch) -> list[list[str]]:
    """The decompose benchmark pool's argvs, read from bench/workloads.py."""
    return [list(req.argv) for req in
            bench_module(monkeypatch, "workloads").decompose_pool()]


def _form_text(argv: list[str]) -> str:
    return argv[argv.index("decompose") + 2]


# -- the term scanner ------------------------------------------------------------


def outcome(build):
    """The form build() returns (its indices and QQi triples in dict order)
    or the error it raises, as type and message."""
    try:
        p = build()
    except (ParseError, ValueError) as exc:
        return type(exc), str(exc)
    return p.n, p.d, [(i, v.a, v.b, v.d) for i, v in p._a.items()]


def reader_outcome(text, n=None, d=None):
    return outcome(lambda: _form(_Reader(text).read(), n, d))


def check_scan(text, n=None, d=None) -> bool:
    """The scanner gives the reader's products or declines, and parse_form
    gives the reader's form or error; whether the scanner took the text."""
    products = _scan(text)
    if products is not None:
        assert products == _Reader(text).read(), text
    assert outcome(lambda: parse_form(text, n, d)) == reader_outcome(text, n, d), text
    return products is not None


def _corpus_rows():
    return [line.split("\t") for line in
            (TESTS / "parse_corpus.tsv").read_text().splitlines()
            if line and not line.startswith("#")]


def test_scanner_reads_the_corpus_as_the_reader_does():
    taken, refused = 0, 0
    for kind, _, _, text in _corpus_rows():
        taken += check_scan(text)
        if kind == "dec":  # not form text: the reader's ParseError stands
            assert _scan(text) is None
            with pytest.raises(ParseError) as err:
                parse_form(text)
            assert reader_outcome(text) == (ParseError, str(err.value))
            refused += 1
    assert taken > 280 and refused > 500


def test_scanner_takes_every_pool_text(monkeypatch):
    texts = {_form_text(argv) for argv in _pool_argvs(monkeypatch)}
    assert len(texts) == 208
    assert all(check_scan(text) for text in texts)


NAMES = ["x", "y", "z"] + [f"x{k}" for k in range(1, 8)]
SPACE = st.sampled_from(["", " ", "  "])
INTEGER = st.integers(0, 10**14).map(str)
RATIO = st.builds(lambda p, q: f"{p}/{q}", st.integers(0, 99), st.integers(1, 99))
PART = st.one_of(INTEGER, RATIO)


@st.composite
def plain_coefficient(draw):
    """Text the scanner takes: none, an integer, p/q, (a) or (a±b*i)."""
    kind = draw(st.sampled_from(["none", "number", "zero", "paren", "gauss"]))
    s = draw(SPACE)
    if kind == "none":
        return ""
    if kind in ("number", "zero"):
        return (draw(PART) if kind == "number" else "0") + f"{s}*{s}"
    a = draw(st.sampled_from(["", "-", "+"])) + s + draw(PART)
    if kind == "gauss":
        a += f"{s}{draw(st.sampled_from('+-'))}{s}{draw(PART)}{s}*{s}i"
    return f"({s}{a}{s}){s}*{s}"


@st.composite
def monomial(draw, degree):
    """degree split over a few variables, named x/y/z or xk, a variable
    possibly repeated and an exponent of 1 possibly written out."""
    parts, left = [], degree
    while left:
        e = draw(st.integers(1, left))
        left -= e
        name = draw(st.sampled_from(NAMES))
        s = draw(SPACE)
        written = e > 1 or draw(st.booleans())
        parts.append(f"{name}{s}^{s}{e}" if written else name)
    return "*".join(parts)


@st.composite
def plain_texts(draw):
    """A sum of coef*monomial terms of one degree, with signs and spaces,
    and sometimes a term written again with the opposite sign."""
    d = draw(st.integers(1, 4))
    terms = []
    for _ in range(draw(st.integers(1, 5))):
        coef, mono = draw(plain_coefficient()), draw(monomial(d))
        terms.append((draw(st.sampled_from(["+", "-"])), coef + mono))
        if draw(st.integers(0, 4)) == 0:
            terms.append(("-" if terms[-1][0] == "+" else "+", coef + mono))
    s = draw(SPACE)
    text = draw(st.sampled_from(["", "-", "+"])) + s + terms[0][1]
    for sign, term in terms[1:]:
        text += f"{draw(SPACE)}{sign}{s}{term}"
    return text + draw(SPACE)


# pieces the scanner leaves to the reader: decimals, i, implicit products,
# powers of numbers, nested parentheses, bad names and stray characters
OTHER = st.sampled_from([
    "1.5*", "2e3*", "i*", "2*i*", "(1+i)*", "(1+2*i)^2*", "((3))*", "3 ",
    "(1/2+i*3)*", "x0*", "w*", "3/0*", "1/2/3*", "(1-2*i*", "*", "^2*", "+-"])


@st.composite
def other_texts(draw):
    text = draw(plain_texts())
    at = draw(st.integers(0, len(text)))
    return text[:at] + draw(OTHER) + text[at:]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=plain_texts(), n=st.one_of(st.none(), st.integers(1, 8)),
       d=st.one_of(st.none(), st.integers(0, 5)))
def test_scanner_takes_plain_text_and_reads_it_as_the_reader(text, n, d):
    assert check_scan(text, n, d)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(text=other_texts())
def test_scanner_leaves_other_text_to_the_reader(text):
    check_scan(text)


@pytest.mark.parametrize("text", [
    "x^2 + 3.5*x*y", "2x^2", "x y", "i*x", "x^2 +", "", "  ", "x^2 - - y^2",
    "x^2*y^01 + 1/0*y^3", "3*x*5*y", "x1a^2", "x^2^3", "(2)^2*x",
    "x^" + "9" * 5000, "9" * 5000 + "*x"])
def test_scanner_declines_what_it_does_not_read(text):
    assert _scan(text) is None
    check_scan(text)


# -- the array verify -------------------------------------------------------------


def verdicts(dec, p, eps):
    """(Decomposition.verify, forms_close on reconstruct()) for one case."""
    with np.errstate(all="ignore"):
        return dec.verify(p, eps), forms_close(dec.reconstruct(), p, eps)


def _record_decompositions(argvs) -> list:
    """(decomposition, target, eps) for every decomposition that accepted()
    is asked about while argvs run through the CLI."""
    seen, accepted = [], Decomposition.accepted

    def spy(self, p, eps=1e-9):
        seen.append((self, p, max(eps, ACCEPT_TOL)))
        return accepted(self, p, eps)

    Decomposition.accepted = spy
    try:
        for argv in argvs:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                cli.main(list(argv))
    finally:
        Decomposition.accepted = accepted
    return seen


def _has_float(dec) -> bool:
    return (any(not t.base.exact or isinstance(t.multiplier, (float, complex))
                for t in dec.terms)
            or dec.residual is not None and not dec.residual.exact)


def test_array_verify_agrees_on_the_pool_and_the_fuzz(monkeypatch):
    seen = _record_decompositions(_pool_argvs(monkeypatch) + fuzz_argvs())
    got = [verdicts(dec, p, eps) for dec, p, eps in seen]
    assert [i for i, (a, b) in enumerate(got) if a != b] == []
    floats = [ok for (dec, _, _), (ok, _) in zip(seen, got) if _has_float(dec)]
    assert len(floats) > 900 and floats.count(False) > 20


def _random_linear(rng, n):
    return linear_form([complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
                        for _ in range(n)])


def _random_form(rng, n, d):
    return Form(n, d, {i: complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
                       for i in index_set(n, d)})


def _decomposition(rng, n, d, residual):
    """A float decomposition of shape (n, d) whose largest weighted
    coefficient is at x1^d, with unit weight: a power of a linear form with
    a large multiplier, powers of random linear forms, for n = 2 a power of a
    binary quadratic and one of a cubic, and a random residual if asked."""
    unit = linear_form([1.0] + [0.0] * (n - 1))
    terms = [Term(complex(8e4, 6e4), unit, d)]
    terms += [Term(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                   _random_linear(rng, n), d) for _ in range(n + 1)]
    if n == 2:
        terms += [Term(1, _random_form(rng, 2, 2), d // 2),
                  Term(-0.5 + 0j, _random_form(rng, 2, 3), d // 3)]
    return Decomposition(terms, _random_form(rng, n, d) if residual else None)


def _target(dec, eps, factor, exact):
    """The rebuilt form moved at the monomial of largest multinomial by
    factor times the bound eps * norm, as a float or an exact form."""
    rebuilt = dec.reconstruct()
    idx = max(index_set(rebuilt.n, rebuilt.d), key=multinomial)
    shift = factor * eps * rebuilt.norm() / multinomial(idx) * complex(0.6, 0.8)
    p = rebuilt + Form(rebuilt.n, rebuilt.d, {idx: shift})
    if exact:
        p = Form(p.n, p.d, {i: QQi(Fraction(v.real), Fraction(v.imag))
                            for i, v in p._a.items()})
    return p


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
@pytest.mark.parametrize("residual", [False, True])
@pytest.mark.parametrize("exact", [False, True])
def test_array_verify_agrees_at_half_and_twice_the_bound(n, residual, exact):
    rng, eps = random.Random(f"{n}:{residual}:{exact}"), ACCEPT_TOL
    for d in ([6] if n == 2 else [2, 3, 4]):
        dec = _decomposition(rng, n, d, residual)
        for factor, want in ((0.5, True), (2.0, False)):
            p = _target(dec, eps, factor, exact)
            assert verdicts(dec, p, eps) == (want, want), (n, d, factor)


@pytest.mark.parametrize("exact", [True, False])
def test_array_verify_agrees_on_a_power_of_a_ternary_quadratic(exact):
    # a base that is neither linear nor binary enters the array as Term.form()
    quad = parse_form("x^2+y^2+z^2")
    dec, p = Decomposition([Term(1, quad.approx(), 2)]), quad * quad
    for shift, want in ((0, True), (QQi(1, 1) / 10**6, False)):
        target = p + monomial_form(3, (2, 1, 1), shift)
        target = target if exact else target.approx()
        assert verdicts(dec, target, ACCEPT_TOL) == (want, want)


def test_array_verify_agrees_on_non_finite_values():
    rng, nan, inf = random.Random(7), float("nan"), float("inf")
    for n, d in ((2, 6), (3, 3)):
        dec = _decomposition(rng, n, d, True)
        p = dec.reconstruct()
        t = dec.terms[1]
        cases = [
            (Decomposition([Term(nan, t.base, d)] + dec.terms[1:], dec.residual), p),
            (Decomposition([Term(inf, t.base, d)] + dec.terms[1:], dec.residual), p),
            (Decomposition(dec.terms + [Term(1.0, linear_form(
                [inf] + [1.0] * (n - 1)), d)], dec.residual), p),
            (Decomposition(dec.terms, dec.residual + monomial_form(
                n, (d,) + (0,) * (n - 1), complex(nan, 0))), p),
            (Decomposition(dec.terms, dec.residual + monomial_form(
                n, (0,) * (n - 1) + (d,), complex(inf, 0))), p),
            (dec, p + monomial_form(n, (d,) + (0,) * (n - 1), complex(inf, 0))),
            (dec, p + monomial_form(n, (d,) + (0,) * (n - 1), complex(0, nan))),
        ]
        for case, target in cases:
            for eps in (ACCEPT_TOL, 0.0):
                mine, theirs = verdicts(case, target, eps)
                assert mine == theirs, (str(case), eps)


def test_exact_decompositions_keep_the_exact_rebuild():
    p = parse_form("2*x^3 + 3*x^2*y - 21*x*y^2 - 41*y^3")
    dec = Decomposition([Term(QQi(5), parse_form("x + 2*y"), 3),
                         Term(QQi(-3), parse_form("x + 3*y"), 3)])
    off = p + monomial_form(2, (0, 3), QQi(Fraction(1, 10**30)))
    assert dec.verify(p, 1e-7) and not dec.verify(off, 1e-7)
