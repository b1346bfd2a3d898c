"""The ring operations of Form against references built only through the
validating constructors Form(...) and Form.from_raw.

The references are the straightforward versions of each operation: every
result goes through the public constructor, and float sums run in graded-lex
order.  The operations must give the same indices, bit-equal floats and the
same backend tag.
"""

import operator
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform import QQi, ShapeMismatch
from canonform.forms import (Form, _sum_into, _trusted, index_set, linear_form,
                             monomial_form, multinomial)
from canonform.scalars import as_scalar

props = settings(max_examples=150, deadline=None, derandomize=True)
# numpy warns where infinite values make nan, which both sides do alike
pytestmark = pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")

# signed zeros, a value whose square underflows, one whose cube overflows,
# infinity, and ratios that round, so that the order of a sum shows
floats = st.one_of(st.sampled_from([0.0, -0.0, 1e-170, -1e-170, 1e150,
                                    float("inf")]),
                   st.floats(-8, 8, allow_nan=False),
                   st.builds(lambda a, b: a / b, st.integers(-999, 999),
                             st.integers(1, 97)))
approx_values = st.builds(complex, floats, floats)
exact_values = st.builds(lambda a, b, c: QQi(Fraction(a, c), Fraction(b, c)),
                         st.integers(-4, 4), st.integers(-4, 4),
                         st.integers(1, 3))
# numpy's complex is a complex subclass with arithmetic of its own
outside_values = st.one_of(approx_values, approx_values.map(np.complex128))
backends = st.sampled_from(["exact", "approx"])


@st.composite
def forms(draw, n, d, backend):
    """A sparse or dense form whose dict order is not graded-lex, as after
    a sum.  Dense products have sums of many terms, whose order shows."""
    values = exact_values if backend == "exact" else approx_values
    dense = draw(st.booleans())
    return Form(n, d, {i: draw(values)
                       for i in draw(st.permutations(index_set(n, d)))
                       if dense or draw(st.booleans())})


def bits(p: Form):
    """Everything that must agree: shape, tag, indices and value bits."""
    def value(v):
        if isinstance(v, QQi):
            return ("QQi", v.a, v.b, v.d)
        return (type(v).__name__, v.real.hex(), v.imag.hex())
    return p.n, p.d, p.exact, {i: value(v) for i, v in p._a.items()}


# -- references ------------------------------------------------------------------


def ref_mul(p, q):
    raw = {}
    for i, u in p.raw_items():
        for j, v in q.raw_items():
            k = tuple(a + b for a, b in zip(i, j))
            raw[k] = raw.get(k, 0) + u * v
    return Form.from_raw(p.n, p.d + q.d, raw)


def ref_add(p, q):
    out = dict(p.items())
    for idx, v in q.items():
        s = out.get(idx, 0) + v
        if not s:
            out.pop(idx, None)
        else:
            out[idx] = s
    return Form(p.n, p.d, out)


def ref_neg(p):
    return Form(p.n, p.d, {i: -v for i, v in p.items()})


def ref_scale(p, s):
    s = as_scalar(s)
    if not s:
        return Form.zero(p.n, p.d)
    return Form(p.n, p.d, {i: v * s for i, v in p.items()})


def ref_partial(p, j):
    raw = {}
    for idx, rawc in p.raw_items():
        if idx[j]:
            new = list(idx)
            new[j] -= 1
            raw[tuple(new)] = rawc * idx[j]
    return Form.from_raw(p.n, p.d - 1, raw)


def ref_substitute(p, m):
    n_new = len(m[0])
    lins = [linear_form([as_scalar(v) for v in row]) for row in m]
    one = Form(n_new, 0, {(0,) * n_new: QQi(1)})
    powers = []
    for k in range(p.n):
        cache = [one]
        for _ in range(max((idx[k] for idx, _ in p.items()), default=0)):
            cache.append(ref_mul(cache[-1], lins[k]))
        powers.append(cache)
    out = Form.zero(n_new, p.d)
    for idx, rawc in p.raw_items():
        term = None
        for k, e in enumerate(idx):
            if e:
                term = powers[k][e] if term is None else ref_mul(term, powers[k][e])
        out = ref_add(out, ref_scale(one if term is None else term, rawc))
    return out


# -- properties --------------------------------------------------------------------


@st.composite
def pairs(draw, same_degree=False):
    n, d = draw(st.integers(1, 3)), draw(st.integers(0, 3))
    e = d if same_degree else draw(st.integers(0, 2))
    p = draw(forms(n, d, draw(backends)))
    q = draw(forms(n, e, draw(backends)))
    return p, q


@props
@given(pq=pairs())
def test_product_matches_reference(pq):
    p, q = pq
    r = p * q
    assert bits(r) == bits(ref_mul(p, q))
    assert r.exact == (p.exact and q.exact) or not r


# pairwise coprime denominators up to 13, so that the lcm of a factor's
# denominators grows; the real and imaginary parts get their own
coprime_dens = st.sampled_from([1, 2, 3, 5, 7, 11, 13])
wide_exact_values = st.builds(
    lambda a, b, c, e: QQi(Fraction(a, c), Fraction(b, e)),
    st.integers(-30, 30), st.integers(-30, 30), coprime_dens, coprime_dens)


@st.composite
def exact_pairs(draw):
    """Exact factors with n <= 4 and degree <= 4 each.  The second factor
    may be the zero form, or the first with its last variable negated, so
    that every coefficient odd in that variable cancels to zero."""
    n = draw(st.integers(1, 4))

    def factor(d):
        dense = draw(st.booleans())
        return Form(n, d, {i: draw(wide_exact_values)
                           for i in draw(st.permutations(index_set(n, d)))
                           if dense or draw(st.booleans())})

    p = factor(draw(st.integers(0, 4)))
    other = draw(st.sampled_from(["random", "zero", "mirror"]))
    if other == "zero":
        return p, Form.zero(n, draw(st.integers(0, 4)))
    if other == "mirror":
        return p, Form(n, p.d, {i: -v if i[-1] % 2 else v
                                for i, v in p.items()})
    return p, factor(draw(st.integers(0, 4)))


@props
@given(pq=exact_pairs())
def test_exact_product_over_one_denominator_matches_reference(pq):
    p, q = pq
    r = p * q
    assert bits(r) == bits(ref_mul(p, q))
    assert r.exact


@props
@given(pq=pairs(same_degree=True))
def test_sum_difference_and_negation_match_reference(pq):
    p, q = pq
    assert bits(p + q) == bits(ref_add(p, q))
    assert bits(p - q) == bits(ref_add(p, ref_neg(q)))
    assert bits(-p) == bits(ref_neg(p))
    assert bits(p.approx()) == bits(Form(p.n, p.d, {i: complex(v)
                                                    for i, v in p.items()}))
    # an empty result counts as exact whatever the backend
    assert (p - p).exact == (p.exact or not (p - p))


def test_empty_difference_of_approx_forms_is_exact():
    p = Form(2, 2, {(2, 0): 1.5, (1, 1): -2j})
    assert not p.exact and bits(p - p) == (2, 2, True, {})


@props
@given(pq=pairs(), s=st.one_of(exact_values, outside_values, st.integers(-3, 3),
                               st.just(1e-170)))
def test_scale_matches_reference(pq, s):
    p, _ = pq
    assert bits(p.scale(s)) == bits(ref_scale(p, s))


@props
@given(pq=pairs(), j=st.integers(0, 2))
def test_partial_matches_reference(pq, j):
    p, _ = pq
    if p.d and j < p.n:
        assert bits(p.partial(j)) == bits(ref_partial(p, j))


@props
@given(data=st.data(), n=st.integers(1, 3), n_new=st.integers(1, 3),
       d=st.sampled_from([1, 1, 2, 3]), backend=backends,
       entries=st.sampled_from(["exact", "approx", "mixed"]))
def test_substitute_matches_reference(data, n, n_new, d, backend, entries):
    # d == 1 takes the vector-matrix path unless the entries mix backends
    p = data.draw(forms(n, d, backend))
    values = {"exact": exact_values, "approx": outside_values,
              "mixed": st.one_of(exact_values, outside_values)}[entries]
    m = [[data.draw(values) for _ in range(n_new)] for _ in range(n)]
    assert bits(p.substitute(m)) == bits(ref_substitute(p, m))


# -- the float kernels against their tuple-keyed versions ------------------------
#
# The float product and the general substitution sum under packed monomial
# codes, in place.  These are the versions they replaced, kept as the
# reference: the results must match value bits and dict order, since a
# later sum runs in that order.


def tuple_keyed_add(p, q):
    out = dict(p._a)
    for idx, v in q._a.items():
        s = out.get(idx, 0) + v
        if not s:
            out.pop(idx, None)
        else:
            out[idx] = s
    if p._a and q._a and p.exact != q.exact:
        return Form(p.n, p.d, out)
    return _trusted(p.n, p.d, out, p.exact and q.exact)


def tuple_keyed_mul(p, q):
    if p.exact and q.exact:
        return p * q
    mine, theirs = ([(i, v * multinomial(i)) for i, v in f.items()]
                    for f in (p, q))
    raw = {}
    for i, u in mine:
        for j, v in theirs:
            k = tuple(map(operator.add, i, j))
            raw[k] = raw.get(k, 0) + u * v
    return _trusted(p.n, p.d + q.d, {k: s for k, v in raw.items()
                                     if (s := v / multinomial(k))}, False)


def tuple_keyed_substitute(p, m):
    """The general path of Form.substitute, one copy of the sum per term."""
    n_new = len(m[0])
    lins = [linear_form([as_scalar(v) for v in row]) for row in m]
    unit_form = Form(n_new, 0, {(0,) * n_new: QQi(1)})
    powers = []
    for k in range(p.n):
        cache = [unit_form]
        for _ in range(max((idx[k] for idx in p._a), default=0)):
            cache.append(tuple_keyed_mul(cache[-1], lins[k]))
        powers.append(cache)
    out = Form.zero(n_new, p.d)
    for idx, rawc in p.raw_items():
        term = unit_form
        for k, e in enumerate(idx):
            if e:
                term = (powers[k][e] if term is unit_form
                        else tuple_keyed_mul(term, powers[k][e]))
        out = tuple_keyed_add(out, term.scale(rawc))
    return out


def ordered_bits(p: Form):
    """bits(p) with the coefficients listed in dict order."""
    n, d, exact, values = bits(p)
    return n, d, exact, list(values.items())


# small halves and signed zeros, so that sums cancel to exact zero and -0.0
# parts meet +0.0 ones
cancelling = st.builds(complex, st.sampled_from([0.0, -0.0, 0.5, -0.5, 1.0, -1.0,
                                                 3.0, -3.0]),
                       st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.25]))
kernel_values = st.one_of(cancelling, approx_values)


@st.composite
def kernel_forms(draw, n, d, values):
    dense = draw(st.booleans())
    return Form(n, d, {i: draw(values)
                       for i in draw(st.permutations(index_set(n, d)))
                       if dense or draw(st.booleans())})


@st.composite
def kernel_pairs(draw):
    """Forms with n <= 6 and degrees summing to at most 4.  The second
    factor may be the first with its last variable negated, so that the
    product's odd part cancels."""
    n, d = draw(st.integers(1, 6)), draw(st.integers(0, 4))
    p = draw(kernel_forms(n, d, kernel_values))
    if draw(st.booleans()):
        return p, Form(n, d, {i: -v if i[-1] % 2 else v for i, v in p.items()})
    e = draw(st.integers(0, 4 - d))
    return p, draw(kernel_forms(n, e, st.one_of(kernel_values, exact_values)))


@props
@given(pq=kernel_pairs())
def test_float_product_keeps_tuple_keyed_bits_and_order(pq):
    p, q = pq
    if p.d + q.d <= 4:
        assert ordered_bits(p * q) == ordered_bits(tuple_keyed_mul(p, q))
        assert ordered_bits(q * p) == ordered_bits(tuple_keyed_mul(q, p))


@props
@given(data=st.data(), n=st.integers(1, 6), n_new=st.integers(1, 6),
       d=st.integers(0, 4),
       entries=st.sampled_from(["approx", "equal rows", "mixed rows"]))
def test_substitution_keeps_tuple_keyed_bits_and_order(data, n, n_new, d, entries):
    # "equal rows": the pure powers c x1^d - c x2^d + c x3^d ... under one
    # row each, so the running sum cancels to exact zero every second term.
    # "mixed rows": an exact form under a matrix whose rows are each exact
    # or float, so that the running sum meets terms of both backends
    if entries == "approx":
        p = data.draw(kernel_forms(n, d, kernel_values))
        m = [[data.draw(kernel_values) for _ in range(n_new)] for _ in range(n)]
    elif entries == "equal rows":
        c = data.draw(cancelling.filter(bool))
        p = Form(n, d, {i: c * (-1) ** i.index(d) for i in index_set(n, d)
                        if d in i})
        m = [[data.draw(cancelling) for _ in range(n_new)]] * n
    else:
        p = data.draw(kernel_forms(n, d, exact_values))
        m = [[data.draw(values) for _ in range(n_new)]
             for values in data.draw(st.lists(
                 st.sampled_from([exact_values, kernel_values]),
                 min_size=n, max_size=n))]
    assert ordered_bits(p.substitute(m)) == \
        ordered_bits(tuple_keyed_substitute(p, m))


# -- the packed-code substitution against the chained products it replaced ------


def chained_substitute(p, m):
    """Form.substitute as it was: linear forms and unit from Form(...), each
    monomial's image multiplied out of Form products (checked against
    ref_mul above) one prefix at a time, each term scaled and added to a
    running Form."""
    if len(m) != p.n:
        raise ShapeMismatch(f"matrix has {len(m)} rows, need {p.n}")
    n_new = len(m[0])
    rows = [[as_scalar(v) for v in row] for row in m]
    lins = [Form(len(row), 1, {(0,) * j + (1,) + (0,) * (len(row) - j - 1):
                               as_scalar(v) / 1 for j, v in enumerate(row)})
            for row in rows]
    unit_form = Form(n_new, 0, {(0,) * n_new: QQi(1)})
    powers = []
    for k in range(p.n):
        cache = [unit_form]
        for _ in range(max((idx[k] for idx in p._a), default=0)):
            cache.append(cache[-1] * lins[k])
        powers.append(cache)
    out, terms = Form(n_new, p.d, {}), {(): unit_form}
    for idx, rawc in p.raw_items():
        for k, e in enumerate(idx):
            if (head := idx[:k + 1]) not in terms:
                term = terms[idx[:k]]
                terms[head] = (term if not e else powers[k][e]
                               if term is unit_form else term * powers[k][e])
        out = _sum_into(out._a, out, terms[idx].scale(rawc))
    return out


def shown(p: Form):
    """Shape, tag and the coefficients in dict order, each value by type
    and repr, so that a signed zero or a nan shows."""
    return p.n, p.d, p.exact, [(i, type(v).__name__, repr(v))
                               for i, v in p._a.items()]


def outcome(run, *args):
    """What run(*args) gives: its shown form, or its error's type and text."""
    try:
        return shown(run(*args))
    except Exception as exc:  # the same error on both sides is the contract
        return type(exc), str(exc)


matrix_values = {"exact": wide_exact_values, "float": kernel_values,
                 "numpy": outside_values,
                 "mixed": st.one_of(wide_exact_values, kernel_values)}


@props
@given(data=st.data(), n=st.integers(1, 4), n_new=st.integers(1, 4),
       d=st.integers(0, 4), form=st.sampled_from(["exact", "float"]),
       entries=st.sampled_from(["exact", "float", "numpy", "mixed",
                                "mixed rows"]))
def test_substitution_matches_the_chained_products(data, n, n_new, d, form,
                                                   entries):
    p = data.draw(kernel_forms(n, d, wide_exact_values if form == "exact"
                               else kernel_values))
    if entries == "mixed rows":  # each row exact or float
        kinds = data.draw(st.lists(st.sampled_from(["exact", "float"]),
                                   min_size=n, max_size=n))
    else:
        kinds = [entries] * n
    m = [[data.draw(matrix_values[kind]) for _ in range(n_new)]
         for kind in kinds]
    got = outcome(p.substitute, m)
    assert got == outcome(chained_substitute, p, m)
    assert not isinstance(got[0], type)


@props
@given(data=st.data(), n=st.integers(2, 4), n_new=st.integers(1, 4),
       d=st.integers(2, 4))
def test_float_form_under_exact_matrix_rounds_as_the_chained_products(
        data, n, n_new, d):
    """The shear of approximate input: each float is the exact image
    coefficient rounded once, then times p's coefficient, as QQi's
    complex() and Form.scale round it."""
    p = Form(n, d, {i: data.draw(approx_values) for i in index_set(n, d)})
    m = [[data.draw(wide_exact_values) for _ in range(n_new)]
         for _ in range(n)]
    assert shown(p.substitute(m)) == shown(chained_substitute(p, m))


@pytest.mark.parametrize("values", [[QQi(1), QQi(-1), QQi(1)],
                                    [1.0 + 0j, -1.0 + 0j, 1.0 + 0j]])
def test_a_cancelled_coefficient_moves_to_the_end_as_before(values):
    """x - y + z under x -> x1 + x2, y -> x1, z -> x1: the x1 sum cancels at
    y and comes back at z, after x2, in the dict order of both versions."""
    p = Form(3, 1, dict(zip([(1, 0, 0), (0, 1, 0), (0, 0, 1)], values)))
    m = [[QQi(1), QQi(1)], [QQi(1), QQi(0)], [QQi(1), QQi(0)]]
    got = shown(p.substitute(m))
    assert got == shown(chained_substitute(p, m))
    assert [i for i, _, _ in got[3]] == [(0, 1), (1, 0)]


@props
@given(data=st.data(), n=st.integers(1, 3), d=st.integers(0, 3),
       form=st.sampled_from(["exact", "float"]),
       shape=st.sampled_from(["fewer rows", "more rows", "ragged", "empty row"]))
def test_substitution_raises_as_the_chained_products_did(data, n, d, form,
                                                         shape):
    """A wrong row count raises before anything is built; a ragged row
    raises where p uses its variable, and passes where p does not."""
    p = data.draw(kernel_forms(n, d, wide_exact_values if form == "exact"
                               else kernel_values))
    widths = [n] * n
    if shape == "fewer rows":
        widths = widths[:-1]
    elif shape == "more rows":
        widths.append(n)
    else:
        widths[data.draw(st.integers(0, n - 1))] = (
            0 if shape == "empty row" else data.draw(
                st.sampled_from([k for k in range(1, n + 2) if k != n])))
    m = [[data.draw(st.one_of(wide_exact_values, kernel_values))
          for _ in range(w)] for w in widths]
    assert outcome(p.substitute, m) == outcome(chained_substitute, p, m)


def test_substitution_error_texts():
    p = Form(2, 2, {(2, 0): QQi(1), (0, 2): QQi(3)})
    with pytest.raises(ShapeMismatch, match="matrix has 1 rows, need 2"):
        p.substitute([[1, 2]])
    with pytest.raises(ShapeMismatch, match="variable counts differ"):
        p.substitute([[1, 2], [3]])
    with pytest.raises(ValueError, match=r"bad shape \(0, 1\)"):
        p.substitute([[1, 2], []])
    with pytest.raises(TypeError, match="cannot interpret 'a' as a scalar"):
        p.substitute([[1, 2], [3, "a"]])
    # x^2 under a ragged second row: y is not used, so nothing raises
    assert Form(2, 2, {(2, 0): QQi(1)}).substitute([[1, 2], [3]]) == Form(
        2, 2, {(2, 0): QQi(1), (1, 1): QQi(2), (0, 2): QQi(4)})


# -- trusted constructors ----------------------------------------------------------

constructor_values = st.one_of(wide_exact_values, kernel_values, outside_values,
                               st.integers(-3, 3), st.just(Fraction(1, 3)),
                               st.just(1e-170), st.just(float("-inf")))


@props
@given(data=st.data(), n=st.integers(1, 4), d=st.integers(0, 4))
def test_constructors_give_what_the_validating_constructor_gives(data, n, d):
    row = data.draw(st.lists(constructor_values, min_size=n, max_size=n))
    units = [(0,) * j + (1,) + (0,) * (n - j - 1) for j in range(n)]
    want = Form(n, 1, {i: as_scalar(v) / 1 for i, v in zip(units, row)})
    assert shown(linear_form(row)) == shown(want)
    assert shown(Form.zero(n, d)) == shown(Form(n, d, {}))
    raw = {i: data.draw(constructor_values)
           for i in data.draw(st.permutations(index_set(n, d)))
           if data.draw(st.booleans())}
    divided = {i: as_scalar(v) / multinomial(i) for i, v in raw.items()}
    assert shown(Form.from_raw(n, d, raw)) == shown(Form(n, d, divided))
    idx, c = data.draw(st.sampled_from(index_set(n, d))), data.draw(
        constructor_values)
    assert shown(monomial_form(n, idx, c)) == shown(
        Form(n, d, {idx: as_scalar(as_scalar(c) / multinomial(idx))}))


def test_constructors_raise_as_the_validating_constructor_does():
    for run in (lambda: linear_form([1, "a"]), lambda: Form(2, 1, {(1, 0): "a"}),
                lambda: Form.from_raw(2, 1, {(1, 0): "a"}),
                lambda: monomial_form(2, (1, 0), "a")):
        with pytest.raises(TypeError, match="cannot interpret 'a' as a scalar"):
            run()
    for run in (lambda: linear_form([]), lambda: Form.zero(0, 1),
                lambda: Form.zero(1, -1), lambda: Form(0, 1, {})):
        with pytest.raises(ValueError, match="bad shape"):
            run()
    # user indices keep their checks: a wrong length or degree, or a
    # negative exponent, is ShapeMismatch before the multinomial is read
    for idx in [(1, 1, 0), (3,), (2, 0, 0, 1), (-1, 3), (3, -1)]:
        with pytest.raises(ShapeMismatch, match="does not fit shape"):
            monomial_form(2, idx)
    for idx in [(1, 0), (-1, 3), (3, -1)]:
        with pytest.raises(ShapeMismatch, match="does not fit shape"):
            Form.from_raw(2, 2, {idx: 1})
    with pytest.raises(ShapeMismatch, match="does not fit shape"):
        Form(2, 2, {(3, -1): 1})


# -- expansion against sympy ------------------------------------------------------


def sympy_of(p: Form, gens):
    """p as a sympy expression in gens, from its actual coefficients."""
    import sympy
    return sum((sympy_scalar(c) * sympy.Mul(*(g ** e for g, e in zip(gens, i)))
                for i, c in p.raw_items()), sympy.Integer(0))


def sympy_scalar(c: QQi):
    import sympy
    return sympy.Rational(c.a, c.d) + sympy.I * sympy.Rational(c.b, c.d)


def expanded(expr, gens) -> dict:
    """The actual coefficients of sympy's expansion of expr, as QQi."""
    import sympy
    out = {}
    for mono, c in sympy.Poly(sympy.expand(expr), *gens).terms():
        if c:
            re, im = c.as_real_imag()
            out[mono] = QQi(Fraction(int(re.p), int(re.q)),
                            Fraction(int(im.p), int(im.q)))
    return out


def agrees(got: Form, want: dict, exact: bool) -> bool:
    """got's actual coefficients are want's: equal when exact, else within a
    relative 1e-12 of the largest."""
    have = dict(got.raw_items())
    if exact:
        return got.exact and have == want
    top = max((abs(complex(v)) for v in want.values()), default=1.0)
    return not got.exact and all(
        abs(complex(have.get(i, 0)) - complex(want.get(i, 0))) <= 1e-12 * top
        for i in set(have) | set(want))


oracle = settings(max_examples=12, deadline=None, derandomize=True)
small_shapes = st.tuples(st.integers(1, 3), st.integers(0, 4))


@oracle
@given(data=st.data(), shape=small_shapes, e=st.integers(0, 4),
       backend=backends)
def test_product_is_sympys_expansion(data, shape, e, backend):
    sympy = pytest.importorskip("sympy")
    n, d = shape
    gens = sympy.symbols(f"x:{n}")
    p = data.draw(forms(n, d, "exact"))
    q = data.draw(forms(n, e, "exact"))
    want = expanded(sympy_of(p, gens) * sympy_of(q, gens), gens)
    if backend == "approx":
        p, q = p.approx(), q.approx()
    assert agrees(p * q, want, backend == "exact")


@oracle
@given(data=st.data(), shape=small_shapes)
def test_power_is_sympys_expansion(data, shape):
    sympy = pytest.importorskip("sympy")
    n, d = shape
    gens = sympy.symbols(f"x:{n}")
    p = data.draw(forms(n, d, "exact"))
    for k in range(4 if d <= 2 else 3):  # sympy's expand is slow
        assert agrees(p ** k, expanded(sympy_of(p, gens) ** k, gens), True)


@oracle
@given(data=st.data(), shape=small_shapes, n_new=st.integers(1, 3))
def test_substitution_is_sympys_expansion(data, shape, n_new):
    sympy = pytest.importorskip("sympy")
    n, d = shape
    xs, ys = sympy.symbols(f"x:{n}"), sympy.symbols(f"y:{n_new}")
    p = data.draw(forms(n, d, "exact"))
    m = [[data.draw(exact_values) for _ in range(n_new)] for _ in range(n)]
    image = {x: sum(sympy_scalar(v) * y for v, y in zip(row, ys))
             for x, row in zip(xs, m)}
    want = expanded(sympy_of(p, xs).subs(image, simultaneous=True), ys)
    assert agrees(p.substitute(m), want, True)
