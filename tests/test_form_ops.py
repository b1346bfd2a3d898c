"""The ring operations of Form against references built only through the
validating constructors Form(...) and Form.from_raw.

The references are the straightforward versions of each operation: every
result goes through the public constructor, and float sums run in graded-lex
order.  The operations must give the same indices, bit-equal floats and the
same backend tag.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform import QQi
from canonform.forms import Form, index_set, linear_form
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
