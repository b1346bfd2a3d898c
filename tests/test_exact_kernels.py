"""The integer kernels of the exact paths against the QQi arithmetic they
replace: closed-form powers of linear forms, the one-pass rebuild of a
decomposition, the one-pass stages of slinky, completion of squares,
Reichstein's completion of the cube and the quartic lift (on both
backends), fraction-free row reduction and the integer root test."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform import QQi, random_form
from canonform.commands import _sheared
from canonform.decompositions import (ACCEPT_TOL, _deflate_exact, _dense,
                                      _linear_powers, check_decomposable)
from canonform.errors import (CanonformError, DegenerateInput,
                              DegeneratePencil, DegenerateStage, PivotZero)
from canonform.forms import (Decomposition, Form, Term, index_set,
                             linear_coeffs, linear_form, power_of_linear)
from canonform.linalg import exact_rref
from canonform.multivar import (_eliminate, pencil_diagonalize, quadratic_row,
                                quartic_lift, reichstein_full, reichstein_step,
                                slinky, uppertri_pairs)
from canonform.scalars import EPS_DEFAULT, scalar_is_zero

props = settings(max_examples=150, deadline=None, derandomize=True)

# pairwise coprime denominators, so that the lcm of a row or form grows
dens = st.sampled_from([1, 2, 3, 5, 7, 11, 13])
exact_values = st.builds(lambda a, b, c, e: QQi(Fraction(a, c), Fraction(b, e)),
                         st.integers(-30, 30), st.integers(-30, 30), dens, dens)
float_values = st.builds(complex, st.floats(-8, 8), st.floats(-8, 8))


def bits(p: Form):
    return p.n, p.d, p.exact, {i: (v.a, v.b, v.d) if isinstance(v, QQi)
                               else (v.real.hex(), v.imag.hex())
                               for i, v in p._a.items()}


@st.composite
def forms(draw, n, d, exact=True):
    """A form with some monomials absent; an absent variable is likely."""
    values = exact_values if exact else float_values
    return Form(n, d, {i: draw(values) for i in index_set(n, d)
                       if draw(st.booleans())})


# -- powers of linear forms ------------------------------------------------------


@props
@given(data=st.data(), n=st.integers(1, 4), k=st.integers(0, 7))
def test_exact_linear_power_is_repeated_exact_product(data, n, k):
    lin = data.draw(forms(n, 1))
    want = Form(n, 0, {(0,) * n: QQi(1)})
    for _ in range(k):
        want = want * lin  # the exact product of two Forms
    assert bits(lin ** k) == bits(want)
    assert bits(power_of_linear(linear_coeffs(lin), k)) == bits(want)


@props
@given(alpha=st.lists(float_values, min_size=1, max_size=4), k=st.integers(1, 12))
def test_float_linear_power_is_repeated_product_to_rounding(alpha, k):
    lin = linear_form(alpha)
    want = lin
    for _ in range(k - 1):
        want = want * lin
    got = power_of_linear(alpha, k)
    assert (got.n, got.d, got.exact) == (want.n, want.d, want.exact)
    cut = 1e-14 * max((abs(v) for v in want._a.values()), default=0.0)
    assert all(abs(got.a(i) - want.a(i)) <= cut
               for i in got._a.keys() | want._a.keys())


def linear_power_by_products(mu, coeffs, d: int) -> Form:
    """mu (c . x)^d as d exact Form products, one factor at a time."""
    n = len(coeffs)
    want = Form(n, 0, {(0,) * n: QQi(1)})
    for _ in range(d):
        want = want * linear_form(coeffs)
    return want.scale(mu)


@st.composite
def supported_rows(draw, n):
    """An exact row whose zeros follow one pattern: all zero, one variable,
    a triangular range x_i..x_j, or any subset."""
    kind = draw(st.sampled_from(["zero", "single", "range", "any"]))
    if kind == "zero":
        keep = set()
    elif kind == "single":
        keep = {draw(st.integers(0, n - 1))}
    elif kind == "range":
        i = draw(st.integers(0, n - 1))
        keep = set(range(i, draw(st.integers(i, n - 1)) + 1))
    else:
        keep = {k for k in range(n) if draw(st.booleans())}
    return [draw(exact_values) if k in keep else QQi(0) for k in range(n)]


@props
@given(data=st.data(), n=st.integers(1, 7), d=st.integers(0, 5))
def test_linear_powers_over_supports_are_the_form_products(data, n, d):
    terms = [(data.draw(exact_values), data.draw(supported_rows(n)))
             for _ in range(data.draw(st.integers(1, 4)))]
    want = Form.zero(n, d)
    for mu, coeffs in terms:
        want = want + linear_power_by_products(mu, coeffs, d)
    for mu, coeffs in terms:
        assert bits(power_of_linear(coeffs, d)) == \
            bits(linear_power_by_products(QQi(1), coeffs, d))
    if data.draw(st.booleans()):  # one float term: summed apart, added last
        extra = (data.draw(float_values), data.draw(st.lists(
            float_values, min_size=n, max_size=n)))
        want = want + _linear_powers(n, d, [extra])
        terms.insert(data.draw(st.integers(0, len(terms))), extra)
    dec = Decomposition([Term(mu, linear_form(c), d) for mu, c in terms])
    assert bits(_linear_powers(n, d, terms)) == bits(want)
    assert bits(dec.reconstruct()) == bits(want)


# -- the stages of slinky, completion of squares, Reichstein and the quartic
# -- lift, one power at a time ----------------------------------------------------


def uppertri_pairs_by_terms(p: Form, eps: float = EPS_DEFAULT):
    """uppertri_pairs subtracting each pivot square as its own Form product."""
    n, scale, work, out = p.n, p.norm(), p, []
    for k in range(n):
        if work.is_zero(eps, scale=scale):
            break
        a = work.raw(tuple(2 * (j == k) for j in range(n)))
        if any(idx[k] and not scalar_is_zero(v, eps, scale) for idx, v in work.items()):
            if scalar_is_zero(a, eps, scale):
                raise PivotZero(k + 1)
            lrow = linear_form(quadratic_row(work, k))
            out.append((k, a, lrow))
            work = work - (lrow * lrow).scale(1 / a)
        if (work := _eliminate(work, [k], max(ACCEPT_TOL, eps), scale)) is None:
            raise DegenerateInput(f"the residual kept x{k + 1}")
    return out


def slinky_by_terms(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """slinky subtracting each cube as its own Term.form()."""
    check_decomposable(p, p.d == 3, "need a cubic form")
    n, current, terms, stages = p.n, p, [], []
    for t in range(n - 1, 0, -1):
        h, stage = current.partial(t), n - t
        if h.is_zero(eps, scale=p.norm()):
            stages.append({"stage": stage, "eliminated": t + 1, "cubes": 0})
            continue
        try:
            pairs = uppertri_pairs_by_terms(h, eps)
        except PivotZero as exc:
            raise DegenerateStage(stage, f"square completion pivot: {exc}") from exc
        stages.append({"stage": stage, "eliminated": t + 1, "cubes": len(pairs)})
        for k, a, lrow in pairs:
            coeffs = linear_coeffs(lrow)
            if scalar_is_zero(tail := coeffs[t], eps,
                              scale=max(abs(complex(v)) for v in coeffs)):
                raise DegenerateStage(stage, f"t_jn = 0 for row {k + 1}")
            terms.append(Term(1 / (3 * a * tail), lrow, 3))
            current = current - terms[-1].form()
        current = _eliminate(current, [t], max(ACCEPT_TOL, eps), p.norm())
        if current is None:
            raise DegenerateStage(stage, "residual kept the eliminated variable")
    if not current.is_zero(eps, scale=p.norm()):
        c = current.raw(tuple([3] + [0] * (n - 1)))
        terms.append(Term(c, linear_form([1] + [0] * (n - 1)), 3))
        stages.append({"stage": n, "eliminated": 1, "cubes": 1})
    dec = Decomposition(terms, meta={"theorem": "slinky", "stages": stages})
    if (dec := dec.accepted(p, eps)) is None:
        raise DegenerateStage(n, "reconstruction check failed")
    return dec


def reichstein_step_by_terms(p: Form, eps: float = EPS_DEFAULT):
    """reichstein_step subtracting each cube as its own Term.form()."""
    f, g, scale = p.partial(0), p.partial(1), p.norm()
    if f.is_zero(eps, scale=scale) or g.is_zero(eps, scale=scale):
        raise DegeneratePencil("a leading partial derivative vanishes")
    diag = pencil_diagonalize(f, g, eps)
    terms, q = [], p.approx()
    for lf, c in zip(diag.forms, diag.eigenvalues):
        coeffs = linear_coeffs(lf)
        a1, a2 = complex(coeffs[0]), complex(coeffs[1])
        cscale = max(abs(complex(v)) for v in coeffs)
        if abs(a1) <= eps ** 0.5 * cscale:
            raise DegeneratePencil("alpha_i1 = 0 for a pencil form")
        if abs(a2 - c * a1) > 1e-6 * cscale:
            raise DegeneratePencil("mixed-partials consistency check failed")
        terms.append(Term(1.0 / (3 * a1), lf, 3))
        q = q - terms[-1].form()
    if (q := _eliminate(q, [0, 1], max(1e-6, eps), scale)) is None:
        raise DegeneratePencil("reichstein residual: residual depends on "
                               "eliminated variables")
    return Decomposition(terms, meta={"theorem": "reichstein"}), q


def quartic_lift_by_terms(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """quartic_lift for n >= 2 subtracting each fourth power as its own
    Term.form()."""
    n, last, scale = p.n, p.n - 1, p.norm()
    if (pn := p.partial(last)).is_zero(eps, scale=scale):
        raise DegenerateStage(1, "dp/dx_n = 0")
    try:
        cubes = reichstein_full(pn, eps)
    except DegeneratePencil as exc:
        raise DegenerateStage(1, f"cubic stage failed: {exc}") from exc
    terms, q = [], p.approx()
    for t in cubes.terms:
        coeffs = linear_coeffs(t.base)
        if scalar_is_zero(tail := coeffs[last], eps ** 0.5,
                          scale=max(abs(complex(v)) for v in coeffs)):
            raise DegenerateStage(1, "a cube misses x_n (t_mn = 0)")
        terms.append(Term(t.multiplier / (4 * tail), t.base, 4))
        q = q - terms[-1].form()
    if (residual := _eliminate(q, [last], max(1e-6, eps), scale)) is None:
        raise DegenerateStage(1, "residual kept x_n")
    dec = Decomposition(terms, residual=residual,
                        meta={"theorem": "quartic-lift",
                              "stages": [{"stage": 1, "eliminated": n,
                                          "powers": len(terms)}]}).accepted(p, eps)
    if dec is None:
        raise DegenerateStage(1, "reconstruction check failed")
    return dec


def gaussian_form(n: int, d: int, rng: random.Random) -> Form:
    return Form(n, d, {i: QQi(Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 5])),
                              Fraction(rng.randint(-9, 9), rng.choice([1, 2, 7])))
                       for i in index_set(n, d)})


def seeded_inputs(d: int):
    """(n, label, form): integer, Gaussian-rational and sheared exact input
    for n = 3..7, from fixed seeds."""
    for n in range(3, 8):
        for seed in range(2):
            rng = random.Random(f"{n}:{d}:{seed}")
            integer = random_form(n, d, rng, lo=-99, hi=99)
            yield n, f"integer-{seed}", integer
            yield n, f"gauss-{seed}", gaussian_form(n, d, rng)
            yield n, f"sheared-{seed}", _sheared(random_form(n, d, rng), seed)


def outcome(run, p):
    """run(p), or the type and text of the CanonformError it raised."""
    try:
        return run(p)
    except CanonformError as exc:
        return type(exc).__name__, str(exc)


@pytest.mark.parametrize("n, label, p", list(seeded_inputs(2)))
def test_uppertri_pairs_is_the_square_by_square_loop(n, label, p):
    got, want = outcome(uppertri_pairs, p), outcome(uppertri_pairs_by_terms, p)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert [(k, a, bits(row)) for k, a, row in got] == \
            [(k, a, bits(row)) for k, a, row in want]


@pytest.mark.parametrize("n, label, p", list(seeded_inputs(3)))
def test_slinky_is_the_cube_by_cube_loop(n, label, p):
    want = outcome(slinky_by_terms, p)
    if isinstance(want, tuple):
        assert outcome(slinky, p) == want
        return
    assert want.reconstruct() == p  # exact: slinky accepts it as it is
    got = slinky(p)
    assert got.meta == want.meta
    assert [(t.multiplier, bits(t.base), t.power) for t in got.terms] == \
        [(t.multiplier, bits(t.base), t.power) for t in want.terms]


def dense(f: Form) -> list[complex]:
    return [complex(f.a(i)) for i in index_set(f.n, f.d)]


def shape_and_values(result):
    """(everything compared exactly, [groups of values compared to rounding])
    of a stage's result: uppertri_pairs' pairs or a decomposition."""
    if isinstance(result, list):
        return ([k for k, _, _ in result],
                [[complex(a)] for _, a, _ in result] +
                [dense(row) for _, _, row in result])
    return ((result.meta, [t.power for t in result.terms]),
            [[complex(t.multiplier)] for t in result.terms] +
            [dense(t.base) for t in result.terms] +
            ([dense(result.residual)] if result.residual is not None else []))


def worst_gap(got, want) -> float:
    """The largest difference between paired values, each group's relative
    to the group's largest value; inf where the shapes differ."""
    (shape, mine), (their_shape, theirs) = map(shape_and_values, (got, want))
    if shape != their_shape or len(mine) != len(theirs):
        return float("inf")
    return max((max(abs(u - v) for u, v in zip(g, w)) /
                (max(map(abs, w)) or 1.0) for g, w in zip(mine, theirs)),
               default=0.0)


def with_residual(step):
    """reichstein_step or its oracle, returning one decomposition whose
    residual is the step's residual cubic."""
    def run(p):
        dec, q = step(p)
        return Decomposition(dec.terms, q, dec.meta)
    return run


# (degree, stage, its oracle, bound): each bound is about 5 to 8 times the
# largest gap measured over the stage's 30 seeded inputs (2.5e-10, 2.8e-11,
# 2.0e-14 and 1.6e-15)
FLOAT_STAGES = {
    "uppertri_pairs": (2, uppertri_pairs, uppertri_pairs_by_terms, 2e-9),
    "slinky": (3, slinky, slinky_by_terms, 2e-10),
    "reichstein_step": (3, with_residual(reichstein_step),
                        with_residual(reichstein_step_by_terms), 1e-13),
    "quartic_lift": (4, quartic_lift, quartic_lift_by_terms, 1e-14),
}


@pytest.mark.parametrize("stage, n, label, p", [
    (stage, n, label, p) for stage, (d, *_) in FLOAT_STAGES.items()
    for n, label, p in seeded_inputs(d)])
def test_float_stage_is_the_power_by_power_loop_to_rounding(stage, n, label, p):
    # the stage's powers leave the residual in one float pass, the oracle's
    # one Term.form() at a time: the same refusal, or the same shape and
    # values that differ only in rounding
    _, run, oracle, bound = FLOAT_STAGES[stage]
    got, want = outcome(run, p.approx()), outcome(oracle, p.approx())
    if isinstance(got, tuple) or isinstance(want, tuple):
        assert got == want
    else:
        assert worst_gap(got, want) <= bound


# -- the one-pass rebuild ----------------------------------------------------------


def term_by_term(dec: Decomposition) -> Form:
    """The rebuild as a sum of Term.form(), one Form addition at a time."""
    n, d = dec.shape()
    total = Form.zero(n, d)
    for t in dec.terms:
        total = total + t.form()
    if dec.residual is not None:
        total = total + dec.residual
    return total


@st.composite
def decompositions(draw, exact):
    """Powers of linear forms (some with zero multipliers, zero or sparse
    bases), powers of quadratic bases where the degree is even, and maybe
    a residual; exact or, with `exact` False, a mix of float and exact."""
    n, d = draw(st.integers(1, 4)), draw(st.integers(1, 4))

    def backend():
        return exact or draw(st.booleans())

    terms = []
    for _ in range(draw(st.integers(0, 5))):
        mult = draw(st.one_of(exact_values, st.just(QQi(0))) if backend()
                    else st.one_of(float_values, st.just(0j)))
        if d % 2 == 0 and draw(st.integers(0, 3)) == 0:
            terms.append(Term(mult, draw(forms(n, 2, backend())), d // 2))
        else:
            terms.append(Term(mult, draw(forms(n, 1, backend())), d))
    residual = draw(st.none() | forms(n, d, backend()))
    if not terms and residual is None:
        residual = Form.zero(n, d)
    return Decomposition(terms, residual)


@props
@given(dec=decompositions(exact=True))
def test_exact_rebuild_is_the_term_by_term_sum(dec):
    assert bits(dec.reconstruct()) == bits(term_by_term(dec))


@props
@given(dec=decompositions(exact=False))
def test_float_rebuild_is_the_term_by_term_sum_to_rounding(dec):
    got, want = dec.reconstruct(), term_by_term(dec)
    parts = [t.form() for t in dec.terms] + [dec.residual or Form.zero(1, 0)]
    scale = max(f.approx().norm() for f in parts)
    assert (got.n, got.d) == (want.n, want.d)
    for i in set(got._a) | set(want._a):
        assert abs(complex(got.a(i)) - complex(want.a(i))) <= 1e-12 * scale


def test_verify_converts_its_target_once():
    p = random_form(3, 3, random.Random(5)).approx()
    dec = Decomposition([Term(2.0 + 0j, linear_form([1.0, 2.0, 0.5]), 3)])
    assert not dec.verify(p)
    arr = _dense(p)
    assert not dec.verify(p) and _dense(p) is arr and not arr.flags.writeable
    assert arr.tolist() == [complex(p.a(i)) for i in index_set(3, 3)]


# -- fraction-free elimination ----------------------------------------------------


def qqi_rref(rows):
    """Gauss-Jordan elimination over Q(i) in QQi arithmetic, the pivot row
    normalised before it clears its column."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0]) if m else 0
    pivots, r = [], 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        inv = QQi(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(nrows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [m[i][j] - f * m[r][j] for j in range(ncols)]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m, pivots


@st.composite
def matrices(draw):
    """Sparse matrices up to 6 x 7; some rows combine earlier ones, so that
    the rank falls short."""
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(0, 7))
    rows = []
    for _ in range(nrows):
        if rows and draw(st.booleans()):
            a, b = draw(exact_values), draw(exact_values)
            u, v = rows[draw(st.integers(0, len(rows) - 1))], rows[-1]
            rows.append([a * x + b * y for x, y in zip(u, v)])
        else:
            rows.append([draw(exact_values) if draw(st.booleans()) else QQi(0)
                         for _ in range(ncols)])
    return rows


@props
@given(rows=matrices())
def test_fraction_free_rref_is_the_qqi_elimination(rows):
    got, pivots = exact_rref(rows)
    want, want_pivots = qqi_rref(rows)
    assert pivots == want_pivots
    assert [[(v.a, v.b, v.d) for v in row] for row in got] == \
        [[(v.a, v.b, v.d) for v in row] for row in want]


# -- the integer root test --------------------------------------------------------


def qqi_deflate(u, t0):
    """Synthetic division of u by (t - t0) in QQi: the quotient and u(t0)."""
    q, carry = [QQi(0)] * (len(u) - 1), QQi(0)
    for j in range(len(u) - 1, 0, -1):
        carry = u[j] + t0 * carry
        q[j - 1] = carry
    return q, u[0] + t0 * carry


@st.composite
def polynomials_and_points(draw):
    """u = (t - r_1)...(t - r_k) * (random factor), ascending, and t0 one
    of the r_k or any value."""
    roots = draw(st.lists(exact_values, max_size=4))
    u = draw(st.lists(exact_values, min_size=1, max_size=4))
    if not u[-1]:
        u[-1] = QQi(1)
    for r in roots:
        u = [(u[j - 1] if j else QQi(0)) - (r * u[j] if j < len(u) else 0)
             for j in range(len(u) + 1)]
    t0 = draw(st.sampled_from(roots) if roots and draw(st.booleans())
              else exact_values)
    return u, t0


@props
@given(ut=polynomials_and_points())
def test_integer_root_test_is_a_zero_qqi_deflation_remainder(ut):
    u, t0 = ut
    q, remainder = qqi_deflate(u, t0)
    got = _deflate_exact(u, t0)
    assert (got is None) == bool(remainder)
    if got is not None:
        assert [(v.a, v.b, v.d) for v in got] == [(v.a, v.b, v.d) for v in q]
