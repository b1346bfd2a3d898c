import itertools
import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from canonform import QQi, binary, forms_close, linear_form, parse_form, power_of_linear, random_form
from canonform import cli
from canonform.apolarity import apply_diff, hankel
from canonform.binary import (MixedSpec, count_reps_monte_carlo,
                              mixed_decompose, quartic_normalize,
                              quartic_six_for_form, quartic_six_reps,
                              quartic_two_fixed, sylvester_decompose,
                              two_squares_all)
from canonform.decompositions import Decomposition, Term, parse_decomposition
from canonform.errors import (CanonformError, DegenerateInput, DegenerateLambda, LeadingZero,
                              NormalizationFailed, NotGeneric, RepeatedRoot, ShapeMismatch,
                              UnsupportedShape, ZeroForm)
from canonform.forms import ACCEPT_TOL, Form, linear_coeffs, monomial_form
from canonform.linalg import chordal_distance, mat_solve
from canonform.scalars import EPS_DEFAULT, is_exact, scalar_is_zero
from tests_support import (mc_draws, mc_newton_reference, mc_reference_count,
                           quartic_power_ratio)

EX310 = parse_form("2*x^3 + 3*x^2*y - 21*x*y^2 - 41*y^3")


def mc_starts_and_generator_rows(shape, seed, trials=30, batch=None):
    """The Newton starts of one count, each batch divided by its start
    magnitudes, and the rows default_rng(seed) should have drawn for them
    after the random form and the extra fixed forms."""
    d, e, m = shape
    newton = binary._mc_newton
    batches = []

    def spy(system, z, scale):
        batches.append(z.copy())
        return newton(system, z, scale)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(binary, "_mc_newton", spy)
        if batch is not None:
            mp.setattr(binary, "_MC_BATCH", batch)
        count_reps_monte_carlo(d, e, m, trials=trials, seed=seed)
    rng, p, _ = mc_draws(d, m, seed)
    scale = max(p.norm(), 1.0)
    start_mag = np.array([scale] * m + [scale ** (ek / d) for ek in e
                                        for _ in range(ek + 1)])
    buf = rng.standard_normal((sum(map(len, batches)), 2 * (d + 1)))
    want = buf[:, :d + 1] + 1j * buf[:, d + 1:]
    return [b / start_mag for b in batches], want


def _row_mul(a, b):
    """Row-wise products of two stacks of raw coefficient vectors."""
    out = np.zeros((len(a), a.shape[1] + b.shape[1] - 1), dtype=complex)
    for j in range(b.shape[1]):
        out[:, j:j + a.shape[1]] += a * b[:, j, None]
    return out


def _row_power(rows, k):
    """Row-wise k-th powers of a stack of binary forms."""
    out = np.ones((len(rows), 1), dtype=complex)
    for _ in range(k):
        out = _row_mul(out, rows)
    return out


def coefficient_system(d, e, lins, target, z):
    """The counter's equations on raw coefficient vectors, by convolution.

    Returns the (K, d+1) residuals, (K, d+1, N) Jacobians and (K, len(e),
    d+1) powers f_k^(d/e_k), each as coefficients (ascending y-exponent).
    """
    fixed = _row_power(lins, d)
    res = np.zeros((len(z), d + 1), dtype=complex)
    jac = np.zeros((len(z), d + 1, z.shape[1]), dtype=complex)
    powers = np.empty((len(z), len(e), d + 1), dtype=complex)
    for i in range(len(lins)):
        res += z[:, i, None] * fixed[i]
        jac[:, :, i] = fixed[i]
    at = len(lins)
    for k, ek in enumerate(e):
        block = z[:, at:at + ek + 1]
        lower = _row_power(block, d // ek - 1)
        powers[:, k] = _row_mul(lower, block)
        res += powers[:, k]
        for ell in range(ek + 1):
            jac[:, ell:ell + lower.shape[1], at + ell] = (d // ek) * lower
        at += ek + 1
    return res - target, jac, powers


def node_of(term):
    cx, cy = term.base.raw((1, 0)), term.base.raw((0, 1))
    return cx, cy


class TestSylvester:
    def test_worked_cubic_exact(self):
        dec = sylvester_decompose(EX310)
        got = sorted(((t.multiplier, node_of(t)) for t in dec.terms),
                     key=lambda pair: float(pair[0].re))
        assert got == [(QQi(-3), (QQi(1), QQi(3))), (QQi(5), (QQi(1), QQi(2)))]
        assert dec.reconstruct() == EX310

    def test_sum_of_pure_cubes(self):
        dec = sylvester_decompose(parse_form("x^3 + y^3"))
        assert len(dec.terms) == 2
        assert dec.reconstruct() == parse_form("x^3 + y^3")

    def test_single_power(self):
        p = power_of_linear([1, 2], 5)
        dec = sylvester_decompose(p)
        assert len(dec.terms) == 1 and dec.reconstruct() == p

    def test_zero_form(self):
        from canonform.forms import Form
        with pytest.raises(ZeroForm):
            sylvester_decompose(Form.zero(2, 3))

    def test_uniqueness_on_random_honest_sums(self):
        # 50 random honest s-term sums of (2s-1)-st powers, s <= 4
        rng = random.Random(20)
        for s in (2, 3, 4):
            d = 2 * s - 1
            for _ in range(17):
                nodes = set()
                while len(nodes) < s:
                    nodes.add((1, rng.randint(-9, 9)))
                lams = [QQi(rng.randint(1, 9)) for _ in nodes]
                p = None
                for lam, ab in zip(lams, sorted(nodes)):
                    t = power_of_linear(ab, d).scale(lam)
                    p = t if p is None else p + t
                dec = sylvester_decompose(p)
                got = sorted((complex(t.multiplier).real, complex(node_of(t)[1]).real)
                             for t in dec.terms)
                want = sorted((float(l.re), float(b)) for l, (a, b)
                              in zip(lams, sorted(nodes)))
                assert len(got) == s
                for g, w in zip(got, want):
                    assert abs(g[0] - w[0]) < 1e-6 and abs(g[1] - w[1]) < 1e-6

    @pytest.mark.parametrize("d,width", [(18, 18), (24, 24),
                                         (32, None), (40, None)])
    def test_search_skips_the_orders_comas_seiguer_rules_out(
            self, monkeypatch, d, width):
        # r0 = 3 and order 3 has no squarefree kernel form, so no order below
        # d - r0 + 2 = d - 1 has one; both backends jump there and agree
        orders = []

        def recording(p, r):
            orders.append(r)
            return hankel(p, r)

        monkeypatch.setattr(binary, "hankel", recording)
        p = parse_form(f"x^{d} + 3*x*y^{d - 1} + y^{d}")
        got = []
        for form in (p, p.approx()):
            orders.clear()
            try:
                dec = sylvester_decompose(form)
            except NotGeneric:
                got.append(None)
            else:
                assert dec.verify(p, 1e-7)
                got.append(len(dec.terms))
            assert orders == [1, 2, 3, d - 1, d]
        assert got == [width, width]

    def test_repeated_factor_moves_on_to_the_next_candidate(self):
        # the numeric factorization of a kernel form here finds a repeated
        # factor; that candidate is passed over, and the search goes on
        p = parse_form("3/4*x^3 - (4+2*i)*x^2*y + 10471421586*x*y^2 + 7*y^3")
        dec = sylvester_decompose(p)
        assert dec.verify(p, 1e-7)

    def test_an_overflowing_node_power_fails_its_order(self):
        # (1e200)^2 overflows a complex power: that order has no multipliers
        # and the search goes on, where it once stopped with exit 3
        p = parse_form("x^3 + 3*x*y^2 + y^3")
        nodes = [(1e200 + 0j, 1 + 0j), (1 + 0j, 2 + 0j), (1 + 0j, 3 + 0j)]
        assert binary._solve_power_multipliers(p, nodes, 1e-9) is None

    def test_chordal_distance_of_huge_points_does_not_overflow(self):
        assert chordal_distance(1e200 + 0j, 0j) == pytest.approx(1.0)
        assert chordal_distance(1e300j, 2e300j) == pytest.approx(0.0)
        assert chordal_distance(3 + 4j, 3 + 4j) == 0.0
        # the formula is unchanged where |a|^2 fits in a float
        a, b = 0.3 - 2j, 1.5 + 0.25j
        want = abs(a - b) / ((1 + abs(a) ** 2) ** 0.5 * (1 + abs(b) ** 2) ** 0.5)
        assert chordal_distance(a, b) == pytest.approx(want, rel=1e-15)

    def test_even_degree_width(self):
        rng = random.Random(21)
        for s in (2, 3):
            for _ in range(5):
                p = random_form(2, 2 * s, rng)
                dec = sylvester_decompose(p)
                assert len(dec.terms) == s + 1
                assert dec.verify(p, 1e-7)

    def test_even_degree_mixed_route(self):
        # lambda x^(2s) + s free powers, the classical even-degree shape
        rng = random.Random(28)
        for s in (2, 3):
            p = random_form(2, 2 * s, rng)
            spec = MixedSpec([parse_form("x", n=2)], s)
            dec = mixed_decompose(p, spec)
            assert dec.verify(p, 1e-8)
            assert sum(1 for t in dec.terms if str(t.base) == "x") == 1


class TestMixed:
    def test_worked_quintic_exact(self):
        p = parse_form("-x^5 + 15*x^4*y - 170*x^3*y^2 + 390*x^2*y^3 "
                       "- 505*x*y^4 + 483*y^5")
        spec = MixedSpec([parse_form("x + y"), parse_form("-x + 3*y")], 2)
        dec = mixed_decompose(p, spec)
        mults = {str(t.multiplier) for t in dec.terms}
        assert mults == {"-4", "1", "7/2", "3/2"}
        assert dec.reconstruct() == p

    def test_pure_fixed_power(self):
        l1 = parse_form("x + y")
        spec = MixedSpec([l1, parse_form("-x + 3*y")], 2)
        dec = mixed_decompose(power_of_linear([1, 1], 5), spec)
        fixed_mults = {str(t.base): t.multiplier for t in dec.terms}
        assert fixed_mults["x + y"] == QQi(1)
        assert all(not m for b, m in fixed_mults.items() if b != "x + y")

    def test_random_degree_seven(self):
        rng = random.Random(22)
        fixed = [parse_form("x", n=2), parse_form("y", n=2)]
        for _ in range(5):
            p = random_form(2, 7, rng)
            dec = mixed_decompose(p, MixedSpec(fixed, 3))
            assert dec.verify(p, 1e-8)
            assert len(dec.terms) == 5

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            mixed_decompose(EX310, MixedSpec([parse_form("x + y")], 2))

    @pytest.mark.parametrize("exact", [True, False])
    def test_proportionality_is_relative_to_the_forms_sizes(self, exact):
        # small independent forms pass and large ones at an angle of about
        # 1e-10 are refused on floats; exact forms keep their exact test
        def spec(*texts):
            fixed = [parse_form(t, n=2) for t in texts]
            return MixedSpec(fixed if exact else [f.approx() for f in fixed], 1)

        assert spec("1e-5*x", "1e-5*y").m == 2
        if exact:
            assert spec("1e5*x", "1e5*x + 1e-5*y").m == 2
        else:
            with pytest.raises(DegenerateInput, match="non-proportional"):
                spec("1e5*x", "1e5*x + 1e-5*y")

    def test_recovers_a_known_combination_exactly(self):
        # build p from known multipliers and read them back (uniqueness)
        rng = random.Random(29)
        fixed = [parse_form("x + y"), parse_form("x - 2*y")]
        d = 7
        free_nodes = [(1, 3), (1, 4), (1, 5)]
        want = {}
        p = None
        for lin, mult in zip(fixed, (QQi(2), QQi(-3))):
            term = (lin ** d).scale(mult)
            p = term if p is None else p + term
            want[str(lin)] = mult
        for node, mult in zip(free_nodes, (QQi(5), QQi(Fraction(1, 2)), QQi(-1))):
            p = p + power_of_linear(node, d).scale(mult)
            want[str(linear_form(node))] = mult
        dec = mixed_decompose(p, MixedSpec(fixed, 3))
        got = {str(t.base): t.multiplier for t in dec.terms}
        assert got == want

    def test_monte_carlo_agrees_with_analytic_six_pack(self):
        # the same quartic counted numerically and listed analytically
        rng = random.Random(31)
        p = random_form(2, 4, rng, gaussian=True)
        analytic = quartic_six_for_form(p)
        assert len(analytic) == 6
        assert all(r.verify(p, 1e-6) for r in analytic)
        assert count_reps_monte_carlo(4, [2, 1], 0, seed=31, form=p) == 6


# -- the single multiplier solve against the three stages it replaced ----------


def three_stage_mixed(p, spec, eps=EPS_DEFAULT):
    """mixed_decompose as it was: Sylvester's multipliers for f(D)p rescaled
    by (d-m)!/d! and 1/f(node), the free powers subtracted from p, and a
    second solve for the fixed multipliers."""
    d, m, r = p.d, spec.m, spec.r
    f = None
    for lin in spec.fixed:
        g = binary._flip(lin)
        f = g if f is None else f * g
    free_terms = []
    fp = apply_diff(f, p) if f is not None else p
    if not fp.is_zero(eps, scale=p.norm()):
        try:
            sylv = sylvester_decompose(fp, eps)
        except NotGeneric as exc:
            raise DegenerateInput(f"Sylvester stage failed: {exc}") from exc
        if len(sylv.terms) > r:
            raise DegenerateInput(
                f"Sylvester stage needs width <= {r}, got {len(sylv.terms)}")
        scale_c = QQi(math.factorial(d - m)) / math.factorial(d)
        for t in sylv.terms:
            node = linear_coeffs(t.base)
            if f is not None:
                fu = f.evaluate(node)
                if scalar_is_zero(fu, eps, scale=f.norm()):
                    raise DegenerateInput("f vanishes at a Sylvester node")
            else:
                fu = QQi(1)
            free_terms.append(Term(scale_c * t.multiplier / fu, t.base, d))
    residual = p
    for t in free_terms:
        residual = residual - t.form()
    fixed_terms = []
    if m:
        cols = [power_of_linear(linear_coeffs(lin), d) for lin in spec.fixed]
        rows = [[c.a((d - j, j)) for c in cols] for j in range(d + 1)]
        ts = mat_solve(rows, [residual.a((d - j, j)) for j in range(d + 1)], eps)
        if ts is None:
            raise DegenerateInput("fixed-form system is inconsistent")
        fixed_terms = [Term(t, lin, d) for t, lin in zip(ts, spec.fixed)]
    dec = Decomposition(free_terms + fixed_terms,
                        meta={"theorem": "mixed", "m": m, "r": r}).accepted(p, eps)
    if dec is None:
        raise DegenerateInput("reconstruction check failed")
    return dec


def mixed_sweep(rng, draws):
    """(p, spec) for each d = 2..10, each m with m + 2r = d + 1, each backend
    and real or Gaussian coefficients: draws forms with coefficients in
    +-[1, 99] and m pairwise independent fixed forms with integer
    coefficients in [-5, 5]."""
    def coeff():
        return rng.choice((-1, 1)) * rng.randint(1, 99)

    shapes = [(d, m) for d in range(2, 11) for m in range((d + 1) % 2, d + 2, 2)]
    for (d, m), exact, gaussian, _ in itertools.product(
            shapes, (True, False), (False, True), range(draws)):
        fixed = []
        while len(fixed) < m:
            a, b = rng.randint(-5, 5), rng.randint(-5, 5)
            if (a, b) != (0, 0) and all(a * v - b * u for u, v in fixed):
                fixed.append((a, b))
        p = Form.from_raw(2, d, {(d - j, j): QQi(coeff(), coeff() if gaussian else 0)
                                 for j in range(d + 1)})
        yield (p if exact else p.approx(),
               MixedSpec([linear_form(ab) for ab in fixed], (d + 1 - m) // 2))


def test_one_multiplier_solve_matches_the_three_stages():
    # exact results equal the old ones term for term, float results rebuild
    # p, and nothing the three stages decomposed is refused
    seen = {"exact": 0, "float": 0, "both refuse": 0, "only new": 0}
    for p, spec in mixed_sweep(random.Random(39), 2):
        try:
            old = three_stage_mixed(p, spec)
        except CanonformError:
            old = None
        try:
            new = mixed_decompose(p, spec)
        except CanonformError:
            assert old is None, (p, spec.fixed)
            seen["both refuse"] += 1
            continue
        if old is None:
            seen["only new"] += 1
            assert new.verify(p, ACCEPT_TOL)
        elif all(is_exact(t.multiplier) and t.base.exact for t in old.terms):
            seen["exact"] += 1
            assert new.terms == old.terms, (p, spec.fixed)
        else:
            seen["float"] += 1
            assert new.verify(p, ACCEPT_TOL), (p, spec.fixed)
    assert min(seen.values()) > 0, seen


def test_r_zero_is_the_fixed_solve_alone():
    # m = d + 1 fixed powers span the binary d-ics; deg f = d + 1 once
    # raised ShapeMismatch in the differentiation
    spec = MixedSpec([parse_form("x", n=2), parse_form("y", n=2),
                      parse_form("x + y")], 0)
    dec = mixed_decompose(parse_form("x^2 + 3*x*y + y^2"), spec)
    assert [(t.multiplier, str(t.base)) for t in dec.terms] == [
        (QQi(Fraction(-1, 2)), "x"), (QQi(Fraction(-1, 2)), "y"),
        (QQi(Fraction(3, 2)), "x + y")]


def test_nine_fixed_powers_that_the_second_solve_lost(capsys):
    # the three stages failed the reconstruction check here (exit 2); one
    # solve over bases scaled to unit size decomposes it
    src = ("(40-40*i)*x^9 + (-81-261*i)*x^8*y + (-1152+1440*i)*x^7*y^2 "
           "+ (-7140-4788*i)*x^6*y^3 + (-7434+3906*i)*x^5*y^4 "
           "+ (7812-3150*i)*x^4*y^5 + (-1260+2520*i)*x^3*y^6 "
           "+ (-1944-3348*i)*x^2*y^7 + (-63-441*i)*x*y^8 + (-32-19*i)*y^9")
    argv = ["decompose", "mixed", src, "--fixed", "5*x-4*y", "--fixed=-x",
            "--fixed", "3*x-4*y", "--fixed=-5*x-3*y", "--fixed", "4*x+y",
            "--fixed", "5*x+5*y", "--fixed=-x+5*y", "--fixed=-5*x-y"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    dec = parse_decomposition(out.strip())
    assert len(dec.terms) == 9
    assert forms_close(dec.reconstruct().approx(), parse_form(src), ACCEPT_TOL)


def random_admissible_even_form(s, rng):
    """Random squarefree binary 2s-ic with nonzero leading coefficient."""
    from canonform import binary_factor
    while True:
        p = random_form(2, 2 * s, rng)
        if not p.raw((2 * s, 0)):
            continue
        _, factors = binary_factor(p)
        if all(m == 1 for _, m in factors):
            return p


class TestTwoSquares:
    def test_counts_and_reconstruction(self):
        rng = random.Random(23)
        for s, want in ((1, 1), (2, 3), (3, 10)):
            p = random_admissible_even_form(s, rng)
            reps = two_squares_all(p)
            assert len(reps) == want
            for rep in reps:
                assert rep.verify(p, 1e-9)
                # second square misses x^s
                assert rep.terms[1].base.a((s, 0)) == 0 \
                    or not rep.terms[1].base.a((s, 0))

    def test_quartic_difference_of_powers(self):
        p = parse_form("x^4 - y^4")
        reps = two_squares_all(p)
        assert len(reps) == 3 and all(r.verify(p, 1e-9) for r in reps)

    def test_leading_zero(self):
        with pytest.raises(LeadingZero):
            two_squares_all(parse_form("x*y"))

    def test_repeated_root(self):
        with pytest.raises(RepeatedRoot):
            two_squares_all(parse_form("x^2 + 2*x*y + y^2"))

    def test_independent_newton_enumeration_matches(self):
        # count the missing-monomial two-squares representations of a random
        # quartic by Newton iteration on the coefficient system, with no use
        # of the factor-splitting construction, and match them one by one
        import numpy as np
        rng = random.Random(42)
        p = random_form(2, 4, rng, gaussian=True)
        target = np.array([complex(p.raw((4 - j, j))) for j in range(5)])
        scale = max(abs(v) for v in target)

        def residual(z):
            f = z[:3]
            g = np.concatenate([[0j], z[3:]])
            return np.convolve(f, f) + np.convolve(g, g) - target

        def jacobian(z):
            f = z[:3]
            g = np.concatenate([[0j], z[3:]])
            cols = []
            for i in range(3):
                e = np.zeros(3, dtype=complex)
                e[i] = 1
                cols.append(2 * np.convolve(e, f))
            for i in range(1, 3):
                e = np.zeros(3, dtype=complex)
                e[i] = 1
                cols.append(2 * np.convolve(e, g))
            return np.array(cols).T

        found = []
        nprng = np.random.default_rng(7)
        for _ in range(600):
            z = (nprng.standard_normal(5)
                 + 1j * nprng.standard_normal(5)) * scale ** 0.5
            converged = False
            for _ in range(60):
                r = residual(z)
                if np.max(np.abs(r)) < 1e-11 * scale:
                    converged = True
                    break
                try:
                    z = z - np.linalg.solve(jacobian(z), r)
                except np.linalg.LinAlgError:
                    break
            if not converged:
                continue
            f = z[:3]
            g = np.concatenate([[0j], z[3:]])
            sig = np.concatenate([np.convolve(f, f), np.convolve(g, g)])
            if not any(np.max(np.abs(sig - s)) < 1e-6 * scale for s in found):
                found.append(sig)
        assert len(found) == 3
        analytic = []
        for rep in two_squares_all(p):
            fsq = rep.terms[0].form().approx()
            gsq = rep.terms[1].form().approx()
            analytic.append(np.array(
                [complex(fsq.raw((4 - j, j))) for j in range(5)]
                + [complex(gsq.raw((4 - j, j))) for j in range(5)]))
        for sig in found:
            assert any(np.max(np.abs(sig - v)) < 1e-5 * scale
                       for v in analytic)


def mu_orbit(lam):
    one = QQi(1)
    return [lam, -lam, (one - lam) / (one + 3 * lam),
            -(one - lam) / (one + 3 * lam),
            (one + lam) / (one - 3 * lam), -(one + lam) / (one - 3 * lam)]


def quartic_invariants(p):
    a = [p.a((4 - j, j)) for j in range(5)]
    i2 = a[0] * a[4] - 4 * a[1] * a[3] + 3 * a[2] * a[2]
    j3 = (a[0] * (a[2] * a[4] - a[3] * a[3])
          - a[1] * (a[1] * a[4] - a[2] * a[3])
          + a[2] * (a[1] * a[3] - a[2] * a[2]))
    return i2, j3


def float_quartic(roots):
    """prod (y - r x) over the four roots, with float coefficients."""
    p = None
    for root in roots:
        lin = linear_form([-root - 0j, 1.0 + 0j])
        p = lin if p is None else p * lin
    return p


class TestQuartic:
    def test_six_reps_at_zero(self):
        reps = quartic_six_reps(0)
        target = parse_form("x^4 + y^4")
        assert len(reps) == 6
        assert all(r.verify(target) for r in reps)

    def test_six_ratio_set(self):
        reps = quartic_six_reps(QQi(Fraction(2, 7)))
        ratios = [quartic_power_ratio(r) for r in reps]
        inf = [r for r in ratios if r is None]
        finite = sorted((round(r.real, 9), round(r.imag, 9))
                        for r in ratios if r is not None)
        assert len(inf) == 1
        assert finite == [(-1.0, 0.0), (0.0, -1.0), (0.0, 0.0), (0.0, 1.0),
                          (1.0, 0.0)]

    def test_degenerate_lambda(self):
        with pytest.raises(DegenerateLambda):
            quartic_six_reps(Fraction(1, 3))
        with pytest.raises(DegenerateLambda):
            quartic_six_reps(Fraction(-1, 3))

    def test_normalize_known_orbits(self):
        qn = quartic_normalize(parse_form("x^4 + 6*x^2*y^2 + y^4"))
        orbit = {complex(v) for v in mu_orbit(QQi(1))}
        assert any(abs(complex(qn.lam) - w) < 1e-6 for w in orbit)
        qn0 = quartic_normalize(parse_form("x^4 + y^4"))
        orbit0 = {complex(v) for v in mu_orbit(QQi(0))}
        assert any(abs(complex(qn0.lam) - w) < 1e-6 for w in orbit0)

    def test_normalize_reconstruction_contract(self):
        # p o transform is c (x^4 + 6 lambda x^2 y^2 + y^4): no x^3 y or x y^3
        # term and equal x^4 and y^4 terms, on exact, Gaussian and
        # approximate input, a root at infinity and a close root pair
        rng = random.Random(24)
        quartics = ([random_form(2, 4, rng) for _ in range(8)]
                    + [random_form(2, 4, rng, gaussian=True) for _ in range(8)]
                    + [random_form(2, 4, rng, gaussian=True).approx()
                       for _ in range(8)]
                    + [parse_form("2*x^3*y - 3*x^2*y^2 + 5*x*y^3 + 7*y^4"),
                       float_quartic((0.0, 1e-3, 2.0, 3.0))])
        for p in quartics:
            qn = quartic_normalize(p)
            q = p.approx().substitute([list(r) for r in qn.transform])
            scale = q.norm()
            a0, a1, a3, a4 = (q.raw((4 - j, j)) for j in (0, 1, 3, 4))
            assert max(abs(a1), abs(a3), abs(a0 - a4)) <= 1e-9 * scale, p
            normal = (parse_form("x^4 + y^4")
                      + monomial_form(2, (2, 2), 6 * qn.lam))
            target = normal.approx().scale(a0)
            assert forms_close(q, target, 1e-6)

    def test_normalize_refuses_a_non_finite_normal_form(self):
        # the x^4 and y^4 coefficients in the harmonic axes overflow, which
        # once came back as lambda = nan
        p = parse_form("-0.343e116*x^2*y^2 + 9*x*y^3 + 0.747e5*x^3*y")
        with pytest.raises(NormalizationFailed):
            quartic_normalize(p)

    def test_repeated_root_rejected(self):
        with pytest.raises(RepeatedRoot):
            quartic_normalize(parse_form("x^4", n=2))

    def test_mu_orbit_invariant_consistency(self):
        # all members of the mu-orbit share J^2/I^3, and normalizing the
        # normal form built from mu lands back in the orbit
        rng = random.Random(25)
        for _ in range(5):
            lam = QQi(Fraction(rng.randint(-9, 9), rng.randint(10, 14)))
            base = parse_form("x^4 + y^4") + parse_form("x^2*y^2").scale(6 * lam)
            i2, j3 = quartic_invariants(base)
            ratio = complex(j3 * j3) / complex(i2) ** 3
            for mu in mu_orbit(lam):
                pm = parse_form("x^4 + y^4") + parse_form("x^2*y^2").scale(6 * mu)
                i2m, j3m = quartic_invariants(pm)
                assert abs(complex(j3m * j3m) / complex(i2m) ** 3 - ratio) < 1e-9
            qn = quartic_normalize(base.approx())
            orbit = {complex(v) for v in mu_orbit(lam)}
            assert any(abs(complex(qn.lam) - w) < 1e-6 for w in orbit)

    def test_six_for_general_form(self):
        rng = random.Random(26)
        for _ in range(40):
            exact = random_form(2, 4, rng, gaussian=rng.random() < 0.5)
            for p in (exact, exact.approx()):
                reps = quartic_six_for_form(p)
                assert len(reps) == 6
                assert all(r.verify(p, ACCEPT_TOL) for r in reps), p

    def test_pullback_ratios_are_a_moebius_image(self):
        # the six t5/t4 ratios of a general quartic are the image of
        # {0, inf, 1, -1, i, -i} under the map read off the transform
        rng = random.Random(90)
        p = random_form(2, 4, rng, gaussian=True)
        (c1, c2), (c3, c4) = quartic_normalize(p).transform

        def moebius(z):
            if z is None:
                num, den = c1, -c3
            else:
                num, den = c1 * z - c2, c4 - c3 * z
            return None if abs(den) < 1e-12 else num / den

        predicted = [moebius(z) for z in (0j, None, 1 + 0j, -1 + 0j, 1j, -1j)]
        got = [quartic_power_ratio(r) for r in quartic_six_for_form(p)]
        left = list(got)
        for want in predicted:
            hit = None
            for i, have in enumerate(left):
                if want is None and have is None:
                    hit = i
                elif want is not None and have is not None \
                        and abs(want - have) < 1e-4 * max(1.0, abs(want)):
                    hit = i
                if hit is not None:
                    break
            assert hit is not None, (want, left)
            left.pop(hit)

    def test_six_for_nearly_degenerate_quartic(self):
        # distinct roots separated by 1e-3 still normalize and pull back
        p = float_quartic((0.0, 1e-3, 2.0, 3.0))
        reps = quartic_six_for_form(p)
        assert len(reps) == 6
        assert all(r.verify(p, 1e-5) for r in reps)

    def test_two_fixed_square_baseline(self):
        p = parse_form("x^4 + 2*x^3*y + 3*x^2*y^2 + 2*x*y^3 + y^4")
        x, y = parse_form("x", n=2), parse_form("y", n=2)
        decs = quartic_two_fixed(p, x, y)
        flat = [(str(t.base), str(t.multiplier)) for d in decs for t in d.terms]
        assert ("x^2 + x*y + y^2", "1") in flat
        zero_budget = [t for d in decs for t in d.terms
                       if t.power == 4 and not t.multiplier]
        assert len(zero_budget) == 2  # t4 = t5 = 0 in the baseline branch

    def test_two_fixed_shifted(self):
        p = (parse_form("x^4 + 2*x^3*y + 3*x^2*y^2 + 2*x*y^3 + y^4")
             + parse_form("5*x^4 + 7*y^4"))
        x, y = parse_form("x", n=2), parse_form("y", n=2)
        decs = quartic_two_fixed(p, x, y)
        found = [(str(t.multiplier)) for d in decs for t in d.terms]
        assert "5" in found and "7" in found
        assert all(d.verify(p, 1e-9) for d in decs)

    @pytest.mark.parametrize("l1,l2", [([1, 2], [2, 4]), ([1.0, 2.0], [2.0, 4.0])])
    def test_two_fixed_proportional_forms_are_degenerate(self, l1, l2):
        # a singular float matrix once reached np.linalg.inv (LinAlgError)
        p = parse_form("x^4 + 3*x^3*y + x^2*y^2 + 2*x*y^3 + 5*y^4")
        with pytest.raises(DegenerateInput, match="proportional"):
            quartic_two_fixed(p, linear_form(l1), linear_form(l2))

    def test_two_fixed_random(self):
        rng = random.Random(27)
        for _ in range(5):
            p = random_form(2, 4, rng)
            l1 = linear_form([1, rng.randint(-4, 4)])
            l2 = linear_form([rng.randint(2, 5), 1])
            decs = quartic_two_fixed(p, l1, l2)
            assert len(decs) == 2
            assert all(d.verify(p, 1e-7) for d in decs)


class TestMonteCarlo:
    def test_table_one_values(self):
        assert count_reps_monte_carlo(4, [2, 1], 0, seed=5) == 6
        assert count_reps_monte_carlo(4, [2], 2, seed=5) == 2

    def test_shape_validation(self):
        with pytest.raises(UnsupportedShape):
            count_reps_monte_carlo(4, [2, 2], 0)
        with pytest.raises(UnsupportedShape):
            count_reps_monte_carlo(6, [4], 0)
        with pytest.raises(UnsupportedShape):
            count_reps_monte_carlo(4, [0], 4)
        with pytest.raises(UnsupportedShape):
            count_reps_monte_carlo(4, [2, 2, 2], -4)

    def test_deterministic_given_seed(self):
        a = count_reps_monte_carlo(4, [2], 2, seed=123, trials=400)
        b = count_reps_monte_carlo(4, [2], 2, seed=123, trials=400)
        assert a == b

    def test_pinned_estimates(self):
        assert count_reps_monte_carlo(6, [3, 2], 0, trials=2000, seed=0) == 34
        assert count_reps_monte_carlo(6, [3, 2], 0, trials=777, seed=0) == 31
        assert count_reps_monte_carlo(4, [2], 2, trials=400, seed=123) == 2

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_pinned_estimates_with_random_fixed_forms(self, seed):
        # m > 2: the fixed forms after x and y are drawn from the seed's rng
        assert count_reps_monte_carlo(6, [2], 4, trials=3000, seed=seed) == 5
        assert count_reps_monte_carlo(4, [1], 3, seed=seed) == 1

    def test_count_does_not_depend_on_batch_size(self, monkeypatch):
        # No budget is a multiple of 7, so the last batch is partial;
        # (6;[2,1,1];0) pairs its two like summands in the dedup, and a
        # seed above 2**128 feeds the same single generator.
        runs = [((4, [2], 2), 400, 123), ((6, [2, 1, 1], 0), 100, 2),
                ((4, [2, 1], 0), 300, 2 ** 160 + 3)]
        want = [count_reps_monte_carlo(*shape, trials=t, seed=s)
                for shape, t, s in runs]
        for size in (1, 7):
            monkeypatch.setattr(binary, "_MC_BATCH", size)
            got = [count_reps_monte_carlo(*shape, trials=t, seed=s)
                   for shape, t, s in runs]
            assert got == want, size

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(shape=st.sampled_from([(4, [2], 2), (4, [2, 1], 0),
                                  (6, [2, 1, 1], 0), (6, [2], 4),
                                  (4, [1], 3)]),
           seed=st.integers(0, 2 ** 64),
           trials=st.integers(20, 200).filter(lambda t: t % 7),
           batch=st.sampled_from([1, 7, 512]))
    def test_count_matches_the_per_trial_reading(self, shape, seed, trials,
                                                 batch):
        # the estimate and the Newton rows run are those of reading every
        # trial in order with its powers evaluated again (tests_support),
        # and the powers Newton returns are those of the converged rows
        newton, rows = binary._mc_newton, []

        def spy(system, z, scale):
            rows.append(len(z))
            converged, powers = newton(system, z, scale)
            assert np.array_equal(powers, system[0](z[converged])[2])
            return converged, powers

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(binary, "_MC_BATCH", batch)
            want = mc_reference_count(*shape, trials=trials, seed=seed)
            mp.setattr(binary, "_mc_newton", spy)
            got = count_reps_monte_carlo(*shape, trials=trials, seed=seed)
        assert (got, sum(rows)) == want

    @pytest.mark.parametrize("shape,kw,stop", [
        ((4, [2, 1], 0), {"seed": 5}, 1290),
        ((6, [3, 2], 0), {"trials": 2000, "seed": 0}, 1255),
        ((4, [2], 2), {"seed": 5}, 1281),
        ((6, [2], 4), {"trials": 3000, "seed": 1}, 868),
    ])
    def test_batches_end_at_the_stop_trial(self, monkeypatch, shape, kw, stop):
        # Every run stops on patience well inside its budget; no batch size
        # may run a start past the stop trial or change the count.
        newton = binary._mc_newton
        counts = set()
        for size in (7, 512, 10 ** 6):
            rows = []

            def spy(system, z, scale):
                rows.append(len(z))
                return newton(system, z, scale)

            monkeypatch.setattr(binary, "_mc_newton", spy)
            monkeypatch.setattr(binary, "_MC_BATCH", size)
            counts.add(count_reps_monte_carlo(*shape, **kw))
            assert sum(rows) == stop + 1, size
            assert max(rows) <= size
        assert len(counts) == 1

    @pytest.mark.parametrize("seed", [41, 2 ** 32 - 7, 2 ** 64 - 7,
                                      2 ** 128 - 7, 2 ** 160 + 3])
    @pytest.mark.parametrize("shape", [(4, [2], 2), (4, [2, 1], 0),
                                       (6, [3, 2], 0)])
    def test_starts_are_the_seed_generator_rows(self, shape, seed):
        # After the random form's coefficients, the count's one generator
        # draws each start as 2N standard normals: real parts, then
        # imaginary parts.  m <= 2, so no fixed form is drawn in between;
        # seeds past each 32-bit word boundary feed that same generator.
        batches, want = mc_starts_and_generator_rows(shape, seed)
        assert len(batches) == 1
        assert np.allclose(batches[0], want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("shape", [(4, [2], 2), (4, [2, 1], 0),
                                       (6, [3, 2], 0)])
    def test_later_batches_continue_the_stream(self, shape, size):
        # trial t starts from the stream's t-th row, however batches cut it
        batches, want = mc_starts_and_generator_rows(shape, 5, batch=size)
        assert [len(b) for b in batches][:-1] == [size] * (len(batches) - 1)
        assert np.allclose(np.concatenate(batches), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("shape", [(4, [1], 3), (6, [2], 4)])
    def test_fixed_forms_are_drawn_before_the_starts(self, shape):
        # m > 2: each extra fixed form takes 4 integers after the form's
        batches, want = mc_starts_and_generator_rows(shape, 7)
        assert np.allclose(np.concatenate(batches), want, rtol=1e-15, atol=0)

    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 200).flatmap(
               lambda bits: st.integers(0, 2 ** bits - 1)))
    def test_starts_are_the_generator_rows_for_any_seed(self, seed):
        batches, want = mc_starts_and_generator_rows((4, [2, 1], 0), seed,
                                                     trials=12)
        assert np.allclose(np.concatenate(batches), want, rtol=1e-15, atol=0)

    @pytest.mark.parametrize("text", ["x^3 + y^3", "x^4 + y^4 + z^4"])
    def test_form_of_another_shape_is_refused(self, text):
        # its coefficients were once read at the quartic's indices, as zeros
        with pytest.raises(ShapeMismatch):
            count_reps_monte_carlo(4, [2, 1], 0, trials=300,
                                   form=parse_form(text))

    @pytest.mark.parametrize("seed", [-1, -2])
    def test_negative_seed_is_refused(self, seed):
        with pytest.raises(ValueError):
            count_reps_monte_carlo(4, [2], 2, trials=5, seed=seed)

    @staticmethod
    def assert_rows_solved_alone(jac, r):
        # each row gets the step it gets alone, or is retired when alone
        # its solve raises
        step, solved = binary._solve_rows(jac, r)
        for i in range(len(r)):
            try:
                want = np.linalg.solve(jac[i], r[i])
            except np.linalg.LinAlgError:
                assert not solved[i] and not step[i].any(), i
                continue
            assert solved[i] and np.array_equal(step[i], want, equal_nan=True), i
        return solved.tolist()

    def test_singular_row_retires_alone(self):
        rng = np.random.default_rng(3)
        jac = rng.standard_normal((3, 5, 5)) + 1j * rng.standard_normal((3, 5, 5))
        jac[1, :, 4] = 0
        r = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        assert self.assert_rows_solved_alone(jac, r) == [True, False, True]

        # every row singular: nothing is solved and no step is taken
        dead = jac.copy()
        dead[:, 2] = 0
        assert self.assert_rows_solved_alone(dead, r) == [False] * 3

        # rows holding nan or inf beside a singular one: solved alone they
        # give nan steps without raising, and so they do in the stack
        odd = np.concatenate([jac, jac[:3]])
        odd[0, 1, 3] = np.nan
        odd[2, 0, 0] = np.inf
        odd[3, 4, :] = complex(np.inf, np.nan)
        with np.errstate(invalid="ignore"):
            assert self.assert_rows_solved_alone(
                odd, np.concatenate([r, r[:3]])) == [True, False, True,
                                                      True, False, True]

        # A start whose square block is zero has a singular Jacobian: Newton
        # retires that row and steps the others exactly as it would alone.
        p = Form(2, 4, {(4, 0): 3 + 1j, (2, 2): -2.0, (1, 3): 5.0, (0, 4): 1.0})
        system = binary._mc_system(4, [2], [linear_form([1, 0]),
                                            linear_form([0, 1])], p)
        z = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
        z[1, 2:] = 0
        stacked = z.copy()
        converged, _ = binary._mc_newton(system, stacked, 1.0)
        assert not converged[1] and np.array_equal(stacked[1], z[1])
        for i in (0, 2):
            alone = z[i:i + 1].copy()
            assert binary._mc_newton(system, alone, 1.0)[0][0] == converged[i]
            assert np.array_equal(alone[0], stacked[i])

    @staticmethod
    def assert_newton_rows_alone(system, z, scale):
        # The compact active set returns, bit for bit, the flag, final z and
        # powers of each row run alone and of the one-row loop reference.
        # Returns the converged mask and the final z.
        stacked = z.copy()
        converged, powers = binary._mc_newton(system, stacked, scale)
        want = mc_newton_reference(system, z, scale)
        assert converged.tolist() == want[0].tolist()
        assert stacked.tobytes() == want[1].tobytes()
        assert powers.tobytes() == want[2].tobytes()
        at = np.cumsum(converged) - 1
        for i in range(len(z)):
            alone = z[i:i + 1].copy()
            flag, power = binary._mc_newton(system, alone, scale)
            assert flag[0] == converged[i], i
            assert alone.tobytes() == stacked[i:i + 1].tobytes(), i
            assert power.tobytes() == powers[at[i]:at[i] + flag[0]].tobytes(), i
        return converged, stacked

    @settings(max_examples=12, deadline=None, derandomize=True)
    @given(shape=st.sampled_from([(4, [2], 2), (4, [2, 1], 0),
                                  (6, [3, 2], 0), (6, [2], 4)]),
           seed=st.integers(0, 2 ** 32))
    def test_each_row_steps_as_it_would_alone(self, shape, seed):
        # A stack of converging starts, a far start that cannot converge in
        # 60 steps, a start whose first summand is zero (singular from the
        # first pass) and nan and inf rows, in a seeded order.
        d, e, m = shape
        rng, form, fixed = mc_draws(d, m, seed)
        system = binary._mc_system(d, e, fixed, form.approx())
        scale = max(form.norm(), 1.0)
        z = rng.standard_normal((11, d + 1)) + 1j * rng.standard_normal((11, d + 1))
        z *= [scale] * m + [scale ** (ek / d) for ek in e for _ in range(ek + 1)]
        z[6] *= 1e30
        z[7, m:m + e[0] + 1] = 0
        z[8], z[9, 0], z[10, -1] = np.nan, np.inf, complex(np.inf, np.nan)
        order = rng.permutation(11)
        converged, stacked = self.assert_newton_rows_alone(system, z[order],
                                                           scale)
        kind = dict(zip(order.tolist(), range(11)))
        assert converged[[kind[i] for i in range(6)]].any()
        assert not converged[[kind[i] for i in range(6, 11)]].any()
        far, zero = stacked[kind[6]], stacked[kind[7]]
        assert np.isfinite(far).all() and not np.array_equal(far, z[6])
        assert np.array_equal(zero, z[7])

    def test_a_row_retired_after_a_step_keeps_its_last_iterate(self):
        # Newton on x^2 + 1, one unknown per row: from +-1 one step lands on
        # x = 0, where the Jacobian 2x is singular, so the row leaves the
        # active set holding 0; 1j converges at once with power -1, and 2
        # (real) never converges.
        def residual(z):
            return z * z + 1, 2 * z[None], (z * z)[:, None]

        def jacobian(slopes):
            return slopes[0][:, :, None]

        z = np.array([[1], [2], [1j], [-1], [np.nan]])
        converged, stacked = self.assert_newton_rows_alone(
            (residual, jacobian), z, 1.0)
        assert converged.tolist() == [False, False, True, False, False]
        assert stacked[[0, 3], 0].tolist() == [0, 0]
        assert stacked[2, 0] == 1j and np.isfinite(stacked[1, 0])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(d=st.integers(2, 30), data=st.data())
    def test_system_values_are_the_coefficient_system_evaluated(self, d,
                                                                data):
        # E[i, j] = w^(ij) evaluates a raw coefficient vector at (1, w^i)
        divisors = [k for k in range(1, d) if d % k == 0]
        e, m = [], d + 1
        while not e or data.draw(st.booleans()):
            fits = [k for k in divisors if k + 1 <= m]
            if not fits:
                break
            e.append(data.draw(st.sampled_from(fits)))
            m -= e[-1] + 1
        e.sort(reverse=True)
        rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))

        def gaussian(*shape):
            return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

        lins, z = gaussian(m, 2), gaussian(4, d + 1)
        p = Form(2, d, {(d - j, j): complex(v)
                        for j, v in enumerate(gaussian(d + 1))})
        target = np.array([complex(p.raw((d - j, j))) for j in range(d + 1)])
        residual, jacobian = binary._mc_system(
            d, e, [linear_form(list(map(complex, row))) for row in lins], p)
        res, slopes, powers = residual(z)
        evaluate = np.exp(2j * np.pi / (d + 1)
                          * np.outer(np.arange(d + 1), np.arange(d + 1)))
        # the residual, Jacobian (built from the residual pass's slopes) and
        # powers hold their d+1 values on axis 1, 1 and 2
        for got, want, axis in zip((res, jacobian(slopes), powers),
                                   coefficient_system(d, e, lins, target, z),
                                   (1, 1, 2)):
            want = np.moveaxis(evaluate @ np.moveaxis(want, axis, -2), -2,
                               axis)
            err = np.max(np.abs(got - want), axis=axis)
            assert np.all(err <= 1e-9 * np.max(np.abs(want), axis=axis))

    def test_signature_hits_match_the_pairwise_loop(self):
        # Reference: the pairwise greedy match the counter used per trial.
        def pair_match(ts_a, pw_a, ts_b, pw_b, groups, tol=1e-6):
            scale = max(1.0, float(np.max(np.abs(ts_a))) if ts_a.size else 1.0,
                        float(np.max(np.abs(pw_a))))
            if ts_a.size and float(np.max(np.abs(ts_a - ts_b))) > tol * scale:
                return False
            for lo, hi in groups:
                free = list(range(lo, hi))
                for a in range(lo, hi):
                    hit = next((b for b in free if float(np.max(
                        np.abs(pw_a[a] - pw_b[b]))) <= tol * scale), None)
                    if hit is None:
                        return False
                    free.remove(hit)
            return True

        rng = np.random.default_rng(11)
        groups = [(0, 1), (1, 4)]
        base_ts = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
        base_pw = (rng.standard_normal((4, 4, 5))
                   + 1j * rng.standard_normal((4, 4, 5))) * 30
        ts, pw = [], []
        for _ in range(60):
            k = rng.integers(4)
            perm = np.concatenate([[0], 1 + rng.permutation(3)])
            noise = rng.choice([0.0, 1e-7, 5e-6, 3e-5])
            ts.append(base_ts[k] + noise * rng.standard_normal(2))
            pw.append(base_pw[k][perm] + noise * rng.standard_normal((4, 5)))
        ts, pw = np.array(ts), np.array(pw)
        got = binary._signature_hits(ts, pw, ts[:25], pw[:25], groups)
        want = [[pair_match(ts[i], pw[i], ts[j], pw[j], groups)
                 for j in range(25)] for i in range(60)]
        assert got.tolist() == want
        assert 0 < got.sum() < got.size
