import cmath
import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from canonform import (QQi, forms_close, monomial_form, multivar, parse_form,
                       random_form)
from canonform.binary import sylvester_decompose
from canonform.cli import main
from canonform.decompositions import Decomposition, Term
from canonform.errors import (DegenerateInput, DegeneratePencil,
                              DegenerateStage, PivotZero, ZeroForm)
from canonform.forms import Form, biermann_point, index_set, linear_coeffs
from canonform.multivar import (PencilDiag, _eliminate, drab_family,
                                pencil_diagonalize, quartic_lift,
                                reichstein_full, reichstein_step, slinky,
                                slowpoke, uppertri, uppertri_pairs)


def term_vectors(dec):
    from canonform.forms import index_set
    out = []
    for t in dec.terms:
        fa = t.form().approx()
        out.append(tuple(complex(fa.a(i)) for i in index_set(fa.n, fa.d)))
    return out


def multisets_match(a, b, tol=1e-6):
    """Greedy matching of term-form coefficient vectors within tol."""
    if len(a) != len(b):
        return False
    scale = max((abs(x) for v in a + b for x in v), default=1.0)
    left = list(b)
    for u in a:
        hit = None
        for i, v in enumerate(left):
            if max(abs(x - y) for x, y in zip(u, v)) <= tol * max(scale, 1.0):
                hit = i
                break
        if hit is None:
            return False
        left.pop(hit)
    return True


class TestUppertri:
    def test_diagonal_input(self):
        p = parse_form("x^2 + y^2 + z^2")
        rows = uppertri(p).rows
        assert [str(r) for r in rows] == ["x", "y", "z"]

    def test_one_completion_step(self):
        tri = uppertri(parse_form("x^2 + 2*x*y + 3*y^2"))
        assert str(tri.rows[0]) == "x + y"
        assert forms_close(tri.rows[1].approx() * tri.rows[1].approx(),
                           parse_form("2*y^2").approx(), 1e-12)

    def test_pivot_zero(self):
        with pytest.raises(PivotZero):
            uppertri(parse_form("x*y"))

    def test_rows_that_miss_the_input_are_refused(self, monkeypatch):
        # a wrong square root scales every row off; the check refuses them
        monkeypatch.setattr(multivar, "scalar_sqrt", lambda v: 2.0 * cmath.sqrt(v))
        with pytest.raises(DegenerateInput, match="reconstruction check failed"):
            uppertri(parse_form("x^2 + 2*x*y + 3*y^2"))

    def test_reconstruction_and_uniqueness(self):
        rng = random.Random(30)
        for n in (2, 3, 4):
            p = random_form(n, 2, rng)
            t1, t2 = uppertri(p), uppertri(p)
            assert forms_close(
                Decomposition([Term(1, r, 2) for r in t1.rows]).reconstruct(),
                p.approx(), 1e-9)
            squares1 = [r * r for r in t1.rows]
            squares2 = [r * r for r in t2.rows]
            negated = [(-r) * (-r) for r in t2.rows]
            for a, b, c in zip(squares1, squares2, negated):
                assert forms_close(a.approx(), b.approx(), 1e-12)
                assert forms_close(a.approx(), c.approx(), 1e-12)

    def test_triangular_supports(self):
        p = random_form(4, 2, random.Random(31))
        for k, a, row in uppertri_pairs(p):
            assert min(row.used_vars()) == k

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_approximate_rows_are_supported_on_their_tail(self, n):
        # rounding leaves x_k residue after each square; it must not reach
        # the later rows
        rng = random.Random(32 + n)
        # a dominant diagonal keeps every pivot nonzero
        diagonal = parse_form("+".join(f"40*x{k + 1}^2" for k in range(n)), n=n)
        for _ in range(4):
            p = (random_form(n, 2, rng) + diagonal).approx().scale(0.1)
            pairs = uppertri_pairs(p)
            assert len(pairs) == n
            for k, _, row in pairs:
                coeffs = linear_coeffs(row)
                assert coeffs[k] and not any(coeffs[:k])


class TestPencil:
    def test_simultaneous_diagonalization(self):
        rng = random.Random(32)
        f = random_form(3, 2, rng)
        g = random_form(3, 2, rng)
        diag = pencil_diagonalize(f, g)
        recon_f = Form.zero(3, 2)
        recon_g = Form.zero(3, 2)
        for lf, c in zip(diag.forms, diag.eigenvalues):
            sq = lf * lf
            recon_f = recon_f + sq
            recon_g = recon_g + sq.scale(c)
        assert forms_close(recon_f, f.approx(), 1e-8)
        assert forms_close(recon_g, g.approx(), 1e-8)

    def test_singular_pencil(self):
        with pytest.raises(DegeneratePencil):
            pencil_diagonalize(parse_form("x^2", n=2), parse_form("y^2", n=2))


class TestReichstein:
    def test_step_structure(self):
        rng = random.Random(33)
        p = random_form(3, 3, rng)
        dec, q = reichstein_step(p)
        assert len(dec.terms) == 3
        assert q.partial(0).is_zero(1e-8, scale=p.norm())
        assert q.partial(1).is_zero(1e-8, scale=p.norm())
        total = dec.reconstruct() + q
        assert forms_close(total, p.approx(), 1e-8)

    def test_diagonal_cubic_is_degenerate(self):
        with pytest.raises(DegeneratePencil):
            reichstein_step(parse_form("x^3 + y^3 + z^3"))

    @pytest.mark.parametrize("scale", [1e20, 1.0, 1e-6, 1e-12, 1e-20])
    def test_skewed_pencil_is_refused_at_every_scale(self, monkeypatch, scale):
        # eigenvalues 0.1% off the pencil's fail the mixed-partials check
        # alpha_i2 = c_i alpha_i1, however small the pencil's rows are
        def skewed(f, g, eps):
            diag = pencil_diagonalize(f, g, eps)
            return PencilDiag(diag.forms, [c * 1.001 for c in diag.eigenvalues])

        monkeypatch.setattr(multivar, "pencil_diagonalize", skewed)
        p = random_form(3, 3, random.Random(1)).approx().scale(scale)
        with pytest.raises(DegeneratePencil, match="mixed-partials"):
            reichstein_step(p)

    def test_full_counts_and_stage_supports(self):
        rng = random.Random(34)
        for n, want in ((2, 2), (3, 4), (4, 6), (5, 9)):
            p = random_form(n, 3, rng)
            dec = reichstein_full(p)
            assert len(dec.terms) == want == ((n + 1) ** 2) // 4
            assert dec.verify(p, 1e-8)
            # stage-m cubes involve only the variables from x_(1+2m) on
            at = 0
            for stage in dec.meta["stages"]:
                lo = 2 * stage["stage"]
                for t in dec.terms[at:at + stage["cubes"]]:
                    assert min(t.base.used_vars()) >= lo
                at += stage["cubes"]

    def test_matches_sylvester_for_binary(self):
        rng = random.Random(35)
        for _ in range(5):
            p = random_form(2, 3, rng)
            a = term_vectors(reichstein_full(p))
            b = term_vectors(sylvester_decompose(p))
            assert len(a) == len(b) == 2
            assert multisets_match(a, b)


class TestSlinky:
    def test_counts_supports_exactness(self):
        # wide coefficients keep the small-integer degeneracies away
        rng = random.Random(36)
        for n in (2, 3, 4):
            p = random_form(n, 3, rng, lo=-99, hi=99)
            dec = slinky(p)
            assert len(dec.terms) == n * (n + 1) // 2
            assert dec.reconstruct() == p  # exact arithmetic throughout
            # the (min, max) variable ranges realize every pair i <= j
            ranges = sorted((min(t.base.used_vars()), max(t.base.used_vars()))
                            for t in dec.terms)
            assert ranges == sorted((i, j) for i in range(n)
                                    for j in range(i, n))

    def test_unique_across_reruns(self):
        p = random_form(3, 3, random.Random(37))
        assert str(slinky(p)) == str(slinky(p))

    def test_agreement_with_uppertri_of_last_partial(self):
        p = random_form(3, 3, random.Random(38))
        dec = slinky(p)
        h = p.partial(2)
        tri_squares = sorted_term_forms_list(
            [(QQi(1) / a, row * row) for _, a, row in uppertri_pairs(h)])
        stage = [t for t in dec.terms if 2 in t.base.used_vars()]
        deriv = sorted_term_forms_list(
            [(t.multiplier * 3 * t.base.raw((0, 0, 1)), t.base * t.base)
             for t in stage])
        assert len(tri_squares) == len(deriv)
        for u, v in zip(tri_squares, deriv):
            assert max(abs(x - y) for x, y in zip(u, v)) < 1e-9

    def test_monomial_cube(self):
        dec = slinky(parse_form("x^3", n=3, d=3))
        assert len(dec.terms) == 1 and str(dec) == "x^3"

    def test_degenerate_stage_reported(self):
        with pytest.raises(DegenerateStage):
            slinky(parse_form("x^3 + 3*x^2*y + y^3 - z^3 + x*y*z"))

    def test_covariant_under_diagonal_scalings_and_reversal(self):
        """The paper's "uniquely": diagonal scalings over Q(i) and the
        reversal x_k -> x_(n+1-k) keep the supports x_i..x_j, so the cubes
        of slinky(p o M) are those of slinky(p) composed with M, and p o M
        is refused when p is."""
        def cubes(p):
            """slinky(p)'s term forms as a multiset, or None for a refusal."""
            try:
                return Counter(t.form() for t in slinky(p).terms)
            except DegenerateStage:
                return None

        rng, decomposed = random.Random(30), 0
        for seed in range(40):
            n = 3 + seed % 3
            p = random_form(n, 3, random.Random(seed))
            scalings = [[[QQi(Fraction(rng.choice((-1, 1)) * rng.randint(1, 9),
                                       rng.randint(1, 9)), rng.randint(-3, 3))
                          if j == k else QQi(0) for k in range(n)]
                         for j in range(n)] for _ in range(2)]
            reversal = [[QQi(int(j + k == n - 1)) for k in range(n)]
                        for j in range(n)]
            mine = cubes(p)
            decomposed += mine is not None
            # the last map is the reversal after the first scaling
            for m in scalings + [reversal, scalings[0][::-1]]:
                want = mine and Counter({f.substitute(m): k
                                         for f, k in mine.items()})
                assert cubes(p.substitute(m)) == want, (seed, m)
        assert decomposed >= 30


def sorted_term_forms_list(pairs):
    from canonform.forms import index_set
    keys = []
    for mult, form in pairs:
        fa = form.approx().scale(complex(mult))
        vec = tuple(complex(fa.a(i)) for i in index_set(fa.n, fa.d))
        keys.append(vec)
    return sorted(keys, key=lambda v: (v[0].real, v[0].imag, v[-1].real,
                                       v[-1].imag))


class TestDrab:
    def test_cached_rows_are_the_families_coefficients_read_only(self):
        for m in range(1, 9):
            rows = multivar._drab_rows(m)
            want = np.array([linear_coeffs(lf) for lf in drab_family(m)], dtype=complex)
            assert rows.tobytes() == want.tobytes() and rows.shape == want.shape
            assert not rows.flags.writeable
            assert multivar._drab_rows(m) is rows

    def test_identities_up_to_eight(self):
        for m in range(1, 9):
            fam = drab_family(m)
            assert len(fam) == m + 1
            total = fam[0]
            squares = fam[0] * fam[0]
            for f in fam[1:]:
                total = total + f
                squares = squares + f * f
            assert total.is_zero(1e-12, scale=1.0)
            target = None
            for k in range(m):
                idx = [0] * m
                idx[k] = 2
                mono = monomial_form(m, tuple(idx))
                target = mono if target is None else target + mono
            assert forms_close(squares, target.approx(), 1e-12)


class TestSlowpoke:
    def test_monomial_product(self):
        p = parse_form("x*y*z")
        dec = slowpoke(p)
        assert len(dec.terms) <= 6
        assert dec.verify(p, 1e-7)

    def test_single_cube(self):
        dec = slowpoke(parse_form("x^3", n=2, d=3))
        assert len(dec.terms) == 1
        assert str(dec) == "x^3"

    def test_zero_form(self):
        with pytest.raises(ZeroForm):
            slowpoke(Form.zero(3, 3))

    def test_structured_degenerate_inputs(self):
        cases = [
            parse_form("x^3 + y^3 + z^3"),
            parse_form("x*y*z + x^3"),
            parse_form("x1*x2*x3 + x2*x3*x4", n=4, d=3),
            parse_form("x1^3 + x1*x2^2", n=5, d=3),
        ]
        for p in cases:
            n = p.n
            dec = slowpoke(p)
            assert len(dec.terms) <= n * (n + 1) // 2
            assert dec.verify(p, 1e-7)

    def test_random_bound_and_reconstruction(self):
        rng = random.Random(39)
        for n in (2, 3, 4, 5, 6):
            for _ in range(3):
                p = random_form(n, 3, rng)
                dec = slowpoke(p)
                assert len(dec.terms) <= n * (n + 1) // 2
                assert dec.verify(p, 1e-7)

    @pytest.mark.parametrize("k", [6, 7, 8, 9])
    def test_chain_cubics(self, k, capsys):
        # deep levels have a tiny noise floor: a square made from rounding
        # noise must not reach the basis completion as a dependent row
        text = "+".join(f"x{i}*x{i + 1}*x{i + 2}" for i in range(1, k + 1))
        p = parse_form(text)
        dec = slowpoke(p)
        assert len(dec.terms) <= p.n * (p.n + 1) // 2
        assert dec.verify(p, 1e-7)
        assert main(["decompose", "slowpoke", text]) == 0
        assert capsys.readouterr().err == ""


def _tensor_form(t):
    """The cubic whose stored coefficients are the tensor's entries."""
    coeffs = {}
    for idx in index_set(len(t), 3):
        i, j, k = [v for v, e in enumerate(idx) for _ in range(e)]
        coeffs[idx] = complex(t[i, j, k])
    return Form(len(t), 3, coeffs)


class TestCubicTensor:
    """slowpoke's array kernel against Form arithmetic."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_substitution_and_values(self, n):
        p = random_form(n, 3, random.Random(60 + n))
        gen = np.random.default_rng(60 + n)
        t = multivar._cubic_tensor(p)
        assert _tensor_form(t) == p.approx()
        m = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        want = p.approx().substitute(m.tolist())
        got = _tensor_form(multivar._tensor_substitute(t, m))
        assert (got - want).norm() <= 1e-12 * want.norm()
        points = gen.standard_normal((5, n)) + 1j * gen.standard_normal((5, n))
        want = np.array([complex(p.evaluate(pt.tolist())) for pt in points])
        got = multivar._tensor_values(t, points)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("n", range(1, 7))
    def test_substitution_is_the_tensordot_product_bit_for_bit(self, n):
        gen = np.random.default_rng(80 + n)
        t = gen.standard_normal((n, n, n)) + 1j * gen.standard_normal((n, n, n))
        m = gen.standard_normal((n, n)) + 1j * gen.standard_normal((n, n))
        want = t
        for _ in range(3):
            want = np.tensordot(want, m, axes=(0, 0))
        want = sum(want.transpose(axes) for axes in itertools.permutations(range(3))) / 6
        assert np.array_equal(multivar._tensor_substitute(t, m), want)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_biermann_point_matches_the_form_scan(self, n):
        rng = random.Random(70 + n)
        cases = [random_form(n, 3, rng), random_form(n, 3, rng).approx().scale(0.3)]
        # products of distinct variables vanish on the first grid points
        cases += [monomial_form(n, tuple(int(k < 3) for k in range(n)))] if n >= 3 else []
        cases += [parse_form("x1*x2*x3 + x2*x3*x4", n=n, d=3)] if n >= 4 else []
        for p in cases:
            u, c = multivar._tensor_biermann(multivar._cubic_tensor(p), 1e-9)
            assert tuple(int(v) for v in u) == biermann_point(p, 1e-9)
            assert abs(c - complex(p.evaluate(biermann_point(p)))) <= 1e-12 * p.norm()
        assert multivar._tensor_biermann(np.zeros((n, n, n), complex), 1e-9) is None


class TestQuarticLift:
    def test_binary(self):
        p = random_form(2, 4, random.Random(40))
        dec = quartic_lift(p)
        assert len(dec.terms) == 2
        assert dec.residual.used_vars() in ([], [0])
        assert dec.verify(p, 1e-7)

    def test_ternary(self):
        p = random_form(3, 4, random.Random(41))
        dec = quartic_lift(p)
        assert len(dec.terms) == 4
        assert set(dec.residual.used_vars()) <= {0, 1}
        assert dec.verify(p, 1e-7)

    def test_missing_last_variable(self):
        with pytest.raises(DegenerateStage):
            quartic_lift(parse_form("x^4", n=2, d=4))

    @pytest.mark.parametrize("text,mult", [("3*x^4", 3), ("(1+2*i)*x^4", QQi(1, 2))])
    @pytest.mark.parametrize("exact", [True, False])
    def test_one_variable(self, text, mult, exact):
        # one fourth power, c/4 x^4 from dp/dx = c x^3, and a zero residual
        p = parse_form(text, n=1)
        p = p if exact else p.approx()
        dec = quartic_lift(p)
        assert [(t.multiplier, t.base, t.power) for t in dec.terms] == [
            (mult, parse_form("x", n=1), 4)]
        assert dec.residual.is_zero() and dec.verify(p, 0.0)

    def test_parameter_count_identity(self):
        # N(n,3) + N(n-1,4) = N(n,4) justifies the residual bookkeeping
        from canonform import dim
        for n in range(2, 8):
            assert dim(n, 3) + dim(n - 1, 4) == dim(n, 4)


class TestEliminate:
    """The one rule set behind every construction's variable elimination."""

    def test_refuses_an_exact_nonzero(self):
        p = parse_form("1/1000000000000*x*y^2 + y^3")
        assert _eliminate(p, [0], 1e-6, p.norm()) is None
        # the same value as a float is noise
        assert _eliminate(p.approx(), [0], 1e-6, p.norm()) == parse_form("y^3").approx()

    def test_refuses_a_float_above_the_bound(self):
        p = Form(2, 3, {(1, 2): 3e-6, (0, 3): 1.0})
        assert _eliminate(p, [0], 1e-6, 1.0) is None
        # the bound is tol * scale: a larger scale lets it through
        assert _eliminate(p, [0], 1e-6, 10.0) == Form(2, 3, {(0, 3): 1.0})
        # and a scale below 1 tightens it
        q = Form(2, 3, {(1, 2): 5e-7, (0, 3): 1.0})
        assert _eliminate(q, [0], 1e-6, 1.0) == Form(2, 3, {(0, 3): 1.0})
        assert _eliminate(q, [0], 1e-6, 0.01) is None

    def test_drops_float_noise_below_the_bound(self):
        p = Form(3, 2, {(2, 0, 0): 1e-9, (0, 1, 1): 2.0 + 1j,
                        (1, 0, 1): -1e-8j, (0, 0, 2): -3.0})
        got = _eliminate(p, [0], 1e-7, p.norm())
        assert got == Form(3, 2, {(0, 1, 1): 2.0 + 1j, (0, 0, 2): -3.0})
        assert not got.exact

    def test_keeps_the_other_monomials_unchanged(self):
        p = random_form(4, 3, random.Random(3))
        rest = Form(4, 3, {i: v for i, v in p.items() if not (i[1] or i[3])})
        assert rest and _eliminate(rest, [1, 3], 1e-6, 1.0).items() == rest.items()
        noise = {(0, 3, 0, 0): 1e-12, (1, 1, 0, 1): -1e-13j}
        noisy = Form(4, 3, dict(rest.approx().items()) | noise)
        got = _eliminate(noisy, [1, 3], 1e-6, noisy.norm())
        assert got.items() == rest.approx().items()


@pytest.mark.parametrize("construction", [reichstein_full, slinky])
def test_zero_cubic_is_refused_up_front(construction):
    for p in (Form.zero(3, 3), parse_form("0*x*y*z").approx()):
        with pytest.raises(ZeroForm):
            construction(p)
