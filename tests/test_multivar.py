import random

import pytest

from canonform import QQi, forms_close, monomial_form, parse_form, random_form
from canonform.binary import sylvester_decompose
from canonform.cli import main
from canonform.errors import (DegeneratePencil, DegenerateStage, PivotZero,
                              ZeroForm)
from canonform.forms import Form
from canonform.multivar import (drab_family, pencil_diagonalize, quartic_lift,
                                reichstein_full, reichstein_step, slinky,
                                slowpoke, uppertri, uppertri_pairs)


def term_vectors(dec):
    from canonform.forms import index_set
    out = []
    for f in dec.term_forms():
        fa = f.approx()
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

    def test_reconstruction_and_uniqueness(self):
        rng = random.Random(30)
        for n in (2, 3, 4):
            p = random_form(n, 2, rng)
            t1, t2 = uppertri(p), uppertri(p)
            assert forms_close(t1.reconstruct(n), p.approx(), 1e-9)
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

    def test_parameter_count_identity(self):
        # N(n,3) + N(n-1,4) = N(n,4) justifies the residual bookkeeping
        from canonform import dim
        for n in range(2, 8):
            assert dim(n, 3) + dim(n - 1, 4) == dim(n, 4)
