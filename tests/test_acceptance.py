"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are pinned here and match the contract; nothing is
calibrated at runtime.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from canonform import (QQi, apply_diff, binary_factor, forms_close,
                       linear_form, monomial_form, pair, parse_form,
                       power_of_linear, random_form)
from canonform.binary import (MixedSpec, count_reps_monte_carlo,
                              mixed_decompose, quartic_six_for_form,
                              quartic_six_reps, quartic_two_fixed,
                              sylvester_decompose, two_squares_all)
from canonform.canonicity import (build_map, hyperplane_classify,
                                  jacobian_certify)
from canonform.enumeration import (neat_enumerate, neat_upto,
                                   obstruction_A, s_of_d, smallest_in_A)
from canonform.multivar import (drab_family, reichstein_full, slinky,
                                slowpoke)
from tests_support import hyperplane_form, quartic_power_ratio, used_vars

EX310 = "2*x^3 + 3*x^2*y - 21*x*y^2 - 41*y^3"
EX41 = "-x^5 + 15*x^4*y - 170*x^3*y^2 + 390*x^2*y^3 - 505*x*y^4 + 483*y^5"


def announce(number, text):
    print(f"ACCEPTANCE {number:2d} PASS: {text}")


def test_criterion_01_sylvester_worked_example_exact():
    p = parse_form(EX310)
    t0 = time.perf_counter()
    dec = sylvester_decompose(p)
    elapsed = time.perf_counter() - t0
    assert elapsed < 0.1, f"took {elapsed:.3f}s"
    by_node = {}
    for t in dec.terms:
        node = (t.base.raw((1, 0)), t.base.raw((0, 1)))
        by_node[node] = t.multiplier
    assert by_node == {(QQi(1), QQi(2)): QQi(5), (QQi(1), QQi(3)): QQi(-3)}
    assert str(dec) == "5*(x+2*y)^3 - 3*(x+3*y)^3"
    assert dec.reconstruct() == p
    announce(1, "Sylvester on the worked cubic: 5(x+2y)^3 - 3(x+3y)^3, "
                f"exact, {elapsed * 1000:.1f} ms")


def test_criterion_02_mixed_worked_example_exact():
    p = parse_form(EX41)
    spec = MixedSpec([parse_form("x + y"), parse_form("-x + 3*y")], 2)
    dec = mixed_decompose(p, spec)
    got = {str(t.base): t.multiplier for t in dec.terms}
    assert got == {"x + 2*y": QQi(-4), "x + 3*y": QQi(1),
                   "x + y": QQi(Fraction(7, 2)),
                   "-x + 3*y": QQi(Fraction(3, 2))}
    assert dec.reconstruct() == p
    announce(2, "mixed decomposition of the worked quintic: "
                "{-4, 1, 7/2, 3/2}, exact")


def test_criterion_03_apolarity_identities():
    rng = random.Random(103)
    cases = 0
    for n in (1, 2, 3):
        for d in range(1, 7):
            for _ in range(100):
                p = random_form(n, d, rng, lo=-6, hi=6, gaussian=True)
                q = random_form(n, d, rng, lo=-6, hi=6, gaussian=True)
                alpha = [QQi(rng.randint(-4, 4), rng.randint(-4, 4))
                         for _ in range(n)]
                # difflin symmetry
                pq = apply_diff(p, q)
                assert pq == apply_diff(q, p)
                assert pq.a((0,) * n) == math.factorial(d) * pair(p, q)
                # duality
                assert pair(p, power_of_linear(alpha, d)) == p.evaluate(alpha)
                if d >= 2:
                    e = max(1, d // 2)
                    f = random_form(n, e, rng, lo=-6, hi=6)
                    g = random_form(n, d - e, rng, lo=-6, hi=6)
                    # multiplicativity of the pairing
                    assert math.factorial(d) * pair(f * g, p) == \
                        math.factorial(e) * pair(f, apply_diff(g, p))
                    # operators applied to powers of linear forms
                    lhs = apply_diff(g, power_of_linear(alpha, d))
                    c = QQi(Fraction(math.factorial(d), math.factorial(e)))
                    rhs = power_of_linear(alpha, e).scale(c * g.evaluate(alpha))
                    assert lhs == rhs
                cases += 1
    announce(3, f"apolarity identities exact over {cases} random cases "
                "(100 per shape, n <= 3, d <= 6)")


def _random_admissible(s, rng):
    while True:
        p = random_form(2, 2 * s, rng)
        if not p.raw((2 * s, 0)):
            continue
        _, factors = binary_factor(p)
        if all(m == 1 for _, m in factors):
            return p


def test_criterion_04_two_squares_counts():
    rng = random.Random(104)
    for s, want in ((1, 1), (2, 3), (3, 10)):
        p = _random_admissible(s, rng)
        reps = two_squares_all(p)
        assert len(reps) == want == math.comb(2 * s - 1, s)
        for rep in reps:
            assert rep.verify(p, 1e-9)
    announce(4, "two-squares representation counts 1 / 3 / 10 for degrees "
                "2 / 4 / 6, all reconstructing at 1e-9")


def test_criterion_05_quartic_six_pack():
    rng = random.Random(105)
    seen = 0
    while seen < 20:
        lam = QQi(Fraction(rng.randint(-30, 30), rng.randint(7, 23)))
        if lam in (QQi(Fraction(1, 3)), QQi(Fraction(-1, 3))):
            continue
        target = (parse_form("x^4 + y^4")
                  + monomial_form(2, (2, 2), 6 * lam))
        reps = quartic_six_reps(lam)
        assert len(reps) == 6
        assert all(r.reconstruct() == target for r in reps)
        ratios = [quartic_power_ratio(r) for r in reps]
        inf = [r for r in ratios if r is None]
        finite = sorted((round(r.real, 9), round(r.imag, 9))
                        for r in ratios if r is not None)
        assert len(inf) == 1 and finite == [(-1.0, 0.0), (0.0, -1.0),
                                            (0.0, 0.0), (0.0, 1.0),
                                            (1.0, 0.0)]
        seen += 1
    p = random_form(2, 4, rng)
    pulled = quartic_six_for_form(p)
    assert len(pulled) == 6 and all(r.verify(p, 1e-6) for r in pulled)
    l1, l2 = linear_form([1, 1]), linear_form([2, -1])
    fixed = quartic_two_fixed(p, l1, l2)
    assert len(fixed) == 2 and all(r.verify(p, 1e-7) for r in fixed)
    announce(5, "quartic six-pack: 20 lambdas with ratio set {0, inf, +-1, "
                "+-i}, pullback six-pack, and the two fixed-forms solutions")


def test_criterion_06_reichstein():
    rng = random.Random(106)
    runs = 0
    for n in (3, 4, 5):
        for _ in range(17):
            p = random_form(n, 3, rng, lo=-99, hi=99)
            dec = reichstein_full(p)
            assert len(dec.terms) == ((n + 1) ** 2) // 4
            assert dec.verify(p, 1e-8)
            runs += 1
    from tests_support import term_vectors, multisets_match
    for _ in range(5):
        p = random_form(2, 3, rng, lo=-99, hi=99)
        assert multisets_match(term_vectors(reichstein_full(p)),
                               term_vectors(sylvester_decompose(p)))
    announce(6, f"Reichstein completion of the cube: {runs} random cubics "
                "(n = 3, 4, 5) at 1e-8 with floor((n+1)^2/4) cubes; "
                "binary case matches Sylvester")


def test_criterion_07_slinky():
    rng = random.Random(107)
    runs = 0
    for n in (2, 3, 4):
        for _ in range(17):
            p = random_form(n, 3, rng, lo=-99, hi=99)
            dec = slinky(p)
            assert len(dec.terms) == n * (n + 1) // 2
            assert dec.reconstruct() == p
            ranges = sorted((min(used_vars(t.base)), max(used_vars(t.base)))
                            for t in dec.terms)
            assert ranges == sorted((i, j) for i in range(n)
                                    for j in range(i, n))
            assert str(slinky(p)) == str(dec)  # re-run is identical
            runs += 1
    announce(7, f"slinky form: {runs} random cubics (n = 2, 3, 4), exact "
                "reconstruction, binom(n+1,2) cubes with prescribed "
                "supports, reruns identical")


def test_criterion_08_slowpoke_totality():
    p = parse_form("x*y*z")
    dec = slowpoke(p)
    assert dec.verify(p, 1e-7) and len(dec.terms) <= 6
    rank_deficient = [
        parse_form("x^3 + y^3 + z^3"),
        parse_form("x1*x2*x3 + x2*x3*x4", n=4, d=3),
        parse_form("x1^3 + x1*x2^2", n=5, d=3),
        (linear_form([1, 2, 3, 0]) ** 3) + (linear_form([0, 1, -1, 1]) ** 3),
    ]
    for q in rank_deficient:
        d2 = slowpoke(q)
        assert d2.verify(q, 1e-7)
        assert len(d2.terms) <= q.n * (q.n + 1) // 2
    rng = random.Random(108)
    runs = 0
    for k in range(100):
        n = (k % 6) + 1
        q = random_form(n, 3, rng, lo=-20, hi=20)
        while q.is_zero():
            q = random_form(n, 3, rng, lo=-20, hi=20)
        d3 = slowpoke(q)
        assert d3.verify(q, 1e-7)
        assert len(d3.terms) <= n * (n + 1) // 2
        runs += 1
    for m in range(1, 9):
        fam = drab_family(m)
        total, squares = fam[0], fam[0] * fam[0]
        for f in fam[1:]:
            total = total + f
            squares = squares + f * f
        assert total.is_zero(1e-12, scale=1.0)
        target = None
        for j in range(m):
            idx = [0] * m
            idx[j] = 2
            mono = monomial_form(m, tuple(idx))
            target = mono if target is None else target + mono
        assert forms_close(squares, target.approx(), 1e-12)
    announce(8, f"slowpoke total on x1x2x3, structured degenerate inputs, "
                f"and {runs} random cubics (n <= 6) at 1e-7; zero-sum "
                "family identities hold at 1e-12 for m <= 8")


def _timed_certify(pmap, **kw):
    t0 = time.perf_counter()
    rep = jacobian_certify(pmap, **kw)
    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"{pmap.name} took {elapsed:.2f}s"
    return rep


def test_criterion_09_certification_catalog():
    runs = 0
    for n in (2, 3, 4, 5, 6):
        rep = _timed_certify(build_map("uppertri", n=n))
        assert rep.certified and rep.trials == 1
        runs += 1
    rep = _timed_certify(build_map("sextican"))
    assert rep.certified and rep.rank == 7 and rep.trials == 1
    runs += 1
    for n in (2, 3):
        for d in (3, 4, 5):
            rep = _timed_certify(build_map("wakeford", n=n, d=d))
            assert rep.certified and rep.trials == 1
            runs += 1
    for d in (3, 4, 5, 6):
        for mset in itertools.combinations(range(d + 1), 2):
            if set(mset) in ({0, 1}, {d - 1, d}):
                continue
            rest = [k for k in range(d + 1) if k not in mset]
            for nset in itertools.combinations(rest, 2):
                b = (mset[0], mset[1], nset[0], nset[1])
                rep = _timed_certify(build_map("quarticgen", d=d, B=b))
                assert rep.certified and rep.trials == 1, (d, b)
                runs += 1
    rep = _timed_certify(build_map("notclebsch"))
    assert rep.certified and rep.trials == 1
    runs += 1
    for f in neat_upto(12):
        rep = _timed_certify(build_map("omnibus", d=f.d, e=list(f.e), m=0))
        assert rep.certified and rep.trials == 1, (f.d, f.e)
        runs += 1
    for s in (2, 3, 4):
        rep = _timed_certify(build_map("sylv622", s=s))
        assert rep.certified and rep.trials == 1
        runs += 1
    rep = _timed_certify(build_map("so3s"))
    assert rep.certified and rep.trials == 1
    runs += 1
    for s in (2, 3, 4):
        rep = _timed_certify(build_map("sylwake", s=s), trials=12, seed=9)
        assert rep.certified
        runs += 1
    for s in (1, 2, 3, 4):
        rep = _timed_certify(build_map("zerosum", s=s), trials=12, seed=9)
        assert rep.certified
        runs += 1
    announce(9, f"certification catalog: {runs} maps certified with exact "
                "rank, stored witnesses hit first, every run under 5 s")


def test_criterion_10_hyperplane_classification():
    rng = random.Random(110)
    # exactly the epsilon-family is flagged
    for _ in range(10):
        c1 = QQi(rng.randint(-9, 9), rng.randint(-9, 9))
        c2 = QQi(rng.randint(-9, 9), rng.randint(-9, 9))
        if not c1 and not c2:
            continue
        for eps_unit in (QQi(0, 1), QQi(0, -1)):
            c = [c1, c2, eps_unit * c1, eps_unit * c2]
            verdict = hyperplane_classify(c)
            assert verdict.kind == "Exceptional"
            assert verdict.epsilon == eps_unit
            zp = verdict.zero_point
            samples = 0
            while samples < 20:
                t_free = [QQi(rng.randint(-9, 9)) for _ in range(3)]
                pivots = [k for k in range(4) if c[k]]
                k0 = pivots[-1]
                others = [k for k in range(4) if k != k0]
                tk = -sum(c[k] * t_free[i] for i, k in enumerate(others)) / c[k0]
                full = [None] * 4
                for i, k in enumerate(others):
                    full[k] = t_free[i]
                full[k0] = tk
                assert hyperplane_form(full).evaluate(zp) == QQi(0)
                samples += 1
    for _ in range(10):
        c = [QQi(rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(4)]
        if all(not v for v in c):
            continue
        exceptional = any(
            c[2] == e * c[0] and c[3] == e * c[1]
            for e in (QQi(0, 1), QQi(0, -1)))
        verdict = hyperplane_classify(c)
        assert (verdict.kind == "Exceptional") == exceptional
    announce(10, "hyperplane classification flags exactly (c3, c4) = "
                 "eps (c1, c2), eps = +-i, and the zero point kills 20 "
                 "feasible samples per case")


def test_criterion_11_enumeration():
    t0 = time.perf_counter()
    assert s_of_d(15) == 2
    assert s_of_d(99) == 3
    assert s_of_d(7316000) == 12
    got = [(f.d, f.e) for f in neat_enumerate(2)]
    assert got == [(3, (1, 1)), (4, (2, 1)), (6, (3, 2))]
    assert len(neat_enumerate(3)) == 22
    assert smallest_in_A(10) == 6
    assert smallest_in_A(8) == 1792
    assert smallest_in_A(12) == 242
    assert smallest_in_A(14) == 338
    assert smallest_in_A(15) == 273
    assert obstruction_A(4, 12)
    for p in (2, 3, 5, 7):
        assert smallest_in_A(p, 500) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"enumeration took {elapsed:.1f}s"
    announce(11, f"enumeration: s(15)=2, s(99)=3, s(7316000)=12, neat "
                 f"triples, 22 at r=3, A-set minima, prime degrees empty; "
                 f"{elapsed:.1f}s total")


def test_criterion_12_monte_carlo_counts():
    hits6 = [count_reps_monte_carlo(4, [2, 1], 0, seed=s) for s in range(10)]
    hits2 = [count_reps_monte_carlo(4, [2], 2, seed=s) for s in range(10)]
    ok = sum(h == 6 for h in hits6) + sum(h == 2 for h in hits2)
    assert ok >= 19, (hits6, hits2)  # >= 95% of the 20 runs
    announce(12, f"Monte Carlo counts: (4;[2,1];0) -> {hits6}, "
                 f"(4;[2];2) -> {hits2} over 10 random quartics each")
