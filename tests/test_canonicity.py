import hashlib
import json
import math
import random
import threading
from fractions import Fraction
from functools import reduce
from operator import add

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canonform import QQi, canonicity, dim, linalg, parse_form
from canonform.canonicity import (MOD_P, CertifyReport, Fixed,
                                  HyperplaneVerdict, Param, ParamMap, Pow,
                                  Prod, Sum, build_map, catalog_names,
                                  hyperplane_classify, jacobian_certify,
                                  lasker_wakeford_full_rank, modp_rank,
                                  zerosum_verify)
from canonform.enumeration import neat_upto
from canonform.errors import (AllZero, BadShape, DegenerateInput, ShapeMismatch,
                              UnknownName)
from canonform.forms import index_set, linear_form
from canonform.linalg import exact_rank, mat_det
from canonform.scalars import (EPS_DEFAULT, MOD_I, as_scalar, mod_p, power,
                               scalar_is_zero)
from tests_support import hyperplane_form


def test_unknown_name():
    with pytest.raises(UnknownName):
        build_map("no-such-map")


def test_parameter_counts_match_dimension():
    cases = [
        ("uppertri", {"n": 3}),
        ("sextican", {}),
        ("wakeford", {"n": 2, "d": 4}),
        ("quarticgen", {"d": 5, "B": (0, 2, 1, 4)}),
        ("notclebsch", {}),
        ("omnibus", {"d": 6, "e": [3, 2], "m": 0}),
        ("sylvgen", {"u": 2, "v": 3}),
        ("sylv622", {"s": 3}),
        ("so2s", {"s": 4}),
        ("so3s", {}),
        ("reichmap", {"n": 4}),
        ("slinkymap", {"n": 4}),
        ("sylwake", {"s": 3}),
        ("zerosum", {"s": 3}),
    ]
    for name, params in cases:
        pmap = build_map(name, **params)
        assert pmap.m == dim(pmap.n, pmap.d) == pmap.target


def test_uppertri_parameter_count_example():
    assert build_map("uppertri", n=3).m == 6


def test_omnibus_shape_validation():
    assert build_map("omnibus", d=84, e=[42, 28, 12], m=0).m == 85
    with pytest.raises(BadShape):
        build_map("omnibus", d=6, e=[3, 2], m=1)
    with pytest.raises(BadShape):
        build_map("omnibus", d=6, e=[4], m=2)  # 4 does not divide 6


def test_quarticgen_validation():
    with pytest.raises(BadShape):
        build_map("quarticgen", d=4, B=(0, 0, 1, 2))
    with pytest.raises(BadShape):
        build_map("quarticgen", d=4, B=(0, 1, 2, 7))


def test_evaluate_produces_the_right_shape():
    pmap = build_map("sextican")
    f = pmap.evaluate([1, 0, 0, 0, 0, 0, 1])
    assert f == parse_form("x^6 + y^6")


def test_stored_witnesses_certify_instantly():
    for name, params in (("uppertri", {"n": 4}), ("sextican", {}),
                         ("notclebsch", {}), ("so3s", {}),
                         ("so2s", {"s": 3}),
                         ("wakeford", {"n": 2, "d": 4}),
                         ("omnibus", {"d": 6, "e": [3, 2], "m": 0})):
        rep = jacobian_certify(build_map(name, **params))
        assert rep.certified and rep.trials == 1, name


def test_sextican_rank_seven():
    rep = jacobian_certify(build_map("sextican"))
    assert rep.verdict == "Certified" and (rep.rank, rep.target) == (7, 7)


def test_quarticgen_excluded_never_certifies():
    pmap = build_map("quarticgen", d=5, B=(0, 1, 3, 4))
    rep = jacobian_certify(pmap, trials=10, seed=3)
    assert rep.verdict == "NotFullRankAtWitness"
    assert rep.rank < rep.target


def test_rank_bounded_by_min():
    pmap = build_map("slinkymap", n=3)
    rep = jacobian_certify(pmap, witness=[1] * pmap.m)
    assert rep.rank <= min(pmap.m, pmap.target)


def test_certified_maps_stay_full_rank_at_more_witnesses():
    rng = random.Random(50)
    for name, params in (("sextican", {}), ("so3s", {}),
                         ("omnibus", {"d": 4, "e": [2, 1], "m": 0})):
        pmap = build_map(name, **params)
        for _ in range(10):
            t = [QQi(rng.randint(1, 9)) for _ in range(pmap.m)]
            rep = jacobian_certify(pmap, witness=t)
            assert rep.certified, name


ALL_CATALOG_CASES = [
    ("uppertri", {"n": 3}),
    ("sextican", {}),
    ("wakeford", {"n": 3, "d": 3}),
    ("quarticgen", {"d": 4, "B": (0, 2, 1, 3)}),
    ("notclebsch", {}),
    ("omnibus", {"d": 6, "e": [3, 2], "m": 0}),
    ("sylvgen", {"u": 2, "v": 2}),
    ("sylv622", {"s": 2}),
    ("so2s", {"s": 2}),
    ("so3s", {}),
    ("reichmap", {"n": 3}),
    ("slinkymap", {"n": 3}),
    ("sylwake", {"s": 2}),
    ("hyperplane", {"c": [QQi(1), QQi(2), QQi(3), QQi(5)]}),
    ("zerosum", {"s": 2}),
]


def test_gradient_matches_finite_differences_for_every_catalog_map():
    # symbolic partials agree with central differences at 1e-6 relative
    rng = random.Random(51)
    picker = random.Random(52)
    h = 1e-5
    for name, params in ALL_CATALOG_CASES:
        pmap = build_map(name, **params)
        t = [complex(rng.randint(-4, 4)) for _ in range(pmap.m)]
        grads = pmap.gradient(t)
        scale = max(g.norm() for g in grads) or 1.0
        for j in picker.sample(range(pmap.m), min(3, pmap.m)):
            tp = list(t)
            tm = list(t)
            tp[j] += h
            tm[j] -= h
            fd = (pmap.evaluate(tp) - pmap.evaluate(tm)).scale(1 / (2 * h))
            diff = fd - grads[j].approx()
            assert diff.norm() <= 1e-6 * max(scale, 1.0), (name, j)


def test_lasker_wakeford_equivalence():
    rng = random.Random(53)
    cases = [("uppertri", {"n": 3}), ("sextican", {}), ("so3s", {}),
             ("omnibus", {"d": 4, "e": [2, 1], "m": 0}),
             ("quarticgen", {"d": 4, "B": (0, 1, 2, 3)})]
    for name, params in cases:
        pmap = build_map(name, **params)
        for _ in range(3):
            t = [QQi(rng.randint(-5, 5)) for _ in range(pmap.m)]
            direct = jacobian_certify(pmap, witness=t).certified
            apolar = lasker_wakeford_full_rank(pmap, t)
            assert direct == apolar, (name, t)


def test_omnibus_specializations():
    # all e_k = 1 recovers the classical odd/even power family
    for d in range(2, 9):
        r = (d + 1) // 2
        m = (d + 1) % 2
        rep = jacobian_certify(build_map("omnibus", d=d, e=[1] * r, m=m))
        assert rep.certified, d
    # e = [2] + [1]*(s-1) recovers the quadratic-headed alternative
    for s in range(2, 5):
        rep = jacobian_certify(build_map("omnibus", d=2 * s,
                                         e=[2] + [1] * (s - 1), m=0))
        assert rep.certified, s


def test_hyperplane_exceptional_family():
    verdict = hyperplane_classify([QQi(1), QQi(0), QQi(0, 1), QQi(0)])
    assert verdict.kind == "Exceptional"
    assert verdict.epsilon == QQi(0, 1)
    assert verdict.zero_point == (QQi(1), QQi(0))
    v2 = hyperplane_classify([QQi(2), QQi(3), QQi(0, -2), QQi(0, -3)])
    assert v2.kind == "Exceptional" and v2.epsilon == QQi(0, -1)


def test_hyperplane_canonical_cases():
    v = hyperplane_classify([0, 0, 0, 1])
    assert v.kind == "Canonical"
    assert sum(w * c for w, c in zip(v.witness, [QQi(0), QQi(0), QQi(0),
                                                 QQi(1)])) == QQi(0)
    v2 = hyperplane_classify([1, 1, 1, 1])
    assert v2.kind == "Canonical"
    assert sum(v2.witness, QQi(0)) == QQi(0)


def test_hyperplane_zero_point_annihilates():
    rng = random.Random(54)
    c = [QQi(3), QQi(-2), QQi(0, 3), QQi(0, -2)]  # c3 = i c1, c4 = i c2
    verdict = hyperplane_classify(c)
    assert verdict.kind == "Exceptional"
    for _ in range(20):
        t_free = [QQi(rng.randint(-9, 9)) for _ in range(3)]
        t4 = -(c[0] * t_free[0] + c[1] * t_free[1] + c[2] * t_free[2]) / c[3]
        f = hyperplane_form(t_free + [t4])
        assert f.evaluate(verdict.zero_point) == QQi(0)


def test_all_zero_rejected():
    with pytest.raises(AllZero):
        hyperplane_classify([0, 0, 0, 0])


def test_zerosum_constraint_is_built_in():
    # the eliminated coefficient keeps sum(alpha_j + beta_j) = 0: the map
    # value at t equals an explicit power sum whose coefficients balance
    rng = random.Random(55)
    s = 2
    pmap = build_map("zerosum", s=s)
    t = [QQi(rng.randint(-5, 5)) for _ in range(pmap.m)]
    alphas = t[:s + 1]
    betas = t[s + 1:] + [-sum(t, QQi(0))]
    assert sum(alphas, QQi(0)) + sum(betas, QQi(0)) == QQi(0)
    from canonform import power_of_linear
    expected = None
    for a, b in zip(alphas, betas):
        term = power_of_linear([a, b], 2 * s)
        expected = term if expected is None else expected + term
    assert pmap.evaluate(t) == expected


def test_zerosum_small_degrees():
    for s in (1, 2, 3, 4):
        rep = zerosum_verify(s, trials=12, seed=7)
        assert rep.certified, s


def test_zerosum_boundary_reports_without_claim():
    rep = zerosum_verify(5, trials=3, seed=7)
    assert isinstance(rep, CertifyReport)
    assert rep.verdict in ("Certified", "NotFullRankAtWitness")


def test_maps_with_no_parameters_are_refused():
    for name in ("uppertri", "slinkymap"):
        for n in (0, -1):
            with pytest.raises(BadShape, match=f"{name} needs n >= 1"):
                build_map(name, n=n)
    # refused up front: no witness search for a map that cannot span
    with pytest.raises(BadShape, match="empty has no parameters"):
        jacobian_certify(ParamMap("empty", 2, 2, 0, Sum(())))


def test_catalog_names_stable():
    assert "omnibus" in catalog_names() and "hyperplane" in catalog_names()


def test_hyperplane_needs_four_coefficients():
    for c in ([1, 2], [1], [1, 2, 3, 4, 5]):
        with pytest.raises(BadShape):
            build_map("hyperplane", c=c)
        with pytest.raises(BadShape):
            hyperplane_classify(c)


# -- the modular rank path ------------------------------------------------------


def test_modulus_is_a_prime_with_a_square_root_of_minus_one():
    sympy = pytest.importorskip("sympy")
    assert sympy.isprime(MOD_P)
    assert MOD_P % 4 == 1
    assert MOD_I * MOD_I % MOD_P == MOD_P - 1


def test_modp_rank_can_only_fall_short_of_the_exact_rank():
    assert modp_rank([[1, 2], [3, 4]], MOD_P) == 2
    assert modp_rank([[MOD_P, 0], [0, 1]], MOD_P) == 1
    assert exact_rank([[QQi(MOD_P), QQi(0)], [QQi(0), QQi(1)]]) == 2
    assert modp_rank([[0, 0, 5], [0, 0, 7]], MOD_P) == 1
    assert modp_rank([], MOD_P) == 0


def _list_modp_rank(rows, p):
    """modp_rank as a list elimination, the reference for the packed rows."""
    m = [list(row) for row in rows]
    rank = 0
    while m and m[0]:
        pr = next((i for i, row in enumerate(m) if row[0] % p), None)
        if pr is None:
            m = [row[1:] for row in m]
            continue
        pivot = m.pop(pr)
        inv = pow(pivot[0], -1, p)
        rest = [v % p for v in pivot[1:]]
        m = [[a - f * b for a, b in zip(row[1:], rest)]
             if (f := row[0] * inv % p) else row[1:] for row in m]
        rank += 1
    return rank


def _matrix_of_rank(rng, nrows, ncols, k, p):
    """An nrows x ncols matrix of rank exactly k mod p: B C with an identity
    block in each factor, rows and columns shuffled, and each entry moved by
    a multiple of p, so that some are negative and some at least p."""
    b = [[int(i == j) if i < k else rng.randrange(p) for j in range(k)]
         for i in range(nrows)]
    c = [[int(i == j) if j < k else rng.randrange(p) for j in range(ncols)]
         for i in range(k)]
    rows = [[sum(b[i][t] * c[t][j] for t in range(k)) % p
             for j in range(ncols)] for i in range(nrows)]
    rng.shuffle(rows)
    cols = list(range(ncols))
    rng.shuffle(cols)
    return [[row[j] + p * rng.randint(-2, 2) for j in cols] for row in rows]


@pytest.mark.parametrize("p", [2, 3, 7, MOD_P])
def test_packed_modp_rank_matches_the_list_elimination(monkeypatch, p):
    rng = random.Random(f"packed rank {p}")
    for nrows, ncols in ((9, 4), (4, 9), (6, 6), (1, 5), (5, 1), (0, 0),
                         (3, 0)):
        for k in range(min(nrows, ncols) + 1):
            for _ in range(3):
                rows = _matrix_of_rank(rng, nrows, ncols, k, p)
                if nrows == 0:
                    rows = []
                assert modp_rank(rows, p) == _list_modp_rank(rows, p) == k
    for _ in range(20):
        rows = [[rng.randint(-3 * p, 3 * p) for _ in range(7)]
                for _ in range(rng.randint(1, 9))]
        assert modp_rank(rows, p) == _list_modp_rank(rows, p)
    # sparse rows, at most 20% nonzero, with a zero row and a zero column:
    # 20 rows give MOD_P slots wider than 8 bytes, small p narrower ones
    for nrows, ncols in ((15, 15), (20, 20), (8, 14), (14, 8)):
        for _ in range(4):
            rows = [[rng.randint(-3 * p, 3 * p) if rng.random() < 0.15 else 0
                     for _ in range(ncols)] for _ in range(nrows)]
            rows[rng.randrange(nrows)] = [0] * ncols
            zero = rng.randrange(ncols)
            rows = [row[:zero] + [0] + row[zero + 1:] for row in rows]
            assert sum(map(bool, sum(rows, []))) <= nrows * ncols // 5
            assert modp_rank(rows, p) == _list_modp_rank(rows, p)
    # uppertri n=5 at its stored witness: 15 x 15 at 16% nonzero
    pmap = build_map("uppertri", n=5)
    rows = modular_rows(monkeypatch, pmap, pmap.witness)
    assert sum(map(bool, sum(rows, []))) == 35 and len(rows) == 15
    assert modp_rank(rows, p) == _list_modp_rank(rows, p)


@pytest.mark.parametrize("p", [2, 3, 7, MOD_P])
def test_packed_modp_rank_slots_do_not_overflow(p):
    """Many elimination steps with the largest entries and multipliers."""
    rng = random.Random(f"overflow {p}")
    dense = [[rng.randrange(p) for _ in range(85)] for _ in range(85)]
    assert modp_rank(dense, p) == _list_modp_rank(dense, p)
    # p - 1 off the diagonal: -(J - I) mod p, of full rank unless p | 129
    ones = [[p - 1 if i != j else 0 for j in range(130)] for i in range(130)]
    want = 130 if 129 % p else 129
    assert modp_rank(ones, p) == _list_modp_rank(ones, p) == want
    assert modp_rank([row[:20] for row in ones], p) == min(20, want)


# small maps, rank-deficient ones included: both excluded quarticgen
# patterns (a forced square factor) and a map certified only generically
SMALL_MAPS = [
    ("uppertri", {"n": 3}),
    ("sextican", {}),
    ("wakeford", {"n": 2, "d": 3}),
    ("quarticgen", {"d": 5, "B": (0, 1, 3, 4)}),
    ("quarticgen", {"d": 5, "B": (4, 5, 0, 2)}),
    ("quarticgen", {"d": 4, "B": (0, 2, 1, 3)}),
    ("omnibus", {"d": 6, "e": [3, 2], "m": 0}),
    ("so2s", {"s": 2}),
    ("slinkymap", {"n": 2}),
    ("hyperplane", {"c": [QQi(1), QQi(2), QQi(0, 1), QQi(5)]}),
    ("zerosum", {"s": 2}),
]


@settings(max_examples=80, deadline=None, derandomize=True)
@given(case=st.sampled_from(range(len(SMALL_MAPS))),
       values=st.lists(st.integers(-3, 3), min_size=15, max_size=15))
@example(case=3, values=[0] * 15)
@example(case=0, values=[0] * 15)
def test_modular_first_rank_equals_exact_rank(case, values):
    name, params = SMALL_MAPS[case]
    pmap = build_map(name, **params)
    t = [QQi(v) for v in values[:pmap.m]]
    exact = exact_rank(pmap.jacobian_rows(t))
    # the modular rank, where there is one, is a lower bound, and the rank
    # is the modular one only when that is full
    modular = canonicity._rank_mod_p(pmap, t)
    assert modular is None or modular <= exact
    assert canonicity._rank_at(pmap, t) == (exact, modular == pmap.target)
    assert lasker_wakeford_full_rank(pmap, t) == (exact == pmap.target)


def test_denominator_divisible_by_p_takes_the_exact_path(monkeypatch):
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return exact_rank(rows)

    monkeypatch.setattr(linalg, "exact_rank", spy)
    for name, params, witness, verdict in (
            ("sextican", {}, [1, 0, 0, 0, 0, 0, 1], "Certified"),
            ("quarticgen", {"d": 5, "B": (0, 1, 3, 4)}, [1, 0, 0, 1, 1, 1],
             "NotFullRankAtWitness")):
        pmap = build_map(name, **params)
        t = [QQi(Fraction(v, MOD_P)) for v in witness]
        assert canonicity._rank_mod_p(pmap, t) is None
        calls.clear()
        rep = jacobian_certify(pmap, witness=t)
        assert calls == [pmap.m]
        assert rep.verdict == verdict
        assert rep.rank == exact_rank(pmap.jacobian_rows(t))


def test_modular_path_keeps_hyperplane_and_lasker_wakeford_verdicts(
        monkeypatch):
    cs = [[0, 0, 0, 1], [1, 1, 1, 1], [QQi(1), QQi(2), QQi(3), QQi(5)],
          [QQi(Fraction(1, 3)), QQi(0, 2), QQi(-7), QQi(0)],
          [1.5, 0.0, 2.0, 1.0]]
    rng = random.Random(56)
    lw_cases = []
    for name, params in SMALL_MAPS:
        pmap = build_map(name, **params)
        lw_cases.append((pmap, [QQi(rng.randint(-3, 3)) for _ in range(pmap.m)]))
    fast = ([hyperplane_classify(c, seed=s) for c in cs for s in (0, 1)],
            [lasker_wakeford_full_rank(pmap, t) for pmap, t in lw_cases])
    monkeypatch.setattr(canonicity, "_rank_mod_p", lambda pmap, t: None)
    exact = ([hyperplane_classify(c, seed=s) for c in cs for s in (0, 1)],
             [lasker_wakeford_full_rank(pmap, t) for pmap, t in lw_cases])
    assert fast == exact


# -- values at the points I(n, d) mod p ----------------------------------------


def modular_rows(monkeypatch, pmap, t):
    """The rows _rank_mod_p ranks at t, or None if it ranks none."""
    seen = []
    with monkeypatch.context() as m:
        m.setattr(canonicity, "modp_rank", lambda rows, p: seen.append(rows))
        canonicity._rank_mod_p(pmap, t)
    return seen[0] if seen else None


@pytest.mark.parametrize("name, params", SMALL_MAPS + [
    ("notclebsch", {}), ("omnibus", {"d": 36, "e": [18, 12, 4], "m": 0})])
def test_modular_rows_are_the_exact_partials_mod_p(monkeypatch, name, params):
    pmap = build_map(name, **params)
    rng = random.Random(name)
    points = [[QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 5)),
                   rng.randint(-2, 2)) for _ in range(pmap.m)]]
    if pmap.witness is not None:
        points.append([as_scalar(v) for v in pmap.witness])
    for t in points:
        want = [[mod_p(df.evaluate([QQi(z) for z in point]))
                 for point in index_set(pmap.n, pmap.d)]
                for df in pmap.gradient(t)]
        assert modular_rows(monkeypatch, pmap, t) == want


@pytest.mark.parametrize("n", range(2, 7))
def test_points_are_unisolvent_mod_p(n):
    """The evaluation matrix of I(n, d) has full rank mod MOD_P, so ranking
    values at those points loses no full rank."""
    degrees = range(85) if n == 2 else [d for d in range(6) if dim(n, d) <= 126]
    for d in degrees:
        points = index_set(n, d)
        rows = [[math.prod(z ** e for z, e in zip(point, mono)) % MOD_P
                 for point in points] for mono in points]
        assert modp_rank(rows, MOD_P) == dim(n, d), (n, d)


def _over_degree_map() -> ParamMap:
    """A quartic expression declared quadratic: its static degree is 4, not
    the declared 2, and its quartic coefficients lie outside the quadratic
    monomials that the Jacobian rows read."""
    lin = Sum((Param(0, (1, 0)), Param(1, (0, 1))))
    return ParamMap("overdeg", 2, 2, 3,
                    Sum((Pow(lin, 4), Prod((Param(2, (0, 0)), Pow(lin, 4))))))


def test_expression_above_the_declared_degree_gets_no_modular_verdict(
        monkeypatch):
    pmap = _over_degree_map()
    calls = []

    def spy(rows):
        calls.append(len(rows))
        return exact_rank(rows)

    monkeypatch.setattr(linalg, "exact_rank", spy)
    t = [QQi(1), QQi(2), QQi(3)]
    assert modular_rows(monkeypatch, pmap, t) is None
    assert canonicity._rank_mod_p(pmap, t) is None
    # the exact rows read no quartic coefficient, so the rank is 0
    rep = jacobian_certify(pmap, witness=t)
    assert (rep.rank, rep.target, rep.verdict, rep.trials) == (
        0, 3, "NotFullRankAtWitness", 0)
    rep = jacobian_certify(pmap, trials=3, seed=4)
    assert (rep.rank, rep.verdict, rep.trials) == (0, "NotFullRankAtWitness", 3)
    assert rep.witness == [QQi(-2), QQi(0), QQi(-6)]
    assert calls == [3] * 4


def _mixed_degree_map() -> ParamMap:
    """A quadratic expression with one summand of degree 1."""
    lin = Sum((Param(0, (1, 0)), Param(1, (0, 1))))
    return ParamMap("mixed", 2, 2, 3, Sum((Pow(lin, 2), Param(2, (1, 1)),
                                           Param(2, (1, 0)))))


def test_mixed_degree_expression_raises_on_every_path():
    pmap = _mixed_degree_map()
    t = [QQi(1), QQi(2), QQi(3)]
    assert canonicity._rank_mod_p(pmap, t) is None
    for run in (pmap.evaluate, pmap.jacobian_rows,
                lambda t: jacobian_certify(pmap, witness=t),
                lambda t: jacobian_certify(pmap),
                lambda t: lasker_wakeford_full_rank(pmap, t)):
        with pytest.raises(ShapeMismatch):
            run(t)


def _lin():
    return Sum((Param(0, (1, 0)), Param(1, (0, 1))))


class _SubSum(Sum):
    """A node of a subclass of a kind compiles as that kind."""


# Binary quadratic maps in 3 parameters with their reports at t = (1, 2, 3),
# from a search of 3 trials with seed 4, and what evaluate raises.  Only the
# value-only map may get a modular verdict: its partials are quadratic.
HAND_BUILT_MAPS = {
    "wide param": (Sum((Pow(_lin(), 2), Param(2, (0, 1, 1)))),
                   ShapeMismatch, ShapeMismatch, ShapeMismatch),
    "wide fixed": (Sum((Pow(_lin(), 2), Prod((Param(2, (0, 0)),
                                              Fixed(parse_form("x*y + y*z")))))),
                   ShapeMismatch, ShapeMismatch, ShapeMismatch),
    "unknown node": (Sum((Pow(_lin(), 2), Prod((Param(2, (0, 0)),
                                                parse_form("x*y"))))),
                     TypeError, TypeError, TypeError),
    "value-only cubic": (
        Sum((Pow(_lin(), 2), Param(2, (1, 1)), Fixed(parse_form("x^3", n=2)))),
        (3, "Certified", 0, [1, 2, 3]), (3, "Certified", 2, [3, 6, -5]),
        ShapeMismatch),
    "subclassed node": (
        _SubSum((Pow(_lin(), 2), Param(2, (1, 1)), Fixed(parse_form("x^3", n=2)))),
        (3, "Certified", 0, [1, 2, 3]), (3, "Certified", 2, [3, 6, -5]),
        ShapeMismatch),
    "over degree": (_over_degree_map().expr,
                    (0, "NotFullRankAtWitness", 0, [1, 2, 3]),
                    (0, "NotFullRankAtWitness", 3, [-2, 0, -6]),
                    ShapeMismatch),
}


@pytest.mark.parametrize("name", HAND_BUILT_MAPS)
def test_hand_built_maps_get_a_modular_verdict_only_when_sound(
        monkeypatch, name):
    expr, at_witness, searched, evaluated = HAND_BUILT_MAPS[name]
    pmap = ParamMap(name, 2, 2, 3, expr)
    t = [QQi(1), QQi(2), QQi(3)]
    for run, want in ((lambda: jacobian_certify(pmap, witness=t), at_witness),
                      (lambda: jacobian_certify(pmap, trials=3, seed=4),
                       searched)):
        if isinstance(want, type):
            with pytest.raises(want):
                run()
        else:
            rank, verdict, trials, witness = want
            rep = run()
            assert (rep.rank, rep.target, rep.verdict, rep.trials) == (
                rank, 3, verdict, trials)
            assert rep.witness == [QQi(v) for v in witness]
    with pytest.raises(evaluated):
        pmap.evaluate(t)
    if name not in ("value-only cubic", "subclassed node"):
        # no modular verdict, and no rows ranked
        try:
            assert modular_rows(monkeypatch, pmap, t) is None
            assert canonicity._rank_mod_p(pmap, t) is None
        except TypeError:  # the unknown node may already raise here
            assert name == "unknown node"


STORED_WITNESS_MAPS = (
    [("uppertri", {"n": n}) for n in range(2, 7)]
    + [("sextican", {}), ("notclebsch", {}), ("so3s", {})]
    + [("wakeford", {"n": n, "d": d}) for n in (2, 3) for d in (3, 4)]
    + [("quarticgen", {"d": d, "B": b}) for d, b in (
        (4, (0, 2, 1, 3)), (5, (0, 1, 3, 4)), (5, (1, 3, 0, 5)),
        (6, (2, 4, 1, 5)))]
    + [("omnibus", {"d": d, "e": e, "m": m}) for d, e, m in (
        (6, [3, 2], 0), (12, [6, 4], 1), (36, [18, 12, 4], 0),
        (48, [24, 16, 6], 0))]
    + [("sylv622", {"s": s}) for s in (2, 3, 4)]
    + [("so2s", {"s": s}) for s in (1, 2, 3)])


def test_stored_witness_certificates_never_reach_exact_rank(monkeypatch):
    def refuse(rows):
        raise AssertionError("the stored witness took the exact path")

    certified = 0
    for name, params in STORED_WITNESS_MAPS:
        pmap = build_map(name, **params)
        if not jacobian_certify(pmap, witness=pmap.witness).certified:
            continue
        with monkeypatch.context() as m:
            m.setattr(linalg, "exact_rank", refuse)
            rep = jacobian_certify(pmap)
        assert rep.certified and rep.trials == 1
        certified += 1
    # all but quarticgen d=5, B=(0, 1, 3, 4), an excluded pattern
    assert certified == len(STORED_WITNESS_MAPS) - 1


@pytest.mark.parametrize("name, params", SMALL_MAPS + [
    ("quarticgen", {"d": 5, "B": (0, 1, 2, 3)})])
def test_certified_rank_is_the_sympy_rank(name, params):
    sympy = pytest.importorskip("sympy")
    from sympy.polys.domains import QQ_I
    from sympy.polys.matrices import DomainMatrix

    pmap = build_map(name, **params)
    rng = random.Random(f"oracle {name}")
    t = [QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
         for _ in range(pmap.m)]
    rows = [[sympy.Rational(v.a, v.d) + sympy.I * sympy.Rational(v.b, v.d)
             for v in row] for row in pmap.jacobian_rows(t)]
    want = DomainMatrix.from_list_sympy(pmap.m, pmap.target, rows)
    assert jacobian_certify(pmap, witness=t).rank == want.convert_to(QQ_I).rank()


# -- one lazy witness search ----------------------------------------------------


def _eager_witnesses(pmap, trials, seed):
    """The candidate list jacobian_certify used to build before trying any,
    drawn from [-9, 9], then ten-fold wider ranges up to [-10^6, 10^6]."""
    stored = [] if pmap.witness is None else [[as_scalar(v) for v in pmap.witness]]
    bounds = [9] * 8 + [90] * 8 + [900] * 8 + [9000] * 8 + [90000] * 8 + [900000] * 8
    drawn = []
    rng = random.Random(seed)
    while len(drawn) < trials:
        bound = bounds[len(drawn)] if len(drawn) < len(bounds) else 10 ** 6
        t = [QQi(rng.randint(-bound, bound)) for _ in range(pmap.m)]
        if any(v for v in t):
            drawn.append(t)
    return stored + drawn


# stored witness or not; the one-parameter map draws all-zero points often
WITNESS_MAPS = [
    build_map("sextican"),
    build_map("uppertri", n=1),
    build_map("sylwake", s=2),
    build_map("hyperplane", c=[1, 2, 3, 4]),
    ParamMap("line", 1, 1, 1, Param(0, (1,))),
]


@settings(max_examples=60, deadline=None, derandomize=True)
@given(case=st.sampled_from(range(len(WITNESS_MAPS))),
       trials=st.sampled_from([0, 1, 12, 60]), seed=st.integers(0, 10 ** 6))
@example(case=4, trials=12, seed=0)  # draws 0 at the eighth point
def test_witnesses_are_the_eager_candidate_list(case, trials, seed):
    pmap = WITNESS_MAPS[case]
    assert (list(canonicity._witnesses(pmap, trials, seed))
            == _eager_witnesses(pmap, trials, seed))


def _count_randint(monkeypatch):
    calls = []

    class CountingRandom(random.Random):
        def randint(self, a, b):
            calls.append((a, b))
            return super().randint(a, b)

    monkeypatch.setattr(canonicity.random, "Random", CountingRandom)
    return calls


def test_stored_witness_that_certifies_draws_nothing(monkeypatch):
    calls = _count_randint(monkeypatch)
    rep = jacobian_certify(build_map("sextican"))
    assert rep.certified and rep.trials == 1
    assert calls == []


@pytest.mark.parametrize("name, params, trials, seed, random_tried", [
    ("sylwake", {"s": 2}, 40, 9, 1),
    ("sylwake", {"s": 2}, 40, 3, 2),
    ("quarticgen", {"d": 5, "B": (0, 1, 2, 3)}, 4, 0, 4),  # never certifies
])
def test_only_the_witnesses_tried_are_drawn(monkeypatch, name, params, trials,
                                            seed, random_tried):
    pmap = build_map(name, **params)
    calls = _count_randint(monkeypatch)
    rep = jacobian_certify(pmap, trials=trials, seed=seed)
    assert rep.trials == random_tried + (pmap.witness is not None)
    assert len(calls) == pmap.m * random_tried


# -- modular ranks first, one exact rank at most -------------------------------


@pytest.mark.parametrize("name, params, verdict, rank, target, trials, witness, "
                         "exact", [
    # the 8 witnesses from [-9, 9] fall short mod p, and the first from
    # [-90, 90] certifies
    ("zerosum", {"s": 18}, "Certified", 37, 37, 9,
     [-88, -55, -52, -21, -5, -4, 4, -67, -4, 68, -81, -80, -21, -49, -52, 59,
      -16, 2, 11, 50, -57, -15, -61, 32, -29, -78, -12, -45, 43, -72, -13, 13,
      -6, -14, 16, -63, -65], 0),
    ("zerosum", {"s": 22}, "Certified", 45, 45, 10,
     [-53, 54, 13, 73, 84, 18, 43, 36, 83, -8, 37, 37, 72, 81, -39, 48, 66,
      -34, -88, -3, 90, -9, -8, -81, 44, -53, -25, 64, -51, 7, 59, -15, 90, 30,
      -74, -69, 42, -80, -74, -33, -57, -80, -14, -87, 24], 0),
    # an excluded pattern: no witness has full rank, and the stored one, the
    # first of highest rank mod p, is ranked over Q(i)
    ("quarticgen", {"d": 24, "B": (0, 1, 2, 3)}, "NotFullRankAtWitness", 24,
     25, 41, [1, 0, 0] + [1] * 22, 1),
])
def test_witness_search_ranks_mod_p_before_any_exact_rank(
        monkeypatch, name, params, verdict, rank, target, trials, witness,
        exact):
    """Each witness tried is ranked mod p once, and at most one exact
    Jacobian is built."""
    pmap = build_map(name, **params)
    calls, modular = [], []
    rows, rank_mod_p = ParamMap.jacobian_rows, canonicity._rank_mod_p
    monkeypatch.setattr(ParamMap, "jacobian_rows",
                        lambda self, t, **kw: calls.append(t) or rows(self, t, **kw))
    monkeypatch.setattr(canonicity, "_rank_mod_p",
                        lambda pmap, t: modular.append(t) or rank_mod_p(pmap, t))
    rep = jacobian_certify(pmap)
    assert (rep.verdict, rep.rank, rep.target, rep.trials) == (
        verdict, rank, target, trials)
    assert rep.witness == [QQi(v) for v in witness]
    assert len(calls) == exact
    assert len(modular) == trials


def test_float_witness_is_ranked_at_its_exact_value():
    pmap = build_map("sextican")
    rng = random.Random(71)
    t = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(pmap.m)]
    dyadic = [QQi(Fraction(v.real), Fraction(v.imag)) for v in t]
    rep, want = (jacobian_certify(pmap, witness=w) for w in (t, dyadic))
    assert (rep.verdict, rep.rank) == (want.verdict, want.rank) == ("Certified", 7)
    assert rep.witness == t  # the report shows the witness as given
    assert rep.to_json()["witness"] == [[v.real, v.imag] for v in t]
    # g = 1e-300 y^2: its cube underflows in floats, not at its exact value
    rep = jacobian_certify(pmap, witness=[1.0, 0, 0, 0, 0, 0, 1e-300])
    assert (rep.verdict, rep.rank) == ("Certified", 7)
    assert lasker_wakeford_full_rank(pmap, [1.0, 0, 0, 0, 0, 0, 1e-300])


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(math.nan, 0)])
@pytest.mark.parametrize("check", [
    lambda pmap, t: jacobian_certify(pmap, witness=t),
    lambda pmap, t: lasker_wakeford_full_rank(pmap, t)],
    ids=["jacobian_certify", "lasker_wakeford_full_rank"])
def test_non_finite_witness_is_degenerate_input_naming_the_entry(bad, check):
    pmap = build_map("sextican")
    with pytest.raises(DegenerateInput, match="witness entry t3 is not finite"):
        check(pmap, [1, 0, bad, 0, 0, 0, 1])


def test_float_hyperplane_is_certified_as_given_by_the_modular_rank(monkeypatch):
    def refuse(pmap, t):
        raise AssertionError("the float hyperplane took the exact path")

    monkeypatch.setattr(canonicity, "_exact_rank", refuse)
    pmap = build_map("hyperplane", c=[1.5, 0.0, 2.0, 1.0])
    # the pivot is c4 = 1, so t4 = -1.5 t1 - 2 t3, read exactly
    assert [p.coeff for p in pmap.expr.parts[1].base.parts[1].parts] == [
        QQi(Fraction(-3, 2)), QQi(0), QQi(-2)]
    assert pmap.params["c"] == ["(1.5+0j)", "0j", "(2+0j)", "(1+0j)"]
    verdict = hyperplane_classify([1.5, 0.0, 2.0, 1.0])
    assert verdict == HyperplaneVerdict(
        "Canonical", witness=[QQi(3), QQi(4), QQi(-8), 11.5 + 0j])
    with pytest.raises(DegenerateInput, match="coefficient c2 is not finite"):
        build_map("hyperplane", c=[1.0, math.nan, 2.0, 1.0])


def _hand_built(coeff) -> ParamMap:
    """(0.1 t1 x + t2 y / 3)^2 + 0.7 t3 x (0.3 x + 0.2 y), with each float
    coefficient passed through coeff."""
    lin = Sum((Param(0, (1, 0), coeff(0.1)), Param(1, (0, 1), coeff(1 / 3))))
    fixed = Fixed(linear_form([coeff(0.3), coeff(0.2)]))
    return ParamMap("hand", 2, 2, 3, Sum((Pow(lin, 2), Prod((
        Param(2, (1, 0), coeff(0.7)), fixed)))))


@pytest.mark.parametrize("t", [[QQi(1), QQi(-2), QQi(3)],
                               [0.5 + 0j, QQi(Fraction(-2, 3)), 3.0]])
def test_hand_built_float_map_is_ranked_at_its_exact_coefficients(
        monkeypatch, t):
    """The rows _exact_rank ranks are the Jacobian of the map as given:
    exact, and equal to those of the map built from the floats' exact
    values, not the rounded float Jacobian read exactly."""
    pmap = _hand_built(lambda v: v)
    twin = _hand_built(lambda v: QQi(Fraction(v)))
    exact_t = [v if type(v) is QQi else QQi(Fraction(v.real)) for v in t]
    ranked = []
    monkeypatch.setattr(linalg, "exact_rank",
                        lambda rows: ranked.append(rows) or exact_rank(rows))
    rep = jacobian_certify(pmap, witness=t)
    assert (rep.verdict, rep.rank) == ("Certified", 3)
    assert len(ranked) == 1
    assert all(type(v) is QQi for row in ranked[0] for v in row)
    assert ranked[0] == twin.jacobian_rows(exact_t)
    # the float Jacobian, read exactly, is not the map's
    rounded = [[QQi(Fraction(df.a(i).real)) for i in index_set(2, 2)]
               for df in pmap.gradient([complex(v) for v in exact_t])]
    assert rounded != ranked[0]
    # without exact=True the map keeps its floats, as before
    assert not pmap.evaluate(exact_t).exact
    assert not any(df.exact for df in pmap.gradient(exact_t))
    assert pmap.jacobian_rows(exact_t) == [
        [df.a(i) for i in index_set(2, 2)] for df in pmap.gradient(exact_t)]


def test_map_coefficient_that_is_not_finite_is_degenerate_input():
    pmap = _hand_built(lambda v: math.nan if v == 0.7 else v)
    with pytest.raises(DegenerateInput, match="a map coefficient is not finite"):
        jacobian_certify(pmap, witness=[1, 2, 3])


@pytest.mark.parametrize("bad", [math.inf, -math.inf, complex(1, math.inf)])
@pytest.mark.parametrize("check", [
    hyperplane_classify, lambda c: build_map("hyperplane", c=c)],
    ids=["hyperplane_classify", "build_map"])
def test_infinite_hyperplane_coefficient_is_degenerate_input(bad, check):
    # [1, inf, 2, 1] and [inf, 0, 0, 0] were once called Exceptional, the
    # first with zero point (-1, -inf+nanj)
    with pytest.raises(DegenerateInput, match="coefficient c2 is not finite"):
        check([1.0, bad, 2.0, 1.0])
    with pytest.raises(DegenerateInput, match="coefficient c1 is not finite"):
        check([bad, 0, 0, 0])


def _looped_hyperplane_classify(c, eps=EPS_DEFAULT, seed=0, trials=64):
    """hyperplane_classify as it was, with its own search and rank test."""
    c = canonicity._hyperplane_coefficients(c)
    epsilon = canonicity._hyperplane_epsilon(c, eps)
    if epsilon is not None:
        if c[3]:
            zero_point = (-c[0] / c[3], -c[1] / c[3])
        elif c[0]:
            zero_point = (QQi(1), c[1] / c[0])
        else:
            zero_point = (QQi(0), QQi(1))
        return HyperplaneVerdict("Exceptional", epsilon=epsilon,
                                 zero_point=zero_point)
    pmap = build_map("hyperplane", c=c)
    pivot = pmap.params["pivot"] - 1
    free = [k for k in range(4) if k != pivot]
    rng = random.Random(seed)
    basis = index_set(2, 2)
    for _ in range(trials):
        t_free = [QQi(rng.randint(-9, 9)) for _ in range(3)]
        if not any(v for v in t_free):
            continue
        if canonicity._rank_mod_p(pmap, t_free) != pmap.target:
            rows = [[df.a(i) for i in basis] for df in pmap.gradient(t_free)]
            if scalar_is_zero(mat_det(rows), eps):
                continue
        full = [None] * 4
        for i, k in enumerate(free):
            full[k] = t_free[i]
        full[pivot] = sum((-c[k] / c[pivot]) * t_free[i]
                          for i, k in enumerate(free))
        return HyperplaneVerdict("Canonical", witness=full)
    raise ShapeMismatch("no nondegenerate parameter point found")


_small_qqi = st.builds(lambda a, b, d: QQi(Fraction(a, d), Fraction(b, d)),
                       st.integers(-4, 4), st.integers(-4, 4),
                       st.sampled_from([1, 2, 3]))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(c=st.lists(_small_qqi, min_size=4, max_size=4),
       exceptional=st.sampled_from([None, QQi(0, 1), QQi(0, -1)]))
@example(c=[QQi(0), QQi(0), QQi(0), QQi(1)], exceptional=None)
@example(c=[QQi(1), QQi(0), QQi(0), QQi(0)], exceptional=QQi(0, 1))
def test_hyperplane_classify_keeps_the_looped_verdicts(c, exceptional):
    if exceptional is not None:
        c = c[:2] + [exceptional * c[0], exceptional * c[1]]
    if not any(c):
        return
    for seed in (0, 1, 2):
        assert hyperplane_classify(c, seed=seed) == \
            _looped_hyperplane_classify(c, seed=seed)


# -- the catalog's meaning, pinned ------------------------------------------------


PINNED_SWEEP = (
    [("uppertri", {"n": n}) for n in (0, 1, 2, 4)]
    + [("sextican", {}), ("notclebsch", {}), ("so3s", {})]
    + [("wakeford", {"n": n, "d": d}) for n, d in ((2, 3), (3, 3), (2, 4),
                                                   (2, 2), (1, 3))]
    + [("quarticgen", {"d": d, "B": b}) for d, b in (
        (4, (0, 2, 1, 3)), (5, (0, 1, 2, 3)), (5, (4, 5, 0, 2)),
        (4, (0, 0, 1, 2)), (3, (0, 1, 2, 4)))]
    + [("omnibus", {"d": d, "e": e, "m": m}) for d, e, m in (
        (6, [3, 2], 0), (12, [6, 4], 1), (4, [2], 2), (5, [1], 4),
        (6, [4], 2), (6, [3, 2], 1))]
    + [("sylvgen", {"u": u, "v": v}) for u, v in ((1, 2), (2, 3), (3, 2),
                                                  (0, 2))]
    + [("sylv622", {"s": s}) for s in (1, 2, 3)]
    + [("so2s", {"s": s}) for s in (0, 1, 2, 3)]
    + [("reichmap", {"n": n}) for n in (1, 2, 3)]
    + [("slinkymap", {"n": n}) for n in (0, 1, 3)]
    + [("sylwake", {"s": s}) for s in (1, 2, 3)]
    + [("hyperplane", {"c": c}) for c in (
        [1, 2, 3, 4], [1, 0, QQi(0, 1), 0], [0, 0, 1, 0], [1, 0, 0, 0],
        [QQi(Fraction(1, 2)), 3, QQi(0, -1), QQi(2, 1)], [1, 2, 3],
        [0, 0, 0, 0])]
    + [("zerosum", {"s": s}) for s in (0, 1, 2)]
    + [("nosuch", {}), ("uppertri", {}), ("uppertri", {"n": 2, "d": 3})])


def _catalog_meaning(name, params) -> list:
    """What a catalog request means, read only through the public ParamMap
    API: the shape, params and stored witness, then the exact value and
    gradient at one seeded rational point; or the refusal and its message."""
    try:
        pmap = build_map(name, **params)
    except (AllZero, BadShape, UnknownName) as exc:
        return [type(exc).__name__, str(exc)]
    rng = random.Random(f"pin {name} {params}")
    t = [QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
         for _ in range(pmap.m)]
    basis = index_set(pmap.n, pmap.d)
    return [pmap.n, pmap.d, pmap.m, pmap.params, pmap.noncanonical,
            None if pmap.witness is None else [str(v) for v in pmap.witness],
            [str(pmap.evaluate(t).a(i)) for i in basis],
            [[str(df.a(i)) for i in basis] for df in pmap.gradient(t)]]


def test_catalog_meaning_is_pinned():
    # recorded before the builders moved to one parameter allocator; any
    # later rewrite of the catalog must keep every entry's meaning
    records = [[name, repr(params), _catalog_meaning(name, params)]
               for name, params in PINNED_SWEEP]
    assert {r[0] for r in records} >= set(catalog_names())
    text = json.dumps(records, sort_keys=True, default=str)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "4ca9316f052951853c94c9d08905e32c77bb8d2a31f02d81c133c7e513622582")


# -- the compiled program against the recursive walk -----------------------------


def _recursive_eval_grad(node, t, ring, value: bool = True):
    """The recursive walk the compiled program replaced, kept as its
    reference: value and sparse gradient {j: dF/dt_j}, walking a shared
    subtree once per parent.  With value False it skips the products only
    the value needs, which may be None."""
    if isinstance(node, Param):
        leaf = ring.leaf(node)
        return leaf.scale(t[node.index]), {node.index: leaf}
    if isinstance(node, Fixed):
        return ring.fixed(node.form), {}
    if isinstance(node, Sum):
        vals, grads = zip(*(_recursive_eval_grad(p, t, ring, value)
                            for p in node.parts))
        total = reduce(add, vals) if value else None
        grad: dict = {}
        for g in grads:
            for j, df in g.items():
                grad[j] = grad[j] + df if j in grad else df
        return total, grad
    if isinstance(node, Prod):
        vals, grads = zip(*(_recursive_eval_grad(p, t, ring)
                            for p in node.parts))
        k = len(vals)
        prefix = [None] * (k + 1)
        suffix = [None] * (k + 1)
        prefix[0] = ring.one()
        for i in range(k if value else k - 1):
            prefix[i + 1] = prefix[i] * vals[i]
        suffix[k] = ring.one()
        for i in range(k - 1, 0, -1):
            suffix[i] = vals[i] * suffix[i + 1]
        grad = {}
        for i, g in enumerate(grads):
            if not g:
                continue
            around = prefix[i] * suffix[i + 1]
            for j, df in g.items():
                term = around * df
                grad[j] = grad[j] + term if j in grad else term
        return prefix[k], grad
    if isinstance(node, Pow):
        v, g = _recursive_eval_grad(node.base, t, ring)
        if node.k == 0:
            return ring.one(), {}
        out = power(v, node.k, ring.one()) if value or not g else None
        if not g:
            return out, {}
        shell = power(v, node.k - 1, ring.one()).scale(node.k)
        return out, {j: shell * df for j, df in g.items()}
    raise TypeError(f"unknown expression node {node!r}")


def _residues(values) -> tuple:
    return list(values.v), values.d


def test_program_matches_the_recursive_walk():
    checked = set()
    for name, params in PINNED_SWEEP:
        try:
            pmap = build_map(name, **params)
        except (AllZero, BadShape, UnknownName):
            continue
        rng = random.Random(f"program {name} {params}")
        points = [[QQi(Fraction(rng.randint(-9, 9), rng.randint(1, 5)))
                   for _ in range(pmap.m)]]
        if pmap.witness is not None:
            points.append([as_scalar(v) for v in pmap.witness])
        program = pmap._program()
        for t in points:
            forms = canonicity._FormRing(pmap.n)
            value, grad = _recursive_eval_grad(pmap.expr, t, forms)
            assert program.value(t, forms) == value
            got = program.gradient(t, forms)
            assert sorted(got) == sorted(grad)
            assert all(got[j] == grad[j] for j in grad)
            assert all(got[j].items() == grad[j].items() for j in grad)
            residues = [mod_p(v) for v in t]
            points_ring = canonicity._PointRing(pmap.n, pmap.d)
            value, grad = _recursive_eval_grad(pmap.expr, residues,
                                               points_ring)
            assert _residues(program.value(residues, points_ring)) == \
                _residues(value)
            got = program.gradient(residues, points_ring)
            assert {j: _residues(v) for j, v in got.items()} == \
                {j: _residues(v) for j, v in grad.items()}
            checked.add(name)
    assert checked == set(catalog_names())


def test_shared_subtrees_compile_to_one_slot_each():
    # wakeford n=3 d=4 reuses each of its three linear spans up to six times
    assert len(build_map("wakeford", n=3, d=4)._program().ops) == 43
    pmap = build_map("sextican")
    program = pmap._program()
    assert pmap._program() is program
    pmap.expr = build_map("sextican").expr  # a replaced expression recompiles
    assert pmap._program() is not program
    assert pmap._program().expr is pmap.expr


@pytest.mark.parametrize("expr", [
    Pow(_lin(), -1), Pow(_lin(), 2.0), Pow(_lin(), "2"),
    Sum((Pow(_lin(), 2), Sum(()))), Sum((Prod(()), Pow(_lin(), 2)))])
def test_malformed_expressions_are_refused_without_hanging(expr):
    """A negative power used to loop forever in the repeated squaring."""
    pmap = ParamMap("neg", 2, 2, 2, expr)
    raised = []

    def run():
        for call in (lambda: pmap.evaluate([1, 2]),
                     lambda: pmap.gradient([1, 2]),
                     lambda: jacobian_certify(pmap),
                     lambda: jacobian_certify(pmap, witness=[1, 2])):
            try:
                call()
            except BadShape as exc:
                raised.append(exc)

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert len(raised) == 4


def test_neat_omnibus_maps_certify_on_the_modular_path():
    """Every neat omnibus map up to degree 24 gets its modular verdict at its
    stored witness; a slip to the exact path would keep the verdicts but
    lose the speed."""
    forms = neat_upto(24)
    assert len(forms) == 240
    for f in forms:
        pmap = build_map("omnibus", d=f.d, e=list(f.e),
                         m=f.d + 1 - sum(ek + 1 for ek in f.e))
        assert canonicity._rank_mod_p(pmap, pmap.witness) == pmap.target, (
            f.d, f.e)
