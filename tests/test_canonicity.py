import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from canonform import QQi, canonicity, dim, parse_form
from canonform.canonicity import (MOD_I, MOD_P, CertifyReport, ParamMap,
                                  Sum, build_map, catalog_names, hyperplane_classify,
                                  hyperplane_form, jacobian_certify,
                                  lasker_wakeford_full_rank, zerosum_verify)
from canonform.errors import AllZero, BadShape, UnknownName
from canonform.linalg import exact_rank, modp_rank
from canonform.scalars import EPS_DEFAULT


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
    assert canonicity._rank_at(pmap, t, EPS_DEFAULT) == exact
    # the modular verdict is only ever "full rank", and then it is right
    if canonicity._full_rank_mod_p(pmap, t):
        assert exact == pmap.target
    assert lasker_wakeford_full_rank(pmap, t) == (exact == pmap.target)


def test_denominator_divisible_by_p_takes_the_exact_path(monkeypatch):
    calls = []

    def spy(rows, eps):
        calls.append(len(rows))
        return exact_rank(rows)

    monkeypatch.setattr(canonicity, "mat_rank", spy)
    for name, params, witness, verdict in (
            ("sextican", {}, [1, 0, 0, 0, 0, 0, 1], "Certified"),
            ("quarticgen", {"d": 5, "B": (0, 1, 3, 4)}, [1, 0, 0, 1, 1, 1],
             "NotFullRankAtWitness")):
        pmap = build_map(name, **params)
        t = [QQi(Fraction(v, MOD_P)) for v in witness]
        assert not canonicity._full_rank_mod_p(pmap, t)
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
    monkeypatch.setattr(canonicity, "_full_rank_mod_p", lambda pmap, t: False)
    exact = ([hyperplane_classify(c, seed=s) for c in cs for s in (0, 1)],
             [lasker_wakeford_full_rank(pmap, t) for pmap, t in lw_cases])
    assert fast == exact
