import math
import random

import pytest

from canonform.canonicity import build_map, jacobian_certify
from canonform.enumeration import (NeatForm, divisors, neat_enumerate,
                                   neat_upto, obstruction_A, partial_sum_S,
                                   s_of_d, smallest_in_A)


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_s_values_from_the_text():
    assert s_of_d(15) == 2
    assert s_of_d(99) == 3
    assert s_of_d(7) == 1  # s(2^3 - 1) = d(3) - 1
    assert s_of_d(7316000) == 12


def test_s_alternative_parametrization():
    # d = e + u e(e+1), u >= 1 generates the same counts
    limit = 10 ** 4
    counts = [0] * (limit + 1)
    e = 1
    while e * e + 2 * e <= limit:
        d = e * e + 2 * e
        while d <= limit:
            counts[d] += 1
            d += e * (e + 1)
        e += 1
    for d in range(1, limit + 1):
        assert counts[d] == s_of_d(d)


def test_partial_sum_cross_check():
    assert partial_sum_S(1) == 0
    assert partial_sum_S(15) == sum(s_of_d(d) for d in range(1, 16))
    assert partial_sum_S(10 ** 4) == sum(s_of_d(d) for d in range(1, 10 ** 4 + 1))


def test_partial_sum_envelope():
    n = 10 ** 4
    import math
    assert abs(partial_sum_S(n) - (n - math.isqrt(n))) <= 20 * math.log(n)


def test_neat_r1_empty():
    assert neat_enumerate(1) == []


def test_neat_r2_exact():
    got = [(f.d, f.e) for f in neat_enumerate(2)]
    assert got == [(3, (1, 1)), (4, (2, 1)), (6, (3, 2))]


def test_neat_r3_twenty_two():
    forms = neat_enumerate(3)
    assert len(forms) == 22
    assert all(f.r == 3 for f in forms)
    assert NeatForm(6, (2, 1, 1)) in forms


def test_neat_invariants():
    for f in neat_enumerate(3):
        assert sum(e + 1 for e in f.e) == f.d + 1
        assert all(f.d % e == 0 and e < f.d for e in f.e)
        assert list(f.e) == sorted(f.e, reverse=True)


def test_neat_upto_agrees_with_per_r():
    small = sorted(f for r in (2, 3, 4, 5) for f in neat_enumerate(r)
                   if f.d <= 10)
    assert [f for f in neat_upto(10) if f.r <= 5] == small


def test_neat_forms_build_and_certify():
    for f in neat_upto(8):
        pmap = build_map("omnibus", d=f.d, e=list(f.e), m=0)
        rep = jacobian_certify(pmap)
        assert rep.certified, (f.d, f.e)


def test_obstruction_examples():
    assert obstruction_A(4, 12)
    assert obstruction_A(10, 6)
    assert smallest_in_A(10, 100) == 6
    assert smallest_in_A(6, 100) == 10


def test_obstruction_walk_matches_the_binomials():
    def reference(d, n):
        top = math.comb(n + d - 1, d) % n
        return all((top - math.comb(m + d - 1, d)) % n for m in range(n))

    rng = random.Random(11)
    cases = [(d, n) for d in range(2, 41) for n in range(1, 201)]
    cases += [(rng.randint(2, 1000), rng.randint(1, 400)) for _ in range(400)]
    got = [obstruction_A(d, n) for d, n in cases]
    assert got == [reference(d, n) for d, n in cases]
    assert any(got) and not all(got)


def test_obstruction_prime_degrees_empty():
    for p in (2, 3, 5, 7):
        assert smallest_in_A(p, 200) is None


def test_smallest_defaults_reach_1792():
    assert smallest_in_A(8) == 1792


def test_monotone_growth_witness():
    rng = random.Random(60)
    sampled = rng.sample(range(2, 200), 50)
    for d in sampled:
        assert s_of_d(d * d + 2 * d) >= s_of_d(d) + 1


def test_neat_form_validation():
    with pytest.raises(ValueError):
        NeatForm(4, (1, 2))  # not decreasing
    with pytest.raises(ValueError):
        NeatForm(4, (3, 1))  # 3 does not divide 4
    with pytest.raises(ValueError):
        NeatForm(5, (1, 1))  # count off
