import math
import random
from fractions import Fraction

import pytest

from canonform import (QQi, apply_diff, hankel, hankel_kernel, pair,
                       parse_form, power_of_linear, random_form)
from canonform.apolarity import kernel_vector_form
from canonform.errors import ShapeMismatch
from canonform.forms import index_set
from canonform.linalg import exact_kernel, exact_rank

EX310 = parse_form("2*x^3 + 3*x^2*y - 21*x*y^2 - 41*y^3")
EX41 = parse_form("-x^5 + 15*x^4*y - 170*x^3*y^2 + 390*x^2*y^3 "
                  "- 505*x*y^4 + 483*y^5")


def test_pair_examples():
    assert pair(parse_form("x^2", n=2), parse_form("y^2", n=2)) == QQi(0)
    assert pair(parse_form("x*y"), parse_form("x*y")) == QQi(Fraction(1, 2))
    p = parse_form("x^3", n=2)
    assert pair(p, power_of_linear([2, 1], 3)) == p.evaluate((2, 1)) == QQi(8)


def test_pair_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        pair(parse_form("x^2", n=2), parse_form("x^3", n=2))


def test_apply_diff_kernel_relation():
    h = parse_form("6*x^2 - 5*x*y + y^2")
    assert apply_diff(h, EX310).is_zero()


def test_apply_diff_worked_quintic():
    f = parse_form("3*x^2 - 2*x*y - y^2")
    target = parse_form("160*x^3 + 240*x^2*y - 1680*x*y^2 - 3280*y^3")
    assert apply_diff(f, EX41) == target


def test_apply_diff_on_powers_of_linear_forms():
    g = parse_form("x*y")
    assert apply_diff(g, power_of_linear([1, 2], 4)) == \
        power_of_linear([1, 2], 2).scale(24)


def test_degree_order_violation():
    with pytest.raises(ShapeMismatch):
        apply_diff(parse_form("x^3", n=2), parse_form("x^2", n=2))


def test_symmetry_and_difflin():
    rng = random.Random(7)
    for n, d in ((2, 3), (3, 2), (2, 5)):
        for _ in range(20):
            p = random_form(n, d, rng, gaussian=True)
            q = random_form(n, d, rng, gaussian=True)
            assert pair(p, q) == pair(q, p)
            pd = apply_diff(p, q)
            assert pd == apply_diff(q, p)
            assert pd.a((0,) * n) == math.factorial(d) * pair(p, q)


def test_duality_random():
    rng = random.Random(8)
    for n, d in ((2, 4), (3, 3)):
        for _ in range(20):
            p = random_form(n, d, rng, gaussian=True)
            alpha = [QQi(rng.randint(-4, 4), rng.randint(-4, 4))
                     for _ in range(n)]
            assert pair(p, power_of_linear(alpha, d)) == p.evaluate(alpha)


def test_factorization_identity():
    # d! [fg, p] = e! [f, g(D)p] with deg f = e
    rng = random.Random(9)
    for n, e, de in ((2, 1, 2), (2, 2, 2), (3, 1, 2)):
        d = e + de
        for _ in range(15):
            f = random_form(n, e, rng)
            g = random_form(n, de, rng)
            p = random_form(n, d, rng)
            lhs = math.factorial(d) * pair(f * g, p)
            rhs = math.factorial(e) * pair(f, apply_diff(g, p))
            assert lhs == rhs


def test_hankel_example_matrix_and_kernel():
    h = hankel(EX310, 2)
    assert h.shape == (2, 3)
    assert h.rows() == [[QQi(2), QQi(1), QQi(-7)],
                        [QQi(1), QQi(-7), QQi(-41)]]
    basis = hankel_kernel(h)
    assert len(basis) == 1
    assert [v * 6 for v in basis[0]] == [QQi(6), QQi(-5), QQi(1)]


def test_hankel_pure_power_kernel():
    p = parse_form("x^4", n=2)
    basis = hankel_kernel(hankel(p, 1))
    assert len(basis) == 1
    h = kernel_vector_form(basis[0])
    assert h == parse_form("y", n=2)


def test_hankel_kernel_iff_annihilates():
    rng = random.Random(10)
    for _ in range(10):
        p = random_form(2, 5, rng)
        for r in (2, 3):
            hm = hankel(p, r)
            basis = hankel_kernel(hm)
            for vec in basis:
                assert apply_diff(kernel_vector_form(vec), p).is_zero()
        # conversely a known annihilated direction shows up in the kernel
    p = EX310
    h = parse_form("6*x^2 - 5*x*y + y^2")
    assert apply_diff(h, p).is_zero()
    vec = [h.raw((2 - t, t)) for t in range(3)]
    rows = hankel(p, 2).rows()
    for row in rows:
        assert sum((row[i] * vec[i] for i in range(1, 3)), row[0] * vec[0]) \
            == QQi(0)


def test_honest_powers_span():
    # d+1 pairwise non-proportional d-th powers form a basis
    rng = random.Random(11)
    for d in (2, 3, 4):
        nodes = [(1, k) for k in range(d)] + [(0, 1)]
        rows = [[power_of_linear(ab, d).a(i) for i in index_set(2, d)]
                for ab in nodes]
        assert exact_rank(rows) == d + 1


def test_grid_powers_span():
    for n in (1, 2, 3):
        for d in (1, 2, 3, 4):
            rows = [[power_of_linear(i, d).a(j) for j in index_set(n, d)]
                    for i in index_set(n, d)]
            assert exact_rank(rows) == len(rows)


def test_exact_kernel_of_no_rows_is_empty():
    assert exact_kernel([]) == []
