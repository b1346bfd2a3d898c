"""Number-theoretic enumeration of the mixed-power canonical forms.

A neat form of degree d has divisor exponents e_1 >= ... >= e_r < d with
sum(e_k + 1) = d + 1; writing d = e_k m_k this is the bounded Egyptian
fraction equation 1 = sum 1/m_k + (r-1)/d.  The Sylvester-type count s(d)
asks additionally that all e_k agree, which reduces to e | d, (e+1) | (d+1).
The obstruction sets A_d rule out constant-count Reichstein analogues.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction


def shape_error(d: int, e, m: int = 0) -> str | None:
    """Why (d; e; m) is not a mixed-power shape, or None if it is one.

    A shape has d >= 1, each e_k >= 1 dividing d with e_k < d, m >= 0 and
    m + sum(e_k + 1) = d + 1.
    """
    if d < 1 or any(ek < 1 or ek >= d or d % ek for ek in e):
        return "need d >= 1 and each e_k | d with 1 <= e_k < d"
    if m < 0:
        return "m must be >= 0"
    if m + sum(ek + 1 for ek in e) != d + 1:
        return (f"m + sum(e_k + 1) = {m + sum(ek + 1 for ek in e)} "
                f"!= d + 1 = {d + 1}")
    return None


@dataclass(frozen=True, order=True)
class NeatForm:
    """Degree plus the weakly decreasing divisor exponents (m = 0 shape)."""

    d: int
    e: tuple[int, ...]

    def __post_init__(self):
        if not self.e:
            raise ValueError("a neat form needs at least one summand")
        if list(self.e) != sorted(self.e, reverse=True):
            raise ValueError("exponents must be weakly decreasing")
        if reason := shape_error(self.d, self.e):
            raise ValueError(reason)

    @property
    def r(self) -> int:
        return len(self.e)


def divisors(n: int) -> list[int]:
    small, large = [], []
    k = 1
    while k * k <= n:
        if n % k == 0:
            small.append(k)
            if k != n // k:
                large.append(n // k)
        k += 1
    return small + large[::-1]


def s_of_d(d: int) -> int:
    """Number of Sylvester-type neat forms in degree d: e | d, (e+1) | (d+1),
    e < d."""
    if d < 1:
        raise ValueError("degree must be positive")
    return sum(1 for e in divisors(d) if e < d and (d + 1) % (e + 1) == 0)


def partial_sum_S(n: int) -> int:
    """S(N) = sum_{d<=N} s(d) via the floor-sum over e <= sqrt(N)."""
    if n < 1:
        raise ValueError("N must be positive")
    return sum((n - e) // (e * e + e) for e in range(1, math.isqrt(n) + 1))


def neat_enumerate(r: int) -> list[NeatForm]:
    """All neat canonical forms with exactly r summands, duplicate-free.

    Writing d = e_k m_k, the constraint becomes the bounded Egyptian
    fraction 1 = sum 1/m_k + (r-1)/d.  The search branches on the
    nondecreasing m_k with 1/m_k < remaining <= (2r-k)/m_k (the last r-1
    unit fractions all equal 1/d and d >= m_k), then reads off d.
    """
    if r < 1:
        raise ValueError("r must be positive")
    if r == 1:
        return []  # forces e_1 = d, the excluded vacuous case
    found = set()

    def descend(k: int, start: int, acc: Fraction, ms: list[int]):
        rem = 1 - acc
        if rem <= 0:
            return
        if k == r:
            # last slot: 1/m_r + (r-1)/d = rem = a/b.  Substituting d = m_r q
            # forces a | (q + r - 1); with q = a s - (r-1) everything is
            # integer arithmetic: d = s b, m_r = d/q, and m_r >= lo bounds s.
            a, b = rem.numerator, rem.denominator
            lo = max(start, b // a + 1)
            smax = lo * (r - 1) // (lo * a - b) if r > 1 else 0
            for s in range(1, smax + 1):
                q = a * s - (r - 1)
                if q < 1:
                    continue
                d = s * b
                if d % q:
                    continue
                m_last = d // q
                if m_last < lo:
                    continue
                full = ms + [m_last]
                if any(d % m for m in full):
                    continue
                e = tuple(sorted((d // m for m in full), reverse=True))
                if all(ek < d for ek in e):
                    found.add(NeatForm(d, e))
            return
        lo = max(start, int(1 / rem) + 1)
        hi = int((2 * r - k) / rem)
        for m in range(lo, hi + 1):
            descend(k + 1, m, acc + Fraction(1, m), ms + [m])

    descend(1, 2, Fraction(0), [])
    return sorted(found)


def neat_upto(dmax: int) -> list[NeatForm]:
    """All neat canonical forms of degree at most dmax, any summand count.

    Bounded degree makes this a small knapsack over divisor multisets, so it
    avoids the deep Egyptian-fraction search entirely.
    """
    out = []
    for d in range(2, dmax + 1):
        divs = [e for e in divisors(d) if e < d]
        divs.sort(reverse=True)

        def pick(i: int, left: int, chosen: tuple[int, ...]):
            if left == 0:
                out.append(NeatForm(d, chosen))
                return
            for j in range(i, len(divs)):
                if divs[j] + 1 <= left:
                    pick(j, left - divs[j] - 1, chosen + (divs[j],))

        pick(0, d + 1, ())
    return sorted(out)


def obstruction_A(d: int, n: int) -> bool:
    """Whether n lies in A_d: no 0 <= m < n has
    n | binom(n+d-1, d) - binom(m+d-1, d).

    binom(m+d-1, d) is 0 at m = 0 and 1 at m = 1, and is walked upward by
    the factor (m+d)/m, so no binomial but the top one is computed afresh.
    """
    if d < 2 or n < 1:
        raise ValueError("need d >= 2 and n >= 1")
    top = math.comb(n + d - 1, d) % n
    b = 0
    for m in range(n):
        if (top - b) % n == 0:
            return False
        b = b * (m + d) // m if m else 1
    return True


def smallest_in_A(d: int, bound: int | None = None) -> int | None:
    """Least n <= bound in A_d, scanning upward; bound defaults to 2000."""
    limit = bound if bound is not None else 2000
    for n in range(1, limit + 1):
        if obstruction_A(d, n):
            return n
    return None
