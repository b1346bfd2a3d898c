"""Parameter maps F(t;x), the Jacobian full-rank certifier, and the catalog.

A candidate canonical form is a polynomial map from C^M into the degree-d
forms; it hits a general form exactly when the span of its parameter partials
is the whole space at some point u.  At a rational witness the Jacobian is
first built and ranked modulo the prime MOD_P; full rank there is a proof of
full rank over the Gaussian rationals.  Otherwise the rank is computed
exactly over the Gaussian rationals, so a Certified verdict is a proof for
that witness either way.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from operator import add

from .errors import AllZero, BadShape, ShapeMismatch, UnknownName
from .forms import (Form, MultiIndex, dim, index_set, linear_form,
                    monomial_form, multinomial)
from .linalg import mat_det, mat_rank, modp_rank
from .scalars import (EPS_DEFAULT, QQi, Scalar, as_scalar, is_exact,
                      scalar_is_zero, scalars_close)

# -- expression tree -----------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """Leaf t_j * x^monomial: the parameter's value weights one monomial."""

    index: int
    monomial: MultiIndex


@dataclass(frozen=True)
class Fixed:
    form: Form


@dataclass(frozen=True)
class Sum:
    parts: tuple


@dataclass(frozen=True)
class Prod:
    parts: tuple


@dataclass(frozen=True)
class Pow:
    base: object
    k: int


@dataclass(frozen=True)
class Scale:
    coeff: Scalar
    part: object


# Ranks are decided modulo this prime first (p = 1 mod 4, so i maps to a
# fixed square root of -1).  Reduction mod p is a ring map from the Gaussian
# rationals whose denominators p does not divide, so a minor that is nonzero
# mod p is nonzero over Q(i): full rank mod p is a proof, a smaller rank only
# sends the question to exact arithmetic.
MOD_P = 2305843009213693921
MOD_I = 583529827753931384


class _NoImage(ArithmeticError):
    """A scalar with no image mod MOD_P: inexact, or p divides a denominator."""


def _mod_p(v) -> int:
    if not isinstance(v, QQi):
        raise _NoImage
    try:
        inv = pow(v.d, -1, MOD_P)
    except ValueError:
        raise _NoImage from None
    return (v.a + v.b * MOD_I) * inv % MOD_P


class _ModPoly:
    """A polynomial in n variables mod MOD_P, monomial -> actual coefficient.

    Only what the expression walk uses: scale, +, * and ** k.
    """

    __slots__ = ("n", "c")

    def __init__(self, n: int, c: dict):
        self.n = n
        self.c = c

    def scale(self, s: int) -> "_ModPoly":
        return _ModPoly(self.n, {k: v * s % MOD_P for k, v in self.c.items()}
                        if s else {})

    def __add__(self, other: "_ModPoly") -> "_ModPoly":
        out = dict(self.c)
        for k, v in other.c.items():
            s = (out.get(k, 0) + v) % MOD_P
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return _ModPoly(self.n, out)

    def __mul__(self, other: "_ModPoly") -> "_ModPoly":
        out: dict = {}
        for i, u in self.c.items():
            for j, v in other.c.items():
                k = tuple(map(add, i, j))
                out[k] = out.get(k, 0) + u * v
        return _ModPoly(self.n, {k: r for k, v in out.items()
                                 if (r := v % MOD_P)})

    def __pow__(self, k: int) -> "_ModPoly":
        result = _ModPoly(self.n, {(0,) * self.n: 1})
        base = self
        while k:
            if k & 1:
                result = result * base
            k >>= 1
            if k:
                base = base * base
        return result


class _FormRing:
    """Leaves of the expression walk as Forms over the scalar backend."""

    def __init__(self, n: int):
        self.n = n

    def one(self) -> Form:
        return Form(self.n, 0, {(0,) * self.n: QQi(1)})

    def monomial(self, mono: MultiIndex) -> Form:
        return monomial_form(self.n, mono)

    def fixed(self, form: Form) -> Form:
        return form

    def coeff(self, c: Scalar) -> Scalar:
        return c


class _ModPRing:
    """Leaves of the expression walk as polynomials mod MOD_P; raises
    _NoImage on a scalar that has none."""

    def __init__(self, n: int):
        self.n = n

    def one(self) -> _ModPoly:
        return _ModPoly(self.n, {(0,) * self.n: 1})

    def monomial(self, mono: MultiIndex) -> _ModPoly:
        return _ModPoly(self.n, {tuple(mono): 1})

    def fixed(self, form: Form) -> _ModPoly:
        return _ModPoly(self.n, {i: r for i, a in form.items()
                                 if (r := _mod_p(a) * multinomial(i) % MOD_P)})

    def coeff(self, c: Scalar) -> int:
        return _mod_p(c)


def _eval_grad(node, t, ring):
    """Value and full parameter gradient (sparse dict j -> dF/dt_j).

    ring builds the leaves (a _FormRing or a _ModPRing) and t holds scalars
    of that ring; the rest of the walk only uses scale, +, * and **.
    """
    if isinstance(node, Param):
        mono = ring.monomial(node.monomial)
        return mono.scale(t[node.index]), {node.index: mono}
    if isinstance(node, Fixed):
        return ring.fixed(node.form), {}
    if isinstance(node, Scale):
        c = ring.coeff(node.coeff)
        v, g = _eval_grad(node.part, t, ring)
        return v.scale(c), {j: df.scale(c) for j, df in g.items()}
    if isinstance(node, Sum):
        vals, grads = zip(*(_eval_grad(p, t, ring) for p in node.parts))
        total = vals[0]
        for v in vals[1:]:
            total = total + v
        grad: dict = {}
        for g in grads:
            for j, df in g.items():
                grad[j] = grad[j] + df if j in grad else df
        return total, grad
    if isinstance(node, Prod):
        vals, grads = zip(*(_eval_grad(p, t, ring) for p in node.parts))
        k = len(vals)
        prefix = [None] * (k + 1)
        suffix = [None] * (k + 1)
        prefix[0] = ring.one()
        for i in range(k):
            prefix[i + 1] = prefix[i] * vals[i]
        suffix[k] = ring.one()
        for i in range(k - 1, -1, -1):
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
        v, g = _eval_grad(node.base, t, ring)
        if node.k == 0:
            return ring.one(), {}
        value = v ** node.k
        if not g:
            return value, {}
        shell = (v ** (node.k - 1)).scale(node.k)
        return value, {j: shell * df for j, df in g.items()}
    raise TypeError(f"unknown expression node {node!r}")


# -- parameter maps ---------------------------------------------------------------


@dataclass
class ParamMap:
    """A polynomial map t -> F(t;x) into the (n,d) forms with M parameters."""

    name: str
    n: int
    d: int
    m: int
    expr: object
    witness: list | None = None
    params: dict = field(default_factory=dict)
    noncanonical: bool = False

    @property
    def target(self) -> int:
        return dim(self.n, self.d)

    def _coerce_t(self, t):
        if len(t) != self.m:
            raise ShapeMismatch(f"{self.name} takes {self.m} parameters, got {len(t)}")
        return [as_scalar(v) for v in t]

    def evaluate(self, t) -> Form:
        value, _ = _eval_grad(self.expr, self._coerce_t(t), _FormRing(self.n))
        if (value.n, value.d) != (self.n, self.d):
            raise ShapeMismatch("expression does not produce the declared shape")
        return value

    def gradient(self, t) -> list[Form]:
        """[dF/dt_j at t for j in 0..M-1]."""
        _, grad = _eval_grad(self.expr, self._coerce_t(t), _FormRing(self.n))
        zero = Form.zero(self.n, self.d)
        return [grad.get(j, zero) for j in range(self.m)]

    def partial(self, t, j: int) -> Form:
        return self.gradient(t)[j]

    def jacobian_rows(self, t) -> list[list[Scalar]]:
        idxs = index_set(self.n, self.d)
        return [[df.a(i) for i in idxs] for df in self.gradient(t)]


@dataclass
class CertifyReport:
    """Outcome of a Jacobian full-rank certification run."""

    name: str
    witness: list | None
    rank: int
    target: int
    verdict: str
    seed: int
    trials: int

    @property
    def certified(self) -> bool:
        return self.verdict == "Certified"

    def to_json(self) -> dict:
        wit = None
        if self.witness is not None:
            wit = [str(v) if is_exact(v) else [complex(v).real, complex(v).imag]
                   for v in self.witness]
        return {"name": self.name, "witness": wit, "rank": self.rank,
                "target": self.target, "verdict": self.verdict,
                "seed": self.seed, "trials": self.trials}


def _full_rank_mod_p(pmap: ParamMap, t) -> bool:
    """Whether the Jacobian at t has full rank mod MOD_P, a proof of full
    rank over Q(i); False also when t or the map has no image mod p.

    Its rows are the partials' actual monomial coefficients, the
    Lasker-Wakeford matrix, one column scaling away from jacobian_rows.
    """
    try:
        t = [_mod_p(v) for v in pmap._coerce_t(t)]
        _, grad = _eval_grad(pmap.expr, t, _ModPRing(pmap.n))
    except _NoImage:
        return False
    idxs = index_set(pmap.n, pmap.d)
    empty = _ModPoly(pmap.n, {})
    rows = [[grad.get(j, empty).c.get(i, 0) for i in idxs]
            for j in range(pmap.m)]
    return modp_rank(rows, MOD_P) == pmap.target


def _rank_at(pmap: ParamMap, t, eps: float) -> int:
    if _full_rank_mod_p(pmap, t):
        return pmap.target
    return mat_rank(pmap.jacobian_rows(t), eps)


def jacobian_certify(pmap: ParamMap, witness=None, trials: int = 40,
                     seed: int = 0, eps: float = EPS_DEFAULT) -> CertifyReport:
    """Certified iff the M x N(n,d) Jacobian has full rank at some witness.

    A given witness is checked alone; otherwise the catalog's stored witness
    is tried first, then seeded random integer points in [-9, 9]^M.  Full
    rank is proved mod MOD_P or in exact arithmetic for rational witnesses,
    so Certified is a proof; the negative verdict only reports the
    witnesses tried.  A map with no parameters is refused (BadShape): it
    cannot have full rank, and it has no nonzero random witness.
    """
    if pmap.m < 1:
        raise BadShape(f"{pmap.name} has no parameters")
    target = pmap.target
    if witness is not None:
        t = [as_scalar(v) for v in witness]
        rank = _rank_at(pmap, t, eps)
        verdict = "Certified" if rank == target else "NotFullRankAtWitness"
        return CertifyReport(pmap.name, t, rank, target, verdict, seed, 0)
    best_rank = -1
    best_witness = None
    tried = 0
    candidates = []
    if pmap.witness is not None:
        candidates.append([as_scalar(v) for v in pmap.witness])
    rng = random.Random(seed)
    while len(candidates) < trials + (1 if pmap.witness is not None else 0):
        t = [QQi(rng.randint(-9, 9)) for _ in range(pmap.m)]
        if any(v for v in t):
            candidates.append(t)
    for t in candidates:
        tried += 1
        rank = _rank_at(pmap, t, eps)
        if rank == target:
            return CertifyReport(pmap.name, t, rank, target, "Certified",
                                 seed, tried)
        if rank > best_rank:
            best_rank, best_witness = rank, t
    verdict = "ExceptionalStructure" if pmap.noncanonical else "NotFullRankAtWitness"
    return CertifyReport(pmap.name, best_witness, best_rank, target, verdict,
                         seed, tried)


def lasker_wakeford_full_rank(pmap: ParamMap, t, eps: float = EPS_DEFAULT) -> bool:
    """Apolar reformulation: full rank at t iff only the zero form is apolar
    to every parameter partial."""
    if _full_rank_mod_p(pmap, t):
        return True
    idxs = index_set(pmap.n, pmap.d)
    rows = [[multinomial(i) * df.a(i) for i in idxs] for df in pmap.gradient(t)]
    return mat_rank(rows, eps) == pmap.target


# -- catalog --------------------------------------------------------------------


def _linear_span(n: int, start: int, positions: list[int]) -> tuple[Sum, int]:
    """Sum of Param leaves t_j x_k over the given variable positions."""
    parts = []
    j = start
    for k in positions:
        mono = [0] * n
        mono[k] = 1
        parts.append(Param(j, tuple(mono)))
        j += 1
    return Sum(tuple(parts)), j


def _monomial_span(n: int, d: int, start: int,
                   monomials: list[MultiIndex] | None = None) -> tuple[Sum, int]:
    """Sum of Param leaves over a monomial list (default: all of I(n,d))."""
    monos = monomials if monomials is not None else index_set(n, d)
    parts = []
    j = start
    for mono in monos:
        parts.append(Param(j, tuple(mono)))
        j += 1
    return Sum(tuple(parts)), j


def _raw_coeffs_as_witness(f: Form, monomials: list[MultiIndex]) -> list:
    return [f.raw(m) for m in monomials]


def _build_uppertri(n: int) -> ParamMap:
    if n < 1:
        raise BadShape("uppertri needs n >= 1")
    terms = []
    witness = []
    j = 0
    for k in range(n):
        span, j = _linear_span(n, j, list(range(k, n)))
        terms.append(Pow(span, 2))
        witness.extend([1 if m == k else 0 for m in range(k, n)])
    return ParamMap("uppertri", n, 2, j, Sum(tuple(terms)), witness=witness,
                    params={"n": n})


def _build_sextican() -> ParamMap:
    f, j = _monomial_span(2, 3, 0)
    g, j = _monomial_span(2, 2, j)
    expr = Sum((Pow(f, 2), Pow(g, 3)))
    witness = [1, 0, 0, 0, 0, 0, 1]  # f = x^3, g = y^2
    return ParamMap("sextican", 2, 6, j, expr, witness=witness)


def _build_wakeford(n: int, d: int) -> ParamMap:
    if n < 2 or d < 3:
        raise BadShape("wakeford needs n >= 2 and d >= 3")
    xs = []
    j = 0
    for _ in range(n):
        span, j = _linear_span(n, j, list(range(n)))
        xs.append(span)
    removed = set()
    for i in range(n):
        mono = [0] * n
        mono[i] = d
        removed.add(tuple(mono))
        for k in range(n):
            if k != i:
                mono = [0] * n
                mono[i] = d - 1
                mono[k] = 1
                removed.add(tuple(mono))
    terms = [Pow(x, d) for x in xs]
    witness = []
    for i in range(n):
        witness.extend([1 if k == i else 0 for k in range(n)])
    for mono in index_set(n, d):
        if mono in removed:
            continue
        parts = [Param(j, (0,) * n)]
        j += 1
        witness.append(0)
        for i, e in enumerate(mono):
            if e:
                parts.append(Pow(xs[i], e))
        terms.append(Prod(tuple(parts)))
    return ParamMap("wakeford", n, d, j, Sum(tuple(terms)), witness=witness,
                    params={"n": n, "d": d})


def _build_quarticgen(d: int, B: tuple[int, int, int, int]) -> ParamMap:
    b = tuple(int(v) for v in B)
    if len(set(b)) != 4 or any(not 0 <= k <= d for k in b):
        raise BadShape("quarticgen needs four distinct indices in 0..d")
    m1, m2, n1, n2 = b
    excluded = {frozenset((m1, m2))} & {frozenset((0, 1)), frozenset((d - 1, d))}
    x_span, j = _linear_span(2, 0, [0, 1])
    y_span, j = _linear_span(2, j, [0, 1])
    witness = [1, 0, 0, 1]

    def xy_power(k: int):
        parts = []
        if d - k:
            parts.append(Pow(x_span, d - k))
        if k:
            parts.append(Pow(y_span, k))
        return Prod(tuple(parts))

    terms = [xy_power(n1), xy_power(n2)]
    for k in range(d + 1):
        if k in b:
            continue
        terms.append(Prod((Param(j, (0, 0)), xy_power(k))))
        witness.append(1)
        j += 1
    # the two excluded patterns force a square factor; the certifier still
    # reports them as NotFullRankAtWitness, never as a proof
    return ParamMap("quarticgen", 2, d, j, Sum(tuple(terms)), witness=witness,
                    params={"d": d, "B": list(b), "excluded": bool(excluded)})


def _build_notclebsch() -> ParamMap:
    q, j = _monomial_span(3, 2, 0)
    terms = [Pow(q, 2)]
    witness = _raw_coeffs_as_witness(
        monomial_form(3, (1, 1, 0)) + monomial_form(3, (1, 0, 1))
        + monomial_form(3, (0, 1, 1)), index_set(3, 2))
    for k in range(3):
        span, j = _linear_span(3, j, [0, 1, 2])
        terms.append(Pow(span, 4))
        witness.extend([1 if i == k else 0 for i in range(3)])
    return ParamMap("notclebsch", 3, 4, j, Sum(tuple(terms)), witness=witness)


def _omnibus_fixed_forms(m: int) -> list[Form]:
    out = []
    if m >= 1:
        out.append(linear_form([QQi(1), QQi(0)]))
    if m >= 2:
        out.append(linear_form([QQi(0), QQi(1)]))
    for j in range(3, m + 1):
        out.append(linear_form([QQi(1), QQi(j - 2)]))
    return out


def _build_omnibus(d: int, e: list[int], m: int, name: str = "omnibus") -> ParamMap:
    e = sorted((int(v) for v in e), reverse=True)
    if m < 0 or d < 1:
        raise BadShape("omnibus needs d >= 1 and m >= 0")
    if any(ek < 1 or ek >= d or d % ek for ek in e):
        raise BadShape("each e_k must satisfy e_k | d and e_k < d")
    if m + sum(ek + 1 for ek in e) != d + 1:
        raise BadShape(f"m + sum(e_k + 1) = {m + sum(ek + 1 for ek in e)} "
                       f"!= d + 1 = {d + 1}")
    fixed = _omnibus_fixed_forms(m)
    terms = []
    witness = []
    j = 0
    for lin in fixed:
        terms.append(Prod((Param(j, (0, 0)), Fixed(lin ** d))))
        witness.append(1)
        j += 1
    for k, ek in enumerate(e):
        span, j = _monomial_span(2, ek, j)
        terms.append(Pow(span, d // ek))
        tilde = linear_form([QQi(1), QQi(m + k + 1)])
        witness.extend(_raw_coeffs_as_witness(tilde ** ek, index_set(2, ek)))
    return ParamMap(name, 2, d, j, Sum(tuple(terms)), witness=witness,
                    params={"d": d, "e": e, "m": m})


def _build_sylvgen(u: int, v: int) -> ParamMap:
    if u < 1 or v < 2:
        raise BadShape("sylvgen needs u >= 1 and v >= 2")
    d = u * v
    r, s = divmod(d + 1, u + 1)
    terms = []
    j = 0
    for _ in range(r):
        span, j = _monomial_span(2, u, j)
        terms.append(Pow(span, v))
    if s:
        monos = [(u - k, k) for k in range(s)]
        span, j = _monomial_span(2, u, j, monomials=monos)
        terms.append(Pow(span, v))
    return ParamMap("sylvgen", 2, d, j, Sum(tuple(terms)),
                    params={"u": u, "v": v})


def _build_so2s(s: int) -> ParamMap:
    if s < 1:
        raise BadShape("so2s needs s >= 1")
    f, j = _monomial_span(2, s, 0)
    g_monos = [(s - k, k) for k in range(1, s + 1)]
    g, j = _monomial_span(2, s, j, monomials=g_monos)
    witness = [1] + [0] * (s + s - 1) + [1]  # f = x^s, g = y^s
    return ParamMap("so2s", 2, 2 * s, j, Sum((Pow(f, 2), Pow(g, 2))),
                    witness=witness, params={"s": s})


def _build_so3s() -> ParamMap:
    all_m = index_set(3, 2)
    q1, j = _monomial_span(3, 2, 0)
    m2 = [m for m in all_m if m != (2, 0, 0)]
    q2, j = _monomial_span(3, 2, j, monomials=m2)
    m3 = [m for m in all_m if m not in ((2, 0, 0), (0, 2, 0))]
    q3, j = _monomial_span(3, 2, j, monomials=m3)
    witness = _raw_coeffs_as_witness(monomial_form(3, (2, 0, 0)), all_m)
    witness += _raw_coeffs_as_witness(monomial_form(3, (0, 2, 0)), m2)
    witness += _raw_coeffs_as_witness(monomial_form(3, (0, 0, 2)), m3)
    return ParamMap("so3s", 3, 4, j, Sum((Pow(q1, 2), Pow(q2, 2), Pow(q3, 2))),
                    witness=witness)


def _build_reichmap(n: int) -> ParamMap:
    if n < 2:
        raise BadShape("reichmap needs n >= 2")
    terms = []
    j = 0
    for _ in range(n):
        span, j = _linear_span(n, j, list(range(n)))
        terms.append(Pow(span, 3))
    if n > 2:
        tail = [m for m in index_set(n, 3) if not (m[0] or m[1])]
        span, j = _monomial_span(n, 3, j, monomials=tail)
        terms.append(span)
    return ParamMap("reichmap", n, 3, j, Sum(tuple(terms)), params={"n": n})


def _build_slinkymap(n: int) -> ParamMap:
    if n < 1:
        raise BadShape("slinkymap needs n >= 1")
    terms = []
    j = 0
    for i in range(n):
        for jj in range(i, n):
            span, j = _linear_span(n, j, list(range(i, jj + 1)))
            terms.append(Pow(span, 3))
    return ParamMap("slinkymap", n, 3, j, Sum(tuple(terms)), params={"n": n})


def _build_sylwake(s: int) -> ParamMap:
    # s = 1 collapses to (1 + lambda) l^2, which cannot span
    if s < 2:
        raise BadShape("sylwake needs s >= 2")
    lins = []
    j = 0
    for _ in range(s):
        span, j = _linear_span(2, j, [0, 1])
        lins.append(span)
    lam = Param(j, (0, 0))
    j += 1
    terms = [Pow(lin, 2 * s) for lin in lins]
    terms.append(Prod(tuple([lam] + [Pow(lin, 2) for lin in lins])))
    return ParamMap("sylwake", 2, 2 * s, j, Sum(tuple(terms)), params={"s": s})


def _hyperplane_coefficients(c) -> list[Scalar]:
    c = [as_scalar(v) for v in c]
    if len(c) != 4:
        raise BadShape(f"hyperplane needs 4 coefficients c1..c4, got {len(c)}")
    if not any(c):
        raise AllZero("hyperplane coefficients are all zero")
    return c


def _build_hyperplane(c) -> ParamMap:
    c = _hyperplane_coefficients(c)
    pivot = 3 if c[3] else max(k for k in range(4) if c[k])
    free = [k for k in range(4) if k != pivot]
    slot_mono = {0: (1, 0), 1: (0, 1), 2: (1, 0), 3: (0, 1)}

    def coord_expr(k: int):
        if k != pivot:
            return Param(free.index(k), slot_mono[k])
        parts = []
        for i in free:
            a_i = -c[i] / c[pivot]
            parts.append(Scale(a_i, Param(free.index(i), slot_mono[k])))
        return Sum(tuple(parts))

    first = Sum((coord_expr(0), coord_expr(1)))
    second = Sum((coord_expr(2), coord_expr(3)))
    scale = max(abs(complex(v)) for v in c)
    exceptional = any(
        scalars_close(c[2], epsilon * c[0], EPS_DEFAULT, scale)
        and scalars_close(c[3], epsilon * c[1], EPS_DEFAULT, scale)
        for epsilon in (QQi(0, 1), QQi(0, -1)))
    return ParamMap("hyperplane", 2, 2, 3, Sum((Pow(first, 2), Pow(second, 2))),
                    params={"c": [str(v) for v in c], "pivot": pivot + 1},
                    noncanonical=exceptional)


def _build_zerosum(s: int) -> ParamMap:
    if s < 1:
        raise BadShape("zerosum needs s >= 1")
    terms = []
    for jj in range(s):
        terms.append(Pow(Sum((Param(jj, (1, 0)), Param(s + 1 + jj, (0, 1)))), 2 * s))
    last_y = [Scale(QQi(-1), Param(k, (0, 1))) for k in range(2 * s + 1)]
    last = Sum(tuple([Param(s, (1, 0))] + last_y))
    terms.append(Pow(last, 2 * s))
    return ParamMap("zerosum", 2, 2 * s, 2 * s + 1, Sum(tuple(terms)),
                    params={"s": s})


_CATALOG = {
    "uppertri": (_build_uppertri, ("n",)),
    "sextican": (_build_sextican, ()),
    "wakeford": (_build_wakeford, ("n", "d")),
    "quarticgen": (_build_quarticgen, ("d", "B")),
    "notclebsch": (_build_notclebsch, ()),
    "omnibus": (_build_omnibus, ("d", "e", "m")),
    "sylvgen": (_build_sylvgen, ("u", "v")),
    "sylv622": (None, ("s",)),
    "so2s": (_build_so2s, ("s",)),
    "so3s": (_build_so3s, ()),
    "reichmap": (_build_reichmap, ("n",)),
    "slinkymap": (_build_slinkymap, ("n",)),
    "sylwake": (_build_sylwake, ("s",)),
    "hyperplane": (_build_hyperplane, ("c",)),
    "zerosum": (_build_zerosum, ("s",)),
}


def catalog_names() -> list[str]:
    return sorted(_CATALOG)


def build_map(name: str, **params) -> ParamMap:
    """Construct a catalog map; raises UnknownName / BadShape.

    Every entry has exactly N(n,d) parameters; the stored special witness,
    when the defining proof provides one, certifies deterministically.
    """
    if name not in _CATALOG:
        raise UnknownName(f"no catalog entry named {name!r}; "
                          f"known: {', '.join(catalog_names())}")
    if name == "sylv622":
        s = int(params.pop("s"))
        if params:
            raise BadShape(f"unexpected parameters {sorted(params)}")
        if s < 2:
            raise BadShape("sylv622 needs s >= 2")
        pmap = _build_omnibus(2 * s, [2] + [1] * (s - 1), 0, name="sylv622")
        pmap.params = {"s": s}
        return pmap
    builder, wanted = _CATALOG[name]
    missing = [k for k in wanted if k not in params]
    extra = [k for k in params if k not in wanted]
    if missing or extra:
        raise BadShape(f"{name} takes parameters {list(wanted)}; "
                       f"missing {missing}, unexpected {extra}")
    pmap = builder(**params)
    if pmap.m != pmap.target:
        raise BadShape(f"{name}: parameter count {pmap.m} != N({pmap.n},"
                       f"{pmap.d}) = {pmap.target}")
    return pmap


# -- hyperplane analysis ------------------------------------------------------------


@dataclass
class HyperplaneVerdict:
    """Canonical with a t-witness, or Exceptional with a universal zero point."""

    kind: str  # "Canonical" | "Exceptional"
    witness: list | None = None
    epsilon: Scalar | None = None
    zero_point: tuple | None = None


def hyperplane_form(t) -> Form:
    """(t1 x + t2 y)^2 + (t3 x + t4 y)^2 for an explicit parameter 4-vector."""
    t = [as_scalar(v) for v in t]
    l1 = linear_form([t[0], t[1]])
    l2 = linear_form([t[2], t[3]])
    return l1 * l1 + l2 * l2


def hyperplane_classify(c, eps: float = EPS_DEFAULT, seed: int = 0,
                        trials: int = 64) -> HyperplaneVerdict:
    """Decide whether the constraint sum c_j t_j = 0 leaves a canonical form.

    Exceptional exactly when c3 = eps*c1 and c4 = eps*c2 with eps in {i,-i};
    then every feasible form vanishes at the returned point.  Otherwise a
    parameter witness with nonvanishing partial determinant is produced.
    """
    c = _hyperplane_coefficients(c)
    scale = max(abs(complex(v)) for v in c)
    for epsilon in (QQi(0, 1), QQi(0, -1)):
        if (scalars_close(c[2], epsilon * c[0], eps, scale)
                and scalars_close(c[3], epsilon * c[1], eps, scale)):
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
        if not _full_rank_mod_p(pmap, t_free):
            rows = [[df.a(i) for i in basis] for df in pmap.gradient(t_free)]
            if scalar_is_zero(mat_det(rows), eps):
                continue
        full = [None] * 4
        for i, k in enumerate(free):
            full[k] = t_free[i]
        full[pivot] = sum((-c[k] / c[pivot]) * t_free[i]
                          for i, k in enumerate(free))
        return HyperplaneVerdict("Canonical", witness=full)
    raise ShapeMismatch("no nondegenerate parameter point found; the "
                        "determinant locus should be proper for this c")


def zerosum_verify(s: int, trials: int = 40, seed: int = 0) -> CertifyReport:
    """Certify the zero-sum power conjecture map for degree 2s."""
    return jacobian_certify(build_map("zerosum", s=s), trials=trials, seed=seed)
