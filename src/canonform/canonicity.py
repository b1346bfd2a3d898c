"""Parameter maps F(t;x), the Jacobian full-rank certifier, and the catalog.

A candidate canonical form is a polynomial map from C^M into the degree-d
forms; it hits a general form exactly when the span of its parameter partials
is the whole space at some point u.  At a rational witness the partials are
first evaluated modulo the prime MOD_P at the N(n, d) points I(n, d), and
those rows ranked; full rank there is a proof of full rank over the Gaussian
rationals.  Otherwise the rank is computed exactly over the Gaussian
rationals (each float at its exact value), so Certified is a proof either way.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field
from functools import cache, partial, reduce
from operator import add, mul
from struct import Struct

from . import enumeration, linalg
from .errors import AllZero, BadShape, DegenerateInput, ShapeMismatch, UnknownName
from .forms import (Form, MultiIndex, _monomials, _trusted, dim,
                    linear_form, monomial_form, multinomial)
from .scalars import (EPS_DEFAULT, MOD_P, QQi, Scalar, _NoImage, as_scalar,
                      is_exact, mod_p, scalars_close)

# -- expression tree -----------------------------------------------------------


@dataclass(frozen=True)
class Param:
    """Leaf coeff * t_j * x^monomial: the parameter's value weights one
    monomial, times a constant coefficient."""

    index: int
    monomial: MultiIndex
    coeff: Scalar = 1


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


class _Values:
    """A form's values mod MOD_P at the points I(n, d), each multi-index read
    as an integer point, with its degree d; scale, +, * and ** act
    pointwise, and + of unequal degrees raises _NoImage, so d is the true
    degree."""

    __slots__ = ("v", "d")

    def __init__(self, v, d: int):
        self.v, self.d = v, d

    def scale(self, s: int) -> "_Values":
        return self if s == 1 else _Values([a * s % MOD_P for a in self.v],
                                           self.d)

    def __add__(self, other: "_Values") -> "_Values":
        if self.d != other.d:
            raise _NoImage
        return _Values([(a + b) % MOD_P for a, b in zip(self.v, other.v)],
                       self.d)

    def __mul__(self, other: "_Values") -> "_Values":
        return _Values([a * b % MOD_P for a, b in zip(self.v, other.v)],
                       self.d + other.d)

    def __pow__(self, k: int) -> "_Values":
        return self if k == 1 else _Values([pow(a, k, MOD_P) for a in self.v],
                                           self.d * k)


@cache
def _monomial_values(mono: MultiIndex, d: int) -> tuple[int, ...]:
    return tuple(math.prod(z ** e for z, e in zip(point, mono)) % MOD_P
                 for point in _monomials(len(mono), d))


class _FormRing:
    """Leaves of the expression program as Forms; exact reads floats exactly."""

    def __init__(self, n: int, exact: bool = False):
        self.n, self.exact = n, exact

    def one(self) -> Form:
        return _trusted(self.n, 0, {(0,) * self.n: QQi(1)}, True)

    def leaf(self, param: Param) -> Form:
        mono = monomial_form(self.n, param.monomial)
        c = _dyadic(param.coeff) if self.exact else param.coeff
        return mono if c == 1 else mono.scale(c)

    def fixed(self, form: Form) -> Form:
        return form if form.exact or not self.exact else _trusted(
            form.n, form.d, {i: _dyadic(v) for i, v in form._a.items()}, True)

    add_all = staticmethod(partial(reduce, add))  # reduce(add, values)


class _PointRing:
    """Leaves of the expression program as their degree-tagged _Values at the
    points I(n, d); raises _NoImage on a scalar that has none, and on a leaf
    whose width is not n, whose values would be read at other points."""

    def __init__(self, n: int, d: int):
        self.n, self.d, self.size = n, d, dim(n, d)

    def one(self) -> _Values:
        return _Values([1] * self.size, 0)

    def leaf(self, param: Param) -> _Values:
        if len(param.monomial) != self.n:
            raise _NoImage
        mono = _Values(_monomial_values(param.monomial, self.d),
                       sum(param.monomial))
        return mono if param.coeff == 1 else mono.scale(mod_p(param.coeff))

    def fixed(self, form: Form) -> _Values:
        if form.n != self.n:
            raise _NoImage
        return sum((_Values(_monomial_values(i, self.d), form.d)
                    .scale(mod_p(a) * multinomial(i)) for i, a in form.items()),
                   _Values([0] * self.size, form.d))

    def add_all(self, values: list) -> _Values:
        """The parts added in one pass per point, each sum reduced once;
        parts of unequal degrees raise _NoImage."""
        if len(values) < 3:  # + is one pass already
            return reduce(add, values)
        if len({v.d for v in values}) > 1:
            raise _NoImage
        return _Values([sum(col) % MOD_P for col in zip(*[v.v for v in values])],
                       values[0].d)


class _Program:
    """An expression as a straight-line program (Baur and Strassen): one
    slot (kind, node, parts, positions of the parts that depend on some
    t_j) per distinct node object, after the slots of its parts.  The
    adjoint of a slot is dF/d(slot); None stands for the root's, 1."""

    KINDS = (Param, Sum, Pow, Prod, Fixed)

    def __init__(self, expr):
        self.expr, self.ops = expr, []
        self._compile(expr, {})
        # the sweep reads each part of a live product but a lone live one,
        # and the base of a live power above 1; a value reads its parts'
        # values, but a 0th power reads none
        need = [False] * len(self.ops)
        for s in range(len(self.ops) - 1, -1, -1):
            kind, node, parts, live = self.ops[s]
            for i, c in enumerate(parts if kind is not Pow or node.k else ()):
                swept = kind is Prod and live != (i,) or kind is Pow and node.k > 1
                need[c] = need[c] or need[s] or bool(live) and swept
        self.needed = [s for s, n in enumerate(need) if n]

    def _compile(self, node, slots: dict) -> int:
        slot = slots.get(id(node))
        if slot is not None:
            return slot
        kind = type(node)
        if kind not in self.KINDS:  # a subclass compiles as its kind
            kind = next((k for k in self.KINDS if isinstance(node, k)), None)
            if kind is None:
                raise TypeError(f"unknown expression node {node!r}")
        parts, live, ops = [], [], self.ops
        if kind is not Param and kind is not Fixed:
            if (kind is Pow and (not isinstance(node.k, int) or node.k < 0)
                    or kind is not Pow and not node.parts):
                raise BadShape(f"a negative or non-int power, or no parts: {node!r}")
            lives = kind is not Pow or node.k
            for i, sub in enumerate((node.base,) if kind is Pow else node.parts):
                parts.append(c := self._compile(sub, slots))
                if lives and (ops[c][0] is Param or ops[c][3]):
                    live.append(i)
        slots[id(node)] = slot = len(ops)
        ops.append((kind, node, tuple(parts), tuple(live)))
        return slot

    def _forward(self, t, ring, slots, leaves: dict) -> list:
        """The values of the given slots, from one forward pass; each Param
        slot's leaf is kept in leaves."""
        vals = [None] * len(self.ops)
        for s in slots:
            kind, node, parts, _ = self.ops[s]
            if kind is Param:
                leaf = leaves[s] = ring.leaf(node)
                vals[s] = leaf.scale(t[node.index])
            elif kind is Fixed:
                vals[s] = ring.fixed(node.form)
            elif kind is Pow:
                vals[s] = vals[parts[0]] ** node.k if node.k else ring.one()
            elif kind is Sum:
                vals[s] = ring.add_all([vals[c] for c in parts])
            else:
                vals[s] = reduce(mul, [vals[c] for c in parts])
        return vals

    def value(self, t, ring):
        return self._forward(t, ring, range(len(self.ops)), {})[-1]

    def gradient(self, t, ring) -> dict:
        """{j: dF/dt_j} at t: one forward pass over the values that one
        reverse sweep of the adjoints reads, then that sweep."""
        leaves: dict = {}
        vals = self._forward(t, ring, self.needed, leaves)
        ops = self.ops
        adjoint, grad = {len(ops) - 1: [None]}, {}
        for s in range(len(ops) - 1, -1, -1):
            a = adjoint.pop(s, None)  # its contributions, added in one pass
            if a is None:  # no t_j below, or only below a 0th power
                continue
            a = a[0] if len(a) == 1 else ring.add_all(
                [ring.one() if out is None else out for out in a])
            kind, node, parts, live = ops[s]
            if kind is Param:
                df = _times(a, leaves[s] if s in leaves else ring.leaf(node))
                j = node.index
                grad[j] = grad[j] + df if j in grad else df
                continue
            if kind is Prod:  # the others' product is prefix[i] * suffix[i + 1]
                prefix, suffix = [None] * (live[-1] + 1), [None] * (len(parts) + 1)
                for i in range(live[-1]):
                    prefix[i + 1] = _times(prefix[i], vals[parts[i]])
                for i in range(len(parts) - 1, live[0], -1):
                    suffix[i] = _times(vals[parts[i]], suffix[i + 1])
                outs = [_times(a, _times(prefix[i], suffix[i + 1])) for i in live]
            elif kind is Pow and node.k > 1:
                outs = [_times(a, (vals[parts[0]] ** (node.k - 1)).scale(node.k))]
            else:
                outs = [a] * len(live)
            for i, out in zip(live, outs):
                adjoint.setdefault(parts[i], []).append(out)
        return grad


def _times(a, b):
    """a * b, where None is the identity."""
    return b if a is None else a if b is None else a * b


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

    def _program(self) -> _Program:
        """The expression compiled once, and again if expr is replaced."""
        if getattr(self, "_compiled", None) is None or self._compiled.expr is not self.expr:
            self._compiled = _Program(self.expr)
        return self._compiled

    def evaluate(self, t) -> Form:
        t = self._coerce_t(t)
        value = self._program().value(t, _FormRing(self.n))
        if (value.n, value.d) != (self.n, self.d):
            raise ShapeMismatch("expression does not produce the declared shape")
        return value

    def gradient(self, t) -> list[Form]:
        """[dF/dt_j at t for j in 0..M-1]."""
        t = self._coerce_t(t)
        grad = self._program().gradient(t, _FormRing(self.n))
        zero = Form.zero(self.n, self.d)
        return [grad.get(j, zero) for j in range(self.m)]

    def jacobian_rows(self, t, exact: bool = False) -> list[list[Scalar]]:
        """The gradient's rows; exact reads float Param and Fixed coefficients exactly."""
        idxs, zero = _monomials(self.n, self.d), Form.zero(self.n, self.d)
        grad = self._program().gradient(self._coerce_t(t), _FormRing(self.n, exact))
        return [[grad.get(j, zero).a(i) for i in idxs] for j in range(self.m)]


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


def modp_rank(rows: list[list[int]], p: int) -> int:
    """Rank of an integer matrix over the field of p elements, p a prime below 2^64.

    Each row is reduced mod p and packed into one int by one struct call, column c
    in the c-th slot, so one big-int multiply-add updates a row.  The pivot row is
    read up to its last nonzero slot, normalised to -1 at the pivot and reduced mod
    p slot by slot, and each other row gets (entry mod p) times it, adding below p^2
    to a slot; a slot that starts below p thus stays below (min(rows, cols) + 1) p^2,
    within its width, and never carries.  Each finished column is shifted out.
    """
    ncols = len(rows[0]) if rows else 0
    width = (((min(len(rows), ncols) + 1) * p * p).bit_length() + 7) // 8
    bits, mask = 8 * width, (1 << 8 * width) - 1
    size = 1 << (((p - 1).bit_length() - 1) // 8).bit_length()  # a residue's code
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}[size] + "x" * (width - size)
    pack = Struct("<" + code * ncols).pack
    m = [int.from_bytes(pack(*[v % p for v in row]), "little") for row in rows]
    for _ in range(ncols):
        for i, row in enumerate(m):
            if (row & mask) % p:
                break
        else:
            m = [row >> bits for row in m]
            continue
        del m[i]
        inv, pivot = -pow(row & mask, -1, p), 0
        for k in range((row.bit_length() - 1) // bits * bits, -1, -bits):
            pivot = pivot << bits | (row >> k & mask) * inv % p
        m = [(r + f * pivot) >> bits if (f := (r & mask) % p) else r >> bits
             for r in m]
    return len(rows) - len(m)


def _rank_mod_p(pmap: ParamMap, t) -> int | None:
    """The Jacobian's rank at t mod MOD_P, a lower bound on its rank over
    Q(i); None when t or a leaf has no image mod p, or a partial is not
    homogeneous of the declared degree.

    Row j holds dF/dt_j at the points I(n, d) with its degree, which every
    addition that built it checked, so a row of degree d is a degree-d
    form's values: the Jacobian times the points' evaluation matrix, which
    is invertible mod p as the points are unisolvent, so the rank is the
    Jacobian's rank mod p.
    """
    try:
        t = [mod_p(v) for v in pmap._coerce_t(t)]
        grad = pmap._program().gradient(t, _PointRing(pmap.n, pmap.d))
    except _NoImage:
        return None
    if any(df.d != pmap.d for df in grad.values()):
        return None
    zero = [0] * pmap.target
    rows = [grad[j].v if j in grad else zero for j in range(pmap.m)]
    return modp_rank(rows, MOD_P)


def _dyadic(v, what: str = "a map coefficient") -> QQi:
    """v as an exact scalar: a float or complex is read at its exact value;
    a NaN or infinite one is DegenerateInput, which names it as `what`."""
    if not (is_exact(v := as_scalar(v)) or cmath.isfinite(v)):
        raise DegenerateInput(f"{what} is not finite: {v}")
    return v if is_exact(v) else QQi(v.real, v.imag)


def _exact_rank(pmap: ParamMap, t) -> int:
    """The Jacobian's rank at t over Q(i), each float read at its exact value."""
    return linalg.exact_rank(pmap.jacobian_rows(
        [_dyadic(v, f"witness entry t{k}") for k, v in enumerate(t, 1)], exact=True))


def _rank_at(pmap: ParamMap, t, exact: bool = True) -> tuple[int, bool]:
    """The Jacobian's rank at t and whether it is the rank mod p: so when
    that is full or not `exact`, else the rank over Q(i).  A float has no
    image mod p, so a float witness is ranked over Q(i)."""
    rank = _rank_mod_p(pmap, t)
    if rank is None or (exact and rank < pmap.target):
        return _exact_rank(pmap, t), False
    return rank, True


def _witnesses(pmap: ParamMap, trials: int, seed: int):
    """The stored witness, if any, then `trials` seeded nonzero integer points,
    each drawn when asked for: the first 8 from [-9, 9]^M, each later 8 from
    a range ten times wider, up to [-10^6, 10^6]^M."""
    if pmap.witness is not None:
        yield [as_scalar(v) for v in pmap.witness]
    rng = random.Random(seed)
    for k in range(trials):
        bound, t = min(9 * 10 ** min(k // 8, 6), 10 ** 6), []
        while not any(t):
            t = [QQi(rng.randint(-bound, bound)) for _ in range(pmap.m)]
        yield t


def jacobian_certify(pmap: ParamMap, witness=None, trials: int = 40,
                     seed: int = 0, eps: float = EPS_DEFAULT) -> CertifyReport:
    """Certified iff the M x N(n,d) Jacobian has full rank at some witness.

    A given witness is checked alone; otherwise the stored witness is tried
    first, then seeded random integer points (_witnesses), each ranked mod
    MOD_P (over Q(i) if it has no image mod p) until one has full rank; if
    none has, the first of highest rank is ranked over Q(i).  Every rank is
    exact, a float read at its exact value, and eps is unused, so Certified
    is a proof; the negative verdict only reports the witnesses tried.  A
    map with no parameters is refused (BadShape): it cannot have full rank,
    and it has no nonzero random witness.
    """
    if pmap.m < 1:
        raise BadShape(f"{pmap.name} has no parameters")
    target = pmap.target
    if witness is not None:
        t = [as_scalar(v) for v in witness]
        rank = _rank_at(pmap, t)[0]
        verdict = "Certified" if rank == target else "NotFullRankAtWitness"
        return CertifyReport(pmap.name, t, rank, target, verdict, seed, 0)
    best_rank, best_witness, modular, tried = -1, None, False, 0
    for tried, t in enumerate(_witnesses(pmap, trials, seed), 1):
        rank, mod = _rank_at(pmap, t, exact=False)
        if rank == target:
            return CertifyReport(pmap.name, t, rank, target, "Certified",
                                 seed, tried)
        if rank > best_rank:
            best_rank, best_witness, modular = rank, t, mod
    if modular:
        best_rank = _exact_rank(pmap, best_witness)
    verdict = ("Certified" if best_rank == target
               else "ExceptionalStructure" if pmap.noncanonical
               else "NotFullRankAtWitness")
    return CertifyReport(pmap.name, best_witness, best_rank, target, verdict,
                         seed, tried)


def lasker_wakeford_full_rank(pmap: ParamMap, t, eps: float = EPS_DEFAULT) -> bool:
    """Apolar reformulation: full rank at t iff only the zero form is apolar
    to every parameter partial, that is, iff the Jacobian has full rank."""
    return _rank_at(pmap, t)[0] == pmap.target


# -- catalog --------------------------------------------------------------------


class _Params:
    """Allocates a catalog map's Param leaves in order, each with its witness
    value; None stands for no value, as when no stored witness is known."""

    def __init__(self, n: int):
        self.n, self.witness = n, []

    def param(self, mono: MultiIndex | None = None, at=None) -> Param:
        """The next leaf t_j * x^mono, by default on the constant monomial."""
        self.witness.append(at)
        return Param(len(self.witness) - 1,
                     (0,) * self.n if mono is None else mono)

    def span(self, monos, at: dict | None = None) -> Sum:
        """Sum of leaves over monos; at maps a monomial to its leaf's witness
        value (0 when absent), so {x: 1} gives the unit witness."""
        return Sum(tuple(self.param(mono, None if at is None
                                    else at.get(mono, 0)) for mono in monos))

    def map(self, name: str, d: int, terms, /, **params) -> ParamMap:
        """The map Sum(terms) over the leaves made so far; its witness is
        stored when every leaf has a value."""
        known = [v is not None for v in self.witness]
        if any(known) and not all(known):
            raise ValueError(f"{name} has witness values for only some of "
                             f"its parameters")
        return ParamMap(name, self.n, d, len(self.witness), Sum(tuple(terms)),
                        witness=self.witness if all(known) else None,
                        params=params)


def _build_uppertri(n: int) -> ParamMap:
    if n < 1:
        raise BadShape("uppertri needs n >= 1")
    p, x = _Params(n), _monomials(n, 1)
    return p.map("uppertri", 2, [Pow(p.span(x[k:], {x[k]: 1}), 2)
                                 for k in range(n)], n=n)


def _build_sextican() -> ParamMap:
    p = _Params(2)
    f = p.span(_monomials(2, 3), {(3, 0): 1})
    g = p.span(_monomials(2, 2), {(0, 2): 1})
    return p.map("sextican", 6, [Pow(f, 2), Pow(g, 3)])


def _build_wakeford(n: int, d: int) -> ParamMap:
    if n < 2 or d < 3:
        raise BadShape("wakeford needs n >= 2 and d >= 3")
    p, x = _Params(n), _monomials(n, 1)
    xs = [p.span(x, {x[i]: 1}) for i in range(n)]
    terms = [Pow(lin, d) for lin in xs]
    # one more summand for each monomial but x_i^d and x_i^(d-1) x_k, which
    # for d >= 3 are those with an exponent of at least d - 1
    terms += [Prod((p.param(at=0), *(Pow(lin, e) for lin, e in zip(xs, mono)
                                     if e)))
              for mono in _monomials(n, d) if max(mono) < d - 1]
    return p.map("wakeford", d, terms, n=n, d=d)


def _build_quarticgen(d: int, B: tuple[int, int, int, int]) -> ParamMap:
    b = tuple(int(v) for v in B)
    if len(set(b)) != 4 or any(not 0 <= k <= d for k in b):
        raise BadShape("quarticgen needs four distinct indices in 0..d")
    m1, m2, n1, n2 = b
    excluded = {frozenset((m1, m2))} & {frozenset((0, 1)), frozenset((d - 1, d))}
    p = _Params(2)
    x_span = p.span(_monomials(2, 1), {(1, 0): 1})
    y_span = p.span(_monomials(2, 1), {(0, 1): 1})

    def xy_power(k: int):
        return Prod(tuple(Pow(span, e) for span, e in ((x_span, d - k),
                                                       (y_span, k)) if e))

    terms = [xy_power(n1), xy_power(n2)]
    terms += [Prod((p.param(at=1), xy_power(k)))
              for k in range(d + 1) if k not in b]
    # the two excluded patterns force a square factor; the certifier still
    # reports them as NotFullRankAtWitness, never as a proof
    return p.map("quarticgen", d, terms, d=d, B=list(b),
                 excluded=bool(excluded))


def _build_notclebsch() -> ParamMap:
    p, x = _Params(3), _monomials(3, 1)
    q = p.span(_monomials(3, 2), dict.fromkeys(((1, 1, 0), (1, 0, 1),
                                                (0, 1, 1)), 1))
    return p.map("notclebsch", 4, [Pow(q, 2)] + [Pow(p.span(x, {x[k]: 1}), 4)
                                                 for k in range(3)])


def _omnibus_fixed_forms(m: int) -> list[Form]:
    """x, y, then x + (j - 2) y for j = 3..m, the first m of them."""
    return [linear_form([QQi(1), QQi(j - 2)] if j > 2 else [QQi(2 - j), QQi(j - 1)])
            for j in range(1, m + 1)]


def _build_omnibus(d: int, e: list[int], m: int) -> ParamMap:
    e = sorted((int(v) for v in e), reverse=True)
    if reason := enumeration.shape_error(d, e, m):
        raise BadShape(reason)
    p = _Params(2)
    terms = [Prod((p.param(at=1), Pow(Fixed(lin), d)))
             for lin in _omnibus_fixed_forms(m)]
    for k, ek in enumerate(e):
        # witnessed at (x + c y)^ek, whose coefficients are C(ek, i) c^i
        c = m + k + 1
        tilde = {(ek - i, i): math.comb(ek, i) * c ** i for i in range(ek + 1)}
        terms.append(Pow(p.span(_monomials(2, ek), tilde), d // ek))
    return p.map("omnibus", d, terms, d=d, e=e, m=m)


def _build_sylv622(s: int) -> ParamMap:
    s = int(s)
    if s < 2:
        raise BadShape("sylv622 needs s >= 2")
    pmap = _build_omnibus(2 * s, [2] + [1] * (s - 1), 0)
    pmap.name, pmap.params = "sylv622", {"s": s}
    return pmap


def _build_sylvgen(u: int, v: int) -> ParamMap:
    if u < 1 or v < 2:
        raise BadShape("sylvgen needs u >= 1 and v >= 2")
    d = u * v
    r, s = divmod(d + 1, u + 1)
    p = _Params(2)
    terms = [Pow(p.span(_monomials(2, u)), v) for _ in range(r)]
    if s:
        terms.append(Pow(p.span([(u - k, k) for k in range(s)]), v))
    return p.map("sylvgen", d, terms, u=u, v=v)


def _build_so2s(s: int) -> ParamMap:
    if s < 1:
        raise BadShape("so2s needs s >= 1")
    p = _Params(2)
    f = p.span(_monomials(2, s), {(s, 0): 1})
    g = p.span([(s - k, k) for k in range(1, s + 1)], {(0, s): 1})
    return p.map("so2s", 2 * s, [Pow(f, 2), Pow(g, 2)], s=s)


def _build_so3s() -> ParamMap:
    p, squares = _Params(3), ((2, 0, 0), (0, 2, 0), (0, 0, 2))
    # q_k omits the squares before its own, at which it is witnessed
    qs = [p.span([m for m in _monomials(3, 2) if m not in squares[:k]],
                 {squares[k]: 1}) for k in range(3)]
    return p.map("so3s", 4, [Pow(q, 2) for q in qs])


def _build_reichmap(n: int) -> ParamMap:
    if n < 2:
        raise BadShape("reichmap needs n >= 2")
    p, x = _Params(n), _monomials(n, 1)
    terms = [Pow(p.span(x), 3) for _ in range(n)]
    if n > 2:
        terms.append(p.span([m for m in _monomials(n, 3)
                             if not (m[0] or m[1])]))
    return p.map("reichmap", 3, terms, n=n)


def _build_slinkymap(n: int) -> ParamMap:
    if n < 1:
        raise BadShape("slinkymap needs n >= 1")
    p, x = _Params(n), _monomials(n, 1)
    return p.map("slinkymap", 3, [Pow(p.span(x[i:k + 1]), 3)
                                  for i in range(n) for k in range(i, n)], n=n)


def _build_sylwake(s: int) -> ParamMap:
    # s = 1 collapses to (1 + lambda) l^2, which cannot span
    if s < 2:
        raise BadShape("sylwake needs s >= 2")
    p = _Params(2)
    lins = [p.span(_monomials(2, 1)) for _ in range(s)]
    terms = [Pow(lin, 2 * s) for lin in lins]
    terms.append(Prod((p.param(), *(Pow(lin, 2) for lin in lins))))
    return p.map("sylwake", 2 * s, terms, s=s)


def _hyperplane_coefficients(c) -> list[Scalar]:
    c = [as_scalar(v) for v in c]
    if len(c) != 4:
        raise BadShape(f"hyperplane needs 4 coefficients c1..c4, got {len(c)}")
    for k, v in enumerate(c, 1):
        _dyadic(v, f"hyperplane coefficient c{k}")  # refuses a NaN or infinity
    if not any(c):
        raise AllZero("hyperplane coefficients are all zero")
    return c


def _hyperplane_epsilon(c: list[Scalar], eps: float) -> Scalar | None:
    """The epsilon in {i, -i} with c3 = epsilon*c1 and c4 = epsilon*c2 (within
    eps), or None when the hyperplane is canonical."""
    scale = max(abs(complex(v)) for v in c)
    for epsilon in (QQi(0, 1), QQi(0, -1)):
        if (scalars_close(c[2], epsilon * c[0], eps, scale)
                and scalars_close(c[3], epsilon * c[1], eps, scale)):
            return epsilon
    return None


def _build_hyperplane(c) -> ParamMap:
    c = _hyperplane_coefficients(c)
    # -c_i / c_pivot from c read exactly, so the modular rank decides the map
    exact = list(map(_dyadic, c))
    pivot = 3 if c[3] else max(k for k in range(4) if c[k])
    free = [k for k in range(4) if k != pivot]
    slot_mono = {0: (1, 0), 1: (0, 1), 2: (1, 0), 3: (0, 1)}

    def coord_expr(k: int):
        if k != pivot:
            return Param(free.index(k), slot_mono[k])
        return Sum(tuple(Param(free.index(i), slot_mono[k],
                               -exact[i] / exact[pivot]) for i in free))

    first = Sum((coord_expr(0), coord_expr(1)))
    second = Sum((coord_expr(2), coord_expr(3)))
    return ParamMap("hyperplane", 2, 2, 3, Sum((Pow(first, 2), Pow(second, 2))),
                    params={"c": [str(v) for v in c], "pivot": pivot + 1},
                    noncanonical=_hyperplane_epsilon(c, EPS_DEFAULT) is not None)


def _build_zerosum(s: int) -> ParamMap:
    if s < 1:
        raise BadShape("zerosum needs s >= 1")
    terms = []
    for jj in range(s):
        terms.append(Pow(Sum((Param(jj, (1, 0)), Param(s + 1 + jj, (0, 1)))), 2 * s))
    last_y = [Param(k, (0, 1), QQi(-1)) for k in range(2 * s + 1)]
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
    "sylv622": (_build_sylv622, ("s",)),
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


def hyperplane_classify(c, eps: float = EPS_DEFAULT, seed: int = 0,
                        trials: int = 64) -> HyperplaneVerdict:
    """Decide whether the constraint sum c_j t_j = 0 leaves a canonical form.

    Exceptional exactly when c3 = eps*c1 and c4 = eps*c2 with eps in {i,-i};
    then every feasible form vanishes at the returned point.  Otherwise the
    witness search of jacobian_certify finds the free parameters of a point
    with nonvanishing partial determinant, and the pivot one is solved for.
    """
    c = _hyperplane_coefficients(c)
    epsilon = _hyperplane_epsilon(c, eps)
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
    report = jacobian_certify(pmap, trials=trials, seed=seed, eps=eps)
    if not report.certified:
        raise ShapeMismatch("no nondegenerate parameter point found; the "
                            "determinant locus should be proper for this c")
    pivot = pmap.params["pivot"] - 1
    free = [k for k in range(4) if k != pivot]
    full = list(report.witness)
    full.insert(pivot, sum((-c[k] / c[pivot]) * t
                           for k, t in zip(free, report.witness)))
    return HyperplaneVerdict("Canonical", witness=full)


def zerosum_verify(s: int, trials: int = 40, seed: int = 0) -> CertifyReport:
    """Certify the zero-sum power conjecture map for degree 2s."""
    return jacobian_certify(build_map("zerosum", s=s), trials=trials, seed=seed)
