"""Constructive decompositions of binary forms.

Sylvester's algorithm writes a binary form as a sum of d-th powers of linear
forms read off from the kernel of its catalecticant; the mixed variant pins
some of the powers to fixed linear forms.  The quartic routines realize the
finite representation counts (six for the square-plus-fourth-power shape, two
once both fourth powers are fixed), and a seeded Newton counter estimates
representation counts for other shapes.
"""

from __future__ import annotations

import cmath
import functools
import itertools
import operator
from dataclasses import dataclass

from . import LazyModule
from .apolarity import apply_diff, hankel, hankel_kernel, kernel_vector_form
from .decompositions import (Decomposition, Term, binary_factor,
                             check_decomposable)
from .enumeration import shape_error
from .errors import (DegenerateInput, DegenerateLambda, LeadingZero,
                     NormalizationFailed, NotGeneric, RepeatedRoot,
                     ShapeMismatch, UnsupportedShape, ZeroForm)
from .forms import Form, linear_coeffs, linear_form, monomial_form
from .linalg import mat_inverse, mat_solve
from .scalars import (EPS_DEFAULT, QQi, Scalar, as_scalar, scalar_is_zero,
                      scalar_sqrt)

np = LazyModule("numpy", globals(), "np")

# -- Sylvester's algorithm ----------------------------------------------------


def _squarefree_nodes(vectors, r: int, eps: float):
    """Nodes of the first squarefree form in the span of the kernel vectors.

    Tries each basis vector, then moment-curve combinations; genericity means
    a handful of integer weights suffice when any squarefree member exists.
    A candidate h = const * prod(beta x - alpha y) is factored once; its
    projective nodes (alpha, beta), sorted, come back when every factor is
    simple, and None when no candidate is squarefree.  A zero candidate, or
    one whose coefficients or roots are beyond float range, is skipped.
    """
    weights = range(1, r * (r + 2) + 2) if len(vectors) > 1 else ()
    combos = (kernel_vector_form([sum(v[j] * (k ** i) for i, v in enumerate(vectors))
                                  for j in range(r + 1)]) for k in weights)
    for h in itertools.chain(map(kernel_vector_form, vectors), combos):
        try:
            _, factors = binary_factor(h, eps)
        except (ZeroForm, DegenerateInput, OverflowError):
            continue
        if any(mult != 1 for _, mult in factors):
            continue
        nodes = []
        for lin, _ in factors:
            cx, cy = linear_coeffs(lin)
            alpha, beta = -cy, cx
            lead = alpha if not scalar_is_zero(alpha, eps) else beta
            nodes.append((alpha / lead, beta / lead))
        return sorted(nodes, key=lambda ab: (
            complex(ab[0]).real, complex(ab[0]).imag,
            complex(ab[1]).real, complex(ab[1]).imag))
    return None


def _solve_power_multipliers(p: Form, nodes, eps: float):
    """Multipliers lambda_k with p = sum lambda_k (alpha_k x + beta_k y)^d,
    or None when there are none or a float power of a node overflows."""
    d = p.d
    try:
        rows = [[a ** (d - j) * b ** j for a, b in nodes] for j in range(d + 1)]
    except OverflowError:
        return None
    return mat_solve(rows, [p.a((d - j, j)) for j in range(d + 1)], eps)


def sylvester_decompose(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """Write p as a sum of d-th powers from the first order that gives one.

    Searches orders r = 1, 2, ... for a squarefree kernel form of the
    catalecticant; its linear factors give the nodes, and the multipliers
    solve a Vandermonde system.  By Comas and Seiguer (Found. Comput. Math.
    11, 2011), when the first order r0 with a kernel has no squarefree kernel
    form, no order below d - r0 + 2 has one, so the search goes straight
    there.  A failed solve or check moves on to the next order.
    Exact inputs with rational nodes come back exact.
    """
    check_decomposable(p, p.n == 2,
                       "Sylvester's algorithm needs a binary form", eps)
    d, r, walk = p.d, 1, False
    while r <= d:
        order, r = r, r + 1
        kernel = hankel_kernel(hankel(p, order), eps)
        nodes = _squarefree_nodes(kernel, order, eps) if kernel else None
        if kernel and not walk:
            walk = True
            if nodes is None:
                r = max(r, d - order + 2)  # Comas-Seiguer's jump
        if nodes is None:
            continue
        lambdas = _solve_power_multipliers(p, nodes, eps)
        if lambdas is None:
            continue
        terms = [Term(lam, linear_form([a, b]), d)
                 for lam, (a, b) in zip(lambdas, nodes)
                 if not scalar_is_zero(lam, eps, scale=p.norm())]
        if not terms:
            continue
        dec = Decomposition(terms, meta={"theorem": "sylvester", "order": order})
        if (dec := dec.accepted(p, eps)) is not None:
            return dec
    raise NotGeneric("no squarefree annihilator up to order d "
                     "(repeated-root case is out of scope)")


# -- mixed fixed-form decomposition ---------------------------------------------


@dataclass(frozen=True)
class MixedSpec:
    """Fixed honest linear forms plus a count of free d-th powers."""

    fixed: tuple
    r: int

    def __init__(self, fixed, r: int):
        object.__setattr__(self, "fixed", tuple(fixed))
        object.__setattr__(self, "r", int(r))
        if self.r < 0:
            raise ShapeMismatch(f"need r >= 0 free powers (at most d + 1 "
                                f"fixed forms); got r = {self.r}")
        for f in self.fixed:
            if f.d != 1 or f.n != 2 or f.is_zero():
                raise ShapeMismatch("fixed forms must be nonzero binary linear forms")
        for i in range(len(self.fixed)):
            for j in range(i + 1, len(self.fixed)):
                a = linear_coeffs(self.fixed[i])
                b = linear_coeffs(self.fixed[j])
                if scalar_is_zero(a[0] * b[1] - a[1] * b[0], EPS_DEFAULT):
                    raise DegenerateInput("fixed forms are not pairwise "
                                          "non-proportional")

    @property
    def m(self) -> int:
        return len(self.fixed)


def _flip(lin: Form) -> Form:
    """alpha x + beta y -> beta x - alpha y (the apolar annihilator)."""
    a, b = linear_coeffs(lin)
    return linear_form([b, -a])


def mixed_decompose(p: Form, spec: MixedSpec, eps: float = EPS_DEFAULT) -> Decomposition:
    """Unique representation with spec.m fixed powers and spec.r free powers.

    Differentiates away the fixed forms and Sylvester-decomposes the
    remainder for the free nodes; the free and fixed multipliers then solve
    one power system.  Each base enters it divided by its largest-magnitude
    coefficient, so no power dominates and exact inputs stay exact.
    """
    check_decomposable(p, p.n == 2,
                       "mixed decomposition needs a binary form", eps)
    d = p.d
    m, r = spec.m, spec.r
    if m + 2 * r != d + 1:
        raise ShapeMismatch(f"need m + 2r = d+1; got {m} + 2*{r} != {d + 1}")

    f = None
    for lin in spec.fixed:
        g = _flip(lin)
        f = g if f is None else f * g

    bases: list[Form] = []  # at r = 0 the d + 1 fixed powers span every d-ic
    fp = apply_diff(f, p) if f is not None and r else p
    if r and not fp.is_zero(eps, scale=p.norm()):
        try:
            sylv = sylvester_decompose(fp, eps)
        except NotGeneric as exc:
            raise DegenerateInput(f"Sylvester stage failed: {exc}") from exc
        if len(sylv.terms) > r:
            raise DegenerateInput(
                f"Sylvester stage needs width <= {r}, got {len(sylv.terms)}")
        bases = [t.base for t in sylv.terms]
        if f is not None and any(
                scalar_is_zero(f.evaluate(linear_coeffs(b)), eps, scale=f.norm())
                for b in bases):
            raise DegenerateInput("f vanishes at a Sylvester node")
    bases += spec.fixed
    nodes = [linear_coeffs(b) for b in bases]
    scales = [max(node, key=abs) for node in nodes]
    lambdas = _solve_power_multipliers(
        p, [(a / s, b / s) for (a, b), s in zip(nodes, scales)], eps)
    if lambdas is None:
        raise DegenerateInput("multiplier system is inconsistent")
    terms = [Term(lam / s ** d, b, d) for lam, s, b in zip(lambdas, scales, bases)]
    dec = Decomposition(terms, meta={"theorem": "mixed", "m": m, "r": r})
    if (dec := dec.accepted(p, eps)) is None:
        raise DegenerateInput("reconstruction check failed")
    return dec


# -- sums of two squares -----------------------------------------------------------


def two_squares_all(p: Form, eps: float = EPS_DEFAULT) -> list[Decomposition]:
    """All binom(2s-1, s) representations f^2 + g^2 with g missing x^s.

    p = c A B for each unordered split of its 2s distinct linear factors,
    each monic in x, into two s-products A and B.  With r = sqrt(c),
    f = r (A + B)/2 and g = r (A - B)/(2i) give f^2 + g^2 = r^2 A B = p, and
    g misses x^s because A and B both lead with x^s.
    """
    check_decomposable(p, p.n == 2 and not p.d % 2,
                       "need a binary form of even degree", eps)
    s = p.d // 2
    if scalar_is_zero(p.raw((p.d, 0)), eps, scale=p.norm()):
        raise LeadingZero("p(1,0) = 0: y divides p, so its linear factors "
                          "are not all monic in x")
    constant, factors = binary_factor(p, eps)
    if any(mult > 1 for _, mult in factors):
        raise RepeatedRoot("two-squares enumeration needs 2s distinct roots")
    lins = [lin for lin, _ in factors]
    half = scalar_sqrt(constant) / 2

    out = []
    for rest in itertools.combinations(range(1, 2 * s), s - 1):
        group = (0,) + rest
        a_side = functools.reduce(operator.mul, [lins[i] for i in group])
        b_side = functools.reduce(operator.mul, [lin for i, lin in enumerate(lins)
                                                 if i not in group])
        f = (a_side + b_side).scale(half)
        g = (a_side - b_side).scale(half * QQi(0, -1))
        dec = Decomposition([Term(1, f, 2), Term(1, g, 2)],
                            meta={"theorem": "two-squares", "split": list(group)})
        if (dec := dec.accepted(p, eps)) is None:
            raise DegenerateInput("reconstruction check failed")
        out.append(dec)
    return out


# -- binary quartics ------------------------------------------------------------------


@dataclass(frozen=True)
class QuarticNormal:
    """lambda and the change of variables with p o transform ~ x^4+6lx^2y^2+y^4."""

    lam: Scalar
    transform: tuple


def quartic_normalize(p: Form, eps: float = EPS_DEFAULT) -> QuarticNormal:
    """Transform a quartic with distinct roots to x^4 + 6 lambda x^2 y^2 + y^4.

    The Jacobian of the root-pair quadratics f = l0 l1 and g = l2 l3 vanishes
    on their common harmonic pair, the fixed points of the involution that
    swaps each pair's roots; in coordinates X, Y vanishing there p is
    a X^4 + b X^2 Y^2 + c Y^4, and scaling X by (c/a)^(1/4) balances it.
    """
    if p.n != 2 or p.d != 4:
        raise ShapeMismatch("need a binary quartic")
    _, factors = binary_factor(p, eps)
    if any(mult > 1 for _, mult in factors) or len(factors) != 4:
        raise RepeatedRoot("quartic normalization needs 4 distinct roots")
    lins = [lin.approx() for lin, _ in factors]
    f, g = lins[0] * lins[1], lins[2] * lins[3]
    jac = f.partial(0) * g.partial(1) - f.partial(1) * g.partial(0)
    # no tolerance: when every root is far out, J's end coefficients sit
    # below eps times its norm; the checks below and the rebuild judge it
    if len(axes := binary_factor(jac, 0.0)[1]) != 2:
        raise NormalizationFailed("the root pairs have no two distinct "
                                  "harmonic points")
    inv = mat_inverse([[complex(v) for v in linear_coeffs(lin)]
                       for lin, _ in axes])
    if inv is None:
        raise NormalizationFailed("the harmonic axes are dependent")
    q = p.approx().substitute(inv)
    a, b, c = (complex(q.raw(idx)) for idx in ((4, 0), (2, 2), (0, 4)))
    if a == 0 or c == 0 or not cmath.isfinite(c / a):
        raise NormalizationFailed("a X^4 + b X^2 Y^2 + c Y^4 has no finite "
                                  "nonzero c/a")
    s = (c / a) ** 0.25
    transform = tuple((row[0] * s, row[1]) for row in inv)
    return QuarticNormal(b * s * s / (6 * c), transform)


def quartic_six_reps(lam: Scalar, eps: float = EPS_DEFAULT) -> list[Decomposition]:
    """The six (quadratic)^2 + c (linear)^4 representations of
    x^4 + 6 lambda x^2 y^2 + y^4."""
    lam = as_scalar(lam)
    one = QQi(1)
    for sign, label in ((one, "3*lambda + 1"), (-one, "3*lambda - 1")):
        if scalar_is_zero(3 * lam + sign, eps):
            raise DegenerateLambda(f"{label} = 0")
    i_unit = QQi(0, 1)
    x, y = linear_form([QQi(1), QQi(0)]), linear_form([QQi(0), QQi(1)])
    x2 = monomial_form(2, (2, 0))
    y2 = monomial_form(2, (0, 2))
    xy = monomial_form(2, (1, 1))
    cord = 1 - 9 * lam * lam
    reps = [
        Decomposition([Term(1, x2 + y2.scale(3 * lam), 2), Term(cord, y, 4)],
                      meta={"theorem": "quartic-six", "branch": "easy-x"}),
        Decomposition([Term(1, x2.scale(3 * lam) + y2, 2), Term(cord, x, 4)],
                      meta={"theorem": "quartic-six", "branch": "easy-y"}),
    ]
    for k in range(4):
        sgn = QQi((-1) ** k)
        ik = i_unit ** k
        denom = 3 * lam + sgn
        quad = x2 - xy.scale(i_unit ** (3 * k) * (3 * lam - sgn)) + y2.scale(sgn)
        lin = x + y.scale(ik)
        reps.append(Decomposition(
            [Term(sgn * 2 / denom, quad, 2),
             Term((3 * lam - sgn) / denom, lin, 4)],
            meta={"theorem": "quartic-six", "branch": f"k={k}"}))
    return reps


def quartic_six_for_form(p: Form, eps: float = EPS_DEFAULT) -> list[Decomposition]:
    """Normalize a general quartic, take the six model representations, and
    pull them back through the inverse change of variables."""
    normal = quartic_normalize(p, eps)
    transform = [list(row) for row in normal.transform]
    q = p.approx().substitute(transform)
    scale_c = q.raw((4, 0))
    inv = mat_inverse(transform)
    if inv is None:
        raise DegenerateInput("the normalizing transform is singular")
    out = []
    for rep in quartic_six_reps(normal.lam, eps):
        terms = [Term(scale_c * complex(t.multiplier),
                      t.base.approx().substitute(inv), t.power)
                 for t in rep.terms]
        dec = Decomposition(terms, meta=dict(rep.meta)).accepted(p, eps)
        if dec is None:
            raise DegenerateInput("reconstruction check failed")
        out.append(dec)
    return out


def quartic_two_fixed(p: Form, l1: Form, l2: Form,
                      eps: float = EPS_DEFAULT) -> list[Decomposition]:
    """The two representations (quadratic)^2 + t4 l1^4 + t5 l2^4."""
    if p.n != 2 or p.d != 4:
        raise ShapeMismatch("need a binary quartic")
    for lin in (l1, l2):
        if lin.d != 1 or lin.n != 2:
            raise ShapeMismatch("fixed forms must be binary linear forms")
    a_mat = [linear_coeffs(l1), linear_coeffs(l2)]
    inv = mat_inverse(a_mat)
    if inv is None:
        raise DegenerateInput("fixed linear forms are proportional")
    q = p.substitute(inv)
    a = [q.raw((4 - j, j)) for j in range(5)]
    scale = q.norm()
    if scalar_is_zero(a[1], eps, scale):
        raise DegenerateInput("coefficient a1 vanishes after the change of variables")
    if scalar_is_zero(a[3], eps, scale):
        raise DegenerateInput("coefficient a3 vanishes after the change of variables")
    disc = a[2] * a[2] - 2 * a[1] * a[3]
    if scalar_is_zero(disc, eps, scale * scale):
        raise DegenerateInput("the quadratic for t2/t1 has a repeated root")
    root = scalar_sqrt(disc)
    out = []
    for sign in (1, -1):
        beta = (a[2] + sign * root) / a[1]
        mult = a[1] / (2 * beta)
        base = (monomial_form(2, (2, 0)) + monomial_form(2, (1, 1), beta)
                + monomial_form(2, (0, 2), a[3] / a[1]))
        t4 = a[0] - mult
        t5 = a[4] - (a[3] / a[1]) ** 2 * mult
        dec = Decomposition(
            [Term(mult, base.substitute(a_mat), 2), Term(t4, l1, 4), Term(t5, l2, 4)],
            meta={"theorem": "quartic-two-fixed", "branch": f"sign={sign}"})
        if (dec := dec.accepted(p, eps)) is None:
            raise DegenerateInput("reconstruction check failed")
        out.append(dec)
    return out


# -- Monte Carlo representation counting ------------------------------------------------


# Newton starts run as one stacked system per batch of at most this many
# trials; it caps memory only.  Each row's arithmetic reads only its own row
# and the generator draws rows in order, so a count does not depend on it.
_MC_BATCH = 512


def _mc_system(d: int, e: list[int], fixed_forms, p: Form):
    """Newton residuals and Jacobians for membership in the mixed-power shape.

    A binary form is held by its values at the d+1 points (1, w^i), w =
    exp(2 pi i/(d+1)): coefficients z_j (ascending y-exponent) have the
    values sum_j z_j w^(ij).  Products and powers are pointwise, and every
    array operation is elementwise within a row.  The values determine the
    form, so the Newton steps are those of the coefficient equations.  Of
    the returned pair, the first maps a (K, d+1) stack of unknowns, the
    multipliers t_j then the coefficients of each f_k, to the values of the
    residual F(z) - p (K, d+1), the slopes (d/e_k) f_k^(d/e_k - 1) (len(e),
    K, d+1) and the powers f_k^(d/e_k) (K, len(e), d+1); the second maps
    slopes to the (K, d+1, d+1) Jacobians.
    """
    m = len(fixed_forms)
    idx = np.arange(d + 1)
    waves = np.exp(2j * np.pi / (d + 1) * (np.outer(idx, idx) % (d + 1)))

    def values(coeffs):
        out = coeffs[..., :1] * waves[0]
        for j in range(1, coeffs.shape[-1]):
            out += coeffs[..., j, None] * waves[j]
        return out

    fixed_vals = [values(np.array(linear_coeffs(lin), dtype=complex)) ** d
                  for lin in fixed_forms]
    target = values(np.array([p.raw((d - j, j)) for j in range(d + 1)],
                             dtype=complex))
    fixed_cols = np.array(fixed_vals).reshape(m, d + 1).T
    blocks = [(k, j) for k, ek in enumerate(e) for j in range(ek + 1)]

    def residual(z):
        res = np.zeros((len(z), d + 1), dtype=complex)
        slopes = np.empty((len(e), len(z), d + 1), dtype=complex)
        powers = np.empty((len(z), len(e), d + 1), dtype=complex)
        for i in range(m):
            res += z[:, i, None] * fixed_vals[i]
        at = m
        for k, ek in enumerate(e):
            f = values(z[:, at:at + ek + 1])
            lower = f if d == 2 * ek else f ** (d // ek - 1)
            np.multiply(lower, f, out=powers[:, k])
            res += powers[:, k]
            np.multiply(d // ek, lower, out=slopes[k])
            at += ek + 1
        return res - target, slopes, powers

    def jacobian(slopes):
        jac = np.empty((slopes.shape[1], d + 1, d + 1), dtype=complex)
        jac[:, :, :m] = fixed_cols
        for col, (k, j) in enumerate(blocks, m):
            np.multiply(slopes[k], waves[j], out=jac[:, :, col])
        return jac

    return residual, jacobian


def _solve_rows(jac: np.ndarray, r: np.ndarray):
    """Newton steps for a stack of systems, and the mask of rows solved.

    One stacked solve; if it fails, slogdet's LU (the one solve runs) marks
    the rows with an exactly zero pivot, and the others are solved again in
    one stack, so a singular row retires only itself and every other row
    gets the step it would get on its own.
    """
    try:
        return (np.linalg.solve(jac, r[..., None])[..., 0],
                np.ones(len(r), dtype=bool))
    except np.linalg.LinAlgError:
        pass
    solved = np.linalg.slogdet(jac)[0] != 0
    step = np.zeros_like(r)
    step[solved] = np.linalg.solve(jac[solved], r[solved, :, None])[..., 0]
    return step, solved


def _mc_newton(system, z: np.ndarray, scale: float):
    """At most 60 Newton steps on each row of z, in place.

    Returns the converged mask and, for the converged rows in order, the
    powers (see _mc_system) of the pass that found them converged.  Rows
    whose largest residual value reaches 1e-12*scale leave the active set,
    as do rows whose solve fails, which count as not converged.  Diverging
    rows overflow to inf or nan without a warning and never converge.  The
    live rows step as one compact stack w, cut only when a row leaves; each
    row is written back to z once, when it leaves or after the last pass.
    """
    residual, jacobian = system
    converged = np.zeros(len(z), dtype=bool)
    live, w, powers = np.arange(len(z)), z.copy(), None
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(60):
            r, slopes, pw = residual(w)
            if powers is None:
                powers = np.empty_like(pw)  # the first pass holds every row
            done = (np.abs(r) <= 1e-12 * scale).all(axis=1)
            if done.any():
                left, keep = live[done], np.flatnonzero(~done)
                converged[left] = True
                powers[left], z[left] = pw[done], w[done]
                live, w, r = live[keep], w.take(keep, 0), r.take(keep, 0)
                slopes = slopes.take(keep, 1)
            if not live.size:
                break
            step, solved = _solve_rows(jacobian(slopes), r)
            if not solved.all():
                z[live[~solved]] = w[~solved]
                live, w, step = live[solved], w[solved], step[solved]
            w -= step
        z[live] = w
    return converged, powers[converged]


def _max_dist(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """(S, F) table of max-abs differences between rows u[s] and v[f]."""
    out = np.zeros((len(u), len(v)))
    for k in range(u.shape[1]):
        np.maximum(out, np.abs(u[:, None, k] - v[None, :, k]), out=out)
    return out


# relative max-abs distance within which two Newton signatures match
_SIGNATURE_TOL = 1e-6


def _signature_hits(ts, powers, found_ts, found_powers, groups) -> np.ndarray:
    """(S, F) table: does new signature s match found signature f?

    A signature is a solution's multipliers t_j and the values of its
    powers f_k^(d/e_k) at the points of _mc_system.  Two match when the
    multipliers agree and, within each group of like summands, every new
    power pairs with a distinct found power, taking the first free hit in
    order.  Agreement is a max-abs difference of at most _SIGNATURE_TOL times
    the new signature's largest entry (or 1).
    """
    scale = np.maximum(np.max(np.abs(ts), axis=1, initial=1.0),
                       np.max(np.abs(powers), axis=(1, 2)))
    lim = (_SIGNATURE_TOL * scale)[:, None]
    hits = _max_dist(ts, found_ts) <= lim
    for lo, hi in groups:
        close = np.stack([np.stack(
            [_max_dist(powers[:, a], found_powers[:, b]) <= lim
             for b in range(lo, hi)], axis=-1) for a in range(lo, hi)], axis=2)
        used = np.zeros(close.shape[:3], dtype=bool)
        for a in range(hi - lo):
            free = close[:, :, a] & ~used
            has = free.any(axis=2)
            first = np.argmax(free, axis=2)
            hits &= has
            used |= has[..., None] & (np.arange(hi - lo) == first[..., None])
    return hits


def default_trials(d: int) -> int:
    """The Monte Carlo trial budget for degree d: 200 * s**5, s = (d+1)//2."""
    return 200 * ((d + 1) // 2) ** 5


def count_reps_monte_carlo(d: int, e: list[int], m: int,
                           trials: int | None = None, seed: int = 0,
                           form: Form | None = None) -> int:
    """Estimated number of representations p = sum t_j l_j^d + sum f_k^(d/e_k).

    Seeded Newton iterations from random starts, deduplicated under
    permutation of like summands and f^k ~ (zeta f)^k.  One generator,
    default_rng(seed), draws the random form, the extra fixed forms, then
    one start per trial in trial order; starts run in stacked batches and
    are read in trial order, stopping after `patience` trials in a row find
    nothing new.  A batch never runs past the earliest trial at which that
    stop could fall.  The result is an ESTIMATE, never authoritative.
    """
    e = sorted((int(v) for v in e), reverse=True)
    if reason := shape_error(d, e, m):
        raise UnsupportedShape(reason)
    rng = np.random.default_rng(seed)
    if form is None:
        coeffs = rng.integers(-100, 101, size=(d + 1, 2))
        form = Form(2, d, {(d - j, j): complex(*coeffs[j]) for j in range(d + 1)})
    elif (form.n, form.d) != (2, d):
        raise ShapeMismatch(f"need a binary form of degree {d}; "
                            f"got n={form.n}, d={form.d}")
    p = form.approx()
    fixed_forms = [linear_form([QQi(1), QQi(0)]),
                   linear_form([QQi(0), QQi(1)])][:m]
    for extra in range(m - 2):
        c = rng.integers(-100, 101, size=4)
        fixed_forms.append(linear_form([complex(c[0], c[1]), complex(c[2], c[3])]))

    system = _mc_system(d, e, fixed_forms, p)
    nvars = d + 1
    scale = max(p.norm(), 1.0)
    trials = default_trials(d) if trials is None else trials
    patience = max(120, trials // 5)

    start_mag = np.array([scale] * m + [scale ** (ek / d) for ek in e
                                        for _ in range(ek + 1)])
    groups = [(e.index(ek), e.index(ek) + e.count(ek))
              for ek in sorted(set(e), reverse=True)]

    found_ts = np.empty((0, m), dtype=complex)
    found_powers = np.empty((0, len(e), d + 1), dtype=complex)
    since_new = first = 0
    while first < trials and since_new < patience:
        # no stop can fall before the last row of this batch
        size = min(_MC_BATCH, patience - since_new, trials - first)
        buf = rng.standard_normal((size, 2 * nvars))
        z = (buf[:, :nvars] + 1j * buf[:, nvars:]) * start_mag
        first += size
        converged, powers = _mc_newton(system, z, scale)
        rows = np.flatnonzero(converged)
        ts = z[rows, :m]
        fresh = np.flatnonzero(~_signature_hits(
            ts, powers, found_ts, found_powers, groups).any(axis=1))
        since_new += size
        while fresh.size:
            k, fresh = fresh[0], fresh[1:]
            found_ts = np.concatenate([found_ts, ts[k:k + 1]])
            found_powers = np.concatenate([found_powers, powers[k:k + 1]])
            fresh = fresh[~_signature_hits(ts[fresh], powers[fresh],
                                           ts[k:k + 1], powers[k:k + 1],
                                           groups)[:, 0]]
            since_new = size - 1 - rows[k]
    return len(found_ts)
