"""Constructive decompositions in n variables.

Completion of squares gives the upper-triangular representation of a
quadratic; simultaneous diagonalization of the first two partials gives the
completion of the cube for cubics (n cubes plus a cubic in two fewer
variables); differentiating with respect to the last variable and completing
squares gives the slinky form; and a change-of-variables construction built
on Biermann points handles every cubic, general or not, with at most
n(n+1)/2 cubes.  Quartics lift the cubic construction by integration.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from . import LazyModule
from .decompositions import (ACCEPT_TOL, Decomposition, Term, _dense,
                             _linear_powers, check_decomposable, pad_form,
                             restrict_form)
from .errors import (DegenerateInput, DegeneratePencil, DegenerateStage,
                     PivotZero, ShapeMismatch, ZeroForm)
from .forms import Form, _monomials, _trusted, linear_coeffs, linear_form, multinomial
from .linalg import Matrix, pencil_charpoly, poly_roots
from .scalars import EPS_DEFAULT, Scalar, is_exact, scalar_is_zero, scalar_sqrt

np = LazyModule("numpy", globals(), "np")


def quadratic_row(p: Form, i: int) -> list[Scalar]:
    """Row i of the symmetric matrix M with p(x) = x^T M x: the stored
    a(p; e_i + e_j), which are M's entries."""
    if p.d != 2:
        raise ShapeMismatch("need a quadratic form")
    return [p.a(tuple((k == i) + (k == j) for k in range(p.n))) for j in range(p.n)]


def quadratic_matrix(p: Form) -> Matrix:
    """Symmetric matrix M with p(x) = x^T M x."""
    return [quadratic_row(p, i) for i in range(p.n)]


# -- completion of squares ---------------------------------------------------


@dataclass
class TriangularSquares:
    """Rows l_k with sum l_k^2 = p and row k supported on x_k..x_n."""

    rows: list[Form]


def uppertri_pairs(p: Form, eps: float = EPS_DEFAULT) -> list[tuple[int, Scalar, Form]]:
    """Exact completion of squares: p = sum (1/a_k) L_k^2.

    Returns (variable index, pivot a_k, unnormalized row L_k); no square
    roots are taken, so exact inputs stay exact.  Variables absent from the
    running residual are skipped; a present variable whose square coefficient
    vanishes raises PivotZero (no improvised pivoting).
    """
    if p.d != 2:
        raise ShapeMismatch("completion of squares needs a quadratic form")
    n = p.n
    scale = p.norm()
    work = p
    out = []
    for k in range(n):
        if work.is_zero(eps, scale=scale):
            break
        row = quadratic_row(work, k)
        # x_k x_j's actual coefficient is row[j] * 2 off the diagonal
        if any(not scalar_is_zero(v if j == k else v * 2, eps, scale)
               for j, v in enumerate(row)):
            if scalar_is_zero(a := row[k], eps, scale):
                raise PivotZero(k + 1)
            out.append((k, a, linear_form(row)))
            work = work + _linear_powers(n, 2, [(-1 / a, row)])
        # x_k has left the residual; on floats, drop the rounding it left
        if (work := _eliminate(work, [k], max(ACCEPT_TOL, eps), scale)) is None:
            raise DegenerateInput(f"the residual kept x{k + 1}")
    return out


def uppertri(p: Form, eps: float = EPS_DEFAULT) -> TriangularSquares:
    """Upper-triangular rows l_k = L_k / sqrt(a_k), exact when every pivot is
    a square in Q(i); ZeroForm for a form that is zero to within eps, and
    DegenerateInput unless the rows are accepted for p."""
    check_decomposable(p, p.d == 2, "completion of squares needs a quadratic form", eps)
    squares = []
    for _, a, lrow in uppertri_pairs(p, eps):
        if not (root := scalar_sqrt(a)):
            raise DegenerateInput("a pivot's square root is below float range")
        row = (lrow if is_exact(root) else lrow.approx()).scale(1 / root)
        squares.append(Term(1, row, 2))
    if (dec := Decomposition(squares).accepted(p, eps)) is None:
        raise DegenerateInput("reconstruction check failed")
    return TriangularSquares([t.base for t in dec.terms])


# -- simultaneous diagonalization of a pencil -----------------------------------


@dataclass
class PencilDiag:
    """Forms L_i and eigenvalues c_i with f = sum L_i^2, g = sum c_i L_i^2."""

    forms: list[Form]
    eigenvalues: list[complex]


def pencil_diagonalize(f: Form, g: Form, eps: float = EPS_DEFAULT) -> PencilDiag:
    """Simultaneously diagonalize two quadratics via det(M_g - t M_f) = 0."""
    if f.n != g.n or f.d != 2 or g.d != 2:
        raise ShapeMismatch("need two quadratic forms in the same variables")
    n = f.n
    mf = quadratic_matrix(f)
    mg = quadratic_matrix(g)
    char = pencil_charpoly(mg, mf)
    try:
        scale = max(abs(complex(v)) for v in char)
    except OverflowError:
        raise DegeneratePencil("characteristic polynomial beyond float range") from None
    if scalar_is_zero(char[-1], eps ** 0.5, scale):
        raise DegeneratePencil("M_f is singular")
    roots = poly_roots(char)
    cscale = max(1.0, max(abs(z) for z in roots))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= eps ** 0.5 * cscale:
                raise DegeneratePencil("repeated pencil eigenvalues")
    amf, amg = np.array(mf, complex), np.array(mg, complex)
    columns = []
    eigs = []
    for c in sorted(roots, key=lambda z: (z.real, z.imag)):
        mat = amg - c * amf
        _, _, vh = np.linalg.svd(mat)
        v = vh[-1].conj()
        den = complex(v @ amf @ v)
        if abs(den) <= eps * float(np.max(np.abs(amf))):
            raise DegeneratePencil("isotropic pencil eigenvector")
        columns.append(v / den ** 0.5)
        eigs.append(complex(v @ amg @ v) / den)
    vmat = np.array(columns).T
    try:
        w = np.linalg.inv(vmat)
    except np.linalg.LinAlgError:
        raise DegeneratePencil("dependent pencil eigenvectors") from None
    forms = [linear_form([complex(w[i][j]) for j in range(n)]) for i in range(n)]
    squares = Decomposition([Term(1, lf, 2) for lf in forms])
    if not squares.verify(f.approx(), max(1e-6, eps)):
        raise DegeneratePencil("diagonalization failed to reconstruct f")
    return PencilDiag(forms, eigs)


# -- Reichstein's completion of the cube -------------------------------------------


def _eliminate(p: Form, kill: list[int], tol: float, scale: float) -> Form | None:
    """p without its monomials in the variables `kill`, or None if one of
    them is more than noise: exact and nonzero, or above tol * scale."""
    keep = {}
    for idx, v in p.items():
        if not any(idx[k] for k in kill):
            keep[idx] = v
        elif (is_exact(v) and v) or abs(complex(v)) > tol * scale:
            return None
    return _trusted(p.n, p.d, keep, p.exact)


def reichstein_step(p: Form, eps: float = EPS_DEFAULT) -> tuple[Decomposition, Form]:
    """One completion-of-the-cube step: n cubes plus a cubic in x_3..x_n.

    Simultaneously diagonalizes the first two partial derivatives; the cubes
    are L_i^3 / (3 alpha_i1) and the residual loses its first two variables.
    """
    if (n := p.n) < 2:
        raise ShapeMismatch("need at least two variables; n=1 is a single cube")
    check_decomposable(p, p.d == 3, "need a cubic form", eps)
    f = p.partial(0)
    g = p.partial(1)
    scale = p.norm()
    if f.is_zero(eps, scale=scale) or g.is_zero(eps, scale=scale):
        raise DegeneratePencil("a leading partial derivative vanishes")
    diag = pencil_diagonalize(f, g, eps)
    terms, cubes = [], []
    for lf, c in zip(diag.forms, diag.eigenvalues):
        coeffs = linear_coeffs(lf)
        a1, a2 = complex(coeffs[0]), complex(coeffs[1])
        cscale = max(abs(complex(v)) for v in coeffs)
        if abs(a1) <= eps ** 0.5 * cscale:
            raise DegeneratePencil("alpha_i1 = 0 for a pencil form")
        if abs(a2 - c * a1) > 1e-6 * cscale:
            raise DegeneratePencil("mixed-partials consistency check failed")
        mult = 1.0 / (3 * a1)
        terms.append(Term(mult, lf, 3))
        cubes.append((-mult, coeffs))
    q = _eliminate(p.approx() + _linear_powers(n, 3, cubes), [0, 1],
                   max(1e-6, eps), scale)
    if q is None:
        raise DegeneratePencil("reichstein residual: residual depends on "
                               "eliminated variables")
    dec = Decomposition(terms, meta={"theorem": "reichstein"})
    return dec, q


def reichstein_full(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """Iterate the cube-completion: floor((n+1)^2/4) cubes for a general cubic;
    stage-m cubes involve only x_(1+2m)..x_n."""
    check_decomposable(p, p.d == 3, "need a cubic form", eps)
    n = p.n
    scale = p.norm()
    terms = []
    stages = []
    current = p
    offset = 0
    while offset < n:
        live = list(range(offset, n))
        if current.is_zero(eps, scale=scale):
            break
        sub = restrict_form(current, live)
        if len(live) == 1:
            c = sub.raw((3,))
            terms.append(Term(c, pad_form(linear_form([1]), n, live), 3))
            stages.append({"stage": offset // 2, "cubes": 1})
            break
        try:
            dec, q = reichstein_step(sub, eps)
        except DegeneratePencil as exc:
            raise DegeneratePencil(f"stage {offset // 2}: {exc}") from exc
        for t in dec.terms:
            terms.append(Term(t.multiplier, pad_form(t.base, n, live), t.power))
        stages.append({"stage": offset // 2, "cubes": len(dec.terms),
                       "eliminated": [offset + 1, offset + 2]})
        current = pad_form(q, n, live)
        offset += 2
    dec = Decomposition(terms, meta={"theorem": "reichstein-full", "stages": stages})
    if (dec := dec.accepted(p, eps)) is None:
        raise DegeneratePencil("full reconstruction check failed")
    return dec


# -- the slinky form -------------------------------------------------------------------


def slinky(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """Cubes l_ij^3 supported on x_i..x_j, found by completing squares in
    d p / d x_n and integrating; unique for general p.

    Stays exact on exact input: the cube of row L is taken as
    L^3 / (3 a t_n) where a is the pivot and t_n the trailing coefficient.
    """
    check_decomposable(p, p.d == 3, "need a cubic form", eps)
    n = p.n
    scale = p.norm()
    current = p
    terms = []
    stages = []
    for t in range(n - 1, 0, -1):
        h = current.partial(t)
        stage = n - t
        if h.is_zero(eps, scale=scale):
            stages.append({"stage": stage, "eliminated": t + 1, "cubes": 0})
            continue
        try:
            pairs = uppertri_pairs(h, eps)
        except PivotZero as exc:
            raise DegenerateStage(stage, f"square completion pivot: {exc}") from exc
        stages.append({"stage": stage, "eliminated": t + 1, "cubes": len(pairs)})
        cubes = []
        for k, a, lrow in pairs:
            coeffs = linear_coeffs(lrow)
            if scalar_is_zero(tail := coeffs[t], eps,
                              scale=max(abs(complex(v)) for v in coeffs)):
                raise DegenerateStage(stage, f"t_jn = 0 for row {k + 1}")
            mult = 1 / (3 * a * tail)
            terms.append(Term(mult, lrow, 3))
            cubes.append((-mult, coeffs))
        current = _eliminate(current + _linear_powers(n, 3, cubes), [t],
                             max(ACCEPT_TOL, eps), scale)
        if current is None:
            raise DegenerateStage(stage, "residual kept the eliminated variable")
    if not current.is_zero(eps, scale=scale):
        c = current.raw(tuple([3] + [0] * (n - 1)))
        terms.append(Term(c, linear_form([1] + [0] * (n - 1)), 3))
        stages.append({"stage": n, "eliminated": 1, "cubes": 1})
    dec = Decomposition(terms, meta={"theorem": "slinky", "stages": stages})
    if (dec := dec.accepted(p, eps)) is None:
        raise DegenerateStage(n, "reconstruction check failed")
    return dec


# -- every cubic: the slowpoke construction ------------------------------------------
#
# The levels run on the cubic's coefficient tensor: the symmetric complex
# n x n x n array T with T[i,j,k] = a(p; e_i+e_j+e_k), the stored coefficient,
# so p(x) = sum T[i,j,k] x_i x_j x_k and p o M is T contracted with M on
# each axis (Comon, Golub, Lim and Mourrain, SIAM J. Matrix Anal. Appl. 30,
# 2008).  Form stays the representation outside the recursion.


def drab_family(m: int) -> list[Form]:
    """The m+1 linear forms l_(j,m) with sum l = 0 and sum l^2 = sum y_k^2."""
    if m == 0:
        return [Form.zero(1, 1)]
    alpha = (-(m + 1) + math.sqrt(m + 1.0)) / (m * (m + 1))
    out = []
    for j in range(m):
        coeffs = [alpha] * m
        coeffs[j] += 1.0
        out.append(linear_form([complex(c) for c in coeffs]))
    out.append(linear_form([complex(-(1 + m * alpha))] * m))
    return out


@functools.cache
def _drab_rows(m: int) -> np.ndarray:
    """The coefficient rows of drab_family(m), shared read-only by every caller."""
    rows = np.array([linear_coeffs(lf) for lf in drab_family(m)], dtype=complex)
    rows.setflags(write=False)
    return rows


@functools.cache
def _cubic_slots(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the n x n x n entries: the position of each one's monomial in
    _monomials(n, 3) and its multinomial c(i); and the grid I(n, 3)."""
    mons = _monomials(n, 3)
    pos = {idx: r for r, idx in enumerate(mons)}
    slots = np.empty((n, n, n), dtype=int)
    for ijk in itertools.product(range(n), repeat=3):
        slots[ijk] = pos[tuple(ijk.count(v) for v in range(n))]
    mult = np.array([multinomial(idx) for idx in mons], dtype=float)[slots]
    out = slots, mult, np.array(mons, dtype=float)
    for a in out:
        a.setflags(write=False)  # shared by every caller
    return out


def _cubic_tensor(p: Form) -> np.ndarray:
    """The coefficient tensor of the cubic p: its stored a(p; e_i+e_j+e_k)."""
    return _dense(p)[_cubic_slots(p.n)[0]]


def _tensor_norm(t: np.ndarray) -> float:
    """Form.norm of the tensor's cubic: its largest monomial coefficient."""
    return float((np.abs(t) * _cubic_slots(len(t))[1]).max())


def _tensor_substitute(t: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The tensor of p o M for x_i = sum_j M[i][j] x'_j.  The three
    contractions round each entry's orders differently; their mean is the
    nearest symmetric tensor.  Each contraction is the matrix product that
    np.tensordot(t, m, axes=(0, 0)) runs."""
    for _ in range(3):
        t = np.dot(t.transpose(1, 2, 0).reshape(-1, len(m)), m).reshape(t.shape)
    return sum(t.transpose(axes) for axes in itertools.permutations(range(3))) / 6


def _tensor_values(t: np.ndarray, points: np.ndarray) -> np.ndarray:
    """p at each row of `points`."""
    half = (points @ t.reshape(len(t), -1)).reshape(len(points), len(t), len(t))
    return np.einsum("pjk,pj,pk->p", half, points, points)


def _tensor_biermann(t: np.ndarray, eps: float) -> tuple[np.ndarray, complex] | None:
    """biermann_point on the tensor: the first point of I(n, 3) where p is
    above eps * norm * 4^3, with p's value there; None if there is none."""
    grid = _cubic_slots(len(t))[2]
    values = _tensor_values(t, grid)
    hits = np.flatnonzero(np.abs(values) > eps * _tensor_norm(t) * 4.0 ** 3)
    return (grid[hits[0]], complex(values[hits[0]])) if len(hits) else None


def _diagonalize_any_quadratic(w: np.ndarray, floor: float) -> list[np.ndarray]:
    """Rows m_k with W = sum m_k m_k^T, rank many, for the symmetric matrix W
    of the quadratic x^T W x; total over C."""
    n = len(w)
    mult = 2.0 - np.eye(n)  # x_i x_j has coefficient 2 W_ij off the diagonal
    out = []
    for _ in range(n):
        raw = np.abs(w) * mult
        if not raw.any() or raw.max() <= floor:
            break
        diag = np.abs(w.diagonal())
        pick = np.zeros(n)
        if diag.max() > floor:
            pick[np.argmax(diag)] = 1.0
        else:
            off = np.triu(np.abs(w), 1)
            bi, bj = np.unravel_index(np.argmax(off), off.shape)
            if off[bi, bj] <= floor:
                break
            pick[[bi, bj]] = 1.0
        mw = w @ pick
        out.append(mw / complex(pick @ mw) ** 0.5)
        w = w - np.outer(out[-1], out[-1])
        raw = np.abs(w) * mult
        w = np.where(raw > 1e-13 * max(raw.max(), 1e-300), w, 0)
    # floor shrinks with each slowpoke level, so rounding noise can pass it;
    # the forms made from noise depend on the earlier ones and are dropped
    while out and not _independent(out):
        out.pop()
    return out


def _independent(rows) -> bool:
    return np.linalg.matrix_rank(np.array(rows), tol=1e-8) == len(rows)


def _complete_basis(rows: list[np.ndarray], n: int) -> np.ndarray:
    """Extend independent rows to an invertible n x n matrix with unit rows."""
    mat = list(rows)
    for unit in np.eye(n):
        if len(mat) == n:
            break
        if _independent(mat + [unit]):
            mat.append(unit)
    return np.array(mat, dtype=complex)


def _slowpoke_rec(t: np.ndarray, eps: float,
                  floor: float) -> tuple[np.ndarray, np.ndarray]:
    """Multipliers mu and linear-form coefficient rows l with p = sum mu l^3,
    for the cubic of the tensor t."""
    n = len(t)
    none = np.zeros(0, dtype=complex), np.zeros((0, n), dtype=complex)
    if _tensor_norm(t) <= floor:
        return none
    if n == 1:
        return t.reshape(1), np.ones((1, 1), dtype=complex)
    found = _tensor_biermann(t, eps)
    if found is None:
        return none  # p is below every grid test: noise the final check judges
    u, c = found
    j0 = int(np.argmax(u))
    m1 = np.column_stack([u, np.delete(np.eye(n), j0, axis=1)]).astype(complex)
    t1 = _tensor_substitute(t, m1) / c

    # clear the quadratic term: u_1 = y_1 - h_1(y_2..y_n)
    m2 = np.eye(n, dtype=complex)
    m2[0, 1:] = -t1[0, 0, 1:]
    t2 = _tensor_substitute(t1, m2)

    # diagonalize the coefficient quadratic of y_1
    ms = _diagonalize_any_quadratic(t2[0, 1:, 1:], floor / max(abs(c), 1.0))
    rho = len(ms)
    r = rho + 1
    m3 = np.eye(n, dtype=complex)
    m3[1:, 1:] = np.linalg.inv(_complete_basis(ms, n - 1))
    t3 = _tensor_substitute(t2, m3)

    rows = np.zeros((r, n), dtype=complex)
    rows[:, 0] = 1.0
    if rho:
        rows[:, 1:r] = math.sqrt(r) * _drab_rows(rho)
    mus = np.full(r, 1.0 / r, dtype=complex)
    q = t3 - np.einsum("k,ki,kj,kl->ijl", mus, rows, rows, rows)

    # residual lives in the tail variables; recurse
    if np.abs(q[0]).max() > max(ACCEPT_TOL, eps) * _tensor_norm(t3):
        raise DegenerateStage(n, "slowpoke residual kept y_1")
    sub_mus, sub_rows = _slowpoke_rec(q[1:, 1:, 1:], eps, floor / max(abs(c), 1.0))
    mus = np.concatenate([mus, sub_mus])
    rows = np.vstack([rows, np.hstack([np.zeros((len(sub_rows), 1)), sub_rows])])

    # map back through m1 m2 m3 and rescale by c
    return c * mus, rows @ np.linalg.inv(m1 @ m2 @ m3)


def slowpoke(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """Every nonzero cubic as a sum of at most n(n+1)/2 cubes of linear forms.

    Works for all cubics, not just general ones; each stage normalizes at a
    Biermann point, clears the quadratic term, diagonalizes the coefficient
    quadratic, and subtracts a zero-sum family of cubes.
    """
    check_decomposable(p, p.d == 3, "need a cubic form", eps)
    floor = 1e-12 * p.norm()
    mus, rows = _slowpoke_rec(_cubic_tensor(p), eps, floor)
    terms = []
    for mu, coeffs in zip(mus.tolist(), rows.tolist()):
        mag = max(abs(v) for v in coeffs) if coeffs else 0.0
        if mag == 0.0 or abs(mu) * mag ** 3 <= floor:
            continue
        lead = next(v for v in coeffs if abs(v) > 1e-9 * mag)
        base = linear_form([v / lead for v in coeffs])
        terms.append(Term(mu * lead ** 3, base, 3))
    if not terms:
        raise ZeroForm(f"the cubic is zero to within the tolerance {floor:g}")
    dec = Decomposition(terms, meta={"theorem": "slowpoke"}).accepted(p, eps)
    if dec is None:
        raise DegenerateStage(0, "slowpoke reconstruction check failed")
    return dec


# -- quartic lift ------------------------------------------------------------------------


def quartic_lift(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """One stage of the quartic canonical form: a(n) = floor((n+1)^2/4) fourth
    powers plus a residual quartic in x_1..x_(n-1)."""
    check_decomposable(p, p.d == 4, "need a quartic form", eps)
    n = p.n
    last = n - 1
    scale = p.norm()
    pn = p.partial(last)
    if pn.is_zero(eps, scale=scale):
        raise DegenerateStage(1, "dp/dx_n = 0")
    if n == 1:
        c = pn.raw((3,))
        term = Term(c / 4, linear_form([1]), 4)
        residual = p - term.form()
        return Decomposition([term], residual=residual,
                             meta={"theorem": "quartic-lift"})
    try:
        cubes = reichstein_full(pn, eps)
    except DegeneratePencil as exc:
        raise DegenerateStage(1, f"cubic stage failed: {exc}") from exc
    terms, powers = [], []
    for t in cubes.terms:
        coeffs = linear_coeffs(t.base)
        if scalar_is_zero(tail := coeffs[last], eps ** 0.5,
                          scale=max(abs(complex(v)) for v in coeffs)):
            raise DegenerateStage(1, "a cube misses x_n (t_mn = 0)")
        mult = t.multiplier / (4 * tail)
        terms.append(Term(mult, t.base, 4))
        powers.append((-mult, coeffs))
    residual = _eliminate(p.approx() + _linear_powers(n, 4, powers), [last],
                          max(1e-6, eps), scale)
    if residual is None:
        raise DegenerateStage(1, "residual kept x_n")
    dec = Decomposition(terms, residual=residual,
                        meta={"theorem": "quartic-lift",
                              "stages": [{"stage": 1, "eliminated": n,
                                          "powers": len(terms)}]}).accepted(p, eps)
    if dec is None:
        raise DegenerateStage(1, "reconstruction check failed")
    return dec
