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

import math
from dataclasses import dataclass

from .errors import (DegeneratePencil, DegenerateStage, PivotZero,
                     ShapeMismatch, ZeroForm)
from .forms import (Decomposition, Form, Term, biermann_point, forms_close,
                    linear_coeffs, linear_form, pad_form, restrict_form)
from .linalg import (Matrix, mat_inverse, mat_mul, pencil_charpoly,
                     poly_roots)
from .scalars import (EPS_DEFAULT, QQi, Scalar, is_exact, scalar_is_zero,
                      scalar_sqrt)


def quadratic_matrix(p: Form) -> Matrix:
    """Symmetric matrix M with p(x) = x^T M x."""
    if p.d != 2:
        raise ShapeMismatch("need a quadratic form")
    n = p.n
    half = QQi(1) / 2 if p.exact else 0.5
    m = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            idx = [0] * n
            idx[i] += 1
            idx[j] += 1
            v = p.raw(tuple(idx))
            m[i][j] = v if i == j else v * half
    return m


# -- completion of squares ---------------------------------------------------


@dataclass
class TriangularSquares:
    """Rows l_k with sum l_k^2 = p and row k supported on x_k..x_n."""

    rows: list[Form]

    def reconstruct(self, n: int | None = None) -> Form:
        nn = n if n is not None else self.rows[0].n
        total = Form.zero(nn, 2)
        for row in self.rows:
            total = total + row * row
        return total


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
    scale = max(p.norm(), 1.0)
    work = p
    out = []
    for k in range(n):
        if work.is_zero(eps, scale=scale):
            break
        idx_sq = [0] * n
        idx_sq[k] = 2
        a = work.raw(tuple(idx_sq))
        present = any(idx[k] and not scalar_is_zero(v, eps, scale)
                      for idx, v in work.items())
        if not present:
            continue
        if scalar_is_zero(a, eps, scale):
            raise PivotZero(k + 1)
        row_coeffs = [None] * n
        for j in range(n):
            idx = [0] * n
            idx[k] += 1
            idx[j] += 1
            v = work.raw(tuple(idx))
            row_coeffs[j] = v if j == k else v / 2
        lrow = linear_form(row_coeffs)
        out.append((k, a, lrow))
        work = work - (lrow * lrow).scale(QQi(1) / a if is_exact(a) else 1.0 / a)
    return out


def uppertri(p: Form, eps: float = EPS_DEFAULT) -> TriangularSquares:
    """Upper-triangular rows l_k = L_k / sqrt(a_k); exact when every pivot is
    a square of a Gaussian rational, complex otherwise."""
    pairs = uppertri_pairs(p, eps)
    rows = []
    for _, a, lrow in pairs:
        root = scalar_sqrt(a)
        rows.append(lrow.scale(1 / root) if is_exact(root) and is_exact(a)
                    and lrow.exact else lrow.approx().scale(1.0 / complex(root)))
    return TriangularSquares(rows)


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
    lead = char[-1]
    scale = max(abs(complex(v)) for v in char) if any(
        abs(complex(v)) for v in char) else 1.0
    if scalar_is_zero(lead, eps ** 0.5, scale):
        raise DegeneratePencil("M_f is singular")
    roots = poly_roots([complex(v) for v in char])
    if len(roots) != n:
        raise DegeneratePencil("pencil characteristic polynomial degenerated")
    cscale = max(1.0, max(abs(z) for z in roots))
    for i in range(n):
        for j in range(i + 1, n):
            if abs(roots[i] - roots[j]) <= eps ** 0.5 * cscale:
                raise DegeneratePencil("repeated pencil eigenvalues")
    import numpy as np
    amf = np.array([[complex(v) for v in row] for row in mf])
    amg = np.array([[complex(v) for v in row] for row in mg])
    columns = []
    eigs = []
    for c in sorted(roots, key=lambda z: (z.real, z.imag)):
        mat = amg - c * amf
        _, _, vh = np.linalg.svd(mat)
        v = vh[-1].conj()
        num = complex(v @ amg @ v)
        den = complex(v @ amf @ v)
        if den != 0:
            c = num / den
        s = complex(v @ amf @ v)
        if abs(s) <= eps * max(1.0, float(np.max(np.abs(amf)))):
            raise DegeneratePencil("isotropic pencil eigenvector")
        columns.append(v / s ** 0.5)
        eigs.append(c)
    vmat = np.array(columns).T
    w = np.linalg.inv(vmat)
    forms = [linear_form([complex(w[i][j]) for j in range(n)]) for i in range(n)]
    diag = PencilDiag(forms, eigs)
    recon = Form.zero(n, 2)
    for lf in forms:
        recon = recon + lf * lf
    if not forms_close(recon, f.approx(), max(1e-6, eps)):
        raise DegeneratePencil("diagonalization failed to reconstruct f")
    return diag


# -- Reichstein's completion of the cube -------------------------------------------


def _drop_vars_checked(p: Form, kill: list[int], eps: float, scale: float,
                       what: str) -> Form:
    """Zero all monomials involving the given variables, verifying that only
    numerical noise is discarded."""
    keep = {}
    dropped = 0.0
    for idx, v in p.items():
        if any(idx[k] for k in kill):
            dropped = max(dropped, abs(complex(v)))
            if is_exact(v) and v:
                raise DegeneratePencil(f"{what}: residual depends on x_"
                                       f"{[k + 1 for k in kill]}")
        else:
            keep[idx] = v
    if dropped > max(1e-6, eps) * max(scale, 1.0):
        raise DegeneratePencil(f"{what}: residual depends on eliminated variables")
    return Form(p.n, p.d, keep)


def reichstein_step(p: Form, eps: float = EPS_DEFAULT) -> tuple[Decomposition, Form]:
    """One completion-of-the-cube step: n cubes plus a cubic in x_3..x_n.

    Simultaneously diagonalizes the first two partial derivatives; the cubes
    are L_i^3 / (3 alpha_i1) and the residual loses its first two variables.
    """
    if p.d != 3:
        raise ShapeMismatch("need a cubic form")
    n = p.n
    if n < 2:
        raise ShapeMismatch("need at least two variables; n=1 is a single cube")
    f = p.partial(0)
    g = p.partial(1)
    if f.is_zero(eps, scale=p.norm()) or g.is_zero(eps, scale=p.norm()):
        raise DegeneratePencil("a leading partial derivative vanishes")
    diag = pencil_diagonalize(f, g, eps)
    pw = p.approx()
    terms = []
    for lf, c in zip(diag.forms, diag.eigenvalues):
        coeffs = linear_coeffs(lf)
        a1, a2 = complex(coeffs[0]), complex(coeffs[1])
        cscale = max(abs(complex(v)) for v in coeffs)
        if abs(a1) <= eps ** 0.5 * cscale:
            raise DegeneratePencil("alpha_i1 = 0 for a pencil form")
        if abs(a2 - c * a1) > 1e-6 * max(1.0, abs(a1), abs(a2)):
            raise DegeneratePencil("mixed-partials consistency check failed")
        terms.append(Term(1.0 / (3 * a1), lf, 3))
    q = pw
    for t in terms:
        q = q - t.form()
    q = _drop_vars_checked(q, [0, 1], eps, p.norm(), "reichstein residual")
    dec = Decomposition(terms, meta={"theorem": "reichstein"})
    return dec, q


def reichstein_full(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """Iterate the cube-completion: floor((n+1)^2/4) cubes for a general cubic;
    stage-m cubes involve only x_(1+2m)..x_n."""
    if p.d != 3:
        raise ShapeMismatch("need a cubic form")
    n = p.n
    terms = []
    stages = []
    current = p
    offset = 0
    while offset < n:
        live = list(range(offset, n))
        if current.is_zero(eps, scale=p.norm()):
            break
        sub = restrict_form(current, live)
        if len(live) == 1:
            c = sub.raw((3,))
            terms.append(Term(c, pad_form(linear_form([1]), n, live), 3))
            stages.append({"stage": offset // 2, "cubes": 1})
            break
        try:
            dec, q = reichstein_step(sub, eps)
        except (DegeneratePencil, ShapeMismatch) as exc:
            raise DegeneratePencil(f"stage {offset // 2}: {exc}") from exc
        for t in dec.terms:
            terms.append(Term(t.multiplier, pad_form(t.base, n, live), t.power))
        stages.append({"stage": offset // 2, "cubes": len(dec.terms),
                       "eliminated": [offset + 1, offset + 2]})
        current = pad_form(restrict_form(q, list(range(2, len(live)))), n, live[2:]) \
            if len(live) > 2 else Form.zero(n, 3)
        offset += 2
    dec = Decomposition(terms, meta={"theorem": "reichstein-full", "stages": stages})
    if not dec.verify(p, max(eps, 1e-8)):
        raise DegeneratePencil("full reconstruction check failed")
    return dec


# -- the slinky form -------------------------------------------------------------------


def slinky(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """Cubes l_ij^3 supported on x_i..x_j, found by completing squares in
    d p / d x_n and integrating; unique for general p.

    Stays exact on exact input: the cube of row L is taken as
    L^3 / (3 a t_n) where a is the pivot and t_n the trailing coefficient.
    """
    if p.d != 3:
        raise ShapeMismatch("need a cubic form")
    n = p.n
    current = p
    terms = []
    stages = []
    for t in range(n - 1, 0, -1):
        h = current.partial(t)
        stage = n - t
        if h.is_zero(eps, scale=max(p.norm(), 1.0)):
            stages.append({"stage": stage, "eliminated": t + 1, "cubes": 0})
            continue
        try:
            pairs = uppertri_pairs(restrict_form(h, list(range(t + 1))), eps)
        except PivotZero as exc:
            raise DegenerateStage(stage, f"square completion pivot: {exc}") from exc
        stages.append({"stage": stage, "eliminated": t + 1, "cubes": len(pairs)})
        for k, a, lrow in pairs:
            tail = linear_coeffs(lrow)[t]
            if scalar_is_zero(tail, eps, scale=max(abs(complex(v))
                                                   for v in linear_coeffs(lrow))):
                raise DegenerateStage(stage, f"t_jn = 0 for row {k + 1}")
            mult = 1 / (3 * a * tail) if not is_exact(a) else QQi(1) / (3 * a * tail)
            base = pad_form(lrow, n, list(range(t + 1)))
            terms.append(Term(mult, base, 3))
            current = current - Term(mult, base, 3).form()
        current = _slinky_drop(current, t, eps, p.norm(), stage)
    if not current.is_zero(eps, scale=max(p.norm(), 1.0)):
        c = current.raw(tuple([3] + [0] * (n - 1)))
        terms.append(Term(c, linear_form([1] + [0] * (n - 1)), 3))
        stages.append({"stage": n, "eliminated": 1, "cubes": 1})
    dec = Decomposition(terms, meta={"theorem": "slinky", "stages": stages})
    if not dec.verify(p, max(eps, 1e-8)):
        raise DegenerateStage(n, "reconstruction check failed")
    return dec


def _slinky_drop(p: Form, var: int, eps: float, scale: float, stage: int) -> Form:
    keep = {}
    for idx, v in p.items():
        if idx[var]:
            mag = abs(complex(v))
            if (is_exact(v) and v) or mag > max(1e-7, eps) * max(scale, 1.0):
                raise DegenerateStage(stage, "residual kept the eliminated variable")
        else:
            keep[idx] = v
    return Form(p.n, p.d, keep)


# -- every cubic: the slowpoke construction ------------------------------------------


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


def _diagonalize_any_quadratic(q: Form, floor: float) -> list[Form]:
    """Complex linear forms m_k with q = sum m_k^2, rank many; total over C."""
    n = q.n
    work = q.approx()
    out = []
    for _ in range(n):
        if work.is_zero(0.0) or work.norm() <= floor:
            break
        m = quadratic_matrix(work)
        best_i, best = None, 0.0
        for i in range(n):
            v = abs(complex(m[i][i]))
            if v > best:
                best, best_i = v, i
        w = None
        if best > floor:
            w = [0.0] * n
            w[best_i] = 1.0
        else:
            bi = bj = None
            best = 0.0
            for i in range(n):
                for j in range(i + 1, n):
                    v = abs(complex(m[i][j]))
                    if v > best:
                        best, bi, bj = v, i, j
            if bi is None or best <= floor:
                break
            w = [0.0] * n
            w[bi] = w[bj] = 1.0
        qw = complex(work.evaluate(w))
        mw = [sum(complex(m[i][j]) * w[j] for j in range(n)) for i in range(n)]
        root = complex(qw) ** 0.5
        mform = linear_form([v / root for v in mw])
        out.append(mform)
        work = (work - mform * mform).chop(1e-13)
    # floor shrinks with each slowpoke level, so rounding noise can pass it;
    # the forms made from noise depend on the earlier ones and are dropped
    while out and not _independent([linear_coeffs(f) for f in out]):
        out.pop()
    return out


def _independent(rows) -> bool:
    import numpy as np
    return np.linalg.matrix_rank(np.array(rows), tol=1e-8) == len(rows)


def _complete_basis(rows: list[list[complex]], n: int) -> list[list[complex]]:
    """Extend independent rows to an invertible n x n matrix with unit rows."""
    mat = [list(r) for r in rows]
    for j in range(n):
        cand = [0.0 + 0j] * n
        cand[j] = 1.0 + 0j
        trial = mat + [cand]
        if _independent(trial):
            mat.append(cand)
        if len(mat) == n:
            break
    return mat


def _slowpoke_rec(p: Form, eps: float, floor: float) -> list[tuple[complex, Form]]:
    n = p.n
    if p.norm() <= floor:
        return []
    if n == 1:
        return [(complex(p.raw((3,))), linear_form([1.0 + 0j]))]
    u = biermann_point(p, eps)
    c = complex(p.evaluate(u))
    j0 = max(range(n), key=lambda j: u[j])
    m1 = [[0.0 + 0j] * n for _ in range(n)]
    for i in range(n):
        m1[i][0] = complex(u[i])
    col = 1
    for j in range(n):
        if j == j0:
            continue
        m1[j][col] = 1.0 + 0j
        col += 1
    p1 = p.substitute(m1).scale(1.0 / c)

    # clear the quadratic term: u_1 = y_1 - h_1(y_2..y_n)
    h1 = [0.0 + 0j] * n
    for j in range(1, n):
        idx = [0] * n
        idx[0] = 2
        idx[j] = 1
        h1[j] = complex(p1.raw(tuple(idx))) / 3.0
    m2 = [[0.0 + 0j] * n for _ in range(n)]
    m2[0][0] = 1.0 + 0j
    for j in range(1, n):
        m2[j][j] = 1.0 + 0j
        m2[0][j] = -h1[j]
    p2 = p1.substitute(m2)

    # diagonalize the coefficient quadratic of y_1
    raw = {}
    for idx, v in p2.raw_items():
        if idx[0] == 1:
            raw[idx[1:]] = complex(v) / 3.0
    h2_form = Form.from_raw(n - 1, 2, raw) if raw else Form.zero(n - 1, 2)
    ms = _diagonalize_any_quadratic(h2_form, floor / max(abs(c), 1.0))
    rho = len(ms)
    r = rho + 1
    rows = [[complex(v) for v in linear_coeffs(mf)] for mf in ms]
    cmat = _complete_basis(rows, n - 1)
    cinv = mat_inverse(cmat)
    m3 = [[0.0 + 0j] * n for _ in range(n)]
    m3[0][0] = 1.0 + 0j
    for i in range(n - 1):
        for j in range(n - 1):
            m3[i + 1][j + 1] = complex(cinv[i][j])
    p3 = p2.substitute(m3)

    terms: list[tuple[complex, Form]] = []
    if rho == 0:
        g_forms = [(1.0 + 0j, linear_form([1.0 + 0j] + [0.0 + 0j] * (n - 1)))]
    else:
        fam = drab_family(rho)
        sr = complex(r) ** 0.5
        g_forms = []
        for lf in fam:
            coeffs = [1.0 + 0j] + [0.0 + 0j] * (n - 1)
            fam_coeffs = linear_coeffs(lf)
            for k in range(rho):
                coeffs[1 + k] = sr * complex(fam_coeffs[k])
            g_forms.append((1.0 / r, linear_form(coeffs)))
    q = p3
    for mu, lf in g_forms:
        q = q - (lf ** 3).scale(mu)
    terms.extend(g_forms)

    # residual lives in the tail variables; recurse
    tail_keep = {}
    for idx, v in q.items():
        if idx[0]:
            if abs(complex(v)) > max(1e-7, eps) * max(p3.norm(), 1.0):
                raise DegenerateStage(n, "slowpoke residual kept y_1")
        else:
            tail_keep[idx[1:]] = v
    q_tail = Form(n - 1, 3, tail_keep) if tail_keep else Form.zero(n - 1, 3)
    for mu, lf in _slowpoke_rec(q_tail, eps, floor / max(abs(c), 1.0)):
        coeffs = [0.0 + 0j] + [complex(v) for v in linear_coeffs(lf)]
        terms.append((mu, linear_form(coeffs)))

    # map back through m1 m2 m3 and rescale by c
    mtot = mat_mul(mat_mul(m1, m2), m3)
    minv = mat_inverse(mtot)
    out = []
    for mu, lf in terms:
        out.append((c * mu, lf.substitute(minv)))
    return out


def slowpoke(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """Every nonzero cubic as a sum of at most n(n+1)/2 cubes of linear forms.

    Works for all cubics, not just general ones; each stage normalizes at a
    Biermann point, clears the quadratic term, diagonalizes the coefficient
    quadratic, and subtracts a zero-sum family of cubes.
    """
    if p.d != 3:
        raise ShapeMismatch("need a cubic form")
    if p.is_zero():
        raise ZeroForm("cannot decompose the zero form")
    floor = 1e-12 * max(p.norm(), 1.0)
    raw_terms = _slowpoke_rec(p.approx(), eps, floor)
    terms = []
    for mu, lf in raw_terms:
        coeffs = [complex(v) for v in linear_coeffs(lf)]
        mag = max(abs(v) for v in coeffs) if coeffs else 0.0
        if mag == 0.0 or abs(mu) * mag ** 3 <= floor:
            continue
        lead = next(v for v in coeffs if abs(v) > 1e-9 * mag)
        base = linear_form([v / lead for v in coeffs])
        terms.append(Term(mu * lead ** 3, base, 3))
    dec = Decomposition(terms, meta={"theorem": "slowpoke"})
    if p.exact:
        snapped = dec.snapped(p)
        if snapped is not None:
            snapped.meta.update(dec.meta)
            return snapped
    if not dec.verify(p, max(eps, 1e-7)):
        raise DegenerateStage(0, "slowpoke reconstruction check failed")
    return dec


# -- quartic lift ------------------------------------------------------------------------


def quartic_lift(p: Form, eps: float = EPS_DEFAULT) -> Decomposition:
    """One stage of the quartic canonical form: a(n) = floor((n+1)^2/4) fourth
    powers plus a residual quartic in x_1..x_(n-1)."""
    if p.d != 4:
        raise ShapeMismatch("need a quartic form")
    n = p.n
    last = n - 1
    pn = p.partial(last)
    if pn.is_zero(eps, scale=p.norm()):
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
    terms = []
    for t in cubes.terms:
        tail = linear_coeffs(t.base)[last]
        if scalar_is_zero(tail, eps ** 0.5,
                          scale=max(abs(complex(v)) for v in linear_coeffs(t.base))):
            raise DegenerateStage(1, "a cube misses x_n (t_mn = 0)")
        terms.append(Term(t.multiplier / (4 * tail), t.base, 4))
    q = p.approx() if not all(is_exact(t.multiplier) and t.base.exact
                              for t in terms) else p
    for t in terms:
        q = q - t.form()
    keep = {}
    for idx, v in q.items():
        if idx[last]:
            if abs(complex(v)) > max(1e-6, eps) * max(p.norm(), 1.0):
                raise DegenerateStage(1, "residual kept x_n")
        else:
            keep[idx] = v
    residual = Form(n, 4, keep)
    dec = Decomposition(terms, residual=residual,
                        meta={"theorem": "quartic-lift",
                              "stages": [{"stage": 1, "eliminated": n,
                                          "powers": len(terms)}]})
    if not dec.verify(p, max(eps, 1e-7)):
        raise DegenerateStage(1, "reconstruction check failed")
    return dec
