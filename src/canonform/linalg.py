"""Small dense linear algebra over both scalar backends, plus root finding.

Exact routines run Gaussian elimination over the Gaussian rationals with no
rounding, so rank decisions are proofs for the given matrix.  Approximate
routines use fully pivoted elimination with rank decided at a threshold
relative to the matrix max-magnitude.
"""

from __future__ import annotations

import cmath
from itertools import chain
from math import gcd, hypot

from . import LazyModule
from .errors import DegenerateInput
from .scalars import (EPS_DEFAULT, QQi, Scalar, _ZERO, _normalised, _over_lcm,
                      is_exact)

np = LazyModule("numpy", globals(), "np")

Matrix = list[list[Scalar]]
Vector = list[Scalar]


def matrix_is_exact(rows: Matrix) -> bool:
    return all(is_exact(v) for row in rows for v in row)


# -- exact elimination --------------------------------------------------------


def exact_rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and pivot columns, exact arithmetic.

    Fraction-free (after Bareiss, Math. Comp. 22, 1968): on rows of Gaussian
    integers, a row is cleared as p * row - f * (pivot row) over its integer
    content; each pivot row is divided by its pivot once at the end.
    """
    m = [_over_lcm(row)[0] for row in rows]
    ncols = len(rows[0]) if rows else 0
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(m)) if any(m[i][c])), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        (pa, pb), top = m[r][c], m[r]
        for i, row in enumerate(m):
            fa, fb = row[c]
            if i != r and (fa or fb):
                row = [(pa * u - pb * v - fa * x + fb * y,
                        pa * v + pb * u - fa * y - fb * x)
                       for (u, v), (x, y) in zip(row, top)]
                g = gcd(*chain.from_iterable(row))
                m[i] = [(a // g, b // g) for a, b in row] if g > 1 else row
        pivots.append(c)
        if len(pivots) == len(m):
            break
    out = []
    for row, c in zip(m, pivots):
        (pa, pb), norm = row[c], row[c][0] ** 2 + row[c][1] ** 2
        out.append([_normalised(x * pa + y * pb, y * pa - x * pb, norm)
                    for x, y in row])
    return out + [[_ZERO] * ncols for _ in m[len(pivots):]], pivots


def exact_rank(rows: Matrix) -> int:
    return len(exact_rref(rows)[1])


def exact_kernel(rows: Matrix) -> list[Vector]:
    """Kernel basis, each vector scaled so its first nonzero entry is 1."""
    n = len(rows[0]) if rows else 0
    rref, pivots = exact_rref(rows)
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for f in free:
        v = [QQi(0)] * n
        v[f] = QQi(1)
        for r, c in enumerate(pivots):
            v[c] = -rref[r][f]
        lead = next(x for x in v if x)
        basis.append([x / lead for x in v])
    return basis


def exact_solve(rows: Matrix, rhs: Vector) -> Vector | None:
    """One exact solution of A x = b (free variables 0), or None if inconsistent."""
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [rhs[i]] for i, r in enumerate(rows)]
    rref, pivots = exact_rref(aug)
    if n in pivots:
        return None
    x = [QQi(0)] * n
    for r, c in enumerate(pivots):
        x[c] = rref[r][n]
    return x


def exact_det(rows: Matrix) -> QQi:
    m = [list(r) for r in rows]
    n = len(m)
    det = QQi(1)
    for c in range(n):
        pr = next((i for i in range(c, n) if m[i][c]), None)
        if pr is None:
            return QQi(0)
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            det = -det
        det = det * m[c][c]
        inv = QQi(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [m[i][j] - f * m[c][j] for j in range(n)]
    return det


def exact_inverse(rows: Matrix) -> Matrix | None:
    n = len(rows)
    aug = [list(row) + [QQi(int(i == j)) for j in range(n)]
           for i, row in enumerate(rows)]
    rref, pivots = exact_rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in rref]


# -- approximate elimination --------------------------------------------------


def _max_magnitude(rows) -> float:
    return max((abs(complex(v)) for row in rows for v in row), default=0.0)


def approx_echelon(rows: Matrix, eps: float = EPS_DEFAULT):
    """Fully pivoted elimination; returns (matrix, column permutation, rank)."""
    m = [[complex(v) for v in row] for row in rows]
    nrows, ncols = len(m), len(m[0]) if rows else 0
    thresh = eps * max(_max_magnitude(m), 1e-300)
    cols = list(range(ncols))
    r = 0
    for k in range(min(nrows, ncols)):
        best, bi, bj = 0.0, -1, -1
        for i in range(k, nrows):
            for j in range(k, ncols):
                a = abs(m[i][j])
                if a > best:
                    best, bi, bj = a, i, j
        if best <= thresh:
            break
        m[k], m[bi] = m[bi], m[k]
        if bj != k:
            for row in m:
                row[k], row[bj] = row[bj], row[k]
            cols[k], cols[bj] = cols[bj], cols[k]
        for i in range(k + 1, nrows):
            f = m[i][k] / m[k][k]
            m[i][k] = 0.0
            for j in range(k + 1, ncols):
                m[i][j] -= f * m[k][j]
        r += 1
    return m, cols, r


def approx_rank(rows: Matrix, eps: float = EPS_DEFAULT) -> int:
    return approx_echelon(rows, eps)[2]


def approx_kernel(rows: Matrix, eps: float = EPS_DEFAULT) -> list[Vector]:
    m, cols, r = approx_echelon(rows, eps)
    ncols = len(cols)
    basis = []
    for f in range(r, ncols):
        vp = [0j] * ncols
        vp[f] = 1.0 + 0j
        for i in range(r - 1, -1, -1):
            s = sum(m[i][j] * vp[j] for j in range(i + 1, ncols))
            vp[i] = -(s + 0j) / m[i][i]
        v = [0j] * ncols
        for i, c in enumerate(cols):
            v[c] = vp[i]
        mag = max(abs(x) for x in v)
        lead = next(x for x in v if abs(x) > eps * mag)
        basis.append([x / lead for x in v])
    return basis


def approx_solve(rows: Matrix, rhs: Vector, eps: float = EPS_DEFAULT) -> Vector | None:
    """Least-squares solve; None when the residual is not negligible."""
    a = np.array([[complex(v) for v in row] for row in rows], dtype=complex)
    b = np.array([complex(v) for v in rhs], dtype=complex)
    x, *_ = np.linalg.lstsq(a, b, rcond=None)
    scale = max(float(np.max(np.abs(b))), float(np.max(np.abs(a))))
    if float(np.max(np.abs(a @ x - b))) > 1e3 * eps * scale:
        return None
    return list(map(complex, x))


def approx_det(rows: Matrix) -> complex:
    return complex(np.linalg.det(np.array(
        [[complex(v) for v in row] for row in rows], dtype=complex)))


def approx_inverse(rows: Matrix) -> Matrix | None:
    try:
        inv = np.linalg.inv(np.array(
            [[complex(v) for v in row] for row in rows], dtype=complex))
    except np.linalg.LinAlgError:
        return None
    return [[complex(v) for v in row] for row in inv]


# -- backend dispatch ----------------------------------------------------------


def mat_kernel(rows: Matrix, eps: float = EPS_DEFAULT) -> list[Vector]:
    if matrix_is_exact(rows):
        return exact_kernel(rows)
    return approx_kernel(rows, eps)


def mat_solve(rows: Matrix, rhs: Vector, eps: float = EPS_DEFAULT) -> Vector | None:
    if matrix_is_exact(rows) and all(is_exact(v) for v in rhs):
        return exact_solve(rows, rhs)
    return approx_solve(rows, rhs, eps)


def mat_inverse(rows: Matrix) -> Matrix | None:
    if matrix_is_exact(rows):
        return exact_inverse(rows)
    return approx_inverse(rows)


def mat_det(rows: Matrix) -> Scalar:
    if matrix_is_exact(rows):
        return exact_det(rows)
    return approx_det(rows)


# -- pencil characteristic polynomial ------------------------------------------


def pencil_charpoly(mg: Matrix, mf: Matrix) -> Vector:
    """Coefficients c_0..c_n of det(M_g - t*M_f), by evaluation-interpolation.

    Exact when both matrices are exact (n+1 integer sample points, exact
    Vandermonde solve).
    """
    n = len(mg)
    exact = matrix_is_exact(mg) and matrix_is_exact(mf)
    points = [QQi(k) if exact else complex(k) for k in range(n + 1)]
    values = []
    for lam in points:
        m = [[mg[i][j] - lam * mf[i][j] for j in range(n)] for i in range(n)]
        values.append(mat_det(m))
    vand = [[p ** k for k in range(n + 1)] for p in points]
    coeffs = mat_solve(vand, values)
    if coeffs is None:
        raise ArithmeticError("charpoly interpolation failed")
    return coeffs


# -- univariate root finding ----------------------------------------------------


# Newton steps that polish each companion-matrix root
_POLISH_STEPS = 2


def poly_roots(coeffs: list[Scalar]) -> list[complex]:
    """Roots of c_0 + c_1 t + ... + c_m t^m with c_m != 0 (companion matrix);
    DegenerateInput when 1 / c_m or a ratio c_j / c_m, so the matrix, is not
    finite (c_m may be nonzero but below float range)."""
    c = [complex(v) for v in coeffs]
    m = len(c) - 1
    if m <= 0:
        return []
    if not c[-1] or not all(cmath.isfinite(v / c[-1]) for v in (1, *c)):
        raise DegenerateInput("root polynomial beyond float range")
    if m == 1:
        return [-c[0] / c[1]]
    roots = [complex(z) for z in np.roots(c[::-1])]
    for _ in range(_POLISH_STEPS):
        polished = []
        for z in roots:
            val, der = 0j, 0j
            for a in reversed(c):
                der = der * z + val
                val = val * z + a
            if der != 0:
                step = val / der
                if abs(step) < 1.0:
                    z = z - step
            polished.append(z)
        roots = polished
    return roots


def chordal_distance(a: complex, b: complex) -> float:
    """Chordal metric between affine points on the projective line."""
    na, nb = hypot(1.0, abs(a)), hypot(1.0, abs(b))
    return abs(a - b) / (na * nb)


def cluster_roots(roots: list[complex], eps: float) -> list[tuple[complex, int]]:
    """Merge roots closer than eps in the chordal metric; returns (center, mult)."""
    parent = list(range(len(roots)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            if chordal_distance(roots[i], roots[j]) < eps:
                parent[find(j)] = find(i)
    groups: dict[int, list[complex]] = {}
    for i, z in enumerate(roots):
        groups.setdefault(find(i), []).append(z)
    out = []
    for members in groups.values():
        center = sum(members) / len(members)
        out.append((center, len(members)))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out
