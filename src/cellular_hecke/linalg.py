"""
Dense exact linear algebra over the rationals.

Matrices are lists of lists of ``fractions.Fraction`` (rows). Everything is
plain Gauss elimination with deterministic pivoting: columns left to right,
first row with a nonzero entry. The largest matrices are the change of basis
of a whole family: ``inverse`` reduces an n x 2n augmented matrix with
n = ell^r * r!, e.g. 48 x 96 at (ell, r) = (2, 3) and 162 x 324 at (3, 3).
Cell-module, Gram and intertwiner systems stay far smaller.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Vector = list[Fraction]


class SingularMatrixError(ValueError):
    pass


def mat_zero(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def mat_identity(n: int) -> Matrix:
    out = mat_zero(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def mat_copy(a: Matrix) -> Matrix:
    return [row[:] for row in a]


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    bt = transpose(b)
    return [
        [sum(x * y for x, y in zip(row, col)) for col in bt] for row in a
    ]


def vec_mat(v: Vector, a: Matrix) -> Vector:
    """Row vector times matrix."""
    cols = len(a[0]) if a else 0
    out = [Fraction(0)] * cols
    for x, row in zip(v, a):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] += x * y
    return out


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and the list of pivot columns."""
    m = mat_copy(a)
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    rank = 0
    for col in range(cols):
        pivot_row = None
        for i in range(rank, rows):
            if m[i][col] != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        inv = Fraction(1) / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        pivots.append(col)
        rank += 1
    return m, pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def inverse(a: Matrix) -> Matrix:
    """Inverse of a square matrix; raises SingularMatrixError."""
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, mat_identity(n))]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError(f"matrix of size {n} is singular")
    return [row[n:] for row in red]


def right_nullspace(a: Matrix) -> list[Vector]:
    """Basis of {x : a.x = 0}, one vector per free column, deterministic."""
    if not a:
        return []
    red, pivots = rref(a)
    cols = len(a[0])
    free = [j for j in range(cols) if j not in pivots]
    basis = []
    for fj in free:
        v = [Fraction(0)] * cols
        v[fj] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -red[i][fj]
        basis.append(v)
    return basis


def left_nullspace(a: Matrix) -> list[Vector]:
    """Basis of {v : v.a = 0}."""
    return right_nullspace(transpose(a))


def solve_right(a: Matrix, b: Vector) -> Vector:
    """One solution x of a.x = b; raises if inconsistent."""
    rows = len(a)
    cols = len(a[0]) if rows else 0
    aug = [a[i][:] + [b[i]] for i in range(rows)]
    red, pivots = rref(aug)
    if cols in pivots:
        raise SingularMatrixError("inconsistent linear system")
    x = [Fraction(0)] * cols
    for i, pj in enumerate(pivots):
        x[pj] = red[i][cols]
    return x


def solve_left(v: Vector, a: Matrix) -> Vector:
    """One solution c of c.a = v (a given by rows); raises if inconsistent."""
    return solve_right(transpose(a), v)


def mat_pow(a: Matrix, k: int) -> Matrix:
    out = mat_identity(len(a))
    base = a
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out
