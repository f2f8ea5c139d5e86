"""
Exact linear algebra over the rationals.

Matrices are lists of lists of ``fractions.Fraction`` (rows), and vectors
are row vectors, the only convention: a matrix acts as v.a, a nullspace is
{v : v.a = 0}. There is one elimination kernel, ``rref``; rank, the
nullspace, ``inverse`` (the right half of ``rref([a | I])``) and the one
solve all run on it. The solve is ``solve_rows``: it writes a whole batch of
vectors in the coordinates of a basis from one elimination.

``rref`` is a sparse Gauss-Jordan: rows are dicts of their nonzero entries,
with a column -> rows index. The reduced row echelon form of a matrix is
unique, so the pivot row within a column is free, and each column is pivoted
on the unused row with the fewest nonzeros to keep fill-in small. The column
order is not free: left to right is what makes the pivots the first
independent columns, which reach the output (the quotient coordinates of a
simple module, the emitted nullspace bases) and which put the left block of
``[a | I]`` first. The largest inputs are the change of basis of a whole
family: n = ell^r * r!, e.g. 48 at (ell, r) = (2, 3), 162 at (3, 3) and 384
at (2, 4), with integer entries and 2-17% of them nonzero. Cell-module, Gram
and intertwiner systems stay far smaller.
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


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """
    Reduced row echelon form and the list of pivot columns.

    Sparse Gauss-Jordan: rows are dicts of their nonzero entries, columns are
    taken left to right, and each column is pivoted on the unused row holding
    it with the fewest nonzeros (lowest index on ties), which keeps fill-in
    small. The result is dense: the pivot rows in pivot order, then the zero
    rows, every entry a ``Fraction``; ``a`` is left unchanged.
    """
    cols = len(a[0]) if a else 0
    rows: list[dict[int, Fraction]] = []
    holders: list[set[int]] = [set() for _ in range(cols)]
    for i, row in enumerate(a):
        sparse = {j: x for j, x in enumerate(row) if x}
        for j in sparse:
            holders[j].add(i)
        rows.append(sparse)
    used = [False] * len(rows)
    pivot_rows: list[int] = []
    pivots: list[int] = []
    for col in range(cols):
        if len(pivots) == len(rows):
            break
        candidates = [i for i in holders[col] if not used[i]]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        used[p] = True
        pivot_rows.append(p)
        pivots.append(col)
        inv = Fraction(1) / rows[p][col]
        prow = {j: x * inv for j, x in rows[p].items()}
        rows[p] = prow
        rest = [(j, y) for j, y in prow.items() if j != col]
        for i in holders[col]:
            if i == p:
                continue
            row = rows[i]
            f = -row.pop(col)
            for j, y in rest:
                if j in row:
                    x = row[j] + f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        holders[j].discard(i)
                else:
                    row[j] = f * y
                    holders[j].add(i)
        holders[col] = {p}
    zero = Fraction(0)
    reduced = [[rows[p].get(j, zero) for j in range(cols)] for p in pivot_rows]
    reduced += [[zero] * cols for _ in range(len(rows) - len(pivots))]
    return reduced, pivots


def rank(a: Matrix) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


def inverse(a: Matrix) -> Matrix:
    """
    Inverse of a square matrix, the right half of ``rref([a | I])``; raises
    SingularMatrixError.
    """
    n = len(a)
    reduced, pivots = rref(
        [row + unit for row, unit in zip(a, mat_identity(n))])
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError(f"matrix of size {n} is singular")
    return [row[n:] for row in reduced]


def left_nullspace(a: Matrix) -> list[Vector]:
    """Basis of {v : v.a = 0}, one vector per free row of ``a``, deterministic."""
    if not a:
        return []
    red, pivots = rref(transpose(a))
    basis = []
    for free in (j for j in range(len(a)) if j not in pivots):
        v = [Fraction(0)] * len(a)
        v[free] = Fraction(1)
        for i, pj in enumerate(pivots):
            v[pj] = -red[i][free]
        basis.append(v)
    return basis


def solve_rows(vectors: Matrix, rows: Matrix) -> Matrix:
    """
    The matrix whose row j is the unique c with c.rows = vectors[j], read from
    one ``rref`` of ``[rows^T | vectors^T]``. Raises SingularMatrixError
    unless its pivots are exactly the first len(rows) columns: the rows are
    dependent, or a vector lies outside their span.
    """
    k = len(rows)
    n = len(rows[0]) if rows else len(vectors[0]) if vectors else 0
    reduced, pivots = rref(
        [[row[i] for row in rows] + [v[i] for v in vectors] for i in range(n)])
    if pivots != list(range(k)):
        raise SingularMatrixError(
            f"{len(vectors)} vectors not uniquely in the span of {k} rows")
    return [[reduced[i][k + j] for i in range(k)] for j in range(len(vectors))]


def mat_pow(a: Matrix, k: int) -> Matrix:
    out = mat_identity(len(a))
    base = a
    while k:
        if k & 1:
            out = mat_mul(out, base)
        base = mat_mul(base, base)
        k >>= 1
    return out
