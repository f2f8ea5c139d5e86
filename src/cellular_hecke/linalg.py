"""
Exact linear algebra over the rationals.

Matrices are lists of rows of exact rationals (``int`` or
``fractions.Fraction`` entries, mixed freely), and vectors are row vectors,
the only convention: a matrix acts as v.a. ``rref``, ``rank`` and
``inverse`` take sparse rows, each a dict from column to value, and
``rref`` and ``inverse`` return them. Values stay ``int`` until a division
here makes a ``Fraction``: ``vec_mat`` keeps ``int`` input in ``int``,
``rref`` and the solve return ``Fraction`` entries, and ``inverse`` returns
each entry as it solved it, an ``int`` when integral.
There is one elimination kernel, ``rref``; rank, ``inverse`` and the one
solve all run on it. The solve is ``solve_rows``: it writes a whole batch of
vectors in the coordinates of a basis from one elimination.

``inverse`` first puts its matrix in block triangular form (a perfect
matching, then strongly connected components) and eliminates only inside
the diagonal blocks, with ``rref``; the rest is substitution. The change of
basis of a family falls apart into blocks of at most 7 rows up to
(ell, r) = (3, 4) (92 at (2, 5)), and both it and its inverse are integral,
so that substitution runs on ``int`` entries and the inverse comes back in
``int``.

``rref`` is a sparse Gauss-Jordan on integer rows: each input row is scaled
to integers with no common factor, every update is fraction-free (Bareiss
1968, with the content of the row divided out in place of Bareiss's exact
division), and only the finished pivot rows are divided by their pivots
into ``Fraction``. A scaled row has the zeros of the rational one, so rows
are dicts of their nonzero entries, with a column -> rows index, as a
rational elimination would keep them. The reduced row echelon form of a
matrix is unique, so the pivot row within a column is free, and each column
is pivoted on the unused row with the fewest nonzeros to keep fill-in
small. The column order is not free: ascending is what makes the pivots
the first independent columns, which reach the output (the quotient
coordinates of a simple module) and which put the left block of ``[a | I]``
first. The largest inputs of ``inverse`` are the change of basis of a whole family:
n = ell^r * r!, e.g. 48 at (ell, r) = (2, 3), 162 at (3, 3), 384 at (2, 4)
and 1,944 at (3, 4), integral, 1-13% nonzero, its rows the elements' terms.
Cell-module, Gram and intertwiner systems stay far smaller.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

Matrix = list[list[int | Fraction]]
Vector = list[int | Fraction]


class SingularMatrixError(ValueError):
    pass


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []


def vec_mat(v: Vector, a: Matrix) -> Vector:
    """Row vector times matrix."""
    cols = len(a[0]) if a else 0
    out = [0] * cols
    for x, row in zip(v, a):
        if x:
            for j, y in enumerate(row):
                if y:
                    out[j] += x * y
    return out


def _primitive(row: dict) -> dict[int, int]:
    """
    A sparse row of rationals scaled to integers: times the lcm of its
    denominators, then divided by its content (the gcd of its entries).
    """
    den = lcm(*[x.denominator for x in row.values()])
    row = {j: x.numerator * (den // x.denominator) for j, x in row.items()}
    content = gcd(*row.values())
    if content > 1:
        row = {j: x // content for j, x in row.items()}
    return row


def rref(a: list[dict]) -> tuple[list[dict[int, Fraction]], list[int]]:
    """
    Reduced row echelon form of sparse rows (row i a dict from column to
    value, any key order, zeros dropped) and the list of pivot columns.

    Sparse Gauss-Jordan: rows are dicts of their nonzero entries, the columns
    that occur are taken in ascending order, and each column is pivoted on
    the unused row holding it with the fewest nonzeros (lowest index on
    ties), which keeps fill-in small. The elimination is fraction-free: each
    row is scaled to integers with content 1 (``_primitive``), a row i
    holding the pivot column becomes pv . row_i - f . row_p for the pivot pv
    and its entry f, both divided by their gcd, and then loses its content
    again. Each such row is a nonzero multiple of the row a rational
    elimination would hold, with the same zeros, so the pivot rule picks the
    same rows. The result is the pivot rows only, divided by their pivots,
    in pivot order: each a dict of its nonzeros, every entry a ``Fraction``;
    ``a`` is left unchanged.
    """
    rows: list[dict[int, int]] = []
    holders: dict[int, set[int]] = {}
    for i, row in enumerate(a):
        sparse = _primitive({j: x for j, x in row.items() if x})
        for j in sparse:
            holders.setdefault(j, set()).add(i)
        rows.append(sparse)
    used = [False] * len(rows)
    pivot_rows: list[int] = []
    pivots: list[int] = []
    for col in sorted(holders):
        if len(pivots) == len(rows):
            break
        candidates = [i for i in holders[col] if not used[i]]
        if not candidates:
            continue
        p = min(candidates, key=lambda i: (len(rows[i]), i))
        used[p] = True
        pivot_rows.append(p)
        pivots.append(col)
        prow = rows[p]
        pv = prow[col]
        rest = [(j, y) for j, y in prow.items() if j != col]
        for i in holders[col]:
            if i == p:
                continue
            row = rows[i]
            f = row.pop(col)
            g = gcd(pv, f)
            s, f = pv // g, f // g
            if s != 1:
                for j in row:
                    row[j] *= s
            for j, y in rest:
                if j in row:
                    x = row[j] - f * y
                    if x:
                        row[j] = x
                    else:
                        del row[j]
                        holders[j].discard(i)
                else:
                    row[j] = -f * y
                    holders[j].add(i)
            content = gcd(*row.values())
            if content > 1:
                for j in row:
                    row[j] //= content
        holders[col] = {p}
    reduced = []
    for p, col in zip(pivot_rows, pivots):
        row, pv = rows[p], rows[p][col]
        reduced.append({j: Fraction(x, pv) for j, x in row.items()})
    return reduced, pivots


def rank(a: list[dict]) -> int:
    return len(rref(a)[1])


def _exact(x):
    """``x`` as an ``int`` when it is integral, else as a ``Fraction``."""
    return x.numerator if x.denominator == 1 else x


def _perfect_matching(rows: list[dict]) -> list[int]:
    """
    owner[j], the row matched to column j, with every row holding its
    column: augmenting paths by depth-first search on an explicit stack,
    each row looking for a free column before it descends (MC21, Duff 1981).
    A matched column stays matched, so each row's look-ahead resumes where it
    stopped. Raises SingularMatrixError when no perfect matching exists (the
    matrix is structurally singular).
    """
    n = len(rows)
    owner = [-1] * n
    seen = [-1] * n
    ahead = [iter(row) for row in rows]

    def free_column(i: int) -> int:
        return next((j for j in ahead[i] if owner[j] < 0), -1)

    # the rows of a change of basis grow sparser down the order (6 nonzeros
    # a row in the last quarter against 42 in the first at (3,3)): taken last
    # first, nearly every row finds a free column with no augmenting path
    # (all 162 at (3,3), 381 of 384 at (2,4), against 92 and 208 in order)
    for root in reversed(range(n)):
        free = free_column(root)
        if free >= 0:
            owner[free] = root
            continue
        path = [root]            # rows of the alternating path
        via: list[int] = []      # via[p]: the column leading out of path[p]
        its = [iter(rows[root])]
        while its:
            for j in its[-1]:
                if seen[j] != root:
                    seen[j] = root
                    break
            else:
                its.pop()
                path.pop()
                if via:
                    via.pop()
                continue
            i = owner[j]
            via.append(j)
            path.append(i)
            free = free_column(i)
            if free >= 0:
                via.append(free)
                for p, col in zip(path, via):
                    owner[col] = p
                break
            its.append(iter(rows[i]))
        else:
            raise SingularMatrixError(f"matrix of size {n} is singular")
    return owner


def _dependency_blocks(rows: list[dict], owner: list[int]) -> list[list[int]]:
    """
    Strongly connected components of the graph with an edge from row i to
    owner[j] for every column j that row i holds, dependencies first
    (Tarjan 1972, with an explicit stack: a chain can be n rows deep).
    """
    n = len(rows)
    index = [-1] * n
    low = [0] * n
    on_stack = [False] * n
    stack: list[int] = []
    blocks = []
    count = 0
    for root in range(n):
        if index[root] >= 0:
            continue
        index[root] = low[root] = count
        count += 1
        stack.append(root)
        on_stack[root] = True
        work = [(root, iter(rows[root]))]
        while work:
            v, it = work[-1]
            for j in it:
                w = owner[j]
                if index[w] < 0:
                    index[w] = low[w] = count
                    count += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append((w, iter(rows[w])))
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work and low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
                if low[v] == index[v]:
                    block = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        block.append(w)
                        if w == v:
                            break
                    blocks.append(block)
    return blocks


def inverse(a: list[dict[int, int | Fraction]]) -> list[dict]:
    """
    Inverse of a square matrix given as sparse rows (row i a dict from
    column to value, any key order, zeros dropped), solved in block
    triangular form; ``a`` is left unchanged. Raises SingularMatrixError.
    Sparse result, in row order: row j a dict of its nonzeros, each an
    ``int`` when integral (it stays ``int`` throughout), else ``Fraction``.

    Row i of a . Y = I reads sum_j a[i][j] Y[j] = e_i. A perfect matching
    gives each row i a column c(i) with a[i][c(i)] != 0, whose Y row that
    equation determines; the other Y rows it holds are those of the rows
    matched to its other columns. The strongly connected components of that
    dependency graph (Tarjan), taken dependencies first, put ``a`` in block
    lower triangular form (Duff & Reid 1978; Pothen & Fan 1990): each block
    subtracts the Y rows already solved from its unit right-hand sides and
    multiplies by the inverse of its diagonal block, read from ``rref``.
    """
    n = len(a)
    rows = [{j: _exact(x) for j, x in row.items() if x} for row in a]
    owner = _perfect_matching(rows)
    column = [0] * n
    for j, i in enumerate(owner):
        column[i] = j
    solved: dict[int, dict] = {}
    for block in _dependency_blocks(rows, owner):
        k = len(block)
        cols = [column[i] for i in block]
        diagonal, rhs = [], []
        for p, i in enumerate(block):
            row = rows[i]
            entries = {q: row[j] for q, j in enumerate(cols) if j in row}
            entries[k + p] = 1
            diagonal.append(entries)
            acc = {i: 1}
            for j, x in row.items():
                # j is in this block, or its row is in a block solved earlier
                if j in solved:
                    for c, y in solved[j].items():
                        acc[c] = acc.get(c, 0) - x * y
            rhs.append(acc)
        reduced, pivots = rref(diagonal)
        if pivots != list(range(k)):
            raise SingularMatrixError(f"matrix of size {n} is singular")
        for q, j in enumerate(cols):
            acc = {}
            for p, f in reduced[q].items():
                if p >= k:
                    f = _exact(f)
                    for c, y in rhs[p - k].items():
                        acc[c] = acc.get(c, 0) + f * y
            solved[j] = {c: _exact(y) for c, y in acc.items() if y}
    return [solved[j] for j in range(n)]


def solve_rows(vectors: Matrix, rows: Matrix) -> Matrix:
    """
    The matrix whose row j is the unique c with c.rows = vectors[j], read from
    one ``rref`` of ``[rows^T | vectors^T]``. Raises SingularMatrixError
    unless its pivots are exactly the first len(rows) columns: the rows are
    dependent, or a vector lies outside their span.
    """
    k = len(rows)
    n = len(rows[0]) if rows else len(vectors[0]) if vectors else 0
    reduced, pivots = rref([
        dict(enumerate([row[i] for row in rows] + [v[i] for v in vectors]))
        for i in range(n)])
    if pivots != list(range(k)):
        raise SingularMatrixError(
            f"{len(vectors)} vectors not uniquely in the span of {k} rows")
    zero = Fraction(0)
    return [[reduced[i].get(k + j, zero) for i in range(k)]
            for j in range(len(vectors))]
