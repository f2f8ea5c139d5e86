import copy
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cellular_hecke.linalg import (
    SingularMatrixError,
    inverse,
    rank,
    rref,
    solve_rows,
    transpose,
    vec_mat,
)
from reference_linalg import (
    dense_rows,
    left_nullspace,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_zero,
    sparse_rows,
)


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def gauss_jordan_inverse(a):
    """Reference: the route ``inverse`` used to take, the right half of the
    sparse ``rref([a | I])``."""
    n = len(a)
    reduced, pivots = rref(sparse_rows(
        [row + unit for row, unit in zip(a, mat_identity(n))]))
    if pivots[:n] != list(range(n)):
        raise SingularMatrixError(f"matrix of size {n} is singular")
    return [row[n:] for row in dense_rows(reduced, 2 * n)]


def dense_inverse(a):
    """Reference: dense Gauss-Jordan on [a | I], columns left to right,
    pivot on the first row with a nonzero entry."""
    n = len(a)
    m = [row[:] + [Fraction(int(i == j)) for j in range(n)]
         for i, row in enumerate(a)]
    for col in range(n):
        pivot = next((i for i in range(col, n) if m[i][col] != 0), None)
        if pivot is None:
            raise SingularMatrixError(f"matrix of size {n} is singular")
        m[col], m[pivot] = m[pivot], m[col]
        inv = Fraction(1) / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for i in range(n):
            if i != col and m[i][col] != 0:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[col])]
    return [row[n:] for row in m]


def dense_rref(a):
    """Reference: the dense Gauss elimination ``rref`` used to be, columns
    left to right, pivot on the first row with a nonzero entry."""
    m = [row[:] for row in a]
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


def solve_one_reference(v, rows):
    """Reference: the per-vector solve ``solve_rows`` replaced, one dense
    elimination of the column system rows^T . c = v for each vector; free
    unknowns are set to 0, so dependent rows still give an answer."""
    k = len(rows)
    red, pivots = dense_rref(
        [[row[i] for row in rows] + [v[i]] for i in range(len(v))])
    if k in pivots:
        raise SingularMatrixError("inconsistent linear system")
    c = [Fraction(0)] * k
    for i, pj in enumerate(pivots):
        c[pj] = red[i][k]
    return c


def assert_solve_rows_matches_reference(vectors, rows):
    """Returns True when the system was solved, False when it raised."""
    before = copy.deepcopy((vectors, rows))
    try:
        expected = [solve_one_reference(v, rows) for v in vectors]
        unique = rank(sparse_rows(rows)) == len(rows)
    except SingularMatrixError:
        expected, unique = None, False
    if not unique:
        with pytest.raises(SingularMatrixError):
            solve_rows(vectors, rows)
        assert (vectors, rows) == before
        return False
    got = solve_rows(vectors, rows)
    assert (vectors, rows) == before
    assert got == expected
    assert all(type(x) is Fraction for row in got for x in row)
    assert [vec_mat(c, rows) for c in got] == vectors
    return True


def random_matrix(rng, n, density):
    """Sparse integer matrix made likely invertible by a permuted diagonal
    of non-unit entries, so the true diagonal is mostly zero."""
    a = mat_zero(n, n)
    for i in range(n):
        for j in range(n):
            if rng.random() < density:
                a[i][j] = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]))
    perm = list(range(n))
    rng.shuffle(perm)
    for i, j in enumerate(perm):
        a[i][j] = Fraction(rng.choice([-5, -2, 2, 3, 7]))
    return a


def assert_inverse_matches_reference(a):
    n = len(a)
    before = copy.deepcopy(a)
    rows = sparse_rows(a)
    # the dict rows are left as they were, values and key order alike: a
    # realization passes its elements' own terms
    rows_before = [list(row.items()) for row in rows]
    try:
        expected = dense_inverse(a)
    except SingularMatrixError:
        with pytest.raises(SingularMatrixError, match=f"size {n} is"):
            gauss_jordan_inverse(a)
        with pytest.raises(SingularMatrixError, match=f"size {n} is"):
            inverse(rows)
        assert a == before
        assert [list(row.items()) for row in rows] == rows_before
        return False
    got = inverse(rows)
    assert a == before
    assert [list(row.items()) for row in rows] == rows_before
    # sparse rows, one dict per row holding no zero
    assert type(got) is list and len(got) == n
    assert all(type(row) is dict for row in got)
    assert all(x != 0 for row in got for x in row.values())
    # each entry as it was solved: int when integral, else Fraction
    assert all(type(x) is (int if x.denominator == 1 else Fraction)
               for row in got for x in row.values())
    full = dense_rows(got, n)
    assert full == expected
    assert full == gauss_jordan_inverse(a)
    assert mat_mul(a, full) == mat_identity(n)
    return True


def planted_blocks(rng, sizes, fractions=False):
    """
    Block lower triangular matrix with invertible diagonal blocks of the
    given sizes, sparse blocks below them, and its rows and columns shuffled,
    so only a matching and the strongly connected components find the
    blocks again. Diagonal blocks are unit upper triangular times unit lower
    triangular, scaled by a non-unit when the block index is odd (det != +-1);
    every third block is a chordless cycle instead, 1 on the diagonal and 2
    at (i, i + 1 mod k), det = 1 - (-2)^k for k > 1. With ``fractions`` some entries
    are non-integral.
    """
    n = sum(sizes)
    values = [-3, -2, -1, 1, 2, 3]
    if fractions:
        values += [Fraction(1, 2), Fraction(-2, 3)]
    a = mat_zero(n, n)
    start = 0
    for b, k in enumerate(sizes):
        upper = [[Fraction(int(i == j)) if i >= j else
                  Fraction(rng.choice(values)) for j in range(k)]
                 for i in range(k)]
        lower = transpose([[x if i != j else Fraction(1) for j, x in
                            enumerate(row)] for i, row in enumerate(upper)])
        block = mat_mul(upper, lower)
        if b % 3 == 2:
            block = [[Fraction(1 if j == i else 2 if j == (i + 1) % k else 0)
                      for j in range(k)] for i in range(k)]
        elif b % 2:
            scale = rng.choice([2, -3, Fraction(5, 7)])
            block = [[x * scale for x in row] for row in block]
        for i in range(k):
            a[start + i][start:start + k] = block[i]
            for j in range(start):
                if rng.random() < 0.3:
                    a[start + i][j] = Fraction(rng.choice(values))
        start += k
    rows, cols = list(range(n)), list(range(n))
    rng.shuffle(rows)
    rng.shuffle(cols)
    return [[a[i][j] for j in cols] for i in rows]


def sparse_product_is_identity(a, inv):
    """A . A^-1 = I from the nonzeros only."""
    n = len(a)
    inv_rows = [{k: y for k, y in enumerate(row) if y} for row in inv]
    for i, row in enumerate(a):
        acc = {}
        for j, x in enumerate(row):
            if x:
                for k, y in inv_rows[j].items():
                    acc[k] = acc.get(k, 0) + x * y
        if {k: v for k, v in acc.items() if v} != {i: 1}:
            return False
    return len(inv) == n


INTEGRAL = [-3, -2, -1, 1, 2, 3]
# non-integral entries, for the scaling of each row to integers in ``rref``
NON_INTEGRAL = [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]


def random_rect(rng, rows, cols, density, values=INTEGRAL, convert=Fraction):
    return [[convert(rng.choice(values))
             if rng.random() < density else convert(0)
             for _ in range(cols)] for _ in range(rows)]


def assert_rref_matches_reference(a):
    rows = sparse_rows(a)
    before = [list(row.items()) for row in rows]
    red, pivots = rref(rows)
    assert [list(row.items()) for row in rows] == before
    expected, expected_pivots = dense_rref(a)
    assert pivots == expected_pivots
    # the pivot rows only, each a dict of its nonzeros, every one a Fraction
    assert len(red) == len(pivots)
    assert all(type(row) is dict and row for row in red)
    assert all(type(x) is Fraction and x != 0
               for row in red for x in row.values())
    cols = len(a[0]) if a else 0
    assert dense_rows(red, cols) == expected[:len(pivots)]
    assert all(x == 0 for row in expected[len(pivots):] for x in row)
    # the key order of the input rows does not matter
    assert rref([dict(reversed(row.items())) for row in rows]) \
        == (red, pivots)
    return len(pivots)


SHAPES = [(1, 1), (1, 7), (7, 1), (3, 9), (9, 3), (6, 6), (14, 5), (5, 14),
          (20, 11), (11, 20)]


def rref_cases(kind, rng):
    for rows, cols in SHAPES:
        for density in (0.1, 0.3, 0.7):
            a = random_rect(rng, rows, cols, density)
            if kind == "tall":
                yield a if rows >= cols else transpose(a)
            elif kind == "wide":
                yield a if rows <= cols else transpose(a)
            elif kind == "rank-deficient":
                k = max(1, min(rows, cols) // 2)
                yield mat_mul(random_rect(rng, rows, k, density),
                              random_rect(rng, k, cols, 0.6))
            elif kind == "zero-rows-cols":
                i, j = rng.randrange(rows), rng.randrange(cols)
                a[i] = [Fraction(0)] * cols
                for row in a:
                    row[j] = Fraction(0)
                yield a
            elif kind == "non-integral":
                yield random_rect(rng, rows, cols, density, NON_INTEGRAL)
            elif kind == "mixed":
                # int and Fraction entries side by side, as callers pass them
                yield random_rect(rng, rows, cols, density,
                                  INTEGRAL + NON_INTEGRAL, convert=lambda x: x)
            elif kind == "repeated-rows":
                yield [a[rng.randrange(rows)][:] for _ in range(rows + 2)]
            elif kind == "augmented":
                n = min(rows, cols)
                sq = random_matrix(rng, n, density)
                if n > 1 and density > 0.5:
                    sq[-1] = [2 * x for x in sq[0]]       # singular left half
                yield [row + e for row, e in zip(sq, mat_identity(n))]


@pytest.mark.parametrize("kind", ["tall", "wide", "rank-deficient",
                                  "zero-rows-cols", "non-integral", "mixed",
                                  "repeated-rows", "augmented"])
def test_rref_matches_dense_reference(kind):
    rng = random.Random(f"rref-{kind}")
    ranks = [assert_rref_matches_reference(a) for a in rref_cases(kind, rng)]
    assert len(ranks) == 3 * len(SHAPES)
    assert len(set(ranks)) > 3


@pytest.mark.parametrize("rows", [
    [], [[]], [[], []], [[0, 0], [0, 0]], [[0, 3], [0, 0], [0, -6]],
    [[1, 1, 0], [1, 0, 1], [0, 1, 1]],        # shortest-row ties everywhere
    [[2, 1, 1, 1], [4, 0, 0, 0], [0, 0, 0, 5]],  # longest row holds column 0
])
def test_rref_edge_cases_match_dense_reference(rows):
    assert_rref_matches_reference(F(rows))


@pytest.mark.parametrize("rows", [
    [[Fraction(1, 2)]],
    [[Fraction(1, 2), Fraction(-2, 3)], [Fraction(5, 4), 1]],
    # rows equal up to a rational factor: rank 1
    [[Fraction(1, 2), Fraction(-2, 3), 0], [3, -4, 0]],
    # the same numerators over different denominators: rank 2
    [[Fraction(1, 2), Fraction(1, 3)], [1, 1]],
    [[0, Fraction(5, 4), 2], [Fraction(-2, 3), 0, Fraction(1, 2)],
     [1, Fraction(5, 4), Fraction(-1, 6)]],
    [[4, 6, 0], [Fraction(2, 3), 1, Fraction(1, 2)], [0, 0, 10]],
])
def test_rref_rational_and_mixed_entries_match_dense_reference(rows):
    assert_rref_matches_reference(rows)


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 7)).flatmap(
    lambda shape: st.lists(
        st.lists(st.sampled_from([0, 0, 0, -2, -1, 1, 3, Fraction(1, 2),
                                  Fraction(-2, 3), Fraction(5, 4)]),
                 min_size=shape[1], max_size=shape[1]),
        min_size=shape[0], max_size=shape[0])))
def test_rref_matches_dense_reference_property(rows):
    # int and Fraction entries mixed, as sampled
    assert_rref_matches_reference(rows)


def test_rref_takes_and_returns_sparse_rows():
    # columns are eliminated in ascending order, whatever the key order
    rows = [{7: 2, 3: 4}, {3: 1}]
    before = [list(row.items()) for row in rows]
    red, pivots = rref(rows)
    assert pivots == [3, 7]
    assert red == [{3: 1}, {7: 1}]
    assert all(type(x) is Fraction for row in red for x in row.values())
    assert [list(row.items()) for row in rows] == before
    # zero values are dropped, and no zero row comes back
    assert rref([]) == ([], [])
    assert rref([{}]) == ([], [])
    assert rref([{0: 0}, {2: 0, 5: 3}, {}]) == ([{5: 1}], [5])
    assert rank([]) == rank([{}]) == rank([{0: 0}]) == 0


def test_inverse_matches_dense_reference():
    rng = random.Random(20231)
    invertible = 0
    for n in range(1, 31):
        density = (0.05, 0.1, 0.2, 0.4)[n % 4]
        invertible += assert_inverse_matches_reference(
            random_matrix(rng, n, density))
    assert invertible >= 25


@pytest.mark.parametrize("fractions", [False, True])
def test_inverse_of_planted_blocks(fractions):
    rng = random.Random(f"planted-{fractions}")
    for sizes in ([1], [3], [1, 1, 1], [2, 3, 1, 4], [5, 1, 1, 2, 6],
                  [1] * 12 + [3, 2], [7, 4, 1, 1, 3, 2, 1], [2, 3, 6, 1, 5]):
        a = planted_blocks(rng, sizes, fractions)
        assert assert_inverse_matches_reference(a)
        integral = all(x.denominator == 1
                       for row in dense_rows(inverse(sparse_rows(a)), len(a))
                       for x in row)
        if len(sizes) > 1:
            assert not integral      # block 1 has det != +-1
        elif not fractions:
            assert integral          # one unimodular integer block


def test_inverse_structurally_singular():
    # rows 0 and 1 both hold only column 0: no perfect matching exists
    a = F([[2, 0, 0, 0], [1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 1, 3]])
    before = copy.deepcopy(a)
    with pytest.raises(SingularMatrixError,
                       match="matrix of size 4 is singular"):
        inverse(sparse_rows(a))
    assert a == before
    assert not assert_inverse_matches_reference(a)


def test_inverse_singular_diagonal_block():
    # a perfect matching exists, but the 2 x 2 block on rows and columns
    # 1, 2 has determinant 0, below a nonsingular block on row/column 0
    a = F([[1, 0, 0, 0], [5, 2, 4, 0], [0, 1, 2, 0], [0, 3, 0, -1]])
    with pytest.raises(SingularMatrixError,
                       match="matrix of size 4 is singular"):
        inverse(sparse_rows(a))
    assert not assert_inverse_matches_reference(a)
    rng = random.Random("singular-block")
    b = planted_blocks(rng, [2, 3, 2])
    b[0] = [2 * x for x in b[1]]        # two rows of one block, dependent
    with pytest.raises(SingularMatrixError,
                       match="matrix of size 7 is singular"):
        inverse(sparse_rows(b))


def test_inverse_chain_deeper_than_the_recursion_limit():
    # a[i][i] = 1, a[i][i+1] = -1: row i waits for row i + 1, so the
    # dependency chain is n rows deep; the inverse is the upper ones
    n = sys.getrecursionlimit() + 50
    a = mat_zero(n, n)
    for i in range(n):
        a[i][i] = Fraction(1)
        if i + 1 < n:
            a[i][i + 1] = Fraction(-1)
    zero, one = Fraction(0), Fraction(1)
    assert dense_rows(inverse(sparse_rows(a)), n) \
        == [[zero] * i + [one] * (n - i) for i in range(n)]


def test_change_of_basis_inverse_at_e3r3_matches_reference():
    from cellular_hecke.algebra import AlgebraContext
    from cellular_hecke.cellular import family_m, realization
    real = realization(AlgebraContext(3, 3, (0, 1, 2)), family_m((0, 0, 0)))
    a = real.change_of_basis
    assert len(a) == 162
    assert real.change_of_basis_inv == gauss_jordan_inverse(a)
    # the terms in column order give the inverse taken in product order
    assert dense_rows(inverse([dict(sorted(elem.terms.items()))
                               for elem in real.elements]), 162) \
        == real.change_of_basis_inv


def shuffled_rows(rng, rows):
    """Each row rebuilt as a dict of its nonzeros in a random key order."""
    out = []
    for row in rows:
        items = [(j, x) for j, x in row.items() if x]
        rng.shuffle(items)
        out.append(dict(items))
    return out


def test_inverse_ignores_the_key_order_of_its_rows():
    # a realization passes its elements' terms, which arrive in product
    # order, not column order
    rng = random.Random("key-order")
    solved = 0
    for n in (4, 9, 17, 30):
        a = random_matrix(rng, n, 0.15)
        try:
            expected = dense_inverse(a)
        except SingularMatrixError:
            continue
        solved += 1
        for _ in range(3):
            assert dense_rows(inverse(shuffled_rows(rng, sparse_rows(a))),
                              n) == expected
    assert solved >= 3
    for sizes in ([2, 3, 1, 4], [7, 4, 1, 1, 3, 2, 1]):
        a = planted_blocks(rng, sizes)
        assert dense_rows(inverse(shuffled_rows(rng, sparse_rows(a))),
                          len(a)) == dense_inverse(a)


def test_change_of_basis_inverse_at_e2r4_sparse_check():
    from cellular_hecke.algebra import AlgebraContext
    from cellular_hecke.cellular import family_m, family_n, realization
    ctx = AlgebraContext(2, 4, (0, 1))
    for family in (family_m((0, 1)), family_n((0, 1))):
        real = realization(ctx, family)
        assert len(real.change_of_basis) == 384
        assert sparse_product_is_identity(real.change_of_basis,
                                          real.change_of_basis_inv)


def test_sparse_identity_check_catches_a_wrong_inverse():
    a = F([[2, 1], [1, 1]])
    assert sparse_product_is_identity(a, F([[1, -1], [-1, 2]]))
    assert not sparse_product_is_identity(a, F([[1, -1], [-1, 1]]))


def test_inverse_zero_diagonal_and_ties():
    # every diagonal entry is zero, so each column's pivot is another row
    assert_inverse_matches_reference(F([[0, 2], [-3, 0]]))
    # all rows have two nonzeros: the shortest-row pivot ties everywhere
    assert_inverse_matches_reference(F([[1, 1, 0], [1, 0, 1], [0, 1, 1]]))
    assert_inverse_matches_reference(
        F([[0, 2, -1, 0], [3, 0, 0, 1], [0, 1, 0, -4], [5, 0, 2, 0]]))


@pytest.mark.parametrize("rows", [
    [[1, 2, 0], [0, 0, 0], [3, 1, 1]],        # zero row
    [[1, 2, 0], [0, 1, 5], [1, 2, 0]],        # duplicate row
    [[1, 2, 0], [0, 1, 5], [2, 5, 5]],        # row 3 = 2 row 1 + row 2
    [[0, 1, 2], [0, 3, 4], [0, 5, 6]],        # zero column
])
def test_inverse_singular_raises_with_size(rows):
    a = sparse_rows(F(rows))
    before = copy.deepcopy(a)
    with pytest.raises(SingularMatrixError,
                       match="matrix of size 3 is singular"):
        inverse(a)
    assert a == before


@settings(derandomize=True, max_examples=60, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.lists(
    st.lists(st.integers(-3, 3), min_size=n, max_size=n),
    min_size=n, max_size=n)))
def test_inverse_round_trip_property(rows):
    a = F(rows)
    try:
        inv = dense_rows(inverse(sparse_rows(a)), len(a))
    except SingularMatrixError:
        assert rank(sparse_rows(a)) < len(a)
        return
    assert mat_mul(a, inv) == mat_identity(len(a))
    assert mat_mul(inv, a) == mat_identity(len(a))


def test_inverse_round_trip():
    a = F([[2, 1], [1, 1]])
    assert mat_mul(a, dense_rows(inverse(sparse_rows(a)), 2)) \
        == mat_identity(2)


def test_singular_raises():
    with pytest.raises(SingularMatrixError):
        inverse(sparse_rows(F([[1, 2], [2, 4]])))


def test_rank_and_nullspaces():
    a = F([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert rank(sparse_rows(a)) == 2
    assert left_nullspace(a) == F([[-2, 1, 0]])
    # one vector per free row, in row order
    b = F([[1, 0], [2, 0], [0, 1], [0, 3], [1, 1]])
    kernel = left_nullspace(b)
    assert kernel == F([[-2, 1, 0, 0, 0], [0, 0, -3, 1, 0], [-1, 0, -1, 0, 1]])
    assert all(x == 0 for v in kernel for x in vec_mat(v, b))


def test_solve_rows_small():
    rows = F([[1, 1], [0, 1]])
    assert solve_rows(F([[3, 2], [0, 0], [1, 1]]), rows) == F(
        [[3, -1], [0, 0], [1, 0]])
    assert solve_rows([], rows) == []
    assert solve_rows(F([[0, 0]]), []) == [[]]


def test_solve_inconsistent():
    # a vector outside the span of the rows
    with pytest.raises(SingularMatrixError, match="not uniquely"):
        solve_rows(F([[1, 1], [1, 2]]), F([[1, 1]]))
    with pytest.raises(SingularMatrixError):
        solve_rows(F([[1, 2]]), [])
    # dependent rows, even with every vector in their span
    with pytest.raises(SingularMatrixError, match="not uniquely"):
        solve_rows(F([[2, 0]]), F([[1, 0], [2, 0]]))


def test_solve_rows_matches_per_vector_reference():
    rng = random.Random(20240)
    solved = refused = 0
    for k, n in [(1, 1), (1, 5), (3, 3), (3, 8), (6, 6), (5, 12), (10, 14)]:
        for density in (0.2, 0.5, 0.9):
            rows = random_rect(rng, k, n, density)
            combos = random_rect(rng, 4, k, 0.6)
            inside = [vec_mat(c, rows) for c in combos]
            solved += assert_solve_rows_matches_reference(inside, rows)
            # one vector off the span, unless the rows span everything
            outside = inside + random_rect(rng, 1, n, 0.7)
            refused += not assert_solve_rows_matches_reference(outside, rows)
            if k > 1:
                dependent = rows + [[2 * x for x in rows[0]]]
                assert not assert_solve_rows_matches_reference(
                    inside, dependent)
    assert solved >= 15
    assert refused >= 10


@settings(derandomize=True, max_examples=120, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(1, 5),
                 st.integers(0, 3)).flatmap(
    lambda shape: st.tuples(*(
        st.lists(st.lists(st.sampled_from([0, 0, -2, -1, 1, 3]),
                          min_size=shape[1], max_size=shape[1]),
                 min_size=size, max_size=size)
        for size in (shape[2], shape[0])))))
def test_solve_rows_matches_reference_property(system):
    vectors, rows = system
    assert_solve_rows_matches_reference(F(vectors), F(rows))


def test_rref_pivots_deterministic():
    a = F([[0, 1, 2], [0, 2, 4], [1, 0, 0]])
    red, pivots = rref(sparse_rows(a))
    assert pivots == [0, 1]
    assert red[0][0] == 1 and red[1][1] == 1


def test_mat_pow():
    a = F([[1, 1], [0, 1]])
    assert mat_pow(a, 5)[0][1] == 5
