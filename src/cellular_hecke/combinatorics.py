"""
Partitions, multipartitions, standard tableaux and permutations.

Conventions, fixed once and used everywhere:

- a partition is a tuple of weakly decreasing positive integers (no trailing
  zeros, ``()`` is the empty partition);
- a multipartition is a tuple of ``ell`` partitions;
- a permutation of {1..r} is a tuple ``w`` of images in one-line notation,
  acting on the RIGHT: ``(i)w == w[i-1]``, and ``perm_mul(u, v)`` is "u then v";
- a tableau is a tuple per component of row tuples, entries 1..r.

Enumeration orders are fixed (first component largest first, partitions in
descending lexicographic order, tableaux sorted by their filling tuples) so
that every downstream computation is reproducible byte for byte.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from math import factorial, prod

Partition = tuple[int, ...]
Multipartition = tuple[Partition, ...]
Perm = tuple[int, ...]
Tableau = tuple[tuple[tuple[int, ...], ...], ...]


# ---------------------------------------------------------------------------
# partitions and multipartitions


def is_partition(parts: tuple[int, ...]) -> bool:
    """True if ``parts`` is weakly decreasing with all parts >= 1."""
    return all(p >= 1 for p in parts) and all(
        parts[i] >= parts[i + 1] for i in range(len(parts) - 1)
    )


def trim(parts: tuple[int, ...]) -> Partition:
    """Drop trailing zeros; raise if the result is not a partition."""
    out = tuple(parts)
    while out and out[-1] == 0:
        out = out[:-1]
    if not is_partition(out):
        raise ValueError(f"not a partition: {parts}")
    return out


@lru_cache(maxsize=None)
def partitions(n: int, max_part: int | None = None) -> tuple[Partition, ...]:
    """
    All partitions of ``n`` with parts bounded by ``max_part``, in descending
    lexicographic order.

    >>> partitions(3)
    ((3,), (2, 1), (1, 1, 1))
    """
    if n == 0:
        return ((),)
    cap = n if max_part is None else min(max_part, n)
    out = []
    for first in range(cap, 0, -1):
        for rest in partitions(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_multipartitions(ell: int, r: int) -> list[Multipartition]:
    """
    All ``ell``-multipartitions of ``r``, each exactly once, first component
    largest first and each slot in descending lexicographic order.

    >>> enumerate_multipartitions(2, 2)
    [((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1))]
    """
    if ell < 1 or r < 0:
        raise ValueError("need ell >= 1 and r >= 0")
    if ell == 1:
        return [(p,) for p in partitions(r)]
    out = []
    for k in range(r, -1, -1):
        for head in partitions(k):
            for tail in enumerate_multipartitions(ell - 1, r - k):
                out.append((head,) + tail)
    return out


def mp_size(lam: Multipartition) -> int:
    return sum(sum(p) for p in lam)


def conjugate_partition(p: Partition) -> Partition:
    """Transpose of a Young diagram. ``conjugate_partition((3, 1)) == (2, 1, 1)``."""
    if not p:
        return ()
    return tuple(sum(1 for part in p if part > j) for j in range(p[0]))


def conjugate(lam: Multipartition) -> Multipartition:
    """
    Dual multipartition: transpose each component and reverse their order.

    >>> conjugate(((3, 2), (3, 1)))
    ((2, 1, 1), (2, 2, 1))
    """
    return tuple(conjugate_partition(p) for p in reversed(lam))


def bracket(lam: Multipartition) -> tuple[int, ...]:
    """Cumulative component sizes ``[a_0, a_1, ..., a_ell]`` with ``a_0 = 0``."""
    acc = [0]
    for p in lam:
        acc.append(acc[-1] + sum(p))
    return tuple(acc)


def dominance_ge(lam: Multipartition, mu: Multipartition) -> bool:
    """
    Dominance order on multipartitions of equal size: every partial sum
    (previous components plus a row prefix) of ``lam`` is >= that of ``mu``.
    """
    if len(lam) != len(mu):
        raise ValueError("multipartitions have different lengths")
    if mp_size(lam) != mp_size(mu):
        raise ValueError("multipartitions have different sizes")
    before_l = before_m = 0
    for pl, pm in zip(lam, mu):
        depth = max(len(pl), len(pm))
        cum_l, cum_m = before_l, before_m
        for k in range(depth):
            cum_l += pl[k] if k < len(pl) else 0
            cum_m += pm[k] if k < len(pm) else 0
            if cum_l < cum_m:
                return False
        before_l += sum(pl)
        before_m += sum(pm)
    return True


# ---------------------------------------------------------------------------
# permutations (right action, 1-based one-line notation)


def perm_identity(r: int) -> Perm:
    return tuple(range(1, r + 1))


def perm_is_valid(w: tuple[int, ...]) -> bool:
    return sorted(w) == list(range(1, len(w) + 1))


def perm_mul(u: Perm, v: Perm) -> Perm:
    """Composite "u then v": ``(i)(uv) = ((i)u)v``."""
    return tuple([v[i - 1] for i in u])


def perm_inverse(w: Perm) -> Perm:
    inv = [0] * len(w)
    for i, wi in enumerate(w):
        inv[wi - 1] = i + 1
    return tuple(inv)


def perm_length(w: Perm) -> int:
    """Coxeter length = number of inversions."""
    return sum(
        1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j]
    )


def perm_sign(w: Perm) -> int:
    return -1 if perm_length(w) % 2 else 1


def perm_simple(r: int, i: int) -> Perm:
    """The transposition of i and i+1 inside S_r."""
    if not 1 <= i < r:
        raise ValueError(f"simple reflection s_{i} out of range for r={r}")
    im = list(range(1, r + 1))
    im[i - 1], im[i] = im[i], im[i - 1]
    return tuple(im)


def perm_reduced_word(w: Perm) -> tuple[int, ...]:
    """
    A reduced word ``(i_1, ..., i_k)`` with ``w = s_{i_1} s_{i_2} ... s_{i_k}``,
    chosen deterministically (peel the first position descent each time).
    """
    word = []
    im = list(w)
    while True:
        for i in range(len(im) - 1):
            if im[i] > im[i + 1]:
                word.append(i + 1)
                im[i], im[i + 1] = im[i + 1], im[i]
                break
        else:
            break
    return tuple(word)


def all_perms(r: int) -> list[Perm]:
    """All of S_r, sorted lexicographically by one-line notation."""
    return sorted(itertools.permutations(range(1, r + 1)))


# ---------------------------------------------------------------------------
# standard tableaux


def tableau_shape(t: Tableau) -> Multipartition:
    return tuple(tuple(len(row) for row in comp) for comp in t)


def row_reading_tableau(lam: Multipartition) -> Tableau:
    """Fill 1..r along rows, first component first (the maximal tableau)."""
    out = []
    nxt = 1
    for p in lam:
        comp = []
        for part in p:
            comp.append(tuple(range(nxt, nxt + part)))
            nxt += part
        out.append(tuple(comp))
    return tuple(out)


def column_reading_tableau(lam: Multipartition) -> Tableau:
    """Fill 1..r down columns, last component first (the minimal tableau)."""
    fill: list[list[list[int]]] = [[[0] * part for part in p] for p in lam]
    nxt = 1
    for ci in range(len(lam) - 1, -1, -1):
        p = lam[ci]
        width = p[0] if p else 0
        for col in range(width):
            for row in range(len(p)):
                if p[row] > col:
                    fill[ci][row][col] = nxt
                    nxt += 1
    return tuple(tuple(tuple(row) for row in comp) for comp in fill)


def standard_tableaux(lam: Multipartition) -> list[Tableau]:
    """
    All standard tableaux of shape ``lam``, in a fixed deterministic order
    (sorted by filling), as a fresh list. Generated by removing the largest
    entry from every removable box and recursing, once per shape and run.
    Tableaux of one shape compare as their row-reading words, so the
    row-reading tableau, whose word is 1, 2, ..., r, is always first.
    """
    return list(_standard_tableaux(lam))


@lru_cache(maxsize=None)
def _standard_tableaux(shape: Multipartition) -> tuple[Tableau, ...]:
    n = mp_size(shape)
    if n == 0:
        return (tuple(() for _ in shape),)
    out = []
    for ci, p in enumerate(shape):
        for ri, part in enumerate(p):
            last_in_col = ri + 1 >= len(p) or p[ri + 1] < part
            if not last_in_col:
                continue
            smaller = list(p)
            smaller[ri] -= 1
            sub = list(shape)
            sub[ci] = trim(tuple(smaller))
            for t in _standard_tableaux(tuple(sub)):
                comp = [list(map(list, c)) for c in t]
                if ri >= len(comp[ci]):
                    comp[ci].append([])
                comp[ci][ri].append(n)
                out.append(
                    tuple(tuple(tuple(row) for row in c) for c in comp)
                )
    return tuple(sorted(out))


def count_standard_tableaux(lam: Multipartition) -> int:
    """``len(standard_tableaux(lam))``: r! over every box's hook length."""
    hooks = 1
    for p in lam:
        cols = conjugate_partition(p)
        hooks *= prod(part - j + cols[j] - i - 1
                      for i, part in enumerate(p) for j in range(part))
    return factorial(mp_size(lam)) // hooks


@lru_cache(maxsize=None)
def d_of(t: Tableau) -> Perm:
    """
    The unique permutation with ``row_reading_tableau(shape) . w == t``,
    computed once per tableau and run.
    """
    lam = tableau_shape(t)
    top = row_reading_tableau(lam)
    r = mp_size(lam)
    images = [0] * r
    for comp_top, comp_t in zip(top, t):
        for row_top, row_t in zip(comp_top, comp_t):
            for a, b in zip(row_top, row_t):
                images[a - 1] = b
    return tuple(images)


def up_shapes(t: Tableau) -> list[Multipartition]:
    """Shapes of the sub-tableaux of entries <= i, for i = 1..r."""
    return [tuple(trim(tuple(sum(e <= i for e in row) for row in comp))
                  for comp in t)
            for i in range(1, mp_size(tableau_shape(t)) + 1)]


def tableau_dominance_ge(s: Tableau, t: Tableau) -> bool:
    """
    Dominance on standard tableaux: every up-shape of ``s`` dominates the
    corresponding up-shape of ``t``. Defined whenever the two tableaux share
    the same number of components and the same size (shapes may differ).
    ``verify pairing`` asks it only where its pairing matrix is nonzero.
    """
    if len(s) != len(t):
        raise ValueError("tableaux have different numbers of components")
    us, ut = up_shapes(s), up_shapes(t)
    if len(us) != len(ut):
        raise ValueError("tableaux have different sizes")
    return all(dominance_ge(a, b) for a, b in zip(us, ut))


def tableau_conjugate(t: Tableau) -> Tableau:
    """Dual tableau: component s comes from transposing component ell-s+1."""
    out = []
    for comp in reversed(t):
        width = len(comp[0]) if comp else 0
        cols = tuple(
            tuple(row[j] for row in comp if len(row) > j) for j in range(width)
        )
        out.append(cols)
    return tuple(out)


def w_lambda(lam: Multipartition) -> Perm:
    """``d`` of the minimal (column reading) tableau."""
    return d_of(column_reading_tableau(lam))


# ---------------------------------------------------------------------------
# row insertion


def rsk_insert(word: tuple[int, ...] | list[int]) -> tuple[tuple[int, ...], ...]:
    """
    Insertion tableau of a word under row insertion: each letter bumps the
    leftmost entry strictly greater than it. Rows weakly increase, columns
    strictly increase.

    >>> rsk_insert((3, 1, 4, 3, 1, 3, 1))
    ((1, 1, 1), (3, 3, 3), (4,))
    """
    rows: list[list[int]] = []
    for letter in word:
        x = letter
        for row in rows:
            for j, e in enumerate(row):
                if e > x:
                    row[j], x = x, e
                    break
            else:
                row.append(x)
                x = None
                break
        if x is not None:
            rows.append([x])
    return tuple(tuple(row) for row in rows)


# ---------------------------------------------------------------------------
# contents (used for block bookkeeping)


def content_multiset(lam: Multipartition, omega: tuple[int, ...]) -> tuple[int, ...]:
    """Sorted residues ``omega_k + col - row`` over all boxes of ``lam``."""
    out = []
    for k, p in enumerate(lam):
        for i, part in enumerate(p):
            for j in range(part):
                out.append(omega[k] + j - i)
    return tuple(sorted(out))
