"""
Cellular structures on the degenerate cyclotomic Hecke algebra.

Four families of cellular bases are realized, all indexed by pairs of
standard tableaux of multipartition shapes:

- kind "m":   d(s)^{-1} . pi_[lam] . (trivial/sign Young sums twisted by c) . d(t)
- kind "n":   d(s)^{-1} . pi~_[lam] . (sign/trivial Young sums twisted by c) . d(t)
- kind "mxi": the c = 0 "m" family with the omega entries permuted by xi
- kind "nxi": the c = 0 "n" family with the omega entries permuted by xi

From a family we compute the change of basis to the monomial basis (its
invertibility doubles as the spanning proof), cell modules with generator
matrices and Gram forms, simple quotients, joint generalized x-eigenvalues
(blocks), contragredient duals and exact intertwiner spaces. Values stay
``int`` (change of basis, actions, Gram forms) until a division inside
``linalg`` makes a ``Fraction``. No floats anywhere.

A cell module's action rho is read off the top-row products m_{top,t} . g
alone (``FamilyRealization.products``; ``verify cellular`` proves from them
that every left index gives rho). Its Gram form comes from rho, with
no product in the algebra (Graham-Lehrer 1996; Mathas 1999, ch. 2): m_{top,s}
. h agrees with sum_u rho(h)_{s,u} m_{top,u} modulo higher cells, so
<s,t> = rho(m_{t,top})_{s,top}, and m_{t,top} = d(t)^{-1} . m_{top,top}
because d(top) is the identity. The blocks come from the same action: each
x_k acts lower triangularly on a cell module in the tableau order
(Jucys-Murphy elements on a Murphy-type basis; Mathas 1999, ch. 3), so the
joint generalized eigenvalues are the diagonal tuples, read off with no
eigenvalue search. A realization is built only up to ``MAX_REALIZATION_DIM``:
its n x n change of basis C is inverted exactly; C and C^-1 are sparse rows.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import namedtuple
from operator import mul

from .algebra import AlgebraContext, Element, right_translate
from .combinatorics import (
    Multipartition,
    Perm,
    bracket,
    d_of,
    enumerate_multipartitions,
    mp_size,
    perm_inverse,
    perm_is_valid,
    perm_reduced_word,
    perm_sign,
    perm_simple,
    row_reading_tableau,
    standard_tableaux,
)
from .linalg import (
    Matrix,
    SingularMatrixError,
    Vector,
    inverse,
    rank,
    rref,
    solve_rows,
    transpose,
    vec_mat,
)


class BasisFamily(namedtuple("BasisFamily", "kind c xi")):
    __slots__ = ()

    def __new__(cls, kind: str,        # "m" | "n" | "mxi" | "nxi"
                c: tuple[int, ...] | None = None, xi: Perm | None = None):
        if kind in ("m", "n"):
            if c is None or any(b not in (0, 1) for b in c):
                raise ValueError("m/n family needs a 01-sequence c")
            if xi is not None:
                raise ValueError("m/n family takes no xi")
        elif kind in ("mxi", "nxi"):
            if xi is None or not perm_is_valid(xi):
                raise ValueError("mxi/nxi family needs a permutation xi")
            if c is not None:
                raise ValueError("mxi/nxi family takes no c")
        else:
            raise ValueError(f"unknown family kind {kind!r}")
        return super().__new__(cls, kind, c, xi)

    def label(self) -> str:
        if self.kind in ("m", "n"):
            return f"{self.kind}[{','.join(map(str, self.c))}]"
        return f"{self.kind}[{','.join(map(str, self.xi))}]"


def family_m(c: tuple[int, ...]) -> BasisFamily:
    return BasisFamily("m", c=tuple(c))


def family_n(c: tuple[int, ...]) -> BasisFamily:
    return BasisFamily("n", c=tuple(c))


def family_m_xi(xi: Perm) -> BasisFamily:
    return BasisFamily("mxi", xi=tuple(xi))


# ---------------------------------------------------------------------------
# seed elements


def row_stabilizer(lam: Multipartition, component: int) -> list[Perm]:
    """Row stabilizer of the given component of the top tableau, in S_r."""
    r = mp_size(lam)
    top = row_reading_tableau(lam)
    rows = [row for row in top[component]]
    perms = []
    for choice in itertools.product(
        *[itertools.permutations(row) for row in rows]
    ):
        images = list(range(1, r + 1))
        for row, img in zip(rows, choice):
            for a, b in zip(row, img):
                images[a - 1] = b
        perms.append(tuple(images))
    return perms


def young_sum(ctx: AlgebraContext, lam: Multipartition,
              use_sign: tuple[bool, ...]) -> Element:
    """
    Product over components of the row-stabilizer sums of the top tableau,
    trivial or sign-weighted per component. Built once per (label, signs)
    on the context and shared by every seed that asks for it.
    """
    cache = vars(ctx).setdefault("_young_sums", {})
    out = cache.get((lam, use_sign))
    if out is None:
        out = ctx.one()
        for i in range(len(lam)):
            terms = {}
            for w in row_stabilizer(lam, i):
                coef = perm_sign(w) if use_sign[i] else 1
                terms[ctx.key((0,) * ctx.r, w)] = coef
            out = out * Element(ctx, terms)
        cache[(lam, use_sign)] = out
    return out


def x_lambda_c(ctx: AlgebraContext, lam: Multipartition,
               c: tuple[int, ...]) -> Element:
    """Trivial sums on c_i = 0 components, sign sums on c_i = 1 components."""
    return young_sum(ctx, lam, tuple(bool(b) for b in c))


def y_lambda_c(ctx: AlgebraContext, lam: Multipartition,
               c: tuple[int, ...]) -> Element:
    """Sign sums on c_i = 0 components, trivial sums on c_i = 1 components."""
    return young_sum(ctx, lam, tuple(not b for b in c))


def _pi_factor(ctx: AlgebraContext, a: int, w: int) -> Element:
    """(x_1 - w)(x_2 - w)...(x_a - w); the empty product for a = 0."""
    out = ctx.one()
    for m in range(1, a + 1):
        out = out * (ctx.generator_x(m) - ctx.one() * w)
    return out


def pi_bracket(ctx: AlgebraContext, lam: Multipartition,
               omega: tuple[int, ...]) -> Element:
    """
    Ordered product of the block factors: the i-th factor kills the first
    a_i variables at the (i+1)-st entry of ``omega``, i = 1..ell-1, for the
    parameter vector of a family (``family_omega``). It depends on ``lam``
    only through its bracket, so it is built once per (bracket, omega) on
    the context and shared by every seed, whatever its twist.
    """
    a = bracket(lam)
    cache = vars(ctx).setdefault("_pi_brackets", {})
    out = cache.get((a, omega))
    if out is None:
        out = ctx.one()
        for i in range(1, ctx.ell):
            out = out * _pi_factor(ctx, a[i], omega[i])
        cache[(a, omega)] = out
    return out


def pi_tilde_bracket(ctx: AlgebraContext, lam: Multipartition,
                     omega: tuple[int, ...]) -> Element:
    """Companion product running through ``omega`` in reverse order."""
    return pi_bracket(ctx, lam, tuple(reversed(omega)))


def family_omega(ctx: AlgebraContext, family: BasisFamily) -> tuple[int, ...]:
    """Parameter vector used inside the block factors of this family."""
    if family.kind in ("mxi", "nxi"):
        return tuple(ctx.omega[family.xi[i] - 1] for i in range(ctx.ell))
    return ctx.omega


def cell_seed(ctx: AlgebraContext, family: BasisFamily,
              lam: Multipartition) -> Element:
    """
    The s = t = top-tableau cellular element of the family at ``lam``.

    The xi families are the untwisted m/n families with permuted parameters
    (``family_omega``), so they take the twist 0.

    For the n-type families the per-component twist is read through the
    component reversal (the twist of slot i sits on the mirror slot), which
    is what makes the m/n pairing unitriangular for every twist sequence;
    with the aligned reading the unitriangularity fails already at
    (ell, r) = (2, 2) with mixed twists. A family whose c or xi does not
    have ell entries raises ValueError.
    """
    if len(family.c or family.xi) != ctx.ell:
        raise ValueError(
            f"family {family.label()} does not have ell={ctx.ell} entries")
    om = family_omega(ctx, family)
    c = (0,) * ctx.ell if family.c is None else family.c
    if family.kind in ("m", "mxi"):
        return pi_bracket(ctx, lam, om) * x_lambda_c(ctx, lam, c)
    crev = tuple(reversed(c))
    return pi_tilde_bracket(ctx, lam, om) * y_lambda_c(ctx, lam, crev)


# ---------------------------------------------------------------------------
# full-family realization (change of basis, expansions)


# Largest algebra dimension ell^r * r! that gets a realization. One
# realization of m[0,...,0] peaks at 44 MiB after 1.1 s CPU at (3,4), omega
# 0,1,2, and at 67 MiB after 2.7 s at (2,5), omega 0,1 (2-core Xeon, Python
# 3.11). (3,4), 1,944, and (5,3), 750, pass; (2,5), 3,840, does not.
MAX_REALIZATION_DIM = 2000


def check_realization_size(ell: int, r: int) -> None:
    """Raise ValueError when H(ell, r) is above ``MAX_REALIZATION_DIM``."""
    n = ell ** r * math.factorial(r)
    if n > MAX_REALIZATION_DIM:
        raise ValueError(
            f"ell={ell}, r={r}: the algebra has dimension {n}, above the "
            f"limit {MAX_REALIZATION_DIM} for a cellular realization")


def check_label(ell: int, r: int, lam: Multipartition) -> None:
    """Raise ValueError when ``lam`` is not a label of H(ell, r)."""
    if lam not in enumerate_multipartitions(ell, r):
        raise ValueError(
            f"lambda {[list(p) for p in lam]} is not a label at "
            f"ell={ell}, r={r}: need {ell} partitions of total size {r}")


# index of the row-reading (top) tableau among a label's tableaux: it sorts
# first in ``standard_tableaux``
TOP = 0


class FamilyRealization:
    """
    Every cellular element of one family expanded over the monomial basis,
    with the inverse change of basis cached. Built once per (context, family)
    and immutable afterwards. C, the change of basis, has a row per element,
    its ``terms``; C^-1 is kept as the dict rows ``inverse`` returns for them,
    ``inverse_rows``. Neither is dense, and entries are ``int`` (a ``Fraction``
    only if not integral, which no family has shown). ``expand(h, cells)``
    reads coordinates at a few cells, for the generator actions and so the
    Gram form; ``coordinates(h)`` reads every nonzero one, far cheaper at
    every cell, for ``verify cellular``.
    """

    def __init__(self, ctx: AlgebraContext, family: BasisFamily):
        check_realization_size(ctx.ell, ctx.r)
        self.ctx = ctx
        self.family = family
        self.labels = enumerate_multipartitions(ctx.ell, ctx.r)
        self._label_indices = {lam: li for li, lam in enumerate(self.labels)}
        self.tableaux = [standard_tableaux(lam) for lam in self.labels]
        self.cells: list[tuple[int, int, int]] = []
        self.elements: list[Element] = []
        for li, lam in enumerate(self.labels):
            seed = cell_seed(ctx, family, lam)
            tabs = self.tableaux[li]
            for si, s in enumerate(tabs):
                left = ctx.from_permutation(perm_inverse(d_of(s))) * seed
                for ti, t in enumerate(tabs):
                    self.cells.append((li, si, ti))
                    self.elements.append(right_translate(left, d_of(t)))
        self.cell_index = {cell: i for i, cell in enumerate(self.cells)}
        try:
            self.inverse_rows = inverse([elem.terms for elem in self.elements])
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"cellular family {family.label()} does not span "
                f"H({ctx.ell},{ctx.r})"
            ) from exc

    @property
    def change_of_basis(self) -> Matrix:
        """C as dense rows, built from ``elements`` on each read, never kept.
        Only tests and the benchmark tracer's ``linalg.cob_nnz`` read it; it
        can go once that tracer counts sparse rows."""
        n = self.ctx.dimension()
        return [[elem.terms.get(key, 0) for key in range(n)]
                for elem in self.elements]

    @property
    def change_of_basis_inv(self) -> Matrix:
        """C^-1 as dense rows from ``inverse_rows``, built on each read. Only
        tests and the benchmark tracer's ``linalg.cob_inv_*`` read it; both
        views can go once that tracer counts sparse rows."""
        n = self.ctx.dimension()
        return [[row.get(j, 0) for j in range(n)] for row in self.inverse_rows]

    def expand(self, h: Element,
               cells: list[tuple[int, int, int]]) -> Vector:
        """
        Coordinates of ``h`` at the given (li, si, ti) cells, read from the
        sparse inverse rows of its terms at the cells' columns only. They are
        summed as they come: ``int`` when ``h`` and the inverse are integral.
        """
        inv = self.inverse_rows
        rows = [(coef, inv[key]) for key, coef in h.terms.items()]
        cols = [self.cell_index[cell] for cell in cells]
        return [sum([coef * row[col] for coef, row in rows if col in row])
                for col in cols]

    def element(self, li: int, si: int, ti: int) -> Element:
        return self.elements[self.cell_index[(li, si, ti)]]

    def products(self, li: int, g: int) -> list[Element]:
        """m_{top,t} . g for each tableau t of label ``li``, in order: g =
        0..r-2 is s_1..s_{r-1}, by a relabel (``right_translate``), and
        g = r-1..2r-2 is x_1..x_r, by a product."""
        r = self.ctx.r
        if not 0 <= g < 2 * r - 1:
            raise ValueError(f"generator index {g} out of range 0..{2 * r - 2}")
        elems = [self.element(li, TOP, ti)
                 for ti in range(len(self.tableaux[li]))]
        if g < r - 1:
            s = perm_simple(r, g + 1)
            return [right_translate(elem, s) for elem in elems]
        x = self.ctx.generator_x(g - r + 2)
        return [elem * x for elem in elems]

    def action(self, li: int, g: int) -> Matrix:
        """The generator ``g`` on the cell module of label ``li``: row t is
        ``products(li, g)[t]`` at the cells (li, top, *)."""
        cells = [(li, TOP, ui) for ui in range(len(self.tableaux[li]))]
        return [self.expand(h, cells) for h in self.products(li, g)]

    def coordinates(self, h: Element) -> dict[int, int]:
        """Every nonzero coordinate of ``h`` by cell index: the sum of coef .
        inverse_rows[key] over its terms."""
        out: dict[int, int] = {}
        for key, coef in h.terms.items():
            for col, x in self.inverse_rows[key].items():
                out[col] = out.get(col, 0) + coef * x
        return {col: x for col, x in out.items() if x}

    def label_index(self, lam: Multipartition) -> int:
        """Position of ``lam`` in ``labels``; ValueError for a non-label."""
        try:
            return self._label_indices[lam]
        except (KeyError, TypeError):
            check_label(self.ctx.ell, self.ctx.r, lam)
            raise


def realization(ctx: AlgebraContext, family: BasisFamily) -> FamilyRealization:
    cache = vars(ctx).setdefault("_cellular_realizations", {})
    if family not in cache:
        cache[family] = FamilyRealization(ctx, family)
    return cache[family]


# ---------------------------------------------------------------------------
# modules


class ModuleRealization:
    """
    Generator matrices of a right module, row-vector convention: the 2r - 1
    matrices of s_1..s_{r-1}, x_1..x_r, numbered as in
    ``FamilyRealization.action``.
    """

    def __init__(self, ctx: AlgebraContext, actions: list[Matrix]):
        self.ctx = ctx
        self.actions = actions

    @property
    def dim(self) -> int:
        return len(self.actions[0])


class CellModuleRealization(ModuleRealization):
    """A cell module: its label, Gram form and simple quotient."""

    def __init__(self, ctx: AlgebraContext, actions: list[Matrix],
                 label: Multipartition, gram: Matrix):
        super().__init__(ctx, actions)
        self.label = label
        self.gram = gram

    @functools.cached_property
    def simple(self) -> ModuleRealization | None:
        """The simple quotient, built on first read (``simple_module``);
        None when the Gram form is zero."""
        return simple_module(self)


def cell_module(ctx: AlgebraContext, family: BasisFamily,
                lam: Multipartition) -> CellModuleRealization:
    """
    Cell module of the family at ``lam``, built once per (family, label) on
    the context and shared by every caller after that, so its simple
    quotient (``simple``) is built once too. The generator action
    is read off the cellular expansion of (top-row cell element) * generator
    (``FamilyRealization.action``), keeping only the same-label coefficients
    at the top left index. The Gram form uses no algebra product:
    <s,t> = rho(m_{t,top})_{s,top} for the action rho, evaluated on the
    seed's terms and d(t)^{-1} by the generator matrices along reduced words.
    The matrices are kept as computed, in ``int``: only a division inside
    ``linalg`` makes a ``Fraction``.
    """
    real = realization(ctx, family)
    li = real.label_index(lam)
    cache = vars(ctx).setdefault("_cell_modules", {})
    module = cache.get((family, lam))
    if module is not None:
        return module
    tabs = real.tableaux[li]
    r = ctx.r
    actions = [real.action(li, g) for g in range(2 * r - 1)]

    # column t of the Gram matrix is rho(d(t)^{-1}) . rho(seed) . e_top, and
    # rho(h) sends a column vector v to the matrix product rho(h) . v
    def times(mat: Matrix, v: Vector) -> Vector:
        return [sum(map(mul, row, v)) for row in mat]

    def by_word(w: Perm, v: Vector) -> Vector:
        for i in reversed(perm_reduced_word(w)):
            v = times(actions[i - 1], v)
        return v

    unit = [int(u == TOP) for u in range(len(tabs))]
    by_perm: dict[Perm, Vector] = {}
    column = [0] * len(tabs)
    for key, coef in real.element(li, TOP, TOP).terms.items():
        exps, w = ctx.monomial(key)
        if w not in by_perm:
            by_perm[w] = by_word(w, unit)
        v = by_perm[w]
        for k, a in enumerate(exps):
            for _ in range(a):
                v = times(actions[r - 1 + k], v)
        column = [y + coef * z for y, z in zip(column, v)]
    gram = transpose([by_word(perm_inverse(d_of(t)), column) for t in tabs])

    module = cache[(family, lam)] = CellModuleRealization(
        ctx=ctx, actions=actions, label=lam, gram=gram)
    return module


def simple_module(module: CellModuleRealization) -> ModuleRealization | None:
    """
    Quotient of the cell module by the radical of its Gram form, realized on
    the pivot coordinates P of the reduced Gram matrix G; None when G is
    zero (the label carries no simple).

    Row i of a generator g's quotient action is the c with
    c . G[P] = e_i . rho(g) . G. The rows G[P] are a basis of G's row space,
    and G is symmetric, so the columns P are a basis of its column space
    too and the block G[P][P] is invertible: c is already fixed by the
    pivot columns, c . G[P][P] = (e_i . rho(g) . G)[P]. Every generator's
    rows are solved in one elimination against that block.
    """
    gram = module.gram
    _, pivots = rref([dict(enumerate(row)) for row in gram])
    if not pivots:
        return None
    columns = [[row[j] for j in pivots] for row in gram]
    solved = solve_rows(
        [vec_mat(mat[i], columns) for mat in module.actions for i in pivots],
        [columns[i] for i in pivots])
    k = len(pivots)
    return ModuleRealization(module.ctx, [
        solved[g * k:(g + 1) * k] for g in range(len(module.actions))])


def contragredient(module) -> ModuleRealization:
    """
    Dual module: the anti-automorphism fixes every generator, so the dual
    action is simply the transposed matrices.
    """
    return ModuleRealization(module.ctx, list(map(transpose, module.actions)))


def intertwiner_dim(mod_a, mod_b) -> int:
    """
    Dimension of the space of module maps, solved exactly from the commuting
    equations phi . g_b = g_a . phi for s_1..s_{r-1} and x_1, the first r
    actions (these generate the algebra). Each pair (g_a, g_b) is first
    multiplied by the lcm of all its denominators: that scales both sides of
    its d_a . d_b equations by the same nonzero integer, so they keep their
    solutions, and they are written as ``int`` dict rows, from unknown
    p . d_b + q (phi's entry (p, q)) to coefficient, with no ``Fraction``
    arithmetic.
    """
    if mod_a.ctx is not mod_b.ctx:
        raise ValueError("modules live over different contexts")
    da, db = mod_a.dim, mod_b.dim
    if da == 0 or db == 0:
        return 0
    r = mod_a.ctx.r
    rows = []
    for pair in zip(mod_a.actions[:r], mod_b.actions[:r]):
        den = math.lcm(*[x.denominator
                         for mat in pair for row in mat for x in row])
        ga, gb = [[[x.numerator * (den // x.denominator) for x in row]
                   for row in mat] for mat in pair]
        for i in range(da):
            for j in range(db):
                row = {p * db + j: x for p, x in enumerate(ga[i]) if x}
                for q in range(db):
                    if gb[q][j]:
                        row[i * db + q] = row.get(i * db + q, 0) - gb[q][j]
                rows.append(row)
    return da * db - rank(rows)


def block_of(module) -> dict[tuple[int, ...], int]:
    """
    Joint generalized eigenvalues of the commuting x_k action with their
    multiplicities, read off the diagonal. Each x_k acts lower triangularly
    on a cell module in the tableau order (Jucys-Murphy elements on a
    Murphy-type basis: Mathas 1999, ch. 3), so every flag span(e_1..e_t) is
    invariant and the joint generalized eigenspace of a vector of
    eigenvalues has the dimension of its count among the diagonal tuples
    (x_1[t][t], ..., x_r[t][t]). An x_k that is not lower triangular, or a
    non-integer diagonal entry, raises ValueError.
    """
    n = module.dim
    xs = module.actions[module.ctx.r - 1:]
    for k, x in enumerate(xs, 1):
        if any(x[t][u] for t in range(n) for u in range(t + 1, n)):
            raise ValueError(
                f"x_{k} does not act triangularly on the module basis")
    counts: dict[tuple[int, ...], int] = {}
    for t in range(n):
        diagonal = tuple(x[t][t] for x in xs)
        if any(y.denominator != 1 for y in diagonal):
            raise ValueError(
                "non-integer generalized eigenvalue: are the parameters "
                "integral?")
        key = tuple(int(y) for y in diagonal)
        counts[key] = counts.get(key, 0) + 1
    return dict(sorted(counts.items()))


def block_alpha(module) -> tuple[int, ...]:
    """
    Sorted residue multiset shared by every generalized eigenvalue vector of
    the module; defined only when the module lies in a single block.
    """
    vecs = block_of(module)
    alphas = {tuple(sorted(v)) for v in vecs}
    if len(alphas) > 1:
        raise ValueError("module meets several blocks")
    return alphas.pop() if alphas else ()


# ---------------------------------------------------------------------------
# family-level tables


def simples_table(ctx: AlgebraContext, family: BasisFamily) -> list[dict]:
    """Rows (label, family, cell dim, simple dim, block) for every label."""
    rows = []
    for lam in enumerate_multipartitions(ctx.ell, ctx.r):
        module = cell_module(ctx, family, lam)
        rows.append({
            "lambda": lam,
            "family": family.label(),
            "dim_cell": module.dim,
            "dim_simple": rank([dict(enumerate(row)) for row in module.gram]),
            "block": list(block_alpha(module)),
        })
    return rows
