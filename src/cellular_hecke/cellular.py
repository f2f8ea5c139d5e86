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
(blocks), contragredient duals and exact intertwiner spaces. Everything is a
rational matrix; no floats anywhere.

The Gram form of a cell module comes from the module's own action rho, with
no product in the algebra (Graham-Lehrer 1996; Mathas 1999, ch. 2): m_{top,s}
. h agrees with sum_u rho(h)_{s,u} m_{top,u} modulo higher cells, so
<s,t> = rho(m_{t,top})_{s,top}, and m_{t,top} = d(t)^{-1} . m_{top,top}
because d(top) is the identity. The blocks come from the same action: each
x_k acts lower triangularly on a cell module in the tableau order
(Jucys-Murphy elements on a Murphy-type basis; Mathas 1999, ch. 3), so the
joint generalized eigenvalues are the diagonal tuples, read off with no
eigenvalue search. A realization is built only up to
``MAX_REALIZATION_DIM``: its n x n change of basis is inverted exactly.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .algebra import AlgebraContext, Element, right_translate
from .combinatorics import (
    Multipartition,
    Perm,
    Tableau,
    bracket,
    d_of,
    enumerate_multipartitions,
    mp_size,
    perm_inverse,
    perm_is_valid,
    perm_reduced_word,
    perm_sign,
    row_reading_tableau,
    standard_tableaux,
    tableau_shape,
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


@dataclass(frozen=True)
class BasisFamily:
    kind: str                      # "m" | "n" | "mxi" | "nxi"
    c: tuple[int, ...] | None = None
    xi: Perm | None = None

    def __post_init__(self):
        if self.kind in ("m", "n"):
            if self.c is None or any(b not in (0, 1) for b in self.c):
                raise ValueError("m/n family needs a 01-sequence c")
            if self.xi is not None:
                raise ValueError("m/n family takes no xi")
        elif self.kind in ("mxi", "nxi"):
            if self.xi is None or not perm_is_valid(self.xi):
                raise ValueError("mxi/nxi family needs a permutation xi")
            if self.c is not None:
                raise ValueError("mxi/nxi family takes no c")
        else:
            raise ValueError(f"unknown family kind {self.kind!r}")

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


def family_n_xi(xi: Perm) -> BasisFamily:
    return BasisFamily("nxi", xi=tuple(xi))


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
    trivial or sign-weighted per component.
    """
    out = ctx.one()
    for i in range(len(lam)):
        terms = {}
        for w in row_stabilizer(lam, i):
            coef = perm_sign(w) if use_sign[i] else 1
            terms[((0,) * ctx.r, w)] = coef
        out = out * Element(ctx, terms)
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
               omega: tuple[int, ...] | None = None) -> Element:
    """
    Ordered product of the block factors: the i-th factor kills the first
    a_i variables at the (i+1)-st parameter, i = 1..ell-1.
    """
    om = ctx.omega if omega is None else omega
    a = bracket(lam)
    out = ctx.one()
    for i in range(1, ctx.ell):
        out = out * _pi_factor(ctx, a[i], om[i])
    return out


def pi_tilde_bracket(ctx: AlgebraContext, lam: Multipartition,
                     omega: tuple[int, ...] | None = None) -> Element:
    """Companion product running through the parameters in reverse order."""
    om = ctx.omega if omega is None else omega
    return pi_bracket(ctx, lam, tuple(reversed(om)))


def family_omega(ctx: AlgebraContext, family: BasisFamily) -> tuple[int, ...]:
    """Parameter vector used inside the block factors of this family."""
    if family.kind in ("mxi", "nxi"):
        return tuple(ctx.omega[family.xi[i] - 1] for i in range(ctx.ell))
    return ctx.omega


def cell_seed(ctx: AlgebraContext, family: BasisFamily,
              lam: Multipartition) -> Element:
    """
    The s = t = top-tableau cellular element of the family at ``lam``.

    For the n-type families the per-component twist is read through the
    component reversal (the twist of slot i sits on the mirror slot), which
    is what makes the m/n pairing unitriangular for every twist sequence;
    with the aligned reading the unitriangularity fails already at
    (ell, r) = (2, 2) with mixed twists.
    """
    om = family_omega(ctx, family)
    ell = ctx.ell
    if family.kind == "m":
        return pi_bracket(ctx, lam, om) * x_lambda_c(ctx, lam, family.c)
    if family.kind == "n":
        crev = tuple(reversed(family.c))
        return pi_tilde_bracket(ctx, lam, om) * y_lambda_c(ctx, lam, crev)
    if family.kind == "mxi":
        return pi_bracket(ctx, lam, om) * x_lambda_c(ctx, lam, (0,) * ell)
    return pi_tilde_bracket(ctx, lam, om) * y_lambda_c(ctx, lam, (0,) * ell)


def cellular_element(ctx: AlgebraContext, family: BasisFamily,
                     s: Tableau, t: Tableau) -> Element:
    """d(s)^{-1} . seed(shape) . d(t) for standard s, t of a common shape."""
    lam = tableau_shape(s)
    if tableau_shape(t) != lam:
        raise ValueError("tableaux have different shapes")
    left = ctx.from_permutation(perm_inverse(d_of(s)))
    return right_translate(left * cell_seed(ctx, family, lam), d_of(t))


# ---------------------------------------------------------------------------
# full-family realization (change of basis, expansions)


# Largest algebra dimension ell^r * r! that gets a realization. The block
# triangular inverse is no longer the wall (2.6 s at (3,4), 12 s at (2,5));
# memory is: the change of basis and its inverse are dense n x n, 353 MiB at
# (2,5). (3,4), 1,944, and (5,3), 750, pass; (2,5), 3,840, does not.
MAX_REALIZATION_DIM = 2000


def check_realization_size(ell: int, r: int) -> None:
    """Raise ValueError when H(ell, r) is above ``MAX_REALIZATION_DIM``."""
    n = ell ** r * math.factorial(r)
    if n > MAX_REALIZATION_DIM:
        raise ValueError(
            f"ell={ell}, r={r}: the algebra has dimension {n}, above the "
            f"limit {MAX_REALIZATION_DIM} for a cellular realization")


class FamilyRealization:
    """
    Every cellular element of one family expanded over the monomial basis,
    with the inverse change of basis cached. Built once per (context, family)
    and immutable afterwards. ``expand(h, cells)`` is the one reader of
    cellular coordinates: the cell-module actions go through it, and the Gram
    form is read from those actions.
    """

    def __init__(self, ctx: AlgebraContext, family: BasisFamily):
        check_realization_size(ctx.ell, ctx.r)
        self.ctx = ctx
        self.family = family
        self.labels = enumerate_multipartitions(ctx.ell, ctx.r)
        self.tableaux = [standard_tableaux(lam) for lam in self.labels]
        self.top_index = [
            tabs.index(row_reading_tableau(lam))
            for lam, tabs in zip(self.labels, self.tableaux)
        ]
        self.cells: list[tuple[int, int, int]] = []
        self.elements: list[Element] = []
        matrix_rows: list[list[Fraction]] = []
        for li, lam in enumerate(self.labels):
            seed = cell_seed(ctx, family, lam)
            tabs = self.tableaux[li]
            for si, s in enumerate(tabs):
                left = ctx.from_permutation(perm_inverse(d_of(s))) * seed
                for ti, t in enumerate(tabs):
                    elem = right_translate(left, d_of(t))
                    self.cells.append((li, si, ti))
                    self.elements.append(elem)
                    matrix_rows.append(ctx.to_vector(elem))
        self.cell_index = {cell: i for i, cell in enumerate(self.cells)}
        self.change_of_basis: Matrix = matrix_rows
        try:
            self.change_of_basis_inv = inverse(matrix_rows)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"cellular family {family.label()} does not span "
                f"H({ctx.ell},{ctx.r})"
            ) from exc

    def expand(self, h: Element,
               cells: list[tuple[int, int, int]]) -> list[Fraction]:
        """
        Coordinates of ``h`` at the given (li, si, ti) cells, read from the
        inverse rows of its terms at the cells' columns only.
        """
        idx = self.ctx.basis_index()
        inv = self.change_of_basis_inv
        rows = [(coef, inv[idx[key]]) for key, coef in h.terms.items()]
        cols = [self.cell_index[cell] for cell in cells]
        return [sum((coef * row[col] for coef, row in rows if row[col]),
                    Fraction(0))
                for col in cols]

    def element(self, li: int, si: int, ti: int) -> Element:
        return self.elements[self.cell_index[(li, si, ti)]]

    def action(self, li: int, left: int, h: Element) -> Matrix:
        """
        Right multiplication by ``h`` on the cells (li, left, *): row t holds
        the (li, left, u) coordinates of element(li, left, t) * h.
        """
        n = len(self.tableaux[li])
        cells = [(li, left, ui) for ui in range(n)]
        return [self.expand(self.element(li, left, ti) * h, cells)
                for ti in range(n)]

    def label_index(self, lam: Multipartition) -> int:
        if lam not in self.labels:
            raise ValueError(
                f"lambda {[list(p) for p in lam]} is not a label at "
                f"ell={self.ctx.ell}, r={self.ctx.r}: need {self.ctx.ell} "
                f"partitions of total size {self.ctx.r}")
        return self.labels.index(lam)


def realization(ctx: AlgebraContext, family: BasisFamily) -> FamilyRealization:
    cache = getattr(ctx, "_cellular_realizations", None)
    if cache is None:
        cache = {}
        ctx._cellular_realizations = cache
    if family not in cache:
        cache[family] = FamilyRealization(ctx, family)
    return cache[family]


# ---------------------------------------------------------------------------
# modules


@dataclass
class ModuleRealization:
    """Generator matrices of a right module, row-vector convention."""
    ctx: AlgebraContext
    s_action: list[Matrix]
    x_action: list[Matrix]

    @property
    def dim(self) -> int:
        if self.x_action:
            return len(self.x_action[0])
        return 0


@dataclass
class CellModuleRealization(ModuleRealization):
    """A cell module: its label, tableau basis and Gram form."""
    family: BasisFamily
    label: Multipartition
    basis: list[Tableau]
    gram: Matrix


def cell_module(ctx: AlgebraContext, family: BasisFamily,
                lam: Multipartition) -> CellModuleRealization:
    """
    Cell module of the family at ``lam``: the generator action is read off
    the cellular expansion of (top-row cell element) * generator, keeping
    only same-label coefficients with the left tableau fixed. The Gram form
    uses no algebra product: <s,t> = rho(m_{t,top})_{s,top} for the action
    rho, evaluated on the seed's terms and d(t)^{-1} by the generator
    matrices along reduced words.
    """
    real = realization(ctx, family)
    li = real.label_index(lam)
    tabs = real.tableaux[li]
    top = real.top_index[li]
    s_action = [real.action(li, top, ctx.generator_s(i))
                for i in range(1, ctx.r)]
    x_action = [real.action(li, top, ctx.generator_x(k))
                for k in range(1, ctx.r + 1)]

    # column t of the Gram matrix is rho(d(t)^{-1}) . rho(seed) . e_top; a
    # column vector v goes to rho(h) . v as vec_mat(v, transpose(rho(h)))
    s_cols = [transpose(m) for m in s_action]
    x_cols = [transpose(m) for m in x_action]

    def by_word(w: Perm, v: Vector) -> Vector:
        for i in reversed(perm_reduced_word(w)):
            v = vec_mat(v, s_cols[i - 1])
        return v

    unit = [Fraction(int(u == top)) for u in range(len(tabs))]
    by_perm: dict[Perm, Vector] = {}
    column = [Fraction(0)] * len(tabs)
    for (exps, w), coef in real.element(li, top, top).terms.items():
        if w not in by_perm:
            by_perm[w] = by_word(w, unit)
        v = by_perm[w]
        for k, a in enumerate(exps):
            for _ in range(a):
                v = vec_mat(v, x_cols[k])
        column = [y + coef * z for y, z in zip(column, v)]
    gram = transpose([by_word(perm_inverse(d_of(t)), column) for t in tabs])
    return CellModuleRealization(
        ctx=ctx, s_action=s_action, x_action=x_action,
        family=family, label=lam, basis=tabs, gram=gram,
    )


def simple_module(module: CellModuleRealization) -> ModuleRealization:
    """
    Quotient of the cell module by the radical of its Gram form, realized on
    the pivot coordinates of the reduced Gram matrix.
    """
    gram = module.gram
    _, pivots = rref(gram)
    if not pivots:
        raise ValueError(f"zero module requested at label {module.label}")
    picked = [gram[j] for j in pivots]

    def quotient(mat: Matrix) -> Matrix:
        return solve_rows([vec_mat(mat[j], gram) for j in pivots], picked)

    return ModuleRealization(
        module.ctx,
        [quotient(m) for m in module.s_action],
        [quotient(m) for m in module.x_action],
    )


def simple_of(ctx: AlgebraContext, family: BasisFamily,
              lam: Multipartition) -> ModuleRealization | None:
    """
    The simple module of the family at ``lam``: the quotient of its cell
    module by the radical of the Gram form, or None when the Gram form is
    zero (the label carries no simple).
    """
    module = cell_module(ctx, family, lam)
    if not any(any(row) for row in module.gram):
        return None
    return simple_module(module)


def contragredient(module) -> ModuleRealization:
    """
    Dual module: the anti-automorphism fixes every generator, so the dual
    action is simply the transposed matrices.
    """
    return ModuleRealization(
        module.ctx,
        [transpose(m) for m in module.s_action],
        [transpose(m) for m in module.x_action],
    )


def intertwiner_dim(mod_a, mod_b) -> int:
    """
    Dimension of the space of module maps, solved exactly from the commuting
    equations for s_1..s_{r-1} and x_1 (these generate the algebra).
    """
    if mod_a.ctx is not mod_b.ctx:
        raise ValueError("modules live over different contexts")
    da, db = mod_a.dim, mod_b.dim
    if da == 0 or db == 0:
        return 0
    gens = list(zip(
        mod_a.s_action + [mod_a.x_action[0]],
        mod_b.s_action + [mod_b.x_action[0]],
    ))
    rows = []
    for ga, gb in gens:
        for i in range(da):
            for j in range(db):
                row = [Fraction(0)] * (da * db)
                for p in range(da):
                    row[p * db + j] += ga[i][p]
                for q in range(db):
                    row[i * db + q] -= gb[q][j]
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
    for k, x in enumerate(module.x_action, 1):
        if any(x[t][u] for t in range(n) for u in range(t + 1, n)):
            raise ValueError(
                f"x_{k} does not act triangularly on the module basis")
    counts: dict[tuple[int, ...], int] = {}
    for t in range(n):
        diagonal = tuple(x[t][t] for x in module.x_action)
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
            "dim_simple": rank(module.gram),
            "block": list(block_alpha(module)),
        })
    return rows
