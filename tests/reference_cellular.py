"""
Cellular constructions that only the tests use, as references: a single
cellular element of a family, the pairing witness z of a label as a full
algebra product, the right ideal it generates, the constructor of the nxi
families (the CLI builds ``BasisFamily`` directly), the simple quotient of a
cell module solved one generator at a time over the full Gram rows, the
intertwiner dimension from commuting equations built in ``Fraction``, and
the generator actions at every left index, which ``verify cellular`` used to
compare with the cell module before it read the top row alone.
``verify trace`` reads tau(z . w^-1) with ``algebra.trace_of_product`` and
never forms z.
"""

from fractions import Fraction

from cellular_hecke.algebra import AlgebraContext, Element, right_translate
from cellular_hecke.cellular import (
    TOP,
    BasisFamily,
    CellModuleRealization,
    FamilyRealization,
    ModuleRealization,
    cell_module,
    cell_seed,
    family_m,
    family_n,
)
from cellular_hecke.combinatorics import (
    Multipartition,
    Perm,
    Tableau,
    conjugate,
    d_of,
    perm_inverse,
    standard_tableaux,
    tableau_shape,
    w_lambda,
)
from cellular_hecke.linalg import Matrix, rank, rref, solve_rows, vec_mat
from reference_algebra import to_vector
from reference_linalg import sparse_rows


def family_n_xi(xi: Perm) -> BasisFamily:
    return BasisFamily("nxi", xi=tuple(xi))


def cellular_element(ctx: AlgebraContext, family: BasisFamily,
                     s: Tableau, t: Tableau) -> Element:
    """d(s)^{-1} . seed(shape) . d(t) for standard s, t of a common shape."""
    lam = tableau_shape(s)
    if tableau_shape(t) != lam:
        raise ValueError("tableaux have different shapes")
    left = ctx.from_permutation(perm_inverse(d_of(s)))
    return right_translate(left * cell_seed(ctx, family, lam), d_of(t))


def z_element(ctx: AlgebraContext, c: tuple[int, ...],
              lam: Multipartition) -> Element:
    """m-seed(lam) . w_lam . n-seed(lam'), the pairing witness of the label."""
    m_seed = cell_seed(ctx, family_m(c), lam)
    n_seed = cell_seed(ctx, family_n(c), conjugate(lam))
    return right_translate(m_seed, w_lambda(lam)) * n_seed


def subcell_module(ctx: AlgebraContext, c: tuple[int, ...],
                   lam: Multipartition) -> ModuleRealization:
    """
    The right ideal generated by the pairing witness of ``lam``, realized on
    the basis z . d(t) over standard tableaux of the dual shape.
    """
    z = z_element(ctx, c, lam)
    basis = [right_translate(z, d_of(t))
             for t in standard_tableaux(conjugate(lam))]
    vectors = [to_vector(ctx, h) for h in basis]
    if rank(sparse_rows(vectors)) != len(basis):
        raise ValueError("pairing-witness translates are dependent")

    def action_matrix(gen: Element) -> Matrix:
        return solve_rows([to_vector(ctx, h * gen) for h in basis], vectors)

    gens = [ctx.generator_s(i) for i in range(1, ctx.r)] \
        + [ctx.generator_x(k) for k in range(1, ctx.r + 1)]
    return ModuleRealization(ctx, [action_matrix(g) for g in gens])


def simple_module_by_generator(module: CellModuleRealization
                               ) -> ModuleRealization:
    """
    Quotient of the cell module by the radical of its Gram form on the pivot
    coordinates of the reduced Gram matrix G: row i of each generator's
    action is the c with c . G[pivots] = e_i . rho(g) . G, one elimination
    over the full rows per generator.
    """
    gram = module.gram
    _, pivots = rref(sparse_rows(gram))
    if not pivots:
        raise ValueError(f"zero module requested at label {module.label}")
    picked = [gram[j] for j in pivots]

    def quotient(mat: Matrix) -> Matrix:
        return solve_rows([vec_mat(mat[j], gram) for j in pivots], picked)

    return ModuleRealization(module.ctx,
                             [quotient(m) for m in module.actions])


def intertwiner_dim_fractions(mod_a, mod_b) -> int:
    """
    The route ``intertwiner_dim`` used to take: the commuting equations
    phi . g_b = g_a . phi for s_1..s_{r-1} and x_1 written with the module
    entries as they are, every row summed in ``Fraction``.
    """
    if mod_a.ctx is not mod_b.ctx:
        raise ValueError("modules live over different contexts")
    da, db = mod_a.dim, mod_b.dim
    if da == 0 or db == 0:
        return 0
    r = mod_a.ctx.r
    rows = []
    for ga, gb in zip(mod_a.actions[:r], mod_b.actions[:r]):
        for i in range(da):
            for j in range(db):
                row = [Fraction(0)] * (da * db)
                for p in range(da):
                    row[p * db + j] += ga[i][p]
                for q in range(db):
                    row[i * db + q] -= gb[q][j]
                rows.append(row)
    return da * db - rank(sparse_rows(rows))


def generators(ctx: AlgebraContext) -> list[Element]:
    """s_1..s_{r-1}, x_1..x_r, numbered as in ``FamilyRealization.action``."""
    return [ctx.generator_s(i) for i in range(1, ctx.r)] \
        + [ctx.generator_x(k) for k in range(1, ctx.r + 1)]


def left_action(real: FamilyRealization, li: int, left: int,
                g: int) -> Matrix:
    """
    The generator ``g`` on the cells (li, left, *): row t holds the
    (li, left, u) coordinates of element(li, left, t) times the generator,
    by an algebra product and ``expand``.
    """
    gen = generators(real.ctx)[g]
    n = len(real.tableaux[li])
    cells = [(li, left, u) for u in range(n)]
    return [real.expand(real.element(li, left, t) * gen, cells)
            for t in range(n)]


def left_index_independent(ctx: AlgebraContext,
                           real: FamilyRealization) -> bool:
    """Every left index other than top gives each generator the action of
    the cell module, which is read at the top left index."""
    for li, (lam, tabs) in enumerate(zip(real.labels, real.tableaux)):
        module = cell_module(ctx, real.family, lam)
        for g, ref in enumerate(module.actions):
            if any(left_action(real, li, si, g) != ref
                   for si in range(len(tabs)) if si != TOP):
                return False
    return True
