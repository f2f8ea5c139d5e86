import itertools
import random
from fractions import Fraction

import pytest

from cellular_hecke.algebra import (
    AlgebraContext,
    right_translate,
    star,
    tau_hat,
)
from cellular_hecke.cellular import (
    ModuleRealization,
    block_alpha,
    block_of,
    cell_module,
    cell_seed,
    cellular_element,
    contragredient,
    family_m,
    family_m_xi,
    family_n,
    family_n_xi,
    intertwiner_dim,
    pi_bracket,
    pi_tilde_bracket,
    realization,
    simple_module,
    simple_of,
    simples_table,
    x_lambda_c,
    y_lambda_c,
)
from cellular_hecke.combinatorics import (
    conjugate,
    d_of,
    enumerate_multipartitions,
    perm_identity,
    perm_inverse,
    residue_sequence,
    row_reading_tableau,
    standard_tableaux,
    w_lambda,
)
from cellular_hecke.linalg import (
    rank,
    solve_rows,
    transpose,
    vec_mat,
)
from reference_cellular import subcell_module, z_element
from reference_linalg import left_nullspace, mat_identity, mat_mul, mat_pow

ALL_C2 = [(0, 0), (0, 1), (1, 0), (1, 1)]


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def gram_by_products(ctx, family, lam):
    """Reference Gram matrix: one algebra product m_{top,s} . m_{t,top} and
    one expansion per entry."""
    real = realization(ctx, family)
    li = real.label_index(lam)
    tabs = real.tableaux[li]
    top = real.top_index[li]
    return [
        [real.expand(real.element(li, top, si) * real.element(li, ti, top),
                     [(li, top, top)])[0]
         for ti in range(len(tabs))]
        for si in range(len(tabs))
    ]


def block_of_by_eigenspaces(module):
    """Reference: the search ``block_of`` used to run. For each k it restricts
    x_k to every joint eigenspace found so far and tries each t of the
    content window, rank(B - t I) first, then the left nullspace of
    (B - t I)^d."""
    ctx = module.ctx
    n = module.dim
    if n == 0:
        return {}
    lo = min(ctx.omega) - ctx.r
    hi = max(ctx.omega) + ctx.r
    spaces = [(mat_identity(n), ())]
    for k in range(ctx.r):
        x = module.x_action[k]
        nxt = []
        for basis_rows, prefix in spaces:
            restricted = solve_rows([vec_mat(row, x) for row in basis_rows],
                                    basis_rows)
            d = len(basis_rows)
            found = 0
            for t in range(lo, hi + 1):
                shifted = [[y - t if i == j else y for j, y in enumerate(row)]
                           for i, row in enumerate(restricted)]
                if rank(shifted) == d:
                    # t is no eigenvalue: ker B^d = 0 for a nonsingular B
                    continue
                kernel = left_nullspace(mat_pow(shifted, d))
                if kernel:
                    vecs = [vec_mat(cvec, basis_rows) for cvec in kernel]
                    nxt.append((vecs, prefix + (t,)))
                    found += len(kernel)
                    if found == d:
                        # the generalized eigenspaces fill the space
                        break
        spaces = nxt
    total = sum(len(v) for v, _ in spaces)
    if total != n:
        raise ValueError(
            "non-integer generalized eigenvalue: are the parameters integral?"
        )
    return {prefix: len(v) for v, prefix in sorted(spaces, key=lambda p: p[1])}


def dual_family(family):
    """The opposite-type family with the same parameters (m <-> n)."""
    if family.kind == "m":
        return family_n(family.c)
    if family.kind == "n":
        return family_m(family.c)
    if family.kind == "mxi":
        return family_n_xi(family.xi)
    return family_m_xi(family.xi)


def gram_via_trace(ctx, family, lam):
    """
    Independent route to the Gram matrix: pair the cell products against the
    diagonal opposite-type element at the dual minimal tableau and read the
    trace form. The unitriangular pairing makes this extract exactly the
    top-diagonal cellular coefficient.
    """
    lam_d = conjugate(lam)
    w = w_lambda(lam_d)
    partner = cell_seed(ctx, dual_family(family), lam_d)
    x = right_translate(ctx.from_permutation(perm_inverse(w)) * partner, w)
    real = realization(ctx, family)
    li = real.label_index(lam)
    tabs = real.tableaux[li]
    top = real.top_index[li]
    out = []
    for si in range(len(tabs)):
        left = real.element(li, top, si)
        out.append(
            [tau_hat(left * real.element(li, ti, top) * x)
             for ti in range(len(tabs))]
        )
    return out


def simple_dim(ctx, family, lam):
    """Rank of the Gram form; zero means the label carries no simple."""
    return rank(cell_module(ctx, family, lam).gram)


@pytest.fixture(scope="module")
def ctx22():
    return AlgebraContext(2, 2, (0, 1))


@pytest.fixture(scope="module")
def ctx13():
    return AlgebraContext(1, 3, (0,))


def families_for(ctx):
    """Every family at ctx.ell: each 01-sequence c for m and n, each
    permutation xi for mxi and nxi."""
    cs = list(itertools.product((0, 1), repeat=ctx.ell))
    xis = list(itertools.permutations(range(1, ctx.ell + 1)))
    return [family_m(c) for c in cs] + [family_n(c) for c in cs] + \
        [family_m_xi(xi) for xi in xis] + [family_n_xi(xi) for xi in xis]


class TestSeeds:
    def test_trivial_and_sign_sums(self):
        ctx = AlgebraContext(1, 2, (0,))
        one, s1 = ctx.one(), ctx.generator_s(1)
        assert x_lambda_c(ctx, ((2,),), (0,)) == one + s1
        assert x_lambda_c(ctx, ((2,),), (1,)) == one - s1
        assert y_lambda_c(ctx, ((2,),), (0,)) == one - s1

    def test_column_shape_sums_trivial(self, ctx22):
        lam = ((1, 1), ())
        assert x_lambda_c(ctx22, lam, (0, 0)) == ctx22.one()
        assert y_lambda_c(ctx22, lam, (0, 0)) == ctx22.one()

    def test_pi_single_component_is_one(self, ctx13):
        assert pi_bracket(ctx13, ((2, 1),)) == ctx13.one()
        assert pi_tilde_bracket(ctx13, ((2, 1),)) == ctx13.one()

    def test_pi_first_block(self, ctx22):
        lam = ((1,), (1,))
        assert pi_bracket(ctx22, lam) == ctx22.generator_x(1) - ctx22.one()
        assert pi_tilde_bracket(ctx22, lam) == ctx22.generator_x(1)

    def test_pi_empty_first_component(self, ctx22):
        assert pi_bracket(ctx22, ((), (2,))) == ctx22.one()

    def test_seed_example(self, ctx22):
        seed = cell_seed(ctx22, family_m((0, 0)), ((1,), (1,)))
        assert seed == ctx22.generator_x(1) - ctx22.one()

    def test_zero_twist_matches_identity_xi(self, ctx22):
        for lam in enumerate_multipartitions(2, 2):
            assert cell_seed(ctx22, family_m((0, 0)), lam) == \
                cell_seed(ctx22, family_m_xi((1, 2)), lam)
            assert cell_seed(ctx22, family_n((0, 0)), lam) == \
                cell_seed(ctx22, family_n_xi((1, 2)), lam)


class TestCellularBases:
    def test_change_of_basis_square_and_invertible(self, ctx22, ctx13):
        for ctx in (ctx22, ctx13):
            expected = ctx.dimension()
            for fam in families_for(ctx):
                mat = realization(ctx, fam).change_of_basis
                assert len(mat) == expected
                # realization() raised already if singular; rank confirms
                assert rank(mat) == expected

    @pytest.mark.parametrize("ell,r,c,xi", [
        (2, 3, (0, 1), (2, 1)),
        (3, 2, (0, 1, 1), (2, 3, 1)),
    ])
    def test_inverse_change_of_basis(self, ell, r, c, xi):
        ctx = AlgebraContext(ell, r, tuple(range(ell)))
        n = ctx.dimension()
        for fam in [family_m(c), family_n(c), family_m_xi(xi),
                    family_n_xi(xi)]:
            real = realization(ctx, fam)
            inv = real.change_of_basis_inv
            assert [vec_mat(row, inv) for row in real.change_of_basis] \
                == mat_identity(n)
            for k in (0, n // 3, n - 1):
                unit = [Fraction(int(i == k)) for i in range(n)]
                assert real.expand(real.elements[k], real.cells) == unit

    @pytest.mark.parametrize("ell,r,c,xi", [
        (2, 3, (0, 1), (2, 1)),
        (3, 2, (0, 1, 1), (2, 3, 1)),
    ])
    def test_expand_matches_dense_inverse(self, ell, r, c, xi):
        """expand(h, cells) is the dense expansion of h against the whole
        inverse change of basis, read at ``cells``."""
        ctx = AlgebraContext(ell, r, tuple(range(ell)))
        gens = [ctx.generator_s(i) for i in range(1, r)] + \
               [ctx.generator_x(k) for k in range(1, r + 1)]
        rng = random.Random(0)
        for fam in [family_m(c), family_n(c), family_m_xi(xi),
                    family_n_xi(xi)]:
            real = realization(ctx, fam)
            inv = real.change_of_basis_inv
            shuffled = rng.sample(real.cells, len(real.cells))
            repeats = shuffled[:5] * 2 + real.cells[:1] * 3

            def check(h, cells):
                dense = vec_mat(ctx.to_vector(h), inv)
                got = real.expand(h, cells)
                assert got == [dense[real.cell_index[cell]] for cell in cells]
                assert all(type(x) is Fraction for x in got)

            for el in real.elements:
                for gen in gens:
                    check(el * gen, real.cells)
            h = real.elements[-1] * gens[0]
            check(h, shuffled)
            check(h, repeats)
            check(h, [])
            check(h * Fraction(2, 3) + real.elements[0], real.cells)
            check(ctx.zero(), real.cells)

    def test_star_symmetry_exhaustive(self, ctx22, ctx13):
        for ctx in (ctx22, ctx13):
            for fam in families_for(ctx):
                for lam in enumerate_multipartitions(ctx.ell, ctx.r):
                    tabs = standard_tableaux(lam)
                    for s in tabs:
                        for t in tabs:
                            assert star(cellular_element(ctx, fam, s, t)) \
                                == cellular_element(ctx, fam, t, s)

    def test_shape_mismatch_rejected(self, ctx22):
        s = standard_tableaux(((2,), ()))[0]
        t = standard_tableaux(((1,), (1,)))[0]
        with pytest.raises(ValueError):
            cellular_element(ctx22, family_m((0, 0)), s, t)

    def test_triangular_action(self, ctx22, ctx13):
        """Other-label terms in a cell-times-generator expansion are
        strictly dominance-higher; same-label terms keep the left index."""
        from cellular_hecke.combinatorics import dominance_gt

        for ctx in (ctx22, ctx13):
            gens = [ctx.generator_s(i) for i in range(1, ctx.r)] + \
                   [ctx.generator_x(k) for k in range(1, ctx.r + 1)]
            for fam in families_for(ctx)[:4]:
                real = realization(ctx, fam)
                for li, lam in enumerate(real.labels):
                    tabs = real.tableaux[li]
                    for si in range(len(tabs)):
                        for ti in range(len(tabs)):
                            el = real.element(li, si, ti)
                            for gen in gens:
                                coords = real.expand(el * gen, real.cells)
                                for ci, val in enumerate(coords):
                                    if val == 0:
                                        continue
                                    lj, sj, _tj = real.cells[ci]
                                    if lj == li:
                                        assert sj == si
                                    else:
                                        assert dominance_gt(
                                            real.labels[lj], lam)

    def test_left_index_independence(self, ctx22):
        for fam in [family_m((0, 1)), family_n((1, 0)), family_m_xi((2, 1))]:
            real = realization(ctx22, fam)
            gens = [ctx22.generator_s(1),
                    ctx22.generator_x(1), ctx22.generator_x(2)]
            for li in range(len(real.labels)):
                tabs = real.tableaux[li]
                for gen in gens:
                    rows = []
                    for si in range(len(tabs)):
                        mat = []
                        for ti in range(len(tabs)):
                            coords = real.expand(
                                real.element(li, si, ti) * gen, real.cells)
                            mat.append([
                                coords[real.cell_index[(li, si, ui)]]
                                for ui in range(len(tabs))
                            ])
                        rows.append(mat)
                    assert all(m == rows[0] for m in rows)


class TestTraceAndPairing:
    def test_z_trace_is_one_all_twists(self, ctx22):
        for lam in enumerate_multipartitions(2, 2):
            winv = ctx22.from_permutation(perm_inverse(w_lambda(lam)))
            for c in ALL_C2:
                assert tau_hat(z_element(ctx22, c, lam) * winv) == 1


class TestCellModules:
    def test_trivial_module(self, ctx13):
        mod = cell_module(ctx13, family_m((0,)), ((3,),))
        assert mod.dim == 1
        assert all(m == [[Fraction(1)]] for m in mod.s_action)

    def test_sign_module(self, ctx13):
        mod = cell_module(ctx13, family_m((0,)), ((1, 1, 1),))
        assert mod.dim == 1
        assert all(m == [[Fraction(-1)]] for m in mod.s_action)

    def test_generator_matrices_satisfy_relations(self, ctx22):
        for fam in [family_m((0, 1)), family_n((1, 0)), family_n_xi((2, 1))]:
            for lam in enumerate_multipartitions(2, 2):
                mod = cell_module(ctx22, fam, lam)
                if mod.dim == 0:
                    continue
                s1 = mod.s_action[0]
                x1, x2 = mod.x_action
                ident = mat_identity(mod.dim)
                assert mat_mul(s1, s1) == ident
                assert mat_mul(x1, x2) == mat_mul(x2, x1)
                # s1 x1 - x2 s1 = -1 (right modules: products reverse)
                lhs = [[mat_mul(x1, s1)[i][j] - mat_mul(s1, x2)[i][j]
                        for j in range(mod.dim)] for i in range(mod.dim)]
                assert lhs == [[-ident[i][j] for j in range(mod.dim)]
                               for i in range(mod.dim)]
                # cyclotomic relation on x1
                f = mat_mul(x1, [[x1[i][j] - ident[i][j]
                                  for j in range(mod.dim)]
                                 for i in range(mod.dim)])
                assert all(all(v == 0 for v in row) for row in f)

    def test_x1_spectrum_lies_in_contents(self, ctx22):
        for lam in enumerate_multipartitions(2, 2):
            mod = cell_module(ctx22, family_m((0, 0)), lam)
            vectors = block_of(mod)
            expected = sorted(
                residue_sequence(t, ctx22.omega)
                for t in standard_tableaux(lam)
            )
            got = sorted(v for v, k in vectors.items() for _ in range(k))
            assert got == expected


class TestGram:
    def test_row_shape_gram(self, ctx13):
        mod = cell_module(ctx13, family_m((0,)), ((3,),))
        assert mod.gram == [[Fraction(6)]]
        two = AlgebraContext(1, 2, (0,))
        assert cell_module(two, family_m((0,)), ((2,),)).gram == [[Fraction(2)]]

    def test_symmetric(self, ctx22):
        for fam in families_for(ctx22)[:6]:
            for lam in enumerate_multipartitions(2, 2):
                g = cell_module(ctx22, fam, lam).gram
                assert g == transpose(g)

    def test_semisimple_parameters_nonsingular(self):
        ctx = AlgebraContext(2, 2, (0, 5))
        for lam in enumerate_multipartitions(2, 2):
            mod = cell_module(ctx, family_m((0, 0)), lam)
            assert rank(mod.gram) == mod.dim

    def test_degenerate_parameters_singular_gram(self):
        ctx = AlgebraContext(2, 1, (0, 0))
        dims = {
            lam: simple_dim(ctx, family_m((0, 0)), lam)
            for lam in enumerate_multipartitions(2, 1)
        }
        assert sorted(dims.values()) == [0, 1]

    def test_trace_route_cross_check(self, ctx22, ctx13):
        for ctx in (ctx22, ctx13):
            for fam in families_for(ctx):
                for lam in enumerate_multipartitions(ctx.ell, ctx.r):
                    assert cell_module(ctx, fam, lam).gram \
                        == gram_via_trace(ctx, fam, lam)

    @pytest.mark.parametrize("ell,r,omega,fams", [
        (2, 3, (0, 1), [family_m((0, 1)), family_n((0, 1)), family_m((1, 0)),
                        family_m_xi((2, 1)), family_n_xi((2, 1))]),
        (2, 3, (1, 0), [family_m((0, 1)), family_n((0, 1))]),
        (3, 2, (0, 1, 2), [family_m((1, 0, 1)), family_n((1, 0, 1)),
                           family_m_xi((2, 3, 1)), family_n_xi((2, 3, 1))]),
        (3, 3, (0, 1, 2), [family_m((0, 0, 0))]),
    ])
    def test_action_route_matches_products(self, ell, r, omega, fams):
        """The Gram form read from the cell-module action equals the one
        taken entry by entry from products in the algebra."""
        ctx = AlgebraContext(ell, r, omega)
        for fam in fams:
            for lam in enumerate_multipartitions(ell, r):
                assert cell_module(ctx, fam, lam).gram \
                    == gram_by_products(ctx, fam, lam), (fam, lam)

    @pytest.mark.parametrize("ell,r", [(2, 3), (3, 3), (2, 4)])
    def test_top_tableau_has_identity_d(self, ell, r):
        """d(top) is the identity, so m_{top,top} is the seed and
        m_{t,top} = d(t)^{-1} . seed."""
        for lam in enumerate_multipartitions(ell, r):
            assert d_of(row_reading_tableau(lam)) == perm_identity(r)

    def test_top_cell_element_is_the_seed(self):
        ctx = AlgebraContext(2, 3, (0, 1))
        for fam in [family_m((0, 1)), family_n_xi((2, 1))]:
            real = realization(ctx, fam)
            for li, lam in enumerate(real.labels):
                top = real.top_index[li]
                assert real.element(li, top, top) == cell_seed(ctx, fam, lam)

    def test_rank_invariant_under_basis_reordering(self, ctx13):
        g = cell_module(ctx13, family_m((0,)), ((2, 1),)).gram
        n = len(g)
        perm = list(reversed(range(n)))
        shuffled = [[g[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
        assert rank(shuffled) == rank(g)


class TestSimples:
    def test_semisimple_dims(self):
        ctx = AlgebraContext(2, 2, (0, 5))
        total = 0
        for lam in enumerate_multipartitions(2, 2):
            d = simple_dim(ctx, family_m((0, 0)), lam)
            assert d == len(standard_tableaux(lam))
            total += d * d
        assert total == ctx.dimension()

    def test_group_algebra_always_semisimple(self, ctx13):
        for lam in enumerate_multipartitions(1, 3):
            assert simple_dim(ctx13, family_m((0,)), lam) \
                == len(standard_tableaux(lam))

    def test_wedderburn_bound(self, ctx22):
        total = 0
        all_nonsingular = True
        for lam in enumerate_multipartitions(2, 2):
            mod = cell_module(ctx22, family_m((0, 0)), lam)
            d = rank(mod.gram)
            all_nonsingular = all_nonsingular and d == mod.dim
            total += d * d
        assert total <= ctx22.dimension()
        # equality exactly when every Gram is nonsingular; omega=(0,1) at
        # r=2 is not separated, so here the inequality is strict
        assert not all_nonsingular and total < ctx22.dimension()

    def test_zero_module_rejected(self):
        ctx = AlgebraContext(2, 1, (0, 0))
        zero_label = next(
            lam for lam in enumerate_multipartitions(2, 1)
            if simple_dim(ctx, family_m((0, 0)), lam) == 0
        )
        with pytest.raises(ValueError):
            simple_module(cell_module(ctx, family_m((0, 0)), zero_label))

    def test_quotient_satisfies_relations(self, ctx22):
        for lam in enumerate_multipartitions(2, 2):
            mod = cell_module(ctx22, family_m((0, 1)), lam)
            if rank(mod.gram) == 0:
                continue
            simple = simple_module(mod)
            d = simple.dim
            assert d == rank(mod.gram)
            s1 = simple.s_action[0]
            x1, x2 = simple.x_action
            assert mat_mul(s1, s1) == mat_identity(d)
            assert mat_mul(x1, x2) == mat_mul(x2, x1)

    def test_simple_of_matches_reference(self, ctx22):
        degenerate = AlgebraContext(2, 1, (0, 0))
        for ctx in (ctx22, degenerate):
            for fam in families_for(ctx):
                for lam in enumerate_multipartitions(ctx.ell, ctx.r):
                    got = simple_of(ctx, fam, lam)
                    if simple_dim(ctx, fam, lam) == 0:
                        assert got is None
                        continue
                    want = simple_module(cell_module(ctx, fam, lam))
                    assert (got.s_action, got.x_action) \
                        == (want.s_action, want.x_action)

    def test_schur(self, ctx22):
        mod = cell_module(ctx22, family_m((0, 0)), ((1,), (1,)))
        simple = simple_module(mod)
        assert intertwiner_dim(simple, simple) == 1

    def test_different_blocks_no_intertwiner(self):
        ctx = AlgebraContext(2, 1, (0, 1))
        a = simple_module(cell_module(ctx, family_m((0, 0)), ((1,), ())))
        b = simple_module(cell_module(ctx, family_m((0, 0)), ((), (1,))))
        assert intertwiner_dim(a, b) == 0


class TestBlocks:
    def test_single_row_vector(self):
        ctx = AlgebraContext(1, 2, (0,))
        mod = cell_module(ctx, family_m((0,)), ((2,),))
        assert block_of(mod) == {(0, 1): 1}

    def test_hook_shape_vectors(self, ctx13):
        mod = cell_module(ctx13, family_m((0,)), ((2, 1),))
        vectors = block_of(mod)
        assert set(vectors) == {(0, 1, -1), (0, -1, 1)}

    def test_same_block_shares_alpha(self, ctx22):
        rows = simples_table(ctx22, family_m((0, 0)))
        by_label = {tuple(map(tuple, r["lambda"])): tuple(r["block"])
                    for r in rows}
        assert by_label[((2,), ())] == by_label[((1,), (1,))]

    def test_cell_module_single_block(self, ctx22):
        for lam in enumerate_multipartitions(2, 2):
            block_alpha(cell_module(ctx22, family_m((0, 1)), lam))

    @pytest.mark.parametrize("ell,r,omega,kinds", [
        (2, 3, (1, 0), ("m", "n", "mxi", "nxi")),
        (3, 2, (0, 1, 2), ("m", "n", "mxi", "nxi")),
        (2, 4, (0, 1), ("m", "n")),
    ], ids=["e2r3", "e3r2", "e2r4-mn"])
    def test_diagonal_matches_eigenspace_scan(self, ell, r, omega, kinds):
        ctx = AlgebraContext(ell, r, omega)
        for fam in [f for f in families_for(ctx) if f.kind in kinds]:
            for lam in enumerate_multipartitions(ell, r):
                mod = cell_module(ctx, fam, lam)
                assert block_of(mod) == block_of_by_eigenspaces(mod), \
                    (fam, lam)

    def test_non_triangular_x_refused(self):
        ctx = AlgebraContext(1, 2, (0,))
        zero = F([[0, 0], [0, 0]])
        mod = ModuleRealization(ctx, [zero], [zero, F([[0, 1], [0, 0]])])
        with pytest.raises(ValueError, match="x_2 does not act triangularly"):
            block_of(mod)

    def test_non_integer_diagonal_refused(self):
        ctx = AlgebraContext(1, 2, (0,))
        half = F([[Fraction(1, 2), 0], [1, 0]])
        mod = ModuleRealization(ctx, [F([[0, 0], [0, 0]])],
                                [half, F([[1, 0], [0, 1]])])
        with pytest.raises(ValueError, match="non-integer generalized"):
            block_of(mod)

    def test_zero_module_has_no_blocks(self):
        ctx = AlgebraContext(1, 2, (0,))
        assert block_of(ModuleRealization(ctx, [[]], [[], []])) == {}


class TestDuality:
    def test_cell_dual_matches_opposite_family(self, ctx22):
        for c in ALL_C2:
            for lam in enumerate_multipartitions(2, 2):
                dual = contragredient(cell_module(ctx22, family_m(c), lam))
                tilde = cell_module(ctx22, family_n(c), conjugate(lam))
                assert intertwiner_dim(dual, tilde) >= 1

    def test_double_dual(self, ctx22):
        mod = cell_module(ctx22, family_m((0, 0)), ((1,), (1,)))
        again = contragredient(contragredient(mod))
        assert again.s_action == mod.s_action
        assert again.x_action == mod.x_action

    def test_dual_preserves_dimension(self, ctx22):
        mod = cell_module(ctx22, family_n((1, 0)), ((2,), ()))
        assert contragredient(mod).dim == mod.dim


class TestSubcell:
    def test_span_matches_dual_cell(self, ctx22):
        for c in ALL_C2:
            for lam in enumerate_multipartitions(2, 2):
                sub = subcell_module(ctx22, c, lam)
                tabs = standard_tableaux(conjugate(lam))
                assert sub.dim == len(tabs)
                tilde = cell_module(ctx22, family_n(c), conjugate(lam))
                assert intertwiner_dim(sub, tilde) >= 1

    @pytest.mark.parametrize("ell,r,omega,twists", [
        (1, 3, (0,), [(0,)]),
        (3, 2, (0, 1, 5), [(0, 0, 0), (1, 0, 1)]),
    ])
    def test_span_matches_dual_cell_other_ranks(self, ell, r, omega, twists):
        ctx = AlgebraContext(ell, r, omega)
        for c in twists:
            for lam in enumerate_multipartitions(ell, r):
                sub = subcell_module(ctx, c, lam)
                assert sub.dim == len(standard_tableaux(conjugate(lam)))
                tilde = cell_module(ctx, family_n(c), conjugate(lam))
                assert intertwiner_dim(sub, tilde) >= 1


class TestTraceLargerRank:
    def test_z_trace_three_components_three_strands(self):
        ctx = AlgebraContext(3, 3, (0, 1, 5))
        for lam in enumerate_multipartitions(3, 3):
            winv = ctx.from_permutation(perm_inverse(w_lambda(lam)))
            for c in [(0, 0, 0), (1, 0, 1)]:
                assert tau_hat(z_element(ctx, c, lam) * winv) == 1, (lam, c)
