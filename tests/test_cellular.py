import itertools
import random
import re
from fractions import Fraction

import pytest

from cellular_hecke import cellular, combinatorics
from cellular_hecke.algebra import (
    AlgebraContext,
    right_translate,
    star,
)
from cellular_hecke.cellular import (
    ModuleRealization,
    block_alpha,
    block_of,
    cell_module,
    cell_seed,
    contragredient,
    family_m,
    family_m_xi,
    family_n,
    intertwiner_dim,
    pi_bracket,
    pi_tilde_bracket,
    realization,
    row_stabilizer,
    simple_module,
    simples_table,
    x_lambda_c,
    y_lambda_c,
    young_sum,
)
from cellular_hecke.combinatorics import (
    conjugate,
    d_of,
    enumerate_multipartitions,
    perm_identity,
    perm_inverse,
    perm_sign,
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
from reference_algebra import tau_hat, to_vector
from reference_cellular import (
    cellular_element,
    family_n_xi,
    intertwiner_dim_fractions,
    simple_module_by_generator,
    subcell_module,
    z_element,
)
from reference_combinatorics import dominance_gt, residue_sequence
from reference_linalg import (
    left_nullspace,
    mat_identity,
    mat_mul,
    mat_pow,
    mat_zero,
)

ALL_C2 = [(0, 0), (0, 1), (1, 0), (1, 1)]


def F(rows):
    return [[Fraction(x) for x in row] for row in rows]


def gram_by_products(ctx, family, lam):
    """Reference Gram matrix: one algebra product m_{top,s} . m_{t,top} and
    one expansion per entry."""
    real = realization(ctx, family)
    li = real.label_index(lam)
    tabs = real.tableaux[li]
    top = cellular.TOP
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
        x = module.actions[ctx.r - 1 + k]
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
    top = cellular.TOP
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


def assert_defining_relations(module):
    """
    Every defining relation of the algebra on the module's matrices, read
    as actions[g] in ``FamilyRealization.action``'s numbering: s_i at
    i - 1, x_k at r - 2 + k. A right module in the row-vector convention
    takes a product ab to the matrix product rho(a) . rho(b).
    """
    ctx, d = module.ctx, module.dim
    r = ctx.r
    s = {i: module.actions[i - 1] for i in range(1, r)}
    x = {k: module.actions[r - 2 + k] for k in range(1, r + 1)}
    ident = mat_identity(d)

    def minus(a, b):
        return [[p - q for p, q in zip(ra, rb)] for ra, rb in zip(a, b)]

    def commute(a, b):
        return mat_mul(a, b) == mat_mul(b, a)

    minus_one = minus(mat_zero(d, d), ident)
    for i in range(1, r):
        assert mat_mul(s[i], s[i]) == ident, f"s{i}^2"
        for j in range(i + 2, r):
            assert commute(s[i], s[j]), f"s{i} s{j}"
        for j in range(1, r + 1):
            if j not in (i, i + 1):
                assert commute(s[i], x[j]), f"s{i} x{j}"
        # x_i s_i - s_i x_{i+1} = -1 and s_i x_i - x_{i+1} s_i = -1
        assert minus(mat_mul(x[i], s[i]), mat_mul(s[i], x[i + 1])) \
            == minus_one, f"x{i} s{i}"
        assert minus(mat_mul(s[i], x[i]), mat_mul(x[i + 1], s[i])) \
            == minus_one, f"s{i} x{i}"
    for i in range(1, r - 1):
        assert mat_mul(mat_mul(s[i], s[i + 1]), s[i]) \
            == mat_mul(mat_mul(s[i + 1], s[i]), s[i + 1]), f"braid s{i}"
    for k in range(1, r + 1):
        for j in range(k + 1, r + 1):
            assert commute(x[k], x[j]), f"x{k} x{j}"
    # the cyclotomic relation (x_1 - omega_1)...(x_1 - omega_ell) = 0
    f = ident
    for w in ctx.omega:
        f = mat_mul(f, minus(x[1], [[w * e for e in row] for row in ident]))
    assert f == mat_zero(d, d), "cyclotomic"


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
        assert pi_bracket(ctx13, ((2, 1),), ctx13.omega) == ctx13.one()
        assert pi_tilde_bracket(ctx13, ((2, 1),), ctx13.omega) == ctx13.one()

    def test_pi_first_block(self, ctx22):
        lam = ((1,), (1,))
        om = ctx22.omega
        assert pi_bracket(ctx22, lam, om) == \
            ctx22.generator_x(1) - ctx22.one()
        assert pi_tilde_bracket(ctx22, lam, om) == ctx22.generator_x(1)

    def test_pi_empty_first_component(self, ctx22):
        assert pi_bracket(ctx22, ((), (2,)), ctx22.omega) == ctx22.one()

    def test_pi_built_once_per_bracket_on_its_context(self):
        # every twist and every label with the same bracket shares one
        # product; a new context builds its own, so counts repeat per context
        ctx = AlgebraContext(3, 3, (0, 1, 2))
        om = ctx.omega
        pi = pi_bracket(ctx, ((2,), (1,), ()), om)
        assert pi_bracket(ctx, ((1, 1), (1,), ()), om) is pi
        assert pi_bracket(ctx, ((2,), (), (1,)), om) is not pi
        for c in itertools.product((0, 1), repeat=3):
            assert cell_seed(ctx, family_m(c), ((2,), (1,), ())) == \
                pi * x_lambda_c(ctx, ((2,), (1,), ()), c)
        fresh = AlgebraContext(3, 3, (0, 1, 2))
        assert pi_bracket(fresh, ((2,), (1,), ()), om) is not pi
        assert pi_bracket(fresh, ((2,), (1,), ()), om).terms == pi.terms

    def test_young_sum_built_once_per_label_and_signs(self):
        # the m- and n-seeds of every twist ask for the same sums; a new
        # context builds its own, equal to the product built term by term
        ctx = AlgebraContext(2, 4, (0, 1))
        fresh = AlgebraContext(2, 4, (0, 1))
        for lam in enumerate_multipartitions(2, 4):
            for signs in itertools.product((False, True), repeat=2):
                got = young_sum(ctx, lam, signs)
                assert young_sum(ctx, lam, signs) is got
                again = young_sum(fresh, lam, signs)
                assert again is not got and again.terms == got.terms
                built = ctx.one()
                for i, sign in enumerate(signs):
                    part = ctx.zero()
                    for w in row_stabilizer(lam, i):
                        part = part + ctx.from_permutation(w) * (
                            perm_sign(w) if sign else 1)
                    built = built * part
                assert got == built, (lam, signs)
        lam = ((2,), (1, 1))
        assert x_lambda_c(ctx, lam, (1, 0)) is y_lambda_c(ctx, lam, (0, 1))

    def test_seed_example(self, ctx22):
        seed = cell_seed(ctx22, family_m((0, 0)), ((1,), (1,)))
        assert seed == ctx22.generator_x(1) - ctx22.one()

    @pytest.mark.parametrize("family", [
        family_n((0, 1, 1)), family_m((0,)), family_m_xi((1,)),
        family_m_xi((3, 1, 2)),
    ], ids=lambda fam: fam.label())
    def test_family_of_another_length_refused(self, ctx22, family):
        # a c or xi of the wrong length would be cut or overrun in the seed
        want = f"family {family.label()} does not have ell=2 entries"
        with pytest.raises(ValueError, match=re.escape(want)):
            cell_seed(ctx22, family, ((1,), (1,)))
        with pytest.raises(ValueError, match=re.escape(want)):
            realization(ctx22, family)

    @pytest.mark.parametrize("ell,r,omega", [
        (2, 2, (0, 1)), (2, 3, (1, 0)), (3, 2, (2, 1, 0)),
    ])
    def test_zero_twist_matches_identity_xi(self, ell, r, omega):
        # `verify main2` realizes m[0,...,0] in place of m_xi at the
        # identity xi, so the two must give the same cellular elements
        ctx = AlgebraContext(ell, r, omega)
        zero, identity = (0,) * ell, perm_identity(ell)
        for plain, twisted in ((family_m, family_m_xi),
                               (family_n, family_n_xi)):
            for lam in enumerate_multipartitions(ell, r):
                assert cell_seed(ctx, plain(zero), lam) == \
                    cell_seed(ctx, twisted(identity), lam)
            assert realization(ctx, plain(zero)).elements == \
                realization(ctx, twisted(identity)).elements


class TestCellularBases:
    def test_change_of_basis_square_and_invertible(self, ctx22, ctx13):
        for ctx in (ctx22, ctx13):
            expected = ctx.dimension()
            for fam in families_for(ctx):
                mat = realization(ctx, fam).change_of_basis
                assert len(mat) == expected
                # realization() raised already if singular; rank confirms
                assert rank(mat) == expected

    def test_change_of_basis_is_a_dense_view_of_the_terms(self, ctx22, ctx13):
        # C is read from the elements' terms; the realization keeps no dense
        # copy, and the view built on read has exactly those nonzeros
        for ctx in (ctx22, ctx13):
            n = ctx.dimension()
            for fam in families_for(ctx):
                real = realization(ctx, fam)
                assert "change_of_basis" not in vars(real)
                mat = real.change_of_basis
                assert len(mat) == n
                for row, elem in zip(mat, real.elements):
                    assert isinstance(row, list) and len(row) == n
                    assert {j: x for j, x in enumerate(row) if x} == \
                        elem.terms
                assert "change_of_basis" not in vars(real)

    def test_inverse_is_kept_as_sparse_rows(self, ctx22, ctx13):
        # C^-1 is kept as the dict rows ``inverse`` returns, with no zero
        # entry; the dense view is built from them on read and never kept
        for ctx in (ctx22, ctx13):
            n = ctx.dimension()
            for fam in families_for(ctx):
                real = realization(ctx, fam)
                assert "change_of_basis_inv" not in vars(real)
                inv = real.change_of_basis_inv
                assert len(real.inverse_rows) == len(inv) == n
                for row, full in zip(real.inverse_rows, inv):
                    assert type(row) is dict
                    assert all(x != 0 for x in row.values())
                    assert isinstance(full, list) and len(full) == n
                    assert row == {j: x for j, x in enumerate(full) if x}
                assert "change_of_basis_inv" not in vars(real)

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
                dense = vec_mat(to_vector(ctx, h), inv)
                got = real.expand(h, cells)
                assert got == [dense[real.cell_index[cell]] for cell in cells]
                # the inverse is integral here, so an integral h expands in
                # int; a scaled h may give Fraction coordinates
                if all(type(c) is int for c in h.terms.values()):
                    assert all(type(x) is int for x in got)
                else:
                    assert {type(x) for x in got} <= {int, Fraction}

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

    @pytest.mark.parametrize("ell,r,c,xi", [
        (2, 3, (0, 1), (2, 1)),
        (3, 2, (0, 1, 1), (2, 3, 1)),
        (2, 4, (1, 0), (2, 1)),
    ], ids=["e2r3", "e3r2", "e2r4"])
    def test_action_matches_expanded_products(self, ell, r, c, xi):
        """action(li, left, g) relabels for s_i and multiplies for x_k; at
        every cell and generator it equals the expansion of
        element(li, left, t) * generator formed by the algebra product."""
        ctx = AlgebraContext(ell, r, tuple(range(ell)))
        gens = [ctx.generator_s(i) for i in range(1, r)] + \
               [ctx.generator_x(k) for k in range(1, r + 1)]
        for fam in [family_m(c), family_n(c), family_m_xi(xi),
                    family_n_xi(xi)]:
            real = realization(ctx, fam)
            for li, tabs in enumerate(real.tableaux):
                for left in range(len(tabs)):
                    cells = [(li, left, ui) for ui in range(len(tabs))]
                    for g, gen in enumerate(gens):
                        want = [real.expand(real.element(li, left, ti) * gen,
                                            cells)
                                for ti in range(len(tabs))]
                        assert real.action(li, left, g) == want, \
                            (fam, li, left, g)
        for g in (-1, len(gens)):
            with pytest.raises(ValueError, match="generator index"):
                real.action(0, 0, g)


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
        assert all(m == [[Fraction(1)]] for m in mod.actions[:ctx13.r - 1])

    def test_sign_module(self, ctx13):
        mod = cell_module(ctx13, family_m((0,)), ((1, 1, 1),))
        assert mod.dim == 1
        assert all(m == [[Fraction(-1)]] for m in mod.actions[:ctx13.r - 1])

    def test_built_once_per_family_and_label(self):
        ctx = AlgebraContext(2, 3, (0, 1))
        for lam in enumerate_multipartitions(2, 3):
            mod = cell_module(ctx, family_m((0, 1)), lam)
            assert cell_module(ctx, family_m((0, 1)), lam) is mod
        other = AlgebraContext(2, 3, (0, 1))
        assert cell_module(other, family_m((0, 1)), lam) is not mod
        assert cell_module(other, family_m((0, 1)), lam).gram == mod.gram

    def test_second_context_builds_no_tableaux(self):
        # standard tableaux and d(t) are built once per run: a realization
        # and its cell modules on a new context miss no cache
        def misses():
            return (combinatorics._standard_tableaux.cache_info().misses,
                    combinatorics.d_of.cache_info().misses)

        def build(fam):
            ctx = AlgebraContext(2, 3, (1, 0))
            for lam in enumerate_multipartitions(2, 3):
                cell_module(ctx, fam, lam)

        build(family_m((0, 1)))
        before = misses()
        build(family_n((1, 0)))
        assert misses() == before
        lam = ((2,), (1,))
        tabs = standard_tableaux(lam)
        assert tabs == standard_tableaux(lam)
        assert tabs is not standard_tableaux(lam)

    def test_cached_call_enumerates_no_labels(self, monkeypatch):
        # a hit reads the realization's label -> index dict; a non-label,
        # hashable or not, still raises the label error
        ctx = AlgebraContext(2, 2, (0, 1))
        fam = family_m((0, 1))
        mods = {lam: cell_module(ctx, fam, lam)
                for lam in enumerate_multipartitions(2, 2)}
        calls = []
        enumerate_all = cellular.enumerate_multipartitions

        def counted(*args):
            calls.append(args)
            return enumerate_all(*args)

        monkeypatch.setattr(cellular, "enumerate_multipartitions", counted)
        for lam, mod in mods.items():
            assert cell_module(ctx, fam, lam) is mod
        assert calls == []
        for bad in [((1,), (2,)), ((2,),), [[1], [1]], ((1,), [1])]:
            want = (f"lambda {[list(p) for p in bad]} is not a label at "
                    f"ell=2, r=2: need 2 partitions of total size 2")
            with pytest.raises(ValueError) as err:
                cell_module(ctx, fam, bad)
            assert str(err.value) == want

    @pytest.mark.parametrize("ell,r,omega,fams", [
        (2, 3, (1, 0), None),
        (3, 3, (2, 1, 0), [family_m((0, 1, 1)), family_n((1, 0, 1)),
                           family_m_xi((2, 3, 1)), family_n_xi((3, 1, 2))]),
    ], ids=["e2r3", "e3r3"])
    def test_matrices_stay_int(self, ell, r, omega, fams):
        # no division builds a cell module: every action and Gram entry is
        # an int, as computed
        ctx = AlgebraContext(ell, r, omega)
        for fam in fams or families_for(ctx):
            for lam in enumerate_multipartitions(ell, r):
                mod = cell_module(ctx, fam, lam)
                entries = [x for mat in mod.actions + [mod.gram]
                           for row in mat for x in row]
                assert all(type(x) is int for x in entries), (fam, lam)

    def test_generator_matrices_satisfy_relations(self):
        # every defining relation holds on every cell module and on every
        # simple quotient, with the generators read as actions[g]
        for (ell, r, omega), fams in [
            ((2, 2, (0, 1)), [family_m((0, 1)), family_n((1, 0)),
                              family_n_xi((2, 1))]),
            ((2, 3, (1, 0)), None),
            ((3, 3, (0, 1, 2)), [family_m((0, 1, 1)), family_n((1, 0, 1)),
                                 family_m_xi((2, 3, 1)),
                                 family_n_xi((3, 1, 2))]),
        ]:
            ctx = AlgebraContext(ell, r, omega)
            simples = 0
            for fam in fams or families_for(ctx):
                for lam in enumerate_multipartitions(ell, r):
                    mod = cell_module(ctx, fam, lam)
                    if mod.dim == 0:
                        continue
                    assert_defining_relations(mod)
                    simple = mod.simple
                    if simple is not None:
                        assert_defining_relations(simple)
                        simples += 1
            assert simples, (ell, r)

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
                top = cellular.TOP
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
        assert simple_module(
            cell_module(ctx, family_m((0, 0)), zero_label)) is None

    def test_quotient_satisfies_relations(self, ctx22):
        for lam in enumerate_multipartitions(2, 2):
            mod = cell_module(ctx22, family_m((0, 1)), lam)
            if rank(mod.gram) == 0:
                continue
            simple = simple_module(mod)
            d = simple.dim
            assert d == rank(mod.gram)
            s1, x1, x2 = simple.actions
            assert mat_mul(s1, s1) == mat_identity(d)
            assert mat_mul(x1, x2) == mat_mul(x2, x1)

    def test_simple_of_matches_reference(self, ctx22):
        degenerate = AlgebraContext(2, 1, (0, 0))
        for ctx in (ctx22, degenerate):
            for fam in families_for(ctx):
                for lam in enumerate_multipartitions(ctx.ell, ctx.r):
                    got = cell_module(ctx, fam, lam).simple
                    if simple_dim(ctx, fam, lam) == 0:
                        assert got is None
                        continue
                    want = simple_module(cell_module(ctx, fam, lam))
                    assert got.actions == want.actions

    @pytest.mark.parametrize("ell,r,omega", [
        (2, 2, (0, 1)), (2, 3, (1, 0)), (3, 3, (0, 1, 2)),
    ])
    def test_batched_quotient_matches_per_generator_reference(self, ell, r,
                                                             omega):
        ctx = AlgebraContext(ell, r, omega)
        checked = 0
        for fam in families_for(ctx):
            for lam in enumerate_multipartitions(ell, r):
                mod = cell_module(ctx, fam, lam)
                if not any(any(row) for row in mod.gram):
                    continue
                got = simple_module(mod)
                want = simple_module_by_generator(mod)
                assert got.actions == want.actions
                checked += 1
        assert checked

    def test_one_elimination_per_simple(self, monkeypatch):
        ctx = AlgebraContext(2, 3, (1, 0))
        mod = cell_module(ctx, family_m((0, 0)), ((1,), (1, 1)))
        assert 0 < rank(mod.gram) < mod.dim
        calls = {"rref": 0, "solve_rows": 0}

        def counted(name, fn):
            def wrapped(*args):
                calls[name] += 1
                return fn(*args)
            return wrapped

        for name in calls:
            monkeypatch.setattr(cellular, name,
                                counted(name, getattr(cellular, name)))
        simple_module(mod)
        assert calls == {"rref": 1, "solve_rows": 1}

    def test_schur(self, ctx22):
        mod = cell_module(ctx22, family_m((0, 0)), ((1,), (1,)))
        simple = simple_module(mod)
        assert intertwiner_dim(simple, simple) == 1

    def test_different_blocks_no_intertwiner(self):
        ctx = AlgebraContext(2, 1, (0, 1))
        a = simple_module(cell_module(ctx, family_m((0, 0)), ((1,), ())))
        b = simple_module(cell_module(ctx, family_m((0, 0)), ((), (1,))))
        assert intertwiner_dim(a, b) == 0


class TestIntertwiners:
    """``intertwiner_dim`` on integer equations against the ``Fraction``
    route it replaced."""

    # no simple or cell module of m, n, mxi or nxi has shown a non-integral
    # entry, so the denominators are planted by a diagonal change of basis
    WEIGHTS = [1, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)]

    @classmethod
    def rescaled(cls, mod, shift):
        """The isomorphic module on the basis w_i . e_i: each generator g
        becomes D^-1 . g . D for D = diag(w)."""
        w = [Fraction(cls.WEIGHTS[(i + shift) % 4]) for i in range(mod.dim)]

        def conj(g):
            return [[x * w[j] / w[i] for j, x in enumerate(row)]
                    for i, row in enumerate(g)]

        return ModuleRealization(mod.ctx, [conj(g) for g in mod.actions])

    @staticmethod
    def has_fraction(mod):
        return any(x.denominator != 1 for mat in mod.actions
                   for row in mat for x in row)

    @pytest.mark.parametrize("ell,r,omega", [
        (2, 3, (1, 0)), (3, 3, (2, 1, 0)), (2, 4, (1, 0)),
    ], ids=["e2r3", "e3r3", "e2r4"])
    def test_dual_pairs_match_fraction_reference(self, ell, r, omega):
        ctx = AlgebraContext(ell, r, omega)
        dims = []
        for c in itertools.product((0, 1), repeat=ell):
            for lam in enumerate_multipartitions(ell, r):
                dual = contragredient(cell_module(ctx, family_m(c), lam))
                tilde = cell_module(ctx, family_n(c), conjugate(lam))
                dim = intertwiner_dim(dual, tilde)
                assert dim == intertwiner_dim_fractions(dual, tilde), (c, lam)
                dims.append(dim)
        assert min(dims) >= 1

    @pytest.mark.parametrize("ell,r,omega,c", [
        (2, 3, (1, 0), (0, 1)), (3, 3, (2, 1, 0), (0, 1, 0)),
    ], ids=["e2r3", "e3r3"])
    def test_simple_pairs_match_fraction_reference(self, ell, r, omega, c):
        ctx = AlgebraContext(ell, r, omega)
        labels = enumerate_multipartitions(ell, r)
        simples_m, simples_n = [
            [mod for mod in (cell_module(ctx, fam, lam).simple
                             for lam in labels)
             if mod is not None]
            for fam in (family_m(c), family_n(c))]
        dims, fractional = [], 0
        for a in simples_m:
            for b in simples_n:
                dim = intertwiner_dim(a, b)
                assert dim == intertwiner_dim_fractions(a, b)
                a2, b2 = self.rescaled(a, 0), self.rescaled(b, 1)
                assert intertwiner_dim(a2, b2) == dim
                assert intertwiner_dim(b2, a2) == dim
                fractional += self.has_fraction(a2) and self.has_fraction(b2)
                dims.append(dim)
        # the simples of one algebra biject, so each m-simple meets exactly
        # one n-simple, in a one-dimensional space of maps
        assert sorted(dims)[-len(simples_m):] == [1] * len(simples_m)
        assert sum(dims) == len(simples_m)
        assert fractional > 0


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
        mod = ModuleRealization(ctx, [zero, zero, F([[0, 1], [0, 0]])])
        with pytest.raises(ValueError, match="x_2 does not act triangularly"):
            block_of(mod)

    def test_non_integer_diagonal_refused(self):
        ctx = AlgebraContext(1, 2, (0,))
        half = F([[Fraction(1, 2), 0], [1, 0]])
        mod = ModuleRealization(ctx, [F([[0, 0], [0, 0]]), half,
                                      F([[1, 0], [0, 1]])])
        with pytest.raises(ValueError, match="non-integer generalized"):
            block_of(mod)

    def test_zero_module_has_no_blocks(self):
        ctx = AlgebraContext(1, 2, (0,))
        assert block_of(ModuleRealization(ctx, [[], [], []])) == {}


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
        assert again.actions == mod.actions

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
