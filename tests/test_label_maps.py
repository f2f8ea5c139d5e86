import itertools

import pytest
from hypothesis import given, settings, strategies as st

from cellular_hecke.algebra import AlgebraContext
from cellular_hecke.cellular import (
    cell_module,
    family_m,
    family_m_xi,
    family_n,
    intertwiner_dim,
    simple_module,
)
from cellular_hecke.combinatorics import enumerate_multipartitions, mp_size
from cellular_hecke.label_maps import (
    A_of_lambda,
    XiContext,
    base_tableau,
    eta,
    gamma_word,
    generalized_mullineux,
    is_standard,
    lambda_of_A,
    match_simples,
    mullineux_xi,
    r_map,
    xi_context,
)
from cellular_hecke.linalg import rank
from reference_linalg import sparse_rows

# the worked three-column example: heights (3,2,2), columns swapped by s1
SWAPPED_CTX = XiContext((3, 2, 2), (2, 1, 3), lo=1)
SWAPPED_CTX_ID = SWAPPED_CTX.with_xi((1, 2, 3))
EXAMPLE_A = ((3, 1), (4, 3, 1), (3, 1))
EXAMPLE_B = ((3, 1), (4, 3, 2), (2, 1))


class TestEta:
    def test_zero_twist_is_identity(self):
        lam = ((2, 1), (3,))
        assert eta(lam, (0, 0)) == lam

    def test_single_row_transposes(self):
        assert eta(((3,),), (1,)) == ((1, 1, 1),)

    def test_involution(self):
        for lam in enumerate_multipartitions(2, 4):
            for c in [(0, 1), (1, 0), (1, 1)]:
                assert eta(eta(lam, c), c) == lam

    def test_no_reordering(self):
        assert eta(((2,), (1, 1)), (1, 1)) == ((1, 1), (2,))


class TestColumnTableaux:
    def test_base_tableau_swapped(self):
        assert base_tableau(SWAPPED_CTX) == ((2, 1), (3, 2, 1), (2, 1))

    def test_base_tableau_identity(self):
        assert base_tableau(SWAPPED_CTX_ID) == ((3, 2, 1), (2, 1), (2, 1))

    def test_base_tableau_is_empty_label(self):
        assert lambda_of_A(base_tableau(SWAPPED_CTX), SWAPPED_CTX) == ((), (), ())

    def test_round_trip(self):
        lam = ((1,), (1, 1), (1,))
        assert lambda_of_A(A_of_lambda(lam, SWAPPED_CTX), SWAPPED_CTX) == lam
        assert A_of_lambda(lambda_of_A(EXAMPLE_A, SWAPPED_CTX), SWAPPED_CTX) == EXAMPLE_A

    def test_too_many_parts(self):
        with pytest.raises(ValueError):
            A_of_lambda((((1, 1, 1), (), ())), SWAPPED_CTX)

    def test_omega_must_be_decreasing(self):
        with pytest.raises(ValueError):
            XiContext((1, 2), (1, 2), lo=0)

    def test_column_strictness_enforced(self):
        with pytest.raises(ValueError):
            lambda_of_A(((1, 1), (3, 2, 1), (2, 1)), SWAPPED_CTX)


class TestReadingWord:
    def test_reading_word_of_example(self):
        assert gamma_word(EXAMPLE_A) == (3, 1, 4, 3, 1, 3, 1)

    def test_base_word(self):
        assert gamma_word(base_tableau(SWAPPED_CTX)) == (2, 1, 3, 2, 1, 2, 1)

    def test_single_column(self):
        assert gamma_word(((4, 3, 2, 1),)) == (4, 3, 2, 1)


class TestStandardness:
    def test_example_standard(self):
        assert lambda_of_A(EXAMPLE_A, SWAPPED_CTX) == ((1,), (1, 1), (1,))
        assert is_standard(EXAMPLE_A, SWAPPED_CTX)

    def test_example_non_standard(self):
        assert not is_standard(EXAMPLE_B, SWAPPED_CTX)

    def test_base_tableau_standard(self):
        assert is_standard(base_tableau(SWAPPED_CTX), SWAPPED_CTX)


class TestRMap:
    def test_example_image(self):
        r = r_map(EXAMPLE_A, SWAPPED_CTX)
        assert r == ((4, 3, 1), (3, 1), (3, 1))
        assert lambda_of_A(r, SWAPPED_CTX_ID) == ((1, 1), (1,), (1,))

    def test_base_goes_to_base(self):
        assert r_map(base_tableau(SWAPPED_CTX), SWAPPED_CTX) \
            == base_tableau(SWAPPED_CTX_ID)

    def test_non_standard_rejected(self):
        with pytest.raises(ValueError):
            r_map(EXAMPLE_B, SWAPPED_CTX)

    @pytest.mark.parametrize("omega", [(1, 0), (3, 2)])
    def test_identity_xi_fixes_standard_tableaux(self, omega):
        for r in range(4):
            ctx = xi_context(omega, (1, 2), size=max(r, 1))
            for lam in enumerate_multipartitions(2, r):
                try:
                    cols = A_of_lambda(lam, ctx)
                except ValueError:
                    continue
                if is_standard(cols, ctx):
                    assert r_map(cols, ctx) == cols

    def test_image_is_standard_and_size_preserved(self):
        ctx = xi_context((1, 0), (2, 1), size=3)
        ctx1 = ctx.with_xi((1, 2))
        for r in range(4):
            for lam in enumerate_multipartitions(2, r):
                try:
                    cols = A_of_lambda(lam, ctx)
                except ValueError:
                    continue
                if not is_standard(cols, ctx):
                    continue
                image = r_map(cols, ctx)
                assert is_standard(image, ctx1)
                assert mp_size(lambda_of_A(image, ctx1)) == mp_size(lam)


class TestMullineuxXi:
    def test_example_composite(self):
        assert mullineux_xi(((1,), (1, 1), (1,)), SWAPPED_CTX) \
            == ((1, 1), (1,), (1,))

    def test_empty(self):
        assert mullineux_xi(((), (), ()), SWAPPED_CTX) == ((), (), ())

    def test_base_point_invariance(self):
        lam = ((1,), (2,))
        for lo in (-4, -3, -2):
            ctx = XiContext((1, 0), (2, 1), lo=lo)
            assert mullineux_xi(lam, ctx) == mullineux_xi(
                lam, XiContext((1, 0), (2, 1), lo=lo - 1))

    def test_certified_by_intertwiners(self):
        for r in (1, 2):
            actx = AlgebraContext(2, r, (1, 0))
            xctx = xi_context((1, 0), (2, 1), size=r)
            fam_xi, fam_1 = family_m_xi((2, 1)), family_m_xi((1, 2))
            for lam in enumerate_multipartitions(2, r):
                mu = mullineux_xi(lam, xctx)
                mod_xi = cell_module(actx, fam_xi, lam)
                if mu is None:
                    assert rank(sparse_rows(mod_xi.gram)) == 0
                    continue
                mod_1 = cell_module(actx, fam_1, mu)
                assert intertwiner_dim(
                    simple_module(mod_xi), simple_module(mod_1)) == 1


class TestGeneralizedMullineux:
    def test_single_component_is_conjugation(self):
        assert generalized_mullineux(((3, 1),), (0,)) == ((2, 1, 1),)

    def test_empty(self):
        assert generalized_mullineux(((), ()), (1, 0)) == ((), ())

    def test_requires_decreasing_omega(self):
        with pytest.raises(ValueError):
            generalized_mullineux(((1,), ()), (0, 1))

    @staticmethod
    def composite_table(ell, r, omega):
        images = {lam: generalized_mullineux(lam, omega)
                  for lam in enumerate_multipartitions(ell, r)}
        return {lam: mu for lam, mu in images.items() if mu is not None}

    @pytest.mark.parametrize("omega", [(1, 0), (0, 0), (1, 1)])
    @pytest.mark.parametrize("r", [1, 2])
    def test_agrees_with_intertwiner_oracle(self, r, omega):
        ctx = AlgebraContext(2, r, omega)
        table = dict(match_simples(ctx, family_n((0, 0)), family_m((0, 0))))
        assert table == self.composite_table(2, r, omega)

    # every weakly decreasing omega in {0,1,2}^3, partial ties included
    @pytest.mark.parametrize("omega", [
        omega for omega in itertools.product((2, 1, 0), repeat=3)
        if list(omega) == sorted(omega, reverse=True)])
    @pytest.mark.parametrize("r", [2, 3])
    def test_takes_sign_type_to_trivial_type_labels(self, r, omega):
        ctx = AlgebraContext(3, r, omega)
        table = dict(
            match_simples(ctx, family_n((0, 0, 0)), family_m((0, 0, 0))))
        assert table == self.composite_table(3, r, omega)

    # drawn weakly decreasing omega, negative and widely spaced entries too
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(st.sampled_from([3, 4]).flatmap(
        lambda ell: st.lists(st.integers(-3, 5), min_size=ell, max_size=ell)))
    def test_drawn_omega_takes_sign_type_to_trivial_type_labels(self, omega):
        omega = tuple(sorted(omega, reverse=True))
        ell = len(omega)
        ctx = AlgebraContext(ell, 2, omega)
        table = dict(
            match_simples(ctx, family_n((0,) * ell), family_m((0,) * ell)))
        assert table == self.composite_table(ell, 2, omega)

    def test_is_not_the_trivial_to_sign_table_at_a_partial_tie(self):
        omega = (1, 1, 0)
        ctx = AlgebraContext(3, 3, omega)
        table = dict(
            match_simples(ctx, family_m((0, 0, 0)), family_n((0, 0, 0))))
        assert table != self.composite_table(3, 3, omega)
        assert generalized_mullineux(((), (), (2, 1)), omega) \
            == ((), (2,), (1,))


class TestMatchSimples:
    def test_identity_table(self):
        ctx = AlgebraContext(2, 2, (0, 1))
        fam = family_m((0, 0))
        table = match_simples(ctx, fam, fam)
        assert all(a == b for a, b in table)

    def test_eta_table(self):
        ctx = AlgebraContext(2, 2, (0, 1))
        for c in [(0, 1), (1, 0), (1, 1)]:
            table = dict(match_simples(ctx, family_m((0, 0)), family_m(c)))
            for lam, mu in table.items():
                assert mu == eta(lam, c)

    def test_eta_table_three_components(self):
        for omega in [(0, 1, 5), (0, 0, 1)]:
            ctx = AlgebraContext(3, 2, omega)
            for c in [(0, 1, 0), (1, 1, 1), (0, 0, 1)]:
                table = dict(
                    match_simples(ctx, family_m((0, 0, 0)), family_m(c)))
                for lam, mu in table.items():
                    assert mu == eta(lam, c), (omega, c, lam, mu)


class TestThreeComponentRelabeling:
    """The xi-table at ell = 3, including tied parameters, against the
    intertwiner oracle."""

    @pytest.mark.parametrize("omega,xi", [
        ((1, 0, 0), (2, 1, 3)),
        ((1, 0, 0), (3, 2, 1)),
        ((1, 1, 0), (2, 1, 3)),
    ])
    def test_oracle_agreement(self, omega, xi):
        from cellular_hecke.cellular import family_m_xi as fxi

        for r in (1, 2):
            ctx = AlgebraContext(3, r, omega)
            xctx = xi_context(omega, xi, size=r)
            table = dict(match_simples(ctx, fxi(xi), fxi((1, 2, 3))))
            closed = {
                lam: mullineux_xi(lam, xctx)
                for lam in enumerate_multipartitions(3, r)
                if mullineux_xi(lam, xctx) is not None
            }
            assert table == closed, (omega, xi, r)


# labels of size <= 4 with ell components, for the label-map properties
SMALL_LABELS = {ell: [lam for n in range(5)
                      for lam in enumerate_multipartitions(ell, n)]
                for ell in (2, 3)}


def _xi_label_cases():
    """(context, label): weakly decreasing omega, any xi, |label| <= 4, with
    the base point the CLI uses."""
    def for_ell(ell):
        return st.tuples(
            st.lists(st.integers(-2, 3), min_size=ell, max_size=ell).map(
                lambda w: tuple(sorted(w, reverse=True))),
            st.permutations(range(1, ell + 1)).map(tuple),
            st.sampled_from(SMALL_LABELS[ell]),
        ).map(lambda t: (xi_context(t[0], t[1], size=max(mp_size(t[2]), 1)),
                         t[2]))
    return st.sampled_from([2, 3]).flatmap(for_ell)


class TestLabelMapProperties:
    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_xi_label_cases())
    def test_lambda_of_A_inverts_A_of_lambda(self, case):
        ctx, lam = case
        assert lambda_of_A(A_of_lambda(lam, ctx), ctx) == lam

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_xi_label_cases())
    def test_image_keeps_size_and_is_standard(self, case):
        ctx, lam = case
        out = mullineux_xi(lam, ctx)
        if out is not None:
            ctx_id = ctx.with_xi(tuple(range(1, ctx.ell + 1)))
            assert mp_size(out) == mp_size(lam)
            assert is_standard(A_of_lambda(out, ctx_id), ctx_id)

    @settings(derandomize=True, max_examples=150, deadline=None)
    @given(_xi_label_cases())
    def test_identity_xi_fixes_standard_labels(self, case):
        ctx, lam = case
        ctx = ctx.with_xi(tuple(range(1, ctx.ell + 1)))
        if is_standard(A_of_lambda(lam, ctx), ctx):
            assert mullineux_xi(lam, ctx) == lam
