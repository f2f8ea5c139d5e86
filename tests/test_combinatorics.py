import math
from itertools import permutations

import pytest

from cellular_hecke.combinatorics import (
    all_perms,
    column_reading_tableau,
    conjugate,
    content_multiset,
    count_standard_tableaux,
    d_of,
    dominance_ge,
    enumerate_multipartitions,
    mp_size,
    perm_identity,
    perm_inverse,
    perm_length,
    perm_mul,
    perm_reduced_word,
    perm_simple,
    row_reading_tableau,
    rsk_insert,
    standard_tableaux,
    tableau_conjugate,
    tableau_dominance_ge,
    tableau_shape,
    trim,
    w_lambda,
)
from reference_combinatorics import (
    is_standard_tableau,
    residue_sequence,
    tableau_apply,
)


def count_std_by_box_removal(lam):
    """Independent oracle: count standard fillings by peeling corners."""
    if mp_size(lam) == 0:
        return 1
    total = 0
    for ci, p in enumerate(lam):
        for ri, part in enumerate(p):
            if ri + 1 < len(p) and p[ri + 1] == part:
                continue
            smaller = list(p)
            smaller[ri] -= 1
            sub = list(lam)
            sub[ci] = trim(tuple(smaller))
            total += count_std_by_box_removal(tuple(sub))
    return total


class TestEnumeration:
    def test_single_empty(self):
        assert enumerate_multipartitions(1, 0) == [((),)]

    def test_two_two(self):
        assert enumerate_multipartitions(2, 2) == [
            ((2,), ()), ((1, 1), ()), ((1,), (1,)), ((), (2,)), ((), (1, 1)),
        ]

    def test_contains_running_example(self):
        assert ((3, 2), (3, 1)) in enumerate_multipartitions(2, 9)

    @pytest.mark.parametrize("ell,r", [(1, 5), (2, 4), (3, 3)])
    def test_no_duplicates(self, ell, r):
        labels = enumerate_multipartitions(ell, r)
        assert len(labels) == len(set(labels))
        assert all(mp_size(lam) == r and len(lam) == ell for lam in labels)


class TestConjugate:
    def test_empty(self):
        assert conjugate(((), ())) == ((), ())

    def test_running_example(self):
        assert conjugate(((3, 2), (3, 1))) == ((2, 1, 1), (2, 2, 1))

    def test_staircase_self_conjugate(self):
        assert conjugate(((2, 1),)) == ((2, 1),)

    def test_involution(self):
        for ell in (1, 2, 3):
            for r in range(0, 7):
                for lam in enumerate_multipartitions(ell, r):
                    assert conjugate(conjugate(lam)) == lam


class TestDominance:
    def test_reflexive(self):
        lam = ((2, 1), (1,))
        assert dominance_ge(lam, lam)

    def test_component_order_matters(self):
        assert dominance_ge(((2,), (1,)), ((1,), (2,)))
        assert not dominance_ge(((1,), (2,)), ((2,), (1,)))

    def test_row_vs_column(self):
        assert not dominance_ge(((1, 1), ()), ((2,), ()))

    @pytest.mark.parametrize("ell,r", [(1, 5), (2, 3), (2, 4), (2, 5)])
    def test_partial_order_axioms(self, ell, r):
        labels = enumerate_multipartitions(ell, r)
        for a in labels:
            for b in labels:
                if dominance_ge(a, b) and dominance_ge(b, a):
                    assert a == b
                for c in labels:
                    if dominance_ge(a, b) and dominance_ge(b, c):
                        assert dominance_ge(a, c)

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            dominance_ge(((1,), ()), ((2,), ()))


class TestStandardTableaux:
    def test_counts_small(self):
        assert len(standard_tableaux(((1,), (1,)))) == 2
        assert len(standard_tableaux(((2, 1),))) == 2
        assert standard_tableaux(((), ())) == [((), ())]

    @pytest.mark.parametrize("ell,r", [(1, 5), (2, 3), (3, 2)])
    def test_counts_match_box_removal_oracle(self, ell, r):
        for lam in enumerate_multipartitions(ell, r):
            tabs = standard_tableaux(lam)
            assert len(tabs) == count_std_by_box_removal(lam)
            assert len(set(tabs)) == len(tabs)
            for t in tabs:
                assert is_standard_tableau(t)
                assert tableau_shape(t) == lam

    def test_hook_length_count_matches_enumeration(self):
        for ell in (1, 2, 3):
            for r in range(7):
                for lam in enumerate_multipartitions(ell, r):
                    assert (count_standard_tableaux(lam)
                            == len(standard_tableaux(lam)))

    def test_hook_length_count_beyond_enumeration(self):
        # the 30,710,464 standard tableaux at (2,12), none of them built
        assert sum(count_standard_tableaux(lam)
                   for lam in enumerate_multipartitions(2, 12)) == 30710464

    @pytest.mark.parametrize("ell,r", [(1, 4), (2, 3), (3, 2)])
    def test_squares_sum_to_dimension(self, ell, r):
        total = sum(
            len(standard_tableaux(lam)) ** 2
            for lam in enumerate_multipartitions(ell, r)
        )
        assert total == ell ** r * math.factorial(r)

    def test_row_reading_tableau_sorts_first(self):
        # cellular.TOP relies on it: the top tableau is index 0 of every list
        labels = [lam for ell in range(1, 5) for r in range(7)
                  if ell ** r <= 5000
                  for lam in enumerate_multipartitions(ell, r)]
        assert len(labels) == 1574
        for lam in labels:
            assert standard_tableaux(lam)[0] == row_reading_tableau(lam), lam


class TestReadingTableaux:
    def test_running_example_row(self):
        t = row_reading_tableau(((3, 2), (3, 1)))
        assert t == (((1, 2, 3), (4, 5)), ((6, 7, 8), (9,)))

    def test_running_example_column(self):
        t = column_reading_tableau(((3, 2), (3, 1)))
        assert t == (((5, 7, 9), (6, 8)), ((1, 3, 4), (2,)))

    def test_single_row(self):
        lam = ((4,),)
        assert row_reading_tableau(lam) == column_reading_tableau(lam)

    def test_dominance_needs_equal_components_and_size(self):
        one = row_reading_tableau(((1,), ()))
        with pytest.raises(ValueError, match="numbers of components"):
            tableau_dominance_ge(one, row_reading_tableau(((1,),)))
        with pytest.raises(ValueError, match="sizes"):
            tableau_dominance_ge(one, row_reading_tableau(((2,), ())))

    def test_extremes_of_dominance(self):
        for lam in enumerate_multipartitions(2, 3):
            top = row_reading_tableau(lam)
            bot = column_reading_tableau(lam)
            for t in standard_tableaux(lam):
                assert tableau_dominance_ge(top, t)
                assert tableau_dominance_ge(t, bot)


class TestPermutations:
    def test_reduced_word_reassembles(self):
        for w in all_perms(4):
            word = perm_reduced_word(w)
            assert len(word) == perm_length(w)
            acc = perm_identity(4)
            for i in word:
                acc = perm_mul(acc, perm_simple(4, i))
            assert acc == w

    def test_inverse(self):
        for w in all_perms(4):
            assert perm_mul(w, perm_inverse(w)) == perm_identity(4)


class TestWordMaps:
    def test_d_of_identity(self):
        lam = ((3, 2), (3, 1))
        assert d_of(row_reading_tableau(lam)) == perm_identity(9)

    def test_d_of_running_example(self):
        lam = ((3, 2), (3, 1))
        w = perm_mul(perm_simple(9, 1), perm_simple(9, 2))
        t = tableau_apply(row_reading_tableau(lam), w)
        assert t[0] == ((3, 1, 2), (4, 5))
        assert d_of(t) == w

    def test_d_of_column_tableau_is_w_lambda(self):
        for lam in enumerate_multipartitions(2, 4):
            assert d_of(column_reading_tableau(lam)) == w_lambda(lam)

    def test_w_lambda_single_row(self):
        assert w_lambda(((4,),)) == perm_identity(4)

    def test_w_lambda_two_singletons(self):
        assert w_lambda(((1,), (1,))) == perm_simple(2, 1)

    @pytest.mark.parametrize("lam", [
        ((3, 2), (3, 1)), ((2, 1), (1,)), ((1, 1), (2,)),
    ])
    def test_w_lambda_factorization(self, lam):
        wl = w_lambda(lam)
        for t in standard_tableaux(lam):
            tp = tableau_conjugate(t)
            assert perm_mul(d_of(t), perm_inverse(d_of(tp))) == wl
            assert perm_length(d_of(t)) + perm_length(d_of(tp)) \
                == perm_length(wl)


class TestTableauConjugate:
    def test_involution(self):
        for lam in enumerate_multipartitions(2, 4):
            for t in standard_tableaux(lam):
                assert tableau_conjugate(tableau_conjugate(t)) == t
                assert tableau_shape(tableau_conjugate(t)) == conjugate(lam)

    def test_row_goes_to_dual_column(self):
        for lam in enumerate_multipartitions(2, 4):
            assert tableau_conjugate(row_reading_tableau(lam)) \
                == column_reading_tableau(conjugate(lam))

    def test_single_row_becomes_column(self):
        t = tableau_conjugate(row_reading_tableau(((2,),)))
        assert t == (((1,), (2,)),)


class TestRowInsertion:
    def test_example_word(self):
        assert rsk_insert((3, 1, 4, 3, 1, 3, 1)) == \
            ((1, 1, 1), (3, 3, 3), (4,))

    def test_sorted_word(self):
        assert rsk_insert((1, 2, 3)) == ((1, 2, 3),)

    def test_rejected_word(self):
        assert rsk_insert((3, 1, 4, 3, 2, 2, 1)) == \
            ((1, 1, 2), (2, 3), (3,), (4,))

    def test_semistandard_with_same_content(self):
        for word in permutations((1, 1, 2, 3, 3)):
            p = rsk_insert(word)
            letters = sorted(x for row in p for x in row)
            assert letters == sorted(word)
            for row in p:
                assert all(row[i] <= row[i + 1] for i in range(len(row) - 1))
            for i in range(len(p) - 1):
                assert all(p[i][j] < p[i + 1][j] for j in range(len(p[i + 1])))


class TestResidues:
    def test_contents_of_row(self):
        assert content_multiset(((2,),), (0,)) == (0, 1)
        assert residue_sequence(row_reading_tableau(((2,),)), (0,)) == (0, 1)

    def test_component_shift(self):
        assert content_multiset(((1,), (1, 1)), (0, 5)) == (0, 4, 5)
