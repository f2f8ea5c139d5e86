import itertools

import pytest

from cellular_hecke.algebra import AlgebraContext
from cellular_hecke.cellular import cell_module, family_m
from cellular_hecke.combinatorics import (
    content_multiset,
    enumerate_multipartitions,
    partitions,
)
from cellular_hecke.crystal import (
    component_of_empty,
    crystal_edges,
    crystal_f,
    nonzero_labels,
)
from cellular_hecke.linalg import rank
import reference_crystal as bit
from reference_crystal import crystal_e
from reference_linalg import sparse_rows


def gram_oracle(omega, r):
    """Independent route to the nonzero labels: Gram ranks on the algebra."""
    ctx = AlgebraContext(len(omega), r, omega)
    fam = family_m((0,) * len(omega))
    return {
        lam for lam in enumerate_multipartitions(len(omega), r)
        if rank(sparse_rows(cell_module(ctx, fam, lam).gram)) > 0
    }


def colors(omega, r):
    """Every residue a box of a label of at most r + 1 boxes can have."""
    return range(min(omega) - r - 1, max(omega) + r + 2)


class TestVertices:
    def test_empty_label_maps_to_empty(self):
        assert component_of_empty((0, 1), 0) == {((), ()): 0}
        win = bit.default_window((0, 1), 2)
        assert bit.gamma(bit.empty_label((0, 1), win)) == ((), ())

    # the reference bit model refuses a window that would truncate it
    def test_window_too_small(self):
        with pytest.raises(ValueError):
            bit.empty_label((0, 5), bit.Window(0, 3))

    def test_counts(self):
        assert bit.ones_counts((0, 1), bit.Window(-1, 4)) == (2, 3)


class TestOperators:
    def test_single_component_flip(self):
        assert crystal_f(((),), (0,), 0) == ((1,),)
        assert crystal_f(((),), (0,), 1) is None

    def test_e_f_inverse_on_component(self):
        omega = (0, 1)
        seen = component_of_empty(omega, 2)
        for lam in seen:
            for j in colors(omega, 2):
                f_lam = crystal_f(lam, omega, j)
                if f_lam is not None:
                    assert crystal_e(f_lam, omega, j) == lam
                e_lam = crystal_e(lam, omega, j)
                if e_lam is not None:
                    assert crystal_f(e_lam, omega, j) == lam

    def test_component_closed_under_raising(self):
        omega = (0, 0)
        seen = component_of_empty(omega, 3)
        for lam in seen:
            for j in colors(omega, 3):
                e_lam = crystal_e(lam, omega, j)
                if e_lam is not None:
                    assert e_lam in seen

    def test_each_step_adds_one_box_of_color_residue(self):
        omega = (0, 1)
        seen = component_of_empty(omega, 2)
        for lam, depth in seen.items():
            assert sum(map(sum, lam)) == depth
            for j in colors(omega, 2):
                mu = crystal_f(lam, omega, j)
                if mu is None:
                    continue
                before = list(content_multiset(lam, omega))
                after = list(content_multiset(mu, omega))
                for x in before:
                    after.remove(x)
                assert after == [j]


class TestBitModel:
    """The crystal against the reference model on 01-sequences."""

    @pytest.mark.parametrize("ell,entries,depths", [
        pytest.param(1, range(-2, 4), range(6), id="ell1"),
        pytest.param(2, range(-2, 4), range(6), id="ell2"),
        pytest.param(3, range(-1, 2), range(5), id="ell3"),
        pytest.param(4, range(0, 2), range(3), id="ell4"),
    ])
    def test_same_vertices_depths_and_edges(self, ell, entries, depths):
        for omega in itertools.product(entries, repeat=ell):
            for depth in depths:
                seen = component_of_empty(omega, depth)
                ref = bit.bit_component_of_empty(omega, depth)
                assert {bit.gamma(v): d for v, d in ref.items()} == seen
                assert set(crystal_edges(seen, omega)) == {
                    (bit.gamma(v), j, bit.gamma(w))
                    for v, j, w in bit.bit_edges(ref)
                }, (omega, depth)


class TestGammaInjectivity:
    def test_distinct_vertices_distinct_labels(self):
        seen = bit.bit_component_of_empty((0, 1), 3)
        images = [bit.gamma(v) for v in seen]
        assert len(images) == len(set(images))


class TestOnePositionReading:
    def test_one_block_example(self):
        # ones at {1..N-n-1} and {N}: the top one sits n above its
        # empty-label position, so the label is the row (n)
        N, n = 9, 4
        win = bit.Window(1, N)
        bits = tuple(
            1 if (1 <= p <= N - n - 1 or p == N) else 0
            for p in range(win.lo, win.hi + 1)
        )
        v = bit.ZeroOneTuple(win, (bits,))
        assert bit.gamma(v) == ((n,),)


class TestClassification:
    def test_depth_zero(self):
        seen = component_of_empty((0, 1), 0)
        assert len(seen) == 1

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_single_parameter_reaches_all_partitions(self, r):
        assert nonzero_labels((0,), r) == {(p,) for p in partitions(r)}

    def test_semisimple_parameters_reach_everything(self):
        assert nonzero_labels((0, 5), 2) == set(enumerate_multipartitions(2, 2))

    @pytest.mark.parametrize("omega", [(0, 1), (0, 0)])
    @pytest.mark.parametrize("r", [1, 2])
    def test_agrees_with_gram_oracle(self, omega, r):
        assert nonzero_labels(omega, r) == gram_oracle(omega, r)

    @pytest.mark.parametrize("omega", [(1, 0), (0, 0), (0, 1)])
    def test_agrees_with_gram_oracle_at_r4(self, omega):
        assert nonzero_labels(omega, 4) == gram_oracle(omega, 4)

    @pytest.mark.parametrize("omega", [(0, 0, 1), (0, 1, 5)])
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_agrees_with_gram_oracle_three_components(self, omega, r):
        assert nonzero_labels(omega, r) == gram_oracle(omega, r)

    @pytest.mark.parametrize("omega,r", [
        ((-1, 1), 2), ((-1, 1), 3), ((1, -1), 2), ((1, -1), 3),
        ((2, 0, 0), 2),
    ])
    def test_agrees_with_gram_oracle_negative_and_tied(self, omega, r):
        assert nonzero_labels(omega, r) == gram_oracle(omega, r)

    def test_orientation_flag_is_pinned_by_oracle(self):
        # reading the components first to last is reading them last to first
        # on the reversed components (and parameters); that other reading
        # disagrees with the oracle already at r = 2
        other = {lam[::-1] for lam in nonzero_labels((1, 0), 2)}
        assert other != gram_oracle((0, 1), 2)

    def test_window_enlargement_invariance(self):
        # a larger window leaves the reference's labels as they are: the
        # default window never binds it
        for omega in [(0, 1), (1, 0), (0, 0)]:
            for r in (1, 2):
                base = bit.default_window(omega, r)
                wide = bit.Window(base.lo - 2, base.hi + 3)
                seen = bit.bit_component_of_empty(omega, r, wide)
                assert {bit.gamma(v) for v, d in seen.items() if d == r} == (
                    nonzero_labels(omega, r))


class TestEdges:
    def test_edges_stay_in_component(self):
        omega = (0, 1)
        seen = component_of_empty(omega, 2)
        for src, j, dst in crystal_edges(seen, omega):
            assert src in seen and dst in seen
            assert crystal_f(src, omega, j) == dst
