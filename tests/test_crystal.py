import pytest

from cellular_hecke import crystal
from cellular_hecke.algebra import AlgebraContext
from cellular_hecke.cellular import cell_module, family_m
from cellular_hecke.combinatorics import (
    content_multiset,
    enumerate_multipartitions,
    partitions,
)
from cellular_hecke.crystal import (
    Window,
    ZeroOneTuple,
    component_of_empty,
    crystal_edges,
    crystal_f,
    default_window,
    empty_label,
    gamma,
    nonzero_labels,
    ones_counts,
)
from cellular_hecke.linalg import rank
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


class TestVertices:
    def test_empty_label_maps_to_empty(self):
        win = default_window((0, 1), 2)
        v = empty_label((0, 1), win)
        assert gamma(v) == ((), ())

    def test_window_too_small(self):
        with pytest.raises(ValueError):
            empty_label((0, 5), Window(0, 3))

    def test_counts(self):
        win = Window(-1, 4)
        assert ones_counts((0, 1), win) == (2, 3)


class TestOperators:
    def test_single_component_flip(self):
        win = Window(0, 2)
        v = ZeroOneTuple(win, ((1, 0, 0),))
        w = crystal_f(v, 0)
        assert w == ZeroOneTuple(win, ((0, 1, 0),))
        assert crystal_f(v, 1) is None

    def test_e_f_inverse_on_component(self):
        seen = component_of_empty((0, 1), 2)
        for v in seen:
            for j in range(v.window.lo, v.window.hi):
                fv = crystal_f(v, j)
                if fv is not None:
                    assert crystal_e(fv, j) == v
                ev = crystal_e(v, j)
                if ev is not None:
                    assert crystal_f(ev, j) == v

    def test_component_closed_under_raising(self):
        seen = component_of_empty((0, 0), 3)
        for v in seen:
            for j in range(v.window.lo, v.window.hi):
                ev = crystal_e(v, j)
                if ev is not None:
                    assert ev in seen

    def test_each_step_adds_one_box_of_color_residue(self):
        omega = (0, 1)
        seen = component_of_empty(omega, 2)
        for v, depth in seen.items():
            g = gamma(v)
            assert sum(map(sum, g)) == depth
            for j in range(v.window.lo, v.window.hi):
                w = crystal_f(v, j)
                if w is None:
                    continue
                before = list(content_multiset(g, omega))
                after = list(content_multiset(gamma(w), omega))
                for x in before:
                    after.remove(x)
                assert after == [j]


class TestGammaInjectivity:
    def test_distinct_vertices_distinct_labels(self):
        seen = component_of_empty((0, 1), 3)
        images = [gamma(v) for v in seen]
        assert len(images) == len(set(images))


class TestOnePositionReading:
    def test_one_block_example(self):
        # ones at {1..N-n-1} and {N}: the top one sits n above its
        # empty-label position, so the label is the row (n)
        N, n = 9, 4
        win = Window(1, N)
        bits = tuple(
            1 if (1 <= p <= N - n - 1 or p == N) else 0
            for p in range(win.lo, win.hi + 1)
        )
        v = ZeroOneTuple(win, (bits,))
        assert gamma(v) == ((n,),)


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

    def test_orientation_flag_is_pinned_by_oracle(self):
        # reading the components first to last is reading them last to first
        # on the reversed components (and parameters); that other reading
        # disagrees with the oracle already at r = 2
        other = {lam[::-1] for lam in nonzero_labels((1, 0), 2)}
        assert other != gram_oracle((0, 1), 2)

    def test_window_enlargement_invariance(self, monkeypatch):
        def bigger(omega, r):
            base = default_window(omega, r)
            return Window(base.lo - 2, base.hi + 3)

        cases = [(omega, r) for omega in [(0, 1), (1, 0), (0, 0)]
                 for r in (1, 2)]
        want = {case: nonzero_labels(*case) for case in cases}
        monkeypatch.setattr(crystal, "default_window", bigger)
        for omega, r in cases:
            start = next(iter(component_of_empty(omega, r)))
            assert start.window == bigger(omega, r)
            assert nonzero_labels(omega, r) == want[(omega, r)]


class TestEdges:
    def test_edges_stay_in_component(self):
        seen = component_of_empty((0, 1), 2)
        for src, j, dst in crystal_edges(seen):
            assert src in seen and dst in seen
            assert crystal_f(src, j) == dst
