import math

import numpy as np
import pytest

from mvgcn import autodiff as ad
from mvgcn.autodiff import Tape
from mvgcn.errors import ParameterError, ShapeError
from mvgcn.fusion import (
    edge_support,
    fuse_views,
    init_fusion_weights,
    normalize_weights,
    view_importance,
)

import oracles
from dense_reference import complementary_graphs, dense_of, graph_of
from gradcheck import finite_difference_check

# the entry points that validate the views; each takes the mixing weights too
VIEW_STAGES = (complementary_graphs, lambda views, W: fuse_views(edge_support(views), W))


def fused_matrix(views, raw):
    """fuse_views on the views' edge support: the result and the fused
    graph as an m x m array."""
    support = edge_support(views)
    tape = Tape()
    res = fuse_views(support, tape.leaf(raw))
    return res, support.densify(res.fused.value)


def random_views(rng, num_views, m):
    views = []
    for _ in range(num_views):
        W = rng.uniform(size=(m, m))
        A = np.triu(W, 1) + np.triu(W, 1).T + np.diag(rng.uniform(0.1, 1.0, m))
        views.append(graph_of(A, renormalized=True))
    return views


class TestNormalizeWeights:
    def test_zero_raw_is_uniform(self):
        tape = Tape()
        W = normalize_weights(tape.leaf(np.zeros((2, 2))))
        assert W.value == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)

    def test_log_three_row(self):
        tape = Tape()
        raw = np.array([[math.log(3.0), 0.0], [0.0, 0.0]])
        W = normalize_weights(tape.leaf(raw))
        assert W.value[0] == pytest.approx([0.75, 0.25], abs=1e-12)

    def test_random_rows_match_scalar_softmax(self):
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(4, 4))
        tape = Tape()
        W = normalize_weights(tape.leaf(raw)).value
        assert np.sum(W, axis=1) == pytest.approx(np.ones(4), abs=1e-12)
        for v in range(4):
            assert W[v] == pytest.approx(oracles.softmax_row(raw[v].tolist()), abs=1e-14)

    def test_rectangular_rejected(self):
        tape = Tape()
        with pytest.raises(ShapeError):
            normalize_weights(tape.leaf(np.zeros((2, 3))))


class TestComplementaryGraphs:
    def test_single_view_passthrough(self):
        rng = np.random.default_rng(1)
        views = random_views(rng, 1, 5)
        tape = Tape()
        W = normalize_weights(tape.leaf(np.zeros((1, 1))))
        (out,) = complementary_graphs(views, W)
        assert np.array_equal(out, dense_of(views[0]))

    def test_selector_row_copies_one_view(self):
        rng = np.random.default_rng(2)
        views = random_views(rng, 2, 4)
        tape = Tape()
        W = tape.leaf(np.array([[1.0, 0.0], [0.0, 1.0]]))
        outs = complementary_graphs(views, W)
        assert np.array_equal(outs[0], dense_of(views[0]))
        assert np.array_equal(outs[1], dense_of(views[1]))

    def test_random_case_matches_loop_oracle(self):
        rng = np.random.default_rng(3)
        views = random_views(rng, 3, 6)
        raw = rng.normal(size=(3, 3))
        _, comp_want, _, _ = oracles.fusion_chain(
            [dense_of(g).tolist() for g in views], raw.tolist()
        )
        tape = Tape()
        outs = complementary_graphs(views, normalize_weights(tape.leaf(raw)))
        for got, want in zip(outs, comp_want):
            assert got == pytest.approx(np.array(want), abs=1e-12)

    # Each rejection test runs on both entry points that validate the views;
    # fuse_views receives the same leaf as its raw mixing weights.
    def test_weights_that_do_not_match_the_views_rejected(self):
        rng = np.random.default_rng(4)
        views = random_views(rng, 2, 4)
        for stage in VIEW_STAGES:
            tape = Tape()
            with pytest.raises(ShapeError):
                stage(views, tape.leaf(np.zeros((3, 3))))

    def test_mismatched_node_counts_rejected(self):
        rng = np.random.default_rng(4)
        views = random_views(rng, 1, 4) + random_views(rng, 1, 5)
        for stage in VIEW_STAGES:
            tape = Tape()
            W = tape.leaf(np.full((2, 2), 0.5))
            with pytest.raises(ShapeError):
                stage(views, W)

    def test_unrenormalized_views_rejected(self):
        views = [graph_of(np.zeros((3, 3)))]
        for stage in VIEW_STAGES:
            tape = Tape()
            with pytest.raises(ParameterError):
                stage(views, tape.leaf(np.ones((1, 1))))

    def test_no_views_rejected(self):
        for stage in VIEW_STAGES:
            tape = Tape()
            with pytest.raises(ParameterError):
                stage([], tape.leaf(np.ones((1, 1))))


class TestViewImportance:
    def test_uniform_weights(self):
        tape = Tape()
        alpha = view_importance(tape.leaf(np.full((4, 4), 0.25)))
        assert alpha.value == pytest.approx(np.full((1, 4), 0.25), abs=1e-12)

    def test_dead_column_gets_zero(self):
        tape = Tape()
        alpha = view_importance(tape.leaf(np.array([[1.0, 0.0], [1.0, 0.0]])))
        assert alpha.value == pytest.approx(np.array([[1.0, 0.0]]), abs=1e-12)

    def test_random_matches_column_sum_oracle(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(3, 3))
        W_oracle, _, alpha_want, _ = oracles.fusion_chain(
            [np.eye(3).tolist()] * 3, raw.tolist()
        )
        tape = Tape()
        alpha = view_importance(tape.leaf(np.array(W_oracle)))
        assert alpha.value[0] == pytest.approx(alpha_want, abs=1e-12)


class TestFuse:
    def test_zero_raw_weights_average_two_views(self):
        rng = np.random.default_rng(6)
        views = random_views(rng, 2, 5)
        _, fused = fused_matrix(views, init_fusion_weights(2))
        want = 0.5 * (dense_of(views[0]) + dense_of(views[1]))
        assert fused == pytest.approx(want, abs=1e-12)

    def test_identical_views_fuse_to_themselves(self):
        rng = np.random.default_rng(7)
        base = random_views(rng, 1, 4)[0]
        views = [base, base, base]
        _, fused = fused_matrix(views, rng.normal(size=(3, 3)))
        assert fused == pytest.approx(dense_of(base), abs=1e-12)

    def test_random_case_matches_composed_oracle(self):
        rng = np.random.default_rng(8)
        views = random_views(rng, 3, 6)
        raw = rng.normal(size=(3, 3))
        _, _, _, fused_want = oracles.fusion_chain(
            [dense_of(g).tolist() for g in views], raw.tolist()
        )
        _, fused = fused_matrix(views, raw)
        assert fused == pytest.approx(np.array(fused_want), abs=1e-12)

    def test_fused_is_importance_weighted_complementary_graphs(self):
        rng = np.random.default_rng(9)
        views = random_views(rng, 3, 6)
        res, fused = fused_matrix(views, rng.normal(size=(3, 3)))
        comp = complementary_graphs(views, res.weights)
        want = sum(a * c for a, c in zip(res.importance.value[0], comp))
        assert np.max(np.abs(fused - want)) <= 1e-12

    @pytest.mark.parametrize("num_views", [1, 2, 4])
    def test_tape_holds_no_mxm_node(self, num_views):
        rng = np.random.default_rng(16)
        m = 5
        views = random_views(rng, num_views, m)
        support = edge_support(views)
        tape = Tape()
        raw = tape.leaf(rng.normal(size=(num_views, num_views)))
        before = len(tape.nodes)
        res = fuse_views(support, raw)
        added = tape.nodes[before:]
        assert len(added) == 6
        assert not any(n.value.shape == (m, m) for n in added)
        assert res.fused.value.shape == (1, support.nnz)


class TestFusionProperties:
    @pytest.mark.parametrize("seed", range(4))
    def test_permutation_equivariance(self, seed):
        rng = np.random.default_rng(seed)
        V, m = 3, 5
        views = random_views(rng, V, m)
        raw = rng.normal(size=(V, V))
        perm = rng.permutation(V)

        base, base_fused = fused_matrix(views, raw)
        permuted, permuted_fused = fused_matrix([views[p] for p in perm], raw[np.ix_(perm, perm)])

        assert permuted_fused == pytest.approx(base_fused, abs=1e-12)
        assert permuted.importance.value[0] == pytest.approx(
            base.importance.value[0, perm], abs=1e-12
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_fused_entries_within_per_coordinate_view_range(self, seed):
        rng = np.random.default_rng(10 + seed)
        views = random_views(rng, 3, 5)
        stack = np.stack([dense_of(g) for g in views])
        _, fused = fused_matrix(views, rng.normal(size=(3, 3)))
        assert np.all(fused >= stack.min(axis=0) - 1e-12)
        assert np.all(fused <= stack.max(axis=0) + 1e-12)

    def test_invariant_row_sums_and_positivity(self):
        rng = np.random.default_rng(14)
        views = random_views(rng, 3, 4)
        res, fused = fused_matrix(views, rng.normal(size=(3, 3)))
        W, alpha = res.weights.value, res.importance.value
        assert np.sum(W, axis=1) == pytest.approx(np.ones(3), abs=1e-9)
        assert np.all(W > 0)
        assert np.sum(alpha) == pytest.approx(1.0, abs=1e-9)
        assert np.all(alpha > 0)
        assert fused == pytest.approx(fused.T, abs=1e-12)
        assert np.all(fused >= 0)

    def test_gradient_wrt_raw_weights_matches_finite_differences(self):
        rng = np.random.default_rng(15)
        views = random_views(rng, 3, 5)
        support = edge_support(views)
        probe = support.gather(rng.normal(size=(5, 5)))
        raw0 = rng.normal(size=(3, 3))

        def build(tape, leaves):
            res = fuse_views(support, leaves[0])
            return ad.masked_sum(res.fused, probe)

        assert finite_difference_check(build, [raw0]) <= 1e-5
