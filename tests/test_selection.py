import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mvgcn import autodiff as ad
from mvgcn import graphs, selection
from mvgcn.autodiff import Tape
from mvgcn.data import make_synthetic
from mvgcn.errors import DomainError, ParameterError, ShapeError
from mvgcn.experiment import prepare_graphs
from mvgcn.fusion import edge_support
from mvgcn.selection import (
    column_mean_nonzero,
    confidence_coefficients,
    dcg_confidence,
    differentiable_node_selection,
    hard_topk_baseline,
    hard_topk_edges,
    normalize_confidence,
    pairwise_difference,
    relaxed_permutation,
    select_nodes,
)

import dense_reference
import oracles
from dense_reference import on_support, support_of
from gradcheck import finite_difference_check

finite_scores = st.lists(
    st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
    min_size=2,
    max_size=12,
)


def arr(value):
    return np.asarray(value, dtype=float)


def set_block_rows(monkeypatch, rows, m):
    """Sweep the m-wide arrays of the selection op in blocks of ``rows``
    rows; None keeps the default block size."""
    if rows is not None:
        monkeypatch.setattr(graphs, "_ROW_BLOCK_ENTRIES", rows * m)


def edge_means(A):
    support, F = on_support(arr(A))
    return column_mean_nonzero(F, support)


def gated_matrix(A, ibar, raw_theta):
    """select_nodes on the support of A, as an m x m array."""
    support, F = on_support(arr(A))
    return support.densify(select_nodes(F, arr(ibar), arr(raw_theta), support))


def select_on_support(A, raw_theta, tau):
    """The selection op on the support of A: (support, leaves, result)."""
    support, F = on_support(A)
    tape = Tape()
    adj, theta = tape.leaf(F), tape.leaf(raw_theta)
    return support, (adj, theta), differentiable_node_selection(adj, theta, tau, support)


class TestColumnMeanNonzero:
    def test_single_column_mean(self):
        A = np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0], [4.0, 0.0, 0.0]])
        out = edge_means(A)
        assert out == pytest.approx(np.array([[3.0, 0.0, 0.0]]), abs=1e-15)

    def test_identity_scores_one_per_column(self):
        out = edge_means(np.eye(3))
        assert np.array_equal(out, np.ones((1, 3)))

    def test_random_sparse_matches_counting_oracle(self):
        rng = np.random.default_rng(0)
        A = rng.uniform(size=(6, 6)) * (rng.uniform(size=(6, 6)) > 0.5)
        out = edge_means(A)
        want = oracles.column_mean_nonzero(A.tolist())
        assert out[0] == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_equals_the_dense_column_sums_bit_for_bit(self, seed):
        # asymmetric values on a symmetrized support, so some edges are zero
        rng = np.random.default_rng(seed)
        A = rng.uniform(0.1, 3.0, size=(40, 40)) * (rng.uniform(size=(40, 40)) < 0.2)
        assert edge_means(A).tobytes() == dense_reference.column_means(A)[0].tobytes()


class TestPairwiseDifference:
    def test_two_scores(self):
        out = pairwise_difference(arr([[1.0, 3.0]]))
        assert np.array_equal(out, np.array([[0.0, 2.0], [2.0, 0.0]]))

    def test_constant_scores_vanish(self):
        out = pairwise_difference(arr([[2.5, 2.5, 2.5]]))
        assert np.array_equal(out, np.zeros((3, 3)))

    def test_random_matches_double_loop(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=8)
        out = pairwise_difference(arr(a.reshape(1, -1)))
        assert out == pytest.approx(np.array(oracles.pairwise_diff(a.tolist())), abs=1e-15)

    @given(finite_scores)
    @settings(max_examples=40, deadline=None)
    def test_symmetric_nonneg_zero_diag(self, scores):
        out = pairwise_difference(arr([scores]))
        assert np.array_equal(out, out.T)
        assert np.all(out >= 0)
        assert np.all(np.diag(out) == 0)

    def test_column_input_rejected(self):
        with pytest.raises(ShapeError):
            pairwise_difference(arr([[1.0], [2.0]]))


class TestRelaxedPermutation:
    def test_singleton(self):
        out = relaxed_permutation(arr([[4.2]]), tau=0.5)
        assert np.array_equal(out, np.ones((1, 1)))

    def test_two_node_hand_values(self):
        P = relaxed_permutation(arr([[2.0, 1.0]]), tau=1.0)
        hi = 0.7310585786300049
        lo = 0.2689414213699951
        assert P[0] == pytest.approx([hi, lo], abs=1e-12)
        assert P[1] == pytest.approx([lo, hi], abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.normal(size=7)
        for tau in (0.3, 1.0, 4.0):
            P = relaxed_permutation(arr(a.reshape(1, -1)), tau=tau)
            want = np.array(oracles.neuralsort_matrix(a.tolist(), tau))
            assert P == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("tau", [1e-4, 0.5, 5.0, 10.0])
    def test_rows_sum_to_one(self, tau):
        rng = np.random.default_rng(3)
        a = rng.normal(size=10)
        P = relaxed_permutation(arr(a.reshape(1, -1)), tau=tau)
        assert P.sum(axis=1) == pytest.approx(np.ones(10), abs=1e-9)
        assert np.all(P >= 0) and np.all(P <= 1)
        if tau >= 0.5:
            # strict interior only away from the low-temperature limit,
            # where the losing entries underflow to exact zeros
            assert np.all(P > 0) and np.all(P < 1)

    @pytest.mark.parametrize("seed", range(8))
    def test_low_temperature_recovers_descending_sort(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(2, 17))
        a = rng.permutation(np.linspace(-2.0, 2.0, m))
        P = relaxed_permutation(arr(a.reshape(1, -1)), tau=1e-4)
        assert np.array_equal(np.argmax(P, axis=1), np.argsort(-a, kind="stable"))

    def test_nonpositive_temperature_rejected(self):
        with pytest.raises(ParameterError):
            relaxed_permutation(arr([[1.0, 2.0]]), tau=0.0)


class TestConfidence:
    def test_front_one_hot_scores_one(self):
        P = arr([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        out = dcg_confidence(P)
        assert out[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_back_one_hot_scores_less(self):
        out = dcg_confidence(arr([[0.0, 1.0], [1.0, 0.0]]))
        want = 1.0 / math.log2(3.0)
        assert out[0, 0] == pytest.approx(want, abs=1e-12)
        assert out[0, 0] < 1.0

    def test_uniform_row_hand_value(self):
        out = dcg_confidence(arr([[0.5, 0.5], [0.5, 0.5]]))
        want = (math.sqrt(2.0) - 1.0) * (1.0 + 1.0 / math.log2(3.0))
        assert out[0] == pytest.approx([want, want], abs=1e-12)

    def test_matches_scalar_oracle(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=(6, 6))
        P = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
        out = dcg_confidence(arr(P))
        assert out[0] == pytest.approx(oracles.dcg_scores(P.tolist()), abs=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_front_loaded_swap_never_decreases_gain(self, seed):
        rng = np.random.default_rng(seed)
        m = 6
        row = rng.dirichlet(np.ones(m))
        i, j = sorted(rng.choice(m, size=2, replace=False))
        if row[i] > row[j]:
            row[[i, j]] = row[[j, i]]  # start with the larger mass at the later slot
        swapped = row.copy()
        swapped[[i, j]] = swapped[[j, i]]
        base = oracles.dcg_scores([row.tolist()])[0]
        after = oracles.dcg_scores([swapped.tolist()])[0]
        assert after >= base - 1e-15

    def test_minmax_normalization_bounds(self):
        rng = np.random.default_rng(5)
        raw = arr(rng.uniform(1.0, 3.0, size=(1, 9)))
        out = normalize_confidence(raw)
        assert out.min() == pytest.approx(0.0, abs=1e-15)
        assert out.max() == pytest.approx(1.0, abs=1e-15)

    def test_normalization_invariant_to_positive_affine_rescale(self):
        rng = np.random.default_rng(6)
        raw = rng.uniform(size=(1, 7))
        base = normalize_confidence(arr(raw))
        rescaled = normalize_confidence(arr(3.7 * raw + 11.0))
        assert rescaled == pytest.approx(base, abs=1e-12)

    def test_equal_confidences_collapse_to_half(self):
        out = normalize_confidence(arr(np.full((1, 5), 2.0)))
        assert np.array_equal(out, np.full((1, 5), 0.5))


class TestCoefficients:
    def test_hand_values(self):
        C = confidence_coefficients(arr([[1.0, 0.0]]))
        assert C == pytest.approx(np.array([[1.0, 0.5], [0.5, 0.0]]), abs=1e-15)

    def test_all_ones(self):
        C = confidence_coefficients(arr(np.ones((1, 4))))
        assert np.array_equal(C, np.ones((4, 4)))

    def test_random_matches_oracle_and_symmetric(self):
        rng = np.random.default_rng(7)
        ibar = rng.uniform(size=7)
        C = confidence_coefficients(arr(ibar.reshape(1, -1)))
        want = np.array(oracles.confidence_coefficients(ibar.tolist()))
        assert C == pytest.approx(want, abs=1e-15)
        assert np.array_equal(C, C.T)


class TestSelectNodes:
    def test_uniform_confidence_passes_adjacency_through(self):
        rng = np.random.default_rng(8)
        W = rng.uniform(size=(5, 5))
        A = np.triu(W, 1) + np.triu(W, 1).T + np.eye(5)
        out = gated_matrix(A, np.full((1, 5), 0.5), np.full((1, 1), -1.0))
        assert np.array_equal(out, A)

    def test_coefficient_at_threshold_gates_to_zero(self):
        A = np.array([[1.0, 1.0], [1.0, 1.0]])
        # C[0,1] = 0.5 = sigmoid(0)
        out = gated_matrix(A, np.array([[1.0, 0.0]]), np.zeros((1, 1)))
        assert out[0, 1] == 0.0
        assert out[1, 0] == 0.0
        assert out[0, 0] > 0.0

    def test_low_confidence_pair_loses_its_edge(self):
        # nodes 2 and 3 connect only to each other and score zero confidence
        A = np.array(
            [
                [1.0, 0.8, 0.0, 0.0, 0.6, 0.7],
                [0.8, 1.0, 0.0, 0.0, 0.5, 0.4],
                [0.0, 0.0, 1.0, 0.9, 0.0, 0.0],
                [0.0, 0.0, 0.9, 1.0, 0.0, 0.0],
                [0.6, 0.5, 0.0, 0.0, 1.0, 0.3],
                [0.7, 0.4, 0.0, 0.0, 0.3, 1.0],
            ]
        )
        ibar = np.array([[1.0, 0.8, 0.0, 0.0, 0.6, 0.9]])
        out = gated_matrix(A, ibar, np.zeros((1, 1)))
        assert out[2, 3] == 0.0 and out[3, 2] == 0.0
        assert out[0, 1] > 0.0 and out[0, 4] > 0.0
        # peak gated coefficient is (1+1)/2 - 0.5 at the (0,0) self-loop
        assert out[0, 1] == pytest.approx(0.8 * ((0.9 - 0.5) / 0.5), abs=1e-12)
        want = np.array(oracles.select_edges(A.tolist(), [
            [(a + b) / 2.0 for b in ibar[0]] for a in ibar[0]
        ], 0.5))
        assert out == pytest.approx(want, abs=1e-12)

    def test_threshold_above_everything_falls_back_to_input(self):
        rng = np.random.default_rng(9)
        A = rng.uniform(size=(4, 4))
        A = (A + A.T) / 2
        out = gated_matrix(A, rng.uniform(0.0, 0.3, size=(1, 4)), np.full((1, 1), 50.0))
        assert np.array_equal(out, A)

    def test_shape_mismatch_rejected(self):
        support, F = on_support(np.ones((3, 3)))
        with pytest.raises(ShapeError):
            select_nodes(F, arr(np.zeros((1, 2))), arr(np.zeros((1, 1))), support)
        with pytest.raises(ShapeError):
            select_nodes(F, arr(np.zeros((1, 3))), arr(np.zeros((1, 2))), support)


class TestPipeline:
    def _refined(self, rng, m):
        W = rng.uniform(0.2, 1.0, size=(m, m))
        return np.triu(W, 1) + np.triu(W, 1).T + np.diag(rng.uniform(0.4, 1.0, m))

    @pytest.mark.parametrize("seed", range(4))
    def test_selected_graph_invariants(self, seed):
        rng = np.random.default_rng(seed)
        A = self._refined(rng, 7)
        support, _, res = select_on_support(A, np.zeros((1, 1)), tau=0.5)
        out = support.densify(res.selected.value)
        assert out == pytest.approx(out.T, abs=1e-12)
        assert np.all(out >= 0)
        assert np.all(out <= A + 1e-12)
        assert np.count_nonzero(out) <= np.count_nonzero(A)
        assert res.permutation.sum(axis=1) == pytest.approx(np.ones(7), abs=1e-9)

    @pytest.mark.parametrize("block_rows", [None, 2, 3])
    def test_gradients_match_finite_differences(self, block_rows, monkeypatch):
        rng = np.random.default_rng(11)
        m = 5
        set_block_rows(monkeypatch, block_rows, m)
        A = self._refined(rng, m)
        raw_theta = np.full((1, 1), -0.2)
        support, F = on_support(A)

        def build(tape, leaves):
            res = differentiable_node_selection(leaves[0], leaves[1], tau=0.7, support=support)
            return ad.sum_all(res.selected)

        # guard: stay away from the ReLU kink and score ties so central
        # differences see a smooth function
        _, _, probe = select_on_support(A, raw_theta, tau=0.7)
        theta = 1.0 / (1.0 + math.exp(-raw_theta[0, 0]))
        gaps = np.abs(probe.coefficients - theta)
        assert gaps.min() >= 1e-3
        scores = probe.scores[0]
        assert np.min(np.abs(np.subtract.outer(scores, scores)[~np.eye(m, dtype=bool)])) >= 1e-3

        assert finite_difference_check(build, [F, raw_theta]) <= 1e-4


def run_both(A, raw_theta, tau, R):
    """Selection of A on its edge support and by the m x m reference, with
    upstream gradient R: (selected, adj gradient, raw_theta gradient) of
    each, the edge layout's densified."""
    support, (adj, theta), res = select_on_support(A, raw_theta, tau)
    res.selected.tape.backward(ad.masked_sum(res.selected, support.gather(R)))
    edge = (support.densify(res.selected.value), support.densify(adj.grad), theta.grad)
    tape = Tape()
    adj, theta = tape.leaf(A), tape.leaf(raw_theta)
    selected, _ = dense_reference.select(adj, theta, tau)
    tape.backward(ad.masked_sum(selected, R))
    return edge, (selected.value, adj.grad, theta.grad), support


def assert_matches_reference(edge, dense, support):
    on = support.densify(np.ones(support.nnz)) != 0
    assert edge[0].tobytes() == dense[0].tobytes()
    for got, want in ((edge[1][on], dense[1][on]), (edge[2], dense[2])):
        assert np.max(np.abs(got - want)) <= 1e-12 * max(np.max(np.abs(want)), 1.0)


class TestSelectionOp:
    """The pipeline is one tape node with a hand-derived backward rule."""

    @staticmethod
    def _smooth_instances(count):
        # full support keeps the nonzero counts behind the scores constant
        # under perturbation; the guards keep every instance on one smooth
        # branch: untied scores, separated gain extremes, no coefficient at
        # the threshold, a unique gate peak, and an adjacency that is gated
        rng = np.random.default_rng(21)
        found = []
        while len(found) < count:
            m = int(rng.integers(3, 8))
            A = rng.uniform(0.2, 1.5, size=(m, m))
            raw_theta = rng.uniform(-1.5, 0.5, size=(1, 1))
            tau = float(rng.choice([0.5, 1.0, 2.0]))
            _, _, res = select_on_support(A, raw_theta, tau)
            theta = 1.0 / (1.0 + math.exp(-raw_theta[0, 0]))
            scores = res.scores[0]
            gains = np.sort(dcg_confidence(res.permutation)[0])
            gated = np.sort(np.maximum(res.coefficients - theta, 0.0).ravel())
            margins = [
                np.min(np.abs(np.subtract.outer(scores, scores))[~np.eye(m, dtype=bool)]),
                gains[1] - gains[0],
                gains[-1] - gains[-2],
                np.min(np.abs(res.coefficients - theta)),
                gated[-1] - gated[-2],
            ]
            if min(margins) >= 1e-3:
                found.append((A, raw_theta, tau, rng.normal(size=(m, m))))
        return found

    # the instances have 4 and 6 nodes: 3-row blocks leave a ragged last
    # block at 4 nodes, 4-row blocks at 6
    @pytest.mark.parametrize("block_rows", [None, 3, 4])
    @pytest.mark.parametrize("case", range(4))
    def test_gradients_match_finite_differences(self, case, block_rows, monkeypatch):
        A, raw_theta, tau, R = self._smooth_instances(4)[case]
        set_block_rows(monkeypatch, block_rows, A.shape[0])
        support, F = on_support(A)
        R = support.gather(R)

        def build(tape, leaves):
            res = differentiable_node_selection(leaves[0], leaves[1], tau, support)
            return ad.masked_sum(res.selected, R)

        assert finite_difference_check(build, [F, raw_theta], step=1e-6) <= 1e-6

    @pytest.mark.parametrize("case", range(4))
    def test_full_support_matches_the_dense_reference(self, case):
        A, raw_theta, tau, R = self._smooth_instances(4)[case]
        assert_matches_reference(*run_both(A, raw_theta, tau, R))

    def test_peak_memory_stays_under_one_node_by_node_array(self):
        # m=800: one forward and backward pass runs P, 2^P and their
        # gradients in row blocks and holds no m x m array (4.88 MiB); the
        # whole-array pass peaked 20.9 MiB above its entry
        dataset = make_synthetic(m=800, num_views=3, classes=4, noise=0.5, seed=7)
        support = edge_support(prepare_graphs(dataset, 10, "euclidean"))
        m = support.num_nodes
        R = np.random.default_rng(28).normal(size=(1, support.nnz))
        tape = Tape()
        adj, raw_theta = tape.leaf(sum(support.views)), tape.leaf(np.full((1, 1), -0.3))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            res = differentiable_node_selection(adj, raw_theta, 0.5, support)
            tape.backward(ad.masked_sum(res.selected, R))
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # the gate acted, so the backward rule took the gain's gradient
        assert res.selected.value.tobytes() != adj.value.tobytes()
        assert np.ptp(res.confidence) > 0.0
        assert peak < m * m * 8

    def test_records_one_tape_node(self):
        support, F = on_support(np.random.default_rng(22).uniform(0.2, 1.0, size=(6, 6)))
        tape = Tape()
        adj = tape.leaf(F)
        raw_theta = tape.leaf(np.full((1, 1), -0.4))
        before = len(tape.nodes)
        res = differentiable_node_selection(adj, raw_theta, 0.5, support)
        assert tape.nodes[before:] == [res.selected]
        assert res.selected.parents == (adj, raw_theta)
        assert res.selected.value.shape == (1, support.nnz)

    def test_mismatched_edge_values_rejected(self):
        support, F = on_support(np.ones((3, 3)))
        tape = Tape()
        with pytest.raises(ShapeError):
            differentiable_node_selection(
                tape.leaf(np.ones((3, 3))), tape.leaf(np.zeros((1, 1))), 0.5, support
            )

    def test_pass_through_gives_adjacency_the_upstream_gradient(self):
        rng = np.random.default_rng(23)
        A = rng.uniform(0.2, 1.0, size=(5, 5)) * (rng.uniform(size=(5, 5)) < 0.6)
        R = rng.normal(size=(5, 5))
        raw_theta = np.full((1, 1), 50.0)  # threshold tops every coefficient
        edge, dense, support = run_both(A, raw_theta, 0.5, R)
        assert np.array_equal(edge[0], A)
        assert np.array_equal(edge[1], support.densify(support.gather(R)))
        assert np.array_equal(edge[2], np.zeros((1, 1)))
        assert_matches_reference(edge, dense, support)

    def test_equal_confidences_pass_no_gradient_to_the_scores(self):
        # a circulant adjacency: every column holds the same nonzero entries,
        # so every node scores the same and every confidence is 0.5
        base = np.array([0.9, 0.3, 0.0, 0.5, 0.0])
        A = np.array([np.roll(base, i) for i in range(5)])
        R = np.random.default_rng(24).normal(size=(5, 5))
        support, (adj, raw_theta), res = select_on_support(A, np.full((1, 1), -0.3), 0.5)
        res.selected.tape.backward(ad.masked_sum(res.selected, support.gather(R)))
        assert np.array_equal(res.confidence, np.full((1, 5), 0.5))
        # a uniform gate scales every edge by 1 and leaves the graph as it is
        assert np.array_equal(support.densify(res.selected.value), A)
        assert np.array_equal(adj.grad, support.gather(R))
        assert abs(raw_theta.grad[0, 0]) <= 1e-12

    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize("case", [(70, 40, 0.04, False), (71, 40, 0.05, True), (72, 30, 0.2, True)])
    def test_sparse_supports_match_the_dense_reference(self, case, block_rows, monkeypatch):
        # the refinement tests' SPARSE_CASES, asymmetric values included
        seed, m, pair_density, asymmetric = case
        set_block_rows(monkeypatch, block_rows, m)
        rng = np.random.default_rng(seed)
        upper = np.triu(rng.uniform(size=(m, m)) < pair_density, 1)
        pattern = upper | upper.T | np.eye(m, dtype=bool)
        if asymmetric:
            pattern &= ~(upper & (rng.uniform(size=(m, m)) < 0.3))
        A = np.where(pattern, rng.uniform(0.2, 1.5, size=(m, m)), 0.0)
        for raw_theta in (-1.0, 0.0, 0.6):
            R = rng.normal(size=(m, m))
            assert_matches_reference(*run_both(A, np.full((1, 1), raw_theta), 0.5, R))

    def test_peak_is_taken_over_all_pairs_without_self_loops(self):
        # a ring with no self-loops: the largest coefficient, the most
        # confident node's own, is no edge, and still sets the gate's peak
        rng = np.random.default_rng(27)
        m = 8
        ring = np.roll(np.eye(m), 1, axis=1)
        A = (ring + ring.T) * rng.uniform(0.2, 1.5, size=(m, m))
        edge, dense, support = run_both(A, np.full((1, 1), -0.4), 0.5, rng.normal(size=(m, m)))
        assert not np.any(support.rows == support.cols)
        assert_matches_reference(edge, dense, support)

    def test_peak_position_is_the_first_dense_argmax(self):
        # ties and 1-ulp near-ties in the confidences, at the top and below it
        rng = np.random.default_rng(26)
        for _ in range(200):
            m = int(rng.integers(1, 9))
            ibar = rng.choice([0.0, 0.25, 0.5, 0.75, 1.0], size=m)
            ibar[rng.integers(m)] = 1.0
            near = rng.uniform(size=m) < 0.3
            ibar[near] = np.nextafter(ibar[near], 0.0)
            theta = float(rng.choice([0.1, 0.4, 0.5, 0.7]))
            peak = max(float(ibar.max() - theta), 0.0)
            if peak == 0.0:
                continue
            C = confidence_coefficients(ibar.reshape(1, -1))
            scale = np.maximum(C - theta, 0.0) / peak
            want = np.unravel_index(np.argmax(scale), scale.shape)
            assert selection._peak_position(ibar, theta, peak) == want

    def test_peak_off_the_diagonal_and_the_support(self, monkeypatch):
        # Node 1's confidence is 1 ulp below node 4's 1.0; their mean rounds
        # to 1.0, so the dense scale first reaches its peak at (1, 4), which
        # is no edge. The peak's gradient term must enter row 1, column 4 and
        # the threshold's gradient there.
        near, top, m = 1, 4, 7
        normalize = selection.normalize_confidence

        def near_tie(raw):
            ibar = normalize(raw).copy()
            ibar[0, top] = 1.0
            ibar[0, near] = np.nextafter(1.0, 0.0)
            return ibar

        monkeypatch.setattr(selection, "normalize_confidence", near_tie)
        monkeypatch.setattr(dense_reference, "normalize_confidence", near_tie)
        rng = np.random.default_rng(25)
        upper = np.triu(rng.uniform(size=(m, m)) < 0.5, 1)
        upper[near, top] = False
        pattern = upper | upper.T | np.eye(m, dtype=bool)
        values = rng.uniform(0.2, 1.5, size=(m, m))
        A = np.where(pattern, np.triu(values) + np.triu(values, 1).T, 0.0)
        raw_theta = np.full((1, 1), -0.4)
        R = rng.normal(size=(m, m))
        edge, dense, support = run_both(A, raw_theta, 0.5, R)

        tape = Tape()
        _, C = dense_reference.select(tape.leaf(A), tape.leaf(raw_theta), 0.5)
        scale = np.maximum(C - 1.0 / (1.0 + math.exp(0.4)), 0.0)
        assert np.unravel_index(np.argmax(scale), scale.shape) == (near, top)
        assert A[near, top] == 0.0
        assert_matches_reference(edge, dense, support)

    @pytest.mark.parametrize(
        "scores",
        [
            [0.3, 0.3, 1.0, -0.2, 1.0, 0.3],
            [2.0, 2.0, 2.0, 2.0],
            [0.5, -1.0, 0.25, 3.0, -2.0],
        ],
    )
    def test_score_gap_gradient_matches_sign_formula(self, scores):
        # d/da_k of sum_i u_i sum_j |a_i - a_j| = sum_j (u_k + u_j) sign(a_k - a_j)
        a = np.array(scores)
        u = np.random.default_rng(len(scores)).normal(size=a.size)
        want = ((u[:, None] + u[None, :]) * np.sign(a[:, None] - a[None, :])).sum(axis=1)
        assert selection._gap_sum_grad(a, u) == pytest.approx(want, abs=1e-12)


class TestHardTopK:
    def test_keep_all(self):
        rng = np.random.default_rng(12)
        A = rng.uniform(size=(5, 5))
        assert np.array_equal(hard_topk_baseline(A, 5), A)

    def test_single_max_per_row(self):
        A = np.array([[3.0, 1.0, 2.0]])
        assert np.array_equal(hard_topk_baseline(A, 1), np.array([[3.0, 0.0, 0.0]]))

    def test_random_matches_sort_oracle(self):
        rng = np.random.default_rng(13)
        A = rng.uniform(size=(8, 8))
        out = hard_topk_baseline(A, 3)
        assert out == pytest.approx(np.array(oracles.topk_rows(A.tolist(), 3)), abs=0)

    @pytest.mark.parametrize(
        "rows",
        [
            # tied values, at the k-th place and elsewhere
            [[1.0, 2.0, 2.0, 1.0, 0.5], [3.0, 3.0, 3.0, 3.0, 3.0], [0.5, 1.0, 1.0, 1.0, 2.0]],
            # fewer than k nonzeros: the rest of the k are zeros, lowest index first
            [[0.0, 0.0, 0.7, 0.0, 0.0], [0.0, 0.2, 0.0, 0.0, 0.9], [0.0, 0.0, 0.0, 0.0, 0.0]],
            # -0.0 and 0.0 tie; the kept entry keeps its sign bit
            [[-0.0, 0.0, -0.0, 1.0, 0.0], [-1.0, -0.0, 0.0, -0.0, -2.0], [0.0, -0.0, 0.0, -0.0, 0.0]],
        ],
    )
    def test_ties_match_sort_oracle_bit_for_bit(self, rows):
        A = np.array(rows)
        for k in range(1, A.shape[1] + 1):
            want = np.array(oracles.topk_rows(rows, k))
            assert hard_topk_baseline(A, k).tobytes() == want.tobytes(), k

    @pytest.mark.parametrize("seed", range(3))
    def test_edge_rows_match_the_dense_routine_bit_for_bit(self, seed):
        # values 0, 1 and 2: ties everywhere, zero edges, rows with fewer
        # than k nonzero edges and rows with fewer than k edges
        rng = np.random.default_rng(seed)
        m = 30
        upper = np.triu(rng.uniform(size=(m, m)) < 0.2, 1)
        support = support_of(upper | upper.T | np.eye(m, dtype=bool))
        edges = rng.integers(0, 3, size=(1, support.nnz)).astype(float)
        edges[0, rng.uniform(size=support.nnz) < 0.3] = 0.0
        for k in (1, 2, 5, 10, m):
            want = hard_topk_baseline(support.densify(edges), k)
            assert support.densify(hard_topk_edges(edges, k, support)).tobytes() == want.tobytes(), k

    def test_k_out_of_range(self):
        A = np.zeros((3, 3))
        support, F = on_support(np.ones((3, 3)))
        for bad in (0, 4):
            with pytest.raises(ParameterError):
                hard_topk_baseline(A, bad)
            with pytest.raises(ParameterError):
                hard_topk_edges(F, bad, support)

    def test_nan_entries_rejected(self):
        A = np.eye(3)
        A[1, 2] = np.nan
        with pytest.raises(DomainError):
            hard_topk_baseline(A, 2)
        support, F = on_support(np.ones((3, 3)))
        F[0, 4] = np.nan
        with pytest.raises(DomainError):
            hard_topk_edges(F, 2, support)
