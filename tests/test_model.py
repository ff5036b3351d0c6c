import base64
import gc
import hashlib
import json
import math
import os
import sys
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from mvgcn import autodiff as ad
from mvgcn import graphs as graphs_module
from mvgcn import model as model_module
from mvgcn.autodiff import Tape
from mvgcn.data import SplitSpec, make_split, make_synthetic
from mvgcn.errors import DataLoadError, ParameterError, ShapeError, TrainingError
from mvgcn.experiment import feature_matrix, prepare_graphs
from mvgcn.fusion import edge_support
from mvgcn.graphs import Graph, build_knn_graph, renormalize
from mvgcn.model import (
    CHECKPOINT_SECTIONS,
    ModelState,
    adam_step,
    config_digest,
    evaluate,
    forward,
    gcn_layer,
    init_model,
    load_checkpoint,
    masked_cross_entropy,
    one_hot,
    payload_path,
    predict,
    save_checkpoint,
    train,
)

import dense_reference
import oracles
from dense_reference import on_support
from gradcheck import finite_difference_check
from kinkfree import smoothness_margin


def toy_instance(seed, m=30, classes=2, num_views=2, noise=0.15, n_per_view=4, k=3):
    """Well-separated Gaussian blobs seen through per-view noisy copies."""
    rng = np.random.default_rng(seed)
    labels = np.repeat(np.arange(classes), m // classes)
    centers = 3.0 * rng.normal(size=(classes, n_per_view))
    graphs, mats = [], []
    for _ in range(num_views):
        X = centers[labels] + noise * rng.normal(size=(m, n_per_view))
        mats.append(X)
        graphs.append(renormalize(build_knn_graph(X, k)))
    return graphs, np.hstack(mats), labels


def sparse_toy_instance(seed, m=44):
    """A toy instance whose fused support holds under a tenth of the m x m
    entries."""
    graphs, features, labels = toy_instance(seed, m=m, k=1, n_per_view=2)
    assert edge_support(graphs).nnz <= 0.1 * m * m
    return graphs, features, labels


def gcn(A, H, W, activation="none"):
    """gcn_layer with the edge values of A on A's support; returns the tape
    and the output node."""
    support, F = on_support(A)
    tape = Tape()
    return tape, gcn_layer(tape.leaf(F), tape.leaf(H), tape.leaf(W), support, activation)


class TestGcnLayer:
    def test_identity_propagation(self):
        rng = np.random.default_rng(0)
        H = rng.normal(size=(4, 3))
        _, out = gcn(np.eye(4), H, np.eye(3))
        assert out.value == pytest.approx(H, abs=1e-15)

    def test_zero_features_relu(self):
        _, out = gcn(np.ones((3, 3)), np.zeros((3, 2)), np.ones((2, 2)), "relu")
        assert np.array_equal(out.value, np.zeros((3, 2)))

    @pytest.mark.parametrize("activation", ["none", "relu", "softmax-rows"])
    def test_random_matches_triple_loop(self, activation):
        rng = np.random.default_rng(1)
        A, H, W = (rng.normal(size=(5, 5)) for _ in range(3))
        _, out = gcn(A, H, W, activation)
        oracle_name = {"none": "none", "relu": "relu", "softmax-rows": "softmax"}[activation]
        want = np.array(oracles.gcn_layer(A.tolist(), H.tolist(), W.tolist(), oracle_name))
        assert out.value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("d_in,d_out,inner", [(6, 2, (5, 2)), (2, 6, (5, 2)), (3, 3, (5, 3))])
    def test_product_order_follows_the_narrower_side(self, d_in, d_out, inner):
        # A @ (H @ W) when W narrows the features, (A @ H) @ W otherwise;
        # the first product recorded shows which order ran
        rng = np.random.default_rng(2)
        A, H, W = rng.normal(size=(5, 5)), rng.normal(size=(5, d_in)), rng.normal(size=(d_in, d_out))
        tape, out = gcn(A, H, W)
        products = [n for n in tape.nodes if n.op in ("matmul", "spmm")]
        assert products[0].value.shape == inner
        assert [n.op for n in products] == (["matmul", "spmm"] if d_out < d_in else ["spmm", "matmul"])
        want = np.array(oracles.gcn_layer(A.tolist(), H.tolist(), W.tolist(), "none"))
        assert out.value == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("d_in,d_out", [(6, 2), (2, 6)])
    @pytest.mark.parametrize("density", [0.3, 1.0])
    def test_gradients_match_the_dense_products(self, d_in, d_out, density):
        # an asymmetric A, so the product's backward needs the twin values
        rng = np.random.default_rng(3)
        m = 9
        A = rng.normal(size=(m, m)) * (rng.uniform(size=(m, m)) < density)
        H, W = rng.normal(size=(m, d_in)), rng.normal(size=(d_in, d_out))
        R = rng.normal(size=(m, d_out))
        support, F = on_support(A)
        tape = Tape()
        leaves = [tape.leaf(x) for x in (F, H, W)]
        tape.backward(ad.masked_sum(gcn_layer(*leaves, support), R))
        tape = Tape()
        dense = [tape.leaf(x) for x in (A, H, W)]
        tape.backward(ad.masked_sum(dense_reference.gcn_layer(*dense), R))
        assert np.max(np.abs(leaves[0].grad - support.gather(dense[0].grad))) <= 1e-12
        for got, want in zip(leaves[1:], dense[1:]):
            assert np.max(np.abs(got.grad - want.grad)) <= 1e-12

    def test_gradients_match_finite_differences(self):
        rng = np.random.default_rng(4)
        A = rng.normal(size=(6, 6)) * (rng.uniform(size=(6, 6)) < 0.5)
        support, F = on_support(A)
        H, W, R = rng.normal(size=(6, 3)), rng.normal(size=(3, 2)), rng.normal(size=(6, 2))

        def build(tape, leaves):
            return ad.masked_sum(gcn_layer(*leaves, support, "softmax-rows"), R)

        assert finite_difference_check(build, [F, H, W], step=1e-6) <= 1e-6

    def test_unknown_activation_rejected(self):
        support, F = on_support(np.eye(2))
        tape = Tape()
        a = tape.leaf(np.eye(2))
        with pytest.raises(ParameterError):
            gcn_layer(tape.leaf(F), a, a, support, "tanh")

    def test_mismatched_edge_values_rejected(self):
        support, _ = on_support(np.eye(2))
        tape = Tape()
        a = tape.leaf(np.eye(2))
        with pytest.raises(ShapeError):
            gcn_layer(a, a, a, support)


class TestForward:
    def test_rows_are_distributions(self):
        graphs, features, labels = toy_instance(0, m=12)
        rng = np.random.default_rng(1)
        state = init_model(2, 12, features.shape[1], 5, 2, rng)
        Z = predict(state, graphs, features, k=3)
        assert Z.sum(axis=1) == pytest.approx(np.ones(12), abs=1e-9)
        assert np.all(Z > 0)

    def test_single_node_zero_weights_is_uniform(self):
        from mvgcn.graphs import Graph

        views = [Graph(np.ones((1, 1)), renormalized=True)]
        state = init_model(1, 1, 2, 3, 2, np.random.default_rng(0))
        for name in ("W1", "W2"):
            state.params[name][:] = 0.0
        Z = predict(state, views, np.zeros((1, 2)))
        assert Z == pytest.approx(np.array([[0.5, 0.5]]), abs=1e-12)

    def test_matches_stagewise_oracle_composition(self):
        graphs, features, labels = toy_instance(3, m=8, k=2)
        rng = np.random.default_rng(4)
        state = init_model(2, 8, features.shape[1], 3, 2, rng)
        state.params["raw_weights"][:] = rng.normal(size=(2, 2))
        gamma, tau = 1.0, 0.5

        Z = predict(state, graphs, features, gamma=gamma, tau=tau)

        adj_lists = [g.adjacency.tolist() for g in graphs]
        _, _, _, fused = oracles.fusion_chain(adj_lists, state.params["raw_weights"].tolist())
        refined = oracles.refine(
            fused, state.params["S1"].tolist(), state.params["S2"].tolist(), gamma
        )
        a_s = oracles.column_mean_nonzero(refined)
        P = oracles.neuralsort_matrix(a_s, tau)
        ibar = oracles.minmax_normalize(oracles.dcg_scores(P))
        C = oracles.confidence_coefficients(ibar)
        theta = 1.0 / (1.0 + math.exp(-state.params["raw_theta"][0, 0]))
        selected = oracles.select_edges(refined, C, theta)
        H1 = oracles.gcn_layer(selected, features.tolist(), state.params["W1"].tolist(), "relu")
        want = np.array(
            oracles.gcn_layer(selected, H1, state.params["W2"].tolist(), "softmax")
        )
        assert Z == pytest.approx(want, abs=1e-10)

    def test_default_forward_and_loss_record_few_nodes(self):
        # fusion, refinement and selection are one node each; the m x m
        # nodes are the two S leaves and those three
        graphs, features, labels = toy_instance(0, m=12)
        state = init_model(2, 12, features.shape[1], 5, 2, np.random.default_rng(1))
        tape = Tape()
        leaves = {name: tape.leaf(p) for name, p in state.params.items()}
        fwd = forward(tape, leaves, edge_support(graphs), features)
        masked_cross_entropy(fwd.probabilities, one_hot(labels, 2), [0, 6])
        ops = [n.op for n in tape.nodes]
        assert ops.count("select") == 1 and ops.count("refine") == 1
        assert len(tape.nodes) == 24
        # the graphs are edge rows; only the shrinkage factors are m x m
        assert [n for n in tape.nodes if n.value.shape == (12, 12)] == [leaves["S1"], leaves["S2"]]

    @pytest.mark.parametrize(
        "dns_mode,raw_theta", [("soft", None), ("soft", 50.0), ("hard-topk", None), ("off", None)]
    )
    def test_backward_gives_every_node_its_own_gradient_buffer(self, dns_mode, raw_theta):
        self._check_gradient_buffers(toy_instance(0, m=12), dns_mode, raw_theta)

    @pytest.mark.parametrize(
        "dns_mode,raw_theta", [("soft", None), ("soft", 50.0), ("hard-topk", None), ("off", None)]
    )
    def test_backward_gives_every_node_its_own_gradient_buffer_on_a_sparse_support(
        self, dns_mode, raw_theta
    ):
        self._check_gradient_buffers(sparse_toy_instance(0), dns_mode, raw_theta)

    @staticmethod
    def _check_gradient_buffers(instance, dns_mode, raw_theta):
        # rules hand their fresh terms over as gradients; none may alias
        # another node's gradient or any node's value. A threshold above
        # every coefficient makes selection pass its gradient through.
        graphs, features, labels = instance
        m = len(labels)
        state = init_model(2, m, features.shape[1], 5, 2, np.random.default_rng(1))
        if raw_theta is not None:
            state.params["raw_theta"][:] = raw_theta
        tape = Tape()
        leaves = {name: tape.leaf(p) for name, p in state.params.items()}
        fwd = forward(tape, leaves, edge_support(graphs), features, dns_mode=dns_mode, k=3)
        tape.backward(masked_cross_entropy(fwd.probabilities, one_hot(labels, 2), [0, m // 2]))
        nodes = tape.nodes
        for i, node in enumerate(nodes):
            assert node.grad.flags.c_contiguous
            for other in nodes[i + 1 :]:
                assert not np.shares_memory(node.grad, other.grad), (node, other)
            for other in nodes:
                assert not np.shares_memory(node.grad, other.value), (node, other)

    @pytest.mark.parametrize("use_glm", [True, False])
    @pytest.mark.parametrize("layout", ["dense", "support"])
    def test_relabeling_the_nodes_permutes_the_probabilities(self, layout, use_glm):
        # with selection off; the soft mode's confidences follow node order
        instance = toy_instance(21, m=12) if layout == "dense" else sparse_toy_instance(21)
        graphs, features, labels = instance
        m = len(labels)
        rng = np.random.default_rng(22)
        state = init_model(2, m, features.shape[1], 5, 2, rng)
        state.params["raw_weights"][:] = rng.normal(size=(2, 2))
        for name in ("S1", "S2"):
            state.params[name] *= 3.0
        perm = rng.permutation(m)
        relabeled = ModelState(
            {
                name: p[np.ix_(perm, perm)] if name in ("S1", "S2") else p
                for name, p in state.params.items()
            },
            state.first_moment,
            state.second_moment,
        )
        views = [Graph(g.adjacency[np.ix_(perm, perm)], renormalized=True) for g in graphs]
        settings = {"dns_mode": "off", "use_glm": use_glm}
        Z = predict(state, graphs, features, **settings)
        Z_relabeled = predict(relabeled, views, features[perm], **settings)
        assert np.max(np.abs(Z_relabeled - Z[perm])) <= 1e-14

    def test_dns_off_uses_refined_graph(self):
        graphs, features, _ = toy_instance(5, m=10)
        rng = np.random.default_rng(6)
        state = init_model(2, 10, features.shape[1], 4, 2, rng)
        tape = Tape()
        leaves = {name: tape.leaf(p) for name, p in state.params.items()}
        fwd = forward(tape, leaves, edge_support(graphs), features, dns_mode="off")
        assert fwd.selection is None
        assert fwd.adjacency is fwd.refined

    def test_bad_dns_mode_rejected(self):
        graphs, features, _ = toy_instance(7, m=10)
        state = init_model(2, 10, features.shape[1], 4, 2, np.random.default_rng(0))
        with pytest.raises(ParameterError):
            predict(state, graphs, features, dns_mode="sometimes")

    @pytest.mark.parametrize("layers,missing", [(3, "W2"), (4, "W3"), (1, "W1")])
    def test_missing_layer_weights_named(self, layers, missing):
        graphs, features, _ = toy_instance(7, m=10)
        state = init_model(2, 10, features.shape[1], 4, 2, np.random.default_rng(0), layers=layers)
        del state.params[missing]
        with pytest.raises(ParameterError, match=f"no '{missing}'"):
            predict(state, graphs, features, k=3)


class TestMaskedCrossEntropy:
    def test_perfect_prediction_is_almost_zero(self):
        Y = one_hot(np.array([0, 1, 1, 0]), 2)
        tape = Tape()
        loss = masked_cross_entropy(tape.leaf(Y), Y, [0, 1, 2, 3]).value[0, 0]
        # each labeled row contributes -ln(max(1, 1e-12)) = 0, and the sum
        # is +0.0, not -0.0
        assert loss == 0.0 and math.copysign(1.0, loss) > 0

    def test_uniform_prediction_closed_form(self):
        c, omega = 4, [0, 2, 5]
        Z = np.full((6, c), 1.0 / c)
        Y = one_hot(np.array([1, 0, 3, 2, 1, 0]), c)
        tape = Tape()
        loss = masked_cross_entropy(tape.leaf(Z), Y, omega)
        assert loss.value[0, 0] == pytest.approx(len(omega) * math.log(c), rel=1e-9)

    def test_random_matches_double_loop(self):
        rng = np.random.default_rng(8)
        Z = rng.dirichlet(np.ones(3), size=9)
        Y = one_hot(rng.integers(0, 3, size=9), 3)
        omega = [1, 3, 4, 6, 8]
        tape = Tape()
        loss = masked_cross_entropy(tape.leaf(Z), Y, omega)
        want = oracles.masked_cross_entropy(Z.tolist(), Y.tolist(), omega)
        assert loss.value[0, 0] == pytest.approx(want, abs=1e-12)

    def test_gradient_confined_to_labeled_rows(self):
        rng = np.random.default_rng(9)
        Z = rng.dirichlet(np.ones(3), size=6)
        Y = one_hot(rng.integers(0, 3, size=6), 3)
        omega = [1, 4]
        tape = Tape()
        z_leaf = tape.leaf(Z)
        tape.backward(masked_cross_entropy(z_leaf, Y, omega))
        unlabeled = [i for i in range(6) if i not in omega]
        assert np.array_equal(z_leaf.grad[unlabeled], np.zeros((4, 3)))
        assert np.any(z_leaf.grad[omega] != 0)

    def test_empty_label_set_rejected(self):
        tape = Tape()
        with pytest.raises(ParameterError):
            masked_cross_entropy(tape.leaf(np.full((2, 2), 0.5)), np.eye(2), [])


class TestAdam:
    def _scalar_state(self, x0=0.0):
        p = {"x": np.array([[x0]])}
        return ModelState(p, {"x": np.zeros((1, 1))}, {"x": np.zeros((1, 1))})

    def test_zero_gradient_is_a_no_op(self):
        rng = np.random.default_rng(10)
        state = init_model(2, 4, 3, 2, 2, rng)
        before = {k: v.copy() for k, v in state.params.items()}
        adam_step(state, {k: np.zeros_like(v) for k, v in state.params.items()}, lr=0.1)
        assert state.step == 1
        for name, p in state.params.items():
            assert np.array_equal(p, before[name])

    @pytest.mark.parametrize("g", [0.3, -2.0, 1e4])
    def test_first_step_moves_by_learning_rate(self, g):
        state = self._scalar_state()
        adam_step(state, {"x": np.array([[g]])}, lr=0.1)
        assert abs(state.params["x"][0, 0]) == pytest.approx(0.1, rel=1e-6)
        assert np.sign(state.params["x"][0, 0]) == -np.sign(g)

    def test_constant_gradient_trajectory_matches_scalar_recurrence(self):
        state = self._scalar_state()
        got = []
        for _ in range(3):
            adam_step(state, {"x": np.array([[1.0]])}, lr=0.1)
            got.append(state.params["x"][0, 0])
        want = oracles.adam_trajectory([1.0, 1.0, 1.0], lr=0.1)
        assert got == pytest.approx(want, abs=1e-15)

    # the default block size, and 7-row blocks with a ragged last block;
    # 90 x 800 is taller than one block at the default size too
    @pytest.mark.parametrize("block_rows", [None, 7])
    @pytest.mark.parametrize("shape", [(9, 9), (90, 800)])
    def test_in_place_update_matches_the_out_of_place_formula(self, shape, block_rows, monkeypatch):
        if block_rows is not None:
            monkeypatch.setattr(graphs_module, "_ROW_BLOCK_ENTRIES", block_rows * shape[1])
        rng = np.random.default_rng(11)
        lr = 0.05
        p0 = rng.normal(size=shape)
        state = ModelState({"S": p0.copy()}, {"S": np.zeros(shape)}, {"S": np.zeros(shape)})
        p, m1, m2 = p0.copy(), np.zeros(shape), np.zeros(shape)
        for t in range(1, 6):
            g = rng.normal(scale=10.0 ** rng.integers(-3, 3), size=shape)
            adam_step(state, {"S": g}, lr)
            m1 = model_module.ADAM_BETA1 * m1 + (1 - model_module.ADAM_BETA1) * g
            m2 = model_module.ADAM_BETA2 * m2 + (1 - model_module.ADAM_BETA2) * g * g
            m1_hat = m1 / (1 - model_module.ADAM_BETA1**t)
            m2_hat = m2 / (1 - model_module.ADAM_BETA2**t)
            p = p - lr * m1_hat / (np.sqrt(m2_hat) + model_module.ADAM_EPS)
            assert np.array_equal(state.first_moment["S"], m1)
            assert np.array_equal(state.second_moment["S"], m2)
            assert np.array_equal(state.params["S"], p)

    def test_missing_gradient_rejected(self):
        state = self._scalar_state()
        with pytest.raises(TrainingError, match="x"):
            adam_step(state, {}, lr=0.1)

    def test_non_finite_gradient_rejected(self):
        state = self._scalar_state()
        with pytest.raises(TrainingError, match="x"):
            adam_step(state, {"x": np.array([[np.nan]])}, lr=0.1)

    def test_gradient_is_checked_in_full_before_the_first_write(self, monkeypatch):
        monkeypatch.setattr(graphs_module, "_ROW_BLOCK_ENTRIES", 2 * 3)
        p0 = np.arange(15.0).reshape(5, 3)
        state = ModelState({"S": p0.copy()}, {"S": np.zeros((5, 3))}, {"S": np.zeros((5, 3))})
        g = np.ones((5, 3))
        g[4, 2] = np.inf
        with pytest.raises(TrainingError, match="S"):
            adam_step(state, {"S": g}, lr=0.1)
        assert np.array_equal(state.params["S"], p0)
        assert not state.first_moment["S"].any() and not state.second_moment["S"].any()

    def test_peak_memory_stays_under_one_node_by_node_array(self):
        # m=800: the S1 and S2 updates run in row blocks, so the step never
        # holds an m x m temporary (4.88 MiB); the whole-array update peaked
        # at 14.7 MiB
        m = 800
        rng = np.random.default_rng(12)
        state = init_model(3, m, 30, 64, 4, rng)
        grads = {name: rng.normal(size=p.shape) for name, p in state.params.items()}
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            adam_step(state, grads, lr=0.01)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak < m * m * 8


class TestEvaluate:
    def test_exact_and_orthogonal(self):
        labels = np.array([0, 1, 2])
        assert evaluate(one_hot(labels, 3), labels, [0, 1, 2]) == 1.0
        assert evaluate(one_hot((labels + 1) % 3, 3), labels, [0, 1, 2]) == 0.0

    def test_random_matches_counting_oracle(self):
        rng = np.random.default_rng(11)
        Z = rng.dirichlet(np.ones(4), size=20)
        labels = rng.integers(0, 4, size=20)
        mask = list(range(0, 20, 2))
        want = oracles.accuracy_count(Z.tolist(), labels.tolist(), mask)
        assert evaluate(Z, labels, mask) == pytest.approx(want, abs=1e-15)

    def test_ties_break_to_lowest_class(self):
        Z = np.array([[0.5, 0.5]])
        assert evaluate(Z, np.array([0]), [0]) == 1.0
        assert evaluate(Z, np.array([1]), [0]) == 0.0

    def test_empty_mask_rejected(self):
        with pytest.raises(ParameterError):
            evaluate(np.eye(2), np.array([0, 1]), [])


class TestTrain:
    def test_zero_epochs_rejected(self):
        graphs, features, labels = toy_instance(12, m=10)
        with pytest.raises(ParameterError):
            train(graphs, features, labels, 2, [0, 5], seed=0, epochs=0)

    def test_separable_instance_fits_training_set(self):
        graphs, features, labels = toy_instance(13, m=30)
        labeled = np.array([0, 7, 16, 23])
        result = train(
            graphs, features, labels, 2, labeled,
            seed=1, epochs=200, hidden=8, k=3,
        )
        hit = [row for row in result.history if row[2] == 1.0]
        assert hit, "training accuracy never reached 1.0 in 200 iterations"
        assert hit[0][0] <= 200

    def test_loss_finite_and_decreasing_overall(self):
        graphs, features, labels = toy_instance(14, m=20)
        result = train(
            graphs, features, labels, 2, [0, 3, 11, 15],
            seed=2, epochs=40, hidden=6, k=3,
        )
        losses = [row[1] for row in result.history]
        assert all(np.isfinite(l) for l in losses)
        assert all(l >= 0 for l in losses)
        assert losses[-1] < losses[0]

    def test_deterministic_given_seed(self):
        self._check_deterministic(toy_instance(15, m=16))

    def test_deterministic_given_seed_on_a_sparse_support(self):
        self._check_deterministic(sparse_toy_instance(15))

    @staticmethod
    def _check_deterministic(instance):
        graphs, features, labels = instance
        runs = [
            train(graphs, features, labels, 2, [0, 9], seed=7, epochs=10, hidden=4, k=3)
            for _ in range(2)
        ]
        assert runs[0].history == runs[1].history
        for name in runs[0].state.params:
            assert np.array_equal(runs[0].state.params[name], runs[1].state.params[name])

    def test_callbackless_history_shape(self):
        graphs, features, labels = toy_instance(16, m=12)
        result = train(graphs, features, labels, 2, [0, 6], seed=3, epochs=5, hidden=4, k=3)
        assert [row[0] for row in result.history] == [1, 2, 3, 4, 5]
        assert result.probabilities.shape == (12, 2)

    def test_converged_history_has_no_negative_loss(self):
        # At this instance the labeled rows' true-class probabilities reach
        # 1.0; a clamp added to Z instead of taken as a floor drove the
        # final loss to -4.6e-12.
        dataset = make_synthetic(m=120, num_views=3, classes=4, noise=0.5, seed=0)
        labeled = make_split(dataset, SplitSpec(0.1, 0, True))
        graphs = prepare_graphs(dataset, 10, "euclidean")
        result = train(
            graphs, feature_matrix(dataset), dataset.labels, dataset.classes, labeled,
            seed=0, epochs=60,
        )
        losses = [row[1] for row in result.history]
        assert min(losses) >= 0
        assert not any(math.copysign(1.0, l) < 0 for l in losses)

    def test_unknown_forward_setting_raises_before_any_update(self, monkeypatch):
        graphs, features, labels = toy_instance(16, m=12)
        steps = []
        monkeypatch.setattr(model_module, "adam_step", lambda *args: steps.append(args))
        with pytest.raises(TypeError, match="bogus"):
            train(graphs, features, labels, 2, [0, 6], seed=3, epochs=2, hidden=4, bogus=1)
        assert steps == []

    @pytest.mark.parametrize(
        "labeled,eval_idx,refused",
        [
            (np.arange(40), None, "eval_idx"),  # every sample labeled
            ([0, 20], [], "eval_idx"),
            ([0, 20], [45], "eval_idx"),
            ([0, 20], [-1], "eval_idx"),
            ([0, 20], [1.0, 2.0], "eval_idx"),
            ([], None, "labeled_idx"),
            ([0, 40], None, "labeled_idx"),
            ([0.0, 20.0], None, "labeled_idx"),
            ([[0, 20]], None, "labeled_idx"),
        ],
    )
    def test_bad_index_sets_are_refused_before_the_first_forward_pass(
        self, monkeypatch, labeled, eval_idx, refused
    ):
        graphs, features, labels = toy_instance(16, m=40)
        calls = []
        monkeypatch.setattr(model_module, "forward", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ParameterError, match=refused):
            train(graphs, features, labels, 2, labeled, seed=3, epochs=2, hidden=4, k=3, eval_idx=eval_idx)
        assert calls == []

    def test_parameter_leaves_are_read_only_views_of_the_state(self):
        graphs, features, labels = toy_instance(16, m=12)
        checked = []

        def callback(iteration, fwd, loss_value, state):
            leaves = [n for n in fwd.probabilities.tape.nodes if n.op == "leaf"]
            for name, p in state.params.items():
                views = [n for n in leaves if np.shares_memory(n.value, p)]
                assert len(views) == 1 and not views[0].value.flags.writeable, name
            checked.append(iteration)

        train(graphs, features, labels, 2, [0, 6], seed=3, epochs=3, hidden=4, k=3, callback=callback)
        assert checked == [1, 2, 3]

    def test_adam_writes_the_parameters_only_after_the_sweep_returns(self, monkeypatch):
        graphs, features, labels = toy_instance(16, m=12)
        events, backward = [], Tape.backward

        def logged_backward(self, loss):
            events.append("backward")
            grads = backward(self, loss)
            events.append("returned")
            return grads

        def logged_adam(*args):
            events.append("adam")
            return adam_step(*args)

        monkeypatch.setattr(Tape, "backward", logged_backward)
        monkeypatch.setattr(model_module, "adam_step", logged_adam)
        train(graphs, features, labels, 2, [0, 6], seed=3, epochs=3, hidden=4, k=3)
        assert events == ["backward", "returned", "adam"] * 3

    def test_released_loss_node_reaches_no_other_node(self):
        graphs, features, labels = toy_instance(16, m=12)
        state = init_model(2, 12, features.shape[1], 4, 2, np.random.default_rng(0))
        tape = Tape()
        leaves = {name: tape.leaf(p) for name, p in state.params.items()}
        fwd = forward(tape, leaves, edge_support(graphs), features, k=3)
        loss = masked_cross_entropy(fwd.probabilities, one_hot(labels, 2), [0, 6])
        tape.backward(loss)
        tape.release()
        reached, stack = [], list(loss.parents)
        while stack:
            node = stack.pop()
            reached.append(node)
            stack.extend(node.parents)
        assert reached == []

    @pytest.mark.parametrize("dns_mode,use_glm", [("soft", True), ("soft", False), ("hard-topk", True)])
    def test_reused_buffers_give_the_bits_of_fresh_arrays(self, monkeypatch, dns_mode, use_glm):
        # the loop of ``train`` on a support without buffers, so every pass
        # allocates its own; 5-row blocks make two row runs of three blocks
        monkeypatch.setattr(graphs_module, "_ROW_BLOCK_ENTRIES", 5 * 30)
        graphs, features, labels = toy_instance(19, m=30)
        labeled, settings = np.array([0, 7, 15, 22]), {"dns_mode": dns_mode, "use_glm": use_glm, "k": 3}
        result = train(graphs, features, labels, 2, labeled, seed=5, epochs=6, hidden=4, **settings)

        state = init_model(2, 30, features.shape[1], 4, 2, np.random.default_rng(5))
        support, Y = edge_support(graphs), one_hot(labels, 2)
        eval_idx = np.setdiff1d(np.arange(30), labeled)
        history = []
        for iteration in range(1, 7):
            tape = Tape()
            leaves = {name: tape.leaf(p) for name, p in state.params.items()}
            Z = forward(tape, leaves, support, features, **settings).probabilities
            loss = masked_cross_entropy(Z, Y, labeled)
            tape.backward(loss)
            adam_step(state, {name: leaf.grad for name, leaf in leaves.items()}, 0.1)
            history.append(
                (
                    iteration,
                    float(loss.value[0, 0]),
                    evaluate(Z.value, labels, labeled),
                    evaluate(Z.value, labels, eval_idx),
                )
            )
        assert result.history == history
        for name, p in state.params.items():
            assert result.state.params[name].tobytes() == p.tobytes()

    def test_concurrent_runs_do_not_share_work_buffers(self, monkeypatch):
        # 6-row blocks make two row runs of several blocks each at m=30
        monkeypatch.setattr(graphs_module, "_ROW_BLOCK_ENTRIES", 6 * 30)
        graphs, features, labels = toy_instance(18, m=30)
        seeds = [1, 2, 3, 4]

        def run(seed):
            return train(graphs, features, labels, 2, [0, 15], seed=seed, epochs=8, hidden=4, k=3)

        alone = [run(seed).history for seed in seeds]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(seeds)) as pool:
                futures = [pool.submit(run, seed) for seed in seeds]
                together = [f.result(timeout=60).history for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert together == alone

    def test_train_and_predict_leave_no_cyclic_garbage(self):
        # Each iteration's tape is freed when the next one starts, so peak
        # memory does not depend on when the cyclic collector runs.
        graphs, features, labels = toy_instance(16, m=12)
        gc.collect()
        gc.disable()
        try:
            result = train(graphs, features, labels, 2, [0, 6], seed=3, epochs=3, hidden=4, k=3)
            assert gc.collect() == 0
            predict(result.state, graphs, features, k=3)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_doubling_nodes_stays_within_loose_time_factor(self):
        def timed(m):
            graphs, features, labels = toy_instance(17, m=m)
            start = time.perf_counter()
            train(graphs, features, labels, 2, [0, m - 1], seed=4, epochs=3, hidden=4, k=3)
            return time.perf_counter() - start

        small, large = timed(40), timed(80)
        assert large <= 10 * max(small, 1e-3)


class TestFullModelGradients:
    def test_every_parameter_matches_finite_differences(self):
        self._check(lambda seed: toy_instance(seed, m=6, k=2, n_per_view=2), 1e-3)

    def test_every_parameter_matches_finite_differences_on_a_sparse_support(self):
        # 44 nodes crowd the column scores and gains: no seed below 300
        # keeps 1e-3 from every kink, and 1e-4 is still 100 probe steps
        self._check(sparse_toy_instance, 1e-4)

    @staticmethod
    def _check(instance, margin):
        # raw_theta must sit away from 0: the normalized confidences always
        # contain a 0 and a 1, so their mid coefficient is exactly 0.5, which
        # is the threshold sigmoid(0) would produce; wider shrinkage factors
        # spread the column scores so their pairwise gaps clear the margin
        gamma, tau = 1.0, 0.5
        for seed in range(300):
            graphs, features, labels = instance(seed)
            m = len(labels)
            rng = np.random.default_rng(1000 + seed)
            state = init_model(2, m, features.shape[1], 3, 2, rng)
            state.params["raw_weights"][:] = 0.3 * rng.normal(size=(2, 2))
            state.params["S1"] *= 2.5
            state.params["S2"] *= 2.5
            state.params["raw_theta"][:] = -0.35
            if smoothness_margin(graphs, features, state, gamma, tau) >= margin:
                break
        else:
            pytest.fail("no kink-free evaluation point found")

        names = list(state.params)
        Y = one_hot(labels, 2)
        omega = [0, m - 2]
        support = edge_support(graphs)

        def build(tape, leaves):
            by_name = dict(zip(names, leaves))
            fwd = forward(tape, by_name, support, features, gamma=gamma, tau=tau)
            return masked_cross_entropy(fwd.probabilities, Y, omega)

        err = finite_difference_check(build, [state.params[n] for n in names])
        assert err <= 1e-4


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(18)
        state = init_model(2, 5, 4, 3, 2, rng)
        adam_step(state, {k: rng.normal(size=v.shape) for k, v in state.params.items()}, 0.1)
        config = {"k": 10, "tau": 0.5, "seed": 3}
        path = tmp_path / "model.json"
        save_checkpoint(path, state, config)
        loaded, loaded_config = load_checkpoint(path)
        assert loaded.step == state.step
        assert loaded_config == config
        for name in state.params:
            assert np.array_equal(loaded.params[name], state.params[name])
            assert np.array_equal(loaded.first_moment[name], state.first_moment[name])
            assert np.array_equal(loaded.second_moment[name], state.second_moment[name])

    def test_loaded_arrays_are_writeable_and_share_no_memory(self, tmp_path):
        # Adam updates the loaded arrays in place
        state = init_model(2, 5, 4, 3, 2, np.random.default_rng(30))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, state, {})
        loaded, _ = load_checkpoint(path)
        arrays = [a for s in CHECKPOINT_SECTIONS for a in getattr(loaded, s).values()]
        assert all(a.flags.writeable and a.dtype == np.float64 for a in arrays)
        for i, a in enumerate(arrays):
            for b in arrays[i + 1 :]:
                assert not np.shares_memory(a, b)
        adam_step(loaded, {k: np.ones_like(v) for k, v in loaded.params.items()}, 0.1)

    def test_header_and_payload_layout(self, tmp_path):
        rng = np.random.default_rng(21)
        state = init_model(2, 5, 4, 3, 2, rng)
        adam_step(state, {k: rng.normal(size=v.shape) for k, v in state.params.items()}, 0.1)
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, state, {"k": 3})
        assert payload_path(path) == tmp_path / "checkpoint.f64"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.f64", "checkpoint.json"]
        header = json.loads(path.read_text())
        payload = payload_path(path).read_bytes()
        assert list(header) == [
            "format", "step", "config", "config_hash", *CHECKPOINT_SECTIONS,
            "payload_bytes", "payload_sha256",
        ]  # fmt: skip
        assert header["format"] == 3 and header["step"] == 1
        assert header["payload_bytes"] == len(payload)
        assert header["payload_sha256"] == hashlib.sha256(payload).hexdigest()
        # each section names its arrays with their shapes, in payload order
        want = b""
        for section in CHECKPOINT_SECTIONS:
            arrays = getattr(state, section)
            assert header[section] == {k: list(v.shape) for k, v in arrays.items()}
            want += b"".join(v.astype("<f8").tobytes() for v in arrays.values())
        assert payload == want

    def test_same_content_gives_byte_identical_files_under_any_name(self, tmp_path):
        # the header stores no file name, so a checkpoint's bytes are its content
        state = init_model(2, 5, 4, 3, 2, np.random.default_rng(31))
        a, b = tmp_path / "a" / "checkpoint.json", tmp_path / "b" / "other.json"
        a.parent.mkdir()
        b.parent.mkdir()
        save_checkpoint(a, state, {"seed": 1})
        save_checkpoint(b, state, {"seed": 1})
        assert a.read_bytes() == b.read_bytes()
        assert payload_path(a).read_bytes() == payload_path(b).read_bytes()

    def test_header_named_like_its_payload_refused(self, tmp_path):
        state = init_model(1, 3, 2, 2, 2, np.random.default_rng(32))
        path = tmp_path / "checkpoint.f64"
        with pytest.raises(ParameterError, match="checkpoint.f64"):
            save_checkpoint(path, state, {})
        assert list(tmp_path.iterdir()) == []
        path.write_bytes(b"\0" * 8)
        with pytest.raises(DataLoadError, match="checkpoint.f64.*pass the header"):
            load_checkpoint(path)

    @staticmethod
    def _saved(tmp_path, seed, edit_state=None):
        state = init_model(1, 3, 2, 2, 2, np.random.default_rng(seed))
        adam_step(state, {k: np.ones_like(v) for k, v in state.params.items()}, 0.1)
        if edit_state is not None:
            edit_state(state)
        path = tmp_path / "model.json"
        save_checkpoint(path, state, {})
        return path

    @classmethod
    def _tampered(cls, tmp_path, seed, edit):
        """A saved checkpoint whose header ``edit`` changed in place."""
        path = cls._saved(tmp_path, seed)
        header = json.loads(path.read_text())
        edit(header)
        path.write_text(json.dumps(header))
        return path

    def test_tampered_config_rejected(self, tmp_path):
        def edit(header):
            header["config"]["tau"] = 0.1

        with pytest.raises(DataLoadError, match="model.json: config hash"):
            load_checkpoint(self._tampered(tmp_path, 19, edit))

    @pytest.mark.parametrize(
        "field", ["step", "config_hash", "params", "second_moment", "payload_bytes", "payload_sha256"]
    )
    def test_missing_field_rejected(self, tmp_path, field):
        def edit(header):
            del header[field]

        with pytest.raises(DataLoadError, match=f"model.json is missing field '{field}'"):
            load_checkpoint(self._tampered(tmp_path, 20, edit))

    @pytest.mark.parametrize(
        "field, value", [("payload_bytes", -8), ("payload_bytes", "96"), ("payload_sha256", 0)]
    )
    def test_malformed_payload_field_rejected(self, tmp_path, field, value):
        def edit(header):
            header[field] = value

        with pytest.raises(DataLoadError, match=f"model.json: {field} must be"):
            load_checkpoint(self._tampered(tmp_path, 33, edit))

    def test_format_1_rejected_naming_the_format(self, tmp_path):
        state = init_model(1, 3, 2, 2, 2, np.random.default_rng(22))
        path = tmp_path / "model.json"
        payload = {
            "format": 1,
            "step": 0,
            "config": {},
            "config_hash": config_digest({}),
            "params": {k: v.tolist() for k, v in state.params.items()},
            "first_moment": {k: v.tolist() for k, v in state.first_moment.items()},
            "second_moment": {k: v.tolist() for k, v in state.second_moment.items()},
        }
        path.write_text(json.dumps(payload))
        with pytest.raises(DataLoadError, match="format 1.*retrain"):
            load_checkpoint(path)

    def test_format_2_rejected_naming_the_format(self, tmp_path):
        # format 2 held every array as base64 inside the one JSON file
        state = init_model(1, 3, 2, 2, 2, np.random.default_rng(34))

        def encoded(arrays):
            return {
                k: {"shape": list(v.shape), "data": base64.b64encode(v.tobytes()).decode("ascii")}
                for k, v in arrays.items()
            }

        path = tmp_path / "checkpoint.json"
        path.write_text(
            json.dumps(
                {
                    "format": 2,
                    "step": 0,
                    "config": {},
                    "config_hash": config_digest({}),
                    **{s: encoded(getattr(state, s)) for s in CHECKPOINT_SECTIONS},
                }
            )
        )
        with pytest.raises(DataLoadError, match="checkpoint.json: .*format 2.*retrain"):
            load_checkpoint(path)

    @pytest.mark.parametrize(
        "text",
        ["", '{"format": 3, "st', "[1, 2]", "\udcff"],
        ids=["empty", "truncated", "array", "not-utf8"],
    )
    def test_header_that_is_not_a_json_object_rejected_naming_it(self, tmp_path, text):
        path = tmp_path / "model.json"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(DataLoadError, match="checkpoint .*model.json is not"):
            load_checkpoint(path)

    def test_missing_header_rejected_naming_it(self, tmp_path):
        with pytest.raises(DataLoadError, match="none.json cannot be read"):
            load_checkpoint(tmp_path / "none.json")

    def test_missing_payload_rejected_naming_both_files(self, tmp_path):
        path = self._saved(tmp_path, 35)
        payload_path(path).unlink()
        with pytest.raises(DataLoadError, match="model.f64 is missing; its header .*model.json"):
            load_checkpoint(path)

    # cut by one byte, one value, the whole payload; one value appended
    @pytest.mark.parametrize("change", [-1, -8, -10_000, 8])
    def test_truncated_or_lengthened_payload_rejected(self, tmp_path, change):
        path = self._saved(tmp_path, 36)
        payload = payload_path(path)
        data = payload.read_bytes()
        payload.write_bytes(data[: max(0, len(data) + change)] + bytes(max(0, change)))
        found = max(0, len(data) + change)
        with pytest.raises(DataLoadError, match=f"model.f64 holds {found} bytes but its header"):
            load_checkpoint(path)

    @pytest.mark.parametrize("position", [0, 77, -1])
    def test_flipped_payload_byte_rejected_by_the_checksum(self, tmp_path, position):
        path = self._saved(tmp_path, 23)
        payload = payload_path(path)
        data = bytearray(payload.read_bytes())
        data[position] ^= 0x01
        payload.write_bytes(bytes(data))
        with pytest.raises(DataLoadError, match="model.f64 does not match the sha256.*model.json"):
            load_checkpoint(path)

    def test_wrong_byte_length_rejected(self, tmp_path):
        # a longer shape than the payload holds: 9 more entries of 8 bytes
        def edit(header):
            header["first_moment"]["S1"] = [3, 6]

        with pytest.raises(DataLoadError, match="model.json: its shapes need 744 bytes.*holds 672"):
            load_checkpoint(self._tampered(tmp_path, 24, edit))

    @pytest.mark.parametrize(
        "edit",
        [
            lambda header: header["params"].update(S2=[3, 2]),
            lambda header: [header[s].pop("W2") for s in CHECKPOINT_SECTIONS],
            lambda header: header["second_moment"].update(extra=[2, 2]),
        ],
        ids=["shorter-shape", "array-left-out", "array-added"],
    )
    def test_shapes_that_do_not_tile_the_payload_rejected(self, tmp_path, edit):
        with pytest.raises(DataLoadError, match="model.json: its shapes need .* bytes but its payload"):
            load_checkpoint(self._tampered(tmp_path, 38, edit))

    @pytest.mark.parametrize("shape", [[3], [3, -1], [3.0, 3], [True, 1], "3x3", None])
    def test_malformed_shape_rejected(self, tmp_path, shape):
        def edit(header):
            header["params"]["W1"] = shape

        with pytest.raises(DataLoadError, match="params 'W1'.*shape"):
            load_checkpoint(self._tampered(tmp_path, 25, edit))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_value_rejected(self, tmp_path, bad):
        # the value is written into the payload and the checksum recomputed,
        # so only the value itself is wrong; second_moment's raw_theta is
        # the last array but two (W1 2x2, W2 2x2 follow)
        path = self._saved(tmp_path, 26)
        payload = payload_path(path)
        data = bytearray(payload.read_bytes())
        offset = len(data) - 8 * (1 + 4 + 4)
        data[offset : offset + 8] = np.array([bad], dtype="<f8").tobytes()
        payload.write_bytes(bytes(data))
        header = json.loads(path.read_text())
        assert list(header["second_moment"])[-3:] == ["raw_theta", "W1", "W2"]
        header["payload_sha256"] = hashlib.sha256(data).hexdigest()
        path.write_text(json.dumps(header))
        with pytest.raises(DataLoadError, match="model.f64: second_moment 'raw_theta'.*non-finite"):
            load_checkpoint(path)

    def test_sections_disagreeing_on_names_rejected(self, tmp_path):
        def edit(state):
            del state.first_moment["W2"]

        with pytest.raises(DataLoadError, match="model.json: first_moment.*params"):
            load_checkpoint(self._saved(tmp_path, 27, edit))

    def test_sections_disagreeing_on_shapes_rejected(self, tmp_path):
        def edit(state):
            state.second_moment["S1"] = state.second_moment["raw_theta"]

        with pytest.raises(DataLoadError, match="model.json: second_moment 'S1'.*shape"):
            load_checkpoint(self._saved(tmp_path, 28, edit))

    def test_failed_save_keeps_previous_file_and_leaves_no_temp(self, tmp_path):
        class Unwritable:
            def __array__(self, *args, **kwargs):
                raise RuntimeError("disk went away")

        state = init_model(1, 3, 2, 2, 2, np.random.default_rng(29))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, state, {"seed": 1})
        before = [path.read_bytes(), payload_path(path).read_bytes()]
        # params and first_moment are written before the last section fails
        state.second_moment["W2"] = Unwritable()
        with pytest.raises(RuntimeError, match="disk went away"):
            save_checkpoint(path, state, {"seed": 2})
        assert [path.read_bytes(), payload_path(path).read_bytes()] == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.f64", "checkpoint.json"]
        load_checkpoint(path)

    def test_crash_between_the_moves_leaves_a_pair_the_checksum_refuses(
        self, tmp_path, monkeypatch
    ):
        state = init_model(1, 3, 2, 2, 2, np.random.default_rng(39))
        path = tmp_path / "checkpoint.json"
        save_checkpoint(path, state, {"seed": 1})
        replace = os.replace
        moved = []

        def crash_after_the_first_move(src, dst):
            if moved:
                raise OSError("power cut")
            moved.append(Path(dst).name)
            replace(src, dst)

        monkeypatch.setattr(os, "replace", crash_after_the_first_move)
        state.params["S1"] += 1.0
        with pytest.raises(OSError, match="power cut"):
            save_checkpoint(path, state, {"seed": 1})
        monkeypatch.undo()
        assert moved == ["checkpoint.f64"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["checkpoint.f64", "checkpoint.json"]
        with pytest.raises(
            DataLoadError, match="checkpoint.f64 does not match the sha256 .*checkpoint.json"
        ):
            load_checkpoint(path)

    def test_digest_is_order_insensitive(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest({"b": 2, "a": 1})
        assert config_digest({"a": 1}) != config_digest({"a": 2})
