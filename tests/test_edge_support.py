"""The edge support, and the forward pass on it against the m x m formulas
of ``dense_reference``: the fused, refined and selected graphs bit for bit,
the probabilities and every parameter's gradient to rounding."""

import numpy as np
import pytest

from mvgcn import graphs
from mvgcn.autodiff import Tape
from mvgcn.data import make_synthetic
from mvgcn.errors import ParameterError, ShapeError
from mvgcn.experiment import feature_matrix, prepare_graphs
from mvgcn.fusion import edge_support
from mvgcn.graphs import EdgeSupport, Graph
from mvgcn.model import forward, init_model, masked_cross_entropy, one_hot
from mvgcn.selection import hard_topk_baseline

import dense_reference


def random_sparse(rng, m, density):
    return rng.uniform(0.1, 2.0, size=(m, m)) * (rng.uniform(size=(m, m)) < density)


class TestEdgeSupport:
    def test_layout_of_an_asymmetric_union(self):
        rng = np.random.default_rng(0)
        m = 12
        mats = [random_sparse(rng, m, 0.15) for _ in range(2)]
        support = EdgeSupport.of(mats)
        nz = (mats[0] != 0) | (mats[1] != 0)
        rows, cols = np.nonzero(nz | nz.T)
        assert np.array_equal(support.rows, rows) and np.array_equal(support.cols, cols)
        assert np.array_equal(support.flat, rows * m + cols)
        assert np.array_equal(support.rows[support.twin], cols)
        assert np.array_equal(support.cols[support.twin], rows)
        assert np.array_equal(np.diff(support.indptr), np.bincount(rows, minlength=m))
        for view, A in zip(support.views, mats):
            assert view.shape == (1, support.nnz)
            assert np.array_equal(support.densify(view), A)
            assert np.array_equal(support.gather(A), view)

    def test_products_match_the_dense_ones(self):
        # more edges than one block of the sampled product
        rng = np.random.default_rng(1)
        m, width = 60, 40
        support = EdgeSupport.of([random_sparse(rng, m, 0.5)])
        assert support.nnz * width > 2 * graphs._SDDMM_BLOCK_ENTRIES
        edges = rng.normal(size=(1, support.nnz))
        A = support.densify(edges)
        B, G = rng.normal(size=(m, width)), rng.normal(size=(m, width))
        assert np.max(np.abs(support.csr(edges) @ B - A @ B)) <= 1e-12
        want = support.gather(G @ B.T)
        assert np.max(np.abs(support.sddmm(G, B) - want)) <= 1e-12

    def test_empty_support(self):
        support = EdgeSupport.of([np.zeros((3, 3))])
        assert support.nnz == 0 and np.array_equal(support.indptr, np.zeros(4))
        assert np.array_equal(support.densify(np.zeros((1, 0))), np.zeros((3, 3)))

    def test_bad_inputs_rejected(self):
        with pytest.raises(ParameterError):
            EdgeSupport.of([])
        with pytest.raises(ShapeError):
            EdgeSupport.of([np.ones((3, 3)), np.ones((4, 4))])
        with pytest.raises(ShapeError):
            EdgeSupport.of([np.ones((3, 4))])


def acceptance_instance():
    dataset = make_synthetic(m=200, num_views=3, classes=4, noise=0.5, seed=0)
    return prepare_graphs(dataset, 10, "euclidean"), feature_matrix(dataset), dataset.labels


def synthetic_400():
    dataset = make_synthetic(m=400, num_views=3, classes=4, noise=0.5, seed=7)
    return prepare_graphs(dataset, 10, "euclidean"), feature_matrix(dataset), dataset.labels


def full_support_instance():
    rng = np.random.default_rng(2)
    m = 30
    views = []
    for _ in range(3):
        W = rng.uniform(0.05, 1.0, size=(m, m))
        views.append(Graph(np.triu(W) + np.triu(W, 1).T, renormalized=True))
    return views, rng.normal(size=(m, 6)), rng.integers(0, 4, size=m)


INSTANCES = {"m200": acceptance_instance, "m400": synthetic_400, "full": full_support_instance}


def perturbed_state(m, features, trial):
    rng = np.random.default_rng(10 + trial)
    state = init_model(3, m, features.shape[1], 16, 4, rng)
    state.params["raw_weights"][:] = rng.normal(size=(3, 3))
    state.params["S1"] *= 2.0 + 3.0 * trial
    state.params["S2"] *= 3.0
    state.params["raw_theta"][:] = (-0.3, 0.4, 60.0)[trial]  # the last passes through
    return state


# block_rows: node selection's default row blocks, or 7-row blocks, which
# leave a ragged last block at every instance's size
@pytest.mark.parametrize("block_rows", [None, 7])
@pytest.mark.parametrize("trial", range(3))
@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_forward_and_gradients_match_the_dense_reference(name, trial, block_rows, monkeypatch):
    views, features, labels = INSTANCES[name]()
    m = len(labels)
    if block_rows is not None:
        monkeypatch.setattr(graphs, "_ROW_BLOCK_ENTRIES", block_rows * m)
    state = perturbed_state(m, features, trial)
    Y, labeled = one_hot(labels, 4), np.arange(0, m, 7)
    support = edge_support(views)

    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in state.params.items()}
    fwd = forward(tape, leaves, support, features)
    tape.backward(masked_cross_entropy(fwd.probabilities, Y, labeled))
    got = [fwd.fusion.fused, fwd.refined, fwd.adjacency]

    ref_tape = Tape()
    ref_leaves = {k: ref_tape.leaf(v) for k, v in state.params.items()}
    *want, Z = dense_reference.dense_forward(ref_tape, ref_leaves, views, features)
    ref_tape.backward(masked_cross_entropy(Z, Y, labeled))

    for edge, dense in zip(got, want):
        assert support.densify(edge.value).tobytes() == dense.value.tobytes()
    assert np.max(np.abs(fwd.probabilities.value - Z.value)) <= 1e-12
    for k in state.params:
        g, w = leaves[k].grad, ref_leaves[k].grad
        assert np.max(np.abs(g - w)) <= 1e-9 * max(np.max(np.abs(w)), 1e-300), k


def test_hard_topk_mode_keeps_the_dense_rows():
    views, features, labels = acceptance_instance()
    state = perturbed_state(len(labels), features, 0)
    support = edge_support(views)
    tape = Tape()
    leaves = {k: tape.leaf(v) for k, v in state.params.items()}
    fwd = forward(tape, leaves, support, features, dns_mode="hard-topk", k=10)
    want = hard_topk_baseline(support.densify(fwd.refined.value), 10)
    assert support.densify(fwd.adjacency.value).tobytes() == want.tobytes()
