import numpy as np
import pytest

from mvgcn.errors import DomainError, ParameterError
from mvgcn.graphs import (
    Graph,
    _smallest_k_mask,
    build_knn_graph,
    pairwise_distances,
    renormalize,
)

import oracles


def edge_set(adjacency):
    rows, cols = np.nonzero(adjacency)
    return set(zip(rows.tolist(), cols.tolist()))


def stable_argsort_knn(X, k, metric="euclidean"):
    """Each row's first k entries of a stable argsort of its distances."""
    dist = pairwise_distances(np.asarray(X, dtype=float), metric)
    np.fill_diagonal(dist, np.inf)
    A = np.zeros(dist.shape)
    for i, row in enumerate(dist):
        A[i, np.argsort(row, kind="stable")[:k]] = 1.0
    return np.maximum(A, A.T)


def duplicated_points():
    base = np.random.default_rng(21).normal(size=(5, 2))
    return base[[0, 1, 0, 2, 3, 1, 4, 0, 2, 3, 4, 1]]


def integer_grid():
    # every point has several neighbours at each of a few distances
    return np.array([[i, j] for i in range(4) for j in range(4)], dtype=float)


def random_points():
    return np.random.default_rng(23).normal(size=(30, 3))


def cosine_with_zero_row():
    X = np.random.default_rng(22).normal(size=(10, 3))
    X[3] = 0.0
    return X


class TestKnnConstruction:
    def test_collinear_points_chain(self):
        X = np.array([[0.0], [1.0], [3.0]])
        g = build_knn_graph(X, k=1)
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(g.adjacency, expected)

    def test_k_equals_m_minus_one_is_complete(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 4))
        g = build_knn_graph(X, k=6)
        expected = 1.0 - np.eye(7)
        assert np.array_equal(g.adjacency, expected)

    def test_two_clusters_match_exhaustive_oracle(self):
        rng = np.random.default_rng(11)
        X = np.vstack(
            [
                rng.normal(loc=0.0, scale=0.3, size=(10, 3)),
                rng.normal(loc=5.0, scale=0.3, size=(10, 3)),
            ]
        )
        g = build_knn_graph(X, k=3)
        want = oracles.knn_edge_set([row.tolist() for row in X], k=3)
        assert edge_set(g.adjacency) == want

    def test_cosine_metric_matches_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 4))
        g = build_knn_graph(X, k=2, metric="cosine")
        want = oracles.knn_edge_set([row.tolist() for row in X], k=2, metric="cosine")
        assert edge_set(g.adjacency) == want

    def test_distance_ties_break_to_lower_index(self):
        # points 1 and 2 are equidistant from point 0
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        g = build_knn_graph(X, k=1)
        assert g.adjacency[0, 1] == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(seed)
        m, k = 15, 4
        X = rng.normal(size=(m, 3))
        A = build_knn_graph(X, k=k).adjacency
        assert np.array_equal(A, A.T)
        assert set(np.unique(A)) <= {0.0, 1.0}
        assert np.all(np.diag(A) == 0.0)
        nnz = (A != 0).sum(axis=1)
        assert np.all(nnz >= k) and np.all(nnz <= m - 1)

    @pytest.mark.parametrize(
        "points,metric,ks",
        [
            (duplicated_points, "euclidean", (1, 2, 4, 11)),
            (integer_grid, "euclidean", (1, 3, 4, 8, 15)),
            (cosine_with_zero_row, "cosine", (1, 2, 9)),
            (random_points, "euclidean", (1, 5, 29)),
            (random_points, "cosine", (1, 5, 29)),
        ],
    )
    def test_matches_stable_sort_and_oracle(self, points, metric, ks):
        X = points()
        for k in ks:
            A = build_knn_graph(X, k, metric).adjacency
            assert A.tobytes() == stable_argsort_knn(X, k, metric).tobytes(), k
            want = oracles.knn_edge_set([row.tolist() for row in X], k, metric)
            assert edge_set(A) == want, k

    def test_k_out_of_range(self):
        X = np.zeros((4, 2))
        with pytest.raises(ParameterError):
            build_knn_graph(X, k=4)
        with pytest.raises(ParameterError):
            build_knn_graph(X, k=0)

    def test_nan_features_rejected(self):
        X = np.array([[0.0, np.nan], [1.0, 2.0], [3.0, 4.0]])
        with pytest.raises(DomainError):
            build_knn_graph(X, k=1)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_features_rejected(self, bad):
        X = np.array([[0.0, 1.0], [1.0, bad], [3.0, 4.0]])
        with pytest.raises(DomainError):
            build_knn_graph(X, k=1)

    def test_unknown_metric_rejected(self):
        with pytest.raises(ParameterError):
            pairwise_distances(np.zeros((3, 2)), metric="manhattan")

    def test_cosine_zero_row_is_orthogonal_to_everything(self):
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0]])
        D = pairwise_distances(X, metric="cosine")
        assert D[0, 1] == pytest.approx(1.0)
        assert D[0, 2] == pytest.approx(1.0)


class TestSmallestKMask:
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_stable_sort_on_ties_and_infinities(self, seed):
        rng = np.random.default_rng(seed)
        values = rng.choice([-np.inf, -1.0, -0.0, 0.0, 2.0, np.inf], size=(9, 7))
        for k in range(1, values.shape[1] + 1):
            want = np.zeros(values.shape, dtype=bool)
            for i, row in enumerate(values):
                want[i, np.argsort(row, kind="stable")[:k]] = True
            assert np.array_equal(_smallest_k_mask(values, k), want), k

    def test_long_all_tied_rows_keep_their_first_k(self):
        values = np.zeros((2, 300))
        for k in (1, 200, 300):
            want = np.zeros(values.shape, dtype=bool)
            want[:, :k] = True
            assert np.array_equal(_smallest_k_mask(values, k), want), k


class TestRenormalize:
    def test_isolated_nodes_become_identity(self):
        g = Graph(np.zeros((3, 3)))
        out = renormalize(g)
        assert np.array_equal(out.adjacency, np.eye(3))
        assert out.renormalized

    def test_single_edge_pair(self):
        g = Graph(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = renormalize(g)
        assert out.adjacency == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)

    def test_random_graph_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        W = rng.uniform(size=(6, 6))
        A = np.triu(W, 1) + np.triu(W, 1).T
        out = renormalize(Graph(A)).adjacency
        want = np.array(oracles.renormalize_dense([row.tolist() for row in A]))
        assert out == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_output_invariants(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, 3))
        out = renormalize(build_knn_graph(X, k=3)).adjacency
        assert np.array_equal(out, out.T)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.diag(out) > 0.0)

    def test_double_renormalize_rejected(self):
        out = renormalize(Graph(np.zeros((2, 2))))
        with pytest.raises(ParameterError):
            renormalize(out)

    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            renormalize(Graph(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_asymmetry_within_tolerance_accepted(self):
        A = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        out = renormalize(Graph(A)).adjacency
        assert out == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)

    def test_nan_entries_rejected(self):
        with pytest.raises(ParameterError):
            renormalize(Graph(np.array([[0.0, np.nan], [np.nan, 0.0]])))

    def test_negative_entries_rejected(self):
        with pytest.raises(ParameterError):
            renormalize(Graph(np.array([[0.0, -1.0], [-1.0, 0.0]])))
