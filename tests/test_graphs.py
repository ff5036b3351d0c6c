import numpy as np
import pytest

from mvgcn.data import make_synthetic, standardize_columns
from mvgcn.errors import DomainError, ParameterError, ShapeError
from mvgcn.fusion import edge_support
from mvgcn.graphs import (
    Graph,
    _smallest_k_mask,
    build_knn_graph,
    pairwise_distances,
    renormalize,
)

import dense_reference
import oracles
from dense_reference import dense_of, graph_of


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
        assert np.array_equal(dense_of(g), expected)

    def test_k_equals_m_minus_one_is_complete(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(7, 4))
        g = build_knn_graph(X, k=6)
        expected = 1.0 - np.eye(7)
        assert np.array_equal(dense_of(g), expected)

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
        assert edge_set(dense_of(g)) == want

    def test_cosine_metric_matches_oracle(self):
        rng = np.random.default_rng(5)
        X = rng.normal(size=(12, 4))
        g = build_knn_graph(X, k=2, metric="cosine")
        want = oracles.knn_edge_set([row.tolist() for row in X], k=2, metric="cosine")
        assert edge_set(dense_of(g)) == want

    def test_distance_ties_break_to_lower_index(self):
        # points 1 and 2 are equidistant from point 0
        X = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        g = build_knn_graph(X, k=1)
        assert dense_of(g)[0, 1] == 1.0

    @pytest.mark.parametrize("seed", range(6))
    def test_structural_invariants(self, seed):
        rng = np.random.default_rng(seed)
        m, k = 15, 4
        X = rng.normal(size=(m, 3))
        A = dense_of(build_knn_graph(X, k=k))
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
            A = dense_of(build_knn_graph(X, k, metric))
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
        g = graph_of(np.zeros((3, 3)))
        out = renormalize(g)
        assert np.array_equal(dense_of(out), np.eye(3))
        assert out.renormalized

    def test_single_edge_pair(self):
        g = graph_of(np.array([[0.0, 1.0], [1.0, 0.0]]))
        out = renormalize(g)
        assert dense_of(out) == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)

    def test_random_graph_matches_dense_oracle(self):
        rng = np.random.default_rng(7)
        W = rng.uniform(size=(6, 6))
        A = np.triu(W, 1) + np.triu(W, 1).T
        out = dense_of(renormalize(graph_of(A)))
        want = np.array(oracles.renormalize_dense([row.tolist() for row in A]))
        assert out == pytest.approx(want, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_output_invariants(self, seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(10, 3))
        out = dense_of(renormalize(build_knn_graph(X, k=3)))
        assert np.array_equal(out, out.T)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert np.all(np.diag(out) > 0.0)

    def test_double_renormalize_rejected(self):
        out = renormalize(graph_of(np.zeros((2, 2))))
        with pytest.raises(ParameterError):
            renormalize(out)

    def test_asymmetric_rejected(self):
        with pytest.raises(ParameterError):
            renormalize(graph_of(np.array([[0.0, 1.0], [0.0, 0.0]])))

    def test_asymmetry_within_tolerance_accepted(self):
        A = np.array([[0.0, 1.0], [1.0 + 1e-13, 0.0]])
        out = dense_of(renormalize(graph_of(A)))
        assert out == pytest.approx(np.full((2, 2), 0.5), abs=1e-12)

    def test_missing_twin_within_tolerance_accepted(self):
        # as in the m x m check, a missing twin counts as 0
        A = np.array([[0.0, 1e-13], [0.0, 0.0]])
        out = renormalize(graph_of(A))
        assert np.array_equal(out.flat, [0, 1, 3])

    def test_nan_entries_rejected(self):
        with pytest.raises(ParameterError):
            renormalize(graph_of(np.array([[0.0, np.nan], [np.nan, 0.0]])))

    def test_negative_entries_rejected(self):
        with pytest.raises(ParameterError):
            renormalize(graph_of(np.array([[0.0, -1.0], [-1.0, 0.0]])))

    @pytest.mark.parametrize(
        "graph, message",
        [
            (Graph(3, np.array([1, 3, 2]), np.ones(3)), "edge (0, 2) is out of row-major order"),
            (Graph(3, np.array([1, 1]), np.ones(2)), "edge (0, 1) is out of row-major order"),
            (Graph(3, np.array([1, 9]), np.ones(2)), "edge (3, 0) is out of row-major order or outside"),
            (Graph(3, np.array([-1, 1]), np.ones(2)), "outside 3 x 3"),
            (graph_of([[0, 0, 0], [0, 0, np.nan], [0, np.nan, 0]]), "edge (1, 2) is NaN"),
            (graph_of([[0, 0, 0], [0, 0, 1], [0, 0, 0]]), "edge (1, 2) has no twin with the same"),
            (graph_of([[0, 0, 1], [0, 0, 0], [1.1, 0, 0]]), "edge (0, 2) has no twin"),
            (graph_of([[0, 1, 0], [1, 0, -1], [0, -1, 0]]), "edge (1, 2) is negative"),
        ],
        ids=[
            "out_of_order", "repeated", "outside", "negative_index", "nan", "missing_twin",
            "unequal_twin", "negative",
        ],
    )
    def test_refusals_name_the_first_offending_edge(self, graph, message):
        with pytest.raises(ParameterError, match="adjacency") as refused:
            renormalize(graph)
        assert message in str(refused.value)

    @pytest.mark.parametrize(
        "graph",
        [
            Graph(3, np.array([1.0, 3.0]), np.ones(2)),
            Graph(3, np.array([[1, 3]]), np.ones((1, 2))),
            Graph(3, np.array([1, 3]), np.ones(3)),
        ],
        ids=["float_edges", "two_dimensional", "value_count"],
    )
    def test_edges_that_are_not_a_flat_integer_list_are_refused(self, graph):
        with pytest.raises(ShapeError, match="adjacency: edges must be a 1-D integer array"):
            renormalize(graph)

    def test_integer_values_are_read_as_floats(self):
        A = np.array([[0, 2, 0], [2, 0, 1], [0, 1, 0]])
        flat = np.flatnonzero(A)
        out = renormalize(Graph(3, flat, A.take(flat)))
        assert dense_of(out).tobytes() == dense_reference.renormalized(A.astype(float)).tobytes()

    def test_self_loops_get_one_added(self):
        # a self-loop on nodes 0 and 2, none on 1 and 3
        A = np.array([[1, 1, 0, 0], [1, 0, 0, 0], [0, 0, 2, 1], [0, 0, 1, 0]], dtype=float)
        out = renormalize(graph_of(A))
        assert np.array_equal(out.flat, np.flatnonzero(A + np.eye(4)))
        assert dense_of(out).tobytes() == dense_reference.renormalized(A).tobytes()


def tie_heavy_grid(m, seed):
    """Points on a 3 x 3 integer grid: every point has many neighbours at
    each of a few distances, and under the cosine metric the origin is
    orthogonal to everything."""
    return np.random.default_rng(seed).integers(0, 3, size=(m, 2)).astype(float)


def synthetic_views(m, seed):
    dataset = make_synthetic(m=m, num_views=3, classes=4, noise=0.5, seed=seed)
    return [standardize_columns(X) for X in dataset.views]


@pytest.mark.parametrize("metric", ["euclidean", "cosine"])
@pytest.mark.parametrize("m", [40, 200, 401, 800])
@pytest.mark.parametrize("features", ["synthetic", "tie_heavy_grid"])
@pytest.mark.parametrize("k", [10, "m-1"])
def test_edges_and_support_match_the_dense_oracle_bit_for_bit(metric, m, features, k):
    k = m - 1 if k == "m-1" else k
    if features == "synthetic":
        views = synthetic_views(m, 7)
    else:
        views = [tie_heavy_grid(m, seed) for seed in range(3)]
    graphs, dense = [], []
    for X in views:
        g = renormalize(build_knn_graph(X, k, metric))
        A = dense_reference.renormalized(dense_reference.knn_graph(X, k, metric))
        flat = np.flatnonzero(A)
        assert g.num_nodes == m and g.renormalized
        assert g.flat.tobytes() == flat.tobytes()
        assert g.values.tobytes() == A.take(flat).tobytes()
        graphs.append(g)
        dense.append(A)
    got, want = edge_support(graphs), dense_reference.union_support(dense)
    for field in ("rows", "cols", "flat", "indptr", "twin"):
        assert getattr(got, field).tobytes() == getattr(want, field).tobytes(), field
    assert len(got.views) == len(want.views)
    for view, reference in zip(got.views, want.views):
        assert view.shape == reference.shape
        assert view.tobytes() == reference.tobytes()
