"""KNN adjacency construction and symmetric degree renormalization.

Each point's k nearest neighbours come from one row-wise partition of the
distance matrix: every distance below the row's k-th smallest is taken, and
the remaining places go to the entries equal to it, lowest sample index
first. The chosen set is the first k entries of the row's stable argsort,
bit for bit, without sorting any row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist

from .errors import DomainError, ParameterError, ShapeError

METRICS = ("euclidean", "cosine")


@dataclass
class Graph:
    """Dense symmetric non-negative adjacency with a renormalization flag."""

    adjacency: np.ndarray
    renormalized: bool = False

    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]


def pairwise_distances(features: np.ndarray, metric: str = "euclidean") -> np.ndarray:
    """All-pairs distance matrix; cosine rows with zero norm are treated as orthogonal."""
    if metric == "euclidean":
        return cdist(features, features, metric="euclidean")
    if metric == "cosine":
        norms = np.linalg.norm(features, axis=1)
        safe = np.where(norms > 0, norms, 1.0)
        unit = features / safe[:, None]
        sim = unit @ unit.T
        return 1.0 - np.clip(sim, -1.0, 1.0)
    raise ParameterError(f"unknown metric {metric!r}, expected one of {METRICS}")


def _smallest_k_mask(values: np.ndarray, k: int) -> np.ndarray:
    """Boolean mask of the k smallest entries of each row, ties to the lower
    column index: the set ``np.argsort(row, kind="stable")[:k]`` picks.

    ``values`` must hold no NaN; -0.0 equals 0.0 and inf equals inf, as in
    the sort.
    """
    kth = np.partition(values, k - 1, axis=1)[:, k - 1 : k]
    below = values < kth
    tied = values == kth
    # the places left after the strictly smaller entries go to the first ties;
    # int32 counts suffice for any row that fits in memory and take about half
    # the time of the default int64 ones
    tied &= np.cumsum(tied, axis=1, dtype=np.int32) <= k - below.sum(axis=1, keepdims=True)
    return below | tied


def build_knn_graph(features: np.ndarray, k: int, metric: str = "euclidean") -> Graph:
    """Binary mutual-max KNN adjacency: an edge i-j exists when either point
    ranks the other among its k nearest. The diagonal stays zero.

    Point i's neighbours are the first k entries of the stable argsort of
    its distance row, so a tie in distance goes to the lower sample index.
    They are read off one row-wise partition without sorting (module
    docstring). Features must be finite.
    """
    X = np.asarray(features, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeError(f"expected samples-by-features matrix, got shape {X.shape}")
    m = X.shape[0]
    if not 1 <= k < m:
        raise ParameterError(f"k must satisfy 1 <= k < m, got k={k} with m={m}")
    if not np.isfinite(X).all():
        raise DomainError("feature matrix contains non-finite (NaN or inf) entries")

    dist = pairwise_distances(X, metric)
    np.fill_diagonal(dist, np.inf)
    nearest = _smallest_k_mask(dist, k)
    adjacency = (nearest | nearest.T).astype(np.float64)
    return Graph(adjacency=adjacency, renormalized=False)


def renormalize(graph: Graph) -> Graph:
    """Self-loop degree renormalization: with hat(A) = A + I and
    hat(D) its row-sum diagonal, returns hat(D)^-1/2 hat(A) hat(D)^-1/2.
    Rejects graphs that are already renormalized.
    """
    if graph.renormalized:
        raise ParameterError("graph is already renormalized")
    A = np.asarray(graph.adjacency, dtype=np.float64)
    if A.shape[0] != A.shape[1]:
        raise ShapeError(f"adjacency must be square, got shape {A.shape}")
    # exact equality settles the common case without allclose's temporaries;
    # it accepts nothing allclose would refuse (NaN fails both)
    if not (np.array_equal(A, A.T) or np.allclose(A, A.T, atol=1e-12)):
        raise ParameterError("adjacency must be symmetric")
    if np.any(A < 0):
        raise ParameterError("adjacency must be non-negative")

    a_hat = A + np.eye(A.shape[0])
    inv_sqrt_deg = 1.0 / np.sqrt(a_hat.sum(axis=1))
    # np.outer keeps the result bitwise symmetric.
    out = a_hat * np.outer(inv_sqrt_deg, inv_sqrt_deg)
    return Graph(adjacency=out, renormalized=True)
