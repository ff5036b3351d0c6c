"""Trainable fusion of per-view graphs into a single adjacency.

A square mixing matrix W passes through a row softmax. Each view v gets a
complementary graph sum_i W[v, i] * A_i, and the fused adjacency averages the
complementary graphs by per-view importance alpha (normalized column sums of
W). That average is linear in the views, so the tape records it as a single
weighted sum, fused = sum_i c_i * A_i with coefficients c = alpha @ W; the
gradient reaches the raw mixing weights through c. The complementary graphs
themselves are never formed (the tests' ``dense_reference`` builds them).

The fused adjacency is a 1 x nnz row of edge values on the views'
``EdgeSupport`` (``edge_support``), the union of their edges and twins:
every view is zero off it, so the fused graph is too, and each edge holds
the bits the m x m weighted sum holds there. Its gradient lives on the
same edges.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ParameterError, ShapeError
from .graphs import EdgeSupport, Graph, _check_edges, _column_order


def normalize_weights(raw: Node) -> Node:
    """Row-stochastic mixing weights from unconstrained ones."""
    rows, cols = raw.value.shape
    if rows != cols:
        raise ShapeError(f"mixing weights must be square, got shape {raw.value.shape}")
    return ad.softmax_rows(raw)


def _check_views(views: list[Graph]) -> None:
    if not views:
        raise ParameterError("need at least one view")
    m = views[0].num_nodes
    for v, g in enumerate(views):
        if g.num_nodes != m:
            raise ShapeError(
                f"views disagree on node count: {g.num_nodes} vs {m}"
            )
        if not g.renormalized:
            raise ParameterError("fusion expects renormalized per-view graphs")
        _check_edges(g, f"view {v}")


def _check_weights(W: Node, num_views: int) -> None:
    if W.value.shape != (num_views, num_views):
        raise ShapeError(
            f"mixing weights shape {W.value.shape} does not match {num_views} views"
        )


def edge_support(views: list[Graph]) -> EdgeSupport:
    """The edge support of the renormalized per-view graphs, with each
    view's values on it: the union of their edges and of the edges' twins,
    taken on one m x m bool mask."""
    _check_views(views)
    m = views[0].num_nodes
    union = np.zeros((m, m), dtype=bool)
    marked = union.reshape(-1)
    for g in views:
        marked[g.flat] = True
    union |= union.T
    flat = np.flatnonzero(union)
    rows, cols = np.divmod(flat, m)
    marked[:] = False
    placed = []
    for g in views:
        # a view's edges are a sorted subset of ``flat``: marked, read off, cleared
        marked[g.flat] = True
        values = np.zeros(flat.size)
        values[np.flatnonzero(marked[flat])] = g.values
        marked[g.flat] = False
        placed.append(values.reshape(1, -1))
    indptr = np.searchsorted(rows, np.arange(m + 1))
    # the support is symmetric: the k-th edge in column-major order is edge k's twin
    return EdgeSupport(m, rows, cols, flat, indptr, _column_order(cols, m), tuple(placed))


def view_importance(W: Node) -> Node:
    """Per-view contribution: column sums of W, renormalized to sum to 1."""
    totals = ad.col_sum(W)
    return ad.div(totals, ad.sum_all(totals))


@dataclass
class FusionResult:
    """Tape nodes for the mixing weights, the importances and the fused
    graph's edge values."""

    weights: Node
    importance: Node
    fused: Node


def fuse_views(support: EdgeSupport, raw: Node) -> FusionResult:
    """Full cascade from raw mixing weights to the fused edge values."""
    W = normalize_weights(raw)
    _check_weights(W, len(support.views))
    alpha = view_importance(W)
    fused = ad.weighted_sum(ad.matmul(alpha, W), support.views)
    return FusionResult(W, alpha, fused)


def init_fusion_weights(num_views: int) -> np.ndarray:
    """All-zero raw weights, i.e. a uniform mix at step 0."""
    if num_views < 1:
        raise ParameterError(f"num_views must be positive, got {num_views}")
    return np.zeros((num_views, num_views))
