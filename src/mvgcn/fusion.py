"""Trainable fusion of per-view graphs into a single adjacency.

A square mixing matrix W passes through a row softmax. Each view v gets a
complementary graph sum_i W[v, i] * A_i, and the fused adjacency averages the
complementary graphs by per-view importance alpha (normalized column sums of
W). That average is linear in the views, so the tape records it as a single
weighted sum, fused = sum_i c_i * A_i with coefficients c = alpha @ W; the
gradient reaches the raw mixing weights through c. The complementary graphs
themselves are computed as plain values, for inspection only.
"""

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Node
from .errors import ParameterError, ShapeError
from .graphs import Graph


def normalize_weights(raw: Node) -> Node:
    """Row-stochastic mixing weights from unconstrained ones."""
    rows, cols = raw.value.shape
    if rows != cols:
        raise ShapeError(f"mixing weights must be square, got shape {raw.value.shape}")
    return ad.softmax_rows(raw)


def _check_views(views: list[Graph], W: Node) -> None:
    V = len(views)
    if V == 0:
        raise ParameterError("need at least one view")
    if W.value.shape != (V, V):
        raise ShapeError(
            f"mixing weights shape {W.value.shape} does not match {V} views"
        )
    m = views[0].num_nodes
    for g in views:
        if g.num_nodes != m:
            raise ShapeError(
                f"views disagree on node count: {g.num_nodes} vs {m}"
            )
        if not g.renormalized:
            raise ParameterError("fusion expects renormalized per-view graphs")


def complementary_graphs(views: list[Graph], W: Node) -> list[np.ndarray]:
    """One weighted-sum graph per view, out[v] = sum_i W[v, i] * A_i, as
    plain arrays (off the tape)."""
    _check_views(views, W)
    return [
        sum(w * g.adjacency for w, g in zip(row, views)) for row in W.value
    ]


def view_importance(W: Node) -> Node:
    """Per-view contribution: column sums of W, renormalized to sum to 1."""
    totals = ad.col_sum(W)
    return ad.div(totals, ad.sum_all(totals))


@dataclass
class FusionResult:
    """Tape nodes for the mixing weights, the importances and the fused graph."""

    weights: Node
    importance: Node
    fused: Node


def fuse_views(views: list[Graph], raw: Node) -> FusionResult:
    """Full cascade from raw mixing weights to the fused adjacency."""
    W = normalize_weights(raw)
    _check_views(views, W)
    alpha = view_importance(W)
    fused = ad.weighted_sum(ad.matmul(alpha, W), [g.adjacency for g in views])
    return FusionResult(W, alpha, fused)


def init_fusion_weights(num_views: int) -> np.ndarray:
    """All-zero raw weights, i.e. a uniform mix at step 0."""
    if num_views < 1:
        raise ParameterError(f"num_views must be positive, got {num_views}")
    return np.zeros((num_views, num_views))
