"""Fusion, refinement, node selection and the graph convolution over all
m x m entries, the reference for the package's edge layout. Each stage is a
tape op with its hand-derived backward rule, so tests can hold the edge
layout to these values bit for bit and to these gradients within rounding.

``dense_forward`` chains them as ``model.forward`` does, and
``complementary_graphs`` forms the per-view graphs that fusion averages.
"""

import numpy as np

from mvgcn import autodiff as ad
from mvgcn.autodiff import Node, _accumulate, _same_tape, _sigmoid_array, _softmax_rows_grad
from mvgcn.fusion import _check_views, _check_weights
from mvgcn.graph_learning import _score_gradient, _shrinkage_mask
from mvgcn.graphs import EdgeSupport
from mvgcn.selection import (
    _LOG2,
    _discounted_gain,
    _discounts,
    _gap_sum_grad,
    _ranks,
    confidence_coefficients,
    normalize_confidence,
    relaxed_permutation,
)


def on_support(*matrices):
    """The edge support of some m x m matrices and each one's edge values."""
    support = EdgeSupport.of(matrices)
    return (support,) + support.views


def complementary_graphs(views, W: Node) -> list[np.ndarray]:
    """One weighted-sum graph per view, out[v] = sum_i W[v, i] * A_i, as
    plain m x m arrays, from renormalized ``Graph`` views."""
    _check_views(views)
    _check_weights(W, len(views))
    return [sum(w * g.adjacency for w, g in zip(row, views)) for row in W.value]


def fuse(views, raw):
    """fused = sum_i (alpha @ W)_i * A_i over m x m views."""
    W = ad.softmax_rows(raw)
    totals = ad.col_sum(W)
    alpha = ad.div(totals, ad.sum_all(totals))
    return ad.weighted_sum(ad.matmul(alpha, W), views)


def refine(fused: Node, S1: Node, S2: Node, gamma: float) -> Node:
    """fused * sigmoid(gamma |S1 S2^T - S2 S1^T|) over all m^2 entries."""
    tape = _same_tape(fused, S1, "refine")
    P = S1.value @ S2.value.T
    score = P - P.T
    mask = _shrinkage_mask(score, gamma)
    out = Node(fused.value * mask, (fused, S1, S2), "refine", tape)

    def _bw(g):
        _accumulate(fused, g * mask, owned=True)
        D = _score_gradient(g, fused.value, mask, score, gamma)
        dP = D - D.T
        _accumulate(S1, dP @ S2.value, owned=True)
        _accumulate(S2, (S1.value.T @ dP).T)

    out._backward = _bw
    return out


def column_means(adj):
    counts = np.count_nonzero(adj, axis=0).astype(float).reshape(1, -1)
    inverse_counts = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
    return adj.sum(axis=0, keepdims=True) * inverse_counts, inverse_counts


def gate(adj, C, raw_theta):
    """(selected, scale, peak): relu(C - theta) / peak scales every entry;
    the scale is None when the adjacency passes through."""
    gated = np.maximum(C - _sigmoid_array(raw_theta), 0.0)
    peak = float(gated.max())
    if peak == 0.0:
        return adj, None, peak
    scale = gated / peak
    return adj * scale, scale, peak


def select(adj: Node, raw_theta: Node, tau: float):
    """Node selection over m x m arrays; returns (selected node, C)."""
    tape = _same_tape(adj, raw_theta, "select")
    A = adj.value
    m = A.shape[0]
    a_s, inverse_counts = column_means(A)
    P = relaxed_permutation(a_s, tau)
    exp2_P = np.exp2(P)
    raw = _discounted_gain(exp2_P)
    ibar = normalize_confidence(raw)
    C = confidence_coefficients(ibar)
    selected, scale, peak = gate(A, C, raw_theta.value)
    out = Node(selected, (adj, raw_theta), "select", tape)

    def _bw(g):
        if scale is None:
            _accumulate(adj, g)
            _accumulate(raw_theta, np.zeros((1, 1)), owned=True)
            return
        d_scale = g * A
        d_gated = d_scale / peak
        d_gated.flat[np.argmax(scale)] -= np.vdot(d_scale, scale) / peak
        d_gated *= scale > 0.0
        theta = _sigmoid_array(raw_theta.value)
        _accumulate(raw_theta, -d_gated.sum() * theta * (1.0 - theta), owned=True)
        grad_adj = g * scale
        spread = raw.max() - raw.min()
        if spread != 0.0:
            d_ibar = 0.5 * (d_gated.sum(axis=1) + d_gated.sum(axis=0))
            d_raw = d_ibar / spread
            d_spread = -np.dot(d_ibar, ibar[0]) / spread
            d_low = -d_raw.sum() - d_spread
            d_raw[np.argmax(raw)] += d_spread
            d_raw[np.argmin(raw)] += d_low
            d_P = exp2_P * np.outer(d_raw, _discounts(m) * _LOG2)
            d_logits = _softmax_rows_grad(P, d_P)
            d_scores = _ranks(m)[:, 0] @ d_logits
            d_scores += _gap_sum_grad(a_s[0], -d_logits.sum(axis=0))
            d_scores /= tau
            grad_adj += d_scores * inverse_counts
        _accumulate(adj, grad_adj, owned=True)

    out._backward = _bw
    return out, C


def gcn_layer(A: Node, H: Node, W: Node, activation: str = "none") -> Node:
    d_in, d_out = W.value.shape
    if d_out < d_in:
        out = ad.matmul(A, ad.matmul(H, W))
    else:
        out = ad.matmul(ad.matmul(A, H), W)
    if activation == "relu":
        return ad.relu(out)
    if activation == "softmax-rows":
        return ad.softmax_rows(out)
    return out


def dense_forward(tape, leaves, views, features, gamma=1.0, tau=0.5):
    """(fused, refined, selected, probabilities) of the default forward
    pass, as m x m nodes."""
    fused = fuse([g.adjacency for g in views], leaves["raw_weights"])
    refined = refine(fused, leaves["S1"], leaves["S2"], gamma)
    selected, _ = select(refined, leaves["raw_theta"], tau)
    H = tape.leaf(features)
    num_layers = sum(1 for name in leaves if name.startswith("W"))
    for l in range(1, num_layers):
        H = gcn_layer(selected, H, leaves[f"W{l}"], "relu")
    Z = gcn_layer(selected, H, leaves[f"W{num_layers}"], "softmax-rows")
    return fused, refined, selected, Z
