"""Differentiable node selection.

Node scores are the mean nonzero entry of each adjacency column. A
temperature-controlled softmax relaxes the descending sort of those scores
into a row-stochastic permutation matrix (NeuralSort), a
discounted-cumulative-gain transform of each row scores how confidently a
node ranks near the front, and edges whose endpoint confidences fall below a
learnable threshold are shrunk toward zero.

The soft mode's confidences depend on node order. Row i of the relaxed
permutation is rank position i and column j is node j, but the gain sums
row i over the columns with discount 1/log2(j + 1), so the discount goes by
node index and ``ibar[i]`` belongs to rank position i, while the edge
coefficients use it as node i's confidence. Relabeling the nodes therefore
changes the soft mode's output. With selection off, the forward pass
permutes with the nodes.

The stage functions take and return plain arrays.
``differentiable_node_selection`` chains them and records the whole pipeline,
from the adjacency and the raw threshold to the selected adjacency, as one
tape node with a hand-derived backward rule. That rule keeps three m x m
arrays from the forward pass: the relaxed permutation P, 2^P, and the gate
that scaled the edges. The returned ``SelectionResult`` also holds the edge
coefficients; every other intermediate is freed when the op returns. The
hard top-k variant at the bottom is a plain array routine kept for
comparison runs.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import (
    Node,
    _accumulate,
    _same_tape,
    _sigmoid_array,
    _softmax_rows_array,
    _softmax_rows_grad,
)
from .errors import DomainError, ParameterError, ShapeError
from .graphs import _smallest_k_mask

_LOG2 = float(np.log(2.0))


def _column_means(adj: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # the means and the inverse nonzero counts behind them, as 1 x m rows
    counts = np.count_nonzero(adj, axis=0).astype(float).reshape(1, -1)
    inverse_counts = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
    return adj.sum(axis=0, keepdims=True) * inverse_counts, inverse_counts


def column_mean_nonzero(adj: np.ndarray) -> np.ndarray:
    """Mean of the nonzero entries in each column, as a 1 x m row.

    Columns with no nonzero entries score 0.
    """
    return _column_means(adj)[0]


def _check_row(vector: np.ndarray, what: str) -> None:
    if vector.shape[0] != 1:
        raise ShapeError(f"{what} must be a row vector, got shape {vector.shape}")


def pairwise_difference(a_s: np.ndarray) -> np.ndarray:
    """Absolute score gaps: out[i, j] = |a_s[i] - a_s[j]|."""
    _check_row(a_s, "scores")
    return np.abs(a_s.T - a_s)


def _ranks(m: int) -> np.ndarray:
    # m + 1 - 2i for the 1-based row i, as an m x 1 column
    return (m + 1 - 2 * np.arange(1, m + 1, dtype=float)).reshape(m, 1)


def relaxed_permutation(a_s: np.ndarray, tau: float) -> np.ndarray:
    """Temperature-relaxed descending sort of the scores.

    Row i (1-based) is softmax(((m + 1 - 2i) * a_s - delta_sums) / tau), so at
    low temperature row i concentrates on the node with the i-th largest
    score. Every row sums to 1 for any positive temperature.
    """
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    logits = _ranks(a_s.shape[1]) * a_s
    logits -= pairwise_difference(a_s).sum(axis=1)
    logits *= 1.0 / tau
    return _softmax_rows_array(logits)


def _discounts(m: int) -> np.ndarray:
    # 1 / log2(j + 1) for the 1-based column j
    return 1.0 / np.log2(np.arange(2, m + 2, dtype=float))


def _discounted_gain(exp2_P: np.ndarray) -> np.ndarray:
    return ((exp2_P - 1.0) * _discounts(exp2_P.shape[0])).sum(axis=1).reshape(1, -1)


def dcg_confidence(P: np.ndarray) -> np.ndarray:
    """Per-node gain sum_j (2^P[i, j] - 1) / log2(j + 1), j 1-based, as 1 x m."""
    return _discounted_gain(np.exp2(P))


def normalize_confidence(raw: np.ndarray) -> np.ndarray:
    """Min-max rescaling to [0, 1]; all-equal confidences collapse to 0.5."""
    lo = raw.min()
    hi = raw.max()
    if hi == lo:
        return np.full_like(raw, 0.5)
    return (raw - lo) / (hi - lo)


def confidence_coefficients(ibar: np.ndarray) -> np.ndarray:
    """Edge coefficients C[i, j] = (ibar[i] + ibar[j]) / 2."""
    _check_row(ibar, "confidences")
    return (ibar.T + ibar) * 0.5


def _gate_edges(adj: np.ndarray, C: np.ndarray, raw_theta: np.ndarray):
    """``select_nodes``, also returning the scale relu(C - theta) / peak that
    multiplied the edges and its peak; the scale is None when the adjacency
    passes through."""
    if C.shape != adj.shape:
        raise ShapeError(f"coefficient shape {C.shape} does not match adjacency {adj.shape}")
    if raw_theta.shape != (1, 1):
        raise ShapeError(f"threshold must be 1x1, got shape {raw_theta.shape}")
    gated = np.maximum(C - _sigmoid_array(raw_theta), 0.0)
    peak = float(gated.max())
    if peak == 0.0:
        return adj, None, peak
    scale = gated / peak
    return adj * scale, scale, peak


def select_nodes(adj: np.ndarray, C: np.ndarray, raw_theta: np.ndarray) -> np.ndarray:
    """Gate edges by thresholded confidence.

    The threshold is sigmoid(raw_theta). Coefficients at or below it zero
    out; survivors are rescaled by their maximum so the strongest edge keeps
    its full weight. If the threshold tops every coefficient the adjacency
    passes through unchanged rather than collapsing to zero.
    """
    return _gate_edges(adj, C, raw_theta)[0]


def _gap_sum_grad(a: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Gradient with respect to ``a`` of sum_i u[i] * sum_j |a[i] - a[j]|.

    Entry k is sum_j (u[k] + u[j]) * sign(a[k] - a[j]): a sort, two
    searchsorted calls and a prefix sum give it in O(m log m). Tied scores
    contribute sign(0) = 0.
    """
    order = np.argsort(a, kind="stable")
    ordered = a[order]
    prefix = np.concatenate(([0.0], np.cumsum(u[order])))
    below = np.searchsorted(ordered, a, side="left")  # count of a[j] < a[k]
    not_above = np.searchsorted(ordered, a, side="right")  # count of a[j] <= a[k]
    above_count = a.size - not_above
    above_sum = prefix[-1] - prefix[not_above]
    return u * (below - above_count) + prefix[below] - above_sum


@dataclass
class SelectionResult:
    """Every stage of the selection pipeline: plain arrays, and the selected
    adjacency as the one tape node the pipeline records."""

    scores: np.ndarray
    permutation: np.ndarray
    confidence: np.ndarray
    coefficients: np.ndarray
    selected: Node


def differentiable_node_selection(adj: Node, raw_theta: Node, tau: float) -> SelectionResult:
    """Full pipeline from a refined adjacency to the selected one, recorded as
    one tape node whose parents are ``adj`` and ``raw_theta``.

    Gradient conventions: the nonzero counts behind the column scores, the
    positions of the confidence extremes and the position of the gate's peak
    are constants of the forward values, so only the extreme values carry
    gradient. All-equal confidences are a constant 0.5 and pass no gradient
    to the scores. When the threshold tops every coefficient the adjacency
    passes through: ``adj`` gets the upstream gradient unchanged and
    ``raw_theta`` gets 0.
    """
    tape = _same_tape(adj, raw_theta, "differentiable_node_selection")
    A = adj.value
    a_s, inverse_counts = _column_means(A)
    P = relaxed_permutation(a_s, tau)
    exp2_P = np.exp2(P)
    raw = _discounted_gain(exp2_P)
    ibar = normalize_confidence(raw)
    C = confidence_coefficients(ibar)
    selected, scale, peak = _gate_edges(A, C, raw_theta.value)
    out = Node(selected, (adj, raw_theta), "select", tape)

    def _bw(g):
        if scale is None:
            _accumulate(adj, g)
            _accumulate(raw_theta, np.zeros((1, 1)), owned=True)
            return
        # selected = A * scale, scale = gated / peak, gated = relu(C - theta)
        d_scale = g * A
        d_gated = d_scale / peak
        d_gated.flat[np.argmax(scale)] -= np.vdot(d_scale, scale) / peak
        d_gated *= scale > 0.0
        theta = _sigmoid_array(raw_theta.value)
        _accumulate(raw_theta, -d_gated.sum() * theta * (1.0 - theta), owned=True)
        grad_adj = g * scale
        spread = raw.max() - raw.min()
        if spread != 0.0:
            # C = (ibar_i + ibar_j) / 2, ibar = (raw - lo) / (hi - lo)
            d_ibar = 0.5 * (d_gated.sum(axis=1) + d_gated.sum(axis=0))
            d_raw = d_ibar / spread
            d_spread = -np.dot(d_ibar, ibar[0]) / spread
            d_low = -d_raw.sum() - d_spread
            d_raw[np.argmax(raw)] += d_spread
            d_raw[np.argmin(raw)] += d_low
            # raw_i = sum_j (2^P_ij - 1) d_j, P = softmax(logits)
            d_P = exp2_P * np.outer(d_raw, _discounts(A.shape[0]) * _LOG2)
            d_logits = _softmax_rows_grad(P, d_P)
            # logits_ij = (rank_i a_j - gap_sum_j) / tau
            d_scores = _ranks(A.shape[0])[:, 0] @ d_logits
            d_scores += _gap_sum_grad(a_s[0], -d_logits.sum(axis=0))
            d_scores /= tau
            grad_adj += d_scores * inverse_counts
        _accumulate(adj, grad_adj, owned=True)

    out._backward = _bw
    return SelectionResult(a_s, P, ibar, C, out)


def hard_topk_baseline(A: np.ndarray, k: int) -> np.ndarray:
    """Keep the k largest entries of each row, zeroing the rest.

    Ties break toward the lower column index, as in a stable sort of the
    negated row (``graphs._smallest_k_mask``). Rows are treated independently,
    so the result is generally asymmetric; this exists only as a
    non-differentiable reference for comparison runs. NaN entries are refused.
    """
    _, n = A.shape
    if not 1 <= k <= n:
        raise ParameterError(f"k must satisfy 1 <= k <= {n}, got {k}")
    if np.isnan(A).any():
        raise DomainError("adjacency contains NaN entries")
    keep = _smallest_k_mask(-A, k)
    out = np.zeros_like(A)
    out[keep] = A[keep]
    return out
