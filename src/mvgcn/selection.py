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

The adjacency is a 1 x nnz row of edge values on an ``EdgeSupport`` (see
``fusion``). The column scores count and sum the nonzero edge values of
each column, and the gate scales the edges only; off the support the
adjacency is zero and stays zero. The coefficients and the gate's peak are
still those of all m^2 node pairs: the largest coefficient is
C_ii = ibar_i at the most confident node, so the peak is
max(ibar_max - theta, 0), read off the m confidences.

The stage functions take and return plain arrays.
``differentiable_node_selection`` chains them and records the whole pipeline,
from the adjacency and the raw threshold to the selected adjacency, as one
tape node with a hand-derived backward rule. It runs the gap sums, the
relaxed permutation P, 2^P and the gain over blocks of rows
(``graphs._ROW_BLOCK_ENTRIES``), so it holds no m x m array: each step is
row-local and gives the bits of the m x m formulas. The blocks make at most
two runs (``graphs._row_runs``), the second in the worker thread
(``graphs._in_row_runs``); each run works in its own block-sized scratch
arrays, from the support's ``buffers`` when it has them, and writes only
its own rows. Between the passes the op keeps the m gap sums, the last
block of P (in scratch of its own, which no other step takes) and the
gate's scale on the edges; the backward rule recomputes the other blocks of
P from the scores, so an m that fits in one block recomputes only 2^P.
Each block gives its rank-weighted and plain column sums of the logits'
gradient, and these are added across the blocks in one fixed order, last
block first, whichever run made them. The returned ``SelectionResult``
builds the m x m permutation and edge coefficients only when asked for
them. The hard top-k variant at the
bottom ranks the edges within each CSR row; its m x m counterpart,
``hard_topk_baseline``, is kept as the reference.
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
from .graphs import Buffers, EdgeSupport, _in_row_runs, _row_runs, _smallest_k_mask, _with_scratch

_LOG2 = float(np.log(2.0))


def _column_means(adj: np.ndarray, support: EdgeSupport) -> tuple[np.ndarray, np.ndarray]:
    # the means and the inverse nonzero counts behind them, as 1 x m rows;
    # bincount adds each column's edges in row order, as a sum over axis 0
    # of the m x m array does
    m = support.num_nodes
    counts = np.bincount(support.cols, weights=adj[0] != 0, minlength=m).reshape(1, -1)
    inverse_counts = np.divide(1.0, counts, out=np.zeros_like(counts), where=counts > 0)
    sums = np.bincount(support.cols, weights=adj[0], minlength=m).reshape(1, -1)
    return sums * inverse_counts, inverse_counts


def column_mean_nonzero(adj: np.ndarray, support: EdgeSupport) -> np.ndarray:
    """Mean of the nonzero edge values in each column, as a 1 x m row.

    Columns with no nonzero entries score 0.
    """
    return _column_means(adj, support)[0]


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


def _gap_sums(a: np.ndarray, buffers: Buffers | None = None) -> np.ndarray:
    """sum_j |a[i] - a[j]| for every i, a block of rows at a time in the
    row runs, in scratch from ``buffers`` if given; each sum has the bits of
    ``pairwise_difference(a).sum(axis=1)``."""
    out = np.empty(a.size)

    def run_sums(item):
        run, (scratch,) = item
        for rows in run:
            gaps = np.subtract(a[rows, None], a, out=scratch[: rows.stop - rows.start])
            np.abs(gaps, out=gaps)
            out[rows] = gaps.sum(axis=1)

    _in_row_runs(run_sums, _with_scratch(_row_runs(a.size, a.size), a.size, 1, buffers))
    return out


def _permutation_rows(
    a_s: np.ndarray, gap_sums: np.ndarray, tau: float, rows: slice, out: np.ndarray | None = None
) -> np.ndarray:
    """Rows ``rows`` of ``relaxed_permutation``, from the scores and their
    gap sums, written to ``out`` if given."""
    if tau <= 0:
        raise ParameterError(f"temperature must be positive, got {tau}")
    logits = np.multiply(_ranks(a_s.shape[1])[rows], a_s, out=out)
    logits -= gap_sums
    logits *= 1.0 / tau
    return _softmax_rows_array(logits, out=logits)


def relaxed_permutation(a_s: np.ndarray, tau: float) -> np.ndarray:
    """Temperature-relaxed descending sort of the scores.

    Row i (1-based) is softmax(((m + 1 - 2i) * a_s - delta_sums) / tau), so at
    low temperature row i concentrates on the node with the i-th largest
    score. Every row sums to 1 for any positive temperature.
    """
    return _permutation_rows(a_s, pairwise_difference(a_s).sum(axis=1), tau, slice(None))


def _discounts(m: int) -> np.ndarray:
    # 1 / log2(j + 1) for the 1-based column j
    return 1.0 / np.log2(np.arange(2, m + 2, dtype=float))


def _discounted_gain(exp2_P: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # one gain per row of 2^P, also for a block of its rows, as a 1 x rows
    # row; the terms are written to ``out`` if given (which may be exp2_P)
    terms = np.subtract(exp2_P, 1.0, out=out)
    terms *= _discounts(exp2_P.shape[1])
    return terms.sum(axis=1).reshape(1, -1)


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


def _gate_edges(adj: np.ndarray, ibar: np.ndarray, raw_theta: np.ndarray, support: EdgeSupport):
    """``select_nodes``, also returning the scale relu(C - theta) / peak that
    multiplied the edges, the threshold and the peak; the scale is None when
    the adjacency passes through."""
    _check_row(ibar, "confidences")
    if ibar.shape[1] != support.num_nodes:
        raise ShapeError(f"{ibar.shape[1]} confidences do not match {support.num_nodes} nodes")
    if raw_theta.shape != (1, 1):
        raise ShapeError(f"threshold must be 1x1, got shape {raw_theta.shape}")
    theta = _sigmoid_array(raw_theta)[0, 0]
    # C_ii = (ibar_i + ibar_i) / 2 = ibar_i exactly, and no pair's coefficient
    # exceeds the larger of its two confidences
    peak = max(float(ibar.max() - theta), 0.0)
    if peak == 0.0:
        return adj, None, theta, peak
    C = (ibar[0, support.rows] + ibar[0, support.cols]) * 0.5
    scale = np.maximum(C - theta, 0.0) / peak
    return adj * scale, scale, theta, peak


def select_nodes(
    adj: np.ndarray, ibar: np.ndarray, raw_theta: np.ndarray, support: EdgeSupport
) -> np.ndarray:
    """Gate edges by thresholded confidence.

    An edge (i, j) has the coefficient C_ij = (ibar_i + ibar_j) / 2
    (``confidence_coefficients``), and the threshold is sigmoid(raw_theta).
    Coefficients at or below it zero out; survivors are divided by the
    largest C - theta over all m^2 node pairs, the most confident node's own,
    so its self-loop keeps its full weight. If the threshold tops every
    coefficient the adjacency passes through unchanged rather than
    collapsing to zero.
    """
    return _gate_edges(adj, ibar, raw_theta, support)[0]


def _peak_position(ibar: np.ndarray, theta: float, peak: float) -> tuple[int, int]:
    """Row and column of the first flat argmax of the m x m scale
    relu(C - theta) / peak, from the 1-D confidences in O(m).

    Neither C_ij nor the scale falls as ibar_j grows, so every row peaks at
    the most confident column; the first row that reaches the overall
    maximum holds the first argmax, at its own first maximum.
    """
    row_peaks = np.maximum((ibar + ibar.max()) * 0.5 - theta, 0.0) / peak
    i = int(np.argmax(row_peaks))
    row = np.maximum((ibar[i] + ibar) * 0.5 - theta, 0.0) / peak
    return i, int(np.argmax(row))


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
    """Every stage of the selection pipeline: plain arrays, the temperature,
    and the selected edge values as the one tape node the pipeline records."""

    scores: np.ndarray
    confidence: np.ndarray
    selected: Node
    tau: float

    @property
    def permutation(self) -> np.ndarray:
        """The m x m relaxed permutation, built on each request."""
        return relaxed_permutation(self.scores, self.tau)

    @property
    def coefficients(self) -> np.ndarray:
        """The m x m edge coefficients, built on each request."""
        return confidence_coefficients(self.confidence)


def differentiable_node_selection(
    adj: Node, raw_theta: Node, tau: float, support: EdgeSupport
) -> SelectionResult:
    """Full pipeline from refined edge values to the selected ones, recorded
    as one tape node whose parents are ``adj`` and ``raw_theta``.

    Gradient conventions: the nonzero counts behind the column scores, the
    positions of the confidence extremes and the position of the gate's peak
    are constants of the forward values, so only the extreme values carry
    gradient. All-equal confidences are a constant 0.5 and pass no gradient
    to the scores. When the threshold tops every coefficient the adjacency
    passes through: ``adj`` gets the upstream gradient unchanged and
    ``raw_theta`` gets 0. ``adj`` gets its gradient on the edges only.
    """
    tape = _same_tape(adj, raw_theta, "differentiable_node_selection")
    A = adj.value
    if A.shape != (1, support.nnz):
        raise ShapeError(f"edge values of shape {A.shape} do not match {support.nnz} edges")
    m = support.num_nodes
    a_s, inverse_counts = _column_means(A, support)
    gap_sums = _gap_sums(a_s[0], support.buffers)
    runs = _row_runs(m, m)
    last = runs[-1][-1]
    raw = np.empty((1, m))

    def run_gains(item):
        run, (P_scratch, scratch) = item
        for rows in run:
            n = rows.stop - rows.start
            P_rows = _permutation_rows(a_s, gap_sums, tau, rows, out=P_scratch[:n])
            exp2_P = np.exp2(P_rows, out=scratch[:n])
            raw[:, rows] = _discounted_gain(exp2_P, out=exp2_P)
        return P_rows

    # the last block of P, which the backward rule starts from, in scratch
    # of its own
    P = _in_row_runs(run_gains, _with_scratch(runs, m, 2, support.buffers, "select"))[-1]
    ibar = normalize_confidence(raw)
    selected, scale, theta, peak = _gate_edges(A, ibar, raw_theta.value, support)
    out = Node(selected, (adj, raw_theta), "select", tape)

    def _bw(g):
        if scale is None:
            _accumulate(adj, g)
            _accumulate(raw_theta, np.zeros((1, 1)), owned=True)
            return
        # selected = A * scale, scale = gated / peak, gated = relu(C - theta)
        d_gated = g[0] * A[0]  # the gradient at the scale until divided
        # the peak's own term goes to its position, which may lie off the
        # support; there d_gated is otherwise 0 and the scale is 1, so the
        # term enters that row's and that column's sums and the total as is
        peak_term = np.vdot(d_gated, scale) / peak
        d_gated /= peak
        i, j = _peak_position(ibar[0], theta, peak)
        e = int(np.searchsorted(support.flat, i * m + j))
        on_support = e < support.nnz and support.flat[e] == i * m + j
        if on_support:
            d_gated[e] -= peak_term
        d_gated *= scale > 0.0
        off_support = 0.0 if on_support else peak_term
        d_theta = -(d_gated.sum() - off_support) * theta * (1.0 - theta)
        _accumulate(raw_theta, np.array([[d_theta]]), owned=True)
        spread = raw.max() - raw.min()
        if spread == 0.0:
            _accumulate(adj, g * scale, owned=True)
            return
        row_sums = np.bincount(support.rows, weights=d_gated, minlength=m)
        col_sums = np.bincount(support.cols, weights=d_gated, minlength=m)
        del d_gated
        row_sums[i] -= off_support
        col_sums[j] -= off_support
        # C = (ibar_i + ibar_j) / 2, ibar = (raw - lo) / (hi - lo)
        d_ibar = 0.5 * (row_sums + col_sums)
        d_raw = d_ibar / spread
        d_spread = -np.dot(d_ibar, ibar[0]) / spread
        d_low = -d_raw.sum() - d_spread
        d_raw[np.argmax(raw)] += d_spread
        d_raw[np.argmin(raw)] += d_low
        # raw_i = sum_j (2^P_ij - 1) d_j, P = softmax(logits), and
        # logits_ij = (rank_i a_j - gap_sum_j) / tau; the rank-weighted
        # and the plain column sums of d_logits add across the blocks
        ranks = _ranks(m)[:, 0]
        weights = _discounts(m) * _LOG2

        def run_sums(item):
            run, (P_scratch, d_P, scratch) = item
            sums = []
            for rows in run:
                n = rows.stop - rows.start
                if rows == last:
                    # the forward's block, kept intact for another sweep
                    P_rows = P
                else:
                    P_rows = _permutation_rows(a_s, gap_sums, tau, rows, out=P_scratch[:n])
                d_P_rows = np.outer(d_raw[rows], weights, out=d_P[:n])
                d_P_rows *= np.exp2(P_rows, out=scratch[:n])
                d_logits = _softmax_rows_grad(P_rows, d_P_rows, out=scratch[:n])
                sums.append((ranks[rows] @ d_logits, d_logits.sum(axis=0)))
            return sums

        per_run = _in_row_runs(run_sums, _with_scratch(runs, m, 3, support.buffers))
        *block_sums, (d_scores, d_gaps) = [b for sums in per_run for b in sums]
        for rank_sums, sums in reversed(block_sums):
            d_scores += rank_sums
            d_gaps += sums
        d_scores += _gap_sum_grad(a_s[0], -d_gaps)
        d_scores /= tau
        grad_adj = g * scale
        grad_adj += (d_scores * inverse_counts[0])[support.cols]
        _accumulate(adj, grad_adj, owned=True)

    out._backward = _bw
    return SelectionResult(a_s, ibar, out, tau)


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


def hard_topk_edges(edges: np.ndarray, k: int, support: EdgeSupport) -> np.ndarray:
    """``hard_topk_baseline`` of the adjacency holding the 1 x nnz ``edges``
    on ``support``, as edge values, ranked within each CSR row.

    Each row keeps its k largest edge values, ties to the lower column. The
    values must be non-negative (and not -0.0): then no entry off the
    support, all of them 0, outranks an edge, and where the m x m routine
    keeps an off-support zero in place of an edge at 0 both give 0, so the
    kept values match it bit for bit. NaN entries are refused.
    """
    m = support.num_nodes
    if not 1 <= k <= m:
        raise ParameterError(f"k must satisfy 1 <= k <= {m}, got {k}")
    values = edges[0]
    if np.isnan(values).any():
        raise DomainError("adjacency contains NaN entries")
    order = np.lexsort((support.cols, -values, support.rows))
    # rows ascend along the order, so position p holds rank p - indptr[row]
    # within its row
    keep = order[np.arange(support.nnz) - support.indptr[support.rows] < k]
    out = np.zeros_like(edges)
    out[0, keep] = values[keep]
    return out
