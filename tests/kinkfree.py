"""Shared helper: measure how far a model evaluation point sits from the
nearest kink or tie, so finite-difference probes stay on one smooth branch.

Kink sources in the pipeline: the absolute value inside the shrinkage mask,
the stop-gradient min/max picks of the confidence normalization, the ReLU
against the selection threshold, and the ReLU between the two convolution
layers. Ties in the column scores would make the relaxed permutation's
argmax unstable under perturbation.
"""

import numpy as np

from mvgcn.autodiff import Tape
from mvgcn.fusion import edge_support
from mvgcn.model import forward

import oracles


def smoothness_margin(graphs, features, state, gamma, tau):
    """Smallest distance to any kink or tie at this evaluation point."""
    support = edge_support(graphs)
    tape = Tape()
    leaves = {name: tape.leaf(p) for name, p in state.params.items()}
    fwd = forward(tape, leaves, support, features, gamma=gamma, tau=tau)
    margins = []
    # the score is computed on the edges only; its diagonal is exactly 0
    # whatever the perturbation, so it is no kink
    M = state.params["S1"] @ state.params["S2"].T - state.params["S2"] @ state.params["S1"].T
    off = support.rows != support.cols
    margins.append(np.min(np.abs(M.take(support.flat[off])), initial=np.inf))
    scores = fwd.selection.scores[0]
    gaps = np.abs(np.subtract.outer(scores, scores))
    margins.append(np.min(gaps[~np.eye(len(scores), dtype=bool)]))
    # raw gains must be pairwise separated so the min/max picks are stable
    raw_gain = np.sort(oracles.dcg_scores(fwd.selection.permutation.tolist()))
    margins.append(np.min(np.diff(raw_gain)))
    theta = 1.0 / (1.0 + np.exp(-state.params["raw_theta"][0, 0]))
    margins.append(np.min(np.abs(fwd.selection.coefficients - theta)))
    # rows the gate switched off entirely are constant zeros, not kinks;
    # only live rows can produce accidental near-zero pre-activations
    A = support.densify(fwd.adjacency.value)
    live = np.any(A != 0, axis=1)
    pre = (A @ features @ state.params["W1"])[live]
    margins.append(np.min(np.abs(pre)) if pre.size else np.inf)
    return min(margins)
