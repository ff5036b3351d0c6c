"""Shrinkage refinement of the fused adjacency.

Two trainable square matrices produce the antisymmetric score
S1 S2^T - S2 S1^T; its absolute value passes through a sigmoid with slope
gamma and gates the fused adjacency entrywise. The score comes from one
matrix product: with P = S1 S2^T it is P - P^T, which is antisymmetric in
floating point too. Its diagonal is therefore exactly zero and the mask
diagonal exactly 0.5, and the mask (and hence the refined adjacency of a
symmetric input) is exactly symmetric.

``refine_graph`` records the stage as one tape node, ``refine``, whose
parents are the fused adjacency, S1 and S2, with a hand-derived backward
rule. With D the upstream gradient carried back to the score, the gradient
at P is dP = D - D^T, because P enters the score once as itself and once
transposed with a minus sign; dP is therefore exactly antisymmetric. S1
then gets dP S2 and S2 gets (S1^T dP)^T = dP^T S1 = -(dP S1).

D has the fused adjacency as a factor, so dP is zero off the symmetric
support of ``fused`` (the entries where it or its transpose is nonzero).
The op picks one of two layouts from that support's density:

- Dense, when the support holds more than a tenth of the m^2 entries: the
  mask and the score are m x m arrays, kept for the backward rule, which
  takes dense products for the S1 and S2 terms.
- Support, otherwise: the score and the mask are computed at the support
  entries only, and the refined adjacency is zero elsewhere. The rule keeps
  nnz-long vectors (row and column indices, mask, score), forms dP on the
  support and takes both terms as CSR x dense products. The dense product
  P = S1 S2^T stays in the forward pass.

Both layouts give the same refined adjacency and the same dP, bit for bit;
the sparse products add in another order, so the S1 and S2 gradients agree
to rounding. The gradient to ``fused`` is taken on its sparsity pattern,
which is a constant of the forward values, like the nonzero counts in node
selection: the support layout gives 0 off the support, where the dense one
gives g * mask. The model's views are nonnegative and fused with positive
coefficients, so each view is zero off the support and the fusion weights
get the same gradient from either.
"""

import numpy as np
from scipy.sparse import csr_array

from .autodiff import Node, _accumulate, _same_tape
from .errors import ParameterError, ShapeError

# Largest support density that takes the support layout. Measured per
# forward + backward on the fused k=10 KNN graphs of synthetic data (2 vCPUs,
# one BLAS thread), dense against support: m=200 (density 13.7%) 2.8 against
# 3.0 ms, m=300 (10.4%) 8.4 against 7.6 ms, m=400 (8.2%) 16.6 against 11.0 ms.
SUPPORT_DENSITY_MAX = 0.1


def init_glm_params(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform init scaled by 1/sqrt(m), keeping the initial mask near 0.5."""
    if m < 1:
        raise ParameterError(f"node count must be positive, got {m}")
    bound = 1.0 / np.sqrt(m)
    S1 = rng.uniform(-bound, bound, size=(m, m))
    S2 = rng.uniform(-bound, bound, size=(m, m))
    return S1, S2


def _shrinkage_mask(score: np.ndarray, gamma: float) -> np.ndarray:
    """sigmoid(gamma |score|) = 1 / (1 + exp(-gamma |score|)) in one buffer.

    The argument is never negative, so this is the stable sigmoid's
    branch, bit for bit.
    """
    mask = np.abs(score)
    mask *= gamma
    np.negative(mask, out=mask)
    np.exp(mask, out=mask)
    mask += 1.0
    np.divide(1.0, mask, out=mask)
    return mask


def _score_gradient(g, fused, mask, score, gamma) -> np.ndarray:
    """D = g * fused * mask * (1 - mask) * gamma * sign(score), in that order."""
    D = g * fused
    D *= mask
    D *= 1.0 - mask
    D *= gamma
    D *= np.sign(score)
    return D


def refine_graph(fused: Node, S1: Node, S2: Node, gamma: float) -> Node:
    """Entrywise product of the fused adjacency with its shrinkage mask,
    recorded as one tape node whose parents are ``fused``, ``S1`` and ``S2``.

    The subgradient of the absolute value at a zero score is 0.
    """
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    tape = _same_tape(fused, S1, "refine_graph")
    _same_tape(fused, S2, "refine_graph")
    m = fused.value.shape[0]
    for name, p in (("S1", S1), ("S2", S2)):
        if p.value.shape != (m, m):
            raise ShapeError(
                f"{name} shape {p.value.shape} does not match adjacency {fused.value.shape}"
            )
    # S2 S1^T is (S1 S2^T)^T: one product gives the score, exactly antisymmetric
    P = S1.value @ S2.value.T
    nz = fused.value != 0
    support = nz | nz.T
    del nz
    if np.count_nonzero(support) > SUPPORT_DENSITY_MAX * m * m:
        score = P - P.T
        del P, support
        mask = _shrinkage_mask(score, gamma)
        out = Node(fused.value * mask, (fused, S1, S2), "refine", tape)

        def _bw(g):
            _accumulate(fused, g * mask, owned=True)
            D = _score_gradient(g, fused.value, mask, score, gamma)
            dP = D - D.T
            del D
            _accumulate(S1, dP @ S2.value, owned=True)
            # a transposed view, so _accumulate copies it into C order
            _accumulate(S2, (S1.value.T @ dP).T, owned=True)

        out._backward = _bw
        return out

    # row-major, so the rows come sorted and the columns of each row ascend
    flat = np.flatnonzero(support)
    del support
    rows, cols = np.divmod(flat, m)
    twin = cols * m + rows
    score = P.take(flat) - P.take(twin)
    del P
    mask = _shrinkage_mask(score, gamma)
    value = np.zeros((m, m))
    np.put(value, flat, fused.value.take(flat) * mask)
    out = Node(value, (fused, S1, S2), "refine", tape)

    def _bw(g):
        flat, twin = rows * m + cols, cols * m + rows
        g_flat = g.take(flat)
        term = np.zeros((m, m))
        np.put(term, flat, g_flat * mask)
        _accumulate(fused, term, owned=True)
        # the transposed entry's D: its score is exactly -score (+0.0 stays
        # +0.0 under sign) and its mask is the same
        dP = _score_gradient(g_flat, fused.value.take(flat), mask, score, gamma)
        dP -= _score_gradient(g.take(twin), fused.value.take(twin), mask, -score, gamma)
        indptr = np.searchsorted(rows, np.arange(m + 1))
        dP = csr_array((dP, cols, indptr), shape=(m, m))
        _accumulate(S1, dP @ S2.value, owned=True)
        # dP is antisymmetric, so (S1^T dP)^T = dP^T S1 = -(dP S1)
        S2_term = dP @ S1.value
        np.negative(S2_term, out=S2_term)
        _accumulate(S2, S2_term, owned=True)

    out._backward = _bw
    return out
