"""Shrinkage refinement of the fused adjacency.

Two trainable square matrices produce the antisymmetric score
S1 S2^T - S2 S1^T; its absolute value passes through a sigmoid with slope
gamma and gates the fused adjacency entrywise. The score comes from one
matrix product: with P = S1 S2^T it is P - P^T, which is antisymmetric in
floating point too. Its diagonal is therefore exactly zero and the mask
diagonal exactly 0.5, and the mask (and hence the refined adjacency of a
symmetric input) is exactly symmetric.

The fused adjacency is a 1 x nnz row of edge values on an ``EdgeSupport``
(see ``fusion``), and so is the refined one: the gate only scales entries,
so it is zero wherever the fused graph is. The score and the mask are
computed at the edges only, from the product P gathered there and at the
twin edges. P is taken in the row runs of ``graphs._row_runs``, one
S1[rows] S2^T product per run, the second run in the worker thread
(``graphs._in_row_runs``); each run gathers its own rows' edges. A run's
product has the bits of the same rows of the whole product at m=400 and
m=800, and within a few ulps elsewhere (a BLAS kernel may sum a row
differently in a product with other rows).

``refine_graph`` records the stage as one tape node, ``refine``, whose
parents are the fused edge values, S1 and S2, with a hand-derived backward
rule. With D the upstream gradient carried back to the score, the gradient
at P is dP = D - D^T, because P enters the score once as itself and once
transposed with a minus sign; dP is therefore exactly antisymmetric. D has
the fused adjacency as a factor, so dP lives on the support: the rule reads
D^T at the twin edges and takes S1's gradient dP S2 and S2's gradient
(S1^T dP)^T = dP^T S1 = -(dP S1) as CSR x dense products, each block of
a run's rows multiplying the CSR of its own rows of dP into its own rows of
the two gradients; a product row depends on that row of dP only, so the
gradients do not depend on the runs or the blocks. The fused graph
gets g * mask on its edges. Its gradient is taken on its sparsity pattern,
a constant of the forward values like the nonzero counts in node
selection; the views are zero off the support, so the fusion weights get
the gradient an m x m layout would give them, up to the order of summation.

The op's m x m arrays are the two gradients; the run products of the
forward pass take the rows of S1's gradient, which the backward rule writes
only after they are gathered. On a support with ``buffers`` both come from
there, so a training run allocates them once; otherwise each pass
allocates its own.
"""

import numpy as np

from .autodiff import Node, _accumulate, _same_tape
from .errors import ParameterError, ShapeError
from .graphs import EdgeSupport, _in_row_runs, _row_runs, _span, _work_array


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


def refine_graph(fused: Node, S1: Node, S2: Node, gamma: float, support: EdgeSupport) -> Node:
    """Entrywise product of the fused edge values with their shrinkage
    mask, recorded as one tape node whose parents are ``fused``, ``S1`` and
    ``S2``.

    The subgradient of the absolute value at a zero score is 0.
    """
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    tape = _same_tape(fused, S1, "refine_graph")
    _same_tape(fused, S2, "refine_graph")
    m = support.num_nodes
    if fused.value.shape != (1, support.nnz):
        raise ShapeError(
            f"fused edge values of shape {fused.value.shape} do not match {support.nnz} edges"
        )
    for name, p in (("S1", S1), ("S2", S2)):
        if p.value.shape != (m, m):
            raise ShapeError(f"{name} shape {p.value.shape} does not match {m} nodes")
    runs = _row_runs(m, m)
    # the run products take the rows of S1's gradient buffer, which the
    # backward rule writes only after they are gathered
    products = _work_array(support.buffers, "S1 gradient", m, m)
    # S2 S1^T is (S1 S2^T)^T: P gives the score, exactly antisymmetric
    P = np.empty(support.nnz)

    def gather_products(item):
        rows, products = item
        edges = support.edge_range(rows)
        np.matmul(S1.value[rows], S2.value.T, out=products)
        products.take(support.flat[edges] - rows.start * m, out=P[edges])

    _in_row_runs(gather_products, [(rows, products[rows]) for rows in map(_span, runs)])
    score = P - P[support.twin]
    del P, products
    mask = _shrinkage_mask(score, gamma)
    out = Node(fused.value * mask, (fused, S1, S2), "refine", tape)

    def _bw(g):
        _accumulate(fused, g * mask, owned=True)
        D = _score_gradient(g[0], fused.value[0], mask, score, gamma)
        dP = D - D[support.twin]
        del D
        S1_term = _work_array(support.buffers, "S1 gradient", m, m)
        S2_term = _work_array(support.buffers, "S2 gradient", m, m)

        def row_products(run):
            # a block at a time, so that each product's temporary is one
            # block in size
            for rows in run:
                dP_rows = support.csr(dP, rows)
                S1_term[rows] = dP_rows @ S2.value
                # dP is antisymmetric, so (S1^T dP)^T = dP^T S1 = -(dP S1)
                np.negative(dP_rows @ S1.value, out=S2_term[rows])

        _in_row_runs(row_products, runs)
        _accumulate(S1, S1_term, owned=True)
        _accumulate(S2, S2_term, owned=True)

    out._backward = _bw
    return out
