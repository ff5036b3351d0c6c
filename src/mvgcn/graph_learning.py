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
rule. The rule keeps two m x m arrays from the forward pass: the mask and
the score, whose sign is the derivative of the absolute value. With D the
upstream gradient carried back to the score, the gradient at P is
dP = D - D^T, because P enters the score once as itself and once
transposed with a minus sign; dP is therefore antisymmetric. S1 then gets
dP S2 and S2 gets (S1^T dP)^T.
"""

import numpy as np

from .autodiff import Node, _accumulate, _same_tape
from .errors import ParameterError, ShapeError


def init_glm_params(m: int, rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform init scaled by 1/sqrt(m), keeping the initial mask near 0.5."""
    if m < 1:
        raise ParameterError(f"node count must be positive, got {m}")
    bound = 1.0 / np.sqrt(m)
    S1 = rng.uniform(-bound, bound, size=(m, m))
    S2 = rng.uniform(-bound, bound, size=(m, m))
    return S1, S2


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
    score = P - P.T
    del P
    # sigmoid(gamma |score|) = 1 / (1 + exp(-gamma |score|)); the argument is
    # never negative, so this is the stable sigmoid's branch, bit for bit
    mask = np.abs(score)
    mask *= gamma
    np.negative(mask, out=mask)
    np.exp(mask, out=mask)
    mask += 1.0
    np.divide(1.0, mask, out=mask)
    out = Node(fused.value * mask, (fused, S1, S2), "refine", tape)

    def _bw(g):
        _accumulate(fused, g * mask, owned=True)
        # D = g * fused * mask * (1 - mask) * gamma * sign(score)
        D = g * fused.value
        D *= mask
        D *= 1.0 - mask
        D *= gamma
        D *= np.sign(score)
        dP = D - D.T
        del D
        _accumulate(S1, dP @ S2.value, owned=True)
        # a transposed view, so _accumulate copies it into C order
        _accumulate(S2, (S1.value.T @ dP).T, owned=True)

    out._backward = _bw
    return out
