"""Shrinkage refinement of the fused adjacency.

Two trainable square matrices produce the antisymmetric score
S1 S2^T - S2 S1^T; its absolute value passes through a sigmoid with slope
gamma and gates the fused adjacency entrywise. The score comes from one
matrix product: with P = S1 S2^T it is P - P^T, which is antisymmetric in
floating point too. Its diagonal is therefore exactly zero and the mask
diagonal exactly 0.5, and the mask (and hence the refined adjacency of a
symmetric input) is exactly symmetric.
"""

import numpy as np

from . import autodiff as ad
from .autodiff import Node
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
    """Entrywise product of the fused adjacency with its shrinkage mask."""
    if gamma <= 0:
        raise ParameterError(f"gamma must be positive, got {gamma}")
    m = fused.value.shape[0]
    for name, p in (("S1", S1), ("S2", S2)):
        if p.value.shape != (m, m):
            raise ShapeError(
                f"{name} shape {p.value.shape} does not match adjacency {fused.value.shape}"
            )
    # S2 S1^T is (S1 S2^T)^T: one product gives the score, exactly antisymmetric
    P = ad.matmul(S1, ad.transpose(S2))
    score = ad.sub(P, ad.transpose(P))
    mask = ad.sigmoid(ad.scalar_mul(ad.absval(score), gamma))
    return ad.mul(fused, mask)
