"""Shared helper: compare a tape's analytic gradients against central finite
differences."""

import numpy as np

from mvgcn.autodiff import Tape, as_matrix
from mvgcn.errors import DomainError, ParameterError, ShapeError


def finite_difference_check(build, params, step: float = 1e-6) -> float:
    """Compare analytic gradients of a scalar function against central differences.

    ``build(tape, leaves)`` must construct and return a 1x1 loss node from the
    given leaf nodes; it is called repeatedly with perturbed copies of
    ``params`` and must be deterministic. Returns the maximum over all
    parameter entries of ``|analytic - numeric| / max(1, |numeric|)``.
    """
    if step <= 0:
        raise ParameterError(f"step must be positive, got {step}")
    params = [as_matrix(p) for p in params]

    def evaluate(arrays):
        tape = Tape()
        leaves = [tape.leaf(arr) for arr in arrays]
        loss = build(tape, leaves)
        if loss.value.shape != (1, 1):
            raise ShapeError(f"loss must be 1x1, got shape {loss.value.shape}")
        if not np.isfinite(loss.value[0, 0]):
            raise DomainError("function value is not finite")
        return tape, leaves, loss

    tape, leaves, loss = evaluate(params)
    tape.backward(loss)
    analytic = [leaf.grad.copy() for leaf in leaves]

    worst = 0.0
    for pi, base in enumerate(params):
        it = np.nditer(base, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            plus = [p.copy() for p in params]
            plus[pi][idx] += step
            minus = [p.copy() for p in params]
            minus[pi][idx] -= step
            f_plus = float(evaluate(plus)[2].value[0, 0])
            f_minus = float(evaluate(minus)[2].value[0, 0])
            numeric = (f_plus - f_minus) / (2.0 * step)
            err = abs(analytic[pi][idx] - numeric) / max(1.0, abs(numeric))
            worst = max(worst, err)
    return worst
