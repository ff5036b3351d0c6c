"""Dense-matrix reverse-mode automatic differentiation.

Values are 2-D float64 numpy arrays throughout; vectors are represented as
1xN or Nx1 matrices. Forward values are computed eagerly and every operation
appends a node to a :class:`Tape`; calling ``tape.backward(loss)`` on a 1x1
loss node fills in ``node.grad`` for everything on the tape, and
``tape.release()`` then frees the tape without waiting for the cyclic
collector. A :class:`NoGradTape` computes the same values and records
nothing, for forward passes that need no gradient.

A leaf (``Tape.leaf``) is a read-only view of its input, not a copy: the
tape reads the array itself, in the forward pass and again in the backward
sweep, so the caller must not write it until the sweep has ended (a
training step updates its parameters only after ``backward`` returns).

The module holds the generic ops the model records: the matrix product,
``div``, ``log``, ``maximum``/``relu``, ``softmax_rows`` and the reductions
``col_sum``, ``sum_all``, ``masked_sum`` and ``weighted_sum``. Fusion,
refinement, selection and the GCN's adjacency products are ops of their own
modules, built on the same ``Node`` and ``_accumulate``.

A gradient array is created during ``backward``, when the first contribution
reaches its node, and later ones are added to it. A first contribution that
its backward rule has just allocated, or written into a work buffer that
nothing writes again before the next forward pass on the same edge support
(``graphs.EdgeSupport.buffers``), becomes the gradient as is; any other (an
upstream gradient passed on unchanged, or a view of one) is copied, so no
two nodes share a gradient buffer and no gradient shares memory with a
node's value. A node that no contribution reaches gets zeros when the sweep
passes it.

``div`` takes operands of identical shape, or lets one side be 1x1
(broadcast as a scalar); no other op broadcasts. The subgradient at the
kink of ``maximum`` and ``relu`` is 0.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, ShapeError

__all__ = [
    "Node",
    "Tape",
    "NoGradTape",
    "matmul",
    "div",
    "relu",
    "maximum",
    "log",
    "softmax_rows",
    "col_sum",
    "sum_all",
    "masked_sum",
    "weighted_sum",
]


def as_matrix(value) -> np.ndarray:
    """Coerce ``value`` to a 2-D float64 array; scalars become 1x1."""
    arr = np.asarray(value, dtype=np.float64)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
    if arr.ndim != 2:
        raise ShapeError(f"expected a 2-D matrix, got array of shape {arr.shape}")
    return np.ascontiguousarray(arr)


class Node:
    """One value on the tape: a matrix, its gradient, and its backward rule."""

    __slots__ = ("value", "grad", "parents", "op", "tape", "_rule")

    def __init__(self, value: np.ndarray, parents: tuple, op: str, tape: "Tape"):
        self.value = value
        self.grad = None  # created by Tape.backward on the first contribution
        self.parents = parents if tape.record else ()
        self.op = op
        self.tape = tape
        self._rule = None
        if tape.record:
            tape._append(self)

    @property
    def _backward(self):
        return self._rule

    @_backward.setter
    def _backward(self, rule):
        # the rule closes over the parents; a tape that records nothing
        # drops it so that each parent is freed once it is no longer used
        if self.tape.record:
            self._rule = rule

    def __repr__(self):
        return f"Node(op={self.op!r}, shape={self.value.shape})"


class Tape:
    """Ordered record of nodes; reverse iteration visits consumers first."""

    record = True

    def __init__(self):
        self.nodes: list[Node] = []

    def _append(self, node: Node):
        self.nodes.append(node)

    def leaf(self, value) -> Node:
        """Create an input node (parameter or constant) over ``value``.

        The node's value is a read-only view of ``value`` when that is a
        C-ordered 2-D float64 array, and of a converted copy otherwise. The
        caller must not write ``value`` before the backward sweep that uses
        the node has ended: the forward values already computed from it,
        and the sweep's gradients, would no longer match it.
        """
        arr = as_matrix(value)
        if not np.all(np.isfinite(arr)):
            raise DomainError("leaf value contains non-finite entries")
        view = arr.view()
        view.flags.writeable = False
        return Node(view, (), "leaf", self)

    def backward(self, loss: Node) -> dict:
        """Reverse sweep from a 1x1 ``loss`` node.

        Fills ``node.grad`` with d(loss)/d(node) for every node on the tape
        (zero for nodes the loss does not depend on) and returns a map from
        each leaf node to its gradient array.
        """
        if not self.record:
            raise ValueError("a NoGradTape records nothing to differentiate")
        if loss.tape is not self:
            raise ValueError("loss node belongs to a different tape")
        if loss.value.shape != (1, 1):
            raise ShapeError(f"loss must be 1x1, got shape {loss.value.shape}")
        for node in self.nodes:
            node.grad = None
        loss.grad = np.ones((1, 1))
        for node in reversed(self.nodes):
            if node.grad is None:
                # nothing downstream reached it, so its rule would add zeros
                node.grad = np.zeros_like(node.value)
            elif node._backward is not None:
                node._backward(node.grad)
        return {node: node.grad for node in self.nodes if not node.parents}

    def release(self) -> None:
        """Drop every node's backward rule, gradient and parents, and empty
        the tape.

        Each backward rule is a closure over its output node, and every node
        points at its tape, so a finished tape is a reference cycle that only
        the cyclic collector frees, at moments set by unrelated allocations.
        Breaking the links frees the arrays as soon as the caller drops its
        last reference to them, and a node the caller keeps (the loss, say)
        no longer reaches the values of the nodes it was computed from. Node
        values stay readable.
        """
        for node in self.nodes:
            node._backward = None
            node.grad = None
            node.parents = ()
        self.nodes.clear()


class NoGradTape(Tape):
    """A tape for forward passes that need no gradient. It records no nodes,
    and its nodes keep neither parents nor backward rules, so every
    intermediate value is freed as soon as nothing downstream holds it."""

    record = False


def _same_tape(a: Node, b: Node, op: str) -> Tape:
    if a.tape is not b.tape:
        raise ValueError(f"{op}: operands belong to different tapes")
    return a.tape


def _accumulate(parent: Node, term: np.ndarray, owned: bool = False):
    """Add ``term`` to ``parent.grad``, creating the gradient on first write.

    ``owned=True`` says the caller allocated ``term`` for this call and keeps
    no other reference to it, or took it from a work buffer that nothing
    writes again before the next forward pass, so a C-ordered term becomes
    the gradient as is.
    Any other first term is copied, in C order even for a transposed view:
    the elementwise Adam update runs about a third slower on a
    Fortran-ordered gradient.
    """
    # Scalar (1x1) operands collect the sum of the broadcast contributions.
    if parent.value.shape != term.shape:
        term = np.array([[term.sum()]])
        owned = True
    if parent.grad is not None:
        parent.grad += term
    elif owned and term.flags.c_contiguous:
        parent.grad = term
    else:
        parent.grad = np.array(term, order="C")


# ---------------------------------------------------------------------------
# binary ops
# ---------------------------------------------------------------------------


def div(a: Node, b: Node) -> Node:
    tape = _same_tape(a, b, "div")
    if a.value.shape != b.value.shape and (1, 1) not in (a.value.shape, b.value.shape):
        raise ShapeError(f"div: shapes {a.value.shape} and {b.value.shape} do not conform")
    if np.any(b.value == 0.0):
        raise DomainError("div: divisor contains zero entries")
    out = Node(a.value / b.value, (a, b), "div", tape)

    def _bw(g):
        _accumulate(a, g / b.value, owned=True)
        _accumulate(b, -g * a.value / (b.value * b.value), owned=True)

    out._backward = _bw
    return out


def matmul(a: Node, b: Node) -> Node:
    tape = _same_tape(a, b, "matmul")
    if a.value.shape[1] != b.value.shape[0]:
        raise ShapeError(
            f"matmul: shapes {a.value.shape} and {b.value.shape} do not conform"
        )
    out = Node(a.value @ b.value, (a, b), "matmul", tape)

    def _bw(g):
        _accumulate(a, g @ b.value.T, owned=True)
        _accumulate(b, a.value.T @ g, owned=True)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# unary elementwise and row-wise
# ---------------------------------------------------------------------------


def relu(a: Node) -> Node:
    return maximum(a, 0.0, _op="relu")


def maximum(a: Node, c: float, _op: str = "maximum") -> Node:
    """Elementwise max with a constant; subgradient at the kink is 0."""
    c = float(c)
    out = Node(np.maximum(a.value, c), (a,), _op, a.tape)
    mask = a.value > c

    def _bw(g):
        _accumulate(a, g * mask, owned=True)

    out._backward = _bw
    return out


def log(a: Node) -> Node:
    if np.any(a.value <= 0.0):
        raise DomainError("log: input contains non-positive entries")
    out = Node(np.log(a.value), (a,), "log", a.tape)

    def _bw(g):
        _accumulate(a, g / a.value, owned=True)

    out._backward = _bw
    return out


def _sigmoid_array(x: np.ndarray) -> np.ndarray:
    # Stable in both tails: exp of a non-positive argument only.
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _softmax_rows_array(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Row softmax of ``x``, written to ``out`` if given (which may be ``x``)."""
    # Per-row max subtraction keeps exp arguments non-positive.
    e = np.subtract(x, x.max(axis=1, keepdims=True), out=out)
    np.exp(e, out=e)
    e /= e.sum(axis=1, keepdims=True)
    return e


def _softmax_rows_grad(s: np.ndarray, g: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Gradient at the input of a row softmax with output ``s``, given ``g``
    at its output: s * (g - rowsum(g * s)), written to ``out`` if given
    (which must not be ``g``)."""
    out = np.multiply(g, s, out=out)
    np.subtract(g, out.sum(axis=1, keepdims=True), out=out)
    out *= s
    return out


def softmax_rows(a: Node) -> Node:
    s = _softmax_rows_array(a.value)
    out = Node(s, (a,), "softmax_rows", a.tape)

    def _bw(g):
        _accumulate(a, _softmax_rows_grad(s, g), owned=True)

    out._backward = _bw
    return out


# ---------------------------------------------------------------------------
# reductions
# ---------------------------------------------------------------------------


def col_sum(a: Node) -> Node:
    """Sum along each column: (m, n) -> (1, n)."""
    out = Node(a.value.sum(axis=0, keepdims=True), (a,), "col_sum", a.tape)

    def _bw(g):
        _accumulate(a, np.broadcast_to(g, a.value.shape))

    out._backward = _bw
    return out


def sum_all(a: Node) -> Node:
    out = Node(np.array([[a.value.sum()]]), (a,), "sum_all", a.tape)

    def _bw(g):
        _accumulate(a, np.broadcast_to(g, a.value.shape))

    out._backward = _bw
    return out


def masked_sum(a: Node, mask) -> Node:
    """Weighted sum of the entries selected (and scaled) by a fixed mask."""
    marr = as_matrix(mask)
    if marr.shape != a.value.shape:
        raise ShapeError(
            f"masked_sum: shapes {a.value.shape} and {marr.shape} do not conform"
        )
    out = Node(np.array([[(a.value * marr).sum()]]), (a,), "masked_sum", a.tape)

    def _bw(g):
        _accumulate(a, marr * g[0, 0], owned=True)

    out._backward = _bw
    return out


def weighted_sum(c: Node, mats) -> Node:
    """Fixed matrices mixed by a 1xK coefficient row: sum_i c[0, i] * mats[i]."""
    consts = [as_matrix(x) for x in mats]
    if not consts or c.value.shape != (1, len(consts)):
        raise ShapeError(
            f"weighted_sum: coefficients of shape {c.value.shape} do not match "
            f"{len(consts)} matrices"
        )
    if any(x.shape != consts[0].shape for x in consts):
        raise ShapeError(
            f"weighted_sum: matrix shapes {[x.shape for x in consts]} do not conform"
        )
    acc = c.value[0, 0] * consts[0]
    for i in range(1, len(consts)):
        acc += c.value[0, i] * consts[i]
    out = Node(acc, (c,), "weighted_sum", c.tape)

    def _bw(g):
        _accumulate(c, np.array([[np.vdot(x, g) for x in consts]]), owned=True)

    out._backward = _bw
    return out
