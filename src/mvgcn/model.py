"""Graph convolutional classifier over the fused, refined, selected graph.

The forward pass chains fusion, shrinkage refinement, and differentiable
node selection, then applies an L-layer graph convolution (relu between
layers, row softmax at the end) and a cross-entropy loss restricted to the
labeled rows. Training is full batch: one tape per iteration, one Adam step
per tape. A model is a flat name-to-array parameter registry so the
optimizer, the checkpoint format, and the gradient checks all see the same
thing.

The graph passes between the stages as a 1 x nnz row of edge values on
the views' ``EdgeSupport``, built once per ``train`` and once per
``predict`` call: fusion, refinement and selection produce edge values,
and each convolution takes its adjacency product as a CSR x dense product.
Its backward rule gives the dense operand A^T g, also a CSR product, and
the adjacency the sampled product (g B^T) at the edges. So the gradients of
the fused, refined and selected graphs exist on the edges only, the
sparsity pattern being a constant of the forward values.

A checkpoint (format 3) is two files. The header is a small JSON object:
``format``, ``step``, ``config`` and its ``config_hash``, three sections
(``params``, ``first_moment``, ``second_moment``) mapping each parameter
name to its ``[rows, cols]`` shape in payload order, and the payload's
``payload_bytes`` and ``payload_sha256``. The payload, named after the
header (``payload_path``), holds every array's little-endian float64 bytes,
row-major, one after another. The encoding is exact and byte-stable across
reruns, and loading it runs no code. Formats 1 and 2 are refused.
"""

import hashlib
import json
import os
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import autodiff as ad
from .autodiff import NoGradTape, Node, Tape, _accumulate, _same_tape
from .config import DNS_MODES as CONFIG_DNS_MODES
from .errors import DataLoadError, ParameterError, ShapeError, TrainingError
from .fileio import atomic_open
from .fusion import FusionResult, edge_support, fuse_views, init_fusion_weights
from .graph_learning import init_glm_params, refine_graph
from .graphs import Buffers, EdgeSupport, Graph, _in_row_runs, _row_runs, _with_scratch
from .selection import SelectionResult, differentiable_node_selection, hard_topk_edges

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
LOSS_CLAMP = 1e-12
DNS_MODES = CONFIG_DNS_MODES + ("off",)  # "off" is a config with dns=False
CHECKPOINT_FORMAT = 3
CHECKPOINT_SECTIONS = ("params", "first_moment", "second_moment")
PAYLOAD_SUFFIX = ".f64"


@dataclass
class ModelState:
    """Trainable parameters plus Adam moments, keyed by parameter name."""

    params: dict[str, np.ndarray]
    first_moment: dict[str, np.ndarray]
    second_moment: dict[str, np.ndarray]
    step: int = 0


def _glorot(rng: np.random.Generator, n_in: int, n_out: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (n_in + n_out))
    return rng.uniform(-bound, bound, size=(n_in, n_out))


def init_model(
    num_views: int,
    num_nodes: int,
    feature_dim: int,
    hidden: int,
    classes: int,
    rng: np.random.Generator,
    layers: int = 2,
) -> ModelState:
    """Fresh parameters: zero mixing weights and threshold, uniform shrinkage
    factors, Glorot-scaled convolution weights."""
    if layers < 1:
        raise ParameterError(f"layers must be >= 1, got {layers}")
    if min(num_views, num_nodes, feature_dim, hidden, classes) < 1:
        raise ParameterError("all model dimensions must be positive")
    S1, S2 = init_glm_params(num_nodes, rng)
    params = {
        "raw_weights": init_fusion_weights(num_views),
        "S1": S1,
        "S2": S2,
        "raw_theta": np.zeros((1, 1)),
    }
    dims = [feature_dim] + [hidden] * (layers - 1) + [classes]
    for l in range(layers):
        params[f"W{l + 1}"] = _glorot(rng, dims[l], dims[l + 1])
    zeros = {name: np.zeros_like(p) for name, p in params.items()}
    return ModelState(params, zeros, {k: v.copy() for k, v in zeros.items()})


def _propagate(A: Node, B: Node, support: EdgeSupport) -> Node:
    """The product of the edge values ``A`` on ``support`` with a dense
    ``B``, as one CSR x dense product."""
    tape = _same_tape(A, B, "gcn_layer")
    out = Node(support.csr(A.value) @ B.value, (A, B), "spmm", tape)

    def _bw(g):
        _accumulate(A, support.sddmm(g, B.value), owned=True)
        # A^T holds at each edge the value of its twin
        _accumulate(B, support.csr(A.value[0, support.twin]) @ g, owned=True)

    out._backward = _bw
    return out


def gcn_layer(
    A: Node, H: Node, W: Node, support: EdgeSupport, activation: str = "none"
) -> Node:
    """One propagation step: activation(A @ H @ W), with ``A`` the edge
    values of the adjacency on ``support``.

    The adjacency product is taken on the narrower side: A @ (H @ W) when W
    narrows the features, (A @ H) @ W otherwise.
    """
    if A.value.shape != (1, support.nnz):
        raise ShapeError(f"edge values of shape {A.value.shape} do not match {support.nnz} edges")
    d_in, d_out = W.value.shape
    if d_out < d_in:
        out = _propagate(A, ad.matmul(H, W), support)
    else:
        out = ad.matmul(_propagate(A, H, support), W)
    if activation == "relu":
        return ad.relu(out)
    if activation == "softmax-rows":
        return ad.softmax_rows(out)
    if activation == "none":
        return out
    raise ParameterError(f"unknown activation {activation!r}")


@dataclass
class ForwardPass:
    """Every stage of one forward evaluation, still on the tape. The graphs
    are edge values on ``support``."""

    support: EdgeSupport
    fusion: FusionResult
    refined: Node
    selection: SelectionResult | None
    adjacency: Node
    probabilities: Node


def forward(
    tape: Tape,
    leaves: dict[str, Node],
    support: EdgeSupport,
    features: np.ndarray,
    *,
    gamma: float = 1.0,
    tau: float = 0.5,
    use_glm: bool = True,
    dns_mode: str = "soft",
    k: int = 10,
) -> ForwardPass:
    """Run the full pipeline from the per-view graphs' edge support
    (``fusion.edge_support``) to class probabilities.

    The keyword settings are the forward pass's share of a run config (see
    ``experiment.forward_settings``): ``gamma`` sharpens the shrinkage mask,
    ``tau`` is the selection temperature, ``use_glm`` turns refinement on,
    ``dns_mode`` is "soft", "hard-topk" or "off", and ``k`` is the number
    of entries per row the hard top-k baseline keeps.
    """
    if dns_mode not in DNS_MODES:
        raise ParameterError(f"dns_mode must be one of {DNS_MODES}, got {dns_mode!r}")
    fusion = fuse_views(support, leaves["raw_weights"])
    if use_glm:
        refined = refine_graph(fusion.fused, leaves["S1"], leaves["S2"], gamma, support)
    else:
        refined = fusion.fused

    selection = None
    if dns_mode == "soft":
        selection = differentiable_node_selection(refined, leaves["raw_theta"], tau, support)
        adjacency = selection.selected
    elif dns_mode == "hard-topk":
        # non-differentiable baseline: the selected graph is a constant of
        # the current forward values, so no gradient reaches the stages above;
        # the refined values are non-negative, so each CSR row's top k are
        # the dense row's
        adjacency = tape.leaf(hard_topk_edges(refined.value, k, support))
    else:
        adjacency = refined

    # one weight per layer, W1 to WL with no gap
    num_layers = max(1, sum(1 for name in leaves if name.startswith("W")))
    for l in range(1, num_layers + 1):
        if f"W{l}" not in leaves:
            raise ParameterError(f"layer weights must be W1, W2, ... with no gap, but there is no 'W{l}'")
    H = tape.leaf(features)
    for l in range(1, num_layers):
        H = gcn_layer(adjacency, H, leaves[f"W{l}"], support, "relu")
    Z = gcn_layer(adjacency, H, leaves[f"W{num_layers}"], support, "softmax-rows")
    return ForwardPass(support, fusion, refined, selection, adjacency, Z)


def masked_cross_entropy(Z: Node, Y: np.ndarray, labeled) -> Node:
    """Negative log likelihood of the true class over the labeled rows only."""
    idx = np.asarray(labeled, dtype=int)
    if idx.size == 0:
        raise ParameterError("labeled index set is empty")
    m = Z.value.shape[0]
    if idx.min() < 0 or idx.max() >= m:
        raise ParameterError(f"labeled indices out of range for {m} samples")
    if Y.shape != Z.value.shape:
        raise ShapeError(f"label matrix shape {Y.shape} does not match {Z.value.shape}")
    weights = np.zeros_like(Y)
    weights[idx] = -Y[idx]
    # log(max(Z, clamp)) <= 0, so the loss is never below zero. Negated
    # weights, not a negated sum, keep a perfect fit at +0.0 rather than
    # -0.0: its off-class terms are -0.0 * log(z) = +0.0.
    logs = ad.log(ad.maximum(Z, LOSS_CLAMP))
    return ad.masked_sum(logs, weights)


def _adam_rows(p, g, first, second, lr: float, t: int, work) -> bool:
    """One Adam update in place of the rows of ``p`` and its moments that
    a run covers, a block of rows at a time in the run's two block-sized
    scratch arrays (``work``, from ``graphs._with_scratch``); returns
    whether those rows of ``p`` stayed finite."""
    run, scratch = work
    for rows in run:
        # views of the block's rows, written in place
        g_b, m1, m2, p_b = g[rows], first[rows], second[rows], p[rows]
        buf, step = (a[: len(p_b)] for a in scratch)
        np.multiply(g_b, 1 - ADAM_BETA1, out=buf)
        m1 *= ADAM_BETA1
        m1 += buf
        np.multiply(g_b, 1 - ADAM_BETA2, out=buf)
        buf *= g_b
        m2 *= ADAM_BETA2
        m2 += buf
        # p -= lr * (m1 / c1) / (sqrt(m2 / c2) + eps)
        np.divide(m2, 1 - ADAM_BETA2**t, out=buf)
        np.sqrt(buf, out=buf)
        buf += ADAM_EPS
        np.divide(m1, 1 - ADAM_BETA1**t, out=step)
        step *= lr
        step /= buf
        p_b -= step
        if not np.all(np.isfinite(p_b)):
            return False
    return True


def _finite_rows(g, run) -> bool:
    return all(np.isfinite(g[rows]).all() for rows in run)


def adam_step(
    state: ModelState, grads: dict[str, np.ndarray], lr: float, buffers: Buffers | None = None
) -> ModelState:
    """Bias-corrected Adam update for every parameter, in place.

    Each parameter is updated a block of rows at a time
    (``graphs._ROW_BLOCK_ENTRIES``): two scratch arrays the size of one block
    hold the intermediates, and the moments and the parameter are updated
    where they lie. The scratch comes from ``buffers`` if given, so that
    the steps of one training run reuse it, and is fresh otherwise. Each
    operation is one the textbook formula takes, in the same order, so the
    result is the same to the bit. The blocks make at
    most two runs (``graphs._row_runs``), the second in the worker thread
    (``graphs._in_row_runs``), each with its own scratch; every row is
    updated the same way in either run. A gradient is checked for non-finite
    entries in full, in the same runs, before its parameter is written.
    """
    if lr <= 0:
        raise ParameterError(f"learning rate must be positive, got {lr}")
    state.step += 1
    t = state.step
    for name, p in state.params.items():
        if name not in grads:
            raise TrainingError(f"missing gradient for parameter {name!r}")
        g = grads[name]
        runs = _row_runs(*p.shape)
        if not all(_in_row_runs(partial(_finite_rows, g), runs)):
            raise TrainingError(f"non-finite gradient for parameter {name!r}")
        first, second = state.first_moment[name], state.second_moment[name]
        update = partial(_adam_rows, p, g, first, second, lr, t)
        scratch = _with_scratch(runs, p.shape[1], 2, buffers)
        if not all(_in_row_runs(update, scratch)):
            raise TrainingError(f"parameter {name!r} became non-finite at step {t}")
    return state


def evaluate(Z: np.ndarray, labels: np.ndarray, mask) -> float:
    """Fraction of masked samples whose argmax row matches the label.

    Argmax ties resolve to the lowest class index.
    """
    idx = np.asarray(mask, dtype=int)
    if idx.size == 0:
        raise ParameterError("evaluation mask is empty")
    predicted = np.argmax(Z[idx], axis=1)
    return float(np.mean(predicted == np.asarray(labels)[idx]))


def one_hot(labels: np.ndarray, classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=int)
    if labels.size and (labels.min() < 0 or labels.max() >= classes):
        raise ParameterError(f"labels must lie in [0, {classes})")
    Y = np.zeros((labels.shape[0], classes))
    Y[np.arange(labels.shape[0]), labels] = 1.0
    return Y


def _sample_indices(idx, m: int, name: str) -> np.ndarray:
    """``idx`` as an index array, refused unless it is a non-empty 1-D
    array of integers in [0, m)."""
    arr = np.asarray(idx)
    if arr.ndim != 1 or arr.size == 0:
        raise ParameterError(f"{name} must be a non-empty 1-D array of sample indices")
    if arr.dtype.kind not in "iu":
        raise ParameterError(f"{name} must hold integers, got dtype {arr.dtype}")
    if arr.min() < 0 or arr.max() >= m:
        raise ParameterError(f"{name} holds indices outside [0, {m}) for {m} samples")
    return arr.astype(int, copy=False)


@dataclass
class TrainResult:
    state: ModelState
    history: list[tuple[int, float, float, float]]
    probabilities: np.ndarray


def train(
    views: list[Graph],
    features: np.ndarray,
    labels: np.ndarray,
    classes: int,
    labeled_idx,
    *,
    seed: int,
    epochs: int = 300,
    lr: float = 0.1,
    hidden: int = 64,
    layers: int = 2,
    eval_idx=None,
    callback=None,
    **forward_kwargs,
) -> TrainResult:
    """Full-batch training loop.

    ``forward_kwargs`` go to ``forward`` unchanged on every iteration, as
    in ``predict``; an unknown name raises ``TypeError`` before the first
    update. History holds one row per iteration: (iteration, loss, accuracy
    on the labeled rows, accuracy on the evaluation rows), all measured at
    the parameters in force when the iteration started. ``callback``, if
    given, sees (iteration, forward_pass, loss_value, state) at the same
    moment, before the update. It must not write ``state``: the tape's
    parameter leaves are views of ``state.params``, and the backward sweep
    still reads them (``autodiff.Tape.leaf``).

    ``labeled_idx`` and ``eval_idx`` (by default every sample not labeled)
    must each be a non-empty 1-D array of sample indices in range; a bad
    one is refused before the first forward pass.

    A call holds eight m x m arrays: S1, S2, their four Adam moments and
    their two gradients, whose buffers refinement's run products share.
    The gradients and the block scratch of refinement, node selection and
    Adam are allocated in the first iteration and reused in every later one
    (``graphs.Buffers``), and each iteration's gradients are dropped once
    Adam has used them.
    """
    if epochs < 1:
        raise ParameterError(f"epochs must be >= 1, got {epochs}")
    labels = np.asarray(labels, dtype=int)
    m = labels.shape[0]
    labeled_idx = _sample_indices(labeled_idx, m, "labeled_idx")
    if eval_idx is None:
        eval_idx = np.setdiff1d(np.arange(m), labeled_idx)
        if eval_idx.size == 0:
            raise ParameterError("eval_idx defaults to the samples not labeled, but all are labeled")
    eval_idx = _sample_indices(eval_idx, m, "eval_idx")
    Y = one_hot(labels, classes)

    rng = np.random.default_rng(seed)
    state = init_model(
        num_views=len(views),
        num_nodes=labels.shape[0],
        feature_dim=features.shape[1],
        hidden=hidden,
        classes=classes,
        rng=rng,
        layers=layers,
    )

    # work buffers of this call alone, reused in every iteration
    support = replace(edge_support(views), buffers=Buffers())
    history = []
    Z_value = None
    for iteration in range(1, epochs + 1):
        tape = Tape()
        leaves = {name: tape.leaf(p) for name, p in state.params.items()}
        fwd = forward(tape, leaves, support, features, **forward_kwargs)
        loss = masked_cross_entropy(fwd.probabilities, Y, labeled_idx)
        loss_value = float(loss.value[0, 0])
        if not np.isfinite(loss_value):
            raise TrainingError(f"loss is not finite at iteration {iteration}")
        if callback is not None:
            callback(iteration, fwd, loss_value, state)
        Z_value = fwd.probabilities.value.copy()
        tape.backward(loss)
        # the leaves are views of state.params, which Adam writes only now
        adam_step(state, {name: leaf.grad for name, leaf in leaves.items()}, lr, support.buffers)
        tape.release()
        history.append(
            (
                iteration,
                loss_value,
                evaluate(Z_value, labels, labeled_idx),
                evaluate(Z_value, labels, eval_idx),
            )
        )
    return TrainResult(state, history, Z_value)


def predict(
    state: ModelState,
    views: list[Graph],
    features: np.ndarray,
    **forward_kwargs,
) -> np.ndarray:
    """Class probabilities under the given parameters, off the training loop.

    The parameter leaves are views of ``state.params``, so the call holds
    no copy of S1 or S2; refinement's run products are its one m x m array.
    """
    tape = NoGradTape()
    leaves = {name: tape.leaf(p) for name, p in state.params.items()}
    support = edge_support(views)
    return forward(tape, leaves, support, features, **forward_kwargs).probabilities.value


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------


def config_digest(config: dict) -> str:
    """Stable hash of a JSON-serializable config mapping."""
    canonical = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def payload_path(path) -> Path:
    """The payload file of the checkpoint header at ``path``: the header's
    name with the suffix ``.f64`` (``checkpoint.json`` -> ``checkpoint.f64``).
    It is derived, never read from the header, so a header cannot point
    at another file."""
    return Path(path).with_suffix(PAYLOAD_SUFFIX)


def save_checkpoint(path, state: ModelState, config: dict) -> None:
    """Write the header to ``path`` and the payload to ``payload_path(path)``.

    Both go to temporaries first. The payload moves into place before the
    header, so a failure before the moves leaves the previous checkpoint
    loadable, and a pair left mismatched by a crash between the two moves
    fails the header's checksum.
    """
    header_path, payload = Path(path), payload_path(path)
    if payload == header_path:
        raise ParameterError(
            f"checkpoint header {header_path} ends in {PAYLOAD_SUFFIX}, its payload's suffix"
        )
    header = {
        "format": CHECKPOINT_FORMAT,
        "step": state.step,
        "config": config,
        "config_hash": config_digest(config),
    }
    digest = hashlib.sha256()
    size = 0
    # the payload's block is inside the header's, so it is moved first
    with atomic_open(header_path) as header_fh, atomic_open(payload, binary=True) as payload_fh:
        for section in CHECKPOINT_SECTIONS:
            header[section] = {}
            for name, a in getattr(state, section).items():
                data = np.ascontiguousarray(a, dtype="<f8")
                payload_fh.write(data)
                digest.update(data)
                size += data.nbytes
                header[section][name] = list(data.shape)
        header["payload_bytes"] = size
        header["payload_sha256"] = digest.hexdigest()
        header_fh.write(json.dumps(header) + "\n")


def _read_header(path: Path) -> dict:
    """The header's fields, checked as far as the header alone allows."""
    where = f"checkpoint {path}"
    try:
        header = json.loads(path.read_bytes())
    except OSError as exc:
        raise DataLoadError(f"{where} cannot be read: {exc.strerror}") from None
    except ValueError as exc:
        raise DataLoadError(f"{where} is not valid JSON: {exc}") from None
    if not isinstance(header, dict):
        raise DataLoadError(f"{where} is not a JSON object")
    if "format" not in header:
        raise DataLoadError(f"{where} is missing field 'format'")
    if header["format"] != CHECKPOINT_FORMAT:
        raise DataLoadError(
            f"{where}: unsupported checkpoint format {header['format']!r}; this version reads "
            f"format {CHECKPOINT_FORMAT} only, retrain to write a new checkpoint"
        )
    required = ("step", "config", "config_hash", *CHECKPOINT_SECTIONS)
    for key in required + ("payload_bytes", "payload_sha256"):
        if key not in header:
            raise DataLoadError(f"{where} is missing field {key!r}")
    if not isinstance(header["config"], dict):
        raise DataLoadError(f"{where}: config is not a JSON object")
    step = header["step"]
    if type(step) is not int or step < 0:
        raise DataLoadError(f"{where}: step must be a non-negative integer, got {step!r}")
    if config_digest(header["config"]) != header["config_hash"]:
        raise DataLoadError(f"{where}: config hash does not match its config")
    size = header["payload_bytes"]
    if type(size) is not int or size < 0:
        raise DataLoadError(f"{where}: payload_bytes must be a non-negative integer, got {size!r}")
    if not isinstance(header["payload_sha256"], str):
        raise DataLoadError(f"{where}: payload_sha256 must be a string")
    for section in CHECKPOINT_SECTIONS:
        if not isinstance(header[section], dict):
            raise DataLoadError(f"{where}: {section} is not an object")
        for name, shape in header[section].items():
            if not (
                isinstance(shape, list)
                and len(shape) == 2
                and all(type(n) is int and n >= 0 for n in shape)
            ):
                raise DataLoadError(
                    f"{where}: {section} {name!r}: shape must be two non-negative "
                    f"integers, got {shape!r}"
                )
    return header


def _read_payload(payload: Path, header_path: Path, size: int) -> bytearray:
    try:
        with open(payload, "rb") as fh:
            found = os.fstat(fh.fileno()).st_size
            if found == size:
                buf = bytearray(size)
                found = fh.readinto(buf)
    except FileNotFoundError:
        raise DataLoadError(
            f"checkpoint payload {payload} is missing; its header {header_path} needs it "
            "beside it (a checkpoint is moved as both files)"
        ) from None
    except OSError as exc:
        raise DataLoadError(
            f"checkpoint payload {payload} cannot be read: {exc.strerror}"
        ) from None
    if found != size:
        raise DataLoadError(
            f"checkpoint payload {payload} holds {found} bytes but its header "
            f"{header_path} says {size}"
        )
    return buf


def load_checkpoint(path) -> tuple[ModelState, dict]:
    """Read the checkpoint whose header is at ``path``.

    The header is checked first, then the payload's size and sha256, before
    any array is decoded; then that the shapes tile the payload, that every
    value is finite, and that the three sections agree on names and shapes.
    Each refusal is a ``DataLoadError`` naming the file it concerns. The
    arrays are writeable and share no memory.
    """
    header_path, payload = Path(path), payload_path(path)
    if payload == header_path:
        raise DataLoadError(
            f"checkpoint header {header_path} ends in {PAYLOAD_SUFFIX}, its payload's suffix; "
            "pass the header"
        )
    header = _read_header(header_path)
    size = header["payload_bytes"]
    buf = _read_payload(payload, header_path, size)
    if hashlib.sha256(buf).hexdigest() != header["payload_sha256"]:
        raise DataLoadError(
            f"checkpoint payload {payload} does not match the sha256 in its header "
            f"{header_path}; the pair is damaged or from two different saves"
        )
    layout = [
        (section, name, shape)
        for section in CHECKPOINT_SECTIONS
        for name, shape in header[section].items()
    ]
    need = sum(8 * rows * cols for _, _, (rows, cols) in layout)
    if need != size:
        raise DataLoadError(
            f"checkpoint {header_path}: its shapes need {need} bytes but its payload "
            f"{payload} holds {size}"
        )

    sections = {section: {} for section in CHECKPOINT_SECTIONS}
    offset = 0
    for section, name, (rows, cols) in layout:
        # a view of its own stretch of the buffer: writeable, overlapping no other
        array = np.frombuffer(buf, "<f8", rows * cols, offset).reshape(rows, cols)
        offset += array.nbytes
        if not np.isfinite(array).all():
            raise DataLoadError(
                f"checkpoint payload {payload}: {section} {name!r} contains non-finite values"
            )
        sections[section][name] = array.astype(np.float64, copy=False)
    params = sections["params"]
    for section in CHECKPOINT_SECTIONS[1:]:
        moments = sections[section]
        if set(moments) != set(params):
            raise DataLoadError(
                f"checkpoint {header_path}: {section} names {sorted(moments)} but params "
                f"names {sorted(params)}"
            )
        for name, p in params.items():
            if moments[name].shape != p.shape:
                raise DataLoadError(
                    f"checkpoint {header_path}: {section} {name!r} has shape "
                    f"{moments[name].shape}, params {name!r} has {p.shape}"
                )
    return ModelState(**sections, step=header["step"]), header["config"]
