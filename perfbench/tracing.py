"""Spans around calls into the mvgcn modules, recorded from outside the package.

``Tracer.install`` replaces the public functions listed in ``TRACED`` (and
``Tape.backward``) with wrappers, wherever a module of the package holds a
reference to them, so calls made inside the package are seen too. Every
wrapper records one span ``[id, parent, name, t0, start, end, post, attrs]``:
``t0``/``post`` bracket the tracer's own bookkeeping, ``start``/``end`` the
wrapped call. Stage functions that build tape nodes also record how many
nodes, square m x m nodes and value bytes they added. Spans stay in memory
and are returned by ``Tracer.dump``; ``derive`` turns span lists into the
per-layer metrics listed in BENCHMARK.json.

Tracing allocates objects the untraced run does not, so the cyclic garbage
collector triggers at other moments; the traced run's memory counters
describe the traced process, and peak RSS is measured untraced only.
"""

import collections
import contextlib
import gc
import statistics
import time
import weakref

import mvgcn
import mvgcn.autodiff
import mvgcn.cli
import mvgcn.config
import mvgcn.data
import mvgcn.experiment
import mvgcn.fusion
import mvgcn.graph_learning
import mvgcn.graphs
import mvgcn.model
import mvgcn.selection
from mvgcn.autodiff import Node, Tape

MODULES = (
    mvgcn,
    mvgcn.autodiff,
    mvgcn.cli,
    mvgcn.config,
    mvgcn.data,
    mvgcn.experiment,
    mvgcn.fusion,
    mvgcn.graph_learning,
    mvgcn.graphs,
    mvgcn.model,
    mvgcn.selection,
)

TRACED = {
    mvgcn.data: ("make_synthetic", "load_dataset", "save_dataset"),
    mvgcn.graphs: ("build_knn_graph", "renormalize"),
    mvgcn.experiment: ("prepare_graphs", "run_single", "run_repeats"),
    mvgcn.fusion: ("fuse_views",),
    mvgcn.graph_learning: ("refine_graph",),
    mvgcn.selection: ("differentiable_node_selection",),
    mvgcn.model: (
        "train",
        "forward",
        "gcn_layer",
        "masked_cross_entropy",
        "adam_step",
        "predict",
        "save_checkpoint",
        "load_checkpoint",
    ),
    mvgcn.cli: (
        "main",
        "cmd_prepare",
        "cmd_train",
        "cmd_eval",
        "load_prepared_graphs",
        "save_prepared_graphs",
        "write_run_artifacts",
    ),
}

# Stages whose tape nodes are counted; each takes a Node among its arguments.
NODE_STAGES = (
    "fusion.fuse_views",
    "graph_learning.refine_graph",
    "selection.differentiable_node_selection",
    "model.gcn_layer",
    "model.masked_cross_entropy",
)

LAYERS = (
    "data",
    "graphs",
    "experiment",
    "fusion",
    "graph_learning",
    "selection",
    "model",
    "autodiff",
    "cli",
    "harness",
)

# Every op name autodiff gives a node; anything else is counted as "other".
TAPE_OPS = (
    "leaf", "add", "sub", "mul", "div", "matmul", "scalar_mul", "add_scalar",
    "mul_const", "transpose", "abs", "sigmoid", "relu", "maximum", "exp",
    "log", "exp2", "softmax_rows", "row_sum", "col_sum", "sum_all", "max_all",
    "min_all", "broadcast_rows", "broadcast_cols", "masked_sum", "entry",
)  # fmt: skip

MIB = 2.0**20

ID, PARENT, NAME, T0, START, END, POST, ATTRS = range(8)


def _node_stats(nodes, m: int) -> dict:
    return {
        "nodes": len(nodes),
        "mxm": sum(1 for n in nodes if n.value.shape == (m, m)),
        "bytes": sum(n.value.nbytes for n in nodes),
    }


def _first_node(args):
    return next((a for a in args if isinstance(a, Node)), None)


class Tracer:
    """Span recorder for one process; ``m`` is the workload's node count."""

    def __init__(self, m: int):
        self.m = m
        self.spans = []
        self.stack = []
        self.tapes_created = 0
        self.tapes_freed = 0
        self.tapes_alive_max = 0
        self._gc_full_start = None

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, t0: float) -> list:
        span = [len(self.spans), self.stack[-1] if self.stack else None, name, t0, 0.0, 0.0, 0.0, None]
        self.spans.append(span)
        self.stack.append(span[ID])
        span[START] = time.perf_counter()
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self.stack.pop()

    def wrap(self, fn, name: str):
        tracer = self
        count_nodes = name in NODE_STAGES

        def traced(*args, **kwargs):
            t0 = time.perf_counter()
            node = _first_node(args) if count_nodes else None
            before = len(node.tape.nodes) if node is not None else 0
            span = tracer._open(name, t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if node is not None:
                span[ATTRS] = tracer._stage_attrs(name, node, before, args, result)
            span[POST] = time.perf_counter()
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _stage_attrs(self, name, node, before, args, result) -> dict:
        attrs = _node_stats(node.tape.nodes[before:], self.m)
        if name == "selection.differentiable_node_selection":
            kept = int((result.selected.value != 0).sum())
            attrs["kept_frac"] = kept / max(int((args[0].value != 0).sum()), 1)
        elif name == "model.gcn_layer":
            attrs["density"] = float((args[0].value != 0).mean())
        return attrs

    @contextlib.contextmanager
    def root(self, name: str):
        """A span the harness opens itself, around one operation."""
        span = self._open(name, time.perf_counter())
        try:
            yield
        finally:
            self._close(span)
            span[POST] = span[END]

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        for module, names in TRACED.items():
            layer = module.__name__.rsplit(".", 1)[1]
            for attr in names:
                fn = getattr(module, attr)
                self._replace(fn, self.wrap(fn, f"{layer}.{attr}"))
        self._install_tape_hooks()
        self._gc_full_start = gc.get_stats()[2]["collections"]

    def _replace(self, fn, wrapped) -> None:
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapped)

    def _install_tape_hooks(self) -> None:
        tracer = self
        init = Tape.__init__
        backward = Tape.backward

        def traced_init(tape):
            init(tape)
            tracer.tapes_created += 1
            weakref.finalize(tape, tracer._tape_freed)
            alive = tracer.tapes_created - tracer.tapes_freed
            tracer.tapes_alive_max = max(tracer.tapes_alive_max, alive)

        def traced_backward(tape, loss):
            t0 = time.perf_counter()
            attrs = _node_stats(tape.nodes, tracer.m)
            attrs["ops"] = dict(collections.Counter(n.op for n in tape.nodes))
            span = tracer._open("autodiff.backward", t0)
            try:
                return backward(tape, loss)
            finally:
                tracer._close(span)
                span[ATTRS] = attrs
                span[POST] = time.perf_counter()

        Tape.__init__ = traced_init
        Tape.backward = traced_backward

    def _tape_freed(self) -> None:
        self.tapes_freed += 1

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "tapes_alive_max": self.tapes_alive_max,
            "gc_full_collections": gc.get_stats()[2]["collections"] - self._gc_full_start,
        }


# ---------------------------------------------------------------------------
# metrics from spans
# ---------------------------------------------------------------------------


def self_times(spans) -> dict:
    """Span id -> duration minus what its children (with bookkeeping) cover."""
    covered = collections.defaultdict(float)
    for s in spans:
        if s[PARENT] is not None:
            covered[s[PARENT]] += s[POST] - s[T0]
    return {s[ID]: (s[END] - s[START]) - covered[s[ID]] for s in spans}


def layer_self_seconds(spans) -> dict:
    own = self_times(spans)
    totals = dict.fromkeys(LAYERS, 0.0)
    for s in spans:
        totals[s[NAME].split(".", 1)[0]] += own[s[ID]]
    return totals


def bookkeeping_seconds(spans) -> float:
    return sum((s[START] - s[T0]) + (s[POST] - s[END]) for s in spans)


def total_seconds(spans, name: str) -> float:
    return sum(s[END] - s[START] for s in spans if s[NAME] == name)


def epochs_of(spans):
    """Per training epoch, the spans under one ``model.train`` call.

    An epoch starts at each ``model.forward`` whose parent is the train span
    and runs to the next one, so backward and Adam land in the epoch whose
    forward pass they follow.
    """
    by_id = {s[ID]: s for s in spans}
    trains = {s[ID] for s in spans if s[NAME] == "model.train"}
    epochs = []
    for s in spans:
        parent = s[PARENT]
        while parent is not None and parent not in trains:
            parent = by_id[parent][PARENT]
        if parent is None:
            continue
        if s[NAME] == "model.forward" and s[PARENT] in trains:
            epochs.append([])
        if epochs:
            epochs[-1].append(s)
    return epochs


def _epoch_median(epochs, name: str, value, low: bool = False):
    per_epoch = [sum(value(s) for s in e if s[NAME] == name) for e in epochs]
    if not per_epoch:
        return 0.0
    return statistics.median_low(per_epoch) if low else statistics.median(per_epoch)


def _ms(s) -> float:
    return (s[END] - s[START]) * 1000.0


def _attr(key):
    return lambda s: s[ATTRS][key]


def epoch_metrics(spans, m: int) -> dict:
    """Per-epoch medians of the training stages of one operation."""
    epochs = epochs_of(spans)
    out = {
        "autodiff.backward_ms": _epoch_median(epochs, "autodiff.backward", _ms),
        "autodiff.nodes": _epoch_median(epochs, "autodiff.backward", _attr("nodes"), True),
        "autodiff.mxm_nodes": _epoch_median(epochs, "autodiff.backward", _attr("mxm"), True),
        "autodiff.tape_mib": _epoch_median(epochs, "autodiff.backward", _attr("bytes"), True) / MIB,
        "fusion.fwd_ms": _epoch_median(epochs, "fusion.fuse_views", _ms),
        "fusion.nodes": _epoch_median(epochs, "fusion.fuse_views", _attr("nodes"), True),
        "fusion.mxm_nodes": _epoch_median(epochs, "fusion.fuse_views", _attr("mxm"), True),
        "fusion.mib": _epoch_median(epochs, "fusion.fuse_views", _attr("bytes"), True) / MIB,
        "graph_learning.fwd_ms": _epoch_median(epochs, "graph_learning.refine_graph", _ms),
        "graph_learning.nodes": _epoch_median(epochs, "graph_learning.refine_graph", _attr("nodes"), True),
        "graph_learning.mib": _epoch_median(epochs, "graph_learning.refine_graph", _attr("bytes"), True) / MIB,
        "graph_learning.gflop": 4.0 * m**3 / 1e9,
        "selection.fwd_ms": _epoch_median(epochs, "selection.differentiable_node_selection", _ms),
        "selection.nodes": _epoch_median(epochs, "selection.differentiable_node_selection", _attr("nodes"), True),
        "selection.mib": _epoch_median(epochs, "selection.differentiable_node_selection", _attr("bytes"), True) / MIB,
        "selection.kept_frac": _epoch_median(epochs, "selection.differentiable_node_selection", _attr("kept_frac")),
        "model.gcn_fwd_ms": _epoch_median(epochs, "model.gcn_layer", _ms),
        "model.loss_ms": _epoch_median(epochs, "model.masked_cross_entropy", _ms),
        "model.adam_ms": _epoch_median(epochs, "model.adam_step", _ms),
    }
    last_layers = [s for s in epochs[-1] if s[NAME] == "model.gcn_layer"] if epochs else []
    out["model.adjacency_density"] = last_layers[-1][ATTRS]["density"] if last_layers else 0.0
    backward = [s for e in epochs for s in e if s[NAME] == "autodiff.backward"]
    for op in TAPE_OPS + ("other",):
        counts = [
            s[ATTRS]["ops"].get(op, 0)
            if op != "other"
            else sum(c for k, c in s[ATTRS]["ops"].items() if k not in TAPE_OPS)
            for s in backward
        ]
        out[f"autodiff.nodes.{op}"] = statistics.median_low(counts) if counts else 0

    own = self_times(spans)
    trains = [s for s in spans if s[NAME] == "model.train"]
    train_s = sum(s[END] - s[START] for s in trains)
    loop_s = sum(own[s[ID]] for s in trains)
    out["model.train_loop_ms"] = loop_s * 1000.0 / max(len(epochs), 1)
    out["trace.train_accounted_frac"] = (train_s - loop_s) / train_s if train_s else 0.0
    return out


def operation_metrics(spans, m: int) -> dict:
    """Per-layer metrics of one traced operation (all its processes' spans)."""
    out = epoch_metrics(spans, m)
    predicts = [_ms(s) for s in spans if s[NAME] == "model.predict"]
    out["model.predict_ms"] = statistics.median(predicts) if predicts else 0.0
    out["data.load_s"] = total_seconds(spans, "data.load_dataset")
    out["cli.load_graphs_s"] = total_seconds(spans, "cli.load_prepared_graphs")
    out["cli.write_artifacts_s"] = total_seconds(spans, "cli.write_run_artifacts")
    out["cli.save_checkpoint_s"] = total_seconds(spans, "model.save_checkpoint")
    out["cli.load_checkpoint_s"] = total_seconds(spans, "model.load_checkpoint")
    for layer, seconds in layer_self_seconds(spans).items():
        out[f"{layer}.self_s"] = seconds
    out["trace.bookkeeping_s"] = bookkeeping_seconds(spans)
    return out


def setup_metrics(spans) -> dict:
    """Set-up layer times of one traced set-up."""
    return {
        "data.synthetic_s": total_seconds(spans, "data.make_synthetic"),
        "graphs.knn_s": total_seconds(spans, "graphs.build_knn_graph"),
        "graphs.renormalize_s": total_seconds(spans, "graphs.renormalize"),
    }
