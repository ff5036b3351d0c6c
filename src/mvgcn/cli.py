"""Command-line experiment harness: prepare, train, eval, sweep, ablate.

Every command is deterministic for a fixed seed; numeric artifacts are
byte-for-byte reproducible. Outputs are UTF-8, CSVs use '.' as the decimal
separator. Exit codes: 0 success, 1 runtime failure, 2 usage or config
error.
"""

import argparse
import csv
import hashlib
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from .autodiff import NoGradTape
from .config import RunConfig, config_from_dict, config_to_dict, load_config, validate_config
from .data import load_dataset
from .errors import ConfigError, DataLoadError, TrainingError
from .experiment import (
    SWEEPABLE,
    feature_matrix,
    forward_settings,
    prepare_graphs,
    run_ablation,
    run_repeats,
    run_sweep,
)
from .fileio import atomic_open
from .fusion import normalize_weights, view_importance
from .graphs import METRICS, Graph
from .model import evaluate, load_checkpoint, predict, save_checkpoint

GRAPH_MANIFEST = "manifest.json"
GRAPH_FORMAT = 2
EDGE_HEADER = "row,col,value"


# ---------------------------------------------------------------------------
# artifact writers
# ---------------------------------------------------------------------------


def write_json(path, payload: dict) -> None:
    with atomic_open(path) as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_csv(path, header: list[str], rows) -> None:
    with atomic_open(path, newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _edge_list(adjacency: np.ndarray) -> str:
    """The header, then one ``row,col,value`` line per nonzero entry in
    row-major order, values as ``%.17g`` so they read back to the same bits.
    One ``%`` format over the whole view: ``np.savetxt`` makes a Python call
    per row."""
    rows, cols = np.nonzero(adjacency)
    cells = [None] * (3 * len(rows))
    cells[0::3] = rows.tolist()
    cells[1::3] = cols.tolist()
    cells[2::3] = adjacency[rows, cols].tolist()
    return f"{EDGE_HEADER}\n" + ("%d,%d,%.17g\n" * len(rows)) % tuple(cells)


def save_prepared_graphs(out_dir, graphs: list[Graph], k: int, metric: str) -> None:
    """Each renormalized adjacency as an edge list, plus a checksummed manifest.

    ``view_<v>.csv`` holds the header ``row,col,value`` and one line per
    nonzero entry of view v, self-loops included, in row-major order; values
    are written as ``%.17g`` and read back to the same bits. ``manifest.json``
    (graph format 2) records ``format``, ``k``, ``metric``, ``num_views``,
    ``nodes`` and the sha256 of each view file. Every file is written
    atomically, and the manifest last.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for v, g in enumerate(graphs):
        name = f"view_{v}.csv"
        with atomic_open(out / name, newline="") as fh:
            text = _edge_list(g.adjacency)
            fh.write(text)
        files[name] = _sha256(text.encode("utf-8"))
    manifest = {
        "format": GRAPH_FORMAT,
        "k": k,
        "metric": metric,
        "num_views": len(graphs),
        "nodes": graphs[0].num_nodes,
        "files": files,
    }
    write_json(out / GRAPH_MANIFEST, manifest)


def _read_graph_manifest(graph_dir, cfg: RunConfig) -> dict:
    """The manifest of a prepared-graph directory, checked field by field
    and against the config's k and metric."""
    manifest_path = Path(graph_dir) / GRAPH_MANIFEST
    if not manifest_path.exists():
        raise DataLoadError(f"no {GRAPH_MANIFEST} in {graph_dir}")
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataLoadError(f"graph manifest {manifest_path} is not valid JSON: {exc}") from None
    if not isinstance(manifest, dict):
        raise DataLoadError(f"graph manifest {manifest_path} is not a JSON object")
    # format 1 (one dense m x m CSV per view) wrote no format field
    fmt = manifest.get("format", 1)
    if type(fmt) is not int or fmt != GRAPH_FORMAT:
        raise DataLoadError(
            f"unsupported graph manifest format {fmt!r} in {graph_dir}; this version reads "
            f"format {GRAPH_FORMAT} only (one edge list per view), rerun `mvgcn prepare` "
            "to write it"
        )
    for key in ("k", "metric", "num_views", "nodes", "files"):
        if key not in manifest:
            raise DataLoadError(f"graph manifest is missing field {key!r}")
    for key in ("k", "num_views", "nodes"):
        if type(manifest[key]) is not int or manifest[key] < 1:
            raise DataLoadError(
                f"graph manifest field {key!r} must be a positive integer, got {manifest[key]!r}"
            )
    if not isinstance(manifest["files"], dict):
        raise DataLoadError("graph manifest field 'files' is not a JSON object")
    if manifest["k"] != cfg.k or manifest["metric"] != cfg.metric:
        raise ConfigError(
            f"prepared graphs use k={manifest['k']}, metric={manifest['metric']!r} "
            f"but the config asks for k={cfg.k}, metric={cfg.metric!r}"
        )
    return manifest


def _edge_table(path: Path, body: list[str]) -> np.ndarray:
    """The edge lines as an n x 3 float array, by numpy's C parser. A line
    that is not three numbers is named; the parser skips blank lines, so a
    short table means one."""
    if not body:
        raise DataLoadError(f"{path}: line 2: no edges")
    try:
        table = np.loadtxt(body, delimiter=",", comments=None, ndmin=2)
        if table.shape == (len(body), 3):
            return table
    except ValueError:
        pass
    # the lines parse one by one as they do together, so one of them fails
    for lineno, line in enumerate(body, start=2):
        width = line.count(",") + 1
        if width != 3:
            raise DataLoadError(f"{path}: line {lineno}: expected 3 columns, found {width}")
        try:
            np.loadtxt([line], delimiter=",", comments=None)
        except ValueError:
            raise DataLoadError(f"{path}: line {lineno}: non-numeric cell") from None


def _refuse_first(path: Path, bad: np.ndarray, what) -> None:
    """Refuse the first flagged edge, naming its line (the header is line 1)."""
    flagged = np.flatnonzero(bad)
    if flagged.size:
        e = flagged[0]
        raise DataLoadError(f"{path}: line {e + 2}: {what(e)}")


def _read_edge_list(path: Path, data: bytes, nodes: int) -> np.ndarray:
    """The dense nodes x nodes adjacency that an edge list holds."""
    lines = data.decode("utf-8").split("\n")
    if lines[-1] == "":
        lines.pop()
    if lines[:1] != [EDGE_HEADER]:
        raise DataLoadError(f"{path}: line 1: expected the header {EDGE_HEADER!r}")
    table = _edge_table(path, lines[1:])
    index = table[:, :2]
    _refuse_first(
        path,
        ~((index == np.floor(index)) & (index >= 0) & (index < nodes)).all(axis=1),
        lambda e: f"node index is not an integer in [0, {nodes}): {lines[e + 1]!r}",
    )
    rows, cols = index.astype(np.int64).T
    flat = rows * nodes + cols
    _refuse_first(
        path,
        np.concatenate(([False], np.diff(flat) <= 0)),
        lambda e: f"edge ({rows[e]}, {cols[e]}) repeats or is out of row-major order",
    )
    values = table[:, 2]
    _refuse_first(
        path,
        ~(np.isfinite(values) & (values > 0)),
        lambda e: f"value is not finite and positive: {lines[e + 1]!r}",
    )
    # flat is strictly increasing, so a sorted search finds each twin; for
    # finite positive values, equal means the same bits
    twin_flat = cols * nodes + rows
    twin = np.minimum(np.searchsorted(flat, twin_flat), len(flat) - 1)
    _refuse_first(
        path,
        (flat[twin] != twin_flat) | (values[twin] != values),
        lambda e: f"edge ({rows[e]}, {cols[e]}) has no twin ({cols[e]}, {rows[e]}) "
        "with the same value",
    )
    adjacency = np.zeros((nodes, nodes))
    adjacency[rows, cols] = values
    return adjacency


def load_prepared_graphs(graph_dir, cfg: RunConfig) -> list[Graph]:
    """Manifest-verified load: each view file must match its checksum, and
    then pass every edge-list check; any failure is a refusal."""
    manifest = _read_graph_manifest(graph_dir, cfg)
    graphs = []
    for v in range(manifest["num_views"]):
        name = f"view_{v}.csv"
        path = Path(graph_dir) / name
        if name not in manifest["files"] or not path.exists():
            raise DataLoadError(f"graph file missing from {graph_dir}: {name}")
        data = path.read_bytes()
        if _sha256(data) != manifest["files"][name]:
            raise DataLoadError(f"checksum mismatch for {name}; refusing to load")
        graphs.append(Graph(_read_edge_list(path, data, manifest["nodes"]), renormalized=True))
    return graphs


def _fusion_summary(state) -> dict:
    W = normalize_weights(NoGradTape().leaf(state.params["raw_weights"]))
    alpha = view_importance(W)
    return {"weights": W.value.tolist(), "importance": alpha.value[0].tolist()}


def write_run_artifacts(out_dir, dataset_name: str, cfg: RunConfig, metrics) -> None:
    """metrics.json, per-repeat history CSVs, a checkpoint of the first
    repeat, and the learned fusion weights."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"dataset": dataset_name, "config": config_to_dict(cfg)}
    payload.update(metrics.summary())
    write_json(out / "metrics.json", payload)
    for r, outcome in enumerate(metrics.outcomes):
        write_csv(
            out / f"history_{r}.csv",
            ["iteration", "loss", "train_accuracy", "test_accuracy"],
            outcome.result.history,
        )
    first = metrics.outcomes[0]
    save_checkpoint(out / "checkpoint.json", first.result.state, config_to_dict(cfg))
    write_json(out / "fusion_weights.json", _fusion_summary(first.result.state))


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _load_run_config(path) -> RunConfig:
    cfg = load_config(path) if path else RunConfig()
    raw = os.environ.get("MGCN_SEED")
    if raw is not None:
        try:
            cfg = replace(cfg, seed=int(raw))
        except ValueError:
            raise ConfigError(f"MGCN_SEED must be an integer, got {raw!r}") from None
    return cfg


def cmd_prepare(args) -> int:
    dataset = load_dataset(args.data)
    validate_config(RunConfig(k=args.k, metric=args.metric), dataset.num_samples)
    graphs = prepare_graphs(dataset, args.k, args.metric)
    save_prepared_graphs(args.out, graphs, args.k, args.metric)
    print(f"wrote {len(graphs)} renormalized graphs to {args.out}")
    return 0


def _check_graphs_fit(manifest: dict, dataset, graph_dir) -> None:
    """Prepared graphs belong to the dataset they were built from: one graph
    per view, one node per sample. Checked on the manifest, before any view
    file is read."""
    V, m = dataset.num_views, dataset.num_samples
    if manifest["num_views"] != V:
        raise DataLoadError(
            f"prepared graphs in {graph_dir} have {manifest['num_views']} views "
            f"but the dataset has {V}"
        )
    if manifest["nodes"] != m:
        raise DataLoadError(
            f"prepared graphs in {graph_dir} have {manifest['nodes']} nodes "
            f"but the dataset has {m} samples"
        )


def cmd_train(args) -> int:
    cfg = _load_run_config(args.config)
    dataset = load_dataset(args.data)
    validate_config(cfg, dataset.num_samples)
    graphs = None
    if args.graphs:
        _check_graphs_fit(_read_graph_manifest(args.graphs, cfg), dataset, args.graphs)
        graphs = load_prepared_graphs(args.graphs, cfg)
    metrics = run_repeats(dataset, cfg, graphs)
    write_run_artifacts(args.out, dataset.name, cfg, metrics)
    print(
        f"{dataset.name}: mean accuracy {metrics.mean_accuracy:.4f} "
        f"(std {metrics.std_accuracy:.4f}) over {cfg.repeats} repeats"
    )
    return 0


def _check_checkpoint_fits(state, cfg: RunConfig, dataset, features: np.ndarray) -> None:
    """A checkpoint holds exactly the parameters ``init_model`` makes for its
    config. The model is transductive: their shapes pin the view count, the
    node count, the feature width and the class count of the dataset it was
    trained on, and the config fixes the hidden width and the layer count."""
    views = (dataset.num_views, "views", "the dataset has")
    samples = (dataset.num_samples, "samples", "the dataset has")
    hidden = (cfg.hidden_dim, "hidden units", "its config has hidden_dim")
    widths = (
        [(features.shape[1], "feature columns", "the dataset has")]
        + [hidden] * (cfg.layers - 1)
        + [(dataset.classes, "classes", "the dataset has")]
    )
    threshold = (1, "thresholds", "the model has")
    want = {
        "raw_weights": (views, views),
        "S1": (samples, samples),
        "S2": (samples, samples),
        "raw_theta": (threshold, threshold),
    }
    for l in range(cfg.layers):
        want[f"W{l + 1}"] = (widths[l], widths[l + 1])
    missing = [name for name in want if name not in state.params]
    if missing:
        raise DataLoadError(f"checkpoint has no parameter {missing[0]!r}")
    extra = sorted(set(state.params) - set(want))
    if extra:
        raise DataLoadError(
            f"checkpoint has parameter {extra[0]!r}, which a model with "
            f"layers={cfg.layers} does not have"
        )
    for name, axes in want.items():
        shape = state.params[name].shape
        for got, (size, what, source) in zip(shape, axes):
            if got != size:
                raise DataLoadError(
                    f"checkpoint was trained on {got} {what} ({name} has shape "
                    f"{shape}) but {source} {size}"
                )


def cmd_eval(args) -> int:
    state, config = load_checkpoint(args.checkpoint)
    cfg = config_from_dict(config)
    dataset = load_dataset(args.data)
    features = feature_matrix(dataset)
    _check_checkpoint_fits(state, cfg, dataset, features)
    graphs = prepare_graphs(dataset, cfg.k, cfg.metric)
    Z = predict(state, graphs, features, **forward_settings(cfg))
    accuracy = evaluate(Z, dataset.labels, np.arange(dataset.num_samples))
    print(
        json.dumps(
            {
                "dataset": dataset.name,
                "samples": dataset.num_samples,
                "accuracy": accuracy,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_sweep(args) -> int:
    cfg = _load_run_config(args.config)
    dataset = load_dataset(args.data)
    _, cast = SWEEPABLE[args.param]
    tokens = [tok.strip() for tok in args.values.split(",") if tok.strip()]
    try:
        values = [cast(tok) for tok in tokens]
    except ValueError:
        raise ConfigError(
            f"sweep values for {args.param} must parse as {cast.__name__}: {args.values!r}"
        ) from None
    rows = run_sweep(dataset, cfg, args.param, values, jobs=args.jobs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "sweep.csv",
        ["value", "mean_accuracy", "std_accuracy"],
        [[r["value"], r["mean_accuracy"], r["std_accuracy"]] for r in rows],
    )
    for r in rows:
        print(f"{args.param}={r['value']}: {r['mean_accuracy']:.4f} (std {r['std_accuracy']:.4f})")
    return 0


def cmd_ablate(args) -> int:
    cfg = _load_run_config(args.config)
    dataset = load_dataset(args.data)
    rows = run_ablation(dataset, cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(
        out / "ablation.csv",
        ["variant", "glm", "dns", "mean_accuracy", "std_accuracy"],
        [
            [r["variant"], r["glm"], r["dns"], r["mean_accuracy"], r["std_accuracy"]]
            for r in rows
        ],
    )
    for r in rows:
        print(f"{r['variant']}: {r['mean_accuracy']:.4f} (std {r['std_accuracy']:.4f})")
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvgcn",
        description="Multi-view graph convolutional classification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    prepare = sub.add_parser("prepare", help="build renormalized KNN graphs once")
    prepare.add_argument("--data", required=True, help="dataset directory")
    prepare.add_argument("--k", type=int, default=RunConfig.k, help="neighbors per node")
    prepare.add_argument("--metric", choices=METRICS, default=RunConfig.metric)
    prepare.add_argument("--out", required=True, help="output directory")
    prepare.set_defaults(func=cmd_prepare)

    train = sub.add_parser("train", help="train with repeated random splits")
    train.add_argument("--config", help="JSON config file (defaults apply if omitted)")
    train.add_argument("--data", required=True)
    train.add_argument("--out", required=True)
    train.add_argument("--graphs", help="directory from a previous 'prepare' run")
    train.set_defaults(func=cmd_train)

    evaluate_ = sub.add_parser("eval", help="score a checkpoint on a dataset")
    evaluate_.add_argument("--checkpoint", required=True)
    evaluate_.add_argument("--data", required=True)
    evaluate_.set_defaults(func=cmd_eval)

    sweep = sub.add_parser("sweep", help="repeat training across a parameter grid")
    sweep.add_argument("--param", required=True, choices=sorted(SWEEPABLE))
    sweep.add_argument("--values", required=True, help="comma-separated grid")
    sweep.add_argument("--config")
    sweep.add_argument("--data", required=True)
    sweep.add_argument("--out", required=True)
    sweep.add_argument("--jobs", type=int, default=1, help="parallel grid points")
    sweep.set_defaults(func=cmd_sweep)

    ablate = sub.add_parser("ablate", help="module on/off grid under shared seeds")
    ablate.add_argument("--config")
    ablate.add_argument("--data", required=True)
    ablate.add_argument("--out", required=True)
    ablate.set_defaults(func=cmd_ablate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, TrainingError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
