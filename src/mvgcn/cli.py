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


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def save_prepared_graphs(out_dir, graphs: list[Graph], k: int, metric: str) -> None:
    """Renormalized adjacencies as CSV plus a checksummed manifest."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    files = {}
    for v, g in enumerate(graphs):
        name = f"view_{v}.csv"
        with atomic_open(out / name, newline="") as fh:
            np.savetxt(fh, g.adjacency, delimiter=",", fmt="%.17g")
        files[name] = _sha256(out / name)
    manifest = {
        "k": k,
        "metric": metric,
        "num_views": len(graphs),
        "nodes": graphs[0].num_nodes,
        "files": files,
    }
    write_json(out / GRAPH_MANIFEST, manifest)


def load_prepared_graphs(graph_dir, cfg: RunConfig) -> list[Graph]:
    """Manifest-verified load; any checksum mismatch is a refusal."""
    root = Path(graph_dir)
    manifest_path = root / GRAPH_MANIFEST
    if not manifest_path.exists():
        raise DataLoadError(f"no {GRAPH_MANIFEST} in {graph_dir}")
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    if not isinstance(manifest, dict):
        raise DataLoadError(f"graph manifest {manifest_path} is not a JSON object")
    for key in ("k", "metric", "num_views", "files"):
        if key not in manifest:
            raise DataLoadError(f"graph manifest is missing field {key!r}")
    for key in ("k", "num_views"):
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
    graphs = []
    for v in range(manifest["num_views"]):
        name = f"view_{v}.csv"
        path = root / name
        if name not in manifest["files"] or not path.exists():
            raise DataLoadError(f"graph file missing from {graph_dir}: {name}")
        if _sha256(path) != manifest["files"][name]:
            raise DataLoadError(f"checksum mismatch for {name}; refusing to load")
        graphs.append(Graph(np.loadtxt(path, delimiter=",", ndmin=2), renormalized=True))
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


def _check_graphs_fit(graphs: list[Graph], dataset, graph_dir) -> None:
    """Prepared graphs belong to the dataset they were built from: one graph
    per view, one node per sample."""
    V, m = dataset.num_views, dataset.num_samples
    if len(graphs) != V:
        raise DataLoadError(
            f"prepared graphs in {graph_dir} have {len(graphs)} views "
            f"but the dataset has {V}"
        )
    for v, g in enumerate(graphs):
        if g.adjacency.shape != (m, m):
            raise DataLoadError(
                f"prepared graph view_{v}.csv in {graph_dir} has {g.num_nodes} nodes "
                f"(shape {g.adjacency.shape}) but the dataset has {m} samples"
            )


def cmd_train(args) -> int:
    cfg = _load_run_config(args.config)
    dataset = load_dataset(args.data)
    validate_config(cfg, dataset.num_samples)
    graphs = None
    if args.graphs:
        graphs = load_prepared_graphs(args.graphs, cfg)
        _check_graphs_fit(graphs, dataset, args.graphs)
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
