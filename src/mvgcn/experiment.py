"""Experiment orchestration: graphs, splits, repeated runs, grids.

A run is fully determined by (dataset, config, seed): per-view features are
standardized, turned into renormalized KNN graphs, a stratified label split
is drawn, and the model trains full batch. Repeats shift the seed by the
repeat index, which redraws both the split and the initialization, matching
the protocol of averaging over several random labelings.
"""

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from .config import RunConfig, validate_config
from .data import MultiViewDataset, SplitSpec, make_split, standardize_columns
from .errors import ParameterError
from .graphs import Graph, _share_cpus, build_knn_graph, renormalize
from .model import TrainResult, train


def prepare_graphs(dataset: MultiViewDataset, k: int, metric: str) -> list[Graph]:
    """Renormalized KNN graph per view, built on standardized features."""
    return [
        renormalize(build_knn_graph(standardize_columns(X), k, metric))
        for X in dataset.views
    ]


def feature_matrix(dataset: MultiViewDataset) -> np.ndarray:
    """Column-standardized views, concatenated along the feature axis."""
    return np.hstack([standardize_columns(X) for X in dataset.views])


@dataclass
class RunOutcome:
    seed: int
    labeled: np.ndarray
    result: TrainResult

    @property
    def final_train_accuracy(self) -> float:
        return self.result.history[-1][2]

    @property
    def final_test_accuracy(self) -> float:
        return self.result.history[-1][3]


def forward_settings(cfg: RunConfig) -> dict:
    """Forward-pass keyword arguments implied by a config; shared by
    training and checkpoint evaluation so the two cannot drift."""
    return {
        "gamma": cfg.gamma,
        "tau": cfg.tau,
        "use_glm": cfg.glm,
        "dns_mode": cfg.dns_mode if cfg.dns else "off",
        "k": cfg.k,
    }


def run_single(
    dataset: MultiViewDataset,
    cfg: RunConfig,
    seed: int,
    graphs: list[Graph] | None = None,
    callback=None,
) -> RunOutcome:
    if graphs is None:
        graphs = prepare_graphs(dataset, cfg.k, cfg.metric)
    labeled = make_split(dataset, SplitSpec(cfg.label_ratio, seed, cfg.stratified))
    result = train(
        graphs,
        feature_matrix(dataset),
        dataset.labels,
        dataset.classes,
        labeled,
        seed=seed,
        epochs=cfg.epochs,
        lr=cfg.lr,
        hidden=cfg.hidden_dim,
        layers=cfg.layers,
        callback=callback,
        **forward_settings(cfg),
    )
    return RunOutcome(seed, labeled, result)


@dataclass
class RepeatMetrics:
    mean_accuracy: float
    std_accuracy: float
    accuracies: list[float]
    outcomes: list[RunOutcome]

    def summary(self) -> dict:
        return {
            "mean_accuracy": self.mean_accuracy,
            "std_accuracy": self.std_accuracy,
            "accuracies": self.accuracies,
        }


def run_repeats(
    dataset: MultiViewDataset,
    cfg: RunConfig,
    graphs: list[Graph] | None = None,
) -> RepeatMetrics:
    """cfg.repeats runs at seeds cfg.seed + 0 .. cfg.seed + repeats - 1."""
    if graphs is None:
        graphs = prepare_graphs(dataset, cfg.k, cfg.metric)
    outcomes = [
        run_single(dataset, cfg, cfg.seed + r, graphs) for r in range(cfg.repeats)
    ]
    accs = [o.final_test_accuracy for o in outcomes]
    return RepeatMetrics(float(np.mean(accs)), float(np.std(accs)), accs, outcomes)


ABLATION_GRID = (
    ("full", True, True),
    ("glm-only", True, False),
    ("dns-only", False, True),
    ("neither", False, False),
)


def run_ablation(dataset: MultiViewDataset, cfg: RunConfig) -> list[dict]:
    """The four module on/off combinations under identical seeds and splits."""
    validate_config(cfg, dataset.num_samples)
    graphs = prepare_graphs(dataset, cfg.k, cfg.metric)
    rows = []
    for name, glm, dns in ABLATION_GRID:
        variant = validate_config(replace(cfg, glm=glm, dns=dns))
        metrics = run_repeats(dataset, variant, graphs)
        rows.append(
            {
                "variant": name,
                "glm": glm,
                "dns": dns,
                "mean_accuracy": metrics.mean_accuracy,
                "std_accuracy": metrics.std_accuracy,
            }
        )
    return rows


SWEEPABLE = {
    "k": ("k", int),
    "gamma": ("gamma", float),
    "tau": ("tau", float),
    "label-ratio": ("label_ratio", float),
}


def _sweep_point(args):
    dataset, variant, field = args
    metrics = run_repeats(dataset, variant)
    return {
        "value": getattr(variant, field),
        "mean_accuracy": metrics.mean_accuracy,
        "std_accuracy": metrics.std_accuracy,
    }


def run_sweep(
    dataset: MultiViewDataset,
    cfg: RunConfig,
    param: str,
    values: list,
    jobs: int = 1,
) -> list[dict]:
    """One repeated run per grid value, all anchored at the same base seed.

    Every grid point's config is validated against the dataset before any
    of them trains, so an out-of-range value (a k of the sample count or
    more included) fails at once and names the field. Graphs are rebuilt
    per point because k is sweepable.
    """
    if param not in SWEEPABLE:
        raise ParameterError(
            f"unknown sweep parameter {param!r}, expected one of {sorted(SWEEPABLE)}"
        )
    if not values:
        raise ParameterError("sweep needs at least one value")
    field, cast = SWEEPABLE[param]
    variants = [
        validate_config(replace(cfg, **{field: cast(v)}), dataset.num_samples)
        for v in values
    ]
    points = [(dataset, variant, field) for variant in variants]
    if jobs > 1:
        # the children keep the CPUs busy between them, so none starts a
        # row-run worker of its own
        with ProcessPoolExecutor(max_workers=jobs, initializer=_share_cpus) as pool:
            return list(pool.map(_sweep_point, points))
    return [_sweep_point(p) for p in points]
