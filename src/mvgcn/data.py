"""Dataset loading, label splits, and synthetic multi-view data.

On disk a dataset is a directory of headerless CSV files: view_1.csv through
view_V.csv hold one float row per sample, labels.csv holds one integer class
per sample, and an optional meta.json may pin the class count and a display
name. Values are written with 17 significant digits so a save/load cycle
reproduces float64 arrays exactly.
"""

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataLoadError, ParameterError


@dataclass
class MultiViewDataset:
    views: list[np.ndarray]
    labels: np.ndarray
    classes: int
    name: str = "dataset"

    @property
    def num_samples(self) -> int:
        return self.labels.shape[0]

    @property
    def num_views(self) -> int:
        return len(self.views)


@dataclass
class SplitSpec:
    """How to draw the labeled subset."""

    ratio: float
    seed: int
    stratified: bool = True


def _read_matrix(path: Path) -> np.ndarray:
    rows = []
    width = None
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataLoadError(
                    f"{path}: line {lineno}: expected {width} columns, found {len(row)}"
                )
            try:
                values = [float(cell) for cell in row]
            except ValueError:
                raise DataLoadError(
                    f"{path}: line {lineno}: non-numeric cell"
                ) from None
            if not all(map(math.isfinite, values)):
                raise DataLoadError(f"{path}: line {lineno}: non-finite cell")
            rows.append(values)
    if not rows:
        raise DataLoadError(f"{path}: file is empty")
    return np.array(rows, dtype=float)


def _read_labels(path: Path) -> np.ndarray:
    labels = []
    with open(path, newline="", encoding="utf-8") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            if len(row) != 1:
                raise DataLoadError(f"{path}: line {lineno}: expected a single label")
            try:
                labels.append(int(row[0]))
            except ValueError:
                raise DataLoadError(
                    f"{path}: line {lineno}: label is not an integer"
                ) from None
    if not labels:
        raise DataLoadError(f"{path}: file is empty")
    return np.array(labels, dtype=int)


def load_dataset(directory) -> MultiViewDataset:
    """Read view_1.csv..view_V.csv plus labels.csv from a directory."""
    directory = Path(directory)
    if not directory.is_dir():
        raise DataLoadError(f"{directory}: not a directory")
    views = []
    v = 1
    while (directory / f"view_{v}.csv").exists():
        views.append(_read_matrix(directory / f"view_{v}.csv"))
        v += 1
    if not views:
        raise DataLoadError(f"{directory}: no view_1.csv found")
    labels_path = directory / "labels.csv"
    if not labels_path.exists():
        raise DataLoadError(f"{labels_path}: missing")
    labels = _read_labels(labels_path)

    m = views[0].shape[0]
    for i, X in enumerate(views, start=1):
        if X.shape[0] != m:
            raise DataLoadError(
                f"{directory / f'view_{i}.csv'}: has {X.shape[0]} rows, "
                f"view_1.csv has {m}"
            )
    if labels.shape[0] != m:
        raise DataLoadError(
            f"{labels_path}: has {labels.shape[0]} rows, views have {m}"
        )

    name = directory.name
    classes = int(labels.max()) + 1
    meta_path = directory / "meta.json"
    if meta_path.exists():
        with open(meta_path, encoding="utf-8") as fh:
            meta = json.load(fh)
        classes = int(meta.get("classes", classes))
        name = meta.get("name", name)
    if labels.min() < 0 or labels.max() >= classes:
        raise DataLoadError(
            f"{labels_path}: labels must lie in [0, {classes}), "
            f"found range [{labels.min()}, {labels.max()}]"
        )
    return MultiViewDataset(views, labels, classes, name)


def save_dataset(directory, dataset: MultiViewDataset) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for i, X in enumerate(dataset.views, start=1):
        np.savetxt(directory / f"view_{i}.csv", X, delimiter=",", fmt="%.17g")
    np.savetxt(directory / "labels.csv", dataset.labels, fmt="%d")
    with open(directory / "meta.json", "w", encoding="utf-8") as fh:
        json.dump({"classes": dataset.classes, "name": dataset.name}, fh)


def make_split(dataset: MultiViewDataset, spec: SplitSpec) -> np.ndarray:
    """Indices of the labeled subset, drawn deterministically from the seed.

    Stratified draws give each class a quota proportional to its frequency
    (largest-remainder rounding) and never less than one sample.
    """
    if not 0 < spec.ratio < 1:
        raise ParameterError(f"label ratio must be in (0, 1), got {spec.ratio}")
    m = dataset.num_samples
    total = int(round(spec.ratio * m))
    rng = np.random.default_rng(spec.seed)

    if not spec.stratified:
        return np.sort(rng.choice(m, size=max(total, 1), replace=False))

    if spec.ratio * m < dataset.classes:
        raise ParameterError(
            f"ratio {spec.ratio} yields fewer labeled samples than the "
            f"{dataset.classes} classes require"
        )
    quotas = {}
    remainders = {}
    for c in range(dataset.classes):
        count = int(np.sum(dataset.labels == c))
        if count == 0:
            raise ParameterError(f"class {c} has no samples to stratify over")
        exact = spec.ratio * count
        quotas[c] = int(exact)
        remainders[c] = exact - quotas[c]
    short = total - sum(quotas.values())
    for c in sorted(remainders, key=lambda c: (-remainders[c], c))[:max(short, 0)]:
        quotas[c] += 1
    for c in quotas:
        quotas[c] = max(quotas[c], 1)

    chosen = []
    for c in range(dataset.classes):
        pool = np.flatnonzero(dataset.labels == c)
        chosen.append(rng.choice(pool, size=min(quotas[c], pool.size), replace=False))
    return np.sort(np.concatenate(chosen))


def save_split(path, indices, spec: SplitSpec) -> None:
    payload = {
        "indices": [int(i) for i in indices],
        "ratio": spec.ratio,
        "seed": spec.seed,
        "stratified": spec.stratified,
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def load_split(path) -> tuple[np.ndarray, SplitSpec]:
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    for key in ("indices", "ratio", "seed", "stratified"):
        if key not in payload:
            raise DataLoadError(f"{path}: split file is missing field {key!r}")
    spec = SplitSpec(payload["ratio"], payload["seed"], payload["stratified"])
    return np.array(payload["indices"], dtype=int), spec


def standardize_columns(X: np.ndarray) -> np.ndarray:
    """Zero mean, unit variance per column; constant columns just recenter."""
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std[std == 0] = 1.0
    return (X - mean) / std


def make_synthetic(
    m: int,
    num_views: int,
    classes: int,
    noise: float,
    seed: int,
    latent_dim: int = 8,
    features_per_view: int = 10,
    separation: float = 2.6,
    within_spread: float = 1.0,
    boundary_fraction: float = 0.1,
    boundary_span: tuple[float, float] = (0.25, 0.45),
    clump_fraction: float = 0.03,
    clump_spread: float = 0.25,
) -> MultiViewDataset:
    """Gaussian clusters observed through independent noisy projections.

    Each sample has a latent position (its class center plus within-cluster
    spread); every view projects the latent space through its own random
    linear map and adds view-specific Gaussian noise of the given scale.

    Two kinds of contamination are planted so the task is not a pure
    blob-recovery exercise. A ``boundary_fraction`` slice of each class
    drifts along the line toward the next class (position drawn from
    ``boundary_span``, as a fraction of the center-to-center segment),
    producing sparse cross-class edges between otherwise ordinary samples.
    A tight mixed-label clump of ``clump_fraction * m`` samples sits at the
    centroid of all class centers, producing a dense hub whose edges are
    uninformative. Both groups keep their original labels. Set the
    fractions to zero for clean blobs.
    """
    if classes < 2:
        raise ParameterError(f"need at least 2 classes, got {classes}")
    if m < 2 * classes:
        raise ParameterError(f"need at least {2 * classes} samples, got {m}")
    if num_views < 1:
        raise ParameterError(f"need at least one view, got {num_views}")
    if noise < 0:
        raise ParameterError(f"noise must be non-negative, got {noise}")
    if not 0 <= boundary_fraction < 0.5:
        raise ParameterError(f"boundary_fraction must be in [0, 0.5), got {boundary_fraction}")
    lo, hi = boundary_span
    if not 0 <= lo <= hi < 1:
        raise ParameterError(f"boundary_span must satisfy 0 <= lo <= hi < 1, got {boundary_span}")
    if not 0 <= clump_fraction < 0.5:
        raise ParameterError(f"clump_fraction must be in [0, 0.5), got {clump_fraction}")
    if clump_spread < 0:
        raise ParameterError(f"clump_spread must be non-negative, got {clump_spread}")

    rng = np.random.default_rng(seed)
    counts = [m // classes + (1 if c < m % classes else 0) for c in range(classes)]
    labels = rng.permutation(np.repeat(np.arange(classes), counts))
    centers = separation * rng.normal(size=(classes, latent_dim))
    latent = centers[labels] + within_spread * rng.normal(size=(m, latent_dim))

    for c in range(classes):
        partner = (c + 1) % classes
        idx = np.flatnonzero(labels == c)
        drifters = int(boundary_fraction * idx.size)
        if drifters == 0:
            continue
        chosen = rng.choice(idx, size=drifters, replace=False)
        t = rng.uniform(lo, hi, size=drifters)[:, None]
        latent[chosen] = (
            (1 - t) * centers[c]
            + t * centers[partner]
            + within_spread * rng.normal(size=(drifters, latent_dim))
        )

    clump_size = int(round(clump_fraction * m))
    if clump_size:
        clump = rng.choice(m, size=clump_size, replace=False)
        anchor = centers.mean(axis=0)
        latent[clump] = anchor + clump_spread * within_spread * rng.normal(
            size=(clump_size, latent_dim)
        )

    views = []
    for _ in range(num_views):
        projection = rng.normal(size=(latent_dim, features_per_view)) / np.sqrt(latent_dim)
        X = latent @ projection + noise * rng.normal(size=(m, features_per_view))
        views.append(X)
    return MultiViewDataset(views, labels, classes, name=f"synthetic-{seed}")
