"""Run configuration: one JSON file describes one reproducible experiment."""

import json
from dataclasses import asdict, dataclass, fields

from .errors import ConfigError
from .graphs import METRICS

DNS_MODES = ("soft", "hard-topk")


@dataclass
class RunConfig:
    k: int = 10
    metric: str = "euclidean"
    gamma: float = 1.0
    tau: float = 0.5
    hidden_dim: int = 64
    lr: float = 0.1
    epochs: int = 300
    label_ratio: float = 0.1
    repeats: int = 5
    seed: int = 0
    layers: int = 2
    glm: bool = True
    dns: bool = True
    dns_mode: str = "soft"
    stratified: bool = True


def validate_config(cfg: RunConfig, num_samples: int | None = None) -> RunConfig:
    """Range-check every field, naming the offender in the error.

    Given the sample count of the dataset the run will use, also check that
    ``k`` leaves each node a non-neighbor, as the KNN graphs need.
    """
    if num_samples is None:
        k_check = ("k", cfg.k >= 1, "must be >= 1")
    else:
        k_check = (
            "k",
            1 <= cfg.k < num_samples,
            f"must satisfy 1 <= k < {num_samples}, the dataset's sample count",
        )
    checks = [
        k_check,
        ("metric", cfg.metric in METRICS, f"must be one of {METRICS}"),
        ("gamma", cfg.gamma > 0, "must be positive"),
        ("tau", cfg.tau > 0, "must be positive"),
        ("hidden_dim", cfg.hidden_dim >= 1, "must be >= 1"),
        ("lr", cfg.lr > 0, "must be positive"),
        ("epochs", cfg.epochs >= 1, "must be >= 1"),
        ("label_ratio", 0 < cfg.label_ratio < 1, "must lie in (0, 1)"),
        ("repeats", cfg.repeats >= 1, "must be >= 1"),
        ("layers", cfg.layers >= 1, "must be >= 1"),
        ("dns_mode", cfg.dns_mode in DNS_MODES, f"must be one of {DNS_MODES}"),
    ]
    for name, ok, hint in checks:
        if not ok:
            raise ConfigError(f"config field {name!r} {hint}, got {getattr(cfg, name)!r}")
    return cfg


def config_from_dict(values: dict) -> RunConfig:
    known = {f.name for f in fields(RunConfig)}
    unknown = set(values) - known
    if unknown:
        raise ConfigError(f"unknown config field(s): {', '.join(sorted(unknown))}")
    return validate_config(RunConfig(**values))


def config_to_dict(cfg: RunConfig) -> dict:
    return asdict(cfg)


def load_config(path) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            values = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    return config_from_dict(values)
