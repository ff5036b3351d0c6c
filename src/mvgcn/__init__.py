"""Multi-view graph convolutional classification.

Per-view KNN graphs are fused through trainable view weights, refined by a
learned shrinkage mask, pruned by differentiable node selection, and fed to
a two-layer graph convolution, all trained end-to-end on a hand-rolled
reverse-mode tape. ``mvgcn.autodiff`` holds the tape and the generic
ops the model records; the stages record their own ops on it.
"""

from .autodiff import Node, Tape
from .config import (
    RunConfig,
    config_from_dict,
    config_to_dict,
    load_config,
    validate_config,
)
from .data import (
    MultiViewDataset,
    SplitSpec,
    load_dataset,
    load_split,
    make_split,
    make_synthetic,
    save_dataset,
    save_split,
    standardize_columns,
)
from .errors import (
    ConfigError,
    DataLoadError,
    DomainError,
    ParameterError,
    ShapeError,
    TrainingError,
)
from .experiment import (
    RepeatMetrics,
    RunOutcome,
    feature_matrix,
    forward_settings,
    prepare_graphs,
    run_ablation,
    run_repeats,
    run_single,
    run_sweep,
)
from .fusion import FusionResult, edge_support, fuse_views, init_fusion_weights
from .graph_learning import init_glm_params, refine_graph
from .graphs import METRICS, EdgeSupport, Graph, build_knn_graph, renormalize
from .model import (
    ForwardPass,
    ModelState,
    TrainResult,
    adam_step,
    evaluate,
    forward,
    init_model,
    load_checkpoint,
    masked_cross_entropy,
    one_hot,
    predict,
    save_checkpoint,
    train,
)
from .selection import (
    SelectionResult,
    dcg_confidence,
    differentiable_node_selection,
    hard_topk_baseline,
    relaxed_permutation,
)

__version__ = "0.1.0"

__all__ = [
    "Node",
    "Tape",
    "RunConfig",
    "config_from_dict",
    "config_to_dict",
    "load_config",
    "validate_config",
    "MultiViewDataset",
    "SplitSpec",
    "load_dataset",
    "load_split",
    "make_split",
    "make_synthetic",
    "save_dataset",
    "save_split",
    "standardize_columns",
    "ConfigError",
    "DataLoadError",
    "DomainError",
    "ParameterError",
    "ShapeError",
    "TrainingError",
    "RepeatMetrics",
    "RunOutcome",
    "feature_matrix",
    "forward_settings",
    "prepare_graphs",
    "run_ablation",
    "run_repeats",
    "run_single",
    "run_sweep",
    "FusionResult",
    "edge_support",
    "fuse_views",
    "init_fusion_weights",
    "init_glm_params",
    "refine_graph",
    "METRICS",
    "EdgeSupport",
    "Graph",
    "build_knn_graph",
    "renormalize",
    "ForwardPass",
    "ModelState",
    "TrainResult",
    "adam_step",
    "evaluate",
    "forward",
    "init_model",
    "load_checkpoint",
    "masked_cross_entropy",
    "one_hot",
    "predict",
    "save_checkpoint",
    "train",
    "SelectionResult",
    "dcg_confidence",
    "differentiable_node_selection",
    "hard_topk_baseline",
    "relaxed_permutation",
    "__version__",
]
