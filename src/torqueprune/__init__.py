"""Distance-weighted group-sparsity training and structured pruning.

Train small networks with a regularizer that charges each parameter group
its L2 norm times a weight growing with the group's distance from a pivot
(linearly, or exponentially), then physically remove the groups whose
norms collapsed and measure speed-up versus metric drop.
"""

from .config import (
    ConfigError,
    TrainConfig,
    config_hash,
    load_config,
    parse_config,
    validate_config,
    with_overrides,
)
from .datasets import Dataset, gen_dataset, load_csv_dataset
from .harness import (
    MetricsRecord,
    NumericalAbort,
    TrainResult,
    dataset_for,
    evaluate,
    evaluate_dataset,
    make_plan,
    run_pipeline,
    summary_metric,
    sweep,
    train,
)
from .model import (
    ConstructionError,
    GroupIndexing,
    GroupedLayer,
    ModelGraph,
    assign_indexing,
    build_model,
    forward,
    group_norm_values,
    model_indexings,
    parse_arch,
)
from .optim import LrSchedule, Optimizer, lr_at
from .pruner import (
    MacsReport,
    PrunePlan,
    UnreachableTargetError,
    accuracy_drop,
    apply_plan,
    count_macs,
    plan_by_budget,
    plan_by_threshold,
    speedup,
)
from .regularizers import (
    BETA_GRID,
    RegularizerSpec,
    SCHEMES,
    distance_weight,
    model_penalty,
    penalty,
    resolve_exp_base,
    total_loss,
)
from .tensor import (
    ContractError,
    ShapeError,
    Tensor,
    backward,
    mse_loss,
    softmax_cross_entropy,
)

__version__ = "0.1.0"

__all__ = [
    "BETA_GRID",
    "ConfigError",
    "ConstructionError",
    "ContractError",
    "Dataset",
    "GroupIndexing",
    "GroupedLayer",
    "LrSchedule",
    "MacsReport",
    "MetricsRecord",
    "ModelGraph",
    "NumericalAbort",
    "Optimizer",
    "PrunePlan",
    "RegularizerSpec",
    "SCHEMES",
    "ShapeError",
    "Tensor",
    "TrainConfig",
    "TrainResult",
    "UnreachableTargetError",
    "accuracy_drop",
    "apply_plan",
    "assign_indexing",
    "backward",
    "build_model",
    "config_hash",
    "count_macs",
    "dataset_for",
    "distance_weight",
    "evaluate",
    "evaluate_dataset",
    "forward",
    "gen_dataset",
    "group_norm_values",
    "load_config",
    "load_csv_dataset",
    "lr_at",
    "make_plan",
    "model_indexings",
    "model_penalty",
    "parse_arch",
    "parse_config",
    "penalty",
    "plan_by_budget",
    "plan_by_threshold",
    "resolve_exp_base",
    "run_pipeline",
    "speedup",
    "sweep",
    "total_loss",
    "train",
    "with_overrides",
]
