"""Flat key = value run configuration.

One assignment per line, ``#`` starts a comment, unknown keys are rejected
by name.  Every field has a default except ``arch`` and ``dataset``; the
resolved config hashes to a stable digest that output-file headers carry so
any artifact can be traced back to its exact configuration.

The mappers ``optimizer_for``, ``schedule_for`` and ``regularizer_spec``
build each training component from a config.  Each component checks its
own settings, and ``validate_config`` builds them once, so a config that
could not train is rejected when it loads.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace

import numpy as np

from .model import ConstructionError, assign_indexing, parse_arch
from .optim import LrSchedule, Optimizer
from .regularizers import RegularizerSpec
from .tensor import ContractError


class ConfigError(ValueError):
    """A run configuration is missing, malformed, or inconsistent."""


PRUNE_MODES = ("threshold", "budget")
SCHEDULE_UNITS = ("epoch", "step")
TASK_KINDS = ("classification", "regression")


@dataclass
class TrainConfig:
    # what to train on
    arch: str = ""
    dataset: str = ""  # generator name or csv:<path>
    dataset_size: int = 1000
    noise: float | None = None  # generator default when unset
    data_seed: int | None = None  # defaults to seed
    classes: int = 4  # gaussian_blobs
    separation: float = 5.0  # gaussian_blobs
    task: str = "classification"  # csv datasets only; generators know their task
    # training loop
    epochs: int = 50
    batch_size: int = 32
    optimizer: str = "sgd_momentum"
    lr: float = 0.05
    momentum: float = 0.9
    betas: tuple[float, float] = (0.9, 0.999)
    weight_decay: float = 0.0
    schedule: str = "constant"
    milestones: tuple[int, ...] = (60, 80)
    gamma: float = 0.1
    step_size: int = 30
    t_max: int = 0  # 0 means the whole run, in the schedule's unit
    warmup_fraction: float = 0.1
    schedule_unit: str = "epoch"
    # regularizer
    scheme: str = "none"
    reg_coefficient: float = 0.0
    exp_base: float | None = None  # None = per-layer auto rule
    heaviside_threshold: float | None = None
    heaviside_force: float | None = None
    indexing: str = "natural"
    indexing_seed: int | None = None  # defaults to seed
    penalize_output: bool = False  # regularize the classifier/output layer too
    # pruning
    prune_mode: str = "threshold"
    prune_threshold: float = 1e-3
    prune_target: float = 2.0
    finetune_epochs: int = 0
    # bookkeeping
    seed: int = 0
    out_dir: str = "runs"
    log_norms_every: int = 1

    # -- derived accessors --

    @property
    def effective_data_seed(self) -> int:
        return self.seed if self.data_seed is None else self.data_seed

    @property
    def effective_indexing_seed(self) -> int:
        return self.seed if self.indexing_seed is None else self.indexing_seed


_TYPES = {f.name: f.type for f in fields(TrainConfig)}  # annotation strings, e.g. "float | None"
_FLOAT_KEYS = {key for key, kind in _TYPES.items() if "float" in kind}


def _parse_value(key: str, raw: str):
    kind = _TYPES[key]
    try:
        if kind == "tuple[int, ...]":
            return tuple(int(p) for p in raw.split(",") if p.strip() != "")
        if kind == "tuple[float, float]":
            parts = tuple(float(p) for p in raw.split(","))
            if len(parts) != 2:
                raise ValueError("expected two comma-separated floats")
            return parts
        if kind == "bool":
            if raw not in ("true", "false"):
                raise ValueError("expected true or false")
            return raw == "true"
        if kind.startswith("int"):
            return int(raw)
        if kind.startswith("float"):
            return None if key == "exp_base" and raw == "auto" else float(raw)
    except ValueError as exc:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} ({exc})") from None
    return raw  # string keys pass through


def parse_config(text: str) -> TrainConfig:
    """Parse flat key = value text into a validated TrainConfig."""
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value', got {line!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip()
        if key not in _TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"duplicate config key {key!r}")
        values[key] = _parse_value(key, raw)
    cfg = TrainConfig(**values)
    validate_config(cfg)
    return cfg


def load_config(path) -> TrainConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path!r}: {exc}") from None
    return parse_config(text)


def validate_config(cfg: TrainConfig) -> None:
    if not cfg.arch:
        raise ConfigError("missing required config key 'arch'")
    for key in sorted(_FLOAT_KEYS):
        value = getattr(cfg, key)
        if value is not None and not np.isfinite(value).all():
            raise ConfigError(f"config key {key!r}: must be finite, got {value}")
    if not cfg.dataset:
        raise ConfigError("missing required config key 'dataset'")
    if cfg.epochs < 1:
        raise ConfigError(f"config key 'epochs': must be >= 1, got {cfg.epochs}")
    if cfg.batch_size < 1:
        raise ConfigError(f"config key 'batch_size': must be >= 1, got {cfg.batch_size}")
    if cfg.dataset_size < 1:
        raise ConfigError(f"config key 'dataset_size': must be >= 1, got {cfg.dataset_size}")
    for key in ("seed", "data_seed", "indexing_seed", "finetune_epochs", "t_max"):  # t_max = 0 means the whole run
        value = getattr(cfg, key)
        if value is not None and value < 0:
            raise ConfigError(f"config key {key!r}: must be >= 0, got {value}")
    if cfg.noise is not None and cfg.noise < 0:
        raise ConfigError(f"config key 'noise': must be >= 0, got {cfg.noise}")
    if cfg.log_norms_every < 1:
        raise ConfigError(f"config key 'log_norms_every': must be >= 1, got {cfg.log_norms_every}")
    if cfg.schedule_unit not in SCHEDULE_UNITS:
        raise ConfigError(f"config key 'schedule_unit': {cfg.schedule_unit!r} not in {SCHEDULE_UNITS}")
    if cfg.prune_mode not in PRUNE_MODES:
        raise ConfigError(f"config key 'prune_mode': {cfg.prune_mode!r} not in {PRUNE_MODES}")
    if cfg.task not in TASK_KINDS:
        raise ConfigError(f"config key 'task': {cfg.task!r} not in {TASK_KINDS}")
    # the planners need a model to check these, so they are checked here
    if cfg.prune_threshold < 0:
        raise ConfigError(f"config key 'prune_threshold': must be >= 0, got {cfg.prune_threshold}")
    if cfg.prune_target < 1.0:
        raise ConfigError(f"config key 'prune_target': must be >= 1, got {cfg.prune_target}")
    if not cfg.dataset.startswith("csv:"):
        # generator names are validated here; csv paths are checked at load time
        from .datasets import GENERATOR_NAMES

        if cfg.dataset not in GENERATOR_NAMES:
            raise ConfigError(
                f"config key 'dataset': {cfg.dataset!r} is neither csv:<path> nor one of {GENERATOR_NAMES}"
            )
    try:
        parse_arch(cfg.arch)
    except ConstructionError as exc:
        raise ConfigError(f"config key 'arch': {exc}") from None
    # each component checks its own settings; building them here fails a config before any training
    try:
        optimizer_for(cfg, ())
        schedule_for(cfg, 1)
        regularizer_spec(cfg)
        assign_indexing(1, cfg.indexing)
    except (ContractError, ConstructionError) as exc:
        raise ConfigError(f"config: {exc}") from None


def optimizer_for(cfg: TrainConfig, params) -> Optimizer:
    return Optimizer(
        params,
        kind=cfg.optimizer,
        lr=cfg.lr,
        momentum=cfg.momentum,
        betas=cfg.betas,
        weight_decay=cfg.weight_decay,
    )


def schedule_for(cfg: TrainConfig, steps_per_epoch: int) -> LrSchedule:
    total = cfg.epochs * steps_per_epoch if cfg.schedule_unit == "step" else cfg.epochs
    return LrSchedule(
        kind=cfg.schedule,
        milestones=cfg.milestones,
        gamma=cfg.gamma,
        step_size=cfg.step_size,
        t_max=cfg.t_max or total,
        warmup_fraction=cfg.warmup_fraction,
        total_steps=total,
    )


def regularizer_spec(cfg: TrainConfig) -> RegularizerSpec:
    return RegularizerSpec(
        scheme=cfg.scheme,
        reg_coefficient=cfg.reg_coefficient,
        exp_base=cfg.exp_base,
        heaviside_threshold=cfg.heaviside_threshold,
        heaviside_force=cfg.heaviside_force,
    )


def config_hash(cfg: TrainConfig) -> str:
    """Stable digest of the fully-resolved configuration.

    ``out_dir`` is excluded: it names where results land, not what the
    experiment is, so relocated reruns stay byte-identical.
    """
    lines = []
    for f in sorted(fields(cfg), key=lambda f: f.name):
        if f.name == "out_dir":
            continue
        lines.append(f"{f.name}={getattr(cfg, f.name)!r}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:16]


def with_overrides(cfg: TrainConfig, **overrides) -> TrainConfig:
    """Copy the config with some fields replaced (CLI flags, sweeps)."""
    out = replace(cfg, **overrides)
    validate_config(out)
    return out
