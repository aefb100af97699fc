"""Experiment driver: train, evaluate, prune, summarize.

``train`` runs the seeded mini-batch loop and records per-epoch metrics
plus a per-group norm trajectory.  ``run_pipeline`` trains an
unregularized base and a regularized twin on identical data/seeds, prunes
the twin, and emits one summary row.  ``sweep`` repeats the pipeline over
a coefficient grid.  All outputs are deterministic: same config, same
bytes.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .config import ConfigError, TrainConfig, config_hash, optimizer_for, regularizer_spec, schedule_for, with_overrides
from .datasets import Dataset, gen_dataset, load_csv_dataset
from .model import ModelGraph, build_model, group_norm_values, model_indexings
# The plain layer pass is bound to ``forward`` because the benchmark's step
# probe finds each training step, and counts its samples, by this name.
from .model import layers_bwd, layers_fwd as forward
# Optimizer is unused here; the benchmark's tracer hooks its step through this module
from .optim import LrSchedule, Optimizer, lr_at
from .pruner import UnreachableTargetError, accuracy_drop, apply_plan, count_macs, plan_by_budget, plan_by_threshold, speedup
from .regularizers import RegularizerSpec, loss_beta, model_penalty, penalty_bwd, penalty_fwd, penalty_weights, total_loss_fwd
from .tensor import class_labels, mse_loss_bwd, mse_loss_fwd, softmax_cross_entropy_bwd, softmax_cross_entropy_fwd
# Unused here since the step runs the plain passes: the benchmark's tracer wraps these by name here.
from .regularizers import total_loss
from .tensor import backward, softmax_cross_entropy

SUMMARY_COLUMNS = (
    "scheme", "beta", "seed", "base_metric", "pruned_metric",
    "metric_drop", "speedup", "groups_removed", "total_groups",
)


class NumericalAbort(RuntimeError):
    """Training hit a non-finite loss."""

    def __init__(self, epoch: int, step: int, value: float):
        self.epoch = epoch
        self.step = step
        self.value = value
        super().__init__(f"non-finite loss {value!r} at epoch {epoch}, step {step}")


@dataclass
class MetricsRecord:
    epoch: int
    step: int
    task_loss: float
    penalty_value: float
    total_loss: float
    train_accuracy: float | None
    train_mae: float | None
    train_mse: float | None
    current_lr: float


METRICS_COLUMNS = tuple(f.name for f in fields(MetricsRecord))


@dataclass
class TrainResult:
    model: ModelGraph
    indexings: list
    metrics: list
    trajectory: list  # [NormSnapshot, ...], one per logged epoch
    config: TrainConfig
    dataset: Dataset


# ---------------------------------------------------------------------------
# building blocks


def dataset_for(cfg: TrainConfig) -> Dataset:
    if cfg.dataset.startswith("csv:"):
        return load_csv_dataset(cfg.dataset[4:], cfg.task, size=cfg.dataset_size, seed=cfg.effective_data_seed)
    return gen_dataset(
        cfg.dataset,
        size=cfg.dataset_size,
        noise=cfg.noise,
        seed=cfg.effective_data_seed,
        classes=cfg.classes,
        separation=cfg.separation,
    )


def penalized_layers(cfg: TrainConfig, model: ModelGraph) -> list[int]:
    """Layer indices the regularizer acts on during training.

    By default the output layer is left alone: shrinking a classifier head
    below one row per class destroys the model outright, so only the layers
    that are actually prunable get pushed toward zero.
    """
    if cfg.penalize_output or len(model.layers) == 1:
        return list(range(len(model.layers)))
    return list(range(len(model.layers) - 1))


def penalty_value(spec: RegularizerSpec, model: ModelGraph, indexings, layers=None) -> float:
    """The penalty as a number; training logs the same value from each step's ``penalty_fwd``."""
    # training does not call it; kept by name because the benchmark's timing hooks wrap it
    return model_penalty(spec, model, indexings, layers).item()


def check_out_dir(path: str) -> None:
    """A ``ConfigError`` unless ``path`` is a directory or one can be made there; checked before any work."""
    ancestor = path
    while ancestor and not os.path.exists(ancestor):  # the nearest existing ancestor must be a directory
        ancestor = os.path.dirname(ancestor)
    if ancestor and not os.path.isdir(ancestor):
        why = "exists and is not" if ancestor == path else f"cannot be made: {ancestor!r} is not"
        raise ConfigError(f"out_dir {path!r} {why} a directory")


def _batch_input(x: np.ndarray, input_shape) -> np.ndarray:
    return x.reshape(x.shape[0], *input_shape) if len(input_shape) > 1 else x


def _check_dims(model: ModelGraph, dataset: Dataset) -> None:
    need = int(np.prod(model.input_shape))
    if need != dataset.input_dim:
        raise ConfigError(
            f"architecture consumes {need} features but dataset provides {dataset.input_dim}"
        )
    outputs = model.layers[-1].group_count
    if dataset.task == "classification" and outputs < dataset.n_classes:
        raise ConfigError(f"architecture has {outputs} outputs but dataset has {dataset.n_classes} classes")
    if dataset.task == "regression" and outputs != dataset.train_y.shape[1]:
        raise ConfigError(f"architecture has {outputs} outputs but dataset has {dataset.train_y.shape[1]} targets")


class NormSnapshot(NamedTuple):
    """The group norms of one logged epoch: every layer's groups, in order, as one float64 array."""

    epoch: int
    norms: np.ndarray


def norms_snapshot(model: ModelGraph, epoch: int) -> NormSnapshot:
    return NormSnapshot(epoch, np.concatenate(group_norm_values(model)))


# ---------------------------------------------------------------------------
# train / evaluate


def _score(out: np.ndarray, y: np.ndarray, classification: bool) -> tuple[float, float, float]:
    """Correct count, absolute-error sum and squared-error sum of one batch."""
    if classification:
        return float((np.argmax(out, axis=1) == y).sum()), 0.0, 0.0
    err = out - y
    return 0.0, float(np.abs(err).sum()), float((err * err).sum())


def _epochs(cfg, model, dataset, epochs, shuffle_seed, sched, spec, indexings, reg_layers):
    """The seeded mini-batch loop of ``train`` and ``finetune``: one MetricsRecord per epoch.

    Each step runs the plain passes of the library's training graph
    (``forward``, the task loss, ``penalty_fwd`` over distance weights
    computed once per run, ``total_loss_fwd``) and logs the task's and the
    penalty's values.  ``penalty_bwd``, then ``layers_bwd``, add their
    gradients into each ``.grad`` (the optimizer's view) with the bits
    ``backward`` gives through that graph; no node is built.  The step looks
    its functions up in this module, so hooks see every step.
    """
    opt = optimizer_for(cfg, model.parameters())
    n = dataset.train_x.shape[0]
    shuffle_rng = np.random.default_rng(shuffle_seed)
    classification = dataset.task == "classification"
    # the labels are checked once per run, not on every step
    ys = class_labels(dataset.train_y, (n, model.layers[-1].group_count)) if classification else dataset.train_y
    beta = loss_beta(spec)
    weights = penalty_weights(spec, model, indexings, reg_layers)
    step = 0
    for epoch in range(1, epochs + 1):
        order = shuffle_rng.permutation(n)
        task_sum = pen_sum = correct = abs_sum = sq_sum = 0.0
        lr = lr_at(sched, cfg.lr, epoch - 1)
        for start in range(0, n, cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            if cfg.schedule_unit == "step":
                lr = lr_at(sched, cfg.lr, step)
            opt.lr = lr
            x = _batch_input(dataset.train_x[idx], model.input_shape)
            y = ys[idx]
            out, saved = forward(model, x)
            task, *task_saved = softmax_cross_entropy_fwd(out, y) if classification else mse_loss_fwd(out, y)
            pen, pen_saved = penalty_fwd(model, weights)
            hits, abs_err, sq_err = _score(out, y, classification)
            correct += hits
            abs_sum += abs_err
            sq_sum += sq_err
            task, pen = float(task), float(pen)
            value = total_loss_fwd(task, pen, beta)
            if not math.isfinite(value):
                raise NumericalAbort(epoch, step, value)
            task_sum += task * len(idx)
            pen_sum += pen * len(idx)
            if beta:
                penalty_bwd(pen_saved, beta)
            layers_bwd(saved, softmax_cross_entropy_bwd(1.0, *task_saved) if classification else mse_loss_bwd(1.0, *task_saved))
            opt.step()
            step += 1
        task_mean = task_sum / n
        pen_mean = pen_sum / n
        yield MetricsRecord(
            epoch=epoch,
            step=step,
            task_loss=task_mean,
            penalty_value=pen_mean,
            total_loss=total_loss_fwd(task_mean, pen_mean, beta),
            train_accuracy=correct / n if classification else None,
            train_mae=None if classification else abs_sum / (n * dataset.train_y.shape[1]),
            train_mse=None if classification else sq_sum / (n * dataset.train_y.shape[1]),
            current_lr=lr,
        )
    model.zero_grad()  # a trained model keeps no gradient buffer


def train(cfg: TrainConfig, dataset: Dataset | None = None) -> TrainResult:
    """Seeded mini-batch training; deterministic in the config."""
    if dataset is None:
        dataset = dataset_for(cfg)
    model = build_model(cfg.arch, seed=cfg.seed)
    _check_dims(model, dataset)
    indexings = model_indexings(model, cfg.indexing, cfg.effective_indexing_seed)
    sched = schedule_for(cfg, math.ceil(dataset.train_x.shape[0] / cfg.batch_size))
    loop = _epochs(
        cfg, model, dataset, cfg.epochs, [cfg.seed, 11], sched,
        regularizer_spec(cfg), indexings, penalized_layers(cfg, model),
    )
    metrics: list[MetricsRecord] = []
    trajectory: list[NormSnapshot] = []
    for record in loop:
        metrics.append(record)
        if record.epoch % cfg.log_norms_every == 0 or record.epoch == cfg.epochs:
            trajectory.append(norms_snapshot(model, record.epoch))
    return TrainResult(model, indexings, metrics, trajectory, cfg, dataset)


def evaluate(model: ModelGraph, xs: np.ndarray, ys: np.ndarray, task: str, batch_size: int = 512):
    """Classification: accuracy.  Regression: (MAE, MSE)."""
    if xs.shape[0] != ys.shape[0]:
        raise ConfigError(f"evaluate received {xs.shape[0]} inputs but {ys.shape[0]} targets")
    n = xs.shape[0]
    classification = task == "classification"
    correct = abs_sum = sq_sum = 0.0
    for start in range(0, n, batch_size):
        x = _batch_input(xs[start : start + batch_size], model.input_shape)
        hits, abs_err, sq_err = _score(forward(model, x)[0], ys[start : start + batch_size], classification)
        correct += hits
        abs_sum += abs_err
        sq_sum += sq_err
    if classification:
        return correct / n
    count = n * ys.shape[1]
    return abs_sum / count, sq_sum / count


def evaluate_dataset(model: ModelGraph, dataset: Dataset):
    return evaluate(model, dataset.test_x, dataset.test_y, dataset.task)


def summary_metric(model: ModelGraph, dataset: Dataset) -> float:
    """The single number reported in summary rows: accuracy, or MSE for regression."""
    value = evaluate_dataset(model, dataset)
    return value if dataset.task == "classification" else value[1]


# ---------------------------------------------------------------------------
# output files


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _header_lines(cfg: TrainConfig) -> list:
    return [
        f"# config_hash={config_hash(cfg)}",
        f"# seed={cfg.seed} data_seed={cfg.effective_data_seed} indexing_seed={cfg.effective_indexing_seed}",
    ]


def write_metrics_csv(path, cfg: TrainConfig, metrics) -> None:
    lines = _header_lines(cfg)
    lines.append(",".join(METRICS_COLUMNS))
    for r in metrics:
        lines.append(",".join(_fmt(getattr(r, c)) for c in METRICS_COLUMNS))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_trajectory_jsonl(path, cfg: TrainConfig, trajectory, indexings) -> None:
    """One header line, then one line per snapshot with a row per group.

    A row's layer, group, index and distance come from the run's fixed
    ``indexings``; only its norm comes from the snapshot.
    """
    keys = [
        {"layer": l, "group": g, "index": index, "distance": distance}
        for l, idx in enumerate(indexings)
        for g, (index, distance) in enumerate(zip(idx.assigned_indices.tolist(), idx.distances.tolist()))
    ]
    head = {
        "config_hash": config_hash(cfg),
        "seed": cfg.seed,
        "data_seed": cfg.effective_data_seed,
        "indexing_seed": cfg.effective_indexing_seed,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(head) + "\n")
        for epoch, norms in trajectory:
            groups = [{**key, "norm": norm} for key, norm in zip(keys, norms.tolist(), strict=True)]
            fh.write(json.dumps({"epoch": epoch, "groups": groups}) + "\n")


def write_summary_csv(path, cfg: TrainConfig, rows, extra_columns=()) -> None:
    columns = SUMMARY_COLUMNS + tuple(extra_columns)
    lines = _header_lines(cfg)
    lines.append(",".join(columns))
    for row in rows:
        lines.append(",".join(_fmt(row.get(c)) for c in columns))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def save_checkpoint(path, model: ModelGraph) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(model.to_dict()) + "\n")


def load_checkpoint(path) -> ModelGraph:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return ModelGraph.from_dict(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read checkpoint {path!r}: {exc}") from None
    except (KeyError, TypeError, ValueError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"malformed checkpoint {path!r}: {exc}") from None


def save_plan(path, plan) -> None:
    record = {
        "mode": plan.mode,
        "threshold_used": plan.threshold_used,
        "predicted_speedup": plan.predicted_speedup,
        "removals": [list(r) for r in plan.removals],
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(record) + "\n")


# ---------------------------------------------------------------------------
# pipeline and sweep


def make_plan(cfg: TrainConfig, model: ModelGraph):
    if cfg.prune_mode == "threshold":
        return plan_by_threshold(model, cfg.prune_threshold)
    return plan_by_budget(model, cfg.prune_target)


def finetune(cfg: TrainConfig, model: ModelGraph, dataset: Dataset) -> ModelGraph:
    """Brief post-pruning training of the small model, no regularizer."""
    _check_dims(model, dataset)
    for _ in _epochs(cfg, model, dataset, cfg.finetune_epochs, [cfg.seed, 13], LrSchedule(), RegularizerSpec(), [], []):
        pass
    return model


@dataclass
class PipelineResult:
    row: dict
    base: TrainResult
    regularized: TrainResult
    pruned: ModelGraph
    plan: object
    finetuned: ModelGraph | None = None


def _base_config(cfg: TrainConfig) -> TrainConfig:
    return with_overrides(cfg, scheme="none", reg_coefficient=0.0)


def run_pipeline(cfg: TrainConfig, write: bool = True) -> PipelineResult:
    """Train base + regularized twins, prune the twin, evaluate both."""
    dataset = dataset_for(cfg)
    return _pipeline(cfg, dataset, train(_base_config(cfg), dataset), write)


def _pipeline(cfg: TrainConfig, dataset: Dataset, base: TrainResult, write: bool) -> PipelineResult:
    """Everything in a pipeline after the unregularized base is trained."""
    regularized = base if cfg.scheme == "none" else train(cfg, dataset)

    plan = make_plan(cfg, regularized.model)
    pruned = apply_plan(regularized.model, plan)
    base_metric = summary_metric(base.model, dataset)
    pruned_metric = summary_metric(pruned, dataset)

    row = {
        "scheme": cfg.scheme,
        "beta": cfg.reg_coefficient,
        "seed": cfg.seed,
        "base_metric": base_metric,
        "pruned_metric": pruned_metric,
        "metric_drop": accuracy_drop(base_metric, pruned_metric),
        "speedup": speedup(count_macs(base.model), count_macs(pruned)),
        "groups_removed": len(plan.removals),
        "total_groups": regularized.model.total_groups(),
    }
    finetuned = None
    extra = ()
    if cfg.finetune_epochs > 0:
        finetuned = finetune(cfg, apply_plan(regularized.model, plan), dataset)
        row["finetuned_metric"] = summary_metric(finetuned, dataset)
        extra = ("finetuned_metric",)

    if write:
        os.makedirs(cfg.out_dir, exist_ok=True)
        join = lambda name: os.path.join(cfg.out_dir, name)
        write_metrics_csv(join("base_metrics.csv"), base.config, base.metrics)
        write_metrics_csv(join("metrics.csv"), cfg, regularized.metrics)
        write_trajectory_jsonl(join("norms.jsonl"), cfg, regularized.trajectory, regularized.indexings)
        save_checkpoint(join("model_base.json"), base.model)
        save_checkpoint(join("model_regularized.json"), regularized.model)
        save_checkpoint(join("model_pruned.json"), pruned)
        if finetuned is not None:
            save_checkpoint(join("model_finetuned.json"), finetuned)
        save_plan(join("plan.json"), plan)
        write_summary_csv(join("summary.csv"), cfg, [row], extra_columns=extra)
    return PipelineResult(row, base, regularized, pruned, plan, finetuned)


def sweep(cfg: TrainConfig, betas, write: bool = True) -> list:
    """One pipeline per coefficient; only a coefficient's own failure becomes a row.

    Every coefficient is checked before any training.  A coefficient's
    ``NumericalAbort`` or ``UnreachableTargetError`` becomes a
    ``failed:<Error>`` row; any other error, a base-run abort included,
    fails the sweep as it fails a pipeline.  The base run never sees the
    coefficient (and ``out_dir`` is not part of a run's identity), so every
    coefficient shares one trained base.
    """
    subs = [
        with_overrides(cfg, reg_coefficient=float(beta), out_dir=os.path.join(cfg.out_dir, f"beta_{beta:.6g}"))
        for beta in betas
    ]
    if not subs:
        raise ConfigError("sweep needs a non-empty coefficient list")
    owners = {}  # out_dir -> the first coefficient's config that writes there
    for sub in subs:
        first = owners.setdefault(sub.out_dir, sub)
        if first is not sub:
            betas = f"{first.reg_coefficient!r} and {sub.reg_coefficient!r}"
            raise ConfigError(f"sweep coefficients {betas} would both write to {sub.out_dir!r}")
        if write:
            check_out_dir(sub.out_dir)
    dataset = dataset_for(cfg)
    base = train(_base_config(cfg), dataset)
    rows = []
    for sub in subs:
        try:
            row = dict(_pipeline(sub, dataset, base, write).row)
            row["status"] = "ok"
        except (NumericalAbort, UnreachableTargetError) as exc:
            row = {
                "scheme": cfg.scheme,
                "beta": sub.reg_coefficient,
                "seed": cfg.seed,
                "status": f"failed:{type(exc).__name__}",
            }
        rows.append(row)
    # achieved-speed-up order; failed rows (no speedup) sink to the end
    rows.sort(key=lambda r: (r.get("speedup") is None, r.get("speedup", 0.0), r["beta"]))
    if write:
        os.makedirs(cfg.out_dir, exist_ok=True)
        extra = ("finetuned_metric", "status") if cfg.finetune_epochs > 0 else ("status",)
        write_summary_csv(os.path.join(cfg.out_dir, "sweep.csv"), cfg, rows, extra_columns=extra)
    return rows
