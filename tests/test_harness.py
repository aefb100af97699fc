import json
import os

import numpy as np
import pytest

from torqueprune.config import ConfigError, parse_config, with_overrides
from torqueprune import harness
from torqueprune.harness import (
    METRICS_COLUMNS,
    NumericalAbort,
    dataset_for,
    evaluate,
    finetune,
    load_checkpoint,
    run_pipeline,
    sweep,
    train,
)
from torqueprune.model import build_model
from torqueprune.pruner import UnreachableTargetError, count_macs
from torqueprune.tensor import Tensor

TOY = """
arch = mlp:2-16-2
dataset = two_spirals
dataset_size = 120
epochs = 3
batch_size = 32
lr = 0.1
"""


def toy_config(extra=""):
    return parse_config(TOY + extra)


# ---------------------------------------------------------------- train


def test_scheme_none_penalty_column_zero():
    result = train(toy_config())
    assert all(r.penalty_value == 0.0 for r in result.metrics)
    assert all(r.total_loss == r.task_loss for r in result.metrics)


def test_train_determinism():
    cfg = toy_config("scheme = exponential_etp\nreg_coefficient = 1e-3\n")
    a = train(cfg)
    b = train(cfg)
    assert a.metrics == b.metrics
    assert a.trajectory == b.trajectory
    for la, lb in zip(a.model.layers, b.model.layers):
        assert la.weight.data.tobytes() == lb.weight.data.tobytes()


def test_metrics_identity_every_row():
    cfg = toy_config("scheme = linear_torque\nreg_coefficient = 5e-3\n")
    result = train(cfg)
    for r in result.metrics:
        assert abs(r.total_loss - (r.task_loss + cfg.reg_coefficient * r.penalty_value)) <= 1e-9
        assert r.penalty_value > 0.0


def test_inactive_regularizer_matches_none_exactly():
    # shared init + batch order: beta = 0 must reproduce the base run bit-for-bit
    none_run = train(toy_config())
    l1_zero = train(toy_config("scheme = l1\nreg_coefficient = 0\n"))
    for a, b in zip(none_run.metrics, l1_zero.metrics):
        assert a.task_loss == b.task_loss
        assert a.train_accuracy == b.train_accuracy
        assert b.penalty_value > 0.0  # magnitude still reported, just unused
        assert b.total_loss == b.task_loss
    for la, lb in zip(none_run.model.layers, l1_zero.model.layers):
        assert la.weight.data.tobytes() == lb.weight.data.tobytes()


def test_numerical_abort_diagnostics():
    cfg = with_overrides(toy_config(), lr=1e8, epochs=8)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalAbort) as err:
            train(cfg)
    assert err.value.epoch >= 1
    assert err.value.step >= 0
    assert "epoch" in str(err.value)


def test_finetune_numerical_abort():
    cfg = with_overrides(toy_config(), lr=1e8, finetune_epochs=8)
    with np.errstate(all="ignore"):
        with pytest.raises(NumericalAbort) as err:
            finetune(cfg, build_model(cfg.arch, seed=0), dataset_for(cfg))
    assert err.value.epoch >= 1
    assert err.value.step >= 0


def test_trajectory_period_and_identities():
    cfg = with_overrides(toy_config("log_norms_every = 2\n"), epochs=5)
    result = train(cfg)
    assert [t["epoch"] for t in result.trajectory] == [2, 4, 5]
    first = [(g["layer"], g["group"], g["index"], g["distance"]) for g in result.trajectory[0]["groups"]]
    for entry in result.trajectory[1:]:
        assert [(g["layer"], g["group"], g["index"], g["distance"]) for g in entry["groups"]] == first
    for entry in result.trajectory:
        assert all(g["norm"] >= 0.0 for g in entry["groups"])
    assert len(first) == 18  # 16 hidden + 2 output groups


def test_regression_metrics_fields():
    cfg = parse_config(
        """
        arch = mlp:1-8-1
        dataset = sine_regression
        dataset_size = 80
        epochs = 2
        batch_size = 16
        """
    )
    result = train(cfg)
    for r in result.metrics:
        assert r.train_accuracy is None
        assert r.train_mae is not None and r.train_mae >= 0.0
        assert r.train_mse is not None and r.train_mse >= 0.0


# ---------------------------------------------------------------- evaluate


def identity_model(width):
    model = build_model(f"mlp:{width}-{width}", seed=0)
    model.layers[0].weight.data[:] = np.eye(width)
    model.layers[0].bias.data[:] = 0.0
    return model


def test_evaluate_perfect_classifier():
    model = identity_model(2)
    x = np.array([[5.0, 0.0], [0.0, 5.0], [5.0, 0.0]])
    y = np.array([0, 1, 0])
    assert evaluate(model, x, y, "classification") == 1.0


def test_evaluate_constant_classifier_on_balanced_set():
    model = identity_model(2)
    model.layers[0].weight.data[:] = 0.0
    model.layers[0].bias.data[:] = [1.0, 0.0]
    x = np.zeros((10, 2))
    y = np.array([0, 1] * 5)
    assert evaluate(model, x, y, "classification") == 0.5


def test_evaluate_regression_hand_values():
    model = identity_model(1)
    x = np.array([[1.0], [2.0], [3.0]])
    targets = np.array([[2.0], [2.0], [5.0]])
    mae, mse = evaluate(model, x, targets, "regression")
    assert mae == pytest.approx(1.0, abs=1e-12)
    assert mse == pytest.approx(5.0 / 3.0, abs=1e-12)
    mae0, mse0 = evaluate(model, x, x.copy(), "regression")
    assert mae0 == 0.0 and mse0 == 0.0


def test_evaluate_shape_mismatch():
    with pytest.raises(ConfigError):
        evaluate(identity_model(2), np.zeros((3, 2)), np.zeros(4), "classification")


# ---------------------------------------------------------------- pipeline


def test_pipeline_scheme_none_is_inert(tmp_path):
    cfg = toy_config(f"prune_threshold = 1e-12\nout_dir = {tmp_path}/run\n")
    result = run_pipeline(cfg)
    assert result.row["speedup"] == 1.0
    assert result.row["metric_drop"] == 0.0
    assert result.row["groups_removed"] == 0
    assert result.row["total_groups"] == 18
    # scheme none reuses the base run rather than retraining
    assert result.regularized is result.base


def test_pipeline_budget_meets_target(tmp_path):
    cfg = toy_config(
        f"scheme = exponential_etp\nreg_coefficient = 1e-3\n"
        f"prune_mode = budget\nprune_target = 2.0\nout_dir = {tmp_path}/run\n"
    )
    result = run_pipeline(cfg)
    assert result.row["speedup"] >= 2.0
    assert result.plan.mode == "budget"
    assert count_macs(result.base.model).total / count_macs(result.pruned).total == result.row["speedup"]


def test_pipeline_writes_documented_files(tmp_path):
    out = tmp_path / "files"
    cfg = toy_config(f"scheme = l1\nreg_coefficient = 1e-3\nout_dir = {out}\n")
    run_pipeline(cfg)
    for name in (
        "summary.csv", "metrics.csv", "base_metrics.csv", "norms.jsonl",
        "model_base.json", "model_regularized.json", "model_pruned.json", "plan.json",
    ):
        assert (out / name).exists(), name


def test_pipeline_drop_recomputable_from_checkpoints(tmp_path):
    out = tmp_path / "ck"
    cfg = toy_config(f"scheme = exponential_etp\nreg_coefficient = 1e-3\nout_dir = {out}\n")
    result = run_pipeline(cfg)
    base = load_checkpoint(out / "model_base.json")
    pruned = load_checkpoint(out / "model_pruned.json")
    dataset = result.base.dataset
    base_acc = evaluate(base, dataset.test_x, dataset.test_y, dataset.task)
    pruned_acc = evaluate(pruned, dataset.test_x, dataset.test_y, dataset.task)
    assert base_acc == pytest.approx(result.row["base_metric"], abs=1e-12)
    assert pruned_acc == pytest.approx(result.row["pruned_metric"], abs=1e-12)
    assert result.row["metric_drop"] == pytest.approx(pruned_acc - base_acc, abs=1e-12)


def test_pipeline_finetune_column(tmp_path):
    out = tmp_path / "ft"
    cfg = toy_config(f"scheme = l1\nreg_coefficient = 1e-3\nfinetune_epochs = 2\nout_dir = {out}\n")
    result = run_pipeline(cfg)
    assert "finetuned_metric" in result.row
    header = (out / "summary.csv").read_text().splitlines()[2]
    assert header.endswith("finetuned_metric")
    assert (out / "model_finetuned.json").exists()
    # no fine-tuning requested -> no column
    cfg2 = toy_config(f"out_dir = {out}2\n")
    row2 = run_pipeline(cfg2).row
    assert "finetuned_metric" not in row2


def test_pipeline_regression_uses_mse(tmp_path):
    cfg = parse_config(
        f"""
        arch = mlp:1-8-1
        dataset = sine_regression
        dataset_size = 80
        epochs = 2
        batch_size = 16
        scheme = l1
        reg_coefficient = 1e-4
        out_dir = {tmp_path}/reg
        """
    )
    result = run_pipeline(cfg)
    dataset = result.base.dataset
    _, base_mse = evaluate(dataset and result.base.model, dataset.test_x, dataset.test_y, "regression")
    assert result.row["base_metric"] == pytest.approx(base_mse, abs=1e-12)


def test_pipeline_rerun_byte_identical(tmp_path):
    out = tmp_path / "det"
    cfg = toy_config(f"scheme = exponential_etp\nreg_coefficient = 1e-3\nout_dir = {out}\n")
    run_pipeline(cfg)
    first = {name: (out / name).read_bytes() for name in os.listdir(out)}
    for name in first:
        (out / name).unlink()
    run_pipeline(cfg)
    second = {name: (out / name).read_bytes() for name in os.listdir(out)}
    assert first == second


# ---------------------------------------------------------------- output formats


def test_metrics_csv_structure(tmp_path):
    out = tmp_path / "m"
    cfg = toy_config(f"out_dir = {out}\n")
    run_pipeline(cfg)
    lines = (out / "metrics.csv").read_text().splitlines()
    assert lines[0].startswith("# config_hash=")
    assert lines[1].startswith("# seed=")
    assert lines[2] == ",".join(METRICS_COLUMNS)
    assert len(lines) == 3 + cfg.epochs
    row = lines[3].split(",")
    assert int(row[0]) == 1
    assert row[5] != ""  # train_accuracy filled for classification
    assert row[6] == "" and row[7] == ""  # mae/mse blank


def test_trajectory_jsonl_schema(tmp_path):
    out = tmp_path / "j"
    cfg = toy_config(f"scheme = exponential_etp\nreg_coefficient = 1e-3\nout_dir = {out}\n")
    run_pipeline(cfg)
    lines = (out / "norms.jsonl").read_text().splitlines()
    head = json.loads(lines[0])
    assert set(head) == {"config_hash", "seed", "data_seed", "indexing_seed"}
    for line in lines[1:]:
        entry = json.loads(line)
        assert set(entry) == {"epoch", "groups"}
        assert isinstance(entry["epoch"], int)
        for g in entry["groups"]:
            assert set(g) == {"layer", "group", "index", "distance", "norm"}
    assert [json.loads(l)["epoch"] for l in lines[1:]] == [1, 2, 3]


# ---------------------------------------------------------------- sweep


def test_sweep_rows_and_order(tmp_path):
    cfg = toy_config(f"scheme = exponential_etp\nprune_threshold = 1e-9\nout_dir = {tmp_path}/sw\n")
    rows = sweep(cfg, [1e-3, 0.0, 1e-4])
    assert len(rows) == 3
    assert all(r["status"] == "ok" for r in rows)
    speedups = [r["speedup"] for r in rows]
    assert speedups == sorted(speedups)
    assert {r["beta"] for r in rows} == {0.0, 1e-4, 1e-3}
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert lines[2].endswith(",status")
    assert len(lines) == 3 + 3


def test_sweep_beta_zero_row_is_unit_speedup(tmp_path):
    cfg = toy_config(f"scheme = exponential_etp\nprune_threshold = 1e-12\nout_dir = {tmp_path}/z\n")
    rows = sweep(cfg, [0.0], write=False)
    assert rows[0]["speedup"] == 1.0


def test_sweep_records_failures_and_continues(tmp_path):
    cfg = toy_config(
        f"scheme = exponential_etp\nreg_coefficient = 1e-3\n"
        f"prune_mode = budget\nprune_target = 1e9\nout_dir = {tmp_path}/f\n"
    )
    rows = sweep(cfg, [1e-4, 1e-3])
    assert len(rows) == 2
    assert all(r["status"] == "failed:UnreachableTargetError" for r in rows)
    assert all("speedup" not in r for r in rows)
    lines = (tmp_path / "f" / "sweep.csv").read_text().splitlines()
    assert lines[-1].endswith("failed:UnreachableTargetError")


def test_sweep_trains_one_shared_base(monkeypatch):
    schemes = []
    real_train = harness.train

    def counting_train(cfg, dataset=None):
        schemes.append(cfg.scheme)
        return real_train(cfg, dataset)

    monkeypatch.setattr(harness, "train", counting_train)
    betas = [1e-4, 1e-3, 0.0]
    rows = sweep(toy_config("scheme = l1\n"), betas, write=False)
    assert all(r["status"] == "ok" for r in rows)
    assert len(schemes) == len(betas) + 1
    assert schemes.count("none") == 1


def test_sweep_base_abort_fails_every_row():
    cfg = with_overrides(toy_config("scheme = l1\n"), lr=1e8, epochs=8)
    with np.errstate(all="ignore"):
        rows = sweep(cfg, [1e-4, 1e-3], write=False)
    assert [r["status"] for r in rows] == ["failed:NumericalAbort"] * 2


def test_sweep_empty_grid_rejected():
    with pytest.raises(ConfigError):
        sweep(toy_config(), [])
