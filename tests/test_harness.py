import gc
import json
import os
import tracemalloc

import numpy as np
import pytest

from torqueprune.config import ConfigError, parse_config, schedule_for, with_overrides
from torqueprune import harness
from torqueprune.harness import (
    METRICS_COLUMNS,
    NumericalAbort,
    dataset_for,
    evaluate,
    finetune,
    load_checkpoint,
    penalized_layers,
    run_pipeline,
    sweep,
    train,
)
from torqueprune.model import build_model, group_norm_values, model_indexings
from torqueprune.optim import lr_at
from torqueprune.regularizers import distance_weight
from torqueprune.pruner import UnreachableTargetError, count_macs
from torqueprune.tensor import Tensor

from oracles import norms_snapshot_rows

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


def test_trained_model_keeps_no_gradient_buffer():
    # each .grad is a view of the optimizer's gradient vector only while training runs
    assert all(p.grad is None for p in train(toy_config()).model.parameters())


def test_train_determinism():
    cfg = toy_config("scheme = exponential_etp\nreg_coefficient = 1e-3\n")
    a = train(cfg)
    b = train(cfg)
    assert a.metrics == b.metrics
    snapshot_bytes = lambda result: [(t.epoch, t.norms.tobytes()) for t in result.trajectory]
    assert snapshot_bytes(a) == snapshot_bytes(b)
    for la, lb in zip(a.model.layers, b.model.layers):
        assert la.weight.data.tobytes() == lb.weight.data.tobytes()


def test_metrics_identity_every_row():
    cfg = toy_config("scheme = linear_torque\nreg_coefficient = 5e-3\n")
    result = train(cfg)
    for r in result.metrics:
        assert abs(r.total_loss - (r.task_loss + cfg.reg_coefficient * r.penalty_value)) <= 1e-9
        assert r.penalty_value > 0.0


def test_step_schedule_unit_logs_each_epochs_last_step_lr():
    for schedule in ("schedule = linear_warmup_decay\nwarmup_fraction = 0.2\n", "schedule = cosine\n"):
        by_step = train(toy_config(schedule + "schedule_unit = step\n"))
        by_epoch = train(toy_config(schedule))
        steps_per_epoch = -(-by_step.dataset.train_x.shape[0] // by_step.config.batch_size)
        sched = schedule_for(by_step.config, steps_per_epoch)
        assert sched.total_steps == 3 * steps_per_epoch
        for record in by_step.metrics:
            assert record.current_lr == lr_at(sched, by_step.config.lr, record.step - 1)
        assert [r.current_lr for r in by_step.metrics] != [r.current_lr for r in by_epoch.metrics]
        # each schedule spans the whole run in steps, so it reaches lr 0 only after the last step
        assert all(r.current_lr > 0.0 for r in by_step.metrics)


def test_penalize_output_from_config_text_penalizes_the_output_layer():
    cfg = toy_config("penalize_output = true\n")
    model = build_model(cfg.arch)
    assert cfg.penalize_output is True
    assert penalized_layers(cfg, model) == [0, 1]
    assert penalized_layers(toy_config(), model) == [0]


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


@pytest.mark.parametrize("scheme", ["linear_torque", "heaviside", "exponential_etp", "l1"])
def test_logged_penalty_is_the_penalty_of_the_step(scheme):
    # one step over all 128 rows, so the epoch mean is the penalty of the initial weights;
    # 128 is a power of two, so weighting by batch size and dividing by it is exact
    extra = f"scheme = {scheme}\nreg_coefficient = 1e-3\n"
    if scheme == "heaviside":
        extra += "heaviside_threshold = 3\nheaviside_force = 2\n"
    cfg = with_overrides(toy_config(extra), dataset_size=128, epochs=1, batch_size=256, arch="mlp:2-16-16-2")
    record = train(cfg).metrics[0]
    assert record.step == 1

    m0 = build_model(cfg.arch, seed=cfg.seed)
    idxs = model_indexings(m0, cfg.indexing, cfg.effective_indexing_seed)
    spec = harness.regularizer_spec(cfg)
    norms = group_norm_values(m0)
    expected = 0.0
    for l in harness.penalized_layers(cfg, m0):
        w = np.array([distance_weight(spec, d, m0.layers[l].group_count) for d in idxs[l].distances])
        expected += float(np.dot(norms[l], w))
    assert expected > 0.0
    assert record.penalty_value == expected
    assert record.total_loss == record.task_loss + cfg.reg_coefficient * expected


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


def test_trajectory_period_and_identities(tmp_path):
    cfg = with_overrides(toy_config("log_norms_every = 2\n"), epochs=5)
    result = train(cfg)
    assert [t.epoch for t in result.trajectory] == [2, 4, 5]
    for t in result.trajectory:
        assert t.norms.dtype == np.float64 and t.norms.shape == (18,)  # 16 hidden + 2 output groups
        assert (t.norms >= 0.0).all()

    path = tmp_path / "norms.jsonl"
    harness.write_trajectory_jsonl(path, cfg, result.trajectory, result.indexings)
    entries = [json.loads(line) for line in path.read_text().splitlines()[1:]]
    assert [e["epoch"] for e in entries] == [2, 4, 5]
    first = [(g["layer"], g["group"], g["index"], g["distance"]) for g in entries[0]["groups"]]
    for entry in entries[1:]:
        assert [(g["layer"], g["group"], g["index"], g["distance"]) for g in entry["groups"]] == first
    for entry in entries:
        assert all(g["norm"] >= 0.0 for g in entry["groups"])
    assert len(first) == 18


@pytest.mark.parametrize("arch", ["mlp:2-16-8-2", "cnn:2x1x1:conv6k1-conv4k1-dense2"])
def test_trajectory_jsonl_matches_row_oracle(tmp_path, monkeypatch, arch):
    # the oracle builds each snapshot's rows from the live model at the logged epoch
    cfg = with_overrides(
        toy_config("indexing = random\nindexing_seed = 5\nscheme = exponential_etp\nreg_coefficient = 1e-3\n"),
        arch=arch, epochs=4,
    )
    expected = []
    snapshot = harness.norms_snapshot

    def recording(model, epoch):
        indexings = model_indexings(model, cfg.indexing, cfg.effective_indexing_seed)
        expected.append(norms_snapshot_rows(model, indexings, epoch))
        return snapshot(model, epoch)

    monkeypatch.setattr(harness, "norms_snapshot", recording)
    result = train(cfg)
    path = tmp_path / "norms.jsonl"
    harness.write_trajectory_jsonl(path, cfg, result.trajectory, result.indexings)
    lines = path.read_text().splitlines()
    assert len(expected) == cfg.epochs
    assert any(g["distance"] != g["group"] for g in expected[0]["groups"])  # the indexing is not natural
    assert lines[1:] == [json.dumps(entry) for entry in expected]


def test_train_result_holds_no_per_group_objects():
    # a snapshot is one float64 array (130 groups, about 1 KB); a dict per
    # group would take about 30 KB per snapshot
    cfg = parse_config(
        "arch = mlp:2-64-64-2\ndataset = two_spirals\ndataset_size = 64\nepochs = 20\nbatch_size = 64\n"
        "scheme = exponential_etp\nreg_coefficient = 1e-3\n"
    )
    dataset = dataset_for(cfg)
    train(cfg, dataset)  # first-call caches are not part of a result
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = train(cfg, dataset)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(result.trajectory) == cfg.epochs
    assert retained / cfg.epochs < 10_000, retained  # model and metrics included


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


def test_cnn_pipeline_runs_give_identical_bytes(tmp_path):
    # conv, relu, pool and dense layers; the second pool sees a 2x2 map
    rng = np.random.default_rng(4)
    images = rng.uniform(0.0, 1.0, (48, 16))
    labels = (images[:, :8].sum(axis=1) > images[:, 8:].sum(axis=1)).astype(int)
    data = tmp_path / "images.csv"
    data.write_text("".join(",".join(f"{v:.6f}" for v in row) + f",{y}\n" for row, y in zip(images, labels)))
    text = (
        f"arch = cnn:1x4x4:conv4k3s1p1-pool-conv3k3s1p1-pool-dense2\ndataset = csv:{data}\n"
        "dataset_size = 36\nepochs = 4\nbatch_size = 8\nscheme = exponential_etp\nreg_coefficient = 1e-2\n"
        "prune_mode = budget\nprune_target = 1.2\nfinetune_epochs = 1\n"
    )
    outputs = []
    for run in ("a", "b"):
        run_pipeline(parse_config(text + f"out_dir = {tmp_path / run}\n"))
        outputs.append({p.name: p.read_bytes() for p in (tmp_path / run).iterdir()})
    assert "model_finetuned.json" in outputs[0]
    assert outputs[0] == outputs[1]


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


def test_sweep_base_abort_raises():
    cfg = with_overrides(toy_config("scheme = l1\n"), lr=1e8, epochs=8)
    with np.errstate(all="ignore"), pytest.raises(NumericalAbort):
        sweep(cfg, [1e-4, 1e-3], write=False)


def test_sweep_coefficient_abort_is_a_row():
    cfg = parse_config(
        "arch = mlp:2-8-2\ndataset = two_spirals\ndataset_size = 100\nepochs = 3\nscheme = exponential_etp\n"
    )
    with np.errstate(all="ignore"):
        rows = sweep(cfg, [1e-3, 1e200], write=False)
    assert [(r["beta"], r["status"]) for r in rows] == [(1e-3, "ok"), (1e200, "failed:NumericalAbort")]


def test_sweep_empty_grid_rejected():
    with pytest.raises(ConfigError):
        sweep(toy_config(), [])
