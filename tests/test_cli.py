import json
import os

import numpy as np
import pytest

from torqueprune.cli import main

TOY = """
arch = mlp:2-16-2
dataset = two_spirals
dataset_size = 120
epochs = 3
batch_size = 32
lr = 0.1
scheme = exponential_etp
reg_coefficient = 1e-3
"""

TOY_CNN = """
arch = cnn:3x32x32:conv8k3s1p1-dense10
dataset = two_spirals
"""


@pytest.fixture
def toy_cfg(tmp_path):
    path = tmp_path / "toy.cfg"
    path.write_text(TOY + f"out_dir = {tmp_path}/out\n")
    return str(path)


def test_macs_report(tmp_path, capsys):
    path = tmp_path / "cnn.cfg"
    path.write_text(TOY_CNN)
    assert main(["macs", str(path)]) == 0
    out = capsys.readouterr().out
    assert "layer 0 (conv2d): 221184" in out
    assert "layer 1 (dense): 81920" in out
    assert "total: 303104" in out


def test_train_writes_outputs(toy_cfg, tmp_path, capsys):
    assert main(["train", toy_cfg]) == 0
    out_dir = tmp_path / "out"
    for name in ("metrics.csv", "norms.jsonl", "model.json"):
        assert (out_dir / name).exists()
    stdout = capsys.readouterr().out
    assert "trained mlp:2-16-2" in stdout


def test_prune_subcommand(toy_cfg, tmp_path, capsys):
    main(["train", toy_cfg])
    ckpt = str(tmp_path / "out" / "model.json")
    assert main(["prune", toy_cfg, "--checkpoint", ckpt, "--out-dir", str(tmp_path / "pruned")]) == 0
    assert (tmp_path / "pruned" / "model_pruned.json").exists()
    plan = json.loads((tmp_path / "pruned" / "plan.json").read_text())
    assert set(plan) == {"mode", "threshold_used", "predicted_speedup", "removals"}
    assert "speed-up" in capsys.readouterr().out


def test_pipeline_and_seed_override(toy_cfg, tmp_path, capsys):
    assert main(["pipeline", toy_cfg, "--seed", "5", "--out-dir", str(tmp_path / "p5")]) == 0
    summary = (tmp_path / "p5" / "summary.csv").read_text().splitlines()
    assert summary[-1].split(",")[2] == "5"  # seed column
    assert "seed=5" in capsys.readouterr().out


def test_pipeline_rerun_byte_identical(toy_cfg, tmp_path):
    main(["pipeline", toy_cfg])
    out_dir = tmp_path / "out"
    first = {n: (out_dir / n).read_bytes() for n in os.listdir(out_dir)}
    for n in first:
        (out_dir / n).unlink()
    main(["pipeline", toy_cfg])
    second = {n: (out_dir / n).read_bytes() for n in os.listdir(out_dir)}
    assert first == second


def test_sweep_with_explicit_betas(toy_cfg, tmp_path, capsys):
    assert main(["sweep", toy_cfg, "--betas", "0,1e-3", "--out-dir", str(tmp_path / "sw")]) == 0
    lines = (tmp_path / "sw" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3 + 2
    assert lines[2].split(",")[0] == "scheme"
    out = capsys.readouterr().out
    assert "status=ok" in out


def test_sweep_bad_betas_exit_1(toy_cfg, capsys):
    assert main(["sweep", toy_cfg, "--betas", "abc"]) == 1
    assert "--betas" in capsys.readouterr().err


def test_log_norms_every_override(toy_cfg, tmp_path):
    assert main(["train", toy_cfg, "--log-norms-every", "2", "--out-dir", str(tmp_path / "n2")]) == 0
    lines = (tmp_path / "n2" / "norms.jsonl").read_text().splitlines()
    assert [json.loads(l)["epoch"] for l in lines[1:]] == [2, 3]


def test_config_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("arch = mlp:2-2\ndataset = two_spirals\nwidget = 7\n")
    assert main(["train", str(bad)]) == 1
    assert "widget" in capsys.readouterr().err
    assert main(["train", str(tmp_path / "missing.cfg")]) == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_numerical_abort_exit_2(tmp_path, capsys):
    cfg = tmp_path / "hot.cfg"
    cfg.write_text(TOY.replace("lr = 0.1", "lr = 1e8").replace("epochs = 3", "epochs = 8")
                   + f"out_dir = {tmp_path}/hot\n")
    with np.errstate(all="ignore"):
        assert main(["train", str(cfg)]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_unreachable_target_exit_3(toy_cfg, tmp_path, capsys):
    cfg = tmp_path / "budget.cfg"
    cfg.write_text(
        TOY.replace("reg_coefficient = 1e-3", "reg_coefficient = 1e-3\nprune_mode = budget\nprune_target = 1e9")
        + f"out_dir = {tmp_path}/b\n"
    )
    assert main(["pipeline", str(cfg)]) == 3
    assert "unreachable" in capsys.readouterr().err


def test_head_narrower_than_class_count_exit_1(tmp_path, capsys):
    cfg = tmp_path / "blobs.cfg"
    cfg.write_text(
        "arch = mlp:2-8-2\ndataset = gaussian_blobs\ndataset_size = 80\nepochs = 1\n"
        "scheme = l1\nreg_coefficient = 1e-3\n" + f"out_dir = {tmp_path}/blobs\n"
    )
    assert main(["train", str(cfg)]) == 1
    assert "4 classes" in capsys.readouterr().err
    assert main(["sweep", str(cfg), "--betas", "1e-3"]) == 0
    row = (tmp_path / "blobs" / "sweep.csv").read_text().splitlines()[-1]
    assert row.endswith("failed:ConfigError")


def test_budget_pipeline_keeps_every_class_logit(tmp_path):
    # this budget plan used to remove a class logit, leaving a one-logit head
    cfg = tmp_path / "narrow.cfg"
    cfg.write_text(
        "arch = mlp:2-16-16-2\ndataset = two_spirals\ndataset_size = 200\nepochs = 5\n"
        "scheme = exponential_etp\nreg_coefficient = 1e-3\nprune_mode = budget\nprune_target = 4.0\n"
        "finetune_epochs = 2\n" + f"out_dir = {tmp_path}/narrow\n"
    )
    assert main(["pipeline", str(cfg)]) == 0
    plan = json.loads((tmp_path / "narrow" / "plan.json").read_text())
    assert plan["predicted_speedup"] >= 4.0
    assert plan["removals"] and all(layer < 2 for layer, _ in plan["removals"])
    model = json.loads((tmp_path / "narrow" / "model_finetuned.json").read_text())
    assert model["layers"][-1]["weight"]["shape"] == [2, 16 - sum(layer == 1 for layer, _ in plan["removals"])]
    assert main(["sweep", str(cfg), "--betas", "1e-3"]) == 0
    row = (tmp_path / "narrow" / "sweep.csv").read_text().splitlines()[-1]
    assert row.endswith(",ok")


@pytest.mark.parametrize(
    "command,line",
    [
        ("pipeline", "prune_threshold = nan"),
        ("train", "reg_coefficient = nan"),
        ("train", "exp_base = inf"),
        ("train", "betas = 0.9,nan"),
    ],
    ids=["prune_threshold", "reg_coefficient", "exp_base", "betas"],
)
def test_nonfinite_config_value_exit_1(tmp_path, capsys, command, line):
    key = line.split(" = ")[0]
    cfg = tmp_path / "nan.cfg"
    cfg.write_text(TOY.replace(f"{key} =", "# ") + line + f"\nout_dir = {tmp_path}/nan\n")
    assert main([command, str(cfg)]) == 1
    assert f"config key '{key}': must be finite" in capsys.readouterr().err
    assert not (tmp_path / "nan").exists()


@pytest.mark.parametrize(
    "column,value,message",
    [(-1, -1.0, "negative label (-1)"), (0, np.nan, "non-finite value")],
    ids=["negative_label", "nan_feature"],
)
def test_bad_csv_value_exit_1(tmp_path, capsys, column, value, message):
    rng = np.random.default_rng(0)
    data = np.column_stack([rng.uniform(-1, 1, (50, 2)), np.arange(50) % 2])
    data[7, column] = value
    csv = tmp_path / "data.csv"
    np.savetxt(csv, data, delimiter=",")
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(f"arch = mlp:2-4-2\ndataset = csv:{csv}\nepochs = 1\nout_dir = {tmp_path}/csv\n")
    assert main(["train", str(cfg)]) == 1
    assert message in capsys.readouterr().err
    assert main(["sweep", str(cfg), "--betas", "1e-3"]) == 0
    out_row = (tmp_path / "csv" / "sweep.csv").read_text().splitlines()[-1]
    assert out_row.endswith("failed:ConfigError")


def _truncate(part):
    def mutate(record):
        record["layers"][0][part]["data"] = record["layers"][0][part]["data"][:-1]

    return mutate


def _flat_weight(record):
    weight = record["layers"][0]["weight"]
    weight["shape"] = [len(weight["data"])]


def _zero_stride_conv(record):
    # the first dense layer (16 x 2) read as a 1x1 conv over a 2x1x1 input
    record["input_shape"] = [2, 1, 1]
    record["layers"][0].update(kind="conv2d", stride=0)
    record["layers"][0]["weight"]["shape"] = [16, 2, 1, 1]


def _unknown_kind(record):
    record["layers"] = record["layers"][1:]
    record["input_shape"] = [16]
    record["layers"][0]["kind"] = "lstm"


# mutations of a trained mlp:2-16-2 checkpoint that `prune` must reject as malformed (exit 1)
MALFORMED = {
    "weight": _truncate("weight"),
    "bias": _truncate("bias"),
    "no_layers": lambda record: record.update(layers=[]),
    "flat_dense_weight": _flat_weight,
    "zero_stride": _zero_stride_conv,
    "unknown_activation": lambda record: record["layers"][0].update(activation="tanh"),
    "unknown_kind": _unknown_kind,
    "dense_pool": lambda record: record["layers"][0].update(pool=True),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_checkpoint_exit_1(toy_cfg, tmp_path, capsys, case):
    main(["train", toy_cfg])
    ckpt = tmp_path / "out" / "model.json"
    record = json.loads(ckpt.read_text())
    MALFORMED[case](record)
    ckpt.write_text(json.dumps(record))
    capsys.readouterr()
    assert main(["prune", toy_cfg, "--checkpoint", str(ckpt)]) == 1
    assert "malformed checkpoint" in capsys.readouterr().err
