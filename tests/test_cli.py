import json
import os

import numpy as np
import pytest

from torqueprune import cli
from torqueprune.cli import build_parser, main
from torqueprune.harness import load_checkpoint, save_checkpoint
from torqueprune.model import build_model
from torqueprune.pruner import PrunePlan, apply_plan

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


@pytest.mark.parametrize("mode", ["threshold", "budget"])
def test_checkpoint_and_plan_reproduce_the_pruned_model(tmp_path, mode):
    cfg = tmp_path / "toy.cfg"
    cfg.write_text(TOY + f"prune_mode = {mode}\nprune_threshold = 0.5\nprune_target = 1.5\nout_dir = {tmp_path}/out\n")
    assert main(["pipeline", str(cfg)]) == 0
    out = tmp_path / "out"
    record = json.loads((out / "plan.json").read_text())
    removals = tuple(tuple(r) for r in record.pop("removals"))
    plan = PrunePlan(removals=removals, **record)
    assert plan.mode == mode and plan.removals  # the plan removes groups
    save_checkpoint(tmp_path / "again.json", apply_plan(load_checkpoint(out / "model_regularized.json"), plan))
    assert (tmp_path / "again.json").read_bytes() == (out / "model_pruned.json").read_bytes()


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


def test_main_calls_in_one_process_see_only_their_own_flags(toy_cfg, tmp_path, monkeypatch):
    seen = []
    monkeypatch.setitem(cli._COMMANDS, "train", lambda args: seen.append(vars(args)) or 0)
    assert main(["train", toy_cfg, "--seed", "7"]) == 0
    assert main(["train", toy_cfg, "--out-dir", str(tmp_path / "o")]) == 0
    assert (seen[0]["seed"], seen[0]["out_dir"]) == (7, None)
    assert (seen[1]["seed"], seen[1]["out_dir"]) == (None, str(tmp_path / "o"))
    assert build_parser() is not build_parser()


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


def test_non_utf8_config_exit_1(tmp_path, capsys):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(TOY.encode() + b"# caf\xe9\n")
    assert main(["train", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and "Traceback" not in err


def test_csv_needs_dataset_size_below_its_rows(tmp_path, capsys):
    rng = np.random.default_rng(0)
    csv = tmp_path / "data.csv"
    np.savetxt(csv, np.column_stack([rng.uniform(-1, 1, (50, 2)), np.arange(50) % 2]), delimiter=",")
    cfg = tmp_path / "csv.cfg"
    cfg.write_text(f"arch = mlp:2-4-2\ndataset = csv:{csv}\nepochs = 1\nout_dir = {tmp_path}/csv\n")
    assert main(["train", str(cfg)]) == 1
    assert "has 50 rows; cannot take 1000 for train" in capsys.readouterr().err
    cfg.write_text(cfg.read_text() + "dataset_size = 40\n")
    assert main(["train", str(cfg)]) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        ([], "required: command"),
        (["train"], "required: config"),
        (["prune", "CFG"], "required: --checkpoint"),
        (["train", "CFG", "--seed", "x"], "invalid int value"),
        (["bogus"], "invalid choice"),
    ],
)
def test_usage_errors_exit_1(toy_cfg, capsys, argv, message):
    # exit 2 is a numerical abort; a bad argument list is a usage error, returned and not raised
    assert main([toy_cfg if a == "CFG" else a for a in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: torqueprune") and message in err


@pytest.mark.parametrize("argv", [["--help"], ["prune", "--help"]])
def test_help_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: torqueprune" in capsys.readouterr().out


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
    assert main(["sweep", str(cfg), "--betas", "1e-3"]) == 1
    assert "4 classes" in capsys.readouterr().err
    assert not (tmp_path / "blobs" / "sweep.csv").exists()


def test_sweep_rejects_untrainable_schedule_exit_1(tmp_path, capsys):
    cfg = tmp_path / "gamma.cfg"
    cfg.write_text(TOY + f"schedule = multistep\ngamma = 2\nout_dir = {tmp_path}/gamma\n")
    assert main(["sweep", str(cfg), "--betas", "1e-4,1e-3"]) == 1
    assert "gamma" in capsys.readouterr().err
    assert not (tmp_path / "gamma" / "sweep.csv").exists()


def test_sweep_checks_every_coefficient_before_training(tmp_path, capsys, monkeypatch):
    from torqueprune import harness

    calls = []
    real_train = harness.train
    monkeypatch.setattr(harness, "train", lambda *a, **k: calls.append(1) or real_train(*a, **k))
    cfg = tmp_path / "neg.cfg"
    cfg.write_text(TOY + f"out_dir = {tmp_path}/neg\n")
    assert main(["sweep", str(cfg), "--betas", "1e-3,-1"]) == 1
    assert "reg_coefficient" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "neg" / "beta_0.001").exists()
    assert not (tmp_path / "neg" / "sweep.csv").exists()


def test_sweep_coefficient_out_dir_that_is_a_file_exits_1_before_training(tmp_path, capsys, monkeypatch):
    from torqueprune import harness

    calls = []
    real_train = harness.train
    monkeypatch.setattr(harness, "train", lambda *a, **k: calls.append(1) or real_train(*a, **k))
    (tmp_path / "out").mkdir()
    (tmp_path / "out" / "beta_0.001").write_text("not a directory\n")
    cfg = tmp_path / "file.cfg"
    cfg.write_text(TOY + f"out_dir = {tmp_path}/out\n")
    assert main(["sweep", str(cfg), "--betas", "1e-4,1e-3"]) == 1
    assert "beta_0.001" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "out" / "sweep.csv").exists()
    assert not (tmp_path / "out" / "beta_0.0001").exists()


@pytest.mark.parametrize("betas", ["1e-7,1.0000001e-7", "1e-3,1e-3"], ids=["same_name", "duplicate"])
def test_sweep_coefficients_sharing_a_directory_exit_1(tmp_path, capsys, monkeypatch, betas):
    # both coefficients format to one beta_{:.6g} directory, where the second would overwrite the first
    from torqueprune import harness

    calls = []
    real_train = harness.train
    monkeypatch.setattr(harness, "train", lambda *a, **k: calls.append(1) or real_train(*a, **k))
    cfg = tmp_path / "twin.cfg"
    cfg.write_text(TOY + f"out_dir = {tmp_path}/twin\n")
    assert main(["sweep", str(cfg), "--betas", betas]) == 1
    err = capsys.readouterr().err
    assert all(repr(float(beta)) in err for beta in betas.split(","))
    assert calls == []
    assert not list(tmp_path.glob("twin/beta_*"))


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_aborted_run_prints_only_its_error_line(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    diverging = TOY.replace("lr = 0.1", "lr = 1e8").replace("epochs = 3", "epochs = 8")
    cfg.write_text(diverging + f"out_dir = {tmp_path}/diverge\n")
    assert main(["pipeline", str(cfg)]) == 2
    assert capsys.readouterr().err == "error: non-finite loss nan at epoch 6, step 22\n"


def test_regression_head_not_matching_target_width_exit_1(tmp_path, capsys):
    cfg = tmp_path / "sine.cfg"
    cfg.write_text(f"arch = mlp:1-8-2\ndataset = sine_regression\ndataset_size = 80\nout_dir = {tmp_path}/sine\n")
    for command in ("train", "pipeline"):
        assert main([command, str(cfg)]) == 1
        assert capsys.readouterr().err == "error: architecture has 2 outputs but dataset has 1 targets\n"
    assert not (tmp_path / "sine").exists()


def test_arch_wider_than_dataset_exit_1(tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(TOY.replace("mlp:2-16-2", "mlp:3-8-2") + f"out_dir = {tmp_path}/wide\n")
    assert main(["train", str(cfg)]) == 1
    assert "consumes 3 features" in capsys.readouterr().err


def test_prune_missing_checkpoint_exit_1(toy_cfg, tmp_path, capsys):
    assert main(["prune", toy_cfg, "--checkpoint", str(tmp_path / "absent.json")]) == 1
    assert "cannot read checkpoint" in capsys.readouterr().err


@pytest.mark.parametrize(
    "arch,csv,message",
    [
        ("mlp:2-4-2", "missing.csv", "cannot read dataset csv"),
        ("cnn:1x4x4:conv4k5s1p0-dense2", "wide.csv", "exceeds padded input"),
    ],
    ids=["missing_csv", "conv_geometry"],
)
def test_sweep_setup_error_exit_1_without_sweep_csv(tmp_path, capsys, arch, csv, message):
    if csv == "wide.csv":  # 16 features, 40 rows
        rng = np.random.default_rng(0)
        np.savetxt(tmp_path / csv, np.column_stack([rng.uniform(-1, 1, (40, 16)), np.arange(40) % 2]), delimiter=",")
    cfg = tmp_path / "setup.cfg"
    cfg.write_text(
        f"arch = {arch}\ndataset = csv:{tmp_path / csv}\ndataset_size = 30\nepochs = 1\n"
        f"scheme = l1\nout_dir = {tmp_path}/setup\n"
    )
    assert main(["pipeline", str(cfg)]) == 1
    pipeline_err = capsys.readouterr().err
    assert message in pipeline_err
    assert main(["sweep", str(cfg), "--betas", "1e-3,1e-4"]) == 1
    assert capsys.readouterr().err == pipeline_err
    assert not (tmp_path / "setup" / "sweep.csv").exists()


def test_sweep_base_abort_exit_2_without_sweep_csv(tmp_path, capsys):
    cfg = tmp_path / "diverge.cfg"
    diverging = TOY.replace("lr = 0.1", "lr = 1e8").replace("epochs = 3", "epochs = 8")
    cfg.write_text(diverging + f"out_dir = {tmp_path}/diverge\n")
    with np.errstate(all="ignore"):
        assert main(["sweep", str(cfg), "--betas", "1e-4,1e-3"]) == 2
    assert "non-finite loss" in capsys.readouterr().err
    assert not (tmp_path / "diverge" / "sweep.csv").exists()


def test_pipeline_rejects_heaviside_sign_before_training(tmp_path, capsys, monkeypatch):
    from torqueprune import harness

    calls = []
    real_train = harness.train
    monkeypatch.setattr(harness, "train", lambda *a, **k: calls.append(1) or real_train(*a, **k))
    cfg = tmp_path / "heavi.cfg"
    cfg.write_text(
        TOY.replace("scheme = exponential_etp", "scheme = heaviside")
        + f"heaviside_threshold = -1\nheaviside_force = 1\nout_dir = {tmp_path}/heavi\n"
    )
    assert main(["pipeline", str(cfg)]) == 1
    assert "heaviside_threshold" in capsys.readouterr().err
    assert calls == []


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
    train_err = capsys.readouterr().err
    assert message in train_err
    assert main(["sweep", str(cfg), "--betas", "1e-3"]) == 1
    assert capsys.readouterr().err == train_err
    assert not (tmp_path / "csv" / "sweep.csv").exists()


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


def _cnn_input_shape(shape):
    def mutate(record):
        record.clear()
        record.update(build_model("cnn:1x6x6:conv4k3s1p1-dense2", seed=0).to_dict(), input_shape=shape)

    return mutate


def _dense_before_conv(record):
    record["layers"][1]["kind"] = "conv2d"
    record["layers"][1]["weight"]["shape"] = [2, 16, 1, 1]


def _set_value(part, value):
    def mutate(record):
        record["layers"][0][part]["data"][3] = value

    return mutate


def _string_and_bool_weight(record):
    # a JSON string and a boolean where numbers belong; both used to load as floats
    record.clear()
    record.update(build_model("mlp:2-3-2", seed=0).to_dict())
    record["layers"][0]["weight"]["data"][:2] = ["0.25", True]


# mutations of a trained mlp:2-16-2 checkpoint that `prune` must reject as
# malformed (exit 1); a mutation that returns a string replaces the file's text
MALFORMED = {
    "weight": _truncate("weight"),
    "bias": _truncate("bias"),
    "no_layers": lambda record: record.update(layers=[]),
    "flat_dense_weight": _flat_weight,
    "zero_stride": _zero_stride_conv,
    "unknown_activation": lambda record: record["layers"][0].update(activation="tanh"),
    "unknown_kind": _unknown_kind,
    "dense_pool": lambda record: record["layers"][0].update(pool=True),
    "top_level_list": lambda record: "[]",
    "top_level_string": lambda record: '"x"',
    "float_input_shape": _cnn_input_shape([1, 6.5, 6]),
    "empty_input_shape": lambda record: record.update(build_model("mlp:1-3-2", seed=0).to_dict(), input_shape=[]),
    "nan_weight": _set_value("weight", float("nan")),
    "infinite_bias": _set_value("bias", float("inf")),
    "bool_stride": lambda record: record["layers"][0].update(stride=True),
    "int_pool": lambda record: record["layers"][0].update(pool=0),
    "huge_int_weight": _set_value("weight", 10**400),
    "deep_nesting": lambda record: "[" * 100000,
    "dense_before_conv": _dense_before_conv,
    "string_and_bool_weight": _string_and_bool_weight,
    "bool_bias": _set_value("bias", False),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_checkpoint_exit_1(toy_cfg, tmp_path, capsys, case):
    main(["train", toy_cfg])
    ckpt = tmp_path / "out" / "model.json"
    record = json.loads(ckpt.read_text())
    text = MALFORMED[case](record)
    ckpt.write_text(json.dumps(record) if text is None else text)
    capsys.readouterr()
    assert main(["prune", toy_cfg, "--checkpoint", str(ckpt)]) == 1
    assert "malformed checkpoint" in capsys.readouterr().err


WRITING_COMMANDS = [
    ["train"],
    ["prune", "--checkpoint", "ckpt.json"],
    ["pipeline"],
    ["sweep", "--betas", "1e-3"],
]


@pytest.mark.parametrize("command", WRITING_COMMANDS, ids=lambda c: c[0])
def test_out_dir_that_is_a_file_exit_1_before_any_work(toy_cfg, tmp_path, capsys, monkeypatch, command):
    from torqueprune import harness

    save_checkpoint(tmp_path / "ckpt.json", build_model("mlp:2-16-2", seed=0))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep\n")
    for name in ("build_model", "load_checkpoint"):  # training and loading a checkpoint both start here
        monkeypatch.setattr(harness, name, lambda *a, **k: pytest.fail("work started before out_dir was checked"))
    assert main([command[0], toy_cfg, *command[1:], "--out-dir", "afile"]) == 1
    assert capsys.readouterr().err == "error: out_dir 'afile' exists and is not a directory\n"
    assert (tmp_path / "afile").read_text() == "keep\n"


@pytest.mark.parametrize("command", WRITING_COMMANDS, ids=lambda c: c[0])
def test_out_dir_that_cannot_be_made_exit_1(toy_cfg, tmp_path, capsys, monkeypatch, command):
    save_checkpoint(tmp_path / "ckpt.json", build_model("mlp:2-16-2", seed=0))
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("keep\n")
    assert main([command[0], toy_cfg, *command[1:], "--out-dir", os.path.join("afile", "sub")]) == 1
    assert capsys.readouterr().err == "error: cannot write: [Errno 20] Not a directory: 'afile/sub'\n"
