"""Property tests: any architecture string, config text, dataset CSV or checkpoint gives a result or a
named error, never a traceback; pruning never changes what a model outputs; a pipeline run twice
writes the same bytes."""

import contextlib
import copy
import dataclasses
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from torqueprune.cli import main
from torqueprune.config import _FLOAT_KEYS, TrainConfig
from torqueprune.model import ConstructionError, build_model, forward
from torqueprune.pruner import UnreachableTargetError, apply_plan, plan_by_budget, plan_by_threshold
from torqueprune.tensor import Tensor

SIZE = st.integers(0, 4)


def _optional(prefix):
    return st.one_of(st.just(""), SIZE.map(lambda v: f"{prefix}{v}"))


CONV = st.builds(lambda o, k, s, p: f"conv{o}k{k}{s}{p}", SIZE, SIZE, _optional("s"), _optional("p"))
DENSE = SIZE.map(lambda o: f"dense{o}")
TOKENS = st.lists(st.one_of(CONV, DENSE, st.just("pool")), min_size=1, max_size=4)
CNN = st.builds(lambda c, h, w, toks: f"cnn:{c}x{h}x{w}:" + "-".join(toks), SIZE, SIZE, SIZE, TOKENS)
MLP = st.lists(SIZE, min_size=1, max_size=4).map(lambda dims: "mlp:" + "-".join(map(str, dims)))


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(arch=st.one_of(CNN, MLP))
def test_macs_on_any_small_architecture_exits_0_or_1(arch):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "arch.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(f"arch = {arch}\ndataset = gaussian_blobs\n")
        assert main(["macs", path]) in (0, 1)


CHECKPOINTS = [build_model(arch, seed=0).to_dict() for arch in ("mlp:2-3-2", "cnn:1x4x4:conv2k3s1p1-pool-dense2")]
LEAF = st.one_of(st.floats(), st.integers(), st.booleans(), st.none(), st.text(max_size=3))
JSON = st.one_of(LEAF, st.lists(LEAF, max_size=3), st.dictionaries(st.text(max_size=3), LEAF, max_size=3))


def _paths(node, path=()):
    """The path to every dict value in a checkpoint, and to the first and last item of every list."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = {0: node[0], len(node) - 1: node[-1]}.items() if node else ()
    else:
        items = ()
    for key, child in items:
        yield from _paths(child, path + (key,))


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data(), mode=st.sampled_from(["threshold", "budget"]))
def test_prune_on_any_mutated_checkpoint_exits_0_1_or_3(data, mode):
    record = copy.deepcopy(data.draw(st.sampled_from(CHECKPOINTS)))
    path = data.draw(st.sampled_from(list(_paths(record))))
    if not path:
        record = data.draw(JSON)
    else:
        parent = record
        for key in path[:-1]:
            parent = parent[key]
        if data.draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = data.draw(JSON)
    with tempfile.TemporaryDirectory() as tmp:
        ckpt, cfg = os.path.join(tmp, "model.json"), os.path.join(tmp, "prune.cfg")
        with open(ckpt, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.write(f"arch = mlp:2-3-2\ndataset = two_spirals\nprune_mode = {mode}\nprune_target = 1.2\n")
        assert main(["prune", cfg, "--checkpoint", ckpt, "--out-dir", os.path.join(tmp, "out")]) in (0, 1, 3)


def _train(config_text: str) -> tuple:
    """``torqueprune train`` on a config text with its own ``out_dir``: the exit code, and whether
    every number the run logged (``metrics.csv``, ``norms.jsonl``, the printed loss and test lines)
    is finite."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "train.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(config_text + f"out_dir = {tmp}/out\n")
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
            code = main(["train", path])
        if code != 0:
            return code, True
        with open(os.path.join(tmp, "out", "metrics.csv"), encoding="utf-8") as fh:
            values = [float(v) for row in fh.read().splitlines()[3:] for v in row.split(",") if v]
        with open(os.path.join(tmp, "out", "norms.jsonl"), encoding="utf-8") as fh:
            values += [g["norm"] for line in fh.readlines()[1:] for g in json.loads(line)["groups"]]
    for line in stdout.getvalue().splitlines():
        if line.startswith(("final ", "test ")):
            values += [float(part.split("=")[-1]) for part in line.split()[1:]]
    return code, all(map(math.isfinite, values))


# values by key type; small magnitudes keep a correct two-epoch run finite
FLOATS = st.sampled_from(["0", "1", "2", "-1", "0.5", "1e-3", "nan", "inf", "-inf", "1,2", "auto"])
INTS = st.one_of(st.integers(-2, 6).map(str), st.sampled_from(["1.5", "1,2", "nan"]))
WORDS = st.sampled_from([
    "none", "l1", "linear_torque", "exponential_etp", "heaviside", "cosine", "step", "multistep",
    "linear_warmup_decay", "adam", "adamw", "random", "natural", "regression", "budget", "true", "false",
    "0.9,0.999", "nan,0.9", "1,2", "two_spirals", "gaussian_blobs", "sine_regression", "csv:missing.csv",
    "mlp:2-4-2", "mlp:1-4-1", "mlp:2-3", "mlp:2-0-2", "cnn:2x1x1:conv3k1-dense2", "",
])
FLOAT_KEYS = sorted(_FLOAT_KEYS | {"exp_base", "betas"})
OTHER_KEYS = sorted({f.name for f in dataclasses.fields(TrainConfig)} - set(FLOAT_KEYS) - {"out_dir"}) + ["widget"]
BASE = {"arch": "mlp:2-4-2", "dataset": "two_spirals", "dataset_size": "24", "epochs": "2", "batch_size": "8"}


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    floats=st.dictionaries(st.sampled_from(FLOAT_KEYS), FLOATS, max_size=2),
    others=st.dictionaries(st.sampled_from(OTHER_KEYS), st.one_of(INTS, WORDS), max_size=2),
    junk=st.one_of(st.just(""), st.text("ab1=-.,:# ", max_size=6)),
)
def test_train_on_any_config_text_exits_0_to_3(floats, others, junk):
    lines = [f"{k} = {v}" for k, v in {**BASE, **others, **floats}.items()] + [junk]
    code, finite = _train("\n".join(lines) + "\n")
    assert code in (0, 1, 2, 3)
    assert finite  # a run that succeeds logs no nan or inf


NUMBER = st.sampled_from(["0", "1", "2", "-1", "0.5", "-2.5", "3"])
ODD = st.sampled_from(["nan", "inf", "-inf", "x", ""])


@hypothesis.settings(max_examples=300, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    data=st.data(),
    columns=st.integers(1, 3),
    task=st.sampled_from(["classification", "regression"]),
    epochs=st.integers(1, 2),
)
def test_train_on_any_small_csv_exits_0_to_3(data, columns, task, epochs):
    label = st.integers(-1, 2).map(str) if task == "classification" else NUMBER
    row = st.builds(lambda x, y: x + [y], st.lists(NUMBER, min_size=columns - 1, max_size=columns - 1), label)
    rows = data.draw(st.lists(row, min_size=1, max_size=8))
    # a few cells that are not finite numbers, anywhere
    for r, c, cell in data.draw(st.lists(st.tuples(st.integers(0, 7), st.integers(0, 2), ODD), max_size=2)):
        if r < len(rows) and c < columns:
            rows[r][c] = cell
    size = data.draw(st.integers(1, len(rows)))
    config = (
        f"arch = mlp:{max(columns - 1, 1)}-4-{3 if task == 'classification' else 1}\ntask = {task}\n"
        f"dataset_size = {size}\nepochs = {epochs}\nbatch_size = 4\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        csv = os.path.join(tmp, "data.csv")
        with open(csv, "w", encoding="utf-8") as fh:
            fh.write("\n".join(",".join(row) for row in rows) + "\n")
        code, finite = _train(config + f"dataset = csv:{csv}\n")
    assert code in (0, 1, 2, 3)
    assert finite  # a run that succeeds logs no nan or inf


PRUNE_MLP = st.builds(
    lambda dims: "mlp:" + "-".join(map(str, dims)), st.lists(st.integers(1, 5), min_size=3, max_size=5)
)
PRUNE_CONV = st.builds(
    lambda o, k, s, p, pool: f"conv{o}k{k}s{s}p{p}" + ("-pool" if pool else ""),
    st.integers(1, 4), st.integers(1, 3), st.integers(1, 2), st.integers(0, 1), st.booleans(),
)
PRUNE_CNN = st.builds(
    lambda c, hw, convs, dense: f"cnn:{c}x{hw}x{hw}:" + "-".join(convs + [f"dense{d}" for d in dense]),
    st.integers(1, 3), st.integers(2, 8), st.lists(PRUNE_CONV, min_size=1, max_size=2),
    st.lists(st.integers(1, 4), max_size=2),
)


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(data=st.data(), arch=st.one_of(PRUNE_MLP, PRUNE_CNN), seed=st.integers(0, 3))
def test_pruning_zeroed_groups_keeps_the_outputs(data, arch, seed):
    try:
        model = build_model(arch, seed=seed)
    except ConstructionError:
        hypothesis.assume(False)
    hypothesis.assume(len(model.layers) > 1)  # a one-layer model's only layer is prunable
    for layer in model.layers:  # zero a drawn set of groups in every layer, the output layer included
        for g in data.draw(st.sets(st.integers(0, layer.group_count - 1))):
            layer.weight.data[g] = 0.0
            layer.bias.data[g] = 0.0
    batch = Tensor(np.random.default_rng(seed).normal(0.0, 1.0, (4,) + model.input_shape))
    before = forward(model, batch).data
    pruned = apply_plan(model, plan_by_threshold(model, 1e-12))
    after = forward(pruned, batch).data
    assert after.shape == before.shape
    np.testing.assert_allclose(after, before, rtol=1e-12, atol=1e-12)

    with pytest.raises(UnreachableTargetError) as top:
        plan_by_budget(model, 1e9)
    target = data.draw(st.floats(1.0, top.value.max_achievable))
    budget = apply_plan(model, plan_by_budget(model, target))
    assert budget.layers[-1].group_count == model.layers[-1].group_count
    assert forward(budget, batch).shape == before.shape


# (dataset, mlp arch, cnn arch): the conv layers see each generator's features as a 1x1 map
PIPELINE_DATA = [("two_spirals", "mlp:2-6-2", "cnn:2x1x1:conv{o}k{k}s1p{p}-dense2"),
                 ("sine_regression", "mlp:1-6-1", "cnn:1x1x1:conv{o}k{k}s1p{p}-dense1")]


def _pipeline_files(config_text: str, tmp: str, name: str) -> tuple:
    """``torqueprune pipeline`` into ``tmp/name``: the exit code and every output file's bytes."""
    path = os.path.join(tmp, f"{name}.cfg")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(config_text + f"out_dir = {tmp}/{name}\n")
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main(["pipeline", path])
    out = os.path.join(tmp, name)
    files = {}
    for entry in sorted(os.listdir(out)) if os.path.isdir(out) else []:
        with open(os.path.join(out, entry), "rb") as fh:
            files[entry] = fh.read()
    return code, files


@hypothesis.settings(max_examples=200, deadline=None, derandomize=True, database=None)
@hypothesis.given(
    data=st.sampled_from(PIPELINE_DATA),
    cnn=st.booleans(),
    conv=st.tuples(st.integers(1, 3), st.sampled_from([(1, 0), (3, 1), (2, 1)])),
    scheme=st.sampled_from(["none", "l1", "linear_torque", "exponential_etp", "heaviside"]),
    beta=st.sampled_from(["0", "1e-3", "5e-2"]),
    optimizer=st.sampled_from(["sgd_momentum", "adam", "adamw"]),
    schedule=st.sampled_from(["constant", "cosine", "step", "multistep", "linear_warmup_decay"]),
    unit=st.sampled_from(["epoch", "step"]),
    prune=st.sampled_from(["threshold", "budget"]),
    finetune=st.integers(0, 2),
)
def test_pipeline_twice_writes_the_same_bytes(data, cnn, conv, scheme, beta, optimizer, schedule, unit, prune, finetune):
    dataset, mlp, cnn_arch = data
    (o, (k, p)) = conv
    config = (
        f"arch = {cnn_arch.format(o=o, k=k, p=p) if cnn else mlp}\ndataset = {dataset}\n"
        "dataset_size = 24\nepochs = 2\nbatch_size = 8\nlr = 0.05\n"
        f"scheme = {scheme}\nreg_coefficient = {beta}\nheaviside_threshold = 1\nheaviside_force = 2\n"
        f"optimizer = {optimizer}\nschedule = {schedule}\nmilestones = 1\nstep_size = 1\n"
        f"schedule_unit = {unit}\nprune_mode = {prune}\nprune_threshold = 0.3\nprune_target = 1.3\n"
        f"finetune_epochs = {finetune}\n"
    )
    with tempfile.TemporaryDirectory() as tmp:
        first, second = _pipeline_files(config, tmp, "first"), _pipeline_files(config, tmp, "second")
    assert first[0] in (0, 1, 2, 3)
    assert first[0] == second[0]
    if first[0] == 0:
        assert first[1] == second[1] and "summary.csv" in first[1]
