"""The library's two training nodes and the training step that runs their plain passes.

The nodes are the layer stack (``forward``) and the training objective,
``total_loss`` over the task loss (``softmax_cross_entropy`` or ``mse_loss``)
and ``weighted_penalty``.  Both must give the bits of the per-op graphs they
replace: ``oracles.forward_reference``, and ``oracles.loss_reference`` over
``oracles.penalty_reference``.  The training step builds no node, and must
give the bits of those nodes with ``backward`` and ``Optimizer.step``.
"""

import dataclasses
import re
import zlib

import numpy as np
import pytest

from torqueprune import harness
from torqueprune.config import TrainConfig, optimizer_for, parse_config
from torqueprune.datasets import Dataset
from torqueprune.model import ConstructionError, build_model, forward, model_indexings
from torqueprune.optim import LrSchedule
from torqueprune.regularizers import SCHEMES, RegularizerSpec, penalty_weights, total_loss, weighted_penalty
from torqueprune.tensor import ShapeError, Tensor, backward, mse_loss, softmax_cross_entropy, weighted_sum

from oracles import finite_diff_grad, forward_reference, loss_reference, penalty_reference


def _draw_arch(rng) -> str:
    """A small valid ``mlp:`` or ``cnn:`` architecture; CNNs mix stride, padding, pool and a flatten."""
    if rng.random() < 0.4:
        return "mlp:" + "-".join(str(v) for v in rng.integers(1, 7, rng.integers(2, 5)))
    while True:
        c, hw = int(rng.integers(1, 4)), int(rng.integers(4, 9))
        tokens = []
        for _ in range(rng.integers(1, 3)):
            tokens.append(f"conv{rng.integers(1, 5)}k{rng.integers(1, 4)}s{rng.integers(1, 3)}p{rng.integers(0, 2)}")
            if rng.random() < 0.5:
                tokens.append("pool")
        tokens += [f"dense{rng.integers(1, 5)}" for _ in range(rng.integers(0, 3))]
        arch = f"cnn:{c}x{hw}x{hw}:" + "-".join(tokens)
        try:
            build_model(arch)
        except ConstructionError:
            continue
        return arch


ARCHS = [_draw_arch(np.random.default_rng([5, i])) for i in range(24)]


def _twins(arch: str, seed: int, frozen=()):
    """Two identical models; the layers in ``frozen`` take no gradient."""
    models = build_model(arch, seed=seed), build_model(arch, seed=seed)
    for model in models:
        for l in frozen:
            model.layers[l].weight.requires_grad = False
            model.layers[l].bias.requires_grad = False
    return models


def _leaf_grads(model, batch):
    grads = [None if p.grad is None else p.grad.tobytes() for p in model.parameters()]
    return grads + [None if batch.grad is None else batch.grad.tobytes()]


def test_drawn_architectures_cover_every_layer_option():
    text = " ".join(ARCHS)
    assert "mlp:" in text and "pool" in text and "dense" in text.split("cnn:", 1)[1]
    assert "s2" in text and "p1" in text and "p0" in text


@pytest.mark.parametrize("arch", ARCHS)
def test_forward_matches_per_op_graph_bytes(arch):
    rng = np.random.default_rng(zlib.crc32(arch.encode()))
    new, old = _twins(arch, seed=int(rng.integers(100)))
    batch = rng.normal(0.0, 1.0, (int(rng.integers(1, 6)),) + new.input_shape)
    for requires_grad in (False, True):
        x_new, x_old = Tensor(batch, requires_grad), Tensor(batch, requires_grad)
        out_new, out_old = forward(new, x_new), forward_reference(old, x_old)
        assert out_new.data.tobytes() == out_old.data.tobytes()
        coeffs = rng.normal(0.0, 1.0, out_new.shape)
        backward(weighted_sum(out_new, coeffs))
        backward(weighted_sum(out_old, coeffs))
        assert _leaf_grads(new, x_new) == _leaf_grads(old, x_old)


@pytest.mark.parametrize("arch", ARCHS[:8])
def test_forward_with_frozen_layers_matches_per_op_graph_bytes(arch):
    new, old = _twins(arch, seed=1, frozen=[0])
    batch = np.random.default_rng(2).normal(0.0, 1.0, (3,) + new.input_shape)
    x_new, x_old = Tensor(batch), Tensor(batch)
    out_new, out_old = forward(new, x_new), forward_reference(old, x_old)
    assert out_new.data.tobytes() == out_old.data.tobytes()
    if len(new.layers) > 1:
        backward(weighted_sum(out_new, np.ones(out_new.shape)))
        backward(weighted_sum(out_old, np.ones(out_old.shape)))
        assert new.layers[0].weight.grad is None
        assert _leaf_grads(new, x_new) == _leaf_grads(old, x_old)
    else:
        assert not out_new.requires_grad


def test_forward_is_one_node_over_every_parameter_and_the_batch():
    model = build_model("cnn:2x6x6:conv3k3s1p1-pool-dense4-dense2", seed=0)
    x = Tensor(np.zeros((2, 2, 6, 6)))
    out = forward(model, x)
    assert out._rank == 1
    assert set(map(id, out._parents)) == set(map(id, model.parameters() + [x]))


def _case(task: str, scheme: str, beta: float, penalize_output: bool):
    arch = "mlp:3-6-5-3" if task == "classification" else "cnn:1x4x4:conv2k3s1p1-pool-dense2"
    rng = np.random.default_rng(7)
    models = _twins(arch, seed=3)
    shape = (8,) + models[0].input_shape
    x = rng.normal(0.0, 1.0, shape)
    y = rng.integers(0, 3, 8) if task == "classification" else rng.normal(0.0, 1.0, (8, 2))
    extra = {"heaviside_threshold": 1.0, "heaviside_force": 2.0} if scheme == "heaviside" else {}
    spec = RegularizerSpec(scheme=scheme, reg_coefficient=beta, **extra)
    layers = None if penalize_output else range(len(models[0].layers) - 1)
    weights = penalty_weights(spec, models[0], model_indexings(models[0], "random", 4), layers)
    return models, x, y, spec, weights


OBJECTIVE_CASES = [
    ("classification", "none", 0.0, False),
    ("classification", "l1", 0.0, False),
    ("classification", "exponential_etp", 1e-2, False),
    ("classification", "linear_torque", 3e-3, True),
    ("classification", "heaviside", 5e-3, False),
    ("regression", "none", 0.0, False),
    ("regression", "exponential_etp", 0.0, True),
    ("regression", "exponential_etp", 2e-2, True),
    ("regression", "l1", 1e-3, False),
]


def _task_loss(out, y, classification: bool):
    """The training step's task loss."""
    return softmax_cross_entropy(out, y) if classification else mse_loss(out, Tensor(y))


@pytest.mark.parametrize("task, scheme, beta, penalize_output", OBJECTIVE_CASES)
def test_objective_matches_loss_composition_bytes(task, scheme, beta, penalize_output):
    (new, old), x, y, spec, weights = _case(task, scheme, beta, penalize_output)
    classification = task == "classification"
    out_new = forward(new, Tensor(x))
    task_new, pen_new = _task_loss(out_new, y, classification), weighted_penalty(new, weights)
    loss = total_loss(task_new, spec, pen_new)

    out_old = forward_reference(old, Tensor(x))
    task_old, pen_old = _task_loss(out_old, y, classification), penalty_reference(old, weights)
    old_loss = loss_reference(task_old, spec, pen_old)

    assert loss.data.tobytes() == old_loss.data.tobytes()
    assert task_new.item() == task_old.item() and pen_new.item() == pen_old.item()
    if scheme != "none":
        assert pen_new.item() > 0.0  # computed and reported even when beta is 0
    assert loss._rank == 2 and loss._parents[0] is out_new
    backward(loss)
    backward(old_loss)
    for p_new, p_old in zip(new.parameters(), old.parameters()):
        assert p_new.grad.tobytes() == p_old.grad.tobytes()


def _fd_check(build_loss, params):
    """Central differences at rtol 1e-5 for every entry of every tensor in ``params``."""
    for p in params:
        p.grad = None
    backward(build_loss())
    for param in params:
        analytic = param.grad.copy()

        def f(v, _p=param):
            saved = _p.data
            _p.data = v.data.reshape(saved.shape)
            try:
                return build_loss()
            finally:
                _p.data = saved

        fd = finite_diff_grad(f, param, h=1e-4).data
        denom = np.maximum(np.abs(fd), 1e-6)
        assert np.max(np.abs(analytic - fd) / denom) <= 1e-5


@pytest.mark.parametrize("arch", ["mlp:3-5-4-2", "cnn:2x6x6:conv3k3s1p1-pool-conv2k2s2p0-dense3"])
def test_forward_matches_finite_differences(arch):
    model = build_model(arch, seed=11)
    rng = np.random.default_rng(12)
    x = Tensor(rng.normal(0.0, 1.0, (3,) + model.input_shape), requires_grad=True)
    target = Tensor(rng.normal(0.0, 1.0, (3, model.layers[-1].group_count)))
    _fd_check(lambda: mse_loss(forward(model, x), target), model.parameters() + [x])


@pytest.mark.parametrize("task", ["classification", "regression"])
def test_objective_matches_finite_differences(task):
    (model, _), x, y, spec, weights = _case(task, "exponential_etp", 5e-2, True)
    out = Tensor(forward(model, Tensor(x)).data, requires_grad=True)
    build = lambda: total_loss(_task_loss(out, y, task == "classification"), spec, weighted_penalty(model, weights))
    _fd_check(build, [out] + model.parameters())


def test_forward_raises_shape_error_when_a_weight_no_longer_fits():
    model = build_model("mlp:3-4-2", seed=0)
    model.layers[1].weight = Tensor(np.zeros((2, 5)), requires_grad=True)
    with pytest.raises(ShapeError, match="does not fit weight"):
        forward(model, Tensor(np.zeros((2, 3))))
    conv = build_model("cnn:2x4x4:conv3k3s1p1-conv2k3s1p1", seed=0)
    conv.layers[1].weight = Tensor(np.zeros((2, 4, 3, 3)), requires_grad=True)
    with pytest.raises(ShapeError, match="input channels"):
        forward(conv, Tensor(np.zeros((1, 2, 4, 4))))


def test_objective_label_out_of_range_raises_the_loss_error():
    model = build_model("mlp:2-3-2", seed=0)
    out = forward(model, Tensor(np.zeros((2, 2))))
    with pytest.raises(IndexError) as expected:
        softmax_cross_entropy(out, [0, 2])
    cfg = parse_config(
        "arch = mlp:2-3-2\ndataset = two_spirals\ndataset_size = 40\nepochs = 1\n"
        "scheme = l1\nreg_coefficient = 1e-3\n"
    )
    dataset = harness.dataset_for(cfg)
    dataset = dataclasses.replace(dataset, train_y=np.full_like(dataset.train_y, 2))
    with pytest.raises(IndexError) as got:
        harness.train(cfg, dataset)
    assert str(got.value) == str(expected.value) == "label 2 out of range for 2 classes"


def test_training_step_builds_no_node_and_calls_forward_once(monkeypatch):
    calls = {"forward": 0, "backward": 0, "tensors": 0}
    real_forward, real_init = harness.forward, Tensor.__init__

    def counted_forward(model, batch):
        calls["forward"] += 1
        return real_forward(model, batch)

    def counted_backward(loss):
        calls["backward"] += 1

    def counted_init(self, *args, **kwargs):
        calls["tensors"] += calls["forward"] > 0  # the model is built before the first step
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(harness, "forward", counted_forward)
    monkeypatch.setattr(harness, "backward", counted_backward)
    monkeypatch.setattr(Tensor, "__init__", counted_init)
    for task in ("two_spirals", "sine_regression"):
        calls.update(forward=0, tensors=0)
        cfg = parse_config(
            f"arch = mlp:{1 + (task == 'two_spirals')}-8-8-{2 - (task != 'two_spirals')}\ndataset = {task}\n"
            "dataset_size = 100\nepochs = 2\nbatch_size = 32\nscheme = exponential_etp\nreg_coefficient = 1e-3\n"
        )
        harness.train(cfg)
        steps = 2 * -(-harness.dataset_for(cfg).train_x.shape[0] // 32)
        assert calls == {"forward": steps, "backward": 0, "tensors": 0}


SCHEME_KEYS = {"heaviside": {"heaviside_threshold": 1.0, "heaviside_force": 2.0}}
OPTIMIZERS = [("sgd_momentum", 0.0), ("sgd_momentum", 1e-2), ("adam", 0.0), ("adamw", 1e-2)]


def _step_case(arch: str, task: str, seed: int):
    """A model, a 3-batch dataset that fits it, and the model's random indexings."""
    model = build_model(arch, seed=seed)
    rng = np.random.default_rng(seed)
    n, width = 12, model.layers[-1].group_count
    x = rng.normal(0.0, 1.0, (n, int(np.prod(model.input_shape))))
    y = rng.integers(0, width, n) if task == "classification" else rng.normal(0.0, 1.0, (n, width))
    dataset = Dataset("drawn", task, x, y, x, y, np.zeros(x.shape[1]), np.ones(x.shape[1]), width)
    return model, dataset, model_indexings(model, "random", seed)


def _library_epoch(cfg, model, dataset, spec, indexings, layers, shuffle_seed):
    """One epoch through the node API: ``forward`` + ``total_loss(task, weighted_penalty)`` + ``backward`` + ``step``."""
    opt = optimizer_for(cfg, model.parameters())
    weights = penalty_weights(spec, model, indexings, layers)
    n = dataset.train_x.shape[0]
    task_sum = pen_sum = 0.0
    order = np.random.default_rng(shuffle_seed).permutation(n)
    for start in range(0, n, cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        out = forward(model, Tensor(dataset.train_x[idx].reshape((len(idx),) + model.input_shape)))
        task = _task_loss(out, dataset.train_y[idx], dataset.task == "classification")
        pen = weighted_penalty(model, weights)
        backward(total_loss(task, spec, pen))
        opt.step()
        task_sum += task.item() * len(idx)
        pen_sum += pen.item() * len(idx)
    return task_sum / n, pen_sum / n


@pytest.mark.parametrize("arch", ARCHS)
def test_training_step_matches_library_path_bytes(arch):
    """Three steps of ``harness._epochs`` against the node API, per task, scheme, output penalty and optimizer."""
    seed = zlib.crc32(arch.encode()) % 1000
    if not (arch.startswith("mlp:") or re.search(r"dense\d+$", arch)):
        arch += "-dense2"  # a loss needs [N, C] outputs
    for case, (task, scheme, penalize_output) in enumerate(
        (t, s, o) for t in ("classification", "regression") for s in SCHEMES for o in (False, True)
    ):
        kind, decay = OPTIMIZERS[(case + seed) % len(OPTIMIZERS)]
        cfg = TrainConfig(
            arch=arch, dataset="drawn", batch_size=4, lr=0.05, optimizer=kind, weight_decay=decay,
            penalize_output=penalize_output,
        )
        spec = RegularizerSpec(scheme, 0.0 if scheme == "none" else 0.03, **SCHEME_KEYS.get(scheme, {}))
        plain, dataset, indexings = _step_case(arch, task, seed)
        library, _, _ = _step_case(arch, task, seed)
        layers = harness.penalized_layers(cfg, plain)
        record = next(harness._epochs(cfg, plain, dataset, 1, [seed, 11], LrSchedule(), spec, indexings, layers))
        task_mean, pen_mean = _library_epoch(cfg, library, dataset, spec, indexings, layers, [seed, 11])
        assert record.step == 3
        assert (record.task_loss, record.penalty_value) == (task_mean, pen_mean)
        if scheme in ("l1", "exponential_etp"):  # every group pays
            assert pen_mean > 0.0
        for p_plain, p_library in zip(plain.parameters(), library.parameters()):
            assert p_plain.data.tobytes() == p_library.data.tobytes()
