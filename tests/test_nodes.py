"""The library's graph against the training step's plain passes.

The library builds the layer stack (``forward``), the penalty
(``weighted_penalty``) and the training loss (``total_loss``) from the
per-op ``Tensor`` ops.  The training step builds no node: it runs the plain
passes (``layers_fwd``/``layers_bwd``, the loss kernels,
``penalty_fwd``/``penalty_bwd`` and ``total_loss_fwd``), and must give the
graph's values, and the parameter gradients of ``backward``, bit for bit.
"""

import dataclasses
import inspect
import re
import zlib

import numpy as np
import pytest

from torqueprune import harness
from torqueprune.config import TrainConfig, optimizer_for, parse_config
from torqueprune.datasets import Dataset
from torqueprune.model import ConstructionError, build_model, forward, layers_bwd, layers_fwd, model_indexings
from torqueprune.optim import LrSchedule, Optimizer
from torqueprune.regularizers import (
    SCHEMES,
    RegularizerSpec,
    loss_beta,
    penalty_bwd,
    penalty_fwd,
    penalty_weights,
    total_loss,
    total_loss_fwd,
    weighted_penalty,
)
from torqueprune.tensor import (
    ShapeError,
    Tensor,
    backward,
    class_labels,
    mse_loss,
    mse_loss_bwd,
    mse_loss_fwd,
    softmax_cross_entropy,
    softmax_cross_entropy_bwd,
    softmax_cross_entropy_fwd,
    weighted_sum,
)

from oracles import finite_diff_grad


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


def _plain_grads(model, saved, g, pen_saved=(), beta=0.0):
    """Each trainable parameter's gradient bytes as the training step builds them.

    From cleared gradients: ``penalty_bwd`` adds the penalty's gradients for
    gradient ``beta`` (when ``beta`` is set), then ``layers_bwd`` adds the
    task's for output gradient ``g``.
    """
    model.zero_grad()
    if beta:
        penalty_bwd(pen_saved, beta)
    layers_bwd(saved, g)
    return [p.grad.tobytes() for p in model.parameters() if p.requires_grad]


def _graph_grads(model):
    return [p.grad.tobytes() for p in model.parameters() if p.requires_grad]


def test_drawn_architectures_cover_every_layer_option():
    text = " ".join(ARCHS)
    assert "mlp:" in text and "pool" in text and "dense" in text.split("cnn:", 1)[1]
    assert "s2" in text and "p1" in text and "p0" in text


@pytest.mark.parametrize("arch", ARCHS)
def test_forward_matches_per_op_graph_bytes(arch):
    rng = np.random.default_rng(zlib.crc32(arch.encode()))
    model = build_model(arch, seed=int(rng.integers(100)))
    batch = rng.normal(0.0, 1.0, (int(rng.integers(1, 6)),) + model.input_shape)
    out, saved = layers_fwd(model, batch)
    coeffs = rng.normal(0.0, 1.0, out.shape)
    plain = _plain_grads(model, saved, coeffs)
    for requires_grad in (False, True):
        graph = forward(model, Tensor(batch, requires_grad))
        assert graph.data.tobytes() == out.tobytes()
        model.zero_grad()
        backward(weighted_sum(graph, coeffs))
        assert _graph_grads(model) == plain


@pytest.mark.parametrize("arch", ARCHS[:8])
def test_forward_with_frozen_layers_matches_per_op_graph_bytes(arch):
    model = build_model(arch, seed=1)
    model.layers[0].weight.requires_grad = model.layers[0].bias.requires_grad = False
    batch = np.random.default_rng(2).normal(0.0, 1.0, (3,) + model.input_shape)
    out, saved = layers_fwd(model, batch)
    graph = forward(model, Tensor(batch))
    assert graph.data.tobytes() == out.tobytes()
    if len(model.layers) > 1:
        backward(weighted_sum(graph, np.ones(out.shape)))
        assert model.layers[0].weight.grad is None and model.layers[0].bias.grad is None
        assert _graph_grads(model) == _plain_grads(model, saved, np.ones(out.shape))
    else:
        assert not graph.requires_grad


def _case(task: str, scheme: str, beta: float, penalize_output: bool):
    arch = "mlp:3-6-5-3" if task == "classification" else "cnn:1x4x4:conv2k3s1p1-pool-dense2"
    rng = np.random.default_rng(7)
    model = build_model(arch, seed=3)
    shape = (8,) + model.input_shape
    x = rng.normal(0.0, 1.0, shape)
    y = rng.integers(0, 3, 8) if task == "classification" else rng.normal(0.0, 1.0, (8, 2))
    extra = {"heaviside_threshold": 1.0, "heaviside_force": 2.0} if scheme == "heaviside" else {}
    spec = RegularizerSpec(scheme=scheme, reg_coefficient=beta, **extra)
    layers = None if penalize_output else range(len(model.layers) - 1)
    weights = penalty_weights(spec, model, model_indexings(model, "random", 4), layers)
    return model, x, y, spec, weights


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
    model, x, y, spec, weights = _case(task, scheme, beta, penalize_output)
    classification = task == "classification"
    graph_task = _task_loss(forward(model, Tensor(x)), y, classification)
    graph_pen = weighted_penalty(model, weights)
    loss = total_loss(graph_task, spec, graph_pen)

    out, saved = layers_fwd(model, x)
    if classification:
        plain_task, *task_saved = softmax_cross_entropy_fwd(out, class_labels(y, out.shape))
        g = softmax_cross_entropy_bwd(1.0, *task_saved)
    else:
        plain_task, *task_saved = mse_loss_fwd(out, y)
        g = mse_loss_bwd(1.0, *task_saved)
    plain_pen, pen_saved = penalty_fwd(model, weights)
    value = total_loss_fwd(plain_task, plain_pen, loss_beta(spec))

    assert loss.data.tobytes() == np.float64(value).tobytes()
    assert graph_task.data.tobytes() == np.float64(plain_task).tobytes()
    assert graph_pen.data.tobytes() == np.float64(plain_pen).tobytes()
    if scheme != "none":
        assert plain_pen > 0.0  # computed and reported even when beta is 0
    backward(loss)
    assert _graph_grads(model) == _plain_grads(model, saved, g, pen_saved, loss_beta(spec))


def test_backward_passes_add_into_the_optimizer_views():
    """Plain functions, not generators: each adds its gradients into every parameter's bound ``.grad``."""
    assert not inspect.isgeneratorfunction(layers_bwd) and not inspect.isgeneratorfunction(penalty_bwd)
    model, x, y, spec, weights = _case("regression", "exponential_etp", 2e-2, True)
    opt = Optimizer(model.parameters())
    out, saved = layers_fwd(model, x)
    _, diff = mse_loss_fwd(out, y)
    _, pen_saved = penalty_fwd(model, weights)
    assert penalty_bwd(pen_saved, 1.0) is None
    pen_grads = [view.copy() for view in opt.grads]
    assert layers_bwd(saved, mse_loss_bwd(1.0, diff)) is None
    for p, view, pen_grad in zip(model.parameters(), opt.grads, pen_grads, strict=True):
        assert p.grad is view
        assert np.any(pen_grad != 0.0) and np.any(view != pen_grad)


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
    model, x, y, spec, weights = _case(task, "exponential_etp", 5e-2, True)
    out = Tensor(forward(model, Tensor(x)).data, requires_grad=True)
    build = lambda: total_loss(_task_loss(out, y, task == "classification"), spec, weighted_penalty(model, weights))
    _fd_check(build, [out] + model.parameters())


def test_forward_raises_shape_error_when_a_weight_no_longer_fits():
    model = build_model("mlp:3-4-2", seed=0)
    model.layers[1].weight = Tensor(np.zeros((2, 5)), requires_grad=True)
    conv = build_model("cnn:2x4x4:conv3k3s1p1-conv2k3s1p1", seed=0)
    conv.layers[1].weight = Tensor(np.zeros((2, 4, 3, 3)), requires_grad=True)
    for run in (lambda m, x: forward(m, Tensor(x)), layers_fwd):
        with pytest.raises(ShapeError, match="does not fit weight"):
            run(model, np.zeros((2, 3)))
        with pytest.raises(ShapeError, match="input channels"):
            run(conv, np.zeros((1, 2, 4, 4)))


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
    """One epoch through the graph: ``forward`` + ``total_loss(task, weighted_penalty)`` + ``backward`` + ``step``."""
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
    """Three steps of ``harness._epochs`` against the graph, per task, scheme, output penalty and optimizer."""
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
