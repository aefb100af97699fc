"""The training step's two graph nodes: the layer stack (``forward``) and the objective.

Both must give the bits of the per-op graph they replace: the forward pass
of ``oracles.forward_reference``, and ``softmax_cross_entropy``/``mse_loss``
plus ``weighted_penalty`` composed by ``total_loss``.
"""

import zlib

import numpy as np
import pytest

from torqueprune import harness
from torqueprune.config import parse_config
from torqueprune.model import ConstructionError, build_model, forward, model_indexings
from torqueprune.regularizers import RegularizerSpec, objective, penalty_weights, total_loss, weighted_penalty
from torqueprune.tensor import ShapeError, Tensor, backward, mse_loss, softmax_cross_entropy, weighted_sum

from oracles import finite_diff_grad, forward_reference


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


@pytest.mark.parametrize("task, scheme, beta, penalize_output", OBJECTIVE_CASES)
def test_objective_matches_loss_composition_bytes(task, scheme, beta, penalize_output):
    (new, old), x, y, spec, weights = _case(task, scheme, beta, penalize_output)
    classification = task == "classification"
    out_new = forward(new, Tensor(x))
    loss, task_value, pen_value = objective(out_new, y, classification, spec, new, weights)

    out_old = forward_reference(old, Tensor(x))
    task_loss = softmax_cross_entropy(out_old, y) if classification else mse_loss(out_old, Tensor(y))
    pen = weighted_penalty(old, weights)
    old_loss = total_loss(task_loss, spec, pen)

    assert loss.data.tobytes() == old_loss.data.tobytes()
    assert task_value == task_loss.item() and pen_value == pen.item()
    if scheme != "none":
        assert pen_value > 0.0  # computed and reported even when beta is 0
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
    build = lambda: objective(out, y, task == "classification", spec, model, weights)[0]
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
    with pytest.raises(IndexError) as got:
        objective(out, [0, 2], True, RegularizerSpec(), model, [])
    assert str(got.value) == str(expected.value) == "label 2 out of range for 2 classes"


def test_training_step_builds_two_nodes_and_runs_each_hook_once(monkeypatch):
    calls = {"forward": 0, "backward": 0, "nodes": []}
    real_forward, real_backward = harness.forward, harness.backward

    def counted_forward(model, batch):
        calls["forward"] += 1
        return real_forward(model, batch)

    def counted_backward(loss):
        calls["backward"] += 1
        nodes, stack = set(), [loss]
        while stack:
            node = stack.pop()
            if node._bwd is not None and id(node) not in nodes:
                nodes.add(id(node))
                stack.extend(node._parents)
        calls["nodes"].append(len(nodes))
        return real_backward(loss)

    monkeypatch.setattr(harness, "forward", counted_forward)
    monkeypatch.setattr(harness, "backward", counted_backward)
    cfg = parse_config(
        "arch = mlp:2-8-8-2\ndataset = two_spirals\ndataset_size = 100\nepochs = 2\nbatch_size = 32\n"
        "scheme = exponential_etp\nreg_coefficient = 1e-3\n"
    )
    harness.train(cfg)
    steps = 2 * -(-harness.dataset_for(cfg).train_x.shape[0] // 32)
    assert calls["forward"] == calls["backward"] == steps
    assert calls["nodes"] == [2] * steps
