import math

import numpy as np
import pytest

from torqueprune.model import GroupedLayer, assign_indexing, build_model, forward, model_indexings
from torqueprune.regularizers import (
    BETA_GRID,
    RegularizerSpec,
    distance_weight,
    model_penalty,
    penalty,
    resolve_exp_base,
    total_loss,
)
from torqueprune.tensor import ContractError, Tensor, backward, softmax_cross_entropy

from oracles import finite_diff_grad, heaviside_reference_penalty


def layer_with_norms(norms):
    # one weight column per group, so group i's norm is exactly norms[i]
    w = np.zeros((len(norms), 2))
    w[:, 0] = norms
    return GroupedLayer("dense", Tensor(w, requires_grad=True), None)


THREE = layer_with_norms([1.0, 2.0, 3.0])
NATURAL3 = assign_indexing(3, "natural")


# ---------------------------------------------------------------- exp base


def test_resolve_exp_base_values():
    assert resolve_exp_base(5) == pytest.approx(math.e, rel=1e-12)
    assert resolve_exp_base(256) == pytest.approx(math.exp(5.0 / 256.0), abs=1e-12)
    assert resolve_exp_base(1) == pytest.approx(math.exp(5.0), rel=1e-12)


def test_resolve_exp_base_zero_groups():
    with pytest.raises(ContractError):
        resolve_exp_base(0)


def test_single_group_layer_weight_is_one():
    spec = RegularizerSpec(scheme="exponential_etp")
    assert distance_weight(spec, 0, group_count=1) == 1.0


def test_endpoint_ratio_follows_default_rule():
    for g in (5, 64, 256):
        spec = RegularizerSpec(scheme="exponential_etp")
        ratio = distance_weight(spec, g - 1, group_count=g) / distance_weight(spec, 0, group_count=g)
        assert ratio == pytest.approx(math.exp(5.0 * (g - 1) / g), abs=1e-9)


# ---------------------------------------------------------------- distance weights


def test_linear_pivot_pays_nothing():
    assert distance_weight(RegularizerSpec(scheme="linear_torque"), 0) == 0.0
    assert distance_weight(RegularizerSpec(scheme="linear_torque"), 7) == 7.0


def test_exponential_pivot_pays_one():
    spec = RegularizerSpec(scheme="exponential_etp", exp_base=3.0)
    assert distance_weight(spec, 0) == 1.0
    assert distance_weight(spec, 2) == 9.0


def test_heaviside_indicator_edges():
    spec = RegularizerSpec(scheme="heaviside", heaviside_threshold=3.0, heaviside_force=10.0)
    assert distance_weight(spec, 2) == 0.0
    assert distance_weight(spec, 3) == 10.0
    assert distance_weight(spec, 4) == 10.0


def test_l1_is_distance_independent():
    spec = RegularizerSpec(scheme="l1")
    assert distance_weight(spec, 0) == distance_weight(spec, 100) == 1.0


def test_monotonicity_properties():
    exp_spec = RegularizerSpec(scheme="exponential_etp", exp_base=1.5)
    lin_spec = RegularizerSpec(scheme="linear_torque")
    for d in range(0, 20):
        assert distance_weight(exp_spec, d + 1) > distance_weight(exp_spec, d)
        assert distance_weight(lin_spec, d + 1) - distance_weight(lin_spec, d) == 1.0


def test_heaviside_and_exponential_order_weights_the_same_way():
    h = RegularizerSpec(scheme="heaviside", heaviside_threshold=4.0, heaviside_force=2.0)
    e = RegularizerSpec(scheme="exponential_etp", exp_base=2.0)
    ds = list(range(10))
    hw = [distance_weight(h, d) for d in ds]
    ew = [distance_weight(e, d) for d in ds]
    for i in range(len(ds) - 1):
        assert hw[i + 1] >= hw[i]
        assert ew[i + 1] >= ew[i]


# ---------------------------------------------------------------- penalty


def test_penalty_exponential_base2_is_17():
    spec = RegularizerSpec(scheme="exponential_etp", exp_base=2.0)
    assert penalty(spec, THREE, NATURAL3).item() == pytest.approx(17.0, abs=1e-9)


def test_penalty_linear_is_8():
    spec = RegularizerSpec(scheme="linear_torque")
    assert penalty(spec, THREE, NATURAL3).item() == pytest.approx(8.0, abs=1e-9)


def test_penalty_zero_weights_any_scheme():
    zero = layer_with_norms([0.0, 0.0, 0.0])
    for scheme in ("linear_torque", "l1", "exponential_etp"):
        spec = RegularizerSpec(scheme=scheme, exp_base=2.0 if scheme == "exponential_etp" else None)
        assert penalty(spec, zero, NATURAL3).item() == 0.0


def test_penalty_nonnegative_random():
    rng = np.random.default_rng(0)
    for seed in range(5):
        layer = layer_with_norms(rng.uniform(0, 3, 6))
        idx = assign_indexing(6, "random", seed=seed)
        for scheme in ("linear_torque", "l1", "exponential_etp"):
            spec = RegularizerSpec(scheme=scheme, exp_base=1.3 if scheme == "exponential_etp" else None)
            assert penalty(spec, layer, idx).item() >= 0.0


def test_penalty_degree_one_homogeneous_per_group():
    spec = RegularizerSpec(scheme="exponential_etp", exp_base=2.0)
    base = penalty(spec, THREE, NATURAL3).item()
    scaled = layer_with_norms([1.0, 2.0 * 3.0, 3.0])  # scale group 1 by 3
    # contribution of group 1 was 2 * 2 = 4; now 6 * 2 = 12
    assert penalty(spec, scaled, NATURAL3).item() == pytest.approx(base + 2 * 4.0, abs=1e-9)


def test_heaviside_reference_values():
    layer = layer_with_norms([1.0, 2.0, 3.0])
    idx = assign_indexing(3, "natural")
    assert heaviside_reference_penalty(layer, idx, 2.0, 5.0) == pytest.approx(15.0, abs=1e-12)
    assert heaviside_reference_penalty(layer, idx, 10.0, 5.0) == 0.0
    assert heaviside_reference_penalty(layer, idx, 0.0, 5.0) == pytest.approx(5.0 * 6.0, abs=1e-12)


# ---------------------------------------------------------------- total loss


def test_total_loss_zero_coefficient_is_identity():
    model = build_model("mlp:2-4-2", seed=0)
    idxs = model_indexings(model)
    logits = forward(model, Tensor(np.random.default_rng(0).uniform(-1, 1, (4, 2))))
    task = softmax_cross_entropy(logits, [0, 1, 0, 1])
    spec = RegularizerSpec(scheme="exponential_etp", reg_coefficient=0.0, exp_base=2.0)
    assert total_loss(task, spec, model_penalty(spec, model, idxs)) is task


def test_total_loss_arithmetic():
    task = Tensor(1.0)
    spec = RegularizerSpec(scheme="exponential_etp", reg_coefficient=1e-3, exp_base=2.0)
    model = build_model("mlp:2-3-3", seed=0)
    model.layers[0].weight.data[:] = THREE.weight.data
    model.layers[0].bias.data[:] = 0.0
    model.layers[1].weight.data[:] = 0.0
    model.layers[1].bias.data[:] = 0.0
    out = total_loss(task, spec, model_penalty(spec, model, model_indexings(model)))
    assert out.item() == pytest.approx(1.017, abs=1e-12)


def test_total_loss_gradient_is_task_grad_plus_weighted_direction():
    model = build_model("mlp:2-5-3", seed=1)
    idxs = model_indexings(model)
    beta = 1e-2
    spec = RegularizerSpec(scheme="exponential_etp", reg_coefficient=beta)
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, (6, 2)))
    labels = [0, 1, 2, 0, 1, 2]

    task = softmax_cross_entropy(forward(model, x), labels)
    backward(task)
    task_gw = model.layers[0].weight.grad.copy()

    model.zero_grad()
    backward(total_loss(softmax_cross_entropy(forward(model, x), labels), spec, model_penalty(spec, model, idxs)))
    total_gw = model.layers[0].weight.grad.copy()

    layer = model.layers[0]
    base = resolve_exp_base(layer.group_count)
    w = layer.weight.data
    norms = np.sqrt((w * w).sum(axis=1) + layer.bias.data**2)
    expected = task_gw + beta * (base ** idxs[0].distances.astype(float))[:, None] * w / norms[:, None]
    assert np.allclose(total_gw, expected, atol=1e-12)


@pytest.mark.parametrize("scheme", ["linear_torque", "exponential_etp", "l1"])
def test_total_loss_matches_finite_differences(scheme):
    model = build_model("mlp:2-4-3", seed=3)
    idxs = model_indexings(model)
    spec = RegularizerSpec(scheme=scheme, reg_coefficient=5e-3)
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (5, 2)))
    labels = [0, 1, 2, 1, 0]

    def build_loss():
        return total_loss(softmax_cross_entropy(forward(model, x), labels), spec, model_penalty(spec, model, idxs))

    model.zero_grad()
    backward(build_loss())
    for param in model.parameters():
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


def test_spec_validation():
    with pytest.raises(ContractError):
        RegularizerSpec(scheme="bogus")
    with pytest.raises(ContractError):
        RegularizerSpec(scheme="exponential_etp", exp_base=0.5)
    with pytest.raises(ContractError):
        RegularizerSpec(scheme="heaviside")
    with pytest.raises(ContractError):
        RegularizerSpec(scheme="l1", reg_coefficient=-1.0)


def test_beta_grid_is_the_documented_seven_point_grid():
    assert BETA_GRID == (1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3)


def test_model_penalty_uses_per_layer_bases():
    # two layers with different widths must resolve different default bases
    model = build_model("mlp:2-4-2", seed=0)
    idxs = model_indexings(model)
    spec = RegularizerSpec(scheme="exponential_etp")
    total = model_penalty(spec, model, idxs).item()
    expected = 0.0
    for layer, idx in zip(model.layers, idxs):
        base = resolve_exp_base(layer.group_count)
        w = layer.weight.data.reshape(layer.group_count, -1)
        norms = np.sqrt((w * w).sum(axis=1) + layer.bias.data**2)
        expected += float((norms * base ** idx.distances.astype(float)).sum())
    assert total == pytest.approx(expected, rel=1e-12)
