from dataclasses import replace

import numpy as np
import pytest

from torqueprune.model import (
    ConstructionError,
    GroupedLayer,
    ModelGraph,
    assign_indexing,
    build_model,
    forward,
    group_norm_values,
    model_indexings,
    parse_arch,
)
from torqueprune.tensor import ShapeError, Tensor, backward, group_norms, sum_all

from oracles import coupled_slices, group_l2_norm


def dense_layer(weight, bias=None):
    b = None if bias is None else Tensor(np.asarray(bias, dtype=np.float64), requires_grad=True)
    return GroupedLayer("dense", Tensor(np.asarray(weight, dtype=np.float64), requires_grad=True), b)


# ---------------------------------------------------------------- build_model


def test_build_mlp_group_counts():
    model = build_model("mlp:2-8-2", seed=0)
    assert [layer.group_count for layer in model.layers] == [8, 2]
    assert model.input_shape == (2,)
    assert model.couplings == [1]


def test_build_cnn_flatten_mapping_is_channel_major():
    model = build_model("cnn:1x6x6:conv4k3s1p1-dense2", seed=0)
    assert model.couplings == [36]  # 6x6 spatial, channel-major layout
    assert model.layers[1].in_size == 4 * 36


def test_build_is_seed_deterministic():
    a = build_model("mlp:2-8-2", seed=3)
    b = build_model("mlp:2-8-2", seed=3)
    c = build_model("mlp:2-8-2", seed=4)
    assert np.array_equal(a.layers[0].weight.data, b.layers[0].weight.data)
    assert not np.array_equal(a.layers[0].weight.data, c.layers[0].weight.data)


def test_parse_arch_errors():
    for bad in [
        "mlp:2", "mlp:a-b", "cnn:3x32x32", "cnn:3x32x32:foo9", "resnet:50", "cnn:3x32x32:pool-dense2",
        "cnn:1x4x4:conv2k0-dense2", "cnn:1x4x4:conv0k3s1p1-dense2", "cnn:0x4x4:conv2k3s1p1-dense2",
        "cnn:1x0x4:dense2", "cnn:1x4x4:dense0-dense2", "cnn:1x4x4:conv2k3s1p1-pool-pool-dense2",
    ]:
        with pytest.raises(ConstructionError):
            parse_arch(bad)


def test_parse_arch_cnn_tokens():
    arch = parse_arch("cnn:3x32x32:conv8k3s1p1-pool-dense10")
    assert arch.input_shape == (3, 32, 32)
    conv = arch.layers[0]
    assert (conv.out, conv.k, conv.stride, conv.padding, conv.pool) == (8, 3, 1, 1, True)
    assert arch.layers[1].kind == "dense" and arch.layers[1].out == 10


# ---------------------------------------------------------------- indexing


def test_assign_indexing_natural():
    idx = assign_indexing(4, "natural")
    assert np.array_equal(idx.assigned_indices, [0, 1, 2, 3])
    assert idx.pivot_index == 0
    assert np.array_equal(idx.distances, [0, 1, 2, 3])


def test_assign_indexing_random_deterministic_permutation():
    a = assign_indexing(16, "random", seed=5)
    b = assign_indexing(16, "random", seed=5)
    assert np.array_equal(a.assigned_indices, b.assigned_indices)
    assert sorted(a.assigned_indices.tolist()) == list(range(16))
    assert a.pivot_index == int(a.assigned_indices[0])


def test_assign_indexing_single_group():
    for strategy in ("natural", "random"):
        idx = assign_indexing(1, strategy, seed=9)
        assert np.array_equal(idx.distances, [0])


def test_max_distance_bounds():
    for seed in range(5):
        idx = assign_indexing(10, "random", seed=seed)
        assert idx.distances.max() <= 9
    assert assign_indexing(10, "natural").distances.max() == 9


def test_model_indexings_per_layer_seeds_differ():
    model = build_model("mlp:2-16-16-2", seed=0)
    idxs = model_indexings(model, "random", seed=1)
    assert not np.array_equal(idxs[0].assigned_indices, idxs[1].assigned_indices)
    again = model_indexings(model, "random", seed=1)
    for a, b in zip(idxs, again):
        assert np.array_equal(a.assigned_indices, b.assigned_indices)


# ---------------------------------------------------------------- group norms


def test_group_l2_norm_three_four_five():
    layer = dense_layer([[3.0, 4.0]])
    assert group_l2_norm(layer, 0).item() == 5.0


def test_group_l2_norm_zero_group_zero_grad():
    layer = dense_layer([[0.0, 0.0]], bias=[0.0])
    n = group_l2_norm(layer, 0)
    assert n.item() == 0.0
    backward(n)
    assert np.array_equal(layer.weight.grad, [[0.0, 0.0]])
    assert np.array_equal(layer.bias.grad, [0.0])


def test_group_l2_norm_conv_filter_of_ones():
    w = Tensor(np.ones((1, 2, 3, 3)), requires_grad=True)
    layer = GroupedLayer("conv2d", w, None)
    assert group_l2_norm(layer, 0).item() == pytest.approx(np.sqrt(18.0), rel=1e-12)


def test_group_l2_norm_index_error():
    with pytest.raises(IndexError):
        group_l2_norm(dense_layer([[1.0, 0.0]]), 1)


def test_norms_squared_sum_to_frobenius():
    rng = np.random.default_rng(2)
    w = rng.uniform(-1, 1, (6, 4))
    b = rng.uniform(-1, 1, 6)
    layer = dense_layer(w, bias=b)
    norms = group_norms(layer.weight, layer.bias).data
    frob_sq = float((w * w).sum() + (b * b).sum())
    assert abs((norms**2).sum() - frob_sq) <= 1e-9


def test_group_norm_values_matches_op():
    model = build_model("cnn:1x6x6:conv4k3s1p1-dense3", seed=1)
    for layer, vals in zip(model.layers, group_norm_values(model)):
        assert np.allclose(vals, group_norms(layer.weight, layer.bias).data)
        assert np.allclose(vals, [group_l2_norm(layer, i).item() for i in range(layer.group_count)])


# ---------------------------------------------------------------- forward


def test_forward_identity_network():
    eye = ModelGraph(layers=[dense_layer(np.eye(3)), dense_layer(np.eye(3))], input_shape=(3,))
    assert eye.couplings == [1]
    x = np.random.default_rng(0).uniform(-1, 1, (5, 3))
    out = forward(eye, Tensor(x))
    assert np.allclose(out.data, x)


def test_forward_batch_width_mismatch():
    model = build_model("mlp:2-4-2", seed=0)
    with pytest.raises(ShapeError):
        forward(model, Tensor(np.zeros((3, 5))))


def test_forward_deterministic():
    model = build_model("mlp:3-8-2", seed=0)
    x = Tensor(np.random.default_rng(1).uniform(-1, 1, (4, 3)))
    a = forward(model, x).data
    b = forward(model, x).data
    assert np.array_equal(a, b)


def test_forward_zeroed_group_matches_structural_absence():
    # zero group 1 of the hidden layer, then compare against a model built
    # without that group at all
    model = build_model("mlp:2-4-2", seed=7)
    model.layers[0].weight.data[1] = 0.0
    model.layers[0].bias.data[1] = 0.0

    keep = [0, 2, 3]
    small = ModelGraph(
        layers=[
            replace(dense_layer(model.layers[0].weight.data[keep], model.layers[0].bias.data[keep]), activation="relu"),
            dense_layer(model.layers[1].weight.data[:, keep], model.layers[1].bias.data),
        ],
        input_shape=(2,),
    )
    x = Tensor(np.random.default_rng(3).uniform(-1, 1, (10, 2)))
    assert np.allclose(forward(model, x).data, forward(small, x).data, atol=1e-12)


def test_forward_cnn_end_to_end_shapes():
    model = build_model("cnn:1x8x8:conv4k3s1p1-pool-dense3", seed=0)
    out = forward(model, Tensor(np.random.default_rng(0).uniform(-1, 1, (2, 1, 8, 8))))
    assert out.shape == (2, 3)
    backward(sum_all(out))
    for p in model.parameters():
        assert p.grad is not None and np.all(np.isfinite(p.grad))


# ---------------------------------------------------------------- couplings


def test_coupled_slices_dense_chain():
    model = build_model("mlp:2-8-2", seed=0)
    assert coupled_slices(model, 0, 3) == [(1, (3,))]
    assert coupled_slices(model, 1, 0) == []


def test_coupled_slices_conv_to_dense_enumerates_flatten_mapping():
    model = build_model("cnn:1x6x6:conv4k3s1p1-dense2", seed=0)
    refs = coupled_slices(model, 0, 2)
    assert len(refs) == 1
    layer, cols = refs[0]
    assert layer == 1
    assert cols == tuple(range(2 * 36, 3 * 36))


def test_coupled_slices_conv_to_conv():
    model = build_model("cnn:1x6x6:conv4k3s1p1-conv3k3s1p1-dense2", seed=0)
    assert coupled_slices(model, 0, 1) == [(1, (1,))]


def test_checkpoint_roundtrip():
    model = build_model("cnn:1x6x6:conv4k3s1p1-dense3", seed=5)
    clone = ModelGraph.from_dict(model.to_dict())
    x = Tensor(np.random.default_rng(0).uniform(-1, 1, (3, 1, 6, 6)))
    assert np.array_equal(forward(model, x).data, forward(clone, x).data)
    assert clone.couplings == model.couplings
