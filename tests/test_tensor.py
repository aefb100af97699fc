import math
import tracemalloc

import numpy as np
import pytest

from torqueprune import tensor
from torqueprune.tensor import (
    ContractError,
    ShapeError,
    Tensor,
    add,
    avg_pool2x2,
    backward,
    bias_add,
    conv2d,
    group_norms,
    linear,
    matmul,
    mse_loss,
    mul,
    relu,
    reshape,
    scale,
    softmax_cross_entropy,
    sum_all,
    transpose,
    weighted_sum,
)

from oracles import (
    avg_pool_reference,
    conv2d_reference,
    dense_chain_reference,
    finite_diff_grad,
    l2_norm,
    relu_reference,
    take_axis0,
)


def t(data, rg=False):
    return Tensor(np.asarray(data, dtype=np.float64), requires_grad=rg)


# ---------------------------------------------------------------- matmul


def test_matmul_identity():
    out = matmul(t([[1.0, 0.0], [0.0, 1.0]]), t([[3.0], [4.0]]))
    assert np.array_equal(out.data, [[3.0], [4.0]])


def test_matmul_hand_product():
    out = matmul(t([[1.0, 2.0], [3.0, 4.0]]), t([[5.0], [6.0]]))
    assert np.array_equal(out.data, [[17.0], [39.0]])


def test_matmul_shape_mismatch_names_both_shapes():
    with pytest.raises(ShapeError) as exc:
        matmul(t(np.zeros((2, 3))), t(np.zeros((4, 5))))
    assert "(2, 3)" in str(exc.value) and "(4, 5)" in str(exc.value)


def test_matmul_backward_rules():
    a = t([[1.0, 2.0], [3.0, 4.0]], rg=True)
    b = t([[5.0, 6.0], [7.0, 8.0]], rg=True)
    backward(sum_all(matmul(a, b)))
    g = np.ones((2, 2))
    assert np.allclose(a.grad, g @ b.data.T)
    assert np.allclose(b.grad, a.data.T @ g)


# ---------------------------------------------------------------- linear


def _dense_leaves(seed, with_bias):
    rng = np.random.default_rng(seed)
    x = t(rng.standard_normal((6, 5)), rg=True)
    w = t(rng.standard_normal((4, 5)), rg=True)
    b = t(rng.standard_normal(4), rg=True) if with_bias else None
    return x, w, b


@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
def test_linear_matches_dense_chain_bit_for_bit(with_bias):
    coeffs = np.random.default_rng(9).standard_normal((6, 4))
    fast = _dense_leaves(3, with_bias)
    chain = _dense_leaves(3, with_bias)
    out = linear(*fast)
    ref = dense_chain_reference(*chain)
    assert out.data.tobytes() == ref.data.tobytes()
    backward(weighted_sum(out, coeffs))
    backward(weighted_sum(ref, coeffs))
    for leaf, ref_leaf in zip(fast, chain):
        if leaf is not None:
            assert leaf.grad.tobytes() == ref_leaf.grad.tobytes()


@pytest.mark.parametrize("with_bias", [True, False], ids=["bias", "no_bias"])
def test_gradcheck_linear(with_bias):
    x, w, b = _dense_leaves(5, with_bias)
    target = t(np.zeros((6, 4)))
    backward(mse_loss(linear(x, w, b), target))

    def loss_with(xv, wv, bv):
        return mse_loss(linear(Tensor(xv), Tensor(wv), None if bv is None else Tensor(bv)), target)

    bias_data = None if b is None else b.data
    assert _rel_err(x.grad, finite_diff_grad(lambda v: loss_with(v.data, w.data, bias_data), x).data) <= 1e-5
    assert _rel_err(w.grad, finite_diff_grad(lambda v: loss_with(x.data, v.data, bias_data), w).data) <= 1e-5
    if b is not None:
        assert _rel_err(b.grad, finite_diff_grad(lambda v: loss_with(x.data, w.data, v.data), b).data) <= 1e-5


def test_linear_shape_errors_name_the_shapes():
    with pytest.raises(ShapeError, match=r"\(2, 3\).*\(4, 5\)"):
        linear(t(np.zeros((2, 3))), t(np.zeros((4, 5))))
    with pytest.raises(ShapeError, match="bias"):
        linear(t(np.zeros((2, 3))), t(np.zeros((4, 3))), t(np.zeros(3)))


# ---------------------------------------------------------------- special values

# NaN, signed zeros, infinities, subnormals and values near the overflow edge
SPECIALS = np.array([np.nan, 0.0, -0.0, np.inf, -np.inf, 5e-324, -5e-324, 2.5e-310, -1e-308, 1e308, -1e308])


def _special_data(seed, shape):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(shape) * 10.0 ** rng.integers(-6, 7, shape)
    pick = rng.random(shape) < 0.3
    x[pick] = rng.choice(SPECIALS, size=int(pick.sum()))
    x[..., :2, :2] = -0.0  # a whole pooling window of negative zeros
    x.reshape(-1)[-3:] = -0.0  # where vectorized loops leave a scalar tail
    return x


def _assert_same_bits(a, b):
    """Equal bit for bit, signed zeros included; any NaN matches any NaN."""
    nan = np.isnan(a)
    assert np.array_equal(nan, np.isnan(b))
    assert a[~nan].tobytes() == b[~nan].tobytes()


@pytest.mark.parametrize("shape", [(1, 5), (7, 9), (2, 3, 6, 8), (16, 8, 16, 16)])
def test_relu_matches_where_reference_bit_for_bit(shape):
    data = _special_data(0, shape)
    x, x_ref = t(data, rg=True), t(data, rg=True)
    out, ref = relu(x), relu_reference(x_ref)
    assert out.data.tobytes() == ref.data.tobytes()
    coeffs = np.random.default_rng(1).standard_normal(shape)
    with np.errstate(all="ignore"):
        backward(weighted_sum(out, coeffs))
        backward(weighted_sum(ref, coeffs))
    assert x.grad.tobytes() == x_ref.grad.tobytes()


# one-column pooled maps (W = 2) take numpy's other summation order
@pytest.mark.parametrize(
    "shape", [(1, 1, 2, 2), (3, 2, 6, 2), (4, 3, 16, 2), (2, 3, 4, 6), (2, 2, 2, 8), (8, 8, 16, 16), (8, 16, 8, 8)]
)
def test_avg_pool_matches_reshape_mean_bit_for_bit(shape):
    data = _special_data(2, shape)
    x, x_ref = t(data, rg=True), t(data, rg=True)
    with np.errstate(all="ignore"):
        out, ref = avg_pool2x2(x), avg_pool_reference(x_ref)
        _assert_same_bits(out.data, ref.data)
        coeffs = np.random.default_rng(3).standard_normal(out.shape)
        backward(weighted_sum(out, coeffs))
        backward(weighted_sum(ref, coeffs))
    assert x.grad.tobytes() == x_ref.grad.tobytes()


# ---------------------------------------------------------------- conv2d


def test_conv2d_all_ones_sum():
    out = conv2d(t(np.ones((1, 1, 3, 3))), t(np.ones((1, 1, 3, 3))))
    assert out.shape == (1, 1, 1, 1)
    assert out.item() == 9.0


def test_conv2d_ramp_stride2():
    x = t(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4))
    k = t(np.array([[1.0, 0.0], [0.0, 1.0]]).reshape(1, 1, 2, 2))
    out = conv2d(x, k, stride=2)
    assert np.array_equal(out.data[0, 0], [[5.0, 9.0], [21.0, 25.0]])


def test_conv2d_kernel_exceeds_input():
    with pytest.raises(ShapeError):
        conv2d(t(np.zeros((1, 1, 2, 2))), t(np.zeros((1, 1, 3, 3))))


def test_conv2d_1x1_ones_kernel_is_identity():
    rng = np.random.default_rng(0)
    x = t(rng.uniform(-1, 1, (2, 1, 5, 4)))
    out = conv2d(x, t(np.ones((1, 1, 1, 1))))
    assert np.allclose(out.data, x.data)


def test_conv2d_padding_and_output_shape():
    x = t(np.ones((1, 3, 32, 32)))
    k = t(np.ones((8, 3, 3, 3)))
    out = conv2d(x, k, stride=1, padding=1)
    assert out.shape == (1, 8, 32, 32)


# (N, C, H, W, O, K, stride, padding): every stride 1-3, padding 0-2 and
# kernel 1-3, a non-square input, and spans (H + 2p - K) the stride does not
# divide, so the last rows and columns of the padded input are never read.
CONV_CASES = [
    (2, 3, 6, 6, 4, 3, 1, 0),
    (2, 3, 7, 7, 4, 3, 2, 1),
    (2, 2, 8, 5, 3, 2, 3, 2),
    (3, 4, 5, 5, 2, 1, 1, 0),
    (2, 2, 5, 7, 3, 1, 2, 1),
    (2, 3, 9, 6, 5, 3, 2, 2),
    (1, 1, 4, 4, 1, 3, 3, 1),
    (2, 3, 4, 6, 2, 2, 1, 1),
    # batches that span two or more row blocks of the column matrix
    (40, 3, 16, 16, 4, 3, 1, 1),
    (100, 4, 17, 17, 3, 3, 2, 1),
    (50, 2, 20, 20, 3, 5, 1, 0),
]


def _row_blocks(n, c, h, w, o, k, stride, padding):
    h_out, w_out = (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1
    return len(tensor._row_blocks(n, 8 * c * k * k * h_out * w_out))


def test_conv_cases_span_several_row_blocks():
    blocked = [case for case in CONV_CASES if _row_blocks(*case) > 1]
    assert len(blocked) >= 3
    assert any(case[6] == 2 for case in blocked) and any(case[7] == 0 for case in blocked)


@pytest.mark.parametrize("n,c,h,w,o,k,stride,padding", CONV_CASES)
def test_conv2d_matches_einsum_reference(n, c, h, w, o, k, stride, padding):
    rng = np.random.default_rng(n * 1000 + h * 10 + k)
    x_data = rng.uniform(-1, 1, (n, c, h, w))
    k_data = rng.uniform(-1, 1, (o, c, k, k))
    results = []
    for op in (conv2d, conv2d_reference):
        x, kern = t(x_data, rg=True), t(k_data, rg=True)
        out = op(x, kern, stride=stride, padding=padding)
        upstream = np.random.default_rng(7).uniform(-1, 1, out.shape)
        backward(weighted_sum(out, upstream))
        results.append((out.data, x.grad, kern.grad))
    assert results[0][0].shape == (n, o, (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1)
    for got, want in zip(*results):
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize(
    "x_shape,k_shape", [((320, 3, 16, 16), (8, 3, 3, 3)), ((320, 8, 8, 8), (16, 8, 3, 3))], ids=["stage1", "stage2"]
)
def test_conv2d_forward_builds_no_window_buffer(x_shape, k_shape):
    """Peak forward memory stays within 3 outputs plus the padded input.

    An im2col matrix of [N*H_out*W_out, C*K*K] rows would exceed it on both shapes.
    """
    rng = np.random.default_rng(0)
    x = t(rng.uniform(-1, 1, x_shape), rg=True)
    kern = t(rng.uniform(-1, 1, k_shape), rg=True)
    n, c, h, w = x_shape
    out_bytes = n * k_shape[0] * h * w * 8
    padded_bytes = n * c * (h + 2) * (w + 2) * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        out = conv2d(x, kern, stride=1, padding=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out.shape == (n, k_shape[0], h, w)
    assert peak <= 3 * out_bytes + padded_bytes


def _batch_last(a):
    """Whether ``a`` [N, C, H, W] has the batch axis innermost in memory, then W, H and C."""
    return a.strides[0] == a.itemsize and a.strides[1] > a.strides[2] > a.strides[3] > a.strides[0]


@pytest.mark.parametrize("layout", ["batch_last", "c_order"])
def test_conv2d_bias_gradient_is_the_bias_add_gradient_bytes(layout):
    rng = np.random.default_rng(3)
    x, kern = rng.uniform(-1, 1, (6, 3, 7, 7)), rng.uniform(-1, 1, (4, 3, 3, 3))
    out, xp = tensor.conv2d_fwd(x, kern, rng.uniform(-1, 1, 4), 2, 1)
    g = rng.uniform(-1, 1, out.shape)
    if layout == "batch_last":
        g = np.ascontiguousarray(g.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)
    _, _, gb = tensor.conv2d_bwd(g, xp, kern, 2, 1, True)
    assert gb.tobytes() == tensor.bias_add_bwd(g).tobytes()


def test_conv_block_keeps_batch_last_layout():
    """Conv, relu and pool outputs and their gradients stay batch-last, so no block copies to transpose."""
    rng = np.random.default_rng(4)
    k1, b1 = rng.uniform(-1, 1, (4, 3, 3, 3)), rng.uniform(-1, 1, 4)
    k2, b2 = rng.uniform(-1, 1, (5, 4, 2, 2)), rng.uniform(-1, 1, 5)
    out, xp = tensor.conv2d_fwd(rng.uniform(-1, 1, (3, 3, 8, 8)), k1, b1, 1, 1)
    act = tensor.relu_fwd(out)
    pooled = tensor.avg_pool2x2_fwd(act)
    out2, xp2 = tensor.conv2d_fwd(pooled, k2, b2, 2, 0)
    assert all(map(_batch_last, (out, act, pooled, out2)))
    assert np.shares_memory(xp2, pooled)  # an unpadded conv reads its batch-last input in place
    g2 = np.ascontiguousarray(rng.uniform(-1, 1, out2.transpose(1, 2, 3, 0).shape)).transpose(3, 0, 1, 2)
    g_pooled, _, _ = tensor.conv2d_bwd(g2, xp2, k2, 2, 0, True)
    g_act = tensor.avg_pool2x2_bwd(g_pooled)
    g_out = tensor.relu_bwd(g_act, out)
    gx, _, _ = tensor.conv2d_bwd(g_out, xp, k1, 1, 1, True)
    assert all(map(_batch_last, (g_pooled, g_act, g_out, gx)))
    # a flatten into a dense layer hands its gradient back in its input's layout
    assert _batch_last(tensor.reshape_bwd(rng.uniform(-1, 1, (3, 4 * 4 * 4)), pooled))


# ---------------------------------------------------------------- relu


def test_relu_values():
    out = relu(t([-1.0, 0.0, 2.0]))
    assert np.array_equal(out.data, [0.0, 0.0, 2.0])


def test_relu_all_negative():
    out = relu(t([[-3.0, -0.5], [-1.0, -2.0]]))
    assert np.array_equal(out.data, np.zeros((2, 2)))


def test_relu_subgradient_at_zero_is_zero():
    x = t([-1.0, 3.0], rg=True)
    backward(sum_all(relu(x)))
    assert np.array_equal(x.grad, [0.0, 1.0])
    x0 = t([0.0], rg=True)
    backward(sum_all(relu(x0)))
    assert np.array_equal(x0.grad, [0.0])


# ---------------------------------------------------------------- losses


def test_softmax_cross_entropy_uniform_logits():
    loss = softmax_cross_entropy(t([[0.0, 0.0]]), [0])
    assert math.isclose(loss.item(), math.log(2.0), rel_tol=1e-12)


def test_softmax_cross_entropy_extreme_logits_stable():
    loss = softmax_cross_entropy(t([[1000.0, -1000.0]]), [0])
    assert loss.item() == pytest.approx(0.0, abs=1e-12)
    assert np.isfinite(loss.item())


def test_softmax_cross_entropy_label_out_of_range():
    with pytest.raises(IndexError):
        softmax_cross_entropy(t([[0.0, 0.0]]), [5])


def test_softmax_cross_entropy_nonnegative_and_ln_c():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, c = int(rng.integers(1, 6)), int(rng.integers(2, 7))
        logits = t(rng.uniform(-4, 4, (n, c)))
        labels = rng.integers(0, c, n)
        assert softmax_cross_entropy(logits, labels).item() >= 0.0
    uniform = softmax_cross_entropy(t(np.zeros((3, 5))), [0, 2, 4])
    assert math.isclose(uniform.item(), math.log(5.0), rel_tol=1e-12)


def test_mse_loss_values():
    assert mse_loss(t([1.0, 2.0]), t([1.0, 2.0])).item() == 0.0
    assert mse_loss(t([1.0, 2.0]), t([0.0, 0.0])).item() == 2.5
    with pytest.raises(ShapeError):
        mse_loss(t(np.zeros((2, 2))), t(np.zeros((2, 3))))


# ---------------------------------------------------------------- backward


def test_backward_sum_gives_ones():
    x = t([1.0, 2.0, 3.0], rg=True)
    backward(sum_all(x))
    assert np.array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_elementwise_square():
    x = t([1.0, 2.0], rg=True)
    backward(sum_all(mul(x, x)))
    assert np.array_equal(x.grad, [2.0, 4.0])


def test_backward_rejects_non_scalar():
    x = t([1.0, 2.0], rg=True)
    with pytest.raises(ContractError):
        backward(x)


def test_backward_accumulates_without_reset():
    x = t([1.0, 2.0, 3.0], rg=True)
    loss = sum_all(x)
    backward(loss)
    backward(loss)
    assert np.array_equal(x.grad, [2.0, 2.0, 2.0])


def test_backward_deterministic_after_reset():
    rng = np.random.default_rng(7)
    x = t(rng.uniform(-1, 1, (4, 3)), rg=True)
    w = t(rng.uniform(-1, 1, (3, 2)), rg=True)

    def run():
        x.zero_grad()
        w.zero_grad()
        backward(softmax_cross_entropy(matmul(x, w), [0, 1, 0, 1]))
        return x.grad.copy(), w.grad.copy()

    g1 = run()
    g2 = run()
    assert np.array_equal(g1[0], g2[0]) and np.array_equal(g1[1], g2[1])


def test_backward_leaf_grad_is_a_fresh_array_without_negative_zeros():
    x = t([-1.0, 2.0], rg=True)
    g = np.array([-0.0, 3.0])
    x.add_grad(g)
    assert not np.signbit(x.grad).any() and x.grad[1] == 3.0  # zeros + g, as before
    x.add_grad(g)
    assert np.array_equal(g, [-0.0, 3.0]) and np.array_equal(x.grad, [0.0, 6.0])


def test_backward_node_with_three_consumers():
    rng = np.random.default_rng(11)
    x = t(rng.uniform(-1, 1, (3, 4)), rg=True)
    w = t(rng.uniform(-1, 1, (4, 5)), rg=True)
    coeffs = rng.uniform(-1, 1, (3, 5))

    def loss_of(xv, wv):
        h = matmul(xv, wv)  # read by mul (twice), weighted_sum and scale
        return add(add(sum_all(mul(h, h)), weighted_sum(h, coeffs)), sum_all(scale(h, 0.5)))

    loss = loss_of(x, w)
    backward(loss)
    gx, gw = x.grad.copy(), w.grad.copy()
    assert _rel_err(gx, finite_diff_grad(lambda v: loss_of(Tensor(v.data), Tensor(w.data)), x).data) <= 1e-5
    assert _rel_err(gw, finite_diff_grad(lambda v: loss_of(Tensor(x.data), Tensor(v.data)), w).data) <= 1e-5
    backward(loss)
    assert np.array_equal(x.grad, 2 * gx) and np.array_equal(w.grad, 2 * gw)


def test_backward_shared_subexpression():
    x = t([2.0], rg=True)
    y = mul(x, x)
    backward(sum_all(add(y, y)))
    assert np.array_equal(x.grad, [8.0])


# ---------------------------------------------------------------- small ops


def test_bias_add_2d_and_4d():
    x = t(np.zeros((2, 3)), rg=True)
    b = t([1.0, 2.0, 3.0], rg=True)
    out = bias_add(x, b)
    assert np.array_equal(out.data, [[1.0, 2.0, 3.0]] * 2)
    backward(sum_all(out))
    assert np.array_equal(b.grad, [2.0, 2.0, 2.0])

    x4 = t(np.zeros((1, 2, 2, 2)), rg=True)
    b4 = t([1.0, -1.0], rg=True)
    out4 = bias_add(x4, b4)
    assert np.allclose(out4.data[0, 0], 1.0) and np.allclose(out4.data[0, 1], -1.0)
    backward(sum_all(out4))
    assert np.array_equal(b4.grad, [4.0, 4.0])


def test_transpose_reshape_scale():
    x = t([[1.0, 2.0], [3.0, 4.0]], rg=True)
    out = scale(transpose(x), 2.0)
    assert np.array_equal(out.data, [[2.0, 6.0], [4.0, 8.0]])
    flat = reshape(x, (4,))
    assert np.array_equal(flat.data, [1.0, 2.0, 3.0, 4.0])
    with pytest.raises(ShapeError):
        reshape(x, (3,))


def test_weighted_sum():
    x = t([1.0, 2.0, 3.0], rg=True)
    out = weighted_sum(x, [1.0, 2.0, 4.0])
    assert out.item() == 17.0
    backward(out)
    assert np.array_equal(x.grad, [1.0, 2.0, 4.0])


def test_avg_pool2x2():
    x = t(np.arange(16, dtype=np.float64).reshape(1, 1, 4, 4), rg=True)
    out = avg_pool2x2(x)
    assert np.array_equal(out.data[0, 0], [[2.5, 4.5], [10.5, 12.5]])
    backward(sum_all(out))
    assert np.allclose(x.grad, 0.25)
    with pytest.raises(ShapeError):
        avg_pool2x2(t(np.zeros((1, 1, 3, 4))))


def test_take_axis0_and_l2_norm():
    w = t([[3.0, 0.0], [0.0, 4.0]], rg=True)
    row = take_axis0(w, 0)
    assert np.array_equal(row.data, [3.0, 0.0])
    with pytest.raises(IndexError):
        take_axis0(w, 2)
    n = l2_norm(take_axis0(w, 0), take_axis0(w, 1))
    assert n.item() == 5.0
    backward(n)
    assert np.allclose(w.grad, w.data / 5.0)


def test_l2_norm_zero_input_zero_grad():
    x = t(np.zeros(3), rg=True)
    n = l2_norm(x)
    assert n.item() == 0.0
    backward(n)
    assert np.array_equal(x.grad, np.zeros(3))


def test_group_norms_matches_per_group_composition():
    rng = np.random.default_rng(11)
    w = t(rng.uniform(-1, 1, (4, 3, 2, 2)), rg=True)
    b = t(rng.uniform(-1, 1, 4), rg=True)
    fused = group_norms(w, b)
    per_group = [l2_norm(take_axis0(w, i), take_axis0(b, i)) for i in range(4)]
    assert np.allclose(fused.data, [p.item() for p in per_group])

    backward(weighted_sum(fused, [1.0, 2.0, 3.0, 4.0]))
    gw_fused, gb_fused = w.grad.copy(), b.grad.copy()
    w.zero_grad()
    b.zero_grad()
    acc = scale(per_group[0], 1.0)
    for i, p in enumerate(per_group[1:], start=2):
        acc = add(acc, scale(p, float(i)))
    backward(acc)
    assert np.allclose(gw_fused, w.grad, atol=1e-12)
    assert np.allclose(gb_fused, b.grad, atol=1e-12)


# ---------------------------------------------------------------- finite differences


def test_finite_diff_of_sum_is_ones():
    x = t([0.3, -0.7, 1.1])
    fd = finite_diff_grad(lambda v: sum_all(v), x, h=1e-4)
    assert np.allclose(fd.data, 1.0, atol=1e-8)


def test_finite_diff_of_square():
    fd = finite_diff_grad(lambda v: mul(v, v).item(), t([3.0]), h=1e-4)
    assert fd.data[0] == pytest.approx(6.0, abs=1e-6)


def _rel_err(analytic, fd):
    denom = np.maximum(np.abs(fd), 1e-6)
    return float(np.max(np.abs(analytic - fd) / denom))


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gradcheck_matmul_chain(seed):
    rng = np.random.default_rng(seed)
    a = t(rng.uniform(-1, 1, (3, 4)), rg=True)
    b = t(rng.uniform(-1, 1, (4, 2)), rg=True)

    def loss_with(a_data, b_data):
        return mse_loss(matmul(Tensor(a_data, requires_grad=True), Tensor(b_data)), t(np.zeros((3, 2))))

    backward(mse_loss(matmul(a, b), t(np.zeros((3, 2)))))
    fd_a = finite_diff_grad(lambda v: loss_with(v.data, b.data), a)
    assert _rel_err(a.grad, fd_a.data) <= 1e-5


@pytest.mark.parametrize(
    "seed,stride,padding", [(0, 2, 1), (1, 2, 1), (0, 1, 0), (0, 3, 2)], ids=["0", "1", "s1p0", "s3p2"]
)
def test_gradcheck_conv2d(seed, stride, padding):
    rng = np.random.default_rng(seed)
    x = t(rng.uniform(-1, 1, (2, 2, 5, 5)), rg=True)
    k = t(rng.uniform(-1, 1, (3, 2, 3, 3)), rg=True)
    out = conv2d(x, k, stride=stride, padding=padding)
    target = t(np.zeros(out.shape))

    backward(mse_loss(out, target))

    def loss_k(v):
        return mse_loss(conv2d(Tensor(x.data), Tensor(v.data), stride=stride, padding=padding), target)

    def loss_x(v):
        return mse_loss(conv2d(Tensor(v.data), Tensor(k.data), stride=stride, padding=padding), target)

    assert _rel_err(k.grad, finite_diff_grad(loss_k, k).data) <= 1e-5
    assert _rel_err(x.grad, finite_diff_grad(loss_x, x).data) <= 1e-5


@pytest.mark.parametrize("seed", [0, 1])
def test_gradcheck_softmax_cross_entropy(seed):
    rng = np.random.default_rng(seed)
    logits = t(rng.uniform(-1, 1, (4, 3)), rg=True)
    labels = rng.integers(0, 3, 4)
    backward(softmax_cross_entropy(logits, labels))
    fd = finite_diff_grad(lambda v: softmax_cross_entropy(Tensor(v.data), labels), logits)
    assert _rel_err(logits.grad, fd.data) <= 1e-5


@pytest.mark.parametrize("seed", [0, 1])
def test_gradcheck_relu_away_from_kink(seed):
    rng = np.random.default_rng(seed)
    raw = rng.uniform(-1, 1, (3, 4))
    raw[np.abs(raw) < 5e-3] += 0.01  # keep clear of the kink at 0
    x = t(raw, rg=True)
    backward(mse_loss(relu(x), t(np.zeros((3, 4)))))
    fd = finite_diff_grad(lambda v: mse_loss(relu(Tensor(v.data)), t(np.zeros((3, 4)))), x)
    assert _rel_err(x.grad, fd.data) <= 1e-5


@pytest.mark.parametrize("seed", [0, 1])
def test_gradcheck_group_norms(seed):
    rng = np.random.default_rng(seed)
    w = t(rng.uniform(-1, 1, (5, 4)), rg=True)
    b = t(rng.uniform(-1, 1, 5), rg=True)
    coeffs = rng.uniform(0.5, 2.0, 5)
    backward(weighted_sum(group_norms(w, b), coeffs))

    def loss_w(v):
        return weighted_sum(group_norms(Tensor(v.data), Tensor(b.data)), coeffs)

    def loss_b(v):
        return weighted_sum(group_norms(Tensor(w.data), Tensor(v.data)), coeffs)

    assert _rel_err(w.grad, finite_diff_grad(loss_w, w).data) <= 1e-5
    assert _rel_err(b.grad, finite_diff_grad(loss_b, b).data) <= 1e-5


def test_gradcheck_avg_pool(seed=0):
    rng = np.random.default_rng(seed)
    x = t(rng.uniform(-1, 1, (1, 2, 4, 4)), rg=True)
    backward(mse_loss(avg_pool2x2(x), t(np.zeros((1, 2, 2, 2)))))
    fd = finite_diff_grad(lambda v: mse_loss(avg_pool2x2(Tensor(v.data)), t(np.zeros((1, 2, 2, 2)))), x)
    assert _rel_err(x.grad, fd.data) <= 1e-5
