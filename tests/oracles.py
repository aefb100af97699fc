"""Test oracles: slow, scalar-by-scalar references for the package's vectorized code.

None of this is part of the package.  Each helper recomputes something the
package does in one vectorized pass (gradients, per-group norms, the
heaviside penalty, successor slices, convolution, relu, pooling, the dense
layer, the rows of a norm snapshot, the penalty, the training loss, the
optimizer updates) the slow and obvious way, so tests can hold the fast
path to it.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from torqueprune.model import GroupedLayer, GroupIndexing, ModelGraph, group_norm_values, layer_output_shapes
from torqueprune.tensor import (
    NORM_EPS,
    ContractError,
    ShapeError,
    Tensor,
    _from_op,
    add,
    avg_pool2x2,
    bias_add,
    conv2d,
    group_norm_array,
    group_norms,
    linear,
    matmul,
    relu,
    reshape,
    scale,
    transpose,
    weighted_sum,
)


def finite_diff_grad(f, x: Tensor, h: float = 1e-4) -> Tensor:
    """Central-difference gradient of a tensor-to-scalar function.

    Unreliable within h of a relu kink and near norm singularities (group
    norms below ~1e-6); callers exclude those points.
    """
    if h <= 0:
        raise ContractError(f"finite_diff_grad: h must be positive, got {h}")
    base = x.data.copy()
    out = np.empty_like(base)
    flat = out.reshape(-1)
    for idx in range(base.size):
        hi = base.copy()
        lo = base.copy()
        hi.flat[idx] += h
        lo.flat[idx] -= h
        flat[idx] = (_as_float(f(Tensor(hi))) - _as_float(f(Tensor(lo)))) / (2.0 * h)
    return Tensor(out)


def _as_float(v) -> float:
    if isinstance(v, Tensor):
        return v.item()
    return float(v)


def take_axis0(x: Tensor, i: int) -> Tensor:
    """Select slice i along axis 0 (a dense row, a conv filter, a bias entry)."""
    i = int(i)
    if not 0 <= i < x.shape[0]:
        raise IndexError(f"index {i} out of range for axis of size {x.shape[0]}")

    def bwd(g):
        gx = np.zeros_like(x.data)
        gx[i] = g
        return (gx,)

    return _from_op(np.asarray(x.data[i]), (x,), "take_axis0", bwd)


def l2_norm(*parts: Tensor) -> Tensor:
    """Euclidean norm over the concatenation of the given tensors.

    Subgradient is 0 when the norm falls below 1e-12, as in ``group_norms``.
    """
    if not parts:
        raise ContractError("l2_norm: needs at least one tensor")
    sq = sum(float((p.data * p.data).sum()) for p in parts)
    norm = float(np.sqrt(sq))
    inv = 1.0 / norm if norm >= NORM_EPS else 0.0

    def bwd(g):
        c = float(g) * inv
        return tuple(c * p.data if p.requires_grad else None for p in parts)

    return _from_op(np.asarray(norm), parts, "l2_norm", bwd)


def group_l2_norm(layer: GroupedLayer, i: int) -> Tensor:
    """Differentiable Euclidean norm of group i (weight slice plus bias entry)."""
    if not 0 <= i < layer.group_count:
        raise IndexError(f"group {i} out of range for layer with {layer.group_count} groups")
    parts = [take_axis0(layer.weight, i)]
    if layer.bias is not None:
        parts.append(take_axis0(layer.bias, i))
    return l2_norm(*parts)


def heaviside_reference_penalty(layer: GroupedLayer, indexing: GroupIndexing, threshold: float, force: float) -> float:
    """Step-function penalty: force times the norm of every group at distance >= threshold."""
    norms = group_norm_array(layer.weight.data, None if layer.bias is None else layer.bias.data)
    return float((norms * np.where(indexing.distances >= threshold, force, 0.0)).sum())


def norms_snapshot_rows(model: ModelGraph, indexings, epoch: int) -> dict:
    """One ``norms.jsonl`` line as a dict: a ``{layer, group, index, distance, norm}`` row per group."""
    groups = []
    for l, (norms, idx) in enumerate(zip(group_norm_values(model), indexings)):
        rows = zip(idx.assigned_indices.tolist(), idx.distances.tolist(), norms.tolist())
        groups.extend(
            {"layer": l, "group": g, "index": index, "distance": distance, "norm": norm}
            for g, (index, distance, norm) in enumerate(rows)
        )
    return {"epoch": epoch, "groups": groups}


def coupled_slices(model: ModelGraph, layer: int, group: int) -> list[tuple[int, tuple[int, ...]]]:
    """Input slices of the successor that die with output group ``group``.

    Returns (successor layer index, input indices) pairs; input indices are
    dense columns, or a single channel index for a conv successor.  Empty for
    the last layer.
    """
    if not 0 <= layer < len(model.layers):
        raise IndexError(f"layer {layer} out of range")
    if not 0 <= group < model.layers[layer].group_count:
        raise IndexError(f"group {group} out of range for layer {layer}")
    if layer == len(model.layers) - 1:
        return []
    # one column per spatial position when a conv map is flattened into a
    # dense layer (channel-major), else the group's own index
    shape = layer_output_shapes(model)[layer]
    block = int(np.prod(shape[1:])) if model.layers[layer + 1].kind == "dense" else 1
    return [(layer + 1, tuple(range(group * block, (group + 1) * block)))]


def conv2d_reference(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """``conv2d`` as one einsum over a [N, C, H_out, W_out, K, K] window view.

    Forward and both gradients contract the full window tensor, so the
    summation order differs from the package's per-tap matmuls; results agree
    to rounding.  Inputs are assumed valid (the package checks them).
    """
    _, _, h, w = x.shape
    k = kernel.shape[2]
    xp = np.pad(x.data, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))[:, :, ::stride, ::stride, :, :]
    out = np.einsum("ncijab,ocab->noij", win, kernel.data)
    h_out, w_out = out.shape[2], out.shape[3]

    def bwd(g):
        gk = np.einsum("noij,ncijab->ocab", g, win)
        gxp = np.zeros_like(xp)
        contrib = np.einsum("noij,ocab->ncijab", g, kernel.data)
        for a in range(k):
            for b in range(k):
                gxp[:, :, a : a + stride * h_out : stride, b : b + stride * w_out : stride] += contrib[:, :, :, :, a, b]
        return gxp[:, :, padding : padding + h, padding : padding + w], gk

    return _from_op(out, (x, kernel), "conv2d_reference", bwd)


def relu_reference(x: Tensor) -> Tensor:
    """``relu`` as ``np.where(x > 0, x, 0.0)``, with the mask as its gradient."""
    mask = x.data > 0
    return _from_op(np.where(mask, x.data, 0.0), (x,), "relu_reference", lambda g: (g * mask,))


def avg_pool_reference(x: Tensor) -> Tensor:
    """``avg_pool2x2`` as a mean over the window axes of a [N, C, H/2, 2, W/2, 2] view."""
    n, c, h, w = x.shape
    out = x.data.reshape(n, c, h // 2, 2, w // 2, 2).mean(axis=(3, 5))

    def bwd(g):
        gx = np.empty((n, c, h // 2, 2, w // 2, 2))
        gx[...] = (g / 4.0)[:, :, :, None, :, None]
        return (gx.reshape(n, c, h, w),)

    return _from_op(out, (x,), "avg_pool_reference", bwd)


def dense_chain_reference(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """A dense layer as three nodes: ``bias_add(matmul(x, transpose(weight)), bias)``."""
    out = matmul(x, transpose(weight))
    return out if bias is None else bias_add(out, bias)


def forward_reference(model: ModelGraph, batch: Tensor) -> Tensor:
    """``model.forward`` as one graph node per op: reshape, conv2d, bias_add, linear, relu, avg_pool2x2."""
    expected = tuple(model.input_shape)
    if batch.shape[1:] != expected:
        raise ShapeError(f"batch shape {batch.shape} does not match input shape {expected}")
    x = batch
    for layer in model.layers:
        if layer.kind == "dense" and len(x.shape) > 2:
            x = reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))
        if layer.kind == "conv2d":
            x = conv2d(x, layer.weight, stride=layer.stride, padding=layer.padding)
            if layer.bias is not None:
                x = bias_add(x, layer.bias)
        else:
            x = linear(x, layer.weight, layer.bias)
        if layer.activation == "relu":
            x = relu(x)
        if layer.pool:
            x = avg_pool2x2(x)
    return x


def penalty_reference(model: ModelGraph, weights) -> Tensor:
    """``weighted_penalty`` as one node per op: ``add``-chained ``weighted_sum(group_norms(w, b), weights)`` terms."""
    terms = [weighted_sum(group_norms(model.layers[idx].weight, model.layers[idx].bias), w) for idx, w in weights]
    return reduce(add, terms) if terms else Tensor(0.0)


def loss_reference(task: Tensor, spec, pen: Tensor) -> Tensor:
    """``total_loss`` as one node per op, ``add(task, scale(pen, beta))``; the task when the penalty is off."""
    if spec.scheme == "none" or spec.reg_coefficient == 0.0:
        return task
    return add(task, scale(pen, spec.reg_coefficient))


def sgd_reference(params, grads, velocity, lr, momentum, weight_decay) -> None:
    """``Optimizer``'s SGD update as one loop over parameters: weight decay folded into each gradient, in place."""
    for p, g, v in zip(params, grads, velocity):
        if weight_decay:
            g = g + weight_decay * p
        v *= momentum
        v += g
        p -= lr * v


def adam_reference(params, grads, first, second, t, lr, betas, eps, weight_decay, decoupled) -> None:
    """``Optimizer``'s Adam (AdamW when ``decoupled``) update at step ``t`` as one loop over parameters, in place."""
    b1, b2 = betas
    bias1 = 1.0 - b1**t
    bias2 = 1.0 - b2**t
    for p, g, m, v in zip(params, grads, first, second):
        if weight_decay and not decoupled:
            g = g + weight_decay * p
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        if decoupled and weight_decay:
            p -= lr * weight_decay * p
        p -= lr * (m / bias1) / (np.sqrt(v / bias2) + eps)
