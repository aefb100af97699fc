"""Dense float64 tensors with reverse-mode gradients.

Define-by-run: every operation links its output tensor to its inputs and a
backward rule, so the graph is rebuilt on each forward pass and freed with
its tensors.  A graph and the tensors on it belong to one run; separate runs
share nothing, so they may live on separate threads.

Everything is float64.  Gradient checks against central differences at
rtol 1e-5 are the correctness bar, and that is not reachable in float32.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "Tensor",
    "ShapeError",
    "ContractError",
    "add",
    "mul",
    "scale",
    "sum_all",
    "weighted_sum",
    "matmul",
    "transpose",
    "bias_add",
    "linear",
    "relu",
    "reshape",
    "avg_pool2x2",
    "conv2d",
    "softmax_cross_entropy",
    "mse_loss",
    "group_norms",
    "group_norm_array",
    "backward",
]

NORM_EPS = 1e-12  # below this a norm is treated as exactly zero (subgradient 0)


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class ContractError(ValueError):
    """An operation was invoked outside its contract."""


class Tensor:
    """N-d float64 array with an optional gradient buffer.

    ``grad`` stays ``None`` until ``backward`` reaches the tensor; repeated
    backward passes accumulate into it until ``zero_grad``.  Tensors created
    by operations remember their inputs (``_parents``), the local backward
    rule (``_bwd``) and their depth in the graph (``_rank``: 1 + the highest
    parent rank); leaf tensors have no parents or rule and rank 0.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd", "_op", "_rank")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], tuple] | None = None
        self._op = "leaf"
        self._rank = 0

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() needs a one-element tensor, got shape {self.shape}")
        return float(self.data.reshape(()))

    def zero_grad(self) -> None:
        self.grad = None

    def _accum(self, g: np.ndarray) -> None:
        if self.grad is None:
            # the bits of zeros + g (-0.0 becomes +0.0) without a zeros buffer
            self.grad = np.add(g, 0.0, out=np.empty_like(self.data))
        else:
            self.grad += g

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, op={self._op}, requires_grad={self.requires_grad})"


def _from_op(data: np.ndarray, parents: Sequence[Tensor], op: str, bwd) -> Tensor:
    """Wrap an op result; the graph edge is dropped when no input needs grad."""
    out = Tensor(data, requires_grad=any(p.requires_grad for p in parents))
    if out.requires_grad:
        out._parents = tuple(parents)
        out._bwd = bwd
        out._op = op
        out._rank = 1 + max(p._rank for p in parents)
    return out


# ---------------------------------------------------------------------------
# elementwise / reduction ops


def add(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"add: shapes {a.shape} and {b.shape} differ")
    return _from_op(a.data + b.data, (a, b), "add", lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    if a.shape != b.shape:
        raise ShapeError(f"mul: shapes {a.shape} and {b.shape} differ")
    return _from_op(a.data * b.data, (a, b), "mul", lambda g: (g * b.data, g * a.data))


def scale(a: Tensor, c: float) -> Tensor:
    c = float(c)
    return _from_op(a.data * c, (a,), "scale", lambda g: (g * c,))


def sum_all(a: Tensor) -> Tensor:
    out = np.asarray(a.data.sum())
    return _from_op(out, (a,), "sum_all", lambda g: (np.full(a.shape, float(g)),))


def weighted_sum(a: Tensor, coeffs) -> Tensor:
    """Scalar sum(a * coeffs) for a constant coefficient array."""
    c = np.asarray(coeffs, dtype=np.float64)
    if c.shape != a.shape:
        raise ShapeError(f"weighted_sum: coeff shape {c.shape} does not match {a.shape}")
    out = np.asarray(np.vdot(a.data, c))
    return _from_op(out, (a,), "weighted_sum", lambda g: (float(g) * c,))


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeError(f"matmul: expected 2-d operands, got {a.shape} and {b.shape}")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"matmul: inner dimensions disagree for shapes {a.shape} and {b.shape}")

    def bwd(g):
        ga = g @ b.data.T if a.requires_grad else None
        gb = a.data.T @ g if b.requires_grad else None
        return ga, gb

    return _from_op(a.data @ b.data, (a, b), "matmul", bwd)


def transpose(a: Tensor) -> Tensor:
    if a.data.ndim != 2:
        raise ShapeError(f"transpose: expected 2-d operand, got {a.shape}")
    return _from_op(a.data.T, (a,), "transpose", lambda g: (g.T,))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-output-slice bias: b broadcasts over every axis but axis 1."""
    if x.data.ndim < 2 or b.data.ndim != 1 or b.shape[0] != x.shape[1]:
        raise ShapeError(f"bias_add: bias {b.shape} does not fit input {x.shape}")
    bshape = (1, b.shape[0]) + (1,) * (x.data.ndim - 2)
    axes = (0,) + tuple(range(2, x.data.ndim))

    def bwd(g):
        gx = g if x.requires_grad else None
        gb = g.sum(axis=axes) if b.requires_grad else None
        return gx, gb

    return _from_op(x.data + b.data.reshape(bshape), (x, b), "bias_add", bwd)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Dense layer x @ weight.T + bias as one node; ``weight`` is [out, in].

    Forward and gradients use the numpy calls of ``bias_add(matmul(x,
    transpose(weight)), bias)``, so the results keep their bits.
    """
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: input {x.shape} does not fit weight {weight.shape}")
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear: bias {bias.shape} does not fit weight {weight.shape}")
    out = x.data @ weight.data.T
    if bias is not None:
        out += bias.data

    def bwd(g):
        gx = g @ weight.data if x.requires_grad else None
        gw = (x.data.T @ g).T if weight.requires_grad else None
        if bias is None:
            return gx, gw
        return gx, gw, g.sum(axis=0) if bias.requires_grad else None

    parents = (x, weight) if bias is None else (x, weight, bias)
    return _from_op(out, parents, "linear", bwd)


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    return _from_op(x.data.reshape(shape), (x,), "reshape", lambda g: (g.reshape(x.shape),))


# ---------------------------------------------------------------------------
# nonlinearities and losses


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0.

    NaN maps to 0 and -0.0 to +0.0, as with ``np.where(x > 0, x, 0.0)``.
    """
    out = np.fmax(x.data, 0.0)
    out += 0.0  # fmax(-0.0, 0.0) may be -0.0
    return _from_op(out, (x,), "relu", lambda g: (g * (x.data > 0),))


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class.

    Stabilized by row-max subtraction; backward is (softmax - onehot) / N.
    """
    if logits.data.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy: expected [N, C] logits, got {logits.shape}")
    n, c = logits.shape
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != n:
        raise ShapeError(f"softmax_cross_entropy: expected {n} labels, got shape {lab.shape}")
    lab = lab.astype(np.intp)
    if lab.size and (lab.min() < 0 or lab.max() >= c):
        bad = lab[(lab < 0) | (lab >= c)][0]
        raise IndexError(f"label {int(bad)} out of range for {c} classes")

    z = logits.data - logits.data.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    loss = np.asarray(-logp[np.arange(n), lab].mean())

    def bwd(g):
        p = np.exp(logp)
        p[np.arange(n), lab] -= 1.0
        return (float(g) * p / n,)

    return _from_op(loss, (logits,), "softmax_cross_entropy", bwd)


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred.data - target.data
    n = pred.size
    loss = np.asarray((diff * diff).mean())

    def bwd(g):
        gp = float(g) * 2.0 * diff / n
        return (gp if pred.requires_grad else None, -gp if target.requires_grad else None)

    return _from_op(loss, (pred, target), "mse_loss", bwd)


# ---------------------------------------------------------------------------
# convolution and pooling


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [N,C,H,W] input with [O,C,K,K] kernel (no flip).

    H_out = floor((H + 2*padding - K) / stride) + 1, same for W.
    """
    if x.data.ndim != 4 or kernel.data.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input and kernel, got {x.shape} and {kernel.shape}")
    if kernel.shape[2] != kernel.shape[3]:
        raise ShapeError(f"conv2d: kernel must be square, got {kernel.shape}")
    if x.shape[1] != kernel.shape[1]:
        raise ShapeError(f"conv2d: input channels {x.shape[1]} != kernel channels {kernel.shape[1]}")
    stride = int(stride)
    padding = int(padding)
    if stride < 1:
        raise ContractError(f"conv2d: stride must be positive, got {stride}")
    if padding < 0:
        raise ContractError(f"conv2d: padding must be non-negative, got {padding}")

    n_, c, h, w = x.shape
    o, _, k, _ = kernel.shape
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ShapeError(
            f"conv2d: kernel {k}x{k} exceeds padded input "
            f"{h + 2 * padding}x{w + 2 * padding}"
        )

    xp = x.data
    if padding:
        xp = np.zeros((n_, c, h + 2 * padding, w + 2 * padding))
        xp[:, :, padding : padding + h, padding : padding + w] = x.data
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1

    # One matmul per kernel tap (a, b) over the strided input slice that tap
    # sees, so no [N, C, H_out, W_out, K, K] window or im2col matrix is built.
    def tap(a: int, b: int) -> tuple:
        return np.s_[:, :, a : a + stride * h_out : stride, b : b + stride * w_out : stride]

    def tap_input(a: int, b: int) -> np.ndarray:
        return xp[tap(a, b)].reshape(n_, c, h_out * w_out)

    out = np.zeros((n_, o, h_out * w_out))
    for a in range(k):
        for b in range(k):
            out += kernel.data[:, :, a, b] @ tap_input(a, b)
    out = out.reshape(n_, o, h_out, w_out)

    def bwd(g):
        g = g.reshape(n_, o, h_out * w_out)
        gk = np.empty_like(kernel.data) if kernel.requires_grad else None
        gxp = np.zeros_like(xp) if x.requires_grad else None
        for a in range(k):
            for b in range(k):
                if gk is not None:
                    gk[:, :, a, b] = (g @ tap_input(a, b).transpose(0, 2, 1)).sum(axis=0)
                if gxp is not None:
                    gxp[tap(a, b)] += (kernel.data[:, :, a, b].T @ g).reshape(n_, c, h_out, w_out)
        gx = None
        if gxp is not None:
            gx = gxp[:, :, padding : padding + h, padding : padding + w] if padding else gxp
        return gx, gk

    return _from_op(out, (x, kernel), "conv2d", bwd)


def avg_pool2x2(x: Tensor) -> Tensor:
    """Fixed 2x2 average pooling with stride 2; spatial dims must be even."""
    if x.data.ndim != 4:
        raise ShapeError(f"avg_pool2x2: expected 4-d input, got {x.shape}")
    n, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2x2: spatial dims must be even, got {h}x{w}")
    # Each 2x2 window [[x00, x01], [x10, x11]] is averaged with the bits of
    # numpy's reshape-mean: it sums (x00 + x01) + (x10 + x11), or the four in
    # turn when the pooled map is one column wide, and its sum turns an all
    # -0.0 window into +0.0.
    x00, x01, x10, x11 = (x.data[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1))
    out = x00 + x01
    if w == 2:
        out += x10
        out += x11
    else:
        out += x10 + x11
    out += 0.0
    out /= 4.0

    def bwd(g):
        quarter = g / 4.0
        gx = np.empty((n, c, h, w))
        for i in (0, 1):
            for j in (0, 1):
                gx[:, :, i::2, j::2] = quarter
        return (gx,)

    return _from_op(out, (x,), "avg_pool2x2", bwd)


# ---------------------------------------------------------------------------
# group-norm helpers


def group_norm_array(weight: np.ndarray, bias: np.ndarray | None = None) -> np.ndarray:
    """Euclidean norm of each slice along axis 0, its bias entry included.

    The numpy kernel behind ``group_norms``, for callers that need no graph.
    """
    wflat = weight.reshape(weight.shape[0], -1)
    sq = (wflat * wflat).sum(axis=1)
    if bias is not None:
        sq = sq + bias * bias
    return np.sqrt(sq)


def group_norms(weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-output-slice Euclidean norms, one per row of axis 0.

    The bias entry of each slice is part of its norm.  The subgradient is 0
    where a norm falls below 1e-12, so dead groups stay dead and nothing
    divides by zero.
    """
    if weight.data.ndim < 2:
        raise ShapeError(f"group_norms: weight must have ndim >= 2, got {weight.shape}")
    g_count = weight.shape[0]
    if bias is not None and bias.shape != (g_count,):
        raise ShapeError(f"group_norms: bias {bias.shape} does not match {g_count} groups")

    wflat = weight.data.reshape(g_count, -1)
    norms = group_norm_array(wflat, None if bias is None else bias.data)
    inv = np.where(norms >= NORM_EPS, 1.0 / np.maximum(norms, NORM_EPS), 0.0)

    def bwd(g):
        coef = g * inv
        gw = (coef[:, None] * wflat).reshape(weight.shape) if weight.requires_grad else None
        if bias is None:
            return (gw,)
        gb = coef * bias.data if bias.requires_grad else None
        return gw, gb

    parents = (weight,) if bias is None else (weight, bias)
    return _from_op(norms, parents, "group_norms", bwd)


# ---------------------------------------------------------------------------
# backward pass


def backward(loss: Tensor) -> None:
    """Populate .grad of every requires_grad leaf reachable from a scalar loss.

    Op nodes run in decreasing ``_rank``, so every consumer of a node has
    passed its gradient on before the node runs.  Leaf grads accumulate
    across calls; intermediate node grads are local to each call, so running
    backward twice exactly doubles the leaf grads.
    """
    if loss.data.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    seed = np.ones_like(loss.data)
    if loss._bwd is None:
        if loss.requires_grad:
            loss._accum(seed)
        return

    nodes = [loss]
    seen = {id(loss)}
    for node in nodes:  # grows while it is walked
        for p in node._parents:
            if p._bwd is not None and id(p) not in seen:
                seen.add(id(p))
                nodes.append(p)
    nodes.sort(key=attrgetter("_rank"), reverse=True)

    local: dict[int, np.ndarray] = {id(loss): seed}
    for node in nodes:
        g = local.pop(id(node), None)
        if g is None:
            continue
        for parent, pg in zip(node._parents, node._bwd(g)):
            if pg is None:
                continue
            if parent._bwd is None:
                if parent.requires_grad:
                    parent._accum(pg)
            else:
                key = id(parent)
                if key in local:
                    local[key] = local[key] + pg
                else:
                    local[key] = pg
