"""Dense float64 tensors with reverse-mode gradients.

Define-by-run: every operation links its output tensor to its inputs and a
backward rule, so the graph is rebuilt on each forward pass and freed with
its tensors.  A graph and the tensors on it belong to one run; separate runs
share nothing, so they may live on separate threads.

Each layer op is a forward and a backward array kernel, ``<op>_fwd`` and
``<op>_bwd``, and its ``Tensor`` op wraps the pair as one node.  This module
is the only one that builds nodes: the library's layer stack, penalty and
loss are graphs of these ops, and training runs the kernels without a graph.

Everything is float64.  Gradient checks against central differences at
rtol 1e-5 are the correctness bar, and that is not reachable in float32.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Callable, Iterable, Sequence

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

    ``grad`` stays ``None`` until a first ``add_grad`` or an ``Optimizer``
    binds it; ``backward``, ``layers_bwd`` and ``penalty_bwd`` add into it
    through ``add_grad`` until ``zero_grad``.  Tensors created by operations
    remember their inputs (``_parents``), the local backward rule (``_bwd``)
    and their depth in the graph (``_rank``: 1 + the highest parent rank);
    leaf tensors have no parents or rule and rank 0.  A rule returns one
    gradient (or None) per parent, in parent order.
    """

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_bwd", "_op", "_rank")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        self.data = arr
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self._parents: tuple[Tensor, ...] = ()
        self._bwd: Callable[[np.ndarray], Iterable] | None = None
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

    def add_grad(self, g: np.ndarray) -> None:
        """Add ``g`` to ``grad`` in place, so an optimizer's view stays bound; a first gradient is bound as a new array."""
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


def bias_add_fwd(x: np.ndarray, b: np.ndarray) -> np.ndarray:
    if x.ndim < 2 or b.ndim != 1 or b.shape[0] != x.shape[1]:
        raise ShapeError(f"bias_add: bias {b.shape} does not fit input {x.shape}")
    return x + b.reshape((1, b.shape[0]) + (1,) * (x.ndim - 2))


def bias_add_bwd(g: np.ndarray) -> np.ndarray:
    """The bias gradient; the input's gradient is ``g`` itself."""
    return g.sum(axis=(0,) + tuple(range(2, g.ndim)))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    """Add a per-output-slice bias: b broadcasts over every axis but axis 1."""
    return _from_op(bias_add_fwd(x.data, b.data), (x, b), "bias_add", lambda g: (g, bias_add_bwd(g)))


def linear_fwd(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None) -> np.ndarray:
    """x @ weight.T + bias with the bits of ``bias_add(matmul(x, transpose(weight)), bias)``."""
    if x.ndim != 2 or weight.ndim != 2 or x.shape[1] != weight.shape[1]:
        raise ShapeError(f"linear: input {x.shape} does not fit weight {weight.shape}")
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError(f"linear: bias {bias.shape} does not fit weight {weight.shape}")
    out = x @ weight.T
    if bias is not None:
        out += bias
    return out


def linear_bwd(g: np.ndarray, x: np.ndarray, weight: np.ndarray, need_x: bool):
    """(input, weight, bias) gradients; the input's is None unless ``need_x``."""
    return g @ weight if need_x else None, (x.T @ g).T, g.sum(axis=0)


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Dense layer x @ weight.T + bias as one node; ``weight`` is [out, in]."""
    out = linear_fwd(x.data, weight.data, None if bias is None else bias.data)
    parents = (x, weight) if bias is None else (x, weight, bias)
    return _from_op(out, parents, "linear", lambda g: linear_bwd(g, x.data, weight.data, x.requires_grad))


def reshape_bwd(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``g`` in the shape and the memory layout of the input ``x``: batch-last when a conv block made ``x``."""
    gx = np.empty_like(x)
    gx[...] = g.reshape(x.shape)
    return gx


def reshape(x: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(int(s) for s in shape)
    if int(np.prod(shape)) != x.size:
        raise ShapeError(f"reshape: cannot view {x.shape} as {shape}")
    return _from_op(x.data.reshape(shape), (x,), "reshape", lambda g: (reshape_bwd(g, x.data),))


# ---------------------------------------------------------------------------
# nonlinearities and losses


def relu_fwd(x: np.ndarray) -> np.ndarray:
    out = np.fmax(x, 0.0)
    out += 0.0  # fmax(-0.0, 0.0) may be -0.0
    return out


def relu_bwd(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    return g * (x > 0)


def relu(x: Tensor) -> Tensor:
    """Elementwise max(0, x); subgradient 0 at exactly 0.

    NaN maps to 0 and -0.0 to +0.0, as with ``np.where(x > 0, x, 0.0)``.
    """
    return _from_op(relu_fwd(x.data), (x,), "relu", lambda g: (relu_bwd(g, x.data),))


def class_labels(labels, shape) -> np.ndarray:
    """``labels`` as integer class indices for [N, C] logits of ``shape``: one per row, each in [0, C)."""
    if len(shape) != 2:
        raise ShapeError(f"softmax_cross_entropy: expected [N, C] logits, got {tuple(shape)}")
    n, c = shape
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != n:
        raise ShapeError(f"softmax_cross_entropy: expected {n} labels, got shape {lab.shape}")
    lab = lab.astype(np.intp)
    if lab.size and (lab.min() < 0 or lab.max() >= c):
        bad = lab[(lab < 0) | (lab >= c)][0]
        raise IndexError(f"label {int(bad)} out of range for {c} classes")
    return lab


def softmax_cross_entropy_fwd(logits: np.ndarray, lab: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(loss, log-probabilities, labels) for labels that ``class_labels`` returned."""
    z = logits - logits.max(axis=1, keepdims=True)
    logp = z - np.log(np.exp(z).sum(axis=1, keepdims=True))
    return np.asarray(-logp[np.arange(logits.shape[0]), lab].mean()), logp, lab


def softmax_cross_entropy_bwd(g: float, logp: np.ndarray, lab: np.ndarray) -> np.ndarray:
    n = logp.shape[0]
    p = np.exp(logp)
    p[np.arange(n), lab] -= 1.0
    return g * p / n


def softmax_cross_entropy(logits: Tensor, labels) -> Tensor:
    """Mean negative log softmax probability of the true class.

    Stabilized by row-max subtraction; backward is (softmax - onehot) / N.
    """
    loss, logp, lab = softmax_cross_entropy_fwd(logits.data, class_labels(labels, logits.shape))
    bwd = lambda g: (softmax_cross_entropy_bwd(float(g), logp, lab),)
    return _from_op(loss, (logits,), "softmax_cross_entropy", bwd)


def mse_loss_fwd(pred: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(loss, pred - target)."""
    if pred.shape != target.shape:
        raise ShapeError(f"mse_loss: shapes {pred.shape} and {target.shape} differ")
    diff = pred - target
    return np.asarray((diff * diff).mean()), diff


def mse_loss_bwd(g: float, diff: np.ndarray) -> np.ndarray:
    """The prediction's gradient; the target's is its negative."""
    return g * 2.0 * diff / diff.size


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    loss, diff = mse_loss_fwd(pred.data, target.data)
    bwd = lambda g: (mse_loss_bwd(float(g), diff), -mse_loss_bwd(float(g), diff) if target.requires_grad else None)
    return _from_op(loss, (pred, target), "mse_loss", bwd)


# ---------------------------------------------------------------------------
# convolution and pooling


# One row block's column matrix holds at most this many bytes, so the memory
# a conv needs beyond its input and output does not grow with the batch.  A
# 16-row training batch of a small CNN is one block.
COLUMN_BLOCK_BYTES = 2 << 20


def _row_blocks(n: int, row_bytes: int) -> list:
    """Slices of the batch (last) axis whose column matrices fit ``COLUMN_BLOCK_BYTES``."""
    rows = max(1, COLUMN_BLOCK_BYTES // row_bytes)
    return [np.s_[..., lo : lo + rows] for lo in range(0, n, rows)]


def _taps(k: int, stride: int, h_out: int, w_out: int):
    """(a, b, slice): each kernel tap and the rows and columns of a batch-last input it reads."""
    for a in range(k):
        for b in range(k):
            yield a, b, np.s_[:, a : a + stride * h_out : stride, b : b + stride * w_out : stride]


def _columns(xp: np.ndarray, k: int, stride: int, h_out: int, w_out: int) -> np.ndarray:
    """The column matrix [C*K*K, H_out*W_out*n] of a batch-last padded input [C, Hp, Wp, n]."""
    cols = np.empty((xp.shape[0], k, k, h_out, w_out, xp.shape[3]))
    for a, b, tap in _taps(k, stride, h_out, w_out):
        cols[:, a, b] = xp[tap]
    return cols.reshape(-1, h_out * w_out * xp.shape[3])


def conv2d_fwd(x: np.ndarray, kernel: np.ndarray, bias: np.ndarray | None, stride: int, padding: int):
    """(output, padded input): ``kernel`` [O, C*K*K] times the column matrix, one GEMM per row block.

    Both arrays are batch-last in memory: the padded input is [C, Hp, Wp, N],
    and the output is the NCHW view of [O, H_out, W_out, N].  Elementwise ops
    keep that layout, so the next conv reads its input without a copy.
    """
    if x.ndim != 4 or kernel.ndim != 4:
        raise ShapeError(f"conv2d: expected 4-d input and kernel, got {x.shape} and {kernel.shape}")
    if kernel.shape[2] != kernel.shape[3]:
        raise ShapeError(f"conv2d: kernel must be square, got {kernel.shape}")
    if x.shape[1] != kernel.shape[1]:
        raise ShapeError(f"conv2d: input channels {x.shape[1]} != kernel channels {kernel.shape[1]}")
    if bias is not None and bias.shape != (kernel.shape[0],):
        raise ShapeError(f"conv2d: bias {bias.shape} does not fit kernel {kernel.shape}")
    if stride < 1:
        raise ContractError(f"conv2d: stride must be positive, got {stride}")
    if padding < 0:
        raise ContractError(f"conv2d: padding must be non-negative, got {padding}")
    n_, c, h, w = x.shape
    o, _, k, _ = kernel.shape
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ShapeError(f"conv2d: kernel {k}x{k} exceeds padded input {h + 2 * padding}x{w + 2 * padding}")
    if padding:
        xp = np.zeros((c, h + 2 * padding, w + 2 * padding, n_))
        xp[:, padding : padding + h, padding : padding + w] = x.transpose(1, 2, 3, 0)
    else:
        xp = np.ascontiguousarray(x.transpose(1, 2, 3, 0))
    h_out = (h + 2 * padding - k) // stride + 1
    w_out = (w + 2 * padding - k) // stride + 1
    kernel2d = kernel.reshape(o, -1)
    blocks = _row_blocks(n_, 8 * c * k * k * h_out * w_out)
    if len(blocks) == 1:
        out = (kernel2d @ _columns(xp, k, stride, h_out, w_out)).reshape(o, h_out, w_out, n_)
    else:
        out = np.empty((o, h_out, w_out, n_))
        for blk in blocks:
            out[blk] = (kernel2d @ _columns(xp[blk], k, stride, h_out, w_out)).reshape(o, h_out, w_out, -1)
    if bias is not None:
        out += bias.reshape(o, 1, 1, 1)
    return out.transpose(3, 0, 1, 2), xp


def conv2d_bwd(g: np.ndarray, xp: np.ndarray, kernel: np.ndarray, stride: int, padding: int, need_x: bool):
    """(input, kernel, bias) gradients from the padded input ``conv2d_fwd`` saved; the input's is None unless ``need_x``.

    The columns are rebuilt block by block rather than saved.  The input's
    gradient is the NCHW view of a batch-last [C, H, W, N] array.
    """
    c, hp, wp, n_ = xp.shape
    o, _, k, _ = kernel.shape
    h_out, w_out = g.shape[2], g.shape[3]
    gt = g.transpose(1, 2, 3, 0)  # [O, H_out, W_out, N]: a free view when g is batch-last
    kernel2d = kernel.reshape(o, -1)
    gk = np.zeros((kernel2d.shape[1], o))
    gxp = np.zeros_like(xp) if need_x else None
    for blk in _row_blocks(n_, 8 * c * k * k * h_out * w_out):
        g2d = gt[blk].reshape(o, -1)
        gk += _columns(xp[blk], k, stride, h_out, w_out) @ g2d.T
        if gxp is not None:
            gcols = (kernel2d.T @ g2d).reshape(c, k, k, h_out, w_out, -1)
            gxb = gxp[blk]
            for a, b, tap in _taps(k, stride, h_out, w_out):
                gxb[tap] += gcols[:, a, b]
    gx = None if gxp is None else gxp[:, padding : hp - padding, padding : wp - padding].transpose(3, 0, 1, 2)
    return gx, gk.T.reshape(kernel.shape), bias_add_bwd(g)


def conv2d(x: Tensor, kernel: Tensor, stride: int = 1, padding: int = 0) -> Tensor:
    """Cross-correlation of [N,C,H,W] input with [O,C,K,K] kernel (no flip).

    H_out = floor((H + 2*padding - K) / stride) + 1, same for W.
    """
    stride, padding = int(stride), int(padding)
    out, xp = conv2d_fwd(x.data, kernel.data, None, stride, padding)
    bwd = lambda g: conv2d_bwd(g, xp, kernel.data, stride, padding, x.requires_grad)[:2]
    return _from_op(out, (x, kernel), "conv2d", bwd)


def avg_pool2x2_fwd(x: np.ndarray) -> np.ndarray:
    """Each 2x2 window [[x00, x01], [x10, x11]] is averaged with the bits of
    numpy's reshape-mean: it sums (x00 + x01) + (x10 + x11), or the four in
    turn when the pooled map is one column wide, and its sum turns an all
    -0.0 window into +0.0.
    """
    if x.ndim != 4:
        raise ShapeError(f"avg_pool2x2: expected 4-d input, got {x.shape}")
    h, w = x.shape[2], x.shape[3]
    if h % 2 or w % 2:
        raise ShapeError(f"avg_pool2x2: spatial dims must be even, got {h}x{w}")
    x00, x01, x10, x11 = (x[:, :, i::2, j::2] for i in (0, 1) for j in (0, 1))
    out = x00 + x01
    if w == 2:
        out += x10
        out += x11
    else:
        out += x10 + x11
    out += 0.0
    out /= 4.0
    return out


def avg_pool2x2_bwd(g: np.ndarray) -> np.ndarray:
    n, c, h, w = g.shape
    quarter = g / 4.0
    gx = np.empty_like(g, shape=(n, c, 2 * h, 2 * w))  # in g's layout, batch-last in a conv block
    for i in (0, 1):
        for j in (0, 1):
            gx[:, :, i::2, j::2] = quarter
    return gx


def avg_pool2x2(x: Tensor) -> Tensor:
    """Fixed 2x2 average pooling with stride 2; spatial dims must be even."""
    return _from_op(avg_pool2x2_fwd(x.data), (x,), "avg_pool2x2", lambda g: (avg_pool2x2_bwd(g),))


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


def group_norms_fwd(weight: np.ndarray, bias: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """(norms, inverse norms with 0 below ``NORM_EPS``)."""
    if weight.ndim < 2:
        raise ShapeError(f"group_norms: weight must have ndim >= 2, got {weight.shape}")
    if bias is not None and bias.shape != (weight.shape[0],):
        raise ShapeError(f"group_norms: bias {bias.shape} does not match {weight.shape[0]} groups")
    norms = group_norm_array(weight, bias)
    return norms, np.where(norms >= NORM_EPS, 1.0 / np.maximum(norms, NORM_EPS), 0.0)


def group_norms_bwd(g, inv: np.ndarray, weight: np.ndarray, bias: np.ndarray | None):
    """(weight, bias) gradients for norm gradients ``g``; no bias, no bias gradient."""
    coef = g * inv
    gw = (coef[:, None] * weight.reshape(weight.shape[0], -1)).reshape(weight.shape)
    return gw, None if bias is None else coef * bias


def group_norms(weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Per-output-slice Euclidean norms, one per row of axis 0.

    The bias entry of each slice is part of its norm.  The subgradient is 0
    where a norm falls below 1e-12, so dead groups stay dead and nothing
    divides by zero.
    """
    b = None if bias is None else bias.data
    norms, inv = group_norms_fwd(weight.data, b)
    parents = (weight,) if bias is None else (weight, bias)
    return _from_op(norms, parents, "group_norms", lambda g: group_norms_bwd(g, inv, weight.data, b))


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
            loss.add_grad(seed)
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
                    parent.add_grad(pg)
            else:
                key = id(parent)
                if key in local:
                    local[key] = local[key] + pg
                else:
                    local[key] = pg
