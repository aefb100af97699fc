"""Sequential networks whose layers are partitioned into prunable groups.

A group is one output slice of a layer: a conv filter or a dense neuron's
fan-in row, together with its bias entry.  Distances are measured between
assigned group indices and the pivot (the assigned index of group 0).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .tensor import ShapeError, Tensor, group_norm_array, linear_bwd, linear_fwd, relu_bwd, relu_fwd
from .tensor import avg_pool2x2_bwd, avg_pool2x2_fwd, conv2d_bwd, conv2d_fwd, reshape_bwd
from .tensor import avg_pool2x2, bias_add, conv2d, linear, relu, reshape

# Unused here: the benchmark's op tracer wraps these ops by name here.
from .tensor import group_norms, matmul, transpose

__all__ = [
    "ConstructionError",
    "LayerSpec",
    "ArchSpec",
    "parse_arch",
    "GroupedLayer",
    "GroupIndexing",
    "ModelGraph",
    "build_model",
    "assign_indexing",
    "model_indexings",
    "group_norm_values",
    "forward",
]


class ConstructionError(ValueError):
    """A model description is internally inconsistent."""


# ---------------------------------------------------------------------------
# architecture description


@dataclass
class LayerSpec:
    """One layer of an architecture description; input sizes are inferred."""

    kind: str  # "dense" | "conv2d"
    out: int
    k: int = 0
    stride: int = 1
    padding: int = 0
    pool: bool = False  # 2x2 average pool after the activation (conv only)


@dataclass
class ArchSpec:
    input_shape: tuple[int, ...]
    layers: list[LayerSpec]


_CONV_RE = re.compile(r"^conv(\d+)k(\d+)(?:s(\d+))?(?:p(\d+))?$")
_DENSE_RE = re.compile(r"^dense(\d+)$")


def parse_arch(text: str) -> ArchSpec:
    """Parse an architecture string.

    Two forms are accepted::

        mlp:2-64-64-2                       # input width 2, then dense sizes
        cnn:3x32x32:conv8k3s1p1-pool-dense10

    Dense chains get a relu after every layer except the last; ``pool``
    attaches a 2x2 average pool to the preceding conv layer, at most once.
    Every size, kernel and stride is at least 1.
    """
    text = text.strip()
    if text.startswith("mlp:"):
        try:
            dims = [int(p) for p in text[4:].split("-")]
        except ValueError:
            raise ConstructionError(f"bad mlp architecture {text!r}") from None
        if len(dims) < 2 or any(d < 1 for d in dims):
            raise ConstructionError(f"mlp architecture needs >= 2 positive sizes, got {text!r}")
        layers = [LayerSpec("dense", out=d) for d in dims[1:]]
        return ArchSpec(input_shape=(dims[0],), layers=layers)

    if text.startswith("cnn:"):
        parts = text.split(":")
        if len(parts) != 3:
            raise ConstructionError(f"cnn architecture must be cnn:CxHxW:tokens, got {text!r}")
        try:
            c, h, w = (int(v) for v in parts[1].split("x"))
        except ValueError:
            raise ConstructionError(f"bad cnn input shape in {text!r}") from None
        layers: list[LayerSpec] = []
        for tok in parts[2].split("-"):
            if tok == "pool":
                if not layers or layers[-1].kind != "conv2d" or layers[-1].pool:
                    raise ConstructionError("pool token must follow a conv layer, once")
                layers[-1].pool = True
                continue
            m = _CONV_RE.match(tok)
            if m:
                layers.append(
                    LayerSpec(
                        "conv2d",
                        out=int(m.group(1)),
                        k=int(m.group(2)),
                        stride=int(m.group(3) or 1),
                        padding=int(m.group(4) or 0),
                    )
                )
                continue
            m = _DENSE_RE.match(tok)
            if m:
                layers.append(LayerSpec("dense", out=int(m.group(1))))
                continue
            raise ConstructionError(f"unknown architecture token {tok!r}")
        if not layers:
            raise ConstructionError(f"cnn architecture has no layers: {text!r}")
        sizes = [c, h, w] + [s.out for s in layers] + [s.stride for s in layers]
        sizes += [s.k for s in layers if s.kind == "conv2d"]
        if min(sizes) < 1:
            raise ConstructionError(f"cnn sizes, kernels and strides must be positive, got {text!r}")
        return ArchSpec(input_shape=(c, h, w), layers=layers)

    raise ConstructionError(f"architecture must start with 'mlp:' or 'cnn:', got {text!r}")


# ---------------------------------------------------------------------------
# model types


@dataclass
class GroupedLayer:
    """A prunable layer; group i is output slice i (row / filter) plus bias[i]."""

    kind: str
    weight: Tensor  # dense: [out, in]; conv2d: [C_out, C_in, K, K]
    bias: Tensor | None
    stride: int = 1
    padding: int = 0
    activation: str = "none"  # applied after the layer: "relu" | "none"
    pool: bool = False  # 2x2 average pool after the activation (conv only)

    @property
    def group_count(self) -> int:
        return self.weight.shape[0]

    @property
    def in_size(self) -> int:
        return self.weight.shape[1]


@dataclass
class GroupIndexing:
    """Assigned index per group; pivot is the assigned index of group 0."""

    assigned_indices: np.ndarray
    strategy: str
    seed: int = 0

    @property
    def pivot_index(self) -> int:
        return int(self.assigned_indices[0])

    @property
    def distances(self) -> np.ndarray:
        return np.abs(self.assigned_indices - self.assigned_indices[0])

    def distance(self, i: int) -> int:
        return int(abs(int(self.assigned_indices[i]) - self.pivot_index))


@dataclass
class ModelGraph:
    layers: list[GroupedLayer]
    input_shape: tuple[int, ...]
    # couplings[l]: how many inputs of layer l+1 one group of layer l feeds:
    # H*W when a conv feeds a dense layer (the flatten is channel-major, so
    # channel i owns columns [i*H*W, (i+1)*H*W)), else 1
    couplings: list[int] = field(init=False)

    def __post_init__(self):
        self.validate()
        self.couplings = [b.in_size // a.group_count for a, b in zip(self.layers, self.layers[1:])]

    def parameters(self) -> list[Tensor]:
        out = []
        for layer in self.layers:
            out.append(layer.weight)
            if layer.bias is not None:
                out.append(layer.bias)
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def total_groups(self) -> int:
        return sum(layer.group_count for layer in self.layers)

    def validate(self) -> None:
        if not self.layers:
            raise ConstructionError("a model needs at least one layer")
        if min(self.input_shape, default=0) < 1:
            raise ConstructionError(f"input_shape must be one or more positive integers, got {self.input_shape}")
        for i, layer in enumerate(self.layers):
            if layer.kind not in _WEIGHT_DIMS:
                raise ConstructionError(f"layer {i} has unknown kind {layer.kind!r}")
            if len(layer.weight.shape) != _WEIGHT_DIMS[layer.kind] or min(layer.weight.shape) < 1:
                raise ConstructionError(f"layer {i} ({layer.kind}) has a weight of shape {layer.weight.shape}")
            if layer.activation not in ("relu", "none"):
                raise ConstructionError(f"layer {i} has unknown activation {layer.activation!r}")
            if type(layer.pool) is not bool:
                raise ConstructionError(f"layer {i} pool must be true or false, got {layer.pool!r:.60}")
            if layer.kind == "dense" and (layer.pool, layer.stride, layer.padding) != (False, 1, 0):
                raise ConstructionError(f"layer {i} (dense) cannot pool, stride or pad; only conv layers do")
            if layer.bias is not None and layer.bias.shape != (layer.group_count,):
                raise ConstructionError(f"layer {i} bias {layer.bias.shape} does not match {layer.group_count} groups")
        layer_output_shapes(self)  # raises on any incompatibility

    # -- checkpoint serialization (documented in the README) --

    def to_dict(self) -> dict:
        layers = []
        for layer in self.layers:
            layers.append(
                {
                    "kind": layer.kind,
                    "weight": {"shape": list(layer.weight.shape), "data": layer.weight.data.reshape(-1).tolist()},
                    "bias": None
                    if layer.bias is None
                    else {"shape": list(layer.bias.shape), "data": layer.bias.data.tolist()},
                    "stride": layer.stride,
                    "padding": layer.padding,
                    "activation": layer.activation,
                    "pool": layer.pool,
                }
            )
        return {"format": "torqueprune-model-v1", "input_shape": list(self.input_shape), "layers": layers}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelGraph":
        if not isinstance(d, dict):
            raise ConstructionError(f"a checkpoint is a JSON object, not {type(d).__name__}")
        if d.get("format") != "torqueprune-model-v1":
            raise ConstructionError(f"unsupported checkpoint format {d.get('format')!r}")
        layers = []
        for i, entry in enumerate(d["layers"]):
            weight = _checkpoint_tensor(entry["weight"], f"layer {i} weight")
            bias = None if entry["bias"] is None else _checkpoint_tensor(entry["bias"], f"layer {i} bias")
            stride, padding = _checkpoint_ints([entry["stride"], entry["padding"]], f"layer {i} stride and padding")
            layers.append(GroupedLayer(entry["kind"], weight, bias, stride, padding, entry["activation"], entry["pool"]))
        return cls(layers, tuple(_checkpoint_ints(d["input_shape"], "input_shape")))


def _checkpoint_ints(values, what: str) -> list:
    """``values`` if it is a list of non-negative integers; JSON floats (2.0) and booleans are not."""
    if not isinstance(values, list) or not all(type(v) is int and v >= 0 for v in values):
        raise ConstructionError(f"checkpoint {what} must be non-negative integers, got {values!r:.60}")
    return values


def _checkpoint_tensor(part: dict, what: str) -> Tensor:
    # JSON numbers only: np.asarray would read "0.25" and true as floats
    if not set(map(type, part["data"])) <= {int, float}:
        raise ConstructionError(f"checkpoint {what} data must be JSON numbers")
    data = np.asarray(part["data"], dtype=np.float64)
    if not np.isfinite(data).all():
        raise ConstructionError(f"checkpoint {what} holds non-finite values")
    return Tensor(data.reshape(_checkpoint_ints(part["shape"], f"{what} shape")), requires_grad=True)


# ---------------------------------------------------------------------------
# construction


# weight dimensions per layer kind: dense [out, in], conv2d [C_out, C_in, K, K]
_WEIGHT_DIMS = {"dense": 2, "conv2d": 4}


def _conv_out_hw(h: int, w: int, k: int, stride: int, padding: int) -> tuple[int, int]:
    if stride < 1 or padding < 0:
        raise ConstructionError(f"conv needs stride >= 1 and padding >= 0, got stride {stride}, padding {padding}")
    if h + 2 * padding < k or w + 2 * padding < k:
        raise ConstructionError(f"conv kernel {k}x{k} exceeds padded input {h + 2 * padding}x{w + 2 * padding}")
    return (h + 2 * padding - k) // stride + 1, (w + 2 * padding - k) // stride + 1


def _layer_out_shape(shape, layer: GroupedLayer) -> tuple[int, ...]:
    """Shape after one layer (activation and pool included) from its input shape; dense flattens."""
    weight_shape = layer.weight.shape
    if layer.kind == "dense":
        flat = int(np.prod(shape))
        if flat != weight_shape[1]:
            raise ConstructionError(f"dense layer expects {weight_shape[1]} inputs but receives {flat}")
        return (weight_shape[0],)
    if len(shape) != 3:
        raise ConstructionError(f"conv layer needs a CxHxW input, got {shape}")
    if shape[0] != weight_shape[1]:
        raise ConstructionError(f"conv expects {weight_shape[1]} input channels, got {shape[0]}")
    h, w = _conv_out_hw(shape[1], shape[2], weight_shape[2], layer.stride, layer.padding)
    if layer.pool:
        if h % 2 or w % 2:
            raise ConstructionError(f"pool needs even spatial dims, got {h}x{w}")
        h, w = h // 2, w // 2
    return (weight_shape[0], h, w)


def layer_output_shapes(model: ModelGraph) -> list[tuple[int, ...]]:
    """Shape after each layer (activation and pool included), batch axis excluded."""
    shape = model.input_shape
    out = []
    for layer in model.layers:
        shape = _layer_out_shape(shape, layer)
        out.append(shape)
    return out


def build_model(arch: ArchSpec | str, seed: int = 0) -> ModelGraph:
    """Instantiate an architecture with seeded Kaiming-uniform weights."""
    if isinstance(arch, str):
        arch = parse_arch(arch)
    rng = np.random.default_rng(seed)

    layers: list[GroupedLayer] = []
    shape = tuple(arch.input_shape)
    for pos, spec in enumerate(arch.layers):
        if spec.kind == "conv2d":
            weight_shape = (spec.out, shape[0], spec.k, spec.k)
        elif spec.kind == "dense":
            weight_shape = (spec.out, int(np.prod(shape)))
        else:
            raise ConstructionError(f"unknown layer kind {spec.kind!r}")
        fan_in = int(np.prod(weight_shape[1:]))
        bound = np.sqrt(6.0 / fan_in)
        weight = Tensor(rng.uniform(-bound, bound, weight_shape), requires_grad=True)
        bias = Tensor(rng.uniform(-1.0 / np.sqrt(fan_in), 1.0 / np.sqrt(fan_in), spec.out), requires_grad=True)
        act = "none" if pos == len(arch.layers) - 1 else "relu"
        layers.append(GroupedLayer(spec.kind, weight, bias, spec.stride, spec.padding, act, spec.pool))
        shape = _layer_out_shape(shape, layers[-1])
    return ModelGraph(layers, tuple(arch.input_shape))


# ---------------------------------------------------------------------------
# indexing


def assign_indexing(layer: GroupedLayer | int, strategy: str = "natural", seed: int = 0) -> GroupIndexing:
    """Assign group indices; pivot is always the assigned index of group 0."""
    count = layer if isinstance(layer, int) else layer.group_count
    if count < 1:
        raise ConstructionError(f"group count must be >= 1, got {count}")
    if strategy == "natural":
        assigned = np.arange(count)
    elif strategy == "random":
        assigned = np.random.default_rng(seed).permutation(count)
    else:
        raise ConstructionError(f"unknown indexing strategy {strategy!r}")
    return GroupIndexing(assigned_indices=assigned, strategy=strategy, seed=seed)


def model_indexings(model: ModelGraph, strategy: str = "natural", seed: int = 0) -> list[GroupIndexing]:
    """One indexing per layer; random layers draw from seeds (seed, layer)."""
    out = []
    for l, layer in enumerate(model.layers):
        layer_seed = int(np.random.default_rng([seed, l]).integers(0, 2**31)) if strategy == "random" else seed
        out.append(assign_indexing(layer, strategy, layer_seed))
    return out


# ---------------------------------------------------------------------------
# norms and forward


def group_norm_values(model: ModelGraph) -> list[np.ndarray]:
    """Plain numpy group norms per layer (no graph), for pruning and logging."""
    return [
        group_norm_array(layer.weight.data, None if layer.bias is None else layer.bias.data)
        for layer in model.layers
    ]


def layers_fwd(model: ModelGraph, x: np.ndarray) -> tuple[np.ndarray, list]:
    """Run the forward kernels on an array [B, *input_shape]: (output, saved for ``layers_bwd``).

    ``forward`` without the graph, bit for bit; a dense layer flattens a conv map first.
    """
    expected = tuple(model.input_shape)
    if x.shape[1:] != expected:
        raise ShapeError(f"batch shape {x.shape} does not match input shape {expected}")
    saved = []
    for layer in model.layers:
        unflat = None  # a dense layer's input before it is flattened
        b = None if layer.bias is None else layer.bias.data
        if layer.kind == "conv2d":
            out, x = conv2d_fwd(x, layer.weight.data, b, layer.stride, layer.padding)
        else:
            if x.ndim > 2:
                unflat, x = x, x.reshape(x.shape[0], math.prod(x.shape[1:]))
            out = linear_fwd(x, layer.weight.data, b)
        saved.append((layer, unflat, x, out))
        x = relu_fwd(out) if layer.activation == "relu" else out
        x = avg_pool2x2_fwd(x) if layer.pool else x
    return x, saved


def layers_bwd(saved: list, g: np.ndarray) -> None:
    """Run a ``layers_fwd`` pass's backward kernels, last layer first, for output gradient ``g``.

    Each layer adds its weight and bias gradients into their ``.grad`` with
    ``Tensor.add_grad``; every layer but the first passes its input's gradient on.
    """
    for i, (layer, unflat, x, out) in reversed(list(enumerate(saved))):
        g = avg_pool2x2_bwd(g) if layer.pool else g
        if layer.activation == "relu":
            g = relu_bwd(g, out)
        if layer.kind == "conv2d":
            g, gw, gb = conv2d_bwd(g, x, layer.weight.data, layer.stride, layer.padding, i > 0)
        else:
            g, gw, gb = linear_bwd(g, x, layer.weight.data, i > 0)
            if g is not None and unflat is not None:
                g = reshape_bwd(g, unflat)
        layer.weight.add_grad(gw)
        if layer.bias is not None:
            layer.bias.add_grad(gb)


def forward(model: ModelGraph, batch: Tensor) -> Tensor:
    """The layer stack on a batch [B, *input_shape] as one graph node per op: ``layers_fwd`` as a graph."""
    expected = tuple(model.input_shape)
    if batch.shape[1:] != expected:
        raise ShapeError(f"batch shape {batch.shape} does not match input shape {expected}")
    x = batch
    for layer in model.layers:
        if layer.kind == "conv2d":
            x = conv2d(x, layer.weight, layer.stride, layer.padding)
            if layer.bias is not None:
                x = bias_add(x, layer.bias)
        else:
            if len(x.shape) > 2:
                x = reshape(x, (x.shape[0], math.prod(x.shape[1:])))
            x = linear(x, layer.weight, layer.bias)
        if layer.activation == "relu":
            x = relu(x)
        if layer.pool:
            x = avg_pool2x2(x)
    return x
