"""Sequential networks whose layers are partitioned into prunable groups.

A group is one output slice of a layer: a conv filter or a dense neuron's
fan-in row, together with its bias entry.  Distances are measured between
assigned group indices and the pivot (the assigned index of group 0).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

import numpy as np

from .tensor import (
    ShapeError,
    Tensor,
    avg_pool2x2,
    bias_add,
    conv2d,
    group_norm_array,
    group_norms,  # the penalty's norm op; regularizers looks it up here
    linear,
    matmul,  # unused here since dense layers run as one ``linear`` node;
    relu,
    reshape,
    transpose,  # the benchmark's op tracer still wraps both names here
)

__all__ = [
    "ConstructionError",
    "LayerSpec",
    "ArchSpec",
    "parse_arch",
    "GroupedLayer",
    "GroupIndexing",
    "Coupling",
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
class Coupling:
    """How an output group of layer l maps onto input slices of layer l+1.

    ``block`` is the number of dense columns fed by one conv channel when the
    successor is dense after a flatten (channel-major layout, so channel i
    owns columns [i*block, (i+1)*block)).
    """

    kind: str  # dense_to_dense | conv_to_conv | conv_to_dense
    block: int = 1


@dataclass
class ModelGraph:
    layers: list[GroupedLayer]
    activations: list[str]  # applied after each layer: "relu" | "none"
    pools: list[bool]  # 2x2 average pool after the activation
    input_shape: tuple[int, ...]
    couplings: list[Coupling] = field(init=False)

    def __post_init__(self):
        self.validate()
        self.couplings = derive_couplings(self)

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
        if len(self.layers) != len(self.activations) or len(self.layers) != len(self.pools):
            raise ConstructionError("layers, activations and pools must align")
        for i, (layer, act, pool) in enumerate(zip(self.layers, self.activations, self.pools)):
            if layer.kind not in _WEIGHT_DIMS:
                raise ConstructionError(f"layer {i} has unknown kind {layer.kind!r}")
            if len(layer.weight.shape) != _WEIGHT_DIMS[layer.kind] or min(layer.weight.shape) < 1:
                raise ConstructionError(f"layer {i} ({layer.kind}) has a weight of shape {layer.weight.shape}")
            if act not in ("relu", "none"):
                raise ConstructionError(f"layer {i} has unknown activation {act!r}")
            if pool and layer.kind != "conv2d":
                raise ConstructionError(f"layer {i} ({layer.kind}) cannot pool; only conv layers do")
            if layer.bias is not None and layer.bias.shape != (layer.group_count,):
                raise ConstructionError(f"layer {i} bias {layer.bias.shape} does not match {layer.group_count} groups")
        layer_output_shapes(self)  # raises on any incompatibility

    # -- checkpoint serialization (documented in the README) --

    def to_dict(self) -> dict:
        layers = []
        for i, layer in enumerate(self.layers):
            layers.append(
                {
                    "kind": layer.kind,
                    "weight": {"shape": list(layer.weight.shape), "data": layer.weight.data.reshape(-1).tolist()},
                    "bias": None
                    if layer.bias is None
                    else {"shape": list(layer.bias.shape), "data": layer.bias.data.tolist()},
                    "stride": layer.stride,
                    "padding": layer.padding,
                    "activation": self.activations[i],
                    "pool": self.pools[i],
                }
            )
        return {"format": "torqueprune-model-v1", "input_shape": list(self.input_shape), "layers": layers}

    @classmethod
    def from_dict(cls, d: dict) -> "ModelGraph":
        if d.get("format") != "torqueprune-model-v1":
            raise ConstructionError(f"unsupported checkpoint format {d.get('format')!r}")
        layers, acts, pools = [], [], []
        for entry in d["layers"]:
            w = entry["weight"]
            weight = Tensor(np.asarray(w["data"], dtype=np.float64).reshape(w["shape"]), requires_grad=True)
            bias = None
            if entry["bias"] is not None:
                b = entry["bias"]
                bias = Tensor(np.asarray(b["data"], dtype=np.float64).reshape(b["shape"]), requires_grad=True)
            layers.append(GroupedLayer(entry["kind"], weight, bias, entry["stride"], entry["padding"]))
            acts.append(entry["activation"])
            pools.append(entry["pool"])
        return cls(layers, acts, pools, tuple(d["input_shape"]))


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


def _layer_out_shape(shape, layer: GroupedLayer, pool: bool) -> tuple[int, ...]:
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
    if pool:
        if h % 2 or w % 2:
            raise ConstructionError(f"pool needs even spatial dims, got {h}x{w}")
        h, w = h // 2, w // 2
    return (weight_shape[0], h, w)


def layer_output_shapes(model: ModelGraph) -> list[tuple[int, ...]]:
    """Shape after each layer (activation and pool included), batch axis excluded."""
    shape = model.input_shape
    out = []
    for layer, pool in zip(model.layers, model.pools):
        shape = _layer_out_shape(shape, layer, pool)
        out.append(shape)
    return out


def derive_couplings(model: ModelGraph) -> list[Coupling]:
    shapes = layer_output_shapes(model)
    couplings = []
    for l in range(len(model.layers) - 1):
        a, b = model.layers[l], model.layers[l + 1]
        if a.kind == "conv2d" and b.kind == "conv2d":
            couplings.append(Coupling("conv_to_conv"))
        elif a.kind == "conv2d" and b.kind == "dense":
            _, h, w = shapes[l]
            couplings.append(Coupling("conv_to_dense", block=h * w))
        elif a.kind == "dense" and b.kind == "dense":
            couplings.append(Coupling("dense_to_dense"))
        else:
            raise ConstructionError(f"unsupported layer order: {a.kind} before {b.kind}")
    return couplings


def build_model(arch: ArchSpec | str, seed: int = 0) -> ModelGraph:
    """Instantiate an architecture with seeded Kaiming-uniform weights."""
    if isinstance(arch, str):
        arch = parse_arch(arch)
    rng = np.random.default_rng(seed)

    layers: list[GroupedLayer] = []
    acts: list[str] = []
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
        layers.append(GroupedLayer(spec.kind, weight, bias, spec.stride, spec.padding))
        acts.append("none" if pos == len(arch.layers) - 1 else "relu")
        shape = _layer_out_shape(shape, layers[-1], spec.pool)
    return ModelGraph(layers, acts, [spec.pool for spec in arch.layers], tuple(arch.input_shape))


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


def forward(model: ModelGraph, batch: Tensor) -> Tensor:
    """Run the network on a batch shaped [B, *input_shape]."""
    expected = tuple(model.input_shape)
    if batch.shape[1:] != expected:
        raise ShapeError(f"batch shape {batch.shape} does not match input shape {expected}")
    x = batch
    for layer, act, pool in zip(model.layers, model.activations, model.pools):
        if layer.kind == "dense" and len(x.shape) > 2:
            x = reshape(x, (x.shape[0], int(np.prod(x.shape[1:]))))
        if layer.kind == "conv2d":
            x = conv2d(x, layer.weight, stride=layer.stride, padding=layer.padding)
            if layer.bias is not None:
                x = bias_add(x, layer.bias)
        else:
            x = linear(x, layer.weight, layer.bias)
        if act == "relu":
            x = relu(x)
        if pool:
            x = avg_pool2x2(x)
    return x
