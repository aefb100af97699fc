"""Structural pruning: drop low-norm groups and their coupled input slices.

A plan names output groups to remove; applying it returns a smaller model
with every downstream input column/channel that depended on those groups
deleted as well.  MACs accounting (multiply-accumulates for one input
instance) backs the speed-up metric: speed-up = MACs_base / MACs_pruned,
and accuracy-drop = pruned - base (positive means the pruned model is
better).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    ConstructionError,
    GroupedLayer,
    ModelGraph,
    group_norm_values,
    layer_output_shapes,
)
from .tensor import ContractError, Tensor

__all__ = [
    "MacsReport",
    "PrunePlan",
    "UnreachableTargetError",
    "count_macs",
    "speedup",
    "accuracy_drop",
    "plan_by_threshold",
    "plan_by_budget",
    "apply_plan",
]


class UnreachableTargetError(ValueError):
    """The requested speed-up exceeds what pruning can deliver."""

    def __init__(self, target: float, max_achievable: float):
        self.target = target
        self.max_achievable = max_achievable
        super().__init__(
            f"target speed-up {target:g} is unreachable; "
            f"maximum achievable is {max_achievable:.6g}"
        )


@dataclass(frozen=True)
class MacsReport:
    per_layer: tuple  # ((layer index, MAC count), ...)
    total: int


@dataclass(frozen=True)
class PrunePlan:
    removals: tuple  # ((layer index, group index), ...), sorted
    mode: str  # "threshold" | "budget"
    threshold_used: float
    predicted_speedup: float

    def removed_per_layer(self, n_layers: int) -> list:
        counts = [0] * n_layers
        for l, _ in self.removals:
            counts[l] += 1
        return counts


# ---------------------------------------------------------------------------
# MACs accounting


def _layer_macs(model: ModelGraph, removed: np.ndarray) -> np.ndarray:
    """Per-layer MACs for a single input instance, after removing groups.

    ``removed[..., l]`` is the number of groups taken out of layer l; one row
    per candidate plan.  Each removal from layer l also takes ``couplings[l]``
    inputs out of layer l+1, so MACs_l = (G_l - r_l) * (I_l - r_{l-1} * couplings[l-1]) * pair_l,
    where one (output, input) pair costs 1 MAC in a dense layer and
    K^2 * H_out * W_out in a conv.  Biases, activations and pooling are excluded.
    """
    pair = []
    for layer, pool, shape in zip(model.layers, model.pools, layer_output_shapes(model)):
        if layer.kind == "conv2d":
            # the shape is taken after the 2x2 pool, which halves each side
            pair.append(layer.weight.shape[2] ** 2 * shape[1] * shape[2] * (4 if pool else 1))
        else:
            pair.append(1)
    groups = np.array([layer.group_count for layer in model.layers])
    inputs = np.array([layer.in_size for layer in model.layers])
    lost_inputs = np.zeros_like(removed)
    lost_inputs[..., 1:] = removed[..., :-1] * np.array(model.couplings, dtype=np.int64)
    return (groups - removed) * (inputs - lost_inputs) * np.array(pair)


def count_macs(model: ModelGraph) -> MacsReport:
    """Multiply-accumulate count per layer for a single input instance.

    Dense: out*in.  Conv: C_out*C_in*K^2*H_out*W_out.  Biases, activations
    and pooling are excluded.
    """
    macs = _layer_macs(model, np.zeros(len(model.layers), dtype=np.int64))
    per_layer = tuple((idx, int(m)) for idx, m in enumerate(macs))
    return MacsReport(per_layer=per_layer, total=sum(m for _, m in per_layer))


def speedup(base: MacsReport, pruned: MacsReport) -> float:
    if pruned.total <= 0:
        raise ContractError(f"pruned MAC total must be positive, got {pruned.total}")
    return base.total / pruned.total


def accuracy_drop(base_metric: float, pruned_metric: float) -> float:
    """Signed difference pruned - base; positive means the pruned model improved."""
    return pruned_metric - base_metric


# ---------------------------------------------------------------------------
# planning


def _planned_layers(model: ModelGraph) -> int:
    """How many leading layers a plan may take groups from.

    The output layer's groups are the model's outputs (class logits,
    regression targets), so they stay, unless the model has no other layer.
    """
    return max(len(model.layers) - 1, 1)


def _threshold_removals(model: ModelGraph, norms, tau: float):
    """Groups outside the output layer with norm strictly below tau, never emptying a layer."""
    removals = []
    for l, layer_norms in enumerate(norms[: _planned_layers(model)]):
        below = layer_norms < tau
        if below.all():
            # keep the single largest-norm group; ties keep the highest index,
            # matching "lower index pruned first"
            below[len(layer_norms) - 1 - np.argmax(layer_norms[::-1])] = False
        removals.extend((l, int(i)) for i in np.flatnonzero(below))
    return tuple(removals)


def plan_by_threshold(model: ModelGraph, tau: float) -> PrunePlan:
    """Plan removal of every group outside the output layer whose norm is strictly below ``tau``."""
    if tau < 0:
        raise ContractError(f"threshold must be non-negative, got {tau}")
    removals = _threshold_removals(model, group_norm_values(model), tau)
    counts = np.bincount([l for l, _ in removals], minlength=len(model.layers))
    after = int(_layer_macs(model, counts).sum())
    return PrunePlan(removals, "threshold", float(tau), count_macs(model).total / after)


def plan_by_budget(model: ModelGraph, target_speedup: float) -> PrunePlan:
    """Smallest threshold whose predicted speed-up reaches ``target_speedup``.

    The removal set is a step function of the threshold, so searching the
    finite candidate set {0} + distinct norms + just-above-max is exact.
    Every candidate is priced at once from its per-layer removal counts; the
    output layer is not planned, as in ``plan_by_threshold``.
    """
    if target_speedup < 1.0:
        raise ContractError(f"target speed-up must be >= 1, got {target_speedup}")
    norms = group_norm_values(model)
    flat = np.concatenate(norms)
    candidates = np.unique(np.concatenate([[0.0], flat, [np.nextafter(flat.max(), np.inf)]]))
    # groups strictly below each candidate, capped so no layer is emptied
    removed = np.stack(
        [np.minimum(np.searchsorted(np.sort(v), candidates), len(v) - 1) for v in norms], axis=1
    )
    removed[:, _planned_layers(model) :] = 0
    speedups = count_macs(model).total / _layer_macs(model, removed).sum(axis=1)
    hits = np.flatnonzero(speedups >= target_speedup)
    if hits.size == 0:
        raise UnreachableTargetError(target_speedup, float(speedups[-1]))
    tau = float(candidates[hits[0]])
    return PrunePlan(_threshold_removals(model, norms, tau), "budget", tau, float(speedups[hits[0]]))


# ---------------------------------------------------------------------------
# application


def _keep_masks(model: ModelGraph, plan: PrunePlan) -> list[np.ndarray]:
    """One boolean mask per layer, True for the groups the plan keeps."""
    keep = [np.ones(layer.group_count, dtype=bool) for layer in model.layers]
    planned = _planned_layers(model)
    for l, g in plan.removals:
        if not 0 <= l < len(model.layers):
            raise ConstructionError(f"plan references layer {l}, model has {len(model.layers)}")
        if not 0 <= g < model.layers[l].group_count:
            raise ConstructionError(f"plan references group {g} of layer {l}, which has {model.layers[l].group_count}")
        if l >= planned:
            raise ConstructionError(f"plan removes output group ({l}, {g}); pruning must not change the model's outputs")
        if not keep[l][g]:
            raise ConstructionError(f"plan removes ({l}, {g}) twice")
        keep[l][g] = False
    for l, mask in enumerate(keep):
        if not mask.any():
            raise ConstructionError(f"plan would empty layer {l}")
    return keep


def apply_plan(model: ModelGraph, plan: PrunePlan) -> ModelGraph:
    """Return a new, smaller model; the input model is left untouched."""
    keep = _keep_masks(model, plan)
    new_layers = []
    for l, layer in enumerate(model.layers):
        # each removed group of layer l-1 takes couplings[l-1] inputs of layer l
        # with it; selecting the rows last copies into a fresh C-ordered array
        cols = np.repeat(keep[l - 1], model.couplings[l - 1]) if l else slice(None)
        w = layer.weight.data[:, cols][keep[l]]
        bias = None if layer.bias is None else Tensor(layer.bias.data[keep[l]], requires_grad=True)
        new_layers.append(GroupedLayer(layer.kind, Tensor(w, requires_grad=True), bias, layer.stride, layer.padding))

    return ModelGraph(
        layers=new_layers,
        activations=list(model.activations),
        pools=list(model.pools),
        input_shape=tuple(model.input_shape),
    )
