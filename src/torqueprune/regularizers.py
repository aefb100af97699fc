"""Distance-weighted group penalties and loss composition.

Every scheme charges each group its L2 norm times a weight that depends on
the group's distance from the layer pivot:

* ``linear_torque``    weight(d) = d                (pivot pays nothing)
* ``heaviside``        weight(d) = force * [d >= threshold]   (step at the threshold)
* ``exponential_etp``  weight(d) = base ** d        (pivot pays weight 1)
* ``l1``               weight(d) = 1                (plain group lasso)

The exponential base defaults to exp(5 / group_count) per layer, so the
weight at the layer's maximum natural distance is exp(5 * (G-1) / G)
regardless of layer width.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .model import GroupIndexing, GroupedLayer, ModelGraph
from .tensor import ContractError, Tensor, add, group_norms, group_norms_bwd, group_norms_fwd, scale, weighted_sum

__all__ = [
    "SCHEMES",
    "BETA_GRID",
    "RegularizerSpec",
    "resolve_exp_base",
    "distance_weight",
    "penalty",
    "model_penalty",
    "penalty_weights",
    "weighted_penalty",
    "total_loss",
]

SCHEMES = ("linear_torque", "heaviside", "exponential_etp", "l1", "none")

# default coefficient grid for sweeps
BETA_GRID = (1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3)


@dataclass
class RegularizerSpec:
    """Which force-application scheme to use and its coefficients.

    ``exp_base`` of ``None`` means the per-layer default exp(5/G); setting a
    value overrides it globally (ablation switch).  ``reg_coefficient`` is
    the multiplier applied to the whole penalty in the training loss.
    """

    scheme: str = "none"
    reg_coefficient: float = 0.0
    exp_base: float | None = None
    heaviside_threshold: float | None = None
    heaviside_force: float | None = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ContractError(f"unknown regularizer scheme {self.scheme!r}")
        if self.reg_coefficient < 0:
            raise ContractError(f"reg_coefficient must be non-negative, got {self.reg_coefficient}")
        if self.exp_base is not None and self.exp_base <= 1.0:
            raise ContractError(f"exp_base must exceed 1, got {self.exp_base}")
        if self.scheme == "heaviside":
            if self.heaviside_threshold is None or self.heaviside_force is None:
                raise ContractError("heaviside scheme needs heaviside_threshold and heaviside_force")
            if self.heaviside_threshold < 0:
                raise ContractError(f"heaviside_threshold must be non-negative, got {self.heaviside_threshold}")
            if self.heaviside_force <= 0:
                raise ContractError(f"heaviside_force must be positive, got {self.heaviside_force}")


def resolve_exp_base(group_count: int) -> float:
    """Per-layer exponential base exp(5 / group_count)."""
    if group_count < 1:
        raise ContractError(f"group_count must be >= 1, got {group_count}")
    return math.exp(5.0 / group_count)


def _base_for(spec: RegularizerSpec, group_count: int | None) -> float:
    if spec.exp_base is not None:
        return spec.exp_base
    if group_count is None:
        raise ContractError("exponential scheme needs group_count to resolve the default base")
    return resolve_exp_base(group_count)


def _scheme_weights(spec: RegularizerSpec, d: np.ndarray, group_count: int | None) -> np.ndarray:
    """Force weight at each distance in ``d`` from the pivot (float64)."""
    if spec.scheme == "linear_torque":
        return d
    if spec.scheme == "heaviside":
        return np.where(d >= spec.heaviside_threshold, spec.heaviside_force, 0.0)
    if spec.scheme == "exponential_etp":
        return _base_for(spec, group_count) ** d
    if spec.scheme == "l1":
        return np.ones_like(d)
    raise ContractError(f"no distance weights for scheme {spec.scheme!r}")


def distance_weight(spec: RegularizerSpec, d: float, group_count: int | None = None) -> float:
    """Force weight applied at distance d from the pivot."""
    if d < 0:
        raise ContractError(f"distance must be non-negative, got {d}")
    return float(_scheme_weights(spec, np.float64(d), group_count))


def _weights_for_layer(spec: RegularizerSpec, layer: GroupedLayer, indexing: GroupIndexing) -> np.ndarray:
    if len(indexing.assigned_indices) != layer.group_count:
        raise ContractError(
            f"indexing covers {len(indexing.assigned_indices)} groups, layer has {layer.group_count}"
        )
    return _scheme_weights(spec, indexing.distances.astype(np.float64), layer.group_count)


def penalty_fwd(model: ModelGraph, weights: list[tuple[int, np.ndarray]]) -> tuple[float, list]:
    """(sum of ``vdot(group norms, w)`` over ``penalty_weights``' list, saved for ``penalty_bwd``); 0 when empty.

    Terms add in order: value and gradients have the bits of the ``weighted_penalty`` graph.
    """
    value, saved = None, []
    for idx, w in weights:
        layer = model.layers[idx]
        bias = None if layer.bias is None else layer.bias.data
        norms, inv = group_norms_fwd(layer.weight.data, bias)
        value = np.vdot(norms, w) if value is None else value + np.vdot(norms, w)
        saved.append((layer, bias, w, inv))
    return (0.0 if value is None else value), saved


def penalty_bwd(saved: list, g: float) -> None:
    """Add each penalized layer's weight and bias gradients, for penalty gradient ``g``, into their ``.grad``."""
    for layer, bias, w, inv in saved:
        gw, gb = group_norms_bwd(float(g) * w, inv, layer.weight.data, bias)
        layer.weight.add_grad(gw)
        if bias is not None:
            layer.bias.add_grad(gb)


def penalty(spec: RegularizerSpec, layer: GroupedLayer, indexing: GroupIndexing) -> Tensor:
    """Differentiable sum over groups of norm * distance_weight for one layer."""
    if spec.scheme == "none":
        return Tensor(0.0)
    return weighted_sum(group_norms(layer.weight, layer.bias), _weights_for_layer(spec, layer, indexing))


def penalty_weights(
    spec: RegularizerSpec,
    model: ModelGraph,
    indexings: list[GroupIndexing],
    layers: Sequence[int] | None = None,
) -> list[tuple[int, np.ndarray]]:
    """(layer index, distance weights) for each penalized layer.

    The weights depend only on the spec and the indexings, so a training run
    computes them once.  ``layers`` restricts the penalty to the given layer
    indices (default: all); scheme ``none`` penalizes nothing.
    """
    if spec.scheme == "none":
        return []
    if len(indexings) != len(model.layers):
        raise ContractError(f"need {len(model.layers)} indexings, got {len(indexings)}")
    chosen = range(len(model.layers)) if layers is None else list(layers)
    for idx in chosen:
        if not 0 <= idx < len(model.layers):
            raise ContractError(f"penalty layer index {idx} out of range")
    return [(idx, _weights_for_layer(spec, model.layers[idx], indexings[idx])) for idx in chosen]


def weighted_penalty(model: ModelGraph, weights: list[tuple[int, np.ndarray]]) -> Tensor:
    """``add``-chained ``weighted_sum(group_norms(...))`` layer terms for weights from ``penalty_weights``; 0 for none."""
    terms = [weighted_sum(group_norms(model.layers[idx].weight, model.layers[idx].bias), w) for idx, w in weights]
    return reduce(add, terms) if terms else Tensor(0.0)


def model_penalty(
    spec: RegularizerSpec,
    model: ModelGraph,
    indexings: list[GroupIndexing],
    layers: Sequence[int] | None = None,
) -> Tensor:
    """Sum of layer penalties; each layer resolves its own default exp base.

    ``layers`` restricts the sum to the given layer indices (default: all).
    """
    return weighted_penalty(model, penalty_weights(spec, model, indexings, layers))


def loss_beta(spec: RegularizerSpec) -> float:
    """beta of the training loss ``total_loss_fwd``; 0.0 when the scheme is ``none``."""
    return 0.0 if spec.scheme == "none" else float(spec.reg_coefficient)


def total_loss_fwd(task, penalty, beta: float):
    """task + beta * penalty; ``task`` itself, exactly, when beta is 0."""
    return task + penalty * beta if beta else task


def total_loss(task_loss: Tensor, spec: RegularizerSpec, penalty: Tensor) -> Tensor:
    """``add(task_loss, scale(penalty, beta))``; ``task_loss`` itself when the penalty is off."""
    beta = loss_beta(spec)
    return add(task_loss, scale(penalty, beta)) if beta else task_loss
