"""Parameter-update rules and learning-rate schedules.

Three optimizers cover the training recipes used by the experiments:
plain/momentum SGD (weight decay folded into the gradient), Adam
(coupled weight decay) and AdamW (decoupled weight decay).  Schedules
are pure functions of the epoch-or-step index so a run can be replayed
exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .tensor import ContractError

OPTIMIZER_KINDS = ("sgd_momentum", "adam", "adamw")
SCHEDULE_KINDS = ("multistep", "step", "cosine", "linear_warmup_decay", "constant")


class Optimizer:
    """Owns flat parameter, gradient and moment vectors and applies one elementwise update rule to them.

    Each parameter's ``.data`` becomes a view of the parameter vector and its
    ``.grad`` (copied in, or zeros for ``None``) a view of the gradient
    vector, which ``add_grad`` adds into.  ``step`` updates the parameters and
    zeroes the gradient vector; a replaced ``.grad`` (``zero_grad``) would be
    ignored, so ``step`` reports it as a contract error.
    """

    def __init__(
        self,
        params,
        kind="sgd_momentum",
        lr=0.1,
        momentum=0.0,
        betas=(0.9, 0.999),
        eps=1e-8,
        weight_decay=0.0,
    ):
        if kind not in OPTIMIZER_KINDS:
            raise ContractError(f"unknown optimizer kind {kind!r}; expected one of {OPTIMIZER_KINDS}")
        if lr < 0 or momentum < 0 or weight_decay < 0:
            raise ContractError("lr, momentum and weight_decay must be non-negative")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ContractError(f"betas must lie in [0, 1), got {betas}")
        self.params = list(params)
        self.kind = kind
        self.lr = float(lr)
        self.momentum = float(momentum)
        self.betas = (float(betas[0]), float(betas[1]))
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.step_count = 0
        ends = list(accumulate((p.data.size for p in self.params), initial=0))
        self._flat = np.empty(ends[-1])
        self._grad = np.empty(ends[-1])
        self.grads = []
        for p, start, end in zip(self.params, ends, ends[1:]):
            view = self._flat[start:end].reshape(p.data.shape)
            view[...] = p.data
            p.data = view
            grad = self._grad[start:end].reshape(view.shape)
            grad[...] = 0.0 if p.grad is None else p.grad
            p.grad = grad
            self.grads.append(grad)
        # moment vectors; only Adam and AdamW use the second
        self._velocity = np.zeros_like(self._flat)
        self._second = np.zeros_like(self._flat) if kind != "sgd_momentum" else None

    def step(self):
        if any(p.grad is not view for p, view in zip(self.params, self.grads)):
            raise ContractError("a parameter's .grad was replaced; add gradients into the optimizer's view in place")
        self.step_count += 1
        w, g, m, v = self._flat, self._grad, self._velocity, self._second
        decoupled = self.kind == "adamw"
        if self.weight_decay and not decoupled:  # coupled decay is folded into the gradient
            g = g + self.weight_decay * w
        if self.kind == "sgd_momentum":
            m *= self.momentum
            m += g
            w -= self.lr * m
        else:
            b1, b2 = self.betas
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            if decoupled and self.weight_decay:
                w -= self.lr * self.weight_decay * w
            w -= self.lr * (m / (1.0 - b1**self.step_count)) / (np.sqrt(v / (1.0 - b2**self.step_count)) + self.eps)
        self._grad.fill(0.0)


@dataclass(frozen=True)
class LrSchedule:
    """A deterministic learning-rate curve indexed by epoch or step."""

    kind: str = "constant"
    milestones: tuple = ()
    gamma: float = 0.1
    step_size: int = 1
    t_max: int = 1
    warmup_fraction: float = 0.1
    total_steps: int = 1

    def __post_init__(self):
        if self.kind not in SCHEDULE_KINDS:
            raise ContractError(f"unknown schedule kind {self.kind!r}; expected one of {SCHEDULE_KINDS}")
        if self.kind in ("multistep", "step") and not (0.0 < self.gamma <= 1.0):
            raise ContractError(f"gamma must lie in (0, 1], got {self.gamma}")
        if self.kind == "multistep" and list(self.milestones) != sorted(self.milestones):
            raise ContractError(f"milestones must be sorted, got {self.milestones}")
        if self.kind == "multistep" and min(self.milestones, default=0) < 0:
            raise ContractError(f"milestones must be non-negative, got {self.milestones}")
        if self.kind == "step" and self.step_size < 1:
            raise ContractError(f"step_size must be >= 1, got {self.step_size}")
        if self.kind == "cosine" and self.t_max < 1:
            raise ContractError(f"t_max must be >= 1, got {self.t_max}")
        if self.kind == "linear_warmup_decay":
            if not (0.0 <= self.warmup_fraction < 1.0):
                raise ContractError(f"warmup_fraction must lie in [0, 1), got {self.warmup_fraction}")
            if self.total_steps < 1:
                raise ContractError(f"total_steps must be >= 1, got {self.total_steps}")


def lr_at(schedule, base_lr, index):
    """Learning rate at epoch-or-step ``index`` for the given schedule."""
    if index < 0:
        raise ContractError(f"schedule index must be non-negative, got {index}")
    if schedule.kind == "constant":
        return float(base_lr)
    if schedule.kind == "multistep":
        passed = sum(1 for m in schedule.milestones if index >= m)
        return float(base_lr * schedule.gamma**passed)
    if schedule.kind == "step":
        return float(base_lr * schedule.gamma ** (index // schedule.step_size))
    if schedule.kind == "cosine":
        frac = min(index, schedule.t_max) / schedule.t_max
        return float(base_lr * (1.0 + math.cos(math.pi * frac)) / 2.0)
    # linear_warmup_decay: ramp 0 -> base over the warmup span, then decay
    # base -> 0 over the remainder; flat zero past the end.
    warmup = schedule.warmup_fraction * schedule.total_steps
    if warmup > 0 and index <= warmup:
        return float(base_lr * index / warmup)
    remain = schedule.total_steps - warmup
    if remain <= 0:
        return 0.0
    return float(base_lr * max(0.0, 1.0 - (index - warmup) / remain))
