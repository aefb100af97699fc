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

import numpy as np

from .tensor import ContractError

OPTIMIZER_KINDS = ("sgd_momentum", "adam", "adamw")
SCHEDULE_KINDS = ("multistep", "step", "cosine", "linear_warmup_decay", "constant")


class Optimizer:
    """Holds per-parameter moment buffers and applies one update rule.

    ``step`` consumes the gradients produced by the latest backward pass
    and clears them, so a missing gradient is always a caller bug and is
    reported as a contract error.
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
        # moment buffers, allocated here in each parameter's shape; only Adam and AdamW use the second
        self._velocity = [np.zeros_like(p.data) for p in self.params]
        self._second = [np.zeros_like(p.data) for p in self.params] if kind != "sgd_momentum" else None

    def step(self):
        for p in self.params:
            if p.grad is None:
                raise ContractError(
                    "optimizer step requires a gradient for every parameter; "
                    "run backward() before step()"
                )
        self.step_count += 1
        if self.kind == "sgd_momentum":
            self._step_sgd()
        else:
            self._step_adam(decoupled=self.kind == "adamw")
        for p in self.params:
            p.grad = None

    def _step_sgd(self):
        for p, v in zip(self.params, self._velocity):
            g = p.grad
            if self.weight_decay:
                g = g + self.weight_decay * p.data
            v *= self.momentum
            v += g
            p.data -= self.lr * v

    def _step_adam(self, decoupled):
        b1, b2 = self.betas
        t = self.step_count
        bias1 = 1.0 - b1**t
        bias2 = 1.0 - b2**t
        for p, m, v in zip(self.params, self._velocity, self._second):
            g = p.grad
            if self.weight_decay and not decoupled:
                g = g + self.weight_decay * p.data
            m *= b1
            m += (1.0 - b1) * g
            v *= b2
            v += (1.0 - b2) * g * g
            if decoupled and self.weight_decay:
                p.data -= self.lr * self.weight_decay * p.data
            p.data -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.eps)


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
