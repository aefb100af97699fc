"""Timing hooks installed on the package from outside.

Two instruments, never both in one process:

* ``StepProbe`` (untraced runs) stamps the start of each training step and
  the bounds of each ``train``/``finetune`` call.  It costs one clock read
  per step.
* ``Tracer`` (traced runs) records a span -- name, start, end, parent -- at
  every layer boundary and keeps them in memory until the run ends.  Work
  the benchmark adds for its own checks runs ``suspended`` and is not
  recorded.

Both replace public functions on the module that calls them, where that
module looks them up (``harness.forward``, ``cli.apply_plan``, ...).  The
one hook below the public API wraps the backward rule (``_bwd``) of each
tensor an op returns, so that op-level backward time is a span of its own.
"""

from __future__ import annotations

import os
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

# (module, attribute, span name): functions wrapped in a traced run
SPAN_FUNCTIONS = (
    ("harness", "forward", "model.forward"),
    ("harness", "total_loss", "regularizers.total_loss"),
    ("harness", "backward", "tensor.backward"),
    ("harness", "penalty_value", "harness.penalty_value"),
    ("harness", "norms_snapshot", "harness.norms_snapshot"),
    ("harness", "evaluate", "harness.evaluate"),
    ("harness", "gen_dataset", "datasets.load"),
    ("harness", "load_csv_dataset", "datasets.load"),
    ("harness", "plan_by_budget", "pruner.plan"),
    ("harness", "plan_by_threshold", "pruner.plan"),
    ("harness", "apply_plan", "pruner.apply_plan"),
    ("cli", "apply_plan", "pruner.apply_plan"),
    ("pruner", "count_macs", "pruner.count_macs"),
    ("cli", "load_config", "config.load"),
    ("config", "load_config", "config.load"),
)
# functions whose first argument is the file they write (or read)
WRITE_FUNCTIONS = (
    ("harness", "write_metrics_csv"),
    ("harness", "write_trajectory_jsonl"),
    ("harness", "write_summary_csv"),
    ("harness", "save_checkpoint"),
    ("harness", "save_plan"),
    ("cli", "save_checkpoint"),
    ("cli", "save_plan"),
)
TRAINING_FUNCTIONS = (("harness", "train", "harness.train"), ("harness", "finetune", "harness.finetune"))
# (module, op): tensor ops wrapped where the calling module looks them up
OPS = (
    ("model", "conv2d"),
    ("model", "matmul"),
    ("model", "transpose"),
    ("model", "bias_add"),
    ("model", "relu"),
    ("model", "avg_pool2x2"),
    ("model", "reshape"),
    ("model", "group_norms"),
    ("harness", "softmax_cross_entropy"),
    ("regularizers", "weighted_sum"),
    ("regularizers", "add"),
    ("regularizers", "scale"),
)
# ops reported one by one; the rest still count toward backward self time
REPORTED_OPS = (
    "conv2d", "matmul", "transpose", "bias_add", "relu", "avg_pool2x2",
    "group_norms", "softmax_cross_entropy", "reshape",
)


def _modules():
    from torqueprune import cli, config, harness, model, pruner, regularizers

    return {
        "cli": cli, "config": config, "harness": harness,
        "model": model, "pruner": pruner, "regularizers": regularizers,
    }


class StepProbe:
    """Step durations and training time, with one clock read per step.

    A step runs from one training forward call to the next; the last step
    of a ``train`` or ``finetune`` call ends when the call returns, so
    epoch-end logging counts toward the step that triggers it.  Steps of
    regularized ``train`` calls are kept apart from the rest (unregularized
    baselines and fine-tunes), which are cheaper per step.
    """

    def __init__(self):
        self.regularized: list[float] = []
        self.unregularized: list[float] = []
        self.train_s = 0.0
        self.samples = 0
        self._steps = None  # the list the open call's steps go to
        self._last = None

    def install(self) -> None:
        harness = _modules()["harness"]
        forward = harness.forward

        def probed_forward(model, batch):
            if self._steps is not None:
                now = perf_counter()
                if self._last is not None:
                    self._steps.append(now - self._last)
                self._last = now
                self.samples += batch.shape[0]
            return forward(model, batch)

        def probed_loop(fn, regularizes: bool):
            def run(cfg, *args, **kwargs):
                penalized = regularizes and cfg.scheme != "none" and cfg.reg_coefficient > 0
                self._steps = self.regularized if penalized else self.unregularized
                self._last = None
                start = perf_counter()
                try:
                    return fn(cfg, *args, **kwargs)
                finally:
                    now = perf_counter()
                    if self._last is not None:
                        self._steps.append(now - self._last)
                    self.train_s += now - start
                    self._steps = None

            return run

        harness.forward = probed_forward
        harness.train = probed_loop(harness.train, True)
        harness.finetune = probed_loop(harness.finetune, False)

    def take(self) -> tuple[str, list]:
        """(population, step times) recorded since the last call.

        The regularized step is the one the tool adds, so those steps are
        returned when there are any; ``prune-budget`` only fine-tunes.
        """
        population = "regularized" if self.regularized else "unregularized"
        steps = self.regularized or self.unregularized
        self.regularized, self.unregularized = [], []
        return population, steps


class Tracer:
    """Spans and counts in memory; ``write`` saves the spans when the run ends."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict[str, float] = {}
        self.training = 0  # depth of open train/finetune calls
        self.paused = False

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = perf_counter()
        self._stack.pop()

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] = self.counts.get(key, 0.0) + amount

    @contextmanager
    def suspended(self):
        """Record no spans or counts inside this block."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    # -- installation --------------------------------------------------

    def install(self) -> None:
        mods = _modules()
        for mod, attr, name in SPAN_FUNCTIONS:
            setattr(mods[mod], attr, self._span(getattr(mods[mod], attr), name))
        for mod, attr in WRITE_FUNCTIONS:
            setattr(mods[mod], attr, self._span(getattr(mods[mod], attr), "harness.write", "harness.write.bytes"))
        harness = mods["harness"]
        harness.load_checkpoint = self._span(harness.load_checkpoint, "harness.load_checkpoint", "harness.load_checkpoint.bytes")
        for mod, attr, name in TRAINING_FUNCTIONS:
            setattr(mods[mod], attr, self._training(getattr(mods[mod], attr), name))
        optimizer = mods["harness"].Optimizer
        optimizer.step = self._span(optimizer.step, "optim.step")
        forward = harness.forward

        def counted_forward(model, batch):
            if self.training:
                self.count("steps")
            return forward(model, batch)

        harness.forward = counted_forward
        for mod, op in OPS:
            setattr(mods[mod], op, self._op(getattr(mods[mod], op), op))

    def _span(self, fn, name: str, bytes_key: str | None = None):
        nid = self.name_id(name)

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(i)
                if bytes_key is not None and os.path.exists(args[0]):
                    self.count(bytes_key, os.path.getsize(args[0]))

        return traced

    def _training(self, fn, name: str):
        traced = self._span(fn, name)

        def run(cfg, *args, **kwargs):
            self.training += 1
            try:
                return traced(cfg, *args, **kwargs)
            finally:
                self.training -= 1

        return run

    def _op(self, fn, op: str):
        fwd_id = self.name_id(f"tensor.{op}.fwd")
        bwd_id = self.name_id(f"tensor.{op}.bwd")

        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            i = self.open(fwd_id)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(i)
            if self.training:
                self.count("nodes")
            bwd_macs = bwd_bytes = 0
            if op == "conv2d":
                x, kernel = args[0], args[1]
                macs, window = _conv_cost(x.shape, kernel.shape, out.shape)
                self.count("conv2d.macs", macs)
                self.count("conv2d.window_bytes", window)
                bwd_macs = macs * (int(x.requires_grad) + int(kernel.requires_grad))
                bwd_bytes = window if x.requires_grad else 0
            rule = out._bwd
            if rule is not None:

                def timed_rule(g):
                    j = self.open(bwd_id)
                    try:
                        return rule(g)
                    finally:
                        self.close(j)
                        if bwd_macs:
                            self.count("conv2d.macs", bwd_macs)
                            self.count("conv2d.window_bytes", bwd_bytes)

                out._bwd = timed_rule
            return out

        return traced

    # -- results ---------------------------------------------------------

    def arrays(self):
        return (
            np.frombuffer(self.name, dtype=np.int32),
            np.frombuffer(self.parent, dtype=np.int32),
            np.frombuffer(self.start, dtype=np.float64),
            np.frombuffer(self.end, dtype=np.float64),
        )

    def write(self, path: str) -> None:
        """Save every span (name id, parent index, start, end) and the name table."""
        name, parent, start, end = self.arrays()
        np.savez(path, name=name, parent=parent, start=start, end=end, names=np.array(self.names))


def _conv_cost(x_shape, k_shape, out_shape) -> tuple[int, int]:
    """Forward MACs and window-tensor bytes of one conv2d call, from shapes alone."""
    n, c = x_shape[0], x_shape[1]
    o, k = k_shape[0], k_shape[2]
    h_out, w_out = out_shape[2], out_shape[3]
    window = n * c * h_out * w_out * k * k
    return window * o, 8 * window


def self_times(parent: np.ndarray, duration: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children."""
    inner = parent >= 0
    children = np.bincount(parent[inner], weights=duration[inner], minlength=len(duration))
    return duration - children


def span_totals(names, name, parent, start, end) -> dict:
    """Per span name: total busy time, total self time and number of spans."""
    duration = end - start
    own = self_times(parent, duration)
    width = len(names)
    busy = np.bincount(name, weights=duration, minlength=width)
    self_total = np.bincount(name, weights=own, minlength=width)
    calls = np.bincount(name, minlength=width)
    return {
        n: {"busy_s": float(busy[i]), "self_s": float(self_total[i]), "calls": int(calls[i])}
        for i, n in enumerate(names)
    }


def layer_metrics(totals: dict, counts: dict, units: int) -> dict:
    """The per-layer metrics of one traced run, per workload unit."""

    def get(name, field):
        return totals.get(name, {}).get(field, 0) / units

    out = {
        "tensor.backward.busy_s": get("tensor.backward", "busy_s"),
        "tensor.backward.self_s": get("tensor.backward", "self_s"),
        "tensor.backward.calls": get("tensor.backward", "calls"),
    }
    for op in REPORTED_OPS:
        out[f"tensor.{op}.fwd_s"] = get(f"tensor.{op}.fwd", "busy_s")
        out[f"tensor.{op}.bwd_s"] = get(f"tensor.{op}.bwd", "busy_s")
        out[f"tensor.{op}.calls"] = get(f"tensor.{op}.fwd", "calls")
    steps = counts.get("steps", 0.0)
    out["tensor.nodes_per_step"] = counts.get("nodes", 0.0) / steps if steps else 0.0
    conv_s = get("tensor.conv2d.fwd", "busy_s") + get("tensor.conv2d.bwd", "busy_s")
    conv_macs = counts.get("conv2d.macs", 0.0) / units
    out["tensor.conv2d.gmacs_per_s"] = conv_macs / conv_s / 1e9 if conv_s else 0.0
    out["tensor.conv2d.window_bytes"] = counts.get("conv2d.window_bytes", 0.0) / units
    out["model.forward.busy_s"] = get("model.forward", "busy_s")
    out["model.forward.self_s"] = get("model.forward", "self_s")
    out["regularizers.total_loss.busy_s"] = get("regularizers.total_loss", "busy_s")
    out["optim.step.busy_s"] = get("optim.step", "busy_s")
    out["optim.step.calls"] = get("optim.step", "calls")
    out["harness.loop.self_s"] = get("harness.train", "self_s") + get("harness.finetune", "self_s")
    for name in ("penalty_value", "norms_snapshot", "evaluate", "finetune", "write", "load_checkpoint"):
        out[f"harness.{name}.busy_s"] = get(f"harness.{name}", "busy_s")
    out["harness.write.bytes"] = counts.get("harness.write.bytes", 0.0) / units
    out["harness.load_checkpoint.bytes"] = counts.get("harness.load_checkpoint.bytes", 0.0) / units
    out["harness.train.calls"] = get("harness.train", "calls")
    plans = totals.get("pruner.plan", {}).get("calls", 0)
    macs_calls = totals.get("pruner.count_macs", {}).get("calls", 0)
    out["pruner.plan.busy_s"] = get("pruner.plan", "busy_s")
    out["pruner.count_macs.calls_per_plan"] = macs_calls / plans if plans else 0.0
    out["pruner.plan.useful_ratio"] = plans / macs_calls if macs_calls else 1.0
    out["pruner.apply_plan.busy_s"] = get("pruner.apply_plan", "busy_s")
    out["datasets.load.busy_s"] = get("datasets.load", "busy_s")
    out["config.load.busy_s"] = get("config.load", "busy_s")
    return out
