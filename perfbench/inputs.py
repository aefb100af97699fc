"""Seeded inputs for the benchmark workloads.

Every generator here is a pure function of its arguments, so the same seed
writes the same bytes.  The program under test receives only these files
(plus the configs shipped in ``configs/``); the benchmark never hands it an
in-memory object.

A workload seed selects one of ``VARIANTS`` input variants of the
generated workloads.  The output checks compare each run against rows
recorded from the seed commit, and a finite set of variants is what makes
such a reference possible.  ``spirals-pipeline`` runs the shipped config
as it is, so its inputs do not depend on the seed.
"""

from __future__ import annotations

import json
import os

import numpy as np

VARIANTS = 4

# cnn-pipeline: two conv+pool stages and a dense head over 3x16x16 images
CNN_SHAPE = (3, 16, 16)
CNN_CLASSES = 4
CNN_ROWS = 480  # 320 train + 160 test
CNN_TRAIN = 320
CNN_ARCH = "cnn:3x16x16:conv8k3s1p1-pool-conv16k3s1p1-pool-dense4"

# prune-budget: one wide MLP (1,538 groups) pruned at a ladder of reachable
# MACs speed-up targets, each pruned model then fine-tuned
PRUNE_MLP_WIDTHS = (8,) + (128,) * 12 + (2,)
PRUNE_MLP_ARCH = "mlp:" + "-".join(str(w) for w in PRUNE_MLP_WIDTHS)
PRUNE_MLP_TARGETS = (1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 8.0)
PRUNE_FINETUNE_ROWS = 96  # 64 train + 32 test


SEEDED_WORKLOADS = ("cnn-pipeline", "prune-budget")


def variant(workload: str, seed: int) -> int:
    return seed % VARIANTS if workload in SEEDED_WORKLOADS else 0


def write_class_csv(path, seed: int, shape, rows: int, classes: int, noise: float, label_noise: float) -> None:
    """Headerless feature rows plus an integer label, one class prototype each.

    Image shapes (``C, H, W``) get blocky prototypes, so neighbouring pixels
    correlate the way convolution expects.  A share of labels is redrawn at
    random, so no model reaches zero error.
    """
    rng = np.random.default_rng([seed, 101])
    if len(shape) == 3:
        c, h, w = shape
        coarse = rng.normal(0.0, 1.0, (classes, c, h // 4, w // 4))
        protos = np.repeat(np.repeat(coarse, 4, axis=2), 4, axis=3).reshape(classes, -1)
    else:
        protos = rng.normal(0.0, 1.0, (classes, int(np.prod(shape))))
    labels = rng.integers(0, classes, rows)
    x = protos[labels] + noise * rng.normal(0.0, 1.0, (rows, protos.shape[1]))
    flip = rng.random(rows) < label_noise
    labels[flip] = rng.integers(0, classes, int(flip.sum()))
    lines = [",".join(f"{v:.6f}" for v in row) + f",{lab}" for row, lab in zip(x, labels)]
    _write_text(path, "\n".join(lines) + "\n")


def decaying_checkpoint(widths, seed: int) -> dict:
    """A ``torqueprune-model-v1`` MLP checkpoint whose group norms decay with distance.

    ``widths`` is the input width followed by the dense layer sizes.  Group
    ``g`` of a hidden layer with ``G`` groups has norm about
    ``2.5 exp(-4 g / G)``, so far groups are pruned first, as after
    distance-weighted training.  Output-layer groups keep norm 1 and are
    never the cheapest to remove.
    """
    rng = np.random.default_rng([seed, 202])
    layers = []
    for pos, (fan_in, out) in enumerate(zip(widths, widths[1:])):
        last = pos == len(widths) - 2
        weight = rng.normal(0.0, 1.0, (out, fan_in))
        bias = rng.normal(0.0, 0.1, out)
        scale = np.ones(out) if last else 2.5 * np.exp(-4.0 * np.arange(out) / out) * rng.uniform(0.9, 1.1, out)
        norms = np.sqrt((weight * weight).sum(axis=1) + bias * bias)
        weight *= (scale / norms)[:, None]
        bias *= scale / norms
        layers.append(
            {
                "kind": "dense",
                "weight": {"shape": [out, fan_in], "data": weight.reshape(-1).tolist()},
                "bias": {"shape": [out], "data": bias.tolist()},
                "stride": 1,
                "padding": 0,
                "activation": "none" if last else "relu",
                "pool": False,
            }
        )
    return {"format": "torqueprune-model-v1", "input_shape": [widths[0]], "layers": layers}


def write_config(path, entries: dict) -> None:
    _write_text(path, "".join(f"{k} = {v}\n" for k, v in entries.items()))


def cnn_pipeline_inputs(directory: str, seed: int) -> dict:
    """The image CSV and the pipeline config that reads it."""
    v = variant("cnn-pipeline", seed)
    csv_path = os.path.join(directory, "images.csv")
    write_class_csv(csv_path, v, CNN_SHAPE, CNN_ROWS, CNN_CLASSES, noise=3.0, label_noise=0.3)
    conf = os.path.join(directory, "cnn_pipeline.conf")
    write_config(
        conf,
        {
            "arch": CNN_ARCH,
            "dataset": f"csv:{csv_path}",
            "dataset_size": CNN_TRAIN,
            "epochs": 3,
            "batch_size": 16,
            "optimizer": "sgd_momentum",
            "lr": 0.02,
            "momentum": 0.9,
            "scheme": "exponential_etp",
            "reg_coefficient": 1e-3,
            "prune_mode": "budget",
            "prune_target": 1.5,
            "seed": v,
            "out_dir": os.path.join(directory, "out"),
        },
    )
    return {"config": conf}


def prune_budget_inputs(directory: str, seed: int) -> dict:
    """The checkpoint, its fine-tuning CSV and one prune config per ladder rung."""
    v = variant("prune-budget", seed)
    ckpt = os.path.join(directory, "mlp.json")
    _write_text(ckpt, json.dumps(decaying_checkpoint(PRUNE_MLP_WIDTHS, v)) + "\n")
    csv_path = os.path.join(directory, "mlp_finetune.csv")
    write_class_csv(csv_path, v + 17, (8,), PRUNE_FINETUNE_ROWS, 2, noise=1.0, label_noise=0.1)
    rungs = []
    for target in PRUNE_MLP_TARGETS:
        name = f"mlp_x{target:g}"
        conf = os.path.join(directory, f"{name}.conf")
        write_config(
            conf,
            {
                "arch": PRUNE_MLP_ARCH,
                "dataset": f"csv:{csv_path}",
                "dataset_size": 64,
                "batch_size": 16,
                "optimizer": "sgd_momentum",
                "lr": 0.01,
                "momentum": 0.9,
                "prune_mode": "budget",
                "prune_target": target,
                "finetune_epochs": 1,
                "seed": v,
                "out_dir": os.path.join(directory, f"out_{name}"),
            },
        )
        rungs.append({"name": name, "config": conf, "checkpoint": ckpt})
    return {"rungs": rungs}


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
