"""Synthetic desk-scale datasets standing in for full-size benchmarks.

Every generator is a pure function of (parameters, seed) and returns a
fixed train/test split with features standardized using train statistics
only, so any two runs with the same config see byte-identical data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import ConfigError


@dataclass
class Dataset:
    name: str
    task: str  # "classification" | "regression"
    train_x: np.ndarray
    train_y: np.ndarray
    test_x: np.ndarray
    test_y: np.ndarray
    feature_mean: np.ndarray
    feature_std: np.ndarray
    n_classes: int = 0

    @property
    def input_dim(self) -> int:
        return self.train_x.shape[1]


def _split_standardize(name, task, x, y, train_size, rng, n_classes=0):
    order = rng.permutation(x.shape[0])
    x, y = x[order], y[order]
    train_x, test_x = x[:train_size], x[train_size:]
    train_y, test_y = y[:train_size], y[train_size:]
    mean = train_x.mean(axis=0)
    std = train_x.std(axis=0)
    std = np.where(std < 1e-12, 1.0, std)
    return Dataset(
        name=name,
        task=task,
        train_x=(train_x - mean) / std,
        train_y=train_y,
        test_x=(test_x - mean) / std,
        test_y=test_y,
        feature_mean=mean,
        feature_std=std,
        n_classes=n_classes,
    )


def two_spirals(size=1000, noise=0.2, seed=0):
    """Two interleaved planar spirals, one per class."""
    rng = np.random.default_rng([seed, 1])
    total = size + max(1, size // 4)
    half = (total + 1) // 2
    t = rng.uniform(0.25, 1.0, half) * 3.0 * np.pi
    arm = np.stack([t * np.cos(t), t * np.sin(t)], axis=1) / np.pi
    x = np.concatenate([arm, -arm])[:total]
    x = x + rng.normal(0.0, noise, x.shape)
    y = np.concatenate([np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)])[:total]
    return _split_standardize("two_spirals", "classification", x, y, size, rng, n_classes=2)


def gaussian_blobs(size=1000, noise=1.0, seed=0, classes=4, separation=5.0):
    """Isotropic Gaussian clusters on a circle of radius ``separation`` stds.

    ``noise`` is the per-axis cluster standard deviation; with 4 classes and
    separation 5 the nearest centers sit about 7 stds apart, so the task is
    nearly noise-free yet not linearly trivial after standardization.
    """
    if classes < 2:
        raise ConfigError(f"gaussian_blobs needs >= 2 classes, got {classes}")
    rng = np.random.default_rng([seed, 2])
    total = size + max(1, size // 4)
    radius = separation * noise
    angles = 2.0 * np.pi * np.arange(classes) / classes
    centers = radius * np.stack([np.cos(angles), np.sin(angles)], axis=1)
    y = rng.integers(0, classes, total)
    x = centers[y] + rng.normal(0.0, noise, (total, 2))
    return _split_standardize("gaussian_blobs", "classification", x, y.astype(np.int64), size, rng, n_classes=classes)


def checkerboard_2d(size=1000, noise=0.0, seed=0):
    """Unit-cell checkerboard over [-2, 2)^2; noise jitters points after labeling."""
    rng = np.random.default_rng([seed, 3])
    total = size + max(1, size // 4)
    x = rng.uniform(-2.0, 2.0, (total, 2))
    y = ((np.floor(x[:, 0]) + np.floor(x[:, 1])) % 2).astype(np.int64)
    x = x + rng.normal(0.0, noise, x.shape)
    return _split_standardize("checkerboard_2d", "classification", x, y, size, rng, n_classes=2)


def sine_regression(size=1000, noise=0.1, seed=0):
    """Scalar regression: target = sin(2*pi*x) + Gaussian noise."""
    rng = np.random.default_rng([seed, 4])
    total = size + max(1, size // 4)
    x = rng.uniform(0.0, 1.0, (total, 1))
    y = np.sin(2.0 * np.pi * x) + rng.normal(0.0, noise, (total, 1))
    return _split_standardize("sine_regression", "regression", x, y, size, rng)


_GENERATORS = {
    "two_spirals": two_spirals,
    "gaussian_blobs": gaussian_blobs,
    "checkerboard_2d": checkerboard_2d,
    "sine_regression": sine_regression,
}
GENERATOR_NAMES = tuple(_GENERATORS)


def gen_dataset(name, size=1000, noise=None, seed=0, classes=4, separation=5.0) -> Dataset:
    """Build a named synthetic dataset; deterministic in its arguments."""
    if name not in _GENERATORS:
        raise ConfigError(f"unknown dataset generator {name!r}; expected one of {GENERATOR_NAMES}")
    kwargs = {"size": size, "seed": seed}
    if noise is not None:
        kwargs["noise"] = noise
    if name == "gaussian_blobs":
        kwargs.update(classes=classes, separation=separation)
    return _GENERATORS[name](**kwargs)


def load_csv_dataset(path, task, size=None, seed=0) -> Dataset:
    """Load features-plus-last-column-label rows from a CSV file.

    The file carries no header; ``size`` rows go to train (default 80%),
    the rest to test, after a seeded shuffle.  A config always passes its
    ``dataset_size`` (default 1000), so the 80% default serves only direct
    calls, and a CSV config needs a ``dataset_size`` below its row count.
    """
    try:
        raw = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2, encoding="utf-8-sig")
    except OSError as exc:
        raise ConfigError(f"cannot read dataset csv {path!r}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"malformed dataset csv {path!r}: {exc}") from None
    if raw.shape[1] < 2:
        raise ConfigError(f"dataset csv {path!r} needs >= 2 columns (features, label)")
    if not np.isfinite(raw).all():
        raise ConfigError(f"dataset csv {path!r} has a non-finite value (nan or inf)")
    x, y = raw[:, :-1], raw[:, -1]
    if task == "classification":
        labels = y.astype(np.int64)
        if not np.array_equal(labels.astype(np.float64), y):
            raise ConfigError(f"dataset csv {path!r} has non-integer labels for a classification task")
        if labels.size and labels.min() < 0:
            raise ConfigError(f"dataset csv {path!r} has a negative label ({int(labels.min())})")
        y = labels
        n_classes = int(y.max()) + 1 if y.size else 0
    else:
        y = y.reshape(-1, 1)
        n_classes = 0
    train_size = size if size is not None else max(1, int(0.8 * raw.shape[0]))
    if not 1 <= train_size < raw.shape[0]:
        raise ConfigError(
            f"dataset csv {path!r} has {raw.shape[0]} rows; cannot take {train_size} for train"
        )
    rng = np.random.default_rng([seed, 5])
    return _split_standardize(f"csv:{path}", task, x, y, train_size, rng, n_classes=n_classes)
