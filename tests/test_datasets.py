import numpy as np
import pytest

from torqueprune.config import ConfigError, parse_config
from torqueprune.datasets import (
    checkerboard_2d,
    gaussian_blobs,
    gen_dataset,
    load_csv_dataset,
    sine_regression,
    two_spirals,
)
from torqueprune.harness import evaluate_dataset, train


def bits(ds):
    return tuple(a.tobytes() for a in (ds.train_x, ds.train_y, ds.test_x, ds.test_y))


def test_two_spirals_bit_determinism():
    a = two_spirals(1000, seed=0)
    b = two_spirals(1000, seed=0)
    assert bits(a) == bits(b)
    c = two_spirals(1000, seed=1)
    assert bits(a) != bits(c)


def test_split_sizes():
    ds = two_spirals(1000, seed=0)
    assert ds.train_x.shape == (1000, 2)
    assert ds.test_x.shape == (250, 2)
    assert ds.train_y.shape == (1000,)
    small = two_spirals(5, seed=0)
    assert small.train_x.shape[0] == 5
    assert small.test_x.shape[0] == 1


def test_standardized_with_train_stats():
    ds = two_spirals(800, seed=3)
    assert np.allclose(ds.train_x.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(ds.train_x.std(axis=0), 1.0, atol=1e-12)
    # test standardized with the *train* statistics, so not exactly centered
    assert not np.allclose(ds.test_x.mean(axis=0), 0.0, atol=1e-6)


def test_two_spirals_classes():
    ds = two_spirals(500, seed=0)
    assert set(np.unique(ds.train_y)) == {0, 1}
    counts = np.bincount(ds.train_y)
    assert counts.min() >= 200  # near-balanced


def test_blobs_labels_and_determinism():
    ds = gaussian_blobs(600, seed=2, classes=4, separation=5.0)
    assert ds.n_classes == 4
    assert set(np.unique(ds.train_y)) == {0, 1, 2, 3}
    assert bits(ds) == bits(gaussian_blobs(600, seed=2, classes=4, separation=5.0))


def test_blobs_bad_classes():
    with pytest.raises(ConfigError):
        gaussian_blobs(100, classes=1)


def test_blobs_sanity_train_reaches_99_percent():
    # well-separated clusters must be easy for a small MLP
    cfg = parse_config(
        """
        arch = mlp:2-32-4
        dataset = gaussian_blobs
        dataset_size = 1000
        classes = 4
        separation = 5.0
        epochs = 50
        batch_size = 32
        optimizer = adam
        lr = 0.01
        """
    )
    result = train(cfg)
    assert evaluate_dataset(result.model, result.dataset) >= 0.99


def test_checkerboard_labels_match_cell_parity():
    ds = checkerboard_2d(400, noise=0.0, seed=1)
    raw = ds.train_x * ds.feature_std + ds.feature_mean
    parity = ((np.floor(raw[:, 0]) + np.floor(raw[:, 1])) % 2).astype(np.int64)
    assert np.array_equal(parity, ds.train_y)


def test_sine_regression_noise_floor():
    noise = 0.1
    ds = sine_regression(1000, noise=noise, seed=0)
    raw = ds.train_x * ds.feature_std + ds.feature_mean
    residual = ds.train_y - np.sin(2.0 * np.pi * raw)
    mse = float((residual**2).mean())
    assert mse == pytest.approx(noise**2, rel=0.25)
    assert ds.task == "regression"
    assert ds.train_y.shape == (1000, 1)


def test_gen_dataset_dispatch_and_unknown():
    ds = gen_dataset("sine_regression", size=50, seed=0)
    assert ds.name == "sine_regression"
    with pytest.raises(ConfigError) as err:
        gen_dataset("mnist")
    assert "mnist" in str(err.value)


def test_gen_dataset_default_noise_per_generator():
    # omitting noise must fall back to each generator's own default
    assert bits(gen_dataset("two_spirals", size=100, seed=0)) == bits(two_spirals(100, noise=0.2, seed=0))


def test_csv_roundtrip_classification(tmp_path):
    path = tmp_path / "data.csv"
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, (40, 3))
    y = rng.integers(0, 2, 40)
    np.savetxt(path, np.column_stack([x, y]), delimiter=",")
    ds = load_csv_dataset(str(path), "classification", size=30, seed=0)
    assert ds.train_x.shape == (30, 3)
    assert ds.test_x.shape == (10, 3)
    assert ds.train_y.dtype == np.int64
    assert ds.n_classes == 2


def test_csv_roundtrip_regression(tmp_path):
    path = tmp_path / "data.csv"
    np.savetxt(path, np.column_stack([np.arange(10.0), np.arange(10.0) * 2]), delimiter=",")
    ds = load_csv_dataset(str(path), "regression", size=8, seed=0)
    assert ds.train_y.shape == (8, 1)
    assert ds.task == "regression"


def test_csv_with_byte_order_mark_loads_like_without(tmp_path):
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text("0.5,1\n0.25,0\n-1.5,1\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    a = load_csv_dataset(str(plain), "classification", size=2, seed=0)
    b = load_csv_dataset(str(marked), "classification", size=2, seed=0)
    assert bits(a) == bits(b)


def test_csv_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_csv_dataset(str(tmp_path / "missing.csv"), "classification")
    one_col = tmp_path / "one.csv"
    one_col.write_text("1\n2\n3\n")
    with pytest.raises(ConfigError):
        load_csv_dataset(str(one_col), "classification")
    frac = tmp_path / "frac.csv"
    frac.write_text("0.1,0.5\n0.2,0.7\n0.3,1.0\n")
    with pytest.raises(ConfigError):
        load_csv_dataset(str(frac), "classification", size=2)
    tiny = tmp_path / "tiny.csv"
    tiny.write_text("0.1,1\n0.2,0\n")
    with pytest.raises(ConfigError):
        load_csv_dataset(str(tiny), "classification", size=5)
