"""End-to-end acceptance suite.

Ten numbered criteria covering the regularizer arithmetic, the exponential
base rule, gradient fidelity, MACs counting, pruning exactness, the
budget-plan oracle, the two pinned experiments (norm-trajectory comparison
and β sweep), byte determinism, and the accuracy-drop sign convention.
Each criterion prints one PASS/FAIL line to the real stdout (bypassing
pytest capture) so the verdicts are always visible in the terminal log.

Golden values in this file were pinned from the first full run on seeds
{0, 1, 2} and are compared with modest tolerances; the criterion
inequalities themselves are asserted on the freshly computed results.
"""

import math
import sys
import time
from contextlib import contextmanager

import numpy as np
import pytest

from torqueprune import (
    BETA_GRID,
    RegularizerSpec,
    Tensor,
    TrainConfig,
    accuracy_drop,
    apply_plan,
    assign_indexing,
    backward,
    build_model,
    count_macs,
    dataset_for,
    distance_weight,
    forward,
    group_norm_values,
    model_indexings,
    model_penalty,
    penalty,
    plan_by_budget,
    plan_by_threshold,
    resolve_exp_base,
    run_pipeline,
    softmax_cross_entropy,
    speedup,
    summary_metric,
    sweep,
    total_loss,
    train,
    validate_config,
    with_overrides,
)
from torqueprune.model import GroupedLayer

from oracles import finite_diff_grad


@contextmanager
def criterion(line):
    try:
        yield
    except BaseException:
        print(f"{line}: FAIL", file=sys.__stdout__, flush=True)
        raise
    print(f"{line}: PASS", file=sys.__stdout__, flush=True)


# ------------------------------------------------------------ 1. regularizer


def test_criterion_01_regularizer_oracle():
    with criterion("criterion 01 regularizer oracle"):
        t0 = time.perf_counter()
        w = np.zeros((3, 2))
        w[:, 0] = [1.0, 2.0, 3.0]
        layer = GroupedLayer("dense", Tensor(w, requires_grad=True), None)
        idx = assign_indexing(3, "natural")
        exp2 = RegularizerSpec(scheme="exponential_etp", exp_base=2.0)
        linear = RegularizerSpec(scheme="linear_torque")
        assert abs(penalty(exp2, layer, idx).item() - 17.0) <= 1e-9
        assert abs(penalty(linear, layer, idx).item() - 8.0) <= 1e-9
        assert time.perf_counter() - t0 < 1.0


# ------------------------------------------------------- 2. exponential base


def test_criterion_02_exp_base_rule():
    with criterion("criterion 02 exponential base rule"):
        assert abs(resolve_exp_base(256) - math.exp(5.0 / 256.0)) <= 1e-12
        spec = RegularizerSpec(scheme="exponential_etp")
        ratio = distance_weight(spec, 255, group_count=256) / distance_weight(
            spec, 0, group_count=256
        )
        assert abs(ratio - math.exp(5.0 * 255.0 / 256.0)) <= 1e-9


# ------------------------------------------------------- 3. gradient fidelity


GRADCHECK_ARCHS = [
    "mlp:2-4-3",
    "mlp:3-6-2",
    "mlp:4-5-5-3",
    "mlp:2-8-4",
    "mlp:5-3-2",
    "mlp:3-7-7-2",
    "mlp:2-10-3",
    "mlp:4-4-4-4",
    "mlp:6-5-2",
    "mlp:2-12-2",
    "mlp:3-9-4",
    "mlp:5-6-3-2",
    "mlp:2-6-6-3",
    "mlp:4-8-2",
    "mlp:3-5-4-2",
    "mlp:6-6-4",
    "cnn:2x5x5:conv4k3s1p1-dense3",
    "cnn:3x6x6:conv5k3s1p1-pool-dense4",
    "cnn:1x8x8:conv3k3s1p1-pool-dense2",
    "cnn:2x6x6:conv4k5s1p2-dense3",
]


def _model_param_count(model):
    return sum(p.data.size for p in model.parameters())


def test_criterion_03_gradient_fidelity():
    with criterion("criterion 03 gradient fidelity"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(1234)
        assert len(GRADCHECK_ARCHS) == 20
        for k, arch in enumerate(GRADCHECK_ARCHS):
            model = build_model(arch, seed=k)
            assert _model_param_count(model) <= 2000, arch
            idxs = model_indexings(model)
            n_in = int(np.prod(model.input_shape))
            x_data = rng.uniform(-1.0, 1.0, (4, n_in))
            if len(model.input_shape) > 1:
                x_data = x_data.reshape(4, *model.input_shape)
            x = Tensor(x_data)
            labels = rng.integers(0, model.layers[-1].group_count, 4).tolist()
            for scheme in ("linear_torque", "exponential_etp", "l1"):
                spec = RegularizerSpec(scheme=scheme, reg_coefficient=5e-3)

                def build_loss():
                    task = softmax_cross_entropy(forward(model, x), labels)
                    return total_loss(task, spec, model_penalty(spec, model, idxs))

                model.zero_grad()
                backward(build_loss())
                norms = group_norm_values(model)
                for l, layer in enumerate(model.layers):
                    live = norms[l] >= 1e-3  # kinked groups are excluded
                    for param, axis0_is_group in ((layer.weight, True), (layer.bias, True)):
                        if param is None:
                            continue
                        analytic = param.grad.copy()

                        def f(v, _p=param):
                            saved = _p.data
                            _p.data = v.data.reshape(saved.shape)
                            try:
                                return build_loss()
                            finally:
                                _p.data = saved

                        fd = finite_diff_grad(f, param, h=1e-4).data
                        err = np.abs(analytic - fd) / np.maximum(np.abs(fd), 1e-6)
                        assert np.max(err[live]) <= 1e-5, (arch, scheme, l)
        assert time.perf_counter() - t0 < 120.0


# ------------------------------------------------------------------- 4. MACs


def test_criterion_04_macs_toycnn():
    with criterion("criterion 04 MACs on ToyCNN"):
        report = count_macs(build_model("cnn:3x32x32:conv8k3s1p1-dense10"))
        assert dict(report.per_layer) == {0: 221184, 1: 81920}  # conv, dense
        assert report.total == 303104


# ------------------------------------------------------- 5. pruning exactness


def test_criterion_05_pruning_exactness():
    with criterion("criterion 05 pruning exactness"):
        cfg = TrainConfig(
            arch="mlp:2-16-16-2",
            dataset="two_spirals",
            dataset_size=240,
            epochs=12,
            batch_size=32,
            lr=0.05,
            seed=0,
        )
        validate_config(cfg)
        model = train(cfg).model
        zeroed = [(0, 3), (0, 11), (1, 5)]
        for l, g in zeroed:
            model.layers[l].weight.data[g] = 0.0
            model.layers[l].bias.data[g] = 0.0
        plan = plan_by_threshold(model, 1e-12)
        assert sorted(plan.removals) == sorted(zeroed)
        pruned = apply_plan(model, plan)
        xs = np.random.default_rng(7).uniform(-2.5, 2.5, (100, 2))
        dense_out = forward(model, Tensor(xs)).data
        pruned_out = forward(pruned, Tensor(xs)).data
        assert np.max(np.abs(dense_out - pruned_out)) <= 1e-6


# ----------------------------------------------------- 6. budget-plan oracle


def _exhaustive_budget(model, target):
    """Try every distinct-norm threshold; realize each plan through
    apply_plan + count_macs; return the one with the smallest achieved
    speed-up >= target (smallest threshold among equals)."""
    norms = np.concatenate(group_norm_values(model))
    taus = sorted({0.0, *norms.tolist(), float(np.nextafter(norms.max(), np.inf))})
    base_total = count_macs(model).total
    hits = []
    for tau in taus:
        plan = plan_by_threshold(model, tau)
        realized = base_total / count_macs(apply_plan(model, plan)).total
        if realized >= target:
            hits.append((realized, tau, plan.removals))
    assert hits, f"target {target} unreachable in oracle"
    best_speed = min(h[0] for h in hits)
    return min(h for h in hits if h[0] == best_speed)


def test_criterion_06_budget_oracle():
    with criterion("criterion 06 budget-plan oracle"):
        archs = ["mlp:3-7-5-2", "mlp:2-24-6-2", "cnn:2x8x8:conv6k3s1p1-pool-dense3"]
        for seed, arch in enumerate(archs):
            model = build_model(arch, seed=seed)
            assert model.total_groups() <= 64
            for target in (1.5, 2.0, 4.0):
                realized, _tau, removals = _exhaustive_budget(model, target)
                plan = plan_by_budget(model, target)
                assert sorted(plan.removals) == sorted(removals), (arch, target)
                assert plan.predicted_speedup == pytest.approx(realized, rel=1e-12)


# ------------------------------------------- 7. norm-trajectory experiment


TAU = 1e-3

# Pinned from the first full run (SGD momentum 0.9, lr 0.044, constant
# schedule, batch 32, natural indexing, output layer unregularized).
COMPARISON_GOLDEN = {
    ("exponential_etp", 0): dict(base=0.98, pruned=0.984, drop=0.004, speedup=2.1187926, dead=41, maxdist=9.711421965e-04),
    ("linear_torque", 0): dict(base=0.98, pruned=0.968, drop=-0.012, speedup=1.39353186, dead=20, maxdist=1.623833373e-03),
    ("exponential_etp", 1): dict(base=0.988, pruned=0.984, drop=-0.004, speedup=2.206896552, dead=42, maxdist=1.206336711e-02),
    ("linear_torque", 1): dict(base=0.988, pruned=0.992, drop=0.004, speedup=1.448252912, dead=22, maxdist=2.407766038e-03),
    ("exponential_etp", 2): dict(base=0.988, pruned=0.976, drop=-0.012, speedup=2.698078115, dead=50, maxdist=3.621922309e-04),
    ("linear_torque", 2): dict(base=0.988, pruned=0.968, drop=-0.02, speedup=1.722882027, dead=31, maxdist=3.073984505e-03),
}


def _comparison_config(seed, scheme="none", beta=0.0):
    cfg = TrainConfig(
        arch="mlp:2-64-64-2",
        dataset="two_spirals",
        dataset_size=1000,
        epochs=300,
        batch_size=32,
        optimizer="sgd_momentum",
        lr=0.044,
        momentum=0.9,
        schedule="constant",
        scheme=scheme,
        reg_coefficient=beta,
        prune_threshold=TAU,
        seed=seed,
    )
    validate_config(cfg)
    return cfg


def _maxdist_norm(model, indexings):
    """Norm of the first group attaining the model-wide maximum distance."""
    norms = group_norm_values(model)
    best = None
    for l, idx in enumerate(indexings):
        for g in range(model.layers[l].group_count):
            d = idx.distance(g)
            if best is None or d > best[0]:
                best = (d, float(norms[l][g]))
    return best[1]


def test_criterion_07_scheme_comparison():
    with criterion("criterion 07 scheme comparison"):
        t0 = time.perf_counter()
        results = {}
        for seed in (0, 1, 2):
            data = dataset_for(_comparison_config(seed))
            base = train(_comparison_config(seed), dataset=data)
            base_acc = summary_metric(base.model, data)
            for scheme in ("exponential_etp", "linear_torque"):
                reg = train(_comparison_config(seed, scheme, 1e-3), dataset=data)
                reg_acc = summary_metric(reg.model, data)
                plan = plan_by_threshold(reg.model, TAU)
                pruned = apply_plan(reg.model, plan)
                pruned_acc = summary_metric(pruned, data)
                results[(scheme, seed)] = dict(
                    base=base_acc,
                    reg=reg_acc,
                    pruned=pruned_acc,
                    drop=accuracy_drop(base_acc, pruned_acc),
                    speedup=speedup(count_macs(reg.model), count_macs(pruned)),
                    dead=sum(int((n < TAU).sum()) for n in group_norm_values(reg.model)),
                    hidden_dead=sum(
                        int((n < TAU).sum()) for n in group_norm_values(reg.model)[:-1]
                    ),
                    maxdist=_maxdist_norm(reg.model, reg.indexings),
                )

        etp = [results[("exponential_etp", s)] for s in (0, 1, 2)]
        torque = [results[("linear_torque", s)] for s in (0, 1, 2)]

        # (a) final max-distance-group norm: exponential <= linear in >= 2 of 3
        assert sum(e["maxdist"] <= t["maxdist"] for e, t in zip(etp, torque)) >= 2
        # (b) count of groups with norm < 1e-3: exponential >= linear in >= 2 of 3
        assert sum(e["dead"] >= t["dead"] for e, t in zip(etp, torque)) >= 2
        # (c) pruned accuracy drop <= 2 points at the tau=1e-3 speed-up, all seeds
        assert all(e["drop"] >= -0.02 - 1e-12 for e in etp)

        # companion properties pinned from the same run: the regularized model
        # stays within 2 points of its unregularized twin, at least a quarter
        # of the 128 hidden groups reach zero, and the exponential scheme's
        # speed-up beats the linear one per seed.
        assert all(e["reg"] >= e["base"] - 0.02 for e in etp)
        assert all(e["hidden_dead"] >= 32 for e in etp)
        assert all(e["speedup"] >= t["speedup"] for e, t in zip(etp, torque))

        for key, want in COMPARISON_GOLDEN.items():
            got = results[key]
            assert got["base"] == pytest.approx(want["base"], abs=0.012), key
            assert got["pruned"] == pytest.approx(want["pruned"], abs=0.012), key
            assert got["drop"] == pytest.approx(want["drop"], abs=0.024), key
            assert got["speedup"] == pytest.approx(want["speedup"], rel=0.15), key
            assert abs(got["dead"] - want["dead"]) <= 5, key
            assert 0.2 <= got["maxdist"] / want["maxdist"] <= 5.0, key
        assert time.perf_counter() - t0 < 600.0


# --------------------------------------------------------- 8. β-grid sweep


SWEEP_GOLDEN_SPEEDUPS = {
    1e-06: 1.0,
    5e-06: 1.0809736711,
    1e-05: 1.0476649013,
    5e-05: 1.8103161398,
    1e-04: 1.8791018998,
    5e-04: 2.7422810334,
    1e-03: 2.1187925998,
}


def test_criterion_08_coefficient_sweep(tmp_path):
    with criterion("criterion 08 coefficient sweep"):
        scipy_stats = pytest.importorskip("scipy.stats")
        cfg = with_overrides(
            _comparison_config(0, scheme="exponential_etp", beta=1e-3), out_dir=str(tmp_path)
        )
        rows = sweep(cfg, list(BETA_GRID))
        assert len(rows) == 7
        assert all(r["status"] == "ok" for r in rows)
        csv_rows = [
            line
            for line in (tmp_path / "sweep.csv").read_text().splitlines()
            if line and not line.startswith("#")
        ]
        assert len(csv_rows) == 1 + 7  # header + one row per β
        betas = [r["beta"] for r in rows]
        speeds = [r["speedup"] for r in rows]
        rho = scipy_stats.spearmanr(betas, speeds).statistic
        assert rho > 0.0
        for beta, want in SWEEP_GOLDEN_SPEEDUPS.items():
            got = next(r["speedup"] for r in rows if r["beta"] == beta)
            assert got == pytest.approx(want, rel=0.15), beta


# ---------------------------------------------------------- 9. determinism


def test_criterion_09_byte_determinism(tmp_path):
    with criterion("criterion 09 byte determinism"):
        cfg = TrainConfig(
            arch="mlp:2-8-8-2",
            dataset="two_spirals",
            dataset_size=160,
            epochs=6,
            batch_size=32,
            lr=0.05,
            scheme="exponential_etp",
            reg_coefficient=1e-3,
            log_norms_every=2,
            finetune_epochs=2,
            seed=0,
            out_dir=str(tmp_path / "a"),
        )
        validate_config(cfg)
        run_pipeline(cfg)
        run_pipeline(with_overrides(cfg, out_dir=str(tmp_path / "b")))
        names_a = sorted(p.name for p in (tmp_path / "a").iterdir())
        names_b = sorted(p.name for p in (tmp_path / "b").iterdir())
        assert names_a == names_b and names_a
        for name in names_a:
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes(), name


# ------------------------------------------------------ 10. sign convention


def test_criterion_10_accuracy_drop_sign():
    with criterion("criterion 10 accuracy-drop sign"):
        assert accuracy_drop(93.44, 93.66) == pytest.approx(0.22, abs=1e-9)
        assert accuracy_drop(73.50, 71.30) == pytest.approx(-2.20, abs=1e-9)
