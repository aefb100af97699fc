import numpy as np
import pytest

from torqueprune.config import TrainConfig
from torqueprune.harness import train
from torqueprune.model import ConstructionError, build_model, forward, group_norm_values
from torqueprune.pruner import (
    MacsReport,
    PrunePlan,
    UnreachableTargetError,
    accuracy_drop,
    apply_plan,
    count_macs,
    plan_by_budget,
    plan_by_threshold,
    speedup,
)
from torqueprune.tensor import ContractError, Tensor

TOY_CNN = "cnn:3x32x32:conv8k3s1p1-dense10"


def set_group_norms(model, layer, values):
    """Give layer's groups exact norms by zeroing all but one weight entry."""
    w = model.layers[layer].weight.data
    w[:] = 0.0
    flat = w.reshape(w.shape[0], -1)
    flat[:, 0] = values
    model.layers[layer].bias.data[:] = 0.0


# ---------------------------------------------------------------- MACs


def test_dense_macs_is_out_times_in():
    model = build_model("mlp:4-3", seed=0)
    report = count_macs(model)
    assert report.per_layer == ((0, 12),)
    assert report.total == 12


def test_conv_macs_formula():
    model = build_model(TOY_CNN, seed=0)
    report = count_macs(model)
    assert report.per_layer[0] == (0, 8 * 3 * 9 * 32 * 32)
    assert report.per_layer[0][1] == 221184
    assert report.per_layer[1] == (1, 10 * 8 * 32 * 32)
    assert report.total == 221184 + 81920
    # a pooled conv is charged for its full output, before the pool
    pooled = count_macs(build_model("cnn:3x8x8:conv4k3s1p1-pool-dense5", seed=0))
    assert pooled.per_layer == ((0, 4 * 3 * 9 * 8 * 8), (1, 5 * 4 * 4 * 4))


def test_total_is_sum_of_layers():
    model = build_model("mlp:2-5-3", seed=0)
    report = count_macs(model)
    assert report.total == sum(m for _, m in report.per_layer) == 2 * 5 + 5 * 3


def test_speedup_values():
    assert speedup(MacsReport(((0, 100),), 100), MacsReport(((0, 25),), 25)) == 4.0
    model = build_model("mlp:2-4-2", seed=0)
    assert speedup(count_macs(model), count_macs(model)) == 1.0
    with pytest.raises(ContractError):
        speedup(MacsReport(((0, 100),), 100), MacsReport((), 0))


def test_accuracy_drop_sign_convention():
    assert accuracy_drop(0.9344, 0.9366) == pytest.approx(0.0022, abs=1e-12)
    assert accuracy_drop(0.5, 0.5) == 0.0
    assert accuracy_drop(0.735, 0.713) == pytest.approx(-0.022, abs=1e-12)


# ---------------------------------------------------------------- threshold plans


def test_tau_zero_prunes_nothing():
    model = build_model("mlp:2-4-2", seed=0)
    set_group_norms(model, 0, [0.0, 0.0, 1.0, 2.0])
    plan = plan_by_threshold(model, 0.0)
    assert plan.removals == ()
    assert plan.predicted_speedup == 1.0


def test_threshold_strictly_below():
    model = build_model("mlp:2-3", seed=0)
    set_group_norms(model, 0, [0.0, 0.5, 2.0])
    plan = plan_by_threshold(model, 1e-3)
    assert plan.removals == ((0, 0),)
    # tau exactly at a norm does not remove that group
    plan2 = plan_by_threshold(model, 0.5)
    assert plan2.removals == ((0, 0),)
    plan3 = plan_by_threshold(model, 0.5000001)
    assert set(plan3.removals) == {(0, 0), (0, 1)}


def test_never_empty_rule_retains_largest():
    model = build_model("mlp:2-4-2", seed=0)
    set_group_norms(model, 0, [0.1, 0.4, 0.2, 0.3])
    plan = plan_by_threshold(model, 10.0)
    removed0 = {g for l, g in plan.removals if l == 0}
    assert removed0 == {0, 2, 3}  # group 1 has the largest norm and survives
    assert {l for l, _ in plan.removals} == {0}  # the output layer is never planned


def test_never_empty_tie_keeps_highest_index():
    model = build_model("mlp:2-3", seed=0)
    set_group_norms(model, 0, [0.2, 0.2, 0.2])
    plan = plan_by_threshold(model, 1.0)
    assert plan.removals == ((0, 0), (0, 1))


def test_threshold_monotone_in_tau():
    model = build_model("mlp:3-6-4-2", seed=5)
    previous = set()
    for tau in [0.0, 0.1, 0.3, 0.8, 1.5, 5.0, 100.0]:
        current = set(plan_by_threshold(model, tau).removals)
        assert previous <= current
        previous = current


def test_negative_tau_rejected():
    model = build_model("mlp:2-3", seed=0)
    with pytest.raises(ContractError):
        plan_by_threshold(model, -1.0)


# ---------------------------------------------------------------- apply


def test_empty_plan_changes_nothing():
    model = build_model("mlp:2-4-2", seed=0)
    plan = plan_by_threshold(model, 0.0)
    pruned = apply_plan(model, plan)
    assert count_macs(pruned).total == count_macs(model).total
    for a, b in zip(model.layers, pruned.layers):
        assert np.array_equal(a.weight.data, b.weight.data)
        assert np.array_equal(a.bias.data, b.bias.data)
    # original untouched and repeated application stable
    again = apply_plan(pruned, plan_by_threshold(pruned, 0.0))
    assert count_macs(again).total == count_macs(model).total


def test_zeroed_group_removal_preserves_outputs():
    model = build_model("mlp:2-8-8-3", seed=1)
    for g in (1, 4):
        model.layers[0].weight.data[g] = 0.0
        model.layers[0].bias.data[g] = 0.0
    model.layers[1].weight.data[6] = 0.0
    model.layers[1].bias.data[6] = 0.0
    plan = plan_by_threshold(model, 1e-12)
    assert set(plan.removals) == {(0, 1), (0, 4), (1, 6)}
    pruned = apply_plan(model, plan)
    rng = np.random.default_rng(0)
    for _ in range(100):
        x = Tensor(rng.uniform(-2, 2, (7, 2)))
        dense = forward(model, x).data
        small = forward(pruned, x).data
        assert np.max(np.abs(dense - small)) <= 1e-6


def test_conv_filter_removal_halves_macs_terms():
    model = build_model(TOY_CNN, seed=0)
    plan = PrunePlan(removals=((0, 0), (0, 2), (0, 5), (0, 7)), mode="threshold",
                     threshold_used=0.0, predicted_speedup=0.0)
    pruned = apply_plan(model, plan)
    base = count_macs(model)
    after = count_macs(pruned)
    assert after.per_layer[0][1] == base.per_layer[0][1] // 2
    assert after.per_layer[1][1] == base.per_layer[1][1] // 2
    assert pruned.layers[1].in_size == 4 * 32 * 32


def test_conv_to_dense_zeroed_equivalence():
    model = build_model("cnn:2x8x8:conv4k3s1p1-dense5", seed=3)
    model.layers[0].weight.data[2] = 0.0
    model.layers[0].bias.data[2] = 0.0
    plan = plan_by_threshold(model, 1e-12)
    assert plan.removals == ((0, 2),)
    pruned = apply_plan(model, plan)
    assert pruned.layers[1].in_size == 3 * 64
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = Tensor(rng.uniform(-1, 1, (3, 2, 8, 8)))
        assert np.max(np.abs(forward(model, x).data - forward(pruned, x).data)) <= 1e-6


def test_predicted_speedup_matches_applied_macs_exactly():
    model = build_model("cnn:3x16x16:conv6k3s1p1-pool-conv4k3s1p1-dense7", seed=2)
    for tau in [0.0, 0.2, 0.5, 1.0, 3.0]:
        plan = plan_by_threshold(model, tau)
        after = count_macs(apply_plan(model, plan))
        assert plan.predicted_speedup == count_macs(model).total / after.total


def test_invalid_plans_rejected():
    model = build_model("mlp:2-3", seed=0)
    dup = PrunePlan(((0, 1), (0, 1)), "threshold", 0.0, 1.0)
    with pytest.raises(ConstructionError):
        apply_plan(model, dup)
    oob = PrunePlan(((0, 9),), "threshold", 0.0, 1.0)
    with pytest.raises(ConstructionError):
        apply_plan(model, oob)
    empties = PrunePlan(((0, 0), (0, 1), (0, 2)), "threshold", 0.0, 1.0)
    with pytest.raises(ConstructionError):
        apply_plan(model, empties)


def test_output_groups_are_never_planned():
    cfg = TrainConfig(
        arch="mlp:2-16-16-2", dataset="two_spirals", dataset_size=200, epochs=5,
        scheme="exponential_etp", reg_coefficient=1e-3,
    )
    model = train(cfg).model
    for plan in (plan_by_budget(model, 4.0), plan_by_threshold(model, 10.0)):
        assert plan.removals and {l for l, _ in plan.removals} <= {0, 1}
        assert apply_plan(model, plan).layers[-1].group_count == 2
    hand_made = PrunePlan(((0, 3), (2, 1)), "threshold", 0.0, 1.0)
    with pytest.raises(ConstructionError, match="output group"):
        apply_plan(model, hand_made)


def test_apply_leaves_original_untouched():
    model = build_model("mlp:2-4-2", seed=0)
    before = [layer.weight.data.copy() for layer in model.layers]
    plan = plan_by_threshold(model, 100.0)
    pruned = apply_plan(model, plan)
    pruned.layers[0].weight.data[:] = 99.0
    for layer, snapshot in zip(model.layers, before):
        assert np.array_equal(layer.weight.data, snapshot)


# ---------------------------------------------------------------- budget plans


def threshold_removals_oracle(model, tau):
    """Every group strictly below tau outside the last layer, keeping each
    layer's largest-norm group (the highest index among ties) if all fall."""
    removals = []
    for l, norms in enumerate(group_norm_values(model)[:-1]):
        below = [i for i, v in enumerate(norms.tolist()) if v < tau]
        if len(below) == len(norms):
            below.remove(max(below, key=lambda i: (norms[i], i)))
        removals += [(l, i) for i in below]
    return tuple(removals)


def brute_force_budget(model, target):
    """Oracle: try every distinct-norm threshold, realize each plan through
    apply_plan + count_macs, keep the smallest speed-up >= target.  The last
    layer's groups are the model's outputs and are never removed."""
    norms = np.concatenate(group_norm_values(model))
    taus = sorted({0.0, *norms.tolist(), float(np.nextafter(norms.max(), np.inf))})
    base_total = count_macs(model).total
    feasible = []
    for tau in taus:
        removals = threshold_removals_oracle(model, tau)
        plan = PrunePlan(removals, "threshold", tau, 0.0)
        realized = base_total / count_macs(apply_plan(model, plan)).total
        feasible.append((realized, tau, removals))
    hits = [f for f in feasible if f[0] >= target]
    if not hits:
        return None, max(f[0] for f in feasible)
    best_speed = min(h[0] for h in hits)
    best = min(h for h in hits if h[0] == best_speed)  # smallest tau among equals
    return best, None


def test_budget_target_one_is_empty():
    model = build_model("mlp:2-4-2", seed=0)
    plan = plan_by_budget(model, 1.0)
    assert plan.removals == ()
    assert plan.predicted_speedup == 1.0
    assert plan.mode == "budget"


# every coupling kind: conv->conv, conv->dense (with and without a pool
# before the flatten), stride 2, with and without padding
BUDGET_CNNS = (
    "cnn:2x8x8:conv4k3s1p1-pool-conv3k3s2p1-dense3",
    "cnn:1x9x9:conv3k3s2-conv4k3s1p1-pool-dense2",
)


@pytest.mark.parametrize(
    "arch, seed",
    [pytest.param("mlp:3-7-5-2", s, id=str(s)) for s in (0, 1, 2)]
    + [pytest.param(a, s, id=f"cnn{i}-{s}") for i, a in enumerate(BUDGET_CNNS) for s in (0, 1)],
)
@pytest.mark.parametrize("target", [1.2, 1.5, 2.0, 3.0])
def test_budget_matches_brute_force(arch, seed, target):
    model = build_model(arch, seed=seed)
    expected, _ = brute_force_budget(model, target)
    if expected is None:
        with pytest.raises(UnreachableTargetError):
            plan_by_budget(model, target)
        return
    exp_speed, exp_tau, exp_removals = expected
    plan = plan_by_budget(model, target)
    assert plan.removals == exp_removals
    assert plan.threshold_used == exp_tau
    assert plan.predicted_speedup == exp_speed
    assert plan.predicted_speedup >= target


def test_budget_unreachable_reports_max():
    for arch in ("mlp:2-3-2", BUDGET_CNNS[0]):
        model = build_model(arch, seed=0)
        _, max_achievable = brute_force_budget(model, 1e9)
        with pytest.raises(UnreachableTargetError) as err:
            plan_by_budget(model, 1e9)
        assert err.value.max_achievable == pytest.approx(max_achievable, rel=1e-12)
        assert "maximum achievable" in str(err.value)


def test_budget_below_one_rejected():
    model = build_model("mlp:2-3", seed=0)
    with pytest.raises(ContractError):
        plan_by_budget(model, 0.5)


def test_budget_monotone_in_target():
    model = build_model("mlp:3-8-6-2", seed=7)
    previous = None
    for target in [3.0, 2.0, 1.5, 1.0]:  # decreasing target
        current = set(plan_by_budget(model, target).removals)
        if previous is not None:
            assert current <= previous
        previous = current


def test_uniform_norm_layer_budget_boundary():
    model = build_model("mlp:2-4", seed=0)
    set_group_norms(model, 0, [1.0, 1.0, 1.0, 1.0])
    # all-but-one is the ceiling: 8 MACs base, 2 after -> max speed-up 4
    plan = plan_by_budget(model, 4.0)
    assert len(plan.removals) == 3
    assert plan.predicted_speedup == 4.0
    with pytest.raises(UnreachableTargetError):
        plan_by_budget(model, 4.1)
