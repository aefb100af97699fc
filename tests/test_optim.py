import math

import numpy as np
import pytest

from torqueprune.optim import LrSchedule, Optimizer, lr_at
from torqueprune.tensor import ContractError, Tensor

from oracles import adam_reference, sgd_reference


def param(value):
    t = Tensor(np.asarray(value, dtype=np.float64), requires_grad=True)
    return t


def set_grad(t, g):
    t.grad[...] = np.asarray(g, dtype=np.float64).reshape(t.data.shape)


# ---------------------------------------------------------------- sgd


def test_plain_sgd_single_step():
    w = param([1.0])
    opt = Optimizer([w], kind="sgd_momentum", lr=0.1, momentum=0.0)
    set_grad(w, [2.0])
    opt.step()
    assert w.data[0] == pytest.approx(0.8, abs=1e-15)


def test_momentum_two_step_recursion():
    # v1 = 1, w = -1; v2 = 0.9*1 + 1 = 1.9, w = -2.9
    w = param([0.0])
    opt = Optimizer([w], kind="sgd_momentum", lr=1.0, momentum=0.9)
    set_grad(w, [1.0])
    opt.step()
    assert w.data[0] == pytest.approx(-1.0, abs=1e-15)
    set_grad(w, [1.0])
    opt.step()
    assert w.data[0] == pytest.approx(-2.9, abs=1e-15)


def test_sgd_weight_decay_folded_into_gradient():
    w = param([2.0])
    opt = Optimizer([w], kind="sgd_momentum", lr=0.5, weight_decay=0.1)
    set_grad(w, [0.0])
    opt.step()
    # g_eff = 0 + 0.1*2 = 0.2; w = 2 - 0.5*0.2 = 1.9
    assert w.data[0] == pytest.approx(1.9, abs=1e-15)


def test_replaced_grad_is_contract_error():
    w = param([1.0])
    opt = Optimizer([w], kind="sgd_momentum", lr=0.1)
    w.zero_grad()
    with pytest.raises(ContractError):
        opt.step()
    w.grad = np.ones(1)
    with pytest.raises(ContractError):
        opt.step()
    assert w.data[0] == 1.0 and opt.step_count == 0


def test_grads_cleared_after_step():
    w = param([1.0])
    opt = Optimizer([w], kind="sgd_momentum", lr=0.1)
    view = w.grad
    set_grad(w, [1.0])
    opt.step()
    assert w.grad is view and w.grad.tolist() == [0.0]


def test_step_count_increments_by_one():
    w = param([1.0])
    opt = Optimizer([w], kind="adam", lr=0.1)
    for expected in (1, 2, 3):
        set_grad(w, [1.0])
        opt.step()
        assert opt.step_count == expected


# ---------------------------------------------------------------- adam / adamw


def test_adam_zero_grad_leaves_weights_unchanged():
    w = param([3.0, -1.0])
    opt = Optimizer([w], kind="adam", lr=0.1)
    before = w.data.copy()
    for _ in range(5):
        set_grad(w, [0.0, 0.0])
        opt.step()
    assert np.array_equal(w.data, before)


def test_adam_first_step_moves_by_about_lr():
    # bias correction makes |update| ~ lr on step 1 regardless of grad scale
    w = param([0.0])
    opt = Optimizer([w], kind="adam", lr=0.01)
    set_grad(w, [123.0])
    opt.step()
    assert w.data[0] == pytest.approx(-0.01, rel=1e-6)


def test_adamw_decoupled_decay_shrinks_even_with_zero_grad_direction():
    w = param([10.0])
    opt = Optimizer([w], kind="adamw", lr=0.1, weight_decay=0.5)
    set_grad(w, [0.0])
    opt.step()
    # decay term: w -= lr*wd*w = 0.1*0.5*10 = 0.5; adam term is 0
    assert w.data[0] == pytest.approx(9.5, abs=1e-15)


def test_adam_vs_adamw_differ_only_through_decay():
    wa = param([1.0])
    ww = param([1.0])
    oa = Optimizer([wa], kind="adam", lr=0.1, weight_decay=0.0)
    ow = Optimizer([ww], kind="adamw", lr=0.1, weight_decay=0.0)
    for _ in range(3):
        set_grad(wa, [0.3])
        set_grad(ww, [0.3])
        oa.step()
        ow.step()
    assert np.array_equal(wa.data, ww.data)


def test_zero_lr_is_bit_identical():
    rng = np.random.default_rng(0)
    for kind in ("sgd_momentum", "adam", "adamw"):
        w = param(rng.uniform(-1, 1, (3, 2)))
        before = w.data.copy()
        opt = Optimizer([w], kind=kind, lr=0.0, momentum=0.9, weight_decay=0.1)
        for _ in range(3):
            set_grad(w, rng.uniform(-1, 1, (3, 2)))
            opt.step()
        assert w.data.tobytes() == before.tobytes()


def test_optimizer_validation():
    w = param([1.0])
    with pytest.raises(ContractError):
        Optimizer([w], kind="rmsprop")
    with pytest.raises(ContractError):
        Optimizer([w], lr=-0.1)
    with pytest.raises(ContractError):
        Optimizer([w], kind="adam", betas=(1.0, 0.999))


# ---------------------------------------------------------------- schedules


def test_multistep_milestones():
    sched = LrSchedule(kind="multistep", milestones=(60, 80), gamma=0.1)
    assert lr_at(sched, 0.001, 59) == pytest.approx(0.001, rel=1e-12)
    assert lr_at(sched, 0.001, 60) == pytest.approx(0.0001, rel=1e-12)
    assert lr_at(sched, 0.001, 80) == pytest.approx(0.00001, rel=1e-12)


def test_step_schedule():
    sched = LrSchedule(kind="step", step_size=10, gamma=0.5)
    assert lr_at(sched, 1.0, 9) == 1.0
    assert lr_at(sched, 1.0, 10) == 0.5
    assert lr_at(sched, 1.0, 25) == 0.25


def test_cosine_endpoints():
    sched = LrSchedule(kind="cosine", t_max=6)
    assert lr_at(sched, 0.3, 0) == pytest.approx(0.3, abs=1e-15)
    assert lr_at(sched, 0.3, 6) == pytest.approx(0.0, abs=1e-15)
    assert lr_at(sched, 0.3, 3) == pytest.approx(0.15, abs=1e-12)
    # clamped beyond the horizon, never rises again
    assert lr_at(sched, 0.3, 7) == 0.0


def test_linear_warmup_decay_points():
    sched = LrSchedule(kind="linear_warmup_decay", warmup_fraction=0.1, total_steps=100)
    assert lr_at(sched, 1.0, 0) == 0.0
    assert lr_at(sched, 1.0, 10) == pytest.approx(1.0, abs=1e-15)
    assert lr_at(sched, 1.0, 55) == pytest.approx(0.5, abs=1e-12)
    assert lr_at(sched, 1.0, 100) == pytest.approx(0.0, abs=1e-15)
    assert lr_at(sched, 1.0, 150) == 0.0


def test_constant_schedule():
    sched = LrSchedule(kind="constant")
    assert lr_at(sched, 0.007, 0) == lr_at(sched, 0.007, 999) == 0.007


def test_schedules_nonnegative_and_nonincreasing_after_warmup():
    cases = [
        (LrSchedule(kind="multistep", milestones=(3, 7), gamma=0.2), 0),
        (LrSchedule(kind="step", step_size=4, gamma=0.7), 0),
        (LrSchedule(kind="cosine", t_max=20), 0),
        (LrSchedule(kind="linear_warmup_decay", warmup_fraction=0.2, total_steps=50), 10),
        (LrSchedule(kind="constant"), 0),
    ]
    for sched, warmup_end in cases:
        values = [lr_at(sched, 1.0, e) for e in range(60)]
        assert all(v >= 0.0 for v in values)
        tail = values[warmup_end:]
        assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_schedule_validation():
    with pytest.raises(ContractError):
        LrSchedule(kind="exponential")
    with pytest.raises(ContractError):
        LrSchedule(kind="multistep", milestones=(80, 60))
    with pytest.raises(ContractError):
        LrSchedule(kind="step", gamma=0.0)
    with pytest.raises(ContractError):
        LrSchedule(kind="linear_warmup_decay", warmup_fraction=1.5)
    with pytest.raises(ContractError):
        lr_at(LrSchedule(kind="constant"), 1.0, -1)


def test_schedule_is_deterministic_pure_function():
    sched = LrSchedule(kind="cosine", t_max=13)
    a = [lr_at(sched, 0.05, e) for e in range(20)]
    b = [lr_at(sched, 0.05, e) for e in range(20)]
    assert a == b


# ---------------------------------------------------------------- flat buffers


SHAPES = [(), (3,), (2, 3), (2, 1, 3, 3), (1,)]


@pytest.mark.parametrize(
    "kind, weight_decay",
    [("sgd_momentum", 0.0), ("sgd_momentum", 0.05), ("adam", 0.0), ("adam", 0.05), ("adamw", 0.0), ("adamw", 0.05)],
)
def test_flat_update_matches_per_parameter_reference_bytes(kind, weight_decay):
    rng = np.random.default_rng(3)
    values = [rng.normal(0.0, 1.0, shape) for shape in SHAPES]
    values[1][0] = -0.0
    params = [param(v.copy()) for v in values]
    ref = [v.copy() for v in values]
    first, second = [np.zeros_like(v) for v in values], [np.zeros_like(v) for v in values]
    opt = Optimizer(params, kind=kind, lr=0.03, momentum=0.9, weight_decay=weight_decay)
    for t in range(1, 5):
        grads = [rng.normal(0.0, 1.0, shape) for shape in SHAPES]
        for p, g in zip(params, grads):
            set_grad(p, g)
        opt.step()
        if kind == "sgd_momentum":
            sgd_reference(ref, grads, first, 0.03, 0.9, weight_decay)
        else:
            adam_reference(ref, grads, first, second, t, 0.03, (0.9, 0.999), 1e-8, weight_decay, kind == "adamw")
        assert [p.data.tobytes() for p in params] == [r.tobytes() for r in ref]
        assert [p.data.shape for p in params] == SHAPES


def test_parameters_become_views_of_one_flat_vector():
    params = [param(np.full(shape, float(i))) for i, shape in enumerate(SHAPES)]
    params[1].grad = np.full(3, 5.0)
    opt = Optimizer(params, kind="adam", lr=0.1)
    base = params[0].data.base
    assert base is not None and all(p.data.base is base for p in params)
    assert base.tolist() == [0.0, 1.0, 1.0, 1.0] + [2.0] * 6 + [3.0] * 18 + [4.0]
    # each .grad is the parameter's view of one flat gradient vector: a held gradient is copied in, None is zeros
    grad_base = params[0].grad.base
    assert grad_base is not None and grad_base is not base
    assert grad_base.tolist() == [0.0, 5.0, 5.0, 5.0] + [0.0] * 25
    for p, view in zip(params, opt.grads):
        assert p.grad is view and view.base is grad_base and view.shape == p.data.shape
        p.grad += 1.0
    opt.step()
    assert not grad_base.any()
    assert np.allclose(base, [-0.1, 0.9, 0.9, 0.9] + [1.9] * 6 + [2.9] * 18 + [3.9])


def test_optimizer_without_parameters_builds_and_steps():
    for kind in ("sgd_momentum", "adam", "adamw"):
        opt = Optimizer((), kind=kind, weight_decay=0.1)
        opt.step()
        assert opt.step_count == 1 and opt.grads == []
