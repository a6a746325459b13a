import numpy as np
import pytest

from invgate import tensor as T
from invgate.config import RunConfig
from invgate.errors import ContractError
from invgate.optim import SGD


def make_cfg(**kw):
    defaults = dict(base_lr=0.01, weight_decay=0.0, momentum=0.0, epochs=10)
    defaults.update(kw)
    return RunConfig(**defaults)


def lr_at(epoch, epochs=10):
    opt = SGD({}, make_cfg(epochs=epochs))
    opt.epoch = epoch
    return opt.lr()


def test_cosine_endpoints():
    assert lr_at(0) == pytest.approx(0.01)
    assert lr_at(10) == pytest.approx(0.0, abs=1e-18)


def test_cosine_midpoint():
    # 0.01 * 0.5 * (1 + cos(pi/2)) = 0.005
    assert lr_at(5) == pytest.approx(0.005)


def test_cosine_monotone_decreasing():
    lrs = [lr_at(e, epochs=50) for e in range(50)]
    assert all(a > b for a, b in zip(lrs, lrs[1:]))


def test_step_plain_sgd():
    p = T.parameter([1.0, -2.0], name="p")
    p.grad = np.array([0.5, 0.5])
    opt = SGD({"p": p}, make_cfg())
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.01 * 0.5, -2.0 - 0.01 * 0.5])


def test_decoupled_weight_decay_hits_weights_not_grads():
    p = T.parameter([2.0], name="p")
    p.grad = np.array([0.0])
    opt = SGD({"p": p}, make_cfg(weight_decay=0.1))
    opt.step()
    # zero gradient still decays the weight by lr*wd*w
    np.testing.assert_allclose(p.data, [2.0 - 0.01 * 0.1 * 2.0])


def test_momentum_accumulates():
    p = T.parameter([0.0], name="p")
    opt = SGD({"p": p}, make_cfg(momentum=0.9))
    for _ in range(2):
        p.grad = np.array([1.0])
        opt.step()
    # v1 = 1, v2 = 0.9 + 1 = 1.9; updates lr*(1 + 1.9)
    np.testing.assert_allclose(p.data, [-0.01 * (1.0 + 1.9)])


def test_frozen_group_bit_identical():
    # a parameter the backward pass never reached is frozen for the step
    p = T.parameter([1.2345678901234567, -7.0], name="p")
    q = T.parameter([1.0], name="q")
    opt = SGD({"p": p, "q": q}, make_cfg(weight_decay=0.5, momentum=0.9))
    p.grad = np.array([1.0, 1.0])
    opt.step()
    before, velocity = p.data.tobytes(), opt.velocity["p"].tobytes()
    p.grad = None
    q.grad = np.array([1.0])
    opt.step()
    assert p.data.tobytes() == before
    assert opt.velocity["p"].tobytes() == velocity


def test_velocity_roundtrip_by_name():
    p = T.parameter([1.0], name="w")
    opt = SGD({"w": p}, make_cfg(momentum=0.9))
    p.grad = np.array([2.0])
    opt.step()
    assert set(opt.velocity) == {"w"}

    # an optimizer given that buffer by name continues the same trajectory
    q = T.parameter(p.data.copy(), name="w")
    opt2 = SGD({"w": q}, make_cfg(momentum=0.9))
    opt2.velocity.update(opt.velocity)
    p.grad, q.grad = np.array([1.0]), np.array([1.0])
    opt.step()
    opt2.step()
    assert q.data.tobytes() == p.data.tobytes()
    assert opt2.velocity["w"].tobytes() == opt.velocity["w"].tobytes()


def test_step_updates_only_active_groups():
    # a parameter without a gradient is left alone even when another steps:
    # no zero gradient, no weight decay, no momentum buffer
    a = T.parameter([1.0, 2.0], name="a")
    b = T.parameter([3.0], name="b")
    opt = SGD({"a": a, "b": b}, make_cfg(weight_decay=0.5, momentum=0.9))
    a.grad = np.array([1.0, 1.0])
    before_b = b.data.tobytes()
    opt.step()
    assert b.data.tobytes() == before_b and "b" not in opt.velocity and b.grad is None
    assert "a" in opt.velocity


def test_active_param_without_grad_takes_zero_gradient():
    # inverted: the parameter without a gradient no longer takes a zero one, so
    # it neither decays nor gains velocity, while its neighbour steps as usual
    p = T.parameter([2.0], name="p")
    q = T.parameter([1.0], name="q")
    opt = SGD({"p": p, "q": q}, make_cfg(weight_decay=0.5, momentum=0.9))
    q.grad = np.array([1.0])
    lr = opt.step()
    assert p.grad is None and "p" not in opt.velocity
    np.testing.assert_array_equal(p.data, [2.0])
    np.testing.assert_array_equal(opt.velocity["q"], [1.0])
    np.testing.assert_array_equal(q.data, [1.0 - (lr * 1.0 + lr * 0.5 * 1.0)])


@pytest.mark.parametrize("field", ["base_lr", "weight_decay", "momentum"])
def test_nan_state_rejected(field):
    # the optimizer's rate, decay and momentum come from a RunConfig, which refuses NaN
    with pytest.raises(ContractError):
        make_cfg(**{field: float("nan")})
