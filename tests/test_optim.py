import numpy as np
import pytest

from invgate import tensor as T
from invgate.errors import ContractError
from invgate.optim import SGD, OptimizerState, ParamGroup, cosine_lr


def make_state(**kw):
    defaults = dict(base_lr=0.01, weight_decay=0.0, momentum=0.0, epoch=0, total_epochs=10)
    defaults.update(kw)
    return OptimizerState(**defaults)


def test_cosine_endpoints():
    assert cosine_lr(make_state(epoch=0)) == pytest.approx(0.01)
    assert cosine_lr(make_state(epoch=10)) == pytest.approx(0.0, abs=1e-18)


def test_cosine_midpoint():
    # 0.01 * 0.5 * (1 + cos(pi/2)) = 0.005
    assert cosine_lr(make_state(epoch=5)) == pytest.approx(0.005)


def test_cosine_monotone_decreasing():
    lrs = [cosine_lr(make_state(epoch=e, total_epochs=50)) for e in range(50)]
    assert all(a > b for a, b in zip(lrs, lrs[1:]))


def test_step_plain_sgd():
    p = T.parameter([1.0, -2.0], name="p")
    p.grad = np.array([0.5, 0.5])
    opt = SGD([ParamGroup("g", [p])], make_state())
    opt.step()
    np.testing.assert_allclose(p.data, [1.0 - 0.01 * 0.5, -2.0 - 0.01 * 0.5])


def test_decoupled_weight_decay_hits_weights_not_grads():
    p = T.parameter([2.0], name="p")
    p.grad = np.array([0.0])
    opt = SGD([ParamGroup("g", [p])], make_state(weight_decay=0.1))
    opt.step()
    # zero gradient still decays the weight by lr*wd*w
    np.testing.assert_allclose(p.data, [2.0 - 0.01 * 0.1 * 2.0])


def test_momentum_accumulates():
    p = T.parameter([0.0], name="p")
    opt = SGD([ParamGroup("g", [p])], make_state(momentum=0.9))
    for _ in range(2):
        p.grad = np.array([1.0])
        opt.step()
    # v1 = 1, v2 = 0.9 + 1 = 1.9; updates lr*(1 + 1.9)
    np.testing.assert_allclose(p.data, [-0.01 * (1.0 + 1.9)])


def test_frozen_group_bit_identical():
    # a group the backward pass never reached is frozen for the step
    p = T.parameter([1.2345678901234567, -7.0], name="p")
    q = T.parameter([1.0], name="q")
    opt = SGD([ParamGroup("g", [p]), ParamGroup("h", [q])],
              make_state(weight_decay=0.5, momentum=0.9))
    p.grad = np.array([1.0, 1.0])
    opt.step()
    before, velocity = p.data.tobytes(), opt.velocity[id(p)].tobytes()
    p.grad = None
    q.grad = np.array([1.0])
    opt.step()
    assert p.data.tobytes() == before
    assert opt.velocity[id(p)].tobytes() == velocity


def test_param_in_two_groups_rejected():
    p = T.parameter([1.0], name="p")
    with pytest.raises(ContractError):
        SGD([ParamGroup("a", [p]), ParamGroup("b", [p])], make_state())


def test_velocity_roundtrip_by_name():
    p = T.parameter([1.0], name="w")
    opt = SGD([ParamGroup("g", [p])], make_state(momentum=0.9))
    p.grad = np.array([2.0])
    opt.step()
    named = opt.named_velocity()
    assert set(named) == {"w"}

    q = T.parameter([1.0], name="w")
    opt2 = SGD([ParamGroup("g", [q])], make_state(momentum=0.9))
    opt2.load_velocity(named)
    np.testing.assert_array_equal(opt2.velocity[id(q)], named["w"])


def test_step_updates_only_active_groups():
    a = T.parameter([1.0, 2.0], name="a")
    b = T.parameter([3.0], name="b")
    opt = SGD([ParamGroup("a", [a]), ParamGroup("b", [b])],
              make_state(weight_decay=0.5, momentum=0.9))
    a.grad = np.array([1.0, 1.0])
    before_b = b.data.tobytes()
    opt.step()
    assert b.data.tobytes() == before_b and id(b) not in opt.velocity and b.grad is None
    assert id(a) in opt.velocity


def test_active_param_without_grad_takes_zero_gradient():
    p = T.parameter([2.0], name="p")
    q = T.parameter([1.0], name="q")
    opt = SGD([ParamGroup("g", [p, q])], make_state(weight_decay=0.5, momentum=0.9))
    q.grad = np.array([1.0])
    lr = opt.step()
    np.testing.assert_array_equal(p.grad, [0.0])
    np.testing.assert_array_equal(opt.velocity[id(p)], [0.0])
    np.testing.assert_array_equal(p.data, [2.0 - lr * 0.5 * 2.0])


@pytest.mark.parametrize("field", ["base_lr", "weight_decay", "momentum"])
def test_nan_state_rejected(field):
    with pytest.raises(ContractError):
        make_state(**{field: float("nan")})
