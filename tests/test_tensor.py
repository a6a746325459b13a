import inspect
import math
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from invgate import tensor as T
from invgate.config import RunConfig
from invgate.errors import ContractError, NumericError, ShapeError
from invgate.gradcheck import check_gradients
from invgate.harness import Trainer
from invgate.losses import (
    ContrastiveBatch,
    cross_entropy,
    irm_grad_theta,
    modality_irm_loss,
    nt_xent_align,
    sup_infonce,
    v_rex,
)

import oracles


def test_softmax_symmetry():
    out = T.softmax(T.constant([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_direct_evaluation():
    # exp-normalization by hand: [2, 1] / 3
    out = T.softmax(T.constant([math.log(2.0), 0.0]))
    np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_cosine_similarity_identity():
    # the cosine heads' form: normalized rows, then a @ b.T
    v = T.constant([[0.3, -1.2, 4.0]])
    assert T.cosine_matmul_t(v, v).item() == pytest.approx(1.0, abs=1e-12)


def test_backward_sum_is_ones():
    x = T.parameter([1.0, 2.0, 3.0])
    T.backward(T.sum_(x))
    np.testing.assert_array_equal(x.grad, [1.0, 1.0, 1.0])


def test_backward_elementwise_square():
    x = T.parameter([1.0, 2.0])
    T.backward(T.sum_(T.mul(x, x)))
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar():
    x = T.parameter([1.0, 2.0])
    with pytest.raises(ContractError):
        T.backward(T.mul(x, x))


def test_backward_accumulates_until_zeroed():
    x = T.parameter([1.0, 2.0])
    loss = T.sum_(T.mul(x, x))
    T.backward(loss)
    first = x.grad.copy()
    T.backward(loss)
    np.testing.assert_allclose(x.grad, 2 * first)
    x.grad = None
    T.backward(loss)
    np.testing.assert_array_equal(x.grad, first)


def test_leaf_gradients_start_as_fresh_arrays():
    # add hands both leaves one array; its -0.0 from the product turns +0.0, as
    # accumulating into a zero-filled gradient would make it
    x, y = T.parameter([1.0, 2.0]), T.parameter([3.0, 4.0])
    loss = T.sum_(T.mul(T.add(x, y), T.constant([-0.0, 1.0])))
    T.backward(loss)
    assert x.grad is not y.grad and not np.signbit(x.grad).any()
    T.backward(loss)
    assert np.array_equal(x.grad, [0.0, 2.0]) and np.array_equal(y.grad, [0.0, 2.0])


def test_no_grad_blocks_recording():
    x = T.parameter([1.0])
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad


def test_log_of_negative_is_nan():
    # no op checks its domain: the value goes through and training's
    # non-finite-loss check reports it
    with np.errstate(invalid="ignore"):
        assert np.isnan(oracles.log(T.constant([-1.0])).data).all()


def test_shape_mismatch_raises():
    with pytest.raises(ShapeError):
        T.add(T.constant(np.ones((2, 3))), T.constant(np.ones((4,))))
    with pytest.raises(ShapeError):
        T.matmul(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 3))))
    with pytest.raises(ShapeError):     # vectors enter as [1, d] rows
        T.matmul(T.constant(np.ones(3)), T.constant(np.ones((3, 2))))


def test_zero_norm_normalize_raises():
    with pytest.raises(NumericError):
        T.l2_normalize(T.constant([[0.0, 0.0]]))


@given(arrays(np.float64, (5,), elements=st.floats(-10, 10)))
def test_softmax_sums_to_one(vals):
    s = T.softmax(T.constant(vals)).data
    assert abs(s.sum() - 1.0) <= 1e-9


@given(
    arrays(np.float64, (6,), elements=st.floats(-10, 10)),
    st.permutations(range(6)),
)
def test_softmax_permutation_equivariant(vals, perm):
    perm = np.asarray(perm)
    direct = T.softmax(T.constant(vals[perm])).data
    permuted = T.softmax(T.constant(vals)).data[perm]
    np.testing.assert_allclose(direct, permuted, atol=1e-12)


def _rand(rng, *shape):
    return rng.uniform(-2.0, 2.0, size=shape)


# One-node ops built from the kernels that cross_entropy, the pools and the
# alignment node share. No run builds these nodes, so tensor.py keeps none;
# here they check the kernels against their composites under any upstream
# gradient, not only the one-hot gradients those nodes hand them.
def log_softmax_node(x, axis=-1):
    data, e, s = T._log_softmax(x.data, axis)
    return T._node(data, (x,), lambda g: (T._log_softmax_vjp(g, e, s),))


def gather_node(x, index):
    return T._node(x.data[np.arange(x.shape[0]), index], (x,),
                   lambda g: (T._gather_vjp(g, x.data.shape, index),))


def matmul_t_node(a, b):
    bt = b.data.T.copy()
    return T._node(np.matmul(a.data, bt), (a, b),
                   lambda g: T._matmul_t_vjp(g, a.data, bt, a.requires_grad, b.requires_grad))


POOL = np.array([0, 0, 1, 1, 2, 0])   # labels of a contrastive pool with positives
OP_CASES = [
    ("add", lambda ls: T.sum_(T.add(ls[0], ls[1])), 2, (3, 4)),
    ("sub", lambda ls: T.sum_(oracles.sub(ls[0], ls[1])), 2, (3, 4)),
    ("mul", lambda ls: T.sum_(T.mul(ls[0], ls[1])), 2, (3, 4)),
    ("div", lambda ls: T.sum_(oracles.div(ls[0], T.add(T.mul(ls[1], ls[1]), T.constant(1.0)))), 2, (3, 4)),
    ("matmul", lambda ls: T.sum_(T.matmul(ls[0], ls[1])), "mat", None),
    ("exp", lambda ls: T.sum_(oracles.exp(ls[0])), 1, (5,)),
    ("log", lambda ls: T.sum_(oracles.log(T.add(T.mul(ls[0], ls[0]), T.constant(0.5)))), 1, (5,)),
    ("sqrt", lambda ls: T.sum_(oracles.sqrt(T.add(T.mul(ls[0], ls[0]), T.constant(0.5)))), 1, (5,)),
    ("sigmoid", lambda ls: T.sum_(T.sigmoid(ls[0])), 1, (7,)),
    ("relu", lambda ls: T.sum_(T.relu(ls[0])), 1, (7,)),
    ("softmax", lambda ls: T.sum_(T.mul(T.softmax(ls[0]), T.constant(np.arange(6.0)))), 1, (6,)),
    ("softmax_axis1", lambda ls: T.sum_(T.mul(T.softmax(ls[0], axis=1), T.constant(np.arange(24.0).reshape(2, 3, 4)))), 1, (2, 3, 4)),
    ("log_softmax", lambda ls: T.sum_(T.mul(log_softmax_node(ls[0]), T.constant(np.ones((2, 4))))), 1, (2, 4)),
    ("mean", lambda ls: T.mean_(T.mul(ls[0], ls[0])), 1, (3, 4)),
    ("l2_norm", lambda ls: T.sum_(oracles.sqrt(T.sum_(oracles.square(T.add(ls[0], T.constant(3.0))), axis=-1))), 1, (3, 4)),
    ("concat", lambda ls: T.sum_(oracles.square(oracles.concat([ls[0], ls[1]], axis=0))), 2, (3, 2)),
    ("reshape", lambda ls: T.sum_(oracles.square(T.reshape(ls[0], (6,)))), 1, (2, 3)),
    ("cosine", lambda ls: T.sum_(T.mul(T.l2_normalize(T.add(ls[0], T.constant(3.0))), T.l2_normalize(T.add(ls[1], T.constant(3.0))))), 2, (4, 3)),
    ("broadcast_mul", lambda ls: T.sum_(T.mul(ls[0], T.reshape(ls[1], (1, 4)))), "bc", None),
    ("batched_matmul", lambda ls: T.sum_(T.matmul(ls[0], T.swap_last2(ls[1]))), "bmm", None),
    ("mean_axis", lambda ls: T.sum_(oracles.square(T.mean_(ls[0], axis=1))), 1, (2, 3, 4)),
    ("mean_keepdims", lambda ls: T.sum_(T.mul(T.mean_(ls[0], axis=-1, keepdims=True), ls[0])), 1, (3, 4)),
    ("log_softmax_3d", lambda ls: T.sum_(oracles.square(log_softmax_node(ls[0], axis=1))), 1, (2, 3, 4)),
    ("l2_normalize", lambda ls: T.sum_(T.mul(T.l2_normalize(ls[0]), T.constant(np.arange(12.0).reshape(3, 4)))), 1, (3, 4)),
    ("l2_normalize_reused", lambda ls: T.sum_(T.mul(T.l2_normalize(ls[0], axis=0), ls[0])), 1, (3, 4)),
    ("gather", lambda ls: T.sum_(oracles.square(gather_node(ls[0], np.array([2, 0, 3])))), 1, (3, 4)),
    ("matmul_t", lambda ls: T.sum_(oracles.square(matmul_t_node(ls[0], ls[1]))), 2, (3, 4)),
    ("matmul_t_self", lambda ls: T.sum_(oracles.square(matmul_t_node(ls[0], ls[0]))), 1, (3, 4)),
    ("cosine_matmul_t", lambda ls: T.sum_(oracles.square(T.cosine_matmul_t(ls[0], ls[1]))), 2, (3, 4)),
    ("cross_entropy", lambda ls: cross_entropy(ls[0], np.array([2, 0, 3])), 1, (3, 4)),
    ("affine", lambda ls: T.sum_(oracles.square(T.affine(ls[0], ls[1], ls[2]))), "affine", None),
    ("view_cosine", lambda ls: T.sum_(oracles.square(T.view_cosine(ls[0], ls[1]))), "views", None),
    ("sup_infonce", lambda ls: sup_infonce(ContrastiveBatch(ls[0], POOL), theta=2.0), 1, (6, 3)),
    ("irm_grad_theta", lambda ls: oracles.square(irm_grad_theta(ContrastiveBatch(ls[0], POOL))), 1, (6, 3)),
    ("irmv1", lambda ls: modality_irm_loss({e: ContrastiveBatch(x, POOL) for e, x in zip("ab", ls)},
                                           "irmv1", 5.0, 0.0), 2, (6, 3)),
    ("v_rex", lambda ls: v_rex([T.sum_(oracles.square(ls[0])), T.sum_(ls[1]), T.mean_(ls[0])], 2.0), 2, (3,)),
    ("nt_xent_align", lambda ls: nt_xent_align(ls[0], ls[1], tau=3.0), 2, (4, 3)),
]


@pytest.mark.parametrize("name,build,arity,shape", OP_CASES, ids=[c[0] for c in OP_CASES])
def test_op_gradients_match_finite_differences(name, build, arity, shape):
    rng = np.random.default_rng(hash(name) % (2**32))
    if arity == "mat":
        arrays_in = [_rand(rng, 3, 4), _rand(rng, 4, 2)]
    elif arity == "bc":
        arrays_in = [_rand(rng, 3, 4), _rand(rng, 4)]
    elif arity == "bmm":
        arrays_in = [_rand(rng, 2, 3, 4), _rand(rng, 2, 3, 4)]
    elif arity == "affine":
        arrays_in = [_rand(rng, 2, 3, 4), _rand(rng, 4, 2), _rand(rng, 2)]
    elif arity == "views":
        arrays_in = [_rand(rng, 2, 3, 4), _rand(rng, 5, 4)]
    else:
        arrays_in = [_rand(rng, *shape) for _ in range(arity)]
    err = check_gradients(build, arrays_in)
    assert err < 1e-4, f"{name}: max relative error {err}"


def test_backward_deterministic_repeat():
    rng = np.random.default_rng(7)
    x = T.parameter(rng.normal(size=(4, 3)))
    w = T.parameter(rng.normal(size=(3, 2)))

    def run():
        x.grad = None
        w.grad = None
        loss = T.sum_(oracles.square(T.relu(T.matmul(x, w))))
        T.backward(loss)
        return x.grad.copy(), w.grad.copy()

    g1 = run()
    g2 = run()
    np.testing.assert_array_equal(g1[0], g2[0])
    np.testing.assert_array_equal(g1[1], g2[1])


# -- fused ops against the primitive composites they replace -------------------
#
# Each fused op must reproduce its composite bit for bit: forward values and
# the gradients of a graph in which the op's input has further consumers, so
# the order in which contributions accumulate is checked too.


def _run(op, shape, seed):
    """Forward value and leaf gradients of a loss where x feeds op and two
    further consumers: `backward` hands x one of their gradients before op's
    and the other after, so op's contributions land between the two."""
    rng = np.random.default_rng(seed)
    x = T.parameter(rng.uniform(-2.0, 2.0, size=shape))
    w = [T.constant(rng.normal(size=shape)) for _ in range(2)]
    first = T.mul(x, w[0])
    y = op(x)
    last = oracles.exp(T.mul(x, w[1]))
    out_w = T.constant(rng.normal(size=y.shape))
    loss = T.add(T.add(T.sum_(oracles.square(first)), T.sum_(T.mul(y, out_w))), T.sum_(last))
    T.backward(loss)
    return y.data, loss.data, x.grad


FUSED_CASES = [
    ("mean_all", lambda x: T.mean_(x), lambda x: oracles.composite_mean(x), (4, 5)),
    ("mean_axis1", lambda x: T.mean_(x, axis=1), lambda x: oracles.composite_mean(x, axis=1), (3, 4, 5)),
    ("mean_keepdims", lambda x: T.mean_(x, axis=-1, keepdims=True),
     lambda x: oracles.composite_mean(x, axis=-1, keepdims=True), (6, 5)),
    ("log_softmax", lambda x: log_softmax_node(x), lambda x: oracles.composite_log_softmax(x), (6, 5)),
    ("log_softmax_axis0", lambda x: log_softmax_node(x, axis=0),
     lambda x: oracles.composite_log_softmax(x, axis=0), (3, 4, 2)),
    ("l2_normalize", lambda x: T.l2_normalize(x), lambda x: oracles.composite_l2_normalize(x), (7, 5)),
    ("l2_normalize_3d", lambda x: T.l2_normalize(x, axis=1),
     lambda x: oracles.composite_l2_normalize(x, axis=1), (2, 3, 4)),
    ("gather", lambda x: gather_node(x, np.array([1, 0, 4, 4, 2])),
     lambda x: oracles.composite_gather(x, np.array([1, 0, 4, 4, 2])), (5, 5)),
    ("matmul_t_self", lambda x: matmul_t_node(x, x), lambda x: oracles.composite_matmul_t(x, x), (6, 4)),
    # the cosine node against the composite of primitives all the way down
    ("matmul_t_normalized", lambda x: T.cosine_matmul_t(x, T.mul(x, x)),
     lambda x: oracles.composite_matmul_t(oracles.composite_l2_normalize(x), oracles.composite_l2_normalize(T.mul(x, x))),
     (5, 3)),
    ("cosine_matmul_t", lambda x: T.cosine_matmul_t(x, T.mul(x, x)),
     lambda x: oracles.composite_cosine_matmul_t(x, T.mul(x, x)), (5, 3)),
    ("cosine_matmul_t_self", lambda x: T.cosine_matmul_t(x, x),
     lambda x: oracles.composite_cosine_matmul_t(x, x), (6, 4)),
    ("cosine_matmul_t_3d", lambda x: T.cosine_matmul_t(x, T.constant(np.ones((2, 4)))),
     lambda x: oracles.composite_cosine_matmul_t(x, T.constant(np.ones((2, 4)))), (2, 3, 4)),
]


@pytest.mark.parametrize("name,fused,composite,shape", FUSED_CASES, ids=[c[0] for c in FUSED_CASES])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_op_bit_identical_to_composite(name, fused, composite, shape, seed):
    for got, want in zip(_run(fused, shape, seed), _run(composite, shape, seed)):
        assert np.array_equal(got, want), name


def test_fused_ops_record_one_node():
    x = T.parameter(np.ones((3, 4)))
    for op in (T.mean_, T.softmax, T.l2_normalize, lambda a: T.cosine_matmul_t(a, a)):
        assert all(p is x for p in op(x)._parents)
    w, b = T.parameter(np.ones((4, 2))), T.parameter(np.ones(2))
    assert T.affine(x, w, b)._parents == (x, w, b)
    views, protos = T.parameter(np.ones((2, 3, 4))), T.parameter(np.ones((5, 4)))
    assert T.view_cosine(views, protos)._parents == (views, protos, protos)


def test_affine_keeps_matmul_shape_errors():
    for x, w in ((np.ones(3), np.ones((3, 2))), (np.ones((2, 3)), np.ones((2, 3))),
                 (np.ones((2, 2, 3)), np.ones((3, 3, 2)))):
        with pytest.raises(ShapeError) as want:
            T.matmul(T.constant(x), T.constant(w))
        with pytest.raises(ShapeError) as got:
            T.affine(T.constant(x), T.constant(w), T.constant(np.zeros(2)))
        assert str(got.value) == str(want.value)
    with pytest.raises(ShapeError, match="^add: shapes"):
        T.affine(T.constant(np.ones((2, 3))), T.constant(np.ones((3, 2))), T.constant(np.ones(3)))
    with pytest.raises(ShapeError, match="view_cosine expects"):
        T.view_cosine(T.constant(np.ones((2, 3))), T.constant(np.ones((5, 3))))


def test_matmul_t_rejects_bad_shapes():
    with pytest.raises(ShapeError, match="inner dims"):
        T.cosine_matmul_t(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 4))))
    with pytest.raises(ShapeError, match="2-d right operand"):
        T.cosine_matmul_t(T.constant(np.ones((2, 3))), T.constant(np.ones(3)))


def test_every_tape_op_is_built_by_a_training_run():
    """Each public function of tensor.py that builds a node records one on the
    tape in one of three small runs, so an op that only tests call cannot
    come back: those belong in tests/oracles.py."""
    ops = {f.__code__: name for name, f in vars(T).items()
           if inspect.isfunction(f) and not name.startswith("_") and f.__module__ == T.__name__
           and {"_node", "_broadcast_op"} & set(f.__code__.co_names)}
    recorded = set()
    node = T._node

    def spy(data, parents, vjp):
        out = node(data, parents, vjp)
        frame = sys._getframe(1)
        while frame is not None and frame.f_code not in ops:
            frame = frame.f_back
        if out._parents and frame is not None:
            recorded.add(ops[frame.f_code])
        return out

    with mock.patch.object(T, "_node", spy):
        for cfg in (RunConfig(),
                    RunConfig(include_25d=True, use_view_attention=True, irm_variant="irmv1"),
                    RunConfig(irm_variant="mm_rex")):
            Trainer(cfg).run()
    assert sorted(recorded) == sorted(ops.values())
