import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from invgate import tensor as T
from invgate.errors import ContractError, NumericError, ShapeError
from invgate.gradcheck import check_gradients
from invgate.losses import (
    ContrastiveBatch,
    cross_entropy,
    irm_grad_theta,
    modality_irm_loss,
    nt_xent_align,
    sup_infonce,
    v_rex,
)


def test_softmax_symmetry():
    out = T.softmax(T.constant([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_direct_evaluation():
    # exp-normalization by hand: [2, 1] / 3
    out = T.softmax(T.constant([math.log(2.0), 0.0]))
    np.testing.assert_allclose(out.data, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)


def test_cosine_similarity_identity():
    # the cosine heads' form: normalized rows, then a @ b.T
    v = T.l2_normalize(T.constant([[0.3, -1.2, 4.0]]))
    assert T.matmul_t(v, v).item() == pytest.approx(1.0, abs=1e-12)


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


def test_no_grad_blocks_recording():
    x = T.parameter([1.0])
    with T.no_grad():
        y = T.mul(x, x)
    assert not y.requires_grad


def test_log_of_negative_is_nan():
    # no op checks its domain: the value goes through and training's
    # non-finite-loss check reports it
    with np.errstate(invalid="ignore"):
        assert np.isnan(T.log(T.constant([-1.0])).data).all()


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


POOL = np.array([0, 0, 1, 1, 2, 0])   # labels of a contrastive pool with positives
OP_CASES = [
    ("add", lambda ls: T.sum_(T.add(ls[0], ls[1])), 2, (3, 4)),
    ("sub", lambda ls: T.sum_(T.sub(ls[0], ls[1])), 2, (3, 4)),
    ("mul", lambda ls: T.sum_(T.mul(ls[0], ls[1])), 2, (3, 4)),
    ("div", lambda ls: T.sum_(T.div(ls[0], T.add(T.mul(ls[1], ls[1]), T.constant(1.0)))), 2, (3, 4)),
    ("matmul", lambda ls: T.sum_(T.matmul(ls[0], ls[1])), "mat", None),
    ("exp", lambda ls: T.sum_(T.exp(ls[0])), 1, (5,)),
    ("log", lambda ls: T.sum_(T.log(T.add(T.mul(ls[0], ls[0]), T.constant(0.5)))), 1, (5,)),
    ("sqrt", lambda ls: T.sum_(T.sqrt(T.add(T.mul(ls[0], ls[0]), T.constant(0.5)))), 1, (5,)),
    ("sigmoid", lambda ls: T.sum_(T.sigmoid(ls[0])), 1, (7,)),
    ("relu", lambda ls: T.sum_(T.relu(ls[0])), 1, (7,)),
    ("softmax", lambda ls: T.sum_(T.mul(T.softmax(ls[0]), T.constant(np.arange(6.0)))), 1, (6,)),
    ("log_softmax", lambda ls: T.sum_(T.mul(T.log_softmax(ls[0], axis=-1), T.constant(np.ones((2, 4))))), 1, (2, 4)),
    ("mean", lambda ls: T.mean_(T.mul(ls[0], ls[0])), 1, (3, 4)),
    ("l2_norm", lambda ls: T.sum_(T.sqrt(T.sum_(T.square(T.add(ls[0], T.constant(3.0))), axis=-1))), 1, (3, 4)),
    ("concat", lambda ls: T.sum_(T.square(T.concat([ls[0], ls[1]], axis=0))), 2, (3, 2)),
    ("reshape", lambda ls: T.sum_(T.square(T.reshape(ls[0], (6,)))), 1, (2, 3)),
    ("cosine", lambda ls: T.sum_(T.mul(T.l2_normalize(T.add(ls[0], T.constant(3.0))), T.l2_normalize(T.add(ls[1], T.constant(3.0))))), 2, (4, 3)),
    ("broadcast_mul", lambda ls: T.sum_(T.mul(ls[0], T.reshape(ls[1], (1, 4)))), "bc", None),
    ("batched_matmul", lambda ls: T.sum_(T.matmul(ls[0], T.swap_last2(ls[1]))), "bmm", None),
    ("mean_axis", lambda ls: T.sum_(T.square(T.mean_(ls[0], axis=1))), 1, (2, 3, 4)),
    ("mean_keepdims", lambda ls: T.sum_(T.mul(T.mean_(ls[0], axis=-1, keepdims=True), ls[0])), 1, (3, 4)),
    ("log_softmax_3d", lambda ls: T.sum_(T.square(T.log_softmax(ls[0], axis=1))), 1, (2, 3, 4)),
    ("l2_normalize", lambda ls: T.sum_(T.mul(T.l2_normalize(ls[0]), T.constant(np.arange(12.0).reshape(3, 4)))), 1, (3, 4)),
    ("l2_normalize_reused", lambda ls: T.sum_(T.mul(T.l2_normalize(ls[0], axis=0), ls[0])), 1, (3, 4)),
    ("gather", lambda ls: T.sum_(T.square(T.gather(ls[0], np.array([2, 0, 3])))), 1, (3, 4)),
    ("matmul_t", lambda ls: T.sum_(T.square(T.matmul_t(ls[0], ls[1]))), 2, (3, 4)),
    ("matmul_t_self", lambda ls: T.sum_(T.square(T.matmul_t(ls[0], ls[0]))), 1, (3, 4)),
    ("cosine_matmul_t", lambda ls: T.sum_(T.square(T.cosine_matmul_t(ls[0], ls[1]))), 2, (3, 4)),
    ("cross_entropy", lambda ls: T.sum_(cross_entropy(ls[0], np.array([2, 0, 3]))), 1, (3, 4)),
    ("sup_infonce", lambda ls: sup_infonce(ContrastiveBatch(ls[0], POOL), theta=2.0), 1, (6, 3)),
    ("irm_grad_theta", lambda ls: T.square(irm_grad_theta(ContrastiveBatch(ls[0], POOL))), 1, (6, 3)),
    ("irmv1", lambda ls: modality_irm_loss({e: ContrastiveBatch(x, POOL) for e, x in zip("ab", ls)},
                                           "irmv1", 5.0, 1.0, 0.0, 1.0), 2, (6, 3)),
    ("v_rex", lambda ls: v_rex([T.sum_(T.square(ls[0])), T.sum_(ls[1]), T.mean_(ls[0])], 2.0), 2, (3,)),
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
        loss = T.sum_(T.square(T.relu(T.matmul(x, w))))
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


def _composite_mean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.data.shape[axis]
    return T.mul(T.sum_(a, axis=axis, keepdims=keepdims), T.constant(1.0 / n))


def _composite_log_softmax(a, axis=-1):
    ax = axis if axis >= 0 else a.ndim + axis
    shifted = T.sub(a, T.constant(np.max(a.data, axis=ax, keepdims=True)))
    return T.sub(shifted, T.log(T.sum_(T.exp(shifted), axis=ax, keepdims=True)))


def _composite_l2_normalize(a, axis=-1):
    ax = axis if axis >= 0 else a.ndim + axis
    return T.div(a, T.sqrt(T.sum_(T.square(a), axis=ax, keepdims=True)))


def _composite_gather(a, index):
    onehot = np.zeros(a.shape)
    onehot[np.arange(a.shape[0]), index] = 1.0
    return T.sum_(T.mul(a, T.constant(onehot)), axis=1)


def _composite_matmul_t(a, b):
    return T.matmul(a, T.transpose2d(b))


def _run(op, shape, seed):
    """Forward value and leaf gradients of a loss where x feeds op and two
    further consumers: `backward` hands x one of their gradients before op's
    and the other after, so op's contributions land between the two."""
    rng = np.random.default_rng(seed)
    x = T.parameter(rng.uniform(-2.0, 2.0, size=shape))
    w = [T.constant(rng.normal(size=shape)) for _ in range(2)]
    first = T.mul(x, w[0])
    y = op(x)
    last = T.exp(T.mul(x, w[1]))
    out_w = T.constant(rng.normal(size=y.shape))
    loss = T.add(T.add(T.sum_(T.square(first)), T.sum_(T.mul(y, out_w))), T.sum_(last))
    T.backward(loss)
    return y.data, loss.data, x.grad


FUSED_CASES = [
    ("mean_all", lambda x: T.mean_(x), lambda x: _composite_mean(x), (4, 5)),
    ("mean_axis1", lambda x: T.mean_(x, axis=1), lambda x: _composite_mean(x, axis=1), (3, 4, 5)),
    ("mean_keepdims", lambda x: T.mean_(x, axis=-1, keepdims=True),
     lambda x: _composite_mean(x, axis=-1, keepdims=True), (6, 5)),
    ("log_softmax", lambda x: T.log_softmax(x), lambda x: _composite_log_softmax(x), (6, 5)),
    ("log_softmax_axis0", lambda x: T.log_softmax(x, axis=0),
     lambda x: _composite_log_softmax(x, axis=0), (3, 4, 2)),
    ("l2_normalize", lambda x: T.l2_normalize(x), lambda x: _composite_l2_normalize(x), (7, 5)),
    ("l2_normalize_3d", lambda x: T.l2_normalize(x, axis=1),
     lambda x: _composite_l2_normalize(x, axis=1), (2, 3, 4)),
    ("gather", lambda x: T.gather(x, np.array([1, 0, 4, 4, 2])),
     lambda x: _composite_gather(x, np.array([1, 0, 4, 4, 2])), (5, 5)),
    ("matmul_t_self", lambda x: T.matmul_t(x, x), lambda x: _composite_matmul_t(x, x), (6, 4)),
    ("matmul_t_normalized", lambda x: T.matmul_t(T.l2_normalize(x), T.l2_normalize(T.mul(x, x))),
     lambda x: _composite_matmul_t(_composite_l2_normalize(x), _composite_l2_normalize(T.mul(x, x))),
     (5, 3)),
    ("cosine_matmul_t", lambda x: T.cosine_matmul_t(x, T.mul(x, x)),
     lambda x: T.matmul_t(T.l2_normalize(x), T.l2_normalize(T.mul(x, x))), (5, 3)),
    ("cosine_matmul_t_self", lambda x: T.cosine_matmul_t(x, x),
     lambda x: T.matmul_t(T.l2_normalize(x), T.l2_normalize(x)), (6, 4)),
    ("cosine_matmul_t_3d", lambda x: T.cosine_matmul_t(x, T.constant(np.ones((2, 4)))),
     lambda x: T.matmul_t(T.l2_normalize(x), T.l2_normalize(T.constant(np.ones((2, 4))))),
     (2, 3, 4)),
]


@pytest.mark.parametrize("name,fused,composite,shape", FUSED_CASES, ids=[c[0] for c in FUSED_CASES])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_op_bit_identical_to_composite(name, fused, composite, shape, seed):
    for got, want in zip(_run(fused, shape, seed), _run(composite, shape, seed)):
        assert np.array_equal(got, want), name


def test_fused_ops_record_one_node():
    x = T.parameter(np.ones((3, 4)))
    for op in (T.mean_, T.log_softmax, T.l2_normalize,
               lambda a: T.gather(a, np.zeros(3, dtype=int)), lambda a: T.matmul_t(a, a),
               lambda a: T.cosine_matmul_t(a, a)):
        assert all(p is x for p in op(x)._parents)


def test_matmul_t_rejects_bad_shapes():
    for op in (T.matmul_t, T.cosine_matmul_t):
        with pytest.raises(ShapeError):
            op(T.constant(np.ones((2, 3))), T.constant(np.ones((2, 4))))
        with pytest.raises(ShapeError):
            op(T.constant(np.ones((2, 3))), T.constant(np.ones(3)))
