"""Reference code that only tests call: tape ops that the composite versions
of the fused nodes are built from, those composites, and the per-row top-k
overlap that `mining._topk_overlaps` vectorises. No training run reaches any
of them.

Each fused node's forward pass and VJP repeat the numpy operations of its
composite here in the same order, so swapping every fused node for its
composite (`COMPOSITES`) must train the same bytes."""

from typing import Sequence

import numpy as np

from invgate import harness, losses
from invgate import tensor as T
from invgate.errors import ContractError, ShapeError


def neg(a: T.Tensor) -> T.Tensor:
    return T._node(-a.data, (a,), lambda g: (-g,))


def sub(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    return T._broadcast_op(a, b, np.subtract, lambda g: g, lambda g: -g, "sub")


def div(a: T.Tensor, b: T.Tensor) -> T.Tensor:
    return T._broadcast_op(a, b, np.divide, lambda g: g / b.data,
                           lambda g: -g * a.data / (b.data * b.data), "div")


def exp(a: T.Tensor) -> T.Tensor:
    data = np.exp(a.data)
    return T._node(data, (a,), lambda g: (g * data,))


def square(a: T.Tensor) -> T.Tensor:
    return T._node(a.data * a.data, (a,), lambda g: (g * 2.0 * a.data,))


def transpose2d(a: T.Tensor) -> T.Tensor:
    if a.ndim != 2:
        raise ShapeError(f"transpose2d expects 2-d, got {a.shape}")
    return T._node(a.data.T.copy(), (a,), lambda g: (g.T,))


def log(a: T.Tensor) -> T.Tensor:
    data = np.log(a.data)
    return T._node(data, (a,), lambda g: (g / a.data,))


def sqrt(a: T.Tensor) -> T.Tensor:
    data = np.sqrt(a.data)
    return T._node(data, (a,), lambda g: (g * 0.5 / data,))


def concat(tensors: Sequence[T.Tensor], axis: int = 0) -> T.Tensor:
    tensors = [T.as_tensor(t) for t in tensors]
    if not tensors:
        raise ContractError("concat of zero tensors")
    try:
        data = np.concatenate([t.data for t in tensors], axis=axis)
    except ValueError as exc:
        raise ShapeError(f"concat shapes do not conform: {[t.shape for t in tensors]}") from exc
    sizes = [t.data.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def vjp(g):
        return tuple(np.split(g, splits, axis=axis))

    return T._node(data, tensors, vjp)


def topk_indices(logits: np.ndarray, k: int) -> np.ndarray:
    """Top-k class indices by logit, ties broken toward the smaller index."""
    logits = np.asarray(logits)
    if k > logits.shape[-1]:
        raise ContractError(f"k={k} exceeds {logits.shape[-1]} classes")
    order = np.lexsort((np.arange(logits.shape[-1]), -logits))
    return order[:k]


def topk_overlap(f2: np.ndarray, f3: np.ndarray, k: int) -> int:
    """|top-k(f2) intersect top-k(f3)|."""
    a = set(topk_indices(f2, k).tolist())
    b = set(topk_indices(f3, k).tolist())
    return len(a & b)


# -- the fused tape ops' composites ----------------------------------------------


def composite_mean(a, axis=None, keepdims=False):
    n = a.data.size if axis is None else a.data.shape[axis]
    return T.mul(T.sum_(a, axis=axis, keepdims=keepdims), T.constant(1.0 / n))


def composite_softmax(a, axis=-1):
    shift = T.constant(np.max(a.data, axis=axis, keepdims=True))
    e = exp(sub(a, shift))
    return div(e, T.sum_(e, axis=axis if axis >= 0 else a.ndim + axis, keepdims=True))


def composite_log_softmax(a, axis=-1):
    ax = axis if axis >= 0 else a.ndim + axis
    shifted = sub(a, T.constant(np.max(a.data, axis=ax, keepdims=True)))
    return sub(shifted, log(T.sum_(exp(shifted), axis=ax, keepdims=True)))


def composite_l2_normalize(a, axis=-1):
    ax = axis if axis >= 0 else a.ndim + axis
    return div(a, sqrt(T.sum_(square(a), axis=ax, keepdims=True)))


def composite_gather(a, index):
    onehot = np.zeros(a.shape)
    onehot[np.arange(a.shape[0]), index] = 1.0
    return T.sum_(T.mul(a, T.constant(onehot)), axis=1)


def composite_matmul_t(a, b):
    return T.matmul(a, transpose2d(b))


def composite_cosine_matmul_t(a, b):
    return composite_matmul_t(T.l2_normalize(a), T.l2_normalize(b))


def composite_affine(x, w, b):
    return T.add(T.matmul(x, w), b)


def composite_view_cosine(a, b):
    n_batch, n_views, d = a.shape
    flat = T.cosine_matmul_t(T.reshape(a, (n_batch * n_views, d)), b)
    return T.mean_(T.reshape(flat, (n_batch, n_views, b.shape[0])), axis=1)


# -- the fused loss nodes' composites ----------------------------------------------


def composite_cross_entropy_rows(logits, labels):
    """Per-sample cross-entropy, the terms of the fused node's batch mean."""
    return neg(composite_gather(composite_log_softmax(logits, axis=-1), labels))


def composite_cross_entropy(logits, labels):
    return T.mean_(composite_cross_entropy_rows(logits, labels))


def composite_pair_masks(batch):
    labels = batch.labels
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(len(labels), dtype=bool)
    if batch.anchor_mask is not None:
        pos = pos & batch.anchor_mask[:, None]
    return pos, ~same


def composite_similarity(batch):
    z = T.l2_normalize(batch.features, axis=-1)
    return composite_matmul_t(z, z)


def composite_sup_infonce(batch, theta=1.0):
    pos, neg_mask = composite_pair_masks(batch)
    s = T.mul(composite_similarity(batch), T.constant(theta))
    exp_s = exp(s)
    neg_sum = T.sum_(T.mul(exp_s, T.constant(neg_mask.astype(float))), axis=1, keepdims=True)
    pair_loss = sub(log(T.add(exp_s, neg_sum)), s)
    total = T.sum_(T.mul(pair_loss, T.constant(pos.astype(float))))
    return T.mul(total, T.constant(1.0 / int(pos.sum())))


def composite_irm_grad_theta(batch):
    pos, neg_mask = composite_pair_masks(batch)
    s = composite_similarity(batch)
    exp_s = exp(s)
    negf = T.constant(neg_mask.astype(float))
    neg_exp_sum = T.sum_(T.mul(exp_s, negf), axis=1, keepdims=True)
    neg_weighted = T.sum_(T.mul(T.mul(exp_s, negf), s), axis=1, keepdims=True)
    expectation = div(T.add(T.mul(exp_s, s), neg_weighted), T.add(exp_s, neg_exp_sum))
    per_pair = sub(expectation, s)
    total = T.sum_(T.mul(per_pair, T.constant(pos.astype(float))))
    return T.mul(total, T.constant(1.0 / int(pos.sum())))


def composite_irmv1_term(batch, lam):
    return T.add(composite_sup_infonce(batch),
                 T.mul(square(composite_irm_grad_theta(batch)), T.constant(lam)))


def composite_irmv1(envs, lam):
    terms = [composite_irmv1_term(b, lam) for b in envs.values()]
    total = terms[0]
    for term in terms[1:]:
        total = T.add(total, term)
    return total


def composite_v_rex(env_losses, beta):
    stacked = concat([T.reshape(x, (1,) + x.shape) for x in env_losses], axis=0)
    mean = T.mean_(stacked)
    var = T.mean_(square(sub(stacked, mean)))
    return T.add(T.mul(var, T.constant(beta)), T.sum_(stacked))


def composite_nt_xent(z2, z3, tau=losses.ALIGN_TAU):
    n = z2.shape[0]
    a = T.l2_normalize(z2, axis=-1)
    b = T.l2_normalize(z3, axis=-1)
    sims = T.mul(composite_matmul_t(a, b), T.constant(tau))
    diag = np.arange(n)

    def direction(s):
        return sub(log(T.sum_(exp(s), axis=1)), composite_gather(s, diag))

    fwd = direction(sims)
    rev = direction(transpose2d(sims))
    return T.mul(T.add(T.sum_(fwd), T.sum_(rev)), T.constant(0.5 / n))


def run_with_consumers(build, shapes, seed):
    """Value and leaf gradients of a loss in which every input of `build`
    also feeds one consumer handled before the node and one after it."""
    rng = np.random.default_rng(seed)
    xs = [T.parameter(rng.uniform(-2.0, 2.0, size=shape)) for shape in shapes]
    first = [T.sum_(square(T.mul(x, T.constant(rng.normal(size=x.shape))))) for x in xs]
    y = build(xs)
    last = [T.sum_(exp(T.mul(x, T.constant(rng.normal(size=x.shape))))) for x in xs]
    total = first[0]
    for term in [*first[1:], T.sum_(T.mul(y, T.constant(rng.normal(size=y.shape)))), *last]:
        total = T.add(total, term)
    T.backward(total)
    return [y.data, total.data, *(x.grad for x in xs)]


# (owner, attribute, composite): every fused node a training run builds,
# where its callers look it up; the composites call the tensor-level ones
# through `T`, so with all of them swapped no fused node is left
COMPOSITES = (
    (T, "mean_", composite_mean),
    (T, "softmax", composite_softmax),
    (T, "l2_normalize", composite_l2_normalize),
    (T, "cosine_matmul_t", composite_cosine_matmul_t),
    (T, "affine", composite_affine),
    (T, "view_cosine", composite_view_cosine),
    (harness, "cross_entropy", composite_cross_entropy),
    (harness, "nt_xent_align", composite_nt_xent),
    (losses, "sup_infonce", composite_sup_infonce),
    (losses, "_irmv1_term", composite_irmv1_term),
    (losses, "v_rex", composite_v_rex),
)
