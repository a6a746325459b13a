"""Training objectives and the parameters each one's gradient reaches.

Three terms make up the overall objective:

* the batch mean of cross-entropy on each branch's logits (updates the
  encoders and heads),
* an invariance loss over gated features treated as one environment per
  modality: a supervised InfoNCE risk plus a squared gradient penalty taken
  at a scalar dummy multiplier of 1 (updates only the gate; callers feed it
  detached features),
* a cross-modality NT-Xent alignment between the gated 2D and 3D features
  of the same sample (updates the encoders through the mask's constant
  values).

The penalty's inner derivative is supplied in closed form as a
differentiable node, so plain first-order backprop covers everything. Each
term is one tape node whose forward pass and VJP repeat the numpy
operations of the primitive composite it replaces, in the same order. A
pool node does its elementwise work on the anchor rows alone, the rows
that the composite's positive mask keeps.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, DegenerateBatchError
from .tensor import Tensor

IRM_VARIANTS = ("irmv1", "mm_rex", "v_rex")
# the similarity multipliers of the run's invariance risks (the REx variants';
# IRMv1 takes its risks at 1) and of its alignment term, and V-REx's variance weight
INV_THETA, ALIGN_TAU, REX_BETA = 5.0, 2.0, 1.0


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """The batch mean of per-sample cross-entropy, a scalar."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ContractError(f"logits must be [batch, classes], got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ContractError(f"labels must lie in [0, {c}), got range "
                            f"[{labels.min()}, {labels.max()}]")
    # one node: mean_(neg(gather(log_softmax(logits), labels)))
    log_probs, e, s = T._log_softmax(logits.data, 1)
    scale = 1.0 / n
    value = np.add.reduce(-log_probs[np.arange(n), labels], axis=None) * scale

    def vjp(g):
        g_rows = T._spread(g * scale, None, (n,))
        return (T._log_softmax_vjp(T._gather_vjp(-g_rows, (n, c), labels), e, s),)

    return T._node(value, (logits,), vjp)


@dataclass
class ContrastiveBatch:
    """A pool of gated features with labels, and the anchor rows to score.

    Positives/negatives of an anchor are the *other* pool rows with equal /
    different labels. `anchor_mask` (None = every row) lets the pool carry
    context samples that only serve as positives or negatives.
    """

    features: Tensor                      # [n, d]
    labels: np.ndarray                    # [n] ints
    anchor_mask: np.ndarray | None = None

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.features.ndim != 2:
            raise ContractError(f"features must be [n, d], got {self.features.shape}")
        if self.labels.shape != (self.features.shape[0],):
            raise ContractError("labels must align with features")
        if self.features.shape[0] == 0:
            raise DegenerateBatchError("empty contrastive batch")
        if self.anchor_mask is not None:
            self.anchor_mask = np.asarray(self.anchor_mask, dtype=bool)
            if self.anchor_mask.shape != self.labels.shape:
                raise ContractError("anchor_mask must align with labels")
            if not self.anchor_mask.any():
                raise DegenerateBatchError("no anchors in batch")


@dataclass
class ContrastiveReport:
    n_pairs: int


def _pair_weights(batch: ContrastiveBatch):
    """(anchor rows, their [a, n] negative and positive masks, 1 / pairs); no pair
    raises."""
    labels, mask = batch.labels, batch.anchor_mask
    rows = slice(None) if mask is None or mask.all() else np.flatnonzero(mask)
    pos = labels[rows, None] == labels
    negf = (~pos).astype(float)
    own = np.arange(len(labels))[rows]
    pos[np.arange(own.size), own] = False       # an anchor is not its own positive
    n_pairs = np.count_nonzero(pos)
    if n_pairs == 0:
        raise DegenerateBatchError("no anchor has a positive")
    return rows, negf, pos.astype(float), 1.0 / n_pairs


def _full(part: np.ndarray, rows: slice | np.ndarray) -> np.ndarray:
    """`part` as the `rows` of an [n, n] matrix that is zero elsewhere."""
    if isinstance(rows, slice):
        return part
    out = np.zeros((part.shape[1],) * 2)
    out[rows] = part
    return out


def _pool_node(batch: ContrastiveBatch, terms) -> Tensor:
    """One node over matmul_t(z, z), z the normalized pool. `terms(sim, rows,
    negf, posf, scale)` gets sim's anchor rows and returns the value, then a
    pullback to them per similarity matrix its composite builds, each handing
    the features two contributions. The matmuls, their VJP and the value's sum
    stay [n, n], as rounding depends on shape."""
    weights = _pair_weights(batch)
    rows = weights[0]
    x = batch.features.data
    z, norms = T._l2n(x, -1)
    zt = z.T.copy()
    sim = np.matmul(z, zt)
    value, *pullbacks = terms(sim[rows], *weights)

    def vjp(g):
        grads = []
        for to_sim in pullbacks:
            ga, gb = T._matmul_t_vjp(_full(to_sim(g), rows), z, zt)
            grads += T._l2n_vjp(ga + gb, x, norms)
        return grads

    return T._node(value, (batch.features,) * (2 * len(pullbacks)), vjp)


def contrastive_report(batch: ContrastiveBatch) -> ContrastiveReport:
    # an anchor's positives are the other pool rows with its label
    labels = batch.labels - batch.labels.min()
    anchors = labels if batch.anchor_mask is None else labels[batch.anchor_mask]
    per_anchor = np.bincount(labels)[anchors] - 1
    return ContrastiveReport(n_pairs=int(per_anchor.sum()))


def _infonce(sim, theta, rows, negf, posf, scale):
    """sup_infonce over a similarity matrix's anchor rows: (value, pullback to them)."""
    s = sim * theta
    exp_s = np.exp(s)
    masked = exp_s * negf
    neg_sum = np.add.reduce(masked, axis=1, keepdims=True)
    denom = exp_s + neg_sum
    pair_loss = np.log(denom) - s                                   # [a, n]
    weighted = pair_loss * posf
    value = np.add.reduce(_full(weighted, rows), axis=None) * scale

    def pullback(g):
        g_pair = T._spread(g * scale, None, weighted.shape) * posf
        g_denom = g_pair / denom
        g_masked = T._spread(T._unbroadcast(g_denom, neg_sum.shape), None, masked.shape)
        # s feeds the subtraction and exp; exp_s feeds the sum and the mask
        return (-g_pair + (g_denom + g_masked * negf) * exp_s) * theta

    return value, pullback


def _grad_theta(sim, rows, negf, posf, scale):
    """irm_grad_theta over a similarity matrix's anchor rows: (value, pullback to them)."""
    exp_s = np.exp(sim)
    masked = exp_s * negf                     # also the second exp_s * negf
    neg_exp_sum = np.add.reduce(masked, axis=1, keepdims=True)            # [a,1]
    masked_s = masked * sim
    neg_weighted = np.add.reduce(masked_s, axis=1, keepdims=True)         # [a,1]
    exp_s_s = exp_s * sim
    num, den = exp_s_s + neg_weighted, exp_s + neg_exp_sum
    expectation = num / den                                               # [a,n]
    per_pair = expectation - sim
    weighted = per_pair * posf
    value = np.add.reduce(_full(weighted, rows), axis=None) * scale

    def pullback(g):
        g_pair = T._spread(g * scale, None, weighted.shape) * posf
        g_num, g_den = g_pair / den, -g_pair * num / (den * den)
        g_masked_s = T._spread(T._unbroadcast(g_num, neg_weighted.shape), None, masked_s.shape)
        g_masked = T._spread(T._unbroadcast(g_den, neg_exp_sum.shape), None, masked.shape)
        # exp_s's four consumers and sim's four, in the composite's order
        g_exp = g_num * sim + g_masked_s * sim * negf + g_den + g_masked * negf
        return -g_pair + g_num * exp_s + g_masked_s * masked + g_exp * exp_s

    return value, pullback


def sup_infonce(batch: ContrastiveBatch, theta: float = 1.0) -> Tensor:
    """Supervised InfoNCE risk with similarities scaled by `theta`.

    Per anchor-positive pair: -log( e^{s+ th} / (e^{s+ th} + sum_neg e^{s- th}) ),
    averaged over all pairs. Anchors with no positive are skipped; a batch
    with no pairs at all is degenerate. Only anchor rows are computed: that
    equals the composite over every row while |theta| + log(n) < log(float max),
    about 709.78, for a pool of n rows. Every caller's theta (at most INV_THETA)
    is below that by about 700.
    """
    return _pool_node(batch, lambda sim, *w: _infonce(sim, theta, *w))


def irm_grad_theta(batch: ContrastiveBatch) -> Tensor:
    """Closed-form d(sup_infonce)/d(theta) at theta = 1.

    Per pair, the derivative of -log softmax is E_p[s] - s+, with p the
    softmax over the positive plus the anchor's negatives at theta = 1.
    A differentiable node, so the squared penalty backprops to the gate
    with first-order autodiff only.
    """
    return _pool_node(batch, _grad_theta)


def _irmv1_term(batch: ContrastiveBatch, lam: float) -> Tensor:
    """sup_infonce + lam * irm_grad_theta^2 of one environment at theta = 1, one
    node over one similarity matrix: the risk's contributions come first, then
    the penalty's."""
    def terms(sim, *weights):
        risk, risk_to_sim = _infonce(sim, 1.0, *weights)
        grad, grad_to_sim = _grad_theta(sim, *weights)
        penalty = grad * grad * lam
        return risk + penalty, risk_to_sim, lambda g: grad_to_sim(g * lam * 2.0 * grad)

    return _pool_node(batch, terms)


def mm_rex(env_losses: Sequence[Tensor], lambda_min: float) -> Tensor:
    """(1 - m*lambda_min) * max_e L_e + lambda_min * sum_e L_e over scalar risks,
    for lambda_min <= 1/m.

    The max picks the largest realized risk (first on ties), which is the
    correct subgradient. At lambda_min = 0 only that environment gets a
    gradient, so one whose risk is never the largest changes nothing: a 2.5D
    environment that never leads trains as if it were absent.
    """
    m = len(env_losses)
    values = [x.item() for x in env_losses]
    worst = env_losses[int(np.argmax(values))]
    total = functools.reduce(T.add, env_losses)
    coeff = 1.0 - m * lambda_min
    return T.add(T.mul(worst, T.constant(coeff)), T.mul(total, T.constant(lambda_min)))


def v_rex(env_losses: Sequence[Tensor], beta: float) -> Tensor:
    """beta * Var({L_e}) + sum_e L_e over scalar risks, with population variance."""
    # one node: stack, mean, sub, square, mean, mul by beta, plus the sum
    stacked = np.concatenate([x.data.reshape((1,) + x.shape) for x in env_losses])
    scale = 1.0 / stacked.size
    mean = np.add.reduce(stacked, axis=None) * scale
    dev = stacked - mean
    var = np.add.reduce(dev * dev, axis=None) * scale
    total = np.add.reduce(stacked, axis=None)
    value = var * beta + total

    def vjp(g):
        g_dev = T._spread(g * beta * scale, None, dev.shape) * 2.0 * dev
        g_mean = T._unbroadcast(-g_dev, ())
        # the stack's gradient: from the deviation, the mean, then the sum
        return tuple(g_dev + T._spread(g_mean * scale, None, dev.shape)
                     + T._spread(g, None, dev.shape))

    return T._node(value, tuple(env_losses), vjp)


def modality_irm_loss(envs: Mapping[str, ContrastiveBatch], variant: str, lam: float,
                      theta: float, lambda_min: float, beta: float) -> Tensor:
    """Invariance loss over two or more per-modality environments of gated features.

    irmv1: sum_e [ L_e + lam * (dL_e/dtheta|_{theta=1})^2 ], its risks at
    theta = 1 whatever `theta` is. The REx variants replace the gradient
    penalty with min-max (`lambda_min`) or variance (`beta`) terms over the
    risks at `theta`; they read no `lam`.
    """
    if variant == "irmv1":
        return functools.reduce(T.add, [_irmv1_term(batch, lam) for batch in envs.values()])
    risks = [sup_infonce(batch, theta=theta) for batch in envs.values()]
    if variant == "mm_rex":
        return mm_rex(risks, lambda_min)
    return v_rex(risks, beta)


def nt_xent_align(z2: Tensor, z3: Tensor, tau: float = ALIGN_TAU) -> Tensor:
    """Cross-modality NT-Xent over gated features of the same samples.

    The i-th 2D/3D pair is the positive; each anchor is contrasted against
    the other modality's features (so negatives span both modalities once
    the two directions are symmetrized and averaged). Similarities are
    multiplied by tau.
    """
    if z2.shape != z3.shape or z2.ndim != 2:
        raise ContractError(f"aligned features must match as [n, d], got {z2.shape} / {z3.shape}")
    n = z2.shape[0]
    if n < 2:
        raise DegenerateBatchError("alignment needs a batch of >= 2 samples")

    # one node with parents (z2, z2, z3, z3)
    cos, to_inputs = T._cosine(z2.data, z3.data)
    sims = cos * tau                                     # [n, n]
    fwd, fwd_to_sims = _nt_direction(sims)               # 2D anchors vs 3D candidates
    rev, rev_to_sims_t = _nt_direction(sims.T.copy())    # 3D anchors vs 2D candidates
    value = (fwd + rev) * (0.5 / n)

    def vjp(g):
        g_dir = g * (0.5 / n)
        # sims feeds the forward exp, the forward gather, then the transpose
        g_sims = fwd_to_sims(g_dir) + rev_to_sims_t(g_dir).T
        return to_inputs(g_sims * tau, z2.requires_grad, z3.requires_grad)

    return T._node(value, (z2, z2, z3, z3), vjp)


def _nt_direction(s: np.ndarray):
    """sum_i [log(sum_j e^{s_ij}) - s_ii]: (value, pullback to s)."""
    exp_s = np.exp(s)
    sums = np.add.reduce(exp_s, axis=1)
    diag = np.arange(s.shape[0])
    per_anchor = np.log(sums) - s[diag, diag]
    value = np.add.reduce(per_anchor, axis=None)

    def pullback(g):
        g_anchor = T._spread(g, None, per_anchor.shape)
        g_exp = T._spread(g_anchor / sums, (s.shape[0], 1), s.shape)
        return g_exp * exp_s + T._gather_vjp(-g_anchor, s.shape, diag)

    return value, pullback

