"""Training objectives and their gradient-routing contracts.

Three terms make up the overall objective:

* per-sample cross-entropy on each branch's logits (updates the encoders
  and heads),
* an invariance loss over gated features treated as one environment per
  modality: a supervised InfoNCE risk plus a squared gradient penalty taken
  at a scalar dummy multiplier of 1 (updates only the gate; callers feed it
  detached features),
* a cross-modality NT-Xent alignment between the gated 2D and 3D features
  of the same sample (updates the encoders through a detached mask).

The penalty's inner derivative is supplied in closed form, built from
differentiable ops, so plain first-order backprop covers everything.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from . import tensor as T
from .errors import ContractError, DegenerateBatchError
from .tensor import Tensor

GROUP_E2D = "e2d"
GROUP_E3D = "e3d"
GROUP_GATE = "gate"
IRM_VARIANTS = ("irmv1", "mm_rex", "v_rex")

# which parameter groups each loss term is allowed to update
ROUTING: dict[str, tuple[str, ...]] = {
    "ce": (GROUP_E2D, GROUP_E3D),
    "inv": (GROUP_GATE,),
    "align": (GROUP_E2D, GROUP_E3D),
}


def cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    """Per-sample cross-entropy, shape [batch]; callers take the mean."""
    labels = np.asarray(labels)
    if logits.ndim != 2:
        raise ContractError(f"logits must be [batch, classes], got {logits.shape}")
    n, c = logits.shape
    if labels.shape != (n,):
        raise ContractError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.min() < 0 or labels.max() >= c:
        raise ContractError(f"labels must lie in [0, {c}), got range "
                            f"[{labels.min()}, {labels.max()}]")
    return T.neg(T.gather(T.log_softmax(logits, axis=-1), labels))


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
    n_anchors: int
    n_pairs: int
    n_skipped_anchors: int


def _pair_masks(batch: ContrastiveBatch) -> tuple[np.ndarray, np.ndarray]:
    labels = batch.labels
    same = labels[:, None] == labels[None, :]
    pos = same & ~np.eye(len(labels), dtype=bool)
    neg = ~same
    if batch.anchor_mask is not None:
        pos = pos & batch.anchor_mask[:, None]
    return pos, neg


def _similarity(batch: ContrastiveBatch) -> Tensor:
    z = T.l2_normalize(batch.features, axis=-1)
    return T.matmul_t(z, z)


def contrastive_report(batch: ContrastiveBatch) -> ContrastiveReport:
    # an anchor's positives are the other pool rows with its label
    pool = np.sort(batch.labels)
    anchors = batch.labels if batch.anchor_mask is None else batch.labels[batch.anchor_mask]
    per_anchor = (np.searchsorted(pool, anchors, side="right")
                  - np.searchsorted(pool, anchors, side="left") - 1)
    return ContrastiveReport(
        n_anchors=int(per_anchor.size),
        n_pairs=int(per_anchor.sum()),
        n_skipped_anchors=int((per_anchor == 0).sum()),
    )


def sup_infonce(batch: ContrastiveBatch, theta: float = 1.0) -> Tensor:
    """Supervised InfoNCE risk with similarities scaled by `theta`.

    Per anchor-positive pair: -log( e^{s+ th} / (e^{s+ th} + sum_neg e^{s- th}) ),
    averaged over all pairs. Anchors with no positive are skipped; a batch
    with no pairs at all is degenerate.
    """
    pos, neg = _pair_masks(batch)
    n_pairs = int(pos.sum())
    if n_pairs == 0:
        raise DegenerateBatchError("no anchor has a positive")

    s = T.mul(_similarity(batch), T.constant(theta))
    exp_s = T.exp(s)
    neg_sum = T.sum_(T.mul(exp_s, T.constant(neg.astype(float))), axis=1, keepdims=True)
    pair_loss = T.sub(T.log(T.add(exp_s, neg_sum)), s)          # [n, n]
    total = T.sum_(T.mul(pair_loss, T.constant(pos.astype(float))))
    return T.mul(total, T.constant(1.0 / n_pairs))


def irm_grad_theta(batch: ContrastiveBatch) -> Tensor:
    """Closed-form d(sup_infonce)/d(theta) at theta = 1.

    Per pair, the derivative of -log softmax is E_p[s] - s+, with p the
    softmax over the positive plus the anchor's negatives at theta = 1.
    Built from differentiable ops so the squared penalty backprops to the
    gate with first-order autodiff only.
    """
    pos, neg = _pair_masks(batch)
    n_pairs = int(pos.sum())
    if n_pairs == 0:
        raise DegenerateBatchError("no anchor has a positive")

    s = _similarity(batch)
    exp_s = T.exp(s)
    negf = T.constant(neg.astype(float))
    neg_exp_sum = T.sum_(T.mul(exp_s, negf), axis=1, keepdims=True)            # [n,1]
    neg_weighted = T.sum_(T.mul(T.mul(exp_s, negf), s), axis=1, keepdims=True)  # [n,1]
    expectation = T.div(
        T.add(T.mul(exp_s, s), neg_weighted), T.add(exp_s, neg_exp_sum)
    )                                                                           # [n,n]
    per_pair = T.sub(expectation, s)
    total = T.sum_(T.mul(per_pair, T.constant(pos.astype(float))))
    return T.mul(total, T.constant(1.0 / n_pairs))


@dataclass
class IRMConfig:
    lam: float = 5.0
    dummy_theta: float = 1.0
    variant: str = "irmv1"          # irmv1 | mm_rex | v_rex
    lambda_min: float = 0.0         # mm_rex knob
    beta: float = 1.0               # v_rex knob

    def __post_init__(self):
        if self.lam < 0:
            raise ContractError("penalty weight must be non-negative")
        if self.variant not in IRM_VARIANTS:
            raise ContractError(f"unknown variant {self.variant!r}")
        if self.variant == "irmv1" and self.dummy_theta != 1.0:
            raise ContractError("irmv1 evaluates the dummy classifier at 1")


def mm_rex(env_losses: Sequence[Tensor], lambda_min: float) -> Tensor:
    """(1 - m*lambda_min) * max_e L_e + lambda_min * sum_e L_e over scalar risks.

    The max picks the largest realized risk (first on ties), which is the
    correct subgradient.
    """
    m = len(env_losses)
    if m < 2:
        raise ContractError("mm_rex needs at least two environments")
    if lambda_min > 1.0 / m:
        raise ContractError(f"lambda_min must be <= 1/{m}")
    values = [x.item() for x in env_losses]
    worst = env_losses[int(np.argmax(values))]
    total = env_losses[0]
    for x in env_losses[1:]:
        total = T.add(total, x)
    coeff = 1.0 - m * lambda_min
    return T.add(T.mul(worst, T.constant(coeff)), T.mul(total, T.constant(lambda_min)))


def v_rex(env_losses: Sequence[Tensor], beta: float) -> Tensor:
    """beta * Var({L_e}) + sum_e L_e over scalar risks, with population variance."""
    m = len(env_losses)
    if m < 2:
        raise ContractError("v_rex needs at least two environments")
    if beta < 0:
        raise ContractError("beta must be non-negative")
    stacked = T.stack(env_losses)
    mean = T.mean_(stacked)
    var = T.mean_(T.square(T.sub(stacked, mean)))
    return T.add(T.mul(var, T.constant(beta)), T.sum_(stacked))


def modality_irm_loss(envs: Mapping[str, ContrastiveBatch], cfg: IRMConfig) -> Tensor:
    """Invariance loss over per-modality environments of gated features.

    irmv1: sum_e [ L_e + lam * (dL_e/dtheta|_{theta=1})^2 ].  The REx
    variants replace the gradient penalty with min-max or variance terms
    over the realized risks.
    """
    if len(envs) < 2:
        raise ContractError("modality-wise invariance needs >= 2 environments")
    if cfg.variant == "irmv1":
        total = None
        for batch in envs.values():
            risk = sup_infonce(batch, theta=cfg.dummy_theta)
            grad = irm_grad_theta(batch)
            term = T.add(risk, T.mul(T.square(grad), T.constant(cfg.lam)))
            total = term if total is None else T.add(total, term)
        return total
    risks = [sup_infonce(batch, theta=cfg.dummy_theta) for batch in envs.values()]
    if cfg.variant == "mm_rex":
        return mm_rex(risks, cfg.lambda_min)
    return v_rex(risks, cfg.beta)


def nt_xent_align(z2: Tensor, z3: Tensor, tau: float) -> Tensor:
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

    a = T.l2_normalize(z2, axis=-1)
    b = T.l2_normalize(z3, axis=-1)
    sims = T.mul(T.matmul_t(a, b), T.constant(tau))   # [n, n]
    diag = np.arange(n)

    def direction(s):
        denom = T.log(T.sum_(T.exp(s), axis=1))
        return T.sub(denom, T.gather(s, diag))

    fwd = direction(sims)                      # 2D anchors vs 3D candidates
    rev = direction(T.transpose2d(sims))       # 3D anchors vs 2D candidates
    return T.mul(T.add(T.sum_(fwd), T.sum_(rev)), T.constant(0.5 / n))


@dataclass
class ObjectiveTerms:
    """The three computed loss terms of one training step (None = inactive)."""

    ce: Tensor
    inv: Tensor | None
    align: Tensor | None
    alpha: float = 1.0


def combine_objective(terms: ObjectiveTerms) -> tuple[Tensor, dict[str, tuple[str, ...]]]:
    """Sum the active terms and report which groups each one may update."""
    total = T.mean_(terms.ce) if terms.ce.ndim > 0 else terms.ce
    plan = {"ce": ROUTING["ce"]}
    if terms.inv is not None:
        total = T.add(total, terms.inv)
        plan["inv"] = ROUTING["inv"]
    if terms.align is not None:
        total = T.add(total, T.mul(terms.align, T.constant(terms.alpha)))
        plan["align"] = ROUTING["align"]
    return total, plan
