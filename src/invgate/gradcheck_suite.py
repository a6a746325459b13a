"""The named finite-difference battery behind `invgate gradcheck`.

Each check re-derives gradients of one loss, one fused tape op or one
representative pipeline by central differences on randomized small inputs
and compares them with the tape's output. The theta check compares the
closed-form inner derivative of the invariance risk against differencing the
risk in theta, at a much tighter tolerance since both sides are exact to
O(eps^2).
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .gradcheck import check_gradients
from .losses import (
    ContrastiveBatch,
    cross_entropy,
    irm_grad_theta,
    mm_rex,
    modality_irm_loss,
    nt_xent_align,
    sup_infonce,
    v_rex,
)

N, D, C = 6, 4, 3  # pool size, feature dim, classes
N_CONFIGS, TOL, THETA_TOL = 20, 1e-4, 1e-6  # seeds per check; worst relative error bounds


def _sum_squares(x):
    return T.sum_(T.mul(x, x))


def _labels(rng, n=N, c=C):
    labels = rng.integers(0, c, size=n)
    labels[0] = labels[1]                 # guarantee a positive pair
    labels[2] = (labels[0] + 1) % c       # guarantee a negative
    return labels


def _loss_builders(seed: int):
    rng = np.random.default_rng(seed)
    labels = _labels(rng)
    labels_b = _labels(rng)

    def ce(leaves):
        return cross_entropy(leaves[0], labels)

    def infonce(leaves):
        return sup_infonce(ContrastiveBatch(leaves[0], labels), theta=1.0)

    def penalty(leaves):
        grad_theta = irm_grad_theta(ContrastiveBatch(leaves[0], labels))
        return T.mul(grad_theta, grad_theta)

    def inv_irmv1(leaves):
        envs = {
            "2d": ContrastiveBatch(leaves[0], labels),
            "3d": ContrastiveBatch(leaves[1], labels_b),
        }
        return modality_irm_loss(envs, "irmv1", 5.0, 0.0)

    gate_feats_2d = rng.normal(size=(N, D))
    gate_feats_3d = rng.normal(size=(N, D))

    def inv_through_gate(leaves, pools=(labels, labels_b), anchors=(None, None)):
        mask = T.sigmoid(leaves[0])
        envs = {
            "2d": ContrastiveBatch(T.mul(mask, T.constant(gate_feats_2d)), pools[0], anchors[0]),
            "3d": ContrastiveBatch(T.mul(mask, T.constant(gate_feats_3d)), pools[1], anchors[1]),
        }
        return modality_irm_loss(envs, "irmv1", 5.0, 0.0)

    # labels and anchors of the trainer's pools for three samples, the second
    # hard: two views each in 2D, the batch and 3 copies of the hard one in 3D
    trainer_pools = (([1, 1, 0, 0, 0, 0], [1, 0, 0, 0, 0, 0]),
                     ([0, 0, 1, 1, 0, 0], [0, 1, 0, 0, 0, 0]))

    def align(leaves):
        return nt_xent_align(leaves[0], leaves[1], tau=3.0)

    def rex_mm(leaves):
        risks = [sup_infonce(ContrastiveBatch(leaves[0], labels)),
                 sup_infonce(ContrastiveBatch(leaves[1], labels_b))]
        return mm_rex(risks, lambda_min=0.25)

    def rex_v(leaves):
        risks = [sup_infonce(ContrastiveBatch(leaves[0], labels)),
                 sup_infonce(ContrastiveBatch(leaves[1], labels_b))]
        return v_rex(risks, beta=2.0)

    # the fused tape ops, weighted so that no gradient is trivially uniform
    def fused_mean(leaves):
        return _sum_squares(T.mean_(T.mul(leaves[0], weights), axis=0))

    def fused_softmax(leaves):
        return T.sum_(T.mul(T.softmax(leaves[0], axis=-1), weights))

    def fused_l2_normalize(leaves):
        return T.sum_(T.mul(T.l2_normalize(leaves[0], axis=-1), weights))

    def fused_cosine_matmul_t(leaves):
        return _sum_squares(T.cosine_matmul_t(leaves[0], leaves[1]))

    # an encoder's map of constant [N, 2, D] views, and a map of a grad-requiring x
    def fused_affine(leaves):
        x, w, b = leaves
        return T.add(_sum_squares(T.affine(T.constant(views), w, b)),
                     T.sum_(T.mul(T.affine(x, w, b), weights)))

    def fused_view_cosine(leaves):
        return _sum_squares(T.view_cosine(leaves[0], leaves[1]))

    feat = rng.uniform(-2, 2, size=(N, D))
    feat_b = rng.uniform(-2, 2, size=(N, D))
    logits = rng.uniform(-2, 2, size=(N, C))
    gate_logits = rng.uniform(-2, 2, size=D)
    weights = T.constant(rng.uniform(-1, 1, size=(N, D)))
    views = rng.uniform(-2, 2, size=(N, 2, D))
    w, b = rng.uniform(-1, 1, size=(D, D)), rng.uniform(-1, 1, size=D)
    per_view, protos = rng.uniform(-2, 2, size=(2, 3, D)), rng.uniform(-2, 2, size=(C, D))
    return [
        ("cross_entropy", ce, [logits]),
        ("sup_infonce", infonce, [feat]),
        ("irm_penalty", penalty, [feat]),
        ("invariance_irmv1", inv_irmv1, [feat, feat_b]),
        ("invariance_gate_path", inv_through_gate, [gate_logits]),
        ("invariance_gate_anchored", lambda ls: inv_through_gate(ls, *trainer_pools), [gate_logits]),
        ("nt_xent_align", align, [feat, feat_b]),
        ("mm_rex", rex_mm, [feat, feat_b]),
        ("v_rex", rex_v, [feat, feat_b]),
        ("fused_mean", fused_mean, [feat]),
        ("fused_softmax", fused_softmax, [feat]),
        ("fused_l2_normalize", fused_l2_normalize, [feat]),
        ("fused_cosine_matmul_t", fused_cosine_matmul_t, [feat, feat_b]),
        ("fused_affine", fused_affine, [feat, w, b]),
        ("fused_view_cosine", fused_view_cosine, [per_view, protos]),
    ]


def _pipeline_builder(seed: int):
    """Encoder -> gate -> head -> CE, differentiated through every stage, with
    the nodes a training run builds: an affine map, the learnable sigmoid
    mask's product and a cosine head."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, C, size=5)
    x = rng.uniform(-2, 2, size=(5, D))

    def pipeline(leaves):
        w, b, mask_logits, protos = leaves
        feats = T.affine(T.constant(x), w, b)
        gated = T.mul(T.sigmoid(mask_logits), feats)
        return cross_entropy(T.cosine_matmul_t(gated, protos), labels)

    return pipeline, [
        rng.uniform(-1, 1, size=(D, D)),
        rng.uniform(-1, 1, size=D),
        rng.uniform(-2, 2, size=D),
        rng.uniform(-1, 1, size=(C, D)),
    ]


def theta_check(seed: int) -> float:
    """Relative gap between analytic and differenced theta derivatives."""
    rng = np.random.default_rng(seed)
    feats = rng.uniform(-2, 2, size=(N, D))
    labels = _labels(rng)
    batch = ContrastiveBatch(T.constant(feats), labels)
    eps = 1e-5
    hi = sup_infonce(ContrastiveBatch(T.constant(feats), labels), theta=1 + eps).item()
    lo = sup_infonce(ContrastiveBatch(T.constant(feats), labels), theta=1 - eps).item()
    fd = (hi - lo) / (2 * eps)
    analytic = irm_grad_theta(batch).item()
    return abs(analytic - fd) / max(abs(fd), 1e-3)


def run_suite():
    """Returns [(check name, passed, worst relative error)] over N_CONFIGS seeds."""
    worst: dict[str, float] = {}
    for seed in range(N_CONFIGS):
        for name, build, arrays in _loss_builders(seed):
            worst[name] = max(worst.get(name, 0.0), check_gradients(build, arrays))
        pipeline, arrays = _pipeline_builder(seed)
        worst["full_pipeline"] = max(worst.get("full_pipeline", 0.0),
                                     check_gradients(pipeline, arrays))
        worst["theta_derivative"] = max(worst.get("theta_derivative", 0.0),
                                        theta_check(seed))
    results = []
    for name, err in worst.items():
        bound = THETA_TOL if name == "theta_derivative" else TOL
        results.append((name, err < bound, err))
    return results
