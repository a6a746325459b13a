"""Joint inference: late fusion of branch logits and evaluation metrics.

Multiplicative fusion takes the elementwise product of the two branch
softmaxes, with a temperature on the 2D branch to calibrate its sharpness;
the additive variant sums them instead. Scores stay unnormalized.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import tensor as T
from .data import check_fields
from .errors import ContractError, NumericError

MODE_ALIASES = {
    "mul": "multiplicative",
    "multiplicative": "multiplicative",
    "add": "additive",
    "additive": "additive",
}


@dataclass
class FusionConfig:
    phi: float = 1.0
    mode: str = "multiplicative"

    def __post_init__(self):
        if not self.phi > 0:
            raise ContractError(f"phi must be positive, got {self.phi}")
        check_fields(self)
        if self.mode not in MODE_ALIASES:
            raise ContractError(f"unknown fusion mode {self.mode!r}")
        self.mode = MODE_ALIASES[self.mode]


def softmax_np(x: np.ndarray, axis: int = -1) -> np.ndarray:
    _, e, s = T._log_softmax(x, axis)
    return e / s


def fuse(f2: np.ndarray, f3: np.ndarray, cfg: FusionConfig) -> np.ndarray:
    """Fused class scores from the two branches' logits ([C] or [B, C])."""
    f2, f3 = np.asarray(f2, dtype=float), np.asarray(f3, dtype=float)
    if f2.shape != f3.shape:
        raise ContractError(f"branch logits differ in shape: {f2.shape} vs {f3.shape}")
    if not (np.all(np.isfinite(f2)) and np.all(np.isfinite(f3))):
        raise NumericError("non-finite branch logits")
    p2 = softmax_np(f2 / cfg.phi)
    p3 = softmax_np(f3)
    return p2 * p3 if cfg.mode == "multiplicative" else p2 + p3


def predict(scores: np.ndarray) -> np.ndarray | int:
    """Argmax with ties broken toward the smaller class index."""
    scores = np.asarray(scores)
    if not np.all(np.isfinite(scores)):
        raise NumericError("non-finite scores")
    out = np.argmax(scores, axis=-1)  # first occurrence wins ties
    return int(out) if scores.ndim == 1 else out


def conflict_ratio(
    preds2: np.ndarray, preds3: np.ndarray, preds_joint: np.ndarray, labels: np.ndarray
) -> float:
    """Share of samples some single branch gets right but the joint misses:
    |(T2 \\ TJ) u (T3 \\ TJ)| / |T|."""
    seqs = [np.asarray(a) for a in (preds2, preds3, preds_joint, labels)]
    n = seqs[0].shape[0]
    if any(s.shape != (n,) for s in seqs) or n < 1:
        raise ContractError("prediction/label sequences must share a length >= 1")
    preds2, preds3, preds_joint, labels = seqs
    t2 = preds2 == labels
    t3 = preds3 == labels
    tj = preds_joint == labels
    conflicted = (t2 & ~tj) | (t3 & ~tj)
    return float(conflicted.sum()) / n


def confusion_matrix(preds: np.ndarray, labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Counts[i, j] = samples with label i predicted j."""
    preds, labels = np.asarray(preds), np.asarray(labels)
    if preds.shape != labels.shape:
        raise ContractError("preds and labels must align")
    for name, a in (("preds", preds), ("labels", labels)):
        if a.size and (a.min() < 0 or a.max() >= num_classes):
            raise ContractError(f"{name} out of range [0, {num_classes})")
    counts = np.bincount(labels * num_classes + preds, minlength=num_classes * num_classes)
    return counts.reshape(num_classes, num_classes).astype(np.int64, copy=False)


@dataclass
class EvalRecord:
    """Per-sample predictions and the derived aggregates for one split."""

    labels: np.ndarray
    pred2: np.ndarray
    pred3: np.ndarray
    pred_joint: np.ndarray
    num_classes: int
    acc2: float = field(init=False)
    acc3: float = field(init=False)
    acc_joint: float = field(init=False)
    c_err: float = field(init=False)
    confusion2: np.ndarray = field(init=False)
    confusion3: np.ndarray = field(init=False)
    confusion_joint: np.ndarray = field(init=False)

    def __post_init__(self):
        self.acc2 = float((self.pred2 == self.labels).mean())
        self.acc3 = float((self.pred3 == self.labels).mean())
        self.acc_joint = float((self.pred_joint == self.labels).mean())
        self.c_err = conflict_ratio(self.pred2, self.pred3, self.pred_joint, self.labels)
        self.confusion2 = confusion_matrix(self.pred2, self.labels, self.num_classes)
        self.confusion3 = confusion_matrix(self.pred3, self.labels, self.num_classes)
        self.confusion_joint = confusion_matrix(self.pred_joint, self.labels, self.num_classes)

    def per_sample_csv(self) -> str:
        lines = ["index,label,pred2,pred3,pred_joint"]
        for i in range(len(self.labels)):
            lines.append(f"{i},{self.labels[i]},{self.pred2[i]},{self.pred3[i]},{self.pred_joint[i]}")
        return "\n".join(lines) + "\n"

    def aggregates(self) -> dict:
        return {
            "acc2": self.acc2,
            "acc3": self.acc3,
            "acc_joint": self.acc_joint,
            "c_err": self.c_err,
            "confusion2": self.confusion2.tolist(),
            "confusion3": self.confusion3.tolist(),
            "confusion_joint": self.confusion_joint.tolist(),
        }


def confusion_csv(matrix: np.ndarray) -> str:
    return "\n".join(",".join(str(int(v)) for v in row) for row in matrix) + "\n"
