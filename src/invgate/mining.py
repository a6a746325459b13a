"""Loss-based hard-sample mining.

Per modality, a two-component Gaussian mixture is fit to the per-sample
cross-entropy losses; samples whose posterior under the smaller-mean
("easy") component falls below a threshold are that modality's hard set.
The joint hard set keeps candidates that (1) put a lot of fused probability
on some wrong class and (2) rank their top classes differently across
modalities, with both thresholds realized as quantiles of the observed
statistics so a target fraction of candidates survives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import ContractError, MixtureDegeneracyError

# the classes each branch ranks on top when the joint criterion compares them
MINING_TOPK = 5


@dataclass
class MixtureFit:
    """Two-component 1-d GMM, components ordered by ascending mean."""

    means: np.ndarray
    variances: np.ndarray
    weights: np.ndarray
    iterations: int
    converged: bool
    loglik_path: np.ndarray = field(repr=False, default_factory=lambda: np.empty(0))


@dataclass
class MixtureStack:
    """Per-row fits of one stacked EM run; `iterations` counts its sweeps."""

    fits: list[MixtureFit]
    iterations: int


def _log_joint(sq_dev, weights, variances) -> np.ndarray:
    """log w_k + log N(x | mean_k, var_k), from sq_dev = (x - mean_k)^2.

    Components lead: [2, m, 1] parameters broadcast over [2, m, n] data, so
    one call covers both components of every row.
    """
    return np.log(weights) + -0.5 * (np.log(2.0 * np.pi * variances) + sq_dev / variances)


def fit_gmm2(
    losses: np.ndarray,
    tol: float = 1e-8,
    max_iter: int = 200,
    var_floor: float = 1e-6,
) -> MixtureFit | MixtureStack:
    """EM fit initialized by a median split; log-likelihood is tracked per
    iteration (it is monotone up to the variance floor). A 1-d input gives its
    MixtureFit; an [m, n] input gives a MixtureStack from one loop, where each
    row's fit is taken at the sweep it converges, bit for bit its 1-d fit."""
    x = np.asarray(losses, dtype=np.float64)
    if x.ndim not in (1, 2) or x.shape[-1] < 4 or x.size == 0:
        raise ContractError(f"need one or more rows of >= 4 losses, got shape {x.shape}")
    rows = x.reshape(-1, x.shape[-1])
    m, n = rows.shape
    if (np.ptp(rows, axis=1) == 0.0).any():
        raise MixtureDegeneracyError("all losses identical; no mixture structure")

    stats = np.empty((3, 2, m, 1))      # mean, var, size of each median half
    for r, row in enumerate(rows):
        median = np.median(row)
        lower, upper = row[row <= median], row[row > median]
        if upper.size == 0:  # ties at the median can empty the upper half
            lower, upper = row[row < median], row[row >= median]
        stats[:, :, r, 0] = [[lower.mean(), upper.mean()], [lower.var(), upper.var()],
                             [lower.size, upper.size]]
    means, variances, weights = stats[0], np.maximum(stats[1], var_floor), stats[2] / n
    # Each step is one broadcast over x tiled to [2, m, n]. np.add.reduce is
    # ndarray.sum without its Python wrapper; each row sums as a 1-d fit does.
    xx = np.stack((rows, rows))
    sq_dev = (xx - means) ** 2
    sums = np.empty((5, m, n))          # log_total, resp (2), resp * x (2)

    # per-row bookkeeping in lists: cheaper than numpy calls on m-element arrays;
    # rows share no arithmetic, so a row keeps sweeping after its fit is recorded
    fits: list = [None] * m
    paths: list[list[float]] = [[] for _ in range(m)]
    prev_ll = [-math.inf] * m

    def record(r, sweep, converged):
        """Store row r's fit from the parameters as they stand now."""
        order = np.argsort(means[:, r, 0])
        fits[r] = MixtureFit(*(a[:, r, 0][order] for a in (means, variances, weights)),
                             sweep, converged, np.asarray(paths[r]))

    sweep = 0
    for sweep in range(1, max_iter + 1):
        # E-step
        log_joint = _log_joint(sq_dev, weights, variances)
        shift = np.maximum(log_joint[0], log_joint[1])
        shifted = np.exp(log_joint - shift)
        log_total = np.add(shift, np.log(shifted[0] + shifted[1]), out=sums[0])
        resp = np.exp(log_joint - log_total, out=sums[1:3])     # responsibilities
        np.multiply(resp, xx, out=sums[3:])
        totals = np.add.reduce(sums, axis=2, keepdims=True)
        lls = totals[0, :, 0].tolist()
        open_rows = [r for r in range(m) if fits[r] is None]
        for r in open_rows:
            paths[r].append(lls[r])

        # M-step
        nk = np.maximum(totals[1:3], 1e-12)
        means = totals[3:] / nk
        sq_dev = (xx - means) ** 2
        variances = np.maximum(np.add.reduce(resp * sq_dev, axis=2, keepdims=True) / nk,
                               var_floor)
        weights = nk / n

        for r in open_rows:
            if lls[r] - prev_ll[r] < tol and math.isfinite(prev_ll[r]):
                record(r, sweep, True)
        if None not in fits:
            break
        prev_ll = lls

    for r in range(m):
        if fits[r] is None:
            record(r, sweep, False)
    return fits[0] if x.ndim == 1 else MixtureStack(fits=fits, iterations=sweep)


def posterior_small(fit: MixtureFit, losses: np.ndarray) -> np.ndarray:
    """P(easy component | loss) per loss: Bayes responsibility of the smaller mean."""
    x = np.asarray(losses, dtype=np.float64)
    # components on a trailing axis
    log_joint = _log_joint((x[..., None] - fit.means) ** 2, fit.weights, fit.variances)
    shift = np.maximum(log_joint[..., 0], log_joint[..., 1])
    joint = np.exp(log_joint - shift[..., None])
    return joint[..., 0] / (joint[..., 0] + joint[..., 1])


def select_modality_hard(losses: np.ndarray, p: float, fit: MixtureFit) -> np.ndarray:
    """Indices whose easy-component posterior under `fit` is strictly below p."""
    losses = np.asarray(losses, dtype=np.float64)
    post = posterior_small(fit, losses)
    return np.flatnonzero(post < p)


def _topk_overlaps(f2: np.ndarray, f3: np.ndarray, k: int) -> np.ndarray:
    """|top-k(f2[i]) intersect top-k(f3[i])| for every row i, each top-k set
    breaking ties toward the smaller class index (a stable argsort of the
    negated scores)."""
    rows = np.arange(f2.shape[0])[:, None]
    member = np.zeros((2,) + f2.shape, dtype=bool)
    member[0, rows, np.argsort(-f2, axis=1, kind="stable")[:, :k]] = True
    member[1, rows, np.argsort(-f3, axis=1, kind="stable")[:, :k]] = True
    return (member[0] & member[1]).sum(axis=1)


class JointSelection(NamedTuple):
    """One selection: the joint hard set and the two thresholds that chose it."""

    d_joint: np.ndarray
    r1: float
    r2: int


def wrong_class_confidence(probs2: np.ndarray, probs3: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """max over non-ground-truth classes of p2 + p3, per sample."""
    summed = np.asarray(probs2) + np.asarray(probs3)
    masked = summed.copy()
    masked[np.arange(len(labels)), labels] = -np.inf
    return masked.max(axis=1)


def select_joint_hard(
    candidates: np.ndarray,
    probs2: np.ndarray,
    probs3: np.ndarray,
    labels: np.ndarray,
    rho: float,
    k: int = MINING_TOPK,
) -> JointSelection:
    """Joint hard samples among candidates, with quantile-derived thresholds.

    probs2/probs3 are softmax-normalized branch outputs indexed like labels
    (the full epoch arrays); `candidates` holds indices into them. r1 is the
    (1-rho) quantile of the wrong-class confidence over candidates; r2 is
    the overlap cutoff whose selected fraction is closest to rho (smallest
    such cutoff on ties). A candidate must pass both tests.
    """
    candidates = np.asarray(candidates, dtype=int)
    if candidates.size == 0:
        raise ContractError("candidate set is empty")
    probs2, probs3, labels = np.asarray(probs2), np.asarray(probs3), np.asarray(labels)
    num_classes = probs2.shape[1]
    k = min(k, num_classes - 1)

    s1 = wrong_class_confidence(probs2[candidates], probs3[candidates], labels[candidates])
    r1 = float(np.quantile(s1, 1.0 - rho))

    overlaps = _topk_overlaps(probs2[candidates], probs3[candidates], k)
    cutoffs = np.arange(0, k + 2)
    fractions = (overlaps < cutoffs[:, None]).mean(axis=1)
    r2 = int(cutoffs[np.argmin(np.abs(fractions - rho))])

    keep = (s1 > r1) & (overlaps < r2)
    return JointSelection(np.sort(candidates[keep]), r1, r2)
