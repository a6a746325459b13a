"""Central finite-difference gradient verification.

Used three ways: by the unit tests, by the acceptance suite, and by the
`gradcheck` CLI subcommand. The differencing path never touches the tape:
it re-evaluates the loss as a plain function of the perturbed leaves.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from . import tensor as T


def central_difference(
    f: Callable[[Sequence[np.ndarray]], float],
    arrays: Sequence[np.ndarray],
    eps: float = 1e-5,
) -> list[np.ndarray]:
    """d f / d arrays[i] by central differences, one coordinate at a time."""
    grads = []
    work = [a.copy() for a in arrays]
    for i, a in enumerate(work):
        g = np.zeros_like(a)
        flat = a.reshape(-1)
        gflat = g.reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + eps
            hi = f(work)
            flat[j] = orig - eps
            lo = f(work)
            flat[j] = orig
            gflat[j] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def max_relative_error(
    analytic: Sequence[np.ndarray], numeric: Sequence[np.ndarray], floor: float = 1e-6
) -> float:
    """Max over all coordinates of |a - n| / max(|n|, floor)."""
    worst = 0.0
    for a, n in zip(analytic, numeric):
        denom = np.maximum(np.abs(n), floor)
        worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


def check_gradients(
    build_loss: Callable[[Sequence[T.Tensor]], T.Tensor],
    arrays: Sequence[np.ndarray],
    eps: float = 1e-5,
) -> float:
    """Compare tape gradients of build_loss against central differences.

    `build_loss` receives freshly wrapped leaf tensors and must return a
    scalar Tensor. Returns the max relative error.
    """
    leaves = [T.parameter(a.copy(), name=f"leaf{i}") for i, a in enumerate(arrays)]
    loss = build_loss(leaves)
    T.backward(loss)
    analytic = [
        lf.grad.copy() if lf.grad is not None else np.zeros_like(lf.data) for lf in leaves
    ]

    def as_float(vals: Sequence[np.ndarray]) -> float:
        with T.no_grad():
            return build_loss([T.constant(v) for v in vals]).item()

    return max_relative_error(analytic, central_difference(as_float, arrays, eps=eps))
