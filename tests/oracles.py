"""Reference code that only tests call: tape ops that the composite versions
of the fused nodes are built from, and the per-row top-k overlap that
`mining._topk_overlaps` vectorises. No training run reaches any of them."""

from typing import Sequence

import numpy as np

from invgate import tensor as T
from invgate.errors import ContractError, ShapeError


def neg(a: T.Tensor) -> T.Tensor:
    return T._node(-a.data, (a,), lambda g: (-g,))


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
