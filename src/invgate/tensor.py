"""Dense float64 tensors with reverse-mode automatic differentiation.

Storage is a row-major numpy array; every operation that touches a tensor
requiring gradients records a node (parents + vector-Jacobian product) so a
single `backward` call on a scalar populates leaf gradients. First-order
only: no gradients of gradients are ever taken here.

Broadcasting follows numpy semantics; the backward pass sums gradients over
broadcast axes.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, NumericError, ShapeError

_GRAD_ENABLED = True
_F64 = np.dtype(np.float64)


@contextlib.contextmanager
def no_grad():
    """Disable graph recording inside the block (pure numpy evaluation)."""
    global _GRAD_ENABLED
    prev = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = prev


class Tensor:
    """A dense float64 array, optionally tracked on the autodiff tape.

    `grad` is populated on leaves (tensors with no recorded parents) by
    `backward`; repeated backward calls accumulate unless grads are zeroed.
    """

    __slots__ = ("data", "requires_grad", "grad", "name", "_parents", "_vjp")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if type(data) is np.ndarray and data.dtype is _F64:
            self.data = data        # what np.asarray would return, without the call
        else:
            self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.name = name
        self._parents: tuple[Tensor, ...] = ()
        self._vjp: Callable[[np.ndarray], tuple] | None = None

    # -- basic introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise ContractError(f"item() on tensor of shape {self.shape}")
        return self.data.item()

    def __repr__(self) -> str:
        tag = f" name={self.name!r}" if self.name else ""
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad}{tag})"


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def constant(x, name: str | None = None) -> Tensor:
    return Tensor(x, requires_grad=False, name=name)


def parameter(x, name: str | None = None) -> Tensor:
    return Tensor(x, requires_grad=True, name=name)


def _node(data: np.ndarray, parents: Sequence[Tensor], vjp) -> Tensor:
    """Wrap an op result, recording the node only when the tape is live.

    A parent may be listed more than once; `backward` then adds the VJP's
    contributions to it in list order.
    """
    out = Tensor(data)
    if _GRAD_ENABLED:
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = tuple(parents)
                out._vjp = vjp
                break
    return out


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    while grad.ndim > len(shape):
        grad = np.add.reduce(grad, axis=0)
    for axis, dim in enumerate(shape):
        if dim == 1 and grad.shape[axis] != 1:
            grad = np.add.reduce(grad, axis=axis, keepdims=True)
    return grad


# -- elementwise arithmetic ---------------------------------------------------


def _broadcast_op(a: Tensor, b: Tensor, fn, vjp_a, vjp_b, op: str) -> Tensor:
    try:
        data = fn(a.data, b.data)
    except ValueError as exc:
        raise ShapeError(f"{op}: shapes {a.shape} and {b.shape} do not conform") from exc
    a_bc, b_bc = a.data.shape != data.shape, b.data.shape != data.shape

    def vjp(g):
        # a constant side gets no gradient; an unbroadcast side needs no sum
        ga = gb = None
        if a.requires_grad:
            ga = _unbroadcast(vjp_a(g), a.data.shape) if a_bc else vjp_a(g)
        if b.requires_grad:
            gb = _unbroadcast(vjp_b(g), b.data.shape) if b_bc else vjp_b(g)
        return ga, gb

    return _node(data, (a, b), vjp)


def add(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op(a, b, np.add, lambda g: g, lambda g: g, "add")


def mul(a: Tensor, b: Tensor) -> Tensor:
    return _broadcast_op(
        a, b, np.multiply, lambda g: g * b.data, lambda g: g * a.data, "mul"
    )


def sigmoid(a: Tensor) -> Tensor:
    # stable two-sided form
    data = np.where(
        a.data >= 0, 1.0 / (1.0 + np.exp(-a.data)),
        np.exp(np.minimum(a.data, 0)) / (1.0 + np.exp(np.minimum(a.data, 0))),
    )
    return _node(data, (a,), lambda g: (g * data * (1.0 - data),))


def relu(a: Tensor) -> Tensor:
    mask = a.data > 0
    return _node(a.data * mask, (a,), lambda g: (g * mask,))


# -- structural ops -----------------------------------------------------------


def reshape(a: Tensor, shape: Sequence[int]) -> Tensor:
    shape = tuple(shape)
    try:
        data = a.data.reshape(shape)
    except ValueError as exc:
        raise ShapeError(f"cannot reshape {a.shape} to {shape}") from exc
    return _node(data, (a,), lambda g: (g.reshape(a.shape),))


def swap_last2(a: Tensor) -> Tensor:
    if a.ndim < 2:
        raise ShapeError(f"swap_last2 expects >=2-d, got {a.shape}")
    data = np.swapaxes(a.data, -1, -2).copy()
    return _node(data, (a,), lambda g: (np.swapaxes(g, -1, -2),))


def _check_matmul(a, b) -> None:
    if a.ndim < 2 or b.ndim < 2:
        raise ShapeError(f"matmul expects matrices, got {a.shape} @ {b.shape}")
    if a.shape[-1] != b.shape[-2]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape}")
    if a.ndim > 2 and b.ndim > 2 and a.shape[:-2] != b.shape[:-2]:
        raise ShapeError(f"matmul batch dims differ: {a.shape} @ {b.shape}")


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product: 2d@2d, batched Nd@Nd (equal batch dims), or Nd@2d."""
    _check_matmul(a, b)
    return _node(np.matmul(a.data, b.data), (a, b),
                 lambda g: _matmul_vjp(g, a.data, b.data, a.requires_grad, b.requires_grad))


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """add(matmul(x, w), b), the encoders' and view attention's maps, as one
    node. For a batched `x` and a 2-d `w`, w's gradient stays the batched
    product summed over the batch, as the composite's is."""
    _check_matmul(x, w)
    xw = np.matmul(x.data, w.data)
    try:
        data = np.add(xw, b.data)
    except ValueError as exc:
        raise ShapeError(f"add: shapes {xw.shape} and {b.shape} do not conform") from exc
    xw_bc, b_bc = xw.shape != data.shape, b.data.shape != data.shape

    def vjp(g):
        g_xw = _unbroadcast(g, xw.shape) if xw_bc else g
        gx, gw = _matmul_vjp(g_xw, x.data, w.data, x.requires_grad, w.requires_grad)
        gb = (_unbroadcast(g, b.data.shape) if b_bc else g) if b.requires_grad else None
        return gx, gw, gb

    return _node(data, (x, w, b), vjp)


def cosine_matmul_t(a: Tensor, b: Tensor) -> Tensor:
    """l2_normalize(a) @ l2_normalize(b).T for a 2-d `b`, the cosine heads'
    logits, as one node; parents (a, a, b, b), as each normalization hands
    two gradients."""
    data, pullback = _cosine(a.data, b.data)
    return _node(data, (a, a, b, b),
                 lambda g: pullback(g, a.requires_grad, b.requires_grad))


def view_cosine(a: Tensor, b: Tensor) -> Tensor:
    """The 2D head's logits of [B, N, d] per-view features `a`, as one node:
    mean_(reshape(cosine_matmul_t(reshape(a, (B * N, d)), b), (B, N, C)), axis=1).
    Parents (a, b, b): the flattened views hand `a` the sum of their two
    gradients, in one piece."""
    if a.ndim != 3:
        raise ShapeError(f"view_cosine expects [B, N, d] features, got {a.shape}")
    n_batch, n_views, d = a.shape
    flat, pullback = _cosine(a.data.reshape((n_batch * n_views, d)), b.data)
    per_view = flat.reshape((n_batch, n_views, b.shape[0]))
    scale = 1.0 / n_views
    data = np.add.reduce(per_view, axis=1) * scale

    def vjp(g):
        g_flat = _spread(g * scale, (n_batch, 1, b.shape[0]), per_view.shape).reshape(flat.shape)
        ga, ga_norms, gb, gb_norms = pullback(g_flat, a.requires_grad, b.requires_grad)
        return (None if ga is None else (ga + ga_norms).reshape(a.shape)), gb, gb_norms

    return _node(data, (a, b, b), vjp)


# -- reductions and normalizations ---------------------------------------------
#
# The fused ops here and above (affine, cosine_matmul_t, view_cosine) are
# single tape nodes whose forward pass and VJP repeat, operation for
# operation, the arithmetic of the primitive composite they replace, so
# results stay bit-identical to building that composite. np.add.reduce is
# ndarray.sum without its Python-level wrapper (likewise maximum.reduce for
# max, logical_or.reduce for any).


def _kept_shape(shape: tuple[int, ...], axis, keepdims: bool):
    """`shape` with the summed axis kept as 1; None when a sum's output
    already broadcasts back to `shape`."""
    if axis is None or keepdims:
        return None
    axis = axis % len(shape)
    return shape[:axis] + (1,) + shape[axis + 1:]


def _spread(g, kept, shape: tuple[int, ...]) -> np.ndarray:
    """The gradient of a sum: `g` copied back over the reduced axes."""
    out = np.empty(shape)
    out[...] = g if kept is None else g.reshape(kept)
    return out


def sum_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    data = np.add.reduce(a.data, axis=axis, keepdims=keepdims)
    kept = _kept_shape(a.data.shape, axis, keepdims)
    return _node(data, (a,), lambda g: (_spread(g, kept, a.data.shape),))


def mean_(a: Tensor, axis: int | None = None, keepdims: bool = False) -> Tensor:
    """sum_ then a multiply by 1/n, as one node."""
    scale = 1.0 / (a.data.size if axis is None else a.data.shape[axis])
    data = np.add.reduce(a.data, axis=axis, keepdims=keepdims) * scale
    kept = _kept_shape(a.data.shape, axis, keepdims)
    return _node(data, (a,), lambda g: (_spread(g * scale, kept, a.data.shape),))


def softmax(a: Tensor, axis: int = -1) -> Tensor:
    """exp(a - max) / sum(exp(a - max)) along `axis`, as one node; the max
    shift is a constant, which is exact. The VJP repeats the composite's
    div, sum_, exp and sub in that order."""
    _, e, s = _log_softmax(a.data, axis)
    return _node(e / s, (a,), lambda g: (
        (g / s + _spread(_unbroadcast(-g * e / (s * s), s.shape), None, e.shape)) * e,))


def l2_normalize(a: Tensor, axis: int = -1) -> Tensor:
    """Rows scaled to unit norm, as one node; a zero-norm row raises.

    `a` is listed twice as a parent: the composite a / sqrt(sum(a*a)) hands
    it the quotient's gradient first and the square's second.
    """
    data, norms = _l2n(a.data, axis if axis >= 0 else a.ndim + axis)
    return _node(data, (a, a), lambda g: _l2n_vjp(g, a.data, norms))


# -- numpy kernels of the fused nodes ------------------------------------------
#
# Shared by the fused nodes here and in losses.py, so each formula exists once.


def _l2n(x: np.ndarray, axis: int):
    """(x / norms, norms) along `axis`; a zero-norm row raises."""
    norms = np.sqrt(np.add.reduce(x * x, axis=axis, keepdims=True))
    if np.logical_or.reduce(norms <= 0.0, axis=None):
        raise NumericError("cannot normalize a zero-norm vector")
    return x / norms, norms


def _l2n_vjp(g, x, norms):
    """x's contributions from x / sqrt(sum(x*x)): the quotient's, then the square's."""
    g_norms = _unbroadcast(-g * x / (norms * norms), norms.shape)
    return g / norms, g_norms * 0.5 / norms * 2.0 * x


def _log_softmax(x: np.ndarray, axis: int):
    """(log_softmax, shifted exponentials, their sums) along `axis`."""
    shifted = x - np.maximum.reduce(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = np.add.reduce(e, axis=axis, keepdims=True)
    return shifted - np.log(s), e, s


def _log_softmax_vjp(g, e, s):
    # the composite copies g_s over the reduced axis, then multiplies by e;
    # broadcasting the product gives the same values without the copy
    return g + _unbroadcast(-g, s.shape) / s * e


def _gather_vjp(g, shape, index):
    """g times the one-hot matrix of `index`, signed zeros included."""
    onehot = np.zeros(shape)
    onehot[np.arange(shape[0]), index] = 1.0
    return g[:, None] * onehot


def _matmul_vjp(g, a, b, need_a=True, need_b=True):
    ga = _unbroadcast(np.matmul(g, b.swapaxes(-1, -2)), a.shape) if need_a else None
    gb = _unbroadcast(np.matmul(a.swapaxes(-1, -2), g), b.shape) if need_b else None
    return ga, gb


def _matmul_t_vjp(g, a, bt, need_a=True, need_b=True):
    ga, gbt = _matmul_vjp(g, a, bt, need_a, need_b)
    return ga, None if gbt is None else gbt.T


def _cosine(a: np.ndarray, b: np.ndarray):
    """(value, pullback) of l2_normalize(a) @ l2_normalize(b).T."""
    if b.ndim != 2:
        raise ShapeError(f"matmul_t expects a 2-d right operand, got {b.shape}")
    if a.ndim < 2 or a.shape[-1] != b.shape[1]:
        raise ShapeError(f"matmul inner dims differ: {a.shape} @ {b.shape[::-1]}")
    za, na = _l2n(a, -1)
    zb, nb = _l2n(b, -1)
    bt = zb.T.copy()
    out = np.matmul(za, bt)

    def pullback(g, need_a=True, need_b=True):
        ga, gb = _matmul_t_vjp(g, za, bt, need_a, need_b)
        return (*(_l2n_vjp(ga, a, na) if need_a else (None, None)),
                *(_l2n_vjp(gb, b, nb) if need_b else (None, None)))

    return out, pullback


# -- backward pass ------------------------------------------------------------


def backward(loss: Tensor) -> None:
    """Populate `grad` on every requires-grad leaf reachable from `loss`.

    `loss` must be scalar (shape ()). Intermediate gradients are kept in a
    scratch map and discarded; leaf grads accumulate across calls.
    """
    if loss.data.shape != ():
        raise ContractError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if not loss.requires_grad:
        return

    # topological order, leaves first: iterative postorder DFS that explores
    # a node's parents last-listed first. Tensors hash by identity.
    topo: list[Tensor] = []
    visited = {loss}
    stack = [(loss, reversed(loss._parents))]
    while stack:
        node, parents = stack[-1]
        for p in parents:
            if p.requires_grad and p not in visited:
                visited.add(p)
                stack.append((p, reversed(p._parents)))
                break
        else:
            stack.pop()
            topo.append(node)

    grads: dict[Tensor, np.ndarray] = {loss: np.ones((), dtype=np.float64)}
    for node in reversed(topo):
        g = grads.pop(node, None)
        if g is None:
            continue
        if node._vjp is None:
            # leaf: accumulate into .grad; a first gradient is a fresh array,
            # 0.0 + g as a zero-filled one would make it (-0.0 turns +0.0)
            if node.grad is None:
                node.grad = g + 0.0
            else:
                node.grad += g
            continue
        for p, pg in zip(node._parents, node._vjp(g)):
            if pg is None or not p.requires_grad:
                continue
            acc = grads.get(p)
            grads[p] = pg if acc is None else acc + pg
