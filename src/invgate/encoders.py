"""Toy modality encoders, the shared soft gate, and classification heads.

Each branch is a stack of affine layers with ReLU between stages (no
activation after the last), standing in for a real backbone plus the
trainable projection/adapter. Both branches project to the same output
dimension so their features live in one space; a single sigmoid-squashed
mask gates that space for both modalities.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor


def _affine_params(dims, init, rng, prefix):
    """One weight and bias per stage. RunConfig admits "identity" only for square stages."""
    weights, biases = [], []
    for i, (din, dout) in enumerate(zip(dims[:-1], dims[1:])):
        if init == "identity":
            w = np.eye(din)
        else:
            w = rng.normal(0.0, 1.0 / np.sqrt(din), size=(din, dout))
        weights.append(T.parameter(w, name=f"{prefix}.w{i}"))
        biases.append(T.parameter(np.zeros(dout), name=f"{prefix}.b{i}"))
    return weights, biases


class ModalityEncoder:
    """Affine(+ReLU) stack for one modality; shared across that branch."""

    def __init__(self, name: str, dims: list[int], init: str,
                 rng: np.random.Generator | None):
        """`name` prefixes the parameter names; `rng` draws a random init."""
        self.name = name
        self.weights, self.biases = _affine_params(dims, init, rng, name)

    @property
    def params(self) -> list[Tensor]:
        return [*self.weights, *self.biases]

    def __call__(self, x: Tensor | np.ndarray) -> Tensor:
        h = T.as_tensor(x)
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = T.add(T.matmul(h, w), b)
            if i != last:
                h = T.relu(h)
        return h


class GateMask:
    """Learnable per-dimension soft mask shared by both modalities."""

    def __init__(self, dim: int):
        self.mask_logits = T.parameter(np.zeros(dim), name="gate.mask_logits")

    @property
    def params(self) -> list[Tensor]:
        return [self.mask_logits]

    def mask(self, learn: bool = True) -> Tensor:
        """sigmoid(mask_logits); `learn=False` detaches it so gradients pass
        through the product to the features but never reach the logits."""
        m = T.sigmoid(self.mask_logits)
        return m if learn else m.detach()

    def apply(self, x: Tensor | np.ndarray, learn: bool = True) -> Tensor:
        return T.mul(self.mask(learn=learn), T.as_tensor(x))

    def values(self) -> np.ndarray:
        with T.no_grad():
            return T.sigmoid(self.mask_logits).data.copy()


class ClassHead:
    """Class-prototype head; cosine mode mirrors similarity-based logits."""

    def __init__(self, num_classes: int, dim: int, rng: np.random.Generator,
                 mode: str = "cosine", scale: float = 1.0, name: str = "head"):
        self.mode = mode
        self.num_classes = num_classes
        protos = rng.normal(0.0, scale / np.sqrt(dim), size=(num_classes, dim))
        self.prototypes = T.parameter(protos, name=f"{name}.prototypes")

    @property
    def params(self) -> list[Tensor]:
        return [self.prototypes]

    def logits(self, features: Tensor | np.ndarray) -> Tensor:
        features = T.as_tensor(features)
        if self.mode == "cosine":   # raises on a zero-norm feature
            return T.cosine_matmul_t(features, self.prototypes)
        return T.matmul_t(features, self.prototypes)


class MultiViewAggregator:
    """Opt-in replacement for mean view pooling.

    Global path: two affine maps with a ReLU between, over the concatenated
    views. View path: views reweighted by the softmax of the row-means of
    their cosine affinity matrix, projected, summed, ReLU'd. The output is
    the delta-blend of the two paths.
    """

    def __init__(self, num_views: int, dim: int, hidden: int, rng: np.random.Generator):
        cat = num_views * dim
        self.f1_w = T.parameter(rng.normal(0, 1 / np.sqrt(cat), (cat, hidden)), name="mva.f1.w")
        self.f1_b = T.parameter(np.zeros(hidden), name="mva.f1.b")
        self.f2_w = T.parameter(rng.normal(0, 1 / np.sqrt(hidden), (hidden, dim)), name="mva.f2.w")
        self.f2_b = T.parameter(np.zeros(dim), name="mva.f2.b")
        self.proj_w = T.parameter(np.eye(dim), name="mva.proj.w")
        self.proj_b = T.parameter(np.zeros(dim), name="mva.proj.b")

    @property
    def params(self) -> list[Tensor]:
        return [self.f1_w, self.f1_b, self.f2_w, self.f2_b, self.proj_w, self.proj_b]

    def __call__(self, per_view: Tensor, delta: float) -> Tensor:
        """[B, N, d] per-view features -> [B, d] blended feature."""
        b, n, d = per_view.shape

        flat = T.reshape(per_view, (b, n * d))
        f_global = T.add(
            T.matmul(T.relu(T.add(T.matmul(flat, self.f1_w), self.f1_b)), self.f2_w),
            self.f2_b,
        )

        vn = T.l2_normalize(per_view, axis=-1)
        affinity = T.matmul(vn, T.swap_last2(vn))            # [B, N, N]
        weights = T.softmax(T.mean_(affinity, axis=2), axis=-1)  # [B, N]
        projected = T.add(T.matmul(per_view, self.proj_w), self.proj_b)
        weighted = T.mul(projected, T.reshape(weights, (b, n, 1)))
        f_view = T.relu(T.sum_(weighted, axis=1))

        return T.add(
            T.mul(T.constant(1.0 - delta), f_global), T.mul(T.constant(delta), f_view)
        )


class CrossAttention:
    """The 2.5D environment's feature: bidirectional cross-attention between
    the 2D and 3D features of a sample, with fixed plain-array weights.

    Each direction attends over a single key, so its softmax weight is
    exactly 1 and the query/key projections never reach the output: the
    forward direction returns the 2D value projection, the reverse one the
    3D value projection, and the blend is 0.5 * (x2 @ wv + x3 @ wv2).
    """

    def __init__(self, dim: int, rng: np.random.Generator):
        # draw all six projections (wq, wk, wv, wq2, wk2, wv2) so the two kept
        # values stay those of the attention written out in full
        draws = [rng.normal(0, 1 / np.sqrt(dim), (dim, dim)) for _ in range(6)]
        self.wv, self.wv2 = draws[2], draws[5]

    def __call__(self, x2: np.ndarray, x3: np.ndarray) -> np.ndarray:
        return (x2 @ self.wv + x3 @ self.wv2) * 0.5
