"""Toy modality encoders, the shared soft gate, and classification heads.

Each branch is one affine map, initialised to the identity, standing in for
a real backbone plus the trainable projection/adapter. Both branches keep
the input dimension, so their features live in one space; a single
sigmoid-squashed mask gates that space for both modalities.
"""

from __future__ import annotations

import numpy as np

from . import tensor as T
from .tensor import Tensor

# the head prototypes' initial scale, the view attention's hidden width and
# its blend weight on the view path (in (0, 1), so both paths train)
HEAD_SCALE, VIEW_ATTENTION_HIDDEN, VIEW_ATTENTION_DELTA = 0.25, 32, 0.5


class ModalityEncoder:
    """Identity-initialised affine map for one modality; shared across that branch."""

    def __init__(self, name: str, dim: int):
        """Parameters `<name>.w0` and `<name>.b0`, the names every checkpoint uses."""
        self.w = T.parameter(np.eye(dim), name=f"{name}.w0")
        self.b = T.parameter(np.zeros(dim), name=f"{name}.b0")

    @property
    def params(self) -> list[Tensor]:
        return [self.w, self.b]

    def __call__(self, x: Tensor | np.ndarray) -> Tensor:
        return T.affine(T.as_tensor(x), self.w, self.b)


class GateMask:
    """Learnable per-dimension soft mask shared by both modalities."""

    def __init__(self, dim: int):
        self.mask_logits = T.parameter(np.zeros(dim), name="gate.mask_logits")

    @property
    def params(self) -> list[Tensor]:
        return [self.mask_logits]

    def apply(self, x: Tensor | np.ndarray) -> Tensor:
        """The gated features, through a learnable mask."""
        return T.mul(T.sigmoid(self.mask_logits), T.as_tensor(x))

    def values(self) -> np.ndarray:
        """sigmoid(mask_logits) as a plain array, recording no node."""
        with T.no_grad():
            return T.sigmoid(self.mask_logits).data.copy()


class ClassHead:
    """Class-prototype head with cosine-similarity logits."""

    def __init__(self, num_classes: int, dim: int, rng: np.random.Generator, name: str = "head"):
        protos = rng.normal(0.0, HEAD_SCALE / np.sqrt(dim), size=(num_classes, dim))
        self.prototypes = T.parameter(protos, name=f"{name}.prototypes")

    @property
    def params(self) -> list[Tensor]:
        return [self.prototypes]

    def logits(self, features: Tensor | np.ndarray) -> Tensor:
        """Cosine logits of [B, d] features; of [B, N, d] per-view features, the
        view mean of each view's logits. Raises on a zero-norm feature."""
        features = T.as_tensor(features)
        if features.ndim == 3:
            return T.view_cosine(features, self.prototypes)
        return T.cosine_matmul_t(features, self.prototypes)


class MultiViewAggregator:
    """Opt-in replacement for mean view pooling.

    Global path: two affine maps with a ReLU between, over the concatenated
    views. View path: views reweighted by the softmax of the row-means of
    their cosine affinity matrix, projected, summed, ReLU'd. The output is
    the delta-blend of the two paths.
    """

    def __init__(self, num_views: int, dim: int, rng: np.random.Generator):
        cat, hidden = num_views * dim, VIEW_ATTENTION_HIDDEN
        self.f1_w = T.parameter(rng.normal(0, 1 / np.sqrt(cat), (cat, hidden)), name="mva.f1.w")
        self.f1_b = T.parameter(np.zeros(hidden), name="mva.f1.b")
        self.f2_w = T.parameter(rng.normal(0, 1 / np.sqrt(hidden), (hidden, dim)), name="mva.f2.w")
        self.f2_b = T.parameter(np.zeros(dim), name="mva.f2.b")
        self.proj_w = T.parameter(np.eye(dim), name="mva.proj.w")
        self.proj_b = T.parameter(np.zeros(dim), name="mva.proj.b")

    @property
    def params(self) -> list[Tensor]:
        return [self.f1_w, self.f1_b, self.f2_w, self.f2_b, self.proj_w, self.proj_b]

    def __call__(self, per_view: Tensor, delta: float = VIEW_ATTENTION_DELTA) -> Tensor:
        """[B, N, d] per-view features -> [B, d] blended feature."""
        b, n, d = per_view.shape

        flat = T.reshape(per_view, (b, n * d))
        f_global = T.affine(T.relu(T.affine(flat, self.f1_w, self.f1_b)), self.f2_w, self.f2_b)

        vn = T.l2_normalize(per_view, axis=-1)
        affinity = T.matmul(vn, T.swap_last2(vn))            # [B, N, N]
        weights = T.softmax(T.mean_(affinity, axis=2), axis=-1)  # [B, N]
        projected = T.affine(per_view, self.proj_w, self.proj_b)
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
