import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgate import tensor as T
from invgate.config import RunConfig
from invgate.data import GeneratorConfig
from invgate.encoders import (
    ClassHead,
    CrossAttention,
    GateMask,
    ModalityEncoder,
    MultiViewAggregator,
)
from invgate.errors import ContractError, NumericError, ShapeError
from invgate.harness import Model, _component_rng


def small_model(dim, num_views, **kw):
    """A two-class model over dim-wide features, with identity encoders."""
    gen = GeneratorConfig(num_classes=2, p_conflict=0.0, invariant_dim=dim - 1,
                          confound_dim=1, num_views=num_views)
    return Model(RunConfig(generator=gen, **kw))


def randomize(enc, rng):
    """Draw the encoder's weight and bias, so a test sees more than the identity."""
    enc.w.data = rng.normal(size=enc.w.shape)
    enc.b.data = rng.normal(size=enc.b.shape)


class TestEncoders:
    def test_identity_single_affine_passthrough(self):
        enc = ModalityEncoder("3d", 4)
        v = np.array([[1.0, -2.0, 0.5, 3.0]])
        np.testing.assert_array_equal(enc(v).data, v)

    def test_zero_input_zero_output(self):
        enc = ModalityEncoder("3d", 4)
        enc.w.data = np.random.default_rng(0).normal(size=(4, 4))
        out = enc(np.zeros((2, 4)))
        np.testing.assert_array_equal(out.data, np.zeros((2, 4)))

    def test_matches_handrolled_matmul(self):
        rng = np.random.default_rng(1)
        enc = ModalityEncoder("3d", 3)
        randomize(enc, rng)
        x = rng.normal(size=(2, 3))
        # independent oracle: plain numpy product
        expected = x @ enc.w.data + enc.b.data
        np.testing.assert_allclose(enc(x).data, expected, atol=1e-12)

    def test_dim_mismatch(self):
        enc = ModalityEncoder("3d", 4)
        with pytest.raises(ShapeError):
            enc(np.zeros(5))

    def test_grad_reaches_encoder_params(self):
        enc = ModalityEncoder("3d", 3)
        T.backward(T.sum_(enc(np.ones((1, 3)))))
        assert enc.w.grad is not None and enc.b.grad is not None


def encode_2d(model, views):
    """(per-view features, their aggregate), as training builds them."""
    per_view = model.enc2d(views)
    return per_view, model.aggregate_2d(per_view)


class TestEncode2d:
    def test_identical_views_mean_is_adapter_output(self):
        v = np.array([1.0, 2.0, 3.0])
        _, x2 = encode_2d(small_model(3, 3), np.stack([v, v, v])[None])
        np.testing.assert_allclose(x2.data[0], v)

    def test_single_view_equals_per_view(self):
        per_view, x2 = encode_2d(small_model(3, 1), np.array([[[1.0, 0.0, -1.0]]]))
        np.testing.assert_array_equal(per_view.data[:, 0], x2.data)

    def test_two_view_mean(self):
        _, x2 = encode_2d(small_model(2, 2), np.array([[[1.0, 0.0], [0.0, 1.0]]]))
        np.testing.assert_allclose(x2.data, [[0.5, 0.5]])

    def test_empty_viewset_rejected(self):
        with pytest.raises(ContractError):
            GeneratorConfig(num_views=0)

    def test_batched_matches_sample_level(self):
        rng = np.random.default_rng(3)
        model = small_model(3, 3)
        randomize(model.enc2d, rng)
        views = rng.normal(size=(2, 3, 3))
        per_view, mean = encode_2d(model, views)
        w, b = model.enc2d.w.data, model.enc2d.b.data
        for i in range(2):
            # independent oracle: each view through the affine map, then the mean
            expected = np.mean([v @ w + b for v in views[i]], axis=0)
            np.testing.assert_allclose(per_view.data[i], views[i] @ w + b, atol=1e-12)
            np.testing.assert_allclose(mean.data[i], expected, atol=1e-12)


class TestGate:
    def test_zero_logits_halve_input(self):
        gate = GateMask(3)
        x = np.array([2.0, -4.0, 6.0])
        np.testing.assert_allclose(gate.apply(x).data, 0.5 * x)

    def test_saturated_mask_passes_input(self):
        gate = GateMask(2)
        gate.mask_logits.data[:] = 50.0
        x = np.array([1.5, -2.5])
        np.testing.assert_allclose(gate.apply(x).data, x, atol=1e-6)

    def test_direct_evaluation(self):
        # sigmoid(ln 3) = 0.75, sigmoid(0) = 0.5
        gate = GateMask(2)
        gate.mask_logits.data[:] = [math.log(3.0), 0.0]
        np.testing.assert_allclose(gate.apply(np.array([4.0, 4.0])).data, [3.0, 2.0], atol=1e-12)

    def test_learn_false_blocks_mask_grad(self):
        gate = GateMask(2)
        x = T.parameter([1.0, 2.0], name="x")
        T.backward(T.sum_(T.mul(T.constant(gate.values()), x)))
        assert gate.mask_logits.grad is None
        assert x.grad is not None

    def test_learn_true_reaches_mask(self):
        gate = GateMask(2)
        T.backward(T.sum_(gate.apply(np.ones(2))))
        assert gate.mask_logits.grad is not None

    @given(st.integers(0, 3), st.floats(-4, 4), st.floats(0.01, 4))
    def test_monotone_per_dimension(self, idx, logit, bump):
        gate = GateMask(4)
        gate.mask_logits.data[idx] = logit
        x = np.full(4, 1.7)
        lo = abs(gate.apply(x).data[idx])
        gate.mask_logits.data[idx] = logit + bump
        hi = abs(gate.apply(x).data[idx])
        assert hi >= lo

    def test_dim_mismatch(self):
        with pytest.raises(ShapeError):
            GateMask(3).apply(np.zeros(4))


class TestClassHead:
    def make(self, C=3, d=4, seed=0):
        return ClassHead(C, d, rng=np.random.default_rng(seed))

    def test_feature_equal_to_prototype_maxes_at_one(self):
        head = self.make()
        feat = head.prototypes.data[1].copy()
        logits = head.logits(feat[None, :]).data[0]
        assert logits[1] == pytest.approx(1.0, abs=1e-12)
        assert logits[1] == max(logits)

    def test_orthogonal_feature_gives_zero_logits(self):
        head = self.make(C=2, d=4)
        head.prototypes.data[:] = [[1, 0, 0, 0], [0, 1, 0, 0]]
        logits = head.logits(np.array([[0.0, 0.0, 1.0, 0.0]])).data[0]
        np.testing.assert_allclose(logits, [0.0, 0.0], atol=1e-12)

    def test_view_logit_average(self):
        model = small_model(2, 2)
        model.head2d.prototypes.data[:] = np.eye(2)      # per-view logits = unit features
        per_view = T.constant(np.array([[[1.0, 0.0], [0.0, 1.0]]]))  # [1, 2, 2]
        np.testing.assert_allclose(model.head2d.logits(per_view).data, [[0.5, 0.5]])

    def test_zero_norm_cosine_rejected(self):
        with pytest.raises(NumericError):
            self.make().logits(np.zeros((1, 4)))

    @given(st.floats(0.1, 100.0))
    def test_cosine_scale_invariant(self, alpha):
        head = self.make()
        x = np.array([[0.3, -1.0, 2.0, 0.7]])
        base = head.logits(x).data
        scaled = head.logits(alpha * x).data
        np.testing.assert_allclose(scaled, base, atol=1e-9)


class TestMultiViewAggregator:
    def make(self, n=3, d=4, seed=0):
        return MultiViewAggregator(n, d, rng=np.random.default_rng(seed))

    def identity_proj(self, agg):
        agg.proj_w.data[:] = np.eye(agg.proj_w.shape[0])
        agg.proj_b.data[:] = 0.0

    def test_delta_one_identical_views(self):
        agg = self.make()
        self.identity_proj(agg)
        v = np.array([1.0, -2.0, 3.0, 0.5])
        per_view = T.constant(np.stack([v, v, v])[None])
        out = agg(per_view, delta=1.0)
        np.testing.assert_allclose(out.data[0], np.maximum(v, 0.0), atol=1e-12)

    def test_delta_zero_is_global_path(self):
        agg = self.make()
        views = np.random.default_rng(1).normal(size=(1, 3, 4))
        out = agg(T.constant(views), delta=0.0)
        # the global path by hand: affine, ReLU, affine over the concatenated views
        hidden = np.maximum(views.reshape(1, 12) @ agg.f1_w.data + agg.f1_b.data, 0.0)
        f_global = hidden @ agg.f2_w.data + agg.f2_b.data
        np.testing.assert_allclose(out.data, f_global, atol=1e-12)

    def test_orthogonal_views_uniform_weights(self):
        # affinity matrix by hand: T = [[1,0],[0,1]], row means .5 -> softmax [.5,.5]
        agg = MultiViewAggregator(2, 2, rng=np.random.default_rng(2))
        self.identity_proj(agg)
        v1, v2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        per_view = T.constant(np.stack([v1, v2])[None])
        out = agg(per_view, delta=1.0)       # the view path alone
        np.testing.assert_allclose(out.data[0], [0.5, 0.5], atol=1e-12)

    @settings(deadline=None, max_examples=25)
    @given(st.permutations(range(3)), st.integers(0, 10_000))
    def test_view_path_permutation_invariant(self, perm, seed):
        agg = self.make()
        views = np.random.default_rng(seed).normal(size=(1, 3, 4))
        base = agg(T.constant(views), delta=1.0)
        permuted = agg(T.constant(views[:, list(perm)]), delta=1.0)
        np.testing.assert_allclose(permuted.data, base.data, atol=1e-10)


def _full_attention(x2, x3, weights):
    """The 2.5D feature with the attention written out: per direction, the
    softmax over one key's query-key score times the value projection."""
    wq, wk, wv, wq2, wk2, wv2 = (T.constant(w) for w in weights)

    def one_way(q_in, kv_in, wq, wk, wv):
        score = T.sum_(T.mul(T.matmul(q_in, wq), T.matmul(kv_in, wk)), axis=-1, keepdims=True)
        return T.mul(T.softmax(score, axis=-1), T.matmul(kv_in, wv))

    fwd = one_way(x3, x2, wq, wk, wv)
    rev = one_way(x2, x3, wq2, wk2, wv2)
    return T.mul(T.add(fwd, rev), T.constant(0.5))


class TestCrossAttention:
    def make(self, dim):
        return CrossAttention(dim, rng=np.random.default_rng(0))

    def test_identity_projections_equal_inputs(self):
        attn = self.make(3)
        attn.wv[:] = np.eye(3)
        attn.wv2[:] = np.eye(3)
        v = np.array([[0.5, -1.0, 2.0]])
        np.testing.assert_allclose(attn(v, v), v, atol=1e-12)

    def test_zero_value_projections(self):
        attn = self.make(3)
        attn.wv[:] = 0.0
        attn.wv2[:] = 0.0
        out = attn(np.ones((1, 3)), np.full((1, 3), 2.0))
        np.testing.assert_allclose(out, np.zeros((1, 3)), atol=1e-15)

    def test_hand_computed_two_dim(self):
        # single key/query token: softmax(q k^T) = 1, so each direction returns
        # its value projection; the blend is their average
        attn = self.make(2)
        attn.wv[:] = [[2.0, 0.0], [0.0, 2.0]]   # forward value = 2*x2
        attn.wv2[:] = [[1.0, 1.0], [0.0, 1.0]]  # reverse value = x3 @ wv2
        x2 = np.array([[1.0, 3.0]])
        x3 = np.array([[2.0, -1.0]])
        expected = 0.5 * (2.0 * x2 + x3 @ attn.wv2)
        np.testing.assert_allclose(attn(x2, x3), expected, atol=1e-12)

    def test_dim_mismatch(self):
        with pytest.raises(ValueError):
            self.make(3)(np.zeros((1, 3)), np.zeros((1, 4)))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_equals_six_matrix_attention(self, seed):
        dim = 20
        rng = _component_rng(seed, "xattn")
        weights = [rng.normal(0, 1 / np.sqrt(dim), (dim, dim)) for _ in range(6)]
        model = small_model(dim, 2, include_25d=True, seed=seed)
        attn = model.xattn
        assert not [name for name in model.named_params() if name.startswith("xattn.")]
        assert np.array_equal(attn.wv, weights[2])
        assert np.array_equal(attn.wv2, weights[5])
        x2, x3 = np.random.default_rng(seed).normal(size=(2, 8, dim))
        expected = _full_attention(T.constant(x2), T.constant(x3), weights).data
        assert np.array_equal(attn(x2, x3), expected)
