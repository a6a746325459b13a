import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgate import tensor as T
from invgate.encoders import GateMask
from invgate.errors import ContractError, DegenerateBatchError
from invgate.losses import (
    INV_THETA,
    IRM_VARIANTS,
    REX_BETA,
    ContrastiveBatch,
    _pair_weights,
    contrastive_report,
    cross_entropy,
    irm_grad_theta,
    mm_rex,
    modality_irm_loss,
    nt_xent_align,
    sup_infonce,
    v_rex,
)

import oracles

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def batch(features, labels):
    return ContrastiveBatch(T.constant(np.asarray(features, dtype=float)), np.asarray(labels))


def irmv1(envs, lam):
    """The irmv1 invariance loss at penalty weight `lam`; it reads no other knob."""
    return modality_irm_loss(envs, "irmv1", lam, 0.0)


class TestCrossEntropy:
    def test_uniform_logits(self):
        logits = T.constant(np.zeros((3, 4)))
        out = cross_entropy(logits, np.array([0, 1, 3]))
        np.testing.assert_allclose(out.data, math.log(4.0), atol=1e-12)

    def test_saturates_to_zero_with_margin(self):
        losses = []
        for margin in (5.0, 20.0, 80.0):
            logits = np.zeros((1, 3))
            logits[0, 2] = margin
            losses.append(cross_entropy(T.constant(logits), np.array([2])).item())
        assert losses[0] > losses[1] > losses[2]
        assert losses[2] < 1e-12

    def test_direct_evaluation(self):
        out = cross_entropy(T.constant([[math.log(2.0), 0.0]]), np.array([0]))
        assert out.item() == pytest.approx(-math.log(2.0 / 3.0), abs=1e-12)

    def test_label_out_of_range(self):
        with pytest.raises(ContractError):
            cross_entropy(T.constant(np.zeros((2, 3))), np.array([0, 3]))


class TestSupInfoNCE:
    def test_no_negatives_is_zero(self):
        b = batch([E1, E1], [0, 0])
        assert sup_infonce(b).item() == pytest.approx(0.0, abs=1e-12)

    def test_equal_pos_neg_similarity(self):
        # s+ = s- = 1 -> -log(e/(e+e)) = ln 2
        b = batch([E1, E1, E1], [0, 0, 1])
        assert sup_infonce(b, theta=1.0).item() == pytest.approx(math.log(2.0), abs=1e-12)

    def test_unit_pos_zero_neg(self):
        # s+ = 1, s- = 0 -> -log(e/(e+1))
        b = batch([E1, E1, E2], [0, 0, 1])
        expected = -math.log(math.e / (math.e + 1.0))
        assert sup_infonce(b, theta=1.0).item() == pytest.approx(expected, abs=1e-12)

    def test_positive_free_batch_raises(self):
        with pytest.raises(DegenerateBatchError):
            sup_infonce(batch([E1, E2], [0, 1]))

    def test_skipped_anchors_counted(self):
        rep = contrastive_report(batch([E1, E1, E2], [0, 0, 1]))
        assert rep.n_pairs == 2

    @settings(deadline=None, max_examples=60)
    @given(st.lists(st.integers(-2, 3), min_size=1, max_size=12), st.integers(0, 2**32 - 1))
    def test_report_matches_pair_masks(self, labels, seed):
        labels = np.asarray(labels)
        mask = np.random.default_rng(seed).random(labels.size) < 0.6
        mask[0] = True
        b = ContrastiveBatch(T.constant(np.ones((labels.size, 2))), labels, anchor_mask=mask)
        same = labels[:, None] == labels[None, :]
        per_anchor = (same & ~np.eye(labels.size, dtype=bool)).sum(axis=1)[mask]
        rep = contrastive_report(b)
        assert rep.n_pairs == int(per_anchor.sum())


class TestIrmGradTheta:
    def test_all_similarities_equal_gives_zero(self):
        b = batch([E1, E1, E1], [0, 0, 1])
        assert irm_grad_theta(b).item() == pytest.approx(0.0, abs=1e-12)

    def test_direct_evaluation(self):
        # softmax over {1, 0} at theta=1 puts e/(e+1) on the positive:
        # grad = E[s] - s+ = e/(e+1) - 1
        b = batch([E1, E1, E2], [0, 0, 1])
        expected = math.e / (math.e + 1.0) - 1.0
        assert irm_grad_theta(b).item() == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_finite_difference_in_theta(self, seed):
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(8, 5))
        labels = rng.integers(0, 3, size=8)
        if len(np.unique(labels)) < 2:
            labels[0] = (labels[0] + 1) % 3
        b = batch(feats, labels)
        eps = 1e-5
        hi = sup_infonce(batch(feats, labels), theta=1.0 + eps).item()
        lo = sup_infonce(batch(feats, labels), theta=1.0 - eps).item()
        fd = (hi - lo) / (2.0 * eps)
        analytic = irm_grad_theta(b).item()
        assert abs(analytic - fd) / max(abs(fd), 1e-3) < 1e-6


class TestModalityIrm:
    def test_symmetric_environments_zero_penalty(self):
        envs = {
            "2d": batch([E1, E1, E1], [0, 0, 1]),
            "3d": batch([E2, E2, E2], [0, 0, 1]),
        }
        expected = sum(sup_infonce(b).item() for b in envs.values())
        assert irmv1(envs, 7.0).item() == pytest.approx(expected, abs=1e-12)

    def test_lambda_zero_is_sum_of_risks(self):
        rng = np.random.default_rng(0)
        envs = {
            "2d": batch(rng.normal(size=(6, 4)), [0, 0, 1, 1, 2, 2]),
            "3d": batch(rng.normal(size=(6, 4)), [0, 0, 1, 1, 2, 2]),
        }
        got = irmv1(envs, 0.0).item()
        expected = sum(sup_infonce(b).item() for b in envs.values())
        assert got == pytest.approx(expected, abs=1e-12)

    def test_recomposition_oracle(self):
        rng = np.random.default_rng(1)
        envs = {
            "2d": batch(rng.normal(size=(6, 4)), [0, 0, 1, 1, 2, 2]),
            "3d": batch(rng.normal(size=(6, 4)), [0, 1, 1, 0, 2, 2]),
        }
        lam = 5.0
        got = irmv1(envs, lam).item()
        expected = sum(
            sup_infonce(b).item() + lam * irm_grad_theta(b).item() ** 2
            for b in envs.values()
        )
        assert got == pytest.approx(expected, rel=1e-12)

    def test_penalty_nonnegative_and_zero_iff_gradients_zero(self):
        rng = np.random.default_rng(2)
        for trial in range(10):
            feats = rng.normal(size=(6, 4))
            labels = np.array([0, 0, 1, 1, 2, 2])
            envs = {"a": batch(feats, labels), "b": batch(rng.normal(size=(6, 4)), labels)}
            lam = 3.0
            penalty = irmv1(envs, lam).item() - sum(
                sup_infonce(b).item() for b in envs.values()
            )
            assert penalty >= -1e-12
            grads_zero = all(abs(irm_grad_theta(b).item()) < 1e-15 for b in envs.values())
            assert (abs(penalty) < 1e-12) == grads_zero

    def _six_row_envs(self):
        rng = np.random.default_rng(3)
        labels = [0, 0, 1, 1, 2, 2]
        return {"2d": batch(rng.normal(size=(6, 4)), labels),
                "3d": batch(rng.normal(size=(6, 4)), labels)}

    def test_rex_variants_read_their_own_theta_and_beta(self):
        envs = self._six_row_envs()
        at_theta = [sup_infonce(b, theta=INV_THETA) for b in envs.values()]
        assert (modality_irm_loss(envs, "v_rex", 0.0, 0.0).item()
                == v_rex(at_theta, REX_BETA).item())
        assert (modality_irm_loss(envs, "mm_rex", 0.0, 0.25).item()
                == mm_rex(at_theta, 0.25).item())

    @pytest.mark.parametrize("variant", ["mmrex", "irm", "V_REX", ""])
    def test_unknown_variant_rejected(self, variant):
        # not scored as V-REx, the last variant the function reads
        with pytest.raises(ContractError, match=re.escape(f"expected one of {IRM_VARIANTS}")):
            modality_irm_loss(self._six_row_envs(), variant, 5.0, 0.0)


def risks(values):
    return [T.constant(v) for v in values]


class TestRexVariants:
    def test_mm_rex_equal_risks(self):
        assert mm_rex(risks([1.0, 1.0]), 0.0).item() == pytest.approx(1.0)

    def test_mm_rex_picks_max(self):
        assert mm_rex(risks([1.0, 3.0]), 0.0).item() == pytest.approx(3.0)

    def test_mm_rex_direct_evaluation(self):
        assert mm_rex(risks([1.0, 3.0]), 0.5).item() == pytest.approx((1 - 1) * 3 + 0.5 * 4)

    @given(st.lists(st.floats(0, 10), min_size=2, max_size=5))
    def test_mm_rex_at_cap_forces_uniform_weights(self, losses):
        # lambda_min = 1/m collapses the weight simplex to a point
        m = len(losses)
        assert mm_rex(risks(losses), 1.0 / m).item() == pytest.approx(sum(losses) / m, abs=1e-9)

    def test_v_rex_zero_variance(self):
        assert v_rex(risks([1.0, 1.0]), 123.0).item() == pytest.approx(2.0)

    def test_v_rex_beta_zero_is_erm(self):
        assert v_rex(risks([0.5, 1.5, 2.0]), 0.0).item() == pytest.approx(4.0)

    def test_v_rex_direct_evaluation(self):
        assert v_rex(risks([1.0, 3.0]), 1.0).item() == pytest.approx(5.0)

    @given(st.floats(0, 50), st.lists(st.floats(0, 5), min_size=2, max_size=4))
    def test_v_rex_constant_losses_ignore_beta(self, beta, base):
        losses = [base[0]] * len(base)
        assert v_rex(risks(losses), beta).item() == pytest.approx(sum(losses), rel=1e-9)

    def test_tensor_inputs_stay_differentiable(self):
        xs = [T.parameter([float(v)], name=f"x{v}") for v in (1.0, 3.0)]
        scalars = [T.reshape(x, ()) for x in xs]
        T.backward(v_rex(scalars, 1.0))
        assert all(x.grad is not None for x in xs)


class TestAlignment:
    def test_singleton_raises_by_default(self):
        z = T.constant(E1[None, :])
        with pytest.raises(DegenerateBatchError):
            nt_xent_align(z, z, tau=1.0)

    def test_batch_two_direct_evaluation(self):
        # positives at cosine 1, the single cross negative at cosine 0:
        # every anchor contributes -log(e/(e+1))
        z2 = T.constant(np.stack([E1, E2]))
        z3 = T.constant(np.stack([E1, E2]))
        expected = -math.log(math.e / (math.e + 1.0))
        assert nt_xent_align(z2, z3, tau=1.0).item() == pytest.approx(expected, abs=1e-12)

    def test_only_product_tau_similarity_enters(self):
        rng = np.random.default_rng(3)
        a, b = rng.normal(size=(4, 5)), rng.normal(size=(4, 5))
        base = nt_xent_align(T.constant(a), T.constant(b), tau=2.0).item()
        # cosine similarities are scale-invariant, so scaling features while
        # keeping tau fixed must not change the loss
        same = nt_xent_align(T.constant(3.0 * a), T.constant(b * 0.5), tau=2.0).item()
        assert same == pytest.approx(base, rel=1e-12)

    @pytest.mark.parametrize("seed", range(5))
    def test_symmetric_in_modality_roles(self, seed):
        rng = np.random.default_rng(seed)
        a, b = rng.normal(size=(5, 4)), rng.normal(size=(5, 4))
        fwd = nt_xent_align(T.constant(a), T.constant(b), tau=4.0).item()
        rev = nt_xent_align(T.constant(b), T.constant(a), tau=4.0).item()
        assert fwd == pytest.approx(rev, rel=1e-12)


class TestCombineObjective:
    def test_inv_backward_reaches_gate_only(self):
        rng = np.random.default_rng(4)
        gate = GateMask(4)
        enc_out = T.parameter(rng.normal(size=(6, 4)), name="feat")  # stands in for E params
        labels = np.array([0, 0, 1, 1, 2, 2])
        envs = {
            "2d": ContrastiveBatch(gate.apply(T.constant(enc_out.data)), labels),
            "3d": ContrastiveBatch(gate.apply(rng.normal(size=(6, 4))), labels),
        }
        T.backward(irmv1(envs, 5.0))
        assert gate.mask_logits.grad is not None
        assert enc_out.grad is None


# -- several-input fused nodes against the composites they replace -------------
#
# Each loss term, and each tensor node of more than one input, is one tape
# node whose forward pass and VJP repeat its composite's numpy operations in
# order. The composites in `oracles` are the primitive-op versions; the fused
# nodes must match them bit for bit, in value and in every leaf gradient, with
# further consumers of each input on both sides of the node.


LABELS6 = np.array([0, 0, 1, 1, 2, 0])
ANCHORS6 = np.array([True, False, True, True, False, False])
LABELS5 = np.array([1, 0, 1, 0, 0])
VIEWS = np.random.default_rng(9).normal(size=(2, 3, 4))


def _env(x, labels=LABELS6, anchors=None):
    return ContrastiveBatch(x, labels, anchor_mask=anchors)


def _gate_envs(xs):
    """Two environments gated by one mask, each through its own sigmoid, as
    GateMask.apply builds them."""
    return {"2d": _env(T.mul(T.sigmoid(xs[0]), xs[1]), anchors=ANCHORS6),
            "3d": _env(T.mul(T.sigmoid(xs[0]), xs[2]), LABELS6[::-1].copy())}


LOSS_CASES = [
    # the encoders' and view attention's maps (w's gradient over constant
    # [B, N, d] views is the batched product summed over the batch) and the
    # 2D head's per-view logits, over 3 views so that the view mean's 1/3 rounds
    ("affine", lambda xs: T.affine(*xs), lambda xs: oracles.composite_affine(*xs),
     [(5, 3), (3, 4), (4,)]),
    ("affine_views", lambda xs: T.affine(T.constant(VIEWS), *xs),
     lambda xs: oracles.composite_affine(T.constant(VIEWS), *xs), [(4, 4), (4,)]),
    ("affine_grad_views", lambda xs: T.affine(*xs), lambda xs: oracles.composite_affine(*xs),
     [(2, 3, 4), (4, 2), (1, 2)]),
    ("affine_shared", lambda xs: T.affine(xs[0], xs[1], T.mean_(xs[0], axis=0)),
     lambda xs: oracles.composite_affine(xs[0], xs[1], T.mean_(xs[0], axis=0)), [(3, 3), (3, 3)]),
    ("view_cosine", lambda xs: T.view_cosine(*xs), lambda xs: oracles.composite_view_cosine(*xs),
     [(2, 3, 4), (5, 4)]),
    ("view_cosine_encoded", lambda xs: T.view_cosine(T.affine(T.constant(VIEWS), *xs[:2]), xs[2]),
     lambda xs: oracles.composite_view_cosine(
         oracles.composite_affine(T.constant(VIEWS), *xs[:2]), xs[2]), [(4, 4), (4,), (5, 4)]),
    # view attention's weights over the views, and a softmax over a middle axis
    ("softmax", lambda xs: T.softmax(xs[0]), lambda xs: oracles.composite_softmax(xs[0]), [(4, 5)]),
    ("softmax_axis1", lambda xs: T.softmax(xs[0], axis=1),
     lambda xs: oracles.composite_softmax(xs[0], axis=1), [(2, 3, 4)]),
    ("cross_entropy", lambda xs: cross_entropy(xs[0], np.array([2, 0, 3, 3, 1])),
     lambda xs: oracles.composite_cross_entropy(xs[0], np.array([2, 0, 3, 3, 1])), [(5, 4)]),
    # the 2D branch's loss path, as training builds it: 5 rows, so the mean's 1/5 rounds
    ("cross_entropy_views", lambda xs: cross_entropy(T.view_cosine(xs[0], xs[1]), LABELS5),
     lambda xs: oracles.composite_cross_entropy(oracles.composite_view_cosine(xs[0], xs[1]),
                                                LABELS5), [(5, 3, 4), (2, 4)]),
    ("sup_infonce", lambda xs: sup_infonce(_env(xs[0]), theta=2.5),
     lambda xs: oracles.composite_sup_infonce(_env(xs[0]), theta=2.5), [(6, 3)]),
    ("sup_infonce_anchored", lambda xs: sup_infonce(_env(xs[0], anchors=ANCHORS6)),
     lambda xs: oracles.composite_sup_infonce(_env(xs[0], anchors=ANCHORS6)), [(6, 3)]),
    ("irm_grad_theta", lambda xs: oracles.square(irm_grad_theta(_env(xs[0]))),
     lambda xs: oracles.square(oracles.composite_irm_grad_theta(_env(xs[0]))), [(6, 3)]),
    ("irmv1", lambda xs: irmv1(
        {"a": _env(xs[0]), "b": _env(xs[1], LABELS6[::-1].copy(), ANCHORS6)}, 5.0),
     lambda xs: oracles.composite_irmv1(
         {"a": _env(xs[0]), "b": _env(xs[1], LABELS6[::-1].copy(), ANCHORS6)}, 5.0),
     [(6, 3), (6, 3)]),
    ("irmv1_gate", lambda xs: irmv1(_gate_envs(xs), 3.0),
     lambda xs: oracles.composite_irmv1(_gate_envs(xs), 3.0), [(3,), (6, 3), (6, 3)]),
    ("v_rex", lambda xs: v_rex([T.sum_(oracles.square(xs[0])), T.mean_(xs[1]), T.sum_(xs[0])], 2.0),
     lambda xs: oracles.composite_v_rex([T.sum_(oracles.square(xs[0])), T.mean_(xs[1]), T.sum_(xs[0])], 2.0),
     [(3,), (4,)]),
    ("v_rex_gate", lambda xs: v_rex([sup_infonce(b, theta=5.0) for b in _gate_envs(xs).values()],
                                    1.0),
     lambda xs: oracles.composite_v_rex([oracles.composite_sup_infonce(b, theta=5.0)
                                  for b in _gate_envs(xs).values()], 1.0),
     [(3,), (6, 3), (6, 3)]),
    ("mm_rex_gate", lambda xs: mm_rex([sup_infonce(b, theta=5.0) for b in _gate_envs(xs).values()],
                                      0.2),
     lambda xs: mm_rex([oracles.composite_sup_infonce(b, theta=5.0)
                        for b in _gate_envs(xs).values()], 0.2),
     [(3,), (6, 3), (6, 3)]),
    ("nt_xent_align", lambda xs: nt_xent_align(xs[0], xs[1], tau=2.0),
     lambda xs: oracles.composite_nt_xent(xs[0], xs[1], 2.0), [(5, 3), (5, 3)]),
    ("nt_xent_align_shared", lambda xs: nt_xent_align(xs[0], T.mul(xs[0], xs[1]), tau=3.0),
     lambda xs: oracles.composite_nt_xent(xs[0], T.mul(xs[0], xs[1]), 3.0), [(4, 3), (4, 3)]),
]


@pytest.mark.parametrize("name,fused,composite,shapes", LOSS_CASES, ids=[c[0] for c in LOSS_CASES])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_fused_loss_bit_identical_to_composite(name, fused, composite, shapes, seed):
    got = oracles.run_with_consumers(fused, shapes, seed)
    want = oracles.run_with_consumers(composite, shapes, seed)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a.shape == b.shape and np.array_equal(a, b), f"{name}: output {i}"


def test_fused_losses_record_one_node():
    x = T.parameter(np.random.default_rng(0).normal(size=(6, 3)))
    risks = [T.sum_(x), T.mean_(x)]
    assert cross_entropy(x, LABELS6 % 3)._parents == (x,)
    assert sup_infonce(_env(x))._parents == (x, x)
    assert irm_grad_theta(_env(x))._parents == (x, x)
    inv = irmv1({"a": _env(x), "b": _env(x)}, 5.0)
    assert [p._parents for p in inv._parents] == [(x,) * 4, (x,) * 4]
    assert v_rex(risks, 1.0)._parents == tuple(risks)
    assert nt_xent_align(x, x, tau=1.0)._parents == (x,) * 4


OVERFLOW_CASES = [
    # each composite overflows an intermediate (exp, a square, a product)
    ("sup_infonce", lambda x: sup_infonce(_env(x), theta=1e3),
     lambda x: oracles.composite_sup_infonce(_env(x), theta=1e3)),
    ("nt_xent_align", lambda x: nt_xent_align(x, T.constant(x.data[::-1].copy()), tau=1e3),
     lambda x: oracles.composite_nt_xent(x, T.constant(x.data[::-1].copy()), 1e3)),
    ("irmv1", lambda x: irmv1({"a": _env(x), "b": _env(x)}, np.inf),
     lambda x: oracles.composite_irmv1({"a": _env(x), "b": _env(x)}, np.inf)),
    ("v_rex", lambda x: v_rex([T.sum_(x), T.constant(1e200)], 1.0),
     lambda x: oracles.composite_v_rex([T.sum_(x), T.constant(1e200)], 1.0)),
    ("cross_entropy", lambda x: cross_entropy(T.mul(x, T.constant(np.inf)), LABELS6 % 3),
     lambda x: oracles.composite_cross_entropy(T.mul(x, T.constant(np.inf)), LABELS6 % 3)),
]


@pytest.mark.parametrize("name,fused,composite", OVERFLOW_CASES,
                         ids=[c[0] for c in OVERFLOW_CASES])
def test_fused_loss_equals_composite_on_overflow(name, fused, composite):
    # the fused node equals its composite, NaN and Inf included
    x = T.constant(np.random.default_rng(5).normal(size=(6, 3)))
    with np.errstate(all="ignore"):
        got, want = fused(x).data, composite(x).data
    assert not np.all(np.isfinite(want)), name
    assert np.array_equal(got, want, equal_nan=True), name


@pytest.mark.parametrize("spread,theta", [(1.0, 709.0)], ids=["near_overflow"])
def test_anchored_pool_equals_composite_at_large_theta(spread, theta):
    # with rows far apart at theta = 709, past the documented bound for six
    # rows, no exp overflows: the anchor rows alone still equal the composite
    # in value and gradient
    x = E1 + spread * np.random.default_rng(0).normal(size=(6, 3))
    got, want = [], []
    for loss, out in ((sup_infonce, got), (oracles.composite_sup_infonce, want)):
        leaf = T.parameter(x)
        with np.errstate(all="ignore"):
            y = loss(_env(leaf, anchors=ANCHORS6), theta=theta)
            T.backward(y)
        out += [y.data, leaf.grad]
    assert np.isfinite(want[0])
    for a, b in zip(got, want):
        assert np.array_equal(a, b, equal_nan=True)


@st.composite
def _anchored_pools(draw):
    """(labels, anchor mask, feature dim, seed) of a pool with 2-12 rows."""
    n = draw(st.integers(2, 12))
    labels = np.array(draw(st.lists(st.integers(0, draw(st.integers(0, 3))),
                                    min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["one", "scattered", "all", "none"]))
    if kind == "one":
        mask = np.arange(n) == draw(st.integers(0, n - 1))
    elif kind == "scattered":
        mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        mask = np.ones(n, dtype=bool) if kind == "all" else None
    return labels, mask, draw(st.integers(1, 4)), draw(st.integers(0, 2**32 - 1))


@settings(deadline=2000, max_examples=60)
@given(_anchored_pools())
def test_anchored_pools_bit_identical_to_composite(pool):
    labels, mask, d, seed = pool

    def env(x):
        return ContrastiveBatch(x, labels, anchor_mask=mask)

    cases = [
        (lambda xs: sup_infonce(env(xs[0]), theta=1.0),
         lambda xs: oracles.composite_sup_infonce(env(xs[0]), theta=1.0)),
        (lambda xs: sup_infonce(env(xs[0]), theta=5.0),
         lambda xs: oracles.composite_sup_infonce(env(xs[0]), theta=5.0)),
        (lambda xs: irm_grad_theta(env(xs[0])), lambda xs: oracles.composite_irm_grad_theta(env(xs[0]))),
        (lambda xs: irmv1({"a": env(xs[0]), "b": env(xs[1])}, 5.0),
         lambda xs: oracles.composite_irmv1({"a": env(xs[0]), "b": env(xs[1])}, 5.0)),
    ]
    for fused, composite in cases:
        try:
            got = oracles.run_with_consumers(fused, [(len(labels), d)] * 2, seed)
        except DegenerateBatchError:      # no anchor has a positive, or no anchor at all
            return
        want = oracles.run_with_consumers(composite, [(len(labels), d)] * 2, seed)
        for a, b in zip(got, want):
            assert np.array_equal(a, b)


def _pair_weights_oracle(batch):
    """`_pair_weights` from the mask definitions, one [a, n] pass per step:
    positives are the other rows with the anchor's label, kept on anchor rows."""
    labels, mask = batch.labels, batch.anchor_mask
    index = np.arange(len(labels))
    rows = slice(None) if mask is None or mask.all() else index[mask]
    same = labels[rows, None] == labels
    pos = same & (index[rows, None] != index)
    if mask is not None:
        pos &= mask[rows, None]
    n_pairs = int(pos.sum())
    if n_pairs == 0:
        raise DegenerateBatchError("no anchor has a positive")
    return rows, (~same).astype(float), pos.astype(float), 1.0 / n_pairs


def _same_array(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(deadline=2000, max_examples=150)
@given(n=st.integers(2, 130), n_labels=st.integers(1, 6),
       kind=st.sampled_from(["none", "all", "partial"]), seed=st.integers(0, 2**32 - 1))
def test_pair_weights_equal_oracle(n, n_labels, kind, seed):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_labels, n)
    mask = None if kind == "none" else np.ones(n, dtype=bool)
    if kind == "partial":       # at least one anchor and one context row
        mask = rng.random(n) < rng.uniform(0.05, 0.95)
        mask[rng.choice(n, 2, replace=False)] = [True, False]
    pool = ContrastiveBatch(T.constant(np.ones((n, 2))), labels, anchor_mask=mask)
    n_pairs = contrastive_report(pool).n_pairs      # the trainer's environment filter
    try:
        want = _pair_weights_oracle(pool)
    except DegenerateBatchError:
        assert n_pairs == 0
        with pytest.raises(DegenerateBatchError):
            _pair_weights(pool)
        return
    rows, negf, posf, scale = _pair_weights(pool)
    if isinstance(want[0], slice):
        assert rows == want[0]
    else:
        assert _same_array(rows, want[0])
    assert _same_array(negf, want[1]) and _same_array(posf, want[2]) and scale == want[3]
    assert 1.0 / n_pairs == want[3]


def test_pool_without_pairs_raises():
    pool = ContrastiveBatch(T.constant(np.ones((4, 2))), [0, 1, 2, 2],
                            anchor_mask=[True, True, False, False])
    assert contrastive_report(pool).n_pairs == 0
    with pytest.raises(DegenerateBatchError):
        _pair_weights(pool)
