import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from invgate import tensor as T
from invgate.encoders import GateMask
from invgate.errors import ContractError, DegenerateBatchError
from invgate.losses import (
    ContrastiveBatch,
    IRMConfig,
    ObjectiveTerms,
    combine_objective,
    contrastive_report,
    cross_entropy,
    irm_grad_theta,
    mm_rex,
    modality_irm_loss,
    nt_xent_align,
    sup_infonce,
    v_rex,
)

E1 = np.array([1.0, 0.0, 0.0])
E2 = np.array([0.0, 1.0, 0.0])


def batch(features, labels):
    return ContrastiveBatch(T.constant(np.asarray(features, dtype=float)), np.asarray(labels))


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
        assert rep.n_anchors == 3
        assert rep.n_pairs == 2
        assert rep.n_skipped_anchors == 1

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
        assert (rep.n_anchors, rep.n_pairs, rep.n_skipped_anchors) == (
            int(mask.sum()), int(per_anchor.sum()), int((per_anchor == 0).sum()))


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
        cfg = IRMConfig(lam=7.0)
        expected = sum(sup_infonce(b).item() for b in envs.values())
        assert modality_irm_loss(envs, cfg).item() == pytest.approx(expected, abs=1e-12)

    def test_lambda_zero_is_sum_of_risks(self):
        rng = np.random.default_rng(0)
        envs = {
            "2d": batch(rng.normal(size=(6, 4)), [0, 0, 1, 1, 2, 2]),
            "3d": batch(rng.normal(size=(6, 4)), [0, 0, 1, 1, 2, 2]),
        }
        got = modality_irm_loss(envs, IRMConfig(lam=0.0)).item()
        expected = sum(sup_infonce(b).item() for b in envs.values())
        assert got == pytest.approx(expected, abs=1e-12)

    def test_recomposition_oracle(self):
        rng = np.random.default_rng(1)
        envs = {
            "2d": batch(rng.normal(size=(6, 4)), [0, 0, 1, 1, 2, 2]),
            "3d": batch(rng.normal(size=(6, 4)), [0, 1, 1, 0, 2, 2]),
        }
        lam = 5.0
        got = modality_irm_loss(envs, IRMConfig(lam=lam)).item()
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
            penalty = modality_irm_loss(envs, IRMConfig(lam=lam)).item() - sum(
                sup_infonce(b).item() for b in envs.values()
            )
            assert penalty >= -1e-12
            grads_zero = all(abs(irm_grad_theta(b).item()) < 1e-15 for b in envs.values())
            assert (abs(penalty) < 1e-12) == grads_zero

    def test_single_environment_rejected(self):
        with pytest.raises(ContractError):
            modality_irm_loss({"2d": batch([E1, E1], [0, 0])}, IRMConfig())


def risks(values):
    return [T.constant(v) for v in values]


class TestRexVariants:
    def test_mm_rex_equal_risks(self):
        assert mm_rex(risks([1.0, 1.0]), 0.0).item() == pytest.approx(1.0)

    def test_mm_rex_picks_max(self):
        assert mm_rex(risks([1.0, 3.0]), 0.0).item() == pytest.approx(3.0)

    def test_mm_rex_direct_evaluation(self):
        assert mm_rex(risks([1.0, 3.0]), 0.5).item() == pytest.approx((1 - 1) * 3 + 0.5 * 4)

    def test_mm_rex_lambda_min_cap(self):
        with pytest.raises(ContractError):
            mm_rex(risks([1.0, 2.0]), 0.6)

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
    def test_degenerate_config_is_ce_alone(self):
        ce = T.constant(np.array([1.0, 3.0]))
        total, plan = combine_objective(ObjectiveTerms(ce=ce, inv=None, align=None))
        assert total.item() == pytest.approx(2.0)
        assert plan == {"ce": ("e2d", "e3d")}

    def test_recomposition(self):
        ce = T.constant(np.array([1.0, 3.0]))
        inv = T.constant(0.7)
        align = T.constant(0.2)
        total, plan = combine_objective(ObjectiveTerms(ce=ce, inv=inv, align=align, alpha=5.0))
        assert total.item() == pytest.approx(2.0 + 0.7 + 5.0 * 0.2)
        assert set(plan) == {"ce", "inv", "align"}
        assert plan["inv"] == ("gate",)

    def test_inv_backward_reaches_gate_only(self):
        rng = np.random.default_rng(4)
        gate = GateMask(4)
        enc_out = T.parameter(rng.normal(size=(6, 4)), name="feat")  # stands in for E params
        labels = np.array([0, 0, 1, 1, 2, 2])
        envs = {
            "2d": ContrastiveBatch(gate.apply(enc_out.detach(), learn=True), labels),
            "3d": ContrastiveBatch(gate.apply(rng.normal(size=(6, 4)), learn=True), labels),
        }
        T.backward(modality_irm_loss(envs, IRMConfig(lam=5.0)))
        assert gate.mask_logits.grad is not None
        assert enc_out.grad is None
