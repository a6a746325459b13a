import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from invgate.errors import ContractError, NumericError
from invgate.fusion import (
    EvalRecord,
    FusionConfig,
    confusion_csv,
    confusion_matrix,
    conflict_ratio,
    fuse,
    predict,
    softmax_np,
)

MUL = FusionConfig(phi=1.0, mode="multiplicative")


def softmax_oracle(x, axis=-1):
    """Max-shift, exp, divide by the sum: the formula softmax_np must equal."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 40).flatmap(lambda c: st.one_of(
    arrays(np.float64, (c,), elements=st.floats(-1e3, 1e3)),
    st.integers(1, 64).flatmap(
        lambda n: arrays(np.float64, (n, c), elements=st.floats(-1e3, 1e3))))))
def test_softmax_np_equals_oracle_bit_for_bit(x):
    assert softmax_np(x).tobytes() == softmax_oracle(x).tobytes()


class TestFuse:
    def test_uniform_case(self):
        out = fuse(np.array([0.0, 0.0]), np.array([0.0, 0.0]), MUL)
        np.testing.assert_allclose(out, [0.25, 0.25])

    def test_large_phi_defers_to_3d(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            f2 = rng.normal(size=6)
            f3 = rng.normal(size=6)
            out = fuse(f2, f3, FusionConfig(phi=1e6))
            assert predict(out) == predict(softmax_np(f3))

    def test_exact_tie_example(self):
        # softmax([ln2, 0]) = [2/3, 1/3]; the cross product ties at 2/9
        out = fuse(np.array([math.log(2.0), 0.0]), np.array([0.0, math.log(2.0)]), MUL)
        np.testing.assert_allclose(out, [2.0 / 9.0, 2.0 / 9.0], atol=1e-15)

    def test_additive_mode(self):
        f2, f3 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
        out = fuse(f2, f3, FusionConfig(mode="additive"))
        np.testing.assert_allclose(out, softmax_np(f2) + softmax_np(f3))

    def test_mode_aliases(self):
        assert FusionConfig(mode="mul").mode == "multiplicative"
        assert FusionConfig(mode="add").mode == "additive"

    def test_nonfinite_rejected(self):
        with pytest.raises(NumericError):
            fuse(np.array([np.inf, 0.0]), np.array([0.0, 0.0]), MUL)

    def test_bad_phi(self):
        with pytest.raises(ContractError):
            FusionConfig(phi=0.0)

    @pytest.mark.parametrize("phi", [float("nan"), -float("inf"), float("inf"), "x"])
    def test_nan_phi_rejected(self, phi):
        with pytest.raises(ContractError):
            FusionConfig(phi=phi)

    @given(arrays(np.float64, (5,), elements=st.floats(-8, 8)),
           arrays(np.float64, (5,), elements=st.floats(-8, 8)),
           st.floats(-5, 5))
    def test_shift_invariance(self, f2, f3, shift):
        base = fuse(f2, f3, MUL)
        np.testing.assert_allclose(fuse(f2 + shift, f3, MUL), base, atol=1e-12)
        np.testing.assert_allclose(fuse(f2, f3 + shift, MUL), base, atol=1e-12)

    @given(arrays(np.float64, (6,), elements=st.floats(-8, 8)),
           st.floats(0.1, 10), st.floats(1.01, 3))
    def test_phi_flattens_2d_factor(self, f2, phi, growth):
        lo = softmax_np(f2 / phi).max()
        hi = softmax_np(f2 / (phi * growth)).max()
        assert hi <= lo + 1e-12

    @given(arrays(np.float64, (5,), elements=st.floats(-6, 6)),
           arrays(np.float64, (5,), elements=st.floats(-6, 6)))
    def test_add_mul_agree_when_branches_agree(self, f2, f3):
        p2, p3 = softmax_np(f2), softmax_np(f3)
        if predict(p2) != predict(p3):
            return
        mul_pred = predict(fuse(f2, f3, MUL))
        add_pred = predict(fuse(f2, f3, FusionConfig(mode="additive")))
        assert mul_pred == add_pred == predict(p2)


class TestPredict:
    def test_simple(self):
        assert predict(np.array([0.1, 0.9])) == 1

    def test_tie_break_to_smaller_index(self):
        assert predict(np.array([0.5, 0.5])) == 0

    @given(st.integers(0, 10_000))
    def test_matches_linear_scan(self, seed):
        scores = np.random.default_rng(seed).random(10)
        best, best_idx = -np.inf, -1
        for i, v in enumerate(scores):
            if v > best:
                best, best_idx = v, i
        assert predict(scores) == best_idx

    def test_batched(self):
        out = predict(np.array([[0.2, 0.8], [0.9, 0.1]]))
        np.testing.assert_array_equal(out, [1, 0])


class TestConflictRatio:
    def test_all_correct(self):
        p = np.zeros(4, dtype=int)
        assert conflict_ratio(p, p, p, p) == 0.0

    def test_joint_covers_branches(self):
        labels = np.array([0, 1, 2, 3])
        joint = labels.copy()
        p2 = np.array([0, 9, 9, 3])
        p3 = np.array([9, 1, 9, 9])
        assert conflict_ratio(p2, p3, joint, labels) == 0.0

    def test_set_algebra_example(self):
        # |T|=10; T2={1,2,3}, T3={3,4}, TJ={3} -> |{1,2,4}|/10
        labels = np.zeros(10, dtype=int)
        p2 = np.ones(10, dtype=int)
        p3 = np.ones(10, dtype=int)
        pj = np.ones(10, dtype=int)
        p2[[1, 2, 3]] = 0
        p3[[3, 4]] = 0
        pj[[3]] = 0
        assert conflict_ratio(p2, p3, pj, labels) == pytest.approx(0.3)

    def test_length_mismatch(self):
        with pytest.raises(ContractError):
            conflict_ratio(np.zeros(3), np.zeros(3), np.zeros(3), np.zeros(4))

    @given(st.integers(0, 1000))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        preds = [rng.integers(0, 3, 20) for _ in range(3)]
        labels = rng.integers(0, 3, 20)
        c = conflict_ratio(*preds, labels)
        assert 0.0 <= c <= 1.0


class TestConfusion:
    def test_perfect_predictor_diagonal(self):
        labels = np.array([0, 0, 1, 2, 2, 2])
        m = confusion_matrix(labels, labels, 3)
        np.testing.assert_array_equal(m, np.diag([2, 1, 3]))

    def test_constant_predictor_single_column(self):
        labels = np.array([0, 1, 2, 1])
        m = confusion_matrix(np.full(4, 2), labels, 3)
        assert m[:, 2].sum() == 4
        assert m.sum() == 4

    def test_tally_oracle(self):
        rng = np.random.default_rng(5)
        labels = rng.integers(0, 4, 30)
        preds = rng.integers(0, 4, 30)
        m = confusion_matrix(preds, labels, 4)
        for i in range(4):
            for j in range(4):
                assert m[i, j] == int(np.sum((labels == i) & (preds == j)))

    def test_row_sums_are_class_counts(self):
        rng = np.random.default_rng(6)
        labels = rng.integers(0, 5, 40)
        preds = rng.integers(0, 5, 40)
        m = confusion_matrix(preds, labels, 5)
        np.testing.assert_array_equal(m.sum(axis=1), np.bincount(labels, minlength=5))

    def test_out_of_range(self):
        with pytest.raises(ContractError):
            confusion_matrix(np.array([3]), np.array([0]), 3)

    @pytest.mark.parametrize("n,c,seed", [(0, 1, 0), (0, 4, 1), (1, 1, 2), (30, 4, 3),
                                          (160, 10, 4), (7, 12, 5)])
    def test_equals_add_at_oracle(self, n, c, seed):
        rng = np.random.default_rng(seed)
        labels, preds = rng.integers(0, c, n), rng.integers(0, c, n)
        want = np.zeros((c, c), dtype=np.int64)
        np.add.at(want, (labels, preds), 1)
        got = confusion_matrix(preds, labels, c)
        assert got.dtype == np.int64 and got.shape == (c, c) and np.array_equal(got, want)


class TestEvalRecord:
    def test_aggregates_and_csv(self):
        labels = np.array([0, 1, 1, 0])
        rec = EvalRecord(labels=labels, pred2=np.array([0, 1, 0, 0]),
                         pred3=np.array([1, 1, 1, 0]), pred_joint=np.array([0, 1, 1, 1]),
                         num_classes=2)
        assert rec.acc2 == pytest.approx(0.75)
        assert rec.acc3 == pytest.approx(0.75)
        assert rec.acc_joint == pytest.approx(0.75)
        csv = rec.per_sample_csv().strip().splitlines()
        assert csv[0] == "index,label,pred2,pred3,pred_joint"
        assert len(csv) == 5
        assert confusion_csv(rec.confusion2).count("\n") == 2
