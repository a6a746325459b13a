import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from invgate.config import RunConfig
from invgate.data import GeneratorConfig
from invgate.errors import ContractError, MixtureDegeneracyError
from invgate.harness import Trainer
from invgate.mining import (
    MixtureFit,
    MixtureStack,
    _topk_overlaps,
    fit_gmm2,
    posterior_small,
    select_joint_hard,
    select_modality_hard,
    wrong_class_confidence,
)

from oracles import topk_indices, topk_overlap

BIMODAL = np.array([0.1, 0.1, 0.1, 0.1, 5.0, 5.0])


def _normal_pdf(x, mean, var):
    return np.exp(-0.5 * (x - mean) ** 2 / var) / np.sqrt(2 * np.pi * var)


def _loglik(x, means, variances, weights):
    dens = sum(w * _normal_pdf(x, m, v) for m, v, w in zip(means, variances, weights))
    return float(np.log(dens).sum())


def _split_oracle(x, var_floor=1e-6):
    """Best two-component fit over all contiguous splits of the sorted data."""
    xs = np.sort(x)
    best = None
    for cut in range(1, len(xs)):
        lo, hi = xs[:cut], xs[cut:]
        means = np.array([lo.mean(), hi.mean()])
        variances = np.maximum(np.array([lo.var(), hi.var()]), var_floor)
        weights = np.array([len(lo), len(hi)], dtype=float) / len(xs)
        ll = _loglik(xs, means, variances, weights)
        if best is None or ll > best[0]:
            best = (ll, means, weights)
    return best


class TestFitGmm2:
    def test_two_atom_data_matches_split_oracle(self):
        _, oracle_means, oracle_weights = _split_oracle(BIMODAL)
        fit = fit_gmm2(BIMODAL)
        np.testing.assert_allclose(fit.means, oracle_means, atol=1e-3)
        np.testing.assert_allclose(fit.weights, oracle_weights, atol=1e-3)
        np.testing.assert_allclose(fit.means, [0.1, 5.0], atol=1e-3)
        np.testing.assert_allclose(fit.weights, [2 / 3, 1 / 3], atol=1e-3)

    def test_planted_mixture_recovery(self):
        rng = np.random.default_rng(42)
        draws = np.concatenate(
            [rng.normal(1.0, 0.1, size=100), rng.normal(4.0, 0.1, size=100)]
        )
        fit = fit_gmm2(draws)
        assert abs(fit.means[0] - 1.0) < 0.2
        assert abs(fit.means[1] - 4.0) < 0.2

    def test_symmetric_data_balanced_weights(self):
        # bimodal sample mirrored about its mean: half the mass per mode
        rng = np.random.default_rng(7)
        half = rng.normal(1.0, 0.1, size=250)
        data = np.concatenate([half, 4.0 - half])
        fit = fit_gmm2(data)
        assert abs(fit.weights[0] - 0.5) < 0.05

    def test_loglik_monotone(self):
        rng = np.random.default_rng(3)
        data = np.concatenate([rng.normal(0.5, 0.2, 80), rng.normal(3.0, 0.4, 40)])
        fit = fit_gmm2(data)
        diffs = np.diff(fit.loglik_path)
        assert np.all(diffs >= -1e-9)

    def test_identical_losses_degenerate(self):
        with pytest.raises(MixtureDegeneracyError):
            fit_gmm2(np.full(10, 0.25))

    def test_too_few_samples(self):
        with pytest.raises(ContractError):
            fit_gmm2(np.array([1.0, 2.0, 3.0]))

    def test_component_order_normalized(self):
        fit = fit_gmm2(np.array([5.0, 5.0, 5.1, 0.1, 0.1, 0.2]))
        assert fit.means[0] <= fit.means[1]


class TestPosterior:
    def tight_fit(self):
        return MixtureFit(
            means=np.array([0.0, 10.0]),
            variances=np.array([0.01, 0.01]),
            weights=np.array([0.5, 0.5]),
            iterations=1,
            converged=True,
        )

    def test_component_mean_dominance(self):
        fit = self.tight_fit()
        np.testing.assert_array_less(0.999, posterior_small(fit, np.array([0.0])))
        np.testing.assert_array_less(posterior_small(fit, np.array([10.0])), 0.001)

    def test_equal_likelihood_crossing(self):
        # equal weights and variances cross exactly at the midpoint
        fit = self.tight_fit()
        assert posterior_small(fit, np.array([5.0]))[0] == pytest.approx(0.5, abs=1e-9)

    def test_monotone_between_means_when_separated(self):
        fit = MixtureFit(
            means=np.array([0.0, 8.0]),
            variances=np.array([0.5, 1.0]),
            weights=np.array([0.6, 0.4]),
            iterations=1,
            converged=True,
        )
        # separation 8 > 3 * (sqrt(.5) + 1)
        grid = np.linspace(fit.means[0], fit.means[1], 200)
        post = posterior_small(fit, grid)
        assert np.all(np.diff(post) <= 1e-12)


class TestSelectModalityHard:
    def test_p_zero_empty(self):
        assert select_modality_hard(BIMODAL, 0.0, fit=fit_gmm2(BIMODAL)).size == 0

    def test_p_one_selects_everything_below_one(self):
        fit = fit_gmm2(BIMODAL)
        got = select_modality_hard(BIMODAL, 1.0, fit=fit)
        expected = np.flatnonzero(posterior_small(fit, BIMODAL) < 1.0)
        np.testing.assert_array_equal(got, expected)
        # the high-loss tail is always strictly below 1
        assert {4, 5} <= set(got.tolist())

    def test_bimodal_selects_high_loss_indices(self):
        fit = fit_gmm2(BIMODAL)
        # independent per-index oracle: manual Bayes responsibility
        manual = []
        for x in BIMODAL:
            joint = fit.weights * _normal_pdf(x, fit.means, fit.variances)
            manual.append(joint[0] / joint.sum())
        expected = np.flatnonzero(np.array(manual) < 0.5)
        got = select_modality_hard(BIMODAL, 0.5, fit=fit)
        np.testing.assert_array_equal(got, expected)
        np.testing.assert_array_equal(got, [4, 5])

    def test_degenerate_propagates_as_empty(self, monkeypatch):
        # constant losses have no mixture: the trainer's mining takes no hard
        # samples that epoch instead of failing
        gen = GeneratorConfig(num_classes=4, shots=4, seed=0)
        trainer = Trainer(RunConfig(generator=gen, epochs=2, mining_warmup=1))
        n = len(trainer.train_labels)
        losses, probs = np.full(n, 1.0), np.full((n, 4), 0.25)
        monkeypatch.setattr(trainer, "_train_split_stats", lambda: (losses, losses, probs, probs))
        report = trainer._mine(1)
        assert len(report["d2"]) == len(report["d3"]) == len(report["d_joint"]) == 0


class TestTopk:
    def test_identical_rankings(self):
        f = np.array([3.0, 1.0, 2.0, 0.5])
        for k in (1, 2, 4):
            assert topk_overlap(f, f, k) == k

    def test_disjoint_topk(self):
        f2 = np.array([9.0, 8.0, 0.0, 0.0])
        f3 = np.array([0.0, 0.0, 9.0, 8.0])
        assert topk_overlap(f2, f3, 2) == 0

    def test_enumerated_example(self):
        f2 = np.array([9.0, 8, 7, 1, 1, 1])
        f3 = np.array([1.0, 8, 9, 7, 1, 1])
        assert topk_overlap(f2, f3, 3) == 2

    def test_tie_break_smaller_index(self):
        np.testing.assert_array_equal(topk_indices(np.array([1.0, 1.0, 1.0]), 2), [0, 1])

    def test_k_exceeds_classes(self):
        with pytest.raises(ContractError):
            topk_overlap(np.zeros(3), np.zeros(3), 4)


def _random_selection_inputs(seed, n=50, c=6):
    rng = np.random.default_rng(seed)
    probs2 = rng.dirichlet(np.ones(c), size=n)
    probs3 = rng.dirichlet(np.ones(c), size=n)
    labels = rng.integers(0, c, size=n)
    candidates = np.sort(rng.choice(n, size=rng.integers(5, n), replace=False))
    return candidates, probs2, probs3, labels


class TestSelectJointHard:
    def test_no_discrepancy_gives_empty(self):
        rng = np.random.default_rng(0)
        probs = rng.dirichlet(np.ones(5), size=20)
        labels = rng.integers(0, 5, size=20)
        report = select_joint_hard(np.arange(20), probs, probs, labels, rho=0.5, k=3)
        assert report.d_joint.size == 0
        assert report.r2 <= 3

    def test_three_class_statistic(self):
        probs2 = np.array([[0.1, 0.8, 0.1]])
        probs3 = np.array([[0.2, 0.1, 0.7]])
        labels = np.array([0])
        s1 = wrong_class_confidence(probs2, probs3, labels)
        # exhaustive max over non-gt classes: max(0.8+0.1, 0.1+0.7)
        assert s1[0] == pytest.approx(0.9)
        assert np.argmax(probs2[0]) != np.argmax(probs3[0])

    @pytest.mark.parametrize("seed", range(10))
    def test_matches_bruteforce_predicates(self, seed):
        candidates, probs2, probs3, labels, = _random_selection_inputs(seed)
        rho, k = 0.3, 4
        report = select_joint_hard(candidates, probs2, probs3, labels, rho=rho, k=k)
        expected = []
        for i in candidates:
            wrong = max(
                probs2[i, j] + probs3[i, j] for j in range(probs2.shape[1]) if j != labels[i]
            )
            overlap = topk_overlap(probs2[i], probs3[i], min(k, probs2.shape[1] - 1))
            if wrong > report.r1 and overlap < report.r2:
                expected.append(i)
        np.testing.assert_array_equal(report.d_joint, np.sort(expected))

    def test_joint_subset_of_candidates(self):
        candidates, probs2, probs3, labels = _random_selection_inputs(123)
        report = select_joint_hard(candidates, probs2, probs3, labels, rho=0.4, k=3)
        assert set(report.d_joint.tolist()) <= set(candidates.tolist())

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 10_000), st.floats(0.05, 0.95), st.floats(0.01, 0.04))
    def test_raising_rho_never_shrinks(self, seed, rho, bump):
        candidates, probs2, probs3, labels = _random_selection_inputs(seed)
        lo = select_joint_hard(candidates, probs2, probs3, labels, rho=rho, k=3)
        hi = select_joint_hard(candidates, probs2, probs3, labels, rho=min(rho + bump, 1.0), k=3)
        assert set(lo.d_joint.tolist()) <= set(hi.d_joint.tolist())

    @given(st.integers(0, 10_000))
    @settings(deadline=None, max_examples=20)
    def test_candidate_order_irrelevant(self, seed):
        candidates, probs2, probs3, labels = _random_selection_inputs(seed)
        rng = np.random.default_rng(seed + 1)
        shuffled = rng.permutation(candidates)
        a = select_joint_hard(candidates, probs2, probs3, labels, rho=0.3, k=3)
        b = select_joint_hard(shuffled, probs2, probs3, labels, rho=0.3, k=3)
        np.testing.assert_array_equal(a.d_joint, b.d_joint)
        assert a.r1 == b.r1 and a.r2 == b.r2


# -- vectorised EM and selection against the per-component / per-row loops ----


def _reference_fit_gmm2(losses, tol=1e-8, max_iter=200, var_floor=1e-6):
    """fit_gmm2 as a loop over the two components, one row at a time."""
    x = np.asarray(losses, dtype=np.float64)
    median = np.median(x)
    lower, upper = x[x <= median], x[x > median]
    if upper.size == 0:
        lower, upper = x[x < median], x[x >= median]
    means = np.array([lower.mean(), upper.mean()])
    variances = np.maximum(np.array([lower.var(), upper.var()]), var_floor)
    weights = np.array([lower.size, upper.size], dtype=np.float64) / x.size

    def log_pdf(mean, var):
        return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)

    path, prev_ll, converged, it = [], -np.inf, False, 0
    for it in range(1, max_iter + 1):
        log_joint = np.stack(
            [np.log(weights[k]) + log_pdf(means[k], variances[k]) for k in range(2)])
        shift = log_joint.max(axis=0, keepdims=True)
        log_total = shift[0] + np.log(np.exp(log_joint - shift).sum(axis=0))
        resp = np.exp(log_joint - log_total)
        ll = float(log_total.sum())
        path.append(ll)
        nk = np.maximum(resp.sum(axis=1), 1e-12)
        means = (resp * x).sum(axis=1) / nk
        variances = np.maximum((resp * (x - means[:, None]) ** 2).sum(axis=1) / nk, var_floor)
        weights = nk / x.size
        if ll - prev_ll < tol and np.isfinite(prev_ll):
            converged = True
            break
        prev_ll = ll
    order = np.argsort(means)
    return MixtureFit(means[order], variances[order], weights[order], it, converged,
                      np.asarray(path))


def _reference_posterior_small(fit, x):
    def log_pdf(mean, var):
        return -0.5 * (np.log(2.0 * np.pi * var) + (x - mean) ** 2 / var)

    log_joint = np.stack(
        [np.log(fit.weights[k]) + log_pdf(fit.means[k], fit.variances[k]) for k in range(2)])
    shift = log_joint.max(axis=0)
    return np.exp(log_joint[0] - shift) / np.exp(log_joint - shift).sum(axis=0)


_LOSSES = arrays(np.float64, st.integers(4, 300),
                 elements=st.floats(0.0, 50.0, allow_subnormal=False))


class TestVectorisedEM:
    @settings(deadline=None, max_examples=60)
    @given(_LOSSES)
    def test_matches_per_component_loop(self, x):
        if np.ptp(x) == 0.0:
            return
        got, want = fit_gmm2(x), _reference_fit_gmm2(x)
        for name in ("means", "variances", "weights", "loglik_path"):
            assert np.array_equal(getattr(got, name), getattr(want, name)), name
        assert (got.iterations, got.converged) == (want.iterations, want.converged)
        assert np.array_equal(posterior_small(got, x), _reference_posterior_small(want, x))
        assert np.array_equal(posterior_small(got, x[:1]), _reference_posterior_small(want, x[:1]))

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_on_loss_like_mixtures(self, seed):
        rng = np.random.default_rng(seed)
        x = np.concatenate([rng.gamma(2.0, 0.3, 120), rng.normal(3.0, 0.5, 40)])
        got, want = fit_gmm2(x), _reference_fit_gmm2(x)
        assert got.iterations == want.iterations
        assert np.array_equal(got.loglik_path, want.loglik_path)
        assert np.array_equal(got.means, want.means)


def _loss_rows(rng, n, spreads, coarse=False):
    """One loss-like row per spread: a gamma bulk plus a high-loss tail."""
    rows = np.stack([np.concatenate([rng.gamma(2.0, s, n - n // 4), rng.normal(3.0 * s, s, n // 4)])
                     for s in spreads])
    return np.round(rows, 1) if coarse else rows


def _assert_same_fit(got, want):
    for name in ("means", "variances", "weights", "loglik_path"):
        assert np.array_equal(getattr(got, name), getattr(want, name)), name
    assert (got.iterations, got.converged) == (want.iterations, want.converged)


class TestStackedEM:
    @settings(deadline=None, max_examples=60)
    @given(st.integers(1, 3), st.integers(4, 300), st.integers(0, 2**32 - 1),
           st.sampled_from([200, 1, 7, 60]), st.booleans())
    def test_each_row_equals_its_1d_fit(self, m, n, seed, max_iter, coarse):
        rng = np.random.default_rng(seed)
        rows = _loss_rows(rng, n, rng.uniform(0.05, 5.0, m), coarse)
        if (np.ptp(rows, axis=1) == 0.0).any():
            return
        stack = fit_gmm2(rows, max_iter=max_iter)
        assert isinstance(stack, MixtureStack) and len(stack.fits) == m
        for row, fit in zip(rows, stack.fits):
            _assert_same_fit(fit, fit_gmm2(row, max_iter=max_iter))
        assert type(stack.iterations) is int
        assert stack.iterations == max(fit.iterations for fit in stack.fits)

    def test_rows_leave_at_their_own_sweep(self):
        rows = _loss_rows(np.random.default_rng(3), 160, (0.3, 0.6, 1.5))
        alone = [fit_gmm2(row).iterations for row in rows]
        assert len(set(alone)) == 3
        cap = sorted(alone)[1]          # one row converges at the cap, one stops there
        stack = fit_gmm2(rows, max_iter=cap)
        assert [f.iterations for f in stack.fits] == [min(i, cap) for i in alone]
        assert [f.converged for f in stack.fits] == [i <= cap for i in alone]
        assert stack.iterations == cap
        for row, fit in zip(rows, stack.fits):
            _assert_same_fit(fit, fit_gmm2(row, max_iter=cap))
            _assert_same_fit(fit, _reference_fit_gmm2(row, max_iter=cap))

    def test_single_row_stack_matches_1d(self):
        row = _loss_rows(np.random.default_rng(1), 50, (1.0,))[0]
        stack = fit_gmm2(row[None])
        _assert_same_fit(stack.fits[0], fit_gmm2(row))
        assert stack.iterations == stack.fits[0].iterations

    def test_constant_row_degenerate(self):
        rows = _loss_rows(np.random.default_rng(2), 40, (1.0,))
        with pytest.raises(MixtureDegeneracyError):
            fit_gmm2(np.concatenate([rows, np.full((1, 40), 0.25)]))

    @pytest.mark.parametrize("shape", [(2, 3), (0, 10), (2, 2, 10)])
    def test_bad_shapes_rejected(self, shape):
        with pytest.raises(ContractError):
            fit_gmm2(np.arange(np.prod(shape), dtype=float).reshape(shape))


class TestVectorisedOverlap:
    @settings(deadline=None, max_examples=80)
    @given(st.integers(1, 20), st.integers(2, 8), st.integers(0, 2**32 - 1), st.integers(1, 8))
    def test_matches_topk_oracle_with_ties(self, n, c, seed, k):
        rng = np.random.default_rng(seed)
        # few distinct values, so most rows have tied scores
        f2 = rng.integers(0, 3, size=(n, c)) / 4.0
        f3 = rng.integers(0, 3, size=(n, c)) / 4.0
        k = min(k, c)
        expected = [topk_overlap(f2[i], f3[i], k) for i in range(n)]
        assert _topk_overlaps(f2, f3, k).tolist() == expected
