"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings. The seed set is the canonical 0..4.
"""

import time

import numpy as np
import pytest

from invgate import harness
from invgate import tensor as T
from invgate.config import RunConfig
from invgate.data import GeneratorConfig, generate
from invgate.fusion import FusionConfig, fuse, predict, softmax_np
from invgate.gradcheck_suite import N_CONFIGS, THETA_TOL, TOL, run_suite
from invgate.harness import (
    Trainer,
    evaluate_model,
    load_checkpoint,
    metrics_log_lines,
    save_checkpoint,
)
from invgate.mining import fit_gmm2, select_joint_hard

from oracles import topk_overlap

SEEDS = [0, 1, 2, 3, 4]


def full_config(seed: int) -> RunConfig:
    return RunConfig(seed=seed, generator=GeneratorConfig(seed=seed))


def baseline_config(seed: int) -> RunConfig:
    return full_config(seed).replace(enable_step1=False, enable_step2=False,
                                     enable_align=False)


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'}  ({detail})")


@pytest.fixture(scope="module")
def efficacy_runs():
    """Full-pipeline and naive-baseline runs per seed (shared by 6 and 8)."""
    t0 = time.time()
    runs = {}
    for seed in SEEDS:
        dataset = generate(GeneratorConfig(seed=seed))
        full = Trainer(full_config(seed), dataset).run()
        base = Trainer(baseline_config(seed), dataset).run()
        runs[seed] = (full, base)
    return runs, time.time() - t0


def test_criterion_1_gradient_correctness():
    assert (N_CONFIGS, TOL, THETA_TOL) == (20, 1e-4, 1e-6)   # the criterion's bounds
    t0 = time.time()
    results = run_suite()
    elapsed = time.time() - t0
    failed = [(n, e) for n, ok, e in results if not ok]
    worst = max(e for _, _, e in results)
    passed = not failed and elapsed < 30.0
    report("1 gradient-correctness",
           passed, f"{len(results)} checks x 20 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")
    assert not failed, f"gradient checks failed: {failed}"
    assert elapsed < 30.0


def test_criterion_2_em_oracle():
    t0 = time.time()
    worst_gap = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        mu0 = rng.uniform(0.0, 2.0)
        mu1 = mu0 + rng.uniform(3.0, 6.0)           # separation >= 3
        sig0, sig1 = rng.uniform(0.05, 0.4, size=2)
        w = rng.uniform(0.25, 0.75)
        n = 300
        n0 = int(round(w * n))
        draws = np.concatenate([
            rng.normal(mu0, sig0, size=n0),
            rng.normal(mu1, sig1, size=n - n0),
        ])
        fit = fit_gmm2(draws)
        gap = max(abs(fit.means[0] - mu0), abs(fit.means[1] - mu1))
        worst_gap = max(worst_gap, gap)
        assert gap < 0.2, f"seed {seed}: means {fit.means} vs ({mu0:.3f}, {mu1:.3f})"
        diffs = np.diff(fit.loglik_path)
        assert np.all(diffs >= -1e-9), f"seed {seed}: log-likelihood decreased"
    elapsed = time.time() - t0
    report("2 em-oracle", elapsed < 10.0,
           f"50 planted mixtures, worst mean gap {worst_gap:.3f}, {elapsed:.1f}s")
    assert elapsed < 10.0


def test_criterion_3_selection_oracle():
    t0 = time.time()
    for seed in range(100):
        rng = np.random.default_rng(2000 + seed)
        n, c = 50, 6
        probs2 = rng.dirichlet(np.ones(c), size=n)
        probs3 = rng.dirichlet(np.ones(c), size=n)
        labels = rng.integers(0, c, size=n)
        candidates = np.sort(rng.choice(n, size=rng.integers(8, n), replace=False))
        rho = float(rng.uniform(0.1, 0.9))
        k = int(rng.integers(2, c))
        rep = select_joint_hard(candidates, probs2, probs3, labels, rho=rho, k=k)
        expected = []
        for i in candidates:
            wrong = max(probs2[i, j] + probs3[i, j] for j in range(c) if j != labels[i])
            overlap = topk_overlap(probs2[i], probs3[i], min(k, c - 1))
            if wrong > rep.r1 and overlap < rep.r2:
                expected.append(int(i))
        assert rep.d_joint.tolist() == expected, f"seed {seed} mismatch"
    elapsed = time.time() - t0
    report("3 selection-oracle", elapsed < 5.0,
           f"100 batches, exact brute-force agreement, {elapsed:.1f}s")
    assert elapsed < 5.0


def test_criterion_4_fusion_laws():
    t0 = time.time()
    rng = np.random.default_rng(7)
    mul = FusionConfig(mode="multiplicative")
    agree_checked = 0
    for _ in range(1000):
        c = int(rng.integers(3, 12))
        f2 = rng.normal(0, 2.0, size=c)
        f3 = rng.normal(0, 2.0, size=c)
        base = fuse(f2, f3, mul)
        # softmax shift invariance of the fused scores
        shift = float(rng.normal(0, 3.0))
        np.testing.assert_allclose(fuse(f2 + shift, f3, mul), base, atol=1e-12)
        np.testing.assert_allclose(fuse(f2, f3 + shift, mul), base, atol=1e-12)
        # large-phi reduction to the 3D argmax
        assert predict(fuse(f2, f3, FusionConfig(phi=1e12))) == predict(softmax_np(f3))
        # additive/multiplicative argmax agreement when branches agree
        if predict(softmax_np(f2)) == predict(softmax_np(f3)):
            agree_checked += 1
            add = fuse(f2, f3, FusionConfig(mode="additive"))
            assert predict(add) == predict(base) == predict(softmax_np(f2))
    elapsed = time.time() - t0
    report("4 fusion-laws", elapsed < 5.0,
           f"1000 pairs ({agree_checked} agreement cases), {elapsed:.1f}s")
    assert elapsed < 5.0


def test_criterion_5_routing_audit(monkeypatch):
    t0 = time.time()
    # cross-entropy becomes a gradient-free zero, so the real training loop
    # runs the invariance term alone
    monkeypatch.setattr(harness, "cross_entropy", lambda logits, labels: T.constant(0.0))
    cfg = full_config(0).replace(epochs=2, enable_step1=False, enable_step2=True,
                                 enable_align=False)
    trainer = Trainer(cfg)
    frozen_before = {n: p.data.tobytes() for n, p in trainer.model.named_params().items()
                     if not n.startswith("gate.")}
    gate_before = trainer.model.gate.mask_logits.data.tobytes()
    result = trainer.run()
    frozen_after = {n: p.data.tobytes() for n, p in trainer.model.named_params().items()
                    if not n.startswith("gate.")}
    gate_moved = trainer.model.gate.mask_logits.data.tobytes() != gate_before
    changed = [n for n in frozen_before if frozen_after[n] != frozen_before[n]]
    untouched = not changed
    applied = sum(m["inv_batches"] for m in result.metrics)
    elapsed = time.time() - t0
    frozen = (f"{len(changed)} frozen parameters changed, first {changed[0]}" if changed
              else "encoders/heads bit-identical")
    report("5 routing-audit", untouched and gate_moved and elapsed < 10.0,
           f"2 epochs, {applied} invariance batches, {frozen}, "
           f"gate {'moved' if gate_moved else 'did not move'}, {elapsed:.1f}s")
    assert untouched, f"{changed[0]} changed under the invariance loss"
    assert gate_moved, "the gate never trained"
    assert elapsed < 10.0


def test_criterion_6_mechanism_efficacy(efficacy_runs):
    runs, elapsed = efficacy_runs
    a = b = c = 0
    lines = []
    for seed in SEEDS:
        full, base = runs[seed]
        fm, bm = full.metrics[-1], base.metrics[-1]
        a += fm["acc_joint"] >= bm["acc_joint"]
        b += fm["c_err"] <= 0.5 * bm["c_err"]
        c += fm["acc_joint"] >= max(fm["acc2"], fm["acc3"])
        lines.append(f"seed {seed}: joint {fm['acc_joint']:.3f} vs {bm['acc_joint']:.3f}, "
                     f"c_err {fm['c_err']:.3f} vs {bm['c_err']:.3f}")
    passed = a >= 4 and b >= 4 and c >= 4 and elapsed < 300.0
    report("6 mechanism-efficacy", passed,
           f"(a) {a}/5 (b) {b}/5 (c) {c}/5, {elapsed:.0f}s; " + "; ".join(lines))
    assert a >= 4, f"joint accuracy beat baseline in only {a}/5 seeds"
    assert b >= 4, f"conflict ratio halved in only {b}/5 seeds"
    assert c >= 4, f"joint beat both branches in only {c}/5 seeds"
    assert elapsed < 300.0


def test_criterion_7_ablation_ordering(efficacy_runs):
    runs, fixture_elapsed = efficacy_runs
    t0 = time.time()
    cells = {"full": [], "step1_only": [], "step2_only": [], "neither": []}
    mul_ge_add = 0
    for seed in SEEDS:
        dataset = generate(GeneratorConfig(seed=seed))
        fc = full_config(seed)
        # the full and neither cells are the fixture's full and baseline runs
        # (same configs, same datasets); only the reduced cells train here
        full, base = runs[seed]
        models = {"full": full.model, "neither": base.model}
        configs = {
            # the alignment term belongs to the full objective; reduced cells
            # drop it along with the removed step (the reference ablation
            # reads "without step 1 & 2" as cross-entropy alone)
            "step1_only": fc.replace(enable_step2=False, enable_align=False),
            "step2_only": fc.replace(enable_step1=False, enable_align=False),
        }
        for tag, cfg in configs.items():
            trainer = Trainer(cfg, dataset)
            trainer.run()
            models[tag] = trainer.model
        for tag, model in models.items():
            mul = evaluate_model(model, dataset, FusionConfig(mode="multiplicative"))
            cells[tag].append(mul.acc_joint)
            if tag == "full":
                add = evaluate_model(model, dataset, FusionConfig(mode="additive"))
                mul_ge_add += mul.acc_joint >= add.acc_joint
    med = {tag: float(np.median(vals)) for tag, vals in cells.items()}
    leg1 = med["full"] > med["step1_only"]
    leg2 = med["full"] > med["step2_only"]
    leg3 = med["step2_only"] >= med["neither"]
    elapsed = time.time() - t0 + fixture_elapsed   # the fixture trained two cells
    passed = leg1 and leg2 and leg3 and mul_ge_add >= 3 and elapsed < 900.0
    report("7 ablation-ordering", passed,
           f"medians full={med['full']:.4f} s1={med['step1_only']:.4f} "
           f"s2={med['step2_only']:.4f} none={med['neither']:.4f}; "
           f"legs=({leg1},{leg2},{leg3}); mul>=add {mul_ge_add}/5; {elapsed:.0f}s")
    assert leg1, "full did not beat step1-only on median joint accuracy"
    assert leg2, "full did not beat step2-only on median joint accuracy"
    assert leg3, "step2-only fell below the no-step configuration"
    assert mul_ge_add >= 3
    assert elapsed < 900.0


def test_criterion_8_gate_semantics(efficacy_runs):
    runs, _ = efficacy_runs
    hits = 0
    details = []
    for seed in SEEDS:
        full, _ = runs[seed]
        d_c = full.cfg.generator.invariant_dim
        mask = full.model.gate.values()
        inv, conf = float(mask[:d_c].mean()), float(mask[d_c:].mean())
        hits += inv > conf
        details.append(f"seed {seed}: {inv:.3f} vs {conf:.3f}")
    report("8 gate-semantics", hits >= 4, f"{hits}/5 seeds; " + "; ".join(details))
    assert hits >= 4, "gate did not favor invariant dimensions in enough seeds"


def test_criterion_9_determinism_and_persistence(tmp_path):
    t0 = time.time()
    cfg = full_config(0).replace(epochs=8)
    r1 = Trainer(cfg).run()
    r2 = Trainer(cfg).run()
    logs_equal = metrics_log_lines(r1.metrics) == metrics_log_lines(r2.metrics)

    p1, p2 = tmp_path / "a.igck", tmp_path / "b.igck"
    save_checkpoint(str(p1), r1)
    save_checkpoint(str(p2), load_checkpoint(str(p1)))
    bytes_equal = p1.read_bytes() == p2.read_bytes()
    elapsed = time.time() - t0
    report("9 determinism-persistence", logs_equal and bytes_equal and elapsed < 60.0,
           f"identical metrics logs: {logs_equal}; checkpoint round-trip "
           f"byte-identical: {bytes_equal}; {elapsed:.1f}s")
    assert logs_equal
    assert bytes_equal
    assert elapsed < 60.0
