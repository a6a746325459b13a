import json

import numpy as np
import pytest

from invgate import harness
from invgate import tensor as T
from invgate.config import RunConfig
from invgate.data import GeneratorConfig, generate
from invgate.encoders import ModalityEncoder
from invgate.errors import NumericError
from invgate.fusion import FusionConfig
from invgate.harness import (
    Model,
    Trainer,
    ablate,
    ablation_csv,
    evaluate_model,
    metrics_log_lines,
    train,
)
from invgate.losses import cross_entropy
from invgate.mining import fit_gmm2, mining_schedule, select_modality_hard
from invgate.optim import cosine_lr


def tiny_cfg(seed=0, **kw):
    gen = GeneratorConfig(num_classes=4, shots=6, invariant_dim=6, confound_dim=4,
                          num_views=2, seed=seed)
    defaults = dict(generator=gen, output_dim=10, epochs=4, batch_size=8,
                    mining_warmup=1, seed=seed)
    defaults.update(kw)
    return RunConfig(**defaults)


def param_bytes(model, prefix):
    return {n: p.data.tobytes() for n, p in model.named_params().items()
            if n.startswith(prefix)}


class TestTrainingLoop:
    def test_metrics_record_per_epoch_with_fields(self):
        cfg = tiny_cfg()
        result = Trainer(cfg).run()
        assert len(result.metrics) == cfg.epochs
        for rec in result.metrics:
            for key in ("epoch", "lr", "loss_ce", "acc2", "acc3", "acc_joint",
                        "c_err", "confusion2", "confusion3", "confusion_joint",
                        "mining", "n_joint_hard", "inv_batches"):
                assert key in rec

    def test_lr_monotone_nonincreasing(self):
        result = Trainer(tiny_cfg(epochs=6)).run()
        lrs = [m["lr"] for m in result.metrics]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))

    def test_seeded_determinism(self):
        cfg = tiny_cfg(seed=5)
        log1 = metrics_log_lines(Trainer(cfg).run().metrics)
        log2 = metrics_log_lines(Trainer(cfg).run().metrics)
        assert log1 == log2

    def test_mining_reports_subset_invariant(self):
        cfg = tiny_cfg(epochs=6, seed=1)
        result = Trainer(cfg).run()
        assert result.reports, "mining never fired"
        for rep in result.reports:
            joint = set(rep.d_joint.tolist())
            assert joint <= set(rep.d2.tolist()) | set(rep.d3.tolist())

    def test_mining_respects_schedule(self):
        cfg = tiny_cfg(epochs=6, mining_warmup=3, mining_period=2)
        result = Trainer(cfg).run()
        mined_epochs = [m["epoch"] for m in result.metrics if m["mining"] is not None]
        assert mined_epochs == [e for e in range(6) if mining_schedule(e, 3, 2)]

    def test_empty_joint_hard_leaves_gate_untouched(self):
        # warmup beyond the horizon: step 2 is on but never receives samples
        cfg = tiny_cfg(epochs=3, mining_warmup=10)
        trainer = Trainer(cfg)
        before = trainer.model.gate.mask_logits.data.tobytes()
        result = trainer.run()
        assert trainer.model.gate.mask_logits.data.tobytes() == before
        assert all(m["inv_batches"] == 0 for m in result.metrics)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mining", [True, False])
    def test_non_finite_parameters_name_the_epoch(self, mining):
        # the last step of epoch 0 overflows the parameters; no later batch
        # loss is computed from them before the test split is evaluated
        gen = GeneratorConfig(num_classes=4, shots=4, invariant_dim=6, confound_dim=4,
                              num_views=2, seed=0)
        cfg = tiny_cfg(generator=gen, base_lr=1e300, epochs=2, enable_step1=mining,
                       enable_step2=mining)
        with pytest.raises(NumericError, match=r"non-finite parameter '.+' after epoch 0"):
            Trainer(cfg).run()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_guard_names_epoch_and_batch(self):
        # one step at this rate overflows the squared feature norms
        cfg = tiny_cfg(base_lr=1e200, epochs=2)
        with pytest.raises(Exception, match="epoch"):
            Trainer(cfg).run()


class TestMiningFit:
    def test_one_fit_per_mining_epoch(self, monkeypatch):
        shapes = []

        def counting_fit(losses):
            shapes.append(np.shape(losses))
            return fit_gmm2(losses)

        monkeypatch.setattr(harness, "fit_gmm2", counting_fit)
        cfg = tiny_cfg(epochs=6, mining_warmup=2, mining_period=2)
        result = Trainer(cfg).run()
        n = len(result.reports)
        assert n == sum(mining_schedule(e, 2, 2) for e in range(6)) > 0
        assert shapes == [(2, cfg.generator.num_classes * cfg.generator.shots)] * n

    @pytest.mark.parametrize("constant", [0, 1])
    def test_constant_modality_is_not_mined(self, constant):
        cfg = tiny_cfg(epochs=2)
        trainer = Trainer(cfg)
        ce2, ce3, probs2, probs3 = trainer._train_split_stats()
        ces = [ce2, ce3]
        ces[constant] = np.full_like(ces[constant], 0.5)
        trainer._train_split_stats = lambda: (*ces, probs2, probs3)
        report = trainer._mine(1)
        hard = [report.d2, report.d3]
        other, p = 1 - constant, (cfg.posterior_p2, cfg.posterior_p3)[1 - constant]
        assert hard[constant].size == 0
        expected = select_modality_hard(ces[other], p, fit=fit_gmm2(ces[other]))
        assert expected.size > 0 and np.array_equal(hard[other], expected)


class TestSingleView:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_single_view_run_completes(self, seed):
        cfg = RunConfig(seed=seed, generator=GeneratorConfig(seed=seed, num_views=1), epochs=12)
        result = Trainer(cfg).run()
        assert sum(m["inv_batches"] for m in result.metrics) > 0
        assert all(np.isfinite(m["loss_ce"]) for m in result.metrics)

    @pytest.mark.parametrize("include_25d", [False, True])
    def test_environment_without_pairs_is_dropped(self, include_25d):
        gen = GeneratorConfig(num_classes=4, shots=6, invariant_dim=6, confound_dim=4,
                              num_views=1, seed=0)
        trainer = Trainer(RunConfig(generator=gen, output_dim=10, include_25d=include_25d))
        labels = trainer.train_labels
        lone = np.flatnonzero(labels == 0)[0]
        others = np.flatnonzero(labels != 0)[:5]
        idx = np.concatenate([[lone], others])

        def inv_term(idx):
            per_view, agg2 = trainer.model.features_2d(trainer.train_views[idx])
            return trainer._invariance_term(idx, 0, 0, per_view, agg2)

        trainer.d_joint = np.array([lone])
        # the anchor's class appears once in the batch: only the 3D pool, which
        # holds its augmented copy, can score it
        assert inv_term(idx) is None
        trainer.d_joint = np.array([others[0]])
        same = np.flatnonzero(labels == labels[others[0]])[1]
        assert inv_term(np.append(idx, same)) is not None


class TestRoutingAudit:
    def test_inv_backward_touches_only_gate(self):
        cfg = tiny_cfg(enable_step1=False, enable_step2=True, invariance_on_all=True)
        trainer = Trainer(cfg)
        idx = np.arange(8)
        total, plan, parts = trainer.total_objective(idx, epoch=0, batch_i=0,
                                                     term_filter={"inv"})
        trainer.optimizer.zero_grad()
        T.backward(total)
        assert trainer.model.gate.mask_logits.grad is not None
        for name, p in trainer.model.named_params().items():
            if not name.startswith("gate."):
                assert p.grad is None, name
        assert plan == {"inv": ("gate",)}

    def test_invariance_step_encodes_2d_once(self, monkeypatch):
        # the invariance term reuses the batch's 2D features, 2.5D included
        cfg = tiny_cfg(enable_step1=False, enable_step2=True, invariance_on_all=True,
                       include_25d=True)
        trainer = Trainer(cfg)
        calls = []
        forward = ModalityEncoder.__call__

        def counting(enc, x):
            calls.append(enc.modality)
            return forward(enc, x)

        monkeypatch.setattr(ModalityEncoder, "__call__", counting)
        _, plan, parts = trainer.total_objective(np.arange(8), epoch=0, batch_i=0)
        assert "inv" in plan and parts["inv"] is not None
        assert calls.count("2d") == 1

    def test_two_epoch_inv_only_run_freezes_encoders(self):
        cfg = tiny_cfg(epochs=2, enable_step1=False, enable_step2=True,
                       invariance_on_all=True)
        trainer = Trainer(cfg)
        before2d = param_bytes(trainer.model, "enc2d")
        before3d = param_bytes(trainer.model, "enc3d")
        before_heads = param_bytes(trainer.model, "head")
        gate_before = trainer.model.gate.mask_logits.data.tobytes()
        trainer.run(term_filter={"inv"})
        assert param_bytes(trainer.model, "enc2d") == before2d
        assert param_bytes(trainer.model, "enc3d") == before3d
        assert param_bytes(trainer.model, "head") == before_heads
        assert trainer.model.gate.mask_logits.data.tobytes() != gate_before

    def test_align_does_not_move_gate(self):
        cfg = tiny_cfg(epochs=2, enable_step1=False, enable_step2=False)
        trainer = Trainer(cfg)
        gate_before = trainer.model.gate.mask_logits.data.tobytes()
        enc_before = param_bytes(trainer.model, "enc2d")
        trainer.run(term_filter={"align"})
        assert trainer.model.gate.mask_logits.data.tobytes() == gate_before
        assert param_bytes(trainer.model, "enc2d") != enc_before

    def test_ce_alone_updates_exactly_the_branches(self):
        cfg = tiny_cfg(epochs=1, enable_step1=False, enable_step2=False,
                       enable_align=False)
        trainer = Trainer(cfg)
        gate_before = trainer.model.gate.mask_logits.data.tobytes()
        e2d_before = param_bytes(trainer.model, "enc2d")
        e3d_before = param_bytes(trainer.model, "enc3d")
        trainer.run(term_filter={"ce"})
        assert trainer.model.gate.mask_logits.data.tobytes() == gate_before
        assert param_bytes(trainer.model, "enc2d") != e2d_before
        assert param_bytes(trainer.model, "enc3d") != e3d_before


class TestSingleBranchOracle:
    def _oracle_branch_acc(self, cfg, branch):
        """Train one branch alone with the same seeds; return its accuracy."""
        trainer = Trainer(cfg)
        model, opt = trainer.model, trainer.optimizer
        for epoch in range(cfg.epochs):
            opt.state.epoch = epoch
            order = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 21, epoch])
            ).permutation(len(trainer.train_labels))
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start: start + cfg.batch_size]
                labels = trainer.train_labels[idx]
                if branch == "e2d":
                    per_view, _ = model.features_2d(trainer.train_views[idx])
                    loss = T.mean_(cross_entropy(model.logits_2d(per_view), labels))
                else:
                    feats3 = model.features_3d(trainer.train_x3[idx])
                    loss = T.mean_(cross_entropy(model.logits_3d(feats3), labels))
                opt.zero_grad()
                T.backward(loss)
                opt.step(active={branch})
        rec = evaluate_model(model, trainer.dataset, FusionConfig())
        return rec.acc2 if branch == "e2d" else rec.acc3

    def test_flags_off_equals_independent_branches(self):
        cfg = tiny_cfg(seed=3, epochs=4, enable_step1=False, enable_step2=False,
                       enable_align=False, irm_lambda=0.0, align_alpha=0.0)
        joint = Trainer(cfg).run().metrics[-1]
        assert abs(joint["acc2"] - self._oracle_branch_acc(cfg, "e2d")) < 1e-9
        assert abs(joint["acc3"] - self._oracle_branch_acc(cfg, "e3d")) < 1e-9


class TestEvaluate:
    def test_deterministic(self):
        cfg = tiny_cfg()
        trainer = Trainer(cfg)
        trainer.run()
        a = evaluate_model(trainer.model, trainer.dataset, FusionConfig())
        b = evaluate_model(trainer.model, trainer.dataset, FusionConfig())
        assert a.per_sample_csv() == b.per_sample_csv()
        assert a.aggregates() == b.aggregates()

    def test_huge_phi_defers_to_3d(self):
        cfg = tiny_cfg()
        trainer = Trainer(cfg)
        trainer.run()
        rec = evaluate_model(trainer.model, trainer.dataset, FusionConfig(phi=1e9))
        assert rec.acc_joint == rec.acc3
        np.testing.assert_array_equal(rec.pred_joint, rec.pred3)

    def test_aggregates_match_per_sample_csv(self):
        cfg = tiny_cfg()
        trainer = Trainer(cfg)
        trainer.run()
        rec = evaluate_model(trainer.model, trainer.dataset, FusionConfig())
        rows = [line.split(",") for line in rec.per_sample_csv().strip().splitlines()[1:]]
        labels = np.array([int(r[1]) for r in rows])
        for col, acc in ((2, rec.acc2), (3, rec.acc3), (4, rec.acc_joint)):
            preds = np.array([int(r[col]) for r in rows])
            assert acc == pytest.approx((preds == labels).mean())


class TestAblate:
    def test_single_cell_equals_plain_run(self):
        cfg = tiny_cfg(seed=2)
        rows = ablate(cfg, [{}])
        plain = Trainer(cfg).run().metrics[-1]
        assert rows[0]["acc_joint"] == pytest.approx(plain["acc_joint"])
        assert rows[0]["c_err"] == pytest.approx(plain["c_err"])

    def test_fusion_cells_share_training(self, monkeypatch):
        import invgate.harness as H

        calls = []
        orig = H.Trainer.run

        def counting(self, *a, **k):
            calls.append(1)
            return orig(self, *a, **k)

        monkeypatch.setattr(H.Trainer, "run", counting)
        cfg = tiny_cfg()
        rows = ablate(cfg, [{"fusion_mode": "multiplicative"}, {"fusion_mode": "additive"}])
        assert len(rows) == 2
        assert sum(calls) == 1  # one training reused across fusion modes

    def test_table_shaped_grid(self):
        cfg = tiny_cfg(epochs=2)
        cells = []
        for s1 in (True, False):
            for s2 in (True, False):
                for fusion in ("multiplicative", "additive"):
                    cell = {"enable_step1": s1, "enable_step2": s2,
                            "enable_align": s1 and s2, "fusion_mode": fusion}
                    if s2 and not s1:
                        cell["invariance_on_all"] = True
                    cells.append(cell)
        rows = ablate(cfg, cells)
        assert len(rows) == 8
        csv = ablation_csv(rows)
        assert csv.count("\n") == 9


class TestTrainArtifacts:
    def test_output_directory_contents(self, tmp_path):
        cfg = tiny_cfg(epochs=2)
        out = tmp_path / "run"
        train(cfg, out_dir=str(out), manifest_extra={"effective_seed": cfg.seed})
        for name in ("manifest.json", "metrics.jsonl", "checkpoint.igck",
                     "per_sample.csv", "confusion_2d.csv", "confusion_3d.csv",
                     "confusion_joint.csv", "aggregates.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["seed"] == cfg.seed
        lines = (out / "metrics.jsonl").read_text().strip().splitlines()
        header = json.loads(lines[0])
        assert header["format"] == "invgate-metrics"
        assert len(lines) == 1 + cfg.epochs
