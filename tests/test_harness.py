import dataclasses
import itertools
import json
import platform
import resource
import sys
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from invgate import harness, optim
from invgate import tensor as T
from invgate.config import READ_WHEN, RunConfig
from invgate.data import GeneratorConfig, generate
from invgate.encoders import ModalityEncoder, MultiViewAggregator
from invgate.errors import ContractError, NumericError
from invgate.fusion import FusionConfig
from invgate.harness import (
    Model,
    Trainer,
    ablate,
    ablation_csv,
    evaluate_model,
    metrics_log_lines,
    save_checkpoint,
    train,
)
from invgate.losses import ALIGN_TAU, IRM_VARIANTS, ContrastiveBatch, cross_entropy, sup_infonce
from invgate.mining import fit_gmm2, select_modality_hard

import oracles


# a legal value other than its default for each field that some term reads
# only under one condition (config.READ_WHEN), but include_25d and
# use_view_attention, which the lattice and small_run draw as flags
READ_OTHER = {"irm_lambda": 50.0, "rex_lambda_min": 0.3, "align_alpha": 10.0,
              "n_3d_augments": 3, "mining_rho": 1.0, "posterior_p2": 1.0, "posterior_p3": 0.1,
              "mining_warmup": 2}


@st.composite
def small_run(draw):
    """RunConfig keywords for a small run: its epochs, batch size, flags and,
    with step 2, IRM variant, and each other field of config.READ_WHEN that
    the run reads at its default or at its READ_OTHER value (the mining
    warm-up at 1 or READ_OTHER's). Alignment is drawn only on batches of 2 or
    more rows, where it can run."""
    batch_size = draw(st.integers(1, 8))
    flags = ("enable_step1", "enable_step2", "include_25d", "use_view_attention")
    run = {"epochs": draw(st.integers(2, 7)), "batch_size": batch_size,
           **{flag: draw(st.booleans()) for flag in flags},
           "enable_align": batch_size >= 2 and draw(st.booleans())}
    if run["enable_step2"]:
        run["irm_variant"] = draw(st.sampled_from(IRM_VARIANTS))
    if run["enable_step1"]:
        run["mining_warmup"] = 1
    try:
        cfg = RunConfig(**run)
    except ContractError:
        return run
    for name, needs in READ_WHEN.items():
        if name not in (*flags, "irm_variant") and all(getattr(cfg, k) == v
                                                       for k, v in needs.items()):
            run[name] = draw(st.sampled_from((getattr(cfg, name), READ_OTHER[name])))
    return run


def tiny_cfg(seed=0, **kw):
    gen = GeneratorConfig(num_classes=4, shots=6, invariant_dim=6, confound_dim=4,
                          num_views=2, seed=seed)
    defaults = dict(generator=gen, epochs=4, batch_size=8, seed=seed)
    if kw.get("enable_step1", True):    # mining from epoch 1, where step 1 mines
        defaults["mining_warmup"] = 1
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
        records = [m["mining"] for m in result.metrics if m["mining"] is not None]
        assert records, "mining never fired"
        for rec in records:
            assert set(rec["d_joint"]) <= set(rec["d2"]) | set(rec["d3"])

    def test_mining_respects_schedule(self):
        # mining runs at every epoch from mining_warmup on
        cfg = tiny_cfg(epochs=6, mining_warmup=3)
        result = Trainer(cfg).run()
        mined_epochs = [m["epoch"] for m in result.metrics if m["mining"] is not None]
        assert mined_epochs == [3, 4, 5]

    def test_empty_joint_hard_leaves_gate_untouched(self):
        # mining runs at epoch 2 but finds no joint-hard row in this 24-row
        # split: step 2 is on but never receives samples
        cfg = tiny_cfg(epochs=3, mining_warmup=2)
        trainer = Trainer(cfg)
        before = trainer.model.gate.mask_logits.data.tobytes()
        result = trainer.run()
        assert trainer.model.gate.mask_logits.data.tobytes() == before
        assert all(m["inv_batches"] == 0 for m in result.metrics)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("mining", [True, False])
    def test_non_finite_parameters_name_the_epoch(self, monkeypatch, mining):
        # the last step of epoch 0 overflows the parameters; no later batch
        # loss is computed from them before the test split is evaluated
        monkeypatch.setattr(optim, "BASE_LR", 1e300)
        gen = GeneratorConfig(num_classes=4, shots=4, invariant_dim=6, confound_dim=4,
                              num_views=2, seed=0)
        cfg = tiny_cfg(generator=gen, epochs=2, enable_step1=mining, enable_step2=mining)
        with pytest.raises(NumericError, match=r"non-finite parameter '.+' after epoch 0"):
            Trainer(cfg).run()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nan_guard_names_epoch_and_batch(self, monkeypatch):
        # one step at this rate overflows the squared feature norms
        monkeypatch.setattr(optim, "BASE_LR", 1e200)
        cfg = tiny_cfg(epochs=2)
        with pytest.raises(Exception, match="epoch"):
            Trainer(cfg).run()

    @settings(max_examples=50, deadline=10_000)
    # a 3-row train split: too few samples for a mixture, so mining finds nothing
    @example(shots=1, num_views=2, num_classes=3, seed=0,
             run={"epochs": 3, "batch_size": 3, "irm_variant": "v_rex", "mining_warmup": 1})
    @given(shots=st.integers(1, 4), num_views=st.integers(1, 3), num_classes=st.integers(3, 5),
           seed=st.integers(0, 3), run=small_run())
    def test_small_config_fails_at_construction_or_trains_finite(
            self, shots, num_views, num_classes, seed, run):
        gen = GeneratorConfig(num_classes=num_classes, shots=shots, invariant_dim=3,
                              confound_dim=2, num_views=num_views, seed=seed)
        try:
            trainer = Trainer(RunConfig(generator=gen, seed=seed, **run))
        except ContractError:
            return
        for rec in trainer.run().metrics:
            for key in ("lr", "loss_ce", "loss_inv", "loss_align", "acc2", "acc3",
                        "acc_joint", "c_err"):
                assert rec[key] is None or np.isfinite(rec[key]), (rec["epoch"], key)
            # too few rows for a mixture: mining finds none (without step 1
            # every row is an anchor)
            assert (num_classes * shots >= 4 or not trainer.cfg.enable_step1
                    or rec["n_joint_hard"] == 0)
            assert (rec["loss_align"] is None) == (not trainer.cfg.enable_align)


class TestDatasetFit:
    @pytest.mark.parametrize("cfg_kw,data_kw,message", [
        ({}, {"num_classes": 5}, "config num_classes 4 != dataset num_classes 5"),
        ({"num_classes": 5}, {}, "config num_classes 5 != dataset num_classes 4"),
        ({}, {"invariant_dim": 4}, "config dim 10 != dataset dim 8"),
    ], ids=["more_data_classes", "fewer_data_classes", "dim"])
    def test_mismatch_fails_at_construction(self, cfg_kw, data_kw, message):
        gen = tiny_cfg().generator
        cfg = tiny_cfg(generator=dataclasses.replace(gen, **cfg_kw))
        with pytest.raises(ContractError, match=message):
            Trainer(cfg, generate(dataclasses.replace(gen, **data_kw)))

    def test_views_must_match_only_under_view_attention(self):
        gen = tiny_cfg().generator
        three_views = generate(dataclasses.replace(gen, num_views=3))
        with pytest.raises(ContractError, match="config num_views 2 != dataset num_views 3"):
            Trainer(tiny_cfg(use_view_attention=True), three_views)
        # view-mean aggregation takes any view count, invariance term included
        cfg = tiny_cfg(epochs=3, enable_step1=False)
        metrics = Trainer(cfg, three_views).run().metrics
        assert all(m["inv_batches"] > 0 for m in metrics)


class TestMiningFit:
    def test_one_fit_per_mining_epoch(self, monkeypatch):
        shapes = []

        def counting_fit(losses):
            shapes.append(np.shape(losses))
            return fit_gmm2(losses)

        monkeypatch.setattr(harness, "fit_gmm2", counting_fit)
        cfg = tiny_cfg(epochs=6, mining_warmup=2)
        result = Trainer(cfg).run()
        n = sum(m["mining"] is not None for m in result.metrics)
        assert n == cfg.epochs - cfg.mining_warmup    # epochs 2 to 5
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
        hard = [np.array(report["d2"], dtype=int), np.array(report["d3"], dtype=int)]
        other, p = 1 - constant, (cfg.posterior_p2, cfg.posterior_p3)[1 - constant]
        assert hard[constant].size == 0
        expected = select_modality_hard(ces[other], p, fit=fit_gmm2(ces[other]))
        assert expected.size > 0 and np.array_equal(hard[other], expected)


    @settings(deadline=None, max_examples=50)
    @given(st.data())
    def test_stats_equal_cross_entropy_and_softmax_bit_for_bit(self, data):
        trainer = Trainer(tiny_cfg(epochs=2))
        labels = trainer.train_labels
        shape = (labels.size, trainer.cfg.generator.num_classes)
        logits = [data.draw(arrays(np.float64, shape, elements=st.floats(-1e3, 1e3)))
                  for _ in range(2)]
        with mock.patch.object(harness, "_branch_outputs", lambda *_: tuple(logits)):
            stats = trainer._train_split_stats()
        with T.no_grad():
            ces = [oracles.composite_cross_entropy_rows(T.constant(x), labels).data
                   for x in logits]
        probs = []
        for x in logits:    # max-shift, exp, divide by the sum
            e = np.exp(x - x.max(axis=-1, keepdims=True))
            probs.append(e / e.sum(axis=-1, keepdims=True))
        assert [a.tobytes() for a in stats] == [a.tobytes() for a in (*ces, *probs)]


def _just_under_and_over(name, n):
    """Values just under and just over the largest `name` a config accepts.
    `n` is alignment's batch size, or IRMv1's number of environments."""
    if name == "align_alpha":       # alignment is at most log(n) + 2 * ALIGN_TAU
        bound = sys.float_info.max / (np.log(n) + 2 * ALIGN_TAU)
    else:                           # each environment's penalty is at most 4 * irm_lambda
        bound = sys.float_info.max / (4 * n)
    return 0.99 * bound, 1.01 * bound


# every row an anchor from epoch 0
_INV_ALL = {"enable_step1": False}


class TestOverflowBound:
    @pytest.mark.parametrize("name,n,overrides,term", [
        ("align_alpha", 32, {"mining_warmup": 1}, "loss_align"),
        ("irm_lambda", 2, {**_INV_ALL, "irm_variant": "irmv1"}, "loss_inv"),
    ])
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_config_just_under_the_bound_trains(self, name, n, overrides, term):
        under, over = _just_under_and_over(name, n)
        with pytest.raises(ContractError, match=f"^{name} "):
            RunConfig(**overrides, **{name: over})
        metrics = Trainer(RunConfig(epochs=2, **overrides, **{name: under})).run().metrics
        for m in metrics:
            assert m[term] is not None
            assert all(np.isfinite(m[k]) for k in ("loss_ce", term, "acc2", "acc3", "acc_joint"))


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
        trainer = Trainer(RunConfig(generator=gen, include_25d=include_25d))
        labels = trainer.train_labels
        lone = np.flatnonzero(labels == 0)[0]
        others = np.flatnonzero(labels != 0)[:5]
        idx = np.concatenate([[lone], others])

        def inv_term(idx):
            per_view = trainer.model.enc2d(trainer.train_views[idx]).data
            return trainer._invariance_term(idx, 0, 0, per_view, None)

        trainer.d_joint = np.array([lone])
        # the anchor's class appears once in the batch: only the 3D pool, which
        # holds its augmented copy, can score it
        assert inv_term(idx) is None
        trainer.d_joint = np.array([others[0]])
        same = np.flatnonzero(labels == labels[others[0]])[1]
        assert inv_term(np.append(idx, same)) is not None


def zero_cross_entropy(logits, labels):
    """Cross-entropy stand-in: a batch mean of zero with no gradient, so the
    real training loop runs every other config-enabled term alone."""
    return T.constant(0.0)


class TestRoutingAudit:
    def test_inv_backward_touches_only_gate(self):
        cfg = tiny_cfg(enable_step1=False, enable_step2=True)
        trainer = Trainer(cfg)
        idx = np.arange(8)
        per_view = trainer.model.enc2d(trainer.train_views[idx]).data
        inv = trainer._invariance_term(idx, 0, 0, per_view, None)
        trainer.optimizer.zero_grad()
        T.backward(inv)
        assert trainer.model.gate.mask_logits.grad is not None
        for name, p in trainer.model.named_params().items():
            if not name.startswith("gate."):
                assert p.grad is None, name

    def test_total_is_the_weighted_sum_of_parts(self):
        cfg = tiny_cfg(enable_step1=False, enable_step2=True, align_alpha=3.0)
        total, parts = Trainer(cfg).total_objective(np.arange(8), epoch=0, batch_i=0)
        assert None not in parts.values()
        assert total.item() == parts["ce"] + parts["inv"] + 3.0 * parts["align"]

    def test_alignment_step_records_no_sigmoid(self, monkeypatch):
        # alignment multiplies by the gate's values as a constant, so a step
        # without invariance records no sigmoid node for the gate
        trainer = Trainer(tiny_cfg(enable_step1=False, enable_step2=False))
        sigmoids = []
        node = T._node

        def spy(data, parents, vjp):
            out = node(data, parents, vjp)
            if out._parents and sys._getframe(1).f_code is T.sigmoid.__code__:
                sigmoids.append(out)
            return out

        monkeypatch.setattr(T, "_node", spy)
        _, parts = trainer.total_objective(np.arange(8), epoch=0, batch_i=0)
        assert parts["align"] is not None
        assert sigmoids == []

    def test_invariance_step_encodes_2d_once(self, monkeypatch):
        # the invariance term reuses the batch's 2D features, 2.5D included
        cfg = tiny_cfg(enable_step1=False, enable_step2=True, include_25d=True)
        trainer = Trainer(cfg)
        calls = []
        forward = ModalityEncoder.__call__

        def counting(enc, x):
            calls.append(enc)
            return forward(enc, x)

        monkeypatch.setattr(ModalityEncoder, "__call__", counting)
        _, parts = trainer.total_objective(np.arange(8), epoch=0, batch_i=0)
        assert parts["inv"] is not None
        assert calls.count(trainer.model.enc2d) == 1

    @pytest.mark.parametrize("rows,flags", [
        (8, {"enable_align": False}),
        # a one-row batch skips alignment, whose view attention then runs only here
        (1, {"use_view_attention": True}),
    ], ids=["no_alignment", "view_attention_one_row"])
    def test_invariance_step_records_only_nodes_its_loss_reaches(self, monkeypatch, rows,
                                                                 flags):
        # where no alignment reads the view aggregate, the 2.5D environment
        # takes it off the tape, so every node the step records is one its
        # backward pass visits
        trainer = Trainer(tiny_cfg(enable_step1=False, include_25d=True, **flags))
        recorded = []
        node = T._node

        def spy(data, parents, vjp):
            out = node(data, parents, vjp)
            if out._parents:
                recorded.append(out)
            return out

        monkeypatch.setattr(T, "_node", spy)
        total, parts = trainer.total_objective(np.arange(rows), epoch=0, batch_i=0)
        assert parts["inv"] is not None and parts["align"] is None
        reached, stack = set(), [total]
        while stack:
            t = stack.pop()
            if id(t) not in reached:
                reached.add(id(t))
                stack.extend(t._parents)
        assert recorded and [t for t in recorded if id(t) not in reached] == []

    def test_two_epoch_inv_only_run_freezes_encoders(self, monkeypatch):
        monkeypatch.setattr(harness, "cross_entropy", zero_cross_entropy)
        cfg = tiny_cfg(epochs=2, enable_step1=False, enable_step2=True,
                       enable_align=False)
        trainer = Trainer(cfg)
        before2d = param_bytes(trainer.model, "enc2d")
        before3d = param_bytes(trainer.model, "enc3d")
        before_heads = param_bytes(trainer.model, "head")
        gate_before = trainer.model.gate.mask_logits.data.tobytes()
        trainer.run()
        assert param_bytes(trainer.model, "enc2d") == before2d
        assert param_bytes(trainer.model, "enc3d") == before3d
        assert param_bytes(trainer.model, "head") == before_heads
        assert trainer.model.gate.mask_logits.data.tobytes() != gate_before

    def test_align_does_not_move_gate(self, monkeypatch):
        monkeypatch.setattr(harness, "cross_entropy", zero_cross_entropy)
        cfg = tiny_cfg(epochs=2, enable_step1=False, enable_step2=False)
        trainer = Trainer(cfg)
        gate_before = trainer.model.gate.mask_logits.data.tobytes()
        enc_before = param_bytes(trainer.model, "enc2d")
        trainer.run()
        assert trainer.model.gate.mask_logits.data.tobytes() == gate_before
        assert param_bytes(trainer.model, "enc2d") != enc_before

    def test_ce_alone_updates_exactly_the_branches(self):
        cfg = tiny_cfg(epochs=1, enable_step1=False, enable_step2=False,
                       enable_align=False)
        trainer = Trainer(cfg)
        gate_before = trainer.model.gate.mask_logits.data.tobytes()
        e2d_before = param_bytes(trainer.model, "enc2d")
        e3d_before = param_bytes(trainer.model, "enc3d")
        trainer.run()
        assert trainer.model.gate.mask_logits.data.tobytes() == gate_before
        assert param_bytes(trainer.model, "enc2d") != e2d_before
        assert param_bytes(trainer.model, "enc3d") != e3d_before

    @pytest.mark.parametrize("include_25d", [False, True])
    def test_unreached_parameters_keep_their_values_and_gain_no_velocity(self, tmp_path,
                                                                          include_25d):
        # with step 2 off no term reaches the gate: alignment multiplies by a
        # detached mask, so a gate at 0.5 is the no-gate baseline. 2.5D needs
        # step 2, here anchored on every row, so its invariance batches reach the gate.
        steps = dict(enable_step1=False) if include_25d else dict(enable_step2=False)
        cfg = tiny_cfg(use_view_attention=True, include_25d=include_25d, **steps)
        trainer = Trainer(cfg)
        before = param_bytes(trainer.model, "gate.")
        result = trainer.run()
        assert any(m["inv_batches"] for m in result.metrics) == include_25d
        assert (param_bytes(trainer.model, "gate.") == before) != include_25d
        p = tmp_path / "run.igck"
        save_checkpoint(str(p), result)
        raw = p.read_bytes()
        header = json.loads(raw[16: 16 + int.from_bytes(raw[8:16], "little")])
        names = [e["name"] for e in header["arrays"]]
        assert {"gate.mask_logits", "opt.velocity.enc2d.w0", "opt.velocity.mva.f1.w"} <= set(names)
        assert ("opt.velocity.gate.mask_logits" in names) == include_25d
        # the 2.5D environment's fixed weights are no parameters
        assert not [n for n in names if "xattn." in n]

    FLAGS = ("enable_step1", "enable_step2", "enable_align", "include_25d",
             "use_view_attention")

    def test_flag_lattice_fails_at_construction_or_moves_every_parameter(self):
        # the gate is the one parameter allowed to stay put, and exactly when no
        # invariance batch ran: then it is the no-gate baseline. At these
        # settings every mined run finds joint-hard rows, and MM-REx's
        # rex_lambda_min > 0 lets the 2.5D environment's risk count. Each
        # lattice config also trains once with each READ_WHEN field but the
        # flags at its READ_OTHER value, which is not the lattice's own either: over three
        # epochs a mined run mines from epoch 1, or from READ_OTHER's 2.
        assert set(READ_OTHER) == set(READ_WHEN) - set(self.FLAGS) - {"irm_variant"}
        counts, stuck, unmined = {"trained": 0, "rejected": 0, "perturbed": 0}, [], []
        runs = set()
        for values in itertools.product((False, True), repeat=len(self.FLAGS)):
            flags = dict(zip(self.FLAGS, values))
            for variant in IRM_VARIANTS if flags["enable_step2"] else ("v_rex",):
                lattice = dict(generator=GeneratorConfig(num_classes=6, shots=6), epochs=3,
                               irm_variant=variant, **flags)
                if flags["enable_step1"]:
                    lattice.update(mining_warmup=1, mining_rho=0.5)
                if variant == "mm_rex":
                    lattice["rex_lambda_min"] = 0.2
                for field in (None, *READ_OTHER):
                    kw = lattice if field is None else {**lattice, field: READ_OTHER[field]}
                    try:
                        trainer = Trainer(RunConfig(**kw))
                    except ContractError:
                        if field is None:
                            counts["rejected"] += 1
                        continue
                    counts["trained" if field is None else "perturbed"] += 1
                    before = param_bytes(trainer.model, "")
                    metrics = trainer.run().metrics
                    inv_batches = sum(m["inv_batches"] for m in metrics)
                    after = param_bytes(trainer.model, "")
                    unmoved = sorted(n for n in before if after[n] == before[n])
                    if unmoved != ([] if inv_batches else ["gate.mask_logits"]):
                        stuck.append((variant, flags, field, inv_batches, unmoved))
                    if flags["enable_step1"] and flags["enable_step2"] and not inv_batches:
                        unmined.append((variant, flags, field))
                    runs.add(("\n".join(metrics_log_lines(metrics)),
                              b"".join(after[n] for n in sorted(after))))
        assert not stuck and not unmined
        # each trained config perturbs the fields it reads: the IRM variant's
        # weight (V-REx has none) and n_3d_augments with step 2, the four
        # mining fields with step 1, and align_alpha with alignment
        assert counts == {"trained": 42, "rejected": 22, "perturbed": 172}
        # no flag or field is ignored: every config that constructs trains a run
        # of its own
        assert len(runs) == 42 + 172

    def test_named_params_holds_each_components_params_once(self):
        model = Model(tiny_cfg(use_view_attention=True, include_25d=True))
        parts = [v for v in vars(model).values() if hasattr(v, "params")]
        every = [p for part in parts for p in part.params]
        named = model.named_params()
        assert len(parts) == 6 and len(named) == len(every)
        assert all(named[p.name] is p for p in every)


class TestSingleBranchOracle:
    def _oracle_branch_acc(self, cfg, branch):
        """Train one branch alone with the same seeds; return its accuracy."""
        trainer = Trainer(cfg)
        model, opt = trainer.model, trainer.optimizer
        for epoch in range(cfg.epochs):
            opt.epoch = epoch
            order = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, 21, epoch])
            ).permutation(len(trainer.train_labels))
            for start in range(0, len(order), cfg.batch_size):
                idx = order[start: start + cfg.batch_size]
                labels = trainer.train_labels[idx]
                if branch == "e2d":
                    per_view = model.enc2d(trainer.train_views[idx])
                    loss = cross_entropy(model.head2d.logits(per_view), labels)
                else:
                    feats3 = model.enc3d(trainer.train_x3[idx])
                    loss = cross_entropy(model.head3d.logits(feats3), labels)
                opt.zero_grad()
                T.backward(loss)
                opt.step()
        rec = evaluate_model(model, trainer.dataset, FusionConfig())
        return rec.acc2 if branch == "e2d" else rec.acc3

    def test_flags_off_equals_independent_branches(self):
        cfg = tiny_cfg(seed=3, epochs=4, enable_step1=False, enable_step2=False,
                       enable_align=False)
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

    def test_eval_and_mining_stats_build_no_view_aggregate(self, monkeypatch):
        trainer = Trainer(tiny_cfg(use_view_attention=True))
        calls = []
        forward = MultiViewAggregator.__call__

        def counting(mva, *args):
            calls.append(1)
            return forward(mva, *args)

        monkeypatch.setattr(MultiViewAggregator, "__call__", counting)
        evaluate_model(trainer.model, trainer.dataset, FusionConfig())
        trainer._train_split_stats()
        assert calls == []
        trainer.total_objective(np.arange(8), epoch=0, batch_i=0)   # a step still aggregates
        assert calls == [1]

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


def _cell(step1, step2, **rest):
    """An ablation cell over a base without step 1: the two steps, with mining
    from epoch 1 where step 1 mines, and `rest`."""
    return {"enable_step1": step1, "enable_step2": step2,
            **({"mining_warmup": 1} if step1 else {}), **rest}


class TestAblate:
    def test_single_cell_equals_plain_run(self):
        # a cell that turns step 1 off drops the mining fields its base tuned
        for base, cell, cfg in (
                (tiny_cfg(seed=2), {}, tiny_cfg(seed=2)),
                (RunConfig(epochs=4, mining_warmup=1, mining_rho=0.4), {"enable_step1": False},
                 RunConfig(epochs=4, enable_step1=False))):
            rows = ablate(base, [cell])
            plain = Trainer(cfg).run().metrics[-1]
            assert len(rows) == 1
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

    def test_cells_without_step2_share_training(self, monkeypatch):
        # without step 2 mining feeds no term, so a step-1-only cell trains
        # what the cell with neither step trains
        cfg = tiny_cfg(epochs=3, enable_step1=False)
        cells = [_cell(s1, False, enable_align=False) for s1 in (True, False)]
        separate = [ablate(cfg, [cell])[0] for cell in cells]
        calls = []
        orig = harness.Trainer.run

        def counting(self):
            calls.append(1)
            return orig(self)

        monkeypatch.setattr(harness.Trainer, "run", counting)
        rows = ablate(cfg, cells)
        assert sum(calls) == 1
        assert rows == separate

    def test_rejected_cell_fails_before_any_cell_trains(self, monkeypatch):
        calls = []
        monkeypatch.setattr(harness.Trainer, "run", lambda self: calls.append(1))
        with pytest.raises(ContractError, match="^invariance_on_all must be "):
            ablate(tiny_cfg(epochs=2), [{}, {"fusion_mode": "additive"},
                                        {"enable_step2": False, "invariance_on_all": True}])
        assert not calls

    @pytest.mark.parametrize("step1,step2", itertools.product((False, True), repeat=2))
    def test_cell_names_invariance_on_all_only_where_it_holds(self, monkeypatch, step1, step2):
        # a cell is read as a config file is: the retired key is accepted
        # only at the value the cell's two steps give it
        cfg = tiny_cfg(epochs=2, enable_step1=False)
        steps = _cell(step1, step2)
        if step2 and not step1:
            assert ablate(cfg, [{**steps, "invariance_on_all": True}]) == ablate(cfg, [steps])
            return
        calls = []
        monkeypatch.setattr(harness.Trainer, "run", lambda self: calls.append(1))
        with pytest.raises(ContractError, match="^invariance_on_all must be false, got true: "):
            ablate(cfg, [{}, {**steps, "invariance_on_all": True}])
        assert not calls

    def test_table_shaped_grid(self):
        cfg = tiny_cfg(epochs=2, enable_step1=False)
        cells = []
        for s1 in (True, False):
            for s2 in (True, False):
                for fusion in ("multiplicative", "additive"):
                    cell = _cell(s1, s2, enable_align=s1 and s2, fusion_mode=fusion)
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


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's malloc thresholds")
class TestHeapRetention:
    def test_warm_pool_calls_fault_in_no_pages(self):
        Trainer(tiny_cfg())
        rng = np.random.default_rng(0)
        z, labels = rng.normal(size=(128, 16)), rng.integers(0, 10, size=128)

        def pool_step():
            T.backward(sup_infonce(ContrastiveBatch(T.l2_normalize(T.parameter(z)), labels), 5.0))

        for _ in range(5):
            pool_step()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(50):
            pool_step()
        # about 8,000 under glibc 2.36's default thresholds: the [128, 128]
        # temporaries are trimmed after each call and faulted back in on the next
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 50

    def test_library_without_mallopt_is_left_alone(self, monkeypatch):
        calls = []

        def refuse(param, value):
            calls.append(param)
            return 0

        assert harness.pin_malloc_thresholds(object()) is False
        assert harness.pin_malloc_thresholds(SimpleNamespace(mallopt=refuse)) is False
        assert calls == [-3]        # the trim threshold is not tried after a refusal

        def no_library(name):
            raise OSError(name)

        monkeypatch.setattr(harness.ctypes, "CDLL", no_library)
        harness._retain_heap.cache_clear()
        try:
            assert Trainer(tiny_cfg(epochs=2)).run().metrics
            assert harness._retain_heap() is False
        finally:
            harness._retain_heap.cache_clear()
