"""End-to-end training loop with the iterative mine/train pattern.

Each epoch: (a) a no-grad pass over the train split collects per-sample
branch losses and probabilities; (b) on schedule, mining refreshes the
joint hard set; (c) every batch combines the routed loss terms and takes
one optimizer step; (d) the test split is evaluated and one metrics record
appended. Everything is a pure function of the run config.

Gradient routing is structural: the invariance term sees only detached
encoder outputs (so its backward can reach nothing but the gate), and the
alignment term multiplies by a detached copy of the mask (so the gate's
logits never learn from it).
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from . import container
from . import tensor as T
from .config import RunConfig
from .container import canonical_json
from .data import Dataset, augment_3d, generate
from .encoders import ClassHead, CrossAttention, GateMask, ModalityEncoder, MultiViewAggregator
from .errors import CheckpointError, ContractError, NumericError
from .fusion import EvalRecord, FusionConfig, confusion_csv, fuse, predict, softmax_np
from .losses import (
    ContrastiveBatch,
    IRMConfig,
    ObjectiveTerms,
    combine_objective,
    contrastive_report,
    cross_entropy,
    modality_irm_loss,
    nt_xent_align,
)
from .mining import (
    SelectionReport,
    fit_gmm2,
    mining_schedule,
    select_joint_hard,
    select_modality_hard,
)
from .optim import SGD, OptimizerState, ParamGroup, cosine_lr

METRICS_FORMAT = "invgate-metrics"
METRICS_VERSION = 1
METRIC_FIELDS = [
    "epoch", "lr", "loss_ce", "loss_inv", "loss_align", "inv_batches",
    "n_joint_hard", "acc2", "acc3", "acc_joint", "c_err",
    "confusion2", "confusion3", "confusion_joint", "mining",
]

# stable per-component seed tags: a branch initializes identically whether
# or not the other branch exists
_SEED_TAGS = {"enc2d": 11, "enc3d": 12, "head2d": 13, "head3d": 14,
              "mva": 15, "xattn": 16, "batches": 21, "augment": 22}


def _component_rng(seed: int, component: str) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, _SEED_TAGS[component]]))


class Model:
    """Both branch encoders, their heads, the shared gate, optional extras."""

    def __init__(self, cfg: RunConfig, input_dim: int):
        dims = [input_dim, *cfg.encoder_hidden, cfg.output_dim]
        self.cfg = cfg
        self.enc2d = ModalityEncoder(
            "2d", dims, init=cfg.encoder_init,
            rng=_component_rng(cfg.seed, "enc2d"), name="enc2d",
        )
        self.enc3d = ModalityEncoder(
            "3d", dims, init=cfg.encoder_init,
            rng=_component_rng(cfg.seed, "enc3d"), name="enc3d",
        )
        c = cfg.generator.num_classes
        self.head2d = ClassHead(c, cfg.output_dim, mode=cfg.head2d_mode,
                                rng=_component_rng(cfg.seed, "head2d"),
                                scale=cfg.head_scale, name="head2d")
        self.head3d = ClassHead(c, cfg.output_dim, mode=cfg.head3d_mode,
                                rng=_component_rng(cfg.seed, "head3d"),
                                scale=cfg.head_scale, name="head3d")
        self.gate = GateMask(cfg.output_dim)
        self.mva = None
        if cfg.use_view_attention:
            self.mva = MultiViewAggregator(cfg.generator.num_views, cfg.output_dim,
                                           cfg.view_attention_hidden,
                                           rng=_component_rng(cfg.seed, "mva"))
        self.xattn = None
        if cfg.include_25d:
            self.xattn = CrossAttention(cfg.output_dim,
                                        rng=_component_rng(cfg.seed, "xattn"))

    def param_groups(self) -> list[ParamGroup]:
        e2d = [*self.enc2d.params, *self.head2d.params]
        if self.mva is not None:
            e2d += self.mva.params
        groups = [
            ParamGroup("e2d", e2d),
            ParamGroup("e3d", [*self.enc3d.params, *self.head3d.params]),
            ParamGroup("gate", self.gate.params),
        ]
        if self.xattn is not None:
            groups.append(ParamGroup("xattn", self.xattn.params))  # no routing plan names it
        return groups

    def named_params(self) -> dict[str, T.Tensor]:
        out = {}
        for g in self.param_groups():
            for p in g.params:
                out[p.name] = p
        return out

    # -- forward paths --------------------------------------------------------

    def features_3d(self, x3: np.ndarray) -> T.Tensor:
        return self.enc3d(T.constant(x3))

    def features_2d(self, views: np.ndarray) -> tuple[T.Tensor, T.Tensor]:
        """[B, N, d_in] -> (per-view features [B, N, d], aggregated [B, d])."""
        per_view = self.enc2d(T.constant(views))
        if self.mva is not None:
            agg = self.mva(per_view, self.cfg.view_attention_delta)
        else:
            agg = T.mean_(per_view, axis=1)
        return per_view, agg

    def logits_3d(self, feats3: T.Tensor) -> T.Tensor:
        return self.head3d.logits(feats3)

    def logits_2d(self, per_view: T.Tensor) -> T.Tensor:
        b, n, d = per_view.shape
        flat = T.reshape(per_view, (b * n, d))
        per_view_logits = T.reshape(self.head2d.logits(flat), (b, n, self.head2d.num_classes))
        return T.mean_(per_view_logits, axis=1)


@dataclass
class TrainResult:
    cfg: RunConfig
    model: Model
    optimizer: SGD
    metrics: list[dict]
    reports: list[SelectionReport] = field(default_factory=list)

    def final(self, key: str):
        return self.metrics[-1][key]


def _branch_outputs(model: Model, x3: np.ndarray, views: np.ndarray):
    """No-grad logits for both branches (numpy)."""
    with T.no_grad():
        feats3 = model.features_3d(x3)
        per_view, _ = model.features_2d(views)
        logits3 = model.logits_3d(feats3)
        logits2 = model.logits_2d(per_view)
    return logits2.data, logits3.data


def evaluate_model(model: Model, dataset: Dataset, fusion: FusionConfig) -> EvalRecord:
    x3, views, labels = dataset.arrays("test")
    logits2, logits3 = _branch_outputs(model, x3, views)
    scores = fuse(logits2, logits3, fusion)
    return EvalRecord(
        labels=labels,
        pred2=predict(logits2),
        pred3=predict(logits3),
        pred_joint=predict(scores),
        num_classes=dataset.config.num_classes,
    )


class Trainer:
    def __init__(self, cfg: RunConfig, dataset: Dataset | None = None):
        self.cfg = cfg
        self.dataset = dataset if dataset is not None else generate(cfg.generator)
        if self.dataset.config.dim != cfg.generator.dim:
            raise ContractError(
                f"dataset feature dim {self.dataset.config.dim} != config dim {cfg.generator.dim}"
            )
        self.model = Model(cfg, input_dim=self.dataset.config.dim)
        self.optimizer = SGD(
            self.model.param_groups(),
            OptimizerState(cfg.base_lr, cfg.weight_decay, cfg.momentum,
                           epoch=0, total_epochs=cfg.epochs),
        )
        self.train_x3, self.train_views, self.train_labels = self.dataset.arrays("train")
        n = len(self.train_labels)
        if cfg.enable_step2 and not cfg.enable_step1 and cfg.invariance_on_all:
            self.d_joint = np.arange(n)
        else:
            self.d_joint = np.empty(0, dtype=int)
        self.metrics: list[dict] = []
        self.reports: list[SelectionReport] = []

    # -- mining ---------------------------------------------------------------

    def _train_split_stats(self):
        """Per-sample CE losses and softmax probabilities, both branches."""
        logits2, logits3 = _branch_outputs(self.model, self.train_x3, self.train_views)
        with T.no_grad():
            ce2 = cross_entropy(T.constant(logits2), self.train_labels).data
            ce3 = cross_entropy(T.constant(logits3), self.train_labels).data
        return ce2, ce3, softmax_np(logits2), softmax_np(logits3)

    def _mine(self, epoch: int) -> SelectionReport | None:
        cfg = self.cfg
        if not (cfg.enable_step1 and mining_schedule(epoch, cfg.mining_warmup, cfg.mining_period)):
            return None
        ce2, ce3, probs2, probs3 = self._train_split_stats()
        # one EM loop fits the modalities with spread; the rest (all, below 4
        # samples) have no mixture, so no hard samples this epoch
        ces, ps = (ce2, ce3), (cfg.posterior_p2, cfg.posterior_p3)
        spread = [i for i in (0, 1) if np.ptp(ces[i]) > 0]
        hard = [np.empty(0, dtype=int)] * 2
        try:
            fits = fit_gmm2(np.stack([ces[i] for i in spread])).fits if spread else []
        except ContractError:
            fits = []
        for i, fit in zip(spread, fits):
            hard[i] = select_modality_hard(ces[i], ps[i], fit=fit)
        d2, d3 = hard
        candidates = np.union1d(d2, d3)
        if candidates.size == 0:
            report = SelectionReport(d2=d2, d3=d3, d_joint=np.empty(0, dtype=int),
                                     r1=float("nan"), r2=0,
                                     p2=cfg.posterior_p2, p3=cfg.posterior_p3, epoch=epoch)
        else:
            report = select_joint_hard(
                candidates, probs2, probs3, self.train_labels,
                rho=cfg.mining_rho, k=cfg.mining_topk,
                d2=d2, d3=d3, p2=cfg.posterior_p2, p3=cfg.posterior_p3, epoch=epoch,
            )
        self.d_joint = report.d_joint
        self.reports.append(report)
        return report

    # -- loss terms -----------------------------------------------------------

    def _invariance_term(self, idx: np.ndarray, epoch: int, batch_i: int,
                         per_view: T.Tensor, agg2: T.Tensor):
        """Invariance loss anchored at the batch's joint-hard members.

        The whole batch joins each environment's pool (otherwise the few
        mined anchors would see mostly their own augmented copies as
        positives); only mined rows act as anchors. Features enter detached,
        so this term's backward reaches nothing but the gate. `per_view` and
        `agg2` are the batch's 2D features from `total_objective`; only their
        values are read.
        """
        cfg = self.cfg
        if self.d_joint.size == 0:
            return None
        is_hard = np.zeros(len(self.train_labels), dtype=bool)
        is_hard[self.d_joint] = True
        is_hard = is_hard[idx]
        subset = np.sort(idx[is_hard])      # idx holds no repeats
        if subset.size == 0:
            return None
        labels = self.train_labels[idx]
        x3_hard = self.train_x3[subset]
        rng = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _SEED_TAGS["augment"], epoch, batch_i])
        )
        jitter = 0.5 * cfg.generator.sigma_invariant
        aug = [
            np.stack([augment_3d(row, rng, jitter_sigma=jitter) for row in x3_hard])
            for _ in range(cfg.n_3d_augments)
        ]
        with T.no_grad():
            feats3 = self.model.features_3d(
                np.concatenate([self.train_x3[idx], *aug], axis=0)
            ).data
        feats2 = per_view.data.reshape(-1, cfg.output_dim)

        n_aug = cfg.n_3d_augments * subset.size
        labels3 = np.concatenate([labels, np.tile(self.train_labels[subset], cfg.n_3d_augments)])
        anchors3 = np.concatenate([is_hard, np.zeros(n_aug, dtype=bool)])
        labels2 = np.repeat(labels, cfg.generator.num_views)
        anchors2 = np.repeat(is_hard, cfg.generator.num_views)
        gate = self.model.gate
        envs = {
            "2d": ContrastiveBatch(gate.apply(T.constant(feats2), learn=True),
                                   labels2, anchor_mask=anchors2),
            "3d": ContrastiveBatch(gate.apply(T.constant(feats3), learn=True),
                                   labels3, anchor_mask=anchors3),
        }
        if self.model.xattn is not None:
            with T.no_grad():
                fused = self.model.xattn(T.constant(agg2.data), T.constant(feats3[: idx.size])).data
            envs["2.5d"] = ContrastiveBatch(gate.apply(T.constant(fused), learn=True),
                                            labels, anchor_mask=is_hard)
        # an environment scores only if some anchor has a same-class partner in
        # its pool; with one view per sample the 2D pool can lack one
        envs = {name: batch for name, batch in envs.items()
                if contrastive_report(batch).n_pairs > 0}
        if len(envs) < 2:
            return None
        theta = 1.0 if cfg.irm_variant == "irmv1" else cfg.inv_theta
        irm_cfg = IRMConfig(lam=cfg.irm_lambda, dummy_theta=theta,
                            variant=cfg.irm_variant, lambda_min=cfg.rex_lambda_min,
                            beta=cfg.rex_beta)
        return modality_irm_loss(envs, irm_cfg)

    def total_objective(self, idx: np.ndarray, epoch: int, batch_i: int,
                        term_filter: set[str] | None = None):
        """Compute the routed objective for one batch of train indices.

        Returns (total, plan, parts); `term_filter` restricts which terms are
        built (instrumentation only; None means all config-enabled terms).
        """
        cfg = self.cfg
        enabled = {"ce"}
        if cfg.enable_step2:
            enabled.add("inv")
        if cfg.enable_align:
            enabled.add("align")
        if term_filter is not None:
            enabled &= set(term_filter)

        labels = self.train_labels[idx]
        feats3 = self.model.features_3d(self.train_x3[idx])
        per_view, agg2 = self.model.features_2d(self.train_views[idx])

        if "ce" in enabled:
            ce2 = cross_entropy(self.model.logits_2d(per_view), labels)
            ce3 = cross_entropy(self.model.logits_3d(feats3), labels)
            ce = T.add(T.mean_(ce2), T.mean_(ce3))
        else:
            ce = T.constant(0.0)

        inv = None
        if "inv" in enabled:
            inv = self._invariance_term(idx, epoch, batch_i, per_view, agg2)

        align = None
        if "align" in enabled and idx.size >= 2:
            z2 = self.model.gate.apply(agg2, learn=False)
            z3 = self.model.gate.apply(feats3, learn=False)
            align = nt_xent_align(z2, z3, tau=cfg.align_tau)

        total, plan = combine_objective(
            ObjectiveTerms(ce=ce, inv=inv, align=align, alpha=cfg.align_alpha)
        )
        if "ce" not in enabled:
            plan.pop("ce", None)
        parts = {
            "ce": ce.item() if "ce" in enabled else None,
            "inv": inv.item() if inv is not None else None,
            "align": align.item() if align is not None else None,
        }
        return total, plan, parts

    # -- steps ----------------------------------------------------------------

    def _apply_step(self, total, plan) -> float:
        active = set()
        for groups in plan.values():
            active |= set(groups)
        self.optimizer.zero_grad()
        T.backward(total)
        return self.optimizer.step(active=active)

    def run_epoch(self, epoch: int, term_filter: set[str] | None = None) -> dict:
        cfg = self.cfg
        self.optimizer.state.epoch = epoch
        mining = self._mine(epoch)
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _SEED_TAGS["batches"], epoch])
        ).permutation(len(self.train_labels))

        sums = {"ce": 0.0, "inv": 0.0, "align": 0.0}
        counts = {"ce": 0, "inv": 0, "align": 0}
        lr = cosine_lr(self.optimizer.state)
        for batch_i in range(0, len(order), cfg.batch_size):
            idx = order[batch_i: batch_i + cfg.batch_size]
            total, plan, parts = self.total_objective(idx, epoch, batch_i // cfg.batch_size,
                                                      term_filter)
            if not np.isfinite(total.item()):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_i // cfg.batch_size}"
                )
            lr = self._apply_step(total, plan)
            for key, val in parts.items():
                if val is not None:
                    sums[key] += val
                    counts[key] += 1
        # the loss check above runs before each step, so it cannot see the last one
        for name, param in self.model.named_params().items():
            if not np.isfinite(param.data).all():
                raise NumericError(f"non-finite parameter '{name}' after epoch {epoch}")

        rec = evaluate_model(self.model, self.dataset,
                             FusionConfig(phi=cfg.fusion_phi, mode=cfg.fusion_mode))
        record = {
            "epoch": epoch,
            "lr": lr,
            "loss_ce": sums["ce"] / counts["ce"] if counts["ce"] else None,
            "loss_inv": sums["inv"] / counts["inv"] if counts["inv"] else None,
            "loss_align": sums["align"] / counts["align"] if counts["align"] else None,
            "inv_batches": counts["inv"],
            "n_joint_hard": int(self.d_joint.size),
            "mining": mining.to_record() if mining is not None else None,
            **rec.aggregates(),
        }
        self.metrics.append(record)
        return record

    def run(self, term_filter: set[str] | None = None) -> TrainResult:
        for epoch in range(self.cfg.epochs):
            self.run_epoch(epoch, term_filter)
        return TrainResult(cfg=self.cfg, model=self.model, optimizer=self.optimizer,
                           metrics=self.metrics, reports=self.reports)


# -- top-level entry points -----------------------------------------------------


def metrics_log_lines(metrics: list[dict]) -> list[str]:
    header = {"format": METRICS_FORMAT, "version": METRICS_VERSION, "fields": METRIC_FIELDS}
    return [canonical_json(header)] + [canonical_json(m) for m in metrics]


def train(cfg: RunConfig, dataset: Dataset | None = None,
          out_dir: str | None = None, manifest_extra: dict | None = None) -> TrainResult:
    trainer = Trainer(cfg, dataset)
    result = trainer.run()
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        manifest = {"config": cfg.to_dict()}
        manifest.update(manifest_extra or {})
        with container.atomic_open(os.path.join(out_dir, "manifest.json")) as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        with container.atomic_open(os.path.join(out_dir, "metrics.jsonl")) as fh:
            fh.write("\n".join(metrics_log_lines(result.metrics)) + "\n")
        save_checkpoint(os.path.join(out_dir, "checkpoint.igck"), result)
        rec = evaluate_model(result.model, trainer.dataset,
                             FusionConfig(phi=cfg.fusion_phi, mode=cfg.fusion_mode))
        write_eval_artifacts(rec, out_dir)
    return result


def write_eval_artifacts(rec: EvalRecord, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with container.atomic_open(os.path.join(out_dir, "per_sample.csv")) as fh:
        fh.write(rec.per_sample_csv())
    for tag, mat in (("2d", rec.confusion2), ("3d", rec.confusion3),
                     ("joint", rec.confusion_joint)):
        with container.atomic_open(os.path.join(out_dir, f"confusion_{tag}.csv")) as fh:
            fh.write(confusion_csv(mat))
    with container.atomic_open(os.path.join(out_dir, "aggregates.json")) as fh:
        json.dump(rec.aggregates(), fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- checkpointing ---------------------------------------------------------------

CHECKPOINT_MAGIC = b"IGCK"
CHECKPOINT_FORMAT = "invgate-checkpoint"
CHECKPOINT_VERSION = 1
_VELOCITY = "opt.velocity."


def save_checkpoint(path: str, result: TrainResult) -> None:
    """Parameters and optimizer velocities as float64 arrays sorted by name,
    so save -> load -> save is byte-identical."""
    opt = result.optimizer
    arrays = {name: p.data for name, p in result.model.named_params().items()}
    arrays.update({_VELOCITY + name: v for name, v in opt.named_velocity().items()})
    names = sorted(arrays)
    header = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
              "config": result.cfg.to_dict(), "epoch": int(opt.state.epoch),
              "optimizer": asdict(opt.state),
              "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names]}
    container.write(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header,
                    (np.ascontiguousarray(arrays[n], dtype="<f8") for n in names))


def load_checkpoint(path: str) -> tuple[RunConfig, Model, SGD, int]:
    """(config, model, optimizer, epoch), one array per read. A damaged file,
    a malformed header field, an array the model has no place for, a missing
    parameter and a non-finite array each raise CheckpointError."""
    with container.read(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION,
                        CHECKPOINT_FORMAT) as (header, take):
        with container.malformed(path):
            cfg = RunConfig.from_dict(header["config"])
            opt_state = OptimizerState(**header["optimizer"])
            entries = [(str(e["name"]), tuple(e["shape"])) for e in header["arrays"]]
            epoch = header["epoch"]
        model = Model(cfg, input_dim=cfg.generator.dim)
        opt = SGD(model.param_groups(), opt_state)
        params = model.named_params()
        velocity: dict[str, np.ndarray] = {}
        loaded: set[str] = set()
        for name, shape in entries:
            param = params.get(name.removeprefix(_VELOCITY))
            if param is None:
                raise CheckpointError(f"{path}: unexpected array '{name}'")
            if shape != param.data.shape:
                raise CheckpointError(f"{path}: shape mismatch for '{name}': "
                                      f"file {shape} vs model {param.data.shape}")
            raw = take(8 * param.data.size, f"array '{name}'")
            arr = np.frombuffer(raw, dtype="<f8").reshape(param.data.shape).copy()
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: non-finite values in array '{name}'")
            if name.startswith(_VELOCITY):
                velocity[param.name] = arr
            else:
                param.data = arr
                loaded.add(name)
    missing = sorted(set(params) - loaded)
    if missing:
        raise CheckpointError(f"{path}: missing parameter array '{missing[0]}'")
    opt.load_velocity(velocity)
    return cfg, model, opt, epoch


def evaluate_checkpoint(path: str, dataset: Dataset, fusion: FusionConfig) -> EvalRecord:
    cfg, model, _, _ = load_checkpoint(path)
    if cfg.generator.dim != dataset.config.dim:
        raise ContractError(
            f"checkpoint dim {cfg.generator.dim} != dataset dim {dataset.config.dim}"
        )
    return evaluate_model(model, dataset, fusion)


# -- ablation grid ----------------------------------------------------------------

_TRAINING_IRRELEVANT = {"fusion_phi", "fusion_mode"}


def ablate(base_cfg: RunConfig, cells: list[dict], dataset: Dataset | None = None,
           progress=None) -> list[dict]:
    """Run every override cell, sharing seeds and reusing training runs for
    cells that differ only in inference-time fusion settings."""
    if not cells:
        raise ContractError("empty ablation grid")
    dataset = dataset if dataset is not None else generate(base_cfg.generator)
    cache: dict[str, TrainResult] = {}
    rows = []
    for cell in cells:
        cfg = base_cfg.replace(**cell)
        train_key = canonical_json({k: v for k, v in cfg.to_dict().items()
                                    if k not in _TRAINING_IRRELEVANT})
        if train_key not in cache:
            cache[train_key] = Trainer(cfg, dataset).run()
        result = cache[train_key]
        rec = evaluate_model(result.model, dataset,
                             FusionConfig(phi=cfg.fusion_phi, mode=cfg.fusion_mode))
        row = {
            "enable_step1": cfg.enable_step1,
            "enable_step2": cfg.enable_step2,
            "enable_align": cfg.enable_align,
            "fusion_mode": cfg.fusion_mode,
            "seed": cfg.seed,
            "acc2": rec.acc2,
            "acc3": rec.acc3,
            "acc_joint": rec.acc_joint,
            "c_err": rec.c_err,
        }
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def ablation_csv(rows: list[dict]) -> str:
    cols = ["enable_step1", "enable_step2", "enable_align", "fusion_mode",
            "seed", "acc2", "acc3", "acc_joint", "c_err"]
    lines = [",".join(cols)]
    for row in rows:
        lines.append(",".join(str(row[c]) for c in cols))
    return "\n".join(lines) + "\n"
