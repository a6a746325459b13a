"""End-to-end training loop with the iterative mine/train pattern.

Each epoch: (a) a no-grad pass over the train split collects per-sample
branch losses and probabilities; (b) on schedule, mining refreshes the
joint hard set; (c) every batch sums the enabled loss terms and takes one
optimizer step; (d) the test split is evaluated and one metrics record
appended. Everything is a pure function of the run config.

Gradient routing is structural, and it is the only routing mechanism: the
invariance term sees only detached encoder outputs (so its backward can reach
nothing but the gate), and the alignment term multiplies by a detached copy
of the mask (so the gate's logits never learn from it). Each optimizer step
then updates exactly the parameters its backward pass reached.
"""

from __future__ import annotations

import ctypes
import functools
import json
import os
from dataclasses import dataclass

import numpy as np

from . import container
from . import tensor as T
from .config import RunConfig
from .container import canonical_json
from .data import Dataset, augment_3d, generate
from .encoders import ClassHead, CrossAttention, GateMask, ModalityEncoder, MultiViewAggregator
from .errors import CheckpointError, ContractError, NumericError
from .fusion import EvalRecord, FusionConfig, confusion_csv, fuse, predict
from .losses import (
    ContrastiveBatch,
    contrastive_report,
    cross_entropy,
    modality_irm_loss,
    nt_xent_align,
)
from .mining import fit_gmm2, mining_schedule, select_joint_hard, select_modality_hard
from .optim import SGD

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

    def __init__(self, cfg: RunConfig):
        dims = [cfg.generator.dim, *cfg.encoder_hidden, cfg.output_dim]
        self.cfg = cfg
        self.enc2d = ModalityEncoder("enc2d", dims, cfg.encoder_init,
                                     _component_rng(cfg.seed, "enc2d"))
        self.enc3d = ModalityEncoder("enc3d", dims, cfg.encoder_init,
                                     _component_rng(cfg.seed, "enc3d"))
        c = cfg.generator.num_classes
        self.head2d = ClassHead(c, cfg.output_dim, _component_rng(cfg.seed, "head2d"),
                                mode=cfg.head2d_mode, scale=cfg.head_scale, name="head2d")
        self.head3d = ClassHead(c, cfg.output_dim, _component_rng(cfg.seed, "head3d"),
                                mode=cfg.head3d_mode, scale=cfg.head_scale, name="head3d")
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

    def named_params(self) -> dict[str, T.Tensor]:
        parts = (self.enc2d, self.head2d, self.mva, self.enc3d, self.head3d, self.gate,
                 self.xattn)
        return {p.name: p for part in parts if part is not None for p in part.params}

    # -- forward paths --------------------------------------------------------

    def features_2d(self, views: np.ndarray) -> tuple[T.Tensor, T.Tensor]:
        """[B, N, d_in] -> (per-view features [B, N, d], aggregated [B, d])."""
        per_view = self.enc2d(T.constant(views))
        if self.mva is not None:
            agg = self.mva(per_view, self.cfg.view_attention_delta)
        else:
            agg = T.mean_(per_view, axis=1)
        return per_view, agg

    def logits_2d(self, per_view: T.Tensor) -> T.Tensor:
        b, n, d = per_view.shape
        flat = T.reshape(per_view, (b * n, d))
        per_view_logits = T.reshape(self.head2d.logits(flat), (b, n, self.head2d.num_classes))
        return T.mean_(per_view_logits, axis=1)


def _build(cfg: RunConfig) -> tuple[Model, SGD]:
    """A fresh model for `cfg` and the optimizer over its parameters."""
    model = Model(cfg)
    return model, SGD(model.named_params(), cfg)


@dataclass
class TrainResult:
    cfg: RunConfig
    model: Model
    optimizer: SGD
    metrics: list[dict]

    def final(self, key: str):
        return self.metrics[-1][key]


def _branch_outputs(model: Model, x3: np.ndarray, views: np.ndarray):
    """No-grad logits for both branches (numpy). The 2D logits average the
    per-view logits, so no view aggregate is built."""
    with T.no_grad():
        logits3 = model.head3d.logits(model.enc3d(x3))
        logits2 = model.logits_2d(model.enc2d(T.constant(views)))
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


def _check_fits(cfg: RunConfig, dataset: Dataset, source: str) -> None:
    """Raise ContractError unless a model built from `cfg` fits `dataset`: the
    same feature dim and classes, and the same views when view attention is on."""
    views = ("num_views",) if cfg.use_view_attention else ()
    for name in ("dim", "num_classes", *views):
        ours, theirs = getattr(cfg.generator, name), getattr(dataset.config, name)
        if ours != theirs:
            raise ContractError(f"{source} {name} {ours} != dataset {name} {theirs}")


# mallopt (parameter, value) pairs: glibc's M_MMAP_THRESHOLD (-3) and
# M_TRIM_THRESHOLD (-1) at the ceiling of its own dynamic rule, 32 MiB and twice that
_MALLOC_PINS = ((-3, 32 << 20), (-1, 64 << 20))


def pin_malloc_thresholds(libc) -> bool:
    """Keep freed heap memory for reuse: set glibc's mmap and trim thresholds
    through `libc.mallopt`. True if both were set; a library without
    `mallopt`, or one that refuses the first setting, is left unchanged.

    With glibc's defaults, an invariance pool's `[128, 128]` float64
    temporaries (exactly 128 KiB) are trimmed from the heap after each call
    and page-faulted back in on the next.
    """
    mallopt = getattr(libc, "mallopt", None)
    if mallopt is None:
        return False
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    return all(mallopt(param, value) == 1 for param, value in _MALLOC_PINS)


@functools.cache
def _retain_heap() -> bool:
    """`pin_malloc_thresholds` on this process's C library, once per process."""
    try:
        return pin_malloc_thresholds(ctypes.CDLL(None))
    except (OSError, TypeError):    # no C library to load by that name
        return False


class Trainer:
    def __init__(self, cfg: RunConfig, dataset: Dataset | None = None):
        _retain_heap()
        self.cfg = cfg
        self.dataset = dataset if dataset is not None else generate(cfg.generator)
        _check_fits(cfg, self.dataset, "config")
        cfg.check_exponents(self.dataset.config.num_views)
        self.model, self.optimizer = _build(cfg)
        self.train_x3, self.train_views, self.train_labels = self.dataset.arrays("train")
        n = len(self.train_labels)
        if cfg.enable_step2 and not cfg.enable_step1 and cfg.invariance_on_all:
            self.d_joint = np.arange(n)
        else:
            self.d_joint = np.empty(0, dtype=int)
        self.fusion = FusionConfig(phi=cfg.fusion_phi, mode=cfg.fusion_mode)
        self.metrics: list[dict] = []
        self.last_eval: EvalRecord | None = None   # the latest epoch's test-split record

    # -- mining ---------------------------------------------------------------

    def _train_split_stats(self):
        """(ce2, ce3, probs2, probs3): per-sample CE losses and softmax
        probabilities of both branches, each branch's pair from one log-softmax."""
        rows = np.arange(len(self.train_labels))
        stats = [T._log_softmax(logits, 1)
                 for logits in _branch_outputs(self.model, self.train_x3, self.train_views)]
        return (*(-log_probs[rows, self.train_labels] for log_probs, _, _ in stats),
                *(e / s for _, e, s in stats))

    def _mine(self, epoch: int) -> dict | None:
        """On a mining epoch, refresh `d_joint` and return the epoch's `mining`
        record; otherwise None."""
        cfg = self.cfg
        if not (cfg.enable_step1 and mining_schedule(epoch, cfg.mining_warmup, cfg.mining_period)):
            return None
        ce2, ce3, probs2, probs3 = self._train_split_stats()
        # one EM loop fits the modalities with 4 or more samples and spread;
        # the rest have no mixture, so no hard samples this epoch
        ces, ps = (ce2, ce3), (cfg.posterior_p2, cfg.posterior_p3)
        spread = [i for i in (0, 1) if ces[i].size >= 4 and np.ptp(ces[i]) > 0]
        hard = [np.empty(0, dtype=int)] * 2
        fits = fit_gmm2(np.stack([ces[i] for i in spread])).fits if spread else []
        for i, fit in zip(spread, fits):
            hard[i] = select_modality_hard(ces[i], ps[i], fit=fit)
        d2, d3 = hard
        candidates = np.union1d(d2, d3)
        self.d_joint, r1, r2 = (
            select_joint_hard(candidates, probs2, probs3, self.train_labels,
                              rho=cfg.mining_rho, k=cfg.mining_topk)
            if candidates.size else (np.empty(0, dtype=int), float("nan"), 0))
        return {"d2": d2.tolist(), "d3": d3.tolist(), "d_joint": self.d_joint.tolist(),
                "r1": float(r1), "r2": int(r2), "p2": float(cfg.posterior_p2),
                "p3": float(cfg.posterior_p3), "epoch": int(epoch)}

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
        aug = [augment_3d(x3_hard, rng, jitter_sigma=jitter) for _ in range(cfg.n_3d_augments)]
        with T.no_grad():
            feats3 = self.model.enc3d(np.concatenate([self.train_x3[idx], *aug], axis=0)).data
        feats2 = per_view.data.reshape(-1, cfg.output_dim)

        n_aug = cfg.n_3d_augments * subset.size
        labels3 = np.concatenate([labels, np.tile(self.train_labels[subset], cfg.n_3d_augments)])
        anchors3 = np.concatenate([is_hard, np.zeros(n_aug, dtype=bool)])
        labels2 = np.repeat(labels, per_view.shape[1])
        anchors2 = np.repeat(is_hard, per_view.shape[1])
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
        return modality_irm_loss(envs, cfg.irm_variant, cfg.irm_lambda, cfg.inv_theta,
                                 cfg.rex_lambda_min, cfg.rex_beta)

    def total_objective(self, idx: np.ndarray, epoch: int, batch_i: int):
        """Compute the objective for one batch of train indices: cross-entropy
        plus the terms the config enables. Returns (total, parts)."""
        cfg = self.cfg
        labels = self.train_labels[idx]
        feats3 = self.model.enc3d(self.train_x3[idx])
        per_view, agg2 = self.model.features_2d(self.train_views[idx])

        ce2 = cross_entropy(self.model.logits_2d(per_view), labels)
        ce3 = cross_entropy(self.model.head3d.logits(feats3), labels)
        total = T.add(T.mean_(ce2), T.mean_(ce3))
        parts = {"ce": total.item(), "inv": None, "align": None}

        if cfg.enable_step2:
            inv = self._invariance_term(idx, epoch, batch_i, per_view, agg2)
            if inv is not None:
                total = T.add(total, inv)
                parts["inv"] = inv.item()

        if cfg.enable_align and idx.size >= 2:
            z2 = self.model.gate.apply(agg2, learn=False)
            z3 = self.model.gate.apply(feats3, learn=False)
            align = nt_xent_align(z2, z3, tau=cfg.align_tau)
            total = T.add(total, T.mul(align, T.constant(cfg.align_alpha)))
            parts["align"] = align.item()
        return total, parts

    # -- steps ----------------------------------------------------------------

    def run_epoch(self, epoch: int) -> dict:
        cfg = self.cfg
        self.optimizer.epoch = epoch
        mining = self._mine(epoch)
        order = np.random.default_rng(
            np.random.SeedSequence([cfg.seed, _SEED_TAGS["batches"], epoch])
        ).permutation(len(self.train_labels))

        sums = {"ce": 0.0, "inv": 0.0, "align": 0.0}
        counts = {"ce": 0, "inv": 0, "align": 0}
        for batch_i in range(0, len(order), cfg.batch_size):
            idx = order[batch_i: batch_i + cfg.batch_size]
            total, parts = self.total_objective(idx, epoch, batch_i // cfg.batch_size)
            if not np.isfinite(total.item()):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_i // cfg.batch_size}"
                )
            self.optimizer.zero_grad()
            T.backward(total)
            self.optimizer.step()
            for key, val in parts.items():
                if val is not None:
                    sums[key] += val
                    counts[key] += 1
        # the loss check above runs before each step, so it cannot see the last one
        for name, param in self.model.named_params().items():
            if not np.isfinite(param.data).all():
                raise NumericError(f"non-finite parameter '{name}' after epoch {epoch}")

        rec = self.last_eval = evaluate_model(self.model, self.dataset, self.fusion)
        record = {
            "epoch": epoch,
            "lr": self.optimizer.lr(),
            "loss_ce": sums["ce"] / counts["ce"] if counts["ce"] else None,
            "loss_inv": sums["inv"] / counts["inv"] if counts["inv"] else None,
            "loss_align": sums["align"] / counts["align"] if counts["align"] else None,
            "inv_batches": counts["inv"],
            "n_joint_hard": int(self.d_joint.size),
            "mining": mining,
            **rec.aggregates(),
        }
        self.metrics.append(record)
        return record

    def run(self) -> TrainResult:
        for epoch in range(self.cfg.epochs):
            self.run_epoch(epoch)
        return TrainResult(cfg=self.cfg, model=self.model, optimizer=self.optimizer,
                           metrics=self.metrics)


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
        write_eval_artifacts(trainer.last_eval, out_dir)
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
CHECKPOINT_VERSION = 2
_VELOCITY = "opt.velocity."


def save_checkpoint(path: str, result: TrainResult) -> None:
    """Parameters and optimizer velocities as float64 arrays sorted by name,
    so save -> load -> save is byte-identical; the header adds the config and
    the optimizer's epoch."""
    opt = result.optimizer
    arrays = {name: p.data for name, p in result.model.named_params().items()}
    arrays.update({_VELOCITY + name: v for name, v in opt.velocity.items()})
    names = sorted(arrays)
    header = {"format": CHECKPOINT_FORMAT, "version": CHECKPOINT_VERSION,
              "config": result.cfg.to_dict(), "epoch": opt.epoch,
              "arrays": [{"name": n, "shape": list(arrays[n].shape)} for n in names]}
    container.write(path, CHECKPOINT_MAGIC, CHECKPOINT_VERSION, header,
                    (np.ascontiguousarray(arrays[n], dtype="<f8") for n in names))


def load_checkpoint(path: str) -> TrainResult:
    """The TrainResult that `save_checkpoint` took, with no metrics; one array
    per read. A damaged file, a malformed header field, a header version
    other than the preamble's, an epoch outside [0, epochs), a v1 optimizer
    block other than the one its config and epoch give, an array the model
    has no place for or that the header lists twice, a missing parameter and
    a non-finite array raise CheckpointError."""
    with container.read(path, CHECKPOINT_MAGIC, (1, CHECKPOINT_VERSION),
                        CHECKPOINT_FORMAT) as (version, header, take):
        with container.malformed(path):
            cfg = RunConfig.from_dict(header["config"])
            entries = [(str(e["name"]), tuple(e["shape"])) for e in header["arrays"]]
            epoch = header["epoch"]
        said = canonical_json(header.get("version"))
        if said != str(version):
            raise CheckpointError(f"{path}: header version {said} is not the file's "
                                  f"version {version}")
        if type(epoch) is not int or not 0 <= epoch < cfg.epochs:
            raise CheckpointError(f"{path}: header epoch {epoch!r} is not an int "
                                  f"in [0, epochs {cfg.epochs})")
        if version == 1:    # its optimizer block repeats four config values and the epoch
            block = canonical_json(header.get("optimizer"))
            derived = canonical_json({"base_lr": cfg.base_lr, "weight_decay": cfg.weight_decay,
                                      "momentum": cfg.momentum, "epoch": epoch,
                                      "total_epochs": cfg.epochs, "lr_min": 0.0})
            if block != derived:
                raise CheckpointError(f"{path}: optimizer block {block} is not {derived}, "
                                      "the one its config and epoch give")
        model, opt = _build(cfg)
        opt.epoch = epoch
        params = model.named_params()
        seen: set[str] = set()
        for name, shape in entries:
            param = params.get(name.removeprefix(_VELOCITY))
            if param is None:
                raise CheckpointError(f"{path}: unexpected array '{name}'")
            if name in seen:
                raise CheckpointError(f"{path}: array '{name}' listed twice")
            seen.add(name)
            if shape != param.data.shape:
                raise CheckpointError(f"{path}: shape mismatch for '{name}': "
                                      f"file {shape} vs model {param.data.shape}")
            raw = take(8 * param.data.size, f"array '{name}'")
            arr = np.frombuffer(raw, dtype="<f8").reshape(param.data.shape).copy()
            if not np.isfinite(arr).all():
                raise CheckpointError(f"{path}: non-finite values in array '{name}'")
            if name.startswith(_VELOCITY):
                opt.velocity[param.name] = arr
            else:
                param.data = arr
    missing = sorted(set(params) - seen)
    if missing:
        raise CheckpointError(f"{path}: missing parameter array '{missing[0]}'")
    return TrainResult(cfg=cfg, model=model, optimizer=opt, metrics=[])


def evaluate_checkpoint(path: str, dataset: Dataset, fusion: FusionConfig) -> EvalRecord:
    result = load_checkpoint(path)
    _check_fits(result.cfg, dataset, "checkpoint")
    return evaluate_model(result.model, dataset, fusion)


# -- ablation grid ----------------------------------------------------------------

_TRAINING_IRRELEVANT = {"fusion_phi", "fusion_mode"}
# without step 2 nothing reads the mined set, and mining changes no parameter
# and draws no random numbers: these fields cannot change what such a run trains
_MINING_ONLY = ("enable_step1", "mining_", "posterior_")
# an ablation row's columns: the cell's RunConfig fields, then its EvalRecord aggregates
ABLATION_COLUMNS = ("enable_step1", "enable_step2", "enable_align", "fusion_mode", "seed",
                    "acc2", "acc3", "acc_joint", "c_err")


def ablate(base_cfg: RunConfig, cells: list[dict], dataset: Dataset | None = None,
           progress=None) -> list[dict]:
    """Run every override cell, sharing seeds and reusing training runs for
    cells that differ only in inference-time fusion settings or, with step 2
    off, in mining settings."""
    if not cells:
        raise ContractError("empty ablation grid")
    if any("generator" in cell for cell in cells):
        raise ContractError("an ablation cell cannot override 'generator': every cell "
                            "shares one dataset")
    dataset = dataset if dataset is not None else generate(base_cfg.generator)
    cache: dict[str, TrainResult] = {}
    rows = []
    for cell in cells:
        cfg = base_cfg.replace(**cell)
        train_key = canonical_json({k: v for k, v in cfg.to_dict().items()
                                    if k not in _TRAINING_IRRELEVANT
                                    and (cfg.enable_step2 or not k.startswith(_MINING_ONLY))})
        if train_key not in cache:
            cache[train_key] = Trainer(cfg, dataset).run()
        rec = evaluate_model(cache[train_key].model, dataset,
                             FusionConfig(phi=cfg.fusion_phi, mode=cfg.fusion_mode))
        row = {c: getattr(cfg if hasattr(cfg, c) else rec, c) for c in ABLATION_COLUMNS}
        rows.append(row)
        if progress is not None:
            progress(row)
    return rows


def ablation_csv(rows: list[dict]) -> str:
    lines = [ABLATION_COLUMNS, *([row[c] for c in ABLATION_COLUMNS] for row in rows)]
    return "".join(",".join(map(str, line)) + "\n" for line in lines)
