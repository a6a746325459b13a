"""Synthetic two-modality classification testbed.

Every sample carries an invariant block (a noisy copy of its class mean,
identical in meaning across modalities) and a per-modality confounder block
(a noisy copy of a confounder mean associated with some class). With
probability `p_conflict` a sample's confounder blocks are swapped toward
*different* wrong classes in the two modalities, planting exactly the kind
of conflicting high-confidence errors the training strategy targets.

Generation is fully deterministic given the seed; per-(split, class)
substreams keep it so even if classes are generated out of order.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from . import container
from .errors import CheckpointError, ContractError

FORMAT_NAME = "invgate-dataset"
FORMAT_VERSION = 1
MAGIC = b"IGDS"
SPLITS = ("train", "test")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# field annotation -> (what the field must be, test); a float field keeps an
# int as given, so a config written back out keeps its bytes
_FIELD_KINDS = {
    "int": ("an integer", _is_int),
    "float": ("a finite number",   # exact comparison: NaN, inf and huge ints fail
              lambda v: (_is_int(v) or isinstance(v, float)) and abs(v) <= sys.float_info.max),
    "bool": ("true or false", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "tuple[int, ...]": ("a list of integers",
                        lambda v: isinstance(v, (list, tuple)) and all(map(_is_int, v))),
    "GeneratorConfig": ("a GeneratorConfig", lambda v: isinstance(v, GeneratorConfig)),
}


def check_fields(config) -> None:
    """Reject a config dataclass with a field of the wrong type, a NaN or
    infinite float, or a negative seed. A nested config checks its own."""
    for f in fields(config):
        value = getattr(config, f.name)
        what, ok = _FIELD_KINDS.get(f.type, (None, None))
        if ok is not None and not ok(value):
            raise ContractError(f"{f.name} must be {what}, got {value!r}")
        if f.name == "seed" and value < 0:
            raise ContractError(f"seed must be >= 0, got {value}")


@dataclass
class GeneratorConfig:
    num_classes: int = 10
    shots: int = 16                 # samples per class per split
    invariant_dim: int = 12
    confound_dim: int = 8
    sigma_invariant: float = 0.3
    sigma_confound: float = 0.05
    p_conflict: float = 0.25
    num_views: int = 4
    # fraction of each confounder mean that lives in a dictionary common to
    # both modalities (real modality confounders are partially correlated);
    # 0 keeps the dictionaries fully modality-specific
    confound_shared_frac: float = 0.0
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        for name in ("sigma_invariant", "sigma_confound"):
            if getattr(self, name) < 0.0:
                raise ContractError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not (0.0 <= self.p_conflict <= 1.0):
            raise ContractError("p_conflict must lie in [0, 1]")
        if not (0.0 <= self.confound_shared_frac <= 1.0):
            raise ContractError("confound_shared_frac must lie in [0, 1]")
        if self.p_conflict > 0 and self.num_classes < 3:
            raise ContractError(
                "planting conflicts needs >= 3 classes (two distinct wrong targets)"
            )
        if min(self.num_classes, self.shots, self.invariant_dim,
               self.confound_dim, self.num_views) < 1:
            raise ContractError("counts and dims must be positive")

    @property
    def dim(self) -> int:
        return self.invariant_dim + self.confound_dim


@dataclass(eq=False)
class Sample:
    """One split row as views into the split's arrays; see `Dataset.train`."""

    label: int
    x3: np.ndarray                      # [dim]
    views: np.ndarray                   # [num_views, dim]
    planted_hard: bool = False
    hard_targets: tuple[int, int] | None = None   # (wrong 2d class, wrong 3d class)


class Split(NamedTuple):
    """One split's rows as aligned arrays."""

    x3: np.ndarray          # [n, dim]
    views: np.ndarray       # [n, num_views, dim]
    labels: np.ndarray      # [n]
    planted: np.ndarray     # [n] bool: the generator planted a conflict in this row
    targets: np.ndarray     # [n, 2] a planted row's (wrong 2d class, wrong 3d class), else -1

    def rows(self) -> list[Sample]:
        return [Sample(label, x3, views, planted, tuple(targets) if planted else None)
                for label, x3, views, planted, targets in zip(
                    self.labels.tolist(), self.x3, self.views, self.planted.tolist(),
                    self.targets.tolist())]


@dataclass
class Dataset:
    """Two splits, each held once as a `Split` of read-only arrays."""

    config: GeneratorConfig
    splits: dict[str, Split]

    def __post_init__(self):
        c = self.config.num_classes
        for name, split in self.splits.items():
            labels, (r2, r3) = split.labels, split.targets.T
            planted_ok = ((r2 != r3) & (r2 != labels) & (r3 != labels)
                          & (np.minimum(r2, r3) >= 0) & (np.maximum(r2, r3) < c))
            ok = (labels >= 0) & (labels < c) & np.where(split.planted, planted_ok,
                                                         (r2 == -1) & (r3 == -1))
            if not ok.all():
                raise ContractError(
                    f"{name} row {np.argmin(ok)}: labels must lie in [0, {c}); a planted row's "
                    f"targets must be two distinct classes other than its label, others' -1")
            for arr in split:
                arr.flags.writeable = False

    def __eq__(self, other):
        return (isinstance(other, Dataset) and self.config == other.config
                and all(np.array_equal(a, b) for name in SPLITS
                        for a, b in zip(self.splits[name], other.splits[name])))

    def arrays(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x3 [n, d], views [n, N, d], labels [n]) for one split, read-only."""
        if name not in SPLITS:
            raise ContractError(f"unknown split {name!r}")
        return self.splits[name][:3]

    # Row views for perfbench/workloads.py, their one remaining reader: len, + and every field.
    @property
    def train(self) -> list[Sample]:
        return self.splits["train"].rows()

    @property
    def test(self) -> list[Sample]:
        return self.splits["test"].rows()


def _unit_rows(rng: np.random.Generator, n: int, d: int) -> np.ndarray:
    rows = rng.normal(size=(n, d))
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def class_means(cfg: GeneratorConfig) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(invariant means, 2D confounder means, 3D confounder means), from seed.

    Invariant class means are exactly orthonormal when the dimension allows
    (a seeded random orthonormal frame), otherwise normalized Gaussian rows.
    Confounder means are unit vectors whose first block comes from a
    dictionary shared by both modalities and the rest is modality-specific,
    mixed by `confound_shared_frac`.
    """
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0xC0]))
    if cfg.invariant_dim >= cfg.num_classes:
        frame, _ = np.linalg.qr(rng.normal(size=(cfg.invariant_dim, cfg.invariant_dim)))
        mu = frame.T[: cfg.num_classes].copy()
    else:
        mu = _unit_rows(rng, cfg.num_classes, cfg.invariant_dim)

    s = cfg.confound_shared_frac
    d_shared = int(round(s * cfg.confound_dim))
    d_own = cfg.confound_dim - d_shared
    shared = _unit_rows(rng, cfg.num_classes, d_shared) if d_shared else np.zeros((cfg.num_classes, 0))
    own2 = _unit_rows(rng, cfg.num_classes, d_own) if d_own else np.zeros((cfg.num_classes, 0))
    own3 = _unit_rows(rng, cfg.num_classes, d_own) if d_own else np.zeros((cfg.num_classes, 0))
    w_shared = np.sqrt(s) if d_shared else 0.0
    w_own = np.sqrt(1.0 - s) if d_own else 0.0
    nu2 = np.concatenate([w_shared * shared, w_own * own2], axis=1)
    nu3 = np.concatenate([w_shared * shared, w_own * own3], axis=1)
    norms = np.linalg.norm(nu2, axis=1, keepdims=True)
    nu2, nu3 = nu2 / norms, nu3 / np.linalg.norm(nu3, axis=1, keepdims=True)
    return mu, nu2, nu3


def generate(cfg: GeneratorConfig) -> Dataset:
    """Deterministic train/test splits, `shots` samples per class each, drawn
    row by row from one stream per (split, class)."""
    mu, nu2, nu3 = class_means(cfg)
    n, d = cfg.num_classes * cfg.shots, cfg.invariant_dim
    splits = {}
    for split_idx, name in enumerate(SPLITS):
        rows = Split(np.empty((n, cfg.dim)), np.empty((n, cfg.num_views, cfg.dim)),
                     np.repeat(np.arange(cfg.num_classes), cfg.shots),
                     np.zeros(n, dtype=bool), np.full((n, 2), -1))
        for i, label in enumerate(rows.labels.tolist()):
            if i % cfg.shots == 0:
                rng = np.random.default_rng(
                    np.random.SeedSequence([cfg.seed, split_idx, label, 0xD5]))
            t2 = t3 = label
            if rng.random() < cfg.p_conflict:
                others = [c for c in range(cfg.num_classes) if c != label]
                t2 = int(rng.choice(others))
                t3 = int(rng.choice([c for c in others if c != t2]))
                rows.planted[i] = True
                rows.targets[i] = (t2, t3)
            rows.x3[i, :d] = mu[label] + cfg.sigma_invariant * rng.normal(size=d)
            rows.x3[i, d:] = nu3[t3] + cfg.sigma_confound * rng.normal(size=cfg.confound_dim)
            base2 = np.concatenate([
                mu[label] + cfg.sigma_invariant * rng.normal(size=d),
                nu2[t2] + cfg.sigma_confound * rng.normal(size=cfg.confound_dim)])
            rows.views[i] = base2 + 0.5 * cfg.sigma_invariant * rng.normal(
                size=(cfg.num_views, cfg.dim))
        splits[name] = rows
    return Dataset(cfg, splits)


def augment_3d(x3: np.ndarray, rng: np.random.Generator, jitter_sigma: float) -> np.ndarray:
    """Label-preserving 3D-style augmentation of a block `[k, d]`: a global
    scale from U(0.8, 1.25), a per-coordinate sign-preserving wobble of up
    to 5%, and additive N(0, jitter_sigma^2) jitter.

    Each row's scale, wobble and jitter are drawn in that order, row after
    row, so a block takes the stream and gives the values of k one-row
    draws on the same generator. A row takes two generator calls: its
    scale and wobbles as `d + 1` standard uniforms, then its standard
    normals. The block arithmetic is what `uniform` and `normal` compute
    per value, `low + (high - low) * u` and `loc + scale * z`.
    """
    if not 0.0 <= jitter_sigma < math.inf:
        raise ContractError(f"jitter_sigma must be finite and >= 0, got {jitter_sigma}")
    k, d = x3.shape
    u, z = np.empty((k, d + 1)), np.zeros((k, d))
    for i in range(k):
        rng.random(out=u[i])
        if jitter_sigma > 0:
            rng.standard_normal(out=z[i])
    scale = 0.8 + (1.25 - 0.8) * u[:, :1]
    wobble = -1.0 + 2.0 * u[:, 1:]
    jitter = 0.0 + z        # `normal`'s loc + 1.0 * z, which turns -0.0 into +0.0
    return x3 * scale * (1.0 + 0.05 * wobble) + jitter_sigma * jitter


def bayes_oracle(dataset: Dataset) -> float:
    """Accuracy of nearest-class-mean on the invariant block alone.

    This is the reference classifier that confounders cannot touch; it
    upper-bounds what invariant information supports.
    """
    cfg = dataset.config
    mu, _, _ = class_means(cfg)
    x3, _, labels = dataset.arrays("test")
    inv = x3[:, : cfg.invariant_dim]
    dists = np.linalg.norm(inv[:, None, :] - mu[None, :, :], axis=-1)
    preds = dists.argmin(axis=1)
    return float((preds == labels).mean())


# -- persistence ---------------------------------------------------------------


def _record_dtype(cfg: GeneratorConfig) -> np.dtype:
    """One row on file in both modes, its fields named as in `Split`."""
    return np.dtype([("labels", "<i8"), ("planted", "<i8"), ("targets", "<i8", (2,)),
                     ("x3", "<f8", (cfg.dim,)), ("views", "<f8", (cfg.num_views, cfg.dim))])


def _words(records: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A record array as 8-byte words: (the four ints [n, 4], the floats [n, k])."""
    n = len(records)
    return records.view("<i8").reshape(n, -1)[:, :4], records.view("<f8").reshape(n, -1)[:, 4:]


def save_dataset(dataset: Dataset, path: str, mode: str = "binary") -> None:
    """Write the container: one record array per split in binary mode, one
    line per record in text mode; load->save is byte-stable in both."""
    if mode not in ("binary", "text"):
        raise ContractError(f"unknown mode {mode!r}")
    cfg, dtype = dataset.config, _record_dtype(dataset.config)
    records = (np.rec.fromarrays([getattr(dataset.splits[name], f) for f in dtype.names],
                                 dtype=dtype) for name in SPLITS)
    header = _header(cfg, mode)
    if mode == "binary":
        container.write(path, MAGIC, FORMAT_VERSION, header, records)
        return
    with container.atomic_open(path) as fh:
        fh.write(f"{FORMAT_NAME} v{FORMAT_VERSION} text\n{container.canonical_json(header)}\n")
        for split_records in records:
            ints, floats = _words(split_records)
            for row_ints, row_floats in zip(ints.tolist(), floats):
                fh.write(" ".join([*map(str, row_ints), *map(repr, row_floats.tolist())]) + "\n")


def _header(cfg: GeneratorConfig, mode: str) -> dict:
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, "mode": mode,
            "config": asdict(cfg), "counts": {s: cfg.num_classes * cfg.shots for s in SPLITS}}


def _generator_config(header: dict, path: str, mode: str) -> GeneratorConfig:
    """The header's config; the header must be, as canonical JSON, the one
    that config and `mode` give."""
    with container.malformed(path):
        cfg = GeneratorConfig(**header["config"])
    said, derived = container.canonical_json(header), container.canonical_json(_header(cfg, mode))
    if said != derived:
        raise CheckpointError(f"{path}: header {said} is not {derived}, "
                              f"the one its config and mode give")
    return cfg


def load_dataset(path: str) -> Dataset:
    """A dataset file of either mode. A truncated or malformed file, a header
    other than the one its config and mode give, and rows that break a
    `Dataset` check raise CheckpointError naming `path`."""
    with open(path, "rb") as fh:
        binary = fh.read(len(MAGIC)) == MAGIC
    if binary:      # one read per split
        with container.read(path, MAGIC, (FORMAT_VERSION,), FORMAT_NAME) as (_, header, take):
            cfg = _generator_config(header, path, "binary")
            dtype, n = _record_dtype(cfg), cfg.num_classes * cfg.shots
            records = [np.frombuffer(take(n * dtype.itemsize, f"the {name} split"), dtype)
                       for name in SPLITS]
    else:
        cfg, records = _read_text(path)
    try:
        return Dataset(cfg, {name: Split(r["x3"].copy(), r["views"].copy(), r["labels"].copy(),
                                         r["planted"].astype(bool), r["targets"].copy())
                             for name, r in zip(SPLITS, records)})
    except ContractError as exc:
        raise CheckpointError(f"{path}: {exc}") from exc


def _read_text(path: str) -> tuple[GeneratorConfig, list[np.ndarray]]:
    """The config and each split's records, read line by line into one array."""
    with open(path, "r", errors="replace") as fh:
        if fh.readline().strip() != f"{FORMAT_NAME} v{FORMAT_VERSION} text":
            raise CheckpointError(f"unrecognized dataset file {path!r}")
        header = container.parse_header(fh.readline(), path, FORMAT_NAME)
        cfg = _generator_config(header, path, "text")
        n, n_fields = cfg.num_classes * cfg.shots, 4 + cfg.dim * (1 + cfg.num_views)
        if 4 * n * n_fields > os.fstat(fh.fileno()).st_size:   # two characters a field
            raise CheckpointError(f"{path}: the header declares more samples than the file holds")
        records = np.empty(2 * n, _record_dtype(cfg))
        ints, floats = _words(records)
        count = 0
        for i, line in enumerate(fh, start=3):
            if not line.endswith("\n"):
                raise CheckpointError(f"{path}: dataset truncated in line {i}")
            parts = line.split()
            if not parts:
                continue
            if len(parts) != n_fields:
                raise CheckpointError(
                    f"{path}: line {i} has {len(parts)} fields, expected {n_fields}")
            if count == 2 * n:
                raise CheckpointError(f"{path}: line {i}: more than {2 * n} samples")
            try:
                ints[count] = [int(v) for v in parts[:4]]
                floats[count] = [float(v) for v in parts[4:]]
            except (ValueError, OverflowError) as exc:
                raise CheckpointError(f"{path}: line {i}: {exc}") from exc
            count += 1
    if count != 2 * n:
        raise CheckpointError(f"{path}: expected {2 * n} samples, found {count}")
    return cfg, [records[:n], records[n:]]


def write_manifest(dataset: Dataset, path: str) -> None:
    """Human-readable companion: counts per class and split."""
    cfg = dataset.config
    lines = [
        f"{FORMAT_NAME} manifest",
        f"seed: {cfg.seed}",
        f"classes: {cfg.num_classes}  shots/split: {cfg.shots}  views: {cfg.num_views}",
        f"dims: invariant={cfg.invariant_dim} confounder={cfg.confound_dim}",
        f"noise: invariant={cfg.sigma_invariant} confounder={cfg.sigma_confound}",
        f"p_conflict: {cfg.p_conflict}",
        "",
    ]
    for name in SPLITS:
        split = dataset.splits[name]
        lines.append(f"[{name}] total={len(split.labels)} planted_hard={split.planted.sum()}")
        for c, n in enumerate(np.bincount(split.labels, minlength=cfg.num_classes)):
            lines.append(f"  class {c}: {n}")
        lines.append("")
    with container.atomic_open(path) as fh:
        fh.write("\n".join(lines))
