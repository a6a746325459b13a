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
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from . import container
from .errors import CheckpointError, ContractError

FORMAT_NAME = "invgate-dataset"
FORMAT_VERSION = 1
MAGIC = b"IGDS"
SPLITS = ("train", "test")


def require_finite(config) -> None:
    """Reject a config dataclass with a NaN or infinite float field."""
    for f in fields(config):
        value = getattr(config, f.name)
        if isinstance(value, float) and not math.isfinite(value):
            raise ContractError(f"{f.name} must be finite, got {value}")


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
        require_finite(self)
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


@dataclass
class Sample:
    label: int
    x3: np.ndarray                      # [dim]
    views: np.ndarray                   # [num_views, dim]
    planted_hard: bool = False
    hard_targets: tuple[int, int] | None = None   # (wrong 2d class, wrong 3d class)

    def __post_init__(self):
        if self.planted_hard:
            if self.hard_targets is None:
                raise ContractError("planted samples must carry their wrong-class targets")
            r2, r3 = self.hard_targets
            if r2 == r3 or self.label in (r2, r3):
                raise ContractError("wrong-class targets must be distinct and != label")

    def __eq__(self, other):
        return (isinstance(other, Sample) and (self.label, self.planted_hard, self.hard_targets)
                == (other.label, other.planted_hard, other.hard_targets)
                and np.array_equal(self.x3, other.x3) and np.array_equal(self.views, other.views))


@dataclass
class Dataset:
    """Two splits of samples. The sample lists are not mutated after
    construction: `arrays` stacks each split once and keeps the result."""

    config: GeneratorConfig
    train: list[Sample]
    test: list[Sample]
    _stacked: dict = field(default_factory=dict, init=False, compare=False, repr=False)

    def __eq__(self, other):
        return (isinstance(other, Dataset) and self.config == other.config
                and self.train == other.train and self.test == other.test)

    def split(self, name: str) -> list[Sample]:
        if name not in SPLITS:
            raise ContractError(f"unknown split {name!r}")
        return self.train if name == "train" else self.test

    def arrays(self, name: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(x3 [n, d], views [n, N, d], labels [n]) for one split, read-only."""
        if name not in self._stacked:
            samples = self.split(name)
            stacked = (np.stack([s.x3 for s in samples]),
                       np.stack([s.views for s in samples]),
                       np.array([s.label for s in samples], dtype=int))
            for arr in stacked:
                arr.flags.writeable = False
            self._stacked[name] = stacked
        return self._stacked[name]


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


def _draw_sample(cfg, rng, label, mu, nu2, nu3) -> Sample:
    planted = bool(rng.random() < cfg.p_conflict)
    if planted:
        others = [c for c in range(cfg.num_classes) if c != label]
        r2 = int(rng.choice(others))
        r3 = int(rng.choice([c for c in others if c != r2]))
        t2, t3 = r2, r3
    else:
        r2 = r3 = None
        t2 = t3 = label

    inv3 = mu[label] + cfg.sigma_invariant * rng.normal(size=cfg.invariant_dim)
    con3 = nu3[t3] + cfg.sigma_confound * rng.normal(size=cfg.confound_dim)
    x3 = np.concatenate([inv3, con3])

    inv2 = mu[label] + cfg.sigma_invariant * rng.normal(size=cfg.invariant_dim)
    con2 = nu2[t2] + cfg.sigma_confound * rng.normal(size=cfg.confound_dim)
    base2 = np.concatenate([inv2, con2])
    view_noise = 0.5 * cfg.sigma_invariant
    views = base2[None, :] + view_noise * rng.normal(size=(cfg.num_views, cfg.dim))

    return Sample(
        label=label,
        x3=x3,
        views=views,
        planted_hard=planted,
        hard_targets=(r2, r3) if planted else None,
    )


def generate(cfg: GeneratorConfig) -> Dataset:
    """Deterministic train/test splits, `shots` samples per class each."""
    mu, nu2, nu3 = class_means(cfg)
    splits: dict[str, list[Sample]] = {}
    for split_idx, split_name in enumerate(SPLITS):
        samples: list[Sample] = []
        for label in range(cfg.num_classes):
            rng = np.random.default_rng(
                np.random.SeedSequence([cfg.seed, split_idx, label, 0xD5])
            )
            samples.extend(
                _draw_sample(cfg, rng, label, mu, nu2, nu3) for _ in range(cfg.shots)
            )
        splits[split_name] = samples
    return Dataset(config=cfg, train=splits["train"], test=splits["test"])


def augment_3d(
    x3: np.ndarray,
    seed,
    scale_range: tuple[float, float] = (0.8, 1.25),
    jitter_sigma: float = 0.15,
    coord_jitter: float = 0.05,
) -> np.ndarray:
    """Label-preserving 3D-style augmentation: global scale, per-coordinate
    sign-preserving wobble, additive jitter. Deterministic given the seed."""
    if coord_jitter >= 1.0 or coord_jitter < 0.0:
        raise ContractError("coord_jitter must lie in [0, 1)")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    x3 = np.asarray(x3, dtype=np.float64)
    scale = rng.uniform(*scale_range)
    wobble = 1.0 + coord_jitter * rng.uniform(-1.0, 1.0, size=x3.shape)
    jitter = jitter_sigma * rng.normal(size=x3.shape) if jitter_sigma > 0 else 0.0
    return x3 * scale * wobble + jitter


def bayes_oracle(dataset: Dataset, split: str = "test") -> float:
    """Accuracy of nearest-class-mean on the invariant block alone.

    This is the reference classifier that confounders cannot touch; it
    upper-bounds what invariant information supports.
    """
    if dataset.config is None:
        raise ContractError("dataset carries no generator config")
    cfg = dataset.config
    mu, _, _ = class_means(cfg)
    x3, _, labels = dataset.arrays(split)
    inv = x3[:, : cfg.invariant_dim]
    dists = np.linalg.norm(inv[:, None, :] - mu[None, :, :], axis=-1)
    preds = dists.argmin(axis=1)
    return float((preds == labels).mean())


# -- persistence ---------------------------------------------------------------


def _header(cfg: GeneratorConfig, mode: str) -> dict:
    return {"format": FORMAT_NAME, "version": FORMAT_VERSION, "mode": mode,
            "config": asdict(cfg), "counts": {s: cfg.num_classes * cfg.shots for s in SPLITS}}


def _sample_ints(sample: Sample) -> tuple[int, int, int, int]:
    r2, r3 = sample.hard_targets if sample.hard_targets else (-1, -1)
    return sample.label, int(sample.planted_hard), r2, r3


def save_dataset(dataset: Dataset, path: str, mode: str = "binary") -> None:
    """Write the container, one sample at a time; load->save is byte-stable
    in both modes."""
    if mode not in ("binary", "text"):
        raise ContractError(f"unknown mode {mode!r}")
    samples = [*dataset.train, *dataset.test]
    header = _header(dataset.config, mode)
    if mode == "binary":
        container.write(path, MAGIC, FORMAT_VERSION, header, (
            block for s in samples for block in (np.asarray(_sample_ints(s), dtype="<i8"),
                                                 np.ascontiguousarray(s.x3, dtype="<f8"),
                                                 np.ascontiguousarray(s.views, dtype="<f8"))))
        return
    with container.atomic_open(path) as fh:
        fh.write(f"{FORMAT_NAME} v{FORMAT_VERSION} text\n{container.canonical_json(header)}\n")
        for s in samples:
            ints = " ".join(str(v) for v in _sample_ints(s))
            floats = " ".join(repr(float(v)) for v in np.concatenate([s.x3, s.views.ravel()]))
            fh.write(f"{ints} {floats}\n")


def _sample_from_parts(cfg, ints, flat):
    label, planted, r2, r3 = (int(v) for v in ints)
    x3 = flat[: cfg.dim].copy()
    views = flat[cfg.dim:].reshape(cfg.num_views, cfg.dim).copy()
    return Sample(
        label=label,
        x3=x3,
        views=views,
        planted_hard=bool(planted),
        hard_targets=(r2, r3) if planted else None,
    )


def _generator_config(header: dict, path: str) -> GeneratorConfig:
    with container.malformed(path):
        return GeneratorConfig(**header["config"])


def _dataset(cfg: GeneratorConfig, samples: list[Sample], path: str) -> Dataset:
    per_split = cfg.num_classes * cfg.shots
    if len(samples) != 2 * per_split:
        raise CheckpointError(f"{path}: expected {2 * per_split} samples, found {len(samples)}")
    return Dataset(config=cfg, train=samples[:per_split], test=samples[per_split:])


def load_dataset(path: str) -> Dataset:
    """A dataset file of either mode, read one sample at a time; a truncated
    or malformed file raises CheckpointError."""
    with open(path, "rb") as fh:
        if fh.read(len(MAGIC)) == MAGIC:
            return _load_binary(path)
    with open(path, "r", errors="replace") as fh:
        first = fh.readline().strip()
        if first != f"{FORMAT_NAME} v{FORMAT_VERSION} text":
            raise CheckpointError(f"unrecognized dataset file {path!r}")
        cfg = _generator_config(container.parse_header(fh.readline(), path, FORMAT_NAME), path)
        n_fields = 4 + cfg.dim * (1 + cfg.num_views)
        samples = []
        for i, line in enumerate(fh, start=3):
            if not line.endswith("\n"):
                raise CheckpointError(f"{path}: dataset truncated in line {i}")
            parts = line.split()
            if not parts:
                continue
            if len(parts) != n_fields:
                raise CheckpointError(
                    f"{path}: line {i} has {len(parts)} fields, expected {n_fields}")
            try:
                floats = np.array([float(v) for v in parts[4:]])
                samples.append(_sample_from_parts(cfg, parts[:4], floats))
            except ValueError as exc:
                raise CheckpointError(f"{path}: line {i}: {exc}") from exc
    return _dataset(cfg, samples, path)


def _load_binary(path: str) -> Dataset:
    with container.read(path, MAGIC, FORMAT_VERSION, FORMAT_NAME) as (header, take):
        cfg = _generator_config(header, path)
        record = 8 * (4 + cfg.dim * (1 + cfg.num_views))
        samples = []
        for i in range(2 * cfg.num_classes * cfg.shots):
            raw = take(record, f"sample {i}")
            ints = np.frombuffer(raw, dtype="<i8", count=4).tolist()
            floats = np.frombuffer(raw, dtype="<f8", offset=32)
            samples.append(_sample_from_parts(cfg, ints, floats))
    return _dataset(cfg, samples, path)


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
    for split in SPLITS:
        samples = dataset.split(split)
        planted = sum(s.planted_hard for s in samples)
        lines.append(f"[{split}] total={len(samples)} planted_hard={planted}")
        counts = np.bincount([s.label for s in samples], minlength=cfg.num_classes)
        for c, n in enumerate(counts):
            lines.append(f"  class {c}: {n}")
        lines.append("")
    with container.atomic_open(path) as fh:
        fh.write("\n".join(lines))
