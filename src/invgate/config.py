"""Run configuration: one dataclass tree mirrored by the JSON config files.

Every knob of a run lives here so the manifest can echo it verbatim and two
runs with equal configs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .container import canonical_json
from .data import GeneratorConfig, check_fields, check_type
from .encoders import HEAD_SCALE, VIEW_ATTENTION_DELTA, VIEW_ATTENTION_HIDDEN
from .errors import ContractError
from .fusion import MODE_ALIASES
from .losses import ALIGN_TAU, INV_THETA, IRM_VARIANTS, REX_BETA
from .mining import MINING_TOPK
from .optim import BASE_LR, MOMENTUM, WEIGHT_DECAY


@dataclass
class RunConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)

    # model
    use_view_attention: bool = False

    # losses
    irm_lambda: float = 5.0
    align_alpha: float = 1.0
    irm_variant: str = "v_rex"              # irmv1 | mm_rex | v_rex
    rex_lambda_min: float = 0.0
    include_25d: bool = False

    # fusion (inference-time only)
    fusion_phi: float = 1.0
    fusion_mode: str = "multiplicative"

    # mining
    mining_rho: float = 0.25
    posterior_p2: float = 0.5
    posterior_p3: float = 0.5
    mining_warmup: int = 5                  # mining runs at every epoch from this one on

    # optimizer
    epochs: int = 50
    batch_size: int = 32

    # ablation switches
    enable_step1: bool = True
    enable_step2: bool = True
    enable_align: bool = True

    n_3d_augments: int = 1
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if self.fusion_mode not in MODE_ALIASES:
            raise ContractError(f"unknown fusion mode {self.fusion_mode!r}")
        self.fusion_mode = MODE_ALIASES[self.fusion_mode]
        if self.enable_step1 and self.mining_warmup >= self.epochs:
            raise ContractError("enable_step1 needs mining_warmup < epochs: mining first "
                                "runs at epoch mining_warmup")
        if self.enable_align and self.batch_size < 2:
            raise ContractError("enable_align needs batch_size >= 2: alignment runs only "
                                "on batches of 2 or more rows")
        if self.irm_variant not in IRM_VARIANTS:
            raise ContractError(f"unknown irm_variant {self.irm_variant!r}; "
                                f"expected one of {IRM_VARIANTS}")
        envs = 2 + self.include_25d
        if self.rex_lambda_min > 1.0 / envs:
            raise ContractError(f"rex_lambda_min must be <= 1/{envs} with {envs} environments")
        if not self.fusion_phi > 0.0:
            raise ContractError("fusion_phi must be positive")
        if not self.irm_lambda >= 0.0:
            raise ContractError("irm_lambda must be non-negative")
        if self.mining_warmup < 1:
            raise ContractError("mining_warmup must be >= 1")
        for name in ("posterior_p2", "posterior_p3", "mining_rho"):
            if not (0.0 < getattr(self, name) <= 1.0):
                raise ContractError(f"{name} must lie in (0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError("epochs and batch_size must be positive")
        if self.n_3d_augments < 1:
            raise ContractError("need at least one augmented 3D copy")
        for name, needs in READ_WHEN.items():
            value, default = getattr(self, name), _DEFAULTS[name]
            if value != default and _unread(vars(self), name):
                when = " and ".join(k if v is True else f"{k} {v!r}" for k, v in needs.items())
                raise ContractError(f"{name} {value!r} is read only with {when}: leave it at "
                                    f"its default {default!r}")
        # a weight times its term's worst case (an unread weight is its finite
        # default): alignment is at most log(batch_size) + 2 * ALIGN_TAU, each
        # IRMv1 penalty at most 4 * irm_lambda
        worst = {"align_alpha": math.log(self.batch_size) + 2 * ALIGN_TAU,
                 "irm_lambda": 4 * envs}
        for name, term in worst.items():
            if not math.isfinite(getattr(self, name) * term):
                raise ContractError(f"{name} {getattr(self, name)} overflows: {name} times "
                                    f"its term's worst case {term} is not finite")

    @property
    def anchors_every_row(self) -> bool:   # without step 1 no mining picks step 2's anchors
        return self.enable_step2 and not self.enable_step1

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        """The config a current-layout dict names (see `upgrade_config`)."""
        kwargs = dict(_known_keys(data, cls, "config"))
        if "generator" in kwargs:
            kwargs["generator"] = GeneratorConfig(
                **_known_keys(kwargs["generator"], GeneratorConfig, "generator"))
        return cls(**kwargs)

    def replace(self, **overrides) -> "RunConfig":
        """This config under `overrides` (see `merge_overrides`)."""
        return RunConfig(**merge_overrides(vars(self), _known_keys(overrides, RunConfig, "config")))


_DEFAULTS = {f.name: f.default for f in dataclasses.fields(RunConfig)}

# each field that one step owns, with the condition under which some term
# reads it (the 2.5D environment only in step 2, the view attention only in
# alignment): elsewhere it keeps its default, so no two valid configs train one run
READ_WHEN = {
    "irm_lambda": {"enable_step2": True, "irm_variant": "irmv1"},
    "rex_lambda_min": {"enable_step2": True, "irm_variant": "mm_rex"},
    "irm_variant": {"enable_step2": True},
    "align_alpha": {"enable_align": True},
    "n_3d_augments": {"enable_step2": True},
    "include_25d": {"enable_step2": True},
    "use_view_attention": {"enable_align": True},
    **dict.fromkeys(("mining_rho", "posterior_p2", "posterior_p3", "mining_warmup"),
                    {"enable_step1": True}),
}


def _unread(fields: dict, name: str) -> bool:
    """Whether no term reads field `name` of the config whose fields are `fields`."""
    return any(fields[k] != v for k, v in READ_WHEN[name].items())


def merge_overrides(base: dict, overrides: dict) -> dict:
    """The fields of `base` under `overrides`, with each `READ_WHEN` field that
    `overrides` does not name back at its default where the result no longer
    reads it: a step turned off drops what `base` tuned for it, while a field
    named where it is not read still fails at construction."""
    merged = {**base, **overrides}
    for name in READ_WHEN:
        if name not in overrides and _unread(merged, name):
            merged[name] = _DEFAULTS[name]
    return merged


# retired fields, each with the value the rest of a config gives it: a file
# may name one only at that value
RETIRED = {
    "encoder_hidden": lambda cfg: [],
    "encoder_init": lambda cfg: "identity",
    "output_dim": lambda cfg: cfg.generator.dim,
    "head2d_mode": lambda cfg: "cosine",
    "head3d_mode": lambda cfg: "cosine",
    "head_scale": lambda cfg: HEAD_SCALE,
    "view_attention_hidden": lambda cfg: VIEW_ATTENTION_HIDDEN,
    "mining_period": lambda cfg: 1,
    "invariance_on_all": lambda cfg: cfg.anchors_every_row,
    "inv_theta": lambda cfg: INV_THETA,
    "align_tau": lambda cfg: ALIGN_TAU,
    "mining_topk": lambda cfg: MINING_TOPK,
    "view_attention_delta": lambda cfg: VIEW_ATTENTION_DELTA,
    "base_lr": lambda cfg: BASE_LR,
    "weight_decay": lambda cfg: WEIGHT_DECAY,
    "momentum": lambda cfg: MOMENTUM,
    "rex_beta": lambda cfg: REX_BETA,
}


def upgrade_config(data):
    """`data` in the current layout: each retired key it names must hold the
    value the rest of the config gives, read through that value's type (so
    an integer spelling of a float is that float), and is then dropped."""
    if not isinstance(data, dict) or RETIRED.keys().isdisjoint(data):
        return data
    current = {k: v for k, v in data.items() if k not in RETIRED}
    cfg = RunConfig.from_dict(current)
    for name, derive in RETIRED.items():
        if name in data:
            want = derive(cfg)
            try:    # as a file holds the value: a grid cell's tuple is a list
                value = json.loads(canonical_json(data[name]))
            except TypeError:   # no file can hold it (a set, say), so it is not `want`
                raise _not_retired_value(name, want, repr(data[name])) from None
            check_type(name, type(want).__name__, value)
            if value != want:
                raise _not_retired_value(name, want, canonical_json(value))
    return current


def _not_retired_value(name: str, want, got: str) -> ContractError:
    return ContractError(f"{name} must be {canonical_json(want)}, got {got}: a retired "
                         "field, fixed at the value the rest of the config gives")


def _known_keys(data, cls, what: str) -> dict:
    """`data`, which must be a dict naming only fields of dataclass `cls`."""
    if not isinstance(data, dict):
        raise ContractError(f"{what} must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - {f.name for f in dataclasses.fields(cls)}
    if unknown:
        raise ContractError(f"unknown {what} keys: {sorted(unknown)}")
    return data


def read_json_file(path: str, what: str = "config"):
    """The JSON value in `path`; an unreadable or malformed file is a ContractError."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ContractError(f"cannot read {what} {path}: {exc}") from exc


def load_config(path: str) -> RunConfig:
    return RunConfig.from_dict(upgrade_config(read_json_file(path)))

