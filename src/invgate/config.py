"""Run configuration: one dataclass tree mirrored by the JSON config files.

Every knob of a run lives here so the manifest can echo it verbatim and two
runs with equal configs are bit-identical.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field

from .container import canonical_json  # noqa: F401  (re-exported)
from .data import GeneratorConfig, check_fields
from .errors import ContractError
from .fusion import MODE_ALIASES
from .losses import IRM_VARIANTS, exp_sums_finite


@dataclass
class RunConfig:
    generator: GeneratorConfig = field(default_factory=GeneratorConfig)

    # model
    encoder_hidden: tuple[int, ...] = ()
    output_dim: int = 20
    encoder_init: str = "identity"          # identity | random
    head2d_mode: str = "cosine"
    head3d_mode: str = "cosine"
    head_scale: float = 0.25
    use_view_attention: bool = False
    view_attention_delta: float = 0.5
    view_attention_hidden: int = 32

    # losses
    irm_lambda: float = 5.0
    align_alpha: float = 1.0
    align_tau: float = 2.0
    irm_variant: str = "v_rex"              # irmv1 | mm_rex | v_rex
    inv_theta: float = 5.0                  # similarity multiplier inside the
                                            # invariance risk, must be positive;
                                            # irmv1 pins it at 1
    rex_lambda_min: float = 0.0
    rex_beta: float = 1.0
    include_25d: bool = False

    # fusion (inference-time only)
    fusion_phi: float = 1.0
    fusion_mode: str = "multiplicative"

    # mining
    mining_rho: float = 0.25
    posterior_p2: float = 0.5
    posterior_p3: float = 0.5
    mining_warmup: int = 5
    mining_period: int = 1
    mining_topk: int = 5

    # optimizer
    base_lr: float = 0.01
    weight_decay: float = 1e-4
    momentum: float = 0.9
    epochs: int = 50
    batch_size: int = 32

    # ablation switches
    enable_step1: bool = True
    enable_step2: bool = True
    enable_align: bool = True
    invariance_on_all: bool = False

    n_3d_augments: int = 1
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        self.encoder_hidden = tuple(self.encoder_hidden)
        if self.encoder_init not in ("identity", "random"):
            raise ContractError(f"unknown encoder init {self.encoder_init!r}")
        if self.encoder_init == "identity":
            if self.encoder_hidden:
                raise ContractError("identity init implies a single affine stage")
            if self.output_dim != self.generator.dim:
                raise ContractError(
                    f"identity init needs output_dim == feature dim "
                    f"({self.generator.dim}), got {self.output_dim}"
                )
        for mode in (self.head2d_mode, self.head3d_mode):
            if mode not in ("cosine", "affine"):
                raise ContractError(f"unknown head mode {mode!r}")
        if self.fusion_mode not in MODE_ALIASES:
            raise ContractError(f"unknown fusion mode {self.fusion_mode!r}")
        if self.enable_step2 and not self.enable_step1 and not self.invariance_on_all:
            raise ContractError(
                "invariance learning operates on mined samples; enable step 1 "
                "or set invariance_on_all"
            )
        if self.irm_variant not in IRM_VARIANTS:
            raise ContractError(f"unknown irm_variant {self.irm_variant!r}; "
                                f"expected one of {IRM_VARIANTS}")
        envs = 2 + self.include_25d
        if self.rex_lambda_min > 1.0 / envs:
            raise ContractError(f"rex_lambda_min must be <= 1/{envs} with {envs} environments")
        for name in ("fusion_phi", "align_tau", "base_lr", "head_scale", "inv_theta"):
            if not getattr(self, name) > 0.0:
                raise ContractError(f"{name} must be positive")
        for name in ("rex_beta", "irm_lambda", "weight_decay"):
            if not getattr(self, name) >= 0.0:
                raise ContractError(f"{name} must be non-negative")
        for name in ("mining_warmup", "mining_period", "mining_topk", "output_dim",
                     "view_attention_hidden"):
            if getattr(self, name) < 1:
                raise ContractError(f"{name} must be >= 1")
        if min(self.encoder_hidden, default=1) < 1:
            raise ContractError("encoder_hidden widths must be >= 1")
        for name in ("posterior_p2", "posterior_p3", "mining_rho"):
            if not (0.0 < getattr(self, name) <= 1.0):
                raise ContractError(f"{name} must lie in (0, 1]")
        if not (0.0 <= self.momentum < 1.0):
            raise ContractError("momentum must lie in [0, 1)")
        if not (0.0 <= self.view_attention_delta <= 1.0):
            raise ContractError("view_attention_delta must lie in [0, 1]")
        if self.epochs < 1 or self.batch_size < 1:
            raise ContractError("epochs and batch_size must be positive")
        if self.n_3d_augments < 1:
            raise ContractError("need at least one augmented 3D copy")
        self.check_exponents(self.generator.num_views)

    def check_exponents(self, num_views: int) -> None:
        """Raise ContractError if an enabled term can reach inf: its exponentials
        summed (alignment's over a batch, a REx risk's over a pool of `num_views`
        views), or its weight times the term's worst case. Alignment is at most
        log(batch_size) + 2 * align_tau, so align_alpha times that must be
        finite; each IRMv1 penalty is at most 4 * irm_lambda, summed over
        2 + include_25d environments."""
        bounds, worst = {}, {}
        if self.enable_align:
            bounds["align_tau"] = self.batch_size
            worst["align_alpha"] = math.log(self.batch_size) + 2 * self.align_tau
        if self.enable_step2 and self.irm_variant == "irmv1":
            worst["irm_lambda"] = 4 * (2 + self.include_25d)
        elif self.enable_step2:
            bounds["inv_theta"] = self.batch_size * max(num_views, 1 + self.n_3d_augments)
        for name, rows in bounds.items():
            if not exp_sums_finite(getattr(self, name), rows):
                raise ContractError(f"{name} {getattr(self, name)} overflows: exp({name}) "
                                    f"summed over {rows} rows is not finite")
        for name, term in worst.items():
            if not math.isfinite(getattr(self, name) * term):
                raise ContractError(f"{name} {getattr(self, name)} overflows: {name} times "
                                    f"its term's worst case {term} is not finite")

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["encoder_hidden"] = list(self.encoder_hidden)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        kwargs = dict(_known_keys(data, cls, "config"))
        if "generator" in kwargs:
            kwargs["generator"] = GeneratorConfig(
                **_known_keys(kwargs["generator"], GeneratorConfig, "generator"))
        return cls(**kwargs)

    def replace(self, **overrides) -> "RunConfig":
        return dataclasses.replace(self, **_known_keys(overrides, RunConfig, "config"))


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
    return RunConfig.from_dict(read_json_file(path))

