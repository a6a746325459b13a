"""SGD with momentum, decoupled weight decay, and a cosine-annealed rate.

Parameters are organized into named groups so the training loop can restrict
a step to some of them (the other groups receive no update at all, including
no weight decay and no momentum-buffer change).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ContractError
from .tensor import Tensor


@dataclass
class ParamGroup:
    """A named set of trainable tensors updated together."""

    name: str
    params: list[Tensor]

    def __post_init__(self):
        for p in self.params:
            if not p.requires_grad:
                raise ContractError(
                    f"group '{self.name}' contains a tensor without requires_grad"
                )


@dataclass
class OptimizerState:
    base_lr: float
    weight_decay: float = 0.0
    momentum: float = 0.9
    epoch: int = 0
    total_epochs: int = 1
    lr_min: float = 0.0

    def __post_init__(self):
        if not self.base_lr > 0:
            raise ContractError("base_lr must be positive")
        if not self.weight_decay >= 0:
            raise ContractError("weight_decay must be non-negative")
        if not (0.0 <= self.momentum < 1.0):
            raise ContractError("momentum must lie in [0, 1)")
        if self.total_epochs <= 0:
            raise ContractError("total_epochs must be positive")


def cosine_lr(state: OptimizerState) -> float:
    """lr(t) = lr_min + 0.5*(base - lr_min)*(1 + cos(pi * epoch / total))."""
    frac = state.epoch / state.total_epochs
    return state.lr_min + 0.5 * (state.base_lr - state.lr_min) * (1.0 + math.cos(math.pi * frac))


class SGD:
    """Momentum SGD over param groups; decay is applied to weights directly."""

    def __init__(self, groups: list[ParamGroup], state: OptimizerState):
        names = [g.name for g in groups]
        if len(set(names)) != len(names):
            raise ContractError(f"duplicate group names: {names}")
        seen: dict[int, str] = {}
        for g in groups:
            for p in g.params:
                if id(p) in seen:
                    raise ContractError(
                        f"parameter {p.name!r} appears in groups "
                        f"'{seen[id(p)]}' and '{g.name}'"
                    )
                seen[id(p)] = g.name
        self.groups = groups
        self.state = state
        self.velocity: dict[int, np.ndarray] = {}

    def parameters(self):
        for g in self.groups:
            yield from g.params

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def step(self, active: set[str] | None = None) -> float:
        """One update at the current epoch's rate; returns the rate used.

        `active` (None = every group) names the groups this step updates. In
        an active group given by name, a parameter without a gradient takes a
        zero one (the step's terms did not use it); without `active`, a
        missing gradient is an error.
        """
        lr = cosine_lr(self.state)
        wd = self.state.weight_decay
        mom = self.state.momentum
        for g in self.groups:
            if active is not None and g.name not in active:
                continue
            for p in g.params:
                if p.grad is None:
                    if active is None:
                        raise ContractError(
                            f"parameter {p.name!r} in group '{g.name}' has no gradient"
                        )
                    p.grad = np.zeros_like(p.data)
                v = self.velocity.get(id(p))
                if v is None:
                    v = np.zeros_like(p.data)
                v = mom * v + p.grad
                self.velocity[id(p)] = v
                p.data -= lr * v + lr * wd * p.data
        return lr

    # velocity buffers keyed by parameter name, for checkpointing
    def named_velocity(self) -> dict[str, np.ndarray]:
        out = {}
        for p in self.parameters():
            v = self.velocity.get(id(p))
            if v is not None:
                out[p.name] = v
        return out

    def load_velocity(self, named: dict[str, np.ndarray]) -> None:
        by_name = {p.name: p for p in self.parameters()}
        for name, v in named.items():
            if name not in by_name:
                raise ContractError(f"velocity for unknown parameter {name!r}")
            self.velocity[id(by_name[name])] = np.asarray(v, dtype=np.float64).copy()
