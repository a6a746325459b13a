"""SGD with momentum, decoupled weight decay, and a cosine-annealed rate.

Parameters are organized into named groups, the unit that steps together: a
step updates exactly the groups its backward pass reached (a group in which
no parameter has a gradient receives no update at all, including no weight
decay and no momentum-buffer change).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
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


class SGD:
    """Momentum SGD over param groups; decay is applied to weights directly.
    `cfg` gives the rate, decay, momentum and epoch count; the rate anneals with `epoch`."""

    def __init__(self, groups: list[ParamGroup], cfg: RunConfig):
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
        self.cfg, self.epoch = cfg, 0
        self.velocity: dict[int, np.ndarray] = {}

    def parameters(self):
        for g in self.groups:
            yield from g.params

    def lr(self) -> float:
        """lr(t) = 0.5 * base_lr * (1 + cos(pi * epoch / epochs))."""
        return 0.5 * self.cfg.base_lr * (1.0 + math.cos(math.pi * (self.epoch / self.cfg.epochs)))

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.grad = None

    def step(self) -> float:
        """One update at the current epoch's rate; returns the rate used.

        A group in which no parameter has a gradient is skipped. In any other
        group, a parameter without a gradient takes a zero one (the step's
        terms reached its group but not it).
        """
        lr, wd, mom = self.lr(), self.cfg.weight_decay, self.cfg.momentum
        for g in self.groups:
            if all(p.grad is None for p in g.params):
                continue
            for p in g.params:
                if p.grad is None:
                    p.grad = np.zeros_like(p.data)
                v = self.velocity[id(p)] = mom * self.velocity.get(id(p), 0.0) + p.grad
                p.data -= lr * v + lr * wd * p.data
        return lr

    def named_velocity(self) -> dict[str, np.ndarray]:
        """Velocity buffers keyed by parameter name, for checkpointing."""
        return {p.name: self.velocity[id(p)] for p in self.parameters() if id(p) in self.velocity}

    def load_velocity(self, named: dict[str, np.ndarray]) -> None:
        by_name = {p.name: p for p in self.parameters()}
        for name, v in named.items():
            if name not in by_name:
                raise ContractError(f"velocity for unknown parameter {name!r}")
            self.velocity[id(by_name[name])] = np.asarray(v, dtype=np.float64).copy()
