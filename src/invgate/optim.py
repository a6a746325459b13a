"""SGD with momentum, decoupled weight decay, and a cosine-annealed rate.

A step updates exactly the parameters its backward pass reached: a parameter
without a gradient is left as it is, with no weight decay and no change to
its momentum buffer. Which parameters a loss term reaches is decided by the
tape alone (see `harness`).
"""

from __future__ import annotations

import math

import numpy as np

from .config import RunConfig
from .tensor import Tensor


class SGD:
    """Momentum SGD over named parameters; decay is applied to weights directly.
    `cfg` gives the rate, decay, momentum and epoch count; the rate anneals with
    `epoch`. `velocity` is keyed by parameter name."""

    def __init__(self, params: dict[str, Tensor], cfg: RunConfig):
        self.params = params
        self.cfg, self.epoch = cfg, 0
        self.velocity: dict[str, np.ndarray] = {}

    def lr(self) -> float:
        """lr(t) = 0.5 * base_lr * (1 + cos(pi * epoch / epochs))."""
        return 0.5 * self.cfg.base_lr * (1.0 + math.cos(math.pi * (self.epoch / self.cfg.epochs)))

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self) -> float:
        """One update of every parameter with a gradient, at the current
        epoch's rate; returns the rate used."""
        lr, wd, mom = self.lr(), self.cfg.weight_decay, self.cfg.momentum
        for name, p in self.params.items():
            if p.grad is not None:
                v = self.velocity[name] = mom * self.velocity.get(name, 0.0) + p.grad
                p.data -= lr * v + lr * wd * p.data
        return lr
