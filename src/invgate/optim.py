"""SGD with momentum and decoupled weight decay, and the cosine-annealed rate.

A step updates exactly the parameters its backward pass reached: a parameter
without a gradient is left as it is, with no weight decay and no change to
its momentum buffer. Which parameters a loss term reaches is decided by the
tape alone (see `harness`).
"""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor

# every run's base rate, decoupled weight decay and momentum
BASE_LR, WEIGHT_DECAY, MOMENTUM = 0.01, 1e-4, 0.9


def cosine_lr(epoch: int, epochs: int) -> float:
    """The rate of `epoch` in a run of `epochs`:
    0.5 * BASE_LR * (1 + cos(pi * epoch / epochs))."""
    return 0.5 * BASE_LR * (1.0 + math.cos(math.pi * (epoch / epochs)))


class SGD:
    """Momentum SGD over named parameters; decay is applied to weights directly.
    `velocity` is keyed by parameter name."""

    def __init__(self, params: dict[str, Tensor]):
        self.params = params
        self.velocity: dict[str, np.ndarray] = {}

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def step(self, lr: float) -> None:
        """One update at rate `lr` of every parameter with a gradient."""
        wd, mom = WEIGHT_DECAY, MOMENTUM
        for name, p in self.params.items():
            if p.grad is not None:
                v = self.velocity[name] = mom * self.velocity.get(name, 0.0) + p.grad
                p.data -= lr * v + lr * wd * p.data
