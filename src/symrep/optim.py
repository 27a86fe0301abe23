"""Adam optimiser for Tensor parameters."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .tensor import Tensor

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Bias-corrected Adam over a fixed list of Tensor parameters; missing grads count as zero.

    Holds the first and second moment estimates of every parameter and the
    number of steps taken; each step updates the parameter arrays in place.
    """

    def __init__(self, params: Sequence[Tensor], lr: float):
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]
        self.steps = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def step(self) -> None:
        self.steps += 1
        c1 = 1.0 - BETA1**self.steps
        c2 = 1.0 - BETA2**self.steps
        for p, m, v in zip(self.params, self.m, self.v):
            g = p.grad if p.grad is not None else np.zeros_like(p.data)
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * g * g
            p.data -= self.lr * (m / c1) / (np.sqrt(v / c2) + EPS)
