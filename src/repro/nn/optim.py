"""Optimizers: SGD with momentum and Adam, both with weight decay."""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.errors import TrainingError
from repro.nn.module import Parameter


class Optimizer:
    """Base class holding the parameter list and the current learning rate."""

    def __init__(self, parameters: Sequence[Parameter], lr: float):
        self.parameters = list(parameters)
        if not self.parameters:
            raise TrainingError("optimizer received no parameters")
        if lr <= 0:
            raise TrainingError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def zero_grad(self) -> None:
        """Clear all parameter gradients."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update; subclasses must override."""
        raise NotImplementedError

    def clip_grad_norm(self, max_norm: float) -> float:
        """Clip gradients to a maximum global L2 norm; returns the norm."""
        total = 0.0
        for param in self.parameters:
            if param.grad is not None:
                total += float(np.sum(param.grad**2))
        norm = float(np.sqrt(total))
        if norm > max_norm and norm > 0:
            scale = max_norm / norm
            for param in self.parameters:
                if param.grad is not None:
                    param.grad = param.grad * scale
        return norm


class SGD(Optimizer):
    """Stochastic gradient descent with momentum and decoupled weight decay."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-2,
        momentum: float = 0.9,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.momentum = float(momentum)
        self.weight_decay = float(weight_decay)
        self._velocity: List[np.ndarray] = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:  # noqa: D102
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            velocity *= self.momentum
            velocity += grad
            param.data = param.data - self.lr * velocity


class Adam(Optimizer):
    """Adam with bias correction and decoupled weight decay (AdamW style)."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ):
        super().__init__(parameters, lr)
        self.beta1, self.beta2 = float(betas[0]), float(betas[1])
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self._m: List[np.ndarray] = [np.zeros_like(p.data) for p in self.parameters]
        self._v: List[np.ndarray] = [np.zeros_like(p.data) for p in self.parameters]
        self._step_count = 0

    def step(self) -> None:  # noqa: D102
        self._step_count += 1
        bias1 = 1.0 - self.beta1**self._step_count
        bias2 = 1.0 - self.beta2**self._step_count
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            grad = param.grad
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * grad**2
            m_hat = m / bias1
            v_hat = v / bias2
            update = m_hat / (np.sqrt(v_hat) + self.eps)
            if self.weight_decay:
                update = update + self.weight_decay * param.data
            param.data = param.data - self.lr * update


def make_optimizer(
    name: str,
    parameters: Sequence[Parameter],
    lr: float,
    weight_decay: float = 0.0,
) -> Optimizer:
    """Build an optimizer by name (``"adam"`` or ``"sgd"``), as the auto-tuner does."""
    name = name.lower()
    if name == "adam":
        return Adam(parameters, lr=lr, weight_decay=weight_decay)
    if name == "sgd":
        return SGD(parameters, lr=lr, weight_decay=weight_decay)
    raise TrainingError(f"unknown optimizer {name!r} (expected 'adam' or 'sgd')")
