"""Module base class, parameters and containers."""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

import numpy as np

from repro.errors import ModelError
from repro.nn.tensor import Tensor


class Parameter(Tensor):
    """A trainable tensor (always requires gradients)."""

    def __init__(self, data, name: str = ""):
        super().__init__(data, requires_grad=True, name=name)


class Module:
    """Base class of all neural-network modules.

    Submodules and parameters are discovered automatically from instance
    attributes (including lists of modules), so subclasses only define
    ``forward``.
    """

    def __init__(self) -> None:
        self.training = True

    # ------------------------------------------------------------------
    # Parameter / submodule discovery
    # ------------------------------------------------------------------
    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield (name, parameter) pairs recursively."""
        for attr, value in vars(self).items():
            full = f"{prefix}{attr}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for index, item in enumerate(value):
                    if isinstance(item, Parameter):
                        yield f"{full}.{index}", item
                    elif isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{index}.")

    def parameters(self) -> List[Parameter]:
        """All trainable parameters."""
        return [param for _, param in self.named_parameters()]

    def modules(self) -> Iterator["Module"]:
        """Yield this module and all submodules recursively."""
        yield self
        for attr, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.modules()
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        yield from item.modules()

    def num_parameters(self) -> int:
        """Total number of scalar parameters."""
        return int(sum(param.size for param in self.parameters()))

    # ------------------------------------------------------------------
    # Training utilities
    # ------------------------------------------------------------------
    def zero_grad(self) -> None:
        """Clear gradients of all parameters."""
        for param in self.parameters():
            param.zero_grad()

    def train(self, mode: bool = True) -> "Module":
        """Set training mode recursively (affects dropout)."""
        for module in self.modules():
            module.training = mode
        return self

    def eval(self) -> "Module":
        """Set evaluation mode recursively."""
        return self.train(False)

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def state_dict(self) -> Dict[str, np.ndarray]:
        """Copy of all parameter arrays keyed by name."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Load parameter arrays produced by :meth:`state_dict`."""
        params = dict(self.named_parameters())
        missing = set(params) - set(state)
        unexpected = set(state) - set(params)
        if missing or unexpected:
            raise ModelError(
                f"state dict mismatch: missing={sorted(missing)[:3]} unexpected={sorted(unexpected)[:3]}"
            )
        for name, param in params.items():
            value = np.asarray(state[name], dtype=np.float64)
            if value.shape != param.data.shape:
                raise ModelError(
                    f"parameter {name!r} shape mismatch: {value.shape} vs {param.data.shape}"
                )
            param.data = value.copy()

    # ------------------------------------------------------------------
    # Forward
    # ------------------------------------------------------------------
    def forward(self, *args, **kwargs):
        """Compute the module output; subclasses must override."""
        raise NotImplementedError

    def infer(self, *args, **kwargs):
        """Autograd-free forward over raw ndarrays (the inference fast path).

        Subclasses override this alongside :meth:`forward`.  The contract is
        eval-mode semantics (dropout is the identity) and, for float64
        inputs, bit-identical outputs to the autograd forward; float32 inputs
        run the same computation in single precision.  No ``Tensor`` graph or
        backward closures are built, and implementations may stage
        intermediates in pooled scratch buffers.
        """
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Sequential(Module):
    """A chain of modules applied in order."""

    def __init__(self, *modules: Module):
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102 - trivial
        for layer in self.layers:
            x = layer(x)
        return x

    def infer(self, x: np.ndarray) -> np.ndarray:  # noqa: D102 - trivial
        for layer in self.layers:
            x = layer.infer(x)
        return x

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]
