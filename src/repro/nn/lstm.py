"""LSTM cell and multi-step LSTM (used by the Tiramisu baseline)."""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

from repro.errors import ModelError
from repro.nn.layers import Linear
from repro.nn.module import Module
from repro.nn.tensor import Tensor, concatenate


class LSTMCell(Module):
    """A single LSTM cell step."""

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if input_size <= 0 or hidden_size <= 0:
            raise ModelError("LSTMCell sizes must be positive")
        self.input_size = int(input_size)
        self.hidden_size = int(hidden_size)
        self.gates = Linear(input_size + hidden_size, 4 * hidden_size, rng=rng)

    def initial_state(self, batch: int) -> Tuple[Tensor, Tensor]:
        """Zero hidden and cell states."""
        zeros = np.zeros((batch, self.hidden_size))
        return Tensor(zeros), Tensor(zeros.copy())

    def forward(self, x: Tensor, state: Tuple[Tensor, Tensor]) -> Tuple[Tensor, Tensor]:  # noqa: D102
        hidden, cell = state
        combined = concatenate([x, hidden], axis=-1)
        gates = self.gates(combined)
        h = self.hidden_size
        input_gate = gates[:, :h].sigmoid()
        forget_gate = gates[:, h : 2 * h].sigmoid()
        cell_candidate = gates[:, 2 * h : 3 * h].tanh()
        output_gate = gates[:, 3 * h :].sigmoid()
        new_cell = forget_gate * cell + input_gate * cell_candidate
        new_hidden = output_gate * new_cell.tanh()
        return new_hidden, new_cell

    def infer(
        self, x: np.ndarray, state: Tuple[np.ndarray, np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Autograd-free cell step mirroring :meth:`forward` op for op."""
        hidden, cell = state
        combined = np.concatenate([x, hidden], axis=-1)
        gates = self.gates.infer(combined)
        h = self.hidden_size
        input_gate = 1.0 / (1.0 + np.exp(-gates[:, :h]))
        forget_gate = 1.0 / (1.0 + np.exp(-gates[:, h : 2 * h]))
        cell_candidate = np.tanh(gates[:, 2 * h : 3 * h])
        output_gate = 1.0 / (1.0 + np.exp(-gates[:, 3 * h :]))
        new_cell = forget_gate * cell + input_gate * cell_candidate
        new_hidden = output_gate * np.tanh(new_cell)
        return new_hidden, new_cell


class LSTM(Module):
    """A (single-layer) LSTM unrolled over a sequence of inputs.

    Accepts a list of per-step tensors rather than one packed array so the
    Tiramisu baseline can feed variable-length child sequences.
    """

    def __init__(self, input_size: int, hidden_size: int, rng: Optional[np.random.Generator] = None):
        super().__init__()
        self.cell = LSTMCell(input_size, hidden_size, rng=rng)
        self.hidden_size = int(hidden_size)

    def forward(
        self,
        inputs: Sequence[Tensor],
        state: Optional[Tuple[Tensor, Tensor]] = None,
    ) -> Tuple[Tensor, Tuple[Tensor, Tensor]]:
        """Run the cell over ``inputs`` and return (last_hidden, (hidden, cell))."""
        if len(inputs) == 0:
            raise ModelError("LSTM.forward needs at least one input step")
        batch = inputs[0].shape[0]
        if state is None:
            state = self.cell.initial_state(batch)
        hidden, cell = state
        for step in inputs:
            hidden, cell = self.cell(step, (hidden, cell))
        return hidden, (hidden, cell)

    def infer(
        self,
        inputs: Sequence[np.ndarray],
        state: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> Tuple[np.ndarray, Tuple[np.ndarray, np.ndarray]]:
        """Autograd-free unroll mirroring :meth:`forward`."""
        if len(inputs) == 0:
            raise ModelError("LSTM.infer needs at least one input step")
        if state is None:
            zeros = np.zeros((inputs[0].shape[0], self.hidden_size), dtype=inputs[0].dtype)
            state = (zeros, zeros.copy())
        hidden, cell = state
        for step in inputs:
            hidden, cell = self.cell.infer(step, (hidden, cell))
        return hidden, (hidden, cell)
