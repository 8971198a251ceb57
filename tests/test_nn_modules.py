"""Tests for NN modules, losses, optimizers and schedulers."""

import numpy as np
import pytest

from repro.errors import ModelError, TrainingError
from repro.nn import (
    LSTM,
    MLP,
    Adam,
    CyclicLR,
    Dropout,
    LayerNorm,
    Linear,
    LSTMCell,
    MultiHeadSelfAttention,
    SGD,
    Sequential,
    StepLR,
    Tensor,
    TransformerEncoder,
    huber_loss,
    mae_loss,
    mape_loss,
    mse_loss,
    mspe_loss,
)
from repro.nn.layers import make_activation
from repro.nn.module import Parameter
from repro.nn.optim import make_optimizer
from repro.nn.schedulers import CosineLR, make_scheduler


class TestModuleInfrastructure:
    def test_named_parameters_recursion(self):
        mlp = MLP(4, [8], 2, rng=np.random.default_rng(0))
        names = [name for name, _ in mlp.named_parameters()]
        assert any("layers.0.weight" in name for name in names)
        assert mlp.num_parameters() == 4 * 8 + 8 + 8 * 2 + 2

    def test_state_dict_roundtrip(self):
        mlp_a = MLP(4, [8], 2, rng=np.random.default_rng(0))
        mlp_b = MLP(4, [8], 2, rng=np.random.default_rng(1))
        x = Tensor(np.random.default_rng(2).normal(size=(5, 4)))
        assert not np.allclose(mlp_a(x).data, mlp_b(x).data)
        # repro-lint: disable=clone-discipline -- the roundtrip under test IS a cross-model state_dict load
        mlp_b.load_state_dict(mlp_a.state_dict())
        assert np.allclose(mlp_a(x).data, mlp_b(x).data)

    def test_state_dict_mismatch_raises(self):
        mlp = MLP(4, [8], 2)
        with pytest.raises(ModelError):
            # repro-lint: disable=clone-discipline -- deliberately feeding a bogus state_dict to test the mismatch error
            mlp.load_state_dict({"bogus": np.zeros(3)})

    def test_train_eval_propagates(self):
        model = Sequential(Linear(4, 4), Dropout(0.5))
        model.eval()
        assert all(not m.training for m in model.modules())

    def test_zero_grad_clears(self):
        layer = Linear(3, 2)
        out = layer(Tensor(np.ones((2, 3)))).sum()
        out.backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None


class TestLayers:
    def test_linear_shapes(self):
        layer = Linear(6, 3)
        assert layer(Tensor(np.zeros((4, 6)))).shape == (4, 3)
        assert layer(Tensor(np.zeros((2, 5, 6)))).shape == (2, 5, 3)

    def test_linear_invalid_sizes(self):
        with pytest.raises(ModelError):
            Linear(0, 3)

    def test_layernorm_normalises(self):
        norm = LayerNorm(16)
        out = norm(Tensor(np.random.default_rng(0).normal(3.0, 5.0, size=(8, 16))))
        assert np.allclose(out.data.mean(axis=-1), 0.0, atol=1e-6)
        assert np.allclose(out.data.std(axis=-1), 1.0, atol=1e-2)

    def test_dropout_train_vs_eval(self):
        dropout = Dropout(0.5, rng=np.random.default_rng(0))
        x = Tensor(np.ones((4, 100)))
        assert (dropout(x).data == 0).any()
        dropout.eval()
        assert np.allclose(dropout(x).data, 1.0)

    def test_dropout_invalid_rate(self):
        with pytest.raises(ModelError):
            Dropout(1.0)

    def test_make_activation(self):
        assert make_activation("relu")(Tensor([-1.0, 2.0])).data.tolist() == [0.0, 2.0]
        with pytest.raises(ModelError):
            make_activation("swish")

    def test_mlp_degenerate_single_layer(self):
        mlp = MLP(4, [], 2)
        assert len(mlp.layers) == 1

    def test_mlp_invalid_sizes(self):
        with pytest.raises(ModelError):
            MLP(4, [0], 2)


class TestAttentionAndTransformer:
    def test_attention_output_shape(self):
        attention = MultiHeadSelfAttention(16, 4, rng=np.random.default_rng(0))
        out = attention(Tensor(np.random.default_rng(1).normal(size=(3, 5, 16))))
        assert out.shape == (3, 5, 16)

    def test_attention_dim_head_mismatch(self):
        with pytest.raises(ModelError):
            MultiHeadSelfAttention(10, 3)

    def test_mask_blocks_padded_positions(self):
        rng = np.random.default_rng(0)
        attention = MultiHeadSelfAttention(8, 2, rng=rng)
        x = Tensor(rng.normal(size=(1, 4, 8)))
        mask = Tensor(np.array([[1.0, 1.0, 0.0, 0.0]]))
        x_perturbed = Tensor(np.concatenate([x.data[:, :2], rng.normal(size=(1, 2, 8))], axis=1))
        out_a = attention(x, mask=mask).data[:, :2]
        out_b = attention(x_perturbed, mask=mask).data[:, :2]
        np.testing.assert_allclose(out_a, out_b, atol=1e-8)

    def test_transformer_encoder_shapes_and_grads(self):
        rng = np.random.default_rng(0)
        encoder = TransformerEncoder(dim=16, num_heads=4, num_layers=2, rng=rng)
        x = Tensor(rng.normal(size=(2, 6, 16)), requires_grad=True)
        out = encoder(x)
        assert out.shape == (2, 6, 16)
        out.sum().backward()
        assert x.grad is not None
        assert all(p.grad is not None for p in encoder.parameters())

    def test_transformer_requires_layers(self):
        with pytest.raises(ModelError):
            TransformerEncoder(dim=8, num_heads=2, num_layers=0)


class TestLSTM:
    def test_cell_step_shapes(self):
        cell = LSTMCell(8, 16, rng=np.random.default_rng(0))
        hidden, cell_state = cell(Tensor(np.zeros((4, 8))), cell.initial_state(4))
        assert hidden.shape == (4, 16) and cell_state.shape == (4, 16)

    def test_lstm_sequence(self):
        lstm = LSTM(8, 16, rng=np.random.default_rng(0))
        steps = [Tensor(np.random.default_rng(i).normal(size=(2, 8))) for i in range(5)]
        final, (hidden, cell_state) = lstm(steps)
        assert final.shape == (2, 16)
        assert np.allclose(final.data, hidden.data)

    def test_lstm_empty_sequence_raises(self):
        with pytest.raises(ModelError):
            LSTM(4, 4)([])


class TestLosses:
    def test_mse_and_mae(self):
        pred, target = Tensor([1.0, 3.0]), Tensor([0.0, 1.0])
        assert mse_loss(pred, target).item() == pytest.approx(2.5)
        assert mae_loss(pred, target).item() == pytest.approx(1.5)

    def test_mape_and_mspe(self):
        pred, target = Tensor([2.0, 2.0]), Tensor([1.0, 4.0])
        assert mape_loss(pred, target).item() == pytest.approx(0.75, rel=1e-6)
        assert mspe_loss(pred, target).item() == pytest.approx((1.0 + 0.25) / 2, rel=1e-6)

    def test_huber_behaves_quadratic_then_linear(self):
        small = huber_loss(Tensor([0.5]), Tensor([0.0]), delta=1.0).item()
        large = huber_loss(Tensor([10.0]), Tensor([0.0]), delta=1.0).item()
        assert small == pytest.approx(0.125)
        assert large == pytest.approx(0.5 + (10.0 - 1.0) * 1.0)

    def test_shape_mismatch_raises(self):
        with pytest.raises(TrainingError):
            mse_loss(Tensor([1.0]), Tensor([1.0, 2.0]))


class TestOptimizers:
    def _quadratic_problem(self, optimizer_factory, steps=200):
        target = np.array([3.0, -2.0])
        param = Parameter(np.zeros(2))
        optimizer = optimizer_factory([param])
        for _ in range(steps):
            optimizer.zero_grad()
            loss = ((param - Tensor(target)) ** 2.0).sum()
            loss.backward()
            optimizer.step()
        return param.data, target

    def test_sgd_converges(self):
        value, target = self._quadratic_problem(lambda p: SGD(p, lr=0.05, momentum=0.9))
        np.testing.assert_allclose(value, target, atol=1e-3)

    def test_adam_converges(self):
        value, target = self._quadratic_problem(lambda p: Adam(p, lr=0.1))
        np.testing.assert_allclose(value, target, atol=1e-2)

    def test_weight_decay_shrinks_solution(self):
        free, target = self._quadratic_problem(lambda p: Adam(p, lr=0.1, weight_decay=0.0))
        decayed, _ = self._quadratic_problem(lambda p: Adam(p, lr=0.1, weight_decay=0.5))
        assert np.linalg.norm(decayed) < np.linalg.norm(free)

    def test_clip_grad_norm(self):
        param = Parameter(np.zeros(4))
        optimizer = SGD([param], lr=0.1)
        loss = (param * Tensor(np.full(4, 100.0))).sum()
        loss.backward()
        norm = optimizer.clip_grad_norm(1.0)
        assert norm == pytest.approx(200.0)
        assert np.linalg.norm(param.grad) == pytest.approx(1.0)

    def test_empty_parameters_rejected(self):
        with pytest.raises(TrainingError):
            SGD([], lr=0.1)

    def test_make_optimizer(self):
        params = [Parameter(np.zeros(2))]
        assert isinstance(make_optimizer("adam", params, 1e-3), Adam)
        assert isinstance(make_optimizer("sgd", params, 1e-3), SGD)
        with pytest.raises(TrainingError):
            make_optimizer("lamb", params, 1e-3)


class TestSchedulers:
    def _optimizer(self):
        return SGD([Parameter(np.zeros(2))], lr=1.0)

    def test_step_lr_decays(self):
        optimizer = self._optimizer()
        scheduler = StepLR(optimizer, step_size=2, gamma=0.5)
        lrs = [scheduler.step() for _ in range(4)]
        assert lrs[-1] == pytest.approx(0.25)

    def test_cyclic_lr_goes_up_and_down(self):
        optimizer = self._optimizer()
        scheduler = CyclicLR(optimizer, max_lr=2.0, cycle_steps=10)
        lrs = [scheduler.step() for _ in range(10)]
        assert max(lrs) > 1.5
        assert lrs[-1] < max(lrs)

    def test_cosine_lr_monotone_decay(self):
        optimizer = self._optimizer()
        scheduler = CosineLR(optimizer, total_steps=10, min_lr=0.0)
        lrs = [scheduler.step() for _ in range(10)]
        assert all(a >= b - 1e-12 for a, b in zip(lrs, lrs[1:]))
        assert lrs[-1] == pytest.approx(0.0, abs=1e-6)

    def test_make_scheduler_unknown_raises(self):
        with pytest.raises(TrainingError):
            make_scheduler("warmup", self._optimizer())
