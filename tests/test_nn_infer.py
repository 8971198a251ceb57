"""Equivalence tests for the autograd-free ``Module.infer`` path.

Every nn module must honour the :meth:`repro.nn.module.Module.infer`
contract: eval-mode semantics, outputs bit-identical to the autograd
``forward`` for float64 inputs, and the same computation carried out in
single precision for float32 inputs.  These tests sweep every module in
``repro.nn`` against that contract, and pin down the supporting tensor
machinery (no-copy adoption of float64 arrays, pooled scratch buffers).
"""

import numpy as np
import pytest

from repro.nn import (
    GELU,
    LSTM,
    MLP,
    Dropout,
    LSTMCell,
    LayerNorm,
    Linear,
    MultiHeadSelfAttention,
    ReLU,
    Sequential,
    Tanh,
    Tensor,
    TransformerEncoder,
    TransformerEncoderLayer,
    clear_scratch_buffers,
    no_grad,
    scratch_buffer,
)
from repro.nn.layers import Sigmoid

FLOAT32_RTOL = 1e-5


def _rng(seed=0):
    return np.random.default_rng(seed)


# Each case: (builder of an initialised module, input shape).  Builders take a
# seed so the parameter draw is deterministic but distinct per case.
MODULE_CASES = {
    "linear": (lambda s: Linear(6, 4, rng=_rng(s)), (5, 6)),
    "linear_no_bias": (lambda s: Linear(6, 4, bias=False, rng=_rng(s)), (5, 6)),
    "linear_3d": (lambda s: Linear(6, 4, rng=_rng(s)), (3, 7, 6)),
    "layernorm": (lambda s: LayerNorm(6), (5, 6)),
    "dropout": (lambda s: Dropout(0.5, rng=_rng(s)), (5, 6)),
    "relu": (lambda s: ReLU(), (5, 6)),
    "gelu": (lambda s: GELU(), (5, 6)),
    "tanh": (lambda s: Tanh(), (5, 6)),
    "sigmoid": (lambda s: Sigmoid(), (5, 6)),
    "mlp": (lambda s: MLP(6, [16, 8], 3, rng=_rng(s)), (5, 6)),
    "mlp_gelu_dropout": (
        lambda s: MLP(6, [16], 3, activation="gelu", dropout=0.25, rng=_rng(s)),
        (5, 6),
    ),
    "sequential": (
        lambda s: Sequential(Linear(6, 8, rng=_rng(s)), ReLU(), Linear(8, 4, rng=_rng(s + 1))),
        (5, 6),
    ),
    "attention": (lambda s: MultiHeadSelfAttention(8, 2, rng=_rng(s)), (3, 5, 8)),
    "encoder_layer": (
        lambda s: TransformerEncoderLayer(8, 2, ffn_dim=16, rng=_rng(s)),
        (3, 5, 8),
    ),
    "encoder": (
        lambda s: TransformerEncoder(8, 2, num_layers=2, ffn_dim=16, rng=_rng(s)),
        (3, 5, 8),
    ),
}


def _build(name, seed=0):
    builder, shape = MODULE_CASES[name]
    module = builder(seed).eval()
    x = _rng(seed + 100).normal(size=shape)
    return module, x


def _forward_reference(module, x):
    with no_grad():
        return module(Tensor(x)).data


class TestInferForwardEquivalence:
    @pytest.mark.parametrize("name", sorted(MODULE_CASES))
    def test_float64_bit_identical(self, name):
        module, x = _build(name)
        reference = _forward_reference(module, x)
        out = module.infer(x)
        assert out.dtype == np.float64
        assert np.array_equal(out, reference)

    @pytest.mark.parametrize("name", sorted(MODULE_CASES))
    def test_float32_stays_single_precision(self, name):
        module, x = _build(name)
        reference = _forward_reference(module, x)
        out = module.infer(x.astype(np.float32))
        assert out.dtype == np.float32
        # Scale-relative atol: deep float32 stacks (the MLP case reaches
        # ~1e-4 relative on near-zero outputs) still match to 1e-5 of the
        # output scale.
        atol = FLOAT32_RTOL * np.max(np.abs(reference))
        np.testing.assert_allclose(out, reference, rtol=FLOAT32_RTOL, atol=atol)

    @pytest.mark.parametrize("name", sorted(MODULE_CASES))
    def test_infer_does_not_mutate_input(self, name):
        module, x = _build(name)
        snapshot = x.copy()
        module.infer(x)
        assert np.array_equal(x, snapshot)

    def test_dropout_infer_is_eval_even_in_train_mode(self):
        # infer has eval-mode semantics *by definition*: even a module left in
        # training mode must not drop activations on the inference path.
        module = Dropout(0.5, rng=_rng(0)).train()
        x = _rng(1).normal(size=(5, 6))
        assert np.array_equal(module.infer(x), x)

    def test_mlp_dropout_eval_semantics(self):
        # With dropout > 0 and training mode on, forward is stochastic while
        # infer stays deterministic and equal to the eval forward.
        module, x = _build("mlp_gelu_dropout")
        eval_reference = _forward_reference(module, x)
        module.train()
        assert np.array_equal(module.infer(x), eval_reference)

    def test_linear_infer_out_buffer(self):
        module, x = _build("linear")
        reference = _forward_reference(module, x)
        out = np.empty((x.shape[0], module.out_features))
        result = module.infer(x, out=out)
        assert result is out
        assert np.array_equal(out, reference)


class TestAttentionMask:
    def test_masked_infer_matches_forward(self):
        module = MultiHeadSelfAttention(8, 2, rng=_rng(0)).eval()
        x = _rng(1).normal(size=(3, 5, 8))
        mask = np.ones((3, 5))
        mask[0, 3:] = 0.0
        mask[2, 1:] = 0.0
        with no_grad():
            reference = module(Tensor(x), mask=Tensor(mask)).data
        out = module.infer(x, mask=mask)
        assert np.array_equal(out, reference)
        # The mask must matter: masked positions change the answer.
        unmasked = module.infer(x)
        assert not np.array_equal(out, unmasked)

    def test_encoder_masked_infer_matches_forward(self):
        module = TransformerEncoder(8, 2, num_layers=2, ffn_dim=16, rng=_rng(0)).eval()
        x = _rng(1).normal(size=(3, 5, 8))
        mask = np.ones((3, 5))
        mask[1, 2:] = 0.0
        with no_grad():
            reference = module(Tensor(x), mask=Tensor(mask)).data
        assert np.array_equal(module.infer(x, mask=mask), reference)


class TestRecurrentInfer:
    def test_lstm_cell_matches_forward(self):
        cell = LSTMCell(6, 4, rng=_rng(0)).eval()
        x = _rng(1).normal(size=(5, 6))
        h0 = _rng(2).normal(size=(5, 4))
        c0 = _rng(3).normal(size=(5, 4))
        with no_grad():
            ref_h, ref_c = cell(Tensor(x), (Tensor(h0), Tensor(c0)))
        out_h, out_c = cell.infer(x, (h0, c0))
        assert np.array_equal(out_h, ref_h.data)
        assert np.array_equal(out_c, ref_c.data)

    def test_lstm_matches_forward(self):
        lstm = LSTM(6, 4, rng=_rng(0)).eval()
        steps = [_rng(10 + i).normal(size=(5, 6)) for i in range(3)]
        with no_grad():
            ref_last, (ref_h, ref_c) = lstm([Tensor(s) for s in steps])
        out_last, (out_h, out_c) = lstm.infer(steps)
        assert np.array_equal(out_last, ref_last.data)
        assert np.array_equal(out_h, ref_h.data)
        assert np.array_equal(out_c, ref_c.data)

    def test_lstm_float32_state(self):
        lstm = LSTM(6, 4, rng=_rng(0)).eval()
        steps = [_rng(10 + i).normal(size=(5, 6)).astype(np.float32) for i in range(3)]
        out_last, _ = lstm.infer(steps)
        assert out_last.dtype == np.float32


class TestPredictorInfer:
    def test_predictor_infer_bit_identical_to_forward(self, trained_trainer, t4_features):
        predictor = trained_trainer.predictor
        valid = t4_features[1]
        x, mask, leaf_counts, dev = predictor.tensors_from(valid)
        with no_grad():
            reference = predictor(x, mask, leaf_counts, dev).data
        out = predictor.infer(valid.x, valid.mask, valid.leaf_counts, valid.device_features)
        assert np.array_equal(out, reference)

    def test_predict_transformed_batch_invariant(self, trained_trainer, t4_features):
        predictor = trained_trainer.predictor
        valid = t4_features[1]
        whole = predictor.predict_transformed(valid, batch_size=1024)
        batched = predictor.predict_transformed(valid, batch_size=3)
        # Not bit-exact: BLAS kernel selection depends on the matmul shapes,
        # so different batch sizes can differ in the last ulps.
        np.testing.assert_allclose(batched, whole, rtol=1e-12)


class TestTrimmedInferWidth:
    """``infer`` runs the encoder on 8 * ceil(max leaves / 8) positions only."""

    @pytest.mark.parametrize("max_count", range(1, 17))
    def test_trimmed_infer_bitwise_equals_full_width_forward(self, max_count):
        from repro.core.config import PredictorConfig
        from repro.core.predictor import CDMPPPredictor

        config = PredictorConfig(max_leaves=16)
        predictor = CDMPPPredictor(config, seed=max_count)
        predictor.eval()
        rng = _rng(max_count)
        batch = 24
        leaf_counts = rng.integers(1, max_count + 1, size=batch)
        leaf_counts[0] = max_count
        x = np.zeros((batch, config.max_leaves, config.feature_dim))
        mask = np.zeros((batch, config.max_leaves))
        for row, count in enumerate(leaf_counts):
            x[row, :count] = rng.normal(scale=3.0, size=(count, config.feature_dim))
            mask[row, :count] = 1.0
        device = rng.normal(size=(batch, config.device_feature_dim))
        with no_grad():
            full = predictor(Tensor(x), Tensor(mask), leaf_counts, Tensor(device)).data
        trimmed = predictor.infer(x, mask, leaf_counts, device)
        assert trimmed.tobytes() == full.tobytes()


class TestTensorNoCopy:
    def test_float64_array_adopted_without_copy(self):
        x = np.arange(12, dtype=np.float64).reshape(3, 4)
        assert np.shares_memory(Tensor(x).data, x)

    def test_non_float64_input_converted(self):
        x = np.arange(12, dtype=np.float32).reshape(3, 4)
        t = Tensor(x)
        assert t.data.dtype == np.float64
        assert not np.shares_memory(t.data, x)


class TestScratchBuffers:
    def test_same_tag_and_shape_reuses_buffer(self):
        clear_scratch_buffers()
        a = scratch_buffer("test-pool", (4, 8))
        b = scratch_buffer("test-pool", (4, 8))
        assert a is b
        assert a.shape == (4, 8) and a.dtype == np.float64

    def test_shape_change_reallocates(self):
        clear_scratch_buffers()
        a = scratch_buffer("test-pool", (4, 8))
        b = scratch_buffer("test-pool", (2, 8))
        assert a is not b
        assert b.shape == (2, 8)

    def test_distinct_tags_distinct_buffers(self):
        clear_scratch_buffers()
        a = scratch_buffer("tag-a", (4, 8))
        b = scratch_buffer("tag-b", (4, 8))
        assert a is not b

    def test_clear_resets_pool(self):
        a = scratch_buffer("test-pool", (4, 8))
        clear_scratch_buffers()
        b = scratch_buffer("test-pool", (4, 8))
        assert a is not b
