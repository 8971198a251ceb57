"""Tests for the predictor, trainer, fine-tuning, auto-tuner and API facade."""

import numpy as np
import pytest

from repro.core.api import CDMPP
from repro.core.autotuner import AutoTuner, SearchSpace, configs_from_params
from repro.core.config import PredictorConfig, TrainingConfig
from repro.core.finetune import FineTuner, cross_device_adaptation
from repro.core.predictor import CDMPPPredictor
from repro.core.scale import available_scales, get_scale
from repro.core.trainer import Trainer
from repro.errors import ConfigError, FeatureError, TrainingError
from repro.features.pipeline import featurize_records


class TestPredictorModel:
    @pytest.fixture(scope="class")
    def predictor(self):
        return CDMPPPredictor(PredictorConfig(d_model=32, num_heads=4, num_encoder_layers=1,
                                              embedding_dim=32, decoder_hidden=(32,)), seed=0)

    def test_forward_shapes(self, predictor, t4_features):
        train, _, _ = t4_features
        x, mask, counts, dev = predictor.tensors_from(train, np.arange(16))
        out = predictor(x, mask, counts, dev)
        assert out.shape == (16,)

    def test_encode_shape_includes_device_embedding(self, predictor, t4_features):
        train, _, _ = t4_features
        x, mask, counts, dev = predictor.tensors_from(train, np.arange(8))
        latent = predictor.encode(x, mask, counts, dev)
        assert latent.shape == (8, predictor.config.embedding_dim + predictor.config.device_embedding_dim)

    def test_batch_order_is_preserved(self, predictor, t4_features):
        train, _, _ = t4_features
        indices = np.arange(12)
        x, mask, counts, dev = predictor.tensors_from(train, indices)
        full = predictor(x, mask, counts, dev).numpy()
        # Predict one-by-one and compare: grouping by leaf count must not
        # permute the outputs.
        singles = []
        for i in indices:
            xi, mi, ci, di = predictor.tensors_from(train, np.array([i]))
            singles.append(predictor(xi, mi, ci, di).numpy()[0])
        np.testing.assert_allclose(full, np.asarray(singles), rtol=1e-8)

    def test_too_many_leaves_raises(self, predictor, t4_features):
        train, _, _ = t4_features
        x, mask, counts, dev = predictor.tensors_from(train, np.arange(4))
        bad_counts = counts.copy()
        bad_counts[0] = predictor.config.max_leaves + 5
        with pytest.raises(FeatureError):
            predictor(x, mask, bad_counts, dev)

    def test_missing_device_features_raises(self, predictor, t4_features):
        train, _, _ = t4_features
        x, mask, counts, _ = predictor.tensors_from(train, np.arange(4))
        with pytest.raises(Exception):
            predictor(x, mask, counts, None)

    def test_gradients_reach_all_used_parameters(self, t4_features):
        train, _, _ = t4_features
        predictor = CDMPPPredictor(PredictorConfig(d_model=16, num_heads=2, num_encoder_layers=1,
                                                   embedding_dim=16, decoder_hidden=(16,)), seed=1)
        x, mask, counts, dev = predictor.tensors_from(train, np.arange(32))
        loss = (predictor(x, mask, counts, dev) ** 2.0).sum()
        loss.backward()
        named = dict(predictor.named_parameters())
        assert named["input_proj.weight"].grad is not None
        assert named["decoder.layers.0.weight"].grad is not None
        assert named["device_mlp.layers.0.weight"].grad is not None


class TestTrainer:
    def test_training_reduces_validation_error(self, t4_features):
        train, valid, _ = t4_features
        trainer = Trainer(
            predictor_config=PredictorConfig(d_model=32, num_heads=4, num_encoder_layers=1,
                                             embedding_dim=32, decoder_hidden=(32,)),
            config=TrainingConfig(epochs=15, batch_size=64, seed=0),
        )
        result = trainer.fit(train, valid)
        assert len(result.history) > 0
        first, last = result.history[0]["train_loss"], result.history[-1]["train_loss"]
        assert last < first
        assert result.throughput_samples_per_s > 0
        assert result.best_valid_mape < 1.5

    def test_trained_model_beats_mean_predictor(self, trained_trainer, t4_features):
        _, _, test = t4_features
        metrics = trained_trainer.evaluate(test)
        mean_prediction = np.full_like(test.y, test.y.mean())
        from repro.core.metrics import mape

        assert metrics["mape"] < mape(mean_prediction, test.y)

    def test_predictions_positive_seconds(self, trained_trainer, t4_features):
        _, _, test = t4_features
        predictions = trained_trainer.predict(test)
        assert predictions.shape == (len(test),)
        assert np.all(predictions > 0)
        assert np.all(predictions < 1.0)  # nothing takes a full second at this scale

    def test_predict_ignores_a_predictor_left_in_training_mode(
        self, trained_trainer, t4_features
    ):
        _, _, test = t4_features
        assert not any(m.training for m in trained_trainer.predictor.modules())
        expected = trained_trainer.predict(test)
        trainer = trained_trainer.clone()
        assert not trainer.predictor.training  # clones (and loads) start in eval mode
        trainer.predictor.train()
        assert np.array_equal(trainer.predict(test), expected)
        assert np.array_equal(trainer.latent(test), trained_trainer.latent(test))
        assert trainer.predictor.training  # predict no longer walks the modules

    def test_latent_shape(self, trained_trainer, t4_features):
        _, _, test = t4_features
        latent = trained_trainer.latent(test)
        assert latent.shape[0] == len(test)
        assert latent.shape[1] > 0

    def test_predict_before_fit_raises(self, t4_features):
        train, _, _ = t4_features
        trainer = Trainer(config=TrainingConfig(epochs=1))
        with pytest.raises(TrainingError):
            trainer.predict(train)

    def test_empty_training_set_raises(self, trained_trainer, t4_features):
        train, _, _ = t4_features
        with pytest.raises(TrainingError):
            Trainer(config=TrainingConfig(epochs=1)).fit(train.subset([]))


class TestFineTuner:
    def test_finetune_runs_and_reports_history(self, trained_trainer, t4_features, tiny_dataset):
        train, _, _ = t4_features
        target_records = tiny_dataset.records("k80")[:80]
        target = featurize_records(target_records, max_leaves=train.max_leaves)
        finetuner = FineTuner(trained_trainer)
        before_cmd = finetuner.latent_cmd(train, target)
        result = finetuner.finetune(train.subset(range(64)), target, epochs=1)
        assert len(result.history) == 1
        assert before_cmd > 0

    def test_requires_pretrained_trainer(self):
        with pytest.raises(TrainingError):
            FineTuner(Trainer(config=TrainingConfig(epochs=1)))

    def test_cross_device_adaptation_pipeline(self, trained_trainer, t4_features, tiny_dataset):
        train, _, _ = t4_features
        from repro.dataset.splits import split_dataset

        target_records = tiny_dataset.records("k80")
        target_splits = split_dataset(target_records, seed=0)
        target_test = featurize_records(target_splits.test, max_leaves=train.max_leaves)
        result = cross_device_adaptation(
            trained_trainer,
            source_train=train.subset(range(96)),
            target_records=target_splits.train,
            target_test=target_test,
            num_tasks=4,
            epochs=1,
            seed=0,
        )
        assert result.target_device == "k80"
        assert 1 <= len(result.selected_tasks) <= 4
        assert "mape" in result.metrics_before and "mape" in result.metrics_after
        assert result.cmd_before > 0 and result.cmd_after > 0

    def test_unknown_sampling_strategy_raises(self, trained_trainer, t4_features, tiny_dataset):
        train, _, _ = t4_features
        target_records = tiny_dataset.records("k80")[:40]
        target = featurize_records(target_records, max_leaves=train.max_leaves)
        with pytest.raises(TrainingError):
            cross_device_adaptation(
                trained_trainer, train, target_records, target, num_tasks=2, strategy="grid"
            )


class TestAutoTuner:
    def test_search_space_sampling(self):
        space = SearchSpace()
        params = space.sample(np.random.default_rng(0))
        assert set(params) >= {"num_encoder_layers", "learning_rate", "optimizer", "batch_size"}

    def test_configs_from_params(self):
        predictor_cfg, training_cfg = configs_from_params(
            {"d_model": 32, "num_encoder_layers": 1, "decoder_width": 16, "learning_rate": 1e-3,
             "optimizer": "sgd", "scheduler": "step", "batch_size": 32, "lambda_mape": 0.01,
             "weight_decay": 0.0, "cmd_alpha": 0.5}
        )
        assert predictor_cfg.d_model == 32
        assert predictor_cfg.decoder_hidden == (16, 16)
        assert training_cfg.optimizer == "sgd"

    def test_autotuner_finds_a_config(self, t4_features):
        train, valid, _ = t4_features
        tuner = AutoTuner(num_trials=2, initial_epochs=1, final_epochs=2, seed=0)
        result = tuner.search(
            train.subset(range(96)),
            valid,
            base_predictor=PredictorConfig(d_model=32, num_heads=2, num_encoder_layers=1,
                                           embedding_dim=32, decoder_hidden=(32,)),
            base_training=TrainingConfig(epochs=1, batch_size=64, seed=0),
        )
        assert result.best_valid_mape < 10.0
        assert len(result.trials) >= 3  # 2 cheap + at least 1 survivor
        assert result.best_params in [t.params for t in result.trials]

    def test_invalid_tuner_configuration(self):
        with pytest.raises(ConfigError):
            AutoTuner(num_trials=0)
        with pytest.raises(ConfigError):
            AutoTuner(survivor_fraction=0.0)


class TestScales:
    def test_all_scales_available(self):
        assert {"tiny", "small", "medium", "paper"} <= set(available_scales())

    def test_scale_configs_materialise(self):
        scale = get_scale("small")
        assert scale.predictor_config().d_model == scale.d_model
        assert scale.training_config().epochs == scale.epochs
        assert "zoo_models" in scale.dataset_kwargs()

    def test_paper_scale_matches_appendix(self):
        paper = get_scale("paper")
        assert paper.num_encoder_layers == 11
        assert paper.batch_size == 600
        assert paper.num_synthetic_models + len(paper.zoo_models) == 120

    def test_unknown_scale_raises(self):
        with pytest.raises(ConfigError):
            get_scale("huge")


class TestCDMPPFacade:
    @pytest.fixture(scope="class")
    def facade(self, t4_splits):
        scale = get_scale("tiny")
        cdmpp = CDMPP(predictor_config=scale.predictor_config(),
                      training_config=scale.training_config(epochs=4, seed=0))
        cdmpp.pretrain(t4_splits.train, t4_splits.valid)
        return cdmpp

    def test_pretrain_requires_records(self):
        with pytest.raises(TrainingError):
            CDMPP().pretrain([])

    def test_predict_program(self, facade, dense_program):
        latency = facade.predict_program(dense_program, "t4")
        assert 0 < latency < 1.0

    def test_predict_programs_batch(self, facade, t4_splits):
        programs = [record.program for record in t4_splits.test[:5]]
        predictions = facade.predict_programs(programs, "t4")
        assert set(predictions) == {program.task.workload_key for program in programs}
        assert all(value > 0 for value in predictions.values())
        assert facade.predict_programs([], "t4") == {}

    def test_predict_model_end_to_end(self, facade):
        prediction = facade.predict_model("bert_tiny", "t4")
        assert prediction.model == "bert_tiny"
        assert prediction.device == "t4"
        assert prediction.predicted_latency_s > 0
        assert prediction.num_nodes > 5
        assert len(prediction.per_program_latency_s) > 5

    def test_evaluate_and_latent(self, facade, t4_features):
        _, _, test = t4_features
        metrics = facade.evaluate(test)
        assert 0 < metrics["mape"] < 5.0
        assert facade.latent(test).shape[0] == len(test)
