import numpy as np
import pytest

from helpers import trigger_bigram_dataset
from swcnn.errors import DataError, NumericError
from swcnn.train import (
    GridPoint,
    ModelTemplate,
    SelectionGrid,
    TrainConfig,
    default_holdout,
    holdout_split,
    init_model,
    lr_at_epoch,
    select_model,
    sgd_momentum_step,
    train,
)


class TestHoldoutSplit:
    def test_cardinality_and_partition(self):
        data = list(range(100))
        tr, val = holdout_split(data, 10, seed=0)
        assert len(tr) == 90 and len(val) == 10
        assert sorted(tr + val) == data

    def test_same_seed_same_split(self):
        data = list(range(50))
        assert holdout_split(data, 7, seed=3) == holdout_split(data, 7, seed=3)
        assert holdout_split(data, 7, seed=3) != holdout_split(data, 7, seed=4)

    def test_zero_holdout(self):
        tr, val = holdout_split(list(range(5)), 0, seed=0)
        assert len(tr) == 5 and val == []

    def test_oversized_holdout_rejected(self):
        with pytest.raises(ValueError):
            holdout_split(list(range(5)), 5, seed=0)

    def test_default_rule(self):
        assert default_holdout(100_001) == 10_000
        assert default_holdout(100_000) == 10_000
        assert default_holdout(2_000) == 200


class TestSgdMomentum:
    def test_first_step(self):
        w = np.array([1.0])
        v = np.zeros(1)
        sgd_momentum_step([w], [np.array([1.0])], [v], lr=0.1)
        assert v == pytest.approx([-0.1])
        assert w == pytest.approx([0.9])

    def test_second_identical_step_builds_velocity(self):
        w, v = np.array([1.0]), np.zeros(1)
        g = np.array([1.0])
        sgd_momentum_step([w], [g], [v], lr=0.1)
        sgd_momentum_step([w], [g], [v], lr=0.1)
        assert v == pytest.approx([-0.19])
        assert w == pytest.approx([1.0 - 0.1 - 0.19])

    def test_zero_momentum_is_vanilla_sgd(self):
        w, v = np.array([2.0, -1.0]), np.zeros(2)
        g = np.array([0.5, 0.25])
        sgd_momentum_step([w], [g], [v], lr=0.2, momentum=0.0)
        assert np.allclose(w, [2.0 - 0.1, -1.0 - 0.05])

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            sgd_momentum_step([np.zeros(2)], [np.zeros(3)], [np.zeros(2)], lr=0.1)


class TestLrSchedule:
    def test_decay_applies_after_the_decay_epoch(self):
        config = TrainConfig(initial_lr=0.2, epochs=30, decay_epoch=24)
        assert lr_at_epoch(config, 24) == 0.2
        assert lr_at_epoch(config, 25) == pytest.approx(0.02)

    def test_small_data_schedule(self):
        config = TrainConfig(initial_lr=0.2, epochs=100, decay_epoch=80)
        assert lr_at_epoch(config, 80) == 0.2
        assert lr_at_epoch(config, 81) == pytest.approx(0.02)

    def test_exactly_one_decrease(self):
        config = TrainConfig(initial_lr=0.5, epochs=30, decay_epoch=24)
        rates = [lr_at_epoch(config, e) for e in range(1, 31)]
        drops = sum(1 for a, b in zip(rates, rates[1:]) if b < a)
        assert drops == 1
        assert not any(b > a for a, b in zip(rates, rates[1:]))

    def test_epoch_bounds(self):
        config = TrainConfig(epochs=10, decay_epoch=8)
        with pytest.raises(ValueError):
            lr_at_epoch(config, 0)
        with pytest.raises(ValueError):
            lr_at_epoch(config, 11)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=10, decay_epoch=11)
        with pytest.raises(ValueError):
            TrainConfig(dropout=1.0)


def tiny_task(n=60, seed=0):
    return trigger_bigram_dataset(n, doc_len=12, vocab_size=10, seed=seed)


def tiny_template(data, pooling_k=1, region_size=3):
    from swcnn.textpipe import build_vocab

    vocab = build_vocab([t for t, _ in data], "word", 1000)
    return ModelTemplate(
        base_vocab=vocab, n_classes=2, region_size=region_size,
        embed_dim=8, pooling_k=pooling_k,
    )


class TestTrain:
    def test_zero_lr_keeps_initialization_bitwise(self):
        data = tiny_task()
        template = tiny_template(data)
        config = TrainConfig(initial_lr=0.0, epochs=2, decay_epoch=1, seed=9)
        model, _ = train(template, config, data)
        reference = init_model(template, config, np.random.default_rng(9))
        for got, expect in zip(model.trainable_params(), reference.trainable_params()):
            assert np.array_equal(got, expect)

    def test_fixed_seed_reproduces_everything(self):
        data = tiny_task()
        template = tiny_template(data)
        config = TrainConfig(initial_lr=0.1, epochs=3, decay_epoch=2, seed=4)
        tr, val = holdout_split(data, 10, config.seed)
        m1, metrics1 = train(template, config, tr, val)
        m2, metrics2 = train(template, config, tr, val)
        for a, b in zip(m1.trainable_params(), m2.trainable_params()):
            assert np.array_equal(a, b)
        for e1, e2 in zip(metrics1, metrics2):
            assert (e1.epoch, e1.lr, e1.train_loss, e1.val_error) == (
                e2.epoch, e2.lr, e2.train_loss, e2.val_error)

    def test_metrics_shape_and_finiteness(self):
        data = tiny_task()
        template = tiny_template(data)
        config = TrainConfig(initial_lr=0.05, epochs=4, decay_epoch=3, seed=1)
        tr, val = holdout_split(data, 12, config.seed)
        _, metrics = train(template, config, tr, val)
        assert [m.epoch for m in metrics] == [1, 2, 3, 4]
        assert metrics[-1].lr == pytest.approx(0.005)
        for m in metrics:
            assert np.isfinite(m.train_loss)
            assert 0.0 <= m.val_error <= 100.0

    def test_l2_touches_only_top_weights(self):
        data = tiny_task(40)
        template = tiny_template(data)
        # one batch per epoch, no momentum carryover across configs
        base_cfg = dict(initial_lr=0.05, epochs=1, decay_epoch=1, seed=2,
                        batch_size=100, dropout=0.0)
        with_l2, _ = train(template, TrainConfig(top_l2=0.1, **base_cfg), data)
        without_l2, _ = train(template, TrainConfig(top_l2=0.0, **base_cfg), data)
        assert np.array_equal(with_l2.base.W, without_l2.base.W)
        assert np.array_equal(with_l2.base.b, without_l2.base.b)
        assert not np.array_equal(with_l2.top_W, without_l2.top_W)
        # top bias carries no L2 term
        assert np.array_equal(with_l2.top_b, without_l2.top_b)

    def test_validationless_training_reports_none(self):
        data = tiny_task(30)
        template = tiny_template(data)
        config = TrainConfig(initial_lr=0.05, epochs=1, decay_epoch=1, seed=0)
        _, metrics = train(template, config, data, val_data=())
        assert metrics[0].val_error is None

    def test_label_outside_classes_rejected(self):
        data = tiny_task(30)
        template = tiny_template(data)
        config = TrainConfig(epochs=1, decay_epoch=1, seed=0)
        with pytest.raises(DataError, match=r"label 2 outside \[0, 2\)"):
            train(template, config, data, val_data=[(["w0"], 2)])

    def test_divergence_aborts_with_location(self):
        data = tiny_task(30)
        template = tiny_template(data)
        config = TrainConfig(initial_lr=1e200, epochs=3, decay_epoch=2, seed=0, batch_size=10)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
                train(template, config, data)

    def test_frozen_tv_weights_survive_training_bitwise(self):
        from swcnn.model import RegionEmbedding
        from swcnn.textpipe import BOW_WORD, RegionSpec, build_vocab

        data = tiny_task(40)
        vocab = build_vocab([t for t, _ in data], "word", 1000)
        rng = np.random.default_rng(12)
        spec = RegionSpec(BOW_WORD, 5, len(vocab))
        tv = RegionEmbedding(spec=spec, vocab=vocab,
                             W=np.asfortranarray(rng.normal(size=(4, len(vocab)))),
                             b=rng.normal(size=4))
        w_before, b_before = tv.W.copy(), tv.b.copy()
        template = ModelTemplate(base_vocab=vocab, n_classes=2, region_size=3,
                                 embed_dim=8, pooling_k=1, tv_embeddings=(tv,))
        config = TrainConfig(initial_lr=0.1, epochs=2, decay_epoch=1, seed=5)
        model, _ = train(template, config, data)
        assert np.array_equal(model.tvs[0].embedding.W, w_before)
        assert np.array_equal(model.tvs[0].embedding.b, b_before)


class TestSelectModel:
    def test_singleton_grid(self):
        data = tiny_task(50)
        template = tiny_template(data)
        grid = SelectionGrid(region_sizes=(3,), pooling_ks=(1,), initial_lrs=(0.05,))
        config = TrainConfig(initial_lr=0.0, epochs=1, decay_epoch=1, seed=0)
        model, report = select_model(grid, template, config, data, n_holdout=10)
        assert model is not None
        assert len(report.points) == 1
        assert report.chosen == report.points[0]
        assert report.chosen.initial_lr == 0.05

    def test_tie_breaks_toward_smaller_region(self):
        data = tiny_task(50)
        template = tiny_template(data)
        # lr=0 makes every grid point identical, so scores tie exactly
        grid = SelectionGrid(region_sizes=(5, 3), pooling_ks=(2, 1), initial_lrs=(0.0,))
        config = TrainConfig(initial_lr=0.0, epochs=1, decay_epoch=1, seed=0)
        _, report = select_model(grid, template, config, data, n_holdout=10)
        assert report.chosen.region_size == 3
        assert report.chosen.pooling_k == 1

    def test_report_lists_every_point(self):
        data = tiny_task(50)
        template = tiny_template(data)
        grid = SelectionGrid(region_sizes=(2, 3), pooling_ks=(1,), initial_lrs=(0.01, 0.05))
        config = TrainConfig(initial_lr=0.0, epochs=1, decay_epoch=1, seed=0)
        _, report = select_model(grid, template, config, data, n_holdout=10)
        assert len(report.points) == 4
        assert all(isinstance(p, GridPoint) for p in report.points)
        assert all(p.val_error is not None for p in report.points)

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            SelectionGrid(region_sizes=())

    def test_five_token_signal_selects_region_size_five(self):
        from helpers import pair_distance_dataset
        from swcnn.textpipe import build_vocab

        # trigger pair spans 5 tokens, so 3-token regions carry no signal
        data = pair_distance_dataset(900, seed=31)
        vocab = build_vocab([tokens for tokens, _ in data], "word", 30_000)
        template = ModelTemplate(base_vocab=vocab, n_classes=2, embed_dim=48, pooling_k=1)
        grid = SelectionGrid(region_sizes=(3, 5), pooling_ks=(1,), initial_lrs=(0.1,))
        config = TrainConfig(initial_lr=0.1, epochs=10, decay_epoch=8, seed=3)
        _, report = select_model(grid, template, config, data, n_holdout=120)
        by_size = {p.region_size: p.val_error for p in report.points}
        assert by_size[5] < by_size[3]
        assert report.chosen.region_size == 5


def test_package_attribute_is_the_train_module():
    import types

    import swcnn.train as module

    assert isinstance(module, types.ModuleType)
    assert callable(module.train)
