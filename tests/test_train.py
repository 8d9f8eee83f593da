import gc
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    RowIndexedMomentum, child_peak_rss_bytes, compact_scatter_reference, dense_momentum_step,
    dense_train, markov_corpus, rel_err, trigger_bigram_dataset,
)
from swcnn.errors import DataError, NumericError
from swcnn.train import (
    GridPoint,
    LazyMomentum,
    ModelTemplate,
    SelectionGrid,
    TrainConfig,
    default_holdout,
    holdout_split,
    init_model,
    lr_at_epoch,
    select_model,
    sgd_epochs,
    sgd_momentum_step,
    train,
)
from swcnn.tv import TvTrainConfig


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


def touched_in_full(w, momentum=0.9, n_steps=8):
    """The LazyMomentum of a weight whose every row a step touches."""
    return LazyMomentum(w, momentum, n_steps), np.arange(len(w))


class TestSgdMomentum:
    def test_first_step(self):
        w = np.array([1.0])
        v, rows = touched_in_full(w)
        v.touch(rows)
        v.grad[...] = 1.0
        sgd_momentum_step([w], [v.grad], [v], lr=0.1)
        assert w == pytest.approx([0.9])  # the velocity is -0.1

    def test_second_identical_step_builds_velocity(self):
        w = np.array([1.0])
        v, rows = touched_in_full(w)
        for _ in range(2):
            before = w.copy()
            v.touch(rows)
            v.grad[...] = 1.0
            sgd_momentum_step([w], [v.grad], [v], lr=0.1)
        assert w - before == pytest.approx([-0.19])  # the velocity
        assert w == pytest.approx([1.0 - 0.1 - 0.19])

    def test_zero_momentum_is_vanilla_sgd(self):
        w = np.array([2.0, -1.0])
        v, rows = touched_in_full(w, momentum=0.0)
        v.touch(rows)
        v.grad[...] = [0.5, 0.25]
        sgd_momentum_step([w], [v.grad], [v], lr=0.2)
        assert np.allclose(w, [2.0 - 0.1, -1.0 - 0.05])

    def test_shape_mismatch(self):
        w = np.zeros(2)
        v, rows = touched_in_full(w)
        v.touch(rows)
        with pytest.raises(ValueError):
            sgd_momentum_step([w], [np.zeros(3)], [v], lr=0.1)
        with pytest.raises(ValueError):
            sgd_momentum_step([w], [v.grad], [v, v], lr=0.1)


class TestLazyMomentum:
    # 700 rows, more than one chunk, so a step's rows span several chunks;
    # row LAST is touched at one step only and otherwise caught up by flush
    LAST, STEPS = 699, 14
    # (shape, skip): the weight is every (skip + 1)-th row of a larger array
    SHAPES = [((700, 3), 0), ((700, 3), 1), ((700,), 0)]

    @staticmethod
    def weight(rng, shape, skip):
        return rng.normal(size=(shape[0] * (skip + 1), *shape[1:]))[:: skip + 1]

    @pytest.mark.parametrize("momentum", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("shape,skip", SHAPES)
    def test_matches_dense_steps(self, momentum, shape, skip):
        # the gradient is compact: the touched rows only, in sorted order;
        # the steps land in w, even when its rows are not adjacent
        rng = np.random.default_rng(5)
        w = self.weight(rng, shape, skip)
        w_ref, v_ref = w.copy(), np.zeros(shape)
        lazy = LazyMomentum(w, momentum, self.STEPS)
        buffers = set()
        for step in range(self.STEPS):
            size = 0 if step == 5 else int(rng.integers(1, 500))
            rows = np.sort(rng.choice(self.LAST, size=size, replace=False))
            if step == 3:
                rows = np.append(rows, self.LAST)
            lazy.touch(rows)
            assert lazy.grad.shape == (len(rows), *w.shape[1:])
            assert not lazy.grad.any()
            assert np.array_equal(lazy.position[rows], np.arange(len(rows)))
            if size:
                buffers.add(lazy.grad.__array_interface__["data"][0])
                assert rel_err(w[rows], w_ref[rows]) <= 1e-12
            dense_grad = np.zeros(shape)
            dense_grad[rows] = rng.normal(size=dense_grad[rows].shape)
            lazy.grad[...] = dense_grad[rows]
            lr = 0.3 if step < 8 else 0.03
            sgd_momentum_step([w], [lazy.grad], [lazy], lr)
            dense_momentum_step([w_ref], [dense_grad], [v_ref], lr, momentum)
        lazy.flush()
        assert rel_err(w, w_ref) <= 1e-12
        assert len(buffers) == 1  # every step's gradient lives in one buffer

    @pytest.mark.parametrize("momentum", [0.0, 0.9, 1.0])
    @pytest.mark.parametrize("shape,skip", SHAPES)
    def test_touched_in_full_is_the_dense_step_bitwise(self, momentum, shape, skip):
        # a row touched at every step never needs a catch-up, so the lazy
        # step does the dense arithmetic element for element
        rng = np.random.default_rng(6)
        w = self.weight(rng, shape, skip)
        w_ref, v_ref = w.copy(), np.zeros(shape)
        lazy = LazyMomentum(w, momentum, self.STEPS)
        every_row = np.arange(shape[0])
        for step in range(self.STEPS):
            lazy.touch(every_row)
            grad = rng.normal(size=shape)
            lazy.grad[...] = grad
            lr = 0.3 if step < 8 else 0.03
            sgd_momentum_step([w], [lazy.grad], [lazy], lr)
            dense_momentum_step([w_ref], [grad], [v_ref], lr, momentum)
            assert np.array_equal(w, w_ref)
        lazy.flush()
        assert np.array_equal(w, w_ref)

    def test_belongs_to_one_weight_and_momentum(self):
        # the momentum is the LazyMomentum's own, so only the weight and
        # the gradient can be mismatched
        w = np.zeros((4, 2))
        lazy = LazyMomentum(w, 0.9, 3)
        lazy.touch(np.arange(4))
        with pytest.raises(ValueError):
            sgd_momentum_step([w.copy()], [lazy.grad], [lazy], lr=0.1)
        with pytest.raises(ValueError):
            sgd_momentum_step([w], [lazy.grad.copy()], [lazy], lr=0.1)

    @given(st.data(), st.sampled_from([0.0, 0.9, 1.0]), st.sampled_from([(), (3,)]),
           st.integers(0, 1), st.sampled_from([1, 3, 256]))
    @settings(max_examples=150, deadline=None)
    def test_packed_velocity_is_the_row_indexed_one_bitwise(self, data, momentum, row_shape,
                                                            skip, chunk):
        # rows touched at random, none, once, or again after gaps: the slot
        # table changes where a velocity lives, not one addend or its order
        n_rows = data.draw(st.integers(1, 40), label="n_rows")
        touches = data.draw(st.lists(st.sets(st.integers(0, n_rows - 1)), max_size=12),
                            label="touches")
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
        base = rng.normal(size=(n_rows * (skip + 1), *row_shape))
        base_ref = base.copy()
        w, w_ref = base[:: skip + 1], base_ref[:: skip + 1]
        lazy = LazyMomentum(w, momentum, len(touches))
        ref = RowIndexedMomentum(w_ref, momentum, len(touches))
        lazy.CHUNK = ref.CHUNK = chunk
        slot = np.full(n_rows, -1)
        for step, touched in enumerate(touches):
            rows = np.array(sorted(touched), dtype=np.int64)
            lazy.touch(rows)
            ref.touch(rows)
            # a new row takes the next free slot, in the order touch gets
            # the rows; a row's slot never changes
            new = rows[slot[rows] < 0]
            n_given = int(np.sum(slot >= 0))
            slot[new] = np.arange(n_given, n_given + len(new))
            assert np.array_equal(lazy._slot, slot)
            assert w.tobytes() == w_ref.tobytes()
            lazy.grad[...] = ref.grad[...] = rng.normal(size=(len(rows), *row_shape))
            lr = 0.3 if step < 6 else 0.03
            sgd_momentum_step([w], [lazy.grad], [lazy], lr)
            ref.step(lr)
            assert w.tobytes() == w_ref.tobytes()
        lazy.flush()
        ref.flush()
        assert w.tobytes() == w_ref.tobytes()
        # the slots given are 0..n-1, one per row ever touched
        touched_ever = set().union(*touches)
        assert sorted(lazy._slot[lazy._slot >= 0]) == list(range(len(touched_ever)))

    @pytest.mark.parametrize("make", [
        pytest.param(lambda a: a.T, id="transposed"),
        pytest.param(lambda a: a[:, ::2], id="strided-slice"),
        pytest.param(lambda a: a.reshape(6, 2, 4)[:, :, :3], id="3-d-slice"),
    ])
    def test_rejects_a_weight_whose_rows_are_not_contiguous(self, make):
        w = make(np.zeros((6, 8)))
        with pytest.raises(ValueError, match="rows .* are not contiguous"):
            LazyMomentum(w, 0.9, 3)


class TestSgdEpochs:
    CONFIGS = [
        pytest.param(TrainConfig(epochs=3, decay_epoch=3, batch_size=4), id="train"),
        pytest.param(TvTrainConfig(epochs=3, batch_size=4), id="tv"),
    ]

    @staticmethod
    def record(batches, loss=0.0):
        def step_batch(velocity, epoch, batch):
            batches.append((epoch, batch.copy()))
            return loss
        return step_batch

    @pytest.mark.parametrize("config", CONFIGS)
    def test_each_epoch_covers_every_example_once_in_short_last_batches(self, config):
        batches = []
        yielded = list(sgd_epochs([np.zeros((3, 2))], 10, config, np.random.default_rng(1),
                                  self.record(batches, loss=2.5), "loss"))
        assert yielded == [(1, 0.75), (2, 0.75), (3, 0.75)]  # 3 batches of 2.5 over 10
        assert [epoch for epoch, _ in batches] == [1] * 3 + [2] * 3 + [3] * 3
        assert [len(batch) for _, batch in batches] == [4, 4, 2] * 3
        for epoch in (1, 2, 3):
            seen = np.concatenate([batch for e, batch in batches if e == epoch])
            assert sorted(seen.tolist()) == list(range(10))

    def test_one_permutation_per_epoch(self):
        rng = np.random.default_rng(7)
        batches = []
        for _ in sgd_epochs([np.zeros(3)], 10, TvTrainConfig(epochs=3, batch_size=4), rng,
                            self.record(batches), "tv loss"):
            pass
        fresh = np.random.default_rng(7)
        orders = [fresh.permutation(10) for _ in range(3)]
        assert rng.bit_generator.state == fresh.bit_generator.state
        for epoch, order in enumerate(orders, start=1):
            got = np.concatenate([batch for e, batch in batches if e == epoch])
            assert np.array_equal(got, order)

    def test_weights_are_current_at_each_yield(self):
        # example i pulls row i of W towards target[i]; rows 20..29 are
        # never touched and the batch rows change from batch to batch, so
        # most rows are behind until the epoch end brings them up to date
        rng = np.random.default_rng(3)
        target = rng.normal(size=(30, 2))
        W, b = rng.normal(size=(30, 2)), rng.normal(size=2)
        W_ref, b_ref = W.copy(), b.copy()
        v_ref = [np.zeros_like(W), np.zeros_like(b)]
        config = TrainConfig(epochs=4, decay_epoch=4, batch_size=6, momentum=0.9)
        lr = 0.1

        def step_batch(velocity, epoch, batch):
            lazy_W, lazy_b = velocity
            rows = np.sort(batch)
            lazy_W.touch(rows)
            lazy_b.touch(np.arange(2))
            diff = W[rows] - target[rows] + b
            lazy_W.grad[...] = diff
            lazy_b.grad[...] = diff.sum(axis=0)
            sgd_momentum_step([W, b], [lazy_W.grad, lazy_b.grad], velocity, lr)
            return float(np.sum(diff * diff))

        def reference_epoch(order):
            total = 0.0
            for first in range(0, len(order), config.batch_size):
                rows = np.sort(order[first : first + config.batch_size])
                diff = W_ref[rows] - target[rows] + b_ref
                dW = np.zeros_like(W_ref)
                dW[rows] = diff
                dense_momentum_step([W_ref, b_ref], [dW, diff.sum(axis=0)], v_ref, lr, 0.9)
                total += float(np.sum(diff * diff))
            return total / len(order)

        ref_rng = np.random.default_rng(11)
        for epoch, loss in sgd_epochs([W, b], 20, config, np.random.default_rng(11),
                                      step_batch, "loss"):
            want_loss = reference_epoch(ref_rng.permutation(20))
            assert rel_err(W, W_ref) <= 1e-12
            assert rel_err(b, b_ref) <= 1e-12
            assert abs(loss - want_loss) <= 1e-12 * want_loss

    @pytest.mark.parametrize("what", ["loss", "tv loss"])
    def test_nan_at_the_last_batch_names_its_epoch_and_number(self, what):
        def step_batch(velocity, epoch, batch):
            calls.append(epoch)
            return float("nan") if len(calls) == 6 else 1.0

        calls = []
        with pytest.raises(NumericError, match=rf"^non-finite {what} at epoch 2, batch 3$"):
            for _ in sgd_epochs([np.zeros(2)], 10, TrainConfig(epochs=3, decay_epoch=3,
                                batch_size=4), np.random.default_rng(0), step_batch, what):
                pass
        assert len(calls) == 6

    def test_a_running_total_that_overflows_raises(self):
        # every batch's loss is finite; their sum is not
        with pytest.raises(NumericError, match=r"^non-finite loss at epoch 1, batch 2$"):
            for _ in sgd_epochs([np.zeros(2)], 10, TvTrainConfig(epochs=2, batch_size=4),
                                np.random.default_rng(0), self.record([], loss=1e308), "loss"):
                pass

    def test_no_velocity_outlives_train_or_train_tv(self):
        # the CLI saves what they return, held here as the CLI holds it: a
        # velocity still alive then would put the save's peak on top of it
        import swcnn.tv as tv
        from swcnn.textpipe import BOW_WORD, RegionSpec, build_vocab

        def new_velocities():
            gc.collect()
            return [o for o in gc.get_objects()
                    if isinstance(o, LazyMomentum) and not any(o is b for b in before)]

        before = [o for o in gc.get_objects() if isinstance(o, LazyMomentum)]
        data = tiny_task(30)
        model, _ = train(tiny_template(data), TrainConfig(epochs=2, decay_epoch=2,
                                                          batch_size=10), data)
        assert new_velocities() == []
        corpus = markov_corpus(6, doc_len=12, n_states=10)
        vocab = build_vocab(corpus, "word", 100)
        embedding, _ = tv.train_tv(corpus, RegionSpec(BOW_WORD, 3, len(vocab)), vocab, vocab,
                                   4, TvTrainConfig(epochs=2, negatives=3))
        assert new_velocities() == []

    def test_train_and_train_tv_run_through_the_driver(self, monkeypatch):
        import swcnn.tv as tv
        from swcnn.textpipe import BOW_WORD, RegionSpec, build_vocab

        calls = []

        def counting(*args):
            calls.append(args[-1])
            return sgd_epochs(*args)

        monkeypatch.setattr("swcnn.train.sgd_epochs", counting)
        monkeypatch.setattr(tv, "sgd_epochs", counting)
        data = tiny_task(30)
        train(tiny_template(data), TrainConfig(epochs=2, decay_epoch=2, batch_size=10), data)
        assert calls == ["loss"]
        corpus = markov_corpus(6, doc_len=12, n_states=10)
        vocab = build_vocab(corpus, "word", 100)
        tv.train_tv(corpus, RegionSpec(BOW_WORD, 3, len(vocab)), vocab, vocab, 4,
                    TvTrainConfig(epochs=2, negatives=3))
        assert calls == ["loss", "tv loss"]


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


def test_init_model_draw_order():
    """W (stored transposed), b, one fusion per tv, top_W, top_b, in that order."""
    from swcnn.model import RegionEmbedding
    from swcnn.textpipe import BOW_WORD, RegionSpec

    data = tiny_task(20)
    vocab = tiny_template(data).base_vocab
    tv = RegionEmbedding(spec=RegionSpec(BOW_WORD, 2, len(vocab)), vocab=vocab,
                         W=np.zeros((len(vocab), 3)), b=np.zeros(3))
    template = ModelTemplate(base_vocab=vocab, n_classes=2, region_size=3, embed_dim=8,
                             pooling_k=2, tv_embeddings=(tv,))
    config = TrainConfig(epochs=1, decay_epoch=1, init_std=0.05)
    rng = np.random.default_rng(5)
    want = [rng.normal(0.0, 0.05, size=shape)
            for shape in [(8, 3 * len(vocab)), 8, (8, 3), (2, 16), 2]]
    want[0] = want[0].T
    model = init_model(template, config, np.random.default_rng(5))
    assert model.base.W.flags.c_contiguous
    for got, expect in zip(model.trainable_params(), want, strict=True):
        assert got.shape == expect.shape and np.array_equal(got, expect)


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

    def test_weights_diverged_by_the_last_step_are_a_numeric_failure(self, monkeypatch):
        # validation runs inference, which rejects what a diverged W gathers;
        # training reports that as its own numeric failure, not a data error
        step = sgd_momentum_step

        def diverging_step(params, grads, velocity, lr):
            step(params, grads, velocity, lr)
            params[0][...] = np.nan

        monkeypatch.setattr("swcnn.train.sgd_momentum_step", diverging_step)
        data = tiny_task(30)
        config = TrainConfig(epochs=1, decay_epoch=1, seed=0, batch_size=100)
        with pytest.raises(NumericError, match=r"^validation after epoch 1: document 1: "
                                               r"non-finite value in the base view's"):
            train(tiny_template(data), config, data[:20], data[20:])

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
        with pytest.raises(NumericError, match=r"epoch \d+, batch \d+"):
            train(template, config, data)

    def test_divergence_numbers_batches_from_one(self):
        # two batches per epoch; the first step blows the weights up, so
        # the second batch's loss is the first non-finite one
        data = tiny_task(30)
        template = tiny_template(data)
        config = TrainConfig(initial_lr=1e200, epochs=2, decay_epoch=2, seed=0, batch_size=15)
        with pytest.raises(NumericError, match=r"^non-finite loss at epoch 1, batch 2$"):
            train(template, config, data)

    def test_frozen_tv_weights_survive_training_bitwise(self):
        from swcnn.model import RegionEmbedding
        from swcnn.textpipe import BOW_WORD, RegionSpec, build_vocab

        data = tiny_task(40)
        vocab = build_vocab([t for t, _ in data], "word", 1000)
        rng = np.random.default_rng(12)
        spec = RegionSpec(BOW_WORD, 5, len(vocab))
        tv = RegionEmbedding(spec=spec, vocab=vocab,
                             W=np.ascontiguousarray(rng.normal(size=(4, len(vocab))).T),
                             b=rng.normal(size=4))
        w_before, b_before = tv.W.copy(), tv.b.copy()
        template = ModelTemplate(base_vocab=vocab, n_classes=2, region_size=3,
                                 embed_dim=8, pooling_k=1, tv_embeddings=(tv,))
        config = TrainConfig(initial_lr=0.1, epochs=2, decay_epoch=1, seed=5)
        model, _ = train(template, config, data)
        assert np.array_equal(model.tvs[0].embedding.W, w_before)
        assert np.array_equal(model.tvs[0].embedding.b, b_before)


def test_train_is_bitwise_equal_with_the_row_wise_scatter(monkeypatch):
    """Seeded ``train`` gives byte-identical weights through
    ``helpers.scatter_reference``, by way of
    ``helpers.compact_scatter_reference``, at pooling_k=3, with dropout and
    an n-gram tv."""
    import swcnn.model
    from swcnn.model import RegionEmbedding
    from swcnn.textpipe import BOW_NGRAM, RegionSpec, build_vocab

    data = tiny_task(50, seed=4)
    vocab = build_vocab([t for t, _ in data], "word", 1000)
    grams = build_vocab([t for t, _ in data], "ngram123", 1000)
    tv = RegionEmbedding.initial(RegionSpec(BOW_NGRAM, 3, len(grams)), grams, 4, 0.5,
                                 np.random.default_rng(2))
    template = ModelTemplate(base_vocab=vocab, n_classes=2, region_size=3, embed_dim=8,
                             pooling_k=3, tv_embeddings=(tv,))
    config = TrainConfig(initial_lr=0.1, epochs=3, decay_epoch=2, batch_size=8,
                         dropout=0.5, seed=6)
    tr, val = holdout_split(data, 10, 1)
    model, metrics = train(template, config, tr, val)
    monkeypatch.setattr(swcnn.model, "_scatter_embedding_grad", compact_scatter_reference)
    ref, ref_metrics = train(template, config, tr, val)
    for got, want in zip(model.trainable_params(), ref.trainable_params(), strict=True):
        assert got.tobytes(order="A") == want.tobytes(order="A")
    assert [m.train_loss for m in metrics] == [m.train_loss for m in ref_metrics]


class TestLazyTrainMatchesDense:
    """``train`` against ``helpers.dense_train``, the full-tensor step."""

    @staticmethod
    def task():
        data = tiny_task(46, seed=3)
        # a word in one document only: its rows are touched in one batch
        # per epoch and otherwise only caught up; an empty document
        tokens, label = data[0]
        data[0] = (tokens[:6] + ["once"] + tokens[6:], label)
        data.append(([], 1))
        return data

    @pytest.mark.parametrize("momentum,representation", [
        (0.0, "concat-one-hot"), (0.9, "concat-one-hot"), (1.0, "concat-one-hot"),
        (0.9, "bow-word"),
    ])
    def test_weights_losses_and_errors_agree(self, momentum, representation):
        from swcnn.model import RegionEmbedding
        from swcnn.textpipe import BOW_WORD, RegionSpec, build_vocab

        data = self.task()
        vocab = build_vocab([t for t, _ in data], "word", 1000)
        rng = np.random.default_rng(12)
        spec = RegionSpec(BOW_WORD, 5, len(vocab))
        tv = RegionEmbedding(spec=spec, vocab=vocab,
                             W=np.ascontiguousarray(rng.normal(size=(4, len(vocab))).T),
                             b=rng.normal(size=4))
        template = ModelTemplate(base_vocab=vocab, n_classes=2, region_size=3,
                                 representation=representation, embed_dim=8,
                                 pooling_k=2, tv_embeddings=(tv,))
        # 39 training documents in batches of 7: 6 steps per epoch, 36 in
        # all, the lr decaying after the third epoch
        config = TrainConfig(initial_lr=0.1, epochs=6, decay_epoch=3, momentum=momentum,
                             batch_size=7, dropout=0.5, seed=8)
        tr, val = holdout_split(data, 8, 1)
        assert any("once" in t for t, _ in tr) and [] in [t for t, _ in tr]
        ref, ref_losses, ref_errors = dense_train(template, config, tr, val)
        model, metrics = train(template, config, tr, val)
        for got, want in zip(model.trainable_params(), ref.trainable_params()):
            assert rel_err(got, want) <= 1e-12
        assert rel_err([m.train_loss for m in metrics], ref_losses) <= 1e-12
        assert rel_err([m.val_error for m in metrics], ref_errors) <= 1e-12
        once = vocab.index["once"]  # slot 0's column for concat-one-hot
        init = init_model(template, config, np.random.default_rng(config.seed))
        assert not np.array_equal(model.base.W[once], init.base.W[once])


class TestSelectModel:
    def test_singleton_grid(self):
        data = tiny_task(50)
        template = tiny_template(data)
        grid = SelectionGrid(region_sizes=(3,), pooling_ks=(1,), initial_lrs=(0.05,))
        config = TrainConfig(initial_lr=0.0, epochs=1, decay_epoch=1, seed=0)
        model, report = select_model(grid, template, config, *holdout_split(data, 10, config.seed))
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
        _, report = select_model(grid, template, config, *holdout_split(data, 10, config.seed))
        assert report.chosen.region_size == 3
        assert report.chosen.pooling_k == 1

    def test_report_lists_every_point(self):
        data = tiny_task(50)
        template = tiny_template(data)
        grid = SelectionGrid(region_sizes=(2, 3), pooling_ks=(1,), initial_lrs=(0.01, 0.05))
        config = TrainConfig(initial_lr=0.0, epochs=1, decay_epoch=1, seed=0)
        _, report = select_model(grid, template, config, *holdout_split(data, 10, config.seed))
        assert len(report.points) == 4
        assert all(isinstance(p, GridPoint) for p in report.points)
        assert all(p.val_error is not None for p in report.points)

    def test_diverged_point_is_reported_and_never_chosen(self):
        data = tiny_task(50)
        template = tiny_template(data)
        # 1e200 sorts first among the scores of a diverged run, were it kept
        grid = SelectionGrid(region_sizes=(3,), pooling_ks=(1,), initial_lrs=(1e200, 0.05))
        config = TrainConfig(epochs=2, decay_epoch=1, seed=0, batch_size=20)
        model, report = select_model(grid, template, config, *holdout_split(data, 10, config.seed))
        diverged, trained = report.points
        assert diverged.initial_lr == 1e200
        assert diverged.diverged.startswith("non-finite loss at epoch 1, batch ")
        assert trained.diverged == "" and trained.val_error is not None
        assert report.chosen is trained
        assert all(np.isfinite(p).all() for p in model.trainable_params())

    def test_every_point_diverged_raises(self):
        data = tiny_task(50)
        template = tiny_template(data)
        grid = SelectionGrid(region_sizes=(3,), pooling_ks=(1,), initial_lrs=(1e200, 1e300))
        config = TrainConfig(epochs=2, decay_epoch=1, seed=0, batch_size=20)
        with pytest.raises(NumericError, match="every grid point diverged"):
            select_model(grid, template, config, *holdout_split(data, 10, config.seed))

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
        _, report = select_model(grid, template, config, *holdout_split(data, 120, config.seed))
        by_size = {p.region_size: p.val_error for p in report.points}
        assert by_size[5] < by_size[3]
        assert report.chosen.region_size == 5


def test_package_attribute_is_the_train_module():
    import types

    import swcnn.train as module

    assert isinstance(module, types.ModuleType)
    assert callable(module.train)


def peak_rss_bytes_of_train(tmp_path, data_csv, vocab_size):
    """Peak RSS of a ``swcnn train`` child on ``data_csv`` with a word
    vocabulary of ``vocab_size`` words, read with ``os.wait4``."""
    vocab = tmp_path / f"w{vocab_size}.vocab"
    vocab.write_text("kind=word\n" + "".join(f"s{j}\t1\n" for j in range(vocab_size)),
                     encoding="utf-8")
    return child_peak_rss_bytes(
        [sys.executable, "-m", "swcnn", "train", "--input", str(data_csv),
         "--word-vocab", str(vocab), "--output", str(tmp_path / f"m{vocab_size}.swcn"),
         "--set", "embed_dim=32", "--set", "epochs=3", "--set", "decay_epoch=3",
         "--set", "holdout=0"])


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB on Linux")
def test_train_memory_follows_the_touched_columns(tmp_path):
    """The same 1,000 documents over 1K words, trained with a 1K and a 100K
    word vocabulary: the larger run may hold its larger W, but not a dense
    gradient or velocity beside it, so its peak exceeds the smaller run's
    by less than two W's."""
    rng = np.random.default_rng(99)
    data_csv = tmp_path / "step.csv"
    data_csv.write_text("".join(
        f'"{1 + i % 2}","{" ".join(f"s{j}" for j in rng.integers(0, 1_000, size=40))}"\n'
        for i in range(1_000)), encoding="utf-8")
    small, large = (peak_rss_bytes_of_train(tmp_path, data_csv, size)
                    for size in (1_000, 100_000))
    W_bytes = 32 * 3 * 100_000 * 8  # embed_dim x concat input dim, float64: 76.8 MB
    assert large - small < 2 * W_bytes, f"{(large - small) / 1e6:.1f} MB over the 1K run"


# a (24000, 500) weight, every page resident before training starts, then
# four steps on 6,000 of its 4,000-byte rows: every 4th row, or the first
VELOCITY_CHILD = """
import sys
import numpy as np
from swcnn.train import LazyMomentum
w = np.full((24_000, 500), 0.5)
if sys.argv[1] != "none":
    rows = np.arange(0, 24_000, 4) if sys.argv[1] == "spread" else np.arange(6_000)
    lazy = LazyMomentum(w, 0.9, 4)
    for _ in range(4):
        lazy.touch(rows)
        lazy.grad[...] = 1.0
        lazy.step(0.1)
    lazy.flush()
"""

# Beyond the 6,000 rows of velocity and of gradient, a stepping child may
# hold: a partly used 2 MB huge page at the end of each buffer, the
# CHUNK-row temporaries of a gather (1 MB each at 256 rows of 4,000 bytes)
# and the bookkeeping arrays (slot, position and last step per row, 0.6 MB).
VELOCITY_SLACK = 12 << 20


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss is in KB on Linux")
def test_velocity_commits_the_touched_rows_wherever_they_lie():
    """Row-indexed, 6,000 isolated rows of 4,000 bytes span about two 4 KB
    pages each, and 6,000 adjacent ones about one: the peaks would differ
    by about 6,000 pages.  Packed in first-touch order, both velocities
    fill the same 24 MB.  And beyond the resident weight alone, each child
    holds only those rows' velocity and gradient, not the weight's size."""
    spread, first, none = (child_peak_rss_bytes([sys.executable, "-c", VELOCITY_CHILD, mode])
                           for mode in ("spread", "first", "none"))
    assert abs(spread - first) < 6_000 * 4096 / 4, (
        f"{(spread - first) / 1e6:.1f} MB between the spread and the adjacent rows")
    bound = 2 * 6_000 * 4_000 + VELOCITY_SLACK
    for name, peak in (("spread", spread), ("first", first)):
        assert peak - none < bound, (
            f"{name}: {(peak - none) / 1e6:.1f} MB over the weight alone, "
            f"bound {bound / 1e6:.1f} MB")
