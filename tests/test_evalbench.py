import numpy as np
import pytest

from helpers import word_vocab
from swcnn.errors import DataError
from swcnn.evalbench import (
    dense_control_ratio,
    evaluate,
    make_bench_pattern,
    time_inference,
    vocab_independence_bench,
)
from swcnn.model import prepare_labeled
from swcnn.train import ModelTemplate, TrainConfig, init_model


def constant_model(n_classes, favored, n_words=10):
    """Zero features: always predicts `favored`."""
    template = ModelTemplate(base_vocab=word_vocab(n_words), n_classes=n_classes,
                             region_size=2, embed_dim=4, pooling_k=1)
    model = init_model(template, TrainConfig(epochs=1, decay_epoch=1), np.random.default_rng(0))
    model.base.W[...] = 0.0
    model.base.b[...] = 0.0
    model.top_b[...] = 0.0
    model.top_b[favored] = 1.0
    return model


class TestEvaluate:
    def test_all_correct(self):
        model = constant_model(3, favored=1)
        data = [(["w0", "w1"], 1), (["w2"], 1)]
        report = evaluate(model, prepare_labeled(model, data))
        assert report.n_errors == 0
        assert report.error_rate_percent == 0.0

    def test_one_wrong_of_four(self):
        model = constant_model(2, favored=0)
        data = [(["w0"], 0)] * 3 + [(["w1"], 1)]
        report = evaluate(model, prepare_labeled(model, data))
        assert report.n_docs == 4
        assert report.n_errors == 1
        assert report.error_rate_percent == pytest.approx(25.0)

    def test_constant_predictor_on_balanced_classes(self):
        for c in (2, 4):
            model = constant_model(c, favored=0)
            data = [([f"w{i % 5}"], label) for label in range(c) for i in range(6)]
            report = evaluate(model, prepare_labeled(model, data))
            assert report.error_rate_percent == pytest.approx(100.0 * (c - 1) / c)

    def test_confusion_rows_sum_to_class_counts(self):
        model = constant_model(3, favored=2)
        data = [(["w1"], 0)] * 4 + [(["w2"], 1)] * 2 + [(["w3"], 2)] * 3
        report = evaluate(model, prepare_labeled(model, data))
        assert report.confusion.sum() == report.n_docs
        assert list(report.confusion.sum(axis=1)) == [4, 2, 3]
        assert report.confusion[:, 2].sum() == report.n_docs

    def test_empty_set_rejected(self):
        with pytest.raises(DataError):
            evaluate(constant_model(2, 0), [])

    def test_label_out_of_range_rejected(self):
        model = constant_model(2, 0)
        with pytest.raises(DataError, match="label 5"):
            evaluate(model, prepare_labeled(model, [(["w0"], 5)]))


class TestTimeInference:
    def make_model_and_docs(self, n_docs, doc_len=120):
        rng = np.random.default_rng(0)
        template = ModelTemplate(base_vocab=word_vocab(40), n_classes=2,
                                 region_size=3, embed_dim=64, pooling_k=1)
        model = init_model(template, TrainConfig(epochs=1, decay_epoch=1), rng)
        samples = [([f"w{int(rng.integers(40))}" for _ in range(doc_len)], 0)
                   for _ in range(n_docs)]
        return model, list(prepare_labeled(model, samples))

    def test_single_document(self):
        model, docs = self.make_model_and_docs(1)
        report = time_inference(model, docs, repetitions=1)
        assert report.n_docs == 1
        assert report.total_seconds > 0
        assert report.docs_per_second > 0

    def test_total_time_scales_with_document_count(self):
        # ~25 ms and ~50 ms per pass, median of 9: long enough that a
        # scheduler hiccup on a busy machine does not decide the ratio
        model, docs = self.make_model_and_docs(400)
        half = time_inference(model, docs[:200], repetitions=9)
        full = time_inference(model, docs, repetitions=9)
        ratio = full.total_seconds / half.total_seconds
        assert 1.6 <= ratio <= 2.4

    def test_empty_rejected(self):
        model, _ = self.make_model_and_docs(1)
        with pytest.raises(DataError):
            time_inference(model, [], repetitions=1)


class TestVocabIndependence:
    def test_equal_sizes_give_unit_ratio(self):
        pattern = make_bench_pattern(length=120, distinct=16, seed=0)
        ratio = vocab_independence_bench(32, 3, pattern, 2_000, 2_000, repetitions=30)
        assert 0.5 <= ratio <= 1.5

    def test_sparse_flat_while_dense_control_grows(self):
        pattern = make_bench_pattern(length=160, distinct=16, seed=1)
        sparse = vocab_independence_bench(64, 3, pattern, 500, 20_000, repetitions=40)
        dense = dense_control_ratio(
            64, 3, make_bench_pattern(length=6, distinct=4, seed=1), 500, 20_000,
            repetitions=5)
        assert sparse <= 1.5
        assert dense > 1.5

    def test_pattern_is_deterministic(self):
        assert make_bench_pattern(seed=3) == make_bench_pattern(seed=3)
