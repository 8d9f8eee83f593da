import numpy as np
import pytest

from helpers import markov_corpus, region_vector, rel_err, sparse_affine, word_vocab
from swcnn.errors import DataError
from swcnn.textpipe import BOW_NGRAM, BOW_WORD, OOV, RegionSpec, build_vocab, encode
from swcnn.train import sgd_momentum_step
from swcnn.tv import (
    TvTrainConfig,
    make_tv_examples,
    sample_negatives,
    square_loss,
    train_tv,
)

VOCAB10 = word_vocab(10)


def enc(tokens):
    return encode(tokens, VOCAB10)


class TestMakeTvExamples:
    def test_adjacent_union_mid_document(self):
        tokens = [f"w{i}" for i in range(10)]
        doc = enc(tokens)
        spec = RegionSpec(BOW_WORD, 5, 10)
        examples = make_tv_examples(doc, spec)
        # region positions 0..5; pos=2 covers tokens 2..6
        ex = examples[2]
        assert list(ex.target) == [0, 1, 7, 8, 9]
        assert ex.pos == 2
        assert list(region_vector(doc, ex.pos, spec).indices) == [2, 3, 4, 5, 6]

    def test_document_of_exactly_region_size_yields_nothing(self):
        doc = enc(["w0", "w1", "w2"])
        assert make_tv_examples(doc, RegionSpec(BOW_WORD, 3, 10)) == []

    def test_unit_region(self):
        doc = enc(["w0", "w1", "w2", "w3"])
        examples = make_tv_examples(doc, RegionSpec(BOW_WORD, 1, 10))
        ex = examples[1]
        assert list(ex.target) == [0, 2]

    def test_oov_only_neighborhood_skipped(self):
        doc = enc(["zz", "w1", "yy"])
        examples = make_tv_examples(doc, RegionSpec(BOW_WORD, 1, 10))
        # only the two OOV positions have an in-vocab neighbor
        assert len(examples) == 2
        assert all(list(ex.target) == [1] for ex in examples)

    def test_targets_exclude_oov_and_stay_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            tokens = [f"w{int(rng.integers(14))}" for _ in range(int(rng.integers(1, 15)))]
            doc = enc(tokens)
            for ex in make_tv_examples(doc, RegionSpec(BOW_WORD, 3, 10)):
                assert len(ex.target)
                assert ex.target.min() >= 0 and ex.target.max() < 10
                assert OOV not in ex.target


class TestSampleNegatives:
    def test_disjoint_in_range_exact_count(self):
        rng = np.random.default_rng(4)
        target = np.array([2, 5, 9])
        for _ in range(50):
            negs = sample_negatives(target, 40, 7, rng)
            assert len(negs) == 7
            assert len(np.unique(negs)) == 7
            assert not set(negs.tolist()) & set(target.tolist())
            assert negs.min() >= 0 and negs.max() < 40

    def test_caps_at_complement_size(self):
        rng = np.random.default_rng(4)
        negs = sample_negatives(np.array([0, 1]), 4, 50, rng)
        assert sorted(negs.tolist()) == [2, 3]

    def test_deterministic(self):
        a = sample_negatives(np.array([1]), 100, 10, np.random.default_rng(9))
        b = sample_negatives(np.array([1]), 100, 10, np.random.default_rng(9))
        assert np.array_equal(a, b)


class TestWeightedSquareLoss:
    def test_direct_evaluation(self):
        loss, grad = square_loss(np.array([0.5, 3.0]), np.array([1.0, 0.0]))
        assert loss == pytest.approx(9.25)
        assert grad == pytest.approx([-1.0, 6.0])

    def test_exact_fit(self):
        pred = np.array([1.0, 0.0, 1.0])
        loss, grad = square_loss(pred, pred.copy())
        assert loss == 0.0
        assert not grad.any()

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        step = 1e-5
        for _ in range(25):
            n = int(rng.integers(1, 9))
            pred = rng.normal(size=n)
            target = (rng.random(n) < 0.5).astype(float)
            _, grad = square_loss(pred, target)
            for i in range(n):
                bump = pred.copy()
                bump[i] += step
                up, _ = square_loss(bump, target)
                bump[i] -= 2 * step
                down, _ = square_loss(bump, target)
                numeric = (up - down) / (2 * step)
                assert abs(numeric - grad[i]) <= 1e-6 * max(1.0, abs(numeric))


class TestTrainTv:
    corpus = markov_corpus(60, doc_len=12, n_states=15, seed=3)

    def vocab(self):
        from swcnn.textpipe import build_vocab

        return build_vocab(self.corpus, "word", 1000)

    def test_zero_lr_returns_gaussian_init(self):
        vocab = self.vocab()
        spec = RegionSpec(BOW_WORD, 3, len(vocab))
        config = TvTrainConfig(seed=5, epochs=2, lr=0.0, negatives=5)
        emb, _ = train_tv(self.corpus, spec, vocab, vocab, 4, config)
        rng = np.random.default_rng(5)
        expect_W = rng.normal(0.0, config.init_std, size=(4, spec.input_dim))
        expect_b = rng.normal(0.0, config.init_std, size=4)
        assert np.array_equal(emb.W, expect_W)
        assert np.array_equal(emb.b, expect_b)

    def test_fixed_seed_reproduces_bitwise(self):
        vocab = self.vocab()
        spec = RegionSpec(BOW_WORD, 3, len(vocab))
        config = TvTrainConfig(seed=7, epochs=2, lr=0.05, negatives=5)
        one, losses_one = train_tv(self.corpus, spec, vocab, vocab, 4, config)
        two, losses_two = train_tv(self.corpus, spec, vocab, vocab, 4, config)
        assert np.array_equal(one.W, two.W)
        assert np.array_equal(one.b, two.b)
        assert losses_one == losses_two

    def test_loss_decreases_on_successor_structure(self):
        vocab = self.vocab()
        spec = RegionSpec(BOW_WORD, 3, len(vocab))
        config = TvTrainConfig(seed=1, epochs=5, lr=0.05, negatives=8)
        _, losses = train_tv(self.corpus, spec, vocab, vocab, 8, config)
        assert losses[4] < losses[0]

    def test_no_examples_raises(self):
        vocab = self.vocab()
        spec = RegionSpec(BOW_WORD, 12, len(vocab))
        with pytest.raises(DataError, match="no tv examples"):
            train_tv([self.corpus[0]], spec, vocab, vocab, 4, TvTrainConfig(epochs=1))

    def test_empty_corpus_raises(self):
        vocab = self.vocab()
        with pytest.raises(DataError):
            train_tv([], RegionSpec(BOW_WORD, 3, len(vocab)), vocab, vocab, 4, TvTrainConfig())


def per_region_train_tv(corpus, spec, tv_vocab, word_vocab, d_tv, config):
    """Reference for train_tv: one sparse region vector and one affine map
    per example, the same draw order, the same batches."""
    rng = np.random.default_rng(config.seed)
    n_words = len(word_vocab)
    W = np.asfortranarray(rng.normal(0.0, config.init_std, size=(d_tv, spec.input_dim)))
    b = rng.normal(0.0, config.init_std, size=d_tv)
    head_W = rng.normal(0.0, config.init_std, size=(n_words, d_tv))
    head_b = rng.normal(0.0, config.init_std, size=n_words)
    examples = []
    for tokens in corpus:
        input_doc = encode(tokens, tv_vocab)
        target_doc = encode(tokens, word_vocab)
        for ex in make_tv_examples(target_doc, spec):
            negatives = sample_negatives(ex.target, n_words, config.negatives, rng)
            x = region_vector(input_doc, ex.pos, spec)
            examples.append((x, np.concatenate([ex.target, negatives]), len(ex.target)))
    params = [W, b, head_W, head_b]
    velocity = [np.zeros_like(p) for p in params]
    grads = [np.zeros_like(p) for p in params]
    dW, db, dhead_W, dhead_b = grads
    losses = []
    for _ in range(config.epochs):
        order = rng.permutation(len(examples))
        loss_sum = 0.0
        for first in range(0, len(examples), config.batch_size):
            batch = order[first : first + config.batch_size]
            for g in grads:
                g[...] = 0.0
            for idx in batch:
                x, out_idx, n_target = examples[idx]
                z = sparse_affine(W, b, x)
                h = np.maximum(z, 0.0)
                target = (np.arange(len(out_idx)) < n_target).astype(float)
                pred = head_W[out_idx] @ h + head_b[out_idx]
                loss, dpred = square_loss(pred, target)
                loss_sum += loss
                dhead_W[out_idx] += np.outer(dpred, h)
                dhead_b[out_idx] += dpred
                dz = np.where(z > 0.0, head_W[out_idx].T @ dpred, 0.0)
                dW[:, x.indices] += np.outer(dz, x.values)
                db += dz
            for g in grads:
                g *= 1.0 / len(batch)
            sgd_momentum_step(params, grads, velocity, config.lr, config.momentum)
        losses.append(loss_sum / len(examples))
    return W, b, losses, len(examples)


class TestSharedSweepMatchesPerRegion:
    # repeated words give bow counts of 2; "zz" and "yy" are out of
    # vocabulary; one document is empty and one shorter than any region
    corpus = [tokens + ["zz"] * (i % 3) for i, tokens in
              enumerate(markov_corpus(24, doc_len=11, n_states=9, seed=8))]
    corpus += [[], ["w1", "yy"], ["w2", "w2", "w2", "w5", "yy", "w2", "w2"]]

    @pytest.mark.parametrize("representation,p", [(BOW_WORD, 1), (BOW_WORD, 5), (BOW_NGRAM, 3)])
    def test_weights_and_losses_agree(self, representation, p):
        word_vocab_ = build_vocab(self.corpus[:20], "word", 8)
        tv_vocab = word_vocab_ if representation == BOW_WORD else build_vocab(
            self.corpus[:20], "ngram123", 40)
        spec = RegionSpec(representation, p, len(tv_vocab))
        config = TvTrainConfig(seed=11, epochs=4, lr=0.2, negatives=3, batch_size=7,
                               init_std=0.3)
        W_ref, b_ref, losses_ref, n_examples = per_region_train_tv(
            self.corpus, spec, tv_vocab, word_vocab_, 5, config)
        assert n_examples % config.batch_size != 0
        emb, losses = train_tv(self.corpus, spec, tv_vocab, word_vocab_, 5, config)
        assert rel_err(emb.W, W_ref) <= 1e-12
        assert rel_err(emb.b, b_ref) <= 1e-12
        assert rel_err(losses, losses_ref) <= 1e-12
        again, losses_again = train_tv(self.corpus, spec, tv_vocab, word_vocab_, 5, config)
        assert np.array_equal(again.W, emb.W) and np.array_equal(again.b, emb.b)
        assert losses_again == losses


@pytest.mark.parametrize("momentum", [0.0, 0.9, 1.0])
def test_word_occurring_once_matches_per_region(momentum):
    # "once" is a target of a few examples of one document: its head row
    # is touched in at most a few steps and otherwise caught up by flushes
    corpus = markov_corpus(20, doc_len=11, n_states=9, seed=4)
    corpus.append(["s1", "s2", "s3", "once", "s4", "s5", "s6"])
    vocab = build_vocab(corpus, "word", 1000)
    assert dict(vocab.entries)["once"] == 1
    spec = RegionSpec(BOW_WORD, 2, len(vocab))
    config = TvTrainConfig(seed=3, epochs=4, lr=0.2, negatives=3, batch_size=9,
                           init_std=0.3, momentum=momentum)
    W_ref, b_ref, losses_ref, _ = per_region_train_tv(corpus, spec, vocab, vocab, 5, config)
    emb, losses = train_tv(corpus, spec, vocab, vocab, 5, config)
    assert rel_err(emb.W, W_ref) <= 1e-12
    assert rel_err(emb.b, b_ref) <= 1e-12
    assert rel_err(losses, losses_ref) <= 1e-12
