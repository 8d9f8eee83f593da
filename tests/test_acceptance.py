"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
The full-corpus error-rate targets are hours-scale and live outside this
suite; see scripts/ag_longrun.py and the README.
"""

import numpy as np
import pytest

from helpers import (
    fd_max_rel_error,
    markov_corpus,
    pair_distance_dataset,
    random_tiny_instance,
    region_vector,
    trigger_bigram_dataset,
)
from swcnn.cli import main
from swcnn.config import RunConfig
from swcnn.evalbench import (
    dense_control_ratio,
    evaluate,
    make_bench_pattern,
    vocab_independence_bench,
)
from swcnn.model import _view_slots, embed_regions, forward, prepare_document, prepare_labeled
from swcnn.serialize import load_model
from swcnn.textpipe import (
    BOW_NGRAM, BOW_WORD, CONCAT, NGRAM123, OOV, WORD, RegionSpec, build_vocab, encode,
    region_count,
)
from swcnn.train import ModelTemplate, holdout_split, train
from swcnn.tv import train_tv


def verdict(name, ok, detail=""):
    print(f"acceptance {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} {detail}"


def test_01_parameter_counts(capsys):
    """`params` reproduces the four reference word-CNN configurations."""
    rows = [
        ([], 300, 45),
        (["tv_specs=bow:5,ngram:5", "tv_dim=100"], 100, 68),
        (["tv_specs=bow:5,bow:9,ngram:5,ngram:9", "tv_dim=100"], 100, 91),
        (["tv_specs=bow:5,bow:9,ngram:5,ngram:9", "tv_dim=300"], 300, 184),
    ]
    results = []
    for extra, _, millions in rows:
        argv = ["params", "--set", "n_classes=5"]
        for setting in extra:
            argv += ["--set", setting]
        assert main(argv) == 0
        printed = int(capsys.readouterr().out.strip().replace(",", ""))
        results.append((printed, millions))
    ok = all(round(printed / 1e6) == millions for printed, millions in results)
    with capsys.disabled():
        verdict("01-parameter-counts", ok, f"{[r[0] for r in results]}")


def test_02_gradient_correctness(capsys):
    """Analytic gradients match central differences on 24 tiny instances."""
    worst = 0.0
    for seed in range(12):
        worst = max(worst, fd_max_rel_error(*random_tiny_instance(seed, with_tvs=False)))
        worst = max(worst, fd_max_rel_error(*random_tiny_instance(seed + 100, with_tvs=True)))
    with capsys.disabled():
        verdict("02-gradient-correctness", worst < 1e-4, f"max rel err {worst:.2e}")


def test_03_sparse_dense_equivalence(capsys):
    """The slot sweep equals a dense oracle on 1,000 random instances.

    The sweep is what ``forward`` and tv training run: ``embed_regions``
    over ``_view_slots``.  The oracle is ``X @ W + b``, with row r of X
    the densified per-region reference vector of region r.
    """
    rng = np.random.default_rng(2024)
    words = [f"w{i}" for i in range(6)]  # a small pool, so bow regions repeat words
    seen_sizes, seen_oov, seen_short, seen_repeat = set(), False, False, False
    worst = 0.0
    for i in range(1000):
        representation = (CONCAT, BOW_WORD, BOW_NGRAM)[i % 3]
        p = int(rng.integers(1, 6))
        d = int(rng.integers(1, 9))
        tokens = [words[int(j)] if rng.random() < 0.85 else "oov"
                  for j in rng.integers(0, len(words), size=int(rng.integers(0, 2 * p + 4)))]
        # a random cap drops some words and n-grams too; "oov" is never kept
        kind = NGRAM123 if representation == BOW_NGRAM else WORD
        vocab = build_vocab([[t for t in tokens if t != "oov"], words], kind,
                            int(rng.integers(1, 40)))
        ids = encode(tokens, vocab)
        spec = RegionSpec(representation, p, len(vocab))
        n_regions = region_count(len(ids), p)
        W = np.ascontiguousarray(rng.normal(size=(d, spec.input_dim)).T)
        b = rng.normal(size=d)
        sweep = embed_regions(W, _view_slots(ids, spec, np.arange(n_regions), len(ids))) + b
        X = np.zeros((n_regions, spec.input_dim))
        for pos in range(n_regions):
            x = region_vector(ids, pos, spec)
            X[pos, x.indices] = x.values
            seen_repeat |= representation != CONCAT and bool((x.values >= 2).any())
        worst = max(worst, float(np.abs(sweep - (X @ W + b)).max()))
        seen_sizes.add(p)
        seen_oov |= bool((ids == OOV).any())
        seen_short |= len(tokens) < p
    assert seen_sizes == {1, 2, 3, 4, 5} and seen_oov and seen_short and seen_repeat
    with capsys.disabled():
        verdict("03-sparse-dense-equivalence", worst < 1e-6, f"max abs diff {worst:.2e}")


def test_04_vocabulary_independence(capsys):
    """Forward time is flat in vocabulary size; a dense control is not."""
    pattern = make_bench_pattern(length=400, distinct=48, seed=0)
    sparse_ratio = vocab_independence_bench(
        500, 3, pattern, 1_000, 100_000, repetitions=100, seed=0
    )
    dense_ratio = dense_control_ratio(
        500, 3, make_bench_pattern(length=6, distinct=4, seed=0),
        1_000, 100_000, repetitions=5, seed=0,
    )
    ok = sparse_ratio <= 1.5 and dense_ratio > 1.5
    with capsys.disabled():
        verdict(
            "04-vocabulary-independence", ok,
            f"sparse {sparse_ratio:.3f} (<=1.5), dense control {dense_ratio:.1f} (>1.5)",
        )


def test_05_desk_scale_learning(capsys):
    """Base model separates a planted trigger bigram at >=98% test accuracy."""
    train_data = trigger_bigram_dataset(2000, doc_len=50, vocab_size=30, seed=1)
    test_data = trigger_bigram_dataset(1000, doc_len=50, vocab_size=30, seed=2)
    vocab = build_vocab([tokens for tokens, _ in train_data], "word", 30_000)
    template = ModelTemplate(base_vocab=vocab, n_classes=2)
    config = RunConfig(region_size=3, representation=CONCAT, embed_dim=500, pooling_k=1,
                       initial_lr=0.1, epochs=30, decay_epoch=24, seed=7)
    train_set, val_set = holdout_split(train_data, 200, config.seed)
    model, metrics = train(template, config, train_set, val_set)
    accuracy = 100.0 - evaluate(model, prepare_labeled(model, test_data)).error_rate_percent
    with capsys.disabled():
        verdict("05-desk-scale-learning", accuracy >= 98.0, f"test accuracy {accuracy:.1f}%")


def test_06_tv_pipeline(capsys):
    """Two-view training: loss decreases, weights freeze, fusion helps."""
    # (a) learnable adjacent-region structure
    corpus = markov_corpus(300, doc_len=30, n_states=40, seed=3)
    vocab = build_vocab(corpus, "word", 30_000)
    _, losses = train_tv(
        corpus, RegionSpec(BOW_WORD, 5, len(vocab)), vocab, vocab,
        RunConfig(seed=5, tv_dim=30, tv_epochs=5, tv_lr=0.05, tv_negatives=20),
    )
    loss_drops = losses[4] < losses[0]

    # (b) a signal spanning 5 tokens that 3-token base regions cannot see
    train_data = pair_distance_dataset(1600, seed=11)
    test_data = pair_distance_dataset(600, seed=12)
    task_vocab = build_vocab([tokens for tokens, _ in train_data], "word", 30_000)
    tv_emb, _ = train_tv(
        [tokens for tokens, _ in train_data],
        RegionSpec(BOW_WORD, 5, len(task_vocab)), task_vocab, task_vocab,
        RunConfig(seed=5, tv_dim=50, tv_epochs=4, tv_lr=0.05, tv_negatives=20),
    )
    tv_w_before = tv_emb.W.copy()
    tv_b_before = tv_emb.b.copy()
    config = RunConfig(region_size=3, embed_dim=100, pooling_k=1, initial_lr=0.1, epochs=15,
                       decay_epoch=12, seed=7)
    train_set, val_set = holdout_split(train_data, 160, config.seed)
    base_template = ModelTemplate(base_vocab=task_vocab, n_classes=2)
    base_model, _ = train(base_template, config, train_set, val_set)
    fused_template = ModelTemplate(base_vocab=task_vocab, n_classes=2, tv_embeddings=(tv_emb,))
    fused_model, _ = train(fused_template, config, train_set, val_set)
    frozen = np.array_equal(fused_model.tvs[0].embedding.W, tv_w_before) and np.array_equal(
        fused_model.tvs[0].embedding.b, tv_b_before
    )
    base_err = evaluate(base_model, prepare_labeled(base_model, test_data)).error_rate_percent
    fused_err = evaluate(fused_model, prepare_labeled(fused_model, test_data)).error_rate_percent
    ok = loss_drops and frozen and fused_err <= base_err
    with capsys.disabled():
        verdict(
            "06-tv-pipeline", ok,
            f"loss {losses[0]:.3f}->{losses[4]:.3f}, frozen={frozen}, "
            f"error base {base_err:.1f}% vs fused {fused_err:.1f}%",
        )


def test_07_determinism_and_serialization(capsys, tmp_path):
    """Same seed, same bits; containers reproduce logits exactly."""
    data = trigger_bigram_dataset(150, doc_len=15, vocab_size=12, seed=4)
    vocab = build_vocab([tokens for tokens, _ in data], "word", 30_000)
    template = ModelTemplate(base_vocab=vocab, n_classes=2)
    config = RunConfig(region_size=3, embed_dim=32, pooling_k=2, initial_lr=0.1, epochs=3,
                       decay_epoch=2, seed=13)
    one, _ = train(template, config, data)
    two, _ = train(template, config, data)
    bitwise = all(
        np.array_equal(a, b) for a, b in zip(one.trainable_params(), two.trainable_params())
    )
    path = tmp_path / "model.swcn"
    from swcnn.serialize import save_model

    save_model(one, path)
    loaded = load_model(path)
    rng = np.random.default_rng(0)
    logits_match = True
    for _ in range(100):
        tokens = [f"w{int(rng.integers(14))}" for _ in range(int(rng.integers(0, 20)))]
        doc = prepare_document(one.views, tokens)
        before, _ = forward(one, doc)
        after, _ = forward(loaded, doc)
        logits_match = logits_match and np.array_equal(before, after)
    ok = bitwise and logits_match
    with capsys.disabled():
        verdict(
            "07-determinism-serialization", ok,
            f"bitwise={bitwise}, logits_match={logits_match}",
        )


@pytest.mark.skip(
    reason="hours-scale full-corpus run (120K documents); see scripts/ag_longrun.py "
    "and the README for the documented target (test error <= 8.0%)"
)
def test_08_full_scale_error_rates():
    pass
