import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    _region_vector_unchecked, fd_max_rel_error, random_tiny_instance, rectify_then_pool,
    region_vector, scatter_reference, slots_reference, sparse_affine, word_vocab, zero_grads,
)
from swcnn.config import RunConfig
from swcnn.errors import NonFiniteWeights
from swcnn.kernels import softmax_xent
from swcnn.model import (
    ModelGrads,
    PreparedView,
    RegionEmbedding,
    ShallowModel,
    TvEmbedding,
    _scatter_embedding_grad,
    _view_slots,
    backward,
    count_parameters,
    embed_regions,
    forward,
    max_pool,
    pooling_bounds,
    predict,
    prepare_document,
    prepare_labeled,
)
from swcnn.textpipe import (
    BOW_NGRAM, BOW_WORD, CONCAT, RegionSpec, Vocabulary, build_vocab, encode, region_count,
)
from swcnn.train import slot_columns
from swcnn.train import ModelTemplate, init_model


def small_model(seed=0, n_words=12, region_size=3, dim=6, n_classes=3, pooling_k=2,
                tvs=(), dropout=0.0):
    rng = np.random.default_rng(seed)
    template = ModelTemplate(base_vocab=word_vocab(n_words), n_classes=n_classes,
                             tv_embeddings=tuple(tvs))
    config = RunConfig(region_size=region_size, embed_dim=dim, pooling_k=pooling_k,
                       init_std=0.5, dropout=dropout)
    return template, init_model(template, config, rng)


def naive_logits(model, tokens):
    """Independent composition: per-region sparse ops, explicit pooling.

    Two-view regions at positions past their own standalone range clip to
    the document, mirroring the sweep (base positions drive the sweep).
    """
    base = model.base
    enc = encode(tokens, base.vocab)
    tv_encs = [encode(tokens, tv.embedding.vocab) for tv in model.tvs]
    n_regions = region_count(len(enc), base.spec.region_size)
    rows = []
    for pos in range(n_regions):
        z = sparse_affine(base.W.T, base.b, region_vector(enc, pos, base.spec))
        for tv, tv_enc in zip(model.tvs, tv_encs):
            x_tv = _region_vector_unchecked(tv_enc, pos, tv.embedding.spec)
            hidden = np.maximum(sparse_affine(tv.embedding.W.T, tv.embedding.b, x_tv), 0.0)
            z = z + tv.fusion @ hidden
        rows.append(np.maximum(z, 0.0))
    H = np.stack(rows)
    pooled = []
    for lo, hi in pooling_bounds(n_regions, model.pooling_k):
        pooled.append(H[lo:hi].max(axis=0) if hi > lo else np.zeros(base.dim))
    return model.top_W @ np.concatenate(pooled) + model.top_b


@pytest.mark.parametrize("dim", [1, RegionEmbedding.DRAW_ROWS, 2 * RegionEmbedding.DRAW_ROWS + 5])
def test_initial_draws_what_one_whole_draw_gives(dim):
    """The block-wise draw into the row table is bitwise the whole
    (dim, n) draw then its transposed copy, and leaves the generator where it did."""
    spec = RegionSpec(CONCAT, 3, 12)
    got_rng, want_rng = np.random.default_rng(9), np.random.default_rng(9)
    emb = RegionEmbedding.initial(spec, word_vocab(12), dim, 0.3, got_rng)
    W = np.ascontiguousarray(want_rng.normal(0.0, 0.3, size=(dim, spec.input_dim)).T)
    b = want_rng.normal(0.0, 0.3, size=dim)
    assert emb.W.flags.c_contiguous
    assert emb.W.tobytes(order="A") == W.tobytes(order="A")
    assert emb.b.tobytes() == b.tobytes()
    assert got_rng.random() == want_rng.random()


class TestForward:
    def test_zero_features_give_top_bias(self):
        template, model = small_model(pooling_k=1, n_classes=2)
        model.base.W[...] = 0.0
        model.base.b[...] = 0.0
        model.top_b[...] = [1.0, 0.0]
        for tokens in (["w0", "w1", "w2", "w3"], ["w5"], []):
            doc = prepare_document(model.views, tokens)
            logits, _ = forward(model, doc)
            assert np.allclose(logits, [1.0, 0.0])

    def test_matches_naive_composition_base_only(self):
        for seed in range(8):
            template, model = small_model(seed=seed, pooling_k=1 + seed % 3)
            rng = np.random.default_rng(seed + 50)
            tokens = [f"w{int(rng.integers(14))}" for _ in range(int(rng.integers(1, 12)))]
            doc = prepare_document(model.views, tokens)
            logits, _ = forward(model, doc)
            assert np.allclose(logits, naive_logits(model, tokens), atol=1e-12)

    def test_matches_naive_composition_with_tvs(self):
        vocab = word_vocab(15)
        rng = np.random.default_rng(9)
        tvs = []
        for rep, p_tv, d_tv in ((BOW_WORD, 4, 3), (CONCAT, 2, 5)):
            spec = RegionSpec(rep, p_tv, 15)
            tvs.append(RegionEmbedding(
                spec=spec, vocab=vocab,
                W=np.ascontiguousarray(rng.normal(0, 0.5, (d_tv, spec.input_dim)).T),
                b=rng.normal(0, 0.5, d_tv)))
        template, model = small_model(seed=3, n_words=15, pooling_k=2, tvs=tvs)
        tokens = [f"w{int(rng.integers(17))}" for _ in range(9)]
        doc = prepare_document(model.views, tokens)
        logits, _ = forward(model, doc)
        assert np.allclose(logits, naive_logits(model, tokens), atol=1e-12)

    def test_ngram_view_matches_naive(self):
        from swcnn.textpipe import build_vocab

        rng = np.random.default_rng(21)
        corpus = [[f"w{int(rng.integers(6))}" for _ in range(10)] for _ in range(20)]
        gram_vocab = build_vocab(corpus, "ngram123", 60)
        spec = RegionSpec(BOW_NGRAM, 3, len(gram_vocab))
        tv = RegionEmbedding(
            spec=spec, vocab=gram_vocab,
            W=np.ascontiguousarray(rng.normal(0, 0.5, (4, spec.input_dim)).T),
            b=rng.normal(0, 0.5, 4))
        vocab = word_vocab(6)
        template = ModelTemplate(base_vocab=vocab, n_classes=2, tv_embeddings=(tv,))
        config = RunConfig(region_size=2, embed_dim=5, pooling_k=1, init_std=0.5, dropout=0.0)
        model = init_model(template, config, np.random.default_rng(4))
        doc = prepare_document(model.views, corpus[0])
        logits, _ = forward(model, doc)
        assert np.allclose(logits, naive_logits(model, corpus[0]), atol=1e-12)

    def test_train_mode_deterministic_given_seed(self):
        template, model = small_model(dropout=0.5)
        doc = prepare_document(model.views, ["w0", "w1", "w2", "w3", "w4"])
        a, _ = forward(model, doc, train=True, rng=np.random.default_rng(123))
        b, _ = forward(model, doc, train=True, rng=np.random.default_rng(123))
        c, _ = forward(model, doc, train=True, rng=np.random.default_rng(124))
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_inference_applies_no_dropout(self):
        template, model = small_model(dropout=0.5)
        doc = prepare_document(model.views, ["w0", "w1", "w2", "w3"])
        one, _ = forward(model, doc)
        two, _ = forward(model, doc)
        assert np.array_equal(one, two)

    def test_view_count_mismatch(self):
        template, model = small_model()
        _, other = small_model(tvs=(RegionEmbedding(
            spec=RegionSpec(BOW_WORD, 2, 12), vocab=word_vocab(12),
            W=np.zeros((12, 2)), b=np.zeros(2)),))
        doc = prepare_document(other.views, ["w0"])
        with pytest.raises(ValueError):
            forward(model, doc)


class TestViewSlots:
    """Regions at arbitrary offsets into a concatenated corpus."""

    @pytest.mark.parametrize("representation", [CONCAT, BOW_WORD, BOW_NGRAM])
    def test_rows_match_region_vectors(self, representation):
        from swcnn.textpipe import build_vocab

        rng = np.random.default_rng(5)
        corpus = [[f"w{int(rng.integers(9))}" for _ in range(int(rng.integers(0, 9)))]
                  for _ in range(12)]
        vocab = build_vocab(corpus, "ngram123" if representation == BOW_NGRAM else "word", 7)
        spec = RegionSpec(representation, 3, len(vocab))
        docs = [encode(tokens, vocab) for tokens in corpus]
        regions, pieces, offset = [], [], 0
        for doc in docs:
            regions += [(doc, offset, pos) for pos in range(region_count(len(doc), 3))]
            pieces.append(doc)
            offset += len(doc)
        picked = [regions[i] for i in rng.permutation(len(regions))]
        starts = np.array([base + pos for _, base, pos in picked])
        ends = np.array([base + len(doc) for doc, base, _ in picked])
        view = _view_slots(np.concatenate(pieces), spec, starts, ends)
        got = np.zeros((len(picked), spec.input_dim))
        for rows, cols in view.slots:
            np.add.at(got, (rows, cols), 1.0)
        for row, (doc, _, pos) in enumerate(picked):
            x = region_vector(doc, pos, spec)
            want = np.zeros(spec.input_dim)
            want[x.indices] = x.values
            assert np.array_equal(got[row], want)


class TestSlotTable:
    """``PreparedView.slots``, read off the table, is the slot lists built before it."""

    @staticmethod
    def case(representation, layout, seed):
        """(ids, spec, starts, ends): one document's regions, a tv-style
        batch of regions at shuffled offsets into a concatenated corpus
        and clipped to their documents, or an empty document."""
        rng = np.random.default_rng(seed)
        corpus = [[f"w{int(rng.integers(9))}" for _ in range(int(rng.integers(0, 12)))]
                  for _ in range(8)]
        # a cap below the 9 words (and their n-grams) leaves OOV ids
        vocab = build_vocab(corpus, "ngram123" if representation == BOW_NGRAM else "word", 6)
        p = 3 if layout == "document" else 5
        spec = RegionSpec(representation, p, len(vocab))
        if layout == "empty":
            return encode([], vocab), spec, np.arange(1), 0
        if layout == "document":
            ids = encode([t for doc in corpus for t in doc], vocab)
            return ids, spec, np.arange(region_count(len(ids), p)), len(ids)
        docs = [encode(tokens, vocab) for tokens in corpus]
        starts, ends, offset = [], [], 0
        for doc in docs:
            # a tv example at every token, its region clipped to the document
            starts += [offset + pos for pos in range(len(doc))]
            ends += [offset + len(doc)] * len(doc)
            offset += len(doc)
        picked = rng.permutation(len(starts))
        return np.concatenate(docs), spec, np.array(starts)[picked], np.array(ends)[picked]

    @pytest.mark.parametrize("layout", ["document", "tv-batch", "empty"])
    @pytest.mark.parametrize("representation", [CONCAT, BOW_WORD, BOW_NGRAM])
    def test_slots_equal_the_reference_lists(self, representation, layout):
        for seed in range(10):
            ids, spec, starts, ends = self.case(representation, layout, seed)
            view = _view_slots(ids, spec, starts, ends)
            assert view.table.dtype == np.int32 and view.table.shape[1] == len(starts)
            want = slots_reference(ids, spec, starts, ends)
            assert len(view.slots) == len(want)
            for (rows, cols), (want_rows, want_cols) in zip(view.slots, want):
                assert np.array_equal(rows, want_rows) and np.array_equal(cols, want_cols)

    def test_concat_holes_are_oov_ids_and_the_document_end(self):
        vocab = word_vocab(4)
        view = _view_slots(encode(["w1", "zz", "w2"], vocab), RegionSpec(CONCAT, 2, 4),
                           np.arange(3), 3)
        assert view.table.tolist() == [[1, -1, 2], [-1, 6, -1]]

    @given(st.integers(0, 2**32 - 1), st.sampled_from([CONCAT, BOW_WORD, BOW_NGRAM]),
           st.sampled_from(["document", "tv-batch"]))
    @settings(max_examples=40, deadline=None)
    def test_sweep_holds_no_negative_zero(self, seed, representation, layout):
        # a W of -0.0 sums to +0.0: Z starts at +0.0 and +0.0 + -0.0 is +0.0,
        # so forward's Z never holds the -0.0 on which max and argmax may differ
        ids, spec, starts, ends = self.case(representation, layout, seed)
        view = _view_slots(ids, spec, starts, ends)
        Z = embed_regions(np.full((spec.input_dim, 3), -0.0), view)
        assert not np.signbit(Z).any()


def test_prepared_bytes_per_token_are_bounded():
    import tracemalloc

    # 200-token documents, a concat p=3 base view and a bow-ngram123 p=5 tv
    # view, at a vocabulary that covers nearly every word, as on long documents
    rng = np.random.default_rng(11)
    ranks = 1.0 / np.arange(1, 301)
    corpus = [[f"w{int(i)}" for i in rng.choice(300, size=200, p=ranks / ranks.sum())]
              for _ in range(30)]
    words = build_vocab(corpus, "word", 280)
    grams = build_vocab(corpus, "ngram123", 5_000)
    tv = RegionEmbedding.initial(RegionSpec(BOW_NGRAM, 5, len(grams)), grams, 4, 0.1,
                                 np.random.default_rng(0))
    template = ModelTemplate(base_vocab=words, n_classes=2, tv_embeddings=(tv,))
    model = init_model(template, RunConfig(region_size=3, embed_dim=4, pooling_k=10),
                       np.random.default_rng(1))
    samples = [(tokens, 0) for tokens in corpus]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        docs = list(prepare_labeled(model, samples))
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(docs) == len(corpus)
    per_token = held / sum(map(len, corpus))
    assert per_token <= 100, f"{per_token:.0f} bytes per token"


class TestPooling:
    def test_single_unit_max(self):
        pooled, rows = max_pool(np.array([[1.0, 3.0], [2.0, 0.0], [0.0, 5.0]]), 1)
        assert np.array_equal(pooled, [[2.0, 5.0]])
        assert np.array_equal(rows, [[1, 2]])

    def test_unit_boundaries(self):
        assert pooling_bounds(5, 2) == [(0, 2), (2, 5)]

    def test_more_units_than_regions_pads_with_zeros(self):
        pooled, rows = max_pool(np.ones((2, 3)), 4)
        # floor boundaries leave two of the four units empty
        assert pooled.shape == (4, 3)
        assert (rows == -1).any()
        assert np.array_equal(pooled[rows[:, 0] == -1], np.zeros_like(pooled[rows[:, 0] == -1]))

    def test_ties_route_to_earliest(self):
        pooled, rows = max_pool(np.array([[2.0], [2.0]]), 1)
        assert rows[0, 0] == 0

    @given(st.integers(min_value=1, max_value=9), st.integers(min_value=1, max_value=4),
           st.floats(min_value=0.1, max_value=7.0))
    @settings(max_examples=40)
    def test_positive_scaling_commutes(self, n_regions, k, scale):
        rng = np.random.default_rng(n_regions * 10 + k)
        H = np.abs(rng.normal(size=(n_regions, 3)))
        pooled, _ = max_pool(H, k)
        scaled, _ = max_pool(scale * H, k)
        assert np.allclose(scale * pooled, scaled)

    # -0.0 is left out: forward's Z never holds it (see
    # TestSlotTable.test_sweep_holds_no_negative_zero), and on a tie of
    # -0.0 and +0.0 a plain maximum may give either zero
    POOL_VALUES = (st.sampled_from([-np.inf, np.inf, np.nan, -1.5, 0.0, 2.0])
                   | st.floats(-4.0, 4.0).map(lambda x: x + 0.0))

    @given(st.data(), st.integers(1, 9), st.integers(1, 4), st.integers(1, 12), st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_inference_maxima_are_the_pooled_values(self, data, n_regions, d, k, negative):
        values = data.draw(st.lists(self.POOL_VALUES, min_size=n_regions * d,
                                    max_size=n_regions * d))
        H = np.array(values).reshape(n_regions, d)
        if negative:
            H[:, 0] = -np.abs(H[:, 0]) - 1.0  # an all-negative column
        want, _ = max_pool(H, k)
        got, rows = max_pool(H, k, rows=False)
        assert rows is None
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    @pytest.mark.parametrize("with_tvs", [False, True])
    def test_inference_logits_equal_train_mode_without_dropout(self, with_tvs):
        for seed in range(40):
            model, doc = random_tiny_instance(seed, with_tvs)
            logits, cache = forward(model, doc)
            train_logits, train_cache = forward(model, doc, train=True)
            assert cache.pool_rows is None and train_cache.pool_rows is not None
            assert logits.tobytes() == train_logits.tobytes()
        _, model = small_model(pooling_k=10)
        for length in (0, 4, 9, 40, 131):
            doc = prepare_document(model.views, [f"w{i * 7 % 13}" for i in range(length)])
            assert forward(model, doc)[0].tobytes() == forward(model, doc, train=True)[0].tobytes()

    def test_output_dimension(self):
        template, model = small_model(dim=6, pooling_k=3)
        for length in (1, 2, 5, 11):
            doc = prepare_document(model.views, ["w0"] * length)
            _, cache = forward(model, doc)
            assert cache.top_input.shape == (6 * 3,)


class TestBackward:
    def test_zero_grad_logits(self):
        template, model = small_model()
        doc = prepare_document(model.views, ["w0", "w1", "w2"])
        _, cache = forward(model, doc, train=True, rng=None)
        grads = backward(model, cache, np.zeros(model.n_classes), zero_grads(model))
        assert not any(g.any() for g in grads.as_list())

    def test_single_region_collapses_to_one_layer_net(self):
        template, model = small_model(region_size=3, pooling_k=1)
        tokens = ["w0", "w1", "w2"]
        doc = prepare_document(model.views, tokens, 1)
        logits, cache = forward(model, doc, train=True, rng=None)
        enc = encode(tokens, model.base.vocab)
        x = region_vector(enc, 0, model.base.spec)
        hidden = np.maximum(sparse_affine(model.base.W.T, model.base.b, x), 0.0)
        assert np.allclose(logits, model.top_W @ hidden + model.top_b)
        _, _, grad_logits = softmax_xent(logits, 1)
        grads = backward(model, cache, grad_logits, zero_grads(model))
        dv = model.top_W.T @ grad_logits
        dz = np.where(hidden > 0, dv, 0.0)
        expect_dW = np.zeros_like(model.base.W)
        expect_dW[x.indices] = np.outer(x.values, dz)
        assert np.allclose(grads.base_W, expect_dW)
        assert np.allclose(grads.base_b, dz)
        assert np.allclose(grads.top_W, np.outer(grad_logits, hidden))

    def test_matches_finite_differences_on_stated_instance(self):
        # V=20, p=3, d=6, d_tv=4, C=3, 10-token document, dropout off
        rng = np.random.default_rng(77)
        vocab = word_vocab(20)
        spec = RegionSpec(BOW_WORD, 3, 20)
        tv = RegionEmbedding(spec=spec, vocab=vocab,
                             W=np.ascontiguousarray(rng.normal(0, 0.5, (4, 20)).T),
                             b=rng.normal(0, 0.5, 4))
        template = ModelTemplate(base_vocab=vocab, n_classes=3, tv_embeddings=(tv,))
        config = RunConfig(region_size=3, embed_dim=6, pooling_k=1, init_std=0.5, dropout=0.0)
        model = init_model(template, config, rng)
        tokens = [f"w{int(rng.integers(20))}" for _ in range(10)]
        doc = prepare_document(model.views, tokens, 2)
        assert fd_max_rel_error(model, doc) < 1e-4

    def test_dropout_mask_enters_gradient(self):
        template, model = small_model(dropout=0.5, pooling_k=1)
        doc = prepare_document(model.views, ["w0", "w1", "w2", "w3"])
        logits, cache = forward(model, doc, train=True, rng=np.random.default_rng(15))
        _, _, grad_logits = softmax_xent(logits, 0)
        grads = backward(model, cache, grad_logits, zero_grads(model))
        dropped = cache.dropout_scale == 0.0
        assert dropped.any()
        assert not grads.top_W[:, dropped].any()

    def test_cache_model_mismatch(self):
        template, model = small_model()
        doc = prepare_document(model.views, ["w0"])
        _, cache = forward(model, doc, train=True, rng=None)
        vocab = word_vocab(12)
        other = ShallowModel(
            base=model.base,
            tvs=(TvEmbedding(embedding=RegionEmbedding(
                spec=RegionSpec(BOW_WORD, 2, 12), vocab=vocab,
                W=np.zeros((12, 2)), b=np.zeros(2)),
                fusion=np.zeros((6, 2))),),
            pooling_k=model.pooling_k,
            top_W=model.top_W,
            top_b=model.top_b,
            dropout_rate=model.dropout_rate,
        )
        with pytest.raises(ValueError):
            backward(other, cache, np.zeros(3), zero_grads(other))


def scatter_case(seed, representation, n_docs=1, order="C", density=0.3):
    """A (dW, dZ, view) triple for ``_scatter_embedding_grad``.

    The corpus repeats words (bow counts of 2 and more, columns repeated
    across rows) and holds "zz", which no vocabulary has.  With several
    documents the view is tv-style: regions of every document, shuffled,
    at offsets into the concatenated ids.  dZ holds exact zeros, all-zero
    rows, -0.0 and NaN; dW is already nonzero, as within a batch.
    """
    from swcnn.textpipe import build_vocab

    rng = np.random.default_rng(seed)
    corpus = [[f"w{int(rng.integers(5))}" if rng.random() < 0.85 else "zz"
               for _ in range(int(rng.integers(0, 14)))] for _ in range(n_docs)]
    vocab = build_vocab(corpus + [["w0", "w1", "w2", "w3", "w4"]],
                        "ngram123" if representation == BOW_NGRAM else "word", 12)
    spec = RegionSpec(representation, int(rng.integers(1, 5)), len(vocab))
    docs = [encode(tokens, vocab) for tokens in corpus]
    starts, ends, offset = [], [], 0
    for doc in docs:
        starts += [offset + pos for pos in range(region_count(len(doc), spec.region_size))]
        ends += [offset + len(doc)] * region_count(len(doc), spec.region_size)
        offset += len(doc)
    picked = rng.permutation(len(starts))
    view = _view_slots(np.concatenate(docs), spec, np.array(starts)[picked], np.array(ends)[picked])
    d = int(rng.integers(1, 7))
    dZ = rng.normal(size=(len(picked), d))
    dZ[rng.random(dZ.shape) > density] = 0.0
    dZ[rng.random(len(dZ)) < 0.3] = 0.0
    dZ[rng.random(dZ.shape) < 0.05] = -0.0
    dZ[rng.random(dZ.shape) < 0.02] = np.nan
    dW = np.asarray(rng.normal(size=(d, spec.input_dim)).T, order=order)
    return dW, dZ, view


def assert_scatter_matches_reference(dW, dZ, view):
    """The scatter adds bitwise what ``helpers.scatter_reference`` adds.

    Into dW itself, through the identity map, and into a compact copy of
    dW's touched rows: those the view reads and every third other one,
    as a batch's gradient holds rows that other documents read.
    """
    n = len(dW)
    want = dW.copy(order="K")
    scatter_reference(want, dZ, view)
    touched = np.union1d(slot_columns([view]), np.arange(0, n, 3))
    position = np.full(n, n)
    position[touched] = np.arange(len(touched))
    compact = dW[touched]
    _scatter_embedding_grad(compact, dZ, view, position)
    assert compact.tobytes(order="F") == want[touched].tobytes(order="F")
    _scatter_embedding_grad(dW, dZ, view, np.arange(n))
    assert dW.flags.c_contiguous == want.flags.c_contiguous
    assert dW.tobytes(order="A") == want.tobytes(order="A")


class TestScatterEmbeddingGrad:
    """The nonzero-driven scatter adds bitwise what the row-wise one adds."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("representation", [CONCAT, BOW_WORD, BOW_NGRAM])
    def test_matches_reference(self, representation, order):
        for seed in range(30):
            for n_docs in (1, 6):
                assert_scatter_matches_reference(
                    *scatter_case(seed, representation, n_docs, order))

    def test_repeated_columns_and_counts(self):
        # "w1 w1 w1" is a bow count of 3 in one row, and each slot reads
        # one column in all of its rows
        vocab = word_vocab(4)
        for rep in (CONCAT, BOW_WORD):
            spec = RegionSpec(rep, 3, 4)
            view = _view_slots(encode(["w1"] * 5 + ["w2", "zz"], vocab), spec, np.arange(5), 7)
            dZ = np.random.default_rng(1).normal(size=(5, 3))
            dZ[2] = 0.0
            assert_scatter_matches_reference(np.zeros((spec.input_dim, 3)), dZ, view)

    def test_all_zero_dZ_and_empty_view_change_nothing(self):
        dW, dZ, view = scatter_case(3, BOW_WORD, n_docs=4)
        before = dW.tobytes(order="A")
        identity = np.arange(len(dW))
        _scatter_embedding_grad(dW, np.zeros_like(dZ), view, identity)
        _scatter_embedding_grad(dW, dZ, PreparedView(table=np.empty((0, len(dZ)), dtype=np.int32), input_dim=len(dW)), identity)
        assert dW.tobytes(order="A") == before

    def test_signed_zero_gradient_keeps_positive_zeros(self):
        # a -0.0 addend leaves a +0.0 cell at +0.0 on both paths
        spec = RegionSpec(CONCAT, 2, 3)
        view = _view_slots(np.array([0, 1, 2]), spec, np.arange(2), 3)
        dZ = np.array([[-0.0, 1.0], [-0.0, -0.0]])
        dW = np.zeros((spec.input_dim, 2))
        assert_scatter_matches_reference(dW, dZ, view)
        assert not np.signbit(dW).any()

    @given(st.integers(0, 2**32 - 1), st.sampled_from([CONCAT, BOW_WORD, BOW_NGRAM]),
           st.integers(1, 5), st.sampled_from(["C", "F"]), st.floats(0.0, 1.0))
    @settings(max_examples=150, deadline=None)
    def test_random_instances(self, seed, representation, n_docs, order, density):
        assert_scatter_matches_reference(
            *scatter_case(seed, representation, n_docs, order, density))


class TestRectifyAfterPooling:
    """``forward``/``backward`` agree bitwise with rectifying all R rows first."""

    @staticmethod
    def assert_bitwise(model, doc, seed=0):
        logits, cache = forward(model, doc, train=True, rng=np.random.default_rng(seed))
        _, _, grad_logits = softmax_xent(logits, doc.label)
        grads = backward(model, cache, grad_logits, zero_grads(model))
        want_logits, want = rectify_then_pool(model, doc, train=True,
                                              rng=np.random.default_rng(seed))
        assert logits.tobytes() == want_logits.tobytes()
        for got, expect in zip(grads.as_list(), want.as_list(), strict=True):
            assert got.tobytes() == expect.tobytes()
        return cache

    @pytest.mark.parametrize("with_tvs", [False, True])
    @pytest.mark.parametrize("dropout", [0.0, 0.5])
    def test_random_instances(self, with_tvs, dropout):
        for seed in range(40):
            model, doc = random_tiny_instance(seed, with_tvs, dropout=dropout)
            self.assert_bitwise(model, doc, seed)

    @pytest.mark.parametrize("tokens", [["w0", "w4", "w7"], ["w1"], []])
    def test_more_units_than_regions(self, tokens):
        template, model = small_model(region_size=3, pooling_k=5, dropout=0.5)
        doc = prepare_document(model.views, tokens, 1)
        cache = self.assert_bitwise(model, doc)
        assert doc.views[0].table.shape[1] == 1 and (cache.pool_rows == -1).any()

    def test_non_positive_maximum_routes_nothing(self):
        template, model = small_model(pooling_k=2)
        model.base.b[:3] = -50.0  # these features never rise above 0
        doc = prepare_document(model.views, [f"w{i % 12}" for i in range(9)], 2)
        cache = self.assert_bitwise(model, doc)
        assert (cache.pool_rows[:, :3] == -1).all() and (cache.pool_rows[:, 3:] >= 0).any()
        assert not cache.top_input.reshape(2, -1)[:, :3].any()

    def test_nan_reaches_the_logits(self):
        # in train mode nothing checks the weights: the loss check sees the NaN
        template, model = small_model(pooling_k=2, dropout=0.5)
        model.base.W[:, 1] = np.nan
        doc = prepare_document(model.views, ["w0", "w1", "w2", "w3"])
        logits, cache = forward(model, doc, train=True, rng=np.random.default_rng(0))
        assert np.isnan(logits).all()
        assert (cache.pool_rows[:, 1] == -1).all()


class TestGatheredWeightCheck:
    """Inference rejects a NaN or infinite weight where a document gathers it."""

    @staticmethod
    def model_with_tv():
        vocab = word_vocab(12)
        tv = RegionEmbedding(spec=RegionSpec(BOW_WORD, 2, 12), vocab=vocab,
                             W=np.random.default_rng(5).normal(size=(3, 12)).T.copy(),
                             b=np.zeros(3))
        return small_model(region_size=1, tvs=[tv])[1]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["base", "tv"])
    def test_gathered_column_raises(self, where, value):
        model = self.model_with_tv()
        W = model.base.W if where == "base" else model.tvs[0].embedding.W
        W[4, 0] = value  # word w4
        name = "the base view" if where == "base" else "tv view 1"
        with pytest.raises(NonFiniteWeights, match=f"non-finite value in {name}'s gathered"):
            forward(model, prepare_document(model.views, ["w1", "w4", "w2"]))
        with pytest.raises(NonFiniteWeights):
            predict(model, ["w4"])

    def test_minus_inf_before_the_relu_is_caught(self):
        # relu(-inf) is 0, so only a check before the relu sees it
        model = self.model_with_tv()
        model.tvs[0].embedding.W[4] = -np.inf
        with pytest.raises(NonFiniteWeights, match="tv view 1"):
            forward(model, prepare_document(model.views, ["w4"]))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_columns_not_gathered_answer_as_before(self, value):
        clean = self.model_with_tv()
        model = self.model_with_tv()
        model.base.W[4] = value
        model.tvs[0].embedding.W[4] = value
        for tokens in (["w1", "w2", "w3"], ["w0", "w11", "w5", "w0"], []):
            doc = prepare_document(model.views, tokens)
            assert forward(model, doc)[0].tobytes() == forward(clean, doc)[0].tobytes()

    def test_train_mode_does_not_check(self):
        model = self.model_with_tv()
        model.tvs[0].embedding.W[4] = np.nan
        logits, _ = forward(model, prepare_document(model.views, ["w4"]), train=True,
                            rng=np.random.default_rng(0))
        assert np.isnan(logits).all()


class TestCountParameters:
    def test_small_model_arithmetic(self):
        template, model = small_model(n_words=12, region_size=3, dim=6, n_classes=3, pooling_k=2)
        expect = 6 * (3 * 12) + 6 + 3 * (6 * 2) + 3
        assert count_parameters(model) == expect

    @pytest.mark.parametrize(
        "tv_sizes,d_tv,expect,millions",
        [
            ((), 0, 45_003_005, 45),
            ((30_000, 200_000), 100, 68_103_205, 68),
            ((30_000, 30_000, 200_000, 200_000), 100, 91_203_405, 91),
            ((30_000, 30_000, 200_000, 200_000), 300, 183_604_205, 184),
        ],
    )
    def test_word_cnn_reference_rows(self, tv_sizes, d_tv, expect, millions):
        # np.zeros never touches the pages, so the big shapes stay virtual
        base_vocab = Vocabulary(kind="word", entries=tuple((f"w{i}", 1) for i in range(30_000)))
        base_spec = RegionSpec(CONCAT, 3, 30_000)
        base = RegionEmbedding(spec=base_spec, vocab=base_vocab,
                               W=np.zeros((base_spec.input_dim, 500)), b=np.zeros(500))
        tvs = []
        for v in tv_sizes:
            vocab = base_vocab if v == 30_000 else Vocabulary(
                kind="ngram123", entries=tuple((f"g{i}", 1) for i in range(v)))
            spec = RegionSpec(BOW_WORD if v == 30_000 else BOW_NGRAM, 5, v)
            tvs.append(TvEmbedding(
                embedding=RegionEmbedding(spec=spec, vocab=vocab,
                                          W=np.zeros((v, d_tv)), b=np.zeros(d_tv)),
                fusion=np.zeros((500, d_tv))))
        model = ShallowModel(base=base, tvs=tuple(tvs), pooling_k=1,
                             top_W=np.zeros((5, 500)), top_b=np.zeros(5), dropout_rate=0.0)
        count = count_parameters(model)
        assert count == expect
        assert round(count / 1e6) == millions


class TestPredict:
    def test_argmax(self):
        template, model = small_model(n_classes=2, pooling_k=1)
        model.base.W[...] = 0.0
        model.base.b[...] = 0.0
        model.top_b[...] = [0.2, 0.9]
        assert predict(model, ["w0"]) == 1

    def test_tie_breaks_low(self):
        template, model = small_model(n_classes=2, pooling_k=1)
        model.base.W[...] = 0.0
        model.base.b[...] = 0.0
        model.top_b[...] = [0.5, 0.5]
        assert predict(model, ["w0"]) == 0

    def test_shift_invariance(self):
        template, model = small_model(n_classes=3, pooling_k=1)
        tokens = ["w0", "w3", "w5"]
        before = predict(model, tokens)
        model.top_b += 11.25
        assert predict(model, tokens) == before


class TestFrozenTv:
    def test_randomized_instances_have_exact_gradients(self):
        worst = max(fd_max_rel_error(*random_tiny_instance(seed, with_tvs=True))
                    for seed in range(3))
        assert worst < 1e-4

    def test_backward_never_touches_tv_internals(self):
        model, doc = random_tiny_instance(1, with_tvs=True)
        snapshots = [(tv.embedding.W.copy(), tv.embedding.b.copy()) for tv in model.tvs]
        logits, cache = forward(model, doc, train=True, rng=None)
        _, _, grad_logits = softmax_xent(logits, doc.label)
        grads = backward(model, cache, grad_logits, zero_grads(model))
        assert isinstance(grads, ModelGrads)
        for tv, (w0, b0) in zip(model.tvs, snapshots):
            assert np.array_equal(tv.embedding.W, w0)
            assert np.array_equal(tv.embedding.b, b0)

    def test_grad_accumulation_in_place(self):
        model, doc = random_tiny_instance(2, with_tvs=False)
        logits, cache = forward(model, doc, train=True, rng=None)
        _, _, grad_logits = softmax_xent(logits, doc.label)
        acc = zero_grads(model)
        backward(model, cache, grad_logits, out=acc)
        backward(model, cache, grad_logits, out=acc)
        single = backward(model, cache, grad_logits, zero_grads(model))
        for twice, once in zip(acc.as_list(), single.as_list()):
            assert np.allclose(twice, 2 * once)
