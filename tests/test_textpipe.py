import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import region_vector
from swcnn.textpipe import (
    BOW_NGRAM,
    BOW_WORD,
    CONCAT,
    NGRAM123,
    OOV,
    WORD,
    RegionSpec,
    Vocabulary,
    build_vocab,
    encode,
    region_count,
    tokenize,
)


class TestTokenize:
    def test_lowercase_and_punctuation(self):
        assert tokenize("Good Buy!") == ["good", "buy", "!"]

    def test_empty(self):
        assert tokenize("") == []

    def test_literal_backslash_n_is_whitespace(self):
        assert tokenize("A\\nB") == ["a", "b"]

    def test_alnum_runs_stay_together(self):
        assert tokenize("it's the 3rd try-out") == [
            "it", "'", "s", "the", "3rd", "try", "-", "out",
        ]

    @given(st.text(max_size=200))
    def test_tokens_have_no_whitespace_and_are_lowercased(self, raw):
        # "lowercased" means the str.lower image: caseless symbols (e.g.
        # mathematical capitals) have no lowercase form and pass through
        for tok in tokenize(raw):
            assert tok
            assert not any(ch.isspace() for ch in tok)
            assert tok == tok.lower()

    @given(st.text(max_size=200))
    def test_deterministic(self, raw):
        assert tokenize(raw) == tokenize(raw)


corpora = st.lists(
    st.lists(st.sampled_from("a b c d e aa bb".split()), max_size=8), max_size=8
)


class TestBuildVocab:
    def test_word_ranking_with_tie(self):
        vocab = build_vocab([["a", "a", "b"], ["a", "c"]], WORD, 2)
        assert vocab.entries == (("a", 3), ("b", 1))
        assert vocab.index == {"a": 0, "b": 1}

    def test_cap_not_binding(self):
        vocab = build_vocab([["b", "a"], ["c"]], WORD, 10)
        assert set(vocab.index) == {"a", "b", "c"}

    def test_ngram_enumeration(self):
        vocab = build_vocab([["x", "y"]], NGRAM123, 10)
        assert vocab.index == {"x": 0, "x y": 1, "y": 2}

    def test_empty_corpus(self):
        assert len(build_vocab([], WORD, 5)) == 0

    def test_ngrams_of_triple(self):
        vocab = build_vocab([["a", "b", "c"]], NGRAM123, 10)
        assert [gram for gram, _ in vocab.entries] == ["a", "a b", "a b c", "b", "b c", "c"]

    @given(corpora, st.integers(min_value=1, max_value=12))
    def test_frequencies_ranked_and_bijective(self, corpus, cap):
        vocab = build_vocab(corpus, WORD, cap)
        freqs = [f for _, f in vocab.entries]
        assert freqs == sorted(freqs, reverse=True)
        for (t1, f1), (t2, f2) in zip(vocab.entries, vocab.entries[1:]):
            if f1 == f2:
                assert t1 < t2
        assert sorted(vocab.index.values()) == list(range(len(vocab)))

    @given(corpora, st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=6))
    def test_coverage_monotone_in_cap(self, corpus, cap1, extra):
        small = build_vocab(corpus, WORD, cap1)
        large = build_vocab(corpus, WORD, cap1 + extra)
        assert set(small.index) <= set(large.index)

    @given(corpora)
    def test_deterministic(self, corpus):
        a = build_vocab(corpus, NGRAM123, 10)
        b = build_vocab(corpus, NGRAM123, 10)
        assert a == b


GOOD_BUY = Vocabulary(kind=WORD, entries=(("good", 3), ("buy", 2)))


class TestEncode:
    def test_lookup_and_oov(self):
        doc = encode(["good", "zzz"], GOOD_BUY)
        assert doc.dtype == np.int64 and doc.tolist() == [0, OOV]

    def test_empty(self):
        assert encode([], GOOD_BUY).shape == (0,)

    def test_all_oov_document_is_valid(self):
        doc = encode(["x", "y", "z"], GOOD_BUY)
        assert doc.tolist() == [OOV, OOV, OOV]
        spec = RegionSpec(CONCAT, 2, 2)
        assert region_vector(doc, 0, spec).nnz == 0

    def test_ngram_ids_attached_for_ngram_vocab(self):
        vocab = build_vocab([["a", "b"]], NGRAM123, 10)
        doc = encode(["a", "b"], vocab)
        assert doc.tolist() == [
            [vocab.index["a"], vocab.index["a b"], OOV],
            [vocab.index["b"], OOV, OOV],
        ]


class TestRegionVector:
    def test_concat_layout(self):
        doc = encode(["good", "buy"], GOOD_BUY)
        rv = region_vector(doc, 0, RegionSpec(CONCAT, 2, 2))
        assert rv.dim == 4
        assert list(rv.indices) == [0, 3]
        assert list(rv.values) == [1.0, 1.0]

    def test_bow_word(self):
        doc = encode(["good", "buy"], GOOD_BUY)
        rv = region_vector(doc, 0, RegionSpec(BOW_WORD, 2, 2))
        assert list(rv.indices) == [0, 1]
        assert list(rv.values) == [1.0, 1.0]

    def test_bow_counts_and_oov_dropped(self):
        doc = encode(["good", "good", "zzz"], GOOD_BUY)
        rv = region_vector(doc, 0, RegionSpec(BOW_WORD, 3, 2))
        assert list(rv.indices) == [0]
        assert list(rv.values) == [2.0]

    def test_position_out_of_range(self):
        doc = encode(["good", "buy"], GOOD_BUY)
        with pytest.raises(ValueError):
            region_vector(doc, 1, RegionSpec(CONCAT, 2, 2))

    def test_short_document_padded_to_one_region(self):
        doc = encode(["good"], GOOD_BUY)
        rv = region_vector(doc, 0, RegionSpec(CONCAT, 3, 2))
        assert list(rv.indices) == [0]

    def test_ngram_region_includes_gram_whose_unigram_is_oov(self):
        # cap 2 keeps "a" and "a b" but drops the unigram "b"
        vocab = build_vocab([["a", "b"]], NGRAM123, 2)
        assert vocab.index == {"a": 0, "a b": 1}
        doc = encode(["a", "b"], vocab)
        rv = region_vector(doc, 0, RegionSpec(BOW_NGRAM, 2, 2))
        assert list(rv.indices) == [0, 1]
        assert list(rv.values) == [1.0, 1.0]

    def test_ngram_must_fit_inside_region(self):
        vocab = build_vocab([["a", "b", "c"]], NGRAM123, 100)
        doc = encode(["a", "b", "c"], vocab)
        rv = region_vector(doc, 1, RegionSpec(BOW_NGRAM, 2, len(vocab)))
        # region is [b, c]: grams b, c, "b c"; "a b" starts before pos 1
        expect = sorted(vocab.index[g] for g in ("b", "c", "b c"))
        assert list(rv.indices) == expect


tokens_strategy = st.lists(st.sampled_from([f"w{i}" for i in range(6)] + ["zzz"]), max_size=15)


class TestRegionProperties:
    @given(tokens_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_region_count_formula(self, tokens, p):
        assert region_count(len(tokens), p) == max(1, len(tokens) - p + 1)

    @given(tokens_strategy, st.integers(min_value=1, max_value=5))
    @settings(max_examples=60)
    def test_nonzero_bounds(self, tokens, p):
        word_v = build_vocab([tokens] if tokens else [["w0"]], WORD, 1000)
        gram_v = build_vocab([tokens] if tokens else [["w0"]], NGRAM123, 1000)
        word_doc = encode(tokens, word_v)
        gram_doc = encode(tokens, gram_v)
        for pos in range(region_count(len(tokens), p)):
            concat = region_vector(word_doc, pos, RegionSpec(CONCAT, p, len(word_v)))
            assert concat.nnz <= p
            assert np.all(np.diff(concat.indices) > 0)
            bow = region_vector(word_doc, pos, RegionSpec(BOW_WORD, p, len(word_v)))
            assert bow.values.sum() <= p
            assert np.all(np.diff(bow.indices) > 0)
            grams = region_vector(gram_doc, pos, RegionSpec(BOW_NGRAM, p, len(gram_v)))
            assert grams.values.sum() <= max(0, p) + max(0, p - 1) + max(0, p - 2)
            assert np.all(np.diff(grams.indices) > 0)

    @given(tokens_strategy, st.integers(min_value=1, max_value=30))
    @settings(max_examples=60)
    def test_ngram_ids_follow_their_definition(self, tokens, cap):
        vocab = build_vocab([tokens, ["w0", "w1", "w2"]], NGRAM123, cap)
        ids = encode(tokens, vocab)
        assert ids.shape == (len(tokens), 3) and ids.dtype == np.int64
        for i in range(len(tokens)):
            for n in (1, 2, 3):
                fits = i + n <= len(tokens)
                want = vocab.index.get(" ".join(tokens[i : i + n]), OOV) if fits else OOV
                assert ids[i, n - 1] == want

    @given(tokens_strategy)
    @settings(max_examples=30)
    def test_encoding_deterministic(self, tokens):
        vocab = build_vocab([tokens], WORD, 50) if tokens else GOOD_BUY
        assert np.array_equal(encode(tokens, vocab), encode(tokens, vocab))
