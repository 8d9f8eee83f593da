import os
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import (
    v1_embedding_bytes, v1_model_bytes, v2_embedding_bytes, v2_model_bytes, word_vocab,
    write_corrupted,
)
from swcnn.config import RunConfig
from swcnn.errors import DataError, NonFiniteWeights
from swcnn.model import RegionEmbedding, ShallowModel, forward, prepare_document
from swcnn.serialize import (
    FORMAT_VERSION,
    MAGIC,
    load_embedding,
    load_model,
    save_embedding,
    save_model,
)
from swcnn.textpipe import BOW_NGRAM, BOW_WORD, RegionSpec, Vocabulary
from swcnn.train import ModelTemplate, init_model


@pytest.fixture
def fused_model():
    rng = np.random.default_rng(8)
    vocab = word_vocab(25)
    gram_vocab = Vocabulary(
        kind="ngram123", entries=tuple((f"g{i} x", 40 - i) for i in range(40))
    )
    tvs = []
    for spec, v in (
        (RegionSpec(BOW_WORD, 5, 25), vocab),
        (RegionSpec(BOW_NGRAM, 3, 40), gram_vocab),
    ):
        tvs.append(RegionEmbedding(
            spec=spec, vocab=v,
            W=np.ascontiguousarray(rng.normal(size=(4, spec.input_dim)).T),
            b=rng.normal(size=4)))
    template = ModelTemplate(base_vocab=vocab, n_classes=3, tv_embeddings=tuple(tvs))
    config = RunConfig(region_size=3, embed_dim=7, pooling_k=2, init_std=0.3)
    model = init_model(template, config, rng)
    return template, model


# In the fused model's container the base W header (7 rows, 75 columns) starts
# at byte 400: 25 bytes of model header, 10 of block header, then 25
# vocabulary entries "w0".."w24" of 12 + len(token) bytes each.
BASE_W_AT = 400


def write_model(model, path, version):
    if version == 1:
        path.write_bytes(v1_model_bytes(model))
    else:
        save_model(model, path)


def write_embedding(emb, path, version):
    if version == 1:
        path.write_bytes(v1_embedding_bytes(emb))
    else:
        save_embedding(emb, path)


def weights(model):
    """Every W of ``model``: the base view's, then each tv's."""
    return [model.base.W, *(tv.embedding.W for tv in model.tvs)]


def tensors(model):
    return [*weights(model), model.base.b, *(tv.embedding.b for tv in model.tvs),
            *(tv.fusion for tv in model.tvs), model.top_W, model.top_b]


def test_model_round_trip_bitwise(fused_model, tmp_path):
    template, model = fused_model
    path = tmp_path / "m.swcn"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.pooling_k == model.pooling_k
    assert loaded.n_classes == model.n_classes
    assert loaded.dropout_rate == model.dropout_rate
    assert np.array_equal(loaded.base.W, model.base.W)
    assert np.array_equal(loaded.base.b, model.base.b)
    assert loaded.base.vocab == model.base.vocab
    assert loaded.base.spec == model.base.spec
    for a, b in zip(loaded.tvs, model.tvs):
        assert np.array_equal(a.embedding.W, b.embedding.W)
        assert np.array_equal(a.embedding.b, b.embedding.b)
        assert np.array_equal(a.fusion, b.fusion)
        assert a.embedding.vocab == b.embedding.vocab
    assert np.array_equal(loaded.top_W, model.top_W)
    assert np.array_equal(loaded.top_b, model.top_b)


def test_save_load_save_produces_identical_bytes(fused_model, tmp_path):
    _, model = fused_model
    first = tmp_path / "a.swcn"
    second = tmp_path / "b.swcn"
    save_model(model, first)
    save_model(load_model(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_v2_weights_are_mapped_read_only(fused_model, tmp_path):
    _, model = fused_model
    path = tmp_path / "m.swcn"
    save_model(model, path)
    assert struct.unpack_from("<I", path.read_bytes(), 4) == (FORMAT_VERSION,) == (2,)
    emb_path = tmp_path / "tv.swcn"
    save_embedding(model.tvs[1].embedding, emb_path)
    loaded = weights(load_model(path)) + [load_embedding(emb_path).W]
    for got, want in zip(loaded, weights(model) + [model.tvs[1].embedding.W], strict=True):
        assert type(got) is np.ndarray
        assert got.tobytes() == want.tobytes()
        assert got.flags.c_contiguous and not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[0, 0] = 1.0


def test_version_1_loads_through_a_copy(fused_model, tmp_path):
    _, model = fused_model
    v1, v2 = tmp_path / "v1.swcn", tmp_path / "v2.swcn"
    write_model(model, v1, 1)
    write_model(model, v2, 2)
    assert v1.stat().st_size == v2.stat().st_size
    old, new = load_model(v1), load_model(v2)
    for a, b in zip(tensors(old), tensors(new), strict=True):
        assert a.tobytes() == b.tobytes()
    for W in weights(old):
        assert W.flags.c_contiguous and W.flags.writeable
    rng = np.random.default_rng(5)
    for _ in range(20):
        tokens = [f"w{int(rng.integers(30))}" for _ in range(int(rng.integers(0, 15)))]
        doc = prepare_document(model.views, tokens)
        assert forward(old, doc)[0].tobytes() == forward(new, doc)[0].tobytes()
    # saving a version 1 model changes only the version field and W's byte order
    resaved = tmp_path / "resaved.swcn"
    save_model(old, resaved)
    assert resaved.read_bytes() == v2.read_bytes()

    emb = model.tvs[1].embedding
    write_embedding(emb, v1, 1)
    write_embedding(emb, v2, 2)
    old, new = load_embedding(v1), load_embedding(v2)
    assert v1.stat().st_size == v2.stat().st_size
    assert old.W.tobytes() == new.W.tobytes() == emb.W.tobytes()
    assert old.b.tobytes() == new.b.tobytes() and old.vocab == new.vocab == emb.vocab


def test_v2_bytes_follow_the_documented_layout(fused_model, tmp_path):
    """``save_model`` and ``save_embedding`` write each W as the paper's
    (d, input_dim) matrix, its values column-major, which a round trip
    alone would not notice if the layout flipped."""
    _, model = fused_model
    path = tmp_path / "m.swcn"
    save_model(model, path)
    assert path.read_bytes() == v2_model_bytes(model)
    for emb in (model.base, *(tv.embedding for tv in model.tvs)):
        save_embedding(emb, path)
        assert path.read_bytes() == v2_embedding_bytes(emb)


def test_round_trip_preserves_logits(fused_model, tmp_path):
    _, model = fused_model
    path = tmp_path / "m.swcn"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(3)
    for _ in range(20):
        tokens = [f"w{int(rng.integers(30))}" for _ in range(int(rng.integers(0, 15)))]
        doc = prepare_document(model.views, tokens)
        before, _ = forward(model, doc)
        after, _ = forward(loaded, doc)
        assert np.array_equal(before, after)


def test_embedding_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    spec = RegionSpec(BOW_WORD, 5, 10)
    emb = RegionEmbedding(spec=spec, vocab=word_vocab(10),
                          W=np.ascontiguousarray(rng.normal(size=(3, 10)).T),
                          b=rng.normal(size=3))
    path = tmp_path / "tv.swcn"
    save_embedding(emb, path)
    loaded = load_embedding(path)
    assert loaded.spec == emb.spec
    assert loaded.vocab == emb.vocab
    assert np.array_equal(loaded.W, emb.W)
    assert np.array_equal(loaded.b, emb.b)


def test_unicode_tokens_survive(tmp_path):
    vocab = Vocabulary(kind="word", entries=(("café", 3), ("中文", 1)))
    emb = RegionEmbedding(spec=RegionSpec(BOW_WORD, 2, 2), vocab=vocab,
                          W=np.zeros((2, 2)), b=np.zeros(2))
    path = tmp_path / "tv.swcn"
    save_embedding(emb, path)
    assert load_embedding(path).vocab == vocab


def test_invalid_utf8_token_names_file_and_entry(tmp_path):
    vocab = Vocabulary(kind="word", entries=(("ab", 3), ("cd", 1)))
    emb = RegionEmbedding(spec=RegionSpec(BOW_WORD, 2, 2), vocab=vocab,
                          W=np.zeros((2, 2)), b=np.zeros(2))
    path = tmp_path / "tv.swcn"
    save_embedding(emb, path)
    path.write_bytes(path.read_bytes().replace(b"cd", b"\xff\xfe", 1))
    with pytest.raises(DataError, match=r"tv\.swcn: vocabulary entry 1: not valid UTF-8"):
        load_embedding(path)


def test_duplicate_token_names_file_and_entries(tmp_path):
    vocab = Vocabulary(kind="word", entries=(("ab", 3), ("cd", 2), ("ef", 1)))
    emb = RegionEmbedding(spec=RegionSpec(BOW_WORD, 2, 3), vocab=vocab,
                          W=np.zeros((3, 2)), b=np.zeros(2))
    path = tmp_path / "tv.swcn"
    save_embedding(emb, path)
    path.write_bytes(path.read_bytes().replace(b"ef", b"ab", 1))
    with pytest.raises(DataError, match=r"tv\.swcn: vocabulary entry 2: duplicate token 'ab' "
                                         r"\(first at entry 0\)"):
        load_embedding(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_model_weights_rejected(fused_model, tmp_path, value):
    _, model = fused_model
    model.tvs[0].fusion[1, 0] = value
    path = tmp_path / "m.swcn"
    save_model(model, path)
    with pytest.raises(DataError, match=r"m\.swcn: non-finite value"):
        load_model(path)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("where", ["base", "tv"])
@pytest.mark.parametrize("version", [1, 2])
def test_non_finite_W_rejected(fused_model, tmp_path, version, where, value):
    """A model's W loads unchecked and is rejected where a document gathers
    the bad column; a tv embedding's W is rejected at load."""
    _, model = fused_model
    clean = tmp_path / "clean.swcn"
    write_model(model, clean, version)
    emb = model.base if where == "base" else model.tvs[1].embedding
    emb.W[5, 2] = value
    path = tmp_path / "m.swcn"
    write_model(model, path, version)
    loaded, reference = load_model(path), load_model(clean)
    # column 5: the word w5 at the base region's first position, the tv's bigram "g5 x"
    bad = prepare_document(loaded.views, ["w5"] if where == "base" else ["g5", "x"])
    with pytest.raises(NonFiniteWeights, match="non-finite value"):
        forward(loaded, bad)
    for tokens in (["w1", "w6", "w2"], ["g4", "x", "g5"], []):
        doc = prepare_document(loaded.views, tokens)
        assert forward(loaded, doc)[0].tobytes() == forward(reference, doc)[0].tobytes()
    path = tmp_path / "e.swcn"
    write_embedding(emb, path, version)
    with pytest.raises(DataError, match=r"e\.swcn: non-finite value"):
        load_embedding(path)


def test_non_finite_embedding_weights_rejected(tmp_path):
    emb = RegionEmbedding(spec=RegionSpec(BOW_WORD, 2, 3), vocab=word_vocab(3),
                          W=np.zeros((3, 2)), b=np.array([0.0, np.nan]))
    path = tmp_path / "tv.swcn"
    save_embedding(emb, path)
    with pytest.raises(DataError, match=r"tv\.swcn: non-finite value"):
        load_embedding(path)


def model_over(vocab, tv_vocab, rep=BOW_WORD):
    """A two-view model: the base view reads ``vocab``, its tv ``tv_vocab``."""
    rng = np.random.default_rng(3)
    spec = RegionSpec(rep, 2, len(tv_vocab))
    tv = RegionEmbedding(spec=spec, vocab=tv_vocab,
                         W=np.ascontiguousarray(rng.normal(size=(3, spec.input_dim)).T),
                         b=rng.normal(size=3))
    template = ModelTemplate(base_vocab=vocab, n_classes=2, tv_embeddings=(tv,))
    return init_model(template, RunConfig(region_size=2, embed_dim=4, pooling_k=1), rng)


class TestSharedVocabulary:
    """A vocabulary block that repeats an earlier one is parsed once."""

    def test_tv_over_the_base_vocabulary_shares_it(self, fused_model, tmp_path):
        _, model = fused_model
        first, second = tmp_path / "a.swcn", tmp_path / "b.swcn"
        save_model(model, first)
        loaded = load_model(first)
        assert loaded.tvs[0].embedding.vocab is loaded.base.vocab
        assert loaded.tvs[1].embedding.vocab is not loaded.base.vocab
        assert loaded.tvs[1].embedding.vocab == model.tvs[1].embedding.vocab
        save_model(loaded, second)
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("version", [1, 2])
    def test_shared_in_both_versions(self, fused_model, tmp_path, version):
        _, model = fused_model
        path = tmp_path / "m.swcn"
        write_model(model, path, version)
        loaded = load_model(path)
        assert loaded.tvs[0].embedding.vocab is loaded.base.vocab

    def test_one_frequency_byte_apart_is_parsed_on_its_own(self, tmp_path):
        vocab = word_vocab(6)
        entries = list(vocab.entries)
        entries[3] = (entries[3][0], entries[3][1] + 1)
        other = Vocabulary(kind="word", entries=tuple(entries))
        path = tmp_path / "m.swcn"
        save_model(model_over(vocab, other), path)
        loaded = load_model(path)
        assert loaded.tvs[0].embedding.vocab is not loaded.base.vocab
        assert loaded.tvs[0].embedding.vocab.entries == tuple(entries)
        assert loaded.base.vocab.entries == vocab.entries

    def test_another_kind_is_parsed_on_its_own(self, tmp_path):
        vocab = word_vocab(6)
        grams = Vocabulary(kind="ngram123", entries=vocab.entries)
        path = tmp_path / "m.swcn"
        save_model(model_over(vocab, grams, rep=BOW_NGRAM), path)
        loaded = load_model(path)
        assert loaded.tvs[0].embedding.vocab.kind == "ngram123"
        assert loaded.base.vocab.kind == "word"
        assert loaded.tvs[0].embedding.vocab.entries == vocab.entries

    def test_second_block_cut_inside_its_entries_is_truncated(self, fused_model, tmp_path):
        _, model = fused_model
        path = tmp_path / "m.swcn"
        save_model(model, path)
        raw = path.read_bytes()
        entries = raw[35:BASE_W_AT]  # the base vocabulary's entries
        second = raw.index(entries, BASE_W_AT)
        for cut in (second, second + 1, second + len(entries) // 2, second + len(entries) - 1):
            path.write_bytes(raw[:cut])
            with pytest.raises(DataError, match=r"m\.swcn: truncated container"):
                load_model(path)


def _oversize(path, header_len, vocab, field):
    """Rewrite one size field of the first embedding block to 0xFFFFFFFF.

    ``header_len`` is the byte count before the block: 9 for an embedding
    container, 25 for a model container.
    """
    vocab_at = header_len + 10  # after representation, region size, kind, size
    matrix_at = vocab_at + sum(12 + len(tok.encode("utf-8")) for tok, _ in vocab.entries)
    raw = bytearray(path.read_bytes())
    if field == "matrix":
        assert struct.unpack_from("<II", raw, matrix_at) == (2, len(vocab))
        raw[matrix_at:matrix_at + 8] = b"\xff" * 8
    else:
        assert struct.unpack_from("<I", raw, vocab_at) == (len(vocab.entries[0][0]),)
        raw[vocab_at:vocab_at + 4] = b"\xff" * 4
    path.write_bytes(bytes(raw))


@pytest.mark.parametrize("field", ["matrix", "vocabulary entry"])
@pytest.mark.parametrize("kind", ["embedding", "model"])
def test_oversized_size_field_is_truncation(tmp_path, kind, field):
    vocab = word_vocab(3)
    emb = RegionEmbedding(spec=RegionSpec(BOW_WORD, 2, 3), vocab=vocab,
                          W=np.zeros((3, 2)), b=np.zeros(2))
    path = tmp_path / "big.swcn"
    if kind == "embedding":
        save_embedding(emb, path)
        _oversize(path, 9, vocab, field)
        load = load_embedding
    else:
        model = ShallowModel(base=emb, tvs=(), pooling_k=1,
                             top_W=np.zeros((2, 2)), top_b=np.zeros(2), dropout_rate=0.0)
        save_model(model, path)
        _oversize(path, 25, vocab, field)
        load = load_model
    with pytest.raises(DataError, match=r"big\.swcn: truncated container"):
        load(path)


# Model container offsets: pooling_k at 9; the base block starts at 25 with
# the representation code, then region size (26), vocabulary kind code (30).
@pytest.mark.parametrize("offset,fmt,value,message", [
    (9, "<I", 0, "pooling_k must be >= 1"),
    (26, "<I", 0, "region_size must be >= 1"),
    (26, "<I", 2, "W has 75 columns, spec input dim is 50"),
    (25, "<B", 2, "W has 75 columns, spec input dim is 25"),  # bow-ngram123
    (30, "<B", 1, "concat-one-hot needs a vocabulary of kind word, got kind ngram123"),
])
def test_header_disagreeing_with_weights_names_file(fused_model, tmp_path, offset, fmt,
                                                    value, message):
    _, model = fused_model
    path = tmp_path / "m.swcn"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from(fmt, raw, offset)[0] != value
    struct.pack_into(fmt, raw, offset, value)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=rf"m\.swcn: {message}"):
        load_model(path)


@pytest.mark.parametrize("field", ["rows", "cols"])
@pytest.mark.parametrize("version", [1, 2])
def test_zero_sized_W_header_is_a_data_error(fused_model, tmp_path, version, field):
    _, model = fused_model
    path = tmp_path / "m.swcn"
    write_model(model, path, version)
    raw = bytearray(path.read_bytes())
    assert struct.unpack_from("<II", raw, BASE_W_AT) == (7, 75)
    struct.pack_into("<I", raw, BASE_W_AT + (0 if field == "rows" else 4), 0)
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match=r"m\.swcn: "):
        load_model(path)


@pytest.mark.parametrize("version", [1, 2])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.integers(min_value=0), st.integers(min_value=-1, max_value=255))
@example(offset=9, byte=0)  # pooling_k 2 -> 0
@example(offset=26, byte=2)  # base region size 3 -> 2
@example(offset=30, byte=1)  # base vocabulary kind word -> ngram123
@example(offset=BASE_W_AT, byte=0)  # base W rows 7 -> 0
@example(offset=BASE_W_AT + 4, byte=0)  # base W columns 75 -> 0
@example(offset=0, byte=-1)  # an empty file, which cannot be mapped
def test_corrupt_container_is_a_model_or_a_data_error(fused_model, tmp_path, version, offset,
                                                      byte):
    """Cut the container at ``offset``, or (``byte`` >= 0) overwrite one byte."""
    _, model = fused_model
    path = tmp_path / "m.swcn"
    write_model(model, path, version)
    write_corrupted(path, path.read_bytes(), offset, byte)
    try:
        loaded = load_model(path)
    except DataError as exc:
        assert "m.swcn" in str(exc)
    else:
        assert isinstance(loaded, ShallowModel)


@pytest.mark.parametrize("where", ["empty file", "tv vocabulary entry", "top_b"])
@pytest.mark.parametrize("version", [1, 2])
def test_cut_container_is_truncated(fused_model, tmp_path, version, where):
    _, model = fused_model
    path = tmp_path / "m.swcn"
    write_model(model, path, version)
    raw = path.read_bytes()
    # "g7 x" occurs only in the second tv's vocabulary; top_b ends the file
    cut = {"empty file": 0, "tv vocabulary entry": raw.index(b"g7 x") + 2,
           "top_b": len(raw) - 1}[where]
    path.write_bytes(raw[:cut])
    with pytest.raises(DataError, match=r"m\.swcn: truncated container"):
        load_model(path)


def test_loaded_model_outlives_its_path(fused_model, tmp_path):
    """A load maps the file it opened, so replacing or removing its path
    afterwards leaves the loaded weights as they were."""
    _, model = fused_model
    path, other = tmp_path / "m.swcn", tmp_path / "other.swcn"
    save_model(model, path)
    loaded = load_model(path)
    rng = np.random.default_rng(4)
    docs = [prepare_document(model.views,
                             [f"w{int(rng.integers(30))}" for _ in range(int(rng.integers(0, 15)))])
            for _ in range(20)]
    before = [forward(loaded, doc)[0].tobytes() for doc in docs]
    for W in weights(model):
        W *= -2.0
    save_model(model, other)
    os.replace(other, path)
    path.unlink()
    assert [forward(loaded, doc)[0].tobytes() for doc in docs] == before


def test_bad_magic(tmp_path):
    path = tmp_path / "junk.swcn"
    path.write_bytes(b"NOPE" + b"\x00" * 64)
    with pytest.raises(DataError, match="magic"):
        load_model(path)


def test_version_mismatch(fused_model, tmp_path):
    _, model = fused_model
    path = tmp_path / "m.swcn"
    save_model(model, path)
    raw = bytearray(path.read_bytes())
    raw[4:8] = (FORMAT_VERSION + 1).to_bytes(4, "little")
    path.write_bytes(bytes(raw))
    with pytest.raises(DataError, match="version"):
        load_model(path)


def test_kind_mismatch(fused_model, tmp_path):
    _, model = fused_model
    path = tmp_path / "m.swcn"
    save_model(model, path)
    with pytest.raises(DataError, match="holds model, expected embedding"):
        load_embedding(path)


def test_truncated_container(fused_model, tmp_path):
    _, model = fused_model
    path = tmp_path / "m.swcn"
    save_model(model, path)
    clipped = path.read_bytes()[:50]
    path.write_bytes(clipped)
    with pytest.raises(DataError, match="truncated"):
        load_model(path)


def test_missing_file():
    with pytest.raises(DataError):
        load_model("/nonexistent/model.swcn")


def test_magic_bytes_value(fused_model, tmp_path):
    _, model = fused_model
    path = tmp_path / "m.swcn"
    save_model(model, path)
    assert path.read_bytes()[:4] == MAGIC == b"SWCN"


def test_inference_on_a_mapped_W_copies_no_W(tmp_path):
    """Answering from a loaded container reads W's rows, not a copy of W.

    The container puts W at a byte offset that is not a multiple of 8, as
    vocabularies of real words do, where ``W.take`` would copy all of W.
    """
    import tracemalloc

    n_words, d = 4000, 100
    vocab = Vocabulary(kind="word", entries=tuple((f"w{i}", n_words - i) for i in range(n_words)))
    template = ModelTemplate(base_vocab=vocab, n_classes=2)
    model = init_model(template, RunConfig(region_size=3, embed_dim=d, pooling_k=2),
                       np.random.default_rng(2))
    path = tmp_path / "wide.swcn"
    save_model(model, path)
    W_bytes = model.base.W.nbytes
    assert W_bytes >= 8 << 20
    rng = np.random.default_rng(3)
    docs = [[f"w{int(i)}" for i in rng.integers(0, n_words + 50, size=60)] for _ in range(5)]
    tracemalloc.start()
    try:
        loaded = load_model(path)
        assert loaded.base.W.ctypes.data % 8 != 0
        for tokens in docs:
            forward(loaded, prepare_document(loaded.views, tokens))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < W_bytes / 4, f"peak {peak} bytes for a {W_bytes}-byte W"
