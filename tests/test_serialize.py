import struct

import numpy as np
import pytest

from helpers import word_vocab
from swcnn.errors import DataError
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
from swcnn.train import ModelTemplate, TrainConfig, init_model


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
            W=np.asfortranarray(rng.normal(size=(4, spec.input_dim))),
            b=rng.normal(size=4)))
    template = ModelTemplate(base_vocab=vocab, n_classes=3, region_size=3,
                             embed_dim=7, pooling_k=2, tv_embeddings=tuple(tvs))
    model = init_model(template, TrainConfig(init_std=0.3, epochs=1, decay_epoch=1), rng)
    return template, model


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
                          W=np.asfortranarray(rng.normal(size=(3, 10))),
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


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_model_weights_rejected(fused_model, tmp_path, value):
    _, model = fused_model
    model.tvs[0].fusion[1, 0] = value
    path = tmp_path / "m.swcn"
    save_model(model, path)
    with pytest.raises(DataError, match=r"m\.swcn: non-finite value"):
        load_model(path)


def test_non_finite_embedding_weights_rejected(tmp_path):
    emb = RegionEmbedding(spec=RegionSpec(BOW_WORD, 2, 3), vocab=word_vocab(3),
                          W=np.zeros((2, 3)), b=np.array([0.0, np.nan]))
    path = tmp_path / "tv.swcn"
    save_embedding(emb, path)
    with pytest.raises(DataError, match=r"tv\.swcn: non-finite value"):
        load_embedding(path)


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
                          W=np.zeros((2, 3)), b=np.zeros(2))
    path = tmp_path / "big.swcn"
    if kind == "embedding":
        save_embedding(emb, path)
        _oversize(path, 9, vocab, field)
        load = load_embedding
    else:
        model = ShallowModel(base=emb, tvs=(), pooling_k=1,
                             top_W=np.zeros((2, 2)), top_b=np.zeros(2))
        save_model(model, path)
        _oversize(path, 25, vocab, field)
        load = load_model
    with pytest.raises(DataError, match=r"big\.swcn: truncated container"):
        load(path)


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
    with pytest.raises(DataError, match="expected embedding"):
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
