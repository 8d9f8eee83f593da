"""Versioned binary containers for models and two-view embeddings.

Layout (all integers little-endian):

    magic "SWCN" | u32 version | u8 kind (0 model, 1 embedding)

    embedding block :=
        u8 representation | u32 region_size |
        u8 vocab kind | u32 vocab size |
        per entry: u32 byte length, UTF-8 token, u64 frequency |
        W weights | b vector

    weights := u32 d | u32 input_dim | input_dim*d f64, W's rows in turn
               (the paper's (d, input_dim) W column-major)
    matrix  := u32 rows | u32 cols | rows*cols f64 row-major
    vector  := u32 dim  | dim f64

    model container (kind 0) :=
        u32 pooling_k | u32 n_classes | f64 dropout |
        base embedding block |
        u32 n_tvs | per tv: embedding block, fusion matrix |
        top_W matrix | top_b vector

    embedding container (kind 1) := embedding block

This is version 2, the only version written.  Version 1 differs in the
version field and in storing each W's (d, input_dim) values row-major;
the two give a model the same byte count.  There is no alignment padding.

A load maps the whole file read-only and closes it again; one cursor
then walks the map, and every size field is checked against the bytes
left before anything is sliced, viewed or allocated for it.  A version
2 W is a view of the map, with no copy: a plain C-ordered ndarray that
raises on a write.  A version 1 W, and every other tensor, is copied
from the map.  Round-trips are bitwise exact; files are written
atomically (``data.atomic_write``), never in place.

``load_model`` checks every tensor but the embeddings' W for NaN and
infinity, for both versions.  Scanning a mapped W would make all its
pages resident before the first document, which reads a few of its
rows; inference (``model.forward``) checks the rows each document
gathers instead.  ``load_embedding`` checks W in full, since training
on a tv embedding reads it throughout.

A vocabulary block that repeats an earlier block of the same container
byte for byte (a tv over the base's word vocabulary) is not parsed
again: the loaded embeddings share one ``Vocabulary``.
"""

from __future__ import annotations

import math
import mmap
import os
import struct

import numpy as np

from swcnn.data import atomic_write
from swcnn.errors import DataError
from swcnn.model import RegionEmbedding, ShallowModel, TvEmbedding
from swcnn.textpipe import (
    BOW_NGRAM,
    BOW_WORD,
    CONCAT,
    NGRAM123,
    WORD,
    RegionSpec,
    Vocabulary,
)

MAGIC = b"SWCN"
FORMAT_VERSION = 2
KIND_MODEL = 0
KIND_EMBEDDING = 1
_KIND_NAMES = {KIND_MODEL: "model", KIND_EMBEDDING: "embedding"}

_REP_CODES = {CONCAT: 0, BOW_WORD: 1, BOW_NGRAM: 2}
_REP_NAMES = {v: k for k, v in _REP_CODES.items()}
_VOCAB_CODES = {WORD: 0, NGRAM123: 1}
_VOCAB_NAMES = {v: k for k, v in _VOCAB_CODES.items()}


def _write_matrix(out, arr: np.ndarray) -> None:
    out.write(struct.pack("<II", *arr.shape))
    out.write(np.ascontiguousarray(arr, dtype="<f8"))


def _write_vector(out, arr: np.ndarray) -> None:
    out.write(struct.pack("<I", arr.shape[0]))
    out.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _write_embedding(out, emb: RegionEmbedding) -> None:
    out.write(struct.pack("<BI", _REP_CODES[emb.spec.representation], emb.spec.region_size))
    out.write(struct.pack("<BI", _VOCAB_CODES[emb.vocab.kind], len(emb.vocab)))
    for token, freq in emb.vocab.entries:
        raw = token.encode("utf-8")
        out.write(struct.pack("<I", len(raw)))
        out.write(raw)
        out.write(struct.pack("<Q", freq))
    out.write(struct.pack("<II", *emb.W.shape[::-1]))  # the paper's (d, input_dim)
    out.write(np.ascontiguousarray(emb.W, dtype="<f8"))
    _write_vector(out, emb.b)


class _Reader:
    """One read-only map of a container and a cursor into it."""

    def __init__(self, buf, path):
        self.buf = buf
        self.path = path
        self.pos = 0
        self.version = 0
        # (vocab code, size) -> (start, end, Vocabulary) of the first such block
        self.vocabs: dict[tuple[int, int], tuple[int, int, Vocabulary]] = {}

    def _take(self, n: int) -> int:
        # a size field is checked against the bytes left before anything is
        # allocated or viewed for it, so a corrupt header cannot ask for terabytes
        start = self.pos
        if n > len(self.buf) - start:
            raise DataError(f"{self.path}: truncated container")
        self.pos = start + n
        return start

    def unpack(self, fmt: str):
        return struct.unpack_from(fmt, self.buf, self._take(struct.calcsize(fmt)))

    def mapped(self, count: int) -> np.ndarray:
        """The next ``count`` f64 values as a read-only view of the file."""
        return np.frombuffer(self.buf, dtype="<f8", count=count, offset=self._take(8 * count))


def _finite(r: _Reader, arr: np.ndarray) -> np.ndarray:
    # min and max propagate NaN and, unlike an isfinite mask, make no
    # full-size temporary
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise DataError(f"{r.path}: non-finite value in a {arr.shape} weight array")
    return arr


def _read_array(r: _Reader, shape: tuple) -> np.ndarray:
    """A row-major matrix or a vector after its ``shape`` header, as a writable copy."""
    return _finite(r, np.array(r.mapped(math.prod(shape)).reshape(shape), dtype=np.float64))


def _read_weights(r: _Reader) -> np.ndarray:
    """An embedding's W as its (input_dim, d) row table, after the (d, input_dim) header."""
    rows, cols = r.unpack("<II")
    values = r.mapped(rows * cols)
    if r.version == 1:
        return np.array(values.reshape(rows, cols).T, dtype=np.float64, order="C")
    return values.reshape(cols, rows)


def _build(r: _Reader, cls, **fields):
    """``cls(**fields)``, where a rejected combination is a corrupt container.

    A header can disagree with the weights that follow it, or name a
    representation that does not read its vocabulary.
    """
    try:
        return cls(**fields)
    except ValueError as exc:
        raise DataError(f"{r.path}: {exc}") from None


def _read_vocabulary(r: _Reader) -> Vocabulary:
    vocab_code, vocab_size = r.unpack("<BI")
    if vocab_code not in _VOCAB_NAMES:
        raise DataError(f"{r.path}: unknown vocabulary code {vocab_code}")
    buf, pos, end = r.buf, r.pos, len(r.buf)
    seen = r.vocabs.get((vocab_code, vocab_size))
    if seen is not None:
        first, last, vocab = seen
        if buf[pos : pos + last - first] == buf[first:last]:  # the same entry bytes
            r.pos = pos + last - first
            return vocab
    start = pos
    entries = []
    index: dict[str, int] = {}
    for i in range(vocab_size):
        # u32 length, token, u64 frequency: the length is checked before the
        # token is sliced, so an oversized one reads as truncation
        if end - pos < 4:
            raise DataError(f"{r.path}: truncated container")
        (token_len,) = struct.unpack_from("<I", buf, pos)
        pos += 4
        if token_len + 8 > end - pos:
            raise DataError(f"{r.path}: truncated container")
        try:
            token = buf[pos : pos + token_len].decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{r.path}: vocabulary entry {i}: not valid UTF-8") from None
        pos += token_len
        if token in index:
            raise DataError(f"{r.path}: vocabulary entry {i}: duplicate token {token!r} "
                            f"(first at entry {index[token]})")
        index[token] = i
        entries.append((token, struct.unpack_from("<Q", buf, pos)[0]))
        pos += 8
    r.pos = pos
    vocab = Vocabulary(kind=_VOCAB_NAMES[vocab_code], entries=tuple(entries), index=index)
    r.vocabs.setdefault((vocab_code, vocab_size), (start, pos, vocab))
    return vocab


def _read_embedding(r: _Reader) -> RegionEmbedding:
    rep_code, region_size = r.unpack("<BI")
    if rep_code not in _REP_NAMES:
        raise DataError(f"{r.path}: unknown representation code {rep_code}")
    vocab = _read_vocabulary(r)
    spec = _build(
        r, RegionSpec,
        representation=_REP_NAMES[rep_code], region_size=region_size, vocab_size=len(vocab),
    )
    W = _read_weights(r)
    b = _read_array(r, r.unpack("<I"))
    return _build(r, RegionEmbedding, spec=spec, vocab=vocab, W=W, b=b)


def _open(path, kind: int) -> _Reader:
    """A reader past the header of the ``kind`` container at ``path``.

    The file is mapped and closed again; the map keeps the file's pages
    even if its path is later replaced or removed.
    """
    what = _KIND_NAMES[kind]
    try:
        with open(path, "rb") as stream:
            # an empty file cannot be mapped; it is read as a truncated one
            size = os.fstat(stream.fileno()).st_size
            buf = mmap.mmap(stream.fileno(), 0, access=mmap.ACCESS_READ) if size else b""
    except OSError as exc:
        raise DataError(f"cannot open {what} container: {exc}") from exc
    r = _Reader(buf, path)
    (magic,) = r.unpack("<4s")
    if magic != MAGIC:
        raise DataError(f"{path}: not a SWCN container (bad magic {magic!r})")
    (r.version,) = r.unpack("<I")
    if not 1 <= r.version <= FORMAT_VERSION:
        raise DataError(
            f"{path}: unsupported container version {r.version} (expected 1 to {FORMAT_VERSION})"
        )
    (found,) = r.unpack("<B")
    if found != kind:
        found = _KIND_NAMES.get(found, f"kind {found}")
        raise DataError(f"{path}: container holds {found}, expected {what}")
    return r


def save_model(model: ShallowModel, path) -> None:
    def body(out):
        out.write(MAGIC)
        out.write(struct.pack("<IB", FORMAT_VERSION, KIND_MODEL))
        out.write(struct.pack("<IId", model.pooling_k, model.n_classes, model.dropout_rate))
        _write_embedding(out, model.base)
        out.write(struct.pack("<I", len(model.tvs)))
        for tv in model.tvs:
            _write_embedding(out, tv.embedding)
            _write_matrix(out, tv.fusion)
        _write_matrix(out, model.top_W)
        _write_vector(out, model.top_b)

    atomic_write(path, body, binary=True)


def load_model(path) -> ShallowModel:
    r = _open(path, KIND_MODEL)
    pooling_k, n_classes, dropout = r.unpack("<IId")
    # each W is checked where forward gathers it, not here
    base = _read_embedding(r)
    (n_tvs,) = r.unpack("<I")
    tvs = []
    for _ in range(n_tvs):
        emb = _read_embedding(r)
        fusion = _read_array(r, r.unpack("<II"))
        tvs.append(_build(r, TvEmbedding, embedding=emb, fusion=fusion))
    top_W = _read_array(r, r.unpack("<II"))
    top_b = _read_array(r, r.unpack("<I"))
    if top_W.shape[0] != n_classes:
        raise DataError(f"{path}: inconsistent class count")
    return _build(
        r, ShallowModel,
        base=base,
        tvs=tuple(tvs),
        pooling_k=pooling_k,
        top_W=top_W,
        top_b=top_b,
        dropout_rate=dropout,
    )


def save_embedding(emb: RegionEmbedding, path) -> None:
    def body(out):
        out.write(MAGIC)
        out.write(struct.pack("<IB", FORMAT_VERSION, KIND_EMBEDDING))
        _write_embedding(out, emb)

    atomic_write(path, body, binary=True)


def load_embedding(path) -> RegionEmbedding:
    r = _open(path, KIND_EMBEDDING)
    emb = _read_embedding(r)
    # training on a tv embedding reads its W throughout, so all of it is checked
    _finite(r, emb.W)
    return emb
