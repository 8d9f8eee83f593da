"""Versioned binary containers for models and two-view embeddings.

Layout (all integers little-endian):

    magic "SWCN" | u32 version | u8 kind (0 model, 1 embedding)

    embedding block :=
        u8 representation | u32 region_size |
        u8 vocab kind | u32 vocab size |
        per entry: u32 byte length, UTF-8 token, u64 frequency |
        W weights | b vector

    weights := u32 rows | u32 cols | rows*cols f64 column-major
               (W.T row-major, the order the sweep gathers columns in)
    matrix  := u32 rows | u32 cols | rows*cols f64 row-major
    vector  := u32 dim  | dim f64

    model container (kind 0) :=
        u32 pooling_k | u32 n_classes | f64 dropout |
        base embedding block |
        u32 n_tvs | per tv: embedding block, fusion matrix |
        top_W matrix | top_b vector

    embedding container (kind 1) := embedding block

This is version 2, the only version written.  Version 1 differs in the
version field and in storing each W row-major (as a matrix); the two
give a model the same byte count.  There is no alignment padding.

A version 2 W is mapped read-only from the open file, with no copy: it
is a plain F-ordered ndarray over the map that raises on a write.  A
version 1 W is copied from the same map into column-major memory.
Round-trips are bitwise exact; files are written atomically
(``data.atomic_write``), never in place.  Weights that are not finite
are rejected on load; the scan that checks a mapped W also makes its
pages resident.
"""

from __future__ import annotations

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

_REP_CODES = {CONCAT: 0, BOW_WORD: 1, BOW_NGRAM: 2}
_REP_NAMES = {v: k for k, v in _REP_CODES.items()}
_VOCAB_CODES = {WORD: 0, NGRAM123: 1}
_VOCAB_NAMES = {v: k for k, v in _VOCAB_CODES.items()}


def _write_matrix(out, arr: np.ndarray, order: str = "C") -> None:
    """``arr``'s shape, then its values in ``order`` ("F": ``arr.T`` row-major)."""
    rows, cols = arr.shape
    out.write(struct.pack("<II", rows, cols))
    out.write(np.ascontiguousarray(arr.T if order == "F" else arr, dtype="<f8"))


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
    _write_matrix(out, emb.W, order="F")
    _write_vector(out, emb.b)


class _Reader:
    def __init__(self, stream, path):
        self.stream = stream
        self.path = path
        self.left = os.fstat(stream.fileno()).st_size
        self.version = 0
        self._map = None

    def _reserve(self, n: int) -> None:
        # a size field is checked against the file before anything is
        # allocated or mapped for it, so a corrupt header cannot ask for terabytes
        if n > self.left:
            raise DataError(f"{self.path}: truncated container")
        self.left -= n

    def read(self, n: int) -> bytes:
        self._reserve(n)
        buf = self.stream.read(n)
        if len(buf) != n:
            raise DataError(f"{self.path}: truncated container")
        return buf

    def mapped(self, count: int) -> np.ndarray:
        """The next ``count`` f64 values as a read-only view of the file."""
        self._reserve(8 * count)
        offset = self.stream.tell()
        self.stream.seek(8 * count, os.SEEK_CUR)
        if self._map is None:
            # maps the file already open, not its path, which may have been replaced
            self._map = mmap.mmap(self.stream.fileno(), 0, access=mmap.ACCESS_READ)
        return np.frombuffer(self._map, dtype="<f8", count=count, offset=offset)

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.read(struct.calcsize(fmt)))


def _finite(r: _Reader, arr: np.ndarray) -> np.ndarray:
    # min and max propagate NaN and, unlike an isfinite mask, make no
    # full-size temporary
    if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
        raise DataError(f"{r.path}: non-finite value in a {arr.shape} weight array")
    return arr


def _read_matrix(r: _Reader) -> np.ndarray:
    rows, cols = r.unpack("<II")
    data = np.frombuffer(r.read(8 * rows * cols), dtype="<f8").reshape(rows, cols)
    # one copy makes the array writable and native
    return _finite(r, np.array(data, dtype=np.float64))


def _read_weights(r: _Reader) -> np.ndarray:
    """An embedding's W, column-major so the sweep's column gathers stay contiguous."""
    rows, cols = r.unpack("<II")
    values = r.mapped(rows * cols)
    if r.version == 1:
        W = np.array(values.reshape(rows, cols), dtype=np.float64, order="F")
    else:
        W = values.reshape(cols, rows).T
    return _finite(r, W)


def _read_vector(r: _Reader) -> np.ndarray:
    (dim,) = r.unpack("<I")
    return _finite(r, np.frombuffer(r.read(8 * dim), dtype="<f8").astype(np.float64))


def _build(r: _Reader, cls, **fields):
    """``cls(**fields)``, where a rejected combination is a corrupt container.

    A header can disagree with the weights that follow it, or name a
    representation that does not read its vocabulary.
    """
    try:
        return cls(**fields)
    except ValueError as exc:
        raise DataError(f"{r.path}: {exc}") from None


def _read_embedding(r: _Reader) -> RegionEmbedding:
    rep_code, region_size = r.unpack("<BI")
    if rep_code not in _REP_NAMES:
        raise DataError(f"{r.path}: unknown representation code {rep_code}")
    vocab_code, vocab_size = r.unpack("<BI")
    if vocab_code not in _VOCAB_NAMES:
        raise DataError(f"{r.path}: unknown vocabulary code {vocab_code}")
    entries = []
    for i in range(vocab_size):
        (token_len,) = r.unpack("<I")
        try:
            token = r.read(token_len).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{r.path}: vocabulary entry {i}: not valid UTF-8") from None
        (freq,) = r.unpack("<Q")
        entries.append((token, freq))
    vocab = Vocabulary(kind=_VOCAB_NAMES[vocab_code], entries=tuple(entries))
    spec = _build(
        r, RegionSpec,
        representation=_REP_NAMES[rep_code], region_size=region_size, vocab_size=vocab_size,
    )
    W = _read_weights(r)
    b = _read_vector(r)
    return _build(r, RegionEmbedding, spec=spec, vocab=vocab, W=W, b=b)


def _check_header(r: _Reader, expect_kind: int) -> None:
    magic = r.read(4)
    if magic != MAGIC:
        raise DataError(f"{r.path}: not a SWCN container (bad magic {magic!r})")
    (r.version,) = r.unpack("<I")
    if not 1 <= r.version <= FORMAT_VERSION:
        raise DataError(
            f"{r.path}: unsupported container version {r.version} (expected 1 to {FORMAT_VERSION})"
        )
    (kind,) = r.unpack("<B")
    if kind != expect_kind:
        found = "embedding" if kind == KIND_EMBEDDING else f"kind {kind}"
        want = "model" if expect_kind == KIND_MODEL else "embedding"
        raise DataError(f"{r.path}: container holds {found}, expected {want}")


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


def _open(path, what: str):
    try:
        return open(path, "rb")
    except OSError as exc:
        raise DataError(f"cannot open {what} container: {exc}") from exc


def load_model(path) -> ShallowModel:
    with _open(path, "model") as stream:
        r = _Reader(stream, path)
        _check_header(r, KIND_MODEL)
        pooling_k, n_classes, dropout = r.unpack("<IId")
        base = _read_embedding(r)
        (n_tvs,) = r.unpack("<I")
        tvs = []
        for _ in range(n_tvs):
            emb = _read_embedding(r)
            fusion = _read_matrix(r)
            tvs.append(_build(r, TvEmbedding, embedding=emb, fusion=fusion))
        top_W = _read_matrix(r)
        top_b = _read_vector(r)
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
    with _open(path, "embedding") as stream:
        r = _Reader(stream, path)
        _check_header(r, KIND_EMBEDDING)
        return _read_embedding(r)
