"""The shallow word-level CNN: region sweep, fusion, pooling, top layer.

A document of L tokens yields R = max(1, L - p + 1) region positions for
base region size p.  Each position produces a feature vector

    h = relu(W x + sum_i F_i relu(W_i x_i + b_i) + b)

where x is the sparse base representation of the region and each optional
two-view embedding i contributes its frozen output on its own view x_i of
the same position (the fusion matrices F_i are trained, the embeddings
W_i, b_i are not).  The R region vectors are max-pooled into k units
(unit u covers positions [floor(u*R/k), floor((u+1)*R/k)), empty units
emit zeros), concatenated, passed through inverted dropout in train mode,
and mapped to class scores by a linear layer.

For speed the sweep is organized around "slot incidence" lists: per view,
each slot of the representation (one per region-local position, or one
per (n-gram-length, offset) pair) stores which region rows receive which
weight columns, so a document's whole sweep is a handful of vectorized
gather-adds instead of a Python loop over positions.

``prepare_document`` is the one step from tokens to slot incidence (the
paper's "input vector generation"): it encodes the tokens against every
view and returns a ``PreparedDoc``.  ``prepare_labeled`` does the same
over (tokens, label) pairs and rejects labels outside the model's
classes.  Training, validation, evaluation, timing and prediction all
run ``forward`` on ``PreparedDoc``s.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from swcnn.errors import DataError
from swcnn.kernels import relu
from swcnn.textpipe import (
    BOW_NGRAM,
    CONCAT,
    OOV,
    EncodedDocument,
    RegionSpec,
    Vocabulary,
    encode,
    region_count,
)


@dataclass
class RegionEmbedding:
    """An affine map over one sparse region view, with its vocabulary."""

    spec: RegionSpec
    vocab: Vocabulary
    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        d, n = self.W.shape
        if n != self.spec.input_dim:
            raise ValueError(f"W has {n} columns, spec input dim is {self.spec.input_dim}")
        if self.b.shape != (d,):
            raise ValueError("bias does not match W")
        if len(self.vocab) != self.spec.vocab_size:
            raise ValueError("vocabulary size does not match spec")

    @property
    def dim(self) -> int:
        return self.W.shape[0]


@dataclass
class TvEmbedding:
    """A frozen two-view region embedding plus its trained fusion matrix."""

    embedding: RegionEmbedding
    fusion: np.ndarray

    def __post_init__(self):
        if self.fusion.shape[1] != self.embedding.dim:
            raise ValueError("fusion column count must equal the embedding dimension")


@dataclass
class ShallowModel:
    base: RegionEmbedding
    tvs: tuple[TvEmbedding, ...]
    pooling_k: int
    top_W: np.ndarray
    top_b: np.ndarray
    dropout_rate: float = 0.5

    def __post_init__(self):
        self.tvs = tuple(self.tvs)
        if self.pooling_k < 1:
            raise ValueError("pooling_k must be >= 1")
        n_classes, feat = self.top_W.shape
        if feat != self.base.dim * self.pooling_k:
            raise ValueError("top layer input dimension must be base dim * pooling_k")
        if self.top_b.shape != (n_classes,):
            raise ValueError("top bias does not match top weights")
        for tv in self.tvs:
            if tv.fusion.shape[0] != self.base.dim:
                raise ValueError("fusion rows must equal the base embedding dimension")

    @property
    def n_classes(self) -> int:
        return self.top_W.shape[0]

    @property
    def views(self) -> list[tuple[RegionSpec, Vocabulary]]:
        out = [(self.base.spec, self.base.vocab)]
        out.extend((tv.embedding.spec, tv.embedding.vocab) for tv in self.tvs)
        return out

    def trainable_params(self) -> list[np.ndarray]:
        params = [self.base.W, self.base.b]
        params.extend(tv.fusion for tv in self.tvs)
        params.extend([self.top_W, self.top_b])
        return params


@dataclass
class PreparedView:
    # one (rows, cols) pair per slot: region row `rows[j]` receives weight
    # column `cols[j]` with coefficient 1
    slots: list[tuple[np.ndarray, np.ndarray]]
    input_dim: int


@dataclass
class PreparedDoc:
    label: int
    n_regions: int
    views: tuple[PreparedView, ...]


def view_ids(enc: EncodedDocument, spec: RegionSpec) -> np.ndarray:
    """The ids a view's slots read: (L,) token ids, or (L, 3) n-gram ids."""
    if spec.representation != BOW_NGRAM:
        return np.asarray(enc.ids, dtype=np.int64)
    if enc.ngram_ids is None:
        raise ValueError("bow-ngram123 views need an n-gram encoded document")
    return np.asarray(enc.ngram_ids, dtype=np.int64).reshape(len(enc.ids), 3)


def _view_slots(ids: np.ndarray, spec: RegionSpec, starts: np.ndarray, ends) -> PreparedView:
    """Slot incidence of the regions that start at token offsets ``starts``.

    ``ids`` is laid out as ``view_ids`` returns it, for one document or a
    concatenated corpus.  Region r becomes row r: it covers positions
    ``starts[r]`` to ``starts[r] + p - 1``, clipped to ``ends[r]`` (the end
    of its document; a scalar serves all regions).
    """
    p = spec.region_size
    if spec.representation == BOW_NGRAM:
        # slot (s, n): the n-gram that starts s into the region and fits in it
        shift, gram = np.array([(s, n - 1) for n in (1, 2, 3) for s in range(p - n + 1)]).T
    else:
        shift, gram = np.arange(p), np.zeros(p, dtype=np.int64)
        ids = ids[:, None]  # a single id column
    if len(ids) == 0:  # an empty document: nothing to gather
        return PreparedView(slots=[], input_dim=spec.input_dim)
    pos = starts + shift[:, None]  # (slots, regions)
    inside = pos < ends
    cols = ids[np.where(inside, pos, 0), gram[:, None]]
    known = inside & (cols != OOV)
    if spec.representation == CONCAT:
        cols += shift[:, None] * spec.vocab_size
    slots: list[tuple[np.ndarray, np.ndarray]] = []
    for slot_known, slot_cols in zip(known, cols):
        rows = slot_known.nonzero()[0]
        if len(rows):
            slots.append((rows, slot_cols[rows]))
    return PreparedView(slots=slots, input_dim=spec.input_dim)


def prepare_document(
    views: Sequence[tuple[RegionSpec, Vocabulary]], tokens: Sequence[str], label: int = 0
) -> PreparedDoc:
    """Encode one document against every view and precompute its slot incidence.

    This is the "input vector generation" step: after it, a forward pass
    touches only weight gathers, adds and the top layer.  ``views`` is
    ``ShallowModel.views``; the first view's region size sets the number
    of region positions.
    """
    n_regions = region_count(len(tokens), views[0][0].region_size)
    starts = np.arange(n_regions)
    prepared = tuple(
        _view_slots(view_ids(encode(tokens, vocab), spec), spec, starts, len(tokens))
        for spec, vocab in views
    )
    return PreparedDoc(label=label, n_regions=n_regions, views=prepared)


def prepare_labeled(model: ShallowModel, samples: Iterable) -> Iterator[PreparedDoc]:
    """``prepare_document`` over (tokens, label) pairs with 0-based labels.

    Documents are prepared as they are consumed; a label outside
    ``[0, n_classes)`` raises ``DataError``.
    """
    views = model.views
    for tokens, label in samples:
        if not 0 <= label < model.n_classes:
            raise DataError(f"label {label} outside [0, {model.n_classes})")
        yield prepare_document(views, tokens, label)


def embed_regions(W: np.ndarray, view: PreparedView, n_regions: int) -> np.ndarray:
    """Accumulate W x for every region position of one view, as (R, d)."""
    if W.shape[1] != view.input_dim:
        raise ValueError(f"view input dim {view.input_dim} does not match W")
    Wt = W.T
    Z = np.zeros((n_regions, W.shape[0]))
    for rows, cols in view.slots:
        Z[rows] += Wt[cols]
    return Z


def pooling_bounds(n_regions: int, k: int) -> list[tuple[int, int]]:
    return [(u * n_regions // k, (u + 1) * n_regions // k) for u in range(k)]


def max_pool(H: np.ndarray, k: int):
    """k-unit max pooling; returns (pooled (k, d), source rows (k, d)).

    Empty units emit zeros and row index -1.  Ties go to the earliest
    position so gradient routing is deterministic.
    """
    n_regions, d = H.shape
    pooled = np.zeros((k, d))
    rows = np.full((k, d), -1, dtype=np.int64)
    for u, (lo, hi) in enumerate(pooling_bounds(n_regions, k)):
        if hi > lo:
            block = H[lo:hi]
            arg = block.argmax(axis=0)
            pooled[u] = block[arg, np.arange(d)]
            rows[u] = lo + arg
    return pooled, rows


@dataclass
class ForwardCache:
    prep: PreparedDoc
    tv_outputs: list[np.ndarray]
    relu_mask: np.ndarray          # (R, d) bool, region pre-activation > 0
    pool_rows: np.ndarray          # (k, d) source row per pooled unit
    dropout_scale: np.ndarray | None  # (k*d,) 0 or 1/(1-rate), None in infer mode
    top_input: np.ndarray          # (k*d,) the vector the top layer saw


def forward(model: ShallowModel, doc: PreparedDoc, train: bool = False, rng=None):
    """Full forward pass over a prepared document; returns (logits, cache).

    In train mode a seeded ``rng`` must be supplied whenever the dropout
    rate is nonzero; the dropout mask is the only source of randomness.
    Inference applies no dropout and no scaling.
    """
    if len(doc.views) != 1 + len(model.tvs):
        raise ValueError("document views do not match the model")
    Z = embed_regions(model.base.W, doc.views[0], doc.n_regions)
    tv_outputs = []
    for tv, view in zip(model.tvs, doc.views[1:]):
        hidden = embed_regions(tv.embedding.W, view, doc.n_regions)
        hidden += tv.embedding.b
        np.maximum(hidden, 0.0, out=hidden)
        tv_outputs.append(hidden)
        Z += hidden @ tv.fusion.T
    Z += model.base.b
    H = relu(Z)
    pooled, pool_rows = max_pool(H, model.pooling_k)
    v = pooled.ravel()
    dropout_scale = None
    if train and model.dropout_rate > 0.0:
        if rng is None:
            raise ValueError("train-mode forward with dropout needs an rng")
        keep = rng.random(v.shape) >= model.dropout_rate
        dropout_scale = keep / (1.0 - model.dropout_rate)
        v = v * dropout_scale
    logits = model.top_W @ v + model.top_b
    cache = ForwardCache(
        prep=doc,
        tv_outputs=tv_outputs,
        relu_mask=H > 0.0,
        pool_rows=pool_rows,
        dropout_scale=dropout_scale,
        top_input=v,
    )
    return logits, cache


@dataclass
class ModelGrads:
    base_W: np.ndarray
    base_b: np.ndarray
    fusions: list[np.ndarray]
    top_W: np.ndarray
    top_b: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return [self.base_W, self.base_b, *self.fusions, self.top_W, self.top_b]

    def scale_(self, factor: float) -> None:
        for g in self.as_list():
            g *= factor


def zero_grads(model: ShallowModel) -> ModelGrads:
    return ModelGrads(
        base_W=np.zeros_like(model.base.W),
        base_b=np.zeros_like(model.base.b),
        fusions=[np.zeros_like(tv.fusion) for tv in model.tvs],
        top_W=np.zeros_like(model.top_W),
        top_b=np.zeros_like(model.top_b),
    )


def backward(model: ShallowModel, cache: ForwardCache, grad_logits: np.ndarray, out: ModelGrads | None = None) -> ModelGrads:
    """Exact gradients of the forward pass for all trainable parameters.

    Two-view embedding internals receive no gradient by construction.
    When ``out`` is given, gradients are accumulated into it in place.
    """
    if len(cache.prep.views) != 1 + len(model.tvs):
        raise ValueError("cache does not match the model")
    grads = out if out is not None else zero_grads(model)
    k = model.pooling_k
    d = model.base.dim
    v = cache.top_input
    grads.top_W += np.outer(grad_logits, v)
    grads.top_b += grad_logits
    dv = model.top_W.T @ grad_logits
    if cache.dropout_scale is not None:
        dv = dv * cache.dropout_scale
    dpool = dv.reshape(k, d)
    n_regions = cache.prep.n_regions
    dH = np.zeros((n_regions, d))
    col_range = np.arange(d)
    for u in range(k):
        rows = cache.pool_rows[u]
        valid = rows >= 0
        if valid.any():
            # (row, col) pairs are unique within a unit and units cover
            # disjoint position spans, so fancy += does not collide
            dH[rows[valid], col_range[valid]] += dpool[u][valid]
    dZ = np.where(cache.relu_mask, dH, 0.0)
    _scatter_embedding_grad(grads.base_W, dZ, cache.prep.views[0])
    grads.base_b += dZ.sum(axis=0)
    for df, tv_out in zip(grads.fusions, cache.tv_outputs):
        df += dZ.T @ tv_out
    return grads


def _scatter_embedding_grad(dW: np.ndarray, dZ: np.ndarray, view: PreparedView) -> None:
    dWt = dW.T
    for rows, cols in view.slots:
        # duplicate columns are possible across rows, add.at is unbuffered
        np.add.at(dWt, cols, dZ[rows])


def parameter_count(embed_dim, base_input_dim, tv_shapes, n_classes, pooling_k) -> int:
    """Total number of weights: base map, per-tv map and fusion, top layer.

    ``tv_shapes`` holds one (tv dimension, tv input dimension) pair per
    two-view embedding.  No weights are allocated.
    """
    total = embed_dim * base_input_dim + embed_dim
    for tv_dim, tv_input_dim in tv_shapes:
        total += tv_dim * tv_input_dim + tv_dim + embed_dim * tv_dim
    return total + n_classes * embed_dim * pooling_k + n_classes


def count_parameters(model: ShallowModel) -> int:
    tv_shapes = [(tv.embedding.dim, tv.embedding.spec.input_dim) for tv in model.tvs]
    return parameter_count(model.base.dim, model.base.spec.input_dim, tv_shapes,
                           model.n_classes, model.pooling_k)


def predict(model: ShallowModel, doc: PreparedDoc) -> int:
    """Class with the highest score; ties go to the lowest class index."""
    logits, _ = forward(model, doc, train=False)
    return int(np.argmax(logits))
