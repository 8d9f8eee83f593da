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

Pooling runs on the pre-activations and only the k pooled units are
rectified, which gives the same features since relu is monotone.
In train mode ``pool_rows`` holds each pooled value's source row, or -1
where the unit is empty or its maximum is not positive (the relu passes
no gradient).

For speed the sweep is organized around a "slot table" per view: each
slot of the representation (one per region-local position, or one per
(n-gram-length, offset) pair) is one int32 row holding, for every region,
the input column whose weights that region receives, or -1 for a hole (a
position outside the document, or an OOV token).  A document's whole
sweep is then a handful of row-aligned gathers and adds instead of a
Python loop over positions.  Inference pools by plain maxima; only
training finds each pooled value's source row.

``prepare_document`` is the one step from tokens to slot tables (the
paper's "input vector generation"): it encodes the tokens against every
view and returns a ``PreparedDoc``.  ``prepare_labeled`` does the same
over (tokens, label) pairs and rejects labels outside the model's
classes.  Training, validation, evaluation and timing run ``forward``
on ``PreparedDoc``s; ``predict`` prepares its document's tokens itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from swcnn.errors import DataError, NonFiniteWeights
from swcnn.textpipe import (
    BOW_NGRAM,
    CONCAT,
    OOV,
    RegionSpec,
    Vocabulary,
    encode,
    region_count,
)


@dataclass
class RegionEmbedding:
    """An affine map over one sparse region view, with its vocabulary.

    ``W`` is stored as the row table the sweep reads: an (input_dim, dim)
    array whose row c holds the weights of input column c, which is the
    paper's W transposed.  The vocabulary is of the kind the view's
    representation reads.  ``initial`` draws a fresh one, ``features``
    maps a view to relu(W x + b), and ``add_grad`` back-propagates a
    gradient of W x + b into W and b.
    """

    # features per draw: a whole cache line of each row of W, and no W-sized temporary
    DRAW_ROWS = 8

    spec: RegionSpec
    vocab: Vocabulary
    W: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        n, d = self.W.shape
        if n != self.spec.input_dim:
            raise ValueError(f"W has {n} columns, spec input dim is {self.spec.input_dim}")
        if self.b.shape != (d,):
            raise ValueError("bias does not match W")
        if len(self.vocab) != self.spec.vocab_size:
            raise ValueError("vocabulary size does not match spec")
        if self.vocab.kind != self.spec.vocab_kind:
            raise ValueError(
                f"{self.spec.representation} needs a vocabulary of kind "
                f"{self.spec.vocab_kind}, got kind {self.vocab.kind}"
            )

    @classmethod
    def initial(cls, spec: RegionSpec, vocab: Vocabulary, dim: int, std: float, rng) -> RegionEmbedding:
        """A fresh embedding: W then b drawn Gaussian(0, std^2) from ``rng``.

        W's values are drawn feature by feature, as one (dim, input_dim)
        draw of the paper's W takes them, straight into the row table.
        """
        W = np.empty((spec.input_dim, dim))
        for lo in range(0, dim, cls.DRAW_ROWS):
            hi = min(lo + cls.DRAW_ROWS, dim)
            W[:, lo:hi] = rng.normal(0.0, std, size=(hi - lo, spec.input_dim)).T
        return cls(spec=spec, vocab=vocab, W=W, b=rng.normal(0.0, std, size=dim))

    @property
    def dim(self) -> int:
        return self.W.shape[1]

    def features(self, view: PreparedView, check: str = "") -> np.ndarray:
        """relu(W x + b) for every region position of ``view``, as (R, dim).

        Given a view name to ``check``, a W x that is not finite raises
        ``NonFiniteWeights`` naming it; the check comes before the relu,
        which would turn a -inf into 0.
        """
        H = embed_regions(self.W, view)
        if check:
            _require_finite(H, check)
        H += self.b
        return np.maximum(H, 0.0, out=H)

    def add_grad(self, dZ: np.ndarray, view: PreparedView, dW: np.ndarray, db: np.ndarray,
                 position: np.ndarray) -> None:
        """Add the gradients of W and b, given dZ (R, dim) for W x + b, into dW and db.

        W's row c accumulates in row ``position[c]`` of dW.
        """
        _scatter_embedding_grad(dW, dZ, view, position)
        db += dZ.sum(axis=0)


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
    dropout_rate: float

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
    # (slots, regions) int32: region r receives the weights of input column
    # table[s, r] (row table[s, r] of W) with coefficient 1, or nothing at -1
    table: np.ndarray
    input_dim: int

    @property
    def slots(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """The table as one (rows, cols) pair of its non-hole entries per slot."""
        return [(hit.nonzero()[0], row[hit]) for row, hit in zip(self.table, self.table >= 0)]


@dataclass
class PreparedDoc:
    label: int
    views: tuple[PreparedView, ...]


def _view_slots(ids: np.ndarray, spec: RegionSpec, starts: np.ndarray, ends) -> PreparedView:
    """The slot table of the regions that start at token offsets ``starts``.

    ``ids`` is laid out as ``encode`` returns it, for one document or a
    concatenated corpus.  Region r becomes row r: it covers positions
    ``starts[r]`` to ``starts[r] + p - 1``, clipped to ``ends[r]`` (the end
    of its document; a scalar serves all regions).  Slots that are holes
    in every region are left out.
    """
    p = spec.region_size
    if spec.representation == BOW_NGRAM:
        # slot (s, n): the n-gram that starts s into the region and fits in it
        shift, gram = np.array([(s, n - 1) for n in (1, 2, 3) for s in range(p - n + 1)]).T
    else:
        shift, gram = np.arange(p), np.zeros(p, dtype=np.int64)
        ids = ids[:, None]  # a single id column
    if len(ids) == 0:  # an empty document: nothing to gather
        return PreparedView(table=np.empty((0, len(starts)), dtype=np.int32),
                            input_dim=spec.input_dim)
    pos = starts + shift[:, None]  # (slots, regions)
    inside = pos < ends
    cols = ids[np.where(inside, pos, 0), gram[:, None]]
    known = inside & (cols != OOV)
    if spec.representation == CONCAT:
        cols += shift[:, None] * spec.vocab_size
    table = np.where(known, cols, -1).astype(np.int32)
    return PreparedView(table=table[known.any(axis=1)], input_dim=spec.input_dim)


def prepare_document(
    views: Sequence[tuple[RegionSpec, Vocabulary]], tokens: Sequence[str], label: int = 0
) -> PreparedDoc:
    """Encode one document against every view and precompute its slot tables.

    This is the "input vector generation" step: after it, a forward pass
    touches only weight gathers, adds and the top layer.  ``views`` is
    ``ShallowModel.views``; the first view's region size sets the number
    of region positions.
    """
    starts = np.arange(region_count(len(tokens), views[0][0].region_size))
    prepared = tuple(
        _view_slots(encode(tokens, vocab), spec, starts, len(tokens))
        for spec, vocab in views
    )
    return PreparedDoc(label=label, views=prepared)


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


def embed_regions(W: np.ndarray, view: PreparedView) -> np.ndarray:
    """Accumulate W x for every region position of one view, as (R, d)."""
    if len(W) != view.input_dim:
        raise ValueError(f"view input dim {view.input_dim} does not match W")
    Z = np.zeros((view.table.shape[1], W.shape[1]))
    for cols in view.table:
        # fancy indexing, not take: take copies a mapped W that is not 8-byte aligned
        g = W[cols]
        g[cols < 0] = 0.0  # a hole adds +0.0: no bit of a sum begun at +0.0 changes
        Z += g
    return Z


def pooling_bounds(n_regions: int, k: int) -> list[tuple[int, int]]:
    return [(u * n_regions // k, (u + 1) * n_regions // k) for u in range(k)]


def max_pool(H: np.ndarray, k: int, rows: bool = True):
    """k-unit max pooling; returns (pooled (k, d), source rows (k, d) or None).

    Empty units emit zeros and row index -1.  Ties go to the earliest
    position so gradient routing is deterministic.  Without ``rows`` the
    units are plain maxima and no source row is found: the same values,
    except that a tie of -0.0 and +0.0 may give either zero.
    """
    n_regions, d = H.shape
    pooled = np.zeros((k, d))
    src = np.full((k, d), -1, dtype=np.int64) if rows else None
    for u, (lo, hi) in enumerate(pooling_bounds(n_regions, k)):
        if hi > lo:
            block = H[lo:hi]
            if src is None:
                np.max(block, axis=0, out=pooled[u])
            else:
                arg = block.argmax(axis=0)
                pooled[u] = block[arg, np.arange(d)]
                src[u] = lo + arg
    return pooled, src


@dataclass
class ForwardCache:
    prep: PreparedDoc
    tv_outputs: list[np.ndarray]
    pool_rows: np.ndarray | None   # (k, d) source row per pooled unit, -1 where the relu is 0;
                                   # None in infer mode
    dropout_scale: np.ndarray | None  # (k*d,) 0 or 1/(1-rate), None in infer mode
    top_input: np.ndarray          # (k*d,) the vector the top layer saw


def _require_finite(Z: np.ndarray, view: str) -> None:
    # a NaN or infinite weight among the gathered rows makes their sum so
    if not np.isfinite(Z).all():
        raise NonFiniteWeights(f"non-finite value in {view}'s gathered weights")


def forward(model: ShallowModel, doc: PreparedDoc, train: bool = False, rng=None):
    """Full forward pass over a prepared document; returns (logits, cache).

    In train mode a seeded ``rng`` must be supplied whenever the dropout
    rate is nonzero; the dropout mask is the only source of randomness.
    Inference applies no dropout and no scaling, and raises
    ``NonFiniteWeights`` when a view's gathered sum W x is not finite:
    a loaded container's embeddings are checked only where a document
    reads them.  Training leaves a diverging run to its loss check.
    """
    if len(doc.views) != 1 + len(model.tvs):
        raise ValueError("document views do not match the model")
    Z = embed_regions(model.base.W, doc.views[0])
    if not train:
        _require_finite(Z, "the base view")
    tv_outputs = []
    for i, (tv, view) in enumerate(zip(model.tvs, doc.views[1:]), start=1):
        hidden = tv.embedding.features(view, check="" if train else f"tv view {i}")
        tv_outputs.append(hidden)
        Z += hidden @ tv.fusion.T
    Z += model.base.b
    # only training routes gradients, so only training looks for source rows
    pooled, pool_rows = max_pool(Z, model.pooling_k, rows=train)
    if train:
        # `not > 0` also catches NaN, which still reaches the loss through `pooled`
        pool_rows[~(pooled > 0.0)] = -1
    v = np.maximum(pooled, 0.0, out=pooled).ravel()
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
        pool_rows=pool_rows,
        dropout_scale=dropout_scale,
        top_input=v,
    )
    return logits, cache


@dataclass
class ModelGrads:
    """Gradients of the trainable tensors; W's row c is ``base_W[base_W_pos[c]]``.

    ``base_W`` may be compact, holding only the rows a step reads.
    """

    base_W: np.ndarray
    base_b: np.ndarray
    fusions: list[np.ndarray]
    top_W: np.ndarray
    top_b: np.ndarray
    base_W_pos: np.ndarray

    def as_list(self) -> list[np.ndarray]:
        return [self.base_W, self.base_b, *self.fusions, self.top_W, self.top_b]


def backward(model: ShallowModel, cache: ForwardCache, grad_logits: np.ndarray, out: ModelGrads) -> ModelGrads:
    """Exact gradients of the forward pass for all trainable parameters.

    Two-view embedding internals receive no gradient by construction.
    The gradients are accumulated into ``out`` in place, which is returned.
    """
    if len(cache.prep.views) != 1 + len(model.tvs):
        raise ValueError("cache does not match the model")
    v = cache.top_input
    out.top_W += np.outer(grad_logits, v)
    out.top_b += grad_logits
    dv = model.top_W.T @ grad_logits
    if cache.dropout_scale is not None:
        dv = dv * cache.dropout_scale
    valid = cache.pool_rows >= 0
    dZ = np.zeros((cache.prep.views[0].table.shape[1], model.base.dim))
    # units cover disjoint spans, so no (row, col) repeats; += turns -0.0 into +0.0
    dZ[cache.pool_rows[valid], valid.nonzero()[1]] += dv.reshape(valid.shape)[valid]
    model.base.add_grad(dZ, cache.prep.views[0], out.base_W, out.base_b, out.base_W_pos)
    for df, tv_out in zip(out.fusions, cache.tv_outputs):
        df += dZ.T @ tv_out
    return out


def _scatter_embedding_grad(dW: np.ndarray, dZ: np.ndarray, view: PreparedView,
                            position: np.ndarray) -> None:
    """Add each slot's gradient dZ[rows] into the rows ``position[cols]`` of dW.

    ``position`` maps each row of W to its row of dW: the identity for a
    dense dW, a step's lookup table for a compact one.

    The cost follows the nonzeros of dZ, not R x d per slot: in supervised
    training only the k pooled rows carry gradient.  The nonzeros are
    taken in row-major order, so every (W row, feature) cell gets its
    nonzero addends slot by slot, rows rising, the order in which a
    row-wise ``np.add.at`` per slot adds them.  Skipping the zeros changes
    no cell that is not -0.0, and the callers' dW never holds -0.0: it
    starts at +0.0 and only sums.
    """
    # the flat nonzeros of a bool array come several times faster than
    # dZ.nonzero() on the floats; like it, != keeps NaN and drops -0.0
    flat = np.flatnonzero(dZ != 0.0)
    r, j = np.divmod(flat, dZ.shape[1])
    vals = dZ.ravel()[flat]
    for cols in view.table:
        c = cols[r]
        hit = c >= 0  # -1: the slot skips that row
        # a W row repeats across region rows; np.add.at adds each index in turn
        np.add.at(dW, (position[c[hit]], j[hit]), vals[hit])


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


def predict(model: ShallowModel, tokens: Sequence[str]) -> int:
    """Class of one document's tokens with the highest score; ties go to the lowest index."""
    logits, _ = forward(model, prepare_document(model.views, tokens), train=False)
    return int(np.argmax(logits))
