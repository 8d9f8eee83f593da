"""Supervised training: holdout split, mini-batch SGD with momentum,
one-step learning-rate decay, dropout and top-layer L2, grid selection.

The whole run is driven by a single generator seeded from the config:
initialization draws come first (base weights, base bias, one fusion
matrix per two-view embedding, top weights, top bias, all Gaussian with
the configured standard deviation), then per-epoch shuffles and dropout
masks in loop order.  Given (seed, data, config) the trained model is
bitwise reproducible on one platform.

A step's cost follows the batch's regions, not the vocabulary: every
trainable tensor steps through its own ``LazyMomentum``.  The base weight
W is touched one row per word slot the batch reads; the other tensors
are small and touched in full, so they take the dense step every time.
A run's memory follows the same rows: W's gradient holds only the
batch's rows, and W's velocity only the rows ever touched, packed in the
order of their first touch.  Both are ``np.zeros`` buffers, whose memory
is committed as it is first written, so training holds W plus the bytes
of the rows it reads, not three W's.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from swcnn.errors import DataError, NonFiniteWeights, NumericError
from swcnn.evalbench import evaluate
from swcnn.kernels import softmax_xent
from swcnn.model import (
    ModelGrads,
    RegionEmbedding,
    ShallowModel,
    TvEmbedding,
    backward,
    forward,
    prepare_document,  # noqa: F401  (traced by benchmark/tracer.py)
    prepare_labeled,
)
from swcnn.textpipe import CONCAT, RegionSpec, Vocabulary


@dataclass
class TrainConfig:
    initial_lr: float = 0.1
    epochs: int = 30
    decay_epoch: int = 24
    decay_factor: float = 0.1
    momentum: float = 0.9
    batch_size: int = 100
    init_std: float = 0.01
    dropout: float = 0.5
    top_l2: float = 0.0001
    seed: int = 0

    def __post_init__(self):
        if not 1 <= self.decay_epoch <= self.epochs:
            raise ValueError("need 1 <= decay_epoch <= epochs")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.initial_lr < 0 or self.momentum < 0 or self.top_l2 < 0:
            raise ValueError("rates must be non-negative")
        if self.decay_factor <= 0 or self.init_std <= 0:
            raise ValueError("decay_factor and init_std must be > 0")
        if not 0 <= self.dropout < 1:
            raise ValueError("dropout must be in [0, 1)")


@dataclass
class SelectionGrid:
    region_sizes: tuple[int, ...] = (3, 5)
    pooling_ks: tuple[int, ...] = (1, 10)
    initial_lrs: tuple[float, ...] = (0.25, 0.1, 0.05, 0.01)

    def __post_init__(self):
        if not (self.region_sizes and self.pooling_ks and self.initial_lrs):
            raise ValueError("selection grid must be non-empty")


@dataclass
class ModelTemplate:
    """Architecture of a model before its trainable weights exist."""

    base_vocab: Vocabulary
    n_classes: int
    region_size: int = 3
    representation: str = CONCAT
    embed_dim: int = 500
    pooling_k: int = 1
    tv_embeddings: tuple[RegionEmbedding, ...] = ()

    @property
    def base_spec(self) -> RegionSpec:
        return RegionSpec(
            representation=self.representation,
            region_size=self.region_size,
            vocab_size=len(self.base_vocab),
        )


def init_model(template: ModelTemplate, config: TrainConfig, rng) -> ShallowModel:
    """Fresh model with every trainable tensor drawn Gaussian(0, init_std^2)."""
    std = config.init_std
    d = template.embed_dim
    base = RegionEmbedding.initial(template.base_spec, template.base_vocab, d, std, rng)
    tvs = tuple(
        TvEmbedding(embedding=emb, fusion=rng.normal(0.0, std, size=(d, emb.dim)))
        for emb in template.tv_embeddings
    )
    top_W = rng.normal(0.0, std, size=(template.n_classes, d * template.pooling_k))
    top_b = rng.normal(0.0, std, size=template.n_classes)
    return ShallowModel(
        base=base,
        tvs=tvs,
        pooling_k=template.pooling_k,
        top_W=top_W,
        top_b=top_b,
        dropout_rate=config.dropout,
    )


def holdout_split(dataset: Sequence, n_holdout: int, seed: int):
    """Seeded uniform shuffle; the last n_holdout items become validation."""
    data = list(dataset)
    if n_holdout >= len(data):
        raise ValueError(f"cannot hold out {n_holdout} of {len(data)} records")
    order = np.random.default_rng(seed).permutation(len(data))
    cut = len(data) - n_holdout
    return [data[i] for i in order[:cut]], [data[i] for i in order[cut:]]


def default_holdout(n_records: int) -> int:
    """10K points for large training sets, 10 percent otherwise."""
    return 10_000 if n_records > 100_000 else n_records // 10


class LazyMomentum:
    """Classical momentum on one weight, applied only to the rows a step touches.

    Training steps every trainable tensor through one of these: the large
    weights on the rows a batch reads, the small ones on all their rows.

    Row i is ``w[i]``; its velocity lives here.  A row that gets no
    gradient for k steps would, under the dense step, see its velocity
    scaled by m^k and the weight moved by (m + ... + m^k) times the
    velocity.  That catch-up is applied only when the row is next
    touched or flushed, so a step costs O(touched rows), not O(rows).  The
    learning rate does not enter it, so it holds across a decay.  The
    touched rows get the dense step's arithmetic; only the catch-up rounds
    differently, and a row touched at every step never needs one.

    The gradient is compact: ``grad`` is shaped like ``w`` except that it
    holds only the step's touched rows, in sorted order, and row r of
    ``w`` has its gradient at ``grad[position[r]]``.  The velocity is
    packed too: the first touch of row r gives it the next free velocity
    row, its slot, which it keeps, so the velocities of the rows ever
    touched fill a dense prefix of the buffer, in first-touch order.  Both
    buffers are ``np.zeros`` arrays at the weight's size, allocated once.
    Such memory is zero-filled as it is first written, a page at a time,
    and numpy asks for 2 MB huge pages on buffers of 4 MB or more.  Being
    written only as dense prefixes, the velocity commits the rows ever
    touched times a row's bytes and the gradient the most rows one step
    touched, each rounded up to at most one partly used huge page, so a
    run's memory follows the rows it touches, not the weight's size.

    Per step: ``touch(rows)`` before anything reads those rows, which
    makes ``grad`` their zeroed gradient; then ``sgd_momentum_step`` with
    this object as the weight's velocity once ``grad`` holds the step's
    gradient.  ``flush()`` brings every row up to date before the whole
    weight is read.  Each row of ``w`` must be contiguous, so that the
    steps land in ``w`` itself; any other weight raises ``ValueError``.
    """

    CHUNK = 256  # rows per gather, so no temporary grows with the touched count

    def __init__(self, w: np.ndarray, momentum: float, n_steps: int):
        if not w[:1].flags.c_contiguous:
            # reshaping such a weight into rows would copy it, and train the copy
            raise ValueError(f"the rows of a {w.shape} weight are not contiguous")
        self.w, self.momentum = w, momentum
        self._w = w.reshape(len(w), -1)
        n_rows = len(self._w)
        self._v = np.zeros(self._w.shape)  # row slot[r]: the velocity of row r
        self._g = np.zeros(self._w.shape)  # row i: the gradient of row _rows[i]
        # -1 until row r is first touched; then its velocity row, for good
        self._slot = np.full(n_rows, -1, dtype=np.intp)
        self._n_slots = 0
        # n_rows, past the end of any step's gradient, marks a row not touched
        self.position = np.full(n_rows, n_rows, dtype=np.intp)
        # the step each row is current at; 0 for a row never stepped, whose
        # velocity is still zero
        self._last = np.zeros(n_rows, dtype=np.int64)
        self._rows = np.empty(0, dtype=np.int64)
        self._t = 0
        self.grad = self._compact_grad()
        # cumulative products and sums, so that momentum 0 and 1 stay exact
        powers = np.cumprod(np.full(n_steps, float(momentum)))
        self._decay = np.concatenate([[1.0], powers])  # m^k
        self._drift = np.concatenate([[0.0], np.cumsum(powers)])  # m + ... + m^k

    def _compact_grad(self) -> np.ndarray:
        """The first len(_rows) gradient rows, zeroed, shaped like rows of ``w``."""
        rows = self._g[: len(self._rows)]
        rows[...] = 0.0
        return rows.reshape(rows.shape[:1] + self.w.shape[1:])

    def _chunks(self, n: int):
        for lo in range(0, n, self.CHUNK):
            yield slice(lo, min(lo + self.CHUNK, n))

    def _catch_up(self, rows: np.ndarray) -> None:
        for part in self._chunks(len(rows)):
            chunk = rows[part]
            k = self._t - self._last[chunk]
            chunk, k = chunk[k > 0], k[k > 0]
            slots = self._slot[chunk]
            v = self._v[slots]
            self._w[chunk] += self._drift[k, None] * v
            v *= self._decay[k, None]
            self._v[slots] = v
            self._last[chunk] = self._t

    def touch(self, rows: np.ndarray) -> None:
        """Make the sorted distinct ``rows`` current and the next step's rows."""
        self.position[self._rows] = len(self.position)
        new = rows[self._slot[rows] < 0]
        self._slot[new] = np.arange(self._n_slots, self._n_slots + len(new))
        self._n_slots += len(new)
        self._catch_up(rows)
        self._rows = rows
        self.position[rows] = np.arange(len(rows))
        self.grad = self._compact_grad()

    def step(self, lr: float) -> None:
        """v <- momentum*v - lr*g; w <- w + v on the touched rows."""
        for part in self._chunks(len(self._rows)):
            chunk = self._rows[part]
            slots = self._slot[chunk]
            v = self._v[slots]
            v *= self.momentum
            v -= lr * self._g[part]
            self._v[slots] = v
            self._w[chunk] += v
        self._t += 1
        self._last[self._rows] = self._t

    def flush(self) -> None:
        """Bring every row ever stepped up to date."""
        self._catch_up(np.flatnonzero((self._last > 0) & (self._last < self._t)))


def sgd_momentum_step(params, grads, velocity, lr: float) -> None:
    """Classical momentum: v <- momentum*v - lr*g; w <- w + v (in place).

    ``velocity[i]`` is the ``LazyMomentum`` of ``params[i]`` and
    ``grads[i]``; it steps the rows it was last touched with, at its own
    momentum.
    """
    if not len(params) == len(grads) == len(velocity):
        raise ValueError("params, grads and velocity must align")
    for w, g, v in zip(params, grads, velocity):
        if v.w is not w or v.grad is not g:
            raise ValueError("velocity belongs to another weight")
        v.step(lr)


def sgd_epochs(params, n: int, config, rng, step_batch, what: str):
    """Mini-batch SGD with momentum over ``n`` examples; yields (epoch, mean loss).

    ``config`` is a ``TrainConfig`` or a ``TvTrainConfig``.  Each tensor in
    ``params`` steps through its own ``LazyMomentum``.  Each epoch draws
    one ``rng.permutation(n)`` and cuts it into batches, numbered from 1.
    ``step_batch(velocity, epoch, batch)`` touches the rows the batch
    reads, fills each ``grad``, calls ``sgd_momentum_step`` and returns
    the batch's summed loss.  A running total that is not finite after a
    step raises ``NumericError`` naming ``what``, the epoch and the batch.
    Every tensor is flushed before its epoch is yielded.  This is the
    dense step in exact arithmetic; only rows that need a catch-up round
    differently (by about 1e-15), and the catch-up draws nothing.
    Callers hold their own ``np.errstate``: on a generator, the decorator
    would exit before the first batch.
    """
    n_steps = config.epochs * -(-n // config.batch_size)
    velocity = [LazyMomentum(p, config.momentum, n_steps) for p in params]
    for epoch in range(1, config.epochs + 1):
        order = rng.permutation(n)
        loss_sum = 0.0
        for number, first in enumerate(range(0, n, config.batch_size), start=1):
            loss_sum += step_batch(velocity, epoch, order[first : first + config.batch_size])
            if not np.isfinite(loss_sum):
                raise NumericError(f"non-finite {what} at epoch {epoch}, batch {number}")
        for lazy in velocity:
            lazy.flush()
        yield epoch, loss_sum / n


def slot_columns(views) -> np.ndarray:
    """Sorted distinct input columns (rows of W) that the slot tables of ``views`` read."""
    cols = np.unique(np.concatenate([view.table.ravel() for view in views]))
    return cols[np.searchsorted(cols, 0):]  # past the holes' -1


def lr_at_epoch(config: TrainConfig, epoch: int) -> float:
    """initial_lr through decay_epoch, then once multiplied by decay_factor."""
    if not 1 <= epoch <= config.epochs:
        raise ValueError(f"epoch {epoch} outside [1, {config.epochs}]")
    if epoch <= config.decay_epoch:
        return config.initial_lr
    return config.initial_lr * config.decay_factor


@dataclass
class EpochMetrics:
    epoch: int
    lr: float
    train_loss: float
    val_error: float | None
    seconds: float


def _error_percent(model, prepared_docs, epoch: int) -> float:
    # weights that diverged in the epoch's last step are a numeric failure
    try:
        return evaluate(model, prepared_docs).error_rate_percent
    except NonFiniteWeights as exc:
        raise NumericError(f"validation after epoch {epoch}: {exc}") from None


# a diverging run ends in the driver's NumericError; numpy's overflow
# and invalid-value warnings would only clutter the report before it
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(
    template: ModelTemplate,
    config: TrainConfig,
    train_data: Sequence,
    val_data: Sequence = (),
):
    """Train a model; returns (model, per-epoch metrics).

    ``train_data`` and ``val_data`` hold (tokens, label) pairs with
    0-based labels.  The reported train loss is the mean cross entropy
    plus the top-layer L2 penalty top_l2 * ||top_W||^2; validation error
    is a percentage, or None when no validation data was supplied (the
    caller then selects on training loss).

    ``sgd_epochs`` runs the batches.  Only the rows of W that a batch's
    base-view slots read are touched; b, the fusions and the top layer
    are touched in full, so they take the dense step.  W's gradient holds
    just the batch's rows, found through ``ModelGrads.base_W_pos``.
    Validation reads the weights the driver brought up to date at the
    epoch's end.
    """
    if len(train_data) == 0:
        raise DataError("empty training set")
    rng = np.random.default_rng(config.seed)
    model = init_model(template, config, rng)
    train_docs = list(prepare_labeled(model, train_data))
    val_docs = list(prepare_labeled(model, val_data))
    params = model.trainable_params()
    # W steps on the rows a batch reads; b, the fusions and the top layer in full
    all_rows = [np.arange(len(p)) for p in params[1:]]

    def step_batch(velocity, epoch, batch):
        base = velocity[0]
        base.touch(slot_columns(train_docs[idx].views[0] for idx in batch))
        for lazy, rows in zip(velocity[1:], all_rows):
            lazy.touch(rows)
        base_W, base_b, *fusions, top_W, top_b = (lazy.grad for lazy in velocity)
        grads = ModelGrads(base_W, base_b, fusions, top_W, top_b, base_W_pos=base.position)
        batch_xent = 0.0
        for idx in batch:
            doc = train_docs[idx]
            logits, cache = forward(model, doc, train=True, rng=rng)
            loss, _, grad_logits = softmax_xent(logits, doc.label)
            batch_xent += loss
            # scaled here, the gradients accumulate as the batch mean
            backward(model, cache, grad_logits / len(batch), grads)
        grads.top_W += 2.0 * config.top_l2 * model.top_W
        batch_objective = batch_xent / len(batch) + config.top_l2 * float(
            np.sum(model.top_W * model.top_W)
        )
        sgd_momentum_step(params, grads.as_list(), velocity, lr_at_epoch(config, epoch))
        return batch_objective * len(batch)

    metrics: list[EpochMetrics] = []
    started = time.perf_counter()
    for epoch, train_loss in sgd_epochs(params, len(train_docs), config, rng, step_batch, "loss"):
        val_error = _error_percent(model, val_docs, epoch) if val_docs else None
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                lr=lr_at_epoch(config, epoch),
                train_loss=train_loss,
                val_error=val_error,
                seconds=time.perf_counter() - started,
            )
        )
        started = time.perf_counter()
    return model, metrics


@dataclass
class GridPoint:
    region_size: int
    pooling_k: int
    initial_lr: float
    val_error: float | None
    train_loss: float
    diverged: str = ""  # the NumericError that stopped this point's training

    @property
    def score(self) -> float:
        return self.train_loss if self.val_error is None else self.val_error


@dataclass
class SelectionReport:
    points: list[GridPoint] = field(default_factory=list)
    chosen: GridPoint | None = None


def select_model(
    grid: SelectionGrid,
    template: ModelTemplate,
    config: TrainConfig,
    train_set: Sequence,
    val_set: Sequence,
):
    """Train one model per grid point and keep the validation winner.

    Every point trains on ``train_set`` and is scored on ``val_set``, the
    split ``train`` takes.  Ties break toward smaller region size, then
    smaller pooling k, then smaller learning rate.  With an empty
    ``val_set`` the final training loss substitutes for validation error.
    A point whose training diverges is reported with its reason and never
    chosen; if every point diverges, ``NumericError`` is raised.
    """
    report = SelectionReport()
    best = None
    best_model = None
    for region_size in grid.region_sizes:
        for pooling_k in grid.pooling_ks:
            for lr in grid.initial_lrs:
                point_template = replace(
                    template, region_size=region_size, pooling_k=pooling_k
                )
                point_config = replace(config, initial_lr=lr)
                try:
                    model, metrics = train(point_template, point_config, train_set, val_set)
                except NumericError as exc:
                    report.points.append(GridPoint(region_size, pooling_k, lr, None,
                                                   float("nan"), diverged=str(exc)))
                    continue
                point = GridPoint(
                    region_size=region_size,
                    pooling_k=pooling_k,
                    initial_lr=lr,
                    val_error=metrics[-1].val_error,
                    train_loss=metrics[-1].train_loss,
                )
                report.points.append(point)
                key = (point.score, region_size, pooling_k, lr)
                if best is None or key < best:
                    best = key
                    best_model = model
                    report.chosen = point
    if best_model is None:
        raise NumericError(f"every grid point diverged, the first: {report.points[0].diverged}")
    return best_model, report
