"""Supervised training: holdout split, mini-batch SGD with momentum,
one-step learning-rate decay, dropout and top-layer L2, grid selection.

The whole run is driven by a single generator seeded from the config:
initialization draws come first (base weights, base bias, one fusion
matrix per two-view embedding, top weights, top bias, all Gaussian with
the configured standard deviation), then per-epoch shuffles and dropout
masks in loop order.  Given (seed, data, config) the trained model is
bitwise reproducible on one platform.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from swcnn.errors import DataError, NumericError
from swcnn.evalbench import evaluate
from swcnn.kernels import softmax_xent
from swcnn.model import (
    RegionEmbedding,
    ShallowModel,
    TvEmbedding,
    backward,
    forward,
    prepare_document,  # noqa: F401  (traced by benchmark/tracer.py)
    prepare_labeled,
    zero_grads,
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
    base = RegionEmbedding(
        spec=template.base_spec,
        vocab=template.base_vocab,
        W=np.asfortranarray(rng.normal(0.0, std, size=(d, template.base_spec.input_dim))),
        b=rng.normal(0.0, std, size=d),
    )
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


def sgd_momentum_step(params, grads, velocity, lr: float, momentum: float = 0.9) -> None:
    """Classical momentum: v <- momentum*v - lr*g; w <- w + v (in place)."""
    if not len(params) == len(grads) == len(velocity):
        raise ValueError("params, grads and velocity must align")
    for w, g, v in zip(params, grads, velocity):
        if not (w.shape == g.shape == v.shape):
            raise ValueError(f"shape mismatch: {w.shape} vs {g.shape} vs {v.shape}")
        v *= momentum
        v -= lr * g
        w += v


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


def _error_percent(model, prepared_docs) -> float:
    return evaluate(model, prepared_docs).error_rate_percent


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
    """
    if len(train_data) == 0:
        raise DataError("empty training set")
    rng = np.random.default_rng(config.seed)
    model = init_model(template, config, rng)
    train_docs = list(prepare_labeled(model, train_data))
    val_docs = list(prepare_labeled(model, val_data))
    params = model.trainable_params()
    velocity = [np.zeros_like(p) for p in params]
    grads = zero_grads(model)
    n = len(train_docs)
    metrics: list[EpochMetrics] = []
    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        lr = lr_at_epoch(config, epoch)
        order = rng.permutation(n)
        objective_sum = 0.0
        for batch_index, start in enumerate(range(0, n, config.batch_size)):
            batch = order[start : start + config.batch_size]
            for g in grads.as_list():
                g[...] = 0.0
            batch_xent = 0.0
            for idx in batch:
                doc = train_docs[idx]
                logits, cache = forward(model, doc, train=True, rng=rng)
                loss, _, grad_logits = softmax_xent(logits, doc.label)
                batch_xent += loss
                backward(model, cache, grad_logits, out=grads)
            grads.scale_(1.0 / len(batch))
            grads.top_W += 2.0 * config.top_l2 * model.top_W
            batch_objective = batch_xent / len(batch) + config.top_l2 * float(
                np.sum(model.top_W * model.top_W)
            )
            if not np.isfinite(batch_objective):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_index}"
                )
            objective_sum += batch_objective * len(batch)
            sgd_momentum_step(params, grads.as_list(), velocity, lr, config.momentum)
        val_error = _error_percent(model, val_docs) if val_docs else None
        metrics.append(
            EpochMetrics(
                epoch=epoch,
                lr=lr,
                train_loss=objective_sum / n,
                val_error=val_error,
                seconds=time.perf_counter() - started,
            )
        )
    return model, metrics


@dataclass
class GridPoint:
    region_size: int
    pooling_k: int
    initial_lr: float
    val_error: float | None
    train_loss: float

    @property
    def score(self) -> float:
        return self.train_loss if self.val_error is None else self.val_error


@dataclass
class SelectionReport:
    points: list[GridPoint] = field(default_factory=list)
    chosen: GridPoint | None = None
    used_validation: bool = True


def select_model(
    grid: SelectionGrid,
    template: ModelTemplate,
    config: TrainConfig,
    data: Sequence,
    n_holdout: int | None = None,
):
    """Train one model per grid point and keep the validation winner.

    Ties break toward smaller region size, then smaller pooling k, then
    smaller learning rate.  With an empty holdout the final training loss
    substitutes for validation error (reported as such).
    """
    if n_holdout is None:
        n_holdout = default_holdout(len(data))
    train_set, val_set = holdout_split(data, n_holdout, config.seed)
    report = SelectionReport(used_validation=bool(val_set))
    best = None
    best_model = None
    for region_size in grid.region_sizes:
        for pooling_k in grid.pooling_ks:
            for lr in grid.initial_lrs:
                point_template = replace(
                    template, region_size=region_size, pooling_k=pooling_k
                )
                point_config = replace(config, initial_lr=lr)
                model, metrics = train(point_template, point_config, train_set, val_set)
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
    return best_model, report
