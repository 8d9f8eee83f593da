"""Error-rate evaluation, inference timing, vocabulary-independence bench.

Evaluation and timing take documents already turned into slot incidence
by ``model.prepare_labeled``, so timing follows a strict protocol: the
reported seconds cover only model compute (weight gathers, fusion,
pooling, top layer), never encoding.  Medians over repetitions are
reported to shrug off scheduler noise.  The independence bench times
``model.forward``, the pass ``predict`` runs, on a one-view model at two
vocabulary sizes with an identical token pattern (hence identical
nonzero counts); a naive dense control shows what an O(vocabulary)
implementation would look like, so the property is not vacuously true.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from swcnn.errors import DataError, NonFiniteWeights
from swcnn.model import (
    PreparedDoc,
    PreparedView,
    RegionEmbedding,
    ShallowModel,
    forward,
    max_pool,
    prepare_document,
)
from swcnn.textpipe import BOW_WORD, WORD, RegionSpec, Vocabulary

# distinct codes in the bench pattern: the least vocabulary size it fits
BENCH_CODES = 48


def _infer(model: ShallowModel, number: int, doc: PreparedDoc) -> np.ndarray:
    """Inference logits of ``doc``, the ``number``-th (from 1) of its set.

    A non-finite gathered weight is reported with the document's number.
    """
    try:
        return forward(model, doc, train=False)[0]
    except NonFiniteWeights as exc:
        raise NonFiniteWeights(f"document {number}: {exc}") from None


@dataclass
class EvalReport:
    n_docs: int
    n_errors: int
    error_rate_percent: float
    confusion: np.ndarray  # confusion[true, predicted]


def evaluate(model: ShallowModel, docs: Iterable[PreparedDoc]) -> EvalReport:
    """Error rate of argmax predictions over a labeled test set.

    ``docs`` are prepared documents whose labels lie in
    ``[0, n_classes)``, as ``model.prepare_labeled`` yields them; they are
    read once, so a generator streams the test set.
    """
    n_classes = model.n_classes
    confusion = np.zeros((n_classes, n_classes), dtype=np.int64)
    n_docs = 0
    for doc in docs:
        n_docs += 1
        confusion[doc.label, int(np.argmax(_infer(model, n_docs, doc)))] += 1
    if n_docs == 0:
        raise DataError("empty test set")
    n_errors = n_docs - int(np.trace(confusion))
    return EvalReport(
        n_docs=n_docs,
        n_errors=n_errors,
        error_rate_percent=100.0 * n_errors / n_docs,
        confusion=confusion,
    )


@dataclass
class TimingReport:
    n_docs: int
    total_seconds: float
    docs_per_second: float
    repetitions: int


def time_inference(
    model: ShallowModel, docs: Sequence[PreparedDoc], repetitions: int = 3
) -> TimingReport:
    """Median wall time of forward passes over a prepared test set.

    Encoding and slot-incidence construction happened before the call,
    so they never run inside the timed section.  One untimed pass warms
    caches and the allocator.
    """
    if not docs:
        raise DataError("empty timing set")

    def one_pass():
        for number, doc in enumerate(docs, start=1):
            _infer(model, number, doc)

    total = _median_seconds(one_pass, repetitions, warmup=1)
    return TimingReport(
        n_docs=len(docs),
        total_seconds=total,
        docs_per_second=len(docs) / total,
        repetitions=repetitions,
    )


def make_bench_pattern(length: int = 400, distinct: int = BENCH_CODES, seed: int = 0) -> list[int]:
    """Token-code pattern for the independence bench.

    A bounded set of distinct codes keeps the touched rows of W (the
    working set) identical at every vocabulary size, so the measurement
    isolates arithmetic cost from cache footprint.
    """
    rng = np.random.default_rng(seed)
    return rng.integers(0, distinct, size=length).tolist()


def _bench_setup(d: int, p: int, pattern, vocab_size: int, seed: int):
    """A one-view bow-word model over ``vocab_size`` words, two classes and
    ``pooling_k=1``, and the pattern as its prepared document."""
    n_codes = max(pattern) + 1
    if vocab_size < n_codes:
        raise ValueError("vocabulary smaller than the code set")
    # spread ids over the full range so locality does not depend on ordering
    tokens = [str(code * vocab_size // n_codes) for code in pattern]
    vocab = Vocabulary(WORD, tuple((str(i), vocab_size - i) for i in range(vocab_size)))
    spec = RegionSpec(representation=BOW_WORD, region_size=p, vocab_size=vocab_size)
    rng = np.random.default_rng(seed)
    base = RegionEmbedding.initial(spec, vocab, d, 0.01, rng)
    top_W = rng.normal(0.0, 0.01, size=(2, d))
    top_b = rng.normal(0.0, 0.01, size=2)
    model = ShallowModel(base=base, tvs=(), pooling_k=1, top_W=top_W, top_b=top_b)
    return model, prepare_document(model.views, tokens)


def _median_seconds(fn, repetitions: int, warmup: int = 5) -> float:
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repetitions):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return float(np.median(times))


def vocab_independence_bench(
    d: int,
    p: int,
    pattern: Sequence[int],
    v_small: int,
    v_large: int,
    repetitions: int = 100,
    seed: int = 0,
) -> float:
    """Ratio of median forward times at two vocabulary sizes.

    The same token pattern is mapped into both vocabularies, so every
    region has identical nonzero counts; with sparse-input kernels the
    ratio stays near 1 no matter how far apart the sizes are.
    """
    times = {}
    for v in (v_small, v_large):
        model, doc = _bench_setup(d, p, pattern, v, seed)
        times[v] = _median_seconds(lambda: forward(model, doc), repetitions)
    return times[v_large] / times[v_small]


def _densify(view: PreparedView) -> np.ndarray:
    X = np.zeros((view.table.shape[1], view.input_dim))
    rows = np.broadcast_to(np.arange(len(X)), view.table.shape)
    hit = view.table >= 0
    np.add.at(X, (rows[hit], view.table[hit]), 1.0)
    return X


def dense_control_ratio(
    d: int,
    p: int,
    pattern: Sequence[int],
    v_small: int,
    v_large: int,
    repetitions: int = 7,
    seed: int = 0,
) -> float:
    """The same measurement with dense inputs and a full W @ x per region.

    Cost scales with the input dimensionality, so the ratio grows with
    the vocabulary-size ratio; this is the behavior the sparse kernels
    are demonstrated against.  The product runs in numpy's own loops, not
    in a multithreaded BLAS: on a busy 2-core machine the small size's
    BLAS calls ran 24 ms instead of 0.3 ms for seconds at a time, waiting
    for a worker thread, which flattened the ratio to about 1.3.
    """
    times = {}
    for v in (v_small, v_large):
        model, doc = _bench_setup(d, p, pattern, v, seed)
        X = _densify(doc.views[0])

        def dense_forward():
            Z = np.einsum("rv,vd->rd", X, model.base.W) + model.base.b
            pooled, _ = max_pool(Z, 1, rows=False)
            return model.top_W @ np.maximum(pooled, 0.0, out=pooled).ravel() + model.top_b

        times[v] = _median_seconds(dense_forward, repetitions, warmup=2)
    return times[v_large] / times[v_small]
