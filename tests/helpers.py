"""Shared builders for synthetic corpora, tiny models and gradient checks,
and the per-region reference the slot-incidence sweep is tested against."""

import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np

from swcnn.evalbench import evaluate
from swcnn.model import (
    RegionEmbedding, backward, embed_regions, forward, max_pool, prepare_document,
    prepare_labeled, zero_grads,
)
from swcnn.kernels import softmax_xent
from swcnn.textpipe import BOW_NGRAM, BOW_WORD, CONCAT, OOV, RegionSpec, Vocabulary, region_count
from swcnn.train import (
    ModelTemplate, TrainConfig, init_model, lr_at_epoch, sgd_momentum_step,
)


@dataclass(frozen=True, eq=False)
class SparseRegionVector:
    """Nonzeros of one region under a RegionSpec.

    ``indices`` are strictly increasing positions below ``dim``;
    ``values`` are the matching positive coefficients (all 1 for
    concat-one-hot, integer counts for bow representations).
    """

    dim: int
    indices: np.ndarray
    values: np.ndarray

    @property
    def nnz(self) -> int:
        return len(self.indices)


def region_vector(ids: np.ndarray, pos: int, spec: RegionSpec) -> SparseRegionVector:
    """Sparse vector of the region covering token positions pos..pos+p-1.

    ``ids`` is the document as ``encode`` returns it against the
    vocabulary the representation reads.  Positions past the end of the
    document (present only when the document was right-padded to the
    region size) act as OOV and contribute nothing.
    """
    n_positions = region_count(len(ids), spec.region_size)
    if not 0 <= pos < n_positions:
        raise ValueError(f"region position {pos} outside [0, {n_positions})")
    return _region_vector_unchecked(ids, pos, spec)


def _region_vector_unchecked(ids, pos, spec):
    p = spec.region_size
    v = spec.vocab_size
    end = min(pos + p, len(ids))
    if spec.representation == CONCAT:
        pairs = [
            (slot * v + ids[pos + slot], 1.0)
            for slot in range(end - pos)
            if ids[pos + slot] != OOV
        ]
        return _from_pairs(p * v, pairs)
    if spec.representation == BOW_WORD:
        counts = Counter(t for t in ids[pos:end] if t != OOV)
    else:
        counts = Counter()
        for start in range(pos, end):
            grams = ids[start]
            for n in (1, 2, 3):
                if start + n > pos + p:
                    break
                if grams[n - 1] != OOV:
                    counts[grams[n - 1]] += 1
    return _from_pairs(v, sorted(counts.items()))


def _from_pairs(dim, pairs):
    indices = np.fromiter((i for i, _ in pairs), dtype=np.int64, count=len(pairs))
    values = np.fromiter((x for _, x in pairs), dtype=np.float64, count=len(pairs))
    return SparseRegionVector(dim=dim, indices=indices, values=values)


def sparse_affine(W: np.ndarray, b: np.ndarray, x: SparseRegionVector) -> np.ndarray:
    """W x + b touching only the columns of W at x's nonzero indices."""
    d, n = W.shape
    if b.shape != (d,):
        raise ValueError(f"bias shape {b.shape} does not match W rows {d}")
    if x.dim != n:
        raise ValueError(f"input dim {x.dim} does not match W cols {n}")
    if x.nnz == 0:
        return b.astype(np.float64, copy=True)
    return W[:, x.indices] @ x.values + b


def word_vocab(n):
    """Vocabulary w0..w{n-1} with ids equal to the suffix."""
    return Vocabulary(kind="word", entries=tuple((f"w{i}", n - i) for i in range(n)))


def trigger_bigram_dataset(n_docs, doc_len=50, vocab_size=30, seed=0):
    """Balanced 2-class task: label 1 iff the bigram 'w3 w7' occurs."""
    rng = np.random.default_rng(seed)
    words = [f"w{i}" for i in range(vocab_size)]
    a, b = "w3", "w7"
    out = []
    for i in range(n_docs):
        label = i % 2
        while True:
            doc = [words[int(j)] for j in rng.integers(0, vocab_size, size=doc_len)]
            hit = any(doc[t] == a and doc[t + 1] == b for t in range(doc_len - 1))
            if label == 1:
                if not hit:
                    pos = int(rng.integers(0, doc_len - 1))
                    doc[pos], doc[pos + 1] = a, b
                break
            if not hit:
                break
        out.append((doc, label))
    rng.shuffle(out)
    return out


def pair_distance_dataset(n_docs, doc_len=24, n_distract=20, seed=0):
    """Label 1 iff the trigger pair sits exactly 4 apart (inside a 5-window).

    Negatives carry the same two triggers at distance >= 10, so no
    3-token region and no whole-document bag separates the classes; only
    a view at least 5 tokens wide can.
    """
    rng = np.random.default_rng(seed)
    distract = [f"d{i}" for i in range(n_distract)]
    out = []
    for i in range(n_docs):
        label = i % 2
        doc = [distract[int(j)] for j in rng.integers(0, n_distract, size=doc_len)]
        if label == 1:
            pos = int(rng.integers(0, doc_len - 4))
            doc[pos], doc[pos + 4] = "qa", "qb"
        else:
            pos = int(rng.integers(0, doc_len - 10))
            gap = int(rng.integers(10, doc_len - pos))
            doc[pos], doc[pos + gap] = "qa", "qb"
        out.append((doc, label))
    rng.shuffle(out)
    return out


def markov_corpus(n_docs, doc_len=30, n_states=40, seed=0):
    """Unlabeled docs where state i tends to be followed by state i+1."""
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n_docs):
        state = int(rng.integers(n_states))
        doc = []
        for _ in range(doc_len):
            doc.append(f"s{state}")
            if rng.random() < 0.7:
                state = (state + 1) % n_states
            else:
                state = int(rng.integers(n_states))
        docs.append(doc)
    return docs


def random_tiny_instance(seed, with_tvs, dropout=0.0):
    """A random small model plus one prepared document, for gradient checks."""
    rng = np.random.default_rng(seed)
    n_words = int(rng.integers(5, 50))
    region_size = int(rng.integers(1, 4))
    dim = int(rng.integers(2, 9))
    n_classes = int(rng.integers(2, 4))
    pooling_k = int(rng.integers(1, 4))
    doc_len = int(rng.integers(1, 13))
    vocab = word_vocab(n_words)
    tvs = []
    if with_tvs:
        for i in range(2):
            d_tv = int(rng.integers(1, 5))
            spec = RegionSpec(
                BOW_WORD if i == 0 else CONCAT, int(rng.integers(1, 4)), n_words
            )
            tvs.append(
                RegionEmbedding(
                    spec=spec,
                    vocab=vocab,
                    W=np.asfortranarray(rng.normal(0, 0.5, (d_tv, spec.input_dim))),
                    b=rng.normal(0, 0.5, d_tv),
                )
            )
    template = ModelTemplate(
        base_vocab=vocab,
        n_classes=n_classes,
        region_size=region_size,
        embed_dim=dim,
        pooling_k=pooling_k,
        tv_embeddings=tuple(tvs),
    )
    config = TrainConfig(init_std=0.5, dropout=dropout, epochs=1, decay_epoch=1)
    model = init_model(template, config, rng)
    tokens = [
        f"w{int(rng.integers(n_words))}" if rng.random() < 0.85 else "oovtok"
        for _ in range(doc_len)
    ]
    doc = prepare_document(model.views, tokens, int(rng.integers(n_classes)))
    return model, doc


def fd_max_rel_error(model, doc, step=1e-5):
    """Worst relative disagreement between backward() and central differences."""
    from swcnn.model import backward

    def loss_and_grad():
        logits, cache = forward(model, doc, train=True, rng=None)
        loss, _, grad_logits = softmax_xent(logits, doc.label)
        return loss, cache, grad_logits

    _, cache, grad_logits = loss_and_grad()
    grads = backward(model, cache, grad_logits)
    worst = 0.0
    for w, g in zip(model.trainable_params(), grads.as_list()):
        for flat in range(w.size):
            idx = np.unravel_index(flat, w.shape)
            orig = w[idx]
            w[idx] = orig + step
            up, _, _ = loss_and_grad()
            w[idx] = orig - step
            down, _, _ = loss_and_grad()
            w[idx] = orig
            numeric = (up - down) / (2 * step)
            analytic = g[idx]
            rel = abs(numeric - analytic) / max(abs(numeric), abs(analytic), 1e-6)
            worst = max(worst, rel)
    return worst


def write_csv(path, rows):
    """Rows of (label, *fields) in the distributed quoting convention."""
    with open(path, "w", encoding="utf-8") as out:
        for row in rows:
            quoted = ",".join('"' + str(f).replace('"', '""') + '"' for f in row)
            out.write(quoted + "\n")


def write_corrupted(path, raw: bytes, offset: int, byte: int) -> None:
    """Write ``raw`` cut at ``offset``, or (``byte`` >= 0) with that byte overwritten."""
    raw = bytearray(raw)
    offset %= len(raw)
    if byte < 0:
        del raw[offset:]
    else:
        raw[offset] = byte
    path.write_bytes(bytes(raw))


def _v1_matrix(arr) -> bytes:
    return struct.pack("<II", *arr.shape) + np.ascontiguousarray(arr, dtype="<f8").tobytes()


def _v1_vector(arr) -> bytes:
    return struct.pack("<I", len(arr)) + np.asarray(arr, dtype="<f8").tobytes()


def _v1_block(emb) -> bytes:
    reps = {CONCAT: 0, BOW_WORD: 1, BOW_NGRAM: 2}
    kinds = {"word": 0, "ngram123": 1}
    parts = [struct.pack("<BIBI", reps[emb.spec.representation], emb.spec.region_size,
                         kinds[emb.vocab.kind], len(emb.vocab))]
    for token, freq in emb.vocab.entries:
        raw = token.encode("utf-8")
        parts.append(struct.pack("<I", len(raw)) + raw + struct.pack("<Q", freq))
    parts.append(_v1_matrix(emb.W))  # row-major, unlike version 2
    parts.append(_v1_vector(emb.b))
    return b"".join(parts)


def v1_model_bytes(model) -> bytes:
    """``model`` as a version 1 container, written from the documented layout
    without ``swcnn.serialize``."""
    parts = [b"SWCN", struct.pack("<IB", 1, 0),
             struct.pack("<IId", model.pooling_k, model.n_classes, model.dropout_rate),
             _v1_block(model.base), struct.pack("<I", len(model.tvs))]
    for tv in model.tvs:
        parts += [_v1_block(tv.embedding), _v1_matrix(tv.fusion)]
    parts += [_v1_matrix(model.top_W), _v1_vector(model.top_b)]
    return b"".join(parts)


def v1_embedding_bytes(emb) -> bytes:
    """``emb`` as a version 1 embedding container."""
    return b"SWCN" + struct.pack("<IB", 1, 1) + _v1_block(emb)


def rectify_then_pool(model, doc, train=False, rng=None):
    """Logits and gradients with the relu applied to every region row.

    The reference for ``forward`` and ``backward``, which rectify after
    pooling: here the R x d features are rectified and masked in full, and
    the pooled gradient is routed back one pooling unit at a time.
    Returns (logits, ModelGrads) for the softmax loss on ``doc.label``.
    """
    Z = embed_regions(model.base.W, doc.views[0], doc.n_regions)
    tv_outputs = []
    for tv, view in zip(model.tvs, doc.views[1:]):
        hidden = embed_regions(tv.embedding.W, view, doc.n_regions)
        hidden += tv.embedding.b
        np.maximum(hidden, 0.0, out=hidden)
        tv_outputs.append(hidden)
        Z += hidden @ tv.fusion.T
    Z += model.base.b
    H = np.maximum(Z, 0.0)
    relu_mask = H > 0.0
    pooled, pool_rows = max_pool(H, model.pooling_k)
    v = pooled.ravel()
    dropout_scale = None
    if train and model.dropout_rate > 0.0:
        keep = rng.random(v.shape) >= model.dropout_rate
        dropout_scale = keep / (1.0 - model.dropout_rate)
        v = v * dropout_scale
    logits = model.top_W @ v + model.top_b
    _, _, grad_logits = softmax_xent(logits, doc.label)

    grads = zero_grads(model)
    k, d = model.pooling_k, model.base.dim
    grads.top_W += np.outer(grad_logits, v)
    grads.top_b += grad_logits
    dv = model.top_W.T @ grad_logits
    if dropout_scale is not None:
        dv = dv * dropout_scale
    dpool = dv.reshape(k, d)
    dH = np.zeros((doc.n_regions, d))
    col_range = np.arange(d)
    for u in range(k):
        rows = pool_rows[u]
        valid = rows >= 0
        if valid.any():
            dH[rows[valid], col_range[valid]] += dpool[u][valid]
    dZ = np.where(relu_mask, dH, 0.0)
    dWt = grads.base_W.T
    for rows, cols in doc.views[0].slots:
        np.add.at(dWt, cols, dZ[rows])
    grads.base_b += dZ.sum(axis=0)
    for df, tv_out in zip(grads.fusions, tv_outputs):
        df += dZ.T @ tv_out
    return logits, grads


def dense_train(template, config, train_data, val_data=()):
    """The reference for ``train``: every step zeroes, scales and steps
    every parameter in full, with the same draws in the same order.

    Returns (model, per-epoch train losses, per-epoch validation errors).
    """
    rng = np.random.default_rng(config.seed)
    model = init_model(template, config, rng)
    train_docs = list(prepare_labeled(model, train_data))
    val_docs = list(prepare_labeled(model, val_data))
    params = model.trainable_params()
    velocity = [np.zeros_like(p) for p in params]
    grads = zero_grads(model)
    n = len(train_docs)
    losses, val_errors = [], []
    for epoch in range(1, config.epochs + 1):
        lr = lr_at_epoch(config, epoch)
        order = rng.permutation(n)
        objective_sum = 0.0
        for start in range(0, n, config.batch_size):
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
            for g in grads.as_list():
                g *= 1.0 / len(batch)
            grads.top_W += 2.0 * config.top_l2 * model.top_W
            batch_objective = batch_xent / len(batch) + config.top_l2 * float(
                np.sum(model.top_W * model.top_W)
            )
            objective_sum += batch_objective * len(batch)
            sgd_momentum_step(params, grads.as_list(), velocity, lr, config.momentum)
        losses.append(objective_sum / n)
        val_errors.append(evaluate(model, val_docs).error_rate_percent if val_docs else None)
    return model, losses, val_errors


def rel_err(got, want):
    """Largest absolute difference relative to the largest magnitude of ``want``."""
    got, want = np.asarray(got), np.asarray(want)
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))
