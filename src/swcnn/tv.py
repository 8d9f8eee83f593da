"""Two-view region embedding training.

A region embedding relu(W x + b) is fitted so that a region predicts the
words of its adjacent regions: for every region position, the target is
the binary bag of in-vocabulary words in the union of the region
immediately to the left and the region immediately to the right (each as
wide as the region itself, clipped to the document).  A disposable linear
prediction layer maps the embedding into word-vocabulary space; the
square loss is evaluated only on the target indices plus a small
sampled set of negative indices, so the per-example cost depends on the
number of targets and negatives, not on the vocabulary size.  Labels are
never read.  The prediction layer is discarded; only W, b survive.
W x and its gradient use the supervised model's slot-incidence sweep,
over regions at arbitrary offsets into the concatenated corpus.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from swcnn import model as modelmod
from swcnn.errors import DataError
from swcnn.model import RegionEmbedding, _view_slots
from swcnn.textpipe import (
    OOV,
    RegionSpec,
    Vocabulary,
    encode,
    region_count,
)
from swcnn.train import LazyMomentum, sgd_momentum_step, slot_columns

# benchmark/tracer.py still wraps these two names, so they must resolve;
# nothing calls them.  ROADMAP item 1 deletes this line.
region_vector = sparse_affine = None


@dataclass(eq=False)
class TvExample:
    """One (region, adjacent-words) training pair.

    ``pos`` is the region's first token position in its document;
    ``target`` holds the sorted in-vocabulary word ids appearing in the
    adjacent regions (binary presence).
    """

    pos: int
    target: np.ndarray


def make_tv_examples(target_ids: np.ndarray, spec: RegionSpec) -> list[TvExample]:
    """Training pairs for every region position of one document.

    ``target_ids`` is the document encoded against the word vocabulary
    the adjacent regions are predicted over.  Positions whose clipped
    adjacent union contains no in-vocabulary word are skipped.
    """
    p = spec.region_size
    ids = target_ids.tolist()  # Python ints keep the short per-position slices cheap
    examples = []
    for pos in range(region_count(len(ids), p)):
        around = [t for t in ids[max(0, pos - p) : pos] + ids[pos + p : pos + 2 * p] if t != OOV]
        target = np.unique(np.asarray(around, dtype=np.int64))
        if len(target):
            examples.append(TvExample(pos=pos, target=target))
    return examples


def sample_negatives(target: np.ndarray, vocab_size: int, m: int, rng) -> np.ndarray:
    """Uniform sample without replacement from the complement of target."""
    m = min(m, vocab_size - len(target))
    taken = set(int(t) for t in target)
    out: list[int] = []
    while len(out) < m:
        batch = rng.integers(0, vocab_size, size=max(16, 2 * (m - len(out))))
        for cand in batch.tolist():
            if cand not in taken:
                taken.add(cand)
                out.append(cand)
                if len(out) == m:
                    break
    return np.asarray(out, dtype=np.int64)


def square_loss(pred: np.ndarray, target: np.ndarray):
    """Loss and gradient over the evaluated output dimensions only.

    Arguments are aligned vectors over the target and negative indices;
    every other dimension contributes nothing and is never computed.
    """
    diff = pred - target
    return float(np.dot(diff, diff)), 2.0 * diff


@dataclass
class TvTrainConfig:
    seed: int = 0
    epochs: int = 10
    lr: float = 0.1
    negatives: int = 50
    momentum: float = 0.9
    batch_size: int = 100
    init_std: float = 0.01

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1 or self.negatives < 1:
            raise ValueError("epochs, batch_size and negatives must be >= 1")
        if self.lr < 0 or self.momentum < 0 or self.init_std <= 0:
            raise ValueError("invalid training rates")


def train_tv(
    corpus: Sequence[Sequence[str]],
    spec: RegionSpec,
    tv_vocab: Vocabulary,
    word_vocab: Vocabulary,
    d_tv: int,
    config: TvTrainConfig,
):
    """Fit a two-view region embedding on an unlabeled token corpus.

    Returns (embedding, per-epoch mean losses).  Initialization and the
    negative samples are drawn from a single generator seeded with
    ``config.seed``, so a fixed seed reproduces the embedding bitwise.
    Draw order: W, b, prediction weights, prediction bias, then per-region
    negative sets in corpus order, then per-epoch shuffles.  A mini-batch
    gathers W x and scatters dW in one sweep; the head loops over regions.
    W and the prediction layer are stepped lazily, as in ``train``: only
    W's columns the batch's regions read and the head rows of its targets
    and negatives, all brought up to date at each epoch end.  That rounds
    differently from the dense step, and draws nothing.
    """
    if len(corpus) == 0:
        raise DataError("tv training needs a non-empty corpus")
    rng = np.random.default_rng(config.seed)
    n_words = len(word_vocab)
    W = np.asfortranarray(rng.normal(0.0, config.init_std, size=(d_tv, spec.input_dim)))
    b = rng.normal(0.0, config.init_std, size=d_tv)
    # checks the input vocabulary against the spec; training updates W, b in place
    embedding = RegionEmbedding(spec=spec, vocab=tv_vocab, W=W, b=b)
    head_W = rng.normal(0.0, config.init_std, size=(n_words, d_tv))
    head_b = rng.normal(0.0, config.init_std, size=n_words)

    # The corpus as one flat id array; example i is the region at offset
    # starts[i] of a document ending at ends[i], predicting outputs[i]:
    # its n_targets[i] target ids, then its negatives.
    pieces, starts, ends, outputs, n_targets = [], [], [], [], []
    offset = 0
    for tokens in corpus:
        input_ids = encode(tokens, tv_vocab)
        pieces.append(input_ids)
        target_ids = input_ids if tv_vocab is word_vocab else encode(tokens, word_vocab)
        for ex in make_tv_examples(target_ids, spec):
            negatives = sample_negatives(ex.target, n_words, config.negatives, rng)
            starts.append(offset + ex.pos)
            ends.append(offset + len(tokens))
            outputs.append(np.concatenate([ex.target, negatives]))
            n_targets.append(len(ex.target))
        offset += len(tokens)
    if not outputs:
        raise DataError("no tv examples")
    ids = np.concatenate(pieces)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)

    n = len(outputs)
    n_steps = config.epochs * -(-n // config.batch_size)
    params = [W, b, head_W, head_b]
    grads = [np.zeros_like(p) for p in params]
    dW, db, dhead_W, dhead_b = grads
    # W's columns and the head's rows are stepped lazily; b is small
    lazy_W = LazyMomentum(W, dW, 1, config.momentum, n_steps)
    lazy_head = [LazyMomentum(p, g, 0, config.momentum, n_steps)
                 for p, g in ((head_W, dhead_W), (head_b, dhead_b))]
    velocity = [lazy_W, np.zeros_like(b), *lazy_head]
    epoch_losses = []
    for _ in range(config.epochs):
        order = rng.permutation(n)
        loss_sum = 0.0
        for first in range(0, n, config.batch_size):
            batch = order[first : first + config.batch_size]
            view = _view_slots(ids, spec, starts[batch], ends[batch])
            lazy_W.touch(slot_columns([view]))
            head_rows = np.unique(np.concatenate([outputs[idx] for idx in batch]))
            for lazy in lazy_head:
                lazy.touch(head_rows)
            db[...] = 0.0
            H = embedding.features(view, len(batch))
            dH = np.empty_like(H)
            for row, idx in enumerate(batch):
                out_idx = outputs[idx]
                h = H[row]
                head = head_W[out_idx]
                target_vals = np.zeros(len(out_idx))
                target_vals[: n_targets[idx]] = 1.0
                pred = head @ h + head_b[out_idx]
                loss, dpred = square_loss(pred, target_vals)
                loss_sum += loss
                dpred /= len(batch)  # the gradients accumulate as the batch mean
                dhead_W[out_idx] += np.outer(dpred, h)
                dhead_b[out_idx] += dpred
                dH[row] = head.T @ dpred
            dZ = np.where(H > 0.0, dH, 0.0)
            # called through the module, so benchmark/tracer.py times it as in train
            modelmod._scatter_embedding_grad(dW, dZ, view)
            db += dZ.sum(axis=0)
            sgd_momentum_step(params, grads, velocity, config.lr, config.momentum)
        for lazy in (lazy_W, *lazy_head):
            lazy.flush()
        epoch_losses.append(loss_sum / n)
    return embedding, epoch_losses
