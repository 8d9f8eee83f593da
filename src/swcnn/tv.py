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

from swcnn.config import RunConfig
from swcnn.errors import DataError
from swcnn.model import RegionEmbedding, _view_slots
from swcnn.textpipe import (
    OOV,
    RegionSpec,
    Vocabulary,
    encode,
    region_count,
)
from swcnn.train import sgd_epochs, sgd_momentum_step, slot_columns

# benchmark/tracer.py still wraps these two names, so they must resolve;
# nothing calls them.  ROADMAP item 2 deletes this line.
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


# as in ``train``: a diverging run ends in NumericError, with no numpy warnings
@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train_tv(
    corpus: Sequence[Sequence[str]],
    spec: RegionSpec,
    tv_vocab: Vocabulary,
    word_vocab: Vocabulary,
    cfg: RunConfig,
):
    """Fit a ``cfg.tv_dim``-dimensional two-view region embedding on an
    unlabeled token corpus.

    Returns (embedding, per-epoch mean losses).  ``cfg`` gives the tv
    keys (``tv_epochs``, ``tv_lr``, ``tv_negatives``, ``tv_batch_size``)
    and the shared ``momentum`` and ``init_std``.  Initialization and the
    negative samples are drawn from a single generator seeded with
    ``cfg.seed``, so a fixed seed reproduces the embedding bitwise.
    Draw order: W, b, prediction weights, prediction bias, then per-region
    negative sets in corpus order, then per-epoch shuffles.  A mini-batch
    gathers W x and scatters dW in one sweep; the head loops over regions.
    ``sgd_epochs`` runs the batches, as in ``train``: W is touched on the
    rows the batch's regions read, the prediction layer on the rows of its
    targets and negatives, and b, which is small, on all its rows, so W's
    and the head's gradients and velocities take memory in proportion to
    what the run touches.
    """
    if len(corpus) == 0:
        raise DataError("tv training needs a non-empty corpus")
    rng = np.random.default_rng(cfg.seed)
    n_words = len(word_vocab)
    # checks the input vocabulary against the spec; training updates W, b in place
    embedding = RegionEmbedding.initial(spec, tv_vocab, cfg.tv_dim, cfg.init_std, rng)
    W, b = embedding.W, embedding.b
    head_W = rng.normal(0.0, cfg.init_std, size=(n_words, cfg.tv_dim))
    head_b = rng.normal(0.0, cfg.init_std, size=n_words)

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
            negatives = sample_negatives(ex.target, n_words, cfg.tv_negatives, rng)
            starts.append(offset + ex.pos)
            ends.append(offset + len(tokens))
            outputs.append(np.concatenate([ex.target, negatives]))
            n_targets.append(len(ex.target))
        offset += len(tokens)
    if not outputs:
        raise DataError(f"no tv examples: no region has an in-vocabulary word "
                        f"within {spec.region_size} tokens on either side")
    ids = np.concatenate(pieces)
    starts = np.asarray(starts, dtype=np.int64)
    ends = np.asarray(ends, dtype=np.int64)

    params = [W, b, head_W, head_b]
    # W and the head step on the rows a batch reads; b is small and touched in full
    b_rows = np.arange(len(b))

    def step_batch(velocity, epoch, batch):
        lazy_W, lazy_b, *lazy_head = velocity
        view = _view_slots(ids, spec, starts[batch], ends[batch])
        lazy_W.touch(slot_columns([view]))
        lazy_b.touch(b_rows)
        head_rows = np.unique(np.concatenate([outputs[idx] for idx in batch]))
        for lazy in lazy_head:
            lazy.touch(head_rows)
        grads = [lazy.grad for lazy in velocity]
        dW, db, dhead_W, dhead_b = grads
        head_pos = lazy_head[0].position
        H = embedding.features(view)
        dH = np.empty_like(H)
        batch_loss = 0.0
        for row, idx in enumerate(batch):
            out_idx = outputs[idx]
            h = H[row]
            head = head_W[out_idx]
            target_vals = np.zeros(len(out_idx))
            target_vals[: n_targets[idx]] = 1.0
            pred = head @ h + head_b[out_idx]
            loss, dpred = square_loss(pred, target_vals)
            batch_loss += loss
            dpred /= len(batch)  # the gradients accumulate as the batch mean
            at = head_pos[out_idx]
            dhead_W[at] += np.outer(dpred, h)
            dhead_b[at] += dpred
            dH[row] = head.T @ dpred
        embedding.add_grad(np.where(H > 0.0, dH, 0.0), view, dW, db, lazy_W.position)
        sgd_momentum_step(params, grads, velocity, cfg.tv_lr)
        return batch_loss

    epochs = sgd_epochs(params, len(outputs), cfg.tv_epochs, cfg.tv_batch_size, cfg.momentum,
                        rng, step_batch, "tv loss")
    return embedding, [loss for _, loss in epochs]
