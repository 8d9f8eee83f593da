"""Seeded corpora with a planted labelling rule, and the closed forms the
benchmark checks the program against.

Every document is Zipf-distributed background words plus a few cue words
of its true class.  Cue words never occur as background, so the text
determines the true class exactly.  The written label is the true class,
except that with probability ``noise`` it is replaced by one of the other
classes, chosen uniformly.  A model that has learnt the rule therefore
errs on the written labels at rate ``noise``; nothing else in the text
predicts the flips.

Words are lowercase letters and digits separated by single spaces, so the
program's tokenizer returns exactly the generated words and the
vocabularies can be recomputed here without the program.
"""

from __future__ import annotations

import math
import struct
from collections import Counter
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Corpus:
    texts: list[str]
    labels: list[int]  # 0-based, as written to the CSV (after label noise)


def _zipf_probs(n_words: int) -> np.ndarray:
    """Zipf's law with exponent 1 over word ranks 1..n_words."""
    p = 1.0 / np.arange(1, n_words + 1, dtype=np.float64)
    return p / p.sum()


def generate(
    rng: np.random.Generator,
    n_docs: int,
    length: tuple[int, int],
    lexicon: int,
    n_classes: int,
    cues_per_class: int,
    cues_per_doc: int,
    noise: float,
) -> Corpus:
    """``n_docs`` documents, classes balanced round-robin then shuffled.

    Background lengths are spread evenly over ``length`` and shuffled, so
    every seed yields the same total number of words.
    """
    probs = _zipf_probs(lexicon)
    lengths = rng.permutation(np.linspace(length[0], length[1], n_docs).round().astype(int))
    background = rng.choice(lexicon, size=int(lengths.sum()), p=probs)
    texts, labels = [], []
    offset = 0
    for i in range(n_docs):
        n = int(lengths[i])
        words = [f"w{r}" for r in background[offset : offset + n]]
        offset += n
        true_class = i % n_classes
        cues = rng.integers(0, cues_per_class, size=cues_per_doc)
        slots = rng.integers(0, n + 1, size=cues_per_doc)
        for cue, slot in sorted(zip(cues.tolist(), slots.tolist()), key=lambda t: -t[1]):
            words.insert(slot, f"c{true_class}k{cue}")
        label = true_class
        if rng.random() < noise:
            label = (true_class + 1 + int(rng.integers(0, n_classes - 1))) % n_classes
        texts.append(" ".join(words))
        labels.append(label)
    order = rng.permutation(n_docs)
    return Corpus(texts=[texts[i] for i in order], labels=[labels[i] for i in order])


def concat(*parts: Corpus) -> Corpus:
    return Corpus(
        texts=[t for part in parts for t in part.texts],
        labels=[y for part in parts for y in part.labels],
    )


def write_csv(path, corpus: Corpus, n: int | None = None) -> None:
    n = len(corpus.texts) if n is None else n
    with open(path, "w", encoding="utf-8") as out:
        for text, label in zip(corpus.texts[:n], corpus.labels[:n]):
            out.write(f'"{label + 1}","{text}"\n')


def write_lines(path, texts) -> None:
    with open(path, "w", encoding="utf-8") as out:
        for text in texts:
            out.write(text + "\n")


def error_ceiling_percent(noise: float, n_test: int, allowance: float) -> float:
    """Highest test error a model that learnt the rule may show.

    The label noise rate, plus four binomial standard deviations of the
    test sample, plus ``allowance`` percentage points for a model trained
    for only a few epochs.
    """
    sigma = math.sqrt(noise * (1.0 - noise) / n_test)
    return 100.0 * (noise + 4.0 * sigma) + allowance


def expected_vocab(texts, kind: str, cap: int) -> list[tuple[str, int]]:
    """The vocabulary ``swcnn vocab`` must write: top ``cap`` words or
    {1,2,3}-grams by (frequency descending, token ascending)."""
    counts: Counter[str] = Counter()
    for text in texts:
        words = text.split()
        counts.update(words)
        if kind == "ngram123":
            counts.update(" ".join(pair) for pair in zip(words, words[1:]))
            counts.update(" ".join(tri) for tri in zip(words, words[1:], words[2:]))
    return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]


def read_vocab(path) -> tuple[str, list[tuple[str, int]]]:
    with open(path, encoding="utf-8") as stream:
        kind = stream.readline().rstrip("\n").partition("=")[2]
        entries = []
        for line in stream:
            token, _, freq = line.rstrip("\n").rpartition("\t")
            entries.append((token, int(freq)))
    return kind, entries


def param_count(d, region_size, v_base, tvs, n_classes, pooling_k) -> int:
    """Closed-form trainable-parameter count of a concat-one-hot base model;
    ``tvs`` holds (dim, vocab) per fused embedding."""
    total = d * region_size * v_base + d
    for tv_dim, tv_vocab in tvs:
        total += tv_dim * tv_vocab + tv_dim + d * tv_dim
    return total + n_classes * d * pooling_k + n_classes


def _embedding_block_bytes(tokens, rows, cols) -> int:
    # representation, region size, vocab kind, vocab size, entries, W, b
    entries = sum(4 + len(t.encode("utf-8")) + 8 for t in tokens)
    return 1 + 4 + 1 + 4 + entries + (8 + 8 * rows * cols) + (4 + 8 * rows)


def container_bytes(d, base_tokens, base_cols, tvs, n_classes, pooling_k) -> int:
    """Size of a model container by the layout documented in serialize.py;
    ``tvs`` holds (tokens, dim, input columns) per fused embedding."""
    size = 4 + 4 + 1 + (4 + 4 + 8)
    size += _embedding_block_bytes(base_tokens, d, base_cols)
    size += 4
    for tokens, tv_dim, cols in tvs:
        size += _embedding_block_bytes(tokens, tv_dim, cols) + (8 + 8 * d * tv_dim)
    size += (8 + 8 * n_classes * d * pooling_k) + (4 + 8 * n_classes)
    return size


def write_nan_model(path, words, d=4, n_classes=2) -> None:
    """A well-formed model container (serialize.py layout, version 1) whose
    weights are all NaN: bow-word base of region size 1, no tv."""
    nan = struct.pack("<d", float("nan"))
    with open(path, "wb") as out:
        out.write(b"SWCN" + struct.pack("<IB", 1, 0))
        out.write(struct.pack("<IId", 1, n_classes, 0.5))
        out.write(struct.pack("<BI", 1, 1) + struct.pack("<BI", 0, len(words)))
        for word in words:
            raw = word.encode("utf-8")
            out.write(struct.pack("<I", len(raw)) + raw + struct.pack("<Q", 1))
        out.write(struct.pack("<II", d, len(words)) + nan * (d * len(words)))
        out.write(struct.pack("<I", d) + nan * d)
        out.write(struct.pack("<I", 0))
        out.write(struct.pack("<II", n_classes, d) + nan * (n_classes * d))
        out.write(struct.pack("<I", n_classes) + nan * n_classes)
