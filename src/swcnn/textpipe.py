"""Text pipeline: tokenization, capped vocabularies, id arrays, region specs.

Raw documents become deterministic lowercase token sequences.  A
frequency-ranked vocabulary (plain words or {1,2,3}-grams) maps tokens to
integer ids; out-of-vocabulary tokens keep an explicit marker so they can
contribute zero columns downstream.  ``encode`` turns a document into the
int64 id array the model's slot sweep reads: shape (L,) of word ids, or
(L, 3) of the 1-, 2- and 3-gram ids starting at each position.

A text region (a window of ``region_size`` consecutive tokens) is read
under one of three representations, each over one vocabulary kind
(``RegionSpec.vocab_kind``):

* ``concat-one-hot``: one one-hot block per position, dimensionality
  ``region_size * vocab_size`` (position-sensitive), over words.
* ``bow-word``: word counts over the region, dimensionality ``vocab_size``
  (position-insensitive), over words.
* ``bow-ngram123``: counts of the {1,2,3}-grams fully contained in the
  region, over an n-gram vocabulary.

Documents shorter than the region size are right-padded with OOV markers
so every document has at least one region; stride is always 1.
"""

from __future__ import annotations

import re
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

OOV = -1

CONCAT = "concat-one-hot"
BOW_WORD = "bow-word"
BOW_NGRAM = "bow-ngram123"
REPRESENTATIONS = (CONCAT, BOW_WORD, BOW_NGRAM)

WORD = "word"
NGRAM123 = "ngram123"

# Maximal alphanumeric runs; any other non-whitespace character stands alone.
_TOKEN_RE = re.compile(r"[^\W_]+|\S")


def tokenize(raw: str) -> list[str]:
    """Split raw text into lowercase tokens, order preserved.

    The two-character literal sequence backslash-n (as embedded in the
    distributed CSV files) is treated as whitespace.  Tokens are maximal
    runs of alphanumeric characters; every other non-whitespace character
    becomes a single-character token.
    """
    return _TOKEN_RE.findall(raw.lower().replace("\\n", " "))


@dataclass(frozen=True)
class Vocabulary:
    """Frequency-ranked token-to-id map with a hard size cap.

    ``entries[i]`` is the (token, frequency) pair for id ``i``.
    Frequencies are non-increasing by id; equal-frequency ties are in
    ascending lexicographic order of the token string.
    """

    kind: str
    entries: tuple[tuple[str, int], ...]
    index: dict[str, int] = field(repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        if self.kind not in (WORD, NGRAM123):
            raise ValueError(f"unknown vocabulary kind {self.kind!r}")
        if not self.index:
            object.__setattr__(
                self, "index", {tok: i for i, (tok, _) in enumerate(self.entries)}
            )

    def __len__(self) -> int:
        return len(self.entries)


def _ngram_keys(tokens: Sequence[str]) -> tuple[Sequence[str], list[str], list[str]]:
    """A document's 1-, 2- and 3-gram keys, space-joined; item i of each
    list is the gram starting at token i."""
    pairs = [a + " " + b for a, b in zip(tokens, tokens[1:])]
    triples = [pair + " " + c for pair, c in zip(pairs, tokens[2:])]
    return tokens, pairs, triples


def build_vocab(corpus: Iterable[Sequence[str]], kind: str, cap: int) -> Vocabulary:
    """Build the top-``cap`` vocabulary of a tokenized corpus.

    Items are plain tokens (kind="word") or all contiguous {1,2,3}-grams
    (kind="ngram123", space-joined).  Ids are assigned in (frequency
    descending, token ascending) order, so the result is deterministic.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    counts: Counter[str] = Counter()
    if kind == WORD:
        for tokens in corpus:
            counts.update(tokens)
    elif kind == NGRAM123:
        for tokens in corpus:
            for grams in _ngram_keys(tokens):
                counts.update(grams)
    else:
        raise ValueError(f"unknown vocabulary kind {kind!r}")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
    return Vocabulary(kind=kind, entries=tuple(ranked))


def encode(tokens: Sequence[str], vocab: Vocabulary) -> np.ndarray:
    """The int64 ids of a token sequence, laid out as the slot sweep reads them.

    Against a word vocabulary the result has shape (L,): token i maps to
    its id, or OOV.  Against an n-gram vocabulary it has shape (L, 3):
    row i holds the ids of the 1-, 2- and 3-gram starting at token i, OOV
    where the gram is absent from the vocabulary or runs past the end.
    """
    get = vocab.index.get
    if vocab.kind == WORD:
        return np.array([get(tok, OOV) for tok in tokens], dtype=np.int64)
    ids = np.full((len(tokens), 3), OOV, dtype=np.int64)
    for n, grams in enumerate(_ngram_keys(tokens)):
        ids[: len(grams), n] = [get(gram, OOV) for gram in grams]
    return ids


@dataclass(frozen=True)
class RegionSpec:
    """Representation, region size and vocabulary size of one input view."""

    representation: str
    region_size: int
    vocab_size: int

    def __post_init__(self):
        if self.representation not in REPRESENTATIONS:
            raise ValueError(f"unknown representation {self.representation!r}")
        if self.region_size < 1:
            raise ValueError("region_size must be >= 1")
        if self.vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")

    @property
    def input_dim(self) -> int:
        if self.representation == CONCAT:
            return self.region_size * self.vocab_size
        return self.vocab_size

    @property
    def vocab_kind(self) -> str:
        """The kind of vocabulary this representation reads."""
        return NGRAM123 if self.representation == BOW_NGRAM else WORD


def region_count(doc_len: int, region_size: int) -> int:
    """Number of stride-1 region positions after right-padding."""
    return max(1, doc_len - region_size + 1)
