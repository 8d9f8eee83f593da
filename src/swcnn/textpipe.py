"""Text pipeline: tokenization, capped vocabularies, sparse region vectors.

Raw documents become deterministic lowercase token sequences.  A
frequency-ranked vocabulary (plain words or {1,2,3}-grams) maps tokens to
integer ids; out-of-vocabulary tokens keep an explicit marker so they can
contribute zero columns downstream.  A text region (a window of
``region_size`` consecutive tokens) is turned into a sparse vector under
one of three representations:

* ``concat-one-hot``: one one-hot block per position, dimensionality
  ``region_size * vocab_size`` (position-sensitive).
* ``bow-word``: word counts over the region, dimensionality ``vocab_size``
  (position-insensitive).
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

WORD_VOCAB_CAP = 30_000
NGRAM_VOCAB_CAP = 200_000

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


def iter_ngrams(tokens: Sequence[str], max_n: int = 3) -> Iterable[str]:
    """All contiguous 1..max_n-grams of a token sequence, space-joined."""
    n_tokens = len(tokens)
    for i in range(n_tokens):
        for n in range(1, max_n + 1):
            if i + n > n_tokens:
                break
            yield " ".join(tokens[i : i + n])


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
            counts.update(iter_ngrams(tokens))
    else:
        raise ValueError(f"unknown vocabulary kind {kind!r}")
    ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:cap]
    return Vocabulary(kind=kind, entries=tuple(ranked))


@dataclass(frozen=True)
class EncodedDocument:
    """The per-token vocabulary ids of one document.

    ``ids[i]`` is the id of token i in the vocabulary the document was
    encoded against, or OOV.  For n-gram vocabularies, ``ngram_ids[i]``
    additionally holds the ids of the 1-, 2- and 3-gram starting at
    position i (OOV where the n-gram is absent from the vocabulary or
    runs past the end of the document); bow-ngram region vectors are
    exact only with this field present.
    """

    ids: tuple[int, ...]
    ngram_ids: tuple[tuple[int, int, int], ...] | None = None

    def __len__(self) -> int:
        return len(self.ids)


def encode(tokens: Sequence[str], vocab: Vocabulary) -> EncodedDocument:
    """Encode a token sequence against a vocabulary.

    In-vocabulary tokens map to their id (for n-gram vocabularies, via
    their unigram key); all others map to the OOV marker.  Length is
    preserved.
    """
    ids = tuple(vocab.index.get(tok, OOV) for tok in tokens)
    ngram_ids = None
    if vocab.kind == NGRAM123:
        lookup = vocab.index
        n_tokens = len(tokens)
        grams = []
        for i in range(n_tokens):
            key = tokens[i]
            one = lookup.get(key, OOV)
            if i + 2 <= n_tokens:
                key = key + " " + tokens[i + 1]
                two = lookup.get(key, OOV)
                if i + 3 <= n_tokens:
                    three = lookup.get(key + " " + tokens[i + 2], OOV)
                else:
                    three = OOV
            else:
                two = OOV
                three = OOV
            grams.append((one, two, three))
        ngram_ids = tuple(grams)
    return EncodedDocument(ids=ids, ngram_ids=ngram_ids)


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


def region_count(doc_len: int, region_size: int) -> int:
    """Number of stride-1 region positions after right-padding."""
    return max(1, doc_len - region_size + 1)


def region_vector(doc: EncodedDocument, pos: int, spec: RegionSpec) -> SparseRegionVector:
    """Sparse vector of the region covering token positions pos..pos+p-1.

    Positions past the end of the document (present only when the
    document was right-padded to the region size) act as OOV and
    contribute nothing.
    """
    n_positions = region_count(len(doc.ids), spec.region_size)
    if not 0 <= pos < n_positions:
        raise ValueError(f"region position {pos} outside [0, {n_positions})")
    return _region_vector_unchecked(doc, pos, spec)


def _region_vector_unchecked(doc, pos, spec):
    p = spec.region_size
    v = spec.vocab_size
    ids = doc.ids
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
        if doc.ngram_ids is None:
            raise ValueError("bow-ngram123 region vectors need an n-gram encoded document")
        counts = Counter()
        for start in range(pos, end):
            grams = doc.ngram_ids[start]
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
