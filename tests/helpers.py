"""Shared builders for synthetic corpora, tiny models and gradient checks."""

import numpy as np

from swcnn.model import RegionEmbedding, forward, prepare_document
from swcnn.kernels import softmax_xent
from swcnn.textpipe import BOW_WORD, CONCAT, RegionSpec, Vocabulary
from swcnn.train import ModelTemplate, TrainConfig, init_model


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
