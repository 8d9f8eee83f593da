"""Numeric primitives: a per-region sparse affine map and softmax cross entropy.

``sparse_affine`` computes y = W x + b for one sparse region vector,
touching only the columns of W at x's nonzero indices, so its cost is
O(d * nnz(x)) and does not depend on the input dimensionality (hence not
on the vocabulary size).  The slot-incidence sweep in ``model.py`` does
the same arithmetic for many regions at once; this function is the
per-region reference it is tested against.
"""

from __future__ import annotations

import numpy as np

from swcnn.textpipe import SparseRegionVector


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


def softmax_xent(logits: np.ndarray, true_class: int):
    """Softmax cross-entropy with max-subtraction for overflow safety.

    Returns (loss, probs, grad_logits) where grad_logits is
    probs - onehot(true_class).
    """
    n_classes = logits.shape[0]
    if not 0 <= true_class < n_classes:
        raise ValueError(f"true_class {true_class} outside [0, {n_classes})")
    shifted = logits - np.max(logits)
    exp = np.exp(shifted)
    total = exp.sum()
    probs = exp / total
    # log-domain loss stays finite even when probs[true_class] underflows
    loss = float(np.log(total) - shifted[true_class])
    grad = probs.copy()
    grad[true_class] -= 1.0
    return loss, probs, grad
