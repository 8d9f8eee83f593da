"""Softmax cross entropy, the loss at the top of the supervised model.

The region sweep and its gradient live in ``model.py``.
"""

from __future__ import annotations

import numpy as np


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
