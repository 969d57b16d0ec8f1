"""Scalar loss functions built on the tensor ops.

Probabilities are clamped to [1e-7, 1 - 1e-7] before any log so confident
predictions cannot produce infinities.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, _accumulate, _make, _softmax_grad, _softmax_values, as_tensor, clamp, log

PROB_EPS = 1e-7


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def bce_terms(pred, target) -> Tensor:
    """Elementwise binary cross-entropy; ``pred`` holds probabilities.

    One op: -(t*log(p) + (1-t)*log(1-p)) with p the clamped ``pred``, and
    the closed-form backward that the tape composes from clamp, log, mul,
    sub, add and neg, with the same float work.
    """
    pred, target = as_tensor(pred), as_tensor(target)
    _check_same_shape("bce", pred, target)
    x = pred.values
    p = np.minimum(np.maximum(x, PROB_EPS), 1.0 - PROB_EPS)
    t = target.values
    rest = 1.0 - t
    out_v = -(t * np.log(p) + rest * np.log(1.0 - p))

    def backward(g):
        g = -g
        g_p = (g * t) / p + -((g * rest) / (1.0 - p))
        _accumulate(pred, g_p * ((x >= PROB_EPS) & (x <= 1.0 - PROB_EPS)))

    return _make(out_v, (pred,), backward)


def cross_entropy_terms(logits, class_index) -> Tensor:
    """Per-row negative log-likelihood of the given class under softmax(logits).

    One op: -log of the clamped softmax probability of each row's class,
    with the closed-form backward that the tape composes from softmax,
    clamp, take_per_row, log and neg, with the same float work.
    """
    logits = as_tensor(logits)
    if logits.ndim == 1:
        logits = logits.reshape((1, -1))
    idx = np.atleast_1d(np.asarray(class_index, dtype=np.int64))
    if idx.shape != (logits.shape[0],):
        raise DimensionError(
            f"cross_entropy: {idx.shape[0]} targets for {logits.shape[0]} rows"
        )
    if idx.size and (idx.min() < 0 or idx.max() >= logits.shape[1]):
        raise DimensionError("cross_entropy: class index out of range")
    rows = np.arange(len(idx))
    s = _softmax_values(logits.values, 1)
    picked = np.minimum(np.maximum(s, PROB_EPS), 1.0)[rows, idx]
    out_v = -np.log(picked)

    def backward(g):
        g_p = np.zeros_like(s)
        np.add.at(g_p, (rows, idx), -g / picked)
        _accumulate(logits, _softmax_grad(s, g_p * ((s >= PROB_EPS) & (s <= 1.0)), 1))

    return _make(out_v, (logits,), backward)


def cross_entropy(logits, class_index) -> Tensor:
    """Mean negative log-likelihood of the given class under softmax(logits)."""
    return cross_entropy_terms(logits, class_index).mean()


def kl_gaussian_standard(mu, log_sigma, axis=None) -> Tensor:
    """KL(N(mu, diag(sigma^2)) || N(0, I)), summed over ``axis`` (all entries by default)."""
    mu, log_sigma = as_tensor(mu), as_tensor(log_sigma)
    _check_same_shape("kl_gaussian_standard", mu, log_sigma)
    from .tensor import exp  # local import keeps module init order simple

    var = exp(2.0 * log_sigma)
    return 0.5 * (mu**2 + var - 1.0 - 2.0 * log_sigma).sum(axis=axis)


def kl_categorical(p_student, p_teacher) -> Tensor:
    """KL(p_student || p_teacher) over the last axis, averaged over rows."""
    p_s, p_t = as_tensor(p_student), as_tensor(p_teacher)
    _check_same_shape("kl_categorical", p_s, p_t)
    ps = clamp(p_s, PROB_EPS, 1.0)
    pt = clamp(p_t, PROB_EPS, 1.0)
    per_row = (ps * (log(ps) - log(pt))).sum(axis=-1)
    return per_row.mean() if per_row.ndim else per_row
