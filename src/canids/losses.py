"""Scalar loss functions built on the tensor ops.

Probabilities are clamped to [1e-7, 1 - 1e-7] before any log so confident
predictions cannot produce infinities.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionError
from .tensor import Tensor, as_tensor, clamp, log, softmax, take_per_row

PROB_EPS = 1e-7


def _check_same_shape(op, a, b):
    if a.shape != b.shape:
        raise DimensionError(f"{op}: shape mismatch {a.shape} vs {b.shape}")


def bce_terms(pred, target) -> Tensor:
    """Elementwise binary cross-entropy; ``pred`` holds probabilities."""
    pred, target = as_tensor(pred), as_tensor(target)
    _check_same_shape("bce", pred, target)
    p = clamp(pred, PROB_EPS, 1.0 - PROB_EPS)
    t = target.values
    return -(t * log(p) + (1.0 - t) * log(1.0 - p))


def bce(pred, target) -> Tensor:
    """Mean binary cross-entropy; ``pred`` holds probabilities."""
    return bce_terms(pred, target).mean()


def mse(pred, target) -> Tensor:
    pred, target = as_tensor(pred), as_tensor(target)
    _check_same_shape("mse", pred, target)
    return ((pred - target.values) ** 2).mean()


def cross_entropy_terms(logits, class_index) -> Tensor:
    """Per-row negative log-likelihood of the given class under softmax(logits)."""
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
    p = clamp(softmax(logits, axis=1), PROB_EPS, 1.0)
    return -log(take_per_row(p, idx))


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
