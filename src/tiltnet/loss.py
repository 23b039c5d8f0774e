"""Batch loss layers over score matrices.

Both losses consume the n-by-C score matrix F of one batch (row j = scores of
example j, column y = class y) and return (log_likelihood, gradient) with the
gradient oriented for ascent; the optimizer owns signs and scaling. The
discriminative objective scores the class posterior; the generative objective
scores the images themselves, with the batch standing in for the reference
distribution through self-normalized importance weights.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError, NumericsError, ShapeError


def _validate(scores, labels):
    f = np.asarray(scores, dtype=np.float64)
    if f.ndim != 2:
        raise ShapeError(f"scores must be 2-D [n, C], got shape {f.shape}")
    n, c = f.shape
    if n < 1 or c < 2:
        raise ShapeError(f"scores must have n >= 1 rows and C >= 2 columns, got {f.shape}")
    if not np.all(np.isfinite(f)):
        raise NumericsError("non-finite scores")
    y = np.asarray(labels)
    if y.shape != (n,):
        raise ShapeError(f"labels must have shape ({n},), got {y.shape}")
    if not np.issubdtype(y.dtype, np.integer):
        raise ShapeError("labels must be integers")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise DataError(f"labels must lie in [0, {c}), got range [{y.min()}, {y.max()}]")
    return f, y.astype(np.int64)


def _softmax(f, axis):
    """(log softmax, softmax) of f along axis, shifted by its maximum there:
    over the classes (axis 1) for the discriminative loss, over the batch
    (axis 0) for the generative loss's in-batch importance weights."""
    shifted = f - f.max(axis=axis, keepdims=True)
    expf = np.exp(shifted)
    total = expf.sum(axis=axis, keepdims=True)
    return shifted - np.log(total), expf / total


def disc_loss_and_grad(scores, labels):
    """Class-posterior log-likelihood of a batch and its score gradient.

    Returns the sum over examples of the log row-softmax probability of the
    true label, and the n-by-C matrix (indicator of the label) - (row
    softmax). Each row of the gradient sums to zero.
    """
    f, y = _validate(scores, labels)
    n = f.shape[0]
    log_probs, probs = _softmax(f, 1)
    ll = float(log_probs[np.arange(n), y].sum())
    grad = -probs
    grad[np.arange(n), y] += 1.0
    return ll, grad


def gen_loss_and_grad(scores, labels):
    """Image log-likelihood of a batch and its score gradient.

    Per example i the likelihood compares exp(F[i, y_i]) against the batch
    mean of exp over column y_i, i.e. the batch itself approximates the
    reference distribution. The per-example gradients aggregate to the
    closed form (indicator that example j carries class y) - n_y * W[j, y],
    where W[., y] is the softmax of column y over the batch and n_y counts
    examples of class y; each column of the gradient sums to zero.
    """
    f, y = _validate(scores, labels)
    n, c = f.shape
    if n < 2:
        raise ShapeError("generative loss needs a batch of n >= 2 examples")
    log_batch_softmax, weights = _softmax(f, 0)
    ll = float((log_batch_softmax[np.arange(n), y] + np.log(n)).sum())
    counts = np.bincount(y, minlength=c).astype(np.float64)
    grad = -weights * counts
    grad[np.arange(n), y] += 1.0
    return ll, grad


def per_class_ess(scores, labels) -> dict:
    """Effective sample size 1 / sum(w^2) of the in-batch weights w (the
    softmax of one score column over the batch) for every class present in
    the labels: n for a uniform column, 1 when one image dominates. The
    present columns are handled together as rows of the transposed scores."""
    f, y = _validate(scores, labels)
    present = np.unique(y)
    w = _softmax(f.T[present], 1)[1]
    ess = 1.0 / np.square(w).sum(axis=1)
    return {int(k): float(v) for k, v in zip(present, ess)}
