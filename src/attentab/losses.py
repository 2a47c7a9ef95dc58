"""Classification objectives as one fused tape op.

``focal_nll`` is the focal objective: the true-class negative
log-probability, scaled by ``(1 - p_true) ** gamma`` and by a per-class
weight ``alpha`` picked by the true label. Plain cross-entropy is the case
``gamma = 0`` with unit ``alpha``, and class-weighted cross-entropy is
``gamma = 0``, so the three objectives share one forward and one
closed-form backward and the focal/cross-entropy identity holds by
construction. The op works on row-wise log-probabilities (e.g. from
``softmax_logprob``) and integer class labels, records a single tape entry
for the batch-mean scalar, and also returns the per-example vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .autodiff import Tape, Tensor
from .errors import ConfigError, LabelError, ShapeError

# floor applied to the true-class log-probability before it enters the
# objective, so a pathologically confident wrong prediction cannot produce
# an infinite loss
LOGPROB_FLOOR = math.log(1e-12)


@dataclass
class LossValue:
    """Batch-mean scalar (on the tape) plus the plain per-example vector."""

    scalar: Tensor
    per_example: Tensor

    def item(self) -> float:
        return self.scalar.item()


def _check_labels(logprobs: Tensor, labels: np.ndarray) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = logprobs.shape[1]
    if labels.ndim != 1 or labels.shape[0] != logprobs.shape[0]:
        raise LabelError(
            f"labels shape {labels.shape} does not match batch {logprobs.shape[0]}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise LabelError(
            f"label index out of range [0, {n_classes}): min {labels.min()}, max {labels.max()}"
        )
    return labels


def check_alpha_gamma(alpha, gamma: float, n_classes: int) -> np.ndarray:
    """``alpha`` as a float vector, once it and ``gamma`` are checked."""
    if gamma < 0:
        raise ConfigError(f"focal gamma must be >= 0, got {gamma}")
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (n_classes,):
        raise ConfigError(f"alpha has shape {alpha.shape}, expected ({n_classes},)")
    if not (np.isfinite(alpha) & (alpha > 0)).all():
        raise ConfigError("alpha entries must be finite and strictly positive")
    return alpha


def focal_nll(
    tape: Tape | None, logprobs: Tensor, labels: np.ndarray, alpha, gamma: float
) -> LossValue:
    """Batch mean of ``alpha[y] * (1 - p_true) ** gamma * -log p_true``.

    ``log p_true`` is clamped below at ``LOGPROB_FLOOR``; a clamped row
    passes no gradient. Gradient flows through both appearances of
    ``p_true``: the log term and the focusing factor, whose derivative is
    taken as 0 where it diverges (``p_true = 1`` with ``gamma < 1``).
    """
    labels = _check_labels(logprobs, labels)
    alpha = check_alpha_gamma(alpha, gamma, logprobs.shape[1])
    rows = np.arange(labels.size)
    raw = logprobs.data[rows, labels]
    unfloored = raw > LOGPROB_FLOOR
    picked = np.where(unfloored, raw, LOGPROB_FLOOR)
    p = np.exp(picked)
    one_minus = p * -1.0 + 1.0
    if gamma != 0 and np.any(one_minus < 0):
        raise ShapeError("focal_nll: log-probabilities must not be positive")
    modulator = np.power(one_minus, gamma)
    nll = picked * -1.0
    weight = alpha[labels]
    per = modulator * nll * weight
    out = Tensor(per.mean())
    if tape is not None:
        n = labels.size
        shape = logprobs.shape
        if gamma != 0:
            with np.errstate(divide="ignore", invalid="ignore"):
                dmod = gamma * np.power(one_minus, gamma - 1.0)
            # subgradient 0 where the focusing derivative diverges
            dmod = np.where(np.isfinite(dmod), dmod, 0.0)

        def bwd(g):
            w = (g / n) * weight
            gp = (w * modulator) * -1.0
            if gamma != 0:
                gp = gp + ((w * nll) * dmod) * -1.0 * p
            gx = np.zeros(shape)
            gx[rows, labels] = gp * unfloored
            return (gx,)

        tape.record("focal_nll", (logprobs,), out, bwd)
    return LossValue(scalar=out, per_example=Tensor(per))


def alpha_from_frequencies(class_counts) -> np.ndarray:
    """Per-class weights inversely proportional to class frequency:
    N / (C * count_c), which averages to one under the empirical class
    distribution (balanced counts give all ones), not as a plain mean.
    """
    counts = np.asarray(class_counts, dtype=np.float64)
    if counts.ndim != 1 or counts.size == 0:
        raise ConfigError(f"class_counts must be a non-empty vector, got shape {counts.shape}")
    if np.any(counts <= 0):
        bad = int(np.argmin(counts))
        raise ConfigError(f"class {bad} has no examples; cannot weight a degenerate class")
    return counts.sum() / (counts.size * counts)
