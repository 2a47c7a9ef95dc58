"""Classification objectives: cross-entropy, class-weighted cross-entropy,
and the focusing variant that down-weights confidently-correct examples.

All three operate on row-wise log-probabilities (e.g. from
``softmax_logprob``) and integer class labels, return both the per-example
vector and its batch mean, and are differentiable through the tape. With
``gamma = 0`` and unit class weights the focal objective reduces exactly to
plain cross-entropy, elementwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import ConfigError, LabelError

# floor applied to the true-class log-probability before it enters the
# objective, so a pathologically confident wrong prediction cannot produce
# an infinite loss
LOGPROB_FLOOR = math.log(1e-12)


@dataclass
class FocalParams:
    """Focusing exponent and per-class weight vector.

    ``gamma``: non-negative; 0 disables focusing. ``alpha``: strictly
    positive weight per class, applied to each example by its true label.
    """

    gamma: float = 2.0
    alpha: np.ndarray = field(default_factory=lambda: np.ones(1))

    def validate(self, n_classes: int) -> None:
        if self.gamma < 0:
            raise ConfigError(f"focal gamma must be >= 0, got {self.gamma}")
        alpha = np.asarray(self.alpha, dtype=np.float64)
        if alpha.shape != (n_classes,):
            raise ConfigError(
                f"alpha has shape {alpha.shape}, expected ({n_classes},)"
            )
        if np.any(alpha <= 0):
            raise ConfigError("alpha entries must be strictly positive")


@dataclass
class LossValue:
    """Batch-mean scalar plus the per-example loss vector, both on the tape."""

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


def _true_class_logprob(tape: Tape | None, logprobs: Tensor, labels: np.ndarray) -> Tensor:
    picked = ad.gather_rows(tape, logprobs, labels)
    return ad.maximum_const(tape, picked, LOGPROB_FLOOR)


def _finish(tape: Tape | None, per_example: Tensor) -> LossValue:
    return LossValue(scalar=ad.reduce_mean(tape, per_example), per_example=per_example)


def ce_loss(tape: Tape | None, logprobs: Tensor, labels: np.ndarray) -> LossValue:
    """Negative log-probability of the true class, averaged over the batch."""
    labels = _check_labels(logprobs, labels)
    picked = _true_class_logprob(tape, logprobs, labels)
    return _finish(tape, ad.scale(tape, picked, -1.0))


def balanced_ce_loss(
    tape: Tape | None, logprobs: Tensor, labels: np.ndarray, alpha: np.ndarray
) -> LossValue:
    """Cross-entropy with a per-class weight applied by true label."""
    labels = _check_labels(logprobs, labels)
    alpha = np.asarray(alpha, dtype=np.float64)
    if alpha.shape != (logprobs.shape[1],):
        raise ConfigError(
            f"alpha has shape {alpha.shape}, expected ({logprobs.shape[1]},)"
        )
    picked = _true_class_logprob(tape, logprobs, labels)
    weighted = ad.mul(tape, ad.scale(tape, picked, -1.0), Tensor(alpha[labels]))
    return _finish(tape, weighted)


def focal_loss(
    tape: Tape | None, logprobs: Tensor, labels: np.ndarray, params: FocalParams
) -> LossValue:
    """Weighted cross-entropy scaled by (1 - p_true) ** gamma.

    Gradient flows through both appearances of the true-class probability:
    the log term and the focusing factor.
    """
    labels = _check_labels(logprobs, labels)
    params.validate(logprobs.shape[1])
    alpha = np.asarray(params.alpha, dtype=np.float64)

    picked = _true_class_logprob(tape, logprobs, labels)
    p_true = ad.exp(tape, picked)
    one_minus = ad.add_const(tape, ad.scale(tape, p_true, -1.0), 1.0)
    modulator = ad.pow_const(tape, one_minus, params.gamma)
    nll = ad.scale(tape, picked, -1.0)
    per_example = ad.mul(tape, ad.mul(tape, modulator, nll), Tensor(alpha[labels]))
    return _finish(tape, per_example)


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
