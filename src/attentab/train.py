"""Training protocol: seeded mini-batch epochs, validation-loss early
stopping, reduce-on-plateau learning rate schedule, accuracy/F1 tracking,
and best-checkpoint restoration.

The monitored quantity everywhere is the validation task loss (the sparsity
penalty enters gradient updates but not the monitor).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .autodiff import Adam, Tape, Tensor, add, scale, softmax_logprob
from .container import atomic_write_text
from .data import EncodedDataset, Split
from .errors import ConfigError, NumericsError, ShapeError, check_int, check_number
from .losses import LossValue, alpha_from_frequencies, check_alpha_gamma, focal_nll
from .tabnet import EVAL_BATCH, TabNetClassifier

LOSS_KINDS = ("cce", "balanced", "focal")
ALPHA_MODES = ("auto", "uniform")
F1_AVERAGES = ("macro", "weighted")


@dataclass
class TrainConfig:
    """Protocol hyperparameters; architecture lives in TabNetConfig."""

    max_epochs: int = 120
    batch_size: int = 1024
    learning_rate: float = 0.02
    patience: int = 15
    min_delta: float = 1e-4
    lr_factor: float = 0.5
    lr_patience: int = 5
    min_lr: float = 1e-4
    loss_kind: str = "cce"
    focal_gamma: float = 2.0
    alpha_mode: str = "auto"
    f1_average: str = "macro"
    val_fraction: float = 0.2
    seed: int = 42

    def validate(self) -> None:
        for name, minimum in (
            ("max_epochs", 1), ("batch_size", 2), ("patience", 1), ("lr_patience", 1), ("seed", 0)
        ):
            check_int(name, getattr(self, name), minimum)
        for name in (
            "learning_rate", "min_delta", "lr_factor", "min_lr", "focal_gamma", "val_fraction"
        ):
            check_number(name, getattr(self, name))
        if self.learning_rate <= 0:
            raise ConfigError(f"learning_rate must be positive, got {self.learning_rate}")
        if self.min_delta < 0:
            raise ConfigError(f"min_delta must be >= 0, got {self.min_delta}")
        if not 0 < self.lr_factor < 1:
            raise ConfigError(f"lr_factor must be in (0, 1), got {self.lr_factor}")
        if self.min_lr <= 0:
            raise ConfigError(f"min_lr must be positive, got {self.min_lr}")
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.focal_gamma < 0:
            raise ConfigError(f"focal_gamma must be >= 0, got {self.focal_gamma}")
        if self.alpha_mode not in ALPHA_MODES:
            raise ConfigError(f"alpha_mode must be one of {ALPHA_MODES}, got {self.alpha_mode!r}")
        if self.f1_average not in F1_AVERAGES:
            raise ConfigError(
                f"f1_average must be one of {F1_AVERAGES}, got {self.f1_average!r}"
            )
        if not 0 < self.val_fraction < 1:
            raise ConfigError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    val_loss: float
    train_acc: float
    val_acc: float
    train_f1: float
    val_f1: float
    lr: float


HISTORY_COLUMNS = tuple(f.name for f in fields(EpochRecord))


@dataclass
class TrainReport:
    records: list[EpochRecord] = field(default_factory=list)
    best_epoch: int = 0
    stopped_epoch: int = 0

    @property
    def best_record(self) -> EpochRecord:
        return self.records[self.best_epoch - 1]

    def metrics_dict(self) -> dict:
        best = self.best_record
        return {
            "best_epoch": self.best_epoch,
            "val_accuracy": best.val_acc,
            "val_f1": best.val_f1,
        }

    def history_csv(self) -> str:
        lines = [",".join(HISTORY_COLUMNS)]
        for r in self.records:
            lines.append(",".join([str(r.epoch)] + [repr(getattr(r, k)) for k in HISTORY_COLUMNS[1:]]))
        return "\n".join(lines) + "\n"

    def save_history(self, path: str) -> None:
        atomic_write_text(path, self.history_csv())


class EarlyStopping:
    """Stop once the monitor has gone more than `patience` epochs without
    improving by at least `min_delta`."""

    def __init__(self, patience: int, min_delta: float):
        self.patience = patience
        self.min_delta = min_delta
        self.best = float("inf")
        self.best_epoch = 0
        self.stalled = 0

    def update(self, epoch: int, value: float) -> bool:
        """Record one epoch's monitor value; returns True when training
        should stop after this epoch."""
        if value <= self.best - self.min_delta or self.best_epoch == 0:
            self.best = value
            self.best_epoch = epoch
            self.stalled = 0
        else:
            self.stalled += 1
        return self.stalled > self.patience

    @property
    def improved(self) -> bool:
        return self.stalled == 0


class PlateauScheduler:
    """Multiply the optimizer lr by `factor` once the monitor has stalled
    for more than `patience` epochs; never below `min_lr`."""

    def __init__(self, optimizer: Adam, factor: float, patience: int, min_lr: float, min_delta: float):
        self.optimizer = optimizer
        self.factor = factor
        self.patience = patience
        self.min_lr = min_lr
        self.min_delta = min_delta
        self.best = float("inf")
        self.stalled = 0
        self._seen = False

    def update(self, value: float) -> None:
        if value <= self.best - self.min_delta or not self._seen:
            self.best = value
            self.stalled = 0
            self._seen = True
        else:
            self.stalled += 1
            if self.stalled > self.patience:
                self.optimizer.lr = max(self.optimizer.lr * self.factor, self.min_lr)
                self.stalled = 0


# ---------------------------------------------------------------- metrics


def accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ShapeError(f"preds shape {preds.shape} != labels shape {labels.shape}")
    if preds.size == 0:
        raise ConfigError("cannot compute accuracy over an empty index set")
    return float(np.mean(preds == labels))


def macro_f1(preds: np.ndarray, labels: np.ndarray, n_classes: int, average: str = "macro") -> float:
    """Per-class F1 with the 0/0 -> 0 convention, averaged over all
    `n_classes` classes (macro) or by label support (weighted)."""
    preds = np.asarray(preds)
    labels = np.asarray(labels)
    if preds.shape != labels.shape:
        raise ShapeError(f"preds shape {preds.shape} != labels shape {labels.shape}")
    if preds.size == 0:
        raise ConfigError("cannot compute F1 over an empty index set")
    if average not in F1_AVERAGES:
        raise ConfigError(f"average must be one of {F1_AVERAGES}, got {average!r}")
    f1 = np.zeros(n_classes)
    support = np.zeros(n_classes)
    for c in range(n_classes):
        tp = float(np.sum((preds == c) & (labels == c)))
        fp = float(np.sum((preds == c) & (labels != c)))
        fn = float(np.sum((preds != c) & (labels == c)))
        support[c] = tp + fn
        denom = 2 * tp + fp + fn
        f1[c] = 2 * tp / denom if denom > 0 else 0.0
    if average == "macro":
        return float(np.mean(f1))
    return float(np.sum(f1 * support) / np.sum(support))


# ------------------------------------------------------------------- loss


def resolve_loss_spec(config: TrainConfig, train_class_counts: np.ndarray) -> dict:
    """Freeze the loss choice into a JSON-friendly spec; `auto` alpha comes
    from inverse class frequencies on the training partition."""
    n_classes = len(train_class_counts)
    if config.loss_kind == "cce":
        return {"kind": "cce"}
    if config.alpha_mode == "auto":
        alpha = alpha_from_frequencies(train_class_counts)
    else:
        alpha = np.ones(n_classes)
    spec = {"kind": config.loss_kind, "alpha": [float(a) for a in alpha]}
    if config.loss_kind == "focal":
        spec["gamma"] = float(config.focal_gamma)
    return spec


def loss_terms(loss_spec: dict, n_classes: int) -> tuple[np.ndarray, float]:
    """A loss spec's class weights and focusing exponent: cce is gamma 0
    with unit alpha, balanced is gamma 0 with the spec's alpha. A spec not
    of the form :func:`resolve_loss_spec` writes raises ConfigError."""
    kind = loss_spec.get("kind") if isinstance(loss_spec, dict) else None
    if kind not in LOSS_KINDS:
        raise ConfigError(f"loss spec {loss_spec!r}: kind must be one of {LOSS_KINDS}")
    try:
        alpha = np.ones(n_classes) if kind == "cce" else loss_spec["alpha"]
        gamma = loss_spec["gamma"] if kind == "focal" else 0.0
    except KeyError as exc:
        raise ConfigError(f"{kind} loss spec has no {exc}") from None
    check_number("focal gamma", gamma)
    return check_alpha_gamma(alpha, gamma, n_classes), gamma


def batch_loss(tape: Tape | None, logits, labels: np.ndarray, loss_spec: dict) -> LossValue:
    """Softmax plus the one focal op, weighted by the spec's :func:`loss_terms`."""
    alpha, gamma = loss_terms(loss_spec, logits.shape[1])
    return focal_nll(tape, softmax_logprob(tape, logits), labels, alpha, gamma)


# ------------------------------------------------------------------- eval


def evaluate(
    model: TabNetClassifier,
    dataset: EncodedDataset,
    indices: np.ndarray,
    loss_spec: dict,
    f1_average: str = "macro",
) -> tuple[float, float, float]:
    """Eval-mode (task loss, accuracy, F1) over the given rows."""
    indices = np.asarray(indices)
    if indices.size == 0:
        raise ConfigError("cannot evaluate an empty index set")
    labels = dataset.labels[indices]
    loss_sum = 0.0
    preds = np.empty(indices.size, dtype=np.int64)
    for rows, out in model._eval_chunks(dataset.features, EVAL_BATCH, indices):
        lv = batch_loss(None, out.logits, labels[rows], loss_spec)
        loss_sum += float(np.sum(lv.per_example.data))
        preds[rows] = np.argmax(out.logits.data, axis=1)
        del out
    return (
        loss_sum / indices.size,
        accuracy(preds, labels),
        macro_f1(preds, labels, model.n_classes, average=f1_average),
    )


# ------------------------------------------------------------------- step


def training_loss(tape: Tape | None, model: TabNetClassifier, X, y, loss_spec: dict) -> Tensor:
    """The objective training minimizes: the train-mode task loss plus
    ``lambda_sparse`` times the mask-entropy penalty. Raises NumericsError
    when the logits or the total are not finite."""
    out = model.forward(tape, X, training=True)
    total = batch_loss(tape, out.logits, y, loss_spec).scalar
    lam = model.config.lambda_sparse
    if lam != 0.0:
        total = add(tape, total, scale(tape, out.sparsity, lam))
    # the floored log-probability keeps the loss finite even for
    # non-finite logits, so check the logits themselves too
    if not (np.all(np.isfinite(out.logits.data)) and np.isfinite(total.item())):
        raise NumericsError("training loss is not finite")
    return total


def train_step(model: TabNetClassifier, optimizer: Adam, X, y, loss_spec: dict) -> Tape:
    """One optimizer step on :func:`training_loss` over one batch. Returns
    the step's tape, whose records are what the step saw."""
    tape = Tape()
    total = training_loss(tape, model, X, y, loss_spec)
    optimizer.zero_grad()
    tape.backward(total)
    optimizer.step()
    return tape


# -------------------------------------------------------------------- fit


def _batches(order: np.ndarray, batch_size: int) -> list[np.ndarray]:
    chunks = [order[s : s + batch_size] for s in range(0, order.size, batch_size)]
    if len(chunks) > 1 and chunks[-1].size == 1:
        # batch norm cannot standardize a single row in training mode
        chunks[-2:] = [np.concatenate(chunks[-2:])]
    return chunks


def fit(
    model: TabNetClassifier,
    dataset: EncodedDataset,
    split: Split,
    config: TrainConfig,
    log_fn=None,
) -> TrainReport:
    """Run the epoch loop and leave `model` holding the best-epoch state."""
    config.validate()
    train_idx = np.asarray(split.train_indices)
    val_idx = np.asarray(split.val_indices)
    if train_idx.size < 2 or val_idx.size == 0:
        raise ConfigError("split must provide at least 2 train rows and 1 validation row")

    counts = np.bincount(dataset.labels[train_idx], minlength=model.n_classes)
    loss_spec = resolve_loss_spec(config, counts)

    rng = np.random.default_rng(config.seed)
    optimizer = Adam(model.parameters(), lr=config.learning_rate)
    stopper = EarlyStopping(config.patience, config.min_delta)
    scheduler = PlateauScheduler(
        optimizer, config.lr_factor, config.lr_patience, config.min_lr, config.min_delta
    )

    report = TrainReport()
    best_state: dict[str, np.ndarray] | None = None
    X, y = dataset.features, dataset.labels
    for epoch in range(1, config.max_epochs + 1):
        epoch_lr = optimizer.lr
        try:
            for rows in _batches(rng.permutation(train_idx), config.batch_size):
                train_step(model, optimizer, X[rows], y[rows], loss_spec)
            train_loss, train_acc, train_f1 = evaluate(
                model, dataset, train_idx, loss_spec, config.f1_average
            )
            val_loss, val_acc, val_f1 = evaluate(
                model, dataset, val_idx, loss_spec, config.f1_average
            )
            if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
                raise NumericsError("evaluation loss is not finite")
        except NumericsError as exc:
            if exc.epoch is None:
                exc.epoch = epoch
            raise
        record = EpochRecord(epoch, train_loss, val_loss, train_acc, val_acc, train_f1, val_f1, epoch_lr)
        report.records.append(record)
        if log_fn is not None:
            log_fn(record)

        should_stop = stopper.update(epoch, val_loss)
        if stopper.improved:
            best_state = model.snapshot()
        scheduler.update(val_loss)
        report.stopped_epoch = epoch
        if should_stop:
            break

    report.best_epoch = stopper.best_epoch
    if best_state is not None:
        model.load_state(best_state)
    model.fitted = True
    model.train_info = {
        "loss": loss_spec,
        "train_config": asdict(config),
        "best_epoch": report.best_epoch,
        "stopped_epoch": report.stopped_epoch,
    }
    return report
