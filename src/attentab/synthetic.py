"""Synthetic dataset generators used by the acceptance suite and the
benchmark: a margin-separated nonlinear 3-class task for learnability
and feature-recovery checks, and an overlapping imbalanced binary task for
loss-comparison experiments.
"""

from __future__ import annotations

import numpy as np

from .data import (
    KIND_CONTINUOUS,
    KIND_TARGET,
    ColumnSchema,
    EncodedDataset,
    FeatureSchema,
)


def _nonlinear_score(x: np.ndarray) -> np.ndarray:
    # each informative feature enters through a different nonlinearity
    return x[:, 0] * x[:, 1] + np.square(x[:, 2]) - np.abs(x[:, 3]) + x[:, 4]


def make_classification(
    n_rows: int = 4000,
    n_noise: int = 15,
    seed: int = 0,
    margin: float = 0.25,
) -> tuple[np.ndarray, np.ndarray, list[str]]:
    """3-class task: tertiles of a nonlinear score over 5 informative
    standard-normal features, with a margin band around each threshold
    removed so the classes are cleanly separable. Noise features are iid
    standard normal. Returns (features, labels, informative_names)."""
    n_informative = 5
    rng = np.random.default_rng(seed)
    calib = _nonlinear_score(rng.standard_normal((20000, n_informative)))
    t1, t2 = np.quantile(calib, [1.0 / 3.0, 2.0 / 3.0])
    band = margin * float(np.std(calib))

    collected_x: list[np.ndarray] = []
    collected_y: list[np.ndarray] = []
    n_have = 0
    while n_have < n_rows:
        x = rng.standard_normal((2 * n_rows, n_informative))
        s = _nonlinear_score(x)
        keep = (np.abs(s - t1) > band) & (np.abs(s - t2) > band)
        x, s = x[keep], s[keep]
        y = np.where(s < t1, 0, np.where(s < t2, 1, 2)).astype(np.int64)
        collected_x.append(x)
        collected_y.append(y)
        n_have += x.shape[0]
    informative = np.concatenate(collected_x)[:n_rows]
    labels = np.concatenate(collected_y)[:n_rows]
    noise = rng.standard_normal((n_rows, n_noise))
    features = np.concatenate([informative, noise], axis=1)
    names = [f"x{j:02d}" for j in range(n_informative)]
    return features, labels, names


def make_imbalanced(
    n_rows: int = 3000,
    minority_fraction: float = 0.05,
    shift: float = 1.2,
    n_informative: int = 3,
    n_noise: int = 7,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Binary task with an exact minority count and overlapping classes:
    the minority mean is shifted by `shift` along each informative axis, so
    the Bayes boundary leaves genuinely hard minority instances."""
    rng = np.random.default_rng(seed)
    n_minority = int(round(n_rows * minority_fraction))
    d = n_informative + n_noise
    features = rng.standard_normal((n_rows, d))
    labels = np.zeros(n_rows, dtype=np.int64)
    labels[:n_minority] = 1
    features[:n_minority, :n_informative] += shift
    order = rng.permutation(n_rows)
    return features[order], labels[order]


def dataset_from_arrays(
    features: np.ndarray,
    labels: np.ndarray,
    class_names: list[str] | None = None,
    feature_names: list[str] | None = None,
    target: str = "label",
) -> EncodedDataset:
    """Wrap numeric arrays as an EncodedDataset with an all-continuous
    schema, bypassing the CSV pipeline."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n_classes = int(labels.max()) + 1
    if class_names is None:
        class_names = [f"c{c}" for c in range(n_classes)]
    if feature_names is None:
        feature_names = [f"x{j:02d}" for j in range(features.shape[1])]
    columns = [
        ColumnSchema(name=name, kind=KIND_CONTINUOUS) for name in feature_names
    ] + [ColumnSchema(name=target, kind=KIND_TARGET)]
    schema = FeatureSchema(columns=columns, target=target, labels=sorted(class_names))
    counts = np.bincount(labels, minlength=n_classes).astype(np.int64)
    return EncodedDataset(features=features, labels=labels, class_counts=counts, schema=schema)


def write_csv_pair(
    values_path: str,
    labels_path: str,
    features: np.ndarray,
    labels: np.ndarray,
    class_names: list[str] | None = None,
    target: str = "label",
) -> None:
    """Write (values, labels) CSVs joined on an id column, the shape the
    preprocess command expects."""
    features = np.asarray(features)
    labels = np.asarray(labels)
    n_classes = int(labels.max()) + 1
    if class_names is None:
        class_names = [f"c{c}" for c in range(n_classes)]
    names = [f"x{j:02d}" for j in range(features.shape[1])]
    with open(values_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(["id"] + names) + "\n")
        for i, row in enumerate(features):
            fh.write(",".join([str(i)] + [repr(float(v)) for v in row]) + "\n")
    with open(labels_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"id,{target}\n")
        for i, y in enumerate(labels):
            fh.write(f"{i},{class_names[int(y)]}\n")
