"""Seeded input generators for the benchmark workloads.

Nothing is downloaded. The pump-shaped CSV pair stands in for the DrivenData
"Pump it Up" training files, which are not in the repository: 59,400 rows,
10 continuous and 26 categorical feature columns (cardinality up to 2,000,
Zipf-skewed), 3% of feature cells missing, and 3 imbalanced classes. Under
the README config (embed_dim 4) that is a d_model of 10 + 26 * 4 = 114.

This module needs only numpy; the same seed always writes the same bytes.
"""

from __future__ import annotations

import csv

import numpy as np

PUMP_ROWS = 59_400
PUMP_CONTINUOUS = 10
# Skewed like the pump table's funder/installer/ward/lga/region/basin columns.
PUMP_CARDINALITIES = (
    2000, 1800, 1500, 1200, 900, 600, 400, 250, 125, 65, 37, 21, 20,
    18, 14, 12, 11, 10, 9, 8, 7, 6, 5, 4, 3, 3,
)
PUMP_CATEGORICAL = len(PUMP_CARDINALITIES)
PUMP_EMBED_DIM = 4
PUMP_D_MODEL = PUMP_CONTINUOUS + PUMP_CATEGORICAL * PUMP_EMBED_DIM
PUMP_MISSING = 0.03
PUMP_ZIPF = 1.1
PUMP_TARGET = "status_group"
PUMP_LABELS = ("functional", "non functional", "functional needs repair")
# class shares of the real pump labels, majority first
PUMP_CLASS_SHARES = (0.543, 0.384, 0.073)


def pump_columns() -> tuple[list[str], list[str]]:
    """(continuous names, categorical names) in table order."""
    cont = [f"num_{j:02d}" for j in range(PUMP_CONTINUOUS)]
    cat = [f"cat_{j:02d}" for j in range(PUMP_CATEGORICAL)]
    return cont, cat


def _zipf_codes(rng: np.random.Generator, cardinality: int, n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, cardinality + 1) ** PUMP_ZIPF
    return rng.choice(cardinality, size=n, p=p / p.sum())


def _write(path: str, header: list[str], columns: list[np.ndarray]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(zip(*(c.tolist() for c in columns)))


def write_pump_csvs(values_path: str, labels_path: str, seed: int, n_rows: int = PUMP_ROWS) -> None:
    """Write a pump-shaped (values, labels) CSV pair joined on ``id``."""
    rng = np.random.default_rng(seed)
    cont_names, cat_names = pump_columns()

    cont = np.empty((n_rows, PUMP_CONTINUOUS))
    scales = np.geomspace(1.0, 5000.0, PUMP_CONTINUOUS)
    for j in range(PUMP_CONTINUOUS):
        if j % 2:
            cont[:, j] = rng.lognormal(0.0, 1.0, n_rows) * scales[j]
        else:
            cont[:, j] = rng.normal(0.0, scales[j], n_rows)
    codes = np.stack([_zipf_codes(rng, k, n_rows) for k in PUMP_CARDINALITIES], axis=1)

    # The label depends on two continuous and four low-cardinality
    # categorical columns, so the task is learnable.
    signal_cols = (11, 18, 22, 24)
    score = (
        cont[:, 0] / scales[0]
        - np.log(cont[:, 1] / scales[1])
        + sum(rng.normal(0.0, 1.0, PUMP_CARDINALITIES[j])[codes[:, j]] for j in signal_cols)
        + rng.normal(0.0, 0.5, n_rows)
    )
    cuts = np.quantile(score, np.cumsum(PUMP_CLASS_SHARES)[:-1])
    label_codes = np.searchsorted(cuts, score)

    columns: list[np.ndarray] = []
    for j in range(PUMP_CONTINUOUS):
        columns.append(np.char.mod("%.4f", cont[:, j]).astype(object))
    for j, name in enumerate(cat_names):
        columns.append(np.char.add(f"{name}_v", codes[:, j].astype(str)).astype(object))
    for col in columns:
        col[rng.random(n_rows) < PUMP_MISSING] = ""

    ids = rng.permutation(10 * n_rows)[:n_rows].astype(str)
    _write(values_path, ["id"] + cont_names + cat_names, [ids.astype(object)] + columns)
    order = rng.permutation(n_rows)
    labels = np.asarray(PUMP_LABELS, dtype=object)[label_codes]
    _write(labels_path, ["id", PUMP_TARGET], [ids[order].astype(object), labels[order]])
