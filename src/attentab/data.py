"""CSV ingestion and the tabular preprocessing pipeline: schema inference,
dropping columns that are mostly missing, most-frequent imputation, label
encoding, class statistics, and stratified train/validation splitting.

A fitted :class:`FeatureSchema` is immutable in practice: encoding the same
table twice yields identical matrices, and the schema serializes to JSON
(and back) without loss.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import math
from collections import Counter
from dataclasses import dataclass, field, fields
from itertools import repeat

import numpy as np

from .container import DATASET_MAGIC, atomic_write_text, decoding, read_container, write_container
from .errors import (
    ConfigError,
    EncodingError,
    IngestionError,
    LabelError,
    PersistenceError,
    SchemaError,
    SplitError,
    check_int,
    check_number,
)

MISSING_TOKENS = frozenset({"", "NaN", "nan"})

KIND_CATEGORICAL = "categorical"
KIND_CONTINUOUS = "continuous"
KIND_TARGET = "target"
KIND_DROP = "drop"

logger = logging.getLogger(__name__)


# Rows read and parsed per block. On the pump-shaped table, 128 to 1,024
# rows load equally fast; from 2,048 up each block's row lists raise the peak.
LOAD_BLOCK = 512


@dataclass(eq=False)
class NumericColumn:
    """A column whose present texts all parse as finite floats, kept as
    floats. Its texts stay exactly recoverable from ``joined``, since no
    float text and no missing token contains a comma."""

    values: np.ndarray  # [N] float64, 0.0 where missing
    missing: np.ndarray  # [N] bool
    joined: str  # the N texts, missing tokens included, joined by ","

    def texts(self) -> tuple[str | None, ...]:
        """The column's texts, ``None`` where missing: a present text is
        never a missing token."""
        texts = self.joined.split(",")
        return tuple(map(_MISSING_AS_NONE.get, texts, texts))


_MISSING_AS_NONE = dict.fromkeys(MISSING_TOKENS)
_BLANK_AS_NAN = {"": "nan"}


@dataclass
class RawTable:
    """Header plus one entry of cells per column: a tuple of texts, missing
    cells ``None``, or a :class:`NumericColumn`."""

    columns: list[str]
    cells: list[tuple[str | None, ...] | NumericColumn]
    n_rows: int

    def cells_of(self, name: str) -> tuple[str | None, ...] | NumericColumn:
        try:
            return self.cells[self.columns.index(name)]
        except ValueError:
            raise SchemaError(f"column {name!r} not present in table") from None

    def column(self, name: str) -> tuple[str | None, ...]:
        """The column's texts, ``None`` where missing, whatever its storage."""
        cells = self.cells_of(name)
        return cells.texts() if isinstance(cells, NumericColumn) else cells


def _parse_block(texts: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray] | None:
    """A block of one column as floats (0.0 where missing) and its missing
    mask, or None unless every present text parses as a finite float."""
    try:
        values = np.fromiter(
            map(float, map(_BLANK_AS_NAN.get, texts, texts)), dtype=np.float64, count=len(texts)
        )
    except ValueError:
        return None
    missing = ~np.isfinite(values)
    if missing.any():
        # NaN from a missing token is a missing cell; inf or any other NaN
        # text ("NAN", "-nan") makes the column text
        if not all(texts[i] in MISSING_TOKENS for i in np.flatnonzero(missing).tolist()):
            return None
        values[missing] = 0.0
    return values, missing


def load_csv(path: str) -> RawTable:
    """Read an RFC 4180 CSV with a header row into a column-major RawTable.

    Empty cells and the literals "NaN"/"nan" become missing. Ragged rows,
    repeated header names, text that is not UTF-8 and malformed quoting
    (a quoted field cut off by the end of the file, text after a closing
    quote, a field over the csv module's size limit) raise an ingestion
    error naming the file and the line or name. A leading UTF-8 byte-order
    mark (as spreadsheet exports write) is not part of the first header
    name. Rows are read and transposed ``LOAD_BLOCK`` at a time. A column
    whose present texts all parse as finite floats is a
    :class:`NumericColumn`; the first block with any other text turns it
    into a tuple of texts, as every other column is, and there equal texts
    share one ``str`` object.
    """
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise IngestionError(f"cannot read {path}: {exc}") from exc
    with fh:
        reader = csv.reader(fh, strict=True)
        try:
            return _read_rows(path, reader)
        except UnicodeDecodeError as exc:
            raise IngestionError(
                f"{path}: text after line {reader.line_num} is not valid UTF-8: {exc}"
            ) from None
        except csv.Error as exc:
            raise IngestionError(f"{path}: line {reader.line_num}: {exc}") from None


def _read_rows(path: str, reader) -> RawTable:
    try:
        header = next(reader)
    except StopIteration:
        raise IngestionError(f"{path}: file is empty, expected a header row") from None
    repeated = [name for name, n in Counter(header).items() if n > 1]
    if repeated:
        raise IngestionError(f"{path}: header repeats column name(s) {repeated}")
    width = len(header)
    canonical = dict.fromkeys(MISSING_TOKENS).setdefault
    typed: list[list | None] = [[] for _ in header]  # (values, missing, joined) per block
    texts: list[list | None] = [None] * width

    def add_block(block: list[list[str]]) -> None:
        for j, col in enumerate(zip(*block)):
            if texts[j] is None:
                parsed = _parse_block(col)
                if parsed is not None:
                    typed[j].append((*parsed, ",".join(col)))
                    continue
                texts[j] = []
                for _, _, joined in typed[j]:
                    earlier = joined.split(",")
                    texts[j].extend(map(canonical, earlier, earlier))
                typed[j] = None
            texts[j].extend(map(canonical, col, col))

    n_rows = 0
    block: list[list[str]] = []
    for row in reader:
        if len(row) != width:
            raise IngestionError(
                f"{path}: line {reader.line_num} has {len(row)} fields, expected {width}"
            )
        block.append(row)
        if len(block) == LOAD_BLOCK:
            add_block(block)
            n_rows += len(block)
            block = []
    if block:
        add_block(block)
        n_rows += len(block)
    if not n_rows:
        return RawTable(columns=header, cells=[()] * width, n_rows=0)
    cells: list[tuple[str | None, ...] | NumericColumn] = []
    for j in range(width):
        if texts[j] is not None:
            cells.append(tuple(texts[j]))
            texts[j] = None
        else:
            values, missing, joined = zip(*typed[j])
            column = NumericColumn(np.concatenate(values), np.concatenate(missing), ",".join(joined))
            cells.append(column)
            typed[j] = None
    return RawTable(columns=header, cells=cells, n_rows=n_rows)


def join_on_id(values: RawTable, labels: RawTable, key: str = "id") -> RawTable:
    """Inner-join a labels table onto a values table by a shared key column.

    Row order follows the values table; every value row must have exactly one
    matching label row, and no other column may appear in both tables. The
    values columns are reused as they are; the label columns are reordered.
    """
    if key not in values.columns or key not in labels.columns:
        raise IngestionError(f"join key {key!r} must appear in both tables")
    key_j = labels.columns.index(key)
    label_cols = labels.columns[:key_j] + labels.columns[key_j + 1 :]
    shared = [c for c in label_cols if c in values.columns]
    if shared:
        raise IngestionError(f"column(s) {shared} appear in both tables")
    row_of: dict[str, int] = {}
    for i, k in enumerate(labels.column(key)):
        if k is None:
            raise IngestionError(f"labels table: data row {i + 1} has no {key!r} value")
        if k in row_of:
            raise IngestionError(f"duplicate {key}={k!r} in labels table")
        row_of[k] = i
    keys = values.column(key)
    try:
        order = list(map(row_of.__getitem__, keys))
    except KeyError as exc:
        if exc.args[0] is None:
            i = keys.index(None)
            raise IngestionError(f"values table: data row {i + 1} has no {key!r} value") from None
        raise IngestionError(f"{key}={exc.args[0]!r} has no matching label row") from None
    label_cells = [tuple(map(labels.column(c).__getitem__, order)) for c in label_cols]
    return RawTable(values.columns + label_cols, values.cells + label_cells, values.n_rows)


@dataclass
class ColumnSchema:
    name: str
    kind: str
    cardinality: int | None = None
    encoding: dict[str, int] | None = None
    imputation: str | None = None
    missing_fraction: float = 0.0
    drop_reason: str | None = None
    inferred_kind: str | None = None


def _field_values(obj) -> dict:
    return {f.name: getattr(obj, f.name) for f in fields(obj)}


@dataclass
class FeatureSchema:
    """Per-column metadata fitted from a training table."""

    columns: list[ColumnSchema]
    target: str
    labels: list[str]
    drop_threshold: float = 0.5
    encode_order: str = "first-appearance"
    impute_strategy: str = "mode"
    id_columns: list[str] = field(default_factory=lambda: ["id"])
    continuous_distinct_threshold: int = 100

    def feature_columns(self) -> list[ColumnSchema]:
        """Active model inputs, in table order."""
        return [c for c in self.columns if c.kind in (KIND_CATEGORICAL, KIND_CONTINUOUS)]

    def to_dict(self) -> dict:
        """The fields as a JSON-ready dict. Shallow: lists and encodings are
        shared with the schema, not copied."""
        d = _field_values(self)
        d["columns"] = [_field_values(c) for c in self.columns]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        """Inverse of :meth:`to_dict`; every field must be present."""
        values = {f.name: d[f.name] for f in fields(cls)}
        values["columns"] = [ColumnSchema(**c) for c in values["columns"]]
        return cls(**values)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2)

    def save(self, path: str) -> None:
        atomic_write_text(path, self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "FeatureSchema":
        try:
            with open(path, "r", encoding="utf-8") as fh, decoding(path):
                return cls.from_dict(json.load(fh))
        except OSError as exc:
            raise PersistenceError(f"cannot read schema {path}: {exc}") from exc

    def hash(self) -> str:
        """Stable digest used to pair models with the datasets they expect."""
        canonical = json.dumps(self.to_dict(), sort_keys=True)
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _looks_float_formatted(value: str) -> bool:
    return any(ch in value for ch in ".eE")


def _infer_kind(distinct: Counter, distinct_threshold: int) -> str:
    """Continuous iff every present value parses as a finite float and the
    column either uses decimal/scientific notation somewhere or has more
    distinct values than the threshold; categorical otherwise. Reads only
    the keys of the column's present-value counts."""
    try:
        parsed = list(map(float, distinct))
    except ValueError:
        return KIND_CATEGORICAL
    if not parsed or not all(map(math.isfinite, parsed)):
        return KIND_CATEGORICAL
    if any(map(_looks_float_formatted, distinct)):
        return KIND_CONTINUOUS
    if len(distinct) > distinct_threshold:
        return KIND_CONTINUOUS
    return KIND_CATEGORICAL


def fit_schema(
    table: RawTable,
    target_column: str,
    drop_threshold: float = 0.5,
    *,
    encode_order: str = "first-appearance",
    impute_strategy: str = "mode",
    id_columns: tuple[str, ...] = ("id",),
    continuous_distinct_threshold: int = 100,
) -> FeatureSchema:
    """Fit per-column metadata from a training table.

    Columns whose missing fraction exceeds ``drop_threshold`` (in [0, 1])
    are dropped.
    Remaining columns with missing values get an imputation value: the modal
    value under the ``mode`` strategy, or the median (continuous columns
    only) under ``median``. Categorical encodings are assigned by first
    appearance, or alphabetically when ``encode_order="alphabetical"``.
    """
    if target_column not in table.columns:
        raise SchemaError(f"target column {target_column!r} not found in table")
    if encode_order not in ("first-appearance", "alphabetical"):
        raise ConfigError(f"unknown encode_order {encode_order!r}")
    if impute_strategy not in ("mode", "median"):
        raise ConfigError(f"unknown impute_strategy {impute_strategy!r}")
    check_number("drop_threshold", drop_threshold)
    if not 0.0 <= drop_threshold <= 1.0:
        raise ConfigError(f"drop_threshold must be in [0, 1], got {drop_threshold}")
    check_int("continuous_distinct_threshold", continuous_distinct_threshold)
    if table.n_rows == 0:
        raise SchemaError("cannot fit a schema on an empty table")

    columns: list[ColumnSchema] = []
    for name, cells in zip(table.columns, table.cells, strict=True):
        typed = isinstance(cells, NumericColumn)
        if (
            typed
            and name != target_column
            and name not in id_columns
            and _looks_float_formatted(cells.joined)
        ):
            # continuous whatever its distinct count: read from the floats
            values, counts, kind = None, None, KIND_CONTINUOUS
            n_missing = int(np.count_nonzero(cells.missing))
        else:
            values = cells.texts() if typed else cells
            counts = Counter(values)  # keys in order of first appearance
            n_missing = counts.pop(None, 0)
            kind = None
        missing_fraction = n_missing / table.n_rows

        if name == target_column:
            if n_missing:
                raise SchemaError(f"target column {name!r} has {n_missing} missing values")
            columns.append(ColumnSchema(name=name, kind=KIND_TARGET))
            observed_labels = sorted(counts)
            continue
        if name in id_columns:
            columns.append(
                ColumnSchema(
                    name=name,
                    kind=KIND_DROP,
                    missing_fraction=missing_fraction,
                    drop_reason="identifier column",
                )
            )
            continue

        if kind is None:
            kind = _infer_kind(counts, continuous_distinct_threshold)
        drop_reason = None
        if n_missing == table.n_rows:
            logger.warning("column %r has no observed values; dropping it", name)
            drop_reason = "all values missing"
        elif missing_fraction > drop_threshold:
            drop_reason = (
                f"missing fraction {missing_fraction:.4f} exceeds threshold {drop_threshold}"
            )
        if drop_reason is not None:
            columns.append(
                ColumnSchema(
                    name=name,
                    kind=KIND_DROP,
                    missing_fraction=missing_fraction,
                    drop_reason=drop_reason,
                    inferred_kind=kind,
                )
            )
            continue

        imputation = None
        if n_missing:
            if impute_strategy == "median" and kind == KIND_CONTINUOUS:
                if typed:
                    present = cells.values[~cells.missing]
                else:
                    present = [float(v) for v in values if v is not None]
                imputation = repr(float(np.median(present)))
            else:
                if counts is None:  # a typed column read from its floats
                    counts = Counter(cells.texts())
                    counts.pop(None, None)
                imputation = max(counts, key=counts.__getitem__)  # ties: first appearance
        encoding = None
        if kind != KIND_CONTINUOUS:
            ordered = sorted(counts) if encode_order == "alphabetical" else counts
            encoding = {v: i for i, v in enumerate(ordered)}
        columns.append(
            ColumnSchema(
                name=name,
                kind=kind,
                cardinality=None if encoding is None else len(encoding),
                encoding=encoding,
                imputation=imputation,
                missing_fraction=missing_fraction,
            )
        )

    return FeatureSchema(
        columns=columns,
        target=target_column,
        labels=observed_labels,
        drop_threshold=drop_threshold,
        encode_order=encode_order,
        impute_strategy=impute_strategy,
        id_columns=list(id_columns),
        continuous_distinct_threshold=continuous_distinct_threshold,
    )


@dataclass
class EncodedDataset:
    """Fully numeric dataset: categorical codes and floats, plus labels."""

    features: np.ndarray  # [N, n_active] float64; codes stored as whole floats
    labels: np.ndarray  # [N] int64
    class_counts: np.ndarray  # [C] int64
    schema: FeatureSchema

    @property
    def n_rows(self) -> int:
        return int(self.features.shape[0])

    @property
    def n_classes(self) -> int:
        return len(self.schema.labels)


def _first_unparsable(name: str, texts) -> EncodingError:
    """The error for the first text that is missing or not a number; texts
    come in row order, so it names the same cell a per-row scan would."""
    for text in texts:
        if text is None:
            return EncodingError(f"column {name!r}: missing value but no imputation fitted")
        try:
            float(text)
        except ValueError:
            return EncodingError(f"column {name!r}: cannot parse {text!r} as a number")
    raise AssertionError("unreachable")


def _non_finite(name: str, text: str) -> EncodingError:
    return EncodingError(f"column {name!r}: non-finite value {text!r}")


def _imputed_float(col: ColumnSchema) -> float:
    """A continuous column's imputation as the float its missing cells
    take, with the errors the per-text path raises for it."""
    try:
        value = float(col.imputation)
    except (TypeError, ValueError):
        raise _first_unparsable(col.name, [col.imputation]) from None
    if not math.isfinite(value):
        raise _non_finite(col.name, col.imputation)
    return value


def encode(table: RawTable, schema: FeatureSchema) -> EncodedDataset:
    """Apply a fitted schema: impute, encode categoricals, map labels.

    Unseen categorical values map to a reserved code equal to the fitted
    cardinality. No missing values survive (asserted by construction).
    """
    active = schema.feature_columns()
    n = table.n_rows
    features = np.empty((n, len(active)), dtype=np.float64)
    for j, col in enumerate(active):
        cells = table.cells_of(col.name)
        if col.kind == KIND_CONTINUOUS and isinstance(cells, NumericColumn):
            features[:, j] = cells.values
            if cells.missing.any():
                features[cells.missing, j] = _imputed_float(col)
            continue
        values = cells.texts() if isinstance(cells, NumericColumn) else cells
        if col.kind == KIND_CONTINUOUS:
            lookup = dict.fromkeys(values)  # distinct, in first-appearance order
            try:
                for text in lookup:
                    lookup[text] = float(col.imputation if text is None else text)
            except (TypeError, ValueError):
                texts = (col.imputation if t is None else t for t in lookup)
                raise _first_unparsable(col.name, texts) from None
            mapped = map(lookup.__getitem__, values)
        else:
            lookup = dict(col.encoding or {})
            if col.imputation is not None:
                lookup[None] = lookup.get(col.imputation, col.cardinality)
            elif None in values:
                raise EncodingError(
                    f"column {col.name!r}: missing value but no imputation fitted"
                )
            mapped = map(lookup.get, values, repeat(col.cardinality))
        features[:, j] = np.fromiter(mapped, dtype=np.float64, count=n)
        if col.kind == KIND_CONTINUOUS:
            finite = np.isfinite(features[:, j])
            if not finite.all():
                text = values[int(np.argmin(finite))]  # the first in row order
                text = col.imputation if text is None else text
                raise _non_finite(col.name, text)

    label_to_code = {name: i for i, name in enumerate(schema.labels)}
    targets = table.column(schema.target)
    codes = list(map(label_to_code.get, targets))
    if None in codes:
        i = codes.index(None)
        raise LabelError(f"unknown label {targets[i]!r} at row {i}")
    labels = np.array(codes, dtype=np.int64)
    class_counts = np.bincount(labels, minlength=len(schema.labels)).astype(np.int64)
    return EncodedDataset(
        features=features, labels=labels, class_counts=class_counts, schema=schema
    )


@dataclass
class Split:
    """Disjoint train/validation index sets covering the dataset."""

    train_indices: np.ndarray
    val_indices: np.ndarray


def stratified_split(dataset: EncodedDataset, val_fraction: float = 0.2, seed: int = 42) -> Split:
    """Per-class shuffled partition; deterministic under the seed."""
    if not 0 < val_fraction < 1:
        raise ConfigError(f"val_fraction must be in (0, 1), got {val_fraction}")
    rng = np.random.default_rng(seed)
    train_parts, val_parts = [], []
    for c in range(dataset.n_classes):
        members = np.flatnonzero(dataset.labels == c)
        if members.size < 2:
            raise SplitError(
                f"class {dataset.schema.labels[c]!r} has {members.size} member(s); "
                "need at least 2 to split"
            )
        perm = rng.permutation(members)
        n_val = int(members.size * val_fraction + 0.5)
        n_val = min(max(n_val, 1), members.size - 1)
        val_parts.append(perm[:n_val])
        train_parts.append(perm[n_val:])
    return Split(
        train_indices=np.sort(np.concatenate(train_parts)),
        val_indices=np.sort(np.concatenate(val_parts)),
    )


def inspect(dataset: EncodedDataset) -> str:
    """Human-readable dataset summary: sizes, per-column metadata, and the
    class distribution."""
    schema = dataset.schema
    feature_cols = [c for c in schema.columns if c.kind != KIND_TARGET]
    kinds = Counter(c.inferred_kind or c.kind for c in feature_cols if c.drop_reason != "identifier column")
    active = schema.feature_columns()
    dropped = [c for c in feature_cols if c.kind == KIND_DROP]
    rule_dropped = [c for c in dropped if c.drop_reason != "identifier column"]
    with_missing = [c for c in feature_cols if c.missing_fraction > 0]

    lines = [
        f"rows: {dataset.n_rows}",
        f"feature columns: {len(feature_cols)} total, {len(active)} active, "
        f"{len(rule_dropped)} dropped by missing-data rule, "
        f"{len(dropped) - len(rule_dropped)} excluded identifiers",
        f"inferred kinds (before drops): {kinds.get(KIND_CATEGORICAL, 0)} categorical, "
        f"{kinds.get(KIND_CONTINUOUS, 0)} continuous",
        f"columns containing missing data: {len(with_missing)}",
        "",
        f"{'column':<28}{'kind':<14}{'cardinality':<13}{'missing':<10}note",
    ]
    for c in schema.columns:
        if c.kind == KIND_TARGET:
            continue
        card = "" if c.cardinality is None else str(c.cardinality)
        note = ""
        if c.drop_reason:
            note = f"dropped: {c.drop_reason}"
        elif c.imputation is not None:
            note = f"imputed with {c.imputation!r}"
        lines.append(
            f"{c.name:<28}{c.kind:<14}{card:<13}{c.missing_fraction:<10.2%}{note}"
        )
    lines.append("")
    lines.append("label distribution:")
    total = dataset.n_rows
    for name, count in zip(schema.labels, dataset.class_counts):
        lines.append(f"  {name:<32}{count:>8}  {count / total:.2%}")
    return "\n".join(lines)


def save_dataset(path: str, dataset: EncodedDataset) -> None:
    header = {
        "format": "attentab-dataset",
        "version": 1,
        "schema": dataset.schema.to_dict(),
        "schema_hash": dataset.schema.hash(),
        "n_rows": dataset.n_rows,
        "n_features": int(dataset.features.shape[1]),
    }
    arrays = [
        ("features", dataset.features),
        ("labels", dataset.labels.astype(np.float64)),
        ("class_counts", dataset.class_counts.astype(np.float64)),
    ]
    write_container(path, DATASET_MAGIC, header, arrays)


def load_dataset(path: str) -> EncodedDataset:
    """Read a dataset container, rejecting one whose arrays disagree with
    its header, its schema or each other."""
    header, arrays = read_container(path, DATASET_MAGIC)
    with decoding(path):
        features, labels, counts = arrays["features"], arrays["labels"], arrays["class_counts"]
        schema = FeatureSchema.from_dict(header["schema"])
        shape = (header["n_rows"], header["n_features"])
        n_active, n_classes = len(schema.feature_columns()), len(schema.labels)
    if features.shape != shape or shape[1] != n_active:
        raise PersistenceError(
            f"{path}: features of shape {features.shape}, but the header gives {shape} "
            f"and the schema {n_active} active columns"
        )
    whole = (labels >= 0) & (labels < n_classes) & (np.floor(labels) == labels)
    if labels.shape != shape[:1] or not whole.all():
        raise PersistenceError(
            f"{path}: labels must be {shape[0]} whole numbers in [0, {n_classes})"
        )
    labels = labels.astype(np.int64)
    if not np.array_equal(counts, np.bincount(labels, minlength=n_classes)):
        raise PersistenceError(f"{path}: class_counts {counts} disagree with the labels")
    return EncodedDataset(
        features=features, labels=labels, class_counts=counts.astype(np.int64), schema=schema
    )
