"""Tests of the benchmark's own code: the pump-shaped generator, span
self-time arithmetic and the tail percentile.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from attentab.data import encode, fit_schema, join_on_id, load_csv  # noqa: E402
from attentab.tabnet import TabNetClassifier  # noqa: E402
from attentab.train import _batches  # noqa: E402

import inputs  # noqa: E402
import worker  # noqa: E402
from spans import Span, Tracer, percentile, self_times, tail_quantile  # noqa: E402

SMALL_ROWS = 3000


def write_pair(tmp_path, seed, tag=""):
    values, labels = tmp_path / f"v{tag}.csv", tmp_path / f"l{tag}.csv"
    inputs.write_pump_csvs(str(values), str(labels), seed, n_rows=SMALL_ROWS)
    return values, labels


def test_pump_generator_shape(tmp_path):
    values, labels = write_pair(tmp_path, seed=7)
    table = join_on_id(load_csv(str(values)), load_csv(str(labels)))
    schema = fit_schema(table, inputs.PUMP_TARGET)
    kinds = [c.kind for c in schema.feature_columns()]
    assert kinds.count("continuous") == inputs.PUMP_CONTINUOUS == 10
    assert kinds.count("categorical") == inputs.PUMP_CATEGORICAL == 26
    assert schema.labels == sorted(inputs.PUMP_LABELS)
    ds = encode(table, schema)
    assert ds.n_rows == SMALL_ROWS
    assert np.all(ds.class_counts > 0)
    # about 3% of feature cells are missing and get imputed
    missing = [c.missing_fraction for c in schema.feature_columns()]
    assert 0.02 < np.mean(missing) < 0.04
    model_cfg, _ = worker.configs("pump-train", seed=0)
    assert TabNetClassifier(model_cfg, schema).d_model == inputs.PUMP_D_MODEL == 114


def test_pump_generator_is_seeded(tmp_path):
    a = write_pair(tmp_path, seed=3, tag="a")
    b = write_pair(tmp_path, seed=3, tag="b")
    c = write_pair(tmp_path, seed=4, tag="c")
    for x, y in zip(a, b):
        assert x.read_bytes() == y.read_bytes()
    assert a[0].read_bytes() != c[0].read_bytes()


def test_batches_match_train_fit():
    for n, size in [(10, 3), (10, 9), (1000, 256), (257, 256), (5, 8)]:
        order = np.arange(n)
        ours, theirs = worker.batches(order, size), _batches(order, size)
        assert [b.tolist() for b in ours] == [b.tolist() for b in theirs]


def test_self_time_subtracts_covered_child_time():
    spans = [
        Span("parent", 0.0, 10.0, None),
        Span("a", 1.0, 3.0, 0),
        Span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] counts once
        Span("grandchild", 2.5, 4.0, 2),  # covers b, not the parent
        Span("late", 9.0, 12.0, 0),  # only [9, 10] lies inside the parent
    ]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 1.5, 1.5, 3.0])


def test_tracer_nests_spans():
    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    assert [(s.name, s.parent) for s in tracer.spans] == [("outer", None), ("inner", 0), ("inner", 0)]
    outer_self = self_times(tracer.spans)[0]
    assert 0.0 <= outer_self <= tracer.spans[0].duration
    assert len(tracer.durations("inner")) == 2


@pytest.mark.parametrize(
    "n, q",
    [(1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0), (100, 90.0), (40, 75.0), (20, 50.0), (19, 50.0), (1, 50.0)],
)
def test_tail_quantile_keeps_ten_samples_beyond(n, q):
    assert tail_quantile(n) == q


def test_percentile_matches_numpy():
    values = list(np.random.default_rng(0).exponential(size=57))
    for q in (0.0, 50.0, 75.0, 90.0, 95.0, 100.0):
        assert percentile(values, q) == pytest.approx(np.percentile(values, q))
