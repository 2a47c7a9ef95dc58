"""Early stopping, scheduler, metrics, evaluation, and the fit loop."""

import json

import numpy as np
import pytest

from attentab import train as tr
from attentab.autodiff import Adam, Parameter, Tensor, softmax_logprob
from attentab.data import Split, stratified_split
from attentab.errors import ConfigError, NumericsError, ShapeError
from attentab.losses import focal_nll
from attentab.synthetic import dataset_from_arrays
from attentab.tabnet import TabNetClassifier, TabNetConfig


def separable_dataset(n=60, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 3))
    y = (X[:, 0] > 0).astype(np.int64)
    X[:, 0] += np.where(y == 1, 2.0, -2.0)  # wide margin on the informative axis
    return dataset_from_arrays(X, y)


def tiny_fit(ds, split, seed=0, **kw):
    model = TabNetClassifier(TabNetConfig(n_d=2, n_a=2, n_steps=1, seed=seed), ds.schema)
    defaults = dict(max_epochs=6, batch_size=16, patience=50, lr_patience=50, seed=seed)
    defaults.update(kw)
    report = tr.fit(model, ds, split, tr.TrainConfig(**defaults))
    return model, report


class TestTrainConfig:
    def test_defaults_validate(self):
        tr.TrainConfig().validate()

    @pytest.mark.parametrize(
        "kw",
        [
            {"max_epochs": 0},
            {"batch_size": 1},
            {"learning_rate": 0.0},
            {"patience": 0},
            {"min_delta": -1e-9},
            {"lr_factor": 1.0},
            {"lr_patience": 0},
            {"min_lr": 0.0},
            {"loss_kind": "hinge"},
            {"focal_gamma": -0.5},
            {"alpha_mode": "manual"},
            {"f1_average": "micro"},
            {"val_fraction": 0.0},
            {"max_epochs": True},
            {"max_epochs": 3.0},
            {"batch_size": "8"},
            {"learning_rate": "0.02"},
            {"min_delta": False},
            {"focal_gamma": "2"},
            {"val_fraction": None},
            {"seed": "1"},
            {"seed": -1},
        ],
    )
    def test_bad_values_rejected(self, kw):
        with pytest.raises(ConfigError, match=next(iter(kw))):
            tr.TrainConfig(**kw).validate()


class TestEarlyStopping:
    def test_pinned_sequence_stops_at_three(self):
        stopper = tr.EarlyStopping(patience=1, min_delta=0.0)
        assert stopper.update(1, 1.0) is False
        assert stopper.update(2, 1.1) is False
        assert stopper.update(3, 1.2) is True
        assert stopper.best_epoch == 1

    def test_never_stops_within_patience(self):
        stopper = tr.EarlyStopping(patience=3, min_delta=0.0)
        assert stopper.update(1, 1.0) is False
        for epoch in range(2, 5):  # three stalled epochs: still within patience
            assert stopper.update(epoch, 2.0) is False
        assert stopper.update(5, 2.0) is True

    def test_improvement_requires_min_delta(self):
        stopper = tr.EarlyStopping(patience=10, min_delta=0.1)
        stopper.update(1, 1.0)
        stopper.update(2, 0.95)  # within min_delta: not an improvement
        assert stopper.stalled == 1 and stopper.best_epoch == 1
        stopper.update(3, 0.9)
        assert stopper.stalled == 0 and stopper.best_epoch == 3

    def test_first_epoch_always_counts(self):
        stopper = tr.EarlyStopping(patience=1, min_delta=0.0)
        stopper.update(1, float("inf"))
        assert stopper.best_epoch == 1 and stopper.improved

    def test_improvement_resets_the_stall_counter(self):
        stopper = tr.EarlyStopping(patience=2, min_delta=0.0)
        values = [1.0, 1.2, 1.2, 0.5, 1.2, 1.2]
        stops = [stopper.update(e + 1, v) for e, v in enumerate(values)]
        assert stops == [False] * 6
        assert stopper.best_epoch == 4


class TestPlateauScheduler:
    def make(self, factor=0.5, patience=1, min_lr=1e-4, lr=0.1, min_delta=0.0):
        opt = Adam([Parameter(np.zeros(1))], lr=lr)
        return opt, tr.PlateauScheduler(opt, factor, patience, min_lr, min_delta)

    def test_cut_after_stall_exceeds_patience(self):
        opt, sched = self.make()
        for value in (1.0, 1.1, 1.2):
            sched.update(value)
        assert opt.lr == pytest.approx(0.05)
        sched.update(1.3)  # counter was reset by the cut
        assert opt.lr == pytest.approx(0.05)
        sched.update(1.4)
        assert opt.lr == pytest.approx(0.025)

    def test_improvement_avoids_the_cut(self):
        opt, sched = self.make()
        for value in (1.0, 1.1, 0.9, 1.0, 0.8):
            sched.update(value)
        assert opt.lr == 0.1

    def test_lr_never_below_floor(self):
        opt, sched = self.make(min_lr=0.04)
        for value in (1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6):
            sched.update(value)
        assert opt.lr == 0.04

    def test_lr_sequence_non_increasing(self, rng):
        opt, sched = self.make(min_lr=1e-5)
        last = opt.lr
        for value in rng.random(200):
            sched.update(float(value))
            assert opt.lr <= last
            last = opt.lr


class TestMetrics:
    def test_accuracy_values(self):
        assert tr.accuracy(np.array([1, 0, 1, 1]), np.array([1, 0, 0, 1])) == 0.75
        assert tr.accuracy(np.array([1]), np.array([1])) == 1.0
        assert tr.accuracy(np.array([1]), np.array([0])) == 0.0

    def test_accuracy_errors(self):
        with pytest.raises(ShapeError):
            tr.accuracy(np.array([1, 0]), np.array([1]))
        with pytest.raises(ConfigError):
            tr.accuracy(np.array([]), np.array([]))

    def test_macro_f1_pinned_case(self):
        labels = np.array([0, 0, 1, 2])
        preds = np.array([0, 1, 1, 2])
        # per-class F1: [2/3, 2/3, 1] -> macro 7/9
        assert tr.macro_f1(preds, labels, 3) == pytest.approx(7 / 9)

    def test_weighted_f1_pinned_case(self):
        labels = np.array([0, 0, 1, 2])
        preds = np.array([0, 1, 1, 2])
        # supports [2, 1, 1]: (2/3*2 + 2/3*1 + 1*1) / 4 = 3/4
        assert tr.macro_f1(preds, labels, 3, average="weighted") == pytest.approx(0.75)

    def test_perfect_predictions(self):
        labels = np.array([0, 1, 2, 1])
        assert tr.macro_f1(labels, labels, 3) == 1.0

    def test_absent_class_scores_zero(self):
        labels = np.array([0, 0, 1, 1])
        preds = labels.copy()
        assert tr.macro_f1(preds, labels, 3) == pytest.approx(2 / 3)

    def test_f1_errors(self):
        with pytest.raises(ConfigError):
            tr.macro_f1(np.array([]), np.array([]), 2)
        with pytest.raises(ConfigError):
            tr.macro_f1(np.array([0]), np.array([0]), 2, average="micro")


class TestLossSpec:
    def test_cce_spec_is_bare(self):
        spec = tr.resolve_loss_spec(tr.TrainConfig(), np.array([10, 20]))
        assert spec == {"kind": "cce"}

    def test_balanced_auto_alpha(self):
        cfg = tr.TrainConfig(loss_kind="balanced", alpha_mode="auto")
        spec = tr.resolve_loss_spec(cfg, np.array([75, 25]))
        np.testing.assert_allclose(spec["alpha"], [2 / 3, 2.0], atol=1e-12)
        json.dumps(spec)  # must persist inside model headers

    def test_focal_uniform_alpha(self):
        cfg = tr.TrainConfig(loss_kind="focal", alpha_mode="uniform", focal_gamma=1.5)
        spec = tr.resolve_loss_spec(cfg, np.array([75, 25, 10]))
        assert spec["kind"] == "focal" and spec["gamma"] == 1.5
        np.testing.assert_array_equal(spec["alpha"], [1.0, 1.0, 1.0])

    def test_batch_loss_dispatch(self, rng):
        logits = Tensor(rng.normal(size=(6, 3)))
        labels = rng.integers(0, 3, size=6)
        spec = {"kind": "focal", "alpha": [1.0, 2.0, 0.5], "gamma": 2.0}
        got = tr.batch_loss(None, logits, labels, spec)
        lp = softmax_logprob(None, logits)
        want = focal_nll(None, lp, labels, np.array(spec["alpha"]), 2.0)
        assert got.per_example.data.tobytes() == want.per_example.data.tobytes()
        with pytest.raises(ConfigError):
            tr.batch_loss(None, logits, labels, {"kind": "hinge"})


class TestEvaluate:
    def setup_model(self):
        ds = separable_dataset()
        model = TabNetClassifier(TabNetConfig(n_d=2, n_a=2, n_steps=1), ds.schema)
        return model, ds

    def test_deterministic(self):
        model, ds = self.setup_model()
        idx = np.arange(ds.n_rows)
        a = tr.evaluate(model, ds, idx, {"kind": "cce"})
        b = tr.evaluate(model, ds, idx, {"kind": "cce"})
        assert a == b

    def test_chunking_does_not_change_the_result(self, monkeypatch):
        model, ds = self.setup_model()
        idx = np.arange(ds.n_rows)
        whole = tr.evaluate(model, ds, idx, {"kind": "cce"})
        monkeypatch.setattr(tr, "EVAL_BATCH", 7)
        chunked = tr.evaluate(model, ds, idx, {"kind": "cce"})
        assert whole[1:] == chunked[1:]
        assert abs(whole[0] - chunked[0]) < 1e-12

    def test_chunks_follow_the_index_order(self, monkeypatch):
        # loss sums and predictions over EVAL_BATCH-row runs of `indices`,
        # in their given order, exactly as a per-chunk loop computes them
        model, ds = self.setup_model()
        idx = np.random.default_rng(3).permutation(ds.n_rows)[:-5]
        spec = {"kind": "focal", "alpha": [1.0, 2.0], "gamma": 2.0}
        monkeypatch.setattr(tr, "EVAL_BATCH", 7)
        loss_sum, preds = 0.0, []
        for start in range(0, idx.size, 7):
            rows = idx[start : start + 7]
            out = model.forward(None, ds.features[rows], training=False)
            lv = tr.batch_loss(None, out.logits, ds.labels[rows], spec)
            loss_sum += float(np.sum(lv.per_example.data))
            preds.append(np.argmax(out.logits.data, axis=1))
        preds = np.concatenate(preds)
        labels = ds.labels[idx]
        want = (
            loss_sum / idx.size,
            tr.accuracy(preds, labels),
            tr.macro_f1(preds, labels, model.n_classes, average="macro"),
        )
        assert tr.evaluate(model, ds, idx, spec) == want

    def test_loss_is_task_only(self):
        # lambda_sparse > 0 must not leak into the monitored loss
        ds = separable_dataset()
        model = TabNetClassifier(
            TabNetConfig(n_d=2, n_a=2, n_steps=1, lambda_sparse=10.0), ds.schema
        )
        idx = np.arange(20)
        loss, _, _ = tr.evaluate(model, ds, idx, {"kind": "cce"})
        out = model.forward(None, ds.features[idx], training=False)
        want = tr.batch_loss(None, out.logits, ds.labels[idx], {"kind": "cce"})
        assert abs(loss - want.per_example.data.mean()) < 1e-12

    def test_empty_indices_rejected(self):
        model, ds = self.setup_model()
        with pytest.raises(ConfigError):
            tr.evaluate(model, ds, np.array([], dtype=np.int64), {"kind": "cce"})


class TestBatches:
    def test_even_split(self):
        chunks = tr._batches(np.arange(8), 4)
        assert [c.size for c in chunks] == [4, 4]

    def test_trailing_singleton_merges(self):
        chunks = tr._batches(np.arange(9), 4)
        assert [c.size for c in chunks] == [4, 5]
        np.testing.assert_array_equal(np.concatenate(chunks), np.arange(9))

    def test_single_row_order_survives(self):
        chunks = tr._batches(np.array([3]), 4)
        assert [c.size for c in chunks] == [1]


class TestFit:
    def test_learns_a_separable_problem(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=0)
        model, report = tiny_fit(ds, split, max_epochs=30, batch_size=16)
        assert report.best_record.val_acc >= 0.9
        assert model.fitted

    def test_model_holds_best_epoch_state(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=0)
        model, report = tiny_fit(ds, split, max_epochs=8)
        spec = model.train_info["loss"]
        loss, acc, f1 = tr.evaluate(model, ds, split.val_indices, spec)
        best = report.best_record
        assert abs(loss - best.val_loss) < 1e-9
        assert abs(acc - best.val_acc) < 1e-9
        assert abs(f1 - best.val_f1) < 1e-9

    def test_focal_gamma_zero_uniform_equals_cce(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=1)
        _, cce = tiny_fit(ds, split, max_epochs=4)
        _, focal = tiny_fit(
            ds, split, max_epochs=4, loss_kind="focal", focal_gamma=0.0, alpha_mode="uniform"
        )
        assert cce.records == focal.records
        assert cce.best_epoch == focal.best_epoch

    def test_repeat_run_is_bit_identical(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=2)
        _, a = tiny_fit(ds, split, max_epochs=4)
        _, b = tiny_fit(ds, split, max_epochs=4)
        assert a == b

    def test_single_epoch_run(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=0)
        _, report = tiny_fit(ds, split, max_epochs=1)
        assert len(report.records) == 1
        assert report.best_epoch == 1 and report.stopped_epoch == 1

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_early_stop_truncates_the_run(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=0)
        # an absurd learning rate stalls validation immediately
        _, report = tiny_fit(ds, split, max_epochs=50, patience=2, learning_rate=15.0)
        assert report.stopped_epoch < 50

    def test_non_finite_loss_raises_with_epoch(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=0)
        model = TabNetClassifier(TabNetConfig(n_d=2, n_a=2, n_steps=1), ds.schema)
        model.final.w.data[...] = np.nan
        with pytest.raises(NumericsError) as exc:
            tr.fit(model, ds, split, tr.TrainConfig(max_epochs=3, batch_size=16))
        assert exc.value.epoch == 1

    def test_metrics_stay_in_bounds(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=0)
        _, report = tiny_fit(ds, split, max_epochs=5)
        lrs = [r.lr for r in report.records]
        assert all(a >= b for a, b in zip(lrs, lrs[1:]))
        for r in report.records:
            for v in (r.train_acc, r.val_acc, r.train_f1, r.val_f1):
                assert 0.0 <= v <= 1.0
            assert r.lr > 0

    def test_log_fn_sees_every_epoch(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=0)
        model = TabNetClassifier(TabNetConfig(n_d=2, n_a=2, n_steps=1), ds.schema)
        seen = []
        tr.fit(
            model, ds, split,
            tr.TrainConfig(max_epochs=3, batch_size=16, patience=50, lr_patience=50),
            log_fn=seen.append,
        )
        assert [r.epoch for r in seen] == [1, 2, 3]

    def test_empty_validation_rejected(self):
        ds = separable_dataset()
        split = Split(
            train_indices=np.arange(ds.n_rows), val_indices=np.array([], dtype=np.int64)
        )
        model = TabNetClassifier(TabNetConfig(n_d=2, n_a=2, n_steps=1), ds.schema)
        with pytest.raises(ConfigError):
            tr.fit(model, ds, split, tr.TrainConfig(max_epochs=1))

    def test_train_info_records_the_protocol(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=0)
        model, report = tiny_fit(ds, split, max_epochs=2, loss_kind="focal")
        info = model.train_info
        assert info["loss"]["kind"] == "focal"
        assert info["train_config"]["max_epochs"] == 2
        assert info["best_epoch"] == report.best_epoch
        assert info["stopped_epoch"] == report.stopped_epoch
        json.dumps(info)


class TestHistory:
    def report(self):
        ds = separable_dataset()
        split = stratified_split(ds, 0.25, seed=0)
        return tiny_fit(ds, split, max_epochs=3)[1]

    def test_csv_layout(self, tmp_path):
        report = self.report()
        text = report.history_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "epoch,train_loss,val_loss,train_acc,val_acc,train_f1,val_f1,lr"
        assert len(lines) == 1 + len(report.records)
        assert lines[1].startswith("1,")

    def test_round_trip_preserves_floats(self, tmp_path):
        report = self.report()
        path = str(tmp_path / "history.csv")
        report.save_history(path)
        rows = tr.load_history(path)
        assert len(rows) == len(report.records)
        for row, rec in zip(rows, report.records):
            assert int(row["epoch"]) == rec.epoch
            assert float(row["val_loss"]) == rec.val_loss  # repr round-trips exactly
            assert float(row["lr"]) == rec.lr

    def test_metrics_dict_shape(self):
        report = self.report()
        metrics = report.metrics_dict()
        assert set(metrics) == {"best_epoch", "val_accuracy", "val_f1"}
        assert metrics["best_epoch"] == report.best_epoch
