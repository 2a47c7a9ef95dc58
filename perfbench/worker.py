"""Child process of the benchmark: one of three jobs, chosen by the first
argument.

    gen    write a workload's input CSV pair into a work directory
    run    run a workload's timed operations and write the results as JSON
    setup  time one set-up (import, load containers, build model and
           optimizer) and write it as JSON

``run.py`` starts these with BLAS pinned to one thread and reads the JSON.
Each job imports ``attentab`` from the checkout's ``src/`` and from nowhere
else.
"""

import time

T_START = time.perf_counter()  # set-up time counts from here, before imports

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from statistics import median  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))

from inputs import (  # noqa: E402
    PUMP_CATEGORICAL,
    PUMP_CONTINUOUS,
    PUMP_D_MODEL,
    PUMP_EMBED_DIM,
    PUMP_TARGET,
    write_pump_csvs,
)
from spans import Tracer, percentile, self_times, tail_quantile  # noqa: E402

WORKLOADS = ("synth-c5", "pump-train", "pump-serve")

SYNTH_EPOCHS = 10
SYNTH_VAL_ACC_FLOOR = 0.5  # chance is 1/3; 10 epochs reach 0.6-0.8
PUMP_EPOCHS = 1
# pump-serve trains its model fixture on a slice of the split only
FIXTURE_TRAIN_ROWS = 8192
FIXTURE_VAL_ROWS = 2048

# A run interleaves five timed operations for --seconds. After one pass in
# order, the operation with the least time spent per unit of weight runs
# next, so every metric's samples spread over the whole run, since a shared
# machine's speed drifts over seconds; the weights give a workload's focus
# more of the time. When time is up, operations with fewer than MIN_SAMPLES
# samples run until they have them. Traced runs need one sample: a traced fit
# trains twice.
WEIGHTS = {
    "synth-c5": {"preprocess": 1, "fit": 4, "evaluate": 1, "predict": 1, "explain": 1},
    "pump-train": {"preprocess": 2, "fit": 3, "evaluate": 1, "predict": 1, "explain": 1},
    "pump-serve": {"preprocess": 2, "fit": 1, "evaluate": 1, "predict": 1, "explain": 2},
}
MIN_SAMPLES = 2
MAX_SAMPLES = 200
TIMED = (
    "preprocess_s", "fit_epoch_s", "evaluate_rows_per_s", "predict_rows_per_s", "explain_rows_per_s",
)


def import_attentab():
    import attentab

    origin = Path(attentab.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise ImportError(f"attentab imported from {origin}, not from {SRC}")
    from attentab import autodiff, data, tabnet, train

    return autodiff, data, tabnet, train


def configs(workload: str, seed: int):
    """(TabNetConfig, TrainConfig) for a workload. Patience and lr_patience
    cover every epoch, so early stopping and the lr schedule never act."""
    from attentab.tabnet import TabNetConfig
    from attentab.train import TrainConfig

    if workload == "synth-c5":
        e = SYNTH_EPOCHS
        return TabNetConfig(seed=seed), TrainConfig(
            max_epochs=e, batch_size=256, patience=e, lr_patience=e, seed=seed
        )
    e = PUMP_EPOCHS
    return (
        TabNetConfig(
            n_steps=3, n_d=8, n_a=8, embed_dims=PUMP_EMBED_DIM, virtual_batch=128, seed=seed
        ),
        TrainConfig(
            max_epochs=e, batch_size=1024, loss_kind="focal", focal_gamma=2.0,
            alpha_mode="auto", patience=e, lr_patience=e, seed=seed,
        ),
    )


def target_of(workload: str) -> str:
    return "label" if workload == "synth-c5" else PUMP_TARGET


def generate(workload: str, seed: int, work: Path) -> None:
    values, labels = str(work / "values.csv"), str(work / "labels.csv")
    if workload == "synth-c5":
        from attentab.synthetic import make_classification, write_csv_pair

        features, y, _ = make_classification(seed=seed)
        write_csv_pair(values, labels, features, y)
    else:
        write_pump_csvs(values, labels, seed)


def peak_mb(fn) -> float:
    """tracemalloc peak of one call, in MiB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def batches(order, batch_size: int) -> list:
    """train.fit's batching: a trailing single row joins the batch before it."""
    import numpy as np

    chunks = [order[s : s + batch_size] for s in range(0, order.size, batch_size)]
    if len(chunks) > 1 and chunks[-1].size == 1:
        chunks[-2:] = [np.concatenate(chunks[-2:])]
    return chunks


class Run:
    """One workload's timed operations in this process, recorded as spans."""

    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, work: Path):
        self.workload, self.seed, self.seconds, self.trace, self.work = (
            workload, seed, seconds, trace, work,
        )
        self.tracer = Tracer()
        self.attempted = 0
        self.failed_checks: list[str] = []
        self.samples: dict[str, list[float]] = {}
        self.extra: dict[str, float] = {}
        self.ad, self.data, self.tabnet, self.train = import_attentab()
        self.model_cfg, self.train_cfg = configs(workload, seed)

    # ----------------------------------------------------------- helpers

    def call(self, name: str, fn, *args):
        self.attempted += 1
        with self.tracer.span(name):
            return fn(*args)

    def last(self, name: str) -> float:
        return next(s.duration for s in reversed(self.tracer.spans) if s.name == name)

    def sample(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def check(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed_checks.append(name)

    # -------------------------------------------------------- preprocess

    def preprocess(self, call, tag: str):
        d, w = self.data, self.work
        values = call("data.load_csv", d.load_csv, str(w / "values.csv"))
        labels = call("data.load_csv", d.load_csv, str(w / "labels.csv"))
        table = call("data.join_on_id", d.join_on_id, values, labels)
        schema = call("data.fit_schema", d.fit_schema, table, target_of(self.workload))
        dataset = call("data.encode", d.encode, table, schema)
        call("data.FeatureSchema.save", schema.save, str(w / f"schema{tag}.json"))
        call("container.save_dataset", d.save_dataset, str(w / f"dataset{tag}.attd"), dataset)
        return dataset

    def preprocess_rep(self, i: int) -> None:
        with self.tracer.span("preprocess"):
            dataset = self.preprocess(self.call, str(i))
        self.sample("preprocess_s", self.last("preprocess"))
        if i == 0:
            self.check_shape(dataset)
            self.prepare(dataset)
        else:
            self.check_same_encoding(str(i))

    def check_same_encoding(self, tag: str) -> None:
        dataset, schema = self.work / f"dataset{tag}.attd", self.work / f"schema{tag}.json"
        self.check("encode_is_byte_identical", dataset.read_bytes() == (self.work / "dataset0.attd").read_bytes())
        load = self.data.FeatureSchema.load
        same = load(str(schema)).hash() == load(str(self.work / "schema0.json")).hash()
        self.check("schema_hash_is_stable", same)
        dataset.unlink()
        schema.unlink()

    def preprocess_peak(self) -> None:
        """tracemalloc peak of an untimed extra preprocess of the same CSV
        pair, whose output must match the first."""
        self.extra["data.preprocess_peak_mb"] = peak_mb(
            lambda: self.preprocess(lambda _name, fn, *args: fn(*args), "_peak")
        )
        self.check_same_encoding("_peak")

    def check_shape(self, dataset) -> None:
        import numpy as np

        if self.workload == "synth-c5":
            from attentab.synthetic import dataset_from_arrays, make_classification

            features, labels, _ = make_classification(seed=self.seed)
            ref = dataset_from_arrays(features, labels)
            self.check(
                "csv_matches_dataset_from_arrays",
                np.array_equal(dataset.features, ref.features)
                and np.array_equal(dataset.labels, ref.labels),
            )
        else:
            kinds = [c.kind for c in dataset.schema.feature_columns()]
            self.check(
                "pump_shape",
                kinds.count("continuous") == PUMP_CONTINUOUS
                and kinds.count("categorical") == PUMP_CATEGORICAL,
            )

    # --------------------------------------------------------------- fit

    def fit_rep(self, i: int) -> None:
        ds = self.dataset
        model = self.tabnet.TabNetClassifier(self.model_cfg, ds.schema)
        if self.workload != "synth-c5":
            self.check("pump_d_model", model.d_model == PUMP_D_MODEL)
        report = self.call("train.fit", self.train.fit, model, ds, self.split, self.train_cfg)
        epochs = len(report.records)
        fit_s = self.last("train.fit")
        self.sample("fit_epoch_s", fit_s / epochs)
        final = report.records[-1]
        self.check("fixed_epochs_ran", epochs == self.train_cfg.max_epochs)
        if i == 0:
            self.val_loss, self.val_acc = final.val_loss, final.val_acc
            if self.workload == "synth-c5":
                self.check("synth_val_acc_floor", final.val_acc >= SYNTH_VAL_ACC_FLOOR)
        self.check("fit_is_deterministic", (final.val_loss, final.val_acc) == (self.val_loss, self.val_acc))
        self.persist(model, i)
        if self.trace:
            fresh = self.tabnet.TabNetClassifier(self.model_cfg, ds.schema)
            with self.tracer.span("traced_fit"):
                val_loss = self.traced_fit(fresh)
            self.check("traced_loop_matches_fit", val_loss == final.val_loss)
            self.sample("overhead_pct", 100.0 * (self.last("traced_fit") / fit_s - 1.0))

    def traced_fit(self, model) -> float:
        """train.fit's epoch loop driven through public calls, in its order
        and with its seeds, with a span around each call. Returns the final
        epoch's validation loss."""
        import numpy as np

        ad, train, ds, cfg, call = self.ad, self.train, self.dataset, self.train_cfg, self.call
        train_idx = np.asarray(self.split.train_indices)
        val_idx = np.asarray(self.split.val_indices)
        counts = np.bincount(ds.labels[train_idx], minlength=model.n_classes)
        loss_spec = train.resolve_loss_spec(cfg, counts)
        rng = np.random.default_rng(cfg.seed)
        optimizer = ad.Adam(model.parameters(), lr=cfg.learning_rate)
        lam = model.config.lambda_sparse
        X, y = ds.features, ds.labels
        val_loss = float("nan")
        for _ in range(cfg.max_epochs):
            for rows in batches(rng.permutation(train_idx), cfg.batch_size):
                with self.tracer.span("train.step"):
                    tape = ad.Tape()
                    out = call("tabnet.forward_train", model.forward, tape, X[rows], True)
                    lv = call("losses.batch_loss", train.batch_loss, tape, out.logits, y[rows], loss_spec)
                    total = lv.scalar if lam == 0.0 else ad.add(
                        tape, lv.scalar, ad.scale(tape, out.sparsity, lam)
                    )
                    if not (np.all(np.isfinite(out.logits.data)) and np.isfinite(total.item())):
                        raise ArithmeticError("training loss is not finite")
                    call("autodiff.zero_grad", optimizer.zero_grad)
                    call("autodiff.backward", tape.backward, total)
                    call("autodiff.adam_step", optimizer.step)
                self.sample("tape_records", len(tape))
            with self.tracer.span("train.eval_pass"):
                call("train.evaluate", train.evaluate, model, ds, train_idx, loss_spec, cfg.f1_average)
                val_loss = call(
                    "train.evaluate", train.evaluate, model, ds, val_idx, loss_spec, cfg.f1_average
                )[0]
        return val_loss

    # ------------------------------------------------------------- serve

    def persist(self, model, i: int) -> None:
        """Reload the dataset and save and reload the model; the serve
        operations use the reloaded copies."""
        import numpy as np

        ds = self.call("container.load_dataset", self.data.load_dataset, str(self.work / "dataset0.attd"))
        if i == 0:
            self.check(
                "dataset_round_trip",
                np.array_equal(ds.features, self.dataset.features)
                and np.array_equal(ds.labels, self.dataset.labels),
            )
        path = str(self.work / "model.attb")
        self.call("container.save_model", self.tabnet.save_model, path, model)
        self.model = self.call("container.load_model", self.tabnet.load_model, path)
        self.served = ds
        self.serve_X = ds.features if self.serve_rows is None else ds.features[self.serve_rows]

    def evaluate_rep(self, i: int) -> None:
        args = (self.model, self.served, self.eval_rows, self.loss_spec)
        self.call("train.evaluate", self.train.evaluate, *args)
        self.sample("evaluate_rows_per_s", len(self.eval_rows) / self.last("train.evaluate"))

    def predict_rep(self, i: int) -> None:
        import numpy as np

        X, model = self.serve_X, self.model
        logits = self.call("tabnet.predict_logits", model.predict_logits, X)
        self.sample("predict_rows_per_s", len(X) / self.last("tabnet.predict_logits"))
        if i == 0:
            b = self.train.EVAL_BATCH
            chunks = [
                self.call("tabnet.forward_eval", model.forward, None, X[s : s + b], False).logits.data
                for s in range(0, len(X), b)
            ]
            self.check("predict_equals_chunked_forward", np.array_equal(np.concatenate(chunks), logits))

    def explain_rep(self, i: int) -> None:
        import numpy as np

        X, model = self.serve_X, self.model
        report = self.call("tabnet.explain", model.explain, X)
        self.sample("explain_rows_per_s", len(X) / self.last("tabnet.explain"))
        self.check("explain_rows_sum_to_one", np.allclose(report.instance_importance.sum(axis=1), 1.0))
        if i == 0 and self.trace:
            self.extra["tabnet.explain_peak_mb"] = peak_mb(lambda: model.explain(X))

    # --------------------------------------------------------------- run

    def prepare(self, ds) -> None:
        """Split, loss and row choices for the fit and serve operations."""
        import numpy as np

        self.dataset = ds
        split = self.data.stratified_split(ds, self.train_cfg.val_fraction, self.seed)
        if self.workload == "pump-serve":
            split = self.data.Split(
                split.train_indices[:FIXTURE_TRAIN_ROWS], split.val_indices[:FIXTURE_VAL_ROWS]
            )
        self.split = split
        counts = np.bincount(ds.labels[split.train_indices], minlength=ds.n_classes)
        self.loss_spec = self.train.resolve_loss_spec(self.train_cfg, counts)
        val_rows = np.asarray(split.val_indices)
        self.eval_rows = val_rows if self.workload == "synth-c5" else np.arange(ds.n_rows)
        self.serve_rows = None if self.workload == "pump-serve" else val_rows

    def run(self) -> dict:
        ops = {
            "preprocess": self.preprocess_rep,
            "fit": self.fit_rep,
            "evaluate": self.evaluate_rep,
            "predict": self.predict_rep,
            "explain": self.explain_rep,
        }
        weight = WEIGHTS[self.workload]
        spent = dict.fromkeys(ops, 0.0)
        count = dict.fromkeys(ops, 0)
        min_samples = 1 if self.trace else MIN_SAMPLES
        t0 = time.perf_counter()

        def run_op(name: str) -> None:
            start = time.perf_counter()
            ops[name](count[name])
            spent[name] += time.perf_counter() - start
            count[name] += 1

        for name in ops:
            run_op(name)
        while True:
            open_ops = [k for k in ops if count[k] < MAX_SAMPLES]
            if not open_ops:
                break
            name = min(open_ops, key=lambda k: spent[k] / weight[k])
            if time.perf_counter() - t0 + spent[name] / count[name] > self.seconds:
                break
            run_op(name)
        for name in ops:
            while count[name] < min_samples:
                run_op(name)
        if self.trace:
            self.preprocess_peak()
        self.bytes_written = sum(
            (self.work / name).stat().st_size for name in ("schema0.json", "dataset0.attd", "model.attb")
        )
        return self.results()

    def results(self) -> dict:
        metrics = {key: median(self.samples[key]) for key in TIMED}
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        out = {
            "attempted": self.attempted,
            "failed_checks": self.failed_checks,
            "metrics": metrics,
            "quality": {"val_loss": self.val_loss, "val_acc": self.val_acc},
        }
        if self.trace:
            out["per_layer"] = self.per_layer()
            out["spans"] = self.tracer.to_json()
        return out

    def per_layer(self) -> dict:
        spans = self.tracer.spans
        names = [s.name for s in spans]

        def per_rep(name: str) -> float:
            """Median over preprocess repetitions of the time in `name`."""
            totals: dict[int, float] = {}
            for s in spans:
                if s.name == name and s.parent is not None and names[s.parent] == "preprocess":
                    totals[s.parent] = totals.get(s.parent, 0.0) + s.duration
            return median(list(totals.values()))

        def ms(name: str) -> list[float]:
            return [1e3 * d for d in self.tracer.durations(name)]

        step_ms = ms("train.step")
        n = len(step_ms)
        q = tail_quantile(n)
        adam_ms = [a + b for a, b in zip(ms("autodiff.zero_grad"), ms("autodiff.adam_step"))]
        step_self = [1e3 * t for s, t in zip(spans, self_times(spans)) if s.name == "train.step"]
        eval_passes = self.tracer.durations("train.eval_pass")
        out = {
            "data.load_csv_s": per_rep("data.load_csv"),
            "data.join_on_id_s": per_rep("data.join_on_id"),
            "data.fit_schema_s": per_rep("data.fit_schema"),
            "data.encode_s": per_rep("data.encode"),
            "container.save_dataset_s": per_rep("container.save_dataset"),
            "container.save_model_s": median(self.tracer.durations("container.save_model")),
            "container.bytes_written": self.bytes_written,
            "tabnet.forward_train_ms.p50": median(ms("tabnet.forward_train")),
            "tabnet.forward_train_ms.tail": percentile(ms("tabnet.forward_train"), q),
            "autodiff.backward_ms.p50": median(ms("autodiff.backward")),
            "autodiff.backward_ms.tail": percentile(ms("autodiff.backward"), q),
            "losses.batch_loss_ms": median(ms("losses.batch_loss")),
            "autodiff.tape_records": median(self.samples["tape_records"]),
            "autodiff.adam_ms": median(adam_ms),
            "train.step_ms.p50": median(step_ms),
            "train.step_ms.tail": percentile(step_ms, q),
            "train.step_self_ms": median(step_self),
            "train.steps": n,
            "train.tail_q": q,
            "train.eval_pass_s": median(eval_passes),
            "train.val_loss": self.val_loss,
            "train.val_acc": self.val_acc,
            "tabnet.forward_eval_ms": median(ms("tabnet.forward_eval")),
            "tabnet.explain_s": median(self.tracer.durations("tabnet.explain")),
            "trace.overhead_pct": median(self.samples["overhead_pct"]),
        }
        out.update(self.extra)
        return out


def setup_probe(workload: str, seed: int, work: Path) -> dict:
    """Import, load the containers a run left behind, split, and build the
    model and optimizer; set-up time runs from process start to here."""
    tracer = Tracer()
    ad, data, tabnet, _ = import_attentab()
    model_cfg, train_cfg = configs(workload, seed)
    with tracer.span("container.load_dataset"):
        ds = data.load_dataset(str(work / "dataset0.attd"))
    with tracer.span("data.stratified_split"):
        data.stratified_split(ds, train_cfg.val_fraction, seed)
    model = tabnet.TabNetClassifier(model_cfg, ds.schema)
    ad.Adam(model.parameters(), lr=train_cfg.learning_rate)
    with tracer.span("container.load_model"):
        tabnet.load_model(str(work / "model.attb"))
    setup_s = time.perf_counter() - T_START
    return {
        "setup_s": setup_s,
        "container.load_dataset_s": tracer.durations("container.load_dataset")[0],
        "data.stratified_split_ms": 1e3 * tracer.durations("data.stratified_split")[0],
        "container.load_model_s": tracer.durations("container.load_model")[0],
    }


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("job", choices=("gen", "run", "setup"))
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    if args.job == "gen":
        import_attentab()
        generate(args.workload, args.seed, args.work)
        return 0
    if args.job == "setup":
        result = setup_probe(args.workload, args.seed, args.work)
    else:
        result = Run(args.workload, args.seed, args.seconds, bool(args.trace), args.work).run()
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
