"""Release gate: one test per acceptance criterion.

Criteria 1 through 9 are self-contained and always run. Criteria 10 through
12 run the README's pump recipe through the CLI. They need the water-pump
CSV pair (see the README's Experiments section for how to obtain it) and are
skipped when the files are absent; point ATTENTAB_PUMP_DIR at a directory
holding training_set_values.csv and training_set_labels.csv to enable them.
Each test prints a verdict line, collected into the "acceptance criteria"
section of the terminal summary.
"""

import contextlib
import io
import json
import os
import time
from pathlib import Path

import numpy as np
import pytest

from attentab import autodiff as ad
from attentab.autodiff import Adam, Parameter, Tensor, softmax_logprob
from attentab.cli import main
from attentab.data import (
    encode,
    fit_schema,
    join_on_id,
    load_csv,
    save_dataset,
    stratified_split,
)
from attentab.losses import focal_nll
from attentab.synthetic import dataset_from_arrays, make_classification, make_imbalanced
from attentab.tabnet import TabNetClassifier, TabNetConfig, load_model, save_model
from attentab.train import (
    EarlyStopping,
    PlateauScheduler,
    TrainConfig,
    batch_loss,
    evaluate,
    fit,
    resolve_loss_spec,
    training_loss,
)

from conftest import continuous_schema, criterion, criterion_skip
from helpers import grad_check, op_fd_cases, sparsemax_rowloop

FIXTURES = Path(__file__).parent / "fixtures"
PUMP_DIR = Path(os.environ.get("ATTENTAB_PUMP_DIR", "data/pump"))
PUMP_VALUES = PUMP_DIR / "training_set_values.csv"
PUMP_LABELS = PUMP_DIR / "training_set_labels.csv"


def test_criterion_01_sparsemax_matches_sort_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    worst_oracle = worst_sum = worst_shift = 0.0
    n_done = 0
    for dim in range(2, 9):
        n = 143 if dim > 2 else 142  # 6 * 143 + 142 = 1000
        z = rng.normal(0.0, 3.0, size=(n, dim))
        p = ad.sparsemax(None, Tensor(z)).data
        worst_oracle = max(worst_oracle, float(np.abs(p - sparsemax_rowloop(z)).max()))
        worst_sum = max(worst_sum, float(np.abs(p.sum(axis=1) - 1.0).max()))
        shifts = rng.normal(0.0, 10.0, size=(n, 1))
        p_shifted = ad.sparsemax(None, Tensor(z + shifts)).data
        worst_shift = max(worst_shift, float(np.abs(p_shifted - p).max()))
        n_done += n
    dt = time.perf_counter() - t0
    ok = (
        n_done == 1000
        and worst_oracle <= 1e-9
        and worst_sum <= 1e-9
        and worst_shift <= 1e-9
        and dt < 5.0
    )
    assert criterion(
        1,
        ok,
        f"1000 vectors: max dev vs sort oracle {worst_oracle:.1e}, row-sum "
        f"{worst_sum:.1e}, shift {worst_shift:.1e} (tol 1e-9), {dt:.2f}s (< 5s)",
    )


def test_criterion_02_finite_difference_gradients():
    t0 = time.perf_counter()
    rng = np.random.default_rng(202)

    worst_op = 0.0
    for _ in range(3):
        for _, build_loss, params in op_fd_cases(rng):
            worst_op = max(worst_op, grad_check(build_loss, params, rng, samples=3))

    B, C = 5, 3
    labels = rng.integers(0, C, size=B)
    alpha = np.array([0.6, 1.7, 0.9])
    logits = Parameter(rng.normal(size=(B, C)), "logits")
    specs = [
        {"kind": "cce"},
        {"kind": "balanced", "alpha": list(alpha)},
        {"kind": "focal", "alpha": list(alpha), "gamma": 2.0},
        {"kind": "focal", "alpha": list(alpha), "gamma": 1.5},
    ]
    loss_builders = [
        lambda t, spec=spec: batch_loss(t, logits, labels, spec).scalar for spec in specs
    ]
    worst_loss = 0.0
    for build in loss_builders:
        worst_loss = max(worst_loss, grad_check(build, [logits], rng, samples=4))

    schema = continuous_schema(4, ["a", "b", "c"])
    cfg = TabNetConfig(n_d=2, n_a=2, n_steps=2, seed=3, lambda_sparse=1e-2)
    model = TabNetClassifier(cfg, schema)
    data_rng = np.random.default_rng(7)
    X = data_rng.normal(size=(3, 4))
    y = data_rng.integers(0, 3, size=3)

    def build_e2e(tape):
        return training_loss(tape, model, X, y, {"kind": "cce"})

    worst_e2e = grad_check(build_e2e, model.parameters(), rng, samples=2)
    dt = time.perf_counter() - t0
    ok = worst_op < 1e-4 and worst_loss < 1e-4 and worst_e2e < 1e-3 and dt < 60.0
    assert criterion(
        2,
        ok,
        f"rel err: ops {worst_op:.1e}, losses {worst_loss:.1e} (tol 1e-4), "
        f"end-to-end {worst_e2e:.1e} (tol 1e-3), {dt:.1f}s (< 60s)",
    )


def test_criterion_03_loss_identities_and_monotonicity():
    rng = np.random.default_rng(303)
    B, C = 16, 4
    ones = np.ones(C)
    worst_focal = worst_balanced = 0.0
    for _ in range(100):
        logits = Tensor(rng.normal(scale=2.0, size=(B, C)))
        labels = rng.integers(0, C, size=B)
        # independent oracle: the true-class negative log-softmax
        base = -softmax_logprob(None, logits).data[np.arange(B), labels]
        fl = batch_loss(None, logits, labels, {"kind": "focal", "gamma": 0.0, "alpha": list(ones)})
        bl = batch_loss(None, logits, labels, {"kind": "balanced", "alpha": list(ones)})
        worst_focal = max(worst_focal, float(np.abs(fl.per_example.data - base).max()))
        worst_balanced = max(worst_balanced, float(np.abs(bl.per_example.data - base).max()))

    def focal_at(p, gamma):
        lp = np.log(np.array([[p, 1.0 - p]]))
        return focal_nll(None, Tensor(lp), np.array([0]), np.ones(2), gamma).item()

    p_grid = np.linspace(0.05, 0.99, 40)
    mono_p = all(
        focal_at(hi, 2.0) < focal_at(lo, 2.0)
        for lo, hi in zip(p_grid, p_grid[1:])
    )
    gammas = [0.0, 0.5, 1.0, 2.0, 5.0]
    mono_gamma = all(
        focal_at(p, g2) < focal_at(p, g1)
        for p in (0.5, 0.7, 0.9, 0.99)
        for g1, g2 in zip(gammas, gammas[1:])
    )
    ok = worst_focal <= 1e-9 and worst_balanced <= 1e-9 and mono_p and mono_gamma
    assert criterion(
        3,
        ok,
        f"focal(g=0,a=1) vs CE {worst_focal:.1e}, balanced(a=1) vs CE "
        f"{worst_balanced:.1e} (tol 1e-9) on 100 batches; monotone in p_t "
        f"{mono_p}, in gamma on p>=0.5 {mono_gamma}",
    )


def test_criterion_04_mask_and_prior_invariants():
    rng = np.random.default_rng(404)
    schema = continuous_schema(6, ["a", "b", "c"])

    worst_row_sum = 0.0
    model = TabNetClassifier(TabNetConfig(n_d=4, n_a=4, n_steps=3, seed=1), schema)
    for training in (True, False):
        for _ in range(3):
            out = model.forward(None, rng.normal(size=(16, 6)), training=training)
            for mask in out.masks:
                worst_row_sum = max(
                    worst_row_sum, float(np.abs(mask.data.sum(axis=1) - 1.0).max())
                )

    relax = TabNetClassifier(
        TabNetConfig(n_d=4, n_a=4, n_steps=4, gamma_relax=1.0, seed=2), schema
    )
    for att in relax.attentives:
        att.fc.w.data *= 50.0  # wide scores saturate sparsemax to one-hot rows
    out = relax.forward(None, rng.normal(size=(12, 6)), training=False)
    prior = np.ones_like(out.masks[0].data)
    non_increasing = True
    exhausted = 0
    for mask in out.masks:
        nxt = prior * (1.0 - mask.data)
        non_increasing &= bool(np.all(nxt <= prior + 1e-12))
        prior = nxt
        exhausted += int(np.count_nonzero(mask.data >= 1.0 - 1e-12))
    reaches_zero = bool(np.any(prior == 0.0))
    ok = worst_row_sum <= 1e-6 and non_increasing and reaches_zero and exhausted > 0
    assert criterion(
        4,
        ok,
        f"mask row sums within {worst_row_sum:.1e} of 1 (tol 1e-6); "
        f"gamma_relax=1: priors non-increasing {non_increasing}, "
        f"{int(np.count_nonzero(prior == 0.0))} entries reach exactly 0",
    )


def test_criterion_05_synthetic_learnability():
    t0 = time.perf_counter()
    accs, masses = [], []
    for seed in range(5):
        features, labels, informative = make_classification(seed=seed)
        ds = dataset_from_arrays(features, labels)
        split = stratified_split(ds, 0.2, seed=seed)
        model = TabNetClassifier(TabNetConfig(seed=seed), ds.schema)
        cfg = TrainConfig(
            max_epochs=100, batch_size=256, patience=100, lr_patience=100, seed=seed
        )
        report = fit(model, ds, split, cfg)
        accs.append(report.best_record.val_acc)
        rep = model.explain(ds.features[split.val_indices])
        mass = sum(
            share
            for name, share in zip(rep.feature_names, rep.global_importance)
            if name in informative
        )
        masses.append(float(mass))
    dt = time.perf_counter() - t0
    good = sum(a >= 0.90 and m >= 0.60 for a, m in zip(accs, masses))
    ok = good >= 4 and dt < 300.0
    assert criterion(
        5,
        ok,
        f"{good}/5 seeds reach val acc >= 0.90 with informative mass >= 0.60 "
        f"(min acc {min(accs):.3f}, min mass {min(masses):.3f}), {dt:.0f}s (< 300s)",
    )


def test_criterion_06_focal_beats_cce_on_imbalance():
    recalls = {"cce": [], "focal": []}
    for seed in range(5):
        features, labels = make_imbalanced(seed=seed)
        ds = dataset_from_arrays(features, labels)
        split = stratified_split(ds, 0.2, seed=seed)
        for kind in ("cce", "focal"):
            model = TabNetClassifier(TabNetConfig(seed=seed), ds.schema)
            cfg = TrainConfig(
                max_epochs=40,
                batch_size=256,
                patience=100,
                lr_patience=100,
                loss_kind=kind,
                focal_gamma=2.0,
                alpha_mode="auto",
                seed=seed,
            )
            fit(model, ds, split, cfg)
            preds = model.predict(ds.features[split.val_indices])
            truth = ds.labels[split.val_indices]
            tp = int(np.sum((preds == 1) & (truth == 1)))
            fn = int(np.sum((preds != 1) & (truth == 1)))
            recalls[kind].append(tp / (tp + fn))
    med_focal = float(np.median(recalls["focal"]))
    med_cce = float(np.median(recalls["cce"]))
    ok = med_focal > med_cce
    assert criterion(
        6,
        ok,
        f"median minority recall over 5 seeds: focal {med_focal:.3f} "
        f"> cce {med_cce:.3f} required",
    )


def test_criterion_07_pipeline_goldens():
    values = load_csv(str(FIXTURES / "mini_values.csv"))
    labels = load_csv(str(FIXTURES / "mini_labels.csv"))
    table = join_on_id(values, labels)
    schema = fit_schema(table, "status_group")
    by_name = {c.name: c for c in schema.columns}

    missing_drops = {
        c.name
        for c in schema.columns
        if c.kind == "drop" and c.drop_reason != "identifier column"
    }
    checks = [
        missing_drops == {"ghost"},  # the only column over 50% missing
        by_name["quality"].imputation == "good",
        by_name["region"].imputation is None,
        by_name["region"].encoding == {"north": 0, "south": 1, "east": 2},
        by_name["amount"].kind == "continuous",
        schema.labels == ["functional", "functional needs repair", "non functional"],
    ]

    ds1 = encode(table, schema)
    schema2 = fit_schema(join_on_id(values, labels), "status_group")
    ds2 = encode(table, schema2)
    identical = (
        schema.to_json() == schema2.to_json()
        and ds1.features.tobytes() == ds2.features.tobytes()
        and ds1.labels.tobytes() == ds2.labels.tobytes()
    )
    ok = all(checks) and identical
    assert criterion(
        7,
        ok,
        f"drops {sorted(missing_drops)}, quality imputed "
        f"{by_name['quality'].imputation!r}, deterministic rerun {identical}",
    )


def test_criterion_08_persistence_round_trip(tmp_path):
    rng = np.random.default_rng(808)
    features = rng.normal(size=(80, 4))
    labels = (features[:, 0] + features[:, 1] > 0).astype(np.int64)
    ds = dataset_from_arrays(features, labels)
    split = stratified_split(ds, 0.25, seed=8)
    model = TabNetClassifier(TabNetConfig(n_d=3, n_a=3, n_steps=2, seed=8), ds.schema)
    cfg = TrainConfig(max_epochs=3, batch_size=16, patience=50, lr_patience=50, seed=8)
    fit(model, ds, split, cfg)
    spec = resolve_loss_spec(cfg, np.bincount(ds.labels[split.train_indices], minlength=2))
    before = evaluate(model, ds, split.val_indices, spec)

    p1, p2 = str(tmp_path / "m1.attb"), str(tmp_path / "m2.attb")
    save_model(p1, model)
    loaded = load_model(p1)
    after = evaluate(loaded, ds, split.val_indices, spec)
    save_model(p2, loaded)

    worst = max(abs(a - b) for a, b in zip(before, after))
    bit_exact = Path(p1).read_bytes() == Path(p2).read_bytes()
    ok = worst <= 1e-9 and bit_exact
    assert criterion(
        8,
        ok,
        f"loss/acc/f1 drift {worst:.1e} (tol 1e-9), file round trip "
        f"bit-exact {bit_exact}",
    )


def test_criterion_09_early_stop_and_scheduler_contracts():
    stopper = EarlyStopping(patience=1, min_delta=1e-4)
    decisions = [stopper.update(e, v) for e, v in enumerate([1.0, 1.1, 1.2], start=1)]
    pinned = decisions == [False, False, True] and stopper.best_epoch == 1

    opt = Adam([Parameter(np.zeros(1), "p")], lr=0.1)
    sched = PlateauScheduler(opt, factor=0.5, patience=2, min_lr=1e-4, min_delta=1e-4)
    rng = np.random.default_rng(909)
    non_increasing = True
    prev = opt.lr
    for value in rng.uniform(0.0, 2.0, size=200):
        sched.update(float(value))
        non_increasing &= opt.lr <= prev + 1e-15
        prev = opt.lr
    ok = pinned and non_increasing and opt.lr >= 1e-4
    assert criterion(
        9,
        ok,
        f"val losses [1.0, 1.1, 1.2] with patience=1 stop at epoch 3, "
        f"best_epoch={stopper.best_epoch}; lr non-increasing {non_increasing}",
    )


# ------------------------------------------------- extended pump criteria


def _pump_runs(values: Path, labels: Path, ws: Path) -> dict:
    """The README's pump recipe through the CLI: preprocess once, train the
    focal and cce arms, and read each arm's ``evaluate --split val`` line."""
    t0 = time.perf_counter()
    dataset = str(ws / "dataset.attd")
    assert main(
        ["preprocess", "--values", str(values), "--labels", str(labels),
         "--out-schema", str(ws / "schema.json"), "--out-dataset", dataset]
    ) == 0
    runs: dict = {"dataset": dataset}
    for kind, loss_flags in (("focal", ["--loss", "focal", "--gamma", "2"]), ("cce", ["--loss", "cce"])):
        model = str(ws / f"{kind}.attb")
        assert main(
            ["train", "--dataset", dataset, *loss_flags, "--seed", "0", "--out-model", model,
             "--out-history", str(ws / f"{kind}_history.csv"),
             "--out-metrics", str(ws / f"{kind}_metrics.json")]
        ) == 0
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["evaluate", "--model", model, "--dataset", dataset, "--split", "val"])
        assert code == 0
        result = json.loads(out.getvalue())
        runs[kind] = {
            "acc": result["accuracy"], "f1": result["f1"], "loss": result["loss"], "model": model
        }
    runs["seconds"] = time.perf_counter() - t0
    return runs


@pytest.fixture(scope="module")
def pump_runs(tmp_path_factory) -> dict:
    """Both pump arms, trained once for criteria 10 through 12."""
    return _pump_runs(PUMP_VALUES, PUMP_LABELS, tmp_path_factory.mktemp("pump_runs"))


def _library_pump_runs(values: Path, labels: Path, ws: Path) -> dict:
    """The library composition criteria 10 through 12 used to train with,
    kept as the reference that the CLI recipe must reproduce."""
    table = join_on_id(load_csv(str(values)), load_csv(str(labels)))
    schema = fit_schema(table, "status_group")
    ds = encode(table, schema)
    split = stratified_split(ds, 0.2, seed=0)
    counts = np.bincount(ds.labels[split.train_indices], minlength=len(schema.labels))
    runs: dict = {}
    for kind in ("focal", "cce"):
        model = TabNetClassifier(TabNetConfig(seed=0), ds.schema)
        cfg = TrainConfig(loss_kind=kind, focal_gamma=2.0, alpha_mode="auto", seed=0)
        fit(model, ds, split, cfg)
        loss, acc, f1 = evaluate(
            model, ds, split.val_indices, resolve_loss_spec(cfg, counts)
        )
        model_path = str(ws / f"{kind}.attb")
        save_model(model_path, model)
        runs[kind] = {"acc": acc, "f1": f1, "loss": loss, "model": model_path}
    runs["dataset"] = str(ws / "dataset.attd")
    save_dataset(runs["dataset"], ds)
    return runs


def test_pump_recipe_matches_library_composition(tmp_path):
    """Criteria 10 through 12 skip without the pump CSVs, so their recipe
    runs here on the pump-shaped fixture pair instead."""
    values, labels = FIXTURES / "mini_values.csv", FIXTURES / "mini_labels.csv"
    (tmp_path / "cli").mkdir()
    (tmp_path / "lib").mkdir()
    recipe = _pump_runs(values, labels, tmp_path / "cli")
    reference = _library_pump_runs(values, labels, tmp_path / "lib")
    for kind in ("focal", "cce"):
        for key in ("acc", "f1", "loss"):
            assert recipe[kind][key] == reference[kind][key], (kind, key)
        assert Path(recipe[kind]["model"]).read_bytes() == Path(reference[kind]["model"]).read_bytes()
    assert Path(recipe["dataset"]).read_bytes() == Path(reference["dataset"]).read_bytes()


def _require_pump(num: int, request) -> dict:
    if not (PUMP_VALUES.exists() and PUMP_LABELS.exists()):
        criterion_skip(
            num, f"pump CSVs not found under {PUMP_DIR} (see the README's Experiments section)"
        )
        pytest.skip(f"pump dataset not available under {PUMP_DIR}")
    return request.getfixturevalue("pump_runs")


def test_criterion_10_pump_reproduction_band(request):
    runs = _require_pump(10, request)
    focal, cce, dt = runs["focal"], runs["cce"], runs["seconds"]
    ok = focal["acc"] >= 0.80 and focal["f1"] >= 0.64 and cce["acc"] >= 0.79
    assert criterion(
        10,
        ok,
        f"focal acc {focal['acc']:.4f} (>= 0.80), focal f1 {focal['f1']:.4f} "
        f"(>= 0.64), cce acc {cce['acc']:.4f} (>= 0.79), {dt:.0f}s",
    )


def test_criterion_11_pump_focal_beats_cce(request):
    runs = _require_pump(11, request)
    ok = runs["focal"]["acc"] > runs["cce"]["acc"]
    assert criterion(
        11,
        ok,
        f"same seed and architecture: focal acc {runs['focal']['acc']:.4f} "
        f"> cce acc {runs['cce']['acc']:.4f} required",
    )


def test_criterion_12_pump_explain_table(request, capsys):
    runs = _require_pump(12, request)
    capsys.readouterr()  # drop preprocess and train output, if the fixture ran here
    code = main(
        ["explain", "--model", runs["focal"]["model"], "--dataset", runs["dataset"],
         "--top-k", "5"]
    )
    out = capsys.readouterr().out
    lines = out.strip().split("\n")
    header_ok = lines[0].split() == ["rank", "feature", "importance"]
    rows_ok = len(lines) == 6 and all(
        line.split()[0] == str(i) for i, line in enumerate(lines[1:], start=1)
    )
    ok = code == 0 and header_ok and rows_ok
    assert criterion(
        12, ok, f"explain table emits header plus 5 ranked rows: {header_ok and rows_ok}"
    )
