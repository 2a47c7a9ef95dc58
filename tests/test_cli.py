"""End-to-end command flows against the 30-row fixture CSVs."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from attentab.cli import load_config_file, main
from attentab.data import FeatureSchema
from attentab.tabnet import load_model

FIXTURES = Path(__file__).parent / "fixtures"
VALUES = str(FIXTURES / "mini_values.csv")
LABELS = str(FIXTURES / "mini_labels.csv")

FAST_MODEL = [
    "--max-epochs", "2", "--batch-size", "8", "--n-d", "2", "--n-a", "2",
    "--n-steps", "1", "--patience", "50", "--lr", "0.02",
]
FAST_TRAIN = FAST_MODEL + ["--seed", "5"]


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """One preprocessed + trained pipeline shared by the read-only tests."""
    ws = tmp_path_factory.mktemp("cli_ws")
    cwd = os.getcwd()
    os.chdir(ws)
    try:
        assert main(["preprocess", "--values", VALUES, "--labels", LABELS]) == 0
        assert main(["train"] + FAST_TRAIN) == 0
    finally:
        os.chdir(cwd)
    return ws


def in_dir(monkeypatch, path):
    monkeypatch.chdir(path)


class TestPreprocess:
    def test_writes_schema_and_dataset(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        code, out, _ = run(["preprocess", "--values", VALUES, "--labels", LABELS], capsys)
        assert code == 0
        assert (tmp_path / "schema.json").exists()
        assert (tmp_path / "dataset.attd").exists()
        assert "schema -> schema.json" in out
        assert "rows: 30" in out

    def test_schema_contents_match_the_fixture_design(self, workspace):
        schema = FeatureSchema.load(str(workspace / "schema.json"))
        by_name = {c.name: c for c in schema.columns}
        assert by_name["ghost"].kind == "drop"  # 16/30 missing
        assert "exceeds threshold" in by_name["ghost"].drop_reason
        assert by_name["id"].drop_reason == "identifier column"
        assert by_name["quality"].imputation == "good"
        assert by_name["region"].encoding == {"north": 0, "south": 1, "east": 2}
        assert by_name["amount"].kind == "continuous"
        assert by_name["note"].kind == "categorical"
        assert schema.labels == ["functional", "functional needs repair", "non functional"]

    def test_rerun_is_byte_identical(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        base = ["preprocess", "--values", VALUES, "--labels", LABELS]
        assert main(base + ["--out-schema", "a.json", "--out-dataset", "a.attd"]) == 0
        assert main(base + ["--out-schema", "b.json", "--out-dataset", "b.attd"]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
        assert (tmp_path / "a.attd").read_bytes() == (tmp_path / "b.attd").read_bytes()

    def test_target_inferred_from_labels_header(self, workspace):
        schema = FeatureSchema.load(str(workspace / "schema.json"))
        assert schema.target == "status_group"

    def test_missing_labels_file_exits_two(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        code, _, err = run(
            ["preprocess", "--values", VALUES, "--labels", "absent.csv"], capsys
        )
        assert code == 2
        assert "absent.csv" in err

    def test_missing_flags_exit_two(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        code, _, err = run(["preprocess", "--values", VALUES], capsys)
        assert code == 2
        assert "--labels" in err


class TestTrain:
    def test_outputs_and_metrics(self, workspace):
        for name in ("model.attb", "history.csv", "metrics.json"):
            assert (workspace / name).exists()
        metrics = json.loads((workspace / "metrics.json").read_text())
        assert set(metrics) == {"best_epoch", "val_accuracy", "val_f1"}
        history = (workspace / "history.csv").read_text().strip().split("\n")
        assert history[0].startswith("epoch,train_loss")
        assert len(history) == 1 + 2  # header + max_epochs rows

    def test_max_epochs_flag_limits_history(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        run(["preprocess", "--values", VALUES, "--labels", LABELS], capsys)
        code, _, _ = run(
            ["train", "--max-epochs", "1", "--batch-size", "8", "--n-d", "2",
             "--n-a", "2", "--n-steps", "1", "--patience", "50"],
            capsys,
        )
        assert code == 0
        history = (tmp_path / "history.csv").read_text().strip().split("\n")
        assert len(history) == 2

    def test_loss_flags_recorded_in_model(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        run(["preprocess", "--values", VALUES, "--labels", LABELS], capsys)
        code, _, _ = run(
            ["train", "--loss", "focal", "--gamma", "1.5", "--alpha", "uniform"]
            + FAST_TRAIN,
            capsys,
        )
        assert code == 0
        model = load_model(str(tmp_path / "model.attb"))
        assert model.train_info["loss"]["kind"] == "focal"
        assert model.train_info["loss"]["gamma"] == 1.5
        np.testing.assert_array_equal(model.train_info["loss"]["alpha"], [1.0, 1.0, 1.0])

    def test_seed_flag_sets_both_seeds(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        run(["preprocess", "--values", VALUES, "--labels", LABELS], capsys)
        run(["train", "--seed", "9"] + FAST_MODEL, capsys)
        model = load_model(str(tmp_path / "model.attb"))
        assert model.config.seed == 9
        assert model.train_info["train_config"]["seed"] == 9

    def test_stdout_reports_epochs_and_metrics(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        run(["preprocess", "--values", VALUES, "--labels", LABELS], capsys)
        code, out, _ = run(["train"] + FAST_TRAIN, capsys)
        assert code == 0
        assert "epoch    1" in out and "val_loss" in out
        metrics_line = [l for l in out.splitlines() if l.startswith("{")][-1]
        assert set(json.loads(metrics_line)) == {"best_epoch", "val_accuracy", "val_f1"}


class TestEvaluate:
    def test_val_split_matches_saved_metrics(self, workspace, monkeypatch, capsys):
        in_dir(monkeypatch, workspace)
        code, out, _ = run(["evaluate", "--split", "val"], capsys)
        assert code == 0
        got = json.loads(out)
        saved = json.loads((workspace / "metrics.json").read_text())
        assert abs(got["accuracy"] - saved["val_accuracy"]) < 1e-9
        assert abs(got["f1"] - saved["val_f1"]) < 1e-9
        assert got["split"] == "val"

    def test_all_split_covers_every_row(self, workspace, monkeypatch, capsys):
        in_dir(monkeypatch, workspace)
        code, out, _ = run(["evaluate", "--split", "all"], capsys)
        assert code == 0
        got = json.loads(out)
        assert got["n_rows"] == 30
        for key in ("loss", "accuracy", "f1"):
            assert isinstance(got[key], float)

    def test_tampered_model_exits_two(self, workspace, tmp_path, monkeypatch, capsys):
        blob = bytearray((workspace / "model.attb").read_bytes())
        blob[0] ^= 0xFF
        bad = tmp_path / "model.attb"
        bad.write_bytes(bytes(blob))
        code, _, err = run(
            ["evaluate", "--model", str(bad), "--dataset", str(workspace / "dataset.attd")],
            capsys,
        )
        assert code == 2 and "error:" in err

    def test_schema_mismatch_exits_two(self, workspace, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        run(
            ["preprocess", "--values", VALUES, "--labels", LABELS,
             "--encode-order", "alphabetical"],
            capsys,
        )
        code, _, err = run(
            ["evaluate", "--model", str(workspace / "model.attb"), "--dataset", "dataset.attd"],
            capsys,
        )
        assert code == 2
        assert "different schemas" in err


class TestExplain:
    def test_table_layout(self, workspace, monkeypatch, capsys):
        in_dir(monkeypatch, workspace)
        code, out, _ = run(["explain", "--top-k", "3"], capsys)
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0].split() == ["rank", "feature", "importance"]
        assert len(lines) == 4
        shares = [float(l.split()[-1]) for l in lines[1:]]
        assert all(0.0 <= s <= 1.0 for s in shares)
        assert shares == sorted(shares, reverse=True)

    def test_instances_flag_adds_rows(self, workspace, monkeypatch, capsys):
        in_dir(monkeypatch, workspace)
        code, out, _ = run(["explain", "--top-k", "2", "--instances", "2"], capsys)
        assert code == 0
        assert out.count("instance ") == 2

    def test_top_k_larger_than_features(self, workspace, monkeypatch, capsys):
        in_dir(monkeypatch, workspace)
        code, out, _ = run(["explain", "--top-k", "50"], capsys)
        assert code == 0
        # 4 active features: id and ghost are dropped
        assert len(out.strip().split("\n")) == 1 + 4


class TestInspect:
    def test_prints_summary(self, workspace, monkeypatch, capsys):
        in_dir(monkeypatch, workspace)
        code, out, _ = run(["inspect"], capsys)
        assert code == 0
        for needle in ("rows: 30", "region", "ghost", "functional"):
            assert needle in out


class TestConfigFile:
    def test_config_supplies_paths_and_train_section(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        cfg = {
            "data": {"values_csv": VALUES, "labels_csv": LABELS},
            "train": {"max_epochs": 1, "batch_size": 8, "patience": 50},
            "model": {"n_d": 2, "n_a": 2, "n_steps": 1},
            "paths": {"history": "h.csv"},
        }
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        assert main(["preprocess", "--config", "run.json"]) == 0
        assert main(["train", "--config", "run.json"]) == 0
        capsys.readouterr()
        history = (tmp_path / "h.csv").read_text().strip().split("\n")
        assert len(history) == 2

    def test_flag_beats_config(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        run(["preprocess", "--values", VALUES, "--labels", LABELS], capsys)
        cfg = {"train": {"max_epochs": 5, "batch_size": 8, "patience": 50},
               "model": {"n_d": 2, "n_a": 2, "n_steps": 1}}
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        code, _, _ = run(["train", "--config", "run.json", "--max-epochs", "1"], capsys)
        assert code == 0
        history = (tmp_path / "history.csv").read_text().strip().split("\n")
        assert len(history) == 2

    def test_unknown_key_names_section_and_key(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        (tmp_path / "run.json").write_text(json.dumps({"train": {"max_epoch": 3}}))
        code, _, err = run(["train", "--config", "run.json"], capsys)
        assert code == 2
        assert "unknown config key train.max_epoch" in err

    def test_unknown_section_rejected(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        (tmp_path / "run.json").write_text(json.dumps({"optimizer": {}}))
        code, _, err = run(["inspect", "--config", "run.json"], capsys)
        assert code == 2 and "optimizer" in err

    def test_malformed_json_rejected(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        (tmp_path / "run.json").write_text("{not json")
        code, _, err = run(["inspect", "--config", "run.json"], capsys)
        assert code == 2 and "JSON" in err

    @pytest.mark.parametrize(
        "command, cfg, flags, name",
        [
            ("preprocess", {"data": {"drop_threshold": "0.5"}}, [], "drop_threshold"),
            ("preprocess", {"data": {"values_csv": 5, "labels_csv": LABELS}}, [],
             "data.values_csv"),
            ("train", {"model": {"gamma_relax": "1.3"}}, [], "gamma_relax"),
            ("train", {"train": {"seed": "1"}}, [], "seed"),
            ("train", {"train": {"focal_gamma": "2"}}, [], "focal_gamma"),
            ("train", {"train": {"max_epochs": True}}, [], "max_epochs"),
            ("train", {}, ["--seed", "-1"], "seed"),
            # a number here used to be opened as a file descriptor
            ("evaluate", {"paths": {"model": 5}}, [], "paths.model"),
        ],
        ids=["data.drop_threshold", "data.values_csv", "model.gamma_relax", "train.seed",
             "train.focal_gamma", "train.max_epochs", "seed-flag", "paths.model"],
    )
    def test_mistyped_value_exits_two_naming_the_key(
        self, tmp_path, monkeypatch, capsys, command, cfg, flags, name
    ):
        in_dir(monkeypatch, tmp_path)
        if command == "preprocess":
            flags = flags + ["--values", VALUES, "--labels", LABELS]
        (tmp_path / "run.json").write_text(json.dumps(cfg))
        code, _, err = run([command, "--config", "run.json"] + flags, capsys)
        assert code == 2
        assert name in err

    def test_readme_config_example_is_accepted(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Configuration", 1)[1]
        block = section.split("```json\n", 1)[1].split("```", 1)[0]
        (tmp_path / "run.json").write_text(block)
        cfg = load_config_file(str(tmp_path / "run.json"))
        assert set(cfg) == {"data", "model", "train", "paths"}

    @pytest.mark.parametrize(
        "section, key, flag, file_value, flag_value, default",
        [
            ("data", "drop_threshold", "--drop-threshold", 0.9, 0.7, 0.5),
            ("model", "n_steps", "--n-steps", 2, 3, 4),
            ("train", "max_epochs", "--max-epochs", 2, 1, 120),
            ("paths", "history", "--out-history", "file.csv", "flag.csv", "history.csv"),
        ],
    )
    def test_flag_beats_file_beats_default(
        self, tmp_path, monkeypatch, capsys, section, key, flag, file_value, flag_value, default
    ):
        def resolved(argv, cfg):
            work = tmp_path / str(len(list(tmp_path.iterdir())))
            work.mkdir()
            in_dir(monkeypatch, work)
            (work / "run.json").write_text(json.dumps(cfg))
            pre = ["preprocess", "--config", "run.json", "--values", VALUES, "--labels", LABELS]
            assert main(pre + (argv if section == "data" else [])) == 0
            if section == "data":
                return FeatureSchema.load("schema.json").drop_threshold
            train = ["train", "--config", "run.json", "--batch-size", "8", "--n-d", "2",
                     "--n-a", "2", "--patience", "1"]
            if key != "max_epochs":
                train += ["--max-epochs", "1"]
            assert main(train + argv) == 0
            if section == "paths":
                return next(p.name for p in work.iterdir() if p.suffix == ".csv")
            model = load_model("model.attb")
            if section == "model":
                return model.config.n_steps
            return model.train_info["train_config"]["max_epochs"]

        in_file = {section: {key: file_value}}
        assert resolved([flag, str(flag_value)], in_file) == flag_value
        assert resolved([], in_file) == file_value
        assert resolved([], {}) == default
        capsys.readouterr()


class TestThreadEnv:
    def test_valid_value_propagates(self, workspace, monkeypatch, capsys):
        in_dir(monkeypatch, workspace)
        monkeypatch.setenv("ATTENTAB_THREADS", "2")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
            monkeypatch.delenv(var, raising=False)
        assert main(["inspect"]) == 0
        capsys.readouterr()
        assert os.environ["OMP_NUM_THREADS"] == "2"
        assert os.environ["OPENBLAS_NUM_THREADS"] == "2"

    def test_invalid_value_exits_two(self, workspace, monkeypatch, capsys):
        in_dir(monkeypatch, workspace)
        monkeypatch.setenv("ATTENTAB_THREADS", "zero")
        code, _, err = run(["inspect"], capsys)
        assert code == 2
        assert "ATTENTAB_THREADS" in err


class TestOutputFiles:
    def test_outputs_follow_the_umask(self, tmp_path, monkeypatch, capsys):
        in_dir(monkeypatch, tmp_path)
        old = os.umask(0o022)
        try:
            assert run(["preprocess", "--values", VALUES, "--labels", LABELS], capsys)[0] == 0
            assert run(["train"] + FAST_TRAIN, capsys)[0] == 0
        finally:
            os.umask(old)
        for name in ("schema.json", "dataset.attd", "model.attb", "history.csv", "metrics.json"):
            assert (tmp_path / name).stat().st_mode & 0o777 == 0o644, name

    def test_rerun_is_bit_identical_across_thread_counts(self, tmp_path):
        import attentab
        from attentab.synthetic import make_classification, write_csv_pair

        X, y, _ = make_classification(n_rows=4000, n_noise=15, seed=11)  # 4,000 x 20
        write_csv_pair(str(tmp_path / "v.csv"), str(tmp_path / "l.csv"), X, y)
        src = str(Path(attentab.__file__).resolve().parents[1])
        models = []
        t0 = time.perf_counter()
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            out.mkdir()
            env = dict(os.environ, ATTENTAB_THREADS=threads)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
            for argv in (
                ["preprocess", "--values", "../v.csv", "--labels", "../l.csv"],
                ["train", "--max-epochs", "1", "--n-d", "64", "--n-a", "64",
                 "--virtual-batch", "128"],
            ):
                proc = subprocess.run(
                    [sys.executable, "-m", "attentab.cli"] + argv,
                    cwd=out, env=env, capture_output=True, text=True, timeout=60,
                )
                assert proc.returncode == 0, proc.stderr
            models.append((out / "model.attb").read_bytes())
        assert models[0] == models[1]
        assert time.perf_counter() - t0 < 15.0


class TestEntryPoint:
    def test_console_script_help(self):
        proc = subprocess.run(
            [sys.executable, "-m", "attentab.cli", "--help"],
            capture_output=True, text=True,
        )
        # argparse --help exits 0 and lists the subcommands
        assert proc.returncode == 0
        for sub in ("preprocess", "train", "evaluate", "explain", "inspect"):
            assert sub in proc.stdout
