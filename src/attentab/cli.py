"""Command-line surface: preprocess, train, evaluate, explain, inspect.

One JSON config file can drive a whole run. A flag's argparse dest is its
config key, and each setting resolves the same way: the flag, else the file's
value, else the default declared by the dataclass or function it is passed to
(flags > file > defaults). Exit codes: 0 success, 2 usage/config/data errors,
3 numeric failure during training.

This module must not import numpy at module scope: ATTENTAB_THREADS has to
land in the BLAS thread-count environment variables before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, fields

from .errors import AttentabError, ConfigError, NumericsError

_THREAD_ENV_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

# data keys that cmd_preprocess reads itself; the rest of the section are
# fit_schema's options
_PREPROCESS_KEYS = ("values_csv", "labels_csv", "target", "id_column")


@dataclass
class Paths:
    """Files a command reads and writes: the ``paths`` config section."""

    schema: str = "schema.json"
    dataset: str = "dataset.attd"
    model: str = "model.attb"
    history: str = "history.csv"
    metrics: str = "metrics.json"


def _apply_thread_env() -> None:
    raw = os.environ.get("ATTENTAB_THREADS")
    if raw is None:
        return
    try:
        n = int(raw)
        if n < 1:
            raise ValueError
    except ValueError:
        raise ConfigError(f"ATTENTAB_THREADS must be a positive integer, got {raw!r}") from None
    for var in _THREAD_ENV_VARS:
        os.environ[var] = str(n)


def _section_keys() -> dict[str, tuple[str, ...]]:
    """Allowed keys per config section, read off what each section is
    passed to: the config dataclasses' fields and fit_schema's options."""
    import inspect

    from .data import fit_schema
    from .tabnet import TabNetConfig
    from .train import TrainConfig

    options = tuple(
        name
        for name, p in inspect.signature(fit_schema).parameters.items()
        if p.default is not p.empty and name != "id_columns"
    )
    return {
        "data": _PREPROCESS_KEYS + options,
        "model": tuple(f.name for f in fields(TabNetConfig)),
        "train": tuple(f.name for f in fields(TrainConfig)),
        "paths": tuple(f.name for f in fields(Paths)),
    }


def load_config_file(path: str | None) -> dict:
    """Read and structurally validate the run config; unknown keys are
    rejected by name so typos cannot silently fall back to defaults."""
    if path is None:
        return {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"config {path} must be a JSON object")

    allowed = _section_keys()
    for section, body in raw.items():
        if section not in allowed:
            raise ConfigError(f"unknown config key {section!r}")
        if not isinstance(body, dict):
            raise ConfigError(f"config section {section!r} must be an object")
        for key, value in body.items():
            if key not in allowed[section]:
                raise ConfigError(f"unknown config key {section}.{key}")
            # file names and column names; a number here would reach open()
            # as a file descriptor
            named = section == "paths" or key in _PREPROCESS_KEYS
            if named and value is not None and not isinstance(value, str):
                raise ConfigError(f"config key {section}.{key} must be a string, got {value!r}")
    return raw


def _settings(args, cfg: dict, section: str) -> dict:
    """The section's explicitly set values: each key's flag when given, else
    its config-file value (a flag's dest is its config key). Unset keys, and
    keys set to null, are left out, so each default is the one declared by
    the dataclass or function the values are passed to."""
    file_values = cfg.get(section, {})
    out = {}
    for key in _section_keys()[section]:
        value = getattr(args, key, None)
        if value is None:
            value = file_values.get(key)
        if value is not None:
            out[key] = value
    return out


# ---------------------------------------------------------------- commands


def cmd_preprocess(args, cfg: dict) -> int:
    from . import data as data_mod

    options = _settings(args, cfg, "data")
    values_path = options.pop("values_csv", None)
    labels_path = options.pop("labels_csv", None)
    if not values_path or not labels_path:
        raise ConfigError("preprocess needs --values and --labels (or data.values_csv/labels_csv)")
    target = options.pop("target", None)
    # the one default kept here: target inference needs it too
    id_column = options.pop("id_column", "id")

    values = data_mod.load_csv(values_path)
    labels = data_mod.load_csv(labels_path)
    if target is None:
        candidates = [c for c in labels.columns if c != id_column]
        if len(candidates) != 1:
            raise ConfigError(
                f"cannot infer target from labels columns {labels.columns}; pass --target"
            )
        target = candidates[0]

    table = data_mod.join_on_id(values, labels, key=id_column)
    schema = data_mod.fit_schema(table, target, id_columns=(id_column,), **options)
    dataset = data_mod.encode(table, schema)

    paths = Paths(**_settings(args, cfg, "paths"))
    schema.save(paths.schema)
    data_mod.save_dataset(paths.dataset, dataset)
    print(data_mod.inspect(dataset))
    print(f"\nschema -> {paths.schema}\ndataset -> {paths.dataset}")
    return 0


def _log_record(record) -> None:
    print(
        f"epoch {record.epoch:>4}  train_loss {record.train_loss:.6f}  "
        f"val_loss {record.val_loss:.6f}  val_acc {record.val_acc:.4f}  "
        f"val_f1 {record.val_f1:.4f}  lr {record.lr:.6g}"
    )


def cmd_train(args, cfg: dict) -> int:
    from . import data as data_mod
    from . import tabnet as tabnet_mod
    from . import train as train_mod
    from .container import atomic_write_text

    model_cfg = tabnet_mod.TabNetConfig(**_settings(args, cfg, "model"))
    model_cfg.validate()
    train_cfg = train_mod.TrainConfig(**_settings(args, cfg, "train"))
    train_cfg.validate()
    paths = Paths(**_settings(args, cfg, "paths"))
    dataset = data_mod.load_dataset(paths.dataset)

    split = data_mod.stratified_split(dataset, train_cfg.val_fraction, train_cfg.seed)
    model = tabnet_mod.TabNetClassifier(model_cfg, dataset.schema)
    report = train_mod.fit(model, dataset, split, train_cfg, log_fn=_log_record)

    tabnet_mod.save_model(paths.model, model)
    report.save_history(paths.history)
    metrics = report.metrics_dict()
    atomic_write_text(paths.metrics, json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(json.dumps(metrics, sort_keys=True))
    print(f"model -> {paths.model}\nhistory -> {paths.history}\nmetrics -> {paths.metrics}")
    return 0


def _load_pair(args, cfg: dict):
    from . import data as data_mod
    from . import tabnet as tabnet_mod

    paths = Paths(**_settings(args, cfg, "paths"))
    model = tabnet_mod.load_model(paths.model)
    dataset = data_mod.load_dataset(paths.dataset)
    if model.schema.hash() != dataset.schema.hash():
        raise ConfigError(
            "model and dataset were built from different schemas "
            f"({model.schema.hash()[:12]} vs {dataset.schema.hash()[:12]})"
        )
    return model, dataset


def _split_indices(model, dataset, split_name: str):
    import numpy as np

    from . import data as data_mod

    if split_name == "all":
        return np.arange(dataset.n_rows)
    train_cfg = (model.train_info or {}).get("train_config")
    if not train_cfg:
        raise ConfigError("model carries no training info; only --split all is available")
    split = data_mod.stratified_split(dataset, train_cfg["val_fraction"], train_cfg["seed"])
    return split.train_indices if split_name == "train" else split.val_indices


def cmd_evaluate(args, cfg: dict) -> int:
    from . import train as train_mod

    model, dataset = _load_pair(args, cfg)
    indices = _split_indices(model, dataset, args.split)
    info = model.train_info or {}
    loss_spec = info.get("loss") or {"kind": "cce"}
    f1_average = info.get("train_config", {}).get("f1_average", "macro")
    loss, acc, f1 = train_mod.evaluate(model, dataset, indices, loss_spec, f1_average)
    print(
        json.dumps(
            {
                "split": args.split,
                "n_rows": int(indices.size),
                "loss": loss,
                "accuracy": acc,
                "f1": f1,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_explain(args, cfg: dict) -> int:
    model, dataset = _load_pair(args, cfg)
    report = model.explain(dataset.features)
    top = report.top(args.top_k)
    width = max([len("feature")] + [len(name) for name, _ in top])
    print(f"{'rank':<6}{'feature':<{width + 2}}importance")
    for rank, (name, share) in enumerate(top, start=1):
        print(f"{rank:<6}{name:<{width + 2}}{share:.6f}")
    if args.instances:
        print()
        for b in range(min(args.instances, report.instance_importance.shape[0])):
            row = report.instance_importance[b]
            order = sorted(
                range(len(report.feature_names)),
                key=lambda j: (-row[j], report.feature_names[j]),
            )[:3]
            parts = ", ".join(f"{report.feature_names[j]} {row[j]:.4f}" for j in order)
            print(f"instance {b}: {parts}")
    return 0


def cmd_inspect(args, cfg: dict) -> int:
    from . import data as data_mod

    dataset = data_mod.load_dataset(Paths(**_settings(args, cfg, "paths")).dataset)
    print(data_mod.inspect(dataset))
    return 0


# ------------------------------------------------------------------ parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="attentab",
        description="Attentive tabular learning: sparsemax-masked decision steps over embedded features.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pre = sub.add_parser("preprocess", help="fit a schema and encode CSVs into a dataset container")
    pre.add_argument("--config")
    pre.add_argument("--values", dest="values_csv", metavar="VALUES", help="values CSV path")
    pre.add_argument("--labels", dest="labels_csv", metavar="LABELS", help="labels CSV path")
    pre.add_argument("--target", help="label column name (inferred from labels CSV when unambiguous)")
    pre.add_argument("--id-column", dest="id_column")
    pre.add_argument("--drop-threshold", dest="drop_threshold", type=float)
    pre.add_argument("--encode-order", dest="encode_order", choices=["first-appearance", "alphabetical"])
    pre.add_argument("--impute-strategy", dest="impute_strategy", choices=["mode", "median"])
    pre.add_argument(
        "--distinct-threshold", dest="continuous_distinct_threshold", metavar="DISTINCT_THRESHOLD",
        type=int,
    )
    pre.add_argument("--out-schema", dest="schema", metavar="OUT_SCHEMA")
    pre.add_argument("--out-dataset", dest="dataset", metavar="OUT_DATASET")

    tr = sub.add_parser("train", help="train a model on an encoded dataset")
    tr.add_argument("--config")
    tr.add_argument("--dataset")
    tr.add_argument("--out-model", dest="model", metavar="OUT_MODEL")
    tr.add_argument("--out-history", dest="history", metavar="OUT_HISTORY")
    tr.add_argument("--out-metrics", dest="metrics", metavar="OUT_METRICS")
    tr.add_argument("--loss", dest="loss_kind", choices=["cce", "balanced", "focal"])
    tr.add_argument(
        "--gamma", dest="focal_gamma", metavar="GAMMA", type=float, help="focal focusing exponent"
    )
    tr.add_argument(
        "--alpha", dest="alpha_mode", choices=["auto", "uniform"], help="class-weight mode"
    )
    tr.add_argument("--max-epochs", dest="max_epochs", type=int)
    tr.add_argument("--batch-size", dest="batch_size", type=int)
    tr.add_argument("--lr", dest="learning_rate", metavar="LR", type=float)
    tr.add_argument("--patience", type=int)
    tr.add_argument("--min-delta", dest="min_delta", type=float)
    tr.add_argument("--seed", type=int, help="sets both the model and training seeds")
    tr.add_argument("--n-steps", dest="n_steps", type=int)
    tr.add_argument("--n-d", dest="n_d", type=int)
    tr.add_argument("--n-a", dest="n_a", type=int)
    tr.add_argument("--gamma-relax", dest="gamma_relax", type=float)
    tr.add_argument("--lambda-sparse", dest="lambda_sparse", type=float)
    tr.add_argument("--embed-dim", dest="embed_dims", metavar="EMBED_DIM", type=int)
    tr.add_argument("--virtual-batch", dest="virtual_batch", type=int)
    tr.add_argument("--val-fraction", dest="val_fraction", type=float)
    tr.add_argument("--f1-average", dest="f1_average", choices=["macro", "weighted"])

    ev = sub.add_parser("evaluate", help="print loss/accuracy/F1 of a model on a dataset split")
    ev.add_argument("--config")
    ev.add_argument("--model")
    ev.add_argument("--dataset")
    ev.add_argument("--split", choices=["train", "val", "all"], default="val")

    ex = sub.add_parser("explain", help="print ranked global feature importances")
    ex.add_argument("--config")
    ex.add_argument("--model")
    ex.add_argument("--dataset")
    ex.add_argument("--top-k", dest="top_k", type=int, default=5)
    ex.add_argument("--instances", type=int, default=0, help="also print top features for the first N rows")

    ins = sub.add_parser("inspect", help="print the summary of an encoded dataset")
    ins.add_argument("--config")
    ins.add_argument("--dataset")

    return parser


_HANDLERS = {
    "preprocess": cmd_preprocess,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "explain": cmd_explain,
    "inspect": cmd_inspect,
}


def main(argv: list[str] | None = None) -> int:
    try:
        _apply_thread_env()
        args = build_parser().parse_args(argv)
        cfg = load_config_file(args.config)
        return _HANDLERS[args.command](args, cfg)
    except NumericsError as exc:
        where = f" (epoch {exc.epoch})" if exc.epoch is not None else ""
        print(f"error: {exc}{where}", file=sys.stderr)
        return 3
    except (AttentabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
