"""attentab benchmark: one workload per invocation, from the repository root.

    python3 perfbench/run.py --workload synth-c5 --seed 1 --seconds 34 --trace 0

Workloads (the BENCHMARK.json ``why`` fields say why each exists):

    synth-c5    criterion 5's task: 4,000 x 20 continuous rows, default
                config, cce at batch 256, 10 epochs; evaluate, predict and
                explain on the validation rows
    pump-train  pump-shaped 59,400-row table (10 continuous, 26
                categorical), README config, focal loss at batch 1024,
                1 epoch; evaluate over all rows, predict and explain on the
                validation rows
    pump-serve  the same table: preprocess, a model fixture fitted on
                8,192 rows, then save/load, evaluate, predict and explain
                over all 59,400 rows

Every workload runs the same path: CSV pair -> preprocess -> fit -> save
and load the model -> evaluate, predict, explain. These operations repeat,
interleaved, for ``--seconds`` and report medians. Set-up time is the median
of seven fresh processes, each timing import, container loads and model and
optimizer construction.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` re-runs the fit
loop through public calls with a span around each and prints the per-layer
metrics, including the tracing overhead against the untraced ``fit`` of the
same run. Both check the program's outputs; a failed check makes
``correct`` false. The last stdout line is the JSON result. All child
processes run with one BLAS thread. The program is imported from ``src/``
of the checkout this file sits in; without it the benchmark exits with
status 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_ROOT = ROOT / ".perfbench_work"
TRACE_DIR = ROOT / ".perfbench_traces"
SETUP_PROBES = 7
TIME_LIMIT_S = 170  # a whole run, all children included

PROBE_LAYERS = ("container.load_dataset_s", "data.stratified_split_ms", "container.load_model_s")
THREAD_VARS = ("ATTENTAB_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class ChildFailed(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    return env


def run_child(job: str, args, work: Path, out: Path | None = None) -> dict | None:
    timeout = args.deadline - time.monotonic()
    cmd = [
        sys.executable, str(HERE / "worker.py"), job,
        "--workload", args.workload, "--seed", str(args.seed), "--work", str(work),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if out is not None:
        cmd += ["--out", str(out)]
    try:
        if timeout <= 0:
            raise subprocess.TimeoutExpired(cmd, 0)
        proc = subprocess.run(cmd, env=child_env(), stdout=sys.stderr, timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise ChildFailed(f"run exceeded {TIME_LIMIT_S}s in worker {job}") from None
    if proc.returncode != 0:
        raise ChildFailed(f"worker {job} exited with status {proc.returncode}")
    return None if out is None else json.loads(out.read_text())


def environment() -> dict:
    env = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "threads": {var: "1" for var in THREAD_VARS},
    }
    try:
        import numpy

        env["numpy"] = numpy.__version__
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (ImportError, KeyError, TypeError) as exc:
        env["blas"] = f"unknown ({exc})"
    return env


def measure(args, work: Path) -> dict:
    run_child("gen", args, work)
    result = run_child("run", args, work, work / "run.json")
    probes = [
        run_child("setup", args, work, work / f"setup{k}.json") for k in range(SETUP_PROBES)
    ]

    def probe_median(key: str) -> float:
        return statistics.median(p[key] for p in probes)

    if args.trace:
        metrics = result["per_layer"]
        metrics.update({key: probe_median(key) for key in PROBE_LAYERS})
        TRACE_DIR.mkdir(exist_ok=True)
        spans_path = TRACE_DIR / f"{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps(result["spans"]))
        print(f"spans -> {spans_path.relative_to(ROOT)}")
    else:
        metrics = {"setup_s": probe_median("setup_s"), **result["metrics"]}
    checks_attempted = len(probes) + result["attempted"]
    failed = len(result["failed_checks"])
    return {
        "correct": failed == 0,
        "attempted": checks_attempted,
        "failed": failed,
        "failed_checks": result["failed_checks"],
        "quality": result["quality"],
        "metrics": metrics,
    }


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in bench["end_to_end"] + bench["per_layer"]}
    parser = argparse.ArgumentParser(description="attentab benchmark")
    parser.add_argument("--workload", choices=[w["name"] for w in bench["workloads"]], required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    args.deadline = time.monotonic() + TIME_LIMIT_S

    if not (ROOT / "src" / "attentab" / "__init__.py").is_file():
        print(f"benchmark: no attentab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK_ROOT.mkdir(exist_ok=True)
    work = WORK_ROOT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir()
    try:
        res = measure(args, work)
    except ChildFailed as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name, value in res["metrics"].items():
        print(f"  {name:<32} {value:>16.6g} {units[name]}")
    print(f"  {'val_loss':<32} {res['quality']['val_loss']:>16.6g} loss")
    print(f"  {'val_acc':<32} {res['quality']['val_acc']:>16.6g} fraction")
    print(f"  {'error_rate':<32} {res['failed'] / res['attempted']:>16.6g} "
          f"({res['failed']} of {res['attempted']} operations and checks)")
    for name in res["failed_checks"]:
        print(f"  FAILED CHECK {name}")
    print(json.dumps({
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
