"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/collect.py --workloads synth-c5 pump-train --seeds 1 10 \
        --out perfbench/baseline.json

Reads the command, run length and bounds from BENCHMARK.json. For every
workload and end-to-end metric it reports the median, the quartiles and the
spread (interquartile distance over the median), and flags a spread above a
third of the metric's bound. Per-layer runs (``--trace 1``) are summarized
the same way, without bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench: dict, workload: str, seed: int, trace: int) -> dict:
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
    return {"seed": seed, "wall_s": wall, "env": env, **json.loads(lines[-1])}


def summarize(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / abs(med) if med else float("inf")
    out = {"median": med, "q1": q1, "q3": q3, "spread": spread, "n": len(values)}
    if bound is not None:
        out["bound"] = bound
        out["steady"] = spread < bound / 3
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workloads", nargs="+")
    parser.add_argument("--seeds", nargs=2, type=int, default=(1, 10), metavar=("FIRST", "LAST"))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    report = {"run_seconds": bench["run_seconds"], "trace": args.trace, "workloads": {}}
    for workload in workloads:
        runs = []
        for seed in range(args.seeds[0], args.seeds[1] + 1):
            r = run_once(bench, workload, seed, args.trace)
            runs.append(r)
            print(f"{workload} seed {seed}: correct={r['correct']} wall {r['wall_s']:.1f}s", file=sys.stderr)
        names = runs[0]["metrics"]
        summary = {
            name: summarize(
                [r["metrics"][name]["value"] for r in runs],
                bounds.get(name) if not args.trace else None,
            )
            for name in names
        }
        report["env"] = runs[0]["env"]
        report["workloads"][workload] = {
            "all_correct": all(r["correct"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "wall_s": summarize([r["wall_s"] for r in runs], None),
            "metrics": summary,
            "runs": [{k: r[k] for k in ("seed", "wall_s", "metrics")} for r in runs],
        }
        for name, s in summary.items():
            flag = "" if s.get("steady", True) else "  SPREAD ABOVE BOUND/3"
            print(f"{workload:<11} {name:<32} median {s['median']:.6g}  spread {s['spread']:.4f}{flag}")
        if args.out:
            args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
