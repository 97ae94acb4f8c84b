"""Repeat the benchmark over seeds and report each metric's spread.

Usage (from the repository root):
    python3 perfbench/repeat.py --seeds 1 2 3 4 5 6 7 8 9 10 \
        [--workloads spectral pencil] [--trace-seeds 0] [--out FILE]

Runs `perfbench/run.py` once per workload and seed, one run at a time,
with the command and run length from BENCHMARK.json.  For each end-to-end
metric it prints the median, the quartiles (statistics.quantiles, n=4)
and the spread (q3 - q1) / median next to the metric's bound.  Runs with
--trace 1 at --trace-seeds give the per-layer numbers.  --out writes all
of it, with the workload definitions and the layer-to-metric map, as
JSON (the committed baseline is perfbench/baseline.json).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from tracer import LAYER_MAP
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]),
                              "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                         timeout=900)
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {res.returncode}:\n{res.stderr[-2000:]}")
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{' '.join(cmd)} reported a failure:\n{res.stdout[-3000:]}")
    return result


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": statistics.median(values),
            "q1": q1, "q3": q3, "spread": (q3 - q1) / statistics.median(values)}


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+", choices=sorted(WORKLOADS),
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", nargs="+", type=int, default=[])
    parser.add_argument("--trace-seeds", nargs="*", type=int, default=[])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    if args.seeds and len(args.seeds) < 2:
        parser.error("quartiles need at least two seeds")

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "seeds": args.seeds,
              "trace_seeds": args.trace_seeds, "workloads": {},
              "layer_map": LAYER_MAP}
    whys = {w["name"]: w["why"] for w in bench["workloads"]}
    for workload in args.workloads:
        entry = {"why": whys[workload],
                 "ops": [" ".join([cmd, name] + flags)
                         for cmd, name, flags in WORKLOADS[workload]],
                 "end_to_end": {}, "per_layer": {}}
        runs = [run_once(bench, workload, s, 0)["metrics"] for s in args.seeds]
        for name in bounds if runs else ():
            stats = summary([r[name]["value"] for r in runs])
            stats["unit"], stats["bound"] = runs[0][name]["unit"], bounds[name]
            entry["end_to_end"][name] = stats
            flag = "ok" if stats["spread"] < bounds[name] / 3 else "WIDE"
            print(f"{workload:10s} {name:12s} median {stats['median']:10.4f} "
                  f"q1 {stats['q1']:10.4f} q3 {stats['q3']:10.4f} "
                  f"spread {stats['spread']:6.3f} bound {bounds[name]:.2f} {flag}",
                  flush=True)
        for seed in args.trace_seeds:
            metrics = run_once(bench, workload, seed, 1)["metrics"]
            entry["per_layer"][str(seed)] = {k: v["value"] for k, v in metrics.items()}
            print(f"{workload:10s} traced seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in sorted(metrics.items())),
                flush=True)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
