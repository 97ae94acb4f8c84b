"""Scaling report: how each stage's time and peak bytes grow with size.

Usage (from the repository root):
    python3 perfbench/scaling.py [--out FILE]

Sweeps `verify` of the bundled problems over three sizes each:
example3 over --dt 1e-3, 5e-4, 2.5e-4 (size = time steps), example2 over
--grid-scale 1, 2, 4 (size = grid nodes) and example5 over --modes 8, 16,
32 (size = retained modes).  Each point runs one pass traced for time and
one traced with tracemalloc for peak bytes; a stage's time includes the
spans it calls.  Each stage (span) gets a growth exponent: the
least-squares slope of log(value) over log(size), so a stage that is
O(n^2) in the swept size reads as about 2.  This is a report for reading,
not one of the benchmark workloads.
"""

import argparse
import json
import math
from pathlib import Path

import run  # pins the BLAS threads before numpy is imported
import tracer

SWEEPS = [
    ("example3 --dt", "example3", [["--dt", "0.001"], ["--dt", "0.0005"],
                                   ["--dt", "0.00025"]], [2000, 4000, 8000]),
    ("example2 --grid-scale", "example2",
     [["--grid-scale", "1"], ["--grid-scale", "2"], ["--grid-scale", "4"]],
     [201, 401, 801]),
    ("example5 --modes", "example5",
     [["--modes", "8", "8"], ["--modes", "16", "16"], ["--modes", "32", "32"]],
     [64, 256, 1024]),
]
STAGES = ("problems.load_problem", "problems.instantiate",
          "chains.complete_structure", "chains.certify_operators",
          "reduction.reduce", "solvers.solve_family", "problems.f_sample",
          "reduction.residual_check", "problems.evaluate_oracle")


def slope(sizes, values):
    """Least-squares slope of log(value) on log(size); None if any is 0."""
    if min(values) <= 0:
        return None
    xs = [math.log(s) for s in sizes]
    ys = [math.log(v) for v in values]
    mx, my = sum(xs) / len(xs), sum(ys) / len(ys)
    return (sum((x - mx) * (y - my) for x, y in zip(xs, ys))
            / sum((x - mx) ** 2 for x in xs))


def _fmt(exponent):
    return "  -  " if exponent is None else f"{exponent:5.2f}"


def measure(cli, argv):
    """(seconds per stage, peak bytes per stage) of one verify operation."""
    runner = run.Runner([(argv, None)])
    timing, memory = tracer.Tracer(), tracer.Tracer(memory=True)
    results = []
    for tr in (timing, memory):
        tr.install()
        try:
            runner.one_pass(cli)
            spans, _ = tr.take()
        finally:
            tr.uninstall()
        results.append(spans)
    if runner.failed:
        raise SystemExit("scaling: " + "; ".join(runner.failures))
    seconds = {s: tracer.total_seconds(results[0], s) for s in STAGES}
    peaks = {s: max((sp.peak_bytes for sp in results[1] if sp.name == s),
                    default=0) for s in STAGES}
    return seconds, peaks


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    cli = run.import_cli()
    env = run.environment(0)
    run.require_pinned(env)
    report = {"environment": env, "sweeps": []}
    for label, problem, flag_sets, sizes in SWEEPS:
        path = run.ROOT / "problems" / f"{problem}.json"
        points = [measure(cli, ["verify", str(path)] + flags)
                  for flags in flag_sets]
        print(f"\n{label} {' '.join(map(str, sizes))}")
        print(f"  {'stage':28s} {'seconds':>26s} {'exp':>5s} "
              f"{'peak MB':>26s} {'exp':>5s}")
        stages = {}
        for stage in STAGES:
            secs = [p[0][stage] for p in points]
            peaks = [p[1][stage] / tracer.MB for p in points]
            t_exp, m_exp = slope(sizes, secs), slope(sizes, peaks)
            stages[stage] = {"seconds": secs, "time_exponent": t_exp,
                             "peak_mb": peaks, "memory_exponent": m_exp}
            print(f"  {stage:28s} {' '.join(f'{v:8.3f}' for v in secs)} "
                  f"{_fmt(t_exp)} {' '.join(f'{v:8.1f}' for v in peaks)} "
                  f"{_fmt(m_exp)}", flush=True)
        report["sweeps"].append({"sweep": label, "sizes": sizes,
                                 "stages": stages})
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
