"""Solve every bundled problem file end to end and summarize the results.

For each problem: print the detected null-chain structure, reduce, solve,
check the oracle when one is declared, and drop the solution CSV next to
the chosen output directory.

Usage:
    python3 scripts/run_examples.py [--output-dir results] [--grid-scale S]
"""

import argparse
import pathlib
import sys
import time

from degenpde import (evaluate_oracle, instantiate, load_problem, reduce,
                      solve_family, write_solution_csv)

ROOT = pathlib.Path(__file__).resolve().parent.parent


def run_one(path, out_dir, grid_scale):
    pf = load_problem(path)
    spec = instantiate(pf, grid_scale=grid_scale)
    t0 = time.perf_counter()
    rp = reduce(spec)
    js = rp.js
    fld = solve_family(rp)
    wall = time.perf_counter() - t0
    out = out_dir / (path.stem + ".csv")
    write_solution_csv(fld, out)
    record = {
        "problem": path.name,
        "family": pf.family,
        "kernel_dim": js.n,
        "chains": ",".join(str(v) for v in js.p) or "-",
        "certified": "yes" if js.comm.certified else "NO",
        "csv": out.name,
        "time_s": f"{wall:.2f}",
    }
    if pf.oracle is not None:
        outcome = evaluate_oracle(pf, rp, fld)
        record["oracle"] = (f"{'pass' if outcome.passed else 'FAIL'} "
                            f"({outcome.deviation:.2e} vs {outcome.tol:.0e})")
    else:
        record["oracle"] = "none declared"
    return record


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--problems-dir", type=pathlib.Path,
                    default=ROOT / "problems")
    ap.add_argument("--output-dir", type=pathlib.Path,
                    default=ROOT / "results")
    ap.add_argument("--grid-scale", type=float, default=None,
                    help="shrink or grow every grid by this factor")
    args = ap.parse_args(argv)

    args.output_dir.mkdir(parents=True, exist_ok=True)
    paths = sorted(args.problems_dir.glob("*.json"))
    if not paths:
        print(f"no problem files under {args.problems_dir}", file=sys.stderr)
        return 1

    failures = 0
    for path in paths:
        record = run_one(path, args.output_dir, args.grid_scale)
        print("  ".join(f"{k}={v}" for k, v in record.items()))
        if "FAIL" in record["oracle"] or record["certified"] == "NO":
            failures += 1
    print(f"{len(paths)} problems, {failures} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
