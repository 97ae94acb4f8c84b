"""Workload definitions and the seeded problem files they read.

A workload is a fixed list of CLI operations over the bundled example
problems.  The problem files themselves are generated from the workload
seed: seed 0 writes the bundled files byte for byte; any other seed draws
only coefficients (right-hand sides, the spectral parameter, the goursat
constants and the matching exact oracle), so every size and the work per
operation stay the same.
"""

import json
import random
from pathlib import Path

# Each operation is (subcommand, problem, extra CLI flags).  A `solve`
# operation also gets `--output <csv>` from the runner.  Why each workload
# was chosen is recorded with it in BENCHMARK.json.
WORKLOADS = {
    # right-hand-side sampling through the mode transform, twice per verify
    "spectral": [("verify", "example5", [])],
    # 8001 steps: dense fd matrices in the residual check, RK4, oracle
    "evolution": [("verify", "example2", ["--dt", "0.00025"]),
                  ("verify", "example3", ["--dt", "0.00025"])],
    # structure only: one large dense pencil, one diagonal with 24 chains
    "pencil": [("structure", "example2", ["--grid-scale", "4"]),
               ("structure", "example3", ["--grid-scale", "4"]),
               ("structure", "example5", ["--modes", "24", "24"])],
    # goursat and mixed_xy back-ends and the CSV writer
    "corner": [("solve", "example1", ["--grid-scale", "2"]),
               ("verify", "example1", ["--grid-scale", "2"]),
               ("solve", "example4", ["--grid-scale", "2"]),
               ("verify", "example4", ["--grid-scale", "2"])],
}

# Largest mode table any workload asks for; a drawn spectral parameter
# must be non-resonant for all of them.
MAX_MODES = (24, 24)


def problems_of(workload):
    """Distinct problem names a workload reads, in first-use order."""
    return list(dict.fromkeys(name for _, name, _ in WORKLOADS[workload]))


def instantiate_args(workload):
    """(problem, overrides) pairs a CLI invocation of the workload builds
    before it solves anything; the overrides mirror the CLI flags."""
    out = []
    for _, name, flags in WORKLOADS[workload]:
        over = {}
        if "--dt" in flags:
            over["dt"] = float(flags[flags.index("--dt") + 1])
        if "--grid-scale" in flags:
            over["grid_scale"] = float(flags[flags.index("--grid-scale") + 1])
        if "--modes" in flags:
            i = flags.index("--modes")
            over["modes"] = [int(flags[i + 1]), int(flags[i + 2])]
        if (name, over) not in out:
            out.append((name, over))
    return out


def _coef(rng, lo, hi):
    return round(rng.uniform(lo, hi), 3)


def _draw(name, raw, rng):
    """Replace the coefficients of one parsed bundled problem in place."""
    if name == "example1":
        # goursat: constant right side (a, b); the closed-form oracle
        # follows the constants
        raw["f"] = [repr(_coef(rng, 0.5, 2.0)), repr(_coef(rng, 0.5, 2.0))]
    elif name in ("example2", "example3"):
        raw["f"] = f"{_coef(rng, 0.5, 2.0)!r}*x"
    elif name == "example4":
        a, b = _coef(rng, 0.5, 2.0), _coef(rng, 0.5, 2.0)
        raw["f"] = [repr(a), repr(b)]
        raw["oracle"]["components"] = [f"{a!r}*x^2/2", f"{b!r}*y"]
    elif name == "example5":
        a, b, c = (_coef(rng, 0.5, 2.0) for _ in range(3))
        raw["f"] = (f"({a!r}*sin(x)*sin(2*y) + {b!r}*sin(2*x)*sin(y))"
                    f"*exp(-{c!r}*t)")
        # between the resonances at 4 and 9, at least 0.5 from both
        from degenpde.solvers import check_spectral_parameter

        lam = _coef(rng, 4.5, 8.5)
        check_spectral_parameter(lam, *MAX_MODES)
        raw["lambda"] = lam
    else:
        raise ValueError(f"no coefficient draw for problem {name}")


def write_problems(root, workload, seed, out_dir):
    """Write the workload's problem files for `seed` into out_dir and
    return {problem name: path}."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {}
    for name in problems_of(workload):
        bundled = (Path(root) / "problems" / f"{name}.json").read_bytes()
        if seed == 0:
            blob = bundled
        else:
            raw = json.loads(bundled)
            _draw(name, raw, random.Random(f"{seed}:{name}"))
            blob = (json.dumps(raw, indent=2) + "\n").encode("utf-8")
        path = out_dir / f"{name}.json"
        path.write_bytes(blob)
        paths[name] = path
    return paths
