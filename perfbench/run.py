"""degenpde benchmark: one workload, one seed, one process.

Usage (from the repository root):
    python3 perfbench/run.py --workload spectral --seed 0 --seconds 15 --trace 0

It drives the public CLI entry `degenpde.cli.main(argv)` in-process as a
closed loop: one operation after another from this single process, with
stdout captured.  The first pass over the workload's operation list is
the reference and warm-up; later passes run until `--seconds` have been
measured.  An operation fails if it raises, exits nonzero (verify: oracle
verdict failed; structure: an operator not certified) or gives output
that differs from the reference pass (report text without its wall_time_s
line, and the CSV bytes).  Failed operations are not retried.

--trace 0 reports the end-to-end metrics (pass_s, peak_rss_mb, setup_s).
pass_s and setup_s are wall-time medians scaled to a reference host speed
(see HostClock); the raw medians are printed on the samples line.
--trace 1 runs untraced and traced passes (tracer.py) and reports the
per-layer metrics, per pass, unscaled.  The last stdout line is the JSON
result.
"""

import os

# BLAS thread pinning must precede every numpy import in this process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
from workloads import WORKLOADS, instantiate_args, write_problems  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
# median HostClock sample on the machine the baseline was measured on; it
# only sets the scale of pass_s and setup_s
CALIBRATION_REF_S = 0.05
# the traced run may leave this share of the traced pass time outside
# every span before the span tree counts as broken
UNACCOUNTED_LIMIT = 0.01
END_TO_END = {"pass_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


class Runner:
    """Runs the operation list and checks outputs against the reference."""

    def __init__(self, ops):
        self.ops = ops            # [(argv, csv path or None)]
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def one_pass(self, cli):
        """Run every operation once; return (seconds in cli.main, CSV bytes)."""
        total_s, csv_bytes, outputs = 0.0, 0, []
        gc.collect()  # start every pass from the same collector state
        for argv, csv in self.ops:
            out, err = io.StringIO(), io.StringIO()
            code, problem = None, None
            with redirect_stdout(out), redirect_stderr(err):
                t0 = time.perf_counter()
                try:
                    code = cli.main(argv)
                except (Exception, SystemExit):
                    problem = traceback.format_exc(limit=3)
                total_s += time.perf_counter() - t0
            text = "".join(line for line in out.getvalue().splitlines(True)
                           if not line.startswith("wall_time_s="))
            digest = None
            if csv is not None and problem is None:
                blob = csv.read_bytes()
                csv_bytes += len(blob)
                digest = hashlib.sha256(blob).hexdigest()
            outputs.append((code, text, digest))
            if problem is None and code != 0:
                problem = f"exit code {code}: {err.getvalue().strip()[-300:]}"
            if problem is None and self.reference is not None \
                    and outputs[-1] != self.reference[len(outputs) - 1]:
                problem = "output differs from the reference pass"
            self.attempted += 1
            if problem is not None:
                self.failed += 1
                self.failures.append(f"{' '.join(argv)}: {problem}")
        if self.reference is None:
            self.reference = outputs
        return total_s, csv_bytes

    def passes(self, cli, seconds, on_pass=None):
        """Repeat passes for about `seconds` of pass time (a pass starts
        only if half of it would fit), calling on_pass(seconds, CSV bytes)
        after each; return the pass times."""
        times = []
        while not times or sum(times) + times[-1] / 2 < seconds:
            t, csv_bytes = self.one_pass(cli)
            times.append(t)
            if on_pass is not None:
                on_pass(t, csv_bytes)
        return times


class HostClock:
    """Times a fixed mix of interpreter, BLAS and page-faulting work that
    shares no code with degenpde.  The shared 2-core virtual machine the
    baseline was measured on drifts in speed by up to 2x over seconds to
    minutes, for all of this work at once.  Scaling a run's times by
    CALIBRATION_REF_S / (its median sample) cancels much of that drift
    and leaves a change in the program's own speed in full."""

    def __init__(self):
        self.mat = np.random.default_rng(0).random((256, 256))
        self.samples = []

    def sample(self):
        t0 = time.perf_counter()
        acc = 0
        for i in range(350_000):
            acc += i * i
        for _ in range(30):
            self.mat @ self.mat
        # fresh pages each time, as the workloads' large arrays get; small
        # enough to stay below every workload's own peak RSS
        for _ in range(4):
            np.full(1 << 20, 1.0).sum()
        self.samples.append(time.perf_counter() - t0)

    def scale(self):
        """Factor that maps this run's times to the reference speed."""
        return CALIBRATION_REF_S / statistics.median(self.samples)


def blas_threads():
    """Thread count of every OpenBLAS library loaded in this process."""
    libs = sorted({line.split()[-1] for line in open("/proc/self/maps")
                   if "openblas" in line.rsplit("/", 1)[-1]})
    found = {}
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment(seed):
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: ") and (ROOT / ".git" / ref[5:]).is_file():
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "thread_vars": {v: os.environ.get(v) for v in THREAD_VARS},
        "commit": commit,
    }


def import_cli():
    """Import degenpde.cli from this checkout's src/, or exit."""
    if not (SRC / "degenpde" / "__init__.py").is_file() \
            or not (ROOT / "problems").is_dir():
        sys.exit(f"perfbench: {ROOT} holds no degenpde sources "
                 "(src/degenpde and problems/); nothing to measure")
    sys.path.insert(0, str(SRC))
    import degenpde.cli as cli
    return cli


def require_pinned(env):
    """Exit unless every thread variable and every loaded OpenBLAS says 1."""
    unpinned = {k: v for k, v in {**env["thread_vars"],
                                  **env["blas_threads"]}.items()
                if str(v) != "1"}
    if unpinned or not env["blas_threads"]:
        sys.exit(f"perfbench: BLAS threads are not pinned to 1: {unpinned or env}")


def setup_sampler(paths, workload):
    """A function that times one fresh interpreter doing what every CLI
    invocation does before it solves: import degenpde, then load and
    instantiate the workload's problems."""
    jobs = json.dumps([[str(paths[name]), over]
                       for name, over in instantiate_args(workload)])
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})

    def sample():
        res = subprocess.run([sys.executable, str(HERE / "setup_child.py"),
                              str(SRC), jobs], env=env, capture_output=True,
                             text=True, timeout=120, check=True)
        return float(res.stdout.strip().splitlines()[-1])

    return sample


def build_ops(workload, paths, work):
    ops = []
    for i, (cmd, name, flags) in enumerate(WORKLOADS[workload]):
        argv = [cmd, str(paths[name])] + list(flags)
        csv = None
        if cmd == "solve":
            csv = work / f"op{i}-{name}.csv"
            argv += ["--output", str(csv)]
        ops.append((argv, csv))
    return ops


def run_untraced(cli, runner, seconds, paths, workload):
    """Timed passes with the set-up samples and the host clock samples
    taken one at a time between them, so all are spread over the run."""
    sample = setup_sampler(paths, workload)
    clock = HostClock()
    setup = []

    def between(*_):
        clock.sample()
        if len(setup) < SETUP_REPEATS:
            setup.append(sample())
            clock.sample()

    between()
    runner.one_pass(cli)  # reference and warm-up
    between()
    times = runner.passes(cli, seconds, between)
    while len(setup) < SETUP_REPEATS:
        between()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    scale = clock.scale()
    metrics = {"pass_s": statistics.median(times) * scale,
               "peak_rss_mb": rss_mb,
               "setup_s": statistics.median(setup) * scale}
    notes = {"wall_pass_s": statistics.median(times),
             "wall_setup_s": statistics.median(setup),
             "host_clock_s": statistics.median(clock.samples),
             "pass_samples": times, "setup_samples": setup,
             "host_clock_samples": clock.samples}
    return metrics, notes, [], END_TO_END


def run_traced(cli, runner, seconds):
    """Untraced passes, span-timed passes (half the time each), then one
    pass traced with tracemalloc for the peak bytes."""
    import tracer

    runner.one_pass(cli)  # reference and warm-up
    plain = runner.passes(cli, seconds / 2.0)
    per_pass, problems = [], []
    tr = tracer.Tracer()

    def record(t, csv_bytes):
        spans, outcomes = tr.take()
        per_pass.append(tracer.pass_metrics(spans, outcomes, csv_bytes))
        unaccounted = t - sum(s.self_s for s in spans)
        if abs(unaccounted) > UNACCOUNTED_LIMIT * t:
            problems.append(f"{unaccounted:.4f} s of a {t:.3f} s traced "
                            "pass is outside every span")

    tr.install()
    try:
        traced = runner.passes(cli, seconds / 2.0, record)
    finally:
        tr.uninstall()
    mem = tracer.Tracer(memory=True)
    mem.install()
    try:
        runner.one_pass(cli)
        spans, outcomes = mem.take()
    finally:
        mem.uninstall()
    mem_pass = tracer.pass_metrics(spans, outcomes, 0)

    metrics, units = {}, {}
    for name, (_, unit) in per_pass[0].items():
        values = [p[name][0] for p in per_pass]
        if unit == "count" and len(set(values + [mem_pass[name][0]])) > 1:
            problems.append(f"{name} differs between traced passes: {values}, "
                            f"{mem_pass[name][0]}")
        metrics[name] = values[0] if unit == "count" else statistics.median(values)
        units[name] = unit
    for name, (value, unit) in tracer.memory_metrics(spans).items():
        metrics[name], units[name] = value, unit
    metrics["trace.pass_s"] = statistics.median(traced)
    metrics["trace.overhead_s"] = metrics["trace.pass_s"] - statistics.median(plain)
    units.update({"trace.pass_s": "s", "trace.overhead_s": "s"})
    notes = {"untraced_pass_samples": plain, "traced_pass_samples": traced}
    return metrics, notes, problems, units


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    cli = import_cli()
    env = environment(args.seed)
    require_pinned(env)

    work = ROOT / ".perfbench" / f"run-{os.getpid()}"
    try:
        paths = write_problems(ROOT, args.workload, args.seed, work)
        runner = Runner(build_ops(args.workload, paths, work))
        if args.trace:
            metrics, notes, problems, units = run_traced(cli, runner, args.seconds)
        else:
            metrics, notes, problems, units = run_untraced(
                cli, runner, args.seconds, paths, args.workload)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    correct = runner.failed == 0 and not problems
    print(f"workload={args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(runner.ops)} attempted={runner.attempted} "
          f"failed={runner.failed} "
          f"error_rate={runner.failed / runner.attempted:.6g}")
    print("environment: " + json.dumps(env, sort_keys=True))
    print("samples: " + json.dumps(notes))
    for line in runner.failures[:20] + problems:
        print("FAILED: " + line)
    for name in sorted(metrics):
        print(f"{name:42s} {metrics[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))


if __name__ == "__main__":
    main()
