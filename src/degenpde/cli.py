"""Command-line front-end.

Every subcommand runs a prefix of one pipeline (run): ``structure``
inspects the operator pair and prints the chain/projector certificates;
``solve`` goes on to run the family back-end and write the solution as
CSV; ``verify`` runs the back-end too but, in place of the CSV, measures
the solution against the problem file's oracle and fails on excess;
``report`` writes verify's full text report (structure, reduction,
solver diagnostics, residuals, oracle verdict) to stdout or a file, with
the oracle only when the file declares one.

Exit codes: 0 success, 1 verification or solvability failure, 2 input
error.  Identical input files and flags produce byte-identical CSV and
report text, except the wall-time field.
"""

import argparse
import errno
import math
import os
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from .chains import complete_structure, structure_report
from .errors import (ConfigurationError, DegenPDEError, ParseError,
                     UsageError)
from .problems import evaluate_oracle, instantiate, load_problem
from .reduction import describe_reduction, reduce, residual_check
from .solvers import solve_family, write_solution_csv

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_INPUT = 2


@dataclass
class RunReport:
    """Ordered text sections; renders to a stable report."""

    problem: str
    family: str
    sections: list = field(default_factory=list)
    wall_time_s: float = None

    def add(self, title, text):
        lines = text.splitlines() if isinstance(text, str) else list(text)
        self.sections.append((title, lines))

    def to_text(self):
        out = [f"problem: {self.problem}", f"family: {self.family}"]
        for title, lines in self.sections:
            out.append("")
            out.append(f"== {title} ==")
            out.extend(lines)
        if self.wall_time_s is not None:
            out.append("")
            out.append(f"wall_time_s={self.wall_time_s:.3f}")
        return "\n".join(out) + "\n"


def _overrides(args):
    return dict(grid_scale=args.grid_scale, dt=args.dt,
                modes=tuple(args.modes) if args.modes else None,
                lambda_param=args.lambda_param)


def _solver_section(fld):
    return [f"{key}={val:.6e}" if isinstance(val, float) else f"{key}={val}"
            for key, val in sorted(fld.meta.items())]


def _oracle_section(outcome):
    return [f"kind={outcome.kind}",
            f"detail={outcome.detail}",
            f"deviation={outcome.deviation:.6e}",
            f"tol={outcome.tol:g}",
            f"verdict={'pass' if outcome.passed else 'fail'}"]


def _output(args):
    """The file the command writes, solve's CSV (by default named after
    the problem, in the working directory) or report's --output, else
    None; refused when its directory is missing, not a directory or not
    writable, so that no stage runs for an output that cannot be written."""
    if args.command == "solve":
        path = Path(args.problem).stem + ".csv" if args.output is None else args.output
    else:
        path = args.output if args.command == "report" else None
    parent = Path(path).parent if path else None
    if parent is None or parent.is_dir() and os.access(parent, os.W_OK):
        return path
    code = (errno.EACCES if parent.is_dir() else
            errno.ENOTDIR if parent.exists() else errno.ENOENT)
    raise UsageError(f"cannot write {path}: {os.strerror(code)}")


def _write(path, write):
    """write(), which writes path; a path it cannot write is an input error,
    also when _output let it pass."""
    try:
        return write()
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def run(args):
    """Run load, instantiate, structure, reduce and solve, then the CSV or
    the residuals and oracle, up to the subcommand's last stage, and return
    the exit code; the wall time spans the structure or reduce and solve.
    An output that cannot be written is refused before any stage runs."""
    command, out = args.command, _output(args)
    pf = load_problem(args.problem)
    spec = instantiate(pf, **_overrides(args))
    report = RunReport(problem=str(args.problem), family=pf.family)
    t0 = time.perf_counter()
    if command == "structure":
        js = complete_structure(spec.B, spec.A1)
        report.add("structure", structure_report(js) if js.l else [
            "regular equation: the leading operator is invertible; apply its "
            "inverse directly, no reduction needed"])
        report.wall_time_s = time.perf_counter() - t0
        print(report.to_text(), end="")
        return EXIT_OK if js.comm.certified else EXIT_FAIL
    rp = reduce(spec)
    report.add("structure", structure_report(rp.js))
    report.add("reduction", describe_reduction(rp).rstrip("\n"))
    fld = solve_family(rp)
    report.add("solver", _solver_section(fld))
    report.wall_time_s = time.perf_counter() - t0
    code = EXIT_OK
    if command == "solve":
        rows = _write(out, lambda: write_solution_csv(fld, out))
        report.add("output", [f"csv={out}", f"rows={rows}"])
    else:
        _, residuals = residual_check(rp, fld)
        report.add("residuals", [f"{key}: {val:.6e}" for key, val in residuals.items()])
        if command == "verify" or pf.oracle is not None:
            outcome = evaluate_oracle(pf, rp, fld, args.tol)
            report.add("oracle", _oracle_section(outcome))
            code = EXIT_OK if outcome.passed else EXIT_FAIL
    text = report.to_text()
    if command == "report" and out:
        _write(out, lambda: Path(out).write_text(text, encoding="utf-8"))
        print(f"report written to {out}")
    else:
        print(text, end="")
    return code


def build_parser():
    parser = argparse.ArgumentParser(
        prog="degenpde",
        description="Reduce and solve linear operator-differential systems "
                    "with a degenerate leading operator.")
    sub = parser.add_subparsers(dest="command", required=True)
    specs = (
        ("structure", "inspect the chain structure and operator certificates"),
        ("solve", "solve the problem and write the CSV field"),
        ("verify", "solve, then gate on the bundled oracle"),
        ("report", "write the full text report"),
    )
    for name, help_text in specs:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("problem", help="path to a problem JSON file")
        p.add_argument("--grid-scale", type=float, default=None,
                       help="rescale grid node counts by this factor")
        p.add_argument("--dt", type=float, default=None,
                       help="override the time step")
        p.add_argument("--modes", type=int, nargs=2, default=None,
                       metavar=("NX", "NY"),
                       help="override the retained mode table")
        p.add_argument("--tol", type=float, default=None,
                       help="override the verification tolerance")
        p.add_argument("--lambda", dest="lambda_param", type=float,
                       default=None, help="override the spectral parameter")
        if name in ("solve", "report"):
            p.add_argument("--output", default=None,
                           help="output path (CSV for solve, text for report)")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.tol is not None and not (math.isfinite(args.tol) and args.tol >= 0):
            raise UsageError(f"--tol must be finite and >= 0, got {args.tol}")
        return run(args)
    except (UsageError, ParseError, ConfigurationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DegenPDEError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    sys.exit(main())
