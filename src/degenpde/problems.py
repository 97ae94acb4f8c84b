"""Problem files: JSON descriptions of a degenerate system.

A problem file declares the inner-product spaces, the operator pencil
(B and the lower-order operator A1), the right-hand side as expression
strings, the family tag that fixes the equation L0(D) B u + L1(D) A1 u = f
and selects a solution back-end, grids and tolerances, and an optional
verification oracle.

``load_problem`` checks every field once, when the file is read, against
one table of fields per kind of object: the top level, SPACES and
OPERATORS by their "kind", the oracles of the family, GRID with the
family's defaults (reduction.FAMILIES), the box and the tolerances.  A
key that no table names is refused, numbers must be finite (true and
false are not numbers), and each refusal names its JSON field path.  The
result is a plain-data description with every default filled in;
``instantiate`` builds the numerical objects from it, optionally with
command-line overrides applied.

The closed-form reference solutions live here too, in one table
(CLOSED_FORMS): each entry states the family, pencil, box starts and f
it describes, so that load and ``instantiate`` refuse a file it does not
describe, and ``evaluate_oracle`` reads the reference from it.

Top-level keys: "spaces", "B", "A1", "f", "family", "grid",
"tolerances", plus optional "lambda" (spectral parameter) and "oracle".
"""

import json
import sys
from collections import namedtuple
from dataclasses import dataclass
from functools import partial

import numpy as np

from .errors import (CompatibilityError, ConfigurationError, EvaluationError,
                     ParseError, UsageError)
from .expressions import evaluate, parse, separate, variables_of
from .reduction import FAMILIES, DegenerateSystemSpec, _mesh_coords
from .spaces import (FACTORED_WIDTH_SHARE, euclidean_space, grid_space,
                     identity_operator, make_kernel_operator, matrix_operator,
                     mode_space, row_blocks, structured_operator)

MODE_SAMPLE_CHUNK = 256
NULL_MODE_TOL = 1e-9   # a column this small relative to its operator vanishes
PENCIL_TOL = 1e-10     # entry bound of B or A1 minus a closed form's own
BESSEL_SERIES_TOL = 1e-18
BESSEL_SERIES_CAP = 80


@dataclass
class ProblemFile:
    """Validated plain-data image of one problem file, with every default
    of the field tables filled in."""

    path: str
    family: str
    spaces: dict
    B: dict
    A1: dict
    f: object            # expression string or list of them
    box: dict
    grid: dict
    tolerances: dict
    lam: object = None   # spectral parameter, when declared
    oracle: dict = None


@dataclass
class OracleOutcome:
    """Result of checking a solution against the file's oracle."""

    kind: str
    detail: str
    deviation: float
    tol: float

    @property
    def passed(self):
        return bool(self.deviation <= self.tol)


def _fail(path, msg):
    raise ConfigurationError(f"{path}: {msg}")


def _mapping(value, path):
    if not isinstance(value, dict):
        _fail(path or "top level", f"expected an object, got {type(value).__name__}")
    return value


def _fields(desc, path, fields, unread):
    """The object desc at path checked against a table of fields.

    A field maps to a check, or to a (check, default) pair when it may be
    absent; a None default leaves it absent.  check(value, path) returns
    the value to keep or fails.  A key the table does not name fails at
    its own path with unread[key], or else unread[None], when unread has
    one; otherwise as an unknown key of desc."""
    desc = _mapping(desc, path)
    extra = sorted(set(desc) - set(fields))
    for key in extra:
        reason = unread.get(key, unread.get(None))
        if reason:
            _fail(_join(path, key), reason)
    if extra:
        _fail(path or "top level", f"unknown keys {extra}; allowed: {', '.join(fields)}")
    missing = [key for key, field in fields.items()
               if key not in desc and not isinstance(field, tuple)]
    if missing:
        _fail(path or "top level", f"missing required keys {missing}")
    out = {}
    for key, field in fields.items():
        check, default = field if isinstance(field, tuple) else (field, None)
        if key in desc:
            out[key] = check(desc[key], _join(path, key))
        elif default is not None:
            out[key] = default
    return out


def _join(path, key):
    return f"{path}.{key}" if path else key


def _kinded(what, tables):
    """A check for an object whose "kind" picks its table of fields."""
    kinds = _choice(f"{what} kind", tables)

    def check(desc, path):
        kind = kinds(_mapping(desc, path).get("kind"), f"{path}.kind")
        return _fields(desc, path, {"kind": kinds, **tables[kind]}, {})
    return check


def _choice(what, options):
    """A check for a string among options (a dict offers its keys)."""
    def check(value, path):
        if not isinstance(value, str) or value not in options:
            _fail(path, f"unknown {what} {value!r}; supported: {', '.join(options)}")
        return value
    return check


def _number(value, path, integer=False):
    """value as a finite JSON number, true and false refused; an int
    when integer is set."""
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not abs(value) <= sys.float_info.max):
        shown = repr(value) if isinstance(value, float) else type(value).__name__
        _fail(path, f"expected {'an integer' if integer else 'a finite number'}, "
                    f"got {shown}")
    return value if integer else float(value)


def _at_least(lo, integer=False, strict=False):
    """A check for a number >= lo, or > lo when strict."""
    def check(value, path):
        value = _number(value, path, integer)
        if value < lo or (strict and value == lo):
            _fail(path, f"needs {'an integer' if integer else 'a number'} "
                        f"{'>' if strict else '>='} {lo}, got {value}")
        return value
    return check


def _interval(value, path):
    """[lo, hi] as a pair of floats with lo < hi and a finite span."""
    if isinstance(value, list) and len(value) == 2:
        lo, hi = (_number(v, f"{path}[{i}]") for i, v in enumerate(value))
        if lo < hi and hi - lo <= sys.float_info.max:
            return lo, hi
    _fail(path, "needs [lo, hi] with lo < hi and hi - lo finite")


def _listed(check, length=None):
    """A check for a non-empty list, of the given length if any, whose
    entries each pass check."""
    def checked(value, path):
        if not isinstance(value, list) or not value or length not in (None, len(value)):
            _fail(path, f"needs a list of {length or 'one or more'} entries")
        return [check(v, f"{path}[{i}]") for i, v in enumerate(value)]
    return checked


def _expression(allowed):
    """A check for an expression string over the allowed variables."""
    def check(source, path):
        if not isinstance(source, str):
            _fail(path, f"expected an expression string, got {type(source).__name__}")
        try:
            extra = variables_of(parse(source)) - set(allowed)
        except ParseError as exc:
            raise ConfigurationError(f"{path}: {exc}") from None
        if extra:
            _fail(path, f"variables {sorted(extra)} are not available here; "
                        f"allowed: {sorted(allowed)}")
        return source
    return check


def _lambda(value, path):
    if isinstance(value, list):
        _fail(path, "free kernel coefficients are not configurable from problem "
                    "files (the solvers fix them to zero); a numeric spectral "
                    "parameter is the only supported value")
    return _number(value, path)


def _rows(value, path):
    rows = _listed(_listed(_number))(value, path)
    if len({len(row) for row in rows}) > 1:
        _fail(path, "needs a rectangular nested array")
    return rows


_count, _tolerance = _at_least(1, integer=True), _at_least(0)
_nodes = _at_least(5, integer=True)

SPACES = {
    "euclidean": {"dim": _count},
    "grid": {"interval": _interval, "nodes": _nodes,
             "quadrature": (_choice("rule", ("trapezoid", "simpson")), "trapezoid")},
    "modes": {"shape": _listed(_count, 2)},
}
OPERATORS = {
    "matrix": {"rows": _rows},
    "identity": {"scale": (_number, 1.0)},
    "kernel": {"kernel": _expression(("x", "s")),
               "form": (_choice("form", ("identity_minus_kernel", "kernel_only")),
                        "identity_minus_kernel"),
               "exact_on": (_expression(("x",)), None)},
    # x = first mode index, y = second mode index, s = the problem's
    # spectral parameter (top-level "lambda")
    "mode_diag": {"entry": _expression(("x", "y", "s"))},
}
GRID = {"dt": _at_least(0, strict=True), "nx": _nodes, "ny": _nodes, "nquad": _count}


def _keep(value, path):
    return value


# the top level checks what needs no other field; load_problem checks the
# rest against the family, the declared spaces and f
TOP = {"family": _choice("family", FAMILIES), "spaces": _mapping,
       **dict.fromkeys(("B", "A1", "f", "grid", "tolerances"), _keep),
       "lambda": (_lambda, None), "oracle": (_keep, None)}
# keys that older files declare here, and where they belong now
MOVED = {"A": 'is not read; declare the one lower-order operator as "A1"',
         "L": 'is not read; declare the equation through "family" only: it '
              "fixes L0 and L1",
         "lambda": 'is not read; declare it as the top-level "lambda" (or --lambda)',
         "modes": "is not read; declare it as spaces.<name>.shape (or --modes)"}


def _oracles(family, f, space):
    """The oracle tables of a family, given its checked f and pencil space."""
    fam = FAMILIES[family]

    def closed_form(name, path):
        form = CLOSED_FORMS[_choice("closed form", CLOSED_FORMS)(name, path)]
        if form.family != family:
            _fail(path, f"closed form {name!r} does not describe family {family}")
        if form.check_f is not None:
            form.check_f(f, path)
        return name

    def mode_residual(kind, path):
        # only a solve on a modes space records its per-mode residual
        if space["kind"] != "modes":
            _fail(path, f"{kind} needs B on a modes space, got a {space['kind']} space")
        return kind

    tol = (_tolerance, None)
    return {"closed_form": {"name": closed_form, "tol": tol},
            "exact": {"components": _listed(_expression(fam.f_vars)), "tol": tol},
            "mode_residual": {"kind": mode_residual, "tol": tol}}


def load_problem(path):
    """Read and validate a problem file; errors carry the JSON field path."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read problem file {path}: {exc}") from None
    try:
        raw = json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}: not valid JSON: {exc.msg}",
                         exc.lineno, exc.colno) from None

    top = _fields(raw, "", TOP, MOVED)
    family = top["family"]
    fam = FAMILIES[family]
    spaces = {name: _kinded("space", SPACES)(desc, f"spaces.{name}")
              for name, desc in top["spaces"].items()}
    if not spaces:
        _fail("spaces", "declare at least one space")
    space = _choice("space", spaces)
    if len(spaces) == 1:
        space = (space, next(iter(spaces)))
    operator = _kinded("operator", {kind: {"space": space, **fields}
                                    for kind, fields in OPERATORS.items()})
    B, A1 = operator(top["B"], "B"), operator(top["A1"], "A1")
    expr = _expression(fam.f_vars)
    f = (_listed(expr) if isinstance(top["f"], list) else expr)(top["f"], "f")

    def box(value, path):
        return _fields(value, path, dict.fromkeys(fam.axes, (_interval, None)),
                       {None: f"family {family} has axes {', '.join(fam.axes)}"})

    grid_fields = {"box": (box, None), **{key: (GRID[key], default)
                                          for key, default in fam.grid.items()}}
    grid = _fields(top["grid"], "grid", grid_fields, {
        **MOVED, None: f"is not read by family {family}; its grid keys "
                            f"are {', '.join(grid_fields)}"})
    tolerances = _fields(top["tolerances"], "tolerances",
                         {"verify": (_tolerance, 1e-6)},
                         {None: "is not read; the only tolerance is verify"})
    oracle = None
    if top.get("oracle") is not None:
        oracle = _kinded("oracle", _oracles(family, f, spaces[B["space"]]))(
            top["oracle"], "oracle")
        if oracle.get("tol", tolerances["verify"]) != tolerances["verify"]:
            _fail("oracle.tol", f"{oracle['tol']:g} differs from tolerances.verify "
                                f"{tolerances['verify']:g}; both state the oracle's tolerance")

    return ProblemFile(path=str(path), family=family, spaces=spaces, B=B, A1=A1,
                       f=f, box=grid.pop("box", {}), grid=grid,
                       tolerances=tolerances, lam=top.get("lambda"), oracle=oracle)


# ---------------------------------------------------------------------------
# instantiation

def _scaled_nodes(nodes, scale):
    if scale is None or scale == 1.0:
        return nodes
    return max(5, int(round((nodes - 1) * float(scale))) + 1)


def _build_space(desc, grid_scale, modes_eff):
    kind = desc["kind"]
    if kind == "euclidean":
        return euclidean_space(desc["dim"])
    if kind == "grid":
        return grid_space(*desc["interval"], _scaled_nodes(desc["nodes"], grid_scale),
                          quadrature=desc["quadrature"])
    return mode_space(*(modes_eff or desc["shape"]))


def _build_operator(desc, path, spaces, lam):
    space = spaces[desc["space"]]
    kind = desc["kind"]
    if kind == "matrix":
        rows = np.asarray(desc["rows"], dtype=float)
        if rows.shape != (space.dim, space.dim):
            _fail(path + ".rows", f"matrix shape {rows.shape} does not match "
                                  f"space dim {space.dim}")
        return matrix_operator(rows, domain=space, codomain=space)
    if kind == "identity":
        return identity_operator(space, scale=desc["scale"])
    if kind == "kernel":
        return make_kernel_operator(space, desc["form"], desc["kernel"],
                                    exact_on=desc.get("exact_on"))
    # mode_diag
    if space.mode_shape is None:
        _fail(path, "mode_diag operators need a modes space")
    ast = parse(desc["entry"])
    if "s" in variables_of(ast) and lam is None:
        _fail(path + ".entry", "references the spectral parameter s but the "
                               "file declares no lambda")
    nm, mm = space.mode_shape
    n_idx = np.repeat(np.arange(1, nm + 1), mm).astype(float)
    m_idx = np.tile(np.arange(1, mm + 1), nm).astype(float)
    bindings = {"x": n_idx, "y": m_idx}
    if lam is not None:
        bindings["s"] = float(lam)
    entries = np.broadcast_to(np.asarray(evaluate(ast, **bindings), dtype=float),
                              (space.dim,))
    return structured_operator(space, entries)


def _mode_sampler(ast, nm, mm, nquad):
    """Double sine transform on the interior uniform grid: with quadrature
    points j pi / nquad the discrete sine basis is exactly orthogonal for
    mode numbers below nquad, so band-limited sides transform exactly.
    The transform is linear: an f that separates into at most nm * mm
    products T_i(t) S_i(x, y) (expressions.separate) has each S_i
    transformed once, on the first call, and a call returns T(t) @ coefs,
    refused when the products overflow.  Any other f is transformed at
    every time node, MODE_SAMPLE_CHUNK nodes at a time."""
    xq = np.arange(1, nquad) * (np.pi / nquad)
    Sx = np.sin(np.outer(np.arange(1, nm + 1), xq))
    Sy = np.sin(np.outer(np.arange(1, mm + 1), xq))
    terms = separate(ast, ({"t"}, {"x", "y"}), nm * mm)
    coefs = None

    def transform(node, **t):
        # a node with t in it takes the leading shape of the t binding
        F = evaluate(node, x=xq[:, None], y=xq[None, :], **t)
        F = np.broadcast_to(F, np.shape(F)[:-2] + (xq.size, xq.size))
        return ((Sx @ F @ Sy.T) * (2.0 / nquad) ** 2).reshape(F.shape[:-2] + (-1,))

    def sampler(t):
        nonlocal coefs
        tv = np.atleast_1d(np.asarray(t, dtype=float))
        if terms is None:
            out = np.empty((tv.shape[0], nm * mm))
            for start in range(0, tv.shape[0], MODE_SAMPLE_CHUNK):
                stop = start + MODE_SAMPLE_CHUNK
                out[start:stop] = transform(ast, t=tv[start:stop, None, None])
            return out
        if coefs is None:
            coefs = np.stack([transform(b) for _, b in terms])
        T = np.column_stack([np.broadcast_to(evaluate(a, t=tv), tv.shape)
                             for a, _ in terms])
        with np.errstate(over="ignore", invalid="ignore"):
            out = T @ coefs
        if not np.isfinite(out).all():
            raise EvaluationError("expression produced a non-finite value")
        return out

    return sampler


def _stacked(asts):
    """The sampler of one expression per column: it takes keyword arrays
    of one shape and stacks the expressions' values on a last axis."""
    def sampler(**coords):
        shape = np.broadcast_shapes(*map(np.shape, coords.values()))
        return np.stack([np.broadcast_to(evaluate(ast, **coords), shape)
                         for ast in asts], axis=-1)

    return sampler


def _field(srcs, family, space, grid, path):
    """The sampler of an expression-defined field on space: a file's f on
    B's codomain, or an exact oracle's components on B's domain.  It
    takes the family's axes as keyword arrays of one shape and returns
    the samples with the space's dimension last.  The variables the
    family declares beyond its axes pick the sampler: none, one
    expression per coordinate of the space, stacked on the last axis;
    x, one expression with x bound to the grid space's nodes on the last
    axis; x and y, one expression through the sine transform onto the
    modes space (_mode_sampler).  An x-bound expression that separates
    into at most FACTORED_WIDTH_SHARE * d products a_r(axes) b_r(x)
    (expressions.separate) also keeps them as sampler.separated: the
    sampler of its R time factors a_r, R wide, and the (R, d) space
    factors b_r on the grid, which the quadrature closed forms integrate
    in place of its samples.  A refusal names path."""
    fam = FAMILIES[family]
    extra = [name for name in fam.f_vars if name not in fam.axes]
    asts = [parse(src) for src in ([srcs] if isinstance(srcs, str) else srcs)]
    if not extra:
        if len(asts) != space.dim:
            _fail(path, f"needs {space.dim} components for the declared "
                        f"space, got {len(asts)}")
        return _stacked(asts)
    if len(asts) != 1:
        _fail(path, f"family {family} takes a single expression over "
                    f"{', '.join(fam.f_vars)}, got {len(asts)}")
    if extra == ["x"]:
        if space.grid is None:
            _fail(path, f"family {family} binds x to the nodes of a grid space; "
                        "B is not on one")
        xg = np.asarray(space.grid, dtype=float)

        def sampler(**coords):
            coords = {name: np.asarray(c, dtype=float)[..., None]
                      for name, c in coords.items()}
            shape = np.broadcast_shapes(xg.shape, *map(np.shape, coords.values()))
            return np.broadcast_to(evaluate(asts[0], x=xg, **coords), shape).copy()

        terms = separate(asts[0], (set(fam.axes), {"x"}),
                         int(FACTORED_WIDTH_SHARE * xg.size))
        if terms is not None:
            sampler.separated = (_stacked([a for a, _ in terms]), np.stack(
                [np.broadcast_to(evaluate(b, x=xg), xg.shape) for _, b in terms]))
        return sampler
    if space.mode_shape is None:
        _fail(path, f"family {family} transforms x, y onto a modes space; "
                    "B is not on one")
    nm, mm = space.mode_shape
    if grid["nquad"] <= max(nm, mm):
        _fail(path, f"the sine transform needs grid.nquad above the mode "
                    f"count {max(nm, mm)}, got {grid['nquad']}")
    return _mode_sampler(asts[0], nm, mm, grid["nquad"])


def _refuse_common_null_modes(B, A1, lam):
    """Refuse a spectral parameter at which B and A1 vanish on a common
    mode: that mode pairs with no chain, so the pencil has no complete
    Jordan set.  A column at or below NULL_MODE_TOL * max(1, its
    operator's largest entry) counts as vanishing."""
    null = np.ones(B.domain.dim, dtype=bool)
    for op in (B, A1):
        diagonal = op.dense is None and not op.U.shape[1]
        cols = np.abs(op.diag) if diagonal else np.abs(op.matrix).max(axis=0)
        null &= cols <= NULL_MODE_TOL * max(1.0, float(cols.max(initial=0.0)))
    if null.any():
        mm = B.domain.mode_shape[1]
        modes = [f"({j // mm + 1}, {j % mm + 1})" for j in np.flatnonzero(null)]
        raise CompatibilityError(
            f"resonant lambda: {lam:g} makes B and A1 vanish together on "
            f"mode{'s' * (len(modes) > 1)} {', '.join(modes)}; the problem "
            "has no unique solution")


def instantiate(pf, grid_scale=None, dt=None, modes=None, lambda_param=None):
    """Build the numerical problem from a validated file.

    Overrides (from CLI flags) take precedence over file settings:
    grid_scale rescales grid-space node counts and sampling axes, dt the
    time step, modes the retained mode table, lambda_param the spectral
    parameter.  An exact oracle's components are compiled here too
    (spec.exact), and a closed form is held to the pencil and box it
    describes, so that a wrong oracle is refused before any stage runs.
    """
    for name, value in (("grid_scale", grid_scale), ("dt", dt)):
        if value is not None and not (np.isfinite(value) and value > 0):
            raise UsageError(f"{name} must be finite and > 0, got {value}")
    if modes is not None and min(modes) < 1:
        raise UsageError(f"modes must be at least 1 per axis, got {tuple(modes)}")
    if lambda_param is not None and not np.isfinite(lambda_param):
        raise UsageError(f"lambda must be finite, got {lambda_param}")
    grid = dict(pf.grid)
    if dt is not None:
        grid["dt"] = float(dt)
    for key in ("nx", "ny"):
        if key in grid:
            grid[key] = _scaled_nodes(grid[key], grid_scale)

    modes_eff = None
    lam = None
    if pf.family == "spectral3":
        if modes is not None:
            modes_eff = (int(modes[0]), int(modes[1]))
        lam = lambda_param if lambda_param is not None else pf.lam
        if lam is None:
            _fail("lambda", "family spectral3 needs a spectral parameter")
        grid["lambda"] = lam = float(lam)

    spaces = {name: _build_space(desc, grid_scale, modes_eff)
              for name, desc in pf.spaces.items()}

    B = _build_operator(pf.B, "B", spaces, lam)
    A1 = _build_operator(pf.A1, "A1", spaces, lam)
    f = _field(pf.f, pf.family, B.codomain, grid, "f")
    exact = None
    if pf.oracle is not None and pf.oracle["kind"] == "exact":
        exact = _field(pf.oracle["components"], pf.family, B.domain, grid,
                       "oracle.components")
    spec = DegenerateSystemSpec(B=B, A1=A1, f=f, family=pf.family,
                                box=dict(pf.box), grid=grid, exact=exact)
    if pf.oracle is not None and pf.oracle["kind"] == "closed_form":
        _refuse_undescribed(pf.oracle["name"], spec,
                            pf.oracle.get("tol", pf.tolerances["verify"]))
    if pf.family == "spectral3":
        _refuse_common_null_modes(B, A1, lam)
    return spec


# ---------------------------------------------------------------------------
# verification oracles

def evaluate_oracle(pf, rp, fld, tol=None):
    """Measure the solution field against the file's declared oracle; tol,
    when given, overrides the file's tolerance."""
    if pf.oracle is None:
        raise ConfigurationError(
            f"{pf.path}: the file declares no oracle; nothing to verify")
    desc = pf.oracle
    tol = float(desc.get("tol", pf.tolerances["verify"]) if tol is None else tol)
    kind = desc["kind"]

    if kind == "mode_residual":
        dev = float(fld.meta.get("mode_residual", np.inf))
        return OracleOutcome(kind=kind, detail="largest per-mode equation "
                             "residual", deviation=dev, tol=tol)

    axes, u = fld.axes, fld.values
    if kind == "exact":
        detail = "sup deviation from the exact component expressions"
        blocks = ((rows, rp.system.exact(**_mesh_coords(axes, rows)))
                  for rows in row_blocks(len(u), u[0].size))
    else:
        form = CLOSED_FORMS[desc["name"]]
        detail, blocks = form.detail(rp.system.f), form.reference(
            rp.system.f, *(grid for _, grid in axes), rp.system.B.domain.grid)
    dev = max(float(np.abs(u[rows] - ref).max()) for rows, ref in blocks)
    return OracleOutcome(kind=kind, detail=detail, deviation=dev, tol=tol)


# ---------------------------------------------------------------------------
# closed forms (independent quadrature evaluations) and what they describe

# a reference solution and the problem it describes: the family, the pencil
# in words and as pencil(space) -> (B, A1), None on a space it does not
# cover, the box starts, the load-time check_f(f, path) or None, the
# solution as reference(f, *axis grids, B's grid) -> (rows, values) blocks,
# the report's detail(f), and rounding(spec) -> a bound on the rounding error
# of the reference on the built problem, or None when it has none to fear
ClosedForm = namedtuple("ClosedForm",
                        "family assumes pencil starts check_f reference detail rounding")


def _refuse_undescribed(name, spec, tol):
    """Refuse a built problem that the closed form name does not describe,
    naming all that differs: B's space, B and A1 by value (an entry bound
    of the difference above PENCIL_TOL) and the box starts; then refuse a
    box on which the form's rounding bound exceeds the oracle's tol."""
    form, space = CLOSED_FORMS[name], spec.B.domain
    pencil = form.pencil(space)
    if pencil is None:
        differs = [f"B is on a space of dim {space.dim}" if space.grid is None else
                   f"B is on a grid space over [{space.grid[0]:g}, {space.grid[-1]:g}]"]
    else:
        differs = [f"the file's {label} differs from it by {gap:.3g} (entry bound)"
                   for label, gap in zip(("B", "A1"), map(_gap, (spec.B, spec.A1), pencil))
                   if gap > PENCIL_TOL]
    differs += [f"grid.box.{axis} starts at {spec.box[axis][0]:g}"
                for axis, start in form.starts.items() if spec.box[axis][0] != start]
    if differs:
        _fail("oracle.name", f"closed form {name!r} assumes {form.assumes}; "
                             + "; ".join(differs))
    bound = form.rounding(spec) if form.rounding is not None else 0.0
    if bound > tol:
        box = ", ".join(f"{axis} [{lo:g}, {hi:g}]" for axis, (lo, hi) in spec.box.items())
        _fail("oracle.name", f"closed form {name!r} cancels on the box {box}: its "
                             f"rounding bound {bound:.2g} exceeds the oracle tol {tol:g}")


def _gap(a, b):
    """entry_bound of the map a - b, through the factors when both keep them."""
    if a.dense is None and b.dense is None:
        return structured_operator(a.domain, a.diag - b.diag, np.hstack([a.U, -b.U]),
                                   np.hstack([a.V, b.V])).entry_bound()
    return float(np.abs(a.matrix - b.matrix).max())


def _corner_pencil(space):
    if space.dim == 2:
        return (matrix_operator(np.diag([1.0, 0.0]), space, space),
                identity_operator(space))


def _kernel_pencil(space):
    # exact_on x: the continuous K = 3xs reproduces x, so its sampled form
    # is scaled to do the same
    if space.grid is not None and (space.grid[0], space.grid[-1]) == (0.0, 1.0):
        return (make_kernel_operator(space, "identity_minus_kernel", "3*x*s", exact_on="x"),
                identity_operator(space, -1.0))


def _two_constants(f, path):
    srcs = [f] if isinstance(f, str) else f
    for j, src in enumerate(srcs):
        free = variables_of(parse(src))
        if free:
            _fail(path, "the series closed form needs a constant right "
                        f"side; f[{j}] depends on {sorted(free)}")
    if len(srcs) != 2:
        _fail(path, "the series closed form covers the two-component "
                    "corner problem")


def bessel_like_sum(z):
    """sum_k (-1)^k z^k / (k!)^2, the J0(2 sqrt z) series."""
    z = np.asarray(z, dtype=float)
    acc = np.ones_like(z)
    term = np.ones_like(z)
    for k in range(1, BESSEL_SERIES_CAP + 1):
        term = term * (-z) / (k * k)
        acc = acc + term
        if np.abs(term).max() <= BESSEL_SERIES_TOL * max(1.0, float(np.abs(acc).max())):
            break
    return acc


def _bessel_rounding(spec):
    """eps max_k z^k / (k!)^2 |a| at z = x_hi y_hi, a the first constant of
    f: the rounding that the alternating sum of bessel_like_sum leaves in
    the first component of oracle_goursat_constant, whose largest term is
    at k = floor(sqrt(z))."""
    z = float(spec.box["x"][1]) * float(spec.box["y"][1])
    k = np.arange(1.0, np.floor(np.sqrt(z)) + 2.0)
    with np.errstate(over="ignore"):
        peak = float(np.cumprod(z / k ** 2).max(initial=1.0))
    a = float(np.asarray(spec.f(x=0.0, y=0.0), dtype=float)[0])
    return np.finfo(float).eps * peak * abs(a)


def oracle_goursat_constant(a, b, xg, yg):
    """Exact solution of the two-component corner problem with constant
    right side (a, b): first component a(1 - J0-type sum of xy), second b."""
    X, Y = np.meshgrid(np.asarray(xg, float), np.asarray(yg, float),
                       indexing="ij")
    u1 = a * (1.0 - bessel_like_sum(X * Y))
    u2 = np.full_like(u1, float(b))
    return np.stack([u1, u2], axis=-1)


def _exp_weighted_integral(g_half, tgrid, steps, carry=None, decay=True):
    """I(t_i) = integral_0^{t_i} e^{t_i - s} g(s) ds (or the plain integral
    when decay is False) at the nodes the steps (a slice of step indices)
    end at, Simpson steps on the 2 m + 1 half-step samples g_half of those
    m steps; the first block (carry None) starts with I(t_0) = 0.  The
    step recursion I_{k+1} = e^h I_k + inc_k is the scan
    I_i = e^{t_i} cumsum_{k<i} e^{-t_{k+1}} inc_k (times from t_0), built
    in place in the result and carried across blocks: returns (I, carry),
    carry the scan's last partial sum, which the next block's first row
    adds, so that the blocks give the one-shot scan's bits."""
    h = float(tgrid[1] - tgrid[0])
    eh = np.exp(h) if decay else 1.0
    ehalf = np.exp(0.5 * h) if decay else 1.0
    first = carry is None
    out = np.empty((len(g_half) // 2 + first,) + g_half.shape[1:])
    out[:first] = 0.0
    inc = out[first:]
    np.multiply(g_half[:-1:2], eh, out=inc)
    inc += 4.0 * ehalf * g_half[1::2]
    inc += g_half[2::2]
    inc *= h / 6.0
    rel = (tgrid[steps.start + 1:steps.stop + 1] - tgrid[0]).reshape(
        (-1,) + (1,) * (inc.ndim - 1))
    if decay:
        inc *= np.exp(-rel)
    if not first:
        inc[0] += carry
    np.cumsum(inc, axis=0, out=inc)
    carry = inc[-1].copy()
    if decay:
        inc *= np.exp(rel)
    return out, carry


def _oracle_blocks(f, tgrid, xgrid, project):
    """(steps, nodes, g_half, mom_half, on_grid) over blocks of the time
    steps.  g_half is f's time side on the 2 m + 1 half-step rows of the
    m steps: the R time factors that _field kept as f.separated, blocked
    R wide, or else f's samples on the grid, d wide; mom_half holds the
    Simpson moments int s f(t, s) ds on those rows, and nodes is the
    slice of time nodes the steps end at, node 0 included in the first
    block.  on_grid(side, line) yields (node rows, u) a row block of u at
    a time, u = side through f's space side (its (R, d) factors, or the
    identity on samples) minus 3 x line, for one side row per node.  With
    project, f's side is P f = f - 3 x int s f ds, which for the kernel
    pencil cancels f's part along x before any time integral: on the
    space factors when f separates, on the samples otherwise."""
    sample, space = getattr(f, "separated", None) or (f, None)
    moment = _weighted_space_integral(xgrid, xgrid)
    if space is not None:
        moment = space @ moment
        if project:
            space = space - 3.0 * moment[:, None] * xgrid
        # the 3 x line term as one more factor, so that a u block is one product
        space = np.vstack([space, -3.0 * xgrid])
    th = np.linspace(tgrid[0], tgrid[-1], 2 * len(tgrid) - 1)
    for steps in row_blocks(len(tgrid) - 1, 2 * len(moment)):
        g_half = np.asarray(sample(t=th[2 * steps.start:2 * steps.stop + 1]), dtype=float)
        mom_half = g_half @ moment
        if project and space is None:
            g_half = g_half - 3.0 * mom_half[:, None] * xgrid
        nodes = slice(steps.start + bool(steps.start), steps.stop + 1)
        yield steps, nodes, g_half, mom_half, partial(_on_grid, nodes, space, xgrid)


def _on_grid(nodes, space, xgrid, side, line):
    # on_grid of _oracle_blocks; space, when given, ends with the row -3 x
    if space is not None:
        side = np.column_stack([side, line])
    for rows in row_blocks(len(side), 2 * len(xgrid)):
        if space is None:
            u = side[rows]
            u -= 3.0 * line[rows, None] * xgrid
        else:
            u = side[rows] @ space
        yield slice(nodes.start + rows.start, nodes.start + rows.stop), u


def _weighted_space_integral(grid, weight):
    """The functional of the composite Simpson integral of samples *
    weight over the (possibly irregular) nodes grid, as the vector whose
    product with the samples on their last axis is the integral; an even
    node count closes with Cartwright's last-interval correction."""
    n = len(grid)
    stop = n - 2 if n % 2 else n - 3
    h = np.diff(grid)
    h0, h1 = h[0:stop:2], h[1:stop + 1:2]
    hsum = h0 + h1
    ratio = h0 / h1
    w = np.zeros(n)
    w[0:stop:2] += hsum / 6.0 * (2.0 - 1.0 / ratio)
    w[1:stop + 1:2] += hsum / 6.0 * (hsum * (hsum / (h0 * h1)))
    w[2:stop + 2:2] += hsum / 6.0 * (2.0 - ratio)
    if n % 2 == 0:
        # 0-d arrays, not scalars: numpy's scalar and array power loops
        # can differ in the last bit of b ** 3
        a, b = np.asarray(h[-2]), np.asarray(h[-1])
        w[-1] += (2 * b ** 2 + 3 * a * b) / (6 * (b + a))
        w[-2] += (b ** 2 + 3.0 * a * b) / (6 * a)
        w[-3] -= b ** 3 / (6 * a * (a + b))
    return w * weight


def oracle_first_order_evolution(f, tgrid, xgrid):
    """Quadrature evaluation of the exact formula
    u(t,x) = int_0^t e^(t-z) [f(z,x) - 3x int s f(z,s) ds] dz
             - 3x int s f(t,s) ds,
    on f's time side (_oracle_blocks): its separated time factors when it
    separates, its samples otherwise; yielded as (nodes, u on them) over
    consecutive blocks of the time nodes."""
    tgrid = np.asarray(tgrid, float)
    xgrid = np.asarray(xgrid, float)
    carry = None
    for steps, nodes, g_half, mom_half, on_grid in _oracle_blocks(f, tgrid, xgrid, True):
        integ, carry = _exp_weighted_integral(g_half, tgrid, steps, carry)
        yield from on_grid(integ, mom_half[2 * (nodes.start - steps.start)::2])


def oracle_second_order_evolution(f, tgrid, xgrid):
    """Quadrature evaluation of the exact formula
    u(t,x) = int_0^t (e^(t-s) - 1) f(s,x) ds
             - 3x int_0^t e^(t-s) [int s' f(s,s') ds'] ds,
    on f's time side (_oracle_blocks): its separated time factors when it
    separates, its samples otherwise; yielded as (nodes, u on them) over
    consecutive blocks of the time nodes."""
    tgrid = np.asarray(tgrid, float)
    xgrid = np.asarray(xgrid, float)
    carry = [None] * 3
    for steps, nodes, g_half, mom_half, on_grid in _oracle_blocks(f, tgrid, xgrid, False):
        I_exp, carry[0] = _exp_weighted_integral(g_half, tgrid, steps, carry[0])
        I_one, carry[1] = _exp_weighted_integral(g_half, tgrid, steps, carry[1], decay=False)
        J, carry[2] = _exp_weighted_integral(mom_half[:, None], tgrid, steps, carry[2])
        I_exp -= I_one
        yield from on_grid(I_exp, J[:, 0])


def _quadrature_detail(f):
    """The quadrature forms' detail, naming the route _oracle_blocks takes."""
    terms = getattr(f, "separated", None)
    route = ("f sampled" if terms is None else
             f"f in {len(terms[1])} separated term{'s' * (len(terms[1]) > 1)}")
    return f"sup deviation from the quadrature closed form, {route}"


_KERNEL_PENCIL = "B = I - K with K = 3xs and A1 = -I on a grid space over [0, 1]"

# the one place that names the closed forms; the goursat one reads its two
# constants from f at the corner, the time ones integrate f's separated
# factors when it separates and sample it on B's grid otherwise
CLOSED_FORMS = {
    "goursat_bessel": ClosedForm(
        "goursat", "B = diag(1, 0) and A1 = I on a 2-dim space, with the box "
                   "starting at x = 0, y = 0", _corner_pencil, {"x": 0.0, "y": 0.0},
        _two_constants, lambda f, xg, yg, _: [(slice(None), oracle_goursat_constant(
            *f(x=0.0, y=0.0), xg, yg))],
        lambda f: "sup deviation from the series closed form", _bessel_rounding),
    "evolution1_quadrature": ClosedForm("evolution1", _KERNEL_PENCIL, _kernel_pencil, {}, None,
                                        oracle_first_order_evolution, _quadrature_detail,
                                        None),
    "evolution2_quadrature": ClosedForm("evolution2", _KERNEL_PENCIL, _kernel_pencil, {}, None,
                                        oracle_second_order_evolution, _quadrature_detail,
                                        None),
}
