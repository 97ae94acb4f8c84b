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

Top-level keys: "spaces", "B", "A1", "f", "family", "grid",
"tolerances", plus optional "lambda" (spectral parameter) and "oracle".
"""

import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (CompatibilityError, ConfigurationError, EvaluationError,
                     ParseError, UsageError)
from .expressions import evaluate, parse, separate, variables_of
from .reduction import FAMILIES, DegenerateSystemSpec, _mesh_coords
from .solvers import (oracle_first_order_evolution, oracle_goursat_constant,
                      oracle_second_order_evolution)
from .spaces import (euclidean_space, grid_space, identity_operator,
                     make_kernel_operator, matrix_operator, mode_space,
                     row_blocks, structured_operator)

MODE_SAMPLE_CHUNK = 256
NULL_MODE_TOL = 1e-9   # a column this small relative to its operator vanishes


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
        _choice("closed form", [fm.closed_form for fm in FAMILIES.values()
                                if fm.closed_form])(name, path)
        if name != fam.closed_form:
            _fail(path, f"closed form {name!r} does not describe family {family}")
        if name == "goursat_bessel":
            srcs = [f] if isinstance(f, str) else f
            for j, src in enumerate(srcs):
                free = variables_of(parse(src))
                if free:
                    _fail(path, "the series closed form needs a constant right "
                                f"side; f[{j}] depends on {sorted(free)}")
            if len(srcs) != 2:
                _fail(path, "the series closed form covers the two-component "
                            "corner problem")
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


def _field(srcs, family, space, grid, path):
    """The sampler of an expression-defined field on space: a file's f on
    B's codomain, or an exact oracle's components on B's domain.  It
    takes the family's axes as keyword arrays of one shape and returns
    the samples with the space's dimension last.  The variables the
    family declares beyond its axes pick the sampler: none, one
    expression per coordinate of the space, stacked on the last axis;
    x, one expression with x bound to the grid space's nodes on the last
    axis; x and y, one expression through the sine transform onto the
    modes space (_mode_sampler).  A refusal names path."""
    fam = FAMILIES[family]
    extra = [name for name in fam.f_vars if name not in fam.axes]
    asts = [parse(src) for src in ([srcs] if isinstance(srcs, str) else srcs)]
    if not extra:
        if len(asts) != space.dim:
            _fail(path, f"needs {space.dim} components for the declared "
                        f"space, got {len(asts)}")

        def sampler(**coords):
            shape = np.broadcast_shapes(*map(np.shape, coords.values()))
            return np.stack([np.broadcast_to(evaluate(ast, **coords), shape)
                             for ast in asts], axis=-1)

        return sampler
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
    (spec.exact), so a wrong one is refused before any stage runs.
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
        ref = ((rows, rp.system.exact(**_mesh_coords(axes, rows)))
               for rows in row_blocks(len(u), u[0].size))
        return OracleOutcome(kind=kind, detail="sup deviation from the exact "
                             "component expressions", deviation=_deviation(u, ref),
                             tol=tol)

    # closed_form
    name = desc["name"]
    if name == "goursat_bessel":
        # load_problem checked that f is two constants
        a, b = (float(evaluate(parse(src))) for src in pf.f)
        ref = [(slice(None), oracle_goursat_constant(a, b, axes[0][1], axes[1][1]))]
        detail = "sup deviation from the series closed form"
    else:
        # instantiate refuses a time family without a grid space
        oracle = (oracle_first_order_evolution if name == "evolution1_quadrature"
                  else oracle_second_order_evolution)
        ref = oracle(rp.system.f, axes[0][1], rp.js.domain.grid)
        detail = "sup deviation from the quadrature closed form"
    return OracleOutcome(kind=kind, detail=detail, deviation=_deviation(u, ref), tol=tol)


def _deviation(u, blocks):
    """max |u - ref| over the (rows, ref) blocks of a reference solution."""
    return max(float(np.abs(u[rows] - ref).max()) for rows, ref in blocks)
