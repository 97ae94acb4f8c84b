"""Problem files: JSON descriptions of a degenerate system.

A problem file declares the inner-product spaces, the operator pencil
(B and the lower-order operator A1), the right-hand side as expression
strings, the family tag that fixes the equation L0(D) B u + L1(D) A1 u = f
and selects a solution back-end, grids and tolerances, and an optional
verification oracle.  ``load_problem`` validates the file and returns a
plain-data description; ``instantiate`` builds the numerical objects,
optionally with command-line overrides applied.

Top-level keys: "spaces", "B", "A1", "f", "family", "grid",
"tolerances", plus optional "lambda" (spectral parameter) and "oracle".
"""

import json
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
                     structured_operator)

TOP_KEYS = ("spaces", "B", "A1", "f", "family", "grid", "tolerances")
OPTIONAL_KEYS = ("lambda", "oracle")

SPACE_KINDS = ("euclidean", "grid", "modes")
OPERATOR_KINDS = ("matrix", "identity", "kernel", "mode_diag")
ORACLE_KINDS = ("closed_form", "exact", "mode_residual")

MODE_SAMPLE_CHUNK = 256
NULL_MODE_TOL = 1e-9   # a column this small relative to its operator vanishes


@dataclass
class ProblemFile:
    """Validated plain-data image of one problem file."""

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


def _expect_mapping(value, path):
    if not isinstance(value, dict):
        _fail(path, f"expected an object, got {type(value).__name__}")
    return value


def _expect_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        _fail(path, f"expected a number, got {type(value).__name__}")
    return float(value)


def _parse_expr(source, path, allowed=None):
    if not isinstance(source, str):
        _fail(path, f"expected an expression string, got {type(source).__name__}")
    try:
        ast = parse(source)
    except ParseError as exc:
        raise ConfigurationError(f"{path}: {exc}") from None
    if allowed is not None:
        extra = variables_of(ast) - set(allowed)
        if extra:
            _fail(path, f"variables {sorted(extra)} are not available here; "
                        f"allowed: {sorted(allowed)}")
    return ast


def _check_space(name, desc):
    path = f"spaces.{name}"
    desc = _expect_mapping(desc, path)
    kind = desc.get("kind")
    if kind not in SPACE_KINDS:
        _fail(path + ".kind", f"unknown space kind {kind!r}; "
                              f"supported: {', '.join(SPACE_KINDS)}")
    if kind == "euclidean":
        dim = desc.get("dim")
        if not isinstance(dim, int) or dim < 1:
            _fail(path + ".dim", "needs a positive integer dimension")
    elif kind == "grid":
        iv = desc.get("interval")
        if (not isinstance(iv, list) or len(iv) != 2
                or not all(isinstance(v, (int, float)) for v in iv)
                or not float(iv[0]) < float(iv[1])):
            _fail(path + ".interval", "needs [lo, hi] with lo < hi")
        nodes = desc.get("nodes")
        if not isinstance(nodes, int) or nodes < 5:
            _fail(path + ".nodes", "needs an integer node count >= 5")
        quad = desc.get("quadrature", "trapezoid")
        if quad not in ("trapezoid", "simpson"):
            _fail(path + ".quadrature", f"unknown rule {quad!r}; "
                                        "use trapezoid or simpson")
    elif kind == "modes":
        shape = desc.get("shape")
        if (not isinstance(shape, list) or len(shape) != 2
                or not all(isinstance(v, int) and v >= 1 for v in shape)):
            _fail(path + ".shape", "needs [n_modes_x, n_modes_y] positive integers")


def _check_operator(desc, path, space_names):
    desc = _expect_mapping(desc, path)
    kind = desc.get("kind")
    if kind not in OPERATOR_KINDS:
        _fail(path + ".kind", f"unknown operator kind {kind!r}; "
                              f"supported: {', '.join(OPERATOR_KINDS)}")
    sp = desc.get("space")
    if sp is None and len(space_names) == 1:
        sp = space_names[0]
    if sp not in space_names:
        _fail(path + ".space", f"unknown space {sp!r}; "
                               f"declared: {', '.join(space_names)}")
    if kind == "matrix":
        rows = desc.get("rows")
        if (not isinstance(rows, list) or not rows
                or not all(isinstance(r, list) and len(r) == len(rows[0])
                           for r in rows)):
            _fail(path + ".rows", "needs a rectangular nested array")
    elif kind == "identity":
        if "scale" in desc:
            _expect_number(desc["scale"], path + ".scale")
    elif kind == "kernel":
        form = desc.get("form", "identity_minus_kernel")
        if form not in ("identity_minus_kernel", "kernel_only"):
            _fail(path + ".form", f"unknown form {form!r}")
        _parse_expr(desc.get("kernel"), path + ".kernel", allowed=("x", "s"))
        if desc.get("exact_on") is not None:
            _parse_expr(desc["exact_on"], path + ".exact_on", allowed=("x",))
    elif kind == "mode_diag":
        # x = first mode index, y = second mode index, s = the problem's
        # spectral parameter (top-level "lambda")
        _parse_expr(desc.get("entry"), path + ".entry", allowed=("x", "y", "s"))


def _refuse_moved(raw, path, moved):
    """Refuse each (key, where it is declared now) pair found in raw."""
    for key, instead in moved:
        if key in raw:
            _fail(f"{path}{key}", f"is not read; declare {instead}")


def _check_oracle(desc, family):
    path = "oracle"
    desc = _expect_mapping(desc, path)
    kind = desc.get("kind")
    if kind not in ORACLE_KINDS:
        _fail(path + ".kind", f"unknown oracle kind {kind!r}; "
                              f"supported: {', '.join(ORACLE_KINDS)}")
    if kind == "closed_form":
        name = desc.get("name")
        names = [fam.closed_form for fam in FAMILIES.values() if fam.closed_form]
        if name not in names:
            _fail(path + ".name", f"unknown closed form {name!r}; "
                                  f"supported: {', '.join(names)}")
        if name != FAMILIES[family].closed_form:
            _fail(path + ".name", f"closed form {name!r} does not describe "
                                  f"family {family}")
    elif kind == "exact":
        comps = desc.get("components")
        if not isinstance(comps, list) or not comps:
            _fail(path + ".components", "needs a list of expression strings")
        for j, comp in enumerate(comps):
            _parse_expr(comp, f"{path}.components[{j}]",
                        allowed=FAMILIES[family].f_vars)
    if "tol" in desc:
        _expect_number(desc["tol"], path + ".tol")


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
    raw = _expect_mapping(raw, "top level")

    _refuse_moved(raw, "", (("A", 'the one lower-order operator as "A1"'),
                            ("L", 'the equation through "family" only: it '
                                  "fixes L0 and L1")))
    unknown = set(raw) - set(TOP_KEYS) - set(OPTIONAL_KEYS)
    if unknown:
        _fail("top level", f"unknown keys {sorted(unknown)}; "
                           f"allowed: {', '.join(TOP_KEYS + OPTIONAL_KEYS)}")
    missing = [k for k in TOP_KEYS if k not in raw]
    if missing:
        _fail("top level", f"missing required keys {missing}")

    family = raw["family"]
    if family not in FAMILIES:
        _fail("family", f"unknown family {family!r}; "
                        f"supported: {', '.join(FAMILIES)}")
    axes, f_vars = FAMILIES[family].axes, FAMILIES[family].f_vars

    spaces = _expect_mapping(raw["spaces"], "spaces")
    if not spaces:
        _fail("spaces", "declare at least one space")
    for name, desc in spaces.items():
        _check_space(name, desc)
    space_names = list(spaces)

    _check_operator(raw["B"], "B", space_names)
    _check_operator(raw["A1"], "A1", space_names)

    f_src = raw["f"]
    if isinstance(f_src, str):
        _parse_expr(f_src, "f", allowed=f_vars)
    elif isinstance(f_src, list):
        if not f_src:
            _fail("f", "component list must not be empty")
        for j, comp in enumerate(f_src):
            _parse_expr(comp, f"f[{j}]", allowed=f_vars)
    else:
        _fail("f", "expected an expression string or a list of them")

    grid = dict(_expect_mapping(raw["grid"], "grid"))
    _refuse_moved(grid, "grid.",
                  (("lambda", 'it as the top-level "lambda" (or --lambda)'),
                   ("modes", "it as spaces.<name>.shape (or --modes)")))
    grid_keys = FAMILIES[family].grid_keys
    unread = sorted(set(grid) - set(grid_keys))
    if unread:
        _fail(f"grid.{unread[0]}", f"is not read by family {family}; its "
                                   f"grid keys are {', '.join(grid_keys)}")
    box = {}
    if "box" in grid:
        box_raw = _expect_mapping(grid.pop("box"), "grid.box")
        for axis, iv in box_raw.items():
            apath = f"grid.box.{axis}"
            if axis not in axes:
                _fail(apath, f"family {family} has axes {', '.join(axes)}")
            if (not isinstance(iv, list) or len(iv) != 2
                    or not all(isinstance(v, (int, float)) for v in iv)
                    or not float(iv[0]) < float(iv[1])):
                _fail(apath, "needs [lo, hi] with lo < hi")
            box[axis] = (float(iv[0]), float(iv[1]))

    tolerances = {}
    for key, val in _expect_mapping(raw["tolerances"], "tolerances").items():
        if key != "verify":
            _fail(f"tolerances.{key}", "is not read; the only tolerance is "
                                       "verify")
        tolerances[key] = _expect_number(val, f"tolerances.{key}")

    lam = None
    if "lambda" in raw:
        if isinstance(raw["lambda"], list):
            _fail("lambda", "free kernel coefficients are not configurable "
                            "from problem files (the solvers fix them to "
                            "zero); a numeric spectral parameter is the only "
                            "supported value")
        lam = _expect_number(raw["lambda"], "lambda")

    oracle = None
    if raw.get("oracle") is not None:
        _check_oracle(raw["oracle"], family)
        oracle = dict(raw["oracle"])

    return ProblemFile(path=str(path), family=family, spaces=dict(spaces),
                       B=dict(raw["B"]), A1=dict(raw["A1"]), f=f_src,
                       box=box, grid=grid,
                       tolerances=tolerances, lam=lam, oracle=oracle)


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
        lo, hi = desc["interval"]
        nodes = _scaled_nodes(desc["nodes"], grid_scale)
        return grid_space(float(lo), float(hi), nodes,
                          quadrature=desc.get("quadrature", "trapezoid"))
    shape = modes_eff if modes_eff is not None else desc["shape"]
    return mode_space(int(shape[0]), int(shape[1]))


def _operator_space(desc, spaces):
    name = desc.get("space")
    if name is None:
        name = next(iter(spaces))
    return spaces[name]


def _build_operator(desc, path, spaces, lam):
    space = _operator_space(desc, spaces)
    kind = desc["kind"]
    if kind == "matrix":
        rows = np.asarray(desc["rows"], dtype=float)
        if rows.shape != (space.dim, space.dim):
            _fail(path + ".rows", f"matrix shape {rows.shape} does not match "
                                  f"space dim {space.dim}")
        return matrix_operator(rows, domain=space, codomain=space)
    if kind == "identity":
        return identity_operator(space, scale=float(desc.get("scale", 1.0)))
    if kind == "kernel":
        return make_kernel_operator(space,
                                    desc.get("form", "identity_minus_kernel"),
                                    desc["kernel"],
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


def _time_field_sampler(ast, xg):
    xg = np.asarray(xg, dtype=float)

    def sampler(t):
        tv = np.atleast_1d(np.asarray(t, dtype=float))
        vals = evaluate(ast, t=tv[:, None], x=xg[None, :])
        return np.broadcast_to(vals, (tv.shape[0], xg.shape[0])).copy()

    return sampler


def _xy_field_sampler(asts):
    def sampler(x, y):
        X = np.asarray(x, dtype=float)
        Y = np.asarray(y, dtype=float)
        shape = np.broadcast_shapes(X.shape, Y.shape)
        comps = [np.broadcast_to(evaluate(ast, x=X, y=Y), shape) for ast in asts]
        return np.stack(comps, axis=-1)

    return sampler


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


def _compile_f(pf, codomain, grid):
    fam = pf.family
    if fam in ("evolution1", "evolution2"):
        if not isinstance(pf.f, str):
            _fail("f", "grid-space families take a single expression")
        if codomain.grid is None:
            _fail("B", f"family {fam} needs a grid space")
        return _time_field_sampler(parse(pf.f), codomain.grid)
    if fam in ("goursat", "mixed_xy"):
        srcs = [pf.f] if isinstance(pf.f, str) else pf.f
        if len(srcs) != codomain.dim:
            _fail("f", f"needs {codomain.dim} components for the declared "
                       f"space, got {len(srcs)}")
        return _xy_field_sampler([parse(s) for s in srcs])
    # spectral3
    if not isinstance(pf.f, str):
        _fail("f", "the spectral family takes a single expression over t, x, y")
    if codomain.mode_shape is None:
        _fail("B", "family spectral3 needs a modes space")
    nm, mm = codomain.mode_shape
    nquad = int(grid.get("nquad", 64))
    if nquad <= max(nm, mm):
        _fail("grid.nquad", f"needs more quadrature points than modes "
                            f"({max(nm, mm)})")
    return _mode_sampler(parse(pf.f), nm, mm, nquad)


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
    parameter.
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
    if grid_scale is not None:
        for key in ("nx", "ny"):
            if key in grid:
                grid[key] = _scaled_nodes(int(grid[key]), grid_scale)

    modes_eff = None
    lam = None
    if pf.family == "spectral3":
        if modes is not None:
            modes_eff = (int(modes[0]), int(modes[1]))
        lam = lambda_param if lambda_param is not None else pf.lam
        if lam is None:
            _fail("lambda", "family spectral3 needs a spectral parameter")
        lam = float(lam)

    spaces = {name: _build_space(desc, grid_scale, modes_eff)
              for name, desc in pf.spaces.items()}
    if lam is not None:
        grid["lambda"] = lam

    B = _build_operator(pf.B, "B", spaces, lam)
    A1 = _build_operator(pf.A1, "A1", spaces, lam)
    f = _compile_f(pf, B.codomain, grid)
    spec = DegenerateSystemSpec(B=B, A1=A1, f=f, family=pf.family,
                                box=dict(pf.box), grid=grid)
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
    if tol is None:
        tol = desc.get("tol", pf.tolerances.get("verify", 1e-6))
    tol = float(tol)
    kind = desc["kind"]

    if kind == "mode_residual":
        dev = float(fld.meta.get("mode_residual", np.inf))
        return OracleOutcome(kind=kind, detail="largest per-mode equation "
                             "residual", deviation=dev, tol=tol)

    axes, u = fld.axes, fld.values

    if kind == "exact":
        coords = _mesh_coords(axes)
        comps = [np.asarray(evaluate(parse(src), **coords), dtype=float)
                 for src in desc["components"]]
        exact = np.stack([np.broadcast_to(c, u.shape[:-1]) for c in comps], axis=-1)
        dev = float(np.abs(u - exact).max())
        return OracleOutcome(kind=kind, detail="sup deviation from the exact "
                             "component expressions", deviation=dev, tol=tol)

    # closed_form
    name = desc["name"]
    if name == "goursat_bessel":
        consts = []
        srcs = [pf.f] if isinstance(pf.f, str) else pf.f
        for j, src in enumerate(srcs):
            ast = parse(src)
            if variables_of(ast):
                _fail("oracle", "the series closed form needs a constant "
                                f"right side; f[{j}] depends on "
                                f"{sorted(variables_of(ast))}")
            consts.append(float(evaluate(ast)))
        if len(consts) != 2:
            _fail("oracle", "the series closed form covers the two-component "
                            "corner problem")
        ref = oracle_goursat_constant(consts[0], consts[1],
                                      axes[0][1], axes[1][1])
        dev = float(np.abs(u - ref).max())
        detail = "sup deviation from the series closed form"
    else:
        tgrid = axes[0][1]
        xg = rp.js.domain.grid
        if xg is None:
            _fail("oracle", f"{name} needs a grid-space problem")
        fun = rp.system.f
        if name == "evolution1_quadrature":
            ref = oracle_first_order_evolution(fun, tgrid, xg)
        else:
            ref = oracle_second_order_evolution(fun, tgrid, xg)
        dev = float(np.abs(u - ref).max())
        detail = "sup deviation from the quadrature closed form"
    return OracleOutcome(kind=kind, detail=detail, deviation=dev, tol=tol)
