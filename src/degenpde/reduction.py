"""Reduction of a singular operator-differential system to a regular one.

The system is L0(D) B u + L1(D) A1 u = f with B non-invertible, and the
family tag fixes the two scalar operators L0 and L1 (FAMILIES).  After
the Jordan structure of (B, A1) is in hand, one record with the chain
blocks, the root projectors as chain blocks and the pseudoinverse Bplus,
the substitution u = Bplus v + sum C_ij phi_i^(j) + sum lambda_e
phi_extra_e splits the system into a regular equation for v (the lead
operator L0 plus the lower-order term A1 Bplus) and a triangular system
for the C coefficients whose shape the chain lengths fix, solved level
by level from the terminal level down.  Reassembling u and checking the
solved record go over blocks of leading-axis rows (spaces.row_blocks):
the equation residual samples f per block and carries a halo of stencil
rows, so that neither holds more than the solution and a few blocks.
"""

from dataclasses import dataclass, field

import numpy as np

from .chains import complete_structure
from .errors import CompatibilityError, ConfigurationError, StructureError
from .fd import (centered_derivative, centered_weights, derivative_along_axis,
                 stencil_size)
from .spaces import compose, row_blocks

V_CONSTRAINT_TOL = 1e-8   # v leaking into the extra cokernel directions


@dataclass(frozen=True)
class Family:
    """Everything a family tag fixes: the sample axes (also the variables
    its differential operators act on), the variables f may reference,
    the equation's L = (L0, L1) as multi-indices over the axes with
    coefficient 1, the projection boundary conditions as (projector,
    axis, order) at the axis start, and the grid keys its back-end reads
    besides "box" with their defaults."""

    axes: tuple
    f_vars: tuple
    L: tuple
    bc: tuple
    grid: dict


FAMILIES = {
    "goursat": Family(("x", "y"), ("x", "y"), ((1, 1), (0, 0)),
                      (("I-Pk", "x", 0), ("I-Pk", "y", 0)),
                      {"nx": 201, "ny": 201}),
    "evolution1": Family(("t",), ("t", "x"), ((1,), (0,)),
                         (("I-Pk", "t", 0),), {"dt": 1e-3}),
    "evolution2": Family(("t",), ("t", "x"), ((2,), (1,)),
                         (("I", "t", 0), ("I-Pk", "t", 1)), {"dt": 1e-3}),
    "mixed_xy": Family(("x", "y"), ("x", "y"), ((2, 0), (0, 1)),
                       (("I-Pk", "x", 0), ("I-Pk", "x", 1), ("Pk", "y", 0)),
                       {"nx": 101, "ny": 101}),
    "spectral3": Family(("t",), ("t", "x", "y"), ((3,), (0,)),
                        tuple(("I-Pk", "t", i) for i in (0, 1, 2)),
                        {"dt": 1e-3, "nquad": 64}),
}


@dataclass
class DegenerateSystemSpec:
    """A full problem L0(D) B u + L1(D) A1 u = f: the pencil, the
    right-hand side and the family tag that fixes L0 and L1.  An axis
    the box leaves out runs over [0, 1], and a grid key it leaves out
    takes the family's default."""

    B: object
    A1: object
    f: object          # callable(**coords) -> samples with codomain dim last
    family: str
    box: dict = field(default_factory=dict)     # axis name -> (lo, hi)
    grid: dict = field(default_factory=dict)    # dt / nx / ny / nquad / lambda
    exact: object = None   # an exact oracle's sampler, domain dim last

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown family {self.family!r}; supported: {', '.join(FAMILIES)}")
        if (self.A1.domain.dim != self.B.domain.dim
                or self.A1.codomain.dim != self.B.codomain.dim):
            raise ConfigurationError("operator A1 shape mismatch with B")
        fam = FAMILIES[self.family]
        self.box = {**dict.fromkeys(fam.axes, (0.0, 1.0)), **self.box}
        self.grid = {**fam.grid, **self.grid}


@dataclass
class ReducedProblem:
    """The regular problem: M = (I - Q) A1 Bplus is a FiniteOperator on the
    codomain, kept as diag + U V^T when Bplus and A1 keep factors and the
    factors are narrow (spaces.FACTORED_WIDTH_SHARE), so that the back-ends
    apply it through apply_to_samples; dense otherwise."""

    system: DegenerateSystemSpec
    js: object
    M: object            # (I - Q) A1 Bplus, the lower-order map of the v-equation
    lower_size: float    # entry_bound of A1 Bplus, the lower-order term's size
    lower_psi_extra: np.ndarray   # (A1 Bplus)^T W2 psi_extra, zero-width when m <= n
    lambda_slots: tuple


def reduce(spec):
    """Build the regular problem: gate on A1's certificate and the chain
    pairing that fixes the C-system, and assemble the v-equation terms."""
    js = complete_structure(spec.B, spec.A1)
    if not js.comm.certified:
        raise StructureError(
            "commutability violation: operator A1 does not map the "
            "chain span consistently onto the z span")
    # B's pairing follows from A1's by the chain links B phi_(s,j) = A1 phi_(s,j-1)
    if js.comm.violation is not None:
        b, a = js.comm.violation
        raise StructureError(
            f"quasitriangularity not certified: A1 pairs phi column {b} with "
            f"psi column {a} by {js.comm.matrix[b, a]:.3e}, expected "
            f"{float(js.exchange[a] == b):g} after normalization")
    ABplus = compose(spec.A1, js.Bplus)
    # dynamics projected onto the solvable complement: for m > n the raw
    # A1 Bplus pushes v into the constraint directions handled separately
    M = compose(js.outside_z, ABplus)
    lower_psi_extra = ABplus.transpose().apply(js.z_coef[:, js.k:])
    lambda_slots = tuple(f"lambda_{js.l + e + 1}" for e in range(js.phi_extra.shape[1]))
    return ReducedProblem(system=spec, js=js, M=M,
                          lower_size=ABplus.entry_bound(),
                          lower_psi_extra=lower_psi_extra, lambda_slots=lambda_slots)


def beta_tables(rp, f_samples):
    """Right-hand projections <f, psi> as one (samples..., k) block in the
    chain-column order of Psi; f_samples has the codomain dimension last."""
    return np.asarray(f_samples, dtype=float) @ rp.js.z_coef[:, :rp.js.k]


def solve_C_recurrence(rp, beta, axes, solve_lead, accuracy=2):
    """Forward substitution through the triangular C-system, one depth at
    a time.

    beta is the (samples..., k) block of beta_tables on axes, the ordered
    list of (name, grid).  The projection onto psi_(s,t) solves
    L1(D) C_(s,p_s+1-t) = beta_(s,t) - L0(D) C_(s,p_s+2-t), with no lower
    term at t = 1, so at depth t every chain with p_s >= t solves its
    column at once.  L0 is applied with stencils of the given accuracy;
    solve_lead(samples) inverts L1 with the homogeneous data of the bc
    plan.  Returns the (samples..., k) C block in the column order of Phi."""
    js = rp.js
    lead_k = FAMILIES[rp.system.family].L[0]
    rev, heads, p = js.exchange, js.head_columns, np.asarray(js.p)
    C = np.zeros(beta.shape)
    for t in range(1, max(js.p, default=0) + 1):
        proj = heads[p >= t] + t - 1
        rhs = beta[..., proj]
        if t > 1:
            rhs = rhs - apply_differential_operator(
                lead_k, C[..., rev[proj - 1]], axes, accuracy=accuracy)
        C[..., rev[proj]] = solve_lead(rhs)
    return C


def compat_projection(rp, f_samples):
    """<f, psi_e> for the extra cokernel directions (m > n) as one
    (samples..., m - n) block, zero-width when m <= n."""
    return np.asarray(f_samples, dtype=float) @ rp.js.z_coef[:, rp.js.k:]


def rhs_projection(rp, f_samples):
    """(I - Q) f: the right-hand side of the regular v-equation."""
    return rp.js.outside_z.apply_to_samples(np.asarray(f_samples, dtype=float))


def reconstruct_solution(rp, v_samples, C, out=None):
    """u = Bplus v + C Phi^T, with the free functions
    lambda_e of the extra kernel directions taken as zero.

    The codomain/domain dimension is the last axis of the sample arrays;
    C is the (samples..., k) block of solve_C_recurrence.
    For m > n the v samples must stay in the annihilator of the extra
    cokernel directions; violation means the right-hand side is
    incompatible.  Both passes go over blocks of leading-axis rows, so
    that no temporary has the size of u.  u goes into out when given
    (an array of u's shape, which may be v itself: each block of v is
    read before its rows are written), into a new array otherwise."""
    js = rp.js
    v = np.asarray(v_samples, dtype=float)
    blocks = row_blocks(len(v), v[0].size)
    if js.psi_extra.shape[1]:
        coef, span = js.z_coef[:, js.k:], js.z_span[:, js.k:]
        leak = max(float(np.abs((v[rows] @ coef) @ span.T).max()) for rows in blocks)
        dev = leak / max(1.0, max(float(np.abs(v[rows]).max()) for rows in blocks))
        if dev > V_CONSTRAINT_TOL:
            raise CompatibilityError(
                f"compatibility violated: the regular part leaks into the "
                f"unresolvable cokernel directions (relative size {dev:.2e})")
    u = np.empty(v.shape[:-1] + (js.domain.dim,)) if out is None else out
    for rows in blocks:
        u[rows] = js.Bplus.apply_to_samples(v[rows])
        if js.k:
            # np.dot, not @: numpy's matmul runs a slow loop for width k = 1
            u[rows] += np.dot(C[rows], js.Phi.T)
    return u


def compat_residual(rp, axes, v_samples, f_psi):
    """Residual of the unresolvable-direction conditions (m > n): for every
    extra cokernel functional, L1(D) <A1 Bplus v, psi_e> - <f, psi_e>
    must vanish identically; f_psi is the compat_projection of f."""
    if not rp.js.psi_extra.shape[1]:
        return 0.0
    lower_k = FAMILIES[rp.system.family].L[1]
    scal = np.asarray(v_samples) @ rp.lower_psi_extra
    total = apply_differential_operator(lower_k, scal, axes) - f_psi
    return float(np.abs(_interior(total, len(axes))).max())


def apply_differential_operator(k, samples, axes, accuracy=2):
    """Derivative D^k of sampled values by the multi-index k; axes is the
    ordered list of (name, grid) the leading sample axes run over."""
    out = np.asarray(samples, dtype=float)
    for axis_i, order in enumerate(k):
        if order:
            grid = axes[axis_i][1]
            h = float(grid[1] - grid[0])
            out = derivative_along_axis(out, h, order, axis=axis_i,
                                        accuracy=accuracy)
    return out


def _interior(arr, naxes):
    """Trim the 2-node stencil band off the leading naxes sample axes:
    every family differentiates each of its axes."""
    return np.asarray(arr)[(slice(2, -2),) * naxes]


def _require_stencil_nodes(axes):
    for name, grid in axes:
        if len(grid) < 5:
            raise ConfigurationError(
                f"axis {name} has {len(grid)} nodes; the difference stencils need >= 5")


def equation_residual(spec, axes, u):
    """Interior max-norm of L0(D) B u + L1(D) A1 u - f by centered finite
    differences, f sampled on the axes; axes is the ordered list of
    (name, grid) matching the leading axes of u (dimension last).

    One pass over blocks of leading-axis rows (row_blocks): B u and A1 u
    are formed once per row, in the blocks apply_to_samples forms them in,
    and the last 2 H rows of each stay for the next block as a halo, H the
    widest stencil half-width along the leading axis (every family
    differentiates it).  A block then gives the interior rows H away from
    both ends of what it holds, and f is sampled on those rows alone."""
    _require_stencil_nodes(axes)
    terms = tuple(zip(FAMILIES[spec.family].L, (spec.B, spec.A1)))
    n, spacing = len(u), [float(g[1] - g[0]) for _, g in axes]
    # each term's centered weight row along the leading axis, built once
    weights = [centered_weights(spacing[0], k[0]) if k[0] else None for k, _ in terms]
    halo = max(len(w) // 2 for w in weights if w is not None)
    trim = (slice(None),) + (slice(2, -2),) * (len(axes) - 1)
    # the halo starts empty in each term's codomain, m wide for a tall pencil
    held, worst = [op.apply_to_samples(u[:0]) for _, op in terms], 0.0
    for rows in row_blocks(n, u[0].size):
        held = [np.concatenate([part, op.apply_to_samples(u[rows])])
                for part, (_, op) in zip(held, terms)]
        start = rows.stop - len(held[0])   # the row that held[i][0] stands for
        # rows 2 .. n - 3, the ones _interior keeps, each in one block
        lo, hi = max(start + halo, 2), min(rows.stop - halo, n - 2)
        if lo < hi:
            lead, lower = (_derivative_rows(k, w, part, lo - start, hi - lo, spacing)
                           for (k, _), w, part in zip(terms, weights, held))
            f_vals = _sample_f(spec, axes, slice(lo, hi))
            worst = max(worst, float(np.abs((lead + lower - f_vals)[trim]).max()))
        held = [part[-2 * halo:] for part in held]
    return worst


def _derivative_rows(k, weights, held, first, count, spacing):
    """D^k of held samples at its rows first .. first + count - 1: the
    centered stencil of weights along axis 0 (None when k[0] is 0), which
    needs its half-width of rows on both sides, then whole-axis
    derivatives along the others."""
    if weights is not None:
        reach = len(weights) // 2
        out = centered_derivative(held[first - reach:first + count + reach], weights)
    else:
        out = held[first:first + count]
    for axis, order in enumerate(k[1:], 1):
        if order:
            out = derivative_along_axis(out, spacing[axis], order, axis)
    return out


def residual_check(rp, fld):
    """Substitute the solved record back into the system, sampling f on
    its axes a block of rows at a time; a mode-space record already
    carries its equation residual.

    Returns (residual, report dict) with the equation residual and the
    norm of every projection boundary condition of the family plan at
    its axis start, the derivatives taken with 4th-order stencils."""
    spec, axes, u = rp.system, fld.axes, fld.values
    _require_stencil_nodes(axes)
    resid = fld.meta.get("mode_residual")
    if resid is None:
        resid = equation_residual(spec, axes, u)
    report = {"equation_residual": resid}
    names = [name for name, _ in axes]
    for projector, axis, order in FAMILIES[spec.family].bc:
        ax = names.index(axis)
        grid = axes[ax][1]
        key = f"{projector} d{order}u/d{axis}{order} at {axis}={grid[0]:g}"
        report[key] = _condition_norm(projector, ax, order, grid, u, rp.js)
    return resid, report


def _condition_norm(projector, ax, order, grid, u, js):
    """Largest entry of the projected order-th derivative of u along axis
    ax at its first node, where every back-end imposes its zero data."""
    if order:
        # differentiate only the first stencil window: its edge row is the
        # one the whole axis would use
        window = [slice(None)] * u.ndim
        window[ax] = slice(0, stencil_size(order, 4))
        u = derivative_along_axis(u[tuple(window)], float(grid[1] - grid[0]),
                                  order, axis=ax, accuracy=4)
    vals = np.take(u, 0, axis=ax)
    if projector == "I-Pk":
        vals = js.outside_phi.apply_to_samples(vals)
    elif projector == "Pk":
        vals = np.dot(vals @ js.phi_coef, js.phi_span.T)
    return float(np.abs(vals).max())


def _sample_f(spec, axes, rows=slice(None)):
    """spec.f on the sample points of axes, the leading axis cut to rows
    (_mesh_coords), with the codomain dimension last; one (dim,) vector
    stands for every point, and any other shape is refused."""
    coords = _mesh_coords(axes, rows)
    shape = next(iter(coords.values())).shape + (spec.B.codomain.dim,)
    vals = np.asarray(spec.f(**coords), dtype=float)
    if vals.shape not in (shape, shape[-1:]):
        raise ConfigurationError(
            f"right-hand side f returned shape {vals.shape} where the sample "
            f"points need {shape[-1]} components each, shape {shape}")
    return vals if vals.shape == shape else np.broadcast_to(vals, shape).copy()


def _mesh_coords(axes, rows=slice(None)):
    """The sample points of axes, the leading axis cut to rows, as one
    coordinate array per axis name (meshgrids past one axis)."""
    grids = [np.asarray(g, dtype=float) for _, g in axes]
    grids[0] = grids[0][rows]
    if len(grids) > 1:
        grids = np.meshgrid(*grids, indexing="ij")
    return {name: grid for (name, _), grid in zip(axes, grids)}


def _describe(k):
    """The operator D^k with coefficient 1 in report form: '1*D0^2*D1', or
    '1' for the identity."""
    ds = "*".join(f"D{i}^{v}" if v > 1 else f"D{i}" for i, v in enumerate(k) if v)
    return f"1*{ds}" if ds else "1"


def describe_reduction(rp):
    """Stable text report of a reduced problem (for goldens and the CLI)."""
    js = rp.js
    lead_k, lower_k = FAMILIES[rp.system.family].L
    lines = ["regular part:",
             f"  [{_describe(lead_k)}] x operator(|coef|_max=1)",
             f"  [{_describe(lower_k)}] x operator(|coef|_max="
             f"{rp.lower_size:.6g})",
             f"C-system rows: {js.k}"]
    for s, p in enumerate(js.p):
        for t in range(1, p + 1):
            deps = f"L0 C{(s, p + 2 - t)}" if t > 1 else "none"
            lines.append(f"  C{(s, p + 1 - t)} from psi{(s, t)}; lower terms: {deps}")
    lines.append(f"free function slots: {', '.join(rp.lambda_slots) or 'none'}")
    lines.append(f"compatibility functionals: {js.psi_extra.shape[1]}")
    lines.append("boundary plan:")
    for projector, axis, order in FAMILIES[rp.system.family].bc:
        lines.append(f"  {projector} d^{order}u on {axis}={rp.system.box[axis][0]:g}")
    return "\n".join(lines) + "\n"
