"""Reduction of a singular operator-differential system to a regular one.

The system is L0(D) B u + sum_r Lr(D) Ar u = f with B non-invertible.
After the Jordan structure of (B, A1) is in hand, the substitution
u = Bplus v + sum C_ij phi_i^(j) + sum lambda_e phi_extra_e splits the
system into a regular equation for v (the lead operator L0 plus the
lower-order terms Ar Bplus) and a triangular scalar system for the C
coefficients, solvable chain by chain from the terminal level down.
"""

from dataclasses import dataclass, field

import numpy as np

from .chains import certify_operators, complete_structure
from .errors import CompatibilityError, ConfigurationError, StructureError
from .fd import derivative_along_axis

COEFF_TOL = 1e-8
V_CONSTRAINT_TOL = 1e-8   # v leaking into the extra cokernel directions


@dataclass(frozen=True)
class DifferentialOperatorSpec:
    """A scalar differential operator: sum of coef * D^k terms, with k a
    multi-index over the nvars evolution variables."""

    terms: tuple
    nvars: int

    def __post_init__(self):
        norm = []
        for k, coef in self.terms:
            k = tuple(int(v) for v in k)
            if len(k) != self.nvars or any(v < 0 for v in k):
                raise ConfigurationError(f"bad multi-index {k} for {self.nvars} variables")
            norm.append((k, float(coef)))
        object.__setattr__(self, "terms", tuple(norm))

    @property
    def order(self):
        return max((sum(k) for k, _ in self.terms), default=0)

    def describe(self):
        parts = []
        for k, coef in self.terms:
            if sum(k) == 0:
                parts.append(f"{coef:g}")
            else:
                ds = "*".join(f"D{i}^{v}" if v > 1 else f"D{i}"
                              for i, v in enumerate(k) if v)
                parts.append(f"{coef:g}*{ds}")
        return " + ".join(parts) if parts else "0"


@dataclass(frozen=True)
class Family:
    """Everything a family tag fixes: the sample axes (also the variables
    its differential operators act on), the variables f may reference,
    the canonical L as (lead, lower) multi-indices with coefficient 1,
    the projection boundary conditions as (projector, axis, order) at 0,
    and the closed-form oracle that describes it."""

    axes: tuple
    f_vars: tuple
    L: tuple
    bc: tuple
    closed_form: str = None


FAMILIES = {
    "goursat": Family(("x", "y"), ("x", "y"), ((1, 1), (0, 0)),
                      (("I-Pk", "x", 0), ("I-Pk", "y", 0)), "goursat_bessel"),
    "evolution1": Family(("t",), ("t", "x"), ((1,), (0,)),
                         (("I-Pk", "t", 0),), "evolution1_quadrature"),
    "evolution2": Family(("t",), ("t", "x"), ((2,), (1,)),
                         (("I", "t", 0), ("I-Pk", "t", 1)),
                         "evolution2_quadrature"),
    "mixed_xy": Family(("x", "y"), ("x", "y"), ((2, 0), (0, 1)),
                       (("I-Pk", "x", 0), ("I-Pk", "x", 1), ("Pk", "y", 0))),
    "spectral3": Family(("t",), ("t", "x", "y"), ((3,), (0,)),
                        tuple(("I-Pk", "t", i) for i in (0, 1, 2))),
}


@dataclass
class DegenerateSystemSpec:
    """A full problem: operators, differential parts, right-hand side."""

    B: object
    A: list
    L: list
    f: object          # callable(**coords) -> samples with codomain dim last
    family: str
    box: dict = field(default_factory=dict)     # axis name -> (lo, hi)
    grid: dict = field(default_factory=dict)    # dt / nx / ny / nquad / lambda

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise ConfigurationError(
                f"unknown family {self.family!r}; supported: {', '.join(FAMILIES)}")
        if not self.A:
            raise ConfigurationError("need at least the lower-order operator A1")
        if len(self.L) != len(self.A) + 1:
            raise ConfigurationError(
                f"need one differential operator per term: got {len(self.L)} "
                f"L-operators for {len(self.A)} lower-order operators plus the lead")
        orders = [Lop.order for Lop in self.L]
        if any(orders[i] <= orders[i + 1] for i in range(len(orders) - 1)):
            raise ConfigurationError(
                f"differential orders must strictly decrease from the lead: {orders}")
        for i, Aop in enumerate(self.A, start=1):
            if (Aop.domain.dim != self.B.domain.dim
                    or Aop.codomain.dim != self.B.codomain.dim):
                raise ConfigurationError(f"operator A{i} shape mismatch with B")


@dataclass(frozen=True)
class ScalarRow:
    """One equation of the triangular C-system.

    unknown (chain, level) is produced from the projection onto
    psi[proj]: lead_scale * L1(D) C_unknown = beta_proj
    - sum over lower of coef * L_op(D) C_pair."""

    unknown: tuple
    proj: tuple
    lead_scale: float
    lower: tuple


@dataclass
class ReducedProblem:
    system: DegenerateSystemSpec
    js: object
    ps: object
    comm: object
    Ltilde: tuple        # ((DifferentialOperatorSpec, matrix on E2), ...), lead first
    IQ: np.ndarray       # I - Qk - Qextra, the solvable complement of E2
    M: np.ndarray        # IQ A1 Bplus, the lower-order matrix of the v-equation
    Csystem: tuple
    lambda_slots: tuple
    compat: tuple        # indices into psi_extra columns (m > n only)


def reduce(spec):
    """Build the regular problem: certify commutability, assemble the
    v-equation terms and the triangular C-system."""
    js, ps = complete_structure(spec.B, spec.A[0])
    comm = certify_operators(js, spec.A)
    for i, ok in enumerate(comm.certified, start=1):
        if not ok:
            raise StructureError(
                f"commutability violation: operator A{i} does not map the "
                "chain span consistently onto the z span")
    Bplus = ps.Bplus.matrix
    IQ = np.eye(js.codomain.dim) - ps.Q
    ABplus = [Aop.matrix @ Bplus for Aop in spec.A]
    # dynamics projected onto the solvable complement: for m > n the raw
    # A1 Bplus pushes v into the constraint directions handled separately
    M = IQ @ ABplus[0]
    vterms = [(spec.L[0], np.eye(js.codomain.dim))] + list(zip(spec.L[1:], ABplus))

    idx = js.pair_indices()
    pos = {pair: a for a, pair in enumerate(idx)}
    rows = []
    solved = set()
    matB = comm.matB
    for s in range(js.l):
        for t in range(1, js.p[s] + 1):
            a = pos[(s, t)]
            unknown = (s, js.p[s] + 1 - t)
            lead = float(comm.matA[0][pos[unknown], a])
            if abs(lead - 1.0) > 1e-6:
                raise StructureError(
                    f"C-row for chain {s + 1} level {unknown[1]} has lead "
                    f"coefficient {lead:.3e}, expected 1 after normalization")
            lower = []
            for b, pair in enumerate(idx):
                if js.k and abs(matB[b, a]) > COEFF_TOL:
                    lower.append((0, pair, float(matB[b, a])))
                for r in range(1, len(comm.matA)):
                    c = float(comm.matA[r][b, a])
                    if abs(c) > COEFF_TOL:
                        lower.append((r, pair, c))
                c1 = float(comm.matA[0][b, a])
                if pair != unknown and abs(c1) > COEFF_TOL:
                    raise StructureError(
                        "quasitriangularity not certified: unexpected chain "
                        f"coupling {pair} -> {(s, t)} of size {c1:.2e}")
            for _, pair, _ in lower:
                if pair not in solved:
                    raise StructureError(
                        "quasitriangularity not certified: C-row for "
                        f"{unknown} needs unsolved component {pair}")
            rows.append(ScalarRow(unknown=unknown, proj=(s, t),
                                  lead_scale=lead, lower=tuple(lower)))
            solved.add(unknown)

    n_extra = 0 if js.phi_extra is None else js.phi_extra.shape[1]
    lambda_slots = tuple(f"lambda_{js.l + e + 1}" for e in range(n_extra))
    m_extra = 0 if js.psi_extra is None else js.psi_extra.shape[1]
    compat = tuple(range(m_extra))
    return ReducedProblem(system=spec, js=js, ps=ps, comm=comm,
                          Ltilde=tuple(vterms), IQ=IQ, M=M,
                          Csystem=tuple(rows),
                          lambda_slots=lambda_slots, compat=compat)


def beta_tables(rp, f_samples):
    """Right-hand projections beta[(s,t)] = <f, psi_s^(t)>.

    f_samples has the codomain dimension on the last axis."""
    js = rp.js
    beta = np.asarray(f_samples, dtype=float) @ (js.codomain.weights[:, None] * js.Psi)
    return {pair: beta[..., a] for a, pair in enumerate(js.pair_indices())}


def solve_C_recurrence(rp, beta, axes, solve_lead, accuracy=2):
    """Forward substitution through the triangular C-system.

    beta maps proj pairs to right sides sampled on axes, the ordered list
    of (name, grid); the lower terms apply the system's L operators (op 0
    is the lead L0) with stencils of the given accuracy;
    solve_lead(samples, row) inverts the family's L1 with the homogeneous
    data of the bc plan.  Returns {(chain, level): samples}."""
    solved = {}
    for row in rp.Csystem:
        rhs = np.array(beta[row.proj], dtype=float)
        for op_idx, pair, coef in row.lower:
            if pair not in solved:
                raise StructureError(
                    f"underdetermined C-row: {row.unknown} needs {pair} first")
            rhs = rhs - coef * apply_differential_operator(
                rp.system.L[op_idx], solved[pair], axes, accuracy=accuracy)
        solved[row.unknown] = solve_lead(rhs / row.lead_scale, row)
    return solved


def rhs_projection(rp, f_samples):
    """(I - Qk - Qextra) f: the right-hand side of the regular v-equation."""
    return np.asarray(f_samples, dtype=float) @ rp.IQ.T


def reconstruct_solution(rp, v_samples, C_solved):
    """u = Bplus v + sum C_ij phi_i^(j), with the free functions
    lambda_e of the extra kernel directions taken as zero.

    The codomain/domain dimension is the last axis of the sample arrays.
    For m > n the v samples must stay in the annihilator of the extra
    cokernel directions; violation means the right-hand side is
    incompatible."""
    js, ps = rp.js, rp.ps
    v = np.asarray(v_samples, dtype=float)
    if ps.Qextra is not None:
        dev = np.abs(v @ ps.Qextra.matrix.T).max() / max(1.0, np.abs(v).max())
        if dev > V_CONSTRAINT_TOL:
            raise CompatibilityError(
                f"compatibility violated: the regular part leaks into the "
                f"unresolvable cokernel directions (relative size {dev:.2e})")
    u = v @ ps.Bplus.matrix.T
    if js.k:
        C = np.stack([np.asarray(C_solved[pair], dtype=float)
                      for pair in js.pair_indices()], axis=-1)
        u += C @ js.Phi.T
    return u


def compat_residual(rp, axes, v_samples, f_samples):
    """Residual of the unresolvable-direction conditions (m > n): for each
    extra cokernel functional, sum_r Lr(D) <Ar Bplus v, psi_e> - <f, psi_e>
    must vanish identically."""
    js = rp.js
    if not rp.compat:
        return 0.0
    worst = 0.0
    for e in rp.compat:
        wpsi = js.codomain.weights * js.psi_extra[:, e]
        total = -(np.asarray(f_samples) @ wpsi)
        for Lspec, ABplus in rp.Ltilde[1:]:
            scal = np.asarray(v_samples) @ (ABplus.T @ wpsi)
            total = total + apply_differential_operator(Lspec, scal, axes)
        worst = max(worst, float(np.abs(_interior(total, rp.system.L)).max()))
    return worst


def apply_differential_operator(Lspec, samples, axes, accuracy=2):
    """Apply a DifferentialOperatorSpec to sampled scalars; axes is the
    ordered list of (name, grid) the leading sample axes run over."""
    out = np.zeros_like(np.asarray(samples, dtype=float))
    for k, coef in Lspec.terms:
        part = np.asarray(samples, dtype=float)
        for axis_i, order in enumerate(k):
            if order:
                grid = axes[axis_i][1]
                h = float(grid[1] - grid[0])
                part = derivative_along_axis(part, h, order, axis=axis_i,
                                             accuracy=accuracy)
        out = out + coef * part
    return out


def _interior(arr, Lops, width=2):
    """Trim a stencil-width band off every differentiated axis."""
    arr = np.asarray(arr)
    diff_axes = set()
    for Lop in Lops:
        for k, _ in Lop.terms:
            for i, order in enumerate(k):
                if order:
                    diff_axes.add(i)
    slicer = tuple(slice(width, -width) if i in diff_axes else slice(None)
                   for i in range(arr.ndim))
    return arr[slicer] if arr.ndim else arr


def _require_stencil_nodes(axes):
    for name, grid in axes:
        if len(grid) < 5:
            raise ConfigurationError(
                f"axis {name} has {len(grid)} nodes; the difference stencils need >= 5")


def equation_residual(spec, axes, u, f_vals):
    """Interior max-norm of L0(D)Bu + sum Lr(D)Ar u - f by centered finite
    differences; axes is the ordered list of (name, grid) matching the
    leading axes of u and f_vals (dimension last)."""
    _require_stencil_nodes(axes)
    total = apply_differential_operator(spec.L[0], u @ spec.B.matrix.T, axes)
    for r, Aop in enumerate(spec.A, start=1):
        total = total + apply_differential_operator(spec.L[r], u @ Aop.matrix.T, axes)
    return float(np.abs(_interior(total - f_vals, spec.L)).max())


def residual_check(rp, fld):
    """Substitute the solved record back into the system, sampling f on
    its axes.

    Returns (residual, report dict) with the equation residual and the
    norm of every projection boundary condition of the family plan, the
    derivatives taken with 4th-order stencils."""
    spec, axes, u = rp.system, fld.axes, fld.values
    _require_stencil_nodes(axes)
    f_vals = np.asarray(spec.f(**_mesh_coords(axes)), dtype=float)
    resid = equation_residual(spec, axes, u, f_vals)
    report = {"equation_residual": resid}
    for projector, axis, order in FAMILIES[spec.family].bc:
        key = f"{projector} d{order}u/d{axis}{order} at {axis}=0"
        report[key] = _condition_norm(projector, axis, order, axes, u, rp.ps)
    return resid, report


def _condition_norm(projector, axis, order, axes, u, ps):
    ax = [name for name, _ in axes].index(axis)
    grid = axes[ax][1]
    vals = u
    if order:
        h = float(grid[1] - grid[0])
        vals = derivative_along_axis(vals, h, order, axis=ax, accuracy=4)
    vals = np.take(vals, np.argmin(np.abs(grid)), axis=ax)
    if projector == "I-Pk":
        mat = np.eye(ps.Pk.matrix.shape[0]) - ps.P
    elif projector == "Pk":
        mat = ps.Pk.matrix
    else:
        mat = np.eye(ps.Pk.matrix.shape[0])
    return float(np.abs(vals @ mat.T).max())


def _mesh_coords(axes):
    if len(axes) == 1:
        return {axes[0][0]: np.asarray(axes[0][1], dtype=float)}
    grids = np.meshgrid(*[np.asarray(g, dtype=float) for _, g in axes],
                        indexing="ij")
    return {name: grids[i] for i, (name, _) in enumerate(axes)}


def describe_reduction(rp):
    """Stable text report of a reduced problem (for goldens and the CLI)."""
    lines = ["regular part:"]
    for Lspec, mat in rp.Ltilde:
        scale = float(np.abs(mat).max()) if mat.size else 0.0
        lines.append(f"  [{Lspec.describe()}] x operator(|coef|_max={scale:.6g})")
    lines.append(f"C-system rows: {len(rp.Csystem)}")
    for row in rp.Csystem:
        deps = ", ".join(f"L{op} C{pair}" for op, pair, _ in row.lower) or "none"
        lines.append(f"  C{row.unknown} from psi{row.proj}; lower terms: {deps}")
    lines.append(f"free function slots: {', '.join(rp.lambda_slots) or 'none'}")
    lines.append(f"compatibility functionals: {len(rp.compat)}")
    lines.append("boundary plan:")
    for projector, axis, order in FAMILIES[rp.system.family].bc:
        lines.append(f"  {projector} d^{order}u on {axis}=0")
    return "\n".join(lines) + "\n"
