"""Family solvers and independent closed-form oracles.

`reduce` assembles one regular equation for every family,
L0(D) v + L1(D) M v = (I - Q) f with M = (I - Q) A1 Bplus, and the
family back-ends differ only in how they integrate it: one RK4 march for
the time families, the iterated-integral series for goursat, and for
mixed_xy the finite Chebyshev series of a fit to the data, refused when
the fit misses the data.  Where the part M couples is first order
(evolution1, evolution2) the march applies RK4's exact step map;
evolution2 then recovers v from v' with RK4's own weights and a cumsum.
For M = c I + U V^T or a diagonal, as reduce leaves it for the kernel
and mode pencils (reduce forms an M with wide factors densely), the
map's powers stay scalar plus rank k and a step costs O(d k); any other
M steps a dense map.  Both march the linear recurrence with one blocked
scan, O(sqrt(nt)) products on blocks of rows in place of nt on single
rows.
spectral3 keeps the RK4 stages, which cost less there than a map on its
third-order state, and every back-end applies M through its factors.
Series limits and the fit tolerance are module constants.  Each back-end
then runs the triangular C-recursion; `solve_family`, the one entry
point, reassembles the full solution and returns it as a
`SolutionField` on the back-end's sample axes.
`write_solution_csv` builds the display view of that record only when it
writes: grid spaces unroll onto their own axis, a time axis is strided
and mode spaces get a sine synthesis.
The closed-form oracles at the bottom evaluate the exact solution
formulas of the bundled example problems by direct quadrature; they
share no code with the pipeline beyond elementary helpers.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .errors import (CompatibilityError, ConfigurationError, EvaluationError,
                     UsageError)
from .reduction import (FAMILIES, beta_tables, compat_residual,
                        equation_residual, reconstruct_solution,
                        rhs_projection, solve_C_recurrence)
from .spaces import BLOCK

DEFAULT_DT = 1e-3
GOURSAT_SERIES_CAP = 40
GOURSAT_SERIES_TOL = 1e-12
MIXED_FIT_DEGREE = 32
MIXED_FIT_TOL = 1e-10
COMPAT_TOL = 1e-6
CSV_TIME_STEPS = 20     # time steps the CSV view keeps, about
CSV_SINE_NODES = 17     # sine synthesis nodes per axis of the CSV view
BESSEL_SERIES_TOL = 1e-18
BESSEL_SERIES_CAP = 80


@dataclass
class SolutionField:
    """A solved problem: the back-end's sample axes, u on them with the
    operator-space dimension last (shape = axis lengths + (dim,)), the
    space u lives in and the solver diagnostics the report prints."""

    axes: tuple
    values: np.ndarray
    space: object = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.axes = tuple((str(name), np.asarray(g, dtype=float))
                          for name, g in self.axes)
        self.values = np.asarray(self.values, dtype=float)
        lens = tuple(len(g) for _, g in self.axes)
        if self.values.shape[:-1] != lens:
            raise ConfigurationError(
                f"value grid {self.values.shape[:-1]} does not match axes {lens}")
        if not np.isfinite(self.values).all():
            raise EvaluationError("solution field contains non-finite samples")


def write_solution_csv(fld, path):
    """Deterministic CSV of the display view: header 'axis names...,
    component, value', rows row-major over the axes, then over
    components, floats via repr.  The file is written one slab of the
    leading axis at a time; returns the number of value rows."""
    axes, values = _csv_view(fld)
    names = [name for name, _ in axes]
    labels = [[repr(x) + "," for x in g.tolist()] for _, g in axes]
    leads = labels[0] if labels else [""]
    tails = ["".join(rest) for rest in itertools.product(*labels[1:])]
    slabs = values.reshape(len(leads), len(tails), values.shape[-1])
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names + ["component", "value"]) + "\n")
        for lead, slab in zip(leads, slabs):
            fh.write("".join([f"{lead}{tail}{comp},{val!r}\n"
                              for tail, row in zip(tails, slab.tolist())
                              for comp, val in enumerate(row)]))
    return values.size


def _csv_time_stride(axes, space):
    """Stride of the CSV view along a time axis over a grid or mode space,
    which keeps about CSV_TIME_STEPS steps; None for every other field."""
    if (not axes or axes[0][0] != "t" or space is None
            or (space.grid is None and space.mode_shape is None)):
        return None
    return max(1, (len(axes[0][1]) - 1) // CSV_TIME_STEPS)


def _csv_view(fld):
    """Display form of a solution, keyed by its operator space: grid
    spaces unroll onto their own axis, a time axis is strided, mode spaces
    are synthesized on a sine grid over [0, pi]^2, coordinate spaces keep
    a plain component column."""
    axes, u, space = fld.axes, fld.values, fld.space
    stride = _csv_time_stride(axes, space)
    if stride is None:
        if space is None or space.grid is None:
            return axes, u
        return axes + (("s", space.grid),), u[..., None]
    tgrid = axes[0][1][::stride]
    if space.grid is not None:
        return (("t", tgrid), ("x", space.grid)), u[::stride][..., None]
    N, Mm = space.mode_shape
    xg = np.linspace(0.0, np.pi, CSV_SINE_NODES)
    phys = np.einsum("tnm,nx,my->txy", u[::stride].reshape(-1, N, Mm),
                     _sine_table(N, xg), _sine_table(Mm, xg))
    return (("t", tgrid), ("x", xg), ("y", xg)), phys[..., None]


def _sine_table(k, grid):
    return np.sin(np.outer(np.arange(1, k + 1), grid))


# ---------------------------------------------------------------------------
# shared time-stepping helpers

def _time_grid(spec):
    lo, hi = spec.box.get("t", (0.0, 1.0))
    step = float(spec.grid.get("dt", DEFAULT_DT))
    span = float(hi) - float(lo)
    if step <= 0 or step > span:
        raise UsageError(f"time step {step} invalid for horizon {span}")
    nt = int(round(span / step))
    if abs(nt * step - span) > 1e-9 * max(1.0, span):
        raise UsageError(f"time step {step} does not divide the horizon {span}")
    return np.linspace(float(lo), float(hi), nt + 1)


def _half_grid(tgrid):
    nt = len(tgrid) - 1
    return np.linspace(tgrid[0], tgrid[-1], 2 * nt + 1)


def _sample_rhs(f, tvals, width):
    vals = np.asarray(f(t=tvals), dtype=float)
    if vals.ndim == 1:
        vals = np.broadcast_to(vals[None, :], (len(tvals), vals.shape[0])).copy()
    if vals.shape != (len(tvals), width):
        raise ConfigurationError(
            f"right-hand side sampler returned shape {vals.shape} for "
            f"{len(tvals)} time nodes and {width} components")
    return vals


def _march(M, r, s, g_half, tgrid):
    """Classical RK4 from zero data for v^(r) = g - M v^(s), g sampled on
    the half-step grid and M a FiniteOperator; returns v at the nodes.

    On a linear system one RK4 step is the affine map y -> R(hA) y + b_n,
    R(z) = sum_{j<=4} z^j / j! the stability function (Hairer, Norsett &
    Wanner, Solving ODEs I, II.1).  Where the part M couples is first
    order (r - s = 1, s <= 1) w = v^(s) steps as w <- w P^T + b_n with
    P = R(N), N = -h M, and the forcing b of all steps comes from g in
    batched products.  For s = 1, v is RK4's own quadrature of v' = w,
    dv_n = w_n Q^T + c_n, summed by a cumsum.  When M = c I + U V^T (or
    a diagonal) every such polynomial in N is a scalar (or diagonal) plus
    a rank-k part, and _march_factored steps through the factors; any
    other M keeps the map as a dense matrix.  Either way _scan solves the
    recurrence, with P^L from matrix_power here.
    For r - s > 1 (spectral3) the stages stay, applying M through its
    factors: the map there is a dense (r d)^2 matrix against 4 d^2 for
    the stages (on example5, one BLAS thread, it took the march from 0.09
    to 0.41 s, and a Horner form in M from 0.105 to 0.166 s)."""
    h = float(tgrid[1] - tgrid[0])
    nt, d = len(tgrid) - 1, M.domain.dim
    g0, gm, g1 = g_half[:-1:2], g_half[1::2], g_half[2::2]
    if r - s > 1 or s > 1:
        y = np.zeros((r, d))
        v = np.empty((nt + 1, d))
        v[0] = 0.0

        def deriv(y, g):
            out = np.empty_like(y)
            out[:-1] = y[1:]
            out[-1] = g - M.apply_to_samples(y[s])
            return out

        for i in range(nt):
            k1 = deriv(y, g0[i])
            k2 = deriv(y + 0.5 * h * k1, gm[i])
            k3 = deriv(y + 0.5 * h * k2, gm[i])
            k4 = deriv(y + h * k3, g1[i])
            y = y + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            v[i + 1] = y[0]
        return v
    if M.dense is None and (not M.U.shape[1] or np.all(M.diag == M.diag[0])):
        return _march_factored(M, s, g_half, h)

    eye = np.eye(d)
    N = -h * M.matrix
    N2 = N @ N
    N3 = N2 @ N
    # w[1:] holds the forcing b until _scan adds w[i] P^T to w[i + 1]
    w = np.empty((nt + 1, d))
    w[0] = 0.0
    b = w[1:]
    np.matmul(g0, (eye + N + N2 / 2.0 + N3 / 4.0).T, out=b)
    b += gm @ (4.0 * eye + 2.0 * N + N2 / 2.0).T
    b += g1
    b *= h / 6.0
    PT = (eye + N + N2 / 2.0 + N3 / 6.0 + N3 @ N / 24.0).T
    L = _block_length(nt)
    PT_L = np.linalg.matrix_power(PT, L)
    _scan(w, lambda rows: rows @ PT, lambda rows: rows @ PT_L, L)
    if s == 0:
        return w
    v = np.empty_like(w)
    v[0] = 0.0
    dv = v[1:]
    np.matmul(g0, (eye + N / 2.0 + N2 / 4.0).T, out=dv)
    dv += gm @ (2.0 * eye + N / 2.0).T
    dv *= h / 6.0
    dv += w[:-1] @ (eye + N / 2.0 + N2 / 6.0 + N3 / 24.0).T
    dv *= h
    np.cumsum(dv, axis=0, out=dv)
    return v


def _block_length(nt):
    """The block length of _scan for nt steps: ceil(sqrt(nt))."""
    return math.isqrt(nt - 1) + 1


def _scan(w, step, step_L, L):
    """w[n + 1] = step(w[n]) + b[n] for a linear step, in place: w[0] is
    the start and w[1:] holds the forcing b on entry.  A blocked scan
    (Kogge & Stone 1973; Blelloch, "Prefix sums and their applications",
    1990): the rows 1 .. B L, as B blocks of L, march from zero all at
    once; the block starts then chain through step_L = step^L; and each
    start is carried through its block.  The rows past B L step one at a
    time.  With L = ceil(sqrt(nt)) that is O(sqrt(nt)) calls on row
    blocks in place of nt calls on single rows."""
    nt, d = w.shape[0] - 1, w.shape[1]
    B = nt // L
    body = w[1:1 + B * L].reshape(B, L, d)
    for m in range(1, L):
        body[:, m] += step(body[:, m - 1])
    starts = np.empty((B, d))
    starts[:1] = w[0]
    for j in range(1, B):
        starts[j] = body[j - 1, -1] + step_L(starts[j - 1])
    for m in range(L):
        starts = step(starts)
        body[:, m] += starts
    for n in range(B * L, nt):
        w[n + 1] += step(w[n])


def _polynomial(a, G, coef):
    """sum_j coef[j] N^j for N = a I + X V^T with G = V^T X: the pair
    (scalar part, core C) of the polynomial sum_j coef[j] a^j I + X C V^T.
    a is a scalar, or one entry per coordinate when X has no columns."""
    core, Cj, eye = np.zeros_like(G), np.zeros_like(G), np.eye(len(G))
    for j, c in enumerate(coef):
        core += c * Cj
        if G.size:
            # N^(j+1) = N^j N: its core is a^j I + a C_j + C_j G
            Cj = a ** j * eye + a * Cj + Cj @ G
    return sum(c * a ** j for j, c in enumerate(coef)), core


def _fill_rows(out, terms, coef, X):
    """out = sum c x over the (c, x) terms, plus coef X^T, a block of rows at
    a time so that no temporary has the size of out."""
    (c0, x0), *rest = terms
    step = max(1, BLOCK // out.shape[1])
    for lo in range(0, len(out), step):
        rows = slice(lo, lo + step)
        blk = out[rows]
        np.multiply(x0[rows], c0, out=blk)
        for c, x in rest:
            blk += c * x[rows]
        if X.shape[1]:
            blk += coef[rows] @ X.T


def _march_factored(M, s, g_half, h):
    """The step-map march of _march for M = c I + U V^T (c one constant)
    or M diagonal (no U).  With N = a I + X V^T, a = -h c and X = -h U,
    P = R(N) = p I + X Cp V^T, so a step w <- p w + (w V) Cp^T X^T + b_n
    costs O(d k), and so does a step of P^L, which _scan chains its block
    starts through.  The forcing and, for s = 1, RK4's quadrature of
    v' = w take g only through g V: O(nt d k) in all."""
    nt, d, k = (len(g_half) - 1) // 2, M.domain.dim, M.U.shape[1]
    a = -h * (M.diag[0] if k else M.diag)
    X, V = -h * M.U, M.V
    G = V.T @ X
    p, Cp = _polynomial(a, G, (1.0, 1.0, 1.0 / 2, 1.0 / 6, 1.0 / 24))
    s1, C1 = _polynomial(a, G, (1.0, 1.0, 1.0 / 2, 1.0 / 4))
    s2, C2 = _polynomial(a, G, (4.0, 2.0, 1.0 / 2))
    c = h / 6.0
    g0, gm, g1 = g_half[:-1:2], g_half[1::2], g_half[2::2]
    gV = g_half @ V
    g0V, gmV = gV[:-1:2], gV[1::2]
    # w[1:] holds the forcing b_n = c (s1 g0 + s2 gm + g1 + (g0 V C1^T +
    # gm V C2^T) X^T) until _scan adds P w_n to w_(n + 1)
    w = np.empty((nt + 1, d))
    w[0] = 0.0
    _fill_rows(w[1:], ((c * s1, g0), (c * s2, gm), (c, g1)),
               c * (g0V @ C1.T + gmV @ C2.T), X)
    # P^L = p^L I + X (Cp C_L) V^T, with P = p I + (X Cp) V^T in _polynomial
    L = _block_length(nt)
    p_L, C_L = _polynomial(p, G @ Cp, (0.0,) * L + (1.0,))
    T, T_L = Cp.T @ X.T, (Cp @ C_L).T @ X.T
    _scan(w, lambda rows: p * rows + (rows @ V) @ T,
          lambda rows: p_L * rows + (rows @ V) @ T_L, L)
    if s == 0:
        return w
    q1, D1 = _polynomial(a, G, (1.0, 1.0 / 2, 1.0 / 4))
    q2, D2 = _polynomial(a, G, (2.0, 1.0 / 2))
    q3, D3 = _polynomial(a, G, (1.0, 1.0 / 2, 1.0 / 6, 1.0 / 24))
    # dv_n = h [w_n Q3^T + c (g0 Q1^T + gm Q2^T)], then v by a cumsum
    v = np.empty_like(w)
    v[0] = 0.0
    _fill_rows(v[1:], ((h * c * q1, g0), (h * c * q2, gm), (h * q3, w[:-1])),
               h * ((w[:-1] @ V) @ D3.T + c * (g0V @ D1.T + gmV @ D2.T)), X)
    np.cumsum(v[1:], axis=0, out=v[1:])
    return v


def _cumulative_from_zero(samples, grid, axis=0):
    """Cumulative trapezoid integral of samples along axis, 0 at the
    first node: half-sums of neighbours times the steps, then a cumsum.
    Past axis 0 the steps multiply the trailing axes merged into one, so
    that numpy's inner loop runs over all of them, not over the last."""
    y = np.asarray(samples, dtype=float)
    lead = (slice(None),) * axis
    tail, head = lead + (slice(1, None),), lead + (slice(None, -1),)
    steps = np.diff(grid)
    out = np.empty(y.shape)
    out[lead + (0,)] = 0.0
    acc = np.add(y[tail], y[head], out=out[tail])
    if axis:
        inner = int(np.prod(y.shape[axis + 1:]))
        # a view: out is C-ordered, so its trailing axes merge
        merged = acc.reshape(acc.shape[:axis] + (-1,))
        merged *= np.repeat(steps, inner)
    else:
        acc *= steps.reshape((-1,) + (1,) * (y.ndim - 1))
    acc /= 2.0
    np.cumsum(acc, axis=axis, out=acc)
    return out


def _cumulative_simpson_half(y, grid):
    """Cumulative integral of samples on a uniform half-step grid (an odd
    count 2n+1 covering n full steps), returned on the same grid: Simpson
    panels at the full steps, the quadratic half-panel rule between."""
    y = np.asarray(y, dtype=float)
    n2 = y.shape[0]
    if n2 < 3 or n2 % 2 == 0:
        raise ConfigurationError(
            f"half-step sample count must be odd and >= 3, got {n2}")
    h2 = float(grid[1] - grid[0])
    y0, ym, y1 = y[0:-2:2], y[1:-1:2], y[2::2]
    panels = (h2 / 3.0) * (y0 + 4.0 * ym + y1)
    even = np.concatenate([np.zeros((1,) + y.shape[1:]),
                           np.cumsum(panels, axis=0)], axis=0)
    halves = (h2 / 12.0) * (5.0 * y0 + 8.0 * ym - y1)
    out = np.empty_like(y)
    out[0::2] = even
    out[1::2] = even[:-1] + halves
    return out


# ---------------------------------------------------------------------------
# time families (march in t)

def _solve_time(rp):
    """Time families: D_t^r (Bu) + D_t^s (A1 u) = f from zero data.

    The regular part v^(r) = g - M v^(s), g = (I - Q) f, marches with RK4
    (`_march`): the step map for evolution1 and for v' of evolution2, v
    then by RK4's quadrature of v', the stages for spectral3.  The
    C-recursion runs on the half-step grid, inverting L1 = D_t^s by
    identity or Simpson."""
    spec = rp.system
    (r,), (s,) = FAMILIES[spec.family].L
    tgrid = _time_grid(spec)
    th = _half_grid(tgrid)
    f_half = _sample_rhs(spec.f, th, rp.js.codomain.dim)
    v = _march(rp.M, r, s, rhs_projection(rp, f_half), tgrid)
    # chains of length > 1 differentiate the projections repeatedly; the
    # half-step grid and 4th-order stencils keep the C error at the RK4
    # scale, and the Simpson lead matches the RK4 stage accuracy
    lead = ((lambda rhs: rhs) if s == 0
            else (lambda rhs: _cumulative_simpson_half(rhs, th)))
    C_half = solve_C_recurrence(rp, beta_tables(rp, f_half), [("t", th)],
                                lead, accuracy=4)
    return ([("t", tgrid)], f_half[::2], v, C_half[::2],
            {"dt": float(tgrid[1] - tgrid[0])})


# ---------------------------------------------------------------------------
# Goursat family (series in the double integral)

def _solve_goursat(rp):
    """Family goursat: d2/dxdy(Bu) + A1 u = f, data on both axes.

    The regular part is the convergent series of iterated double
    integrals: v = sum_r term_r with term_0 = V w and
    term_r = -V M term_{r-1}, V the cumulative double integral from the
    corner and w = (I - Q) f; iterated trapezoid quadrature on the grid."""
    spec = rp.system
    xg = _box_grid(spec, "x", 201)
    yg = _box_grid(spec, "y", 201)
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    f_vals = np.asarray(spec.f(x=X, y=Y), dtype=float)
    w = rhs_projection(rp, f_vals)

    def volterra(arr):
        arr = _cumulative_from_zero(arr, xg, axis=0)
        return _cumulative_from_zero(arr, yg, axis=1)

    vterm = volterra(w)
    v = vterm.copy()
    scale = max(1.0, float(np.abs(vterm).max()))
    for r in range(1, GOURSAT_SERIES_CAP + 1):
        vterm = -volterra(rp.M.apply_to_samples(vterm))
        v += vterm
        if np.abs(vterm).max() <= GOURSAT_SERIES_TOL * scale:
            break
    else:
        raise ConfigurationError(
            "series truncation failure: the iterated-integral series did "
            f"not decay below {GOURSAT_SERIES_TOL:g} within "
            f"{GOURSAT_SERIES_CAP} terms; the domain box "
            "is too large for this operator pair, shrink it")

    axes = [("x", xg), ("y", yg)]
    C = solve_C_recurrence(rp, beta_tables(rp, f_vals), axes,
                           lambda rhs: rhs)
    return (axes, f_vals, v, C,
            {"series_terms": r, "series_tail": float(np.abs(vterm).max())})


# ---------------------------------------------------------------------------
# mixed boundary family (Chebyshev series in x and y)

def _contract(Ax, Ay, arr):
    """Apply Ax along axis 0 and Ay along axis 1 of arr (two GEMMs)."""
    return np.tensordot(Ax, np.tensordot(Ay, arr, axes=(1, 1)), axes=(1, 1))


def _solve_mixed_xy(rp):
    """Family mixed_xy: d2/dx2(Bu) + d/dy(A1 u) = f, layered data.

    v_xx + M v_y = g with v = v_x = 0 at x = 0 is a Cauchy problem for a
    backward-parabolic operator, so only data with a convergent expansion
    has a solution.  g = (I - Q) f is fitted by a tensor Chebyshev
    least-squares polynomial, refused if the fit misses it, and the
    fitted problem is solved exactly: term_0 = V g, term_k = -V M
    d/dy term_{k-1}, V the double x-integral from x = 0.  Each term drops
    the y-degree by one, so the series ends after at most ky + 1 terms,
    ky the fitted y-degree."""
    spec = rp.system
    xg = _box_grid(spec, "x", 101)
    yg = _box_grid(spec, "y", 101)
    X, Y = np.meshgrid(xg, yg, indexing="ij")
    f_vals = np.asarray(spec.f(x=X, y=Y), dtype=float)
    g = rhs_projection(rp, f_vals)
    # Chebyshev variables on [-1, 1]; the half-widths scale d/dx and d/dy
    hx, hy = 0.5 * float(xg[-1] - xg[0]), 0.5 * float(yg[-1] - yg[0])
    xi, eta = (xg - xg[0]) / hx - 1.0, (yg - yg[0]) / hy - 1.0

    def on_grid(coef):
        return _contract(cheb.chebvander(xi, coef.shape[0] - 1),
                         cheb.chebvander(eta, coef.shape[1] - 1), coef)

    kx, ky = (min(MIXED_FIT_DEGREE, (len(grid) - 1) // 2) for grid in (xg, yg))
    c = _contract(np.linalg.pinv(cheb.chebvander(xi, kx)),
                  np.linalg.pinv(cheb.chebvander(eta, ky)), g)
    c[np.abs(c) <= 1e-15 * float(np.abs(c).max())] = 0.0
    scale = float(np.abs(g).max()) or 1.0
    fit_residual = float(np.abs(on_grid(c) - g).max()) / scale
    if fit_residual > MIXED_FIT_TOL:
        raise ConfigurationError(
            f"right-hand side not resolved: the degree ({kx}, {ky}) "
            f"Chebyshev fit misses (I - Q) f by {fit_residual:.3g} relative "
            f"(tolerance {MIXED_FIT_TOL:g}); this Cauchy problem in x needs "
            "smooth data")

    def x_integral(coef):
        return cheb.chebint(coef, m=2, lbnd=-1, scl=hx, axis=0)

    term = x_integral(c)
    # term k is 2 longer in x than term k - 1 and 1 shorter in y
    coef = np.zeros((term.shape[0] + 2 * ky,) + c.shape[1:])
    terms = 0
    while term.any():
        coef[:term.shape[0], :term.shape[1]] += term
        terms += 1
        term = -x_integral(rp.M.apply_to_samples(cheb.chebder(term, scl=1.0 / hy, axis=1)))
    v = on_grid(coef)

    axes = [("x", xg), ("y", yg)]
    C = solve_C_recurrence(rp, beta_tables(rp, f_vals), axes,
                           lambda rhs: _cumulative_from_zero(rhs, yg, axis=1))
    return (axes, f_vals, v, C,
            {"series_terms": terms, "fit_residual": fit_residual})


# ---------------------------------------------------------------------------
# spectral parameter

def check_spectral_parameter(lam, N, Mm, tol=1e-9):
    """Refuse a parameter that makes B = diag(1 - n^2), A1 = diag(lam - m^2)
    resonant or its algebraic block singular over the retained modes."""
    for n in range(1, N + 1):
        if abs(lam - n * n) <= tol:
            raise CompatibilityError(
                f"resonant lambda: {lam:g} equals n^2 for retained mode n={n}; "
                "the problem has no unique solution")
    for m in range(1, Mm + 1):
        if abs(lam - m * m) <= tol:
            raise CompatibilityError(
                f"singular algebraic row: lambda - m^2 vanishes for m={m}")


# ---------------------------------------------------------------------------
# solve entry point

def _box_grid(spec, name, default_nodes):
    lo, hi = spec.box.get(name, (0.0, 1.0))
    nodes = int(spec.grid.get(f"n{name}", default_nodes))
    if nodes < 5:
        raise UsageError(f"axis {name} needs at least 5 nodes, got {nodes}")
    return np.linspace(float(lo), float(hi), nodes)


# each back-end returns (axes, f samples on the axes, v, C, solver meta)
SOLVERS = {
    "goursat": _solve_goursat,
    "evolution1": _solve_time,
    "evolution2": _solve_time,
    "mixed_xy": _solve_mixed_xy,
    "spectral3": _solve_time,
}


def solve_family(rp):
    """Integrate the reduced problem with its family's back-end, then
    reassemble u = Bplus v + C Phi, check the unresolvable-direction
    conditions and return u on the back-end's sample axes.  Node counts
    and the time step come from the spec's grid table."""
    spec = rp.system
    axes, f_vals, v, C, meta = SOLVERS[spec.family](rp)
    u = reconstruct_solution(rp, v, C)
    dev = compat_residual(rp, axes, v, f_vals)
    if dev > COMPAT_TOL:
        raise CompatibilityError(
            "compatibility violated: the unresolvable-direction "
            f"conditions fail with residual {dev:.3e}")
    space = rp.js.domain
    stride = _csv_time_stride(axes, space)
    if stride is not None:
        meta["output_stride_t"] = stride
    if space.mode_shape is not None:
        # mode spaces carry their equation residual against the f samples
        meta["modes"] = space.mode_shape
        meta["mode_residual"] = equation_residual(spec, axes, u, f_vals)
        if "lambda" in spec.grid:
            meta["lambda"] = float(spec.grid["lambda"])
    return SolutionField(axes=axes, values=u, space=space, meta=meta)


# ---------------------------------------------------------------------------
# closed-form oracles (independent quadrature evaluations)

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


def oracle_goursat_constant(a, b, xg, yg):
    """Exact solution of the two-component corner problem with constant
    right side (a, b): first component a(1 - J0-type sum of xy), second b."""
    X, Y = np.meshgrid(np.asarray(xg, float), np.asarray(yg, float),
                       indexing="ij")
    u1 = a * (1.0 - bessel_like_sum(X * Y))
    u2 = np.full_like(u1, float(b))
    return np.stack([u1, u2], axis=-1)


def _exp_weighted_integral(g_half, tgrid, decay=True):
    """I(t_i) = integral_0^{t_i} e^{t_i - s} g(s) ds (or plain integral when
    decay is False), Simpson steps on the half-step samples.  The step
    recursion I_{k+1} = e^h I_k + inc_k is the scan
    I_i = e^{t_i} cumsum_{k<i} e^{-t_{k+1}} inc_k (times from t_0), built
    in place in the result."""
    h = float(tgrid[1] - tgrid[0])
    eh = np.exp(h) if decay else 1.0
    ehalf = np.exp(0.5 * h) if decay else 1.0
    out = np.empty((len(tgrid),) + g_half.shape[1:])
    out[0] = 0.0
    inc = out[1:]
    np.multiply(g_half[:-1:2], eh, out=inc)
    inc += 4.0 * ehalf * g_half[1::2]
    inc += g_half[2::2]
    inc *= h / 6.0
    rel = (tgrid[1:] - tgrid[0]).reshape((-1,) + (1,) * (inc.ndim - 1))
    if decay:
        inc *= np.exp(-rel)
    np.cumsum(inc, axis=0, out=inc)
    if decay:
        inc *= np.exp(rel)
    return out


def _weighted_space_integral(f_vals, grid, weight):
    """Composite Simpson integral of f_vals * weight over the last axis on
    the (possibly irregular) nodes grid, as one product with the weight
    vector; an even node count closes with Cartwright's last-interval
    correction."""
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
    return f_vals @ (w * weight)


def oracle_first_order_evolution(f, tgrid, xgrid):
    """Quadrature evaluation of the exact formula
    u(t,x) = int_0^t e^(t-z) [f(z,x) - 3x int s f(z,s) ds] dz
             - 3x int s f(t,s) ds."""
    tgrid = np.asarray(tgrid, float)
    xgrid = np.asarray(xgrid, float)
    th = _half_grid(tgrid)
    f_half = np.asarray(f(t=th), dtype=float)
    mom_half = _weighted_space_integral(f_half, xgrid, xgrid)
    g_half = f_half - 3.0 * mom_half[:, None] * xgrid[None, :]
    integ = _exp_weighted_integral(g_half, tgrid, decay=True)
    mom_nodes = mom_half[::2]
    return integ - 3.0 * mom_nodes[:, None] * xgrid[None, :]


def oracle_second_order_evolution(f, tgrid, xgrid):
    """Quadrature evaluation of the exact formula
    u(t,x) = int_0^t (e^(t-s) - 1) f(s,x) ds
             - 3x int_0^t e^(t-s) [int s' f(s,s') ds'] ds."""
    tgrid = np.asarray(tgrid, float)
    xgrid = np.asarray(xgrid, float)
    th = _half_grid(tgrid)
    f_half = np.asarray(f(t=th), dtype=float)
    I_exp = _exp_weighted_integral(f_half, tgrid, decay=True)
    I_one = _exp_weighted_integral(f_half, tgrid, decay=False)
    mom_half = _weighted_space_integral(f_half, xgrid, xgrid)
    J = _exp_weighted_integral(mom_half[:, None], tgrid, decay=True)[:, 0]
    return I_exp - I_one - 3.0 * J[:, None] * xgrid[None, :]
