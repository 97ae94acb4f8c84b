"""Family solvers.

`reduce` assembles one regular equation for every family,
L0(D) v + L1(D) M v = (I - Q) f with M = (I - Q) A1 Bplus, and the
family back-ends differ only in how they integrate it: one RK4 march for
the time families, for goursat one trapezoid sweep over the grid's
anti-diagonals that solves the discrete Volterra equation exactly, and
for mixed_xy the finite Chebyshev series of a fit to the data, refused
when the fit misses the data.  The march applies RK4's exact step map to
the companion state (v^(s), ..., v^(r-1)) with a blocked scan over
chunks of steps, O(sqrt(chunk)) products on blocks of rows per chunk in
place of one per step on single rows; the map's blocks are polynomials
in M, a scalar plus a rank-k core when M = c I + U V^T or a diagonal (a
step costs O(d k)), folded into matrices otherwise.  evolution2 recovers v
from v' with RK4's own weights and a cumsum.  Every back-end applies M
through its factors.
An f kept as R separated terms a_r(t) b_r(x) on an M = c I + U V^T
marches R + k wide, in a span M maps into itself, and is never sampled;
any other f is sampled once, a block of half-step rows at a time
(spaces.row_blocks), and each block feeds the march's forcing, the beta
rows and the compatibility projection.  The march holds its state one
chunk of steps at a time, and u is written over v, so that the solve
holds one u-sized array, never f.
The mixed_xy fit's degree and tolerance are module constants.  Each
back-end then runs the triangular C-recursion; `solve_family`, the one entry
point, reassembles the full solution and returns it as a
`SolutionField` on the back-end's sample axes.
`write_solution_csv` builds the display view of that record only when it
writes: grid spaces unroll onto their own axis, a time axis is strided
and mode spaces get a sine synthesis.
"""

import itertools
import math
from dataclasses import dataclass, field

import numpy as np
import numpy.polynomial.chebyshev as cheb

from .errors import (CompatibilityError, ConfigurationError, EvaluationError,
                     UsageError)
from .reduction import (FAMILIES, _sample_f, beta_tables, compat_projection,
                        compat_residual, equation_residual,
                        reconstruct_solution, rhs_projection,
                        solve_C_recurrence)
from .spaces import (BLOCK, FACTORED_WIDTH_SHARE, FiniteOperator, compose,
                     euclidean_space, row_blocks)

MIXED_FIT_DEGREE = 32
MIXED_FIT_TOL = 1e-10
COMPAT_TOL = 1e-6
CSV_TIME_STEPS = 20     # time steps the CSV view keeps, about
CSV_SINE_NODES = 17     # sine synthesis nodes per axis of the CSV view
CSV_BLOCK = 1 << 12     # values the CSV writer formats at once: its strings
                        # are live together, so larger blocks raise peak RSS
MARCH_CHUNK = 1 << 10   # steps _march scans at once: its state is a chunk
                        # long, and shorter chunks cost the scan more calls


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
    components, floats via repr.  Slabs of the leading axis go in blocks
    of at most CSV_BLOCK values (at least one slab); each block takes one
    repr per distinct bit pattern, so -0.0 keeps its sign.  Returns the
    number of value rows."""
    axes, values = _csv_view(fld)
    names = [name for name, _ in axes]
    labels = [[repr(x) + "," for x in g.tolist()] for _, g in axes]
    leads = labels[0] if labels else [""]
    prefixes = [tail + f"{comp},"
                for tail in map("".join, itertools.product(*labels[1:]))
                for comp in range(values.shape[-1])]
    n = len(prefixes)
    slabs = values.reshape(len(leads), n)
    step = max(1, CSV_BLOCK // max(1, n))
    row = [None] * (3 * n)
    row[1::3] = prefixes
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(names + ["component", "value"]) + "\n")
        for lo in range(0, len(leads), step):
            bits = np.ascontiguousarray(slabs[lo:lo + step]).view(np.int64)
            uniq, inverse = np.unique(bits, return_inverse=True)
            strs = np.array([repr(v) + "\n" for v in uniq.view(float).tolist()],
                            dtype=object)[inverse.reshape(bits.shape)]
            for lead, slab in zip(leads[lo:lo + step], strs):
                row[0::3] = [lead] * n
                row[2::3] = slab.tolist()
                fh.write("".join(row))
            del strs, slab   # before the next block forms its strings
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
    lo, hi = spec.box["t"]
    step = float(spec.grid["dt"])
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


def _march(M, r, s, g_rows, tgrid):
    """Classical RK4 from zero data for v^(r) = g - M v^(s), s <= 1, g
    sampled on the half-step grid and M a FiniteOperator; returns v at
    the nodes.  g_rows(rows) gives g on a slice of the 2 nt + 1 half-step
    rows; the march asks for each row once, in order, in the blocks
    (row_blocks of width dim) that apply_to_samples forms its rows in, so
    that g has the bits of one whole-array projection.

    On a linear system one RK4 step is the affine map z -> R(Z) z + b_n,
    Z = hA and R(z) = sum_{j<=4} z^j / j! the stability function (Hairer,
    Norsett & Wanner, Solving ODEs I, II.1).  The state is the companion
    z = (v^(s), ..., v^(r-1)) of q = r - s blocks: A has identity blocks
    above its diagonal and -M in its corner, so every block of a
    polynomial in Z is a polynomial in N = -h M.  M = c I + U V^T, or a
    diagonal, gives N = a I + X V^T (a per coordinate when X has no
    columns); any other M enters as a = 0, X = N, V = I.  A block is then
    a pair p I + X C V^T, and P = R(Z), the forcing and P^L are tables of
    such pairs (_table_product), applied through the factors or, past
    FACTORED_WIDTH_SHARE, folded (_table_map); the powers of Z come by
    shifting (_times_Z).  _scan marches z_(n+1) = P z_n + b_n over chunks
    of MARCH_CHUNK steps, each starting from the last state of the one
    before, so that the state is held one chunk at a time; the forcing is
    formed for the whole steps of the chunk in each block of g as it
    arrives, the rows of an unfinished step carried to the next block or
    chunk, and the scan's block starts chain through P^L when binary
    powering costs fewer flops than L plain steps through M (_power_pays),
    and through those steps otherwise.  Once a chunk is scanned its rows
    of v go into the result: block 0 of z for s = 0, and for s = 1 RK4's
    own quadrature of v' = z_0, summed by a cumsum that carries the
    running sum across chunks; its g term is formed with the forcing, so
    that no row of g is held past its block.  v is the one (nt + 1, d)
    array the march allocates."""
    h = float(tgrid[1] - tgrid[0])
    nt, d, q = len(tgrid) - 1, M.domain.dim, r - s
    if M.dense is None and (not M.U.shape[1] or np.all(M.diag == M.diag[0])):
        a, X, V = -h * (M.diag[0] if M.U.shape[1] else M.diag), -h * M.U, M.V
    else:
        a, X, V = 0.0, -h * M.matrix, np.eye(d)
    G, k = V.T @ X, X.shape[1]
    # Z^0 .. Z^4, Z with h I above the diagonal and N = (a, I) in the corner
    one = np.zeros((q, q) + np.shape(a))
    one[range(q), range(q)] = 1.0
    pZ, CZ = np.zeros_like(one), np.zeros((q, q, k, k))
    pZ[range(q - 1), range(1, q)] = h
    pZ[q - 1, 0], CZ[q - 1, 0] = a, np.eye(k)
    powers = [(one, np.zeros_like(CZ)), (pZ, CZ)]
    for _ in range(3):
        powers.append(_times_Z(powers[-1], h, a, G))
    ps, Cs = (np.stack(x) for x in zip(*powers))

    def poly(*coef):
        return tuple(np.tensordot(coef, x[:len(coef)], 1) for x in (ps, Cs))

    def blocks(scale, tables, rows, cols):
        # the blocks (rows, cols) of the tables side by side, scaled
        return _table_map(tuple(scale * np.concatenate([t[i][rows, cols] for t in tables], 1)
                                for i in (0, 1)), X, V)

    c, g_in = h / 6.0, slice(q - 1, q)      # g enters the last block
    forcing = blocks(1.0, (poly(1, 1, 1 / 2, 1 / 4), poly(4, 2, 1 / 2)), slice(None), g_in)
    if s:
        # dv_n = h [Q3 z_n + c (Q1 e g0 + Q2 e gm)] in block 0, then v by a cumsum
        Qg = blocks(h * c, (poly(1, 1 / 2, 1 / 4), poly(2, 1 / 2)), slice(1), g_in)
        Qw = blocks(h, (poly(1, 1 / 2, 1 / 6, 1 / 24),), slice(1), slice(None))
    chunk = min(nt, MARCH_CHUNK)
    P, L = poly(1, 1, 1 / 2, 1 / 6, 1 / 24), _block_length(chunk)
    if _power_pays(nt, L, q, d, k, np.ndim(a), M):
        step_L = _table_map(_table_power(P, L, G), X, V)
    else:
        def step_L(start):
            for _ in range(L):
                start = _rk4_step(M, h, start)
            return start
    step = _table_map(P, X, V)
    # w[0] is the chunk's start z_first; w[1:] holds the forcing
    # b_n = c (F0 e g0 + Fm e gm + e g1), e the last block, until _scan
    # adds P w_n to w_(n + 1)
    w = np.empty((chunk + 1, q, d))
    w[0] = 0.0
    # s = 1 sums into v as the forcing forms; s = 0 first writes it after
    # a scan, so that the forcing's temporaries never meet it
    v = np.empty((nt + 1, d)) if s else None
    g_blocks = map(g_rows, row_blocks(2 * nt + 1, d))
    g = np.empty((0, d))     # g[0] is half-step row 2 (first + j)
    for first in range(0, nt, chunk):
        m, j = min(chunk, nt - first), 0    # the chunk's steps, those formed
        while j < m:
            if len(g) < 3:    # no whole step left: the next block of g
                g = np.concatenate([g, next(g_blocks)])
                continue
            n = min((len(g) - 1) // 2, m - j)
            pairs = g[:2 * n].reshape(-1, 2, d)     # (g0, gm) of each step
            b = w[1 + j:1 + j + n]
            b[:] = forcing(pairs)
            b[:, q - 1] += g[2:2 * n + 1:2]
            b *= c
            if s:
                v[1 + first + j:1 + first + j + n, None] = Qg(pairs)
            g, j = g[2 * n:], j + n
        _scan(w[:m + 1], step, step_L, L)
        if v is None:
            v = np.empty((nt + 1, d))
        out = v[1 + first:1 + first + m]
        if s == 0:
            out[:] = w[1:m + 1, 0]
        else:
            out[:, None] += Qw(w[:m])
            if first:
                out[0] += v[first]    # so that the chunks cumsum as one
            np.cumsum(out, axis=0, out=out)
        w[0] = w[m]
    v[0] = 0.0
    return v


def _power_pays(nt, L, q, d, k, per_coordinate, M):
    """Whether forming step^L by binary powering (_table_power) costs fewer
    flops than carrying the about nt // L - 1 chained block starts of the
    march's chunks through L plain steps (_rk4_step, four products by M
    on one row).  A product of (q, q) tables of k-wide cores costs about
    q^3 k^3 (q^3 d when the scalar parts hold one value per coordinate).
    A product on one row counts as no less than a row block of BLOCK
    entries, the size the blocked passes spread numpy's per-call cost
    over; with one BLAS thread that puts the dense-M switch near d = 130,
    where the two paths time alike."""
    products = L.bit_length() + bin(L).count("1") - 2
    product = q ** 3 * (k ** 3 + k * k + (d if per_coordinate else 1))
    by_M = d * d if M.dense is not None else d * (1 + 2 * M.U.shape[1])
    return products * product < (nt // L - 1) * L * 4 * max(by_M, BLOCK)


def _times_Z(A, h, a, G):
    """The table product A Z (_table_product's numbers) for Z with h I
    above the diagonal and (a, I) in its corner, by shifting: column
    j >= 1 of A Z is h times column j - 1 of A, and column 0 is A's last
    column times (a, I)."""
    p1, C1 = A
    p, C = np.zeros_like(p1), np.zeros_like(C1)
    p[:, 1:], p[:, 0] = p1[:, :-1] * h, p1[:, -1] * a
    if not G.size:
        return p, C1
    last = C1[:, -1]
    C[:, 1:] = C1[:, :-1] * h
    C[:, 0] = (p1[:, -1, None, None] * np.eye(len(G)) + last * a) + last @ G
    return p, C


def _rk4_step(M, h, z):
    """R(Z) z for one companion row z = (z_0, ..., z_(q-1)), by Horner in
    Z with Z z = (h z_1, ..., h z_(q-1), -h M z_0): four products by M."""
    y = z
    for c in (1 / 4, 1 / 3, 1 / 2, 1.0):
        Zy = np.empty_like(y)
        Zy[:-1] = h * y[1:]
        Zy[-1] = -h * M.apply(y[0])
        y = z + c * Zy
    return y


def _table_product(A, B, G):
    """The product of two tables of pairs, block (i, j) of a table (p, C)
    standing for p[i, j] I + X C[i, j] V^T with G = V^T X: block (i, j) is
    the sum over l of (p1 p2, p1 C2 + p2 C1 + C1 G C2).  p holds a scalar
    per block, or one per coordinate when X has no columns."""
    (p1, C1), (p2, C2) = A, B
    p = np.einsum("il...,lj...->ij...", p1, p2)
    if not G.size:
        return p, C1
    return p, (np.einsum("il,ljab->ijab", p1, C2) + np.einsum("ilab,lj->ijab", C1, p2)
               + np.tensordot(C1 @ G, C2, ([1, 3], [0, 2])).transpose(0, 2, 1, 3))


def _table_power(P, n, G):
    """P^n, n >= 1, for a square table of pairs, by binary powering."""
    if n == 1:
        return P
    half = _table_power(_table_product(P, P, G), n // 2, G)
    return _table_product(half, P, G) if n % 2 else half


def _table_map(table, X, V):
    """rows -> rows P^T for a table P of pairs, on rows of shape (..., q_in,
    d): block i of the result is sum_j P[i, j] row_j.  The scalar parts act
    per block, the cores through one product with V and one with the
    (q_in k, q_out d) matrix of (X C)^T.  Cores wider than
    FACTORED_WIDTH_SHARE of d fold with X and V into one (q_in d, q_out d)
    matrix."""
    p, C = table
    qo, qi, k = C.shape[:3]
    d = len(X)
    if k > FACTORED_WIDTH_SHARE * d:
        E = X @ C @ V.T
        E[..., range(d), range(d)] += p[..., None]
        T = E.transpose(1, 3, 0, 2).reshape(qi * d, qo * d)
        return lambda rows: (rows.reshape(-1, qi * d) @ T).reshape(rows.shape[:-2] + (qo, d))
    W = np.einsum("ijba,eb->jaie", C, X).reshape(qi * k, qo * d)

    def apply(rows):
        z = rows.reshape(-1, qi, d)
        out = np.einsum("ij...,nj...->ni...", p, z)
        if k:
            # 2-D before V: on (n, 1, d) rows matmul would run n products;
            # np.dot, as in apply_to_samples, for the width qi k = 1
            out += np.dot((z.reshape(-1, d) @ V).reshape(len(z), qi * k), W).reshape(out.shape)
        return out.reshape(rows.shape[:-2] + (qo, d))
    return apply


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
    blocks in place of nt calls on single rows.  A row is an array of
    any shape, w[n]."""
    nt, row = w.shape[0] - 1, w.shape[1:]
    B = nt // L
    body = w[1:1 + B * L].reshape((B, L) + row)
    for m in range(1, L):
        body[:, m] += step(body[:, m - 1])
    starts = np.empty((B,) + row)
    starts[:1] = w[0]
    for j in range(1, B):
        starts[j] = body[j - 1, -1] + step_L(starts[j - 1])
    for m in range(L):
        starts = step(starts)
        body[:, m] += starts
    for n in range(B * L, nt):
        w[n + 1] += step(w[n])


def _cumulative_from_zero(samples, grid, axis=0):
    """Cumulative trapezoid integral of samples along axis, 0 at the
    first node: sums of neighbours times the half steps, then a cumsum.
    Past axis 0 the half steps multiply the trailing axes merged into one,
    so that numpy's inner loop runs over all of them, not over the last."""
    y = np.asarray(samples, dtype=float)
    lead = (slice(None),) * axis
    tail, head = lead + (slice(1, None),), lead + (slice(None, -1),)
    half = np.diff(grid) / 2.0
    out = np.empty(y.shape)
    out[lead + (0,)] = 0.0
    acc = np.add(y[tail], y[head], out=out[tail])
    if axis:
        inner = int(np.prod(y.shape[axis + 1:]))
        # a view: out is C-ordered, so its trailing axes merge
        merged = acc.reshape(acc.shape[:axis] + (-1,))
        merged *= np.repeat(half, inner)
    else:
        acc *= half.reshape((-1,) + (1,) * (y.ndim - 1))
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

    The regular part v^(r) = g - M v^(s), g = (I - Q) f, marches with
    RK4's step map on the companion state (`_march`), for evolution2 v'
    and then v by RK4's quadrature of v', once _refuse_unstable_step has
    passed h.  An f kept as separated terms (f.separated) on an
    M = c I + U V^T marches R + k wide and is never sampled
    (_separated_march); any other f is sampled once, d wide, on the blocks
    of half-step rows the march asks for, and each block fills its rows of
    beta and of the compatibility projection (at the nodes, the even rows)
    as it projects g.  The meta's "march" names the route.
    The C-recursion runs on the half-step grid, inverting L1 = D_t^s by
    identity or Simpson."""
    spec, js, M = rp.system, rp.js, rp.M
    (r,), (s,) = FAMILIES[spec.family].L
    tgrid = _time_grid(spec)
    th = _half_grid(tgrid)
    if r - s == 1:
        _refuse_unstable_step(M, float(tgrid[1] - tgrid[0]))
    terms = getattr(spec.f, "separated", None)
    if terms is not None and M.dense is None and np.all(M.diag == M.diag[0]):
        v, beta, f_psi = _separated_march(rp, r, s, terms, tgrid, th)
        R = len(terms[1])
        route = f"f in {R} separated term{'s' * (R > 1)}, width {R + M.U.shape[1]}"
    else:
        beta = np.empty((len(th), js.k))
        f_psi = np.empty((len(tgrid), js.psi_extra.shape[1]))

        def projected(rows):
            f = _sample_f(spec, [("t", th)], rows)
            beta[rows] = beta_tables(rp, f)
            f_psi[(rows.start + 1) // 2:(rows.stop + 1) // 2] = compat_projection(
                rp, f[rows.start % 2::2])
            return rhs_projection(rp, f)

        # the march asks for every row, so beta and f_psi are whole when it returns
        v = _march(M, r, s, projected, tgrid)
        route = f"f sampled, width {M.domain.dim}"
    # chains of length > 1 differentiate the projections repeatedly; the
    # half-step grid and 4th-order stencils keep the C error at the RK4
    # scale, and the Simpson lead matches the RK4 stage accuracy
    lead = ((lambda rhs: rhs) if s == 0
            else (lambda rhs: _cumulative_simpson_half(rhs, th)))
    C_half = solve_C_recurrence(rp, beta, [("t", th)], lead, accuracy=4)
    return ([("t", tgrid)], f_psi, v, C_half[::2],
            {"dt": float(tgrid[1] - tgrid[0]), "march": route})


def _separated_march(rp, r, s, terms, tgrid, th):
    """v, beta and f_psi for f = a(t) B, B the (R, d) space factors, on
    M = c I + U V^T.  The rows of E = [G ; U^T], G the rows (I - Q) b_r,
    span a space M maps into itself: M G^T = c G^T + U (V^T G^T) and
    M U = U (c I + V^T U).  So v = y E, y marching the same equation with
    forcing [a(t), 0] and the w x w map c I + [0 ; I_k] [G V ; U^T V]^T,
    w = R + k; RK4, invariant under linear changes of variables (Hairer,
    Norsett & Wanner, Solving ODEs I, II.1), gives the v of the d-wide
    march up to rounding.  beta and f_psi are a(t) times the projections
    of B; v is written a row block at a time."""
    M, (time, space) = rp.M, terms
    a = np.asarray(time(t=th), dtype=float)
    E = np.vstack([rhs_projection(rp, space), M.U.T])
    (w, d), k = E.shape, M.U.shape[1]
    couple = np.zeros((w, k))
    couple[w - k:] = np.eye(k)
    sub = euclidean_space(w)
    reduced = FiniteOperator(None, sub, sub, np.full(w, M.diag[0]), couple, E @ M.V)
    forcing = np.zeros((len(th), w))
    forcing[:, :len(space)] = a
    y = _march(reduced, r, s, forcing.__getitem__, tgrid)
    v = np.empty((len(tgrid), d))
    for rows in row_blocks(len(v), d):
        v[rows] = np.dot(y[rows], E)
    return v, a @ beta_tables(rp, space), a[::2] @ compat_projection(rp, space)


def _rk4_stable(z):
    """|R(z)| <= 1 for RK4's stability polynomial R, with a rounding slack:
    on the imaginary axis |R| = 1 - O(z^6) near 0."""
    return np.abs(1 + z * (1 + z * (1 / 2 + z * (1 / 6 + z / 24)))) <= 1 + 1e-12


def _refuse_unstable_step(M, h):
    """Refuse a step h at which RK4 amplifies a mode the equation damps:
    |R(-h mu)| > 1 for an eigenvalue mu of M with Re mu >= 0, the marched
    state being first order in t (r - s = 1).  The eigenvalues come from
    M's factors: c and c + eig(V^T U) for M = c I + U V^T, the entries of
    a diagonal, eigvals otherwise.  RK4's region reaches 2.6 to 3 along
    each ray of the left half-plane and is star-shaped there, so a step
    with h d max|M_ij| <= 2.6, a bound on h |mu|, passes without them, and
    the largest stable step, which the refusal names, is the least reach
    over |mu|, each reach found by bisection."""
    if h * M.domain.dim * M.entry_bound() <= 2.6:
        return
    if M.dense is None and not M.U.shape[1]:
        mu = M.diag
    elif M.dense is None and np.all(M.diag == M.diag[0]):
        mu = np.append(np.linalg.eigvals(M.V.T @ M.U) + M.diag[0], M.diag[0])
    else:
        mu = np.linalg.eigvals(M.matrix)
    mu = mu[(mu.real >= 0) & (mu != 0)]
    if _rk4_stable(-h * mu).all():
        return
    unit, lo, hi = mu / np.abs(mu), np.zeros(len(mu)), np.full(len(mu), 3.0)
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        ok = _rk4_stable(-mid * unit)
        lo, hi = np.where(ok, mid, lo), np.where(ok, hi, mid)
    largest = float((lo / np.abs(mu)).min())
    # three significant digits, rounded down so that the step named is stable
    scale = 10.0 ** (math.floor(math.log10(largest)) - 2)
    raise ConfigurationError(
        f"time step {h:g} is outside RK4's stability region on a decaying "
        f"mode of M (|mu| up to {float(np.abs(mu).max()):.3g}); the largest "
        f"stable step is {math.floor(largest / scale) * scale:.3g}: pass a --dt "
        "at or below it that divides the horizon")


# ---------------------------------------------------------------------------
# Goursat family (trapezoid sweep over the anti-diagonals)

def _solve_goursat(rp):
    """Family goursat: d2/dxdy(Bu) + A1 u = f, data on both axes.

    The regular part solves the discrete Volterra equation
    v = V (w - M v), V the cumulative trapezoid double integral from the
    corner and w = (I - Q) f, exactly, in one sweep over the grid's
    anti-diagonals (_goursat_sweep)."""
    spec = rp.system
    xg, yg = _box_grid(spec, "x"), _box_grid(spec, "y")
    axes = [("x", xg), ("y", yg)]
    f_vals = _sample_f(spec, axes)
    v = _goursat_sweep(rp.M, rhs_projection(rp, f_vals), xg, yg)
    C = solve_C_recurrence(rp, beta_tables(rp, f_vals), axes,
                           lambda rhs: rhs)
    return (axes, compat_projection(rp, f_vals), v, C,
            {"dx": float(xg[1] - xg[0]), "dy": float(yg[1] - yg[0])})


def _goursat_sweep(M, w, xg, yg):
    """The v on the (nx, ny) grid of uniform axes xg, yg that solves
    v = V (w - M v) exactly, V the cumulative trapezoid double integral
    from the corner, written over w (an (nx, ny, d) array the caller
    gives up): the trapezoidal method for Volterra equations (P. Linz,
    Analytical and Numerical Methods for Volterra Equations, SIAM 1985).

    The mixed difference of V over a cell is c = dx dy / 4 times the sum
    of its argument over the cell's four corners, and V is 0 on the rows
    i = 0 and j = 0.  So with P = (M + I / c)^-1 = c (I + c M)^-1 and
    S = (M + I / c) v, every interior node satisfies
    S[i, j] = (I - 2 M P)(S[i-1, j] + S[i, j-1]) - S[i-1, j-1] + G[i, j],
    G the sum of w over the corners of the cell below and left of (i, j),
    and S = 0 on the first rows.  I - 2 M P is 2 (I + c M)^-1 - I with
    its small part M P formed apart, not left to cancel against I.
    Node (i, j) is row i ny + j of the flat (nx ny, d) view, so an
    anti-diagonal i + j = const is a slice of stride ny - 1 and its three
    neighbours are that slice moved back by ny, 1 and ny + 1: each of the
    nx + ny - 3 interior anti-diagonals takes a few numpy operations.
    P comes from the skeleton of M + I / c and M P from compose, through
    M's factors when it keeps them; v = P S then goes over S a row block
    at a time.  A singular I + c M leaves the scheme without a solution
    and is refused."""
    nx, ny, d = w.shape
    c = float(xg[1] - xg[0]) * float(yg[1] - yg[0]) / 4.0
    empty = np.zeros((d, 0))
    skel = M.updated(empty, empty, shift=1.0 / c).skeleton()
    if skel.rank < d:
        raise ConfigurationError(
            f"the trapezoid sweep needs I + (dx dy / 4) M invertible, but it "
            f"has rank {skel.rank} < {d} at nx={nx}, ny={ny} on the box "
            f"x [{xg[0]:g}, {xg[-1]:g}], y [{yg[0]:g}, {yg[-1]:g}]; change nx or ny")
    P = skel.pseudo_inverse()
    MP = compose(M, P)
    pairs = w[1:] + w[:-1]
    np.add(pairs[:, 1:], pairs[:, :-1], out=w[1:, 1:])
    del pairs   # so that the sweep holds w alone
    w[0], w[:, 0] = 0.0, 0.0
    S, step = w.reshape(-1, d), ny - 1
    for diag in range(2, nx + ny - 1):
        at = max(1, diag - step) * step + diag
        stop = min(nx - 1, diag - 1) * step + diag + 1
        near = S[at - ny:stop - ny:step] + S[at - 1:stop - 1:step]
        near -= 2.0 * MP.apply_to_samples(near) + S[at - ny - 1:stop - ny - 1:step]
        S[at:stop:step] += near
    for rows in row_blocks(len(S), d):
        S[rows] = P.apply_to_samples(S[rows])
    return S.reshape(w.shape)


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
    xg, yg = _box_grid(spec, "x"), _box_grid(spec, "y")
    axes = [("x", xg), ("y", yg)]
    f_vals = _sample_f(spec, axes)
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

    C = solve_C_recurrence(rp, beta_tables(rp, f_vals), axes,
                           lambda rhs: _cumulative_from_zero(rhs, yg, axis=1))
    return (axes, compat_projection(rp, f_vals), v, C,
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

def _box_grid(spec, name):
    lo, hi = spec.box[name]
    nodes = int(spec.grid[f"n{name}"])
    if nodes < 5:
        raise UsageError(f"axis {name} needs at least 5 nodes, got {nodes}")
    return np.linspace(float(lo), float(hi), nodes)


# each back-end returns (axes, the compat_projection of f on the axes, v,
# C, solver meta)
SOLVERS = {
    "goursat": _solve_goursat,
    "evolution1": _solve_time,
    "evolution2": _solve_time,
    "mixed_xy": _solve_mixed_xy,
    "spectral3": _solve_time,
}


def solve_family(rp):
    """Integrate the reduced problem with its family's back-end, check
    the unresolvable-direction conditions on v, then reassemble
    u = Bplus v + C Phi over the back-end's v (a tall pencil's u, narrower
    than v, gets its own array) and return u on the back-end's sample
    axes, so that the solve keeps one u-sized array.  Node counts and the
    time step come from the spec's grid table."""
    spec = rp.system
    axes, f_psi, v, C, meta = SOLVERS[spec.family](rp)
    dev = compat_residual(rp, axes, v, f_psi)
    if dev > COMPAT_TOL:
        raise CompatibilityError(
            "compatibility violated: the unresolvable-direction "
            f"conditions fail with residual {dev:.3e}")
    space = rp.js.domain
    # v is the back-end's own, so u goes over it when the widths match
    u = reconstruct_solution(rp, v, C, out=v if v.shape[-1] == space.dim else None)
    stride = _csv_time_stride(axes, space)
    if stride is not None:
        meta["output_stride_t"] = stride
    if space.mode_shape is not None:
        # mode spaces carry their equation residual
        meta["modes"] = space.mode_shape
        meta["mode_residual"] = equation_residual(spec, axes, u)
        if "lambda" in spec.grid:
            meta["lambda"] = float(spec.grid["lambda"])
    return SolutionField(axes=axes, values=u, space=space, meta=meta)
