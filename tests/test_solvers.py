"""Family solvers against closed forms, plus the numerical helpers."""

import functools
import json
import tracemalloc

import numpy as np
import pytest
import scipy.special
from scipy.integrate import cumulative_trapezoid, simpson

from degenpde import solvers, spaces
from degenpde.chains import apply_schmidt_inverse
from degenpde.cli import main
from degenpde.errors import (CompatibilityError, ConfigurationError,
                             EvaluationError, UsageError)
from degenpde.problems import (_exp_weighted_integral, _field, _weighted_space_integral,
                               bessel_like_sum, evaluate_oracle, instantiate,
                               load_problem, oracle_first_order_evolution,
                               oracle_goursat_constant,
                               oracle_second_order_evolution)
from degenpde.reduction import (FAMILIES, DegenerateSystemSpec, equation_residual,
                                reconstruct_solution, reduce, residual_check,
                                rhs_projection)
from degenpde.solvers import (CSV_BLOCK, SolutionField, _block_length,
                              _cumulative_from_zero,
                              _cumulative_simpson_half, _half_grid, _march,
                              _refuse_unstable_step, _scan, _separated_march,
                              _time_grid, check_spectral_parameter,
                              solve_family, write_solution_csv)
from degenpde.spaces import (FACTORED_WIDTH_SHARE, euclidean_space, grid_space,
                             matrix_operator, mode_space, structured_operator)

from conftest import PROBLEMS, grid_samples, kernel_evolution_spec, oracle_on_nodes
from test_fd import derivative_matrix


def naive_cauchy_defect(rp):
    """Constraint defect of the over-determined second-order problem with
    full zero data: pairing of f(0) against the cokernel direction."""
    f0 = np.asarray(rp.system.f(t=np.zeros(1)), dtype=float)[0]
    return abs(rp.js.codomain.inner(f0, rp.js.Psi[:, 0]))


def asymptotic_leading_term(rp, f0):
    """Corner asymptotic of the mixed family: coefficient fields of the
    x^2/2 and (y - x^2/2) terms at the corner value f0 of the right side."""
    js = rp.js
    f0 = np.asarray(f0, dtype=float)
    quad = apply_schmidt_inverse(js, f0)
    first = js.head_columns
    lin = js.Phi[:, first] @ (js.Psi[:, first].T @ (js.codomain.weights * f0))
    return quad, lin


# -- first-order kernel evolution ----------------------------------------------

def _solve_kernel(family, fexpr, **kw):
    spec = kernel_evolution_spec(family, None, **kw)
    xg = spec.B.domain.grid
    spec.f = grid_samples(xg)(fexpr)
    rp = reduce(spec)
    fld = solve_family(rp)
    axes, u = fld.axes, fld.values
    return spec, rp, fld, axes, u


def test_first_order_forcing_x_gives_minus_x():
    spec, rp, fld, axes, u = _solve_kernel("evolution1", lambda t, x: 0 * t + x)
    xg = spec.B.domain.grid
    assert np.abs(u + xg[None, :]).max() <= 1e-9


def test_first_order_constant_forcing_closed_form():
    spec, rp, fld, axes, u = _solve_kernel("evolution1",
                                           lambda t, x: 1.0 + 0 * t + 0 * x)
    xg = spec.B.domain.grid
    t = axes[0][1]
    want = (np.exp(t)[:, None] - 1.0) * (1.0 - 1.5 * xg[None, :]) \
        - 1.5 * xg[None, :]
    assert np.abs(u - want).max() <= 1e-9


def test_first_order_regular_part_stays_orthogonal_to_dual_kernel():
    spec, rp, fld, axes, u = _solve_kernel("evolution1",
                                           lambda t, x: 1.0 + 0 * t + 0 * x)
    sp = spec.B.domain
    v = u @ spec.B.matrix.T
    # <Bu, x> in the space inner product must vanish for every time node
    pair = v @ (sp.weights * sp.grid)
    assert np.abs(pair).max() <= 1e-12 * max(1.0, np.abs(v).max())


def test_first_order_matches_quadrature_oracle():
    for fexpr in (lambda t, x: 0 * t + x,
                  lambda t, x: 1.0 + 0 * t + 0 * x,
                  lambda t, x: np.sin(t) * x ** 2):
        spec, rp, fld, axes, u = _solve_kernel("evolution1", fexpr)
        xg = spec.B.domain.grid
        want = oracle_on_nodes(oracle_first_order_evolution, spec.f, axes[0][1], xg)
        assert np.abs(u - want).max() <= 1e-4


def test_first_order_equation_residual_and_boundary():
    spec, rp, fld, axes, u = _solve_kernel("evolution1",
                                           lambda t, x: 1.0 + 0 * t + 0 * x)
    resid, report = residual_check(rp, fld)
    assert resid <= 5e-6
    assert report["I-Pk d0u/dt0 at t=0"] <= 1e-10


# -- second-order kernel evolution -----------------------------------------------

def test_second_order_forcing_x_gives_minus_tx():
    spec, rp, fld, axes, u = _solve_kernel("evolution2", lambda t, x: 0 * t + x)
    xg = spec.B.domain.grid
    t = axes[0][1]
    assert np.abs(u + t[:, None] * xg[None, :]).max() <= 1e-9


def test_second_order_matches_quadrature_oracle():
    spec, rp, fld, axes, u = _solve_kernel("evolution2",
                                           lambda t, x: 1.0 + 0 * t + 0 * x)
    xg = spec.B.domain.grid
    want = oracle_on_nodes(oracle_second_order_evolution, spec.f, axes[0][1], xg)
    assert np.abs(u - want).max() <= 1e-9


def test_second_order_boundary_conditions_hold():
    spec, rp, fld, axes, u = _solve_kernel("evolution2",
                                           lambda t, x: np.cos(t) * (1 + x))
    resid, report = residual_check(rp, fld)
    assert report["I d0u/dt0 at t=0"] <= 1e-10
    # the derivative in the report is a one-sided stencil, so the check
    # carries the stencil truncation error, not just the condition defect
    assert report["I-Pk d1u/dt1 at t=0"] <= 5e-6


def test_naive_full_data_defect_is_macroscopic():
    spec = kernel_evolution_spec("evolution2", None)
    xg = spec.B.domain.grid
    spec.f = grid_samples(xg)(lambda t, x: 1.0 + 0 * t + 0 * x)
    rp = reduce(spec)
    defect = naive_cauchy_defect(rp)
    # pairing of the constant 1 with the normalized dual kernel direction
    assert defect == pytest.approx(np.sqrt(3.0) / 2.0, abs=1e-10)
    assert defect >= 1e-2


# -- corner (Goursat) family -------------------------------------------------------

def _goursat_spec(f, nodes=201):
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0]])
    A = matrix_operator(np.eye(2))
    return DegenerateSystemSpec(B=B, A1=A, f=f, family="goursat",
                                box={"x": (0.0, 1.0), "y": (0.0, 1.0)},
                                grid={"nx": nodes, "ny": nodes})


def _const_f2(x=None, y=None):
    shape = np.broadcast(x, y).shape
    return np.broadcast_to([1.0, 1.0], shape + (2,)).copy()


def test_goursat_constant_forcing_matches_series_oracle():
    rp = reduce(_goursat_spec(_const_f2))
    fld = solve_family(rp)
    axes, u = fld.axes, fld.values
    xg, yg = axes[0][1], axes[1][1]
    want = oracle_goursat_constant(1.0, 1.0, xg, yg)
    assert np.abs(u - want).max() <= 1e-6


def test_goursat_corner_conditions_hold():
    rp = reduce(_goursat_spec(_const_f2))
    fld = solve_family(rp)
    _, report = residual_check(rp, fld)
    assert report["I-Pk d0u/dx0 at x=0"] <= 1e-10
    assert report["I-Pk d0u/dy0 at y=0"] <= 1e-10


def test_goursat_large_box_converges_at_second_order():
    # [0, 20]^2, where the Bessel series of the closed form cancels: the
    # first component against 1 - J0(2 sqrt(xy)) itself, whose trapezoid
    # error falls 4x per halving of the step
    devs = []
    for nodes in (201, 401, 801):
        spec = _goursat_spec(_const_f2, nodes=nodes)
        spec.box = {"x": (0.0, 20.0), "y": (0.0, 20.0)}
        fld = solve_family(reduce(spec))
        X, Y = np.meshgrid(fld.axes[0][1], fld.axes[1][1], indexing="ij")
        want = 1.0 - scipy.special.j0(2.0 * np.sqrt(X * Y))
        devs.append(float(np.abs(fld.values[..., 0] - want).max()))
        assert np.all(fld.values[..., 1] == 1.0)
    ratios = np.array(devs[:-1]) / devs[1:]
    assert np.all(np.abs(ratios - 4.0) <= 0.3), devs


def _volterra(samples, xg, yg):
    """The cumulative trapezoid double integral from the corner."""
    return _cumulative_from_zero(_cumulative_from_zero(samples, xg, axis=0), yg, axis=1)


@pytest.mark.parametrize("nx, ny", [(21, 37), (37, 21), (5, 5)])
def test_goursat_sweep_solves_the_discrete_volterra_equation(rng, nx, ny):
    # a random dense M on a box off the origin: v = V (w - M v) to rounding
    M = matrix_operator(rng.normal(size=(3, 3)))
    xg, yg = np.linspace(0.5, 1.7, nx), np.linspace(-1.0, 0.3, ny)
    w = rng.normal(size=(nx, ny, 3))
    v = solvers._goursat_sweep(M, w.copy(), xg, yg)
    gap = np.abs(v - _volterra(w - M.apply_to_samples(v), xg, yg)).max()
    assert gap <= 1e-12 * np.abs(v).max()


def test_goursat_sweep_refuses_a_singular_step():
    # A1 = diag(-64, 1) gives M = diag(-64, 0), and on 5 x 5 nodes of
    # [0, 1]^2 dx dy / 4 = 1 / 64, so I + (dx dy / 4) M = diag(0, 1)
    spec = _goursat_spec(_const_f2, nodes=5)
    spec.A1 = matrix_operator(np.diag([-64.0, 1.0]))
    with pytest.raises(ConfigurationError,
                       match=r"I \+ \(dx dy / 4\) M invertible, but it has rank 1 < 2 "
                             r"at nx=5, ny=5 on the box x \[0, 1\], y \[0, 1\]"):
        solve_family(reduce(spec))


# -- mixed-derivative family --------------------------------------------------------

def _mixed_spec(f, nodes=101):
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0]])
    A = matrix_operator(np.eye(2))
    return DegenerateSystemSpec(B=B, A1=A, f=f, family="mixed_xy",
                                box={"x": (0.0, 1.0), "y": (0.0, 1.0)},
                                grid={"nx": nodes, "ny": nodes})


def _mixed_f(f1):
    """Right side (f1(x, y), 1); the second component of u is then y."""
    def f(x=None, y=None):
        X, Y = np.broadcast_arrays(np.asarray(x, float), np.asarray(y, float))
        return np.stack([f1(X, Y), np.ones_like(X)], axis=-1)
    return f


def test_mixed_constant_forcing_exact_solution():
    rp = reduce(_mixed_spec(_const_f2))
    fld = solve_family(rp)
    axes, u = fld.axes, fld.values
    xg, yg = axes[0][1], axes[1][1]
    want = np.stack(np.meshgrid(xg ** 2 / 2.0, yg, indexing="ij"), axis=-1)
    assert np.abs(u - want).max() <= 1e-10
    resid, _ = residual_check(rp, fld)
    assert resid <= 1e-10
    assert fld.meta["series_terms"] == 1
    assert fld.meta["fit_residual"] <= 1e-14


_SQ = np.sqrt(-20j)


def _x2_sin(a, b):
    """Manufactured u1 = x^2 sin(a x + b y) and its f1 = u1_xx + u1_y."""
    def f1(x, y):
        s, c = np.sin(a * x + b * y), np.cos(a * x + b * y)
        return 2 * s + 4 * a * x * c - a * a * x ** 2 * s + b * x ** 2 * c
    return f1, lambda x, y: x ** 2 * np.sin(a * x + b * y)


@pytest.mark.parametrize("f1, u1", [
    (lambda x, y: np.exp(x) * y,
     lambda x, y: ((np.exp(x) - 1 - x) * y
                   - (np.exp(x) - 1 - x - x ** 2 / 2 - x ** 3 / 6))),
    (lambda x, y: np.sin(5 * x) * y,
     lambda x, y: ((x / 5 - np.sin(5 * x) / 25) * y - x ** 3 / 30 + x / 125
                   - np.sin(5 * x) / 625)),
    (lambda x, y: x * np.sin(20 * y),
     lambda x, y: np.imag(np.exp(20j * y) * (np.sinh(_SQ * x) - _SQ * x)
                          / _SQ ** 3)),
    _x2_sin(5.0, 3.0),
    _x2_sin(0.0, 20.0),
], ids=["exp(x)y", "sin(5x)y", "x-sin(20y)", "x2-sin(5x+3y)", "x2-sin(20y)"])
def test_mixed_smooth_forcing_matches_closed_form(f1, u1):
    # u1_xx + u1_y = f1, u1 = u1_x = 0 at x = 0; the second component is y
    rp = reduce(_mixed_spec(_mixed_f(f1)))
    fld = solve_family(rp)
    axes, u = fld.axes, fld.values
    X, Y = np.meshgrid(axes[0][1], axes[1][1], indexing="ij")
    assert np.abs(u[..., 0] - u1(X, Y)).max() <= 1e-6
    assert np.abs(u[..., 1] - Y).max() <= 1e-12
    assert fld.meta["fit_residual"] <= 1e-10


@pytest.mark.parametrize("nodes", [101, 401])
def test_mixed_rough_forcing_is_refused(nodes):
    # sin(150 x) is not resolved by a degree-32 fit; the ill-posed Cauchy
    # problem has no answer to give for it on this grid
    rp = reduce(_mixed_spec(_mixed_f(lambda x, y: np.sin(150.0 * x)), nodes))
    with pytest.raises(ConfigurationError, match="not resolved"):
        solve_family(rp)


def test_mixed_corner_asymptotic_coefficients():
    rp = reduce(_mixed_spec(_const_f2))
    quad, lin = asymptotic_leading_term(rp, np.array([1.0, 1.0]))
    np.testing.assert_allclose(quad, [1.0, 1.0], atol=1e-9)
    np.testing.assert_allclose(lin, [0.0, 1.0], atol=1e-9)


def test_corner_asymptotic_refuses_a_non_square_structure():
    # the wide pencil of test_wide_pair_keeps_extra_kernel_direction keeps an
    # unpaired kernel direction, so there is no bordered inverse to apply
    B = matrix_operator([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    A = matrix_operator([[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    rp = reduce(DegenerateSystemSpec(B=B, A1=A, f=None, family="evolution1",
                                     box={"t": (0.0, 1.0)}))
    assert rp.js.nu == 1
    with pytest.raises(ConfigurationError, match="needs a square structure"):
        asymptotic_leading_term(rp, np.array([1.0, 1.0]))


# -- spectral third-order family -------------------------------------------------

def _spectral_spec(nmodes=4, mmodes=4, lam=5.0, dt=1e-3):
    total = nmodes * mmodes
    n_idx = np.repeat(np.arange(1, nmodes + 1), mmodes)
    m_idx = np.tile(np.arange(1, mmodes + 1), nmodes)
    sp = mode_space(nmodes, mmodes)
    B = matrix_operator(np.diag(1.0 - n_idx.astype(float) ** 2),
                        domain=sp, codomain=sp)
    A = matrix_operator(np.diag(lam - m_idx.astype(float) ** 2),
                        domain=sp, codomain=sp)
    def f(t=None):
        t = np.asarray(t, dtype=float)
        coeff = np.zeros((len(t), total))
        coeff[:, 0 * mmodes + 1] = np.exp(-t)   # mode (1, 2)
        coeff[:, 1 * mmodes + 0] = np.exp(-t)   # mode (2, 1)
        return coeff

    return DegenerateSystemSpec(B=B, A1=A, f=f, family="spectral3",
                                box={"t": (0.0, 1.0)},
                                grid={"dt": dt, "modes": (nmodes, mmodes),
                                      "lambda": lam})


def test_spectral_kernel_row_is_algebraic():
    rp = reduce(_spectral_spec())
    fld = solve_family(rp)
    axes, u_modes = fld.axes, fld.values
    t = axes[0][1]
    # row n = 1 solves (lambda - m^2) u = f exactly, here u_12 = e^-t / 1
    np.testing.assert_allclose(u_modes[:, 1], np.exp(-t), atol=1e-12)
    assert fld.meta["mode_residual"] <= 1e-4
    assert fld.meta["modes"] == (4, 4)


def test_spectral_marching_row_satisfies_equation():
    rp = reduce(_spectral_spec())
    fld = solve_family(rp)
    axes, u_modes = fld.axes, fld.values
    t = axes[0][1]
    # mode (2, 1): -3 u''' + 4 u = e^-t with zero initial data
    h = t[1] - t[0]
    D3 = derivative_matrix(len(t), h, 3)
    resid = -3.0 * (D3 @ u_modes[:, 4]) + 4.0 * u_modes[:, 4] - np.exp(-t)
    assert np.abs(resid[3:-3]).max() <= 1e-4
    assert np.abs(u_modes[0, 4]) <= 1e-14


def test_spectral_resonant_parameter_rejected():
    with pytest.raises(CompatibilityError, match="resonant lambda"):
        check_spectral_parameter(4.0, 4, 4)
    with pytest.raises(CompatibilityError, match=r"singular algebraic row.*m=4"):
        check_spectral_parameter(16.0, 2, 5)


@pytest.mark.parametrize("b0, chains", [(4.0, 4), (2.0, 0)])
def test_spectral_solves_declared_mode_pencil(b0, chains):
    # B = diag(b0 - n^2): kernel at n = 2 for b0 = 4, invertible for b0 = 2;
    # the back-end reads the declared pencil, not fixed mode tables
    spec = _spectral_spec()
    n_idx = np.repeat(np.arange(1, 5), 4).astype(float)
    spec.B = matrix_operator(np.diag(b0 - n_idx ** 2),
                             domain=spec.B.domain, codomain=spec.B.codomain)
    rp = reduce(spec)
    assert rp.js.l == chains
    fld = solve_family(rp)
    resid, report = residual_check(rp, fld)
    assert resid <= 1e-4
    assert fld.meta["mode_residual"] == resid
    assert report["I-Pk d0u/dt0 at t=0"] == 0.0


def test_spectral_march_keeps_only_the_solution_history(monkeypatch):
    from degenpde import solvers
    shapes = []

    def recording(M, r, s, g_rows, tgrid):
        out = _march(M, r, s, g_rows, tgrid)
        shapes.append(((r, s), out.shape))
        return out

    monkeypatch.setattr(solvers, "_march", recording)
    rp = reduce(_spectral_spec(dt=1e-2))
    solve_family(rp)
    assert shapes == [((3, 0), (101, 16))]


def test_time_family_refuses_rhs_of_wrong_width():
    spec = kernel_evolution_spec("evolution1", None)
    spec.f = lambda t: np.ones((len(t), 200))
    rp = reduce(spec)
    with pytest.raises(ConfigurationError, match="201 components"):
        solve_family(rp)


def _one_too_many(**coords):
    """A library f with one component more than the pencil's dimension."""
    return np.ones(np.broadcast_shapes(*map(np.shape, coords.values())) + (3,))


@pytest.mark.parametrize("make", [_goursat_spec, _mixed_spec], ids=["goursat", "mixed_xy"])
def test_xy_back_ends_refuse_rhs_of_wrong_shape(make):
    rp = reduce(make(_one_too_many, nodes=21))
    with pytest.raises(ConfigurationError,
                       match=r"returned shape \(21, 21, 3\) .* shape \(21, 21, 2\)"):
        solve_family(rp)


@pytest.mark.parametrize("family", ["goursat", "evolution1"])
def test_equation_residual_refuses_rhs_of_wrong_shape(family):
    if family == "goursat":
        spec = _goursat_spec(_const_f2, nodes=21)
        wrong = _one_too_many
    else:
        spec = kernel_evolution_spec(family, grid_samples(np.linspace(0.0, 1.0, 21))(
            lambda t, x: x + 0 * t), nodes=21, t_hi=0.1, dt=1e-2)
        wrong = lambda t: np.ones((len(t), 20))   # noqa: E731
    rp = reduce(spec)
    fld = solve_family(rp)
    spec.f = wrong
    with pytest.raises(ConfigurationError, match="returned shape"):
        equation_residual(spec, fld.axes, fld.values)


def test_a_rhs_vector_broadcasts_over_the_samples():
    # one (dim,) vector stands for every sample point
    want = solve_family(reduce(_goursat_spec(_const_f2, nodes=21))).values
    got = solve_family(reduce(_goursat_spec(lambda x, y: np.ones(2), nodes=21))).values
    assert got.tobytes() == want.tobytes()


# -- numerical helpers -------------------------------------------------------------

def test_time_grid_rejects_bad_steps():
    spec = kernel_evolution_spec("evolution1", None, t_hi=1.0)
    spec.grid["dt"] = 2.0
    with pytest.raises(UsageError, match="invalid for horizon"):
        _time_grid(spec)
    spec.grid["dt"] = 0.3
    with pytest.raises(UsageError, match="does not divide"):
        _time_grid(spec)


def test_cumulative_simpson_half_quadratic_exact():
    t = np.linspace(0.0, 1.0, 21)
    out = _cumulative_simpson_half(t ** 2, t)
    np.testing.assert_allclose(out, t ** 3 / 3.0, atol=1e-14)
    with pytest.raises(ConfigurationError, match="odd"):
        _cumulative_simpson_half(np.zeros(4), np.linspace(0, 1, 4))


def test_cumulative_simpson_half_fourth_order():
    errs = []
    for n in (51, 101):
        t = np.linspace(0.0, 1.0, n)
        out = _cumulative_simpson_half(np.exp(t), t)
        errs.append(np.abs(out - (np.exp(t) - 1.0)).max())
    assert errs[0] / errs[1] >= 14.0


# the numpy quadrature ports reproduce scipy.integrate bit for bit

@pytest.mark.parametrize("shape", [(9,), (9, 4), (5, 9, 3)])
def test_cumulative_from_zero_matches_scipy_bitwise(shape, rng):
    y = rng.standard_normal(shape)
    for axis, n in enumerate(shape):
        for grid in (np.linspace(0.0, 1.0, n), np.sort(rng.uniform(-1.0, 2.0, n))):
            got = _cumulative_from_zero(y, grid, axis=axis)
            want = cumulative_trapezoid(y, x=grid, axis=axis, initial=0.0)
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def _cumulative_by_broadcast(y, grid, axis):
    """_cumulative_from_zero with the steps broadcast along the trailing
    axes: the form before the trailing axes were merged."""
    lead = (slice(None),) * axis
    tail, head = lead + (slice(1, None),), lead + (slice(None, -1),)
    out = np.empty(y.shape)
    out[lead + (0,)] = 0.0
    acc = np.add(y[tail], y[head], out=out[tail])
    acc *= np.diff(grid).reshape((-1,) + (1,) * (y.ndim - axis - 1))
    acc /= 2.0
    np.cumsum(acc, axis=axis, out=acc)
    return out


@pytest.mark.parametrize("shape", [(41, 37, 2), (7, 9, 3, 2), (33, 5)])
def test_cumulative_from_zero_merged_steps_match_the_broadcast_bitwise(shape, rng):
    y = rng.standard_normal(shape)
    for axis, n in enumerate(shape):
        grid = np.sort(rng.uniform(-1.0, 2.0, n))
        got = _cumulative_from_zero(y, grid, axis=axis)
        assert np.array_equal(got, _cumulative_by_broadcast(y, grid, axis))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 200, 201])
def test_weighted_space_integral_matches_scipy_bitwise(n, rng):
    # on each unit vector, that is the Simpson weight vector: even counts
    # take the last-interval correction, which no bundled problem reaches
    for grid in (np.linspace(0.0, 1.0, n), np.sort(rng.uniform(-1.0, 2.0, n))):
        eye = np.eye(n)
        weights = eye @ _weighted_space_integral(grid, np.ones(n))
        assert np.array_equal(weights, simpson(eye, x=grid, axis=-1))


@pytest.mark.parametrize("n", [3, 4, 5, 6, 200, 201])
def test_weighted_space_integral_of_data_matches_scipy_to_rounding(n, rng):
    # one product with the weight vector sums in another order than
    # scipy's panels, so general data agrees to rounding, not bit for bit
    for grid in (np.linspace(0.0, 1.0, n), np.sort(rng.uniform(-1.0, 2.0, n))):
        weights = simpson(np.eye(n), x=grid, axis=-1)
        for _ in range(10):
            for shape in ((n,), (7, n), (3, 4, n)):
                f_vals = rng.standard_normal(shape)
                weight = rng.standard_normal(n)
                got = f_vals @ _weighted_space_integral(grid, weight)
                want = simpson(f_vals * weight, x=grid, axis=-1)
                assert np.shape(got) == np.shape(want)
                scale = np.abs(f_vals) @ np.abs(weights * weight)
                assert np.all(np.abs(got - want) <= 1e-14 * scale)


def test_rk4_march_is_fourth_order():
    errs = []
    for dt in (0.02, 0.01):
        t = np.arange(0.0, 1.0 + dt / 2, dt)
        th = _half_grid(t)
        g = np.cos(th)[:, None]
        out = _march(matrix_operator(np.eye(1)), 1, 0, g.__getitem__, t)
        assert out.shape == (len(t), 1)
        exact = 0.5 * (np.cos(t) + np.sin(t)) - 0.5 * np.exp(-t)
        errs.append(np.abs(out[:, 0] - exact).max())
    assert errs[0] / errs[1] >= 11.0


def _rk4_stage_march(M, r, s, g_half, tgrid):
    """Classical RK4 stages on the first-order system in (v, ..., v^(r-1))
    of v^(r) = g - M v^(s), from zero data; v at the nodes."""
    h = tgrid[1] - tgrid[0]

    def deriv(y, g):
        return np.vstack([y[1:], g - M @ y[s]])

    y = np.zeros((r, M.shape[0]))
    out = [y[0]]
    for i in range(len(tgrid) - 1):
        g0, gm, g1 = g_half[2 * i:2 * i + 3]
        k1 = deriv(y, g0)
        k2 = deriv(y + h / 2 * k1, gm)
        k3 = deriv(y + h / 2 * k2, gm)
        k4 = deriv(y + h * k3, g1)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        out.append(y[0])
    return np.array(out)


@pytest.mark.parametrize("r, s", [(1, 0), (2, 1), (3, 0)])
def test_march_matches_the_rk4_stages(r, s, rng):
    # a random well-conditioned dense M: the step map on the companion
    # state gives the stage loop's numbers to rounding
    d = 7
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    M = Q @ np.diag(rng.uniform(0.5, 2.0, d)) @ Q.T + 0.3 * rng.standard_normal((d, d))
    assert np.linalg.cond(M) <= 50.0
    t = np.linspace(0.0, 2.0, 401)
    g_half = rng.standard_normal((2 * len(t) - 1, d))
    got = _march(matrix_operator(M), r, s, g_half.__getitem__, t)
    want = _rk4_stage_march(M, r, s, g_half, t)
    assert got.shape == (len(t), d)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


SCAN_STEPS = [1, 2, 3, 15, 16, 17, 2001]


def _step_loop(w, step):
    """w[n + 1] = step(w[n]) + w[n + 1], one row at a time."""
    w = w.copy()
    for n in range(len(w) - 1):
        w[n + 1] += step(w[n])
    return w


@pytest.mark.parametrize("nt", SCAN_STEPS)
def test_scan_matches_the_step_loop(nt, rng):
    # a contraction with a rotation in it, on rows of d = 6 numbers and on
    # rows of 3 blocks of 2, the march's companion state; the block length
    # from nt, and one past nt, where every row is in the tail
    d = 6
    Q, _ = np.linalg.qr(rng.standard_normal((d, d)))
    PT = 0.999 * Q + 1e-3 * rng.standard_normal((d, d))

    def through(T):
        return lambda rows: (rows.reshape(-1, d) @ T).reshape(rows.shape)

    for row in ((d,), (3, 2)):
        w = rng.standard_normal((nt + 1,) + row)
        want = _step_loop(w, through(PT))
        for L in (_block_length(nt), nt + 1):
            got = w.copy()
            _scan(got, through(PT), through(np.linalg.matrix_power(PT, L)), L)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("nt", SCAN_STEPS)
def test_scan_calls_its_steps_about_sqrt_nt_times(nt):
    L = _block_length(nt)
    assert (L - 1) ** 2 < nt <= L ** 2
    B = nt // L
    calls = []

    def counting(factor):
        def step(rows):
            calls.append(len(rows))
            return factor * rows
        return step

    w = np.ones((nt + 1, 3))
    _scan(w, counting(0.5), counting(0.5 ** L), L)
    assert len(calls) <= 2 * L + B + (nt - B * L)
    np.testing.assert_allclose(w, _step_loop(np.ones((nt + 1, 3)),
                                             lambda rows: 0.5 * rows),
                               rtol=1e-14)


def _scan_operators(rng, d=9):
    """The operators the march takes: c I + U V^T growing and decaying
    (narrow factors), a diagonal that varies per column (k = 0), c I +
    U V^T with factors wider than FACTORED_WIDTH_SHARE of d (folded), and
    a dense M."""
    sp = euclidean_space(d)
    U, V = 0.3 * rng.standard_normal((d, 2)), rng.standard_normal((d, 2))
    k = int(FACTORED_WIDTH_SHARE * d) + 2
    return {"growing": structured_operator(sp, np.full(d, -40.0), U, V),
            "decaying": structured_operator(sp, np.full(d, 150.0), U, V),
            "diagonal": structured_operator(sp, rng.uniform(-40.0, 150.0, d)),
            "wide": structured_operator(sp, np.full(d, 20.0),
                                        0.3 * rng.standard_normal((d, k)),
                                        rng.standard_normal((d, k))),
            "dense": matrix_operator(np.diag(rng.uniform(0.5, 2.0, d))
                                     + 0.3 * rng.standard_normal((d, d)))}


@pytest.mark.parametrize("kind", ["growing", "decaying", "diagonal", "wide", "dense"])
@pytest.mark.parametrize("r, s", [(1, 0), (2, 1), (3, 0)],
                         ids=["evolution1", "evolution2", "spectral3"])
def test_blocked_march_matches_the_stage_loop(monkeypatch, kind, r, s, rng):
    # every block shape of the scan: nt = L^2, a tail, a single step; then
    # with chunks of 7 steps, in which nt = 1, 2, 3 fit in one chunk and
    # 15, 16, 17 and 2001 span three or more, the last one partial, so the
    # state and evolution2's running sum carry across chunk edges
    M = _scan_operators(rng)[kind]
    if kind == "wide":
        assert M.U.shape[1] > FACTORED_WIDTH_SHARE * M.domain.dim
    assert (M.dense is None) == (kind != "dense")
    for chunk in (solvers.MARCH_CHUNK, 7):
        monkeypatch.setattr(solvers, "MARCH_CHUNK", chunk)
        for nt in SCAN_STEPS:
            t = 1e-3 * np.arange(nt + 1)
            g_half = rng.standard_normal((2 * nt + 1, M.domain.dim))
            got = _march(M, r, s, g_half.__getitem__, t)
            want = _rk4_stage_march(M.matrix, r, s, g_half, t)
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("block", [1, 13, 40])
@pytest.mark.parametrize("kind", ["growing", "dense"])
def test_march_asks_for_each_forcing_row_once_in_row_blocks(monkeypatch, kind, block, rng):
    # with d = 9, a block of 1 row holds no whole step and one of 4 rows
    # ends mid-step: the rows left over carry into the next block
    monkeypatch.setattr(spaces, "BLOCK", block)
    M = _scan_operators(rng)[kind]
    t = 1e-3 * np.arange(18)
    g_half = rng.standard_normal((2 * len(t) - 1, M.domain.dim))
    asked = []
    got = _march(M, 2, 1, lambda rows: asked.append(rows) or g_half[rows], t)
    assert asked == spaces.row_blocks(len(g_half), M.domain.dim)
    want = _rk4_stage_march(M.matrix, 2, 1, g_half, t)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _exp_weighted_loop(g_half, tgrid, decay):
    h = tgrid[1] - tgrid[0]
    eh, ehalf = (np.exp(h), np.exp(h / 2)) if decay else (1.0, 1.0)
    acc = np.zeros(g_half.shape[1:])
    out = [acc]
    for i in range(len(tgrid) - 1):
        g0, gm, g1 = g_half[2 * i:2 * i + 3]
        acc = eh * acc + h / 6 * (eh * g0 + 4 * ehalf * gm + g1)
        out.append(acc)
    return np.array(out)


@pytest.mark.parametrize("decay", [True, False])
@pytest.mark.parametrize("width", [1, 201])
@pytest.mark.parametrize("horizon", [2.0, 20.0])
def test_exp_weighted_integral_scan_matches_the_step_loop(decay, width,
                                                          horizon, rng):
    t = np.linspace(0.0, horizon, 2001)
    g_half = rng.standard_normal((2 * len(t) - 1, width)) + 1.0
    got, _ = _exp_weighted_integral(g_half, t, slice(0, len(t) - 1), decay=decay)
    want = _exp_weighted_loop(g_half, t, decay)
    assert got.shape == want.shape
    assert got[0].tolist() == [0.0] * width
    # g has mean 1, so every later node is checked relative to itself
    assert (np.abs(got - want)[1:] <= 1e-12 * np.abs(want)[1:]).all()


def _one_shot_exp_weighted_integral(g_half, tgrid, decay):
    """The exp-weighted integral as one scan over every step: the Simpson
    increments weighted by e^{-t}, one cumsum, then e^{t}."""
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


@pytest.mark.parametrize("decay", [True, False])
@pytest.mark.parametrize("length", [1, 7, 2000])
def test_carried_exp_weighted_integral_is_the_one_shot_scan(decay, length, rng):
    # each block's first row takes the carry, so the blocks give the
    # one-shot scan's bits
    t = np.linspace(0.0, 2.0, 2001)
    nt = len(t) - 1
    g_half = rng.standard_normal((2 * nt + 1, 5)) + 1.0
    got, carry = [], None
    for lo in range(0, nt, length):
        steps = slice(lo, min(lo + length, nt))
        out, carry = _exp_weighted_integral(g_half[2 * steps.start:2 * steps.stop + 1],
                                            t, steps, carry, decay=decay)
        got.append(out)
    assert np.array_equal(np.concatenate(got),
                          _one_shot_exp_weighted_integral(g_half, t, decay))


@pytest.mark.parametrize("oracle", [oracle_first_order_evolution,
                                    oracle_second_order_evolution])
def test_evolution_oracles_give_one_reference_in_any_blocks(monkeypatch, oracle):
    # one step per block carries every running sum across 2000 block edges;
    # only the space moments' rounding may differ
    xg = grid_space(0.0, 1.0, 201, quadrature="simpson").grid
    t = np.linspace(0.0, 2.0, 2001)
    f = grid_samples(xg)(lambda t, x: 1.0 + np.sin(t) * x ** 2)
    want = oracle_on_nodes(oracle, f, t, xg)
    monkeypatch.setattr(spaces, "BLOCK", 1)
    got = oracle_on_nodes(oracle, f, t, xg)
    assert got.shape == (2001, 201)
    assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()


def test_dense_march_chains_the_block_starts_without_powering(monkeypatch, problems_dir):
    # 16 x 16 modes through dense matrices: step^L by binary powering costs
    # 27 d^3 per product, more than chaining the starts through L steps of
    # four products by M; the narrow factored M of the kernel problems
    # still powers
    powers, real = [], solvers._table_power
    monkeypatch.setattr(solvers, "_table_power",
                        lambda P, n, G: powers.append(n) or real(P, n, G))
    rp = reduce(_spectral_spec(16, 16))
    chained = solve_family(rp).values
    assert powers == []
    # at 8 x 8 modes the single-row products cost more in calls than in flops
    solve_family(reduce(_spectral_spec(8, 8)))
    assert powers[0] == _block_length(1000)
    powers.clear()
    for name in ("example2.json", "example3.json"):
        solve_family(reduce(instantiate(load_problem(problems_dir / name))))
        # nt = 2000 steps march in chunks, each with one block length
        assert powers[0] == _block_length(solvers.MARCH_CHUNK)
        powers.clear()
    monkeypatch.setattr(solvers, "_power_pays", lambda *args: True)
    powered = solve_family(rp).values
    assert powers[0] == _block_length(1000)
    assert np.abs(chained - powered).max() <= 1e-12 * np.abs(powered).max()


def test_time_family_stages_hold_one_solution_and_blocks(problems_dir):
    # verify example2 and example3 at dt 1.25e-4, u = 16001 x 201
    # (25.7 MB): the solve holds v, which u then overwrites, beside one
    # chunk of the march state; the residual check and the oracle hold
    # only blocks of rows beside the solution they read
    for name in ("example2.json", "example3.json"):
        pf = load_problem(problems_dir / name)
        rp = reduce(instantiate(pf, dt=1.25e-4))
        peaks = []

        def stage(run):
            tracemalloc.reset_peak()
            start = tracemalloc.get_traced_memory()[0]
            out = run()
            peaks.append(tracemalloc.get_traced_memory()[1] - start)
            return out

        tracemalloc.start()
        try:
            fld = stage(lambda: solve_family(rp))
            stage(lambda: residual_check(rp, fld))
            stage(lambda: evaluate_oracle(pf, rp, fld))
        finally:
            tracemalloc.stop()
        u = fld.values.nbytes
        assert fld.values.shape == (16001, 201)
        assert peaks[0] <= 1.3 * u, name
        assert max(peaks[1:]) <= 0.25 * u, name


# -- the march of a separated f in an M-invariant subspace ---------------------

def _spy(rp):
    """Replace rp's f by a wrapper, as the bench tracer wraps it (its
    attributes, separated among them, copied), that records every call."""
    calls, sampler = [], rp.system.f

    @functools.wraps(sampler)
    def spy(**coords):
        calls.append(coords)
        return sampler(**coords)

    rp.system.f = spy
    return calls


@pytest.mark.parametrize("dt", [None, 0.00025])
@pytest.mark.parametrize("name, width", [("example2", 2), ("example3", 2),
                                         ("example7", 3)])
def test_separated_and_sampled_march_routes_agree(problems_dir, monkeypatch, name, width, dt):
    # the separated route never calls f; with f.separated taken away the
    # solve samples f, d wide, and gives the same u up to rounding
    rp = reduce(instantiate(load_problem(problems_dir / f"{name}.json"), dt=dt))
    calls = _spy(rp)
    separated = solve_family(rp)
    R = width - 1
    assert separated.meta["march"] == (
        f"f in {R} separated term{'s' * (R > 1)}, width {width}")
    assert calls == []
    monkeypatch.delattr(rp.system.f, "separated")
    sampled = solve_family(rp)
    assert sampled.meta["march"] == "f sampled, width 201"
    assert calls
    want = sampled.values
    assert np.abs(separated.values - want).max() <= 1e-12 * np.abs(want).max()


def _separated_kernel_spec(A1=None, family="evolution1"):
    """The bundled kernel evolution pencil with A1 replaced, and the
    compiled f = 1 + sin(t) x^2, which keeps its two separated terms."""
    spec = kernel_evolution_spec(family, None)
    spec.f = _field("1 + sin(t)*x^2", family, spec.B.domain, {}, "f")
    assert spec.f.separated[1].shape == (2, 201)
    if A1 is not None:
        spec.A1 = A1
    return spec


@pytest.mark.parametrize("family", ["evolution1", "evolution2"])
def test_the_separated_march_couples_through_g_v(monkeypatch, family):
    # on the bundled kernel pencils V^T (I - Q) = 0, so the block G V of
    # the reduced map is 0 there; a low-rank part of A1 makes it nonzero
    # (k = 2, w = 4), and the two routes still agree
    sp = grid_space(0.0, 1.0, 201, "simpson")
    spec = _separated_kernel_spec(structured_operator(
        sp, np.full(201, -1.0), 0.3 * (1 + sp.grid)[:, None], (sp.weights * sp.grid ** 2)[:, None]),
        family)
    rp = reduce(spec)
    assert np.abs(rhs_projection(rp, spec.f.separated[1]) @ rp.M.V).max() > 1.0
    separated = solve_family(rp)
    assert separated.meta["march"] == "f in 2 separated terms, width 4"
    monkeypatch.delattr(spec.f, "separated")
    want = solve_family(rp).values
    assert np.abs(separated.values - want).max() <= 1e-12 * np.abs(want).max()


def test_an_m_with_a_varying_diagonal_samples_f():
    # M = (I - Q) A1 Bplus keeps factors, but diag(A1) varies, so the span
    # of the rows of E is not invariant: the reduced march would miss v
    sp = grid_space(0.0, 1.0, 201, "simpson")
    spec = _separated_kernel_spec(structured_operator(sp, -1.0 - 0.5 * sp.grid))
    rp = reduce(spec)
    assert rp.M.dense is None and np.ptp(rp.M.diag) > 0
    calls = _spy(rp)
    fld = solve_family(rp)
    assert fld.meta["march"] == "f sampled, width 201"
    assert calls
    tgrid = _time_grid(spec)
    v = _separated_march(rp, 1, 0, spec.f.separated, tgrid, _half_grid(tgrid))[0]
    assert np.abs(reconstruct_solution(rp, v, np.zeros((len(tgrid), rp.js.k)))
                  - fld.values).max() > 1e-3


def test_a_dense_m_samples_f_and_matches_its_factored_twin():
    sp = grid_space(0.0, 1.0, 201, "simpson")
    dense = reduce(_separated_kernel_spec(matrix_operator(-np.eye(201), sp, sp)))
    assert dense.M.dense is not None
    calls = _spy(dense)
    got = solve_family(dense)
    assert got.meta["march"] == "f sampled, width 201" and calls
    want = solve_family(reduce(_separated_kernel_spec()))
    assert want.meta["march"] == "f in 2 separated terms, width 3"
    assert np.abs(got.values - want.values).max() <= 1e-12 * np.abs(want.values).max()


@pytest.mark.parametrize("family", ["evolution1", "evolution2"])
def test_a_step_outside_rk4s_stability_region_is_refused(problems_dir, tmp_path,
                                                         monkeypatch, capsys, family):
    # the trapezoid rule without exact_on leaves B = I - K_h nearly singular:
    # M has mu = 8.0e4, so h mu = 80 at dt 1e-3; no route may start
    raw = json.loads((problems_dir / "example2.json").read_text(encoding="utf-8"))
    raw["spaces"]["state"]["quadrature"] = "trapezoid"
    del raw["B"]["exact_on"], raw["oracle"]
    path = tmp_path / "stiff.json"
    path.write_text(json.dumps({**raw, "family": family}), encoding="utf-8")
    monkeypatch.setattr(solvers, "_march", None)
    assert main(["report", str(path)]) == 2
    err = capsys.readouterr().err
    assert "time step 0.001 is outside RK4's stability region" in err
    assert "|mu| up to 8e+04" in err
    assert "the largest stable step is 3.48e-05: pass a --dt" in err


def test_the_refusal_names_the_largest_stable_step():
    sp = euclidean_space(4)
    U = np.zeros((4, 1))
    U[0] = 1.0
    rot = np.array([[0.0, -100.0], [100.0, 0.0]])
    cases = [
        # real mu = 1000: RK4 reaches 2.7853 along the negative real axis
        (structured_operator(sp, np.array([1000.0, 1.0, -5.0, 0.0])), 2.78e-3),
        # mu = 2 + 998 from the factors c and c + V^T U
        (structured_operator(sp, np.full(4, 2.0), U, 998.0 * U), 2.78e-3),
        # mu = +-100 i: RK4 reaches sqrt(8) along the imaginary axis
        (matrix_operator(np.block([[rot, np.zeros((2, 2))],
                                   [np.zeros((2, 2)), np.eye(2)]])), 2.82e-2),
    ]
    for M, largest in cases:
        _refuse_unstable_step(M, largest)
        with pytest.raises(ConfigurationError, match=f"largest stable step is {largest:.3g}:"):
            _refuse_unstable_step(M, 1.01 * largest)
    # modes the equation grows (Re mu < 0) are RK4's to grow too
    _refuse_unstable_step(structured_operator(sp, np.full(4, -1e6)), 1.0)


def test_bessel_like_sum_matches_scipy():
    z = np.linspace(0.0, 4.0, 81)
    want = scipy.special.j0(2.0 * np.sqrt(z))
    assert np.abs(bessel_like_sum(z) - want).max() <= 1e-12


# -- field plumbing ------------------------------------------------------------------

def test_solution_field_validates_inputs():
    with pytest.raises(ConfigurationError, match="does not match axes"):
        SolutionField(axes=(("t", [0.0, 1.0]),), values=np.zeros((3, 1)))
    with pytest.raises(EvaluationError, match="non-finite"):
        SolutionField(axes=(("t", [0.0, 1.0]),),
                      values=np.array([[np.nan], [0.0]]))


def test_csv_writer_golden_bytes(tmp_path):
    fld = SolutionField(axes=(("t", [0.0, 0.5]), ("x", [0.0, 1.0])),
                        values=np.array([[[1.0], [2.0]], [[3.0], [4.0]]]))
    path = tmp_path / "field.csv"
    write_solution_csv(fld, path)
    want = ("t,x,component,value\n"
            "0.0,0.0,0,1.0\n"
            "0.0,1.0,0,2.0\n"
            "0.5,0.0,0,3.0\n"
            "0.5,1.0,0,4.0\n")
    assert path.read_text(encoding="utf-8") == want


def per_value_csv(axes, values):
    """CSV lines, newlines kept, of a field whose display view is its own
    axes and values, rendered one value at a time (a list, so that a
    mismatch reports its first line, not a diff of megabytes)."""
    lines = [",".join([name for name, _ in axes] + ["component", "value"])]
    for idx in np.ndindex(values.shape[:-1]):
        prefix = "".join(repr(float(axes[a][1][i])) + ","
                         for a, i in enumerate(idx))
        for comp in range(values.shape[-1]):
            lines.append(f"{prefix}{comp},{float(values[idx + (comp,)])!r}")
    return [line + "\n" for line in lines]


def read_lines(path):
    return path.read_text(encoding="utf-8").splitlines(keepends=True)


def test_csv_writer_matches_a_per_value_rendering(tmp_path, rng):
    axes = (("t", [0.0, 0.25, 1.0 / 3.0]), ("x", [0.1, 0.2]),
            ("y", [-1.5, 0.0, 2.0, 1e-300]))
    shape = (3, 2, 4, 2)
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 20, shape)
    fld = SolutionField(axes=axes, values=values)
    path = tmp_path / "field.csv"
    write_solution_csv(fld, path)
    assert read_lines(path) == per_value_csv(axes, values)
    scalar = SolutionField(axes=(), values=np.array([0.5, -2.0]))
    write_solution_csv(scalar, path)
    assert path.read_text(encoding="utf-8") == "component,value\n0,0.5\n1,-2.0\n"


def test_csv_writer_spans_several_blocks(tmp_path, rng):
    # repeated values, both zeros, the least subnormal and reprs of 3 to
    # 24 characters, spread over several blocks of the writer
    pool = np.array([0.0, -0.0, 5e-324, 1.0, -2.5, 0.1, 1.0 / 3.0,
                     -2.2250738585072014e-308, 1e22, -7.0])
    shape = (97, 53, 3)
    values = rng.choice(pool, shape)
    noisy = rng.random(shape) < 0.5
    values[noisy] = (rng.standard_normal(shape)
                     * 10.0 ** rng.integers(-300, 300, shape))[noisy]
    assert values.size > 3 * CSV_BLOCK
    lengths = {len(repr(v)) for v in values.ravel().tolist()}
    assert min(lengths) == 3 and max(lengths) == 24
    axes = (("x", np.linspace(0.0, 1.0, 97)), ("y", np.linspace(-1.0, 1.0, 53)))
    path = tmp_path / "field.csv"
    assert write_solution_csv(SolutionField(axes=axes, values=values), path) == values.size
    lines = read_lines(path)
    assert lines == per_value_csv(axes, values)
    assert {line.rpartition(",")[2] for line in lines} >= {"-0.0\n", "0.0\n"}


def test_csv_writer_short_slabs_of_a_coordinate_space(tmp_path):
    # a time axis over a coordinate space: thousands of two-value slabs
    t = np.linspace(0.0, 3.0, 3001)
    values = np.stack([np.round(np.sin(t), 3), np.full_like(t, 2.0)], axis=-1)
    values[::7, 1] = -0.0
    fld = SolutionField(axes=(("t", t),), values=values,
                        space=euclidean_space(2))
    path = tmp_path / "field.csv"
    write_solution_csv(fld, path)
    assert read_lines(path) == per_value_csv(fld.axes, values)


@pytest.mark.parametrize("name", ["example1.json", "example4.json"])
def test_csv_writer_matches_the_per_value_rendering_on_bundled_fields(
        name, problems_dir, tmp_path):
    fld = solve_family(reduce(instantiate(load_problem(problems_dir / name))))
    path = tmp_path / "field.csv"
    write_solution_csv(fld, path)
    assert read_lines(path) == per_value_csv(fld.axes, fld.values)


def test_csv_writer_traces_less_than_half_the_field(tmp_path, rng):
    # the writer formats a block of rows at a time, so its strings never
    # hold more than a small share of the field
    grid = np.linspace(0.0, 1.0, 401)
    values = rng.standard_normal((401, 401, 2))
    fld = SolutionField(axes=(("x", grid), ("y", grid)), values=values)
    tracemalloc.start()
    try:
        write_solution_csv(fld, tmp_path / "field.csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.nbytes / 2


def test_csv_view_unrolls_a_grid_space_and_strides_time(tmp_path):
    sp = grid_space(0.0, 1.0, 5)
    t = np.linspace(0.0, 1.0, 41)
    u = t[:, None] * sp.grid[None, :]
    path = tmp_path / "field.csv"
    rows = write_solution_csv(SolutionField(axes=(("t", t),), values=u,
                                            space=sp), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x,component,value"
    # 40 steps keep every second one: 21 times by 5 nodes
    assert rows == len(lines) - 1 == 21 * 5
    assert lines[1 + 3 * 5 + 2] == ",".join(
        [repr(float(t[6])), repr(float(sp.grid[2])), "0", repr(float(u[6, 2]))])


def test_csv_view_synthesizes_a_mode_space(tmp_path):
    sp = mode_space(2, 3)
    t = np.linspace(0.0, 1.0, 5)
    u = np.zeros((5, 6))
    u[:, 1] = t   # mode (1, 2)
    path = tmp_path / "field.csv"
    rows = write_solution_csv(SolutionField(axes=(("t", t),), values=u,
                                            space=sp), path)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "t,x,y,component,value"
    assert rows == len(lines) - 1 == 5 * 17 * 17
    xg = np.linspace(0.0, np.pi, 17)
    *coords, comp, val = lines[1 + 4 * 17 * 17 + 5 * 17 + 3].split(",")
    assert [float(c) for c in coords] == [1.0, xg[5], xg[3]]
    assert float(val) == pytest.approx(np.sin(xg[5]) * np.sin(2 * xg[3]),
                                       abs=1e-15)


def test_solved_record_holds_solver_samples(problems_dir):
    # the record is the back-end's samples, dimension last, and the
    # residual check reports every condition of the family's plan
    for name in PROBLEMS:
        pf = load_problem(problems_dir / name)
        rp = reduce(instantiate(pf))
        fld = solve_family(rp)
        lens = tuple(len(g) for _, g in fld.axes)
        assert fld.values.shape == lens + (rp.js.domain.dim,)
        assert fld.space is rp.js.domain
        _, report = residual_check(rp, fld)
        keys = [f"{p} d{k}u/d{a}{k} at {a}=0"
                for p, a, k in FAMILIES[pf.family].bc]
        assert list(report) == ["equation_residual"] + keys


def test_spectral_boundary_norms_use_fourth_order_stencils(problems_dir):
    # the u_t and u_tt conditions of example5 hold to the RK4 scale only
    # when the check differentiates with 4th-order stencils
    rp = reduce(instantiate(load_problem(problems_dir / "example5.json")))
    _, report = residual_check(rp, solve_family(rp))
    for key in ("I-Pk d0u/dt0 at t=0", "I-Pk d1u/dt1 at t=0",
                "I-Pk d2u/dt2 at t=0"):
        assert report[key] <= 1e-8, (key, report[key])
