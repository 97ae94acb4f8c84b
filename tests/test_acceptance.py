"""End-to-end acceptance gates.

Each test covers one shipped guarantee at its stated tolerance and prints
a single pass/fail line (written with capture suspended so the lines land
in the terminal log)."""

import time
from dataclasses import replace
from math import factorial

import numpy as np
import pytest

from degenpde.chains import complete_structure
from degenpde.cli import main
from degenpde.errors import CompatibilityError
from degenpde.problems import (instantiate, load_problem,
                               oracle_first_order_evolution,
                               oracle_goursat_constant,
                               oracle_second_order_evolution)
from degenpde.reduction import DegenerateSystemSpec, reduce, residual_check
from degenpde.solvers import solve_family
from degenpde.spaces import (grid_space, identity_operator,
                             make_kernel_operator, matrix_operator)

from conftest import PROBLEMS, oracle_on_nodes, projector_matrices
from test_jordan import random_structured_pair
from test_solvers import asymptotic_leading_term, naive_cauchy_defect

SEED = 20250816

BLOCK_MENU = ((4, (1,)), (5, (2,)), (6, (3,)), (5, (1, 1)), (6, (2, 1)),
              (7, (2, 2)), (8, (3, 2, 1)), (8, (1, 1, 1)), (7, (3, 1)),
              (6, (1, 1, 1)))


@pytest.fixture
def report(capsys):
    def emit(num, ok, text):
        line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} {text}"
        with capsys.disabled():
            print(line, flush=True)
        assert ok, line
    return emit


def _bundled_structures(problems_dir):
    for name in PROBLEMS:
        spec = instantiate(load_problem(problems_dir / name))
        yield name, spec, complete_structure(spec.B, spec.A1)


def _projector_idempotence(js):
    pm = projector_matrices(js)
    worst = 0.0
    for M in (pm.Pk, pm.Qk, pm.Pextra, pm.Qextra):
        if M is None:
            continue
        worst = max(worst, float(np.abs(M @ M - M).max()))
    return worst


def test_criterion_1_structure_invariants(problems_dir, report):
    t0 = time.perf_counter()
    rng = np.random.default_rng(SEED)
    link = biorth = idem = 0.0
    count = 0
    for _, spec, js in _bundled_structures(problems_dir):
        link = max(link, js.diagnostics["chain_link_residual"])
        biorth = max(biorth, js.diagnostics["biorthogonality_error"])
        idem = max(idem, _projector_idempotence(js))
        count += 1
    for trial in range(50):
        dim, blocks = BLOCK_MENU[trial % len(BLOCK_MENU)]
        B, A = random_structured_pair(rng, dim, blocks)
        js = complete_structure(B, A)
        assert js.p == tuple(sorted(blocks, reverse=True))
        link = max(link, js.diagnostics["chain_link_residual"])
        biorth = max(biorth, js.diagnostics["biorthogonality_error"])
        idem = max(idem, _projector_idempotence(js))
        count += 1
    elapsed = time.perf_counter() - t0
    ok = link <= 1e-8 and biorth <= 1e-8 and idem <= 1e-10 and elapsed < 5.0
    report(1, ok, f"structure invariants on {count} instances: "
                   f"links {link:.2e} (<=1e-8), biorthogonality {biorth:.2e} "
                   f"(<=1e-8), idempotence {idem:.2e} (<=1e-10), "
                   f"{elapsed:.2f}s (<5s)")


def test_criterion_2_commutability_identities(problems_dir, report):
    rng = np.random.default_rng(SEED)
    worst = 0.0
    count = 0

    def identity_residuals(spec_B, A_ops, js):
        I2 = np.eye(js.codomain.dim)
        pm = projector_matrices(js)
        Pk, Qk, Bp = pm.Pk, pm.Qk, js.Bplus.matrix
        Phi = js.Phi
        res = [np.abs(Bp @ Qk - Pk @ Bp).max(),
               np.abs((I2 - Qk) @ spec_B @ Phi).max()]
        for Am in A_ops:
            res.extend([
                np.abs(Qk @ (Am @ Bp) - (Am @ Bp) @ Qk).max(),
                np.abs(Pk @ (Bp @ Am) - (Bp @ Am) @ Pk).max(),
                np.abs(Qk @ Am @ Bp @ (I2 - Qk)).max(),
                np.abs((I2 - Qk) @ Am @ Bp @ Qk).max(),
                np.abs((I2 - Qk) @ Am @ Phi).max(),
            ])
        return max(float(r) for r in res)

    for _, spec, js in _bundled_structures(problems_dir):
        assert js.comm.certified
        worst = max(worst, identity_residuals(
            spec.B.matrix, [spec.A1.matrix], js))
        count += 1
    for trial in range(15):
        dim, blocks = BLOCK_MENU[trial % len(BLOCK_MENU)]
        B, A = random_structured_pair(rng, dim, blocks)
        js = complete_structure(B, A)
        assert js.comm.certified
        worst = max(worst, identity_residuals(B.matrix, [A.matrix], js))
        count += 1
    ok = worst <= 1e-8
    report(2, ok, f"pseudoinverse/projector commutation and chain-span "
                   f"annihilation on {count} certified instances: "
                   f"max residual {worst:.2e} (<=1e-8)")


def test_criterion_3_first_order_closed_forms(problems_dir, report):
    t0 = time.perf_counter()
    pf = load_problem(problems_dir / "example2.json")
    worst = 0.0
    dev_sign = None
    for fsrc in ("x", "1", "sin(t)*x^2"):
        spec = instantiate(replace(pf, f=fsrc))
        rp = reduce(spec)
        fld = solve_family(rp)
        axes, u = fld.axes, fld.values
        tgrid = axes[0][1]
        xg = spec.B.domain.grid
        ref = oracle_on_nodes(oracle_first_order_evolution, spec.f, tgrid, xg)
        worst = max(worst, float(np.abs(u - ref).max()))
        if fsrc == "x":
            dev_sign = float(np.abs(u + xg[None, :]).max())
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and dev_sign <= 1e-6 and elapsed < 10.0
    report(3, ok, f"first-order kernel evolution vs quadrature closed form, "
                   f"3 forcings: sup {worst:.2e} (<=1e-4); f=x vs -x "
                   f"{dev_sign:.2e} (<=1e-6); {elapsed:.2f}s (<10s)")


def test_criterion_4_second_order_conditions_and_defect(problems_dir, report):
    pf = load_problem(problems_dir / "example3.json")
    spec = instantiate(pf)
    rp = reduce(spec)
    fld = solve_family(rp)
    axes, u = fld.axes, fld.values
    tgrid = axes[0][1]
    xg = spec.B.domain.grid
    dev = float(np.abs(u + tgrid[:, None] * xg[None, :]).max())
    _, checks = residual_check(rp, fld)
    cond = max(checks["I d0u/dt0 at t=0"], checks["I-Pk d1u/dt1 at t=0"])

    const_spec = instantiate(replace(pf, f="1"))
    defect = naive_cauchy_defect(reduce(const_spec))
    ok = dev <= 1e-6 and cond <= 1e-8 and defect >= 1e-2
    report(4, ok, f"second-order kernel evolution: f=x vs -t*x {dev:.2e} "
                   f"(<=1e-6); initial-data conditions {cond:.2e} (<=1e-8); "
                   f"naive full-data defect {defect:.3f} (>=1e-2)")


def _mixed_spec(f, nodes):
    B = matrix_operator([[1.0, 0.0], [0.0, 0.0]])
    A = matrix_operator(np.eye(2))
    return DegenerateSystemSpec(B=B, A1=A, f=f, family="mixed_xy",
                                box={"x": (0.0, 1.0), "y": (0.0, 1.0)},
                                grid={"nx": nodes, "ny": nodes})


def test_criterion_5_mixed_exact_and_corner_asymptotic(problems_dir, report):
    pf = load_problem(problems_dir / "example4.json")
    spec = instantiate(pf)
    rp = reduce(spec)
    fld = solve_family(rp)
    axes, u = fld.axes, fld.values
    xg, yg = axes[0][1], axes[1][1]
    want = np.stack(np.meshgrid(xg ** 2 / 2.0, yg, indexing="ij"), axis=-1)
    dev = float(np.abs(u - want).max())
    resid, _ = residual_check(rp, fld)

    def fmix(x=None, y=None):
        X, Y = np.asarray(x, float), np.asarray(y, float)
        shape = np.broadcast_shapes(X.shape, Y.shape)
        return np.stack([np.broadcast_to(1.0 + X, shape),
                         np.broadcast_to(1.0 + Y, shape)], axis=-1)

    rp2 = reduce(_mixed_spec(fmix, 129))
    fld2 = solve_family(rp2)
    axes2, u2 = fld2.axes, fld2.values
    quad, lin = asymptotic_leading_term(rp2, np.array([1.0, 1.0]))
    X, Y = np.meshgrid(axes2[0][1], axes2[1][1], indexing="ij")
    uasym = (quad[None, None, :] * (X ** 2 / 2.0)[..., None]
             + lin[None, None, :] * (Y - X ** 2 / 2.0)[..., None])
    ratios = []
    for s in (1.0, 0.5, 0.25, 0.125):
        nwin = int(round(128 * s)) + 1
        ratios.append(np.abs(u2[:nwin, :nwin]).max()
                      / np.abs(uasym[:nwin, :nwin]).max())
    factors = [max(ratios[i] / ratios[i + 1], ratios[i + 1] / ratios[i])
               for i in range(3)]
    ok = dev <= 1e-10 and resid <= 1e-10 and max(factors) <= 2.0
    report(5, ok, f"mixed-derivative family: f=(1,1) vs (x^2/2, y) "
                   f"{dev:.2e} (<=1e-10), residual {resid:.2e} (<=1e-10); "
                   f"corner window/asymptotic ratios {[f'{r:.3f}' for r in ratios]}, "
                   f"consecutive factor {max(factors):.3f} (<=2)")


def test_criterion_6_corner_series_closed_form(problems_dir, report):
    pf = load_problem(problems_dir / "example1.json")
    spec = instantiate(pf)
    rp = reduce(spec)
    fld = solve_family(rp)
    axes, u = fld.axes, fld.values
    ref = oracle_goursat_constant(1.0, 1.0, axes[0][1], axes[1][1])
    dev = float(np.abs(u - ref).max())
    _, checks = residual_check(rp, fld)
    cond = max(checks["I-Pk d0u/dx0 at x=0"], checks["I-Pk d0u/dy0 at y=0"])
    ok = dev <= 1e-6 and cond <= 1e-10
    report(6, ok, f"corner family vs series closed form: sup {dev:.2e} "
                   f"(<=1e-6); characteristic-face conditions {cond:.2e} "
                   f"(<=1e-10)")


def test_criterion_7_spectral_residual_and_resonance(problems_dir, report):
    pf = load_problem(problems_dir / "example5.json")
    spec = instantiate(pf)
    rp = reduce(spec)
    fld = solve_family(rp)
    axes, u_modes = fld.axes, fld.values
    t = axes[0][1]
    resid = float(fld.meta["mode_residual"])
    # the n = 1 block is algebraic: only (1,2) is forced, all to 1e-8
    alg = float(np.abs(u_modes[:, 1] - np.exp(-t)).max())
    rest = [m - 1 for m in range(1, 17) if m != 2]
    alg = max(alg, float(np.abs(u_modes[:, rest]).max()))
    with pytest.raises(CompatibilityError, match="resonant lambda"):
        instantiate(pf, lambda_param=4.0)
    with pytest.raises(CompatibilityError, match="resonant lambda"):
        instantiate(pf, lambda_param=9.0)
    ok = resid <= 1e-4 and alg <= 1e-8
    report(7, ok, f"spectral family at 16x16 modes: per-mode residual "
                   f"{resid:.2e} (<=1e-4); algebraic block vs f/(lambda-m^2) "
                   f"{alg:.2e} (<=1e-8); resonant parameters rejected")


# -- criterion 8: brute-force equivalence -------------------------------------

def _kron_split_instance(rng, dim, p, omega=1.3):
    """A pair built from its own invertible/nilpotent splitting
    B = S diag(I, N) T, A1 = S diag(G, I) T, with the exact solution of
    (Bu)' + A1 u = f assembled from classical formulas per block."""
    r = dim - p
    while True:
        G = rng.normal(size=(r, r)) / np.sqrt(r)
        M = omega ** 2 * np.eye(r) + G @ G
        d, V = np.linalg.eig(G)
        if np.linalg.cond(M) < 1e8 and np.linalg.cond(V) < 1e8:
            break
    N = np.zeros((p, p))
    for j in range(p - 1):
        N[j, j + 1] = 1.0
    S = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    T = np.linalg.qr(rng.normal(size=(dim, dim)))[0]
    core_B = np.zeros((dim, dim))
    core_B[:r, :r] = np.eye(r)
    core_B[r:, r:] = N
    core_A = np.eye(dim)
    core_A[:r, :r] = G
    B = S @ core_B @ T
    A1 = S @ core_A @ T
    c = rng.normal(size=r)
    q = rng.normal(size=(4, p))

    def g2(t, order=0):
        t = np.asarray(t, dtype=float)
        out = np.zeros(t.shape + (p,))
        for deg in range(order, 4):
            mult = factorial(deg) / factorial(deg - order)
            out += mult * np.power(t, deg - order)[..., None] * q[deg][None, :]
        return out

    def f(t=None):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        g1 = np.cos(omega * t)[:, None] * c[None, :]
        return np.concatenate([g1, g2(t)], axis=-1) @ S.T

    def exact(t):
        t = np.asarray(t, dtype=float)
        b = omega * np.linalg.solve(M, c)
        a = G @ b / omega
        w1 = (np.cos(omega * t)[:, None] * a[None, :]
              + np.sin(omega * t)[:, None] * b[None, :])
        hom = (np.exp(-np.outer(t, d)) * np.linalg.solve(V, a.astype(complex))
               [None, :]) @ V.T
        w1 = w1 - hom.real
        w2 = np.zeros(t.shape + (p,))
        Npow = np.eye(p)
        for j in range(p):
            w2 += (-1.0) ** j * g2(t, order=j) @ Npow.T
            Npow = N @ Npow
        return np.linalg.solve(T, np.concatenate([w1, w2], axis=-1).T).T

    return B, A1, f, exact


def test_criterion_8_brute_force_equivalence(report):
    rng = np.random.default_rng(SEED)
    menu = [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3), (5, 1), (5, 2),
            (5, 3), (6, 1), (6, 2), (6, 3)]
    worst = 0.0
    for trial in range(20):
        dim, p = menu[trial % len(menu)]
        B, A1, f, exact = _kron_split_instance(rng, dim, p)
        spec = DegenerateSystemSpec(
            B=matrix_operator(B), A1=matrix_operator(A1), f=f,
            family="evolution1", box={"t": (0.0, 1.0)}, grid={"dt": 1e-3})
        rp = reduce(spec)
        assert rp.js.p == (p,)
        fld = solve_family(rp)
        axes, u = fld.axes, fld.values
        worst = max(worst, float(np.abs(u - exact(axes[0][1])).max()))
    ok = worst <= 1e-5
    report(8, ok, f"pipeline vs independent splitting solutions on 20 "
                   f"single-chain pencils (dim<=6): sup {worst:.2e} (<=1e-5)")


def test_criterion_9_convergence_orders(report):
    sp = grid_space(0.0, 1.0, 201, quadrature="simpson")
    Bk = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s",
                              exact_on="x")
    A1k = identity_operator(sp, scale=-1.0)
    xg = sp.grid

    def sampler(t):
        tv = np.atleast_1d(np.asarray(t, dtype=float))
        return np.sin(tv)[:, None] * (xg ** 2)[None, :]

    ratios = {}
    for fam, oracle in (("evolution1", oracle_first_order_evolution),
                        ("evolution2", oracle_second_order_evolution)):
        ref = oracle_on_nodes(oracle, sampler, np.linspace(0.0, 2.0, 2001), xg)
        devs = []
        for dt in (0.02, 0.01):
            spec = DegenerateSystemSpec(B=Bk, A1=A1k, f=sampler,
                                        family=fam, box={"t": (0.0, 2.0)},
                                        grid={"dt": dt})
            fld = solve_family(reduce(spec))
            axes, u = fld.axes, fld.values
            devs.append(float(np.abs(u - ref[::round(dt / 1e-3)]).max()))
        ratios[fam] = devs[0] / devs[1]

    defects = []
    for nodes in (101, 201):
        spr = grid_space(0.0, 1.0, nodes, quadrature="trapezoid")
        Braw = make_kernel_operator(spr, "identity_minus_kernel", "3*x*s")
        xr = spr.grid
        xhat = xr / np.sqrt(xr @ (spr.weights * xr))
        img = Braw.matrix @ xhat
        defects.append(float(np.sqrt(img @ (spr.weights * img))))
    grid_ratio = defects[0] / defects[1]

    ok = (ratios["evolution1"] >= 8.0 and ratios["evolution2"] >= 8.0
          and grid_ratio >= 3.99)
    report(9, ok, f"dt halving shrinks closed-form deviations by "
                   f"{ratios['evolution1']:.1f}x / {ratios['evolution2']:.1f}x "
                   f"(>=8); node doubling shrinks the raw-kernel null defect "
                   f"by {grid_ratio:.6f}x (>=3.99)")


def test_criterion_10_byte_identical_csv(problems_dir, tmp_path, capsys, report):
    identical = True
    for i, name in enumerate(PROBLEMS):
        paths = []
        for run in ("a", "b"):
            out = tmp_path / f"{i}{run}.csv"
            assert main(["solve", str(problems_dir / name),
                         "--output", str(out)]) == 0
            paths.append(out)
        identical = identical and paths[0].read_bytes() == paths[1].read_bytes()
    capsys.readouterr()
    report(10, identical, "repeated solves of all 5 bundled problems "
                           "produce byte-identical CSV")


def test_example7_repeated_solves_give_byte_identical_csv(problems_dir, tmp_path, capsys):
    # criterion 10's check on example7, whose forcing 1 + sin(t) x^2 has a
    # part outside range(Q), so that its CSV carries the march's numbers
    paths = []
    for run in ("a", "b"):
        out = tmp_path / f"{run}.csv"
        assert main(["solve", str(problems_dir / "example7.json"),
                     "--output", str(out)]) == 0
        paths.append(out)
    capsys.readouterr()
    assert paths[0].read_bytes() == paths[1].read_bytes()
