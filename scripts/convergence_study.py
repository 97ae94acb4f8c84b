"""Empirical convergence tables for the two discretization knobs.

Part 1: time-step refinement for both kernel evolution families against
the quadrature closed forms (expect 4th-order decay from the RK4 march).
Part 2: spatial refinement of the kernel operator's action on its exact
null direction without the exactness correction (expect 2nd-order decay
of the trapezoid defect).
Part 3: node refinement of the corner (goursat) problem of example1 on
[0, 1]^2 against its series closed form (expect 2nd-order decay from the
trapezoid sweep, about 4x per level).

Usage:
    python3 scripts/convergence_study.py [--dt-levels N] [--node-levels N]
"""

import argparse
from dataclasses import dataclass

import numpy as np

from degenpde import (DegenerateSystemSpec, grid_space, identity_operator,
                      make_kernel_operator, matrix_operator,
                      oracle_first_order_evolution, oracle_goursat_constant,
                      oracle_second_order_evolution, reduce, solve_family)


@dataclass
class StudyConfig:
    nodes: int = 201
    t_hi: float = 2.0
    dt_base: float = 0.04
    dt_levels: int = 4
    node_base: int = 51
    node_levels: int = 4


def dt_study(cfg):
    sp = grid_space(0.0, 1.0, cfg.nodes, quadrature="simpson")
    B = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s",
                             exact_on="x")
    A1 = identity_operator(sp, scale=-1.0)
    xg = sp.grid

    def sampler(t):
        tv = np.atleast_1d(np.asarray(t, dtype=float))
        return np.sin(tv)[:, None] * (xg ** 2)[None, :]

    tref = np.linspace(0.0, cfg.t_hi, 4001)
    cases = (("evolution1", oracle_first_order_evolution),
             ("evolution2", oracle_second_order_evolution))
    for family, oracle in cases:
        ref = np.concatenate([block for _, block in oracle(sampler, tref, xg)])
        print(f"{family}, f = sin(t) x^2, sup deviation vs dt:")
        prev = None
        for level in range(cfg.dt_levels):
            dt = cfg.dt_base / 2 ** level
            spec = DegenerateSystemSpec(
                B=B, A1=A1, f=sampler, family=family,
                box={"t": (0.0, cfg.t_hi)}, grid={"dt": dt})
            u = solve_family(reduce(spec)).values
            stride = round(dt / (cfg.t_hi / 4000))
            dev = float(np.abs(u - ref[::stride]).max())
            note = "" if prev is None else f"  ratio {prev / dev:6.2f}"
            print(f"  dt={dt:<8g} dev={dev:.3e}{note}")
            prev = dev
        print()


def node_study(cfg):
    print("raw trapezoid kernel operator, defect on the exact null "
          "direction vs nodes:")
    prev = None
    for level in range(cfg.node_levels):
        nodes = (cfg.node_base - 1) * 2 ** level + 1
        sp = grid_space(0.0, 1.0, nodes, quadrature="trapezoid")
        B = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s")
        xg = sp.grid
        xhat = xg / sp.norm(xg)
        defect = sp.norm(B.apply(xhat))
        note = "" if prev is None else f"  ratio {prev / defect:6.2f}"
        print(f"  nodes={nodes:<5d} defect={defect:.3e}{note}")
        prev = defect
    print()


def corner_study(cfg):
    print("corner problem of example1, f = (1, 1) on [0, 1]^2, sup deviation "
          "vs nodes per axis:")
    B, A1 = matrix_operator(np.diag([1.0, 0.0])), matrix_operator(np.eye(2))
    prev = None
    for level in range(cfg.node_levels):
        nodes = (cfg.node_base - 1) * 2 ** level + 1
        spec = DegenerateSystemSpec(
            B=B, A1=A1, f=lambda x, y: np.ones(2), family="goursat",
            box={"x": (0.0, 1.0), "y": (0.0, 1.0)}, grid={"nx": nodes, "ny": nodes})
        fld = solve_family(reduce(spec))
        ref = oracle_goursat_constant(1.0, 1.0, *(g for _, g in fld.axes))
        dev = float(np.abs(fld.values - ref).max())
        note = "" if prev is None else f"  ratio {prev / dev:6.2f}"
        print(f"  nodes={nodes:<5d} dev={dev:.3e}{note}")
        prev = dev
    print()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--dt-levels", type=int, default=4)
    ap.add_argument("--node-levels", type=int, default=4)
    args = ap.parse_args(argv)
    cfg = StudyConfig(dt_levels=args.dt_levels, node_levels=args.node_levels)
    dt_study(cfg)
    node_study(cfg)
    corner_study(cfg)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
