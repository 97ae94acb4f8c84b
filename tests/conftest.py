import os

# pin BLAS to one thread before numpy loads: on small machines the default
# thread pools oversubscribe the cores and make the suite slower
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

from types import SimpleNamespace  # noqa: E402

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from degenpde.reduction import DegenerateSystemSpec  # noqa: E402
from degenpde.spaces import (grid_space, identity_operator,  # noqa: E402
                             make_kernel_operator)

PROBLEMS = ("example1.json", "example2.json", "example3.json",
            "example4.json", "example5.json")


def projector_matrices(js):
    """The root projectors of a structure as dim x dim matrices, built from
    its chain blocks: Pk = Phi Gam^T W1, Qk = Z Psi^T W2, the
    extra-direction projectors (None when absent) and the totals
    P = Pk + Pextra, Q = Qk + Qextra."""
    w1, w2 = js.domain.weights, js.codomain.weights
    out = SimpleNamespace(Pk=js.Phi @ (js.Gam.T * w1), Qk=js.Z @ (js.Psi.T * w2),
                          Pextra=None, Qextra=None)
    out.P, out.Q = out.Pk, out.Qk
    if js.phi_extra.shape[1]:
        out.Pextra = js.phi_extra @ (js.gamma_extra.T * w1)
        out.P = out.Pk + out.Pextra
    if js.psi_extra.shape[1]:
        out.Qextra = js.z_extra @ (js.psi_extra.T * w2)
        out.Q = out.Qk + out.Qextra
    return out


@pytest.fixture
def rng():
    return np.random.default_rng(20250816)


@pytest.fixture
def problems_dir():
    import pathlib
    return pathlib.Path(__file__).resolve().parent.parent / "problems"


def kernel_evolution_spec(family, f, nodes=201, quadrature="simpson",
                          t_hi=2.0, dt=1e-3, a1_scale=-1.0):
    """The bundled single-kernel evolution problem: B = I - 3xs on [0,1],
    A1 = a1_scale * I, first- or second-order lead in t."""
    sp = grid_space(0.0, 1.0, nodes, quadrature=quadrature)
    B = make_kernel_operator(sp, "identity_minus_kernel", "3*x*s",
                             exact_on="x")
    A1 = identity_operator(sp, scale=a1_scale)
    return DegenerateSystemSpec(B=B, A1=A1, f=f, family=family,
                                box={"t": (0.0, t_hi)}, grid={"dt": dt})


def oracle_on_nodes(oracle, f, tgrid, xgrid):
    """The reference of a blocked evolution oracle on every node of tgrid,
    as one array."""
    return np.concatenate([ref for _, ref in oracle(f, tgrid, xgrid)])


def grid_samples(xg):
    xg = np.asarray(xg, dtype=float)

    def wrap(func):
        def sampler(t):
            tv = np.atleast_1d(np.asarray(t, dtype=float))
            vals = np.asarray(func(tv[:, None], xg[None, :]), dtype=float)
            return np.broadcast_to(vals, (tv.shape[0], xg.shape[0])).copy()
        return sampler

    return wrap


@pytest.fixture
def evolution_factory():
    return kernel_evolution_spec
