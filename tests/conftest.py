"""Shared problem factories for the solver-level test modules."""

import numpy as np
import pytest

from cho import spaces
from cho.control import ControlPair
from cho.forward import Physics, Problem, SolverOptions, TimeGrid
from cho.mesh import build_interval
from cho.potentials import (
    PotentialPair,
    PotentialSpec,
    logarithmic_potential,
    regular_potential,
)
from cho.spaces import PairField


def make_problem(n_cells=12, length=1.0, T=0.4, N=8, tau=1.0, gamma=1.0,
                 kind="regular", **opt_kwargs):
    mesh = build_interval(n_cells, length)
    spec = regular_potential() if kind == "regular" else logarithmic_potential(2.0)
    return Problem.create(
        mesh,
        PotentialPair.same(spec),
        SolverOptions(**opt_kwargs),
        Physics(tau=tau, gamma=gamma),
        TimeGrid(T=T, N=N),
    )


def unchecked_custom(beta_hat_coeffs):
    """The custom potential of ``beta_hat_coeffs`` (ascending powers, pi_hat
    = 0) built as ``custom_potential`` builds it, without its check that
    beta is nondecreasing: the resolvent's tests also take specs that the
    check rejects."""
    bh = np.polynomial.Polynomial(np.asarray(beta_hat_coeffs, dtype=float))
    b = bh.deriv().coef
    cubic = tuple(np.pad(b, (0, 4 - b.size))[1:].tolist()) if b.size <= 4 else None
    zero = np.polynomial.Polynomial([0.0])
    return PotentialSpec("custom", False, [bh.deriv(k) for k in range(3)], [zero] * 3, cubic)


@pytest.fixture(params=["sparse", "dense"])
def storage(request, monkeypatch):
    """Step templates built in the test take the named storage: CSC with
    SuperLU factors, or dense with LAPACK ones."""
    monkeypatch.setattr(spaces, "DENSE_MAX", 0 if request.param == "sparse" else 10**6)
    return request.param


def cosine_ic(mesh, amplitude=0.3, waves=1.0):
    x = mesh.bulk_nodes[:, 0]
    span = x.max() - x.min()
    return PairField.from_bulk(
        mesh, amplitude * np.cos(waves * np.pi * (x - x.min()) / span)
    )


@pytest.fixture(scope="session")
def generic_run():
    """One converged nontrivial run shared by read-only diagnostics tests."""
    problem = make_problem(newton_tol=1e-12)
    phi0 = cosine_ic(problem.mesh)
    controls = ControlPair.constant(problem.mesh, problem.grid, 0.1, 0.05)
    from cho.forward import solve

    return problem, phi0, controls, solve(problem, phi0, controls)
