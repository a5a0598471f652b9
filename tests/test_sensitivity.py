import numpy as np
import pytest

from cho.control import ControlPair, control_norm, random_direction
from cho.errors import ValidationError
from cho.forward import solve, traj_norm_Y
from cho.sensitivity import linearized_solve

from conftest import cosine_ic, make_problem


@pytest.fixture(scope="module")
def base_setup():
    problem = make_problem(newton_tol=1e-12)
    phi0 = cosine_ic(problem.mesh, 0.25)
    u = ControlPair.constant(problem.mesh, problem.grid, 0.1, 0.05)
    return problem, phi0, u, solve(problem, phi0, u)


def unit_direction(problem, seed):
    h = random_direction(problem.mesh, problem.grid, np.random.default_rng(seed))
    return h.scaled(1.0 / control_norm(h, problem.ops, problem.grid.dt))


class TestLinearizedSolve:
    def test_zero_direction_gives_zero(self, base_setup):
        problem, phi0, u, base = base_setup
        lin = linearized_solve(problem, base,
                               ControlPair.zeros(problem.mesh, problem.grid))
        assert np.abs(lin.psi).max() == 0.0
        assert np.abs(lin.eta).max() == 0.0

    def test_extra_slabs_rejected(self, base_setup):
        # N + 3 slabs, of which the solve would read the first N.
        problem, _, _, base = base_setup
        h = unit_direction(problem, 0)
        h = ControlPair(np.vstack([h.u, h.u[:3]]), np.vstack([h.uG, h.uG[:3]]))
        with pytest.raises(ValidationError, match="direction slabs have shapes"):
            linearized_solve(problem, base, h)

    def test_boundary_slab_of_wrong_width_rejected(self, base_setup):
        problem, _, _, base = base_setup
        h = unit_direction(problem, 0)
        h = ControlPair(h.u, np.hstack([h.uG, h.uG]))
        with pytest.raises(ValidationError, match="direction slabs have shapes"):
            linearized_solve(problem, base, h)

    def test_initial_sensitivity_vanishes(self, base_setup):
        problem, phi0, u, base = base_setup
        lin = linearized_solve(problem, base, unit_direction(problem, 0))
        assert np.all(lin.psi[0] == 0.0)
        assert np.all(lin.eta[0] == 0.0)

    def test_homogeneity(self, base_setup):
        problem, phi0, u, base = base_setup
        h = unit_direction(problem, 1)
        one = linearized_solve(problem, base, h)
        two = linearized_solve(problem, base, h.scaled(2.0))
        assert np.allclose(two.psi, 2.0 * one.psi, rtol=1e-12, atol=1e-13)

    def test_superposition(self, base_setup):
        problem, phi0, u, base = base_setup
        h1, h2 = unit_direction(problem, 2), unit_direction(problem, 3)
        a, b = 0.7, -1.3
        combo = linearized_solve(problem, base, h1.scaled(a).plus(h2, b))
        parts_psi = a * linearized_solve(problem, base, h1).psi \
            + b * linearized_solve(problem, base, h2).psi
        assert np.allclose(combo.psi, parts_psi, rtol=1e-11, atol=1e-12)

    def test_stability_ratio_bounded(self, base_setup):
        # || (psi, psi_G) ||_Y / || (h, h_G) || stays bounded over random
        # unit directions; the bound is empirical but must be uniform.
        problem, phi0, u, base = base_setup
        ratios = []
        for seed in range(10):
            h = unit_direction(problem, seed)
            lin = linearized_solve(problem, base, h)
            ratios.append(traj_norm_Y(problem.ops, problem.grid, lin.psi))
        assert max(ratios) < 20.0
        assert max(ratios) / min(ratios) < 50.0

    def test_jacobian_consistency(self, base_setup):
        # (S(u + s h) - S(u)) / s approaches psi linearly in s.
        problem, phi0, u, base = base_setup
        h = unit_direction(problem, 4)
        psi = linearized_solve(problem, base, h).psi
        errors = []
        for s in (0.2, 0.1, 0.05):
            diff = (solve(problem, phi0, u.plus(h, s)).phi - base.phi) / s
            errors.append(traj_norm_Y(problem.ops, problem.grid, diff - psi))
        rates = [e1 / e2 for e1, e2 in zip(errors, errors[1:])]
        assert all(1.8 <= r <= 2.2 for r in rates)

