import numpy as np
import pytest

from cho.control import ControlPair, control_norm, random_direction
from cho.errors import ValidationError
from cho.forward import solve, solve_many, traj_norm_Y
from cho.potentials import PotentialPair, custom_potential
from cho import sensitivity
from cho.sensitivity import linearized_solve, taylor_test

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


class TestTaylorTest:
    def test_quadratic_orders_for_smooth_potential(self, base_setup):
        problem, phi0, u, base = base_setup
        h = unit_direction(problem, 5).scaled(0.3)
        result, = taylor_test(problem, phi0, u, [h], scales=(0.5, 0.25, 0.125, 0.0625))
        assert not result.exact
        assert result.min_order() >= 1.9

    def test_zero_direction_zero_remainder(self, base_setup):
        problem, phi0, u, base = base_setup
        result, = taylor_test(problem, phi0, u,
                              [ControlPair.zeros(problem.mesh, problem.grid)],
                              scales=(0.5, 0.25))
        assert all(r == 0.0 for r in result.remainders)

    def test_directions_share_one_base_solve(self, base_setup, monkeypatch):
        # One call solves at u once and at every u + s h, in one stacked
        # solve; each result equals that direction's call alone.
        problem, phi0, u, base = base_setup
        directions = [unit_direction(problem, 7).scaled(0.3),
                      unit_direction(problem, 8).scaled(0.3)]
        scales = (0.5, 0.25)
        alone = [taylor_test(problem, phi0, u, [h], scales=scales)[0] for h in directions]
        calls = []

        def counted(problem, phi0, controls):
            calls.append(len(controls))
            return solve_many(problem, phi0, controls)

        monkeypatch.setattr(sensitivity, "solve_many", counted)
        together = taylor_test(problem, phi0, u, directions, scales=scales)
        assert calls == [1 + len(directions) * len(scales)]
        assert len(together) == len(directions)
        for one, result in zip(alone, together):
            assert result.scales == one.scales
            assert result.remainders == one.remainders
            assert result.exact == one.exact

    def test_affine_state_map_reported_exact(self):
        # F'' constant (quadratic potential): the state map is affine in the
        # control, so the first-order expansion has no remainder.
        from cho.forward import Physics, Problem, SolverOptions, TimeGrid
        from cho.mesh import build_interval

        mesh = build_interval(10, 1.0)
        quadratic = custom_potential(beta_hat_coeffs=[0, 0, 0.5],
                                     pi_hat_coeffs=[0])
        problem = Problem.create(
            mesh, PotentialPair.same(quadratic),
            SolverOptions(newton_tol=1e-12), Physics(1.0, 1.0),
            TimeGrid(T=0.4, N=8),
        )
        phi0 = cosine_ic(mesh, 0.3)
        u = ControlPair.constant(mesh, problem.grid, 0.1)
        h = unit_direction(problem, 6)
        result, = taylor_test(problem, phi0, u, [h], scales=(1.0, 0.5, 0.25))
        assert result.exact
        assert result.orders == []
