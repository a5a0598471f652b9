import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cho.adjoint import (
    adjoint_continuous_form,
    adjoint_solve,
    reduced_gradient,
)
from cho.control import (
    ControlPair,
    CostSpec,
    control_inner,
    cost,
    cost_directional,
    random_direction,
)
from cho.forward import (
    Physics,
    Problem,
    SolverOptions,
    TimeGrid,
    energy,
    mean_ode_residual,
    solve,
    traj_norm_L2H,
)
from cho.mesh import build_interval, build_rectangle
from cho.potentials import PotentialPair, logarithmic_potential, regular_potential
from cho.sensitivity import linearized_solve
from cho.spaces import PairField

from conftest import cosine_ic, make_problem

TRACKING = CostSpec(alphas=(1.0, 0.5, 0.8, 0.3, 0.2, 0.1),
                    phiQ=0.2, phiS=0.1, phiO=-0.1, phiG=0.0)


@pytest.fixture(scope="module")
def setup():
    problem = make_problem(newton_tol=1e-12)
    phi0 = cosine_ic(problem.mesh, 0.25)
    u = ControlPair.constant(problem.mesh, problem.grid, 0.1, 0.05)
    base = solve(problem, phi0, u)
    return problem, phi0, u, base


class TestAdjointSolve:
    def test_zero_cost_gives_zero_adjoint(self, setup):
        problem, phi0, u, base = setup
        adj = adjoint_solve(problem, base, CostSpec(alphas=(0,) * 6))
        assert np.abs(adj.p).max() == 0.0
        assert np.abs(adj.q).max() == 0.0

    def test_terminal_identity(self, setup):
        # With only the bulk terminal weight active, the mass-weighted
        # combination p + tau q at the last node equals the terminal misfit.
        problem, phi0, u, base = setup
        spec = CostSpec(alphas=(0, 0, 0.7, 0, 0, 0), phiO=0.3)
        adj = adjoint_solve(problem, base, spec)
        N = problem.grid.N
        lhs = problem.ops.M_total @ (adj.p[N] + problem.physics.tau * adj.q[N])
        rhs = 0.7 * (problem.ops.M_bulk @ (base.phi[N] - 0.3))
        assert np.abs(lhs - rhs).max() < 1e-13

    def test_second_adjoint_relation(self, setup):
        # K p = M q holds at every time node.
        problem, phi0, u, base = setup
        adj = adjoint_solve(problem, base, TRACKING)
        for n in range(problem.grid.N + 1):
            gap = problem.ops.K_total @ adj.p[n] - problem.ops.M_total @ adj.q[n]
            assert np.abs(gap).max() < 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_exact_discrete_duality(self, setup, seed):
        problem, phi0, u, base = setup
        adj = adjoint_solve(problem, base, TRACKING)
        g = reduced_gradient(problem, u, adj, TRACKING)
        h = random_direction(problem.mesh, problem.grid, np.random.default_rng(seed))
        lin = linearized_solve(problem, base, h)
        dJ_lin = cost_directional(TRACKING, problem, base, lin.psi, u, h)
        dJ_adj = control_inner(g, h, problem.ops, problem.grid.dt)
        assert abs(dJ_adj - dJ_lin) / max(1.0, abs(dJ_lin)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_gradient_against_central_differences(self, setup, seed):
        problem, phi0, u, base = setup
        adj = adjoint_solve(problem, base, TRACKING)
        g = reduced_gradient(problem, u, adj, TRACKING)
        h = random_direction(problem.mesh, problem.grid, np.random.default_rng(seed))
        h = h.scaled(0.1 / h.sup_norm())

        def J(uc):
            return cost(TRACKING, solve(problem, phi0, uc), uc, problem.ops)

        d = 1e-2
        fd = (8 * (J(u.plus(h, d)) - J(u.plus(h, -d)))
              - (J(u.plus(h, 2 * d)) - J(u.plus(h, -2 * d)))) / (12 * d)
        dJ_adj = control_inner(g, h, problem.ops, problem.grid.dt)
        assert abs(dJ_adj - fd) / max(abs(fd), 1e-14) <= 1e-6

    def test_linearity_in_cost_data(self, setup):
        # Shared targets, split weights: the adjoint is additive in the
        # misfit data.
        problem, phi0, u, base = setup
        a = CostSpec(alphas=(0.6, 0.2, 0.5, 0.1, 0, 0), phiQ=0.2, phiS=0.1,
                     phiO=-0.1, phiG=0.0)
        b = CostSpec(alphas=(0.4, 0.3, 0.3, 0.2, 0, 0), phiQ=0.2, phiS=0.1,
                     phiO=-0.1, phiG=0.0)
        total = CostSpec(alphas=(1.0, 0.5, 0.8, 0.3, 0, 0), phiQ=0.2, phiS=0.1,
                         phiO=-0.1, phiG=0.0)
        adj_a = adjoint_solve(problem, base, a)
        adj_b = adjoint_solve(problem, base, b)
        adj_t = adjoint_solve(problem, base, total)
        assert np.allclose(adj_t.p, adj_a.p + adj_b.p, rtol=1e-11, atol=1e-13)
        assert np.allclose(adj_t.q, adj_a.q + adj_b.q, rtol=1e-11, atol=1e-13)

    def test_zero_misfit_data_propagates_zero(self, setup):
        # Targets chosen to match the trajectory exactly: all source data of
        # the backward system vanish, hence so does the adjoint.
        problem, phi0, u, base = setup
        spec = CostSpec(
            alphas=(1.0, 0.5, 0.8, 0.3, 0, 0),
            phiQ=base.phi,
            phiS=base.phi[:, problem.mesh.trace_map],
            phiO=base.phi[-1],
            phiG=base.phi[-1][problem.mesh.trace_map],
        )
        adj = adjoint_solve(problem, base, spec)
        assert np.abs(adj.p).max() < 1e-12
        assert np.abs(adj.q).max() < 1e-12


class TestContinuousForm:
    def test_zero_cost(self, setup):
        problem, phi0, u, base = setup
        adj = adjoint_continuous_form(problem, base, CostSpec(alphas=(0,) * 6))
        assert np.abs(adj.p).max() == 0.0

    @pytest.mark.parametrize("spec,eps", [(regular_potential(), 0.0),
                                          (logarithmic_potential(2.0), 1e-2)],
                             ids=["regular", "logarithmic-yosida"])
    def test_agreement_under_refinement(self, spec, eps):
        # Both adjoint variants discretize the same continuous system, with
        # the run's potential, Yosida-regularized or not, so their distance
        # contracts at first order under simultaneous dt and h refinement.
        gaps = []
        for scale in (1, 2, 4):
            mesh = build_interval(10 * scale, 1.0)
            problem = Problem.create(
                mesh, PotentialPair.same(spec),
                SolverOptions(newton_tol=1e-12, eps_yosida=eps), Physics(1.0, 1.0),
                TimeGrid(T=0.4, N=8 * scale),
            )
            phi0 = cosine_ic(mesh, 0.25)
            u = ControlPair.constant(mesh, problem.grid, 0.1, 0.05)
            base = solve(problem, phi0, u)
            one = adjoint_solve(problem, base, TRACKING)
            two = adjoint_continuous_form(problem, base, TRACKING)
            gaps.append(traj_norm_L2H(problem.ops, problem.grid, one.p - two.p))
        assert gaps[0] >= 1.6 * gaps[1] and gaps[1] >= 1.6 * gaps[2], gaps

    def test_deterministic(self, setup):
        problem, phi0, u, base = setup
        one = adjoint_continuous_form(problem, base, TRACKING)
        two = adjoint_continuous_form(problem, base, TRACKING)
        assert np.array_equal(one.p, two.p)
        assert np.array_equal(one.q, two.q)


class TestReducedGradient:
    def test_without_reaction_gradient_is_control_term(self, setup):
        _, phi0, u, base_unused = setup
        problem = make_problem(gamma=0.0, newton_tol=1e-12)
        base = solve(problem, phi0, u)
        adj = adjoint_solve(problem, base, TRACKING)
        g = reduced_gradient(problem, u, adj, TRACKING)
        assert np.allclose(g.u, TRACKING.alphas[4] * u.u)
        assert np.allclose(g.uG, TRACKING.alphas[5] * u.uG)

    def test_without_control_penalty_gradient_is_adjoint(self, setup):
        problem, phi0, u, base = setup
        spec = CostSpec(alphas=(1.0, 0.5, 0.8, 0.3, 0.0, 0.0),
                        phiQ=0.2, phiS=0.1, phiO=-0.1, phiG=0.0)
        adj = adjoint_solve(problem, base, spec)
        g = reduced_gradient(problem, u, adj, spec)
        gamma = problem.physics.gamma
        for j in range(problem.grid.N):
            assert np.array_equal(g.u[j], gamma * adj.p[j])
            assert np.array_equal(
                g.uG[j], gamma * adj.p[j][problem.mesh.trace_map]
            )


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.floats(0.1, 5.0), st.floats(0.1, 5.0),
       st.integers(0, 2**32 - 1))
def test_invariants_on_random_rectangles(nx, ny, tau, gamma, seed):
    # The mean ODE and the exact adjoint duality hold for every rectangle,
    # viscosity and reaction rate, with the bounds of the verify suite.
    mesh = build_rectangle(nx, ny, 1.0, 0.8)
    grid = TimeGrid(T=0.2, N=4)
    problem = Problem.create(mesh, PotentialPair.same(regular_potential()),
                             SolverOptions(), Physics(tau, gamma), grid)
    rng = np.random.default_rng(seed)
    phi0 = PairField.from_bulk(mesh, rng.uniform(-0.5, 0.5, mesh.n_bulk))
    u = random_direction(mesh, grid, rng).scaled(0.3)
    h = random_direction(mesh, grid, rng).scaled(0.1)
    base = solve(problem, phi0, u)
    assert np.abs(mean_ode_residual(base, u, problem.ops, gamma)).max() <= 1e-9

    g = reduced_gradient(problem, u, adjoint_solve(problem, base, TRACKING), TRACKING)
    psi = linearized_solve(problem, base, h).psi
    dJ_lin = cost_directional(TRACKING, problem, base, psi, u, h)
    dJ_adj = control_inner(g, h, problem.ops, grid.dt)
    assert abs(dJ_adj - dJ_lin) / max(1.0, abs(dJ_lin)) <= 1e-10


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(2, 6), st.floats(0.3, 3.0), st.floats(0.3, 3.0),
       st.floats(0.1, 5.0), st.floats(0.05, 2.0), st.integers(1, 40),
       st.integers(0, 2**32 - 1), st.sampled_from([0.0, 1e-2]))
def test_energy_decay_on_random_rectangles(nx, ny, lx, ly, tau, T, N, seed, eps):
    # Convex splitting without reaction or sources never raises the free
    # energy of the run's potential, Yosida-regularized or not, for every
    # rectangle, viscosity and step, within the bound of the verify suite.
    mesh = build_rectangle(nx, ny, lx, ly)
    pair = PotentialPair.same(regular_potential())
    opts = SolverOptions(scheme="convex-splitting", newton_tol=1e-12, eps_yosida=eps)
    problem = Problem.create(mesh, pair, opts, Physics(tau, 0.0), TimeGrid(T=T, N=N))
    rng = np.random.default_rng(seed)
    phi0 = PairField.from_bulk(mesh, rng.uniform(-0.8, 0.8, mesh.n_bulk))
    traj = solve(problem, phi0, ControlPair.zeros(mesh, problem.grid))
    assert np.diff(energy(problem, traj.phi)).max() <= 1e-12
