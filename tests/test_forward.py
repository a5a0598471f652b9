from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla

from cho import forward, spaces
from cho.control import ControlPair, random_direction
from cho.errors import SolverError, ValidationError
from cho.forward import (
    Physics,
    Problem,
    SolverOptions,
    StateTrajectory,
    TimeGrid,
    energy,
    exact_mean,
    initial_mu,
    mean_ode_residual,
    require_mean_value,
    separation_check,
    solve,
)
from cho.config import PRESETS, preset_config
from cho.mesh import build_interval, build_rectangle
from cho.potentials import PotentialPair, logarithmic_potential, regular_potential
from cho.spaces import BlockTemplate, CoupledOperators, PairField

from conftest import cosine_ic, make_problem


def mixed_problem(**opts):
    """A regular bulk and a logarithmic boundary potential on 8 cells."""
    return replace(make_problem(n_cells=8, **opts), pair=PotentialPair(
        bulk=regular_potential(), boundary=logarithmic_potential(2.0)))


class TestStep:
    def test_constant_state_scalar_recursion(self):
        # With vanishing stiffness the first residual collapses to
        # (1 + gamma dt) phi_new = phi_old + gamma dt b.
        # One step of dt = 0.1 from phi = 0.5 with zero sources.
        problem = make_problem(n_cells=6, T=0.1, N=1, gamma=1.0)
        mesh = problem.mesh
        traj = solve(problem, PairField.constant(mesh, 0.5),
                     ControlPair.zeros(mesh, problem.grid))
        assert np.allclose(traj.phi[1], 0.5 / 1.1, atol=1e-11)

    def test_zero_data_is_fixed_point(self):
        problem = make_problem()
        mesh, grid = problem.mesh, problem.grid
        traj = solve(problem, PairField.constant(mesh, 0.0),
                     ControlPair.zeros(mesh, grid))
        assert np.abs(traj.phi).max() == 0.0
        assert np.abs(traj.mu).max() == 0.0

    def test_residual_contract_after_convergence(self, generic_run):
        problem, phi0, controls, traj = generic_run
        # Recompute the step residuals at the stored states, in node order,
        # and take their mass-weighted norm here rather than the solver's.
        ops, dt = problem.ops, problem.grid.dt
        gamma, tau = problem.physics.gamma, problem.physics.tau
        for k in range(problem.grid.N):
            u, ug = controls.u[k], controls.uG[k]
            source = gamma * (ops.M_bulk @ u + ops.P.T @ (ops.M_gamma @ ug))
            phi_n, phi, mu = traj.phi[k], traj.phi[k + 1], traj.mu[k + 1]
            r1 = ops.M_total @ ((phi - phi_n) / dt + gamma * phi) + ops.K_total @ mu - source
            r2 = ((tau / dt) * (ops.M_total @ (phi - phi_n)) + ops.K_total @ phi
                  + problem.implicit(phi)[0] + problem.explicit(phi_n, 0)
                  - ops.M_total @ mu)
            w = ops.lumped_total
            assert np.sqrt(r1 @ (r1 / w) + r2 @ (r2 / w)) <= problem.opts.newton_tol

    def test_nonconvergence_reports_residual(self, monkeypatch):
        monkeypatch.setattr(forward, "NEWTON_MAX_ITER", 0)
        problem = make_problem()
        mesh, grid = problem.mesh, problem.grid
        with pytest.raises(SolverError) as err:
            solve(problem, cosine_ic(mesh, 0.4), ControlPair.zeros(mesh, grid))
        assert err.value.residual is not None
        assert err.value.step == 1

    def test_non_finite_right_hand_side_raises_at_its_step(self):
        problem = make_problem()
        ops = problem.ops
        rhs = np.ones(2 * ops.mesh.n_bulk)
        rhs[3] = np.inf
        with pytest.raises(SolverError, match="linear solve at step 4") as err:
            forward.solve_block_system(ops, problem.jacobian_coefficients, rhs,
                                       np.ones(ops.mesh.n_bulk), step=4)
        assert err.value.step == 4
        assert "non-finite at rows [3]" in str(err.value)

    @pytest.mark.parametrize("build", [
        lambda: make_problem(), lambda: make_problem(eps_yosida=1e-2),
        lambda: make_problem(scheme="convex-splitting"),
        lambda: make_problem(kind="logarithmic"), mixed_problem,
    ], ids=["regular", "yosida", "splitting", "logarithmic", "mixed"])
    def test_jacobian_lambda_equals_the_lumped_nodal_pass(self, build):
        # jacobian takes lambda from the inlined pass of implicit; it equals
        # the generic per-side lumping of each potential's nodal lambda, bit
        # for bit, on a stack of states too.
        problem = build()
        x = problem.mesh.bulk_nodes[:, 0]
        phi = np.stack([0.5 * np.cos(np.pi * x), 0.3 * np.sin(2 * np.pi * x)])
        lam, = problem._lumped(lambda spec, r: problem._nodal(spec, r)[1:], phi)
        assert np.array_equal(problem.jacobian(phi)[0], lam)


class TestInitialMu:
    @pytest.mark.parametrize("kind", ["interval", "rectangle"])
    def test_matches_a_direct_mass_solve(self, kind):
        if kind == "interval":
            problem = make_problem(n_cells=24, kind="logarithmic")
        else:
            problem = Problem.create(
                build_rectangle(6, 5, 1.0, 0.8),
                PotentialPair.same(logarithmic_potential(2.0)),
                SolverOptions(), Physics(1.0, 1.0), TimeGrid(0.4, 4),
            )
        ops = problem.ops
        phi0 = 0.6 * np.sin(np.arange(ops.mesh.n_bulk))
        rhs = ops.K_total @ phi0 + problem.implicit(phi0)[0]
        direct = spla.spsolve(ops.M_total.tocsc(), rhs)
        mu0 = initial_mu(problem, phi0)
        assert np.linalg.norm(mu0 - direct) <= 1e-13 * np.linalg.norm(direct)

    def test_non_finite_potential_fails_at_step_0(self, monkeypatch):
        nodal = Problem._nodal
        monkeypatch.setattr(Problem, "_nodal", lambda self, spec, r: (
            np.full_like(r, np.nan), nodal(self, spec, r)[1]))
        problem = make_problem()
        with pytest.raises(SolverError, match="initial chemical potential") as err:
            solve(problem, cosine_ic(problem.mesh), ControlPair.zeros(problem.mesh, problem.grid))
        assert err.value.step == 0
        assert "non-finite right-hand side at node 0 (nan)" in str(err.value)


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize("build,fragment", [
    (lambda: TimeGrid(T=NAN, N=4), "final time T"),
    (lambda: Physics(tau=NAN, gamma=1.0), "tau"),
    (lambda: Physics(tau=1.0, gamma=NAN), "gamma"),
    (lambda: SolverOptions(newton_tol=NAN), "newton_tol"),
    (lambda: SolverOptions(eps_yosida=NAN), "eps_yosida"),
    (lambda: TimeGrid(T=INF, N=4), "final time T"),
    (lambda: Physics(tau=INF, gamma=1.0), "tau"),
    (lambda: Physics(tau=1.0, gamma=INF), "gamma"),
    (lambda: SolverOptions(newton_tol=INF), "newton_tol"),
    (lambda: TimeGrid(T=1e-308, N=8), "no finite reciprocal"),
])
def test_nan_parameters_rejected(build, fragment):
    with pytest.raises(ValidationError, match=fragment):
        build()


class TestSolve:
    def test_constant_data_first_order_convergence(self):
        # Spatially constant run against a e^{-gamma T} + b (1 - e^{-gamma T}).
        a, b, gamma, tau, T = 0.5, 1.0, 2.0, 1.0, 1.0
        exact = a * np.exp(-gamma * T) + b * (1 - np.exp(-gamma * T))

        def terminal_error(N):
            problem = make_problem(n_cells=8, T=T, N=N, tau=tau, gamma=gamma)
            traj = solve(problem, PairField.constant(problem.mesh, a),
                         ControlPair.constant(problem.mesh, problem.grid, b))
            spread = traj.phi[-1].max() - traj.phi[-1].min()
            assert spread < 1e-12   # stays exactly spatially constant
            return abs(traj.phi[-1][0] - exact)

        ratio = terminal_error(20) / terminal_error(40)
        assert 1.7 <= ratio <= 2.3

    def test_mz_precondition_enforced(self):
        problem = make_problem(kind="logarithmic", gamma=1.0)
        mesh, grid = problem.mesh, problem.grid
        with pytest.raises(ValidationError, match="mean-value condition fails: "):
            solve(problem, PairField.constant(mesh, 0.8),
                  ControlPair.constant(mesh, grid, 0.5))

    def test_interior_precondition_enforced(self):
        problem = make_problem(kind="logarithmic")
        mesh, grid = problem.mesh, problem.grid
        with pytest.raises(ValidationError, match="interior"):
            solve(problem, PairField.constant(mesh, 1.0),
                  ControlPair.zeros(mesh, grid))

    def test_interior_precondition_reads_only_the_constrained_nodes(self):
        # A regular bulk and a logarithmic boundary potential constrain the
        # trace alone: a bulk peak of 1.2 is admissible, a trace node at 1
        # is not.
        problem = mixed_problem()
        mesh, grid = problem.mesh, problem.grid
        assert np.array_equal(np.flatnonzero(problem.interior), np.sort(mesh.trace_map))
        values = 0.2 + np.sin(np.pi * mesh.bulk_nodes[:, 0])
        traj = solve(problem, PairField.from_bulk(mesh, values), ControlPair.zeros(mesh, grid))
        assert traj.phi[0].max() > 1.0
        assert np.abs(traj.phi[:, mesh.trace_map]).max() < 1.0
        values[mesh.trace_map[0]] = 1.0
        with pytest.raises(ValidationError, match="initial datum must be strictly interior"):
            solve(problem, PairField.from_bulk(mesh, values), ControlPair.zeros(mesh, grid))

    def test_yosida_run_is_unconstrained(self):
        # Under Yosida neither the interior precondition nor the mean-value
        # condition applies: a trace node at 1.2 and a mean of 1.2 pass.
        problem = mixed_problem(eps_yosida=1e-2)
        mesh, grid = problem.mesh, problem.grid
        assert problem.interior is None
        outside = PairField.constant(mesh, 1.2)
        require_mean_value(problem, outside, 0.0)
        with pytest.raises(ValidationError, match="mean-value condition fails: "):
            require_mean_value(mixed_problem(), outside, 0.0)
        values = np.zeros(mesh.n_bulk)
        values[mesh.trace_map[0]] = 1.2
        solve(problem, PairField.from_bulk(mesh, values), ControlPair.zeros(mesh, grid))

    def test_one_logarithmic_potential_constrains_every_node(self):
        problem = make_problem(n_cells=8, kind="logarithmic")
        assert problem.interior.shape == (problem.mesh.n_bulk,)
        assert problem.interior.all()
        assert make_problem(n_cells=8).interior is None

    def test_overflowing_residual_fails_at_once(self):
        # dt = 1.25e-301: the first residual overflows its weighted norm.
        problem = make_problem(n_cells=8, T=1e-300, N=8)
        with pytest.raises(SolverError, match="Newton iteration 0: non-finite step residual") as err:
            solve(problem, cosine_ic(problem.mesh), ControlPair.zeros(problem.mesh, problem.grid))
        assert err.value.step == 1

    def test_determinism(self, generic_run):
        problem, phi0, controls, traj = generic_run
        again = solve(problem, phi0, controls)
        assert np.array_equal(traj.phi, again.phi)
        assert np.array_equal(traj.mu, again.mu)

    def test_shape_validation(self):
        problem = make_problem()
        mesh = problem.mesh
        bad = ControlPair(np.zeros((3, mesh.n_bulk)), np.zeros((3, mesh.n_boundary)))
        with pytest.raises(ValidationError):
            solve(problem, PairField.constant(mesh, 0.0), bad)

    def test_initial_datum_of_another_mesh_rejected(self):
        problem = make_problem()
        other = build_interval(problem.mesh.n_bulk, 1.0)
        with pytest.raises(ValidationError, match="initial datum has shape"):
            solve(problem, PairField.constant(other, 0.0),
                  ControlPair.zeros(problem.mesh, problem.grid))

    def test_2d_smoke(self):
        from cho.forward import Problem

        mesh = build_rectangle(4, 4, 1.0, 1.0)
        problem = Problem.create(
            mesh, PotentialPair.same(regular_potential()), SolverOptions(),
            Physics(1.0, 1.0), TimeGrid(T=0.1, N=4),
        )
        rng = np.random.default_rng(0)
        phi0 = PairField.from_bulk(mesh, rng.uniform(-0.3, 0.3, mesh.n_bulk))
        traj = solve(problem, phi0, ControlPair.constant(mesh, problem.grid, 0.1))
        res = mean_ode_residual(traj, ControlPair.constant(mesh, problem.grid, 0.1),
                                problem.ops, 1.0)
        assert np.abs(res).max() < 1e-9


class TestMeanDynamics:
    def test_residual_below_tolerance(self, generic_run):
        problem, phi0, controls, traj = generic_run
        res = mean_ode_residual(traj, controls, problem.ops, problem.physics.gamma)
        assert np.abs(res).max() <= 1e-9
        # Sharper consequence of testing R1 with the constant pair: the
        # residual is bounded by the Newton tolerance over the measure.
        bound = 10.0 * problem.opts.newton_tol / problem.ops.measure
        assert np.abs(res).max() <= bound

    def test_zero_mean_stays_zero(self):
        problem = make_problem()
        mesh, grid = problem.mesh, problem.grid
        # Mean-free initial datum, zero controls: m_n = 0 for all n.
        phi0 = cosine_ic(mesh, 0.2)
        m0 = problem.ops.mean(phi0.bulk, phi0.boundary)
        phi0 = PairField.from_bulk(mesh, phi0.bulk - m0)
        traj = solve(problem, phi0, ControlPair.zeros(mesh, grid))
        means = problem.ops.mean(traj.phi, traj.phi[:, mesh.trace_map])
        assert np.abs(means).max() < 1e-10

    def test_constant_source_geometric_approach(self):
        # u = uG = c: the discrete mean contracts toward c by the exact
        # factor 1/(1 + gamma dt) per step.
        c, gamma = 0.7, 1.5
        problem = make_problem(gamma=gamma, T=0.5, N=10)
        mesh, grid = problem.mesh, problem.grid
        traj = solve(problem, PairField.constant(mesh, 0.1),
                     ControlPair.constant(mesh, grid, c))
        q = 1.0 / (1.0 + gamma * grid.dt)
        m = problem.ops.mean(traj.phi, traj.phi[:, mesh.trace_map])
        expected = c + (0.1 - c) * q ** np.arange(grid.N + 1)
        assert np.allclose(m, expected, atol=1e-10)


class TestExactMean:
    def test_decay_value_frozen(self):
        # m0 e^{-gamma t} with omega = 0: 0.5 / e at t = 1.
        grid = TimeGrid(T=1.0, N=4)
        got = exact_mean(0.5, 1.0, np.zeros(4), grid)
        assert got.shape == (5,)
        assert np.isclose(got[-1], 0.18393972058572117, rtol=1e-14)

    def test_equilibrium(self):
        grid = TimeGrid(T=2.0, N=8)
        assert np.allclose(exact_mean(0.4, 3.0, np.full(8, 0.4), grid), 0.4)

    def test_quadrature_against_numerical_integration(self):
        # Independent oracle: numerically integrate the variation-of-
        # constants formula for a piecewise-constant source.
        from scipy.integrate import quad

        grid = TimeGrid(T=1.0, N=5)
        rng = np.random.default_rng(8)
        omega = rng.uniform(-1, 1, 5)
        gamma, m0 = 1.7, 0.3

        def omega_fn(s):
            return omega[min(int(s / grid.dt), 4)]

        got = exact_mean(m0, gamma, omega, grid)
        for t, value in zip(grid.times(), got):
            val, _ = quad(lambda s: np.exp(-gamma * (t - s)) * omega_fn(s), 0, t,
                          points=grid.times(), limit=200)
            expected = m0 * np.exp(-gamma * t) + gamma * val
            assert np.isclose(value, expected, atol=1e-9)

    def test_bound_by_reaction_limit(self):
        # |m(t)| <= m0^+ + M/gamma for |omega| <= M (gamma <= 1).
        grid = TimeGrid(T=2.0, N=10)
        rng = np.random.default_rng(9)
        M, gamma, m0 = 0.8, 0.9, 0.25
        for _ in range(20):
            omega = rng.uniform(-M, M, 10)
            assert np.all(np.abs(exact_mean(m0, gamma, omega, grid)) <= m0 + M / gamma + 1e-12)

    def test_slab_count_checked(self):
        with pytest.raises(ValueError, match="expected 4 slab values"):
            exact_mean(0.5, 1.0, np.zeros(3), TimeGrid(T=1.0, N=4))


class TestEnergy:
    def test_constant_zero_field(self):
        problem = make_problem(n_cells=4, length=1.0)
        traj = solve(problem, PairField.constant(problem.mesh, 0.0),
                     ControlPair.zeros(problem.mesh, problem.grid))
        # F(0) (|Omega| + |Gamma|) = 0.25 * 3.
        assert np.isclose(energy(problem, traj.phi[0]), 0.75)

    def test_pure_phases_have_zero_energy(self):
        problem = make_problem(n_cells=4)
        for value in (1.0, -1.0):
            phi = solve(problem, PairField.constant(problem.mesh, value),
                        ControlPair.zeros(problem.mesh, problem.grid)).phi[0]
            assert abs(energy(problem, phi)) < 1e-14

    def test_nonnegative_for_regular_potential(self):
        problem = make_problem()
        rng = np.random.default_rng(10)
        for _ in range(5):
            phi = rng.uniform(-2, 2, problem.mesh.n_bulk)
            assert energy(problem, phi) >= 0.0

    def test_convex_splitting_decay(self):
        problem = make_problem(n_cells=24, T=0.5, N=60, gamma=0.0,
                               scheme="convex-splitting", newton_tol=1e-12)
        rng = np.random.default_rng(2)
        phi0 = PairField.from_bulk(problem.mesh,
                                   rng.uniform(-0.8, 0.8, problem.mesh.n_bulk))
        traj = solve(problem, phi0, ControlPair.zeros(problem.mesh, problem.grid))
        E = energy(problem, traj.phi)
        assert E.shape == (problem.grid.N + 1,)
        assert max(np.diff(E)) <= 1e-12
        # A stack of rows gives each row's energy.
        rows = [energy(problem, phi) for phi in traj.phi]
        assert np.allclose(E, rows, rtol=1e-14, atol=0.0)


class TestSeparationCheck:
    def test_not_applicable_for_regular(self, generic_run):
        problem, phi0, controls, traj = generic_run
        report = separation_check(traj, None)
        assert not report.applicable and report.passed

    def test_synthetic_violation_reports_node(self):
        problem = make_problem(n_cells=4, N=2)
        phi = np.zeros((3, 5))
        phi[2, 3] = 0.9999
        traj = StateTrajectory(problem.mesh, problem.grid, phi, np.zeros_like(phi),
                               np.zeros(2, dtype=int))
        report = separation_check(traj, 0.9)
        assert report.applicable and not report.passed
        assert (report.worst_step, report.worst_node) == (2, 3)
        assert np.isclose(report.worst_value, 0.9999)

    def test_logarithmic_run_stays_separated(self):
        from cho.potentials import separation_r0

        problem = make_problem(kind="logarithmic", T=0.5, N=20)
        phi0 = cosine_ic(problem.mesh, 0.3)
        controls = ControlPair.constant(problem.mesh, problem.grid, 0.2, 0.1)
        traj = solve(problem, phi0, controls)
        r0 = separation_r0(problem.pair, float(np.abs(traj.mu[1:]).max()), 0.3)
        assert separation_check(traj, r0).passed


def _yosida_errors(problem, phi0, controls, eps_list):
    """L2(H) distances of the runs at every eps but the last to the run at
    the last, each eps solved through ``with_options``."""
    *runs, ref = [solve(problem.with_options(eps_yosida=eps), phi0, controls)
                  for eps in eps_list]
    return ref, [forward.traj_norm_L2H(problem.ops, problem.grid, traj.phi - ref.phi)
                 for traj in runs]


class TestYosidaContinuation:
    def test_errors_decrease_for_regular(self):
        problem = make_problem(T=0.3, N=6)
        phi0 = cosine_ic(problem.mesh, 0.4)
        controls = ControlPair.constant(problem.mesh, problem.grid, 0.1)
        _, errs = _yosida_errors(problem, phi0, controls, (1e-1, 1e-2, 1e-3))
        assert len(errs) == 2 and errs[0] > errs[1] > 0

    def test_zero_eps_is_the_unregularized_reference(self):
        problem = make_problem(T=0.3, N=6)
        phi0 = cosine_ic(problem.mesh, 0.4)
        controls = ControlPair.constant(problem.mesh, problem.grid, 0.1)
        ref, errs = _yosida_errors(problem, phi0, controls, (1e-1, 1e-2, 0.0))
        assert np.array_equal(ref.phi, solve(problem, phi0, controls).phi)
        assert errs[0] > errs[1] > 0

    def test_logarithmic_completes_with_regularization(self):
        # The regularized operator is globally defined, so the run survives
        # data that would violate the interior requirements at eps = 0.
        problem = make_problem(kind="logarithmic", T=0.2, N=4)
        phi0 = cosine_ic(problem.mesh, 0.5)
        controls = ControlPair.constant(problem.mesh, problem.grid, 0.8)
        for eps in (1e-1, 1e-2):
            traj = solve(problem.with_options(eps_yosida=eps), phi0, controls)
            assert np.all(np.isfinite(traj.phi))


class TestContinuousDependence:
    def test_ratio_stable_across_scales(self):
        from cho.control import control_norm

        problem = make_problem(T=0.4, N=10)
        phi0 = cosine_ic(problem.mesh, 0.2)
        u = ControlPair.constant(problem.mesh, problem.grid, 0.05)
        h = random_direction(problem.mesh, problem.grid, np.random.default_rng(3))
        h = h.scaled(0.2 / h.sup_norm())
        scales = (1.0, 0.5, 0.25)
        base, *perturbed = forward.solve_many(problem, phi0,
                                              [u] + [u.plus(h, s) for s in scales])
        hnorm = control_norm(h, problem.ops, problem.grid.dt)
        ratios = [forward.traj_norm_Y(problem.ops, problem.grid, traj.phi - base.phi)
                  / (s * hnorm) for traj, s in zip(perturbed, scales)]
        assert max(ratios) / min(ratios) < 1.2
        assert all(np.isfinite(r) and r > 0 for r in ratios)


# ---------------------------------------------------------------------------
# The refactor ratio of each template storage
# ---------------------------------------------------------------------------

def _splitting_run(nx, monkeypatch, rho_band):
    """A convex-splitting run on an nx x nx rectangle with gamma = 0, as
    the energy-decay check solves it, with ``CHORD_RHO_BAND`` = ``rho_band``:
    the trajectory, the template, and the number of factorizations."""
    monkeypatch.setattr(forward, "CHORD_RHO_BAND", rho_band)
    factors = []
    factor = BlockTemplate.factor
    monkeypatch.setattr(BlockTemplate, "factor",
                        lambda self, c, lam: factors.append(1) or factor(self, c, lam))
    mesh = build_rectangle(nx, nx, 1.0, 1.0)
    problem = Problem.create(mesh, PotentialPair.same(regular_potential()),
                             SolverOptions(scheme="convex-splitting", newton_tol=1e-12),
                             Physics(tau=1.0, gamma=0.0), TimeGrid(T=1.0, N=50))
    phi0 = PairField.from_bulk(mesh, np.random.default_rng(0).uniform(-0.8, 0.8, mesh.n_bulk))
    traj = solve(problem, phi0, ControlPair.zeros(mesh, problem.grid))
    return traj, problem.ops.block_template, len(factors)


class TestChordRefactorRatio:
    def test_band_factor_is_rebuilt_early(self, monkeypatch):
        # 8 x 8: 355 Newton iterations on one factor under CHORD_RHO, 184
        # on 5 factors under CHORD_RHO_BAND.
        band, template, factors = _splitting_run(8, monkeypatch, forward.CHORD_RHO_BAND)
        assert template.dense and not template.exact
        chord, _, chord_factors = _splitting_run(8, monkeypatch, forward.CHORD_RHO)
        assert band.newton_iters.sum() < 0.6 * chord.newton_iters.sum()
        assert chord_factors <= factors <= band.grid.N // 5

    @pytest.mark.parametrize("nx, dense_max", [(8, 0), (12, spaces.DENSE_MAX)])
    def test_csc_templates_ignore_the_band_ratio(self, nx, dense_max, monkeypatch):
        monkeypatch.setattr(spaces, "DENSE_MAX", dense_max)
        runs = [_splitting_run(nx, monkeypatch, rho) for rho in (forward.CHORD_RHO_BAND, 0.5)]
        (traj, template, _), (ref, _, _) = runs
        assert not template.dense
        assert np.array_equal(traj.newton_iters, ref.newton_iters)
        assert np.array_equal(traj.phi, ref.phi)
        assert np.array_equal(traj.mu, ref.mu)


# ---------------------------------------------------------------------------
# Stacked solves: many controls, one chord Newton
# ---------------------------------------------------------------------------

def _stack_case(mesh, kind="regular", base=0.05, far=3.0, amplitude=0.6, waves=1.0,
                T=0.4, N=8, newton_tol=1e-10):
    """A problem on ``mesh``, a cosine datum, and controls around the
    constant ``base`` (the last of them ``base`` itself), then the constant
    ``far`` when given, whose column takes more iterations than the rest."""
    problem = Problem.create(mesh, PotentialPair.same(
        regular_potential() if kind == "regular" else logarithmic_potential(2.0)),
        SolverOptions(newton_tol=newton_tol), Physics(1.0, 1.0), TimeGrid(T=T, N=N))
    rng = np.random.default_rng(1)
    grid = problem.grid
    controls = [ControlPair.constant(mesh, grid, base).plus(random_direction(mesh, grid, rng), s)
                for s in (0.03, 0.01, -0.02, 0.005, 0.0)]
    if far is not None:
        controls.append(ControlPair.constant(mesh, grid, far))
    return problem, cosine_ic(mesh, amplitude, waves), controls


STACKS = {
    "dense-8x8": lambda: _stack_case(build_rectangle(8, 8, 1.0, 1.0)),
    "csc-interval-128": lambda: _stack_case(build_interval(128, 1.0)),
    # Near the ends of the logarithmic domain: the interior damping cuts
    # the first correction of every column, each by its own fraction.  The
    # exact template corrects every column, as its separate solve, on a
    # factor at its own state, so the columns around 0 stop together; the
    # constant -0.2 takes two iterations more in the first step.
    "logarithmic-damped": lambda: _stack_case(build_interval(24, 1.0), "logarithmic", 0.0,
                                              -0.2, amplitude=0.999, waves=2.0, T=1.0, N=4,
                                              newton_tol=1e-12),
}


class TestSolveMany:
    @pytest.mark.parametrize("case", STACKS.values(), ids=STACKS.keys())
    def test_columns_match_separate_solves(self, case, monkeypatch):
        problem, phi0, controls = case()
        alphas = []
        damping = forward._damping

        def recorded(*args):
            alphas.append(damping(*args))
            return alphas[-1]

        monkeypatch.setattr(forward, "_damping", recorded)
        stack = forward.solve_many(problem, phi0, controls)
        assert len(stack) == len(controls)
        for traj, u in zip(stack, controls):
            ref = solve(replace(problem, ops=CoupledOperators(problem.mesh)), phi0, u)
            for got, want in ((traj.phi, ref.phi), (traj.mu, ref.mu)):
                assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()
        # Columns stop at different iterations.
        iters = np.array([traj.newton_iters for traj in stack])
        assert (iters != iters[0]).any()
        if problem.interior is not None:
            assert any(len(a) == len(controls) and max(a) < 1.0 and min(a) < max(a)
                       for a in alphas)
        assert problem.ops.block_template.dense == (problem.mesh.n_bulk <= 100)

    def test_a_one_column_stack_is_solve(self, generic_run):
        problem, phi0, controls, traj = generic_run
        one, = forward.solve_many(problem, phi0, [controls])
        again = solve(problem, phi0, controls)
        assert np.array_equal(one.phi, again.phi) and np.array_equal(one.mu, again.mu)
        assert forward.solve_many(problem, phi0, []) == []

    def test_failing_column_names_step_and_column(self, monkeypatch):
        problem, phi0, controls = _stack_case(build_interval(12, 1.0))
        implicit = Problem.implicit

        def poisoned(self, phi):
            nodal, lam = implicit(self, phi)
            if np.ndim(phi) == 2 and len(phi) == len(controls):
                nodal = nodal.copy()
                nodal[3, 5] = np.nan
            return nodal, lam

        monkeypatch.setattr(Problem, "implicit", poisoned)
        with pytest.raises(SolverError, match=r"^step 1/8 failed: column 3: Newton "
                           r"iteration 0: non-finite step residual \(nan\)") as err:
            forward.solve_many(problem, phi0, controls)
        assert err.value.step == 1

    def test_column_failing_after_others_left_is_named(self, monkeypatch):
        # Column 0 starts at its steady state and stops at iteration 0;
        # column 1 then exhausts the iteration budget, which names it.
        monkeypatch.setattr(forward, "NEWTON_MAX_ITER", 1)
        problem = make_problem()
        mesh, grid = problem.mesh, problem.grid
        zero = ControlPair.zeros(mesh, grid)
        with pytest.raises(SolverError, match=r"^step 1/8 failed: column 1: Newton did "
                           r"not converge in 1 iterations") as err:
            forward.solve_many(problem, PairField.constant(mesh, 0.0),
                               [zero, ControlPair.constant(mesh, grid, 0.5)])
        assert err.value.step == 1 and err.value.residual > problem.opts.newton_tol

    def test_non_finite_jacobian_names_its_running_column(self, monkeypatch):
        # lambda is poisoned at node 0 in every column. Column 0 rests at
        # its steady state and stops at iteration 0, before the check, so
        # only column 1's lambda is checked, and the error names column 1.
        implicit = Problem.implicit

        def poisoned(self, phi):
            nodal, lam = implicit(self, phi)
            if np.ndim(phi) == 2:
                lam = lam.copy()
                lam[:, 0] = np.inf
            return nodal, lam

        monkeypatch.setattr(Problem, "implicit", poisoned)
        problem = make_problem()
        mesh, grid = problem.mesh, problem.grid
        with pytest.raises(SolverError, match=r"^step 1/8 failed: column 1: Newton iteration "
                           r"1: linear solve: non-finite Jacobian diagonal at node 0 \(inf\)"):
            forward.solve_many(problem, PairField.constant(mesh, 0.0),
                               [ControlPair.zeros(mesh, grid), ControlPair.constant(mesh, grid, 0.5)])

    def test_columns_are_validated_by_name(self):
        problem = make_problem(n_cells=8, kind="logarithmic")
        mesh, grid = problem.mesh, problem.grid
        phi0 = PairField.constant(mesh, 0.1)
        ok = ControlPair.zeros(mesh, grid)
        short = ControlPair(np.zeros((3, mesh.n_bulk)), np.zeros((3, mesh.n_boundary)))
        with pytest.raises(ValidationError, match="^column 1 control slabs have shapes"):
            forward.solve_many(problem, phi0, [ok, short])
        with pytest.raises(ValidationError, match="^mean-value condition fails in column 2: "):
            forward.solve_many(problem, phi0, [ok, ok, ControlPair.constant(mesh, grid, 5.0)])

    def test_a_failing_stack_exits_3(self, tmp_path, monkeypatch, capsys):
        # The command line maps a stack's SolverError as it maps one run's.
        from cho import cli
        from test_cli import MINIMAL, write_yaml

        implicit = Problem.implicit

        def poisoned(self, phi):
            nodal, lam = implicit(self, phi)
            if np.ndim(phi) == 2 and len(phi) == 2:
                nodal = nodal.copy()
                nodal[1] = np.inf
            return nodal, lam

        monkeypatch.setattr(Problem, "implicit", poisoned)
        monkeypatch.setattr(cli, "solve", lambda problem, phi0, u: forward.solve_many(
            problem, phi0, [u, u.scaled(0.5)])[0])
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "-c", write_yaml(tmp_path, dict(MINIMAL))]) == 3
        err = capsys.readouterr().err
        assert "solver error: step 1/4 failed: column 1: Newton iteration 0" in err
        assert not (tmp_path / "out").exists()


def _preset_run(name):
    cfg = preset_config(name)
    problem = cfg.build_problem()
    return problem, cfg.build_initial(problem.mesh), cfg.build_controls(problem.mesh,
                                                                         problem.grid)


class TestWarmStart:
    @pytest.mark.parametrize("name", PRESETS)
    def test_own_trajectory_needs_no_correction(self, name):
        # From its own trajectory G, step k + 1 starts at y_k + (G_{k+1} -
        # G_k), which is G_{k+1} up to round-off: every step stops at
        # iteration 0, within round-off of the cold solve.
        problem, phi0, u = _preset_run(name)
        cold = solve(problem, phi0, u)
        assert cold.newton_iters.all()
        warm = solve(problem, phi0, u, start=cold)
        assert not warm.newton_iters.any()
        for got, want in ((warm.phi, cold.phi), (warm.mu, cold.mu)):
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_start_leaving_the_interior_falls_back(self):
        # Logarithmic: a start that raises phi by 2 per step predicts phi
        # outside (-1, 1) at every step, so every step starts from the old
        # state, and the solve is the cold one bit for bit.
        problem, phi0, u = _preset_run("logarithmic")
        assert problem.interior is not None
        cold = solve(replace(problem, ops=CoupledOperators(problem.mesh)), phi0, u)
        N, n = cold.phi.shape
        rising = StateTrajectory(problem.mesh, problem.grid,
                                 2.0 * np.arange(N)[:, None] * np.ones(n), cold.mu, None)
        warm = solve(problem, phi0, u, start=rising)
        assert np.array_equal(warm.newton_iters, cold.newton_iters)
        assert np.array_equal(warm.phi, cold.phi) and np.array_equal(warm.mu, cold.mu)

    def test_start_on_another_grid_is_rejected(self):
        problem, phi0, u = _preset_run("coarse")
        other = solve(problem, phi0, u)
        other.phi = other.phi[:-1]
        with pytest.raises(ValidationError, match="^start trajectory has shape"):
            solve(problem, phi0, u, start=other)


# ---------------------------------------------------------------------------
# Newton's round-off floor
# ---------------------------------------------------------------------------

def _fine_interval_config(tmp_path, cells, newton_tol):
    """An interval run whose step residual reaches its round-off floor
    above ``newton_tol``: datum 0.4 cos(pi x), T = 0.1, N = 10, controls
    0.1 and 0.05."""
    from test_cli import write_yaml

    x = np.linspace(0.0, 1.0, cells + 1)
    datum = tmp_path / "datum.csv"
    np.savetxt(datum, [0.4 * np.cos(np.pi * x)], delimiter=",")
    return write_yaml(tmp_path, {
        "run_name": "floor",
        "domain": {"dim": 1, "cells": cells, "length": 1.0},
        "time": {"T": 0.1, "steps": 10},
        "physics": {"tau": 1.0, "gamma": 1.0},
        "potential": {"kind": "regular"},
        "solver": {"newton_tol": newton_tol},
        "initial": {"preset": "csv", "path": str(datum)},
        "control": {"u": 0.1, "uG": 0.05},
        "output": {"directory": str(tmp_path / "out"), "snapshot_stride": 10},
    })


class TestRoundoffFloor:
    @pytest.mark.parametrize("cells, newton_tol", [(256, 1e-12), (2048, 1e-10)])
    def test_fine_intervals_stop_at_the_floor(self, cells, newton_tol, tmp_path, monkeypatch):
        # Both failed at step 1 after 50 iterations, with last residuals
        # 2.172e-12 and 1.355e-10, before Newton stopped at the floor.
        from cho import cli
        from cho.config import load_config

        path = _fine_interval_config(tmp_path, cells, newton_tol)
        monkeypatch.chdir(tmp_path)
        assert cli.main(["simulate", "-c", path]) == 0
        cfg = load_config(path)
        problem = cfg.build_problem()
        mesh = problem.mesh
        controls = cfg.build_controls(mesh, problem.grid)
        traj = solve(problem, cfg.build_initial(mesh), controls)
        assert traj.newton_iters.max() < forward.NEWTON_MAX_ITER
        resid = mean_ode_residual(traj, controls, problem.ops, problem.physics.gamma)
        assert np.abs(resid).max() <= 1e-9

    def test_a_stall_above_the_floor_still_raises(self, monkeypatch):
        # A Jacobian diagonal 1e4 lumped masses too large: every correction
        # is a small fraction of a Newton step, and the residual stalls far
        # above its floor.
        problem = make_problem(newton_tol=1e-12)
        implicit = Problem.implicit

        def wrong_diagonal(self, phi):
            nodal, lam = implicit(self, phi)
            return nodal, lam + 1e4 * self.ops.lumped_total

        monkeypatch.setattr(Problem, "implicit", wrong_diagonal)
        with pytest.raises(SolverError, match="Newton did not converge") as err:
            solve(problem, cosine_ic(problem.mesh, 0.4),
                  ControlPair.constant(problem.mesh, problem.grid, 0.1, 0.05))
        assert err.value.step == 1 and err.value.residual > 1e-6
