import copy
import re
import time
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cho import control
from cho.adjoint import adjoint_solve, reduced_gradient
from cho.config import PRESETS, RunConfig, preset_config
from cho.control import (
    BACKTRACK,
    INITIAL_STEP,
    STEP_MAX,
    BoxBounds,
    ControlPair,
    ControlProblem,
    CostSpec,
    OptimizerOptions,
    control_inner,
    control_norm,
    cost,
    project_box,
    projected_gradient,
    validate_Uad,
    vi_residual,
)
from cho.errors import SolverError, ValidationError
from cho.forward import solve
from cho.spaces import CoupledOperators, PairField

from conftest import cosine_ic, make_problem
from test_benchmark_workloads import load_workloads

BOX = BoxBounds(u_min=-1.0, u_max=1.0, uG_min=-1.0, uG_max=1.0)


def make_pair(problem, value=0.0):
    return ControlPair.constant(problem.mesh, problem.grid, value)


class TestCost:
    def test_zero_when_on_target_with_zero_control(self):
        problem = make_problem()
        mesh, grid = problem.mesh, problem.grid
        traj = solve(problem, PairField.constant(mesh, 0.3),
                     ControlPair.constant(mesh, grid, 0.3))
        # gamma(u - phi) = 0 keeps phi = 0.3 exactly; track that value.
        spec = CostSpec(alphas=(1, 1, 1, 1, 0, 0), phiQ=0.3, phiS=0.3,
                        phiO=0.3, phiG=0.3)
        assert cost(spec, traj, ControlPair.zeros(mesh, grid), problem.ops) < 1e-20

    def test_pure_control_penalty_integrates_exactly(self):
        # a5/2 int_Q |u|^2 with a5 = 2, u = 1, |Q| = 1 x 1 -> J = 1.
        problem = make_problem(n_cells=8, T=1.0, N=10)
        traj = solve(problem, PairField.constant(problem.mesh, 0.0),
                     ControlPair.zeros(problem.mesh, problem.grid))
        spec = CostSpec(alphas=(0, 0, 0, 0, 2.0, 0))
        u = make_pair(problem, 1.0)
        assert np.isclose(cost(spec, traj, u, problem.ops), 1.0, rtol=1e-12)

    def test_linear_in_weights(self, generic_run):
        problem, phi0, controls, traj = generic_run
        base = CostSpec(alphas=(1, 0.5, 0.8, 0.3, 0.2, 0.1), phiQ=0.1)
        double = CostSpec(alphas=tuple(2 * a for a in base.alphas), phiQ=0.1)
        J1 = cost(base, traj, controls, problem.ops)
        J2 = cost(double, traj, controls, problem.ops)
        assert np.isclose(J2, 2 * J1, rtol=1e-13)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValidationError):
            CostSpec(alphas=(1, 1, 1, 1, -0.1, 1))

    @pytest.mark.parametrize("value", [np.nan, np.inf, [0.1, -np.inf]],
                             ids=["nan", "inf", "row"])
    @pytest.mark.parametrize("target", ["phiQ", "phiS", "phiO", "phiG"])
    def test_non_finite_target_rejected(self, target, value):
        # Caught where it enters, not as a non-finite cost or linear solve.
        with pytest.raises(ValidationError, match=f"cost target {target} "):
            CostSpec(**{target: value})


class TestProjectBox:
    def test_interior_unchanged(self):
        problem = make_problem(N=4)
        u = make_pair(problem, 0.3)
        proj = project_box(u, BOX)
        assert np.array_equal(proj.u, u.u)
        assert np.array_equal(proj.uG, u.uG)

    def test_clamps_to_bounds(self):
        problem = make_problem(N=4)
        proj = project_box(make_pair(problem, 5.0), BOX)
        assert np.all(proj.u == 1.0)
        assert np.all(proj.uG == 1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        pair = ControlPair(rng.uniform(-3, 3, (4, 7)), rng.uniform(-3, 3, (4, 2)))
        once = project_box(pair, BOX)
        twice = project_box(once, BOX)
        assert np.array_equal(once.u, twice.u)
        assert np.array_equal(once.uG, twice.uG)

    def test_infeasible_box_rejected(self):
        with pytest.raises(ValidationError, match="infeasible"):
            BoxBounds(u_min=1.0, u_max=-1.0, uG_min=0.0, uG_max=0.0)

    @pytest.mark.parametrize("bound", ["u_min", "u_max", "uG_min", "uG_max"])
    def test_nan_bound_rejected(self, bound):
        with pytest.raises(ValidationError, match="NaN"):
            BoxBounds(**{bound: float("nan")})

    def test_nan_M_prime_rejected(self):
        with pytest.raises(ValidationError, match="M'"):
            BoxBounds(M_prime=float("nan"))


class TestValidateUad:
    def test_time_constant_passes(self):
        problem = make_problem(N=6)
        report = validate_Uad(make_pair(problem, 0.5), BOX, problem.grid, problem.ops)
        assert report.passed and report.h1_norm_u == 0.0

    def test_alternating_slabs_fail_small_budget(self):
        problem = make_problem(T=0.08, N=8)   # dt = 0.01
        signs = np.resize([1.0, -1.0], 8)
        u = ControlPair(
            np.repeat(signs[:, None], problem.mesh.n_bulk, axis=1),
            np.repeat(signs[:, None], problem.mesh.n_boundary, axis=1),
        )
        tight = BoxBounds(u_min=-1, u_max=1, uG_min=-1, uG_max=1, M_prime=10.0)
        report = validate_Uad(u, tight, problem.grid, problem.ops)
        assert not report.h1_ok
        # Difference quotients of +-1 slabs scale like 2/dt.
        assert report.h1_norm_u > 2.0 / problem.grid.dt * 0.1

    def test_out_of_box_reported(self):
        problem = make_problem(N=4)
        report = validate_Uad(make_pair(problem, 2.0), BOX, problem.grid, problem.ops)
        assert not report.box_ok


class TestViResidual:
    def test_zero_gradient_interior(self):
        problem = make_problem(N=4)
        u = make_pair(problem, 0.2)
        g = make_pair(problem, 0.0)
        assert vi_residual(u, g, BOX, problem.ops, problem.grid.dt) == 0.0

    def test_at_lower_bound_with_positive_gradient(self):
        problem = make_problem(N=4)
        u = make_pair(problem, -1.0)
        g = make_pair(problem, 0.7)
        assert vi_residual(u, g, BOX, problem.ops, problem.grid.dt) == 0.0

    def test_interior_nonzero_gradient(self):
        problem = make_problem(N=4)
        u = make_pair(problem, 0.0)
        g = make_pair(problem, 0.3)
        got = vi_residual(u, g, BOX, problem.ops, problem.grid.dt)
        assert np.isclose(got, control_norm(g, problem.ops, problem.grid.dt))


class TestProjectedGradient:
    def make_control_problem(self, alphas, targets=None, gamma=1.0, **kwargs):
        problem = make_problem(n_cells=10, T=0.3, N=6, gamma=gamma, **kwargs)
        targets = targets or {}
        return ControlProblem(
            problem,
            cosine_ic(problem.mesh, 0.2),
            CostSpec(alphas=alphas, **targets),
            BOX,
        )

    def test_pure_control_cost_drives_to_zero(self):
        # With only the control penalty and negligible reaction the unique
        # minimizer inside the box is u = 0.
        cp = self.make_control_problem((0, 0, 0, 0, 1.0, 1.0), gamma=1e-8)
        u0 = ControlPair.constant(cp.problem.mesh, cp.problem.grid, 0.5, -0.4)
        result = projected_gradient(cp, u0, OptimizerOptions(tol=1e-8))
        assert result.converged
        assert control_norm(result.u, cp.problem.ops, cp.problem.grid.dt) < 1e-6

    def test_stationary_start_returns_immediately(self):
        cp = self.make_control_problem((0, 0, 0, 0, 1.0, 1.0), gamma=1e-8)
        u0 = ControlPair.zeros(cp.problem.mesh, cp.problem.grid)
        result = projected_gradient(cp, u0, OptimizerOptions(tol=1e-6))
        assert len(result.history) == 1
        assert result.history[0].iteration == 0

    def test_monotone_descent_and_feasibility(self):
        cp = self.make_control_problem(
            (1.0, 0.5, 1.0, 0.5, 0.4, 0.4),
            targets={"phiQ": 0.25, "phiS": 0.25, "phiO": 0.25, "phiG": 0.25},
        )
        u0 = ControlPair.constant(cp.problem.mesh, cp.problem.grid, 0.9)
        result = projected_gradient(cp, u0, OptimizerOptions(tol=1e-6, max_iter=60))
        J = [h.J for h in result.history]
        assert all(b <= a + 1e-15 for a, b in zip(J, J[1:]))
        assert np.all(result.u.u >= -1.0) and np.all(result.u.u <= 1.0)
        assert result.converged

    def test_stationarity_certificate(self):
        cp = self.make_control_problem(
            (1.0, 0.0, 1.0, 0.0, 0.5, 0.5), targets={"phiQ": 0.2, "phiO": 0.2}
        )
        u0 = ControlPair.zeros(cp.problem.mesh, cp.problem.grid)
        result = projected_gradient(cp, u0, OptimizerOptions(tol=1e-7, max_iter=80))
        g = result.gradient
        rng = np.random.default_rng(0)
        grid, mesh = cp.problem.grid, cp.problem.mesh
        for _ in range(20):
            other = ControlPair(rng.uniform(-1, 1, (grid.N, mesh.n_bulk)),
                                rng.uniform(-1, 1, (grid.N, mesh.n_boundary)))
            form = control_inner(g, other.plus(result.u, -1.0), cp.problem.ops, grid.dt)
            assert form >= -1e-6

    def test_result_carries_the_last_adjoint_and_gradient(self):
        # They equal a fresh solve at the returned control bit for bit: the
        # fresh backward sweep factors the Jacobian at the last state, as
        # the optimizer's last sweep did, and the terminal pair is solved
        # from the same data on read.
        cp = self.make_control_problem(
            (1.0, 0.5, 1.0, 0.5, 0.4, 0.4),
            targets={"phiQ": 0.25, "phiS": 0.25, "phiO": 0.25, "phiG": 0.25},
        )
        u0 = ControlPair.constant(cp.problem.mesh, cp.problem.grid, 0.9)
        result = projected_gradient(cp, u0, OptimizerOptions(tol=1e-6, max_iter=60))
        adj = adjoint_solve(cp.problem, result.trajectory, cp.cost)
        g = reduced_gradient(cp.problem, result.u, adj, cp.cost)
        assert np.array_equal(result.adjoint.p, adj.p)
        assert np.array_equal(result.adjoint.q, adj.q)
        assert np.array_equal(result.gradient.u, g.u)
        assert np.array_equal(result.gradient.uG, g.uG)

    def test_budget_records_each_iterate_once(self):
        # max_iter steps record max_iter + 1 iterates; the last record is
        # the evaluation the result carries.  The first solve starts, as the
        # optimizer's did, without a live factor.
        cp = self.make_control_problem(
            (1.0, 0.5, 1.0, 0.5, 0.4, 0.4),
            targets={"phiQ": 0.25, "phiS": 0.25, "phiO": 0.25, "phiG": 0.25},
        )
        problem = cp.problem
        u0 = ControlPair.constant(problem.mesh, problem.grid, 0.9)
        result = projected_gradient(cp, u0, OptimizerOptions(tol=1e-12, max_iter=3))
        assert not result.converged
        assert [h.iteration for h in result.history] == [0, 1, 2, 3]
        assert result.history[0].step == 0.0
        assert all(h.step > 0.0 for h in result.history[1:])
        problem.ops.block_template.lu = None
        first = solve(problem, cp.phi0, project_box(u0, BOX))
        assert result.history[0].newton_total == int(first.newton_iters.sum())
        last = result.history[-1]
        assert last.J == cost(cp.cost, result.trajectory, result.u, problem.ops)
        assert last.vi_residual == vi_residual(result.u, result.gradient, BOX,
                                               problem.ops, problem.grid.dt)

    @pytest.mark.parametrize("curvature, start", [
        (-1.0, INITIAL_STEP),   # <du, dg> < 0: no spectral step
        (1e-6, STEP_MAX),       # spectral step 1e6, clipped
    ], ids=["fallback", "clip"])
    def test_second_line_search_start(self, monkeypatch, curvature, start):
        # The second gradient is the first plus curvature * du, so the
        # spectral step of the second line search is 1 / curvature.  Its
        # accepted step is its first trial step times a power of BACKTRACK.
        real, seen = control.reduced_gradient, []

        def gradient(problem, u, adj, cost_spec):
            g = real(problem, u, adj, cost_spec)
            if len(seen) == 1:
                (u0, g0), = seen
                g = g0.plus(u.plus(u0, -1.0), curvature)
            seen.append((u, g))
            return g

        monkeypatch.setattr(control, "reduced_gradient", gradient)
        cp = self.make_control_problem(
            (1.0, 0.5, 1.0, 0.5, 0.4, 0.4),
            targets={"phiQ": 0.25, "phiS": 0.25, "phiO": 0.25, "phiG": 0.25},
        )
        u0 = ControlPair.constant(cp.problem.mesh, cp.problem.grid, 0.9)
        result = projected_gradient(cp, u0, OptimizerOptions(tol=1e-12, max_iter=2))
        step = result.history[2].step
        backtracks = round(np.log(step / start) / np.log(BACKTRACK))
        assert backtracks >= 0
        assert step == start * BACKTRACK**backtracks

    @pytest.mark.parametrize("preset, fixed_start_iterations, fixed_start_J", [
        ("default", 15, 0.12697647954178),
        ("logarithmic", 14, 0.02615307139089),
        ("rectangle", 12, 0.01747877137157),
        ("coarse", 12, 0.00099410880499),
    ])
    def test_spectral_step_on_the_presets(self, preset, fixed_start_iterations,
                                          fixed_start_J):
        # Fewer iterations than line searches that all start at INITIAL_STEP
        # take, monotone J, and the minimum those reach.
        cp, u0, opts = preset_config(preset).build_control_problem()
        result = projected_gradient(cp, u0, opts)
        history = result.history
        J = [h.J for h in history]
        assert result.converged and not result.stalled
        assert len(history) - 1 < fixed_start_iterations
        assert all(b <= a for a, b in zip(J, J[1:]))
        assert np.isclose(J[-1], fixed_start_J, rtol=1e-9, atol=0.0)
        assert any(h.step != INITIAL_STEP for h in history[1:])

    def test_line_search_failure_names_iteration_and_first_step(self, monkeypatch):
        # The true cost accepts the first step; from then on a cost that
        # rises on every call fails every Armijo test of the second line
        # search, which starts at its spectral step.
        real, calls = control.cost, iter(range(1000))

        def cost_fn(*args):
            n = next(calls)
            return real(*args) if n < 2 else 1e3 + n

        monkeypatch.setattr(control, "cost", cost_fn)
        monkeypatch.setattr(control, "MAX_BACKTRACKS", 3)
        cp = self.make_control_problem((1.0, 0.0, 1.0, 0.0, 0.5, 0.5),
                                       targets={"phiQ": 0.2, "phiO": 0.2})
        u0 = ControlPair.zeros(cp.problem.mesh, cp.problem.grid)
        with pytest.raises(SolverError) as failure:
            projected_gradient(cp, u0)
        assert next(calls) == 2 + 4
        message = re.fullmatch(
            r"line search failed at optimizer iteration 1: no Armijo decrease "
            r"after 3 backtracks from step (\S+) \(gradient norm \S+\)",
            str(failure.value),
        )
        assert message and float(message.group(1)) not in (INITIAL_STEP, STEP_MAX)

    def test_wrong_gradient_still_raises_after_the_backtracks(self, monkeypatch):
        # An ascent direction fails its first trial with a predicted decrease
        # far above the noise in J, so the line search backtracks and fails.
        real = control.reduced_gradient

        def ascent(*args):
            g = real(*args)
            return ControlPair(-g.u, -g.uG)

        monkeypatch.setattr(control, "reduced_gradient", ascent)
        monkeypatch.setattr(control, "MAX_BACKTRACKS", 3)
        cp = self.make_control_problem((1.0, 0.0, 1.0, 0.0, 0.5, 0.5),
                                       targets={"phiQ": 0.2, "phiO": 0.2})
        u0 = ControlPair.zeros(cp.problem.mesh, cp.problem.grid)
        with pytest.raises(SolverError, match="line search failed at optimizer iteration 0"):
            projected_gradient(cp, u0)

    def test_stall_at_the_noise_of_J_ends_the_run(self):
        # In a box of +-0.1 the default preset reaches vi 1.137e-6, just above
        # tol: a first trial's Armijo decrease there is about 3e-16, below the
        # noise newton_tol leaves in J, and it once backtracked to the end of
        # all 400 iterations.
        cp, u0, opts = stall_config().build_control_problem()
        start = time.perf_counter()
        result = projected_gradient(cp, u0, opts)
        assert time.perf_counter() - start < 1.0
        assert result.stalled and not result.converged
        assert len(result.history) - 1 <= 6 < opts.max_iter
        assert result.history[-1].vi_residual > opts.tol
        J = [h.J for h in result.history]
        assert all(b <= a for a, b in zip(J, J[1:]))

    def test_mz_guard_for_bounded_potentials(self):
        problem = make_problem(kind="logarithmic", gamma=1.0)
        cp = ControlProblem(
            problem,
            PairField.constant(problem.mesh, 0.0),
            CostSpec(alphas=(1, 0, 0, 0, 0.1, 0.1), phiQ=0.1),
            BoxBounds(u_min=-2.0, u_max=2.0, uG_min=-2.0, uG_max=2.0),
        )
        with pytest.raises(ValidationError, match="mean-value condition fails for the box: "):
            projected_gradient(cp, ControlPair.zeros(problem.mesh, problem.grid))


def _control_problems(case, tmp_path, monkeypatch):
    """A preset's control problem, or the two of the benchmark's
    optimize-1d workload at the seed that ends ``case``."""
    if case in PRESETS:
        return [preset_config(case).build_control_problem()]
    wl = load_workloads(monkeypatch).Optimize1D(int(case.rpartition("-")[2]), str(tmp_path))
    wl.write_inputs()
    return wl.build()


@pytest.mark.parametrize("case", [*PRESETS, "optimize-1d-1", "optimize-1d-2", "optimize-1d-3"])
def test_warm_trial_solves_take_fewer_corrections(case, tmp_path, monkeypatch):
    # Every trial solve starts from the last accepted trajectory.  Against
    # trial solves that start from the previous time step, on operators of
    # their own: the same iterates and final J to 1e-9, and no iterate
    # takes more Newton corrections.
    for cp, u0, opts in _control_problems(case, tmp_path, monkeypatch):
        warm = projected_gradient(cp, u0, opts)
        with monkeypatch.context() as m:
            m.setattr(control, "solve", lambda problem, phi0, u, start=None: solve(
                problem, phi0, u))
            cold = projected_gradient(
                replace(cp, problem=replace(cp.problem, ops=CoupledOperators(cp.problem.mesh))),
                u0, opts)
        assert warm.converged and cold.converged
        assert len(warm.history) == len(cold.history)
        assert abs(warm.history[-1].J - cold.history[-1].J) <= 1e-9 * cold.history[-1].J
        spent = [(w.newton_total, c.newton_total) for w, c in zip(warm.history, cold.history)]
        assert all(w <= c for w, c in spent)
        assert sum(w for w, _ in spent) < sum(c for _, c in spent)


def stall_config():
    """The default preset with both control boxes at +-0.1."""
    raw = copy.deepcopy(PRESETS["default"])
    raw["optimization"]["box"] = {"u_min": -0.1, "u_max": 0.1, "uG_min": -0.1, "uG_max": 0.1}
    return RunConfig.from_dict(raw)


class TestOptimizerOptions:
    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": float("nan")}, {"tol": float("inf")}, {"max_iter": -1},
    ])
    def test_out_of_range_rejected(self, kwargs):
        with pytest.raises(ValidationError, match=next(iter(kwargs))):
            OptimizerOptions(**kwargs)

    def test_zero_iteration_budget_allowed(self):
        problem = make_problem(N=4)
        cp = ControlProblem(problem, cosine_ic(problem.mesh),
                            CostSpec(alphas=(1, 0, 0, 0, 0.1, 0.1), phiQ=0.1), BOX)
        result = projected_gradient(cp, make_pair(problem, 0.2), OptimizerOptions(max_iter=0))
        assert len(result.history) == 1
