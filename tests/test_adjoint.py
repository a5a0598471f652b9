import copy

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from cho import verify
from cho.adjoint import (
    adjoint_continuous_form,
    adjoint_solve,
    reduced_gradient,
)
from cho.cli import main
from cho.config import RunConfig, preset_config
from cho.control import (
    ControlPair,
    CostSpec,
    control_inner,
    cost,
    cost_directional,
    random_direction,
)
from cho.errors import SolverError
from cho.forward import (
    ROUNDOFF,
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
from cho.spaces import BlockTemplate, PairField

from conftest import cosine_ic, make_problem
from test_cli import MINIMAL, write_yaml

TRACKING = CostSpec(alphas=(1.0, 0.5, 0.8, 0.3, 0.2, 0.1),
                    phiQ=0.2, phiS=0.1, phiO=-0.1, phiG=0.0)


@pytest.fixture(scope="module")
def setup():
    problem = make_problem(newton_tol=1e-12)
    phi0 = cosine_ic(problem.mesh, 0.25)
    u = ControlPair.constant(problem.mesh, problem.grid, 0.1, 0.05)
    base = solve(problem, phi0, u)
    return problem, phi0, u, base


@pytest.fixture(scope="module", params=[
    ("interval", "fully-implicit"), ("interval", "convex-splitting"),
    ("rectangle", "fully-implicit"), ("rectangle", "convex-splitting"),
], ids="-".join)
def terminal_run(request):
    """A converged run on a 12-cell interval or an 8x8 rectangle."""
    kind, scheme = request.param
    mesh = build_interval(12, 1.0) if kind == "interval" else build_rectangle(8, 8, 1.0, 1.0)
    problem = Problem.create(mesh, PotentialPair.same(regular_potential()),
                             SolverOptions(scheme=scheme, newton_tol=1e-12),
                             Physics(1.0, 1.0), TimeGrid(T=0.4, N=8))
    u = ControlPair.constant(mesh, problem.grid, 0.1, 0.05)
    return problem, u, solve(problem, cosine_ic(mesh, 0.25), u)


def terminal_backward_errors(problem, zeta3, adj):
    """Normwise backward errors of the terminal pair in M(p + tau q) = zeta3
    and K p = M q, with Frobenius norms of the blocks."""
    ops, tau, N = problem.ops, problem.physics.tau, problem.grid.N
    p, q = adj.p[N], adj.q[N]
    norm_M, norm_K = spla.norm(ops.M_total), spla.norm(ops.K_total)
    norm = np.linalg.norm
    first = norm(ops.M_total @ (p + tau * q) - zeta3) / (
        norm_M * (norm(p) + tau * norm(q)) + norm(zeta3))
    second = norm(ops.K_total @ p - ops.M_total @ q) / (norm_K * norm(p) + norm_M * norm(q))
    return first, second


class TestAdjointSolve:
    def test_zero_cost_gives_zero_adjoint(self, setup):
        problem, phi0, u, base = setup
        adj = adjoint_solve(problem, base, CostSpec(alphas=(0,) * 6))
        assert np.abs(adj.p).max() == 0.0
        assert np.abs(adj.q).max() == 0.0

    def test_terminal_identity(self, terminal_run):
        # With only the bulk terminal weight active, the mass-weighted
        # combination p + tau q at the last node equals the terminal misfit.
        problem, u, base = terminal_run
        spec = CostSpec(alphas=(0, 0, 0.7, 0, 0, 0), phiO=0.3)
        adj = adjoint_solve(problem, base, spec)
        N = problem.grid.N
        lhs = problem.ops.M_total @ (adj.p[N] + problem.physics.tau * adj.q[N])
        rhs = 0.7 * (problem.ops.M_bulk @ (base.phi[N] - 0.3))
        assert np.abs(lhs - rhs).max() < 1e-13
        assert terminal_backward_errors(problem, rhs, adj)[0] <= ROUNDOFF

    def test_second_adjoint_relation(self, terminal_run):
        # K p = M q holds at every time node, at round-off on the terminal
        # pair.
        problem, u, base = terminal_run
        adj = adjoint_solve(problem, base, TRACKING)
        for n in range(problem.grid.N + 1):
            gap = problem.ops.K_total @ adj.p[n] - problem.ops.M_total @ adj.q[n]
            assert np.abs(gap).max() < 1e-12
        zeta3 = TRACKING.sources(problem.ops, base.phi)[1]
        assert terminal_backward_errors(problem, zeta3, adj)[1] <= ROUNDOFF

    def test_terminal_pair_matches_dense_solve(self, terminal_run):
        # The pair solves the 2n system [[M, tau M], [K, -M]] (p, q) = (zeta3, 0).
        problem, u, base = terminal_run
        adj = adjoint_solve(problem, base, TRACKING)
        M, K = problem.ops.M_total.toarray(), problem.ops.K_total.toarray()
        tau, N = problem.physics.tau, problem.grid.N
        zeta3 = TRACKING.sources(problem.ops, base.phi)[1]
        x = np.linalg.solve(np.block([[M, tau * M], [K, -M]]),
                            np.concatenate([zeta3, np.zeros_like(zeta3)]))
        pair = np.concatenate([adj.p[N], adj.q[N]])
        assert np.abs(pair - x).max() <= 1e-12 * np.abs(x).max()

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


def same_matrix(A, B):
    return A.shape == B.shape and abs(A - B).max() == 0.0


def pair_matrix(problem):
    """M + tau K, the matrix of the terminal adjoint pair."""
    return problem.ops.M_total + problem.physics.tau * problem.ops.K_total


class SpyFactorizations:
    """Wraps ``BlockTemplate.factor`` and ``splu``.  Records the order of
    each matrix factored, by the step template in either storage or by
    ``splu`` outside it, in ``orders``, each matrix ``splu`` factors outside
    the template in ``matrices``, and the order of each ``splu`` call, the
    template's included, in ``superlu``.  ``splu`` raises "exactly
    singular" on a matrix equal to ``singular``."""

    def __init__(self, monkeypatch, singular=None):
        self.orders, self.matrices, self.superlu = [], [], []
        self.in_template = False
        splu, factor = spla.splu, BlockTemplate.factor

        def spy(A, **kwargs):
            self.superlu.append(A.shape[0])
            if not self.in_template:
                self.orders.append(A.shape[0])
                self.matrices.append(A.copy())
            if singular is not None and same_matrix(A, singular):
                raise RuntimeError("Factor is exactly singular")
            return splu(A, **kwargs)

        def template_spy(template, c, lam):
            self.orders.append(template.matrix.shape[0])
            self.in_template = True
            try:
                factor(template, c, lam)
            finally:
                self.in_template = False

        monkeypatch.setattr(spla, "splu", spy)
        monkeypatch.setattr(BlockTemplate, "factor", template_spy)

    def count(self, M):
        """Factorizations of matrices equal to ``M`` outside the template."""
        return sum(same_matrix(A, M) for A in self.matrices)


class TestTerminalPairOnRead:
    @pytest.mark.parametrize("form", [adjoint_solve, adjoint_continuous_form])
    def test_gradient_path_never_solves_the_pair(self, terminal_run, monkeypatch, form,
                                                 storage):
        # The sweep factors the step Jacobian once, or once per backward
        # step on an exact template; the gradient reads the slabs alone.
        # The first read of the pair factors M + tau K once, and that is the
        # only SuperLU factorization of a dense template.
        problem, u, base = terminal_run
        n = problem.mesh.n_bulk
        # A template in the storage under test, built by the sweep.
        monkeypatch.delitem(vars(problem.ops), "block_template")
        spy = SpyFactorizations(monkeypatch)
        adj = form(problem, base, TRACKING)
        reduced_gradient(problem, u, adj, TRACKING)
        sweep = [2 * n] * (problem.grid.N if problem.ops.block_template.exact else 1)
        assert problem.ops.block_template.exact == (
            storage == "dense" and problem.mesh.dim == 1)
        assert spy.orders == sweep
        p_N = adj.p[problem.grid.N]
        assert spy.orders == [*sweep, n]
        p_T, q_T = adj.terminal()
        assert np.array_equal(adj.p[-1], p_T) and np.array_equal(p_N, p_T)
        assert np.array_equal(adj.q[-1], q_T)
        assert spy.orders == [*sweep, n]
        assert spy.superlu == ([n] if storage == "dense" else [2 * n, n])

    def test_singular_pair_raises_at_the_last_step(self, setup, monkeypatch):
        problem, phi0, u, base = setup
        SpyFactorizations(monkeypatch, singular=pair_matrix(problem))
        adj = adjoint_solve(problem, base, TRACKING)
        reduced_gradient(problem, u, adj, TRACKING)
        for read in (lambda: adj.p, lambda: adj.q):
            with pytest.raises(SolverError, match="terminal adjoint pair: .* singular") as err:
                read()
            assert err.value.step == problem.grid.N

    def test_optimize_exits_3_on_a_singular_pair(self, tmp_path, monkeypatch, capsys):
        # cho optimize reads the pair for adjoint_norms_0.csv, before it
        # creates its output directory.
        monkeypatch.chdir(tmp_path)
        data = copy.deepcopy(MINIMAL)
        data["optimization"] = {"alphas": [1, 0, 1, 0, 1, 1], "targets": {"phiQ": 0.1}}
        pair = pair_matrix(RunConfig.from_dict(data).build_problem())
        spy = SpyFactorizations(monkeypatch, singular=pair)
        assert main(["optimize", "-c", write_yaml(tmp_path, data)]) == 3
        assert "terminal adjoint pair" in capsys.readouterr().err
        assert spy.count(pair) == 1 and same_matrix(spy.matrices[-1], pair)
        assert not (tmp_path / "out").exists()


class TestMassFactor:
    def test_one_factorization_per_operator_set(self, monkeypatch):
        # Two forward runs and the terminal pair solve with one factor of
        # M_total.
        problem = make_problem(newton_tol=1e-12)
        spy = SpyFactorizations(monkeypatch)
        phi0 = cosine_ic(problem.mesh, 0.25)
        u = ControlPair.constant(problem.mesh, problem.grid, 0.1, 0.05)
        solve(problem, phi0, u)
        base = solve(problem, phi0, u)
        adjoint_solve(problem, base, TRACKING).terminal()
        assert spy.count(problem.ops.M_total) == 1
        assert spy.count(pair_matrix(problem)) == 1

    def test_a_verify_check_releases_the_step_factor_alone(self, monkeypatch):
        ctx = verify.CheckContext.build(preset_config("coarse"))
        spy = SpyFactorizations(monkeypatch)
        for _ in range(2):
            assert verify.check_mean_ode(ctx).passed
        assert spy.count(ctx.ops.M_total) == 1


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
