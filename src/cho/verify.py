"""One-command verification suite.

Each check exercises one analytically guaranteed property of the
discrete pipeline at desk scale and reports pass/fail with a measured
number.  Checks take the domain and potential from the configuration
where the property allows it and pin whatever the property itself fixes
(e.g. the energy-decay check always runs the convex-splitting scheme
with a regular potential and no reaction).
"""

from dataclasses import dataclass, replace

import numpy as np

from . import adjoint as adj_mod
from . import control as ctl_mod
from . import sensitivity as sen_mod
from .config import RunConfig, preset_config
from .control import ControlPair, control_inner, random_direction
from .forward import (
    Physics,
    Problem,
    SolverOptions,
    TimeGrid,
    energy,
    exact_mean,
    mean_ode_residual,
    separation_check,
    solve,
    traj_norm_L2H,
)
from .mesh import build_interval, build_rectangle
from .potentials import (
    PotentialPair,
    logarithmic_potential,
    regular_potential,
    separation_r0,
)
from .spaces import PairField


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    extra: object = None    # check-specific payload for CLI artifacts

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _check_mesh(cfg: RunConfig):
    dom = cfg.domain
    if dom.dim == 1:
        return build_interval(min(dom.cells, 128), dom.length)
    return build_rectangle(min(dom.nx, 16), min(dom.ny, 16), dom.lx, dom.ly)


def _tanh_ic(mesh, amplitude):
    x = mesh.bulk_nodes[:, 0]
    span = x.max() - x.min()
    return PairField.from_bulk(
        mesh, amplitude * np.tanh((x - x.min() - 0.5 * span) / (0.15 * span))
    )


def check_mean_ode(cfg: RunConfig) -> CheckResult:
    """Discrete mean dynamics residual and first-order closed-form error."""
    mesh = _check_mesh(cfg)
    pair = cfg.build_pair()
    gamma = min(cfg.physics.gamma, 1.0)
    physics = Physics(tau=cfg.physics.tau, gamma=gamma)
    T = 1.0

    def omega_fn(t):
        return 0.3 if t <= 0.5 * T else -0.2

    def run(N):
        grid = TimeGrid(T=T, N=N)
        problem = Problem.create(mesh, pair, SolverOptions(), physics, grid)
        times = grid.times()
        vals = np.array([omega_fn(times[j + 1]) for j in range(N)])
        controls = ControlPair(
            np.repeat(vals[:, None], mesh.n_bulk, axis=1),
            np.repeat(vals[:, None], mesh.n_boundary, axis=1),
        )
        phi0 = PairField.constant(mesh, 0.1)
        traj = solve(problem, phi0, controls)
        resid = np.abs(mean_ode_residual(traj, controls, problem.ops, gamma)).max()
        m_T = problem.ops.mean(traj.phi[-1], traj.phi[-1, mesh.trace_map])
        err = abs(m_T - exact_mean(0.1, gamma, vals, grid, T))
        return resid, err

    residuals, errors = zip(*(run(N) for N in (8, 16, 32, 64)))
    orders = [float(np.log2(e1 / e2)) for e1, e2 in zip(errors, errors[1:])]
    ok = max(residuals) <= 1e-9 and all(0.7 <= o <= 1.3 for o in orders)
    return CheckResult(
        "mean-ode", ok,
        f"max residual {max(residuals):.2e} (<= 1e-9), orders "
        + "/".join(f"{o:.2f}" for o in orders) + " (1.0 +- 0.3)",
    )


def check_constant_data(cfg: RunConfig) -> CheckResult:
    """Spatially constant run against the scalar exponential solution."""
    mesh = _check_mesh(cfg)
    pair = PotentialPair.same(regular_potential())
    physics = Physics(tau=1.0, gamma=2.0)
    a, b, T = 0.5, 1.0, 1.0
    exact = a * np.exp(-physics.gamma * T) + b * (1.0 - np.exp(-physics.gamma * T))

    def terminal_error(N):
        grid = TimeGrid(T=T, N=N)
        problem = Problem.create(mesh, pair, SolverOptions(), physics, grid)
        traj = solve(problem, PairField.constant(mesh, a),
                     ControlPair.constant(mesh, grid, b))
        return abs(float(traj.phi[-1][0]) - exact)

    e1, e2 = terminal_error(16), terminal_error(32)
    ratio = e1 / e2
    ok = 1.7 <= ratio <= 2.3
    return CheckResult(
        "constant-data", ok, f"dt-halving error ratio {ratio:.3f} (in [1.7, 2.3])"
    )


def check_energy_decay(cfg: RunConfig) -> CheckResult:
    """Unconditional energy decay of the convex-splitting scheme."""
    mesh = _check_mesh(cfg)
    pair = PotentialPair.same(regular_potential())
    grid = TimeGrid(T=1.0, N=200)
    problem = Problem.create(
        mesh, pair,
        SolverOptions(scheme="convex-splitting", newton_tol=1e-12),
        Physics(tau=1.0, gamma=0.0), grid,
    )
    rng = np.random.default_rng(0)
    phi0 = PairField.from_bulk(mesh, rng.uniform(-0.8, 0.8, mesh.n_bulk))
    traj = solve(problem, phi0, ControlPair.zeros(mesh, grid))
    energies = energy(problem.ops, pair, traj.phi)
    worst = float(np.diff(energies).max())
    ok = worst <= 1e-12
    return CheckResult(
        "energy-decay", ok,
        f"worst energy increment {worst:.2e} over {grid.N} steps (<= 1e-12)",
    )


def check_mean_bound(cfg: RunConfig) -> CheckResult:
    """Discrete mean stays inside the reaction-limited interval."""
    mesh = _check_mesh(cfg)
    pair = cfg.build_pair()
    gamma = min(cfg.physics.gamma, 1.0)
    physics = Physics(tau=cfg.physics.tau, gamma=gamma)
    grid = TimeGrid(T=cfg.time.T, N=min(cfg.time.N, 50))
    problem = Problem.create(mesh, pair, SolverOptions(), physics, grid)
    M, m0 = 0.3, 0.1
    lo = -max(-m0, 0.0) - M / gamma - 1e-9
    hi = max(m0, 0.0) + M / gamma + 1e-9
    phi0 = PairField.constant(mesh, m0)
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(10):
        controls = ControlPair(
            rng.uniform(-M, M, (grid.N, mesh.n_bulk)),
            rng.uniform(-M, M, (grid.N, mesh.n_boundary)),
        )
        traj = solve(problem, phi0, controls)
        means = problem.ops.mean(traj.phi, traj.phi[:, mesh.trace_map])
        worst = max(worst, float((lo - means).max()), float((means - hi).max()))
    ok = worst <= 0.0
    return CheckResult(
        "mean-bound", ok,
        f"worst excess {worst:.2e} against [{lo:.3f}, {hi:.3f}] over 10 runs",
    )


def check_separation(cfg: RunConfig) -> CheckResult:
    """Logarithmic run stays below the separation threshold."""
    mesh = _check_mesh(cfg)
    c1 = cfg.potential.c1 if cfg.potential.kind == "logarithmic" else 2.0
    pair = PotentialPair.same(logarithmic_potential(c1))
    grid = TimeGrid(T=0.5, N=25)
    problem = Problem.create(mesh, pair, SolverOptions(), Physics(1.0, 1.0), grid)
    x = mesh.bulk_nodes[:, 0]
    span = x.max() - x.min()
    phi0 = PairField.from_bulk(mesh, 0.3 * np.sin(np.pi * (x - x.min()) / span))
    controls = ControlPair.constant(mesh, grid, 0.2, 0.1)
    traj = solve(problem, phi0, controls)
    N_mu = float(np.abs(traj.mu).max())
    r0 = separation_r0(pair, N_mu, 0.3)
    report = separation_check(traj, r0)
    ok = report.applicable and report.passed
    return CheckResult(
        "separation", ok,
        f"max |phi| = {report.worst_value:.4f} <= r0 = {report.r0:.4f} "
        f"(mu bound {N_mu:.3f})",
    )


def check_yosida(cfg: RunConfig) -> CheckResult:
    """Yosida-regularized runs approach the unregularized one."""
    mesh = _check_mesh(cfg)
    pair = PotentialPair.same(regular_potential())
    grid = TimeGrid(T=0.5, N=20)
    problem = Problem.create(mesh, pair, SolverOptions(), Physics(1.0, 1.0), grid)
    phi0 = _tanh_ic(mesh, 0.4)
    controls = ControlPair.constant(mesh, grid, 0.1, 0.05)
    reference = solve(problem, phi0, controls)
    errors = []
    for eps in (1e-1, 1e-2, 1e-3):
        traj = solve(problem.with_options(eps_yosida=eps), phi0, controls)
        errors.append(traj_norm_L2H(problem.ops, grid, traj.phi - reference.phi))
    ok = errors[0] > errors[1] > errors[2] and errors[2] <= 1e-3
    return CheckResult(
        "yosida", ok,
        "errors " + " > ".join(f"{e:.2e}" for e in errors) + " , last <= 1e-3",
    )


def check_contdep(cfg: RunConfig) -> CheckResult:
    """First-order Lipschitz behavior of the control-to-state map."""
    mesh = _check_mesh(cfg)
    pair = cfg.build_pair()
    grid = TimeGrid(T=0.4, N=16)
    problem = Problem.create(mesh, pair, SolverOptions(), Physics(1.0, 1.0), grid)
    phi0 = _tanh_ic(mesh, 0.2)
    u = ControlPair.constant(mesh, grid, 0.05)
    rng = np.random.default_rng(5)
    h = random_direction(mesh, grid, rng)
    h = h.scaled(0.2 / h.sup_norm())
    ratios = sen_mod.continuous_dependence(problem, phi0, u, h, scales=(1.0, 0.5, 0.25))
    variation = max(ratios) / min(ratios) - 1.0
    ok = variation < 0.2
    return CheckResult(
        "continuous-dependence", ok,
        f"ratio variation {100 * variation:.2f}% across scales 1, 1/2, 1/4 (< 20%)",
    )


def check_taylor(cfg: RunConfig) -> CheckResult:
    """Quadratic remainder of the first-order state expansion.

    The remainder order is a property of the (smooth) discrete step map at
    the configured resolution, so the configured step count is used as is,
    coarse grids included.
    """
    mesh = _check_mesh(cfg)
    pair = cfg.build_pair()
    grid = TimeGrid(T=0.4, N=min(cfg.time.N, 16))
    problem = Problem.create(mesh, pair, SolverOptions(newton_tol=1e-12),
                             Physics(1.0, 1.0), grid)
    phi0 = _tanh_ic(mesh, 0.2)
    u = ControlPair.constant(mesh, grid, 0.05)
    min_orders, results = [], []
    for seed in range(3):
        rng = np.random.default_rng(seed)
        h = random_direction(mesh, grid, rng)
        h = h.scaled(0.15 / h.sup_norm())
        result = sen_mod.taylor_test(problem, phi0, u, h,
                                     scales=(0.5, 0.25, 0.125, 0.0625))
        min_orders.append(result.min_order())
        results.append(result)
    ok = all(o >= 1.9 for o in min_orders)
    return CheckResult(
        "taylor", ok,
        "min orders " + "/".join(f"{o:.2f}" for o in min_orders) + " (>= 1.9)",
        extra=results,
    )


def _gradient_checks(problem, phi0, u, cost_spec, seeds):
    """Duality gaps and central-FD gradient errors over random directions."""
    ops, grid = problem.ops, problem.grid
    base = solve(problem, phi0, u)
    adj = adj_mod.adjoint_solve(problem, base, cost_spec)
    g = adj_mod.reduced_gradient(problem, u, adj, cost_spec)
    mesh = problem.mesh

    def J_of(uc):
        traj = solve(problem, phi0, uc)
        return ctl_mod.cost(cost_spec, traj, uc, ops)

    duality_gaps, fd_errors = [], []
    for seed in seeds:
        rng = np.random.default_rng(seed)
        h = random_direction(mesh, grid, rng)
        h = h.scaled(0.1 / h.sup_norm())
        lin = sen_mod.linearized_solve(problem, base, h)
        dJ_lin = ctl_mod.cost_directional(cost_spec, problem, base, lin.psi, u, h)
        dJ_adj = control_inner(g, h, ops, grid.dt)
        duality_gaps.append(abs(dJ_adj - dJ_lin) / max(1.0, abs(dJ_lin)))
        d = 1e-2
        fd = (
            8.0 * (J_of(u.plus(h, d)) - J_of(u.plus(h, -d)))
            - (J_of(u.plus(h, 2 * d)) - J_of(u.plus(h, -2 * d)))
        ) / (12.0 * d)
        fd_errors.append(abs(dJ_adj - fd) / max(abs(fd), 1e-14))
    return duality_gaps, fd_errors


def check_adjoint(cfg: RunConfig) -> CheckResult:
    """Exact discrete duality and agreement with a central-difference oracle."""
    mesh = _check_mesh(cfg)
    pair = cfg.build_pair()
    grid = TimeGrid(T=0.4, N=10)
    problem = Problem.create(mesh, pair, SolverOptions(newton_tol=1e-12),
                             Physics(1.0, 1.0), grid)
    phi0 = _tanh_ic(mesh, 0.2)
    u = ControlPair.constant(mesh, grid, 0.05)
    cost_spec = ctl_mod.CostSpec(alphas=(1.0, 0.5, 1.0, 0.5, 0.2, 0.2),
                                 phiQ=0.2, phiS=0.1, phiO=0.2, phiG=0.1)
    gaps, fd = _gradient_checks(problem, phi0, u, cost_spec, seeds=range(5))
    ok = max(gaps) <= 1e-10 and max(fd) <= 1e-6
    return CheckResult(
        "adjoint-duality", ok,
        f"max duality gap {max(gaps):.2e} (<= 1e-10), "
        f"max FD error {max(fd):.2e} (<= 1e-6) over 5 directions",
    )


def check_optimality(cfg: RunConfig) -> CheckResult:
    """Projected gradient reaches a certified box-stationary point."""
    if cfg.optimization is None:
        cfg = preset_config("default")
    cp, u0, pg_opts = cfg.build_control_problem()
    problem = cp.problem
    ops, grid, mesh = problem.ops, problem.grid, problem.mesh

    # Gradient correctness on the same bundle before optimizing.
    gaps, fd = _gradient_checks(
        problem.with_options(newton_tol=1e-12), cp.phi0,
        ctl_mod.project_box(u0, cp.box), cp.cost, seeds=range(2),
    )
    if max(gaps) > 1e-10 or max(fd) > 1e-6:
        return CheckResult(
            "optimality", False,
            f"gradient check failed on the bundle (gap {max(gaps):.2e}, fd {max(fd):.2e})",
        )

    pg_opts = replace(pg_opts, tol=min(pg_opts.tol, 1e-6))
    result = ctl_mod.projected_gradient(cp, u0, pg_opts)
    J_values = [h.J for h in result.history]
    monotone = all(b <= a + 1e-15 for a, b in zip(J_values, J_values[1:]))
    vi = result.history[-1].vi_residual

    adj = adj_mod.adjoint_solve(problem, result.trajectory, cp.cost)
    g = adj_mod.reduced_gradient(problem, result.u, adj, cp.cost)
    rng = np.random.default_rng(11)
    worst_form = np.inf
    for _ in range(20):
        other = ControlPair(
            rng.uniform(np.broadcast_to(cp.box.u_min, (grid.N, mesh.n_bulk)),
                        np.broadcast_to(cp.box.u_max, (grid.N, mesh.n_bulk))),
            rng.uniform(np.broadcast_to(cp.box.uG_min, (grid.N, mesh.n_boundary)),
                        np.broadcast_to(cp.box.uG_max, (grid.N, mesh.n_boundary))),
        )
        worst_form = min(worst_form, ctl_mod.optimality_bilinear(cp, result.u, g, other))
    ok = result.converged and monotone and vi <= 1e-6 and worst_form >= -1e-5
    return CheckResult(
        "optimality", ok,
        f"vi residual {vi:.2e} (<= 1e-6) after {len(result.history) - 1} iterations, "
        f"J monotone: {monotone}, worst bilinear form {worst_form:.2e} (>= -1e-5)",
    )


def check_homogeneous(cfg: RunConfig) -> CheckResult:
    """Zero data propagates to exactly zero forward/linearized/adjoint states."""
    mesh = _check_mesh(cfg)
    pair = cfg.build_pair()
    grid = TimeGrid(T=0.4, N=10)
    problem = Problem.create(mesh, pair, SolverOptions(), Physics(1.0, 1.0), grid)
    zero_u = ControlPair.zeros(mesh, grid)

    traj = solve(problem, PairField.constant(mesh, 0.0), zero_u)
    fwd = max(float(np.abs(traj.phi).max()), float(np.abs(traj.mu).max()))

    base = solve(problem, _tanh_ic(mesh, 0.2), ControlPair.constant(mesh, grid, 0.05))
    lin = sen_mod.linearized_solve(problem, base, zero_u)
    lin_mag = max(float(np.abs(lin.psi).max()), float(np.abs(lin.eta).max()))

    zero_cost = ctl_mod.CostSpec(alphas=(0, 0, 0, 0, 0, 0))
    adj = adj_mod.adjoint_solve(problem, base, zero_cost)
    adj_mag = max(float(np.abs(adj.p).max()), float(np.abs(adj.q).max()))

    worst = max(fwd, lin_mag, adj_mag)
    ok = worst <= 1e-12
    return CheckResult(
        "homogeneous-zero", ok,
        f"max |state| over zero-data forward/linearized/adjoint: {worst:.2e} (<= 1e-12)",
    )


ALL_CHECKS = (
    check_mean_ode,
    check_constant_data,
    check_energy_decay,
    check_mean_bound,
    check_separation,
    check_yosida,
    check_contdep,
    check_taylor,
    check_adjoint,
    check_optimality,
    check_homogeneous,
)


def run_suite(cfg: RunConfig):
    """Run every check; a check that raises is recorded as a failure."""
    from .errors import ChoError

    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check(cfg))
        except ChoError as err:
            name = check.__name__.removeprefix("check_").replace("_", "-")
            results.append(CheckResult(name, False, f"aborted: {err}"))
    return results
