"""One-command verification suite.

Each check exercises one analytically guaranteed property of the
discrete pipeline at desk scale and reports pass/fail with a measured
number.  Checks take the domain and potential from the configuration
where the property allows it and pin whatever the property itself fixes
(e.g. the energy-decay check always runs the convex-splitting scheme
with a regular potential and no reaction).

A suite run assembles its check mesh and operators once, in a
``CheckContext``; every check builds its problems from it, so they share
one block template.  Each check starts without a live factor.  The
context also builds the optimality check's control problem, so a
missing or malformed CSV of the configuration stops the suite before
any check runs.

A check that solves one problem under many controls draws them all
first, in a fixed order, and solves them in one stacked ``solve_many``:
the ten random controls of ``mean-bound``, the perturbed controls of
``continuous-dependence`` and ``taylor`` and the central-difference
controls of ``adjoint-duality`` and ``optimality``, each with its base
control as the first column.  Their columns share one chord Newton, so a
number can move at round-off against separate solves, well inside every
bound.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from . import adjoint as adj_mod
from . import control as ctl_mod
from . import sensitivity as sen_mod
from .config import RunConfig, TanhInitial, preset_config
from .control import ControlPair, control_inner, control_norm, random_direction
from .errors import ChoError, ConfigError
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
    solve_many,
    traj_norm_L2H,
    traj_norm_Y,
)
from .potentials import (
    PotentialPair,
    logarithmic_potential,
    regular_potential,
    separation_r0,
)
from .spaces import CoupledOperators, PairField, assemble


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    extra: object = None    # check-specific payload for CLI artifacts

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.name}: {self.detail}"


def _check_domain(dom):
    """The configured domain with at most 128 cells in 1D and at most
    16 x 16 in 2D."""
    if dom.dim == 1:
        return replace(dom, cells=min(dom.cells, 128))
    return replace(dom, nx=min(dom.nx, 16), ny=min(dom.ny, 16))


@dataclass(frozen=True)
class CheckContext:
    """The configuration, the check operators and the optimality check's
    (ControlProblem, initial control, OptimizerOptions) of one suite run."""

    cfg: RunConfig
    ops: CoupledOperators
    control: tuple

    @classmethod
    def build(cls, cfg: RunConfig) -> "CheckContext":
        """Assemble the operators on the check domain and build the
        configured control problem, or the default preset's when the
        configuration has no optimization section, on those operators when
        its mesh is the check mesh."""
        ops = assemble(_check_domain(cfg.domain).build())
        control_cfg = cfg if cfg.optimization is not None else preset_config("default")
        shared = ops if control_cfg.domain == _check_domain(cfg.domain) else None
        return cls(cfg, ops, control_cfg.build_control_problem(shared))

    @property
    def mesh(self):
        return self.ops.mesh

    def problem(self, T, N, pair=None, physics=Physics(1.0, 1.0), **solver) -> Problem:
        """A problem on the check operators; the pair defaults to the
        configured one and ``solver`` holds ``SolverOptions`` fields."""
        return Problem(self.ops, pair or self.cfg.build_pair(), SolverOptions(**solver),
                       physics, TimeGrid(T=T, N=N))


def _check(name):
    """Name a check.  Its body takes the CheckContext and returns (passed,
    detail) or (passed, detail, extra); the check returns them as a
    CheckResult called ``name``, and ``run_suite`` reports an aborted
    check under the same ``check.name``, which a ``functools.wraps``
    wrapper of the check keeps.  A check starts without a live step
    factor, so its numbers do not depend on the checks run before it; the
    mass factor is exact, and checks share it."""
    def register(body):
        @functools.wraps(body)
        def check(ctx: CheckContext) -> CheckResult:
            ctx.ops.block_template.lu = None
            return CheckResult(name, *body(ctx))
        check.name = name
        return check
    return register


def _tanh_ic(mesh, amplitude):
    x = mesh.bulk_nodes[:, 0]
    span = x.max() - x.min()
    initial = TanhInitial(amplitude, x.min() + 0.5 * span, 0.15 * span)
    return PairField.from_bulk(mesh, initial.values(mesh))


def _base_point(problem):
    """Smooth initial datum and constant controls of the derivative checks."""
    return _tanh_ic(problem.mesh, 0.2), ControlPair.constant(problem.mesh, problem.grid, 0.05)


def _direction(problem, seed, size):
    """Random control direction of sup norm ``size``."""
    h = random_direction(problem.mesh, problem.grid, np.random.default_rng(seed))
    return h.scaled(size / h.sup_norm())


@_check("mean-ode")
def check_mean_ode(ctx):
    """Discrete mean dynamics residual and first-order closed-form error."""
    mesh, cfg = ctx.mesh, ctx.cfg
    gamma = min(cfg.physics.gamma, 1.0)
    physics = Physics(tau=cfg.physics.tau, gamma=gamma)
    T = 1.0

    def omega_fn(t):
        return 0.3 if t <= 0.5 * T else -0.2

    def run(N):
        problem = ctx.problem(T, N, physics=physics)
        grid = problem.grid
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
        err = abs(m_T - exact_mean(0.1, gamma, vals, grid)[-1])
        return resid, err

    residuals, errors = zip(*(run(N) for N in (8, 16, 32, 64)))
    orders = [float(np.log2(e1 / e2)) for e1, e2 in zip(errors, errors[1:])]
    ok = max(residuals) <= 1e-9 and all(0.7 <= o <= 1.3 for o in orders)
    return ok, (
        f"max residual {max(residuals):.2e} (<= 1e-9), orders "
        + "/".join(f"{o:.2f}" for o in orders) + " (1.0 +- 0.3)"
    )


@_check("constant-data")
def check_constant_data(ctx):
    """Spatially constant run against the scalar exponential solution."""
    pair = PotentialPair.same(regular_potential())
    physics = Physics(tau=1.0, gamma=2.0)
    a, b, T = 0.5, 1.0, 1.0

    def terminal_error(N):
        problem = ctx.problem(T, N, pair, physics)
        traj = solve(problem, PairField.constant(ctx.mesh, a),
                     ControlPair.constant(ctx.mesh, problem.grid, b))
        exact = exact_mean(a, physics.gamma, [b] * N, problem.grid)[-1]
        return abs(float(traj.phi[-1][0]) - exact)

    ratio = terminal_error(16) / terminal_error(32)
    return 1.7 <= ratio <= 2.3, f"dt-halving error ratio {ratio:.3f} (in [1.7, 2.3])"


@_check("energy-decay")
def check_energy_decay(ctx):
    """Unconditional energy decay of the convex-splitting scheme."""
    mesh, pair = ctx.mesh, PotentialPair.same(regular_potential())
    problem = ctx.problem(1.0, 200, pair, Physics(tau=1.0, gamma=0.0),
                          scheme="convex-splitting", newton_tol=1e-12)
    rng = np.random.default_rng(0)
    phi0 = PairField.from_bulk(mesh, rng.uniform(-0.8, 0.8, mesh.n_bulk))
    traj = solve(problem, phi0, ControlPair.zeros(mesh, problem.grid))
    worst = float(np.diff(energy(problem, traj.phi)).max())
    return worst <= 1e-12, (
        f"worst energy increment {worst:.2e} over {problem.grid.N} steps (<= 1e-12)"
    )


@_check("mean-bound")
def check_mean_bound(ctx):
    """Discrete mean stays inside the reaction-limited interval, over ten
    random controls solved in one stack."""
    mesh, cfg = ctx.mesh, ctx.cfg
    gamma = min(cfg.physics.gamma, 1.0)
    problem = ctx.problem(cfg.time.T, min(cfg.time.N, 50),
                          physics=Physics(tau=cfg.physics.tau, gamma=gamma))
    M, m0 = 0.3, 0.1
    lo = -max(-m0, 0.0) - M / gamma - 1e-9
    hi = max(m0, 0.0) + M / gamma + 1e-9
    phi0 = PairField.constant(mesh, m0)
    rng = np.random.default_rng(42)
    controls = [
        ControlPair(rng.uniform(-M, M, (problem.grid.N, mesh.n_bulk)),
                    rng.uniform(-M, M, (problem.grid.N, mesh.n_boundary)))
        for _ in range(10)
    ]
    worst = 0.0
    for traj in solve_many(problem, phi0, controls):
        means = problem.ops.mean(traj.phi, traj.phi[:, mesh.trace_map])
        worst = max(worst, float((lo - means).max()), float((means - hi).max()))
    return worst <= 0.0, (
        f"worst excess {worst:.2e} against [{lo:.3f}, {hi:.3f}] over 10 runs"
    )


@_check("separation")
def check_separation(ctx):
    """Logarithmic run stays below the separation threshold."""
    mesh, potential = ctx.mesh, ctx.cfg.potential
    c1 = potential.c1 if potential.kind == "logarithmic" else 2.0
    pair = PotentialPair.same(logarithmic_potential(c1))
    problem = ctx.problem(0.5, 25, pair)
    x = mesh.bulk_nodes[:, 0]
    span = x.max() - x.min()
    phi0 = PairField.from_bulk(mesh, 0.3 * np.sin(np.pi * (x - x.min()) / span))
    controls = ControlPair.constant(mesh, problem.grid, 0.2, 0.1)
    traj = solve(problem, phi0, controls)
    # The mu bound skips mu0, which peaks at a rectangle's corners.
    N_mu = float(np.abs(traj.mu[1:]).max())
    report = separation_check(traj, separation_r0(pair, N_mu, 0.3))
    return report.applicable and report.passed, (
        f"max |phi| = {report.worst_value:.4f} <= r0 = {report.r0:.4f} "
        f"(mu bound {N_mu:.3f})"
    )


@_check("yosida")
def check_yosida(ctx):
    """Yosida-regularized runs approach the unregularized one."""
    problem = ctx.problem(0.5, 20, PotentialPair.same(regular_potential()))
    phi0 = _tanh_ic(ctx.mesh, 0.4)
    controls = ControlPair.constant(ctx.mesh, problem.grid, 0.1, 0.05)
    *runs, ref = [solve(problem.with_options(eps_yosida=eps), phi0, controls)
                  for eps in (1e-1, 1e-2, 1e-3, 0.0)]
    errors = [traj_norm_L2H(problem.ops, problem.grid, traj.phi - ref.phi) for traj in runs]
    ok = errors[0] > errors[1] > errors[2] and errors[2] <= 1e-3
    return ok, "errors " + " > ".join(f"{e:.2e}" for e in errors) + " , last <= 1e-3"


@_check("continuous-dependence")
def check_contdep(ctx):
    """First-order Lipschitz behavior of the control-to-state map."""
    problem = ctx.problem(0.4, 16)
    phi0, u = _base_point(problem)
    h, scales = _direction(problem, 5, 0.2), (1.0, 0.5, 0.25)
    base, *perturbed = solve_many(problem, phi0, [u] + [u.plus(h, s) for s in scales])
    hnorm = control_norm(h, problem.ops, problem.grid.dt)
    ratios = [traj_norm_Y(problem.ops, problem.grid, traj.phi - base.phi) / (abs(s) * hnorm)
              for traj, s in zip(perturbed, scales)]
    variation = max(ratios) / min(ratios) - 1.0
    return variation < 0.2, (
        f"ratio variation {100 * variation:.2f}% across scales 1, 1/2, 1/4 (< 20%)"
    )


@_check("taylor")
def check_taylor(ctx):
    """Quadratic remainder of the first-order state expansion.

    The remainder order is a property of the (smooth) discrete step map at
    the configured resolution, so the configured step count is used as is,
    coarse grids included.
    """
    problem = ctx.problem(0.4, min(ctx.cfg.time.N, 16), newton_tol=1e-12)
    phi0, u = _base_point(problem)
    results = sen_mod.taylor_test(problem, phi0, u,
                                  [_direction(problem, seed, 0.15) for seed in range(3)],
                                  scales=(0.5, 0.25, 0.125, 0.0625))
    min_orders = [result.min_order() for result in results]
    return all(o >= 1.9 for o in min_orders), (
        "min orders " + "/".join(f"{o:.2f}" for o in min_orders) + " (>= 1.9)"
    ), results


def _gradient_checks(problem, phi0, u, cost_spec, seeds):
    """Worst duality gap and central-FD gradient error over random
    directions, and whether they meet the bounds gap <= 1e-10 and FD
    error <= 1e-6.  The base and the four FD controls of every direction
    are solved in one stack."""
    ops, grid = problem.ops, problem.grid
    directions = [_direction(problem, seed, 0.1) for seed in seeds]
    d = 1e-2
    controls = [u.plus(h, s * d) for h in directions for s in (1, -1, 2, -2)]
    base, *perturbed = solve_many(problem, phi0, [u] + controls)
    adj = adj_mod.adjoint_solve(problem, base, cost_spec)
    g = adj_mod.reduced_gradient(problem, u, adj, cost_spec)

    duality_gaps, dJ_adjs = [], []
    for h in directions:
        lin = sen_mod.linearized_solve(problem, base, h)
        dJ_lin = ctl_mod.cost_directional(cost_spec, problem, base, lin.psi, u, h)
        dJ_adjs.append(control_inner(g, h, ops, grid.dt))
        duality_gaps.append(abs(dJ_adjs[-1] - dJ_lin) / max(1.0, abs(dJ_lin)))

    # Central differences of J along each direction.
    fd_errors = []
    J = [ctl_mod.cost(cost_spec, traj, uc, ops) for traj, uc in zip(perturbed, controls)]
    for k, dJ_adj in enumerate(dJ_adjs):
        Jp, Jm, J2p, J2m = J[4 * k:4 * k + 4]
        fd = (8.0 * (Jp - Jm) - (J2p - J2m)) / (12.0 * d)
        fd_errors.append(abs(dJ_adj - fd) / max(abs(fd), 1e-14))
    gap, fd = max(duality_gaps), max(fd_errors)
    return gap <= 1e-10 and fd <= 1e-6, gap, fd


@_check("adjoint-duality")
def check_adjoint(ctx):
    """Exact discrete duality and agreement with a central-difference oracle."""
    problem = ctx.problem(0.4, 10, newton_tol=1e-12)
    cost_spec = ctl_mod.CostSpec(alphas=(1.0, 0.5, 1.0, 0.5, 0.2, 0.2),
                                 phiQ=0.2, phiS=0.1, phiO=0.2, phiG=0.1)
    ok, gap, fd = _gradient_checks(problem, *_base_point(problem), cost_spec,
                                   seeds=range(5))
    return ok, (
        f"max duality gap {gap:.2e} (<= 1e-10), "
        f"max FD error {fd:.2e} (<= 1e-6) over 5 directions"
    )


@_check("optimality")
def check_optimality(ctx):
    """Projected gradient reaches a certified box-stationary point."""
    cp, u0, pg_opts = ctx.control
    problem = cp.problem
    grid = problem.grid

    # Gradient correctness on the same bundle before optimizing.
    ok, gap, fd = _gradient_checks(
        problem.with_options(newton_tol=1e-12), cp.phi0,
        ctl_mod.project_box(u0, cp.box), cp.cost, seeds=range(2),
    )
    if not ok:
        return False, f"gradient check failed on the bundle (gap {gap:.2e}, fd {fd:.2e})"

    pg_opts = replace(pg_opts, tol=min(pg_opts.tol, 1e-6))
    result = ctl_mod.projected_gradient(cp, u0, pg_opts)
    J_values = [h.J for h in result.history]
    monotone = all(b <= a + 1e-15 for a, b in zip(J_values, J_values[1:]))
    vi = result.history[-1].vi_residual

    rng = np.random.default_rng(11)

    def draw(lo, hi, star):
        # Uniform in the box, an infinite end replaced by star -+ 1.
        return rng.uniform(np.where(np.isinf(lo), star - 1.0, lo),
                           np.where(np.isinf(hi), star + 1.0, hi))

    worst_form = np.inf
    for _ in range(20):
        other = ControlPair(draw(cp.box.u_min, cp.box.u_max, result.u.u),
                            draw(cp.box.uG_min, cp.box.uG_max, result.u.uG))
        # The first-order form <gamma p + a5 u_*, u - u_*> + boundary analogue.
        worst_form = min(worst_form, control_inner(result.gradient, other.plus(result.u, -1.0),
                                                   problem.ops, grid.dt))
    ok = result.converged and monotone and vi <= 1e-6 and worst_form >= -1e-5
    return ok, (
        f"vi residual {vi:.2e} (<= 1e-6) after {len(result.history) - 1} iterations, "
        f"J monotone: {monotone}, worst bilinear form {worst_form:.2e} (>= -1e-5)"
    )


@_check("homogeneous-zero")
def check_homogeneous(ctx):
    """Zero data propagates to exactly zero forward/linearized/adjoint states."""
    problem = ctx.problem(0.4, 10)
    zero_u = ControlPair.zeros(ctx.mesh, problem.grid)

    traj = solve(problem, PairField.constant(ctx.mesh, 0.0), zero_u)
    fwd = max(float(np.abs(traj.phi).max()), float(np.abs(traj.mu).max()))

    base = solve(problem, *_base_point(problem))
    lin = sen_mod.linearized_solve(problem, base, zero_u)
    lin_mag = max(float(np.abs(lin.psi).max()), float(np.abs(lin.eta).max()))

    zero_cost = ctl_mod.CostSpec(alphas=(0, 0, 0, 0, 0, 0))
    adj = adj_mod.adjoint_solve(problem, base, zero_cost)
    adj_mag = max(float(np.abs(adj.p).max()), float(np.abs(adj.q).max()))

    worst = max(fwd, lin_mag, adj_mag)
    return worst <= 1e-12, (
        f"max |state| over zero-data forward/linearized/adjoint: {worst:.2e} (<= 1e-12)"
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
    """Run every check on one CheckContext; a check that raises is
    recorded as a failure under its name, except a ``ConfigError``: a
    malformed configuration is the caller's to report, and building the
    context reports most of them before any check runs."""
    ctx = CheckContext.build(cfg)
    results = []
    for check in ALL_CHECKS:
        try:
            results.append(check(ctx))
        except ConfigError:
            raise
        except ChoError as err:
            results.append(CheckResult(check.name, False, f"aborted: {err}"))
    return results
