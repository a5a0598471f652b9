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
bound.  Each pass bound and slack is written once, in ``BOUNDS``, and
``@_check`` registers each check in ``ALL_CHECKS``, in module order.
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


# Pass bounds as the checks print them, and slacks; tests/test_verify.py pins them.
BOUNDS = {
    "mean-ode": {"residual": "<= 1e-9", "order": "1.0 +- 0.3"},
    "constant-data": {"ratio": "in [1.7, 2.3]"},
    "energy-decay": {"increment": "<= 1e-12"},
    "mean-bound": {"slack": 1e-9},
    "separation": {"slack": 1e-12},
    "yosida": {"last": "<= 1e-3"},
    "continuous-dependence": {"variation": "< 20%"},
    "taylor": {"order": ">= 1.9", "round_off": 1e-12},
    "adjoint-duality": {"gap": "<= 1e-10", "fd": "<= 1e-6"},
    "optimality": {"vi": "<= 1e-6", "form": ">= -1e-5", "monotone": 1e-15},
    "homogeneous-zero": {"state": "<= 1e-12"},
}


def _meets(value, bound):
    """Whether ``value`` meets a printed bound: ``in [lo, hi]``, ``c +- w``,
    or one that ``_limit`` reads."""
    if bound.startswith("in ["):
        lo, hi = map(float, bound[4:-1].split(", "))
        return lo <= value <= hi
    if " +- " in bound:
        centre, width = map(float, bound.split(" +- "))
        return centre - width <= value <= centre + width
    op, limit = bound.split(" ")[0], _limit(bound)
    return {"<=": value <= limit, "<": value < limit, ">=": value >= limit}[op]


def _limit(bound):
    """The x of ``<= x``, ``< x`` or ``>= x``, an x ending in % a share of 1."""
    limit = bound.split(" ")[1]
    return float(limit[:-1]) / 100 if limit.endswith("%") else float(limit)


_SUITE = []


def _check(name):
    """Register a check called ``name``.  Its body takes the CheckContext
    and ``BOUNDS[name]`` and returns (passed, detail) or (passed, detail,
    extra); the check returns them as a CheckResult called ``name``, and
    ``run_suite`` reports an aborted check under the same ``check.name``,
    which a ``functools.wraps`` wrapper of the check keeps.  A check
    starts without a live step factor, so its numbers do not depend on the
    checks run before it; the mass factor is exact, and checks share it."""
    def register(body):
        @functools.wraps(body)
        def check(ctx: CheckContext) -> CheckResult:
            ctx.ops.block_template.lu = None
            return CheckResult(name, *body(ctx, BOUNDS[name]))
        check.name = name
        _SUITE.append(check)
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
def check_mean_ode(ctx, bound):
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
    ok = (_meets(max(residuals), bound["residual"])
          and all(_meets(o, bound["order"]) for o in orders))
    return ok, (
        f"max residual {max(residuals):.2e} ({bound['residual']}), orders "
        + "/".join(f"{o:.2f}" for o in orders) + f" ({bound['order']})"
    )


@_check("constant-data")
def check_constant_data(ctx, bound):
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
    return (_meets(ratio, bound["ratio"]),
            f"dt-halving error ratio {ratio:.3f} ({bound['ratio']})")


@_check("energy-decay")
def check_energy_decay(ctx, bound):
    """Unconditional energy decay of the convex-splitting scheme."""
    mesh, pair = ctx.mesh, PotentialPair.same(regular_potential())
    problem = ctx.problem(1.0, 200, pair, Physics(tau=1.0, gamma=0.0),
                          scheme="convex-splitting", newton_tol=1e-12)
    rng = np.random.default_rng(0)
    phi0 = PairField.from_bulk(mesh, rng.uniform(-0.8, 0.8, mesh.n_bulk))
    traj = solve(problem, phi0, ControlPair.zeros(mesh, problem.grid))
    worst = float(np.diff(energy(problem, traj.phi)).max())
    return _meets(worst, bound["increment"]), (
        f"worst energy increment {worst:.2e} over {problem.grid.N} steps ({bound['increment']})"
    )


@_check("mean-bound")
def check_mean_bound(ctx, bound):
    """Discrete mean stays inside the reaction-limited interval, over ten
    random controls solved in one stack."""
    mesh, cfg = ctx.mesh, ctx.cfg
    gamma = min(cfg.physics.gamma, 1.0)
    problem = ctx.problem(cfg.time.T, min(cfg.time.N, 50),
                          physics=Physics(tau=cfg.physics.tau, gamma=gamma))
    M, m0 = 0.3, 0.1
    lo = -max(-m0, 0.0) - M / gamma - bound["slack"]
    hi = max(m0, 0.0) + M / gamma + bound["slack"]
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
def check_separation(ctx, bound):
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
    r0 = separation_r0(pair, N_mu, 0.3)
    worst = float(np.abs(traj.phi).max())
    return worst <= r0 + bound["slack"], (
        f"max |phi| = {worst:.4f} <= r0 = {r0:.4f} (mu bound {N_mu:.3f})"
    )


@_check("yosida")
def check_yosida(ctx, bound):
    """Yosida-regularized runs approach the unregularized one."""
    problem = ctx.problem(0.5, 20, PotentialPair.same(regular_potential()))
    phi0 = _tanh_ic(ctx.mesh, 0.4)
    controls = ControlPair.constant(ctx.mesh, problem.grid, 0.1, 0.05)
    *runs, ref = [solve(problem.with_options(eps_yosida=eps), phi0, controls)
                  for eps in (1e-1, 1e-2, 1e-3, 0.0)]
    errors = [traj_norm_L2H(problem.ops, problem.grid, traj.phi - ref.phi) for traj in runs]
    ok = errors[0] > errors[1] > errors[2] and _meets(errors[2], bound["last"])
    return ok, "errors " + " > ".join(f"{e:.2e}" for e in errors) + f" , last {bound['last']}"


@_check("continuous-dependence")
def check_contdep(ctx, bound):
    """First-order Lipschitz behavior of the control-to-state map."""
    problem = ctx.problem(0.4, 16)
    phi0, u = _base_point(problem)
    h, scales = _direction(problem, 5, 0.2), (1.0, 0.5, 0.25)
    base, *perturbed = solve_many(problem, phi0, [u] + [u.plus(h, s) for s in scales])
    hnorm = control_norm(h, problem.ops, problem.grid.dt)
    ratios = [traj_norm_Y(problem.ops, problem.grid, traj.phi - base.phi) / (abs(s) * hnorm)
              for traj, s in zip(perturbed, scales)]
    variation = max(ratios) / min(ratios) - 1.0
    return _meets(variation, bound["variation"]), (
        f"ratio variation {100 * variation:.2f}% across scales 1, 1/2, 1/4 ({bound['variation']})"
    )


@_check("taylor")
def check_taylor(ctx, bound):
    """Quadratic remainder of the first-order state expansion.

    One stacked ``solve_many`` solves the state at the base control u and
    at every u + s h; one linearized solve per direction h gives psi_h.
    The remainders ||S(u + s h) - S(u) - s psi_h||_Y, in the discrete
    H1-in-time / L-infinity-energy norm, have orders log2(r(s) / r(s/2))
    near 2 for a smooth potential.  A direction whose remainders all sit
    at round-off, at most the ``round_off`` slack times (||S(u)||_Y + 1),
    where the state map is affine in the control, gets no orders and
    minimum order inf.  The extra payload holds one (scales, remainders,
    orders) table per direction.

    The remainder order is a property of the (smooth) discrete step map at
    the configured resolution, so the configured step count is used as is,
    coarse grids included.
    """
    problem = ctx.problem(0.4, min(ctx.cfg.time.N, 16), newton_tol=1e-12)
    ops, grid = problem.ops, problem.grid
    phi0, u = _base_point(problem)
    directions = [_direction(problem, seed, 0.15) for seed in range(3)]
    scales = (0.5, 0.25, 0.125, 0.0625)
    base, *perturbed = solve_many(problem, phi0, [u] + [u.plus(h, s) for h in directions
                                                          for s in scales])
    perturbed = iter(perturbed)
    round_off = bound["round_off"] * (traj_norm_Y(ops, grid, base.phi) + 1.0)
    tables = []
    for h in directions:
        psi = sen_mod.linearized_solve(problem, base, h).psi
        remainders = [traj_norm_Y(ops, grid, next(perturbed).phi - base.phi - s * psi)
                      for s in scales]
        orders = [] if max(remainders) <= round_off else [
            float(np.log2(r1 / r2)) if r2 > 0 else np.inf
            for r1, r2 in zip(remainders, remainders[1:])
        ]
        tables.append((scales, remainders, orders))
    min_orders = [min(orders, default=np.inf) for _, _, orders in tables]
    return all(_meets(o, bound["order"]) for o in min_orders), (
        "min orders " + "/".join(f"{o:.2f}" for o in min_orders) + f" ({bound['order']})"
    ), tables


def _gradient_checks(problem, phi0, u, cost_spec, seeds, bound):
    """Whether the worst duality gap and central-FD gradient error over
    random directions meet the ``adjoint-duality`` ``bound``, and both
    with their bounds as text.  The base and the four FD controls of every
    direction are solved in one stack."""
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
    return _meets(gap, bound["gap"]) and _meets(fd, bound["fd"]), (
        f"max duality gap {gap:.2e} ({bound['gap']}), max FD error {fd:.2e} ({bound['fd']})"
    )


@_check("adjoint-duality")
def check_adjoint(ctx, bound):
    """Exact discrete duality and agreement with a central-difference oracle."""
    problem = ctx.problem(0.4, 10, newton_tol=1e-12)
    cost_spec = ctl_mod.CostSpec(alphas=(1.0, 0.5, 1.0, 0.5, 0.2, 0.2),
                                 phiQ=0.2, phiS=0.1, phiO=0.2, phiG=0.1)
    ok, errors = _gradient_checks(problem, *_base_point(problem), cost_spec, range(5), bound)
    return ok, f"{errors} over 5 directions"


@_check("optimality")
def check_optimality(ctx, bound):
    """Projected gradient reaches a certified box-stationary point."""
    cp, u0, pg_opts = ctx.control
    problem = cp.problem
    grid = problem.grid

    # Gradient correctness on the same bundle before optimizing.
    ok, errors = _gradient_checks(
        problem.with_options(newton_tol=1e-12), cp.phi0,
        ctl_mod.project_box(u0, cp.box), cp.cost, range(2), BOUNDS["adjoint-duality"],
    )
    if not ok:
        return False, f"gradient check failed on the bundle: {errors}"

    pg_opts = replace(pg_opts, tol=min(pg_opts.tol, _limit(bound["vi"])))
    result = ctl_mod.projected_gradient(cp, u0, pg_opts)
    J_values = [h.J for h in result.history]
    monotone = all(b <= a + bound["monotone"] for a, b in zip(J_values, J_values[1:]))
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
    ok = (result.converged and monotone and _meets(vi, bound["vi"])
          and _meets(worst_form, bound["form"]))
    return ok, (
        f"vi residual {vi:.2e} ({bound['vi']}) after {len(result.history) - 1} iterations, "
        f"J monotone: {monotone}, worst bilinear form {worst_form:.2e} ({bound['form']})"
    )


@_check("homogeneous-zero")
def check_homogeneous(ctx, bound):
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
    return _meets(worst, bound["state"]), (
        f"max |state| over zero-data forward/linearized/adjoint: {worst:.2e} ({bound['state']})"
    )


ALL_CHECKS = tuple(_SUITE)


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
