"""Cost functional, admissible controls, and projected gradient descent.

Controls are nodal in space and piecewise constant in time: slab j acts
on the step t_j -> t_{j+1}, matching the implicit-Euler source sampling,
so the discrete gradient representation from the adjoint is exact.
Running costs use the right-endpoint rectangle rule (states at
n = 1..N); terminal costs use the exact mass matrices.
"""

from dataclasses import dataclass, field

import numpy as np

from .adjoint import AdjointTrajectory, adjoint_solve, reduced_gradient
from .errors import SolverError, ValidationError
from .forward import Problem, StateTrajectory, require_mean_value, solve
from .spaces import ControlPair, PairField, row_inner


def control_inner(a: ControlPair, b: ControlPair, ops, dt: float) -> float:
    """Discrete L2-in-time inner product over bulk and boundary controls."""
    return float(dt * ops.inner(a.u, a.uG, b.u, b.uG).sum())


def control_norm(a: ControlPair, ops, dt: float) -> float:
    return float(np.sqrt(max(control_inner(a, a, ops, dt), 0.0)))


def random_direction(mesh, grid, rng) -> ControlPair:
    """Uniform random slabs in [-1, 1]."""
    return ControlPair(
        rng.uniform(-1.0, 1.0, (grid.N, mesh.n_bulk)),
        rng.uniform(-1.0, 1.0, (grid.N, mesh.n_boundary)),
    )


# ---------------------------------------------------------------------------
# Box constraints
# ---------------------------------------------------------------------------

@dataclass
class BoxBounds:
    """Pointwise control box, the same four numbers at every node and
    slab, plus the H1-in-time budget M'.  A bound may be infinite."""

    u_min: float = -1.0
    u_max: float = 1.0
    uG_min: float = -1.0
    uG_max: float = 1.0
    M_prime: float = 1.0e3

    def __post_init__(self):
        if not (self.u_min <= self.u_max and self.uG_min <= self.uG_max):
            raise ValidationError(
                "infeasible box: lower bound exceeds upper bound or a bound is NaN"
            )
        if not self.M_prime > 0:
            raise ValidationError(f"M' must be positive, got {self.M_prime}")

    @property
    def M(self) -> float:
        """Sup bound of the box, the constant entering the mean-value check."""
        return float(max(map(abs, (self.u_min, self.u_max, self.uG_min, self.uG_max))))


def project_box(pair: ControlPair, box: BoxBounds) -> ControlPair:
    """Componentwise clamp onto the box."""
    return ControlPair(
        np.clip(pair.u, box.u_min, box.u_max),
        np.clip(pair.uG, box.uG_min, box.uG_max),
    )


@dataclass
class UadReport:
    box_ok: bool
    h1_ok: bool
    h1_norm_u: float
    h1_norm_uG: float

    @property
    def passed(self) -> bool:
        return self.box_ok and self.h1_ok


def validate_Uad(pair: ControlPair, box: BoxBounds, grid, ops) -> UadReport:
    """Report-only admissibility check: box membership and the discrete
    H1-in-time norm of the slab values against M'."""
    box_ok = bool(
        np.all(pair.u >= box.u_min - 1e-14)
        and np.all(pair.u <= box.u_max + 1e-14)
        and np.all(pair.uG >= box.uG_min - 1e-14)
        and np.all(pair.uG <= box.uG_max + 1e-14)
    )
    dt = grid.dt
    du = np.diff(pair.u, axis=0) / dt
    dg = np.diff(pair.uG, axis=0) / dt
    h1u = float(np.sqrt(dt * row_inner(ops.M_bulk, du, du).sum()))
    h1g = float(np.sqrt(dt * row_inner(ops.M_gamma, dg, dg).sum()))
    h1_ok = h1u <= box.M_prime and h1g <= box.M_prime
    return UadReport(box_ok, h1_ok, h1u, h1g)


# ---------------------------------------------------------------------------
# Cost functional
# ---------------------------------------------------------------------------

@dataclass
class CostSpec:
    """Tracking-type cost with six nonnegative weights.

    alphas = (a1 bulk running, a2 boundary running, a3 bulk terminal,
    a4 boundary terminal, a5 bulk control, a6 boundary control).
    Targets are scalars or arrays broadcasting against the states: the
    running targets phiQ, phiS against the (N+1)-row stacks, the terminal
    targets phiO, phiG against one row.  None is a zero target.
    """

    alphas: tuple = (1.0, 0.0, 1.0, 0.0, 0.1, 0.1)
    phiQ: object = None
    phiS: object = None
    phiO: object = None
    phiG: object = None

    def __post_init__(self):
        self.alphas = tuple(float(a) for a in self.alphas)
        if len(self.alphas) != 6:
            raise ValidationError(f"expected 6 cost weights, got {len(self.alphas)}")
        if not all(0 <= a < np.inf for a in self.alphas):
            raise ValidationError("cost weights must be nonnegative and finite")
        for name in ("phiQ", "phiS", "phiO", "phiG"):
            value = getattr(self, name)
            target = np.asarray(0.0 if value is None else value, dtype=float)
            if not np.all(np.isfinite(target)):
                raise ValidationError(f"cost target {name} must be finite")
            setattr(self, name, target)

    def misfits(self, ops, phi):
        """Running misfit pair (phi - phiQ, phi|Gamma - phiS) of a state stack,
        one row per time level, and the terminal pair at its last row."""
        tr = phi[:, ops.mesh.trace_map]
        return (phi - self.phiQ, tr - self.phiS), (phi[-1] - self.phiO, tr[-1] - self.phiG)

    def sources(self, ops, phi):
        """Mass-weighted misfits of a state stack: the running source
        Z1 = a1 M (phi - phiQ) + a2 M_Gamma (phi|Gamma - phiS), one row per
        time level, and the terminal source zeta3.  They are the state
        gradient of the cost, so the adjoint and ``cost_directional`` read
        them both."""
        a1, a2, a3, a4 = self.alphas[:4]
        (d, dg), (dN, dgN) = self.misfits(ops, phi)
        return ops.mass(a1 * d, a2 * dg), ops.mass(a3 * dN, a4 * dgN)


def cost(cost_spec: CostSpec, traj: StateTrajectory, u: ControlPair, ops) -> float:
    """Discrete cost: right-endpoint running terms, exact terminal terms."""
    a1, a2, a3, a4, a5, a6 = cost_spec.alphas
    dt = traj.grid.dt
    (d, dg), (dN, dgN) = cost_spec.misfits(ops, traj.phi)
    J = dt * ops.inner(a1 * d[1:], a2 * dg[1:], d[1:], dg[1:]).sum()
    J += ops.inner(a3 * dN, a4 * dgN, dN, dgN)
    J += dt * ops.inner(a5 * u.u, a6 * u.uG, u.u, u.uG).sum()
    return float(0.5 * J)


def cost_directional(cost_spec: CostSpec, problem, base: StateTrajectory,
                     psi, u: ControlPair, h: ControlPair) -> float:
    """Directional derivative of the discrete cost along (psi, h).

    ``psi`` is the (N+1, n_bulk) sensitivity of phi in the direction h,
    e.g. from the linearized solver.  The state part pairs psi with the
    adjoint's own sources, so it cross-validates the adjoint path.
    """
    ops, dt = problem.ops, problem.grid.dt
    a5, a6 = cost_spec.alphas[4:]
    Z1, zeta3 = cost_spec.sources(ops, base.phi)
    dJ = dt * np.vdot(Z1[1:], psi[1:]) + zeta3 @ psi[-1]
    dJ += dt * ops.inner(a5 * u.u, a6 * u.uG, h.u, h.uG).sum()
    return float(dJ)


def vi_residual(u: ControlPair, g: ControlPair, box: BoxBounds, ops, dt: float) -> float:
    """Projected-gradient stationarity residual ||u - P(u - g)||.

    Zero exactly when the box-constrained first-order condition holds;
    the time-derivative budget is monitored separately, not enforced.
    """
    proj = project_box(u.plus(g, -1.0), box)
    return control_norm(u.plus(proj, -1.0), ops, dt)


# ---------------------------------------------------------------------------
# Projected gradient descent
# ---------------------------------------------------------------------------

@dataclass
class ControlProblem:
    """Forward problem plus everything the optimizer needs."""

    problem: Problem
    phi0: PairField
    cost: CostSpec
    box: BoxBounds


# Armijo backtracks per iterate before the line search gives up.
MAX_BACKTRACKS = 60
# Armijo sufficient-decrease constant and step shrink factor per backtrack.
ARMIJO_C1 = 1e-4
BACKTRACK = 0.5
# First trial step of the first line search, and of any line search whose
# spectral step is undefined; the interval the spectral step is clipped to.
INITIAL_STEP = 1.0
STEP_MIN = 1e-3
STEP_MAX = 1e3


@dataclass(frozen=True)
class OptimizerOptions:
    """Projected-gradient stopping rule; the line search uses the module
    constants ``ARMIJO_C1``, ``BACKTRACK``, ``INITIAL_STEP``, ``STEP_MIN``
    and ``STEP_MAX`` (see ``projected_gradient``)."""

    max_iter: int = 200
    tol: float = 1e-6

    def __post_init__(self):
        if not 0 < self.tol < np.inf:
            raise ValidationError(f"tol must be positive and finite, got {self.tol}")
        if self.max_iter < 0:
            raise ValidationError(f"max_iter must be >= 0, got {self.max_iter}")


@dataclass
class IterateRecord:
    iteration: int
    J: float
    vi_residual: float
    step: float
    newton_total: int
    uad_ok: bool


@dataclass
class OptimizeResult:
    """The last iterate with its state, adjoint and reduced gradient."""

    u: ControlPair
    trajectory: StateTrajectory
    adjoint: AdjointTrajectory
    gradient: ControlPair
    history: list = field(default_factory=list)
    converged: bool = False
    stalled: bool = False


def projected_gradient(cp: ControlProblem, u0: ControlPair,
                       opts: OptimizerOptions = None) -> OptimizeResult:
    """Minimize the tracking cost over the box by projected gradient descent.

    Iterates u_{k+1} = P(u_k - s_k g_k) with monotone Armijo backtracking
    on the true discrete cost; terminates when the projection residual
    drops below tol.  Each line search after the first starts at the
    spectral step <du, du> / <du, dg> of Barzilai and Borwein (1988) for the
    last move du = u_k - u_{k-1}, dg = g_k - g_{k-1}, clipped to
    [STEP_MIN, STEP_MAX]; the first one, and any with <du, dg> <= 0,
    starts at INITIAL_STEP.  This is the monotone spectral projected
    gradient method of Birgin, Martinez and Raydan (2000).  Every trial
    solve of a line search starts its Newton steps from the last accepted
    trajectory (``solve``'s ``start``), whose increments predict the trial
    state far better than the previous time step does; it converges to
    the same tolerance, so J moves only at the level of ``newton_tol``.
    A first trial that fails Armijo with its predicted decrease
    ARMIJO_C1 |<g, trial - u>| at most newton_tol |J|, within that noise,
    ends the run unconverged and ``stalled``: no shorter step can show a
    decrease either.  The H1-in-time budget is reported per iterate but
    not enforced (no closed-form projection onto box and ball jointly).
    """
    opts = opts or OptimizerOptions()
    problem, box = cp.problem, cp.box
    ops, grid = problem.ops, problem.grid
    dt = grid.dt

    require_mean_value(problem, cp.phi0, box.M, " for the box")

    u = project_box(u0, box)

    def evaluate(uc, start=None):
        traj = solve(problem, cp.phi0, uc, start)
        J = cost(cp.cost, traj, uc, ops)
        return traj, J

    traj, J = evaluate(u)
    s, newton_total, history = 0.0, int(traj.newton_iters.sum()), []
    for k in range(opts.max_iter + 1):
        adj = adjoint_solve(problem, traj, cp.cost)
        g = reduced_gradient(problem, u, adj, cp.cost)
        vi = vi_residual(u, g, box, ops, dt)
        history.append(IterateRecord(k, J, vi, s, newton_total,
                                     validate_Uad(u, box, grid, ops).passed))
        if vi <= opts.tol or k == opts.max_iter:
            break
        s, newton_total = INITIAL_STEP, 0
        if k > 0:
            du, dg = u.plus(u_prev, -1.0), g.plus(g_prev, -1.0)
            curvature = control_inner(du, dg, ops, dt)
            if curvature > 0:
                s = min(max(control_inner(du, du, ops, dt) / curvature, STEP_MIN), STEP_MAX)
        first_step = s
        for backtrack in range(MAX_BACKTRACKS + 1):
            trial = project_box(u.plus(g, -s), box)
            descent = control_inner(g, trial.plus(u, -1.0), ops, dt)
            traj_t, J_t = evaluate(trial, traj)
            newton_total += int(traj_t.newton_iters.sum())
            if J_t <= J + ARMIJO_C1 * descent:
                break
            if not backtrack and ARMIJO_C1 * abs(descent) <= problem.opts.newton_tol * abs(J):
                return OptimizeResult(u, traj, adj, g, history, stalled=True)
            s *= BACKTRACK
        else:
            gnorm = control_norm(g, ops, dt)
            raise SolverError(
                f"line search failed at optimizer iteration {k}: no Armijo "
                f"decrease after {MAX_BACKTRACKS} backtracks from step "
                f"{first_step:.3e} (gradient norm {gnorm:.3e})"
            )
        u_prev, g_prev = u, g
        u, traj, J = trial, traj_t, J_t
    return OptimizeResult(u, traj, adj, g, history, converged=vi <= opts.tol)
