"""Implicit time stepping for the coupled bulk/surface phase-field system.

One step advances (phi, mu) through the two coupled residuals

    R1 = M (phi - phi_old)/dt + K mu + gamma M phi
         - gamma (M_bulk u + M_surf u_gamma)
    R2 = tau M (phi - phi_old)/dt + K phi + N(phi; phi_old) - M mu

with M = M_bulk + M_surf, K = K_bulk + K_surf, and N applying the
potential derivatives nodally through the lumped bulk and surface
masses.  The fully implicit scheme puts the whole derivative F' into N
at the new state; convex splitting keeps the convex part implicit and
the perturbation explicit, which makes the free energy nonincreasing
for gamma = 0 and zero sources.

Testing R1 with the constant vector collapses it to the scalar relation
(m_new - m_old)/dt + gamma m_new = gamma omega for the extended mean m,
so every converged run satisfies the mean dynamics to solver tolerance.
"""

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse.linalg as spla

from .errors import SolverError, ValidationError
from .mesh import BulkSurfaceMesh
from .potentials import PotentialPair, check_mz, yosida_beta, yosida_dbeta
from .spaces import CoupledOperators, PairField, assemble, mean


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    T: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError(f"step count must be >= 1, got {self.N}")
        if self.T <= 0:
            raise ValidationError(f"final time must be positive, got {self.T}")

    @property
    def dt(self) -> float:
        return self.T / self.N

    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.T, self.N + 1)


@dataclass(frozen=True)
class Physics:
    """Viscosity tau and reaction rate gamma."""

    tau: float
    gamma: float

    def __post_init__(self):
        if self.tau <= 0:
            raise ValidationError(f"tau must be positive, got {self.tau}")
        if self.gamma < 0:
            raise ValidationError(f"gamma must be nonnegative, got {self.gamma}")


@dataclass
class SolverOptions:
    """Newton and scheme controls for one forward solve."""

    scheme: str = "fully-implicit"
    newton_tol: float = 1e-10
    newton_max_iter: int = 50
    eps_yosida: float = 0.0
    interior_safeguard: float = 1e-8

    def __post_init__(self):
        if self.scheme not in ("fully-implicit", "convex-splitting"):
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if self.newton_tol <= 0 or self.interior_safeguard <= 0:
            raise ValidationError("tolerances must be positive")
        if self.eps_yosida and not 0.0 < self.eps_yosida < 1.0:
            raise ValidationError("eps_yosida must be 0 or inside (0, 1)")


@dataclass
class StateSnapshot:
    """Order parameter and chemical potential at one time node."""

    phi: PairField
    mu: PairField


class StateTrajectory:
    """Time series of (phi, mu) on a uniform grid; index 0 is the initial
    state with mu obtained from the chemical-potential relation at t = 0."""

    def __init__(self, mesh, grid, phi, mu, newton_iters):
        self.mesh = mesh
        self.grid = grid
        self.phi = phi          # (N+1, n_bulk)
        self.mu = mu            # (N+1, n_bulk)
        self.newton_iters = newton_iters

    def snapshot(self, n: int) -> StateSnapshot:
        return StateSnapshot(
            PairField.from_bulk(self.mesh, self.phi[n]),
            PairField.from_bulk(self.mesh, self.mu[n]),
        )

    @property
    def n_steps(self) -> int:
        return self.grid.N


@dataclass(frozen=True)
class Problem:
    """Everything a solve needs except initial datum and controls."""

    mesh: BulkSurfaceMesh
    ops: CoupledOperators
    pair: PotentialPair
    opts: SolverOptions
    physics: Physics
    grid: TimeGrid

    @classmethod
    def create(cls, mesh, pair, opts, physics, grid) -> "Problem":
        return cls(mesh, assemble(mesh), pair, opts, physics, grid)

    def with_options(self, **changes) -> "Problem":
        return replace(self, opts=replace(self.opts, **changes))


class _SchemeFns:
    """Nodal nonlinearity split into implicit/explicit parts per side."""

    def __init__(self, pair: PotentialPair, opts: SolverOptions):
        eps = opts.eps_yosida
        self.parts = {}
        for side, spec in (("bulk", pair.bulk), ("gamma", pair.boundary)):
            if opts.scheme == "fully-implicit":
                if eps:
                    imp = lambda r, s=spec: yosida_beta(s, eps, r) + s.pi(r)
                    dimp = lambda r, s=spec: yosida_dbeta(s, eps, r) + s.dpi(r)
                else:
                    imp = lambda r, s=spec: s.F(r, 1)
                    dimp = lambda r, s=spec: s.F(r, 2)
                exp_ = lambda r: np.zeros_like(r)
                dexp = lambda r: np.zeros_like(r)
            else:
                if eps:
                    imp = lambda r, s=spec: yosida_beta(s, eps, r)
                    dimp = lambda r, s=spec: yosida_dbeta(s, eps, r)
                else:
                    imp = lambda r, s=spec: s.beta(r)
                    dimp = lambda r, s=spec: s.dbeta(r)
                exp_ = spec.pi
                dexp = spec.dpi
            self.parts[side] = (imp, dimp, exp_, dexp)

    def nodal(self, ops, phi, which: int):
        """Lumped-mass-weighted nodal term; which selects imp/dimp/exp/dexp."""
        fb = self.parts["bulk"][which]
        fg = self.parts["gamma"][which]
        out = ops.lumped_bulk * fb(phi)
        tr = phi[ops.mesh.trace_map]
        out[ops.mesh.trace_map] += ops.lumped_gamma * fg(tr)
        return out


def scheme_functions(pair: PotentialPair, opts: SolverOptions) -> _SchemeFns:
    return _SchemeFns(pair, opts)


def jacobian_coefficients(physics, dt):
    """Block coefficients (a, b) of the step Jacobian

        J = [[(1/dt + gamma) M, K], [(tau/dt) M + K + diag(lam), -M]]

    in the form taken by ``solve_block_system``."""
    return (1.0 / dt + physics.gamma, 0.0, physics.tau / dt, -1.0), (0.0, 1.0, 1.0, 0.0)


def solve_block_system(ops, a, b, rhs, lam=None, trans="N", step=None):
    """Solve one coupled block system and return its two halves.

    The matrix [[a11 M + b11 K, a12 M + b12 K], [a21 M + b21 K + diag(lam),
    a22 M + b22 K]] is refilled into the operators' fixed block template,
    factored with a minimum-degree ordering on the symmetric pattern
    A^T + A, and solved with A (trans="N") or its transpose (trans="T").
    The factor is dropped before returning.  A singular matrix or a
    non-finite solution raises ``SolverError`` carrying ``step``.
    """
    where = "linear solve" if step is None else f"linear solve at step {step}"
    A = ops.block_template.fill(a, b, lam)
    try:
        lu = spla.splu(A, permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:
        raise SolverError(f"{where}: {err}", step=step) from err
    x = lu.solve(rhs, trans=trans)
    del lu
    if not np.all(np.isfinite(x)):
        raise SolverError(f"{where} returned non-finite values", step=step)
    return np.split(x, 2)


def _weighted_norm(ops, r1, r2):
    w = ops.lumped_total
    return float(np.sqrt(np.sum(r1 * r1 / w) + np.sum(r2 * r2 / w)))


def _interior_mask(ops, pair, opts):
    """Nodes whose iterates must stay inside (-1, 1); None when unconstrained."""
    if opts.eps_yosida:
        return None
    mask = np.zeros(ops.mesh.n_bulk, dtype=bool)
    if pair.bulk.bounded:
        mask[:] = True
    elif pair.boundary.bounded:
        mask[ops.mesh.trace_map] = True
    else:
        return None
    return mask


def _step_arrays(ops, pair, fns, opts, physics, dt, phi_n, mu_n, u, ug):
    """Newton solve of one implicit step; returns (phi, mu, iterations)."""
    Mbar, Kbar = ops.M_total, ops.K_total
    gamma, tau = physics.gamma, physics.tau
    source = gamma * (ops.M_bulk @ u + ops.P.T @ (ops.M_gamma @ ug))
    explicit = fns.nodal(ops, phi_n, 2)
    mask = _interior_mask(ops, pair, opts)
    limit = 1.0 - opts.interior_safeguard

    a, b = jacobian_coefficients(physics, dt)
    phi = phi_n.copy()
    mu = mu_n.copy()
    for it in range(opts.newton_max_iter + 1):
        r1 = Mbar @ ((phi - phi_n) / dt + gamma * phi) + Kbar @ mu - source
        r2 = (
            (tau / dt) * (Mbar @ (phi - phi_n))
            + Kbar @ phi
            + fns.nodal(ops, phi, 0)
            + explicit
            - Mbar @ mu
        )
        res = _weighted_norm(ops, r1, r2)
        if res <= opts.newton_tol:
            return phi, mu, it
        if it == opts.newton_max_iter:
            raise SolverError(
                f"Newton did not converge in {opts.newton_max_iter} iterations "
                f"(last residual {res:.3e})",
                residual=res,
            )
        try:
            dphi, dmu = solve_block_system(
                ops, a, b, -np.concatenate([r1, r2]), lam=fns.nodal(ops, phi, 1)
            )
        except SolverError as err:
            raise SolverError(f"Newton iteration {it + 1}: {err}", residual=res) from err
        alpha = 1.0
        if mask is not None:
            moving = mask & (dphi != 0.0)
            if moving.any():
                bound = np.where(dphi[moving] > 0, limit, -limit)
                frac = (bound - phi[moving]) / dphi[moving]
                amax = float(frac.min())
                if amax < 1.0:
                    alpha = 0.995 * amax
                if alpha <= 1e-12:
                    node = int(np.flatnonzero(moving)[int(np.argmin(frac))])
                    raise SolverError(
                        f"iterate pinned at the potential domain boundary "
                        f"at node {node} (phi = {phi[node]:.6f})"
                    )
        phi = phi + alpha * dphi
        mu = mu + alpha * dmu
    raise AssertionError("unreachable")


def step(ops, pair, opts, state_n: StateSnapshot, control_np1, tau, gamma, dt):
    """Advance one implicit step from state_n under the slab control
    (bulk vector, boundary vector) active on the step."""
    physics = Physics(tau, gamma)
    fns = scheme_functions(pair, opts)
    u, ug = control_np1
    phi, mu, _ = _step_arrays(
        ops, pair, fns, opts, physics, dt,
        np.asarray(state_n.phi.bulk, dtype=float),
        np.asarray(state_n.mu.bulk, dtype=float),
        np.asarray(u, dtype=float),
        np.asarray(ug, dtype=float),
    )
    mesh = ops.mesh
    return StateSnapshot(PairField.from_bulk(mesh, phi), PairField.from_bulk(mesh, mu))


def initial_mu(problem: Problem, phi0: np.ndarray) -> np.ndarray:
    """Chemical potential at t = 0 from the second equation (no dynamics)."""
    ops = problem.ops
    fns = scheme_functions(problem.pair, problem.opts)
    rhs = ops.K_total @ phi0 + fns.nodal(ops, phi0, 0) + fns.nodal(ops, phi0, 2)
    mu0 = spla.spsolve(ops.M_total.tocsc(), rhs)
    if not np.all(np.isfinite(mu0)):
        raise SolverError("initial chemical potential has non-finite values", step=0)
    return mu0


def solve(problem: Problem, phi0: PairField, controls) -> StateTrajectory:
    """March the state system over the whole grid.

    ``controls`` carries slab arrays ``u`` of shape (N, n_bulk) and ``uG``
    of shape (N, n_boundary); slab n acts on the step t_n -> t_{n+1}.
    Validates the mean-value condition before starting when the potential
    domain is bounded.
    """
    mesh, ops, grid = problem.mesh, problem.ops, problem.grid
    phi0.check_shapes(mesh)
    if not phi0.conforming:
        raise ValidationError("initial datum must be a conforming pair")
    u = np.asarray(controls.u, dtype=float)
    ug = np.asarray(controls.uG, dtype=float)
    if u.shape != (grid.N, mesh.n_bulk) or ug.shape != (grid.N, mesh.n_boundary):
        raise ValidationError(
            f"control slabs have shapes {u.shape}/{ug.shape}, expected "
            f"({grid.N}, {mesh.n_bulk})/({grid.N}, {mesh.n_boundary})"
        )

    if problem.pair.bounded and not problem.opts.eps_yosida:
        lo, hi = problem.pair.boundary.domain
        if np.any(phi0.bulk <= lo) or np.any(phi0.bulk >= hi):
            raise ValidationError("initial datum must be strictly interior")
        m0 = mean(phi0, ops)
        M = max(np.abs(u).max(initial=0.0), np.abs(ug).max(initial=0.0))
        mz = check_mz(problem.pair, m0, M, problem.physics.gamma)
        if not mz.passed:
            raise ValidationError(f"mean-value condition fails: {mz.message}")

    n = mesh.n_bulk
    phi = np.empty((grid.N + 1, n))
    mu = np.empty((grid.N + 1, n))
    iters = np.zeros(grid.N, dtype=int)
    phi[0] = phi0.bulk
    mu[0] = initial_mu(problem, phi[0])

    fns = scheme_functions(problem.pair, problem.opts)
    dt = grid.dt
    for k in range(grid.N):
        try:
            phi[k + 1], mu[k + 1], iters[k] = _step_arrays(
                ops, problem.pair, fns, problem.opts, problem.physics, dt,
                phi[k], mu[k], u[k], ug[k],
            )
        except SolverError as err:
            raise SolverError(
                f"step {k + 1}/{grid.N} failed: {err}",
                step=k + 1,
                residual=err.residual,
            ) from err
    return StateTrajectory(mesh, grid, phi, mu, iters)


# ---------------------------------------------------------------------------
# Exactly checkable diagnostics
# ---------------------------------------------------------------------------

def mean_ode_residual(traj: StateTrajectory, controls, ops, gamma) -> np.ndarray:
    """Per-step residual of the discrete mean dynamics.

    r_n = (m_{n+1} - m_n)/dt + gamma m_{n+1} - gamma omega_{n+1}; vanishes
    to Newton tolerance because it is R1 tested with the constant pair.
    """
    m = np.array(
        [mean(PairField.from_bulk(traj.mesh, traj.phi[k]), ops)
         for k in range(traj.grid.N + 1)]
    )
    omega = np.array(
        [mean(PairField(controls.u[k], controls.uG[k]), ops)
         for k in range(traj.grid.N)]
    )
    dt = traj.grid.dt
    return np.diff(m) / dt + gamma * m[1:] - gamma * omega


def exact_mean(m0: float, gamma: float, omega_slabs, grid: TimeGrid, t: float) -> float:
    """Closed-form mean m(t) for piecewise-constant omega.

    Solves m' + gamma m = gamma omega exactly:
    m(t) = m0 e^{-gamma t} + gamma * int_0^t e^{-gamma (t-s)} omega(s) ds,
    with the integral evaluated slab by slab.
    """
    omega_slabs = np.asarray(omega_slabs, dtype=float)
    if omega_slabs.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} slab values, got {omega_slabs.shape}")
    if t < 0 or t > grid.T + 1e-12:
        raise ValueError(f"t = {t} outside [0, {grid.T}]")
    value = m0 * np.exp(-gamma * t)
    if gamma == 0.0:
        return float(value)
    edges = grid.times()
    for j in range(grid.N):
        a, b = edges[j], min(edges[j + 1], t)
        if b <= a:
            break
        value += omega_slabs[j] * (np.exp(-gamma * (t - b)) - np.exp(-gamma * (t - a)))
    return float(value)


def energy(ops, pair: PotentialPair, state: StateSnapshot) -> float:
    """Free energy: gradient seminorm plus lumped potential terms."""
    phi = state.phi.bulk
    e = 0.5 * float(phi @ (ops.K_total @ phi))
    e += float(ops.lumped_bulk @ pair.bulk.F(phi))
    e += float(ops.lumped_gamma @ pair.boundary.F(state.phi.boundary))
    return e


@dataclass
class SeparationReport:
    applicable: bool
    passed: bool
    r0: float = np.nan
    worst_value: float = np.nan
    worst_node: int = -1
    worst_step: int = -1


def separation_check(traj: StateTrajectory, r0) -> SeparationReport:
    """Verify max over time and nodes of |phi| stays below the threshold."""
    if r0 is None:
        return SeparationReport(applicable=False, passed=True)
    absphi = np.abs(traj.phi)
    flat = int(np.argmax(absphi))
    step, node = np.unravel_index(flat, absphi.shape)
    worst = float(absphi[step, node])
    return SeparationReport(
        applicable=True,
        passed=worst <= r0 + 1e-12,
        r0=float(r0),
        worst_value=worst,
        worst_node=int(node),
        worst_step=int(step),
    )


def yosida_continuation(problem: Problem, phi0: PairField, controls, eps_list):
    """Re-solve with beta replaced by its Yosida approximation for each eps.

    eps_list must be strictly decreasing inside (0, 1).  Returns the
    trajectories keyed by eps and a table of discrete L2-in-time distances
    to the run at the smallest eps (one row per larger eps).
    """
    eps_list = [float(e) for e in eps_list]
    if any(e2 >= e1 for e1, e2 in zip(eps_list, eps_list[1:])):
        raise ValidationError("eps list must be strictly decreasing")
    if any(not 0.0 < e < 1.0 for e in eps_list):
        raise ValidationError("every eps must lie in (0, 1)")
    trajectories = {}
    for eps in eps_list:
        trajectories[eps] = solve(problem.with_options(eps_yosida=eps), phi0, controls)
    ref = trajectories[eps_list[-1]]
    table = [
        (eps, traj_norm_L2H(problem.ops, problem.grid, trajectories[eps].phi - ref.phi))
        for eps in eps_list[:-1]
    ]
    return trajectories, table


# ---------------------------------------------------------------------------
# Discrete trajectory norms (conforming bulk-indexed time series)
# ---------------------------------------------------------------------------

def _H_sq(ops, v):
    return float(v @ (ops.M_total @ v))


def _V_sq(ops, v):
    return _H_sq(ops, v) + float(v @ (ops.K_total @ v))


def traj_norm_L2H(ops, grid: TimeGrid, Z) -> float:
    """Right-endpoint-in-time L2 norm of a conforming trajectory array."""
    return float(np.sqrt(sum(grid.dt * _H_sq(ops, Z[n]) for n in range(1, grid.N + 1))))


def traj_norm_H1H(ops, grid: TimeGrid, Z) -> float:
    rate = sum(
        grid.dt * _H_sq(ops, (Z[n] - Z[n - 1]) / grid.dt) for n in range(1, grid.N + 1)
    )
    return float(np.sqrt(traj_norm_L2H(ops, grid, Z) ** 2 + rate))


def traj_norm_LinfV(ops, grid: TimeGrid, Z) -> float:
    return float(np.sqrt(max(_V_sq(ops, Z[n]) for n in range(grid.N + 1))))


def traj_norm_Y(ops, grid: TimeGrid, Z) -> float:
    """Discrete H1-in-time / L-infinity-in-space-energy intersection norm."""
    return traj_norm_H1H(ops, grid, Z) + traj_norm_LinfV(ops, grid, Z)
