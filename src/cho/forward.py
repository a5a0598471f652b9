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

import math
from dataclasses import dataclass, replace
from functools import cached_property
from itertools import accumulate

import numpy as np

from .errors import SolverError, ValidationError
from .mesh import BulkSurfaceMesh
from .potentials import PotentialPair, yosida_derivatives
from .spaces import ControlPair, CoupledOperators, PairField, assemble, row_inner


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into N steps."""

    T: float
    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValidationError(f"step count must be >= 1, got {self.N}")
        if not 0 < self.T < math.inf:
            raise ValidationError(f"final time T must be positive and finite, got {self.T}")
        if 1.0 / self.dt == math.inf:
            raise ValidationError(f"time step T/N = {self.dt:g} has no finite reciprocal")

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
        if not 0 < self.tau < math.inf:
            raise ValidationError(f"tau must be positive and finite, got {self.tau}")
        if not 0 <= self.gamma < math.inf:
            raise ValidationError(f"gamma must be nonnegative and finite, got {self.gamma}")


@dataclass(frozen=True)
class SolverOptions:
    """Scheme, Newton tolerance and Yosida parameter of one forward solve;
    see ``NEWTON_MAX_ITER`` and ``INTERIOR_SAFEGUARD`` for the rest."""

    scheme: str = "fully-implicit"
    newton_tol: float = 1e-10
    eps_yosida: float = 0.0

    def __post_init__(self):
        if self.scheme not in ("fully-implicit", "convex-splitting"):
            raise ValidationError(f"unknown scheme {self.scheme!r}")
        if not 0 < self.newton_tol < math.inf:
            raise ValidationError(
                f"tolerances must be positive and finite, got newton_tol = {self.newton_tol}")
        if self.eps_yosida and not 0.0 < self.eps_yosida < 1.0:
            raise ValidationError(
                f"eps_yosida must be 0 or inside (0, 1), got {self.eps_yosida}"
            )


class StateTrajectory:
    """Time series of (phi, mu) on a uniform grid; index 0 is the initial
    state with mu obtained from the chemical-potential relation at t = 0."""

    def __init__(self, mesh, grid, phi, mu, newton_iters):
        self.mesh = mesh
        self.grid = grid
        self.phi = phi          # (N+1, n_bulk)
        self.mu = mu            # (N+1, n_bulk)
        self.newton_iters = newton_iters


@dataclass(frozen=True)
class Problem:
    """Everything a solve needs except initial datum and controls, and the
    terms of the discrete step that these fix.

    The run's potential is beta_hat, or under Yosida its Moreau envelope,
    plus pi_hat; it splits into an implicit part N and an explicit part E
    (pi_hat under convex splitting).  Each evaluation returns lumped terms
    of one state or of an (N+1, n) stack of states in one pass: one domain
    check or one Yosida resolvent per potential, whose bulk values also
    serve the trace when both sides share it."""

    ops: CoupledOperators
    pair: PotentialPair
    opts: SolverOptions
    physics: Physics
    grid: TimeGrid

    @classmethod
    def create(cls, mesh, pair, opts, physics, grid) -> "Problem":
        return cls(assemble(mesh), pair, opts, physics, grid)

    @property
    def mesh(self) -> BulkSurfaceMesh:
        return self.ops.mesh

    def with_options(self, **changes) -> "Problem":
        return replace(self, opts=replace(self.opts, **changes))

    @cached_property
    def jacobian_coefficients(self):
        """The step Jacobian's coefficients c = (1/dt + gamma, tau/dt), in
        the form taken by ``solve_block_system``."""
        dt, physics = self.grid.dt, self.physics
        return 1.0 / dt + physics.gamma, physics.tau / dt

    @cached_property
    def interior(self):
        """Read-only mask of the nodes whose initial datum and iterates must
        stay inside (-1, 1), the domain of every bounded potential; None
        when unconstrained.  D(beta_Gamma) lies in D(beta), so a bounded
        bulk potential bounds the boundary one, and a bounded boundary
        potential the trace."""
        if self.opts.eps_yosida or not self.pair.bounded:
            return None
        mask = np.full(self.ops.mesh.n_bulk, self.pair.bulk.bounded)
        mask[self.ops.mesh.trace_map] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def _split(self):
        return self.opts.scheme == "convex-splitting"

    def _nodal(self, spec, r):
        """(N, lambda) of one potential's implicit part at the nodal values
        r, from one domain check or one Yosida resolvent."""
        eps = self.opts.eps_yosida
        if eps:
            n1, n2 = yosida_derivatives(spec, eps, r, (1, 2))
        else:
            spec.check_domain(r)
            n1, n2 = spec.convex[1](r), spec.convex[2](r)
        if self._split:
            return n1, n2
        return n1 + spec.perturbation[1](r), n2 + spec.perturbation[2](r)

    def _lumped(self, side, phi):
        ops, pair = self.ops, self.pair
        bulk = side(pair.bulk, phi)
        if pair.boundary is pair.bulk:
            # A conforming pair: the coupling is one multiply by lumped_total.
            return tuple(ops.lumped_total * z for z in bulk)
        gamma = side(pair.boundary, phi[..., ops.mesh.trace_map])
        return tuple(ops.lumped(z, z_G) for z, z_G in zip(bulk, gamma))

    def implicit(self, phi):
        """(N(phi), lambda(phi)) with lambda = N'."""
        ops, pair = self.ops, self.pair
        n1, n2 = self._nodal(pair.bulk, phi)
        if pair.boundary is pair.bulk:
            # A conforming pair: the coupling is one multiply by lumped_total.
            return ops.lumped_total * n1, ops.lumped_total * n2
        g1, g2 = self._nodal(pair.boundary, phi[..., ops.mesh.trace_map])
        return ops.lumped(n1, g1), ops.lumped(n2, g2)

    def explicit(self, phi, order):
        """E(phi) at order 0 or E'(phi) at 1; read-only zeros without a split."""
        if not self._split:
            # Allocated: np.broadcast_to costs five times as much at desk scale.
            zero = np.zeros(np.shape(phi))
            zero.flags.writeable = False
            return zero
        return self._lumped(lambda spec, r: ((spec.pi, spec.dpi)[order](r),), phi)[0]

    def jacobian(self, phi):
        """(lambda(phi), E'(phi)), the state-dependent terms of the
        linearized step."""
        return self.implicit(phi)[1], self.explicit(phi, 1)

    def potential(self, phi):
        """Lumped values of the run's potential, whatever the split."""
        eps = self.opts.eps_yosida

        def whole(spec, r):
            if not eps:
                return (spec.F(r),)
            return (yosida_derivatives(spec, eps, r, (0,))[0] + spec.perturbation[0](r),)
        return self._lumped(whole, phi)[0]


# Module constants of the step solves.  Every step system is the block
# template's one step matrix, refilled on its lambda diagonal alone while
# its coefficients hold.  Off an exact template the systems share its one
# live factor, taken at some reference diagonal, and the solves below use
# it as a preconditioner; an exact template factors each system itself.
#
# A refined solve stops at this relative residual ||r - A x|| / ||r||.
# Fresh factors land near 1e-16 to 1e-15; 1e-14 sits on the round-off
# floor of the larger systems and stalls.
REFINE_RTOL = 1e-13
# A refinement sweep that leaves more than this fraction of the residual
# has stalled, and the factor is rebuilt at the current matrix.
STALL_RATIO = 0.5
# A stalled solve is accepted when its normwise backward error
# ||r - A x|| / (||A||_F ||x|| + ||r||) is below this round-off level: a
# solution with a large ||x|| / ||r|| cannot reach REFINE_RTOL in double
# precision, however fresh the factor.
ROUNDOFF = 1e-14
# Chord Newton also stops a column when a correction on a fresh factor
# fails to reduce a residual within NEWTON_ROUNDOFF * (|| |A| |y| ||_w +
# || c ||_w), the round-off floor of evaluating the step residual
# A y + N(phi) - c.  newton_tol bounds the residual absolutely, and the
# floor grows as the mesh is refined: on intervals of 256 to 2048 cells
# and a 128 x 128 rectangle, the stalled residuals stay below 0.15 eps
# times that sum.
NEWTON_ROUNDOFF = 4 * np.finfo(float).eps
# Chord Newton rebuilds the factor at the state of the first column that
# one iteration leaves more than this fraction of its previous residual.
CHORD_RHO = 0.2
# The ratio on a dense template, whose band factor costs about one chord
# iteration, from a step's second correction on: the first measures how
# far the old state lies from the new one, not how stale the factor is.
CHORD_RHO_BAND = 1e-3
# Newton iterations per step before the step fails.
NEWTON_MAX_ITER = 50
# Iterates of a bounded potential stay inside (-1 + s, 1 - s) for this s.
INTERIOR_SAFEGUARD = 1e-8


def _norm(v):
    return np.sqrt(v @ v)


def _where(step):
    return "linear solve" if step is None else f"linear solve at step {step}"


def _nonfinite(v):
    """Index tuple of the first non-finite entry of ``v``, or None."""
    if np.isfinite(v).all():
        return None
    return tuple(int(i) for i in np.argwhere(~np.isfinite(v))[0])


def _factor(template, c, lam, step):
    """Rebuild the template's live factor at ``lam``; a singular matrix
    raises ``SolverError`` carrying ``step``.  Callers check ``lam`` for
    non-finite values first, since a reused factor would never see them;
    they read the factor from ``template.lu`` and keep no reference to it,
    so that the old factor is released before a new one is built."""
    try:
        template.factor(c, lam)
    except RuntimeError as err:
        raise SolverError(f"{_where(step)}: {err}", step=step) from err


def solve_block_system(ops, c, rhs, lam, trans="N", step=None):
    """Solve one step system to a relative residual of ``REFINE_RTOL``
    and return its two halves.

    The step Jacobian A = [[c1 M, K], [c2 M + K + diag(lam), -M]] of
    c = (c1, c2) is the block template's one step matrix, dense with a
    LAPACK factor up to order ``spaces.DENSE_MAX`` and CSC with a SuperLU
    factor above; a call with the coefficients it holds refills only
    diag(lam), and one with others releases the live factor.
    The system is solved with A (trans="N") or A.T (trans="T") by
    iterative refinement: each sweep corrects the solution with the live
    factor and recomputes the residual with the exact refilled matrix.
    On an exact template (``BlockTemplate.exact``, a dense one on an
    interval) the factor is built at this very matrix on every call, and
    one sweep lands below ``REFINE_RTOL``.  Elsewhere the factor, taken at
    an earlier diagonal, is built here when there is none or when a sweep
    stalls (``STALL_RATIO``) short of the round-off level (``ROUNDOFF``).
    A non-finite ``rhs`` or ``lam``, a singular
    matrix or a stall on a factor of this very matrix raises
    ``SolverError`` carrying ``step``.
    """
    template = ops.block_template
    rnorm = _norm(rhs)
    if not math.isfinite(rnorm):
        rows = np.flatnonzero(~np.isfinite(rhs))[:3]
        raise SolverError(f"{_where(step)}: right-hand side of norm {rnorm}, "
                          f"non-finite at rows {rows}", step=step)
    if (node := _nonfinite(lam)) is not None:
        raise SolverError(f"{_where(step)}: non-finite Jacobian diagonal at node "
                          f"{node[0]} ({lam[node]})", step=step)
    A = template.fill(c, lam)
    if trans == "T":
        A = A.T
    if fresh := template.lu is None or template.exact:
        _factor(template, c, lam, step)
    target = REFINE_RTOL * rnorm
    y, res, norm = np.zeros_like(rhs), rhs, rnorm
    while not norm <= target:
        y_new = y + template.lu.solve(res, trans=trans)
        res_new = rhs - A @ y_new
        norm_new = _norm(res_new)
        if norm_new <= max(STALL_RATIO * norm, target):
            y, res, norm = y_new, res_new, norm_new
            continue
        if norm_new < norm:
            y, norm = y_new, norm_new
        if norm <= ROUNDOFF * (template.norm() * _norm(y) + rnorm):
            break
        if fresh:
            if not np.isfinite(norm_new):
                raise SolverError(f"{_where(step)} returned non-finite values", step=step)
            raise SolverError(
                f"{_where(step)}: refinement stalled at relative residual "
                f"{norm / rnorm:.1e}",
                step=step,
            )
        _factor(template, c, lam, step)
        fresh, y, res, norm = True, np.zeros_like(rhs), rhs, rnorm
    n = ops.mesh.n_bulk
    return y[:n], y[n:]


# An overflow in a step (dt near the smallest double) shows as a
# non-finite residual or correction, which ends the step naming its cause.
@np.errstate(over="ignore", invalid="ignore")
def _chord_step(problem, winv, phi_n, mu_n, sources, lead=None):
    """Solve one implicit step for a stack of states by Newton on the block
    template: true Newton per column on an exact template, chord Newton on
    a shared factor elsewhere.

    ``phi_n`` and ``mu_n`` are (K, n) stacks of old states, one row per
    column, and ``sources`` the stack of gamma (M_bulk u + M_surf u_gamma);
    returns the (K, n) stacks (phi, mu) and each column's iterations.
    Newton starts from the old state, or, given the increment ``lead`` of
    [phi, mu] over the step, from the old state plus ``lead`` in each
    column where that phi stays inside the safeguarded interior
    (``INTERIOR_SAFEGUARD``).

    The iterate is the (K, 2n) stack y of rows [phi, mu], row j for column
    j.  An iteration makes one product with the template's step matrix,
    refilled without diag(lam) once per step and after each refactor, adds
    N(phi) at the mu rows, weights each column's residual norm by the
    inverse lumped weights ``winv``, and corrects the running columns.
    The residual is exact.  A stopped column's row takes no part in the
    product or the solve: its correction is zero, and its iterate stays as
    it stopped.  On an exact template (``BlockTemplate.exact``) each
    running column j is corrected by one factorization at lam[j] and one
    solve, so a column's iterates do not depend on the other columns of
    its stack.  Elsewhere the running columns are corrected by one solve
    with the template's live factor, which they share; it is reused
    across iterations and steps and rebuilt at most once per iteration,
    at the state of the first running column that the last correction
    left more than rho of its residual: ``CHORD_RHO`` after a step's
    first correction and on a CSC template, ``CHORD_RHO_BAND`` after the
    later corrections on a dense one, whose band factor costs about one
    iteration.

    A column stops when its residual is at most ``newton_tol``, or when a
    correction on a factor built at its own state fails to reduce a
    residual already within the round-off floor ``NEWTON_ROUNDOFF`` *
    (|| |A| |y| ||_w + || c ||_w) of evaluating A y + N(phi) - c; it then
    keeps the iterate that the correction failed to improve.  A stall
    above the floor rebuilds the shared factor as any slow iteration does.
    An error in a stack of more than one column names the column.
    """
    ops, template = problem.ops, problem.ops.block_template
    coeffs = problem.jacobian_coefficients
    n, dt, tol, K = ops.mesh.n_bulk, problem.grid.dt, problem.opts.newton_tol, len(phi_n)
    # R1 = (1/dt + gamma) M phi + K mu - c1 and R2 = (tau/dt) M phi + K phi
    # - M mu + N(phi) - c2, with the old state and the sources in c1, c2.
    Mphi_n = (ops.M_total @ phi_n.T).T
    c1 = Mphi_n / dt + sources
    c2 = (problem.physics.tau / dt) * Mphi_n - problem.explicit(phi_n, 0)
    c = np.concatenate([c1, c2], axis=1)
    y = np.concatenate([phi_n, mu_n], axis=1)
    if lead is not None:
        guess = y + lead
        if problem.interior is not None:
            out = (np.abs(guess[:, :n][:, problem.interior])
                   >= 1.0 - INTERIOR_SAFEGUARD).any(axis=1)
            guess[out] = y[out]
        y = guess
    # Per column, the iteration it stopped at (-1 while it runs) and its
    # previous residual; the running columns in order; and ``fresh``, the
    # columns just corrected on a factor built at their own state, whose
    # iterates before that correction ``kept`` holds.
    iters, prev, run, fresh = [-1] * K, [math.inf] * K, list(range(K)), []

    def fail(j, message, residual=None):
        return SolverError((f"column {j}: " if K > 1 else "") + message, residual=residual)

    def factor(j):
        # The live factor at column j's state in this iteration.
        try:
            _factor(template, coeffs, lam[j], None)
        except SolverError as err:
            raise fail(j, f"Newton iteration {it + 1}: {err}", res[j]) from err
        fresh.append(j)

    A = template.fill(coeffs)
    for it in range(NEWTON_MAX_ITER + 1):
        nodal, lam = problem.implicit(y[:, :n])
        r = _running(lambda v: (A @ v.T).T, y, run)
        r[:, n:] += nodal
        r -= c
        # One dot per column: (K, 1, 2n) @ (K, 2n, 1).
        res = [math.sqrt(v) for v in ((r * winv)[:, None] @ r[:, :, None]).ravel().tolist()]
        # Finite residuals are roots of doubles, below 1.4e154, so their sum
        # is finite exactly when each of them is.
        if not math.isfinite(sum(res)):
            j = next(j for j, v in enumerate(res) if not math.isfinite(v))
            raise fail(j, f"Newton iteration {it}: non-finite step residual ({res[j]})", res[j])
        for j in fresh:
            if tol < res[j] >= prev[j]:
                floor = NEWTON_ROUNDOFF * (_wnorm(abs(A) @ np.abs(kept[j]), winv)
                                           + _wnorm(c[j], winv))
                if prev[j] <= floor:
                    y[j], iters[j] = kept[j], it
        fresh = []
        for j in run:
            if res[j] <= tol:
                iters[j] = it
        if it in iters:
            run = [j for j in run if iters[j] < 0]
            if not run:
                return y[:, :n], y[:, n:], iters
        if it == NEWTON_MAX_ITER:
            raise fail(run[0], f"Newton did not converge in {NEWTON_MAX_ITER} iterations "
                       f"(last residual {res[run[0]]:.3e})", res[run[0]])
        if (bad := _nonfinite(_running(lambda v: v, lam, run))) is not None:
            j, node = bad
            raise fail(j, f"Newton iteration {it + 1}: {_where(None)}: non-finite "
                       f"Jacobian diagonal at node {node} ({lam[j, node]})", res[j])
        if template.exact:
            dy = np.zeros_like(r)
            for j in run:
                factor(j)
                dy[j] = template.lu.solve(-r[j])
        else:
            # The first running column left more than rho of its residual.
            rho = CHORD_RHO_BAND if template.dense and it >= 2 else CHORD_RHO
            slow = next((j for j in run if res[j] > rho * prev[j]), None)
            if slow is not None or template.lu is None:
                factor(run[0] if slow is None else slow)
            dy = _running(lambda v: template.lu.solve(-v.T).T, r, run)
        if fresh:
            kept, A = y.copy(), template.fill(coeffs)
        if (bad := _nonfinite(dy)) is not None:
            raise fail(bad[0], f"Newton iteration {it + 1}: {_where(None)} returned "
                       "non-finite values", res[bad[0]])
        prev = res
        if problem.interior is not None:
            for j, alpha in enumerate(_damping(problem.interior, y[:, :n], dy[:, :n], fail)):
                if alpha < 1.0:
                    dy[j] *= alpha
        y += dy
    raise AssertionError("unreachable")


def _running(f, v, run):
    """``f`` on the rows ``run`` of the stack ``v``, zero on the others,
    without copies while every row runs.  BLAS rounds a product or a solve
    on a narrower stack differently, so the running rows come out as from
    a stack of the running columns alone."""
    if len(run) == len(v):
        return f(v)
    out = np.zeros_like(v)
    out[run] = f(v[run])
    return out


def _wnorm(v, winv):
    return math.sqrt(v @ (v * winv[0]))


def _damping(mask, phi, dphi, fail):
    """Largest step fraction of each row, up to 1, that keeps the nodes of
    ``mask`` inside the safeguarded domain, as a list; raises
    ``fail(row, ...)`` when a row's iterate is pinned."""
    moving = mask & (dphi != 0.0)
    if not moving.any():
        return [1.0] * len(phi)
    limit = 1.0 - INTERIOR_SAFEGUARD
    frac = np.full(phi.shape, np.inf)
    np.divide(np.where(dphi > 0, limit, -limit) - phi, dphi, out=frac, where=moving)
    alphas = [0.995 * a if a < 1.0 else 1.0 for a in frac.min(axis=1).tolist()]
    for row, alpha in enumerate(alphas):
        if alpha <= 1e-12:
            node = int(frac[row].argmin())
            raise fail(row, f"iterate pinned at the potential domain boundary "
                       f"at node {node} (phi = {phi[row, node]:.6f})")
    return alphas


def initial_mu(problem: Problem, phi0: np.ndarray) -> np.ndarray:
    """Chemical potential at t = 0 from the second equation (no dynamics):
    M mu0 = K phi0 + N(phi0) + E(phi0), one solve with the mass factor.  A
    non-finite right-hand side or mu0 raises ``SolverError`` at step 0."""
    ops = problem.ops
    rhs = ops.K_total @ phi0 + problem.implicit(phi0)[0] + problem.explicit(phi0, 0)
    if not np.all(np.isfinite(rhs)):
        node = int(np.flatnonzero(~np.isfinite(rhs))[0])
        raise SolverError(f"initial chemical potential: non-finite right-hand side "
                          f"at node {node} ({rhs[node]})", step=0)
    mu0 = ops.mass_factor.solve(rhs)
    if not np.all(np.isfinite(mu0)):
        raise SolverError("initial chemical potential: the mass solve returned "
                          "non-finite values", step=0)
    return mu0


def require_mean_value(problem: Problem, phi0: PairField, M: float, what="") -> None:
    """Raise ValidationError when a constrained run (``Problem.interior``:
    a bounded potential without Yosida regularization) fails the
    mean-value condition for the mean m0 of phi0 and sources bounded by
    M: [-m0^- - rho, m0^+ + rho] must lie inside int D(beta_Gamma), with
    rho = M / gamma (at gamma = 0, rho = 0 if M = 0 and inf otherwise)."""
    if problem.interior is None:
        return
    m0 = float(problem.ops.mean(phi0.bulk, phi0.boundary))
    gamma = problem.physics.gamma
    if gamma > 0.0:
        rho = M / gamma
    else:
        rho = 0.0 if M == 0.0 else math.inf
    lo = -max(-m0, 0.0) - rho
    hi = max(m0, 0.0) + rho
    if lo <= -1.0 or hi >= 1.0:
        side, end = ("lower", lo) if lo <= -1.0 else ("upper", hi)
        raise ValidationError(
            f"mean-value condition fails{what}: {side} endpoint {end:g} "
            "not inside int D = (-1, 1)"
        )


def solve_many(problem: Problem, phi0: PairField, controls, start=None) -> list:
    """March the state system over the whole grid from ``phi0`` under each
    ``ControlPair`` of the list ``controls``; returns one trajectory per
    control, in order.

    Newton starts each step from the state it steps from.  Given a
    trajectory ``start`` on the same mesh and grid, such as the solve of a
    nearby control, step k + 1 starts from y_k + (G_{k+1} - G_k) instead,
    with y = [phi, mu] and G = [start.phi, start.mu], in each column where
    that phi stays inside the safeguarded interior; every start lands on
    the step's solution to within ``newton_tol``.

    Each control has slabs ``u`` of shape (N, n_bulk) and ``uG`` of shape
    (N, n_boundary); slab n acts on the step t_n -> t_{n+1}.  Each is
    validated as ``solve`` validates its one control, the mean-value
    condition included when the potential domain is bounded.  The states
    march together, one column per control: every step is one Newton on
    their stack, where a stopped column keeps its row.  Off an exact
    template the stack shares the template's live factor, so a column
    agrees with a separate ``solve`` to within the Newton tolerance, not
    bitwise; on an exact one each column is factored at its own state.  A
    failure names its step, and its column when there are several.
    """
    mesh, ops, grid = problem.mesh, problem.ops, problem.grid
    if phi0.bulk.shape != (mesh.n_bulk,):
        raise ValidationError(
            f"initial datum has shape {phi0.bulk.shape}, mesh has {mesh.n_bulk} nodes"
        )
    K, n = len(controls), mesh.n_bulk
    for j, u in enumerate(controls):
        u.check(mesh, grid, f"column {j} control" if K > 1 else "control")
    if problem.interior is not None:
        if np.any(np.abs(phi0.bulk[problem.interior]) >= 1.0):
            raise ValidationError("initial datum must be strictly interior")
        for j, u in enumerate(controls):
            require_mean_value(problem, phi0, u.sup_norm(), f" in column {j}" if K > 1 else "")
    if start is not None and start.phi.shape != (grid.N + 1, n):
        raise ValidationError(f"start trajectory has shape {start.phi.shape}, "
                              f"expected ({grid.N + 1}, {n})")
    if not controls:
        return []

    phi = np.empty((K, grid.N + 1, n))
    mu = np.empty((K, grid.N + 1, n))
    iters = np.zeros((K, grid.N), dtype=int)
    phi[:, 0] = phi0.bulk
    mu[:, 0] = initial_mu(problem, phi0.bulk)

    # Slab k of every column: (N, K, n).
    sources = problem.physics.gamma * np.stack([ops.mass(u.u, u.uG) for u in controls], axis=1)
    # Inverse lumped weights of the mass-weighted residual norm.
    winv = np.tile(1.0 / ops.lumped_total, (1, 2))
    # The start's increments over each step: (N, 2n) rows [dphi, dmu].
    leads = [None] * grid.N if start is None else np.diff(np.hstack([start.phi, start.mu]), axis=0)
    for k in range(grid.N):
        try:
            phi[:, k + 1], mu[:, k + 1], iters[:, k] = _chord_step(
                problem, winv, phi[:, k], mu[:, k], sources[k], leads[k])
        except SolverError as err:
            raise SolverError(
                f"step {k + 1}/{grid.N} failed: {err}",
                step=k + 1,
                residual=err.residual,
            ) from err
    return [StateTrajectory(mesh, grid, phi[j], mu[j], iters[j]) for j in range(K)]


def solve(problem: Problem, phi0: PairField, controls: ControlPair,
          start=None) -> StateTrajectory:
    """March the state system over the whole grid under one ``ControlPair``
    with slabs ``u`` of shape (N, n_bulk) and ``uG`` of shape (N,
    n_boundary); slab n acts on the step t_n -> t_{n+1}.  Validates the
    mean-value condition before starting when the potential domain is
    bounded.  It is ``solve_many`` on one control, from the trajectory
    ``start`` when given.
    """
    return solve_many(problem, phi0, [controls], start)[0]


# ---------------------------------------------------------------------------
# Exactly checkable diagnostics
# ---------------------------------------------------------------------------

def mean_ode_residual(traj: StateTrajectory, controls, ops, gamma) -> np.ndarray:
    """Per-step residual of the discrete mean dynamics.

    r_n = (m_{n+1} - m_n)/dt + gamma m_{n+1} - gamma omega_{n+1}; vanishes
    to Newton tolerance because it is R1 tested with the constant pair.
    """
    m = ops.mean(traj.phi, traj.phi[:, traj.mesh.trace_map])
    omega = ops.mean(controls.u, controls.uG)
    return np.diff(m) / traj.grid.dt + gamma * m[1:] - gamma * omega


def exact_mean(m0: float, gamma: float, omega_slabs, grid: TimeGrid) -> np.ndarray:
    """Closed-form mean m(t_j) at the N + 1 grid times for piecewise-constant
    omega.

    Solves m' + gamma m = gamma omega exactly over each slab:
    m(t_{j+1}) = m(t_j) + (1 - e^{-gamma dt}) (omega_j - m(t_j)), a form in
    which a rounded e^{-gamma dt} does not compound.
    """
    omega_slabs = np.asarray(omega_slabs, dtype=float)
    if omega_slabs.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} slab values, got {omega_slabs.shape}")
    gain = -math.expm1(-gamma * grid.dt)
    return np.fromiter(
        accumulate(omega_slabs.tolist(), lambda m, w: m + gain * (w - m), initial=m0),
        float, grid.N + 1)


def energy(problem: Problem, phi):
    """Free energy of a conforming state given by its bulk values, one row
    or each row of a stack: gradient seminorm plus the lumped integral of
    the run's potential, Yosida-regularized when the run is."""
    potential = problem.potential(phi).sum(axis=-1)
    return 0.5 * row_inner(problem.ops.K_total, phi, phi) + potential


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


# ---------------------------------------------------------------------------
# Discrete trajectory norms (conforming bulk-indexed time series)
# ---------------------------------------------------------------------------

def traj_norm_L2H(ops, grid: TimeGrid, Z) -> float:
    """Right-endpoint-in-time L2 norm of a conforming trajectory array."""
    return float(np.sqrt(grid.dt * row_inner(ops.M_total, Z[1:], Z[1:]).sum()))


def traj_norm_Y(ops, grid: TimeGrid, Z) -> float:
    """Discrete H1-in-time / L-infinity-in-space-energy intersection norm:
    the H1(0,T;H) part plus the max over time nodes of the V norm."""
    dZ = np.diff(Z, axis=0) / grid.dt
    rate = grid.dt * row_inner(ops.M_total, dZ, dZ).sum()
    h1h = np.sqrt(traj_norm_L2H(ops, grid, Z) ** 2 + rate)
    return float(h1h + np.sqrt(row_inner(ops.M_total + ops.K_total, Z, Z).max()))
