"""Vectorized slab and trajectory sums against their per-step loop forms.

The loops below are the reference implementations the vectorized code
replaced.  Sums now accumulate in another order, so results agree to a
relative 1e-12 (float64); the reduced gradient does the same arithmetic
elementwise and must agree exactly.

The nodal scheme terms are checked the same way: the fused evaluations
(one pass per state for a term and its derivative, one resolvent per
side) and the energy of the run's potential against the per-order
formulas, and the compacted resolvent against the full-array safeguarded
Newton loop, seeded per element with the closed-form root of a cubic
beta.  The forward step, one product with
the block template per residual, is checked against the node-ordered
chord Newton loop of two products per residual it replaced, and its
stack of one column bitwise against the one-state loop the stacked step
replaced; the regular potential's products against its ``np.power``
forms.  The one step matrix, refilled
on its lambda diagonal alone while the coefficients hold, is checked
against the template fill that rewrote every entry on each call and the
lambda-free copy chord Newton held of it, on both storages of the
template, and the two storages against each other.  The series file's
closed-form mean, one recurrence step per slab, is checked against the
slab-by-slab quadrature of the variation-of-constants formula.
"""

import functools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from cho import forward, potentials, spaces
from cho.adjoint import adjoint_solve, reduced_gradient
from cho.control import (
    BoxBounds,
    ControlPair,
    CostSpec,
    control_inner,
    cost,
    cost_directional,
    random_direction,
    validate_Uad,
)
from cho.forward import (
    Physics,
    Problem,
    SolverOptions,
    TimeGrid,
    mean_ode_residual,
    solve,
    traj_norm_L2H,
    traj_norm_Y,
)
from cho.config import PRESETS, RunConfig, preset_config
from cho.mesh import build_interval, build_rectangle
from cho.output import write_series_csv
from cho.potentials import (
    RESOLVENT_RTOL,
    PotentialPair,
    custom_potential,
    logarithmic_potential,
    regular_potential,
    resolvent,
    yosida_hat,
)
from cho.sensitivity import linearized_solve
from cho.spaces import BandLU, BlockTemplate, CoupledOperators, PairField

from conftest import cosine_ic, make_problem, unchecked_custom
from test_forward import STACKS

RTOL = 1e-12
SPEC = CostSpec(alphas=(1.0, 0.5, 1.0, 0.5, 0.2, 0.2), phiQ=0.2, phiS=0.1, phiO=0.2, phiG=0.1)


def loop_control_inner(a, b, ops, dt):
    total = 0.0
    for j in range(a.u.shape[0]):
        total += dt * float(a.u[j] @ (ops.M_bulk @ b.u[j]))
        total += dt * float(a.uG[j] @ (ops.M_gamma @ b.uG[j]))
    return total


def loop_target(target, n):
    """Target at time level n: row n of a table, else the scalar or row itself."""
    return target[n] if np.ndim(target) == 2 else target


def loop_cost(cost_spec, traj, u, ops):
    grid = traj.grid
    a1, a2, a3, a4, a5, a6 = cost_spec.alphas
    dt, tm = grid.dt, traj.mesh.trace_map
    J = 0.0
    for n in range(1, grid.N + 1):
        d = traj.phi[n] - loop_target(cost_spec.phiQ, n)
        dg = traj.phi[n][tm] - loop_target(cost_spec.phiS, n)
        J += 0.5 * dt * (a1 * float(d @ (ops.M_bulk @ d)) + a2 * float(dg @ (ops.M_gamma @ dg)))
    d = traj.phi[grid.N] - cost_spec.phiO
    dg = traj.phi[grid.N][tm] - cost_spec.phiG
    J += 0.5 * (a3 * float(d @ (ops.M_bulk @ d)) + a4 * float(dg @ (ops.M_gamma @ dg)))
    for j in range(grid.N):
        J += 0.5 * dt * (a5 * float(u.u[j] @ (ops.M_bulk @ u.u[j]))
                         + a6 * float(u.uG[j] @ (ops.M_gamma @ u.uG[j])))
    return J


def loop_cost_directional(cost_spec, problem, base, psi, u, h):
    ops, grid = problem.ops, problem.grid
    a1, a2, a3, a4, a5, a6 = cost_spec.alphas
    dt, tm = grid.dt, problem.mesh.trace_map
    dJ = 0.0
    for n in range(1, grid.N + 1):
        d = base.phi[n] - loop_target(cost_spec.phiQ, n)
        dg = base.phi[n][tm] - loop_target(cost_spec.phiS, n)
        dJ += dt * (a1 * float(d @ (ops.M_bulk @ psi[n]))
                    + a2 * float(dg @ (ops.M_gamma @ psi[n][tm])))
    d = base.phi[grid.N] - cost_spec.phiO
    dg = base.phi[grid.N][tm] - cost_spec.phiG
    dJ += (a3 * float(d @ (ops.M_bulk @ psi[grid.N]))
           + a4 * float(dg @ (ops.M_gamma @ psi[grid.N][tm])))
    for j in range(grid.N):
        dJ += dt * (a5 * float(u.u[j] @ (ops.M_bulk @ h.u[j]))
                    + a6 * float(u.uG[j] @ (ops.M_gamma @ h.uG[j])))
    return dJ


def loop_h1_norms(pair, grid, ops):
    dt = grid.dt
    h1u = h1g = 0.0
    for j in range(1, pair.u.shape[0]):
        du = (pair.u[j] - pair.u[j - 1]) / dt
        dg = (pair.uG[j] - pair.uG[j - 1]) / dt
        h1u += dt * float(du @ (ops.M_bulk @ du))
        h1g += dt * float(dg @ (ops.M_gamma @ dg))
    return np.sqrt(h1u), np.sqrt(h1g)


def loop_mean(ops, z, z_G):
    """Extended mean of one bulk/boundary pair, written out."""
    return float(ops.lumped_bulk @ z + ops.lumped_gamma @ z_G) / ops.measure


def loop_energy(problem, phi):
    """Free energy of one conforming state, written out: the potential is
    F, or under Yosida regularization the Moreau envelope of beta_hat plus
    pi_hat."""
    ops, pair, eps = problem.ops, problem.pair, problem.opts.eps_yosida

    def potential(spec, r):
        if eps:
            return yosida_hat(spec, eps, r) + spec.perturbation[0](r)
        return spec.F(r)

    tr = phi[ops.mesh.trace_map]
    return (0.5 * float(phi @ (ops.K_total @ phi))
            + float(ops.lumped_bulk @ potential(pair.bulk, phi))
            + float(ops.lumped_gamma @ potential(pair.boundary, tr)))


def loop_mean_ode_residual(traj, controls, ops, gamma):
    N, tm = traj.grid.N, traj.mesh.trace_map
    m = np.array([loop_mean(ops, traj.phi[k], traj.phi[k][tm]) for k in range(N + 1)])
    omega = np.array([loop_mean(ops, controls.u[k], controls.uG[k]) for k in range(N)])
    return np.diff(m) / traj.grid.dt + gamma * m[1:] - gamma * omega


def loop_reduced_gradient(problem, u, adj, cost_spec):
    gamma, (a5, a6) = problem.physics.gamma, cost_spec.alphas[4:]
    gu, gg = np.empty_like(u.u), np.empty_like(u.uG)
    for j in range(problem.grid.N):
        gu[j] = gamma * adj.p[j] + a5 * u.u[j]
        gg[j] = gamma * adj.p[j][problem.mesh.trace_map] + a6 * u.uG[j]
    return gu, gg


def loop_norm_sq(M, v):
    return float(v @ (M @ v))


def loop_traj_norm_L2H(ops, grid, Z):
    return np.sqrt(sum(grid.dt * loop_norm_sq(ops.M_total, Z[n]) for n in range(1, grid.N + 1)))


def loop_traj_norm_Y(ops, grid, Z):
    rate = sum(grid.dt * loop_norm_sq(ops.M_total, (Z[n] - Z[n - 1]) / grid.dt)
               for n in range(1, grid.N + 1))
    h1h = np.sqrt(loop_traj_norm_L2H(ops, grid, Z) ** 2 + rate)
    linfv = max(loop_norm_sq(ops.M_total, Z[n]) + loop_norm_sq(ops.K_total, Z[n])
                for n in range(grid.N + 1))
    return h1h + np.sqrt(linfv)


def loop_exact_mean(m0, gamma, omega_slabs, grid, t):
    """Closed-form mean m(t) at any t in [0, T]: the variation-of-constants
    formula m0 e^{-gamma t} + gamma int_0^t e^{-gamma (t-s)} omega(s) ds,
    integrated slab by slab."""
    value = m0 * np.exp(-gamma * t)
    edges = grid.times()
    for j in range(grid.N):
        a, b = edges[j], min(edges[j + 1], t)
        if b <= a:
            break
        value += omega_slabs[j] * (np.exp(-gamma * (t - b)) - np.exp(-gamma * (t - a)))
    return float(value)


SERIES_HEADER = ("t (time),mean (1),exact_mean (1),energy (energy),"
                 "phi_min (1),phi_max (1),newton_iters (1)")


def loop_series_rows(problem, traj, controls):
    ops, grid = problem.ops, problem.grid
    gamma, tm = problem.physics.gamma, traj.mesh.trace_map
    omega = np.array(
        [loop_mean(ops, controls.u[j], controls.uG[j]) for j in range(grid.N)]
    )
    m0 = loop_mean(ops, traj.phi[0], traj.phi[0][tm])
    times = grid.times()
    rows = []
    for n in range(grid.N + 1):
        rows.append((
            times[n],
            loop_mean(ops, traj.phi[n], traj.phi[n][tm]),
            loop_exact_mean(m0, gamma, omega, grid, times[n]),
            loop_energy(problem, traj.phi[n]),
            float(traj.phi[n].min()),
            float(traj.phi[n].max()),
            int(traj.newton_iters[n - 1]) if n > 0 else 0,
        ))
    return np.array(rows)


def _problem_2d():
    mesh = build_rectangle(4, 3, 1.0, 0.8)
    return Problem.create(mesh, PotentialPair.same(regular_potential()),
                          SolverOptions(newton_tol=1e-12), Physics(1.0, 0.7),
                          TimeGrid(T=0.3, N=6))


@pytest.fixture(scope="module", params=["1d", "2d"])
def bundle(request):
    problem = make_problem(newton_tol=1e-12) if request.param == "1d" else _problem_2d()
    mesh, grid = problem.mesh, problem.grid
    rng = np.random.default_rng(4)
    u = ControlPair(0.1 + 0.05 * rng.uniform(-1, 1, (grid.N, mesh.n_bulk)),
                    0.05 + 0.05 * rng.uniform(-1, 1, (grid.N, mesh.n_boundary)))
    h = random_direction(mesh, grid, rng)
    traj = solve(problem, cosine_ic(mesh, 0.3), u)
    return problem, u, h, traj


def test_control_inner(bundle):
    problem, u, h, _ = bundle
    expected = loop_control_inner(u, h, problem.ops, problem.grid.dt)
    assert control_inner(u, h, problem.ops, problem.grid.dt) == pytest.approx(expected, rel=RTOL)


def test_cost(bundle):
    problem, u, _, traj = bundle
    assert cost(SPEC, traj, u, problem.ops) == pytest.approx(
        loop_cost(SPEC, traj, u, problem.ops), rel=RTOL)


def test_cost_directional(bundle):
    problem, u, h, traj = bundle
    psi = linearized_solve(problem, traj, h).psi
    assert cost_directional(SPEC, problem, traj, psi, u, h) == pytest.approx(
        loop_cost_directional(SPEC, problem, traj, psi, u, h), rel=RTOL)


@pytest.mark.parametrize("running", ["row", "table"])
def test_cost_broadcasts_target_arrays(bundle, running):
    # Running targets as one row for every time level or as an (N+1)-row
    # table; terminal targets as one row.
    problem, u, h, traj = bundle
    n, nb, levels = problem.mesh.n_bulk, problem.mesh.n_boundary, problem.grid.N + 1
    rows = () if running == "row" else (levels,)
    rng = np.random.default_rng(6)
    spec = CostSpec(alphas=SPEC.alphas, phiQ=rng.uniform(0, 0.3, (*rows, n)),
                    phiS=rng.uniform(0, 0.3, (*rows, nb)), phiO=rng.uniform(0, 0.3, n),
                    phiG=rng.uniform(0, 0.3, nb))
    psi = linearized_solve(problem, traj, h).psi
    assert cost(spec, traj, u, problem.ops) == pytest.approx(
        loop_cost(spec, traj, u, problem.ops), rel=RTOL)
    assert cost_directional(spec, problem, traj, psi, u, h) == pytest.approx(
        loop_cost_directional(spec, problem, traj, psi, u, h), rel=RTOL)


def test_boundary_weight_mutant_fails_the_loops(bundle, monkeypatch):
    # Scaling the shared boundary term changes the cost and its derivative
    # alike, so finite differences and the duality gap cannot see it; the
    # written-out loops do.
    problem, u, h, traj = bundle
    ops, dt = problem.ops, problem.grid.dt
    psi = linearized_solve(problem, traj, h).psi
    scale = 1.0 + 1e-6
    inner, mass = CoupledOperators.inner, CoupledOperators.mass
    monkeypatch.setattr(CoupledOperators, "inner",
                        lambda self, z, z_G, w, w_G: inner(self, z, scale * z_G, w, w_G))
    monkeypatch.setattr(CoupledOperators, "mass",
                        lambda self, z, z_G: mass(self, z, scale * z_G))
    assert cost(SPEC, traj, u, ops) != pytest.approx(
        loop_cost(SPEC, traj, u, ops), rel=RTOL)
    assert cost_directional(SPEC, problem, traj, psi, u, h) != pytest.approx(
        loop_cost_directional(SPEC, problem, traj, psi, u, h), rel=RTOL)
    assert control_inner(u, h, ops, dt) != pytest.approx(
        loop_control_inner(u, h, ops, dt), rel=RTOL)


def test_validate_Uad_time_derivative_norms(bundle):
    problem, u, _, _ = bundle
    report = validate_Uad(u, BoxBounds(), problem.grid, problem.ops)
    expected = loop_h1_norms(u, problem.grid, problem.ops)
    assert (report.h1_norm_u, report.h1_norm_uG) == pytest.approx(expected, rel=RTOL)


def test_mean_ode_residual(bundle):
    problem, u, _, traj = bundle
    gamma = problem.physics.gamma
    got = mean_ode_residual(traj, u, problem.ops, gamma)
    expected = loop_mean_ode_residual(traj, u, problem.ops, gamma)
    assert np.allclose(got, expected, rtol=0.0, atol=RTOL * np.abs(traj.phi).max() / problem.grid.dt)


def test_reduced_gradient_is_elementwise_identical(bundle):
    problem, u, _, traj = bundle
    adj = adjoint_solve(problem, traj, SPEC)
    g = reduced_gradient(problem, u, adj, SPEC)
    gu, gg = loop_reduced_gradient(problem, u, adj, SPEC)
    assert np.array_equal(g.u, gu) and np.array_equal(g.uG, gg)


def test_trajectory_norms(bundle):
    problem, _, _, traj = bundle
    ops, grid = problem.ops, problem.grid
    assert traj_norm_L2H(ops, grid, traj.phi) == pytest.approx(
        loop_traj_norm_L2H(ops, grid, traj.phi), rel=RTOL)
    assert traj_norm_Y(ops, grid, traj.phi) == pytest.approx(
        loop_traj_norm_Y(ops, grid, traj.phi), rel=RTOL)


def test_series_csv(bundle, tmp_path):
    problem, u, _, traj = bundle
    path = write_series_csv(tmp_path / "series.csv", problem, traj, u)
    with open(path, encoding="utf-8") as fh:
        assert fh.readline().rstrip("\n") == SERIES_HEADER
    got = np.loadtxt(path, delimiter=",", skiprows=1)
    expected = loop_series_rows(problem, traj, u)
    assert got.shape == expected.shape == (problem.grid.N + 1, 7)
    exact = [0, 4, 5, 6]    # times, range and Newton counts are copied, not summed
    assert np.array_equal(got[:, exact], expected[:, exact])
    for col in (1, 2, 3):
        scale = np.abs(expected[:, col]).max()
        assert np.allclose(got[:, col], expected[:, col], rtol=0.0, atol=RTOL * scale)


@pytest.mark.parametrize("gamma, N", [(1.0, 8), (0.3, 500), (40.0, 500)])
def test_series_exact_mean_is_the_closed_form(gamma, N, tmp_path):
    # forward.exact_mean's one-slab recurrence against the slab-by-slab
    # quadrature at every grid time, for omega that changes from slab to
    # slab.  Only the initial state enters the column, so every row of the
    # trajectory holds it.
    problem = make_problem(n_cells=6, T=0.5, N=N, gamma=gamma)
    mesh, grid = problem.mesh, problem.grid
    rng = np.random.default_rng(6)
    u = ControlPair(rng.uniform(0.2, 0.6, (N, 1)) + np.zeros((N, mesh.n_bulk)),
                    rng.uniform(0.2, 0.6, (N, mesh.n_boundary)))
    phi = np.tile(0.3 + 0.1 * np.cos(np.pi * mesh.bulk_nodes[:, 0]), (N + 1, 1))
    traj = forward.StateTrajectory(mesh, grid, phi, phi, np.zeros(N, dtype=int))
    got = np.loadtxt(write_series_csv(tmp_path / "series.csv", problem, traj, u),
                     delimiter=",", skiprows=1)[:, 2]
    ops = problem.ops
    omega, m0 = ops.mean(u.u, u.uG), ops.mean(phi[0], phi[0, mesh.trace_map])
    want = np.array([loop_exact_mean(m0, gamma, omega, grid, t) for t in grid.times()])
    assert np.abs(np.diff(omega)).min() > 0.0
    assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want))


# ---------------------------------------------------------------------------
# Nodal scheme terms and the Yosida resolvent
# ---------------------------------------------------------------------------

def loop_resolvent(spec, eps, r):
    """Safeguarded Newton over every node with ``np.where``, stopping only on
    a small correction strictly inside the bracket.  Returns J and the mask
    of nodes the compacted resolvent must reproduce exactly: those that
    converged before the 200-iteration cap without a small correction ever
    landing on an end of their bracket (the compacted loop stops there)."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    lo, hi = np.minimum(r, 0.0), np.maximum(r, 0.0)
    if spec.bounded:
        lo = np.maximum(lo, np.nextafter(-1.0, 0.0))
        hi = np.minimum(hi, np.nextafter(1.0, 0.0))

    def g(J):
        return J + eps * spec._beta(J) - r

    glo, ghi = g(lo), g(hi)
    J = np.where(glo >= 0.0, lo, np.where(ghi <= 0.0, hi, 0.5 * (lo + hi)))
    active = (glo < 0.0) & (ghi > 0.0)
    landed = np.zeros_like(active)
    for _ in range(200):
        if not np.any(active):
            break
        gJ = np.where(active, g(J), 0.0)
        lo = np.where(active & (gJ < 0.0), J, lo)
        hi = np.where(active & (gJ > 0.0), J, hi)
        dg = 1.0 + eps * spec._dbeta(np.where(active, J, 0.0))
        step = np.where(active, -gJ / dg, 0.0)
        J_newton = J + step
        inside = (J_newton > lo) & (J_newton < hi)
        small = np.abs(step) <= RESOLVENT_RTOL * np.maximum(1.0, np.abs(J))
        landed |= active & small & ~inside & (J_newton >= lo) & (J_newton <= hi)
        converged = active & inside & small
        J = np.where(active, np.where(inside, J_newton, 0.5 * (lo + hi)), J)
        active = active & ~converged
    return J, ~active & ~landed


def seeded_loop_resolvent(spec, eps, r):
    """The resolvent of a cubic beta: the closed-form root, corrected once
    per element in Python floats and kept where the correction meets the
    loop's stopping rule inside the bracket [min(r, 0), max(r, 0)]; every
    other node, and every node of any other potential, from
    ``loop_resolvent``.  Returns J and the mask of exact nodes."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    J, exact = np.empty_like(r), np.ones(r.shape, bool)
    seed = potentials._cubic_root(spec.cubic, eps, r) if spec.cubic else None
    rest = []
    for i, ri in enumerate(r.tolist()):
        if seed is not None:
            x = float(seed[i])
            step = (x + eps * spec._beta(x) - ri) / (1.0 + eps * spec._dbeta(x))
            if (abs(step) <= RESOLVENT_RTOL * max(1.0, abs(x))
                    and min(ri, 0.0) <= x - step <= max(ri, 0.0)):
                J[i] = x - step
                continue
        rest.append(i)
    J[rest], exact[rest] = loop_resolvent(spec, eps, r[rest])
    return J, exact


def loop_yosida_beta(spec, eps, r):
    return (r - loop_resolvent(spec, eps, r)[0]) / eps


def loop_yosida_dbeta(spec, eps, r):
    dB = spec._dbeta(loop_resolvent(spec, eps, r)[0])
    return dB / (1.0 + eps * dB)


def loop_nodal(pair, opts, ops, phi):
    """Lumped nodal terms (N, N', E, E') of the implicit/explicit split at
    one state, from the per-order formulas.  Also returns the nodes whose
    resolvent the compacted loop must reproduce exactly."""
    eps = opts.eps_yosida
    out, exact = [], []
    for spec, r in ((pair.bulk, phi), (pair.boundary, phi[ops.mesh.trace_map])):
        if opts.scheme == "fully-implicit":
            if eps:
                parts = (loop_yosida_beta(spec, eps, r) + spec.pi(r),
                         loop_yosida_dbeta(spec, eps, r) + spec.dpi(r))
            else:
                parts = (spec.F(r, 1), spec.F(r, 2))
            parts += (np.zeros_like(r), np.zeros_like(r))
        else:
            if eps:
                parts = (loop_yosida_beta(spec, eps, r), loop_yosida_dbeta(spec, eps, r))
            else:
                parts = (spec.beta(r), spec.dbeta(r))
            parts += (spec.pi(r), spec.dpi(r))
        out.append(parts)
        exact.append(loop_resolvent(spec, eps, r)[1] if eps else np.ones(r.shape, bool))
    terms = []
    for bulk, gamma in zip(*out):
        total = ops.lumped_bulk * bulk
        for i, node in enumerate(ops.mesh.trace_map):
            total[node] += ops.lumped_gamma[i] * gamma[i]
        terms.append(total)
    mask = exact[0].copy()
    for i, node in enumerate(ops.mesh.trace_map):
        mask[node] &= exact[1][i]
    return terms, mask


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("scheme", ["fully-implicit", "convex-splitting"])
@pytest.mark.parametrize("mesh", [build_interval(9, 1.0), build_rectangle(4, 3, 1.0, 0.8)],
                         ids=["interval", "rectangle"])
@pytest.mark.parametrize("pair", [
    PotentialPair(bulk=regular_potential(), boundary=logarithmic_potential(2.0)),
    PotentialPair.same(logarithmic_potential(2.0)),
], ids=["bulk-boundary", "same"])
def test_fused_nodal_terms(pair, mesh, scheme, eps):
    # With a regular bulk and a logarithmic boundary potential the trace
    # scatter adds a different term at the boundary nodes; with one
    # potential the trace reuses the bulk values.
    problem = Problem.create(mesh, pair, SolverOptions(scheme=scheme, eps_yosida=eps),
                             Physics(1.0, 1.0), TimeGrid(0.1, 4))
    ops = problem.ops
    # With eps > 0 the states leave the logarithmic domain (-1, 1).
    spread = 1.5 if eps else 0.95
    stack = np.random.default_rng(8).uniform(-spread, spread, (5, mesh.n_bulk))
    rows = [loop_nodal(pair, problem.opts, ops, row) for row in stack]
    expected = np.array([terms for terms, _ in rows]).transpose(1, 0, 2)
    exact = np.array([mask for _, mask in rows])
    assert exact.mean() > 0.9
    for phi, ref, mask in ((stack, expected, exact), (stack[2], expected[:, 2], exact[2])):
        got_terms = (*problem.implicit(phi), problem.explicit(phi, 0), problem.explicit(phi, 1),
                     *problem.jacobian(phi))
        for which, (got, want) in enumerate(zip(got_terms, [*ref, ref[1], ref[3]])):
            scale = np.abs(want).max()
            assert np.abs(got - want)[mask].max() <= 1e-14 * scale, which
            assert np.allclose(got, want, rtol=1e-10, atol=0.0), which


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("scheme", ["fully-implicit", "convex-splitting"])
@pytest.mark.parametrize("mesh", [build_interval(9, 1.0), build_rectangle(4, 3, 1.0, 0.8)],
                         ids=["interval", "rectangle"])
@pytest.mark.parametrize("pair", [
    PotentialPair(bulk=regular_potential(), boundary=logarithmic_potential(2.0)),
    PotentialPair.same(logarithmic_potential(2.0)),
], ids=["bulk-boundary", "same"])
def test_energy_of_the_runs_potential(pair, mesh, scheme, eps):
    # The energy of a stack of states, whatever the split, against the
    # written-out sum per state; under Yosida the states leave the
    # logarithmic domain (-1, 1) and the envelope stays finite there.
    problem = Problem.create(mesh, pair, SolverOptions(scheme=scheme, eps_yosida=eps),
                             Physics(1.0, 1.0), TimeGrid(0.1, 4))
    spread = 1.5 if eps else 0.95
    stack = np.random.default_rng(9).uniform(-spread, spread, (5, mesh.n_bulk))
    got = forward.energy(problem, stack)
    want = np.array([loop_energy(problem, row) for row in stack])
    assert np.allclose(got, want, rtol=0.0, atol=RTOL * np.abs(want).max())


# The potentials of the resolvent tests: two with a cubic beta in closed
# form, one with a quadratic beta, the logarithmic one, a cubic beta
# increasing on [-10, 10] alone (p <= 0 for eps >= 1e-2) and beta = r^5.
# The quadratic and the first cubic are not monotone on all of R, so they
# are built without the check of ``custom_potential``.
RESOLVENT_SPECS = {
    "regular": regular_potential(),
    "cubic": custom_potential([0, 0, 0.5, 1 / 6, 0.5], [0]),
    "quadratic": unchecked_custom([0, 0, 15.0, 0.1]),
    "logarithmic": logarithmic_potential(2.0),
    "cubic-p<=0": unchecked_custom([0, 0, 550.0, -20.0, 0.25]),
    "quintic": custom_potential([0, 0, 0, 0, 0, 0, 1 / 6], [0]),
}


@pytest.mark.parametrize("spec", RESOLVENT_SPECS.values(), ids=RESOLVENT_SPECS.keys())
@pytest.mark.parametrize("eps", [0.5, 0.1, 1e-2, 1e-3])
def test_compacted_resolvent(spec, eps):
    # Equal where the closed form was kept or the full-array loop converged
    # without a small correction landing on a bracket end; elsewhere within
    # the tolerance of the unseeded loop.  Rows, a stack and a strided view
    # give the same values.
    rs = np.random.default_rng(2).uniform(-3.0, 3.0, (4, 81))
    rs[0, :3] = 0.0
    expected, exact = seeded_loop_resolvent(spec, eps, rs.ravel())
    got = resolvent(spec, eps, rs[:, ::-1].T).T[:, ::-1].ravel()
    assert np.array_equal(got[exact], expected[exact])
    assert np.allclose(got, loop_resolvent(spec, eps, rs.ravel())[0],
                       rtol=RESOLVENT_RTOL, atol=0.0)
    rows = np.concatenate([resolvent(spec, eps, row) for row in rs])
    assert np.array_equal(rows, got)


# ---------------------------------------------------------------------------
# The regular potential's derivatives without np.power
# ---------------------------------------------------------------------------

def test_regular_potential_is_pow_free():
    # F' = (r^2 - 1) r, beta = r^3 and beta_hat = r^4 / 4 as products
    # against the np.power forms, relative to the magnitude of their terms.
    # The sample keeps every power finite and normal, or exactly zero.
    rng = np.random.default_rng(5)
    tiny = 10.0 ** -rng.uniform(8.0, 70.0, 40)
    large = 10.0 ** rng.uniform(1.0, 70.0, 40)
    near_one = 1.0 + rng.uniform(-1e-6, 1e-6, 40)
    r = np.concatenate([[0.0, -0.0, 1.0, -1.0, 1e-300, -1e-300], rng.uniform(-3, 3, 200),
                        tiny, large, near_one])
    r = np.concatenate([r, -r])
    spec = regular_potential()
    for got, want, scale in (
        (spec.F(r, 1), r**3 - r, np.abs(r) ** 3 + np.abs(r)),
        (spec.beta(r), r**3, np.abs(r) ** 3),
        (spec.convex[0](r), 0.25 * r**4, 0.25 * r**4),
        (spec.convex[1](r), r**3, np.abs(r) ** 3),
    ):
        assert np.all(np.abs(got - want) <= 4e-16 * scale)


# ---------------------------------------------------------------------------
# The chord Newton step against its node-ordered form
# ---------------------------------------------------------------------------

def chord_rho(template, it):
    """The refactor ratio at iteration ``it``: ``CHORD_RHO_BAND`` on a
    dense template from a step's second correction on, ``CHORD_RHO``
    elsewhere."""
    return forward.CHORD_RHO_BAND if template.dense and it >= 2 else forward.CHORD_RHO


def refactor_if_needed(template, c, lam, res, prev, it):
    """The one-state loops' rule: rebuild the factor at every iteration on
    an exact template; otherwise when there is none, when it was built for
    other coefficients, or when the residual fell by less than
    ``chord_rho``."""
    if (template.exact or template.lu is None or template.coeffs != tuple(c)
            or res > chord_rho(template, it) * prev):
        template.factor(c, lam)


def loop_step(problem, phi_n, mu_n, u, ug):
    """One implicit step in node order, two sparse products per residual:
    the chord Newton loop the one-product step replaced."""
    ops, opts, dt = problem.ops, problem.opts, problem.grid.dt
    Mbar, Kbar = ops.M_total, ops.K_total
    gamma, tau = problem.physics.gamma, problem.physics.tau
    mask = problem.interior
    limit = 1.0 - forward.INTERIOR_SAFEGUARD
    w = ops.lumped_total
    Mphi_n = Mbar @ phi_n
    c1 = Mphi_n / dt + gamma * ops.mass(u, ug)
    c2 = (tau / dt) * Mphi_n - problem.explicit(phi_n, 0)
    coeffs = problem.jacobian_coefficients
    X = np.column_stack([phi_n, mu_n])
    prev = np.inf
    for it in range(forward.NEWTON_MAX_ITER + 1):
        phi = X[:, 0]
        m, k = Mbar @ X, Kbar @ X
        nodal, lam = problem.implicit(phi)
        r1 = coeffs[0] * m[:, 0] + k[:, 1] - c1
        r2 = coeffs[1] * m[:, 0] + k[:, 0] - m[:, 1] + nodal - c2
        res = float(np.sqrt(r1 @ (r1 / w) + r2 @ (r2 / w)))
        if res <= opts.newton_tol:
            return phi, X[:, 1], it
        assert it < forward.NEWTON_MAX_ITER
        refactor_if_needed(ops.block_template, coeffs, lam, res, prev, it)
        rhs = -np.concatenate([r1, r2])
        dX = ops.block_template.lu.solve(rhs).reshape(2, -1)
        prev = res
        dphi, alpha = dX[0], 1.0
        if mask is not None:
            moving = mask & (dphi != 0.0)
            if moving.any():
                bound = np.where(dphi[moving] > 0, limit, -limit)
                amax = float(((bound - phi[moving]) / dphi[moving]).min())
                if amax < 1.0:
                    alpha = 0.995 * amax
        X = X + alpha * dX.T
    raise AssertionError("unreachable")


def loop_solve(problem, phi0, controls):
    """The forward solve, step by step with ``loop_step``."""
    grid = problem.grid
    phi = [phi0.bulk]
    mu = [forward.initial_mu(problem, phi0.bulk)]
    iters = []
    for k in range(grid.N):
        p, m, it = loop_step(problem, phi[k], mu[k], controls.u[k], controls.uG[k])
        phi.append(p)
        mu.append(m)
        iters.append(it)
    return np.array(phi), np.array(mu), np.array(iters)


def _preset_case(name, scheme, eps, pair=None, domain=None):
    cfg = preset_config(name)
    if domain is not None:
        cfg = RunConfig.from_dict({**PRESETS[name], "domain": {**PRESETS[name]["domain"], **domain}})
    problem = cfg.build_problem().with_options(scheme=scheme, eps_yosida=eps)
    if pair is not None:
        problem = replace(problem, pair=pair)
    mesh = problem.mesh
    return problem, cfg.build_initial(mesh), cfg.build_controls(mesh, problem.grid)


def _near_separation(scheme, eps):
    # Logarithmic, with |phi0| up to 0.999 and dt = 0.25: without Yosida,
    # the interior damping cuts one correction of the first step.
    problem = make_problem(kind="logarithmic", n_cells=24, T=1.0, N=4, scheme=scheme,
                           eps_yosida=eps)
    mesh = problem.mesh
    return (problem, cosine_ic(mesh, amplitude=0.999, waves=2.0),
            ControlPair.constant(mesh, problem.grid, 0.0, 0.0))


STEP_CASES = {
    **{name: functools.partial(_preset_case, name) for name in PRESETS},
    "default-bulk-boundary": functools.partial(_preset_case, "default", pair=PotentialPair(
        bulk=regular_potential(), boundary=logarithmic_potential(2.0))),
    "near-separation": _near_separation,
}


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("scheme", ["fully-implicit", "convex-splitting"])
@pytest.mark.parametrize("case", STEP_CASES.values(), ids=STEP_CASES.keys())
def test_forward_step_matches_the_node_ordered_loop(case, scheme, eps):
    # Each side on operators of its own, so that both start without a
    # factor and take the same refactor decisions.
    problem, phi0, controls = case(scheme, eps)
    traj = solve(problem, phi0, controls)
    reference = replace(problem, ops=CoupledOperators(problem.mesh))
    phi, mu, iters = loop_solve(reference, phi0, controls)
    assert np.array_equal(traj.newton_iters, iters)
    assert iters.sum() > 0
    for got, want in ((traj.phi, phi), (traj.mu, mu)):
        assert np.abs(got - want).max() <= 1e-11 * np.abs(want).max()


# ---------------------------------------------------------------------------
# The stacked chord Newton step at one column against the one-state loop
# ---------------------------------------------------------------------------

def single_step(problem, winv, phi_n, mu_n, source):
    """One implicit step for one state: the chord Newton loop on 1-D
    iterates that the stacked step replaced, which refilled the step matrix
    at every iteration and checked the diagonal with the factor."""
    ops, template = problem.ops, problem.ops.block_template
    coeffs = problem.jacobian_coefficients
    n, dt, tol = ops.mesh.n_bulk, problem.grid.dt, problem.opts.newton_tol
    Mphi_n = ops.M_total @ phi_n
    c1 = Mphi_n / dt + source
    c2 = (problem.physics.tau / dt) * Mphi_n - problem.explicit(phi_n, 0)
    c = np.concatenate([c1, c2])
    y = np.concatenate([phi_n, mu_n])
    prev = np.inf
    for it in range(forward.NEWTON_MAX_ITER + 1):
        phi = y[:n]
        nodal, lam = problem.implicit(phi)
        r = template.fill(coeffs) @ y
        r[n:] += nodal
        r -= c
        res = math.sqrt(r @ (r * winv))
        assert math.isfinite(res)
        if res <= tol:
            return phi, y[n:], it
        assert it < forward.NEWTON_MAX_ITER and np.isfinite(lam).all()
        refactor_if_needed(template, coeffs, lam, res, prev, it)
        dy = template.lu.solve(-r)
        assert np.isfinite(dy).all()
        prev = res
        y += single_damping(problem.interior, phi, dy[:n]) * dy
    raise AssertionError("unreachable")


def single_damping(mask, phi, dphi):
    """The step fraction of one state, as the one-state loop took it."""
    if mask is None:
        return 1.0
    moving = mask & (dphi != 0.0)
    if not moving.any():
        return 1.0
    limit = 1.0 - forward.INTERIOR_SAFEGUARD
    bound = np.where(dphi[moving] > 0, limit, -limit)
    amax = float(((bound - phi[moving]) / dphi[moving]).min())
    alpha = 0.995 * amax if amax < 1.0 else 1.0
    assert alpha > 1e-12
    return alpha


def single_solve(problem, phi0, controls):
    """The forward solve, step by step with ``single_step``."""
    ops, grid = problem.ops, problem.grid
    winv = np.tile(1.0 / ops.lumped_total, 2)
    sources = problem.physics.gamma * ops.mass(controls.u, controls.uG)
    phi = [phi0.bulk]
    mu = [forward.initial_mu(problem, phi0.bulk)]
    iters = []
    for k in range(grid.N):
        p, m, it = single_step(problem, winv, phi[k], mu[k], sources[k])
        phi.append(p)
        mu.append(m)
        iters.append(it)
    return np.array(phi), np.array(mu), np.array(iters)


# Every STEP_CASES mesh stores its step matrix dense; these store it CSC.
CSC_CASES = {
    "logarithmic-128-cells": functools.partial(_preset_case, "logarithmic",
                                               domain={"cells": 128}),
    "rectangle-16x16": functools.partial(_preset_case, "rectangle", domain={"nx": 16, "ny": 16}),
}


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("scheme", ["fully-implicit", "convex-splitting"])
@pytest.mark.parametrize("case", [*STEP_CASES.values(), *CSC_CASES.values()],
                         ids=[*STEP_CASES, *CSC_CASES])
def test_one_column_stack_is_the_one_state_loop(case, scheme, eps):
    # Bitwise: each side on operators of its own, so that both start
    # without a factor and take the same refactor decisions.
    problem, phi0, controls = case(scheme, eps)
    traj = solve(problem, phi0, controls)
    phi, mu, iters = single_solve(replace(problem, ops=CoupledOperators(problem.mesh)),
                                  phi0, controls)
    assert problem.ops.block_template.dense == (case in STEP_CASES.values())
    assert np.array_equal(traj.newton_iters, iters)
    assert np.array_equal(traj.phi, phi)
    assert np.array_equal(traj.mu, mu)


# ---------------------------------------------------------------------------
# The stacked chord Newton step against the compacting stack it replaced
# ---------------------------------------------------------------------------

def compacting_step(problem, winv, phi_n, mu_n, sources):
    """One implicit step for a stack of states: the chord Newton loop that
    removed a column from its stack when the column stopped, and named
    the remaining columns through the list ``cols``.  On an exact template
    every row is corrected on a factor of its own, and the round-off
    floor applies to each of them."""
    ops, template = problem.ops, problem.ops.block_template
    coeffs = problem.jacobian_coefficients
    n, dt, tol = ops.mesh.n_bulk, problem.grid.dt, problem.opts.newton_tol
    Mphi_n = (ops.M_total @ phi_n.T).T
    c1 = Mphi_n / dt + sources
    c2 = (problem.physics.tau / dt) * Mphi_n - problem.explicit(phi_n, 0)
    c = np.concatenate([c1, c2], axis=1)
    y = np.concatenate([phi_n, mu_n], axis=1)
    K = len(y)
    out, iters = np.empty((K, 2 * n)), np.zeros(K, dtype=int)
    cols, prev, fresh = list(range(K)), [math.inf] * K, []
    A = template.fill(coeffs)
    for it in range(forward.NEWTON_MAX_ITER + 1):
        nodal, lam = problem.implicit(y[:, :n])
        r = (A @ y.T).T
        r[:, n:] += nodal
        r -= c
        res = [math.sqrt(v) for v in ((r * winv)[:, None] @ r[:, :, None]).ravel().tolist()]
        assert math.isfinite(sum(res))
        floored = []
        for row in fresh:
            if tol < res[row] >= prev[row]:
                floor = forward.NEWTON_ROUNDOFF * (
                    forward._wnorm(abs(A) @ np.abs(kept[row]), winv)
                    + forward._wnorm(c[row], winv))
                if prev[row] <= floor:
                    y[row] = kept[row]
                    floored.append(row)
        fresh = []
        done = [j for j, v in enumerate(res) if v <= tol or j in floored]
        out[[cols[j] for j in done]] = y[done]
        iters[[cols[j] for j in done]] = it
        if len(done) == len(res):
            return out[:, :n], out[:, n:], iters
        keep = [j for j in range(len(res)) if j not in done]
        y, c, r, lam = y[keep], c[keep], r[keep], lam[keep]
        res, prev, cols = ([v[j] for j in keep] for v in (res, prev, cols))
        assert it < forward.NEWTON_MAX_ITER and np.isfinite(lam).all()
        if template.exact:
            dy = np.empty_like(r)
            for row in range(len(y)):
                template.factor(coeffs, lam[row])
                dy[row] = template.lu.solve(-r[row])
            fresh, kept, A = list(range(len(y))), y.copy(), template.fill(coeffs)
        else:
            slow = next((j for j, (v, p) in enumerate(zip(res, prev))
                         if v > chord_rho(template, it) * p), None)
            if slow is not None or template.lu is None:
                row = slow or 0
                template.factor(coeffs, lam[row])
                fresh, kept, A = [row], y.copy(), template.fill(coeffs)
            dy = template.lu.solve(-r.T).T
        assert np.isfinite(dy).all()
        prev = res
        if problem.interior is not None:
            for row in range(len(y)):
                dy[row] *= single_damping(problem.interior, y[row, :n], dy[row, :n])
        y += dy
    raise AssertionError("unreachable")


def compacting_solve(problem, phi0, controls):
    """The stacked forward solve, step by step with ``compacting_step``:
    (K, N + 1, n) fields and (K, N) Newton counts."""
    ops, grid = problem.ops, problem.grid
    winv = np.tile(1.0 / ops.lumped_total, (1, 2))
    sources = problem.physics.gamma * np.stack([ops.mass(u.u, u.uG) for u in controls], axis=1)
    K = len(controls)
    phi, mu = [np.tile(phi0.bulk, (K, 1))], [np.tile(forward.initial_mu(problem, phi0.bulk), (K, 1))]
    iters = []
    for k in range(grid.N):
        p, m, it = compacting_step(problem, winv, phi[k], mu[k], sources[k])
        phi.append(p)
        mu.append(m)
        iters.append(it)
    return (np.stack(phi, axis=1), np.stack(mu, axis=1), np.stack(iters, axis=1))


def _csc_stack(case, far):
    """A CSC case's control, a nearby one, zero and the constant ``far``,
    whose column takes more iterations than the rest."""
    problem, phi0, controls = case("fully-implicit", 0.0)
    mesh, grid = problem.mesh, problem.grid
    nearby = controls.plus(random_direction(mesh, grid, np.random.default_rng(8)), 0.02)
    return problem, phi0, [controls, nearby, controls.scaled(0.0),
                           ControlPair.constant(mesh, grid, far)]


def _steady_first_column():
    """Column 0 rests at its steady state and stops at iteration 0 of every
    step, before the first factor is built at the next column."""
    problem = make_problem()
    mesh, grid = problem.mesh, problem.grid
    return problem, PairField.constant(mesh, 0.0), [
        ControlPair.zeros(mesh, grid), ControlPair.constant(mesh, grid, 0.5),
        ControlPair.constant(mesh, grid, -0.3, 0.2)]


STACK_CASES = {**STACKS, **{name: functools.partial(_csc_stack, CSC_CASES[name], far)
                            for name, far in (("logarithmic-128-cells", 0.4),
                                              ("rectangle-16x16", 3.0))},
               "steady-first-column": _steady_first_column}


@pytest.mark.parametrize("case", STACK_CASES.values(), ids=STACK_CASES.keys())
def test_in_place_stack_is_the_compacting_stack(case):
    # Bitwise: each side on operators of its own, so that both start
    # without a factor and take the same refactor decisions.
    problem, phi0, controls = case()
    stack = forward.solve_many(problem, phi0, controls)
    phi, mu, iters = compacting_solve(replace(problem, ops=CoupledOperators(problem.mesh)),
                                      phi0, controls)
    got = np.array([traj.newton_iters for traj in stack])
    assert np.array_equal(got, iters)
    # Columns stop at different iterations.
    assert (iters != iters[0]).any()
    assert np.array_equal(np.array([traj.phi for traj in stack]), phi)
    assert np.array_equal(np.array([traj.mu for traj in stack]), mu)


# ---------------------------------------------------------------------------
# The one step matrix against full refills and the chord's private copy
# ---------------------------------------------------------------------------

def full_fill(template, c, lam=None):
    """The template fill that rewrote every entry on each call."""
    data = template.data
    data[template.slots] = np.take((c[0], 0.0, c[1], -1.0), template.block) * template.m
    data[template.slots] += template.k
    if lam is not None:
        data[template.diag] += lam
    return template.matrix


def copy_fill(template, c, lam=None):
    """``full_fill``, with the lambda-free matrix handed out as the copy
    chord Newton held of it (CSR for the sparse storage)."""
    A = full_fill(template, c, lam)
    if lam is not None:
        return A
    return A.copy() if template.dense else A.tocsr()


def gather_band_factor(template):
    """The band factor of a dense template's filled matrix, gathered from
    its dense array and scattered into LAPACK's band layout on every
    factorization, as ``BandLU`` did before the template kept its band
    array."""
    lu = BandLU.__new__(BandLU)
    lu.kl, lu.ku, lu.order, lu.position = template.band
    ab = np.zeros((2 * lu.kl + lu.ku + 1, len(lu.order)), order="F")
    ab.reshape(-1, order="F")[template.band_slots] = template.data[template.slots]
    lu.lu, lu.piv, info = lapack.dgbtrf(ab, lu.kl, lu.ku, overwrite_ab=True)
    if info > 0:
        raise RuntimeError("Factor is exactly singular")
    return lu


def full_factor(template, c, lam):
    """The factorization that recorded its coefficients with its factor."""
    template.lu = template.coeffs = None
    A = full_fill(template, c, lam)
    template.lu = (gather_band_factor(template) if template.dense
                   else spla.splu(A, permc_spec="MMD_AT_PLUS_A"))
    template.coeffs = tuple(c)


def round_trip(problem, phi0, controls):
    """Forward, linearized and adjoint solves: the fields and Newton counts."""
    mesh, grid = problem.mesh, problem.grid
    base = solve(problem, phi0, controls)
    lin = linearized_solve(
        problem, base, random_direction(mesh, grid, np.random.default_rng(3)).scaled(0.1))
    adj = adjoint_solve(problem, base, CostSpec(alphas=(1.0, 0.5, 1.0, 0.5, 0.2, 0.2),
                                                phiQ=0.2, phiS=0.1, phiO=0.2, phiG=0.1))
    return base.newton_iters, (base.phi, base.mu, lin.psi, lin.eta, adj.p, adj.q)


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("scheme", ["fully-implicit", "convex-splitting"])
@pytest.mark.parametrize("name", PRESETS)
def test_one_step_matrix_matches_full_refills(name, scheme, eps, monkeypatch, storage):
    # The reference runs on operators of its own, so that both sides start
    # without a factor and take the same refactor decisions.
    problem, phi0, controls = _preset_case(name, scheme, eps)
    iters, fields = round_trip(problem, phi0, controls)
    monkeypatch.setattr(BlockTemplate, "fill", copy_fill)
    monkeypatch.setattr(BlockTemplate, "factor", full_factor)
    reference = replace(problem, ops=CoupledOperators(problem.mesh))
    ref_iters, ref_fields = round_trip(reference, phi0, controls)
    assert np.array_equal(iters, ref_iters)
    for got, want in zip(fields, ref_fields):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("eps", [0.0, 1e-2])
@pytest.mark.parametrize("scheme", ["fully-implicit", "convex-splitting"])
@pytest.mark.parametrize("name", PRESETS)
def test_dense_and_sparse_storage_agree(name, scheme, eps, monkeypatch):
    # Each storage on operators of its own, so that both start without a
    # factor: the same Newton counts, and the fields to round-off.  On an
    # interval the CSC template is made exact, and on a rectangle the band
    # ratio is the CSC one, so that both storages run one rule.
    monkeypatch.setattr(forward, "CHORD_RHO_BAND", forward.CHORD_RHO)
    problem, phi0, controls = _preset_case(name, scheme, eps)
    runs = []
    for dense_max in (0, 10**6):
        monkeypatch.setattr(spaces, "DENSE_MAX", dense_max)
        ops = CoupledOperators(problem.mesh)
        assert ops.block_template.dense == (dense_max > 0)
        assert ops.block_template.exact == (dense_max > 0 and problem.mesh.dim == 1)
        ops.block_template.exact = problem.mesh.dim == 1
        runs.append(round_trip(replace(problem, ops=ops), phi0, controls))
    (iters, fields), (ref_iters, ref_fields) = runs
    assert np.array_equal(iters, ref_iters)
    for got, want in zip(fields, ref_fields):
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
