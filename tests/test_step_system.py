"""The shared fixed-pattern block solve behind every step of the forward,
linearized and adjoint solvers.

The reference block matrices below are the per-call assemblies the solvers
used before the fixed template: the step Jacobian, the adjoint backward
matrix and the terminal adjoint matrix.
"""

import copy

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from cho.adjoint import adjoint_solve
from cho.cli import main
from cho.control import ControlPair, CostSpec
from cho.errors import SolverError
from cho.forward import (
    Physics,
    _SchemeFns,
    jacobian_coefficients,
    solve,
    solve_block_system,
)
from cho.mesh import build_interval, build_rectangle
from cho.sensitivity import linearized_solve
from cho.spaces import assemble

from conftest import cosine_ic, make_problem
from test_cli import MINIMAL, write_yaml

PHYSICS = Physics(tau=0.7, gamma=1.3)
DT = 0.05
TERMINAL = (1.0, PHYSICS.tau, 0.0, -1.0), (0.0, 0.0, 1.0, 0.0)


def jacobian_reference(ops, physics, dt, lam):
    A11 = (1.0 / dt + physics.gamma) * ops.M_total
    A21 = (physics.tau / dt) * ops.M_total + ops.K_total + sp.diags(lam)
    return sp.bmat([[A11, ops.K_total], [A21, -ops.M_total]], format="csc")


def backward_reference(ops, physics, dt, lam):
    M, K = ops.M_total, ops.K_total
    return sp.bmat(
        [
            [(1.0 + physics.gamma * dt) * M, physics.tau * M + dt * (K + sp.diags(lam))],
            [K, -M],
        ],
        format="csc",
    )


def terminal_reference(ops, tau):
    M, K = ops.M_total, ops.K_total
    return sp.bmat([[M, tau * M], [K, -M]], format="csc")


@pytest.fixture(params=["interval", "rectangle"])
def system(request):
    mesh = (build_interval(12, 1.0) if request.param == "interval"
            else build_rectangle(8, 8, 1.0, 1.0))
    ops = assemble(mesh)
    rng = np.random.default_rng(7)
    lam = ops.lumped_total * rng.uniform(-1.0, 2.0, mesh.n_bulk)
    return ops, lam, rng


def assert_same_entries(A, B):
    assert A.shape == B.shape
    assert abs(A - B).max() <= 1e-14 * abs(B).max()


def relative_error(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


class TestTemplate:
    def test_jacobian_matches_reference(self, system):
        ops, lam, _ = system
        a, b = jacobian_coefficients(PHYSICS, DT)
        J = ops.block_template.fill(a, b, lam)
        assert_same_entries(J, jacobian_reference(ops, PHYSICS, DT, lam))

    def test_backward_matrix_is_scaled_jacobian_transpose(self, system):
        ops, lam, _ = system
        n = ops.mesh.n_bulk
        J = ops.block_template.fill(*jacobian_coefficients(PHYSICS, DT), lam)
        scale = sp.diags(np.concatenate([np.full(n, DT), np.ones(n)]))
        assert_same_entries(scale @ J.T, backward_reference(ops, PHYSICS, DT, lam))

    def test_terminal_matches_reference(self, system):
        ops, _, _ = system
        B = ops.block_template.fill(*TERMINAL)
        assert_same_entries(B, terminal_reference(ops, PHYSICS.tau))

    def test_pattern_is_fixed_across_refills(self, system):
        ops, lam, _ = system
        template = ops.block_template
        indptr, indices = template.matrix.indptr.copy(), template.matrix.indices.copy()
        template.fill(*TERMINAL)
        template.fill(*jacobian_coefficients(PHYSICS, DT), lam)
        assert ops.block_template is template
        assert np.array_equal(template.matrix.indptr, indptr)
        assert np.array_equal(template.matrix.indices, indices)


class TestSolveAgainstReference:
    def test_forward_solve(self, system):
        ops, lam, rng = system
        rhs = rng.standard_normal(2 * ops.mesh.n_bulk)
        x = np.concatenate(
            solve_block_system(ops, *jacobian_coefficients(PHYSICS, DT), rhs, lam=lam)
        )
        ref = spla.spsolve(jacobian_reference(ops, PHYSICS, DT, lam), rhs)
        assert relative_error(x, ref) <= 1e-12

    def test_transposed_solve_reproduces_backward_step(self, system):
        ops, lam, rng = system
        rhs1 = rng.standard_normal(ops.mesh.n_bulk)
        zero = np.zeros_like(rhs1)
        x = np.concatenate(solve_block_system(
            ops, *jacobian_coefficients(PHYSICS, DT), np.concatenate([rhs1 / DT, zero]),
            lam=lam, trans="T",
        ))
        ref = spla.spsolve(backward_reference(ops, PHYSICS, DT, lam),
                           np.concatenate([rhs1, zero]))
        assert relative_error(x, ref) <= 1e-12

    def test_terminal_solve(self, system):
        ops, _, rng = system
        rhs = np.concatenate([rng.standard_normal(ops.mesh.n_bulk), np.zeros(ops.mesh.n_bulk)])
        x = np.concatenate(solve_block_system(ops, *TERMINAL, rhs))
        ref = spla.spsolve(terminal_reference(ops, PHYSICS.tau), rhs)
        assert relative_error(x, ref) <= 1e-12


@pytest.fixture
def run():
    problem = make_problem()
    mesh, grid = problem.mesh, problem.grid
    phi0 = cosine_ic(mesh)
    u = ControlPair.constant(mesh, grid, 0.1, 0.05)
    base = solve(problem, phi0, u)
    cost = CostSpec(alphas=(1.0, 0.5, 0.8, 0.3, 0.2, 0.1), phiQ=0.2, phiS=0.1,
                    phiO=-0.1, phiG=0.0)
    return problem, phi0, u, base, cost


def test_one_template_and_no_live_factor_between_solves(monkeypatch):
    problem = make_problem()
    mesh, grid = problem.mesh, problem.grid
    bmat_calls = []
    bmat = sp.bmat
    monkeypatch.setattr(sp, "bmat", lambda *a, **k: bmat_calls.append(1) or bmat(*a, **k))

    live = []
    splu = spla.splu

    class Factor:
        def __init__(self, lu):
            self.lu = lu
            live.append(1)

        def solve(self, *args, **kwargs):
            return self.lu.solve(*args, **kwargs)

        def __del__(self):
            live.pop()

    def counting_splu(*args, **kwargs):
        assert not live, "a factor outlived its solve"
        return Factor(splu(*args, **kwargs))

    monkeypatch.setattr(spla, "splu", counting_splu)
    u = ControlPair.constant(mesh, grid, 0.1, 0.05)
    base = solve(problem, cosine_ic(mesh), u)
    linearized_solve(problem, base, u)
    adjoint_solve(problem, base, CostSpec(alphas=(1.0,) * 6, phiQ=0.2))
    assert len(bmat_calls) == 1
    assert not live


def nan_second_derivative(monkeypatch):
    nodal = _SchemeFns.nodal

    def patched(self, ops, phi, which):
        out = nodal(self, ops, phi, which)
        return np.full_like(out, np.nan) if which == 1 else out

    monkeypatch.setattr(_SchemeFns, "nodal", patched)


def singular_factor(monkeypatch):
    def raising(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(spla, "splu", raising)


FAULTS = [nan_second_derivative, singular_factor]


@pytest.mark.parametrize("fault", FAULTS)
class TestFaultInjection:
    def test_forward_fails_on_first_newton_iteration(self, run, fault, monkeypatch):
        problem, phi0, u, _, _ = run
        fault(monkeypatch)
        with pytest.raises(SolverError, match="Newton iteration 1:") as err:
            solve(problem, phi0, u)
        assert err.value.step == 1

    def test_linearized_solve(self, run, fault, monkeypatch):
        problem, _, u, base, _ = run
        fault(monkeypatch)
        with pytest.raises(SolverError) as err:
            linearized_solve(problem, base, u)
        assert err.value.step == 1

    def test_adjoint_solve(self, run, fault, monkeypatch):
        problem, _, _, base, cost = run
        fault(monkeypatch)
        with pytest.raises(SolverError) as err:
            adjoint_solve(problem, base, cost)
        assert err.value.step == problem.grid.N

    def test_simulate_exits_3(self, tmp_path, fault, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        fault(monkeypatch)
        assert main(["simulate", "-c", write_yaml(tmp_path, copy.deepcopy(MINIMAL))]) == 3
        assert "solver error:" in capsys.readouterr().err
