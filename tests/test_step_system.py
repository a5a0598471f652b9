"""The shared fixed-pattern block solve behind every step of the forward,
linearized and adjoint solvers.

The reference block matrices below are the per-call assemblies the solvers
used before the fixed template: the step Jacobian and the adjoint
backward matrix.  A second time step gives a second set of step
coefficients.  The template stores its matrix in node order, so its
entries compare with them directly.

The template is the one step matrix of every solve: a refill with the
coefficients it holds rewrites only the diagonal lambda of block 21.  It
keeps one live factor, taken at whatever diagonal it was last built for;
the forward solver runs chord Newton on it and the linearized and adjoint
solves refine on it.  An exact template, dense on an interval, instead
factors every step system at its own matrix; two tests count that rule
on both storages.  The tests below check that the results do not
depend on that history, that a factor is released before the next one is
built, and that a forward, linearized and adjoint round rewrites every
entry only when the coefficients change.

Every test here runs on both storages of the template: CSC with SuperLU
factors and dense with LAPACK ones.  They read the matrix through
``entries`` and the flat slot storage ``BlockTemplate.data``, and count
factorizations and solves at ``BlockTemplate.factor`` and the live
factor's ``solve``.
"""

import copy

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from cho import forward, potentials
from cho.adjoint import adjoint_solve
from cho.cli import main
from cho.control import ControlPair, CostSpec, random_direction
from cho.errors import SolverError
from cho.forward import (
    Physics,
    Problem,
    SolverOptions,
    TimeGrid,
    mean_ode_residual,
    solve,
    solve_block_system,
)
from cho.mesh import build_interval, build_rectangle
from cho.potentials import (
    PotentialPair,
    PotentialSpec,
    logarithmic_potential,
    regular_potential,
)
from cho.sensitivity import linearized_solve
from cho.spaces import BlockTemplate, PairField, assemble

from conftest import cosine_ic, make_problem
from test_cli import MINIMAL, write_yaml

PHYSICS = Physics(tau=0.7, gamma=1.3)
DT = 0.05
# A second time step, for a second set of step coefficients.
DT2 = 0.2


def step_coefficients(ops, physics=PHYSICS, dt=DT):
    """The step coefficients of a problem on ``ops`` with these physics
    and one step of length dt."""
    return Problem(ops, PotentialPair.same(regular_potential()), SolverOptions(),
                   physics, TimeGrid(dt, 1)).jacobian_coefficients


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


@pytest.fixture(autouse=True)
def every_storage(storage):
    """Every test in this module runs once per template storage."""
    return storage


def entries(A):
    """The entries of a matrix in either storage, as an ndarray."""
    return A.toarray() if sp.issparse(A) else np.asarray(A)


def values(A):
    """The array a matrix keeps its entries in."""
    return A.data if sp.issparse(A) else A


def layout(template):
    """Where the slots live: the CSC index arrays, or the flat positions
    of the slots in the dense array."""
    A = template.matrix
    if sp.issparse(A):
        return A.indptr.copy(), A.indices.copy()
    return (template.slots.copy(),)


@pytest.fixture(params=["interval", "rectangle"])
def system(request):
    mesh = (build_interval(12, 1.0) if request.param == "interval"
            else build_rectangle(8, 8, 1.0, 1.0))
    ops = assemble(mesh)
    rng = np.random.default_rng(7)
    lam = ops.lumped_total * rng.uniform(-1.0, 2.0, mesh.n_bulk)
    return ops, lam, rng


def assert_same_entries(A, B):
    A, B = entries(A), entries(B)
    assert A.shape == B.shape
    assert abs(A - B).max() <= 1e-14 * abs(B).max()


def relative_error(x, y):
    return np.linalg.norm(x - y) / np.linalg.norm(y)


class TestTemplate:
    def test_jacobian_matches_reference(self, system):
        ops, lam, _ = system
        J = ops.block_template.fill(step_coefficients(ops), lam)
        assert_same_entries(J, jacobian_reference(ops, PHYSICS, DT, lam))

    def test_backward_matrix_is_scaled_jacobian_transpose(self, system):
        ops, lam, _ = system
        n = ops.mesh.n_bulk
        template = ops.block_template
        J = template.fill(step_coefficients(ops), lam)
        scale = sp.diags(np.concatenate([np.full(n, DT), np.ones(n)]))
        assert_same_entries(scale @ J.T, backward_reference(ops, PHYSICS, DT, lam))

    def test_refill_is_bitwise_the_block_sum(self, system):
        # Each slot is c1 m, k, c2 m + k (+ lambda) or -m of its block, in
        # the order of operations of the assembled sum, so a refill at
        # either time step reproduces the reference bit for bit.
        ops, lam, _ = system
        template = ops.block_template
        for dt in (DT, DT2):
            c = step_coefficients(ops, dt=dt)
            for l in (None, lam):
                A = entries(template.fill(c, l))
                reference = jacobian_reference(
                    ops, PHYSICS, dt, np.zeros_like(lam) if l is None else l)
                assert np.array_equal(A, entries(reference))

    def test_pattern_is_fixed_across_refills(self, system):
        ops, lam, _ = system
        template = ops.block_template
        matrix, before = template.matrix, layout(template)
        template.fill(step_coefficients(ops, dt=DT2))
        template.fill(step_coefficients(ops), lam)
        assert ops.block_template is template and template.matrix is matrix
        assert all(np.array_equal(x, y) for x, y in zip(layout(template), before))
        # No entry outside the slots is ever written.
        assert np.count_nonzero(entries(matrix)) <= template.block.size

    def test_lambda_refill_touches_only_the_diagonal(self, system):
        ops, lam, _ = system
        template = ops.block_template
        c = step_coefficients(ops)
        template.factor(c, lam)
        lu, before = template.lu, template.data.copy()
        for new_lam in (2.0 * lam, None):
            A = template.fill(c, new_lam)
            assert template.lu is lu
            off = np.ones(template.data.size, dtype=bool)
            off[template.diag] = False
            assert np.array_equal(template.data[off], before[off])
            reference = jacobian_reference(
                ops, PHYSICS, DT, np.zeros_like(lam) if new_lam is None else new_lam)
            assert_same_entries(A, reference)

    def test_coefficient_change_releases_the_factor(self, system):
        ops, lam, _ = system
        template = ops.block_template
        template.factor(step_coefficients(ops), lam)
        assert template.lu is not None
        B = template.fill(step_coefficients(ops, dt=DT2), lam)
        assert template.lu is None
        assert template.coeffs == step_coefficients(ops, dt=DT2)
        assert_same_entries(B, jacobian_reference(ops, PHYSICS, DT2, lam))

    def test_factorization_by_storage(self, system, storage, monkeypatch):
        # A sparse template is factored by SuperLU, ordered by minimum
        # degree on A^T + A; a dense one never calls SuperLU.
        ops, lam, _ = system
        orderings = []
        splu = spla.splu

        def spy(A, *, permc_spec, **kwargs):
            orderings.append(permc_spec)
            return splu(A, permc_spec=permc_spec, **kwargs)

        monkeypatch.setattr(spla, "splu", spy)
        ops.block_template.factor(step_coefficients(ops), lam)
        assert orderings == (["MMD_AT_PLUS_A"] if storage == "sparse" else [])

    def test_data_is_the_matrix_storage(self, system):
        ops, _, _ = system
        template = ops.block_template
        assert np.shares_memory(template.data, values(template.matrix))


class TestSolveAgainstReference:
    def test_forward_solve(self, system):
        ops, lam, rng = system
        rhs = rng.standard_normal(2 * ops.mesh.n_bulk)
        x = np.concatenate(
            solve_block_system(ops, step_coefficients(ops), rhs, lam)
        )
        ref = spla.spsolve(jacobian_reference(ops, PHYSICS, DT, lam), rhs)
        assert relative_error(x, ref) <= 1e-12

    def test_transposed_solve_reproduces_backward_step(self, system):
        ops, lam, rng = system
        rhs1 = rng.standard_normal(ops.mesh.n_bulk)
        zero = np.zeros_like(rhs1)
        x = np.concatenate(solve_block_system(
            ops, step_coefficients(ops), np.concatenate([rhs1 / DT, zero]), lam, trans="T",
        ))
        ref = spla.spsolve(backward_reference(ops, PHYSICS, DT, lam),
                           np.concatenate([rhs1, zero]))
        assert relative_error(x, ref) <= 1e-12

    def test_solve_after_a_time_step_change(self, system):
        # One template solves at two time steps in turn; each solution
        # matches the assembled step Jacobian of its own coefficients.
        ops, lam, rng = system
        rhs = rng.standard_normal(2 * ops.mesh.n_bulk)
        for dt in (DT, DT2):
            x = np.concatenate(
                solve_block_system(ops, step_coefficients(ops, dt=dt), rhs, lam)
            )
            ref = spla.spsolve(jacobian_reference(ops, PHYSICS, dt, lam), rhs)
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


class FactorLog:
    def __init__(self):
        self.live = []
        self.step_factors = 0
        self.solves = 0


@pytest.fixture
def factor_log(monkeypatch):
    """Wraps ``BlockTemplate.factor``: counts the step factorizations and
    the solves with each live factor, and fails when a factor is still
    alive once the template has built the next one."""
    log = FactorLog()
    factor = BlockTemplate.factor

    class Factor:
        def __init__(self, lu):
            self.lu = lu
            log.live.append(1)

        def solve(self, *args, **kwargs):
            log.solves += 1
            return self.lu.solve(*args, **kwargs)

        def __del__(self):
            log.live.pop()

    def counting_factor(template, c, lam):
        # Only the template's own factor, if any, may be alive here.
        assert len(log.live) <= int(template.lu is not None)
        factor(template, c, lam)
        assert not log.live, "a factor was alive while the next one was built"
        log.step_factors += 1
        template.lu = Factor(template.lu)

    monkeypatch.setattr(BlockTemplate, "factor", counting_factor)
    return log


def test_one_template_and_at_most_one_live_factor(monkeypatch, factor_log):
    problem = make_problem()
    mesh, grid = problem.mesh, problem.grid
    bmat_calls = []
    bmat = sp.bmat
    monkeypatch.setattr(sp, "bmat", lambda *a, **k: bmat_calls.append(1) or bmat(*a, **k))

    u = ControlPair.constant(mesh, grid, 0.1, 0.05)
    base = solve(problem, cosine_ic(mesh), u)
    linearized_solve(problem, base, u)
    adjoint_solve(problem, base, CostSpec(alphas=(1.0,) * 6, phiQ=0.2))
    assert len(bmat_calls) == 1
    # The template's own factor, and no other.
    assert len(factor_log.live) == 1
    assert problem.ops.block_template.lu is not None


def test_factorization_budget(factor_log, storage):
    # Forward, linearized and adjoint on an 8x8 rectangle: one factor for
    # the forward run on CSC, which the linearized solve reuses, and one
    # for the adjoint, the step Jacobian at the last state.  The band
    # factor is rebuilt whenever a later correction leaves more than
    # CHORD_RHO_BAND: the forward run takes three factors and 30 Newton
    # iterations, against one factor and 41 iterations on the CSC rule.
    mesh = build_rectangle(8, 8, 1.0, 1.0)
    grid = TimeGrid(T=0.4, N=8)
    problem = Problem.create(mesh, PotentialPair.same(regular_potential()),
                             SolverOptions(), PHYSICS, grid)
    rng = np.random.default_rng(11)
    phi0 = PairField.from_bulk(mesh, rng.uniform(-0.4, 0.4, mesh.n_bulk))
    u = ControlPair.constant(mesh, grid, 0.1, 0.05)
    base = solve(problem, phi0, u)
    linearized_solve(problem, base, random_direction(mesh, grid, rng).scaled(0.1))
    adjoint_solve(problem, base, CostSpec(alphas=(1.0,) * 6, phiQ=0.2))
    assert factor_log.step_factors <= (3 if storage == "sparse" else 4)


def test_exact_template_factors_every_backward_step_once(run, factor_log):
    # On an exact template the linearized and adjoint solves factor each
    # step system at its own diagonal and refine it in one sweep.  The CSC
    # template of the interval is made exact, so both storages run the rule.
    problem, _, u, base, cost = run
    problem.ops.block_template.exact = True
    for backward in (lambda: linearized_solve(problem, base, u),
                     lambda: adjoint_solve(problem, base, cost)):
        factors, solves = factor_log.step_factors, factor_log.solves
        backward()
        assert factor_log.step_factors - factors == problem.grid.N
        assert factor_log.solves - solves == problem.grid.N


def test_exact_template_factors_every_correction_at_its_column(monkeypatch, factor_log):
    # A stack on an exact template: each chord correction of a running
    # column is one factorization at that column's own lambda and one
    # solve.  Column 0 rests at its steady state and stops at iteration 0
    # of every step; the others run on.
    problem = make_problem()
    mesh, grid = problem.mesh, problem.grid
    problem.ops.block_template.exact = True
    controls = [ControlPair.zeros(mesh, grid), ControlPair.constant(mesh, grid, 0.5),
                ControlPair.constant(mesh, grid, -0.3, 0.2)]
    evaluations, factored = [], []
    implicit, factor = Problem.implicit, BlockTemplate.factor
    monkeypatch.setattr(Problem, "implicit",
                        lambda self, phi: evaluations.append(implicit(self, phi))
                        or evaluations[-1])

    def recording(template, c, lam):
        factored.append(lam.copy())
        factor(template, c, lam)

    monkeypatch.setattr(BlockTemplate, "factor", recording)
    stack = forward.solve_many(problem, PairField.constant(mesh, 0.0), controls)
    iters = np.array([traj.newton_iters for traj in stack])
    assert (iters != iters[0]).any()
    # The first evaluation is the initial chemical potential's; then each
    # step evaluates its iterates, and iteration it corrects the columns
    # whose step takes more than it iterations.
    lams, expected = (lam for _, lam in evaluations[1:]), []
    for k in range(grid.N):
        for it in range(iters[:, k].max() + 1):
            lam = next(lams)
            expected += [lam[j] for j in range(len(controls)) if iters[j, k] > it]
    assert next(lams, None) is None
    assert len(factored) == len(expected) == iters.sum()
    assert all(np.array_equal(got, want) for got, want in zip(factored, expected))
    assert factor_log.step_factors == factor_log.solves == iters.sum()


class CountedReads(np.ndarray):
    """Per-slot values that record each ufunc call reading them."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        self.reads.append(ufunc.__name__)
        inputs = tuple(x.view(np.ndarray) if x is self else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


@pytest.mark.parametrize("N", [8, 16])
def test_full_refills_only_on_new_coefficients(N):
    # Forward, linearized and adjoint on an 8x8 rectangle.  Only a refill
    # that rewrites every entry reads the per-slot M values: one, for the
    # forward run's Jacobian coefficients, which the linearized and adjoint
    # solves keep.  Every other refill rewrites the diagonal lambda alone,
    # whatever N.
    mesh = build_rectangle(8, 8, 1.0, 1.0)
    grid = TimeGrid(T=0.4, N=N)
    problem = Problem.create(mesh, PotentialPair.same(regular_potential()),
                             SolverOptions(), PHYSICS, grid)
    template = problem.ops.block_template
    template.m = template.m.view(CountedReads)
    template.m.reads = []
    rng = np.random.default_rng(11)
    phi0 = PairField.from_bulk(mesh, rng.uniform(-0.4, 0.4, mesh.n_bulk))
    base = solve(problem, phi0, ControlPair.constant(mesh, grid, 0.1, 0.05))
    linearized_solve(problem, base, random_direction(mesh, grid, rng).scaled(0.1))
    adjoint_solve(problem, base, CostSpec(alphas=(1.0,) * 6, phiQ=0.2))
    assert len(template.m.reads) == 1


class CountedProducts(np.ndarray):
    """A dense step matrix that records each product taken with it."""

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            self.products.append(self)
        inputs = tuple(x.view(np.ndarray) if x is self else x for x in inputs)
        return getattr(ufunc, method)(*inputs, **kwargs)


def test_one_product_and_one_triangular_solve_per_iterate(monkeypatch, factor_log):
    # A forward solve on an 8x8 rectangle: each residual is one product
    # with the 2n x 2n step matrix and each chord correction one solve
    # with the live factor.  M_total and K_total act once per step, on the
    # old state, and otherwise only in the initial chemical potential.
    mesh = build_rectangle(8, 8, 1.0, 1.0)
    grid = TimeGrid(T=0.4, N=8)
    problem = Problem.create(mesh, PotentialPair.same(logarithmic_potential(2.0)),
                             SolverOptions(), PHYSICS, grid)
    ops = problem.ops
    rng = np.random.default_rng(11)
    phi0 = PairField.from_bulk(mesh, rng.uniform(-0.4, 0.4, mesh.n_bulk))
    u = ControlPair.constant(mesh, grid, 0.1, 0.05)

    products = []
    for cls in (sp.csr_matrix, sp.csc_matrix):
        monkeypatch.setattr(cls, "__matmul__", lambda A, x, matmul=cls.__matmul__:
                            products.append(A) or matmul(A, x))
    template = ops.block_template
    if not sp.issparse(template.matrix):
        template.matrix = template.matrix.view(CountedProducts)
        template.matrix.products = products

    def operator_products():
        return sum(A is ops.M_total or A is ops.K_total for A in products)

    forward.initial_mu(problem, phi0.bulk)
    initial = operator_products()
    products.clear()
    traj = solve(problem, phi0, u)
    assert traj.newton_iters.sum() > grid.N
    assert factor_log.solves == traj.newton_iters.sum()
    assert operator_products() == initial + grid.N
    step = sum(A.shape == (2 * mesh.n_bulk,) * 2 for A in products)
    assert step == (traj.newton_iters + 1).sum()


class EvaluationLog:
    def __init__(self, monkeypatch):
        self.counts = {}
        for cls, name in ((Problem, "implicit"), (Problem, "explicit"),
                          (Problem, "jacobian"), (Problem, "_nodal"),
                          (PotentialSpec, "check_domain"), (potentials, "resolvent")):
            monkeypatch.setattr(cls, name, self._counting(getattr(cls, name), name))
        self.take()

    def _counting(self, fn, name):
        def counted(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)
        return counted

    def take(self):
        counts = dict(self.counts)
        self.counts = dict.fromkeys(
            ("implicit", "explicit", "jacobian", "_nodal", "check_domain", "resolvent"), 0)
        return counts


@pytest.mark.parametrize("sides", [1, 2], ids=["same", "bulk-boundary"])
@pytest.mark.parametrize("scheme", ["fully-implicit", "convex-splitting"])
@pytest.mark.parametrize("eps", [0.0, 1e-2])
def test_evaluation_budget(sides, scheme, eps, monkeypatch):
    # 8x8 rectangle, with one logarithmic potential or a regular bulk and a
    # logarithmic boundary one.  Forward: one implicit evaluation per
    # residual (and one for the initial chemical potential), each one pass
    # per distinct potential with one domain check, or one resolvent when
    # eps > 0.  Linearized and adjoint: one stacked evaluation each,
    # whatever N, a jacobian that takes lambda from one implicit pass.
    mesh = build_rectangle(8, 8, 1.0, 1.0)
    grid = TimeGrid(T=0.4, N=8)
    log_potential = logarithmic_potential(2.0)
    pair = (PotentialPair.same(log_potential) if sides == 1
            else PotentialPair(bulk=regular_potential(), boundary=log_potential))
    problem = Problem.create(mesh, pair, SolverOptions(scheme=scheme, eps_yosida=eps),
                             PHYSICS, grid)
    rng = np.random.default_rng(11)
    phi0 = PairField.from_bulk(mesh, rng.uniform(-0.4, 0.4, mesh.n_bulk))
    u = ControlPair.constant(mesh, grid, 0.1, 0.05)
    log = EvaluationLog(monkeypatch)

    base = solve(problem, phi0, u)
    implicit = int((base.newton_iters + 1).sum()) + 1
    passes = sides * implicit
    assert log.take() == {
        "implicit": implicit, "explicit": grid.N + 1, "jacobian": 0, "_nodal": passes,
        "check_domain": 0 if eps else passes, "resolvent": passes if eps else 0,
    }
    linearized_solve(problem, base, random_direction(mesh, grid, rng).scaled(0.1))
    adjoint_solve(problem, base, CostSpec(alphas=(1.0,) * 6, phiQ=0.2))
    passes = 2 * sides
    assert log.take() == {
        "implicit": 2, "explicit": 2, "jacobian": 2, "_nodal": passes,
        "check_domain": 0 if eps else passes, "resolvent": passes if eps else 0,
    }


MESHES = st.one_of(
    st.builds(build_interval, st.integers(2, 12), st.floats(0.5, 2.0)),
    st.builds(build_rectangle, st.integers(2, 5), st.integers(2, 5),
              st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
)


class TestHistoryIndependence:
    @settings(max_examples=40, deadline=None)
    @given(MESHES, st.sampled_from(["N", "T"]), st.floats(-3.0, 0.0),
           st.floats(-1.0, 2.0), st.integers(0, 2**32 - 1))
    def test_refined_solve_matches_direct_solve(self, mesh, trans, log_dt, log_scale, seed):
        # Factor at one diagonal, solve at another: the refined solution is
        # the direct solution of the matrix, to within the
        # forward error a relative residual of 1e-13 allows.
        ops = assemble(mesh)
        rng = np.random.default_rng(seed)
        n = mesh.n_bulk
        physics = Physics(tau=rng.uniform(0.1, 5.0), gamma=rng.uniform(0.0, 5.0))
        dt = 10.0 ** log_dt
        c = step_coefficients(ops, physics, dt)
        lam_bar = ops.lumped_total * rng.uniform(-1.0, 2.0, n) * 10.0 ** log_scale
        lam = ops.lumped_total * rng.uniform(-1.0, 2.0, n)
        ops.block_template.factor(c, lam_bar)
        rhs = rng.standard_normal(2 * n)
        x = np.concatenate(solve_block_system(ops, c, rhs, lam, trans=trans))
        A = jacobian_reference(ops, physics, dt, lam)
        if trans == "T":
            A = A.T.tocsc()
        cond = np.linalg.cond(A.toarray())
        assert relative_error(x, spla.spsolve(A, rhs)) <= 1e-13 * cond

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_stalled_refinement_refactors(self, system, trans, factor_log):
        # A factor taken far from the current diagonal stalls the
        # refinement; the solve rebuilds it once and still matches.
        ops, lam, rng = system
        c = step_coefficients(ops)
        ops.block_template.factor(c, lam + 1e3 * ops.lumped_total)
        rhs = rng.standard_normal(2 * ops.mesh.n_bulk)
        x = np.concatenate(solve_block_system(ops, c, rhs, lam, trans=trans))
        A = jacobian_reference(ops, PHYSICS, DT, lam)
        ref = spla.spsolve(A.T.tocsc() if trans == "T" else A, rhs)
        assert relative_error(x, ref) <= 1e-12
        assert factor_log.step_factors == 2


    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_solve_stops_at_the_round_off_floor(self, trans):
        # A right-hand side along the smallest singular direction puts the
        # attainable relative residual near eps * cond(A), about 1e-12
        # here, above 1e-13.  The refinement stalls there on a fresh
        # factor, and the solve accepts it as round-off instead of raising.
        x, v, cond = floor_solve(trans)
        assert relative_error(x, v) <= 1e-13 * cond


def floor_solve(trans):
    """A solve with a right-hand side along the smallest singular direction
    v of a 12-cell interval's step matrix: (x, v, cond(A))."""
    ops = assemble(build_interval(12, 1.0))
    rng = np.random.default_rng(7)
    lam = -30.0 * ops.lumped_total * rng.uniform(-1.0, 2.0, ops.mesh.n_bulk)
    dt = 100.0
    A = jacobian_reference(ops, PHYSICS, dt, lam).toarray()
    if trans == "T":
        A = A.T
    _, sv, vt = np.linalg.svd(A)
    x = np.concatenate(solve_block_system(
        ops, step_coefficients(ops, PHYSICS, dt), A @ vt[-1], lam, trans=trans,
    ))
    return x, vt[-1], sv[0] / sv[-1]


@pytest.fixture
def norm_reads(monkeypatch):
    """Counts the reads of the template's Frobenius norm, which only the
    round-off test of a stalled refinement makes."""
    reads = []
    norm = BlockTemplate.norm
    monkeypatch.setattr(BlockTemplate, "norm", lambda self: reads.append(1) or norm(self))
    return reads


class TestRoundOffTest:
    def test_norm_is_the_frobenius_norm(self, system):
        ops, lam, _ = system
        template = ops.block_template
        A = template.fill(step_coefficients(ops), lam)
        assert template.norm() == pytest.approx(np.linalg.norm(entries(A)), rel=1e-14)
        assert template.norm() == pytest.approx(
            spla.norm(jacobian_reference(ops, PHYSICS, DT, lam)), rel=1e-14)

    @pytest.mark.parametrize("trans", ["N", "T"])
    def test_stall_at_the_floor_is_accepted(self, trans, norm_reads):
        x, v, cond = floor_solve(trans)
        assert norm_reads
        assert relative_error(x, v) <= 1e-13 * cond

    def test_stall_above_the_floor_raises(self, run, monkeypatch, norm_reads):
        problem, _, u, base, _ = run
        stalled_refinement(monkeypatch, problem.ops)
        with pytest.raises(SolverError, match="refinement stalled") as err:
            linearized_solve(problem, base, u)
        assert err.value.step == 1
        assert norm_reads



def _spinodal(scheme):
    problem = make_problem(n_cells=32, T=10.0, N=2, gamma=0.0, scheme=scheme)
    rng = np.random.default_rng(3)
    return problem, PairField.from_bulk(problem.mesh, rng.uniform(-0.8, 0.8, problem.mesh.n_bulk))


def _near_separation():
    problem = make_problem(kind="logarithmic", n_cells=24, T=0.2, N=10)
    return problem, cosine_ic(problem.mesh, amplitude=0.97, waves=2.0)


@pytest.mark.parametrize("case", [
    _near_separation,
    lambda: _spinodal("fully-implicit"),
    lambda: _spinodal("convex-splitting"),
], ids=["logarithmic-near-separation", "spinodal-large-dt", "convex-splitting"])
def test_chord_refactors_and_converges(case, factor_log, monkeypatch):
    # Runs where the live factor goes stale within a step: chord Newton
    # rebuilds it, converges, keeps the mean ODE, and lands on the state
    # a run that refactors at every iteration finds.
    problem, phi0 = case()
    u = ControlPair.constant(problem.mesh, problem.grid, 0.0, 0.0)
    traj = solve(problem, phi0, u)
    assert factor_log.step_factors >= 2
    assert np.abs(mean_ode_residual(traj, u, problem.ops, problem.physics.gamma)).max() <= 1e-9
    monkeypatch.setattr(forward, "CHORD_RHO", 0.0)
    newton = solve(problem, phi0, u)
    assert np.abs(traj.phi - newton.phi).max() <= 1e-9


def nan_second_derivative(monkeypatch, ops):
    nodal = Problem._nodal

    def patched(self, spec, r):
        return nodal(self, spec, r)[0], np.full_like(r, np.nan)

    monkeypatch.setattr(Problem, "_nodal", patched)


def _fresh_template(monkeypatch, ops):
    """Drop the operators' template, and with it the live factor, so that
    the next solve must build a factor."""
    if ops is not None:
        monkeypatch.delitem(vars(ops), "block_template", raising=False)


def last_column(template):
    """The stored entries of the last column of what a factorization reads,
    writable: a sparse template's matrix, or a dense template's band array,
    whose last column is also the last in node order (mu_{n-1})."""
    A = template.matrix
    return A.data[A.indptr[-2]:] if sp.issparse(A) else template.banded[:, -1]


def singular_factor(monkeypatch, ops):
    """Every step factorization meets a zero last column, which no refill
    of the diagonal lambda touches: SuperLU and LAPACK each find an exactly
    zero pivot."""
    _fresh_template(monkeypatch, ops)
    factor = BlockTemplate.factor

    def singular(template, c, lam):
        template.fill(c, lam)
        last_column(template)[:] = 0.0
        factor(template, c, lam)

    monkeypatch.setattr(BlockTemplate, "factor", singular)


class ScaledFactor:
    """Solves as a factor of ``scale`` A does, given a factor of A."""

    def __init__(self, lu, scale):
        self.lu, self.scale = lu, scale

    def solve(self, rhs, trans="N"):
        return self.lu.solve(rhs, trans=trans) / self.scale


def scaled_factors(monkeypatch, ops, scale):
    """Every step factor is a factor of ``scale`` A."""
    _fresh_template(monkeypatch, ops)
    factor = BlockTemplate.factor

    def scaled(template, c, lam):
        factor(template, c, lam)
        template.lu = ScaledFactor(template.lu, scale)

    monkeypatch.setattr(BlockTemplate, "factor", scaled)


def stalled_refinement(monkeypatch, ops):
    """Every step factor is a factor of 10 A: each sweep leaves 90 % of the
    residual, on a fresh factor too."""
    scaled_factors(monkeypatch, ops, 10.0)


def nan_factor(monkeypatch, ops):
    """Every step factor's solve returns NaN."""
    scaled_factors(monkeypatch, ops, np.nan)


FAULTS = [nan_second_derivative, singular_factor, nan_factor]


@pytest.mark.parametrize("fault", FAULTS)
class TestFaultInjection:
    def test_forward_fails_on_first_newton_iteration(self, run, fault, monkeypatch):
        problem, phi0, u, _, _ = run
        fault(monkeypatch, problem.ops)
        with pytest.raises(SolverError, match="Newton iteration 1:") as err:
            solve(problem, phi0, u)
        assert err.value.step == 1

    def test_linearized_solve(self, run, fault, monkeypatch):
        problem, _, u, base, _ = run
        fault(monkeypatch, problem.ops)
        with pytest.raises(SolverError) as err:
            linearized_solve(problem, base, u)
        assert err.value.step == 1

    def test_adjoint_solve(self, run, fault, monkeypatch):
        problem, _, _, base, cost = run
        fault(monkeypatch, problem.ops)
        with pytest.raises(SolverError) as err:
            adjoint_solve(problem, base, cost)
        assert err.value.step == problem.grid.N

    def test_simulate_exits_3(self, tmp_path, fault, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        fault(monkeypatch, None)
        assert main(["simulate", "-c", write_yaml(tmp_path, copy.deepcopy(MINIMAL))]) == 3
        assert "solver error:" in capsys.readouterr().err


@pytest.mark.parametrize("solver, message", [
    (lambda problem, phi0, u, base, cost: solve(problem, phi0, u),
     "step 1/8 failed: Newton iteration 1: linear solve returned non-finite values"),
    (lambda problem, phi0, u, base, cost: linearized_solve(problem, base, u),
     "linear solve at step 1 returned non-finite values"),
    (lambda problem, phi0, u, base, cost: adjoint_solve(problem, base, cost),
     "linear solve at step 8 returned non-finite values"),
], ids=["forward", "linearized", "adjoint"])
def test_nan_factor_names_the_failed_solve(run, monkeypatch, solver, message):
    problem = run[0]
    nan_factor(monkeypatch, problem.ops)
    with pytest.raises(SolverError) as err:
        solver(*run)
    assert str(err.value) == message


def test_nan_diagonal_names_node_and_step(run, monkeypatch):
    # The live factor from the fixture's run would serve the solve; the
    # diagonal is checked before it is used.
    problem, _, u, base, _ = run
    nan_second_derivative(monkeypatch, problem.ops)
    with pytest.raises(SolverError, match=r"at step 1: non-finite Jacobian diagonal at node 0"):
        linearized_solve(problem, base, u)


class TestStalledRefinement:
    def test_forward(self, run, monkeypatch):
        problem, phi0, u, _, _ = run
        stalled_refinement(monkeypatch, problem.ops)
        with pytest.raises(SolverError, match="did not converge") as err:
            solve(problem, phi0, u)
        assert err.value.step == 1

    def test_linearized_solve(self, run, monkeypatch):
        problem, _, u, base, _ = run
        stalled_refinement(monkeypatch, problem.ops)
        with pytest.raises(SolverError, match="refinement stalled") as err:
            linearized_solve(problem, base, u)
        assert err.value.step == 1

    def test_adjoint_solve(self, run, monkeypatch):
        problem, _, _, base, cost = run
        stalled_refinement(monkeypatch, problem.ops)
        with pytest.raises(SolverError, match="refinement stalled") as err:
            adjoint_solve(problem, base, cost)
        assert err.value.step == problem.grid.N

    def test_simulate_exits_3(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        stalled_refinement(monkeypatch, None)
        assert main(["simulate", "-c", write_yaml(tmp_path, copy.deepcopy(MINIMAL))]) == 3
        assert "solver error:" in capsys.readouterr().err
