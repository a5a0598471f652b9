import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import lapack
from hypothesis import given, settings
from hypothesis import strategies as st

import cho
from cho.config import preset_config
from cho.errors import ValidationError
from cho.mesh import build_interval, build_rectangle
from cho.spaces import DENSE_MAX, BandLU, ControlPair, PairField, assemble

from test_loop_references import gather_band_factor


@pytest.fixture(scope="module")
def interval_ops():
    mesh = build_interval(16, 1.0)
    return mesh, assemble(mesh)


@pytest.fixture(scope="module")
def rect_ops():
    mesh = build_rectangle(4, 4, 1.0, 1.0)
    return mesh, assemble(mesh)


def hand_integral_p1_squared_1d(mesh, values):
    """Exact integral of the squared P1 interpolant on an interval mesh."""
    total = 0.0
    for i, j in mesh.bulk_elements:
        h = abs(mesh.bulk_nodes[j, 0] - mesh.bulk_nodes[i, 0])
        vi, vj = values[i], values[j]
        total += h * (vi * vi + vi * vj + vj * vj) / 3.0
    return total


class TestAssemble:
    def test_single_segment_stiffness(self):
        # One P1 segment of length 1: K = [[1, -1], [-1, 1]].
        ops = assemble(build_interval(1, 1.0))
        assert np.array_equal(ops.K_bulk.toarray(), [[1.0, -1.0], [-1.0, 1.0]])

    def test_mass_forms_measure_domain(self):
        ops = assemble(build_interval(2, 1.0))
        one = np.ones(3)
        assert np.isclose(one @ (ops.M_bulk @ one), 1.0)
        assert np.isclose(one @ (ops.M_surf @ one), 2.0)

    @pytest.mark.parametrize("builder", [
        lambda: build_interval(9, 2.0),
        lambda: build_rectangle(3, 4, 1.0, 2.0),
    ])
    def test_stiffness_annihilates_constants(self, builder):
        ops = assemble(builder())
        c = np.full(ops.mesh.n_bulk, 2.5)
        assert np.abs(ops.K_bulk @ c).max() < 1e-12
        assert np.abs(ops.K_surf @ c).max() < 1e-12

    @pytest.mark.parametrize("builder", [
        lambda: build_interval(7, 1.0),
        lambda: build_rectangle(3, 3, 1.0, 1.0),
    ])
    def test_all_matrices_symmetric_bit_exact(self, builder):
        ops = assemble(builder())
        for A in (ops.M_bulk, ops.K_bulk, ops.M_surf, ops.K_surf):
            assert (A - A.T).nnz == 0

    def test_surface_matrices_supported_on_trace_dofs(self):
        mesh = build_rectangle(4, 4, 1.0, 1.0)
        ops = assemble(mesh)
        interior = np.setdiff1d(np.arange(mesh.n_bulk), mesh.trace_map)
        assert np.abs(ops.M_surf.toarray()[interior]).max() == 0.0
        assert np.abs(ops.K_surf.toarray()[:, interior]).max() == 0.0

    def test_1d_surface_operators(self):
        ops = assemble(build_interval(5, 1.0))
        assert np.array_equal(ops.M_gamma.toarray(), np.eye(2))
        assert ops.K_gamma.nnz == 0

    def test_bulk_mass_form_matches_hand_integration(self):
        mesh = build_interval(8, 1.5)
        ops = assemble(mesh)
        rng = np.random.default_rng(3)
        v = rng.standard_normal(mesh.n_bulk)
        assert np.isclose(v @ (ops.M_bulk @ v), hand_integral_p1_squared_1d(mesh, v))

    def test_2d_mass_form_matches_hand_integration(self):
        # Per triangle: v^T M_e v = A/12 * (sum v_i^2 + (sum v_i)^2).
        mesh = build_rectangle(3, 2, 1.0, 1.0)
        ops = assemble(mesh)
        rng = np.random.default_rng(4)
        v = rng.standard_normal(mesh.n_bulk)
        expected = 0.0
        for tri in mesh.bulk_elements:
            coords = mesh.bulk_nodes[tri]
            d1, d2 = coords[1] - coords[0], coords[2] - coords[0]
            area = 0.5 * abs(d1[0] * d2[1] - d1[1] * d2[0])
            vals = v[tri]
            expected += area / 12.0 * ((vals**2).sum() + vals.sum() ** 2)
        assert np.isclose(v @ (ops.M_bulk @ v), expected)

    def test_boundary_mass_form_is_arclength_integral(self):
        mesh = build_rectangle(2, 2, 2.0, 1.0)
        ops = assemble(mesh)
        one = np.ones(mesh.n_boundary)
        assert np.isclose(one @ (ops.M_gamma @ one), mesh.surface)

    def test_mass_definiteness(self):
        from scipy.linalg import eigvalsh

        ops = assemble(build_rectangle(3, 3, 1.0, 1.0))
        assert eigvalsh(ops.M_bulk.toarray()).min() > 0.0
        assert eigvalsh(ops.M_surf.toarray()).min() > -1e-14


RECTANGLES = st.builds(build_rectangle, st.integers(2, 5), st.integers(2, 5),
                       st.floats(0.5, 2.0), st.floats(0.5, 2.0))
MESHES = st.one_of(
    st.builds(build_interval, st.integers(2, 5), st.floats(0.5, 2.0)), RECTANGLES
)


class TestCouplingMaps:
    @settings(max_examples=30, deadline=None)
    @given(MESHES, st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_maps_equal_the_explicit_forms(self, mesh, rows, seed):
        ops = assemble(mesh)
        rng = np.random.default_rng(seed)
        z = rng.standard_normal((rows, mesh.n_bulk))
        z_G = rng.standard_normal((rows, mesh.n_boundary))
        lumped_total = np.asarray(ops.M_total.sum(axis=1)).ravel()
        P = ops.P.toarray()
        assert np.allclose(ops.lumped_total, lumped_total, rtol=1e-14, atol=0.0)
        for r in range(rows):
            lumped = ops.lumped_bulk * z[r] + P.T @ (ops.lumped_gamma * z_G[r])
            mass = ops.M_bulk @ z[r] + P.T @ (ops.M_gamma @ z_G[r])
            # One row, and the same row inside a stack, agree bit for bit.
            assert np.array_equal(ops.lumped(z[r], z_G[r]), ops.lumped(z, z_G)[r])
            assert np.array_equal(ops.mass(z[r], z_G[r]), ops.mass(z, z_G)[r])
            assert np.allclose(ops.lumped(z[r], z_G[r]), lumped, rtol=1e-14, atol=1e-15)
            assert np.allclose(ops.mass(z[r], z_G[r]), mass, rtol=1e-13, atol=1e-14)
            # A conforming pair couples through the assembled totals.
            tr = z[r][mesh.trace_map]
            assert np.allclose(ops.lumped(z[r], tr), lumped_total * z[r],
                               rtol=1e-14, atol=1e-15)
            assert np.allclose(ops.mass(z[r], tr), ops.M_total @ z[r],
                               rtol=1e-13, atol=1e-14)
            assert np.isclose(ops.mean(z, z_G)[r], ops.mean(z[r], z_G[r]),
                              rtol=1e-14, atol=1e-15)

    @settings(max_examples=30, deadline=None)
    @given(RECTANGLES, st.integers(1, 3), st.integers(0, 2**32 - 1))
    def test_inner_is_symmetric_stack_aware_and_pairs_with_mass(self, mesh, rows, seed):
        ops = assemble(mesh)
        rng = np.random.default_rng(seed)
        z, w = rng.standard_normal((2, rows, mesh.n_bulk))
        z_G, w_G = rng.standard_normal((2, rows, mesh.n_boundary))
        stack = ops.inner(z, z_G, w, w_G)
        assert stack.shape == (rows,)
        assert np.allclose(ops.inner(w, w_G, z, z_G), stack, rtol=1e-13, atol=1e-14)
        tr = w[:, mesh.trace_map]
        for r in range(rows):
            assert np.isclose(ops.inner(z[r], z_G[r], w[r], w_G[r]), stack[r],
                              rtol=1e-14, atol=1e-15)
            # Against a conforming pair the product is the mass coupling.
            assert np.isclose(ops.inner(z[r], z_G[r], w[r], tr[r]),
                              ops.mass(z[r], z_G[r]) @ w[r], rtol=1e-13, atol=1e-14)


class TestPairs:
    @pytest.mark.parametrize("preset", ["default", "rectangle"])
    def test_boundary_is_the_trace_of_the_bulk(self, preset):
        cfg = preset_config(preset)
        mesh = cfg.build_mesh()
        v = np.random.default_rng(0).uniform(-0.5, 0.5, mesh.n_bulk)
        for pair in (PairField(mesh, v), PairField.from_bulk(mesh, v),
                     PairField.constant(mesh, 0.25), cfg.build_initial(mesh)):
            assert pair.bulk.dtype == float
            assert np.array_equal(pair.boundary, pair.bulk[mesh.trace_map])

    def test_pair_stays_conforming_when_its_source_changes(self, interval_ops):
        mesh, _ = interval_ops
        values = np.zeros(mesh.n_bulk)
        pair = PairField(mesh, values)
        values[mesh.trace_map] = 5.0
        assert np.all(pair.bulk == 0.0) and np.all(pair.boundary == 0.0)
        with pytest.raises(ValueError):
            pair.boundary[0] = 5.0

    @pytest.mark.parametrize("values", [np.zeros(18), np.zeros((1, 17))])
    def test_wrong_bulk_shape_rejected(self, interval_ops, values):
        mesh, _ = interval_ops
        with pytest.raises(ValidationError, match="bulk field has shape"):
            PairField.from_bulk(mesh, values)

    def test_control_pair_keeps_its_values_when_its_source_changes(self, interval_ops):
        # A NaN written after construction would escape the finiteness check.
        mesh, _ = interval_ops
        u, uG = np.zeros((3, mesh.n_bulk)), np.zeros((3, mesh.n_boundary))
        pair = ControlPair(u, uG)
        u[0, 0] = uG[0, 0] = np.nan
        assert np.all(pair.u == 0.0) and np.all(pair.uG == 0.0)
        for part in (pair.u, pair.uG):
            with pytest.raises(ValueError):
                part[0, 0] = np.nan

    def test_one_control_pair_type(self):
        assert ControlPair is cho.control.ControlPair is cho.ControlPair


class TestMean:
    def test_constant_pair(self, interval_ops):
        mesh, ops = interval_ops
        one = PairField.constant(mesh, 1.0)
        assert np.isclose(ops.mean(one.bulk, one.boundary), 1.0)

    def test_boundary_only_field(self):
        # z = 0 in the bulk, 1 on the boundary: (0 + 2) / (1 + 2).
        mesh = build_interval(4, 1.0)
        ops = assemble(mesh)
        assert np.isclose(ops.mean(np.zeros(5), np.ones(2)), 2.0 / 3.0)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_mean_zero_identity(self, seed):
        # Subtracting the extended mean makes the extended integral vanish.
        mesh = build_interval(12, 1.0)
        ops = assemble(mesh)
        rng = np.random.default_rng(seed)
        field = PairField.from_bulk(mesh, rng.uniform(-5, 5, mesh.n_bulk))
        m = ops.mean(field.bulk, field.boundary)
        shifted = PairField.from_bulk(mesh, field.bulk - m)
        assert abs(ops.mean(shifted.bulk, shifted.boundary) * ops.measure) < 1e-10

    def test_size_mismatch(self, interval_ops):
        mesh, _ = interval_ops
        with pytest.raises(ValidationError, match="mesh has 17 nodes"):
            PairField(mesh, np.zeros(3))


def norm_H_sq(ops, v):
    """Squared H norm of the conforming pair (v, v|Gamma)."""
    tr = v[..., ops.mesh.trace_map]
    return ops.inner(v, tr, v, tr)


class TestNorms:
    def test_zero_field(self, interval_ops):
        mesh, ops = interval_ops
        z = PairField.constant(mesh, 0.0)
        assert ops.inner(z.bulk, z.boundary, z.bulk, z.boundary) == 0.0

    def test_constant_measures_domain(self):
        mesh = build_interval(4, 1.0)
        ops = assemble(mesh)
        assert np.isclose(norm_H_sq(ops, np.ones(mesh.n_bulk)), 3.0)

    @pytest.mark.parametrize("builder", [
        lambda: build_interval(16, 1.0),
        lambda: build_rectangle(4, 4, 1.0, 1.0),
    ])
    def test_poincare_type_equivalence(self, builder):
        # ||v||_H^2 <= C (|v|_grad^2 + mean^2): fit C on one batch, then a
        # fresh batch must satisfy the fitted constant with 50% headroom.
        mesh = builder()
        ops = assemble(mesh)

        def ratios(seed, n=100):
            rng = np.random.default_rng(seed)
            fields = [rng.standard_normal(mesh.n_bulk) + rng.uniform(-2, 2)
                      for _ in range(n)]
            fields.append(np.ones(mesh.n_bulk))   # extremal: constant field
            out = []
            for v in fields:
                f = PairField.from_bulk(mesh, v)
                semi = float(v @ (ops.K_total @ v))
                out.append(norm_H_sq(ops, v) / (semi + ops.mean(f.bulk, f.boundary) ** 2))
            return np.array(out)

        fitted = ratios(0).max()
        assert np.all(ratios(1) <= 1.5 * fitted)
        # The constant field realizes |Omega| + |Gamma| exactly.
        assert fitted >= ops.measure - 1e-9


class TestTemplateStorage:
    @pytest.mark.parametrize("mesh", [
        build_interval(DENSE_MAX // 2 - 1, 1.0), build_interval(DENSE_MAX // 2, 1.0),
        build_rectangle(8, 8, 1.0, 1.0), build_rectangle(16, 16, 1.0, 1.0),
    ], ids=["interval-at-crossover", "interval-above", "8x8", "16x16"])
    def test_storage_follows_the_crossover(self, mesh):
        template = assemble(mesh).block_template
        dense = 2 * mesh.n_bulk <= DENSE_MAX
        assert template.dense == dense
        assert template.exact == (dense and mesh.dim == 1)
        assert isinstance(template.matrix, np.ndarray) == dense
        assert sp.issparse(template.matrix) != dense

    @pytest.mark.parametrize("mesh, bandwidths", [
        (build_interval(12, 1.0), 3), (build_interval(DENSE_MAX // 2 - 1, 1.0), 3),
        (build_rectangle(8, 8, 1.0, 1.0), 21),
    ], ids=["interval-12", "interval-at-crossover", "8x8"])
    @pytest.mark.parametrize("trans", ["N", "T"])
    @pytest.mark.parametrize("columns", [None, 3])
    def test_band_factor_solves_as_dense_lapack(self, mesh, bandwidths, trans, columns):
        # In node-interleaved order the pattern's half-bandwidths are 3 on
        # an interval and 2 w + 1 on a mesh whose node-order pattern has
        # half-bandwidth w: w = nx + 2 = 10 on the 8 x 8 rectangle.
        template = assemble(mesh).block_template
        n = mesh.n_bulk
        rng = np.random.default_rng(4)
        lam = rng.uniform(-1.0, 2.0, n) / n
        template.factor((21.0, 20.0), lam)
        assert isinstance(template.lu, BandLU)
        assert template.band[:2] == (bandwidths, bandwidths)
        A = np.array(template.fill((21.0, 20.0), lam))
        rhs = rng.standard_normal((2 * n,) if columns is None else (2 * n, columns))
        lu, piv, _ = lapack.dgetrf(A)
        want = lapack.dgetrs(lu, piv, rhs, trans="NT".index(trans))[0]
        got = template.lu.solve(rhs, trans)
        assert got.shape == rhs.shape
        # Both solves are backward stable: they agree to eps cond(A).
        bound = np.finfo(float).eps * np.linalg.cond(A)
        assert np.abs(got - want).max() <= bound * np.abs(want).max()

    @pytest.mark.parametrize("mesh", [
        build_interval(12, 1.0), build_interval(DENSE_MAX // 2 - 1, 1.0),
        build_rectangle(8, 8, 1.0, 1.0),
    ], ids=["interval-12", "interval-at-crossover", "8x8"])
    def test_band_array_factor_is_the_gathered_factor(self, mesh):
        # A factor copies the band array the template built with its
        # coefficients and adds lambda to block 21's diagonal: bitwise the
        # factor gathered from the filled dense array, at the coefficients
        # of dt = 0.05 and 0.025 (tau = gamma = 1), after lambda refills.
        # The dense array keeps the diagonal it was last filled with.
        template = assemble(mesh).block_template
        rng = np.random.default_rng(5)
        for c in ((21.0, 20.0), (41.0, 40.0), (21.0, 20.0)):
            for _ in range(3):
                lam = rng.uniform(-1.0, 2.0, mesh.n_bulk) / mesh.n_bulk
                before = np.array(template.fill(c, 2.0 * lam))
                template.factor(c, lam)
                assert np.array_equal(template.matrix, before)
                template.fill(c, lam)
                want = gather_band_factor(template)
                assert np.array_equal(template.lu.lu, want.lu)
                assert np.array_equal(template.lu.piv, want.piv)

    def test_large_template_allocates_no_dense_array(self):
        # At 64 x 64, 2n = 8450: a dense step matrix would take 571 MB.
        ops = assemble(build_rectangle(64, 64, 1.0, 1.0))
        tracemalloc.start()
        try:
            template = ops.block_template
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert not template.dense and sp.issparse(template.matrix)
        assert peak < 50e6
