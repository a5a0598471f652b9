import numpy as np
import pytest

from cho.mesh import (
    BulkSurfaceMesh,
    boundary_segment_lengths,
    build_interval,
    build_rectangle,
    element_measures,
    trace,
)


class TestBuildInterval:
    def test_uniform_partition(self):
        mesh = build_interval(4, 1.0)
        assert mesh.n_bulk == 5
        assert mesh.volume == 1.0
        assert mesh.surface == 2.0

    def test_single_cell(self):
        mesh = build_interval(1, 2.0)
        assert mesh.n_bulk == 2
        assert mesh.volume == 2.0

    def test_element_measures_sum_to_volume(self):
        mesh = build_interval(10, 1.0)
        h = element_measures(mesh)
        assert np.allclose(h, 0.1)
        assert np.isclose(h.sum(), 1.0)

    @pytest.mark.parametrize("n_cells,length", [(0, 1.0), (2, 0.0), (3, -1.0)])
    def test_rejects_degenerate(self, n_cells, length):
        with pytest.raises(ValueError):
            build_interval(n_cells, length)

    def test_boundary_is_the_two_endpoints(self):
        mesh = build_interval(7, 3.0)
        pts = mesh.bulk_nodes[mesh.trace_map, 0]
        assert set(pts) == {0.0, 3.0}


class TestBuildRectangle:
    def test_unit_square(self):
        mesh = build_rectangle(2, 2, 1.0, 1.0)
        assert mesh.volume == 1.0
        assert mesh.surface == 4.0

    def test_anisotropic_perimeter(self):
        mesh = build_rectangle(1, 1, 1.0, 2.0)
        assert mesh.surface == 6.0

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_refinement_volume_exact(self, n):
        mesh = build_rectangle(n, n, 1.0, 1.0)
        assert np.isclose(element_measures(mesh).sum(), 1.0, rtol=1e-14)

    def test_every_element_positive(self):
        mesh = build_rectangle(3, 5, 2.0, 1.5)
        assert np.all(element_measures(mesh) > 0)

    def test_boundary_polyline_closed(self):
        # Every boundary node is the start of exactly one segment and the
        # end of exactly one segment, and the arclength is the perimeter.
        mesh = build_rectangle(3, 4, 1.0, 2.0)
        seg = mesh.boundary_elements
        starts = np.bincount(seg[:, 0], minlength=mesh.n_boundary)
        ends = np.bincount(seg[:, 1], minlength=mesh.n_boundary)
        assert np.all(starts == 1) and np.all(ends == 1)
        assert np.isclose(boundary_segment_lengths(mesh).sum(), 6.0)

    def test_trace_map_covers_topological_boundary(self):
        mesh = build_rectangle(4, 3, 1.0, 1.0)
        x, y = mesh.bulk_nodes[:, 0], mesh.bulk_nodes[:, 1]
        on_boundary = (
            np.isclose(x, 0) | np.isclose(x, 1.0) | np.isclose(y, 0) | np.isclose(y, 1.0)
        )
        assert set(mesh.trace_map) == set(np.flatnonzero(on_boundary))

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            build_rectangle(0, 2, 1.0, 1.0)
        with pytest.raises(ValueError):
            build_rectangle(2, 2, 1.0, 0.0)

    @pytest.mark.parametrize("nx,ny", [(1, 1), (2, 3), (5, 1), (1, 7), (8, 8), (16, 9), (64, 64)])
    def test_index_arithmetic_is_the_cell_loop(self, nx, ny):
        mesh = build_rectangle(nx, ny, 1.5, 0.7)
        elements, trace_map, boundary_elements = loop_rectangle_indices(nx, ny)
        for got, want in ((mesh.bulk_elements, elements), (mesh.trace_map, trace_map),
                          (mesh.boundary_elements, boundary_elements)):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)


def loop_rectangle_indices(nx, ny):
    """Element, trace-map and boundary-segment arrays of an nx x ny
    rectangle, built cell by cell and node by node."""

    def nid(i, j):
        return i * (ny + 1) + j

    tris = []
    for i in range(nx):
        for j in range(ny):
            v00, v10 = nid(i, j), nid(i + 1, j)
            v01, v11 = nid(i, j + 1), nid(i + 1, j + 1)
            tris.append((v00, v10, v11))
            tris.append((v00, v11, v01))
    loop = (
        [nid(i, 0) for i in range(nx)]
        + [nid(nx, j) for j in range(ny)]
        + [nid(i, ny) for i in range(nx, 0, -1)]
        + [nid(0, j) for j in range(ny, 0, -1)]
    )
    nb = len(loop)
    return (np.array(tris), np.array(loop),
            np.column_stack([np.arange(nb), (np.arange(nb) + 1) % nb]))


class TestTrace:
    def test_constant(self):
        mesh = build_interval(5, 1.0)
        assert np.all(trace(mesh, np.full(6, 3.0)) == 3.0)

    def test_coordinates(self):
        mesh = build_interval(4, 1.0)
        got = trace(mesh, mesh.bulk_nodes[:, 0])
        assert np.array_equal(got, [0.0, 1.0])

    def test_zero(self):
        mesh = build_rectangle(2, 2, 1.0, 1.0)
        assert np.all(trace(mesh, np.zeros(mesh.n_bulk)) == 0.0)

    def test_size_mismatch(self):
        mesh = build_interval(4, 1.0)
        with pytest.raises(ValueError):
            trace(mesh, np.zeros(4))

    def test_round_trip_identity(self):
        # Extending boundary values into the bulk and tracing back is the
        # identity on the boundary values.
        mesh = build_rectangle(3, 3, 1.0, 1.0)
        rng = np.random.default_rng(1)
        boundary_values = rng.standard_normal(mesh.n_boundary)
        extension = rng.standard_normal(mesh.n_bulk)
        extension[mesh.trace_map] = boundary_values
        assert np.array_equal(trace(mesh, extension), boundary_values)


def test_trace_map_injective_enforced():
    with pytest.raises(ValueError, match="injective"):
        BulkSurfaceMesh(
            dim=1,
            bulk_nodes=np.zeros((3, 1)),
            bulk_elements=np.array([[0, 1], [1, 2]]),
            boundary_elements=np.array([[0], [1]]),
            trace_map=np.array([0, 0]),
            volume=1.0,
            surface=2.0,
        )


def test_meshes_are_immutable():
    mesh = build_interval(4, 1.0)
    with pytest.raises(ValueError):
        mesh.bulk_nodes[0, 0] = 5.0
