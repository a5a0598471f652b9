"""Bulk meshes with an explicit boundary sub-mesh.

Supported domains are the interval [0, L] (boundary: the two endpoints)
and the axis-aligned rectangle [0, Lx] x [0, Ly] (boundary: a closed
polyline of segments).  Meshes are immutable after construction and safe
to share between threads.
"""

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class BulkSurfaceMesh:
    """Bulk triangulation plus its boundary sub-mesh.

    Attributes
    ----------
    dim : int
        Spatial dimension, 1 or 2.
    bulk_nodes : ndarray, shape (n_bulk, dim)
        Node coordinates.
    bulk_elements : ndarray, shape (n_elem, dim + 1)
        Node indices per element (segments in 1D, triangles in 2D).
    boundary_elements : ndarray
        Boundary node index tuples: shape (2, 1) in 1D (single nodes),
        (n_bseg, 2) in 2D (closed polyline segments).  Indices refer to
        the boundary numbering, not the bulk one.
    trace_map : ndarray, shape (n_boundary,)
        Injective map boundary node index -> bulk node index.
    volume : float
        |Omega|.
    surface : float
        |Gamma|; the counting measure 2 in 1D, polyline length in 2D.
    """

    dim: int
    bulk_nodes: np.ndarray
    bulk_elements: np.ndarray
    boundary_elements: np.ndarray
    trace_map: np.ndarray
    volume: float
    surface: float

    def __post_init__(self):
        for name in ("bulk_nodes", "bulk_elements", "boundary_elements", "trace_map"):
            getattr(self, name).setflags(write=False)
        if len(np.unique(self.trace_map)) != len(self.trace_map):
            raise ValueError("trace_map must be injective")

    @property
    def n_bulk(self) -> int:
        return self.bulk_nodes.shape[0]

    @property
    def n_boundary(self) -> int:
        return self.trace_map.shape[0]

    def summary(self) -> str:
        """One-line description used in CLI reports."""
        return (
            f"{self.dim}D mesh: {self.n_bulk} bulk nodes, "
            f"{self.bulk_elements.shape[0]} elements, "
            f"{self.n_boundary} boundary nodes, "
            f"volume {self.volume:g}, surface {self.surface:g}"
        )


def check_interval(n_cells: int, length: float):
    """Raise ValueError unless ``build_interval`` accepts these arguments."""
    if n_cells < 1:
        raise ValueError(f"n_cells must be >= 1, got {n_cells}")
    if not 0 < length < np.inf:
        raise ValueError(f"length must be positive and finite, got {length}")


def build_interval(n_cells: int, length: float) -> BulkSurfaceMesh:
    """Uniform mesh of [0, length] with n_cells segments.

    The boundary consists of the two endpoints; boundary integrals use
    the counting measure (weight 1 per endpoint), so surface == 2.
    """
    check_interval(n_cells, length)
    nodes = np.linspace(0.0, length, n_cells + 1).reshape(-1, 1)
    elements = np.column_stack([np.arange(n_cells), np.arange(1, n_cells + 1)])
    boundary_elements = np.array([[0], [1]])
    trace_map = np.array([0, n_cells])
    return BulkSurfaceMesh(
        dim=1,
        bulk_nodes=nodes,
        bulk_elements=elements,
        boundary_elements=boundary_elements,
        trace_map=trace_map,
        volume=float(length),
        surface=2.0,
    )


def check_rectangle(nx: int, ny: int, Lx: float, Ly: float):
    """Raise ValueError unless ``build_rectangle`` accepts these arguments."""
    if nx < 1 or ny < 1:
        raise ValueError(f"nx, ny must be >= 1, got ({nx}, {ny})")
    if not (0 < Lx < np.inf and 0 < Ly < np.inf):
        raise ValueError(f"side lengths must be positive and finite, got ({Lx}, {Ly})")


def build_rectangle(nx: int, ny: int, Lx: float, Ly: float) -> BulkSurfaceMesh:
    """Structured triangulation of [0, Lx] x [0, Ly].

    Each grid cell is split into two triangles.  The boundary is the
    counterclockwise perimeter polyline starting at the origin.
    """
    check_rectangle(nx, ny, Lx, Ly)

    xs = np.linspace(0.0, Lx, nx + 1)
    ys = np.linspace(0.0, Ly, ny + 1)
    X, Y = np.meshgrid(xs, ys, indexing="ij")
    nodes = np.column_stack([X.ravel(), Y.ravel()])

    # Node (i, j) is nid[i, j]; each cell's two triangles in (i, j) order.
    nid = np.arange((nx + 1) * (ny + 1)).reshape(nx + 1, ny + 1)
    v00, v10, v01, v11 = nid[:-1, :-1], nid[1:, :-1], nid[:-1, 1:], nid[1:, 1:]
    elements = np.stack([v00, v10, v11, v00, v11, v01], axis=-1).reshape(-1, 3)

    # Perimeter bulk indices, counterclockwise from (0, 0), no repeats.
    trace_map = np.concatenate([nid[:-1, 0], nid[-1, :-1], nid[:0:-1, -1], nid[0, :0:-1]])
    nb = len(trace_map)
    boundary_elements = np.column_stack([np.arange(nb), (np.arange(nb) + 1) % nb])

    return BulkSurfaceMesh(
        dim=2,
        bulk_nodes=nodes,
        bulk_elements=elements,
        boundary_elements=boundary_elements,
        trace_map=trace_map,
        volume=float(Lx * Ly),
        surface=float(2.0 * (Lx + Ly)),
    )


def trace(mesh: BulkSurfaceMesh, bulk_values: np.ndarray) -> np.ndarray:
    """Restrict a bulk nodal vector to the boundary nodes."""
    bulk_values = np.asarray(bulk_values)
    if bulk_values.shape[-1] != mesh.n_bulk:
        raise ValueError(
            f"expected {mesh.n_bulk} bulk values, got {bulk_values.shape[-1]}"
        )
    return bulk_values[..., mesh.trace_map]


def element_measures(mesh: BulkSurfaceMesh) -> np.ndarray:
    """Length (1D) or area (2D) of every bulk element."""
    coords = mesh.bulk_nodes[mesh.bulk_elements]
    if mesh.dim == 1:
        return np.abs(coords[:, 1, 0] - coords[:, 0, 0])
    d1 = coords[:, 1, :] - coords[:, 0, :]
    d2 = coords[:, 2, :] - coords[:, 0, :]
    return 0.5 * np.abs(d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])


def boundary_segment_lengths(mesh: BulkSurfaceMesh) -> np.ndarray:
    """Arclengths of the boundary polyline segments (2D only)."""
    if mesh.dim != 2:
        raise ValueError("boundary segments exist only in 2D")
    pts = mesh.bulk_nodes[mesh.trace_map]
    seg = mesh.boundary_elements
    return np.linalg.norm(pts[seg[:, 1]] - pts[seg[:, 0]], axis=1)
