"""Discrete paired bulk/boundary fields and the coupled FEM operators.

A pair (z, z_Gamma) with independent components discretizes the product
space of square-integrable bulk and boundary functions; a conforming
pair, whose boundary component is the trace of the bulk one, discretizes
the subspace with matching traces.  One degree of freedom per bulk node;
boundary values of conforming pairs are read through the trace map, so
the trace constraint is structural rather than penalized.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .mesh import (
    BulkSurfaceMesh,
    boundary_segment_lengths,
    element_measures,
    trace,
)


@dataclass
class PairField:
    """Bulk nodal values paired with boundary nodal values.

    ``conforming`` means boundary == bulk[trace_map] exactly.
    """

    bulk: np.ndarray
    boundary: np.ndarray
    conforming: bool = False

    @classmethod
    def from_bulk(cls, mesh: BulkSurfaceMesh, bulk_values) -> "PairField":
        """Conforming pair whose boundary part is the trace of the bulk part."""
        bulk_values = np.asarray(bulk_values, dtype=float)
        return cls(bulk_values, trace(mesh, bulk_values), conforming=True)

    @classmethod
    def constant(cls, mesh: BulkSurfaceMesh, value: float) -> "PairField":
        return cls.from_bulk(mesh, np.full(mesh.n_bulk, float(value)))

    def check_shapes(self, mesh: BulkSurfaceMesh):
        if self.bulk.shape != (mesh.n_bulk,):
            raise ValueError(
                f"bulk field has shape {self.bulk.shape}, mesh has {mesh.n_bulk} nodes"
            )
        if self.boundary.shape != (mesh.n_boundary,):
            raise ValueError(
                f"boundary field has shape {self.boundary.shape}, "
                f"mesh has {mesh.n_boundary} boundary nodes"
            )


class CoupledOperators:
    """P1 mass/stiffness matrices for the coupled bulk/surface problem.

    All four public matrices act on bulk-indexed vectors; the surface
    matrices have support only on trace-mapped dofs, so coupled forms
    assemble by plain addition (``M_total``, ``K_total``).  Boundary-indexed
    copies (``M_gamma``, ``K_gamma``) serve inner products of fields that
    live on the boundary alone, e.g. boundary controls.
    """

    def __init__(self, mesh: BulkSurfaceMesh):
        self.mesh = mesh
        n = mesh.n_bulk
        nb = mesh.n_boundary

        self.M_bulk, self.K_bulk = _assemble_bulk(mesh)
        self.M_gamma, self.K_gamma = _assemble_boundary(mesh)

        # Scatter matrix P: boundary dofs -> bulk dofs, P[i, trace_map[i]] = 1.
        self.P = sp.csr_matrix(
            (np.ones(nb), (np.arange(nb), mesh.trace_map)), shape=(nb, n)
        )
        self.M_surf = (self.P.T @ self.M_gamma @ self.P).tocsr()
        self.K_surf = (self.P.T @ self.K_gamma @ self.P).tocsr()

        self.M_total = (self.M_bulk + self.M_surf).tocsr()
        self.K_total = (self.K_bulk + self.K_surf).tocsr()

        # Lumped diagonals (row sums); used for nodal nonlinearities and
        # for the mass-weighted residual norms.
        self.lumped_bulk = np.asarray(self.M_bulk.sum(axis=1)).ravel()
        self.lumped_gamma = np.asarray(self.M_gamma.sum(axis=1)).ravel()
        self.lumped_surf = np.zeros(n)
        self.lumped_surf[mesh.trace_map] = self.lumped_gamma
        self.lumped_total = self.lumped_bulk + self.lumped_surf

        self.measure = mesh.volume + mesh.surface

    @cached_property
    def block_template(self) -> "BlockTemplate":
        """Fixed pattern of the 2n x 2n step systems, built on first use."""
        return BlockTemplate(self.M_total, self.K_total)

    def scatter(self, boundary_values: np.ndarray) -> np.ndarray:
        """Embed a boundary-indexed vector into bulk indexing (zeros elsewhere)."""
        out = np.zeros(self.mesh.n_bulk)
        out[self.mesh.trace_map] = boundary_values
        return out


class BlockTemplate:
    """CSC matrix whose coefficients are refilled in place for every step system.

    Every block system of the time stepper has the form

        [[a11 M + b11 K,           a12 M + b12 K],
         [a21 M + b21 K + diag(l), a22 M + b22 K]]

    with M = M_total and K = K_total.  All four blocks share the union of
    the patterns of M, K and the identity, so one pattern serves every
    coefficient set; per slot the template keeps its M value, its K value
    and its block, plus the slots of the lower-left diagonal.
    """

    def __init__(self, M, K):
        n = M.shape[0]
        S = abs(M) + abs(K) + sp.identity(n, format="csr")
        self.matrix = sp.bmat([[S, S], [S, S]], format="csc")
        rows = self.matrix.indices
        cols = np.repeat(np.arange(2 * n), np.diff(self.matrix.indptr))
        self.m = np.asarray(M[rows % n, cols % n]).ravel()
        self.k = np.asarray(K[rows % n, cols % n]).ravel()
        self.block = (2 * (rows >= n) + (cols >= n)).astype(np.int8)
        self.diag = np.flatnonzero(rows - n == cols)

    def fill(self, a, b, lam=None):
        """Write the blocks a_ij M + b_ij K (+ diag(lam) in block 21) into the
        template, with a and b listed as (11, 12, 21, 22); returns the matrix."""
        data = self.matrix.data
        np.multiply(np.take(a, self.block), self.m, out=data)
        data += np.take(b, self.block) * self.k
        if lam is not None:
            data[self.diag] += lam
        return self.matrix


def assemble(mesh: BulkSurfaceMesh) -> CoupledOperators:
    """Assemble the four coupled matrices for a mesh."""
    return CoupledOperators(mesh)


def _assemble_bulk(mesh):
    measures = element_measures(mesh)
    if mesh.dim == 1:
        elems = mesh.bulk_elements
        h = measures
        m_loc = np.einsum("e,ij->eij", h / 6.0, np.array([[2.0, 1.0], [1.0, 2.0]]))
        k_loc = np.einsum("e,ij->eij", 1.0 / h, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    else:
        elems = mesh.bulk_elements
        coords = mesh.bulk_nodes[elems]
        area = measures
        # Gradients of the P1 hat functions: grad N_i = rot(edge opposite i) / 2A.
        e0 = coords[:, 2] - coords[:, 1]
        e1 = coords[:, 0] - coords[:, 2]
        e2 = coords[:, 1] - coords[:, 0]
        edges = np.stack([e0, e1, e2], axis=1)
        grads = np.stack([-edges[:, :, 1], edges[:, :, 0]], axis=2)
        grads /= (2.0 * area)[:, None, None]
        k_loc = np.einsum("e,eik,ejk->eij", area, grads, grads)
        m_ref = (np.ones((3, 3)) + np.eye(3)) / 12.0
        m_loc = np.einsum("e,ij->eij", area, m_ref)
    M = _accumulate(m_loc, elems, mesh.n_bulk)
    K = _accumulate(k_loc, elems, mesh.n_bulk)
    return M, K


def _assemble_boundary(mesh):
    nb = mesh.n_boundary
    if mesh.dim == 1:
        # Counting measure: unit weight per endpoint, no tangential direction.
        M = sp.identity(nb, format="csr")
        K = sp.csr_matrix((nb, nb))
        return M, K
    seg = mesh.boundary_elements
    h = boundary_segment_lengths(mesh)
    m_loc = np.einsum("e,ij->eij", h / 6.0, np.array([[2.0, 1.0], [1.0, 2.0]]))
    k_loc = np.einsum("e,ij->eij", 1.0 / h, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    M = _accumulate(m_loc, seg, nb)
    K = _accumulate(k_loc, seg, nb)
    return M, K


def _accumulate(local, connectivity, n):
    nloc = connectivity.shape[1]
    rows = np.repeat(connectivity, nloc, axis=1).ravel()
    cols = np.tile(connectivity, (1, nloc)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def mean(field: PairField, ops: CoupledOperators) -> float:
    """Extended mean value: (int_Omega z + int_Gamma z_Gamma) / (|Omega| + |Gamma|)."""
    field.check_shapes(ops.mesh)
    total = ops.lumped_bulk @ field.bulk + ops.lumped_gamma @ field.boundary
    return float(total / ops.measure)


def norm_H(field: PairField, ops: CoupledOperators) -> float:
    """Norm of the product space of bulk and boundary L2 functions."""
    field.check_shapes(ops.mesh)
    sq = field.bulk @ (ops.M_bulk @ field.bulk) + field.boundary @ (
        ops.M_gamma @ field.boundary
    )
    return float(np.sqrt(max(sq, 0.0)))


def norm_V(field: PairField, ops: CoupledOperators) -> float:
    """H1-type norm; defined for conforming pairs only."""
    if not field.conforming:
        raise ValueError("norm_V requires a conforming pair")
    field.check_shapes(ops.mesh)
    sq = (
        field.bulk @ (ops.M_bulk @ field.bulk)
        + field.boundary @ (ops.M_gamma @ field.boundary)
        + field.bulk @ (ops.K_total @ field.bulk)
    )
    return float(np.sqrt(max(sq, 0.0)))
