"""Discrete paired bulk/boundary fields and the coupled FEM operators.

Two kinds of pair discretize two spaces.  A pair (z, z_Gamma) with
independent components discretizes the product space of square-integrable
bulk and boundary functions: the control slabs of ``ControlPair`` and the
rows taken by ``CoupledOperators``.  A ``PairField`` discretizes the
subspace with matching traces: it is built from its bulk values alone, so
its boundary component is their trace by construction.  One degree of
freedom per bulk node; the trace constraint is structural rather than
penalized.
"""

from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from .errors import ValidationError
from .mesh import (
    BulkSurfaceMesh,
    boundary_segment_lengths,
    element_measures,
    trace,
)


class PairField:
    """Bulk nodal values paired with their trace on the boundary nodes.

    Both parts are read-only copies, so the pair stays conforming whatever
    happens to the array it was built from."""

    def __init__(self, mesh: BulkSurfaceMesh, bulk_values):
        self.bulk = np.array(bulk_values, dtype=float)
        if self.bulk.shape != (mesh.n_bulk,):
            raise ValidationError(
                f"bulk field has shape {self.bulk.shape}, mesh has {mesh.n_bulk} nodes"
            )
        self.boundary = trace(mesh, self.bulk)
        self.bulk.flags.writeable = self.boundary.flags.writeable = False

    @classmethod
    def from_bulk(cls, mesh: BulkSurfaceMesh, bulk_values) -> "PairField":
        return cls(mesh, bulk_values)

    @classmethod
    def constant(cls, mesh: BulkSurfaceMesh, value: float) -> "PairField":
        return cls(mesh, np.full(mesh.n_bulk, float(value)))


class ControlPair:
    """Bulk and boundary control slabs: u (N, n_bulk), uG (N, n_boundary).

    Both slabs are read-only copies, so they stay finite whatever happens
    to the arrays they were built from."""

    def __init__(self, u, uG):
        self.u = np.array(u, dtype=float)
        self.uG = np.array(uG, dtype=float)
        if self.u.ndim != 2 or self.uG.ndim != 2 or self.u.shape[0] != self.uG.shape[0]:
            raise ValidationError(
                f"control slabs must be 2D with a common slab count, got "
                f"{self.u.shape} and {self.uG.shape}"
            )
        if not (np.all(np.isfinite(self.u)) and np.all(np.isfinite(self.uG))):
            raise ValidationError("control values must be finite")
        self.u.flags.writeable = self.uG.flags.writeable = False

    @classmethod
    def zeros(cls, mesh, grid) -> "ControlPair":
        return cls(
            np.zeros((grid.N, mesh.n_bulk)), np.zeros((grid.N, mesh.n_boundary))
        )

    @classmethod
    def constant(cls, mesh, grid, value, boundary_value=None) -> "ControlPair":
        if boundary_value is None:
            boundary_value = value
        return cls(
            np.full((grid.N, mesh.n_bulk), float(value)),
            np.full((grid.N, mesh.n_boundary), float(boundary_value)),
        )

    def check(self, mesh, grid, what="control"):
        """Raise ``ValidationError`` unless the slabs are shaped
        (N, n_bulk) and (N, n_boundary) for this mesh and grid."""
        u, ug = self.u, self.uG
        if u.shape != (grid.N, mesh.n_bulk) or ug.shape != (grid.N, mesh.n_boundary):
            raise ValidationError(
                f"{what} slabs have shapes {u.shape}/{ug.shape}, expected "
                f"({grid.N}, {mesh.n_bulk})/({grid.N}, {mesh.n_boundary})"
            )

    def plus(self, other: "ControlPair", scale: float = 1.0) -> "ControlPair":
        return ControlPair(self.u + scale * other.u, self.uG + scale * other.uG)

    def scaled(self, s: float) -> "ControlPair":
        return ControlPair(s * self.u, s * self.uG)

    def sup_norm(self) -> float:
        return float(
            max(np.abs(self.u).max(initial=0.0), np.abs(self.uG).max(initial=0.0))
        )


class CoupledOperators:
    """P1 mass/stiffness matrices for the coupled bulk/surface problem.

    All four public matrices act on bulk-indexed vectors; the surface
    matrices have support only on trace-mapped dofs, so coupled forms
    assemble by plain addition (``M_total``, ``K_total``).  Boundary-indexed
    copies (``M_gamma``, ``K_gamma``) serve inner products of fields that
    live on the boundary alone, e.g. boundary controls.

    ``lumped``, ``mass``, ``integral``, ``mean`` and ``inner`` are the only
    code that pairs a bulk part z with a boundary part z_G.  Each takes one
    row (z of length n_bulk, z_G of length n_boundary) or a stack of rows,
    one pair per row; for a conforming pair z_G is z at ``mesh.trace_map``.
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
        self.lumped_total = self.lumped(np.ones(n), np.ones(nb))

        self.measure = mesh.volume + mesh.surface

    def lumped(self, z, z_G):
        """Bulk-indexed lumped coupling: lumped_bulk * z, plus lumped_gamma * z_G
        added at the trace nodes."""
        out = self.lumped_bulk * z
        out[..., self.mesh.trace_map] += self.lumped_gamma * z_G
        return out

    def mass(self, z, z_G):
        """Bulk-indexed mass coupling: M_bulk z, plus M_gamma z_G added at the
        trace nodes (that is, M_bulk z + P^T M_gamma z_G)."""
        out = (self.M_bulk @ z.T).T
        out[..., self.mesh.trace_map] += (self.M_gamma @ z_G.T).T
        return out

    def integral(self, z, z_G):
        """Lumped integral of z over Omega plus that of z_G over Gamma."""
        return z @ self.lumped_bulk + z_G @ self.lumped_gamma

    def mean(self, z, z_G):
        """Extended mean value (int_Omega z + int_Gamma z_G) / (|Omega| + |Gamma|)."""
        return self.integral(z, z_G) / self.measure

    def inner(self, z, z_G, w, w_G):
        """Inner product of the product space H of bulk and boundary L2
        functions, per row: z . M_bulk w + z_G . M_gamma w_G."""
        return row_inner(self.M_bulk, z, w) + row_inner(self.M_gamma, z_G, w_G)

    @cached_property
    def block_template(self) -> "BlockTemplate":
        """Fixed pattern of the 2n x 2n step systems and their one live
        factor, built on first use."""
        return BlockTemplate(self.M_total, self.K_total, self.mesh.dim == 1)

    @cached_property
    def mass_factor(self):
        """SuperLU factor of ``M_total``, built on first use and kept: every
        solve with the coupled mass matrix goes through it."""
        return spla.splu(self.M_total.tocsc(), permc_spec="MMD_AT_PLUS_A")


# Step matrices of order 2n <= DENSE_MAX are stored dense and factored by
# LAPACK band LU in node-interleaved order: at 2n = 66-162, on one core, a
# BLAS product and a one-column band solve take 4-10 us against 8-35 us for
# the scipy.sparse product and SuperLU solve, and a band factor 4-25 us
# against 13-89 us for a dense getrf.  A band solve of K columns makes K
# triangular band solves: at 2n = 162 and K = 21 it takes 1.8 times a dense
# getrs.  The node-ordered dense product sets the cap: at 2n = 258 it takes
# 11 us against 6 us for the CSC product, while a band factor and solve
# still win there (22 and 14 us against 228 and 47 us for SuperLU).
DENSE_MAX = 200


class BlockTemplate:
    """The one step matrix of every step system, refilled in place.

    It holds the step Jacobian alone: the forward and linearized steps
    solve with it and the adjoint steps with its transpose.  For the step
    coefficients c = (c1, c2) = (1/dt + gamma, tau/dt) the matrix is

        [[c1 M,                K],
         [c2 M + K + diag(l), -M]]

    with M = M_total and K = K_total.  All four blocks share the union of
    the patterns of M, K and the identity, so one pattern serves every
    step; per slot the template keeps its M value, its K part (K in
    blocks 12 and 21, zero elsewhere) and its block, plus the slots of the
    lower-left diagonal in node order.

    The matrix is stored in node order, in one of two storages.  Up to
    order ``DENSE_MAX`` it is a Fortran-ordered ndarray, factored by LAPACK
    band LU (``BandLU``) in the node-interleaved order (phi_0, mu_0, phi_1,
    mu_1, ...), where the pattern's half-bandwidths are ``band``'s kl and
    ku: 3 on an interval, 2 w + 1 on a mesh whose node-order pattern has
    half-bandwidth w.  A dense template also keeps its lambda-free matrix
    in LAPACK's band layout of that order, ``banded``, written with the
    dense array whenever the coefficients change, so that a factorization
    copies it and adds lambda to one row: no gather from the dense array
    and no scatter into the band layout per factor.  Above ``DENSE_MAX``
    it is a CSC matrix, and every step factorization orders it afresh:
    ``splu`` with ``permc_spec="MMD_AT_PLUS_A"`` takes a minimum-degree
    ordering of the pattern of A^T + A.  Either way ``data`` is the flat
    array the slots live in, ``fill(...) @ y`` is the product,
    ``fill(...).T @ y`` the product with the transpose, and
    ``lu.solve(rhs, trans)`` solves with the factor.

    The template holds the step coefficients ``coeffs`` = c of its matrix
    and its one live factor ``lu``, if any.  Only the diagonal of
    block 21 depends on the state: a refill with the coefficients held
    rewrites those n slots alone, from their lambda-free values ``free``,
    and new coefficients rewrite every entry and release ``lu``.  The
    diagonal ``lu`` was factored at is not kept: callers solve with the
    exact refilled matrix and use ``lu`` as a preconditioner.

    ``exact`` tells the solvers to factor every step system at its own
    matrix rather than share ``lu`` across diagonals.  It is True on dense
    templates of an ``interval`` mesh, whose band factor costs less than
    the refinement sweeps and chord iterations a shared factor adds.  On
    the other templates chord Newton rebuilds the shared ``lu`` when a
    correction leaves more than ``forward.CHORD_RHO`` of its residual, or,
    from a step's second correction on a dense template, whose band factor
    costs about one iteration, more than ``forward.CHORD_RHO_BAND``.
    """

    def __init__(self, M, K, interval):
        n = M.shape[0]
        S = abs(M) + abs(K) + sp.identity(n, format="csr")
        pattern = sp.bmat([[S, S], [S, S]], format="csc")
        pattern.sort_indices()
        rows, cols = _slots(pattern)
        self.block = (2 * (rows >= n) + (cols >= n)).astype(np.int8)
        self.m = np.asarray(M[rows % n, cols % n]).ravel()
        self.k = np.asarray(K[rows % n, cols % n]).ravel()
        self.k *= np.take((0.0, 1.0, 1.0, 0.0), self.block)  # K in blocks 12 and 21
        # Slots run column by column, so these are in node order.
        diag = np.flatnonzero(rows - n == cols)
        self.dense = 2 * n <= DENSE_MAX
        if self.dense:
            self.matrix = np.zeros(pattern.shape, order="F")
            self.data = self.matrix.reshape(-1, order="F")
            self.slots = rows + 2 * n * cols
            self.diag = self.slots[diag]
            # Node index i sits at 2 (i mod n) + i div n of the interleaved
            # order.  ``band`` holds the half-bandwidths there, the flat
            # index of each slot in LAPACK's band layout, and the orders.
            position = 2 * (np.arange(2 * n) % n) + np.arange(2 * n) // n
            ri, ci = position[rows], position[cols]
            kl, ku = int((ri - ci).max()), int((ci - ri).max())
            self.band = (kl, ku, np.argsort(position), position)
            # The lambda-free matrix in LAPACK's band layout, rewritten with
            # ``data`` when the coefficients change; ``band_slots`` holds the
            # flat index there of each slot.
            self.banded = np.zeros((2 * kl + ku + 1, 2 * n), order="F")
            self.band_slots = kl + ku + ri - ci + (2 * kl + ku + 1) * ci
        else:
            self.matrix = pattern
            self.data, self.slots, self.diag = pattern.data, slice(None), diag
        self.lu = self.coeffs = self.free = None
        self.exact = self.dense and interval

    def fill(self, c, lam=None):
        """Write the step Jacobian of the coefficients c = (c1, c2), with
        diag(lam) in block 21 when given, into the template; returns the
        matrix."""
        data, c = self.data, tuple(c)
        if c != self.coeffs:
            self.lu, self.coeffs = None, c
            values = np.take((c[0], 0.0, c[1], -1.0), self.block) * self.m + self.k
            data[self.slots] = values
            if self.dense:
                self.banded.reshape(-1, order="F")[self.band_slots] = values
            self.free = data[self.diag]
        data[self.diag] = self.free if lam is None else self.free + lam
        return self.matrix

    def factor(self, c, lam):
        """Factor the step matrix of the coefficients c with diag(lam) in
        block 21, releasing the previous factor first so that two are never
        alive at once.  A sparse template is filled and factored; a dense
        one factors its band array and refills its dense array only for new
        coefficients.  A singular matrix raises ``RuntimeError`` and leaves
        no factor."""
        self.lu = None
        if not self.dense:
            self.lu = spla.splu(self.fill(c, lam), permc_spec="MMD_AT_PLUS_A")
            return
        if tuple(c) != self.coeffs:
            self.fill(c)
        self.lu = BandLU(self, lam)

    def norm(self):
        """Frobenius norm of the filled matrix."""
        return np.linalg.norm(self.data)


class BandLU:
    """LAPACK band LU factor (``dgbtrf``) of a dense template's step matrix
    at the diagonal ``lam``, taken in the node-interleaved order, that
    solves as ``SuperLU`` does: ``solve(rhs, trans)`` with trans "N" or
    "T", for rhs of shape (2n,) or (2n, K) in node order.  It factors a
    copy of the template's lambda-free band array plus ``lam``, which is
    bitwise the filled matrix in band layout.  A zero pivot raises the
    ``RuntimeError`` that ``splu`` raises."""

    def __init__(self, template, lam):
        self.kl, self.ku, self.order, self.position = template.band
        ab = template.banded.copy(order="F")
        # Block 21's diagonal, (n + i, i) in node order, is row kl + ku + 1
        # at column 2 i of the band layout.
        ab[self.kl + self.ku + 1, 0::2] += lam
        self.lu, self.piv, info = lapack.dgbtrf(ab, self.kl, self.ku, overwrite_ab=True)
        if info > 0:
            raise RuntimeError("Factor is exactly singular")

    def solve(self, rhs, trans="N"):
        # ``take`` permutes a (2n, K) stack at a third of the cost of
        # fancy indexing, and a (2n,) vector at about the same.
        x = lapack.dgbtrs(self.lu, self.kl, self.ku, rhs.take(self.order, 0), self.piv,
                          trans="NT".index(trans), overwrite_b=True)[0]
        return x.take(self.position, 0)


def _slots(A):
    """Row and column index of every stored entry of a CSC matrix."""
    return A.indices, np.repeat(np.arange(A.shape[1]), np.diff(A.indptr))


def assemble(mesh: BulkSurfaceMesh) -> CoupledOperators:
    """Assemble the four coupled matrices for a mesh."""
    return CoupledOperators(mesh)


def _segment_p1(h):
    """The P1 mass and stiffness blocks of segments of lengths h."""
    m_loc = np.einsum("e,ij->eij", h / 6.0, np.array([[2.0, 1.0], [1.0, 2.0]]))
    k_loc = np.einsum("e,ij->eij", 1.0 / h, np.array([[1.0, -1.0], [-1.0, 1.0]]))
    return m_loc, k_loc


def _assemble_bulk(mesh):
    elems, measures = mesh.bulk_elements, element_measures(mesh)
    if mesh.dim == 1:
        m_loc, k_loc = _segment_p1(measures)
    else:
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
    m_loc, k_loc = _segment_p1(boundary_segment_lengths(mesh))
    M = _accumulate(m_loc, seg, nb)
    K = _accumulate(k_loc, seg, nb)
    return M, K


def _accumulate(local, connectivity, n):
    nloc = connectivity.shape[1]
    rows = np.repeat(connectivity, nloc, axis=1).ravel()
    cols = np.tile(connectivity, (1, nloc)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def row_inner(M, A, B):
    """Inner product A @ M @ B of two rows, or of each matching pair of rows
    of two stacks."""
    return np.einsum("...j,...j->...", A, (M @ B.T).T)

