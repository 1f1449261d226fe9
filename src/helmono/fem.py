"""P1 finite elements for the Helmholtz Neumann problem.

Assembles the stiffness matrix ``S``, coefficient-weighted mass matrices
``M_w`` and boundary flux load vectors for piecewise-linear elements, and
solves the Galerkin system ``(S - k^2 M_q) u = b`` with a sparse direct
factorization.  Solutions satisfy, row by row,

    integral( grad u . grad phi_i - k^2 q u phi_i ) = integral_Sigma( g phi_i )

to the documented residual bound, which is the discrete variational identity
everything downstream (trace operators, energy identities, eigen counts)
relies on.

Near-singular factorizations are reported as :class:`ResonanceError`: the
wavenumber is (numerically) a Neumann eigenvalue of the configuration and the
forward map is undefined there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidParameterError, ResonanceError, SolverError
from .mesh import Mesh, Region

# A nodal field is a plain vector of vertex values.
NodalField = np.ndarray

#: Relative pivot threshold under which a factorization counts as singular.
PIVOT_RTOL = 1e-12
#: Relative residual bound every direct solve is checked against.
RESIDUAL_RTOL = 1e-10
#: Relative pivot threshold a symmetric-mode factorization must clear to be
#: kept.  It sits well above ``PIVOT_RTOL``: near a resonance the static
#: diagonal pivots can stay larger than the partial-pivoting ones (up to
#: 1e-11 where the partial-pivoting ratio was below ``PIVOT_RTOL``, over 690
#: wavenumbers at the first five resonances of meshes n = 8, 16 and 32), so a
#: factorization anywhere near that guard is redone with partial pivoting and
#: judged by it.
SYMMETRIC_PIVOT_RTOL = 1e-9
#: Columns per triangular-solve panel of ``solve_many``: the panel of right
#: sides stays in cache while the factors stream past it.
SOLVE_PANEL = 16

_MASS_PATTERN = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


@dataclass(frozen=True)
class Coefficient:
    """Piecewise-constant coefficient, one value per triangle."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1:
            raise InvalidParameterError("coefficient values must be a flat array")
        if not np.isfinite(vals).all():
            raise InvalidParameterError("coefficient contains non-finite values")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @staticmethod
    def constant(mesh: Mesh, value: float) -> "Coefficient":
        return Coefficient(np.full(mesh.n_triangles, float(value)))

    @staticmethod
    def from_array(mesh: Mesh, values: Sequence[float]) -> "Coefficient":
        vals = np.asarray(values, dtype=float)
        if vals.shape != (mesh.n_triangles,):
            raise InvalidParameterError(
                f"expected {mesh.n_triangles} coefficient values, got {vals.shape}"
            )
        return Coefficient(vals)

    def with_region(self, region: Region, value: float) -> "Coefficient":
        """New coefficient equal to ``value`` on the region, unchanged elsewhere."""
        vals = self.values.copy()
        vals[region.triangle_flags] = float(value)
        return Coefficient(vals)

    @property
    def min(self) -> float:
        return float(self.values.min())

    @property
    def max(self) -> float:
        return float(self.values.max())


CoefficientLike = Union[Coefficient, float, int, np.ndarray, Sequence[float]]


def as_coefficient(mesh: Mesh, q: CoefficientLike) -> Coefficient:
    """Coerce a scalar, array or Coefficient to a validated Coefficient."""
    if isinstance(q, Coefficient):
        if q.values.shape != (mesh.n_triangles,):
            raise InvalidParameterError("coefficient does not match mesh triangle count")
        return q
    if np.isscalar(q):
        return Coefficient.constant(mesh, float(q))
    return Coefficient.from_array(mesh, q)


def _scatter(triangles: np.ndarray, local: np.ndarray, n: int) -> sp.csr_matrix:
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def _mass(triangles: np.ndarray, scale: np.ndarray, n: int) -> sp.csr_matrix:
    return _scatter(triangles, scale[:, None, None] * _MASS_PATTERN[None, :, :], n)


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Assemble ``S[i, j] = integral( grad phi_i . grad phi_j )``.

    Returns
    -------
    scipy.sparse.csr_matrix
        Symmetric positive semidefinite; its kernel is spanned by the
        constant vector (pure Neumann problem).
    """
    areas = mesh.positive_areas
    p = mesh.vertices[mesh.triangles]
    edges = np.stack([p[:, 2] - p[:, 1], p[:, 0] - p[:, 2], p[:, 1] - p[:, 0]], axis=1)
    perp = np.empty_like(edges)
    perp[:, :, 0] = -edges[:, :, 1]
    perp[:, :, 1] = edges[:, :, 0]
    local = np.einsum("tia,tja->tij", perp, perp) / (4.0 * areas)[:, None, None]
    return _scatter(mesh.triangles, local, mesh.n_vertices)


def assemble_weighted_mass(mesh: Mesh, w: CoefficientLike) -> sp.csr_matrix:
    """Assemble ``M_w[i, j] = integral( w phi_i phi_j )`` for piecewise-constant w."""
    w = as_coefficient(mesh, w)
    return _mass(mesh.triangles, mesh.positive_areas * w.values, mesh.n_vertices)


def assemble_region_mass(mesh: Mesh, region: Region,
                         weight: float) -> tuple[np.ndarray, sp.csr_matrix]:
    """Assemble ``weight * integral_R( phi_i phi_j )`` on the region's own vertices.

    Returns the vertices of the region's triangles (ascending mesh indices)
    and the mass matrix over them.  It equals the rows and columns of
    ``assemble_weighted_mass(mesh, weight * flags)`` at those vertices; every
    other entry of that matrix is zero.  The cost is proportional to the
    region, not the mesh.
    """
    if region.triangle_flags.shape != (mesh.n_triangles,):
        raise InvalidParameterError("region does not match mesh triangle count")
    if not np.isfinite(weight):
        raise InvalidParameterError(f"mass weight must be finite, got {weight!r}")
    flags = region.triangle_flags
    vertices, local = np.unique(mesh.triangles[flags], return_inverse=True)
    scale = mesh.positive_areas[flags] * float(weight)
    return vertices, _mass(local.reshape(-1, 3), scale, vertices.size)


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Unweighted mass matrix (w identically one)."""
    return assemble_weighted_mass(mesh, 1.0)


def boundary_load_matrix(mesh: Mesh) -> sp.csr_matrix:
    """Map edgewise-constant boundary fluxes to nodal load vectors.

    Column ``e`` is the load vector of a unit flux on boundary edge ``e``:
    the trapezoid/exact rule ``integral_e(phi) = h_e / 2`` at both endpoints.
    All boundary edges get a column; restricting fluxes to the instrumented
    part is the caller's concern.
    """
    lengths = mesh.boundary_edge_lengths()
    nb = mesh.boundary_edges.shape[0]
    rows = mesh.boundary_edges.T.ravel()
    cols = np.tile(np.arange(nb), 2)
    data = np.tile(0.5 * lengths, 2)
    return sp.coo_matrix((data, (rows, cols)), shape=(mesh.n_vertices, nb)).tocsr()


def assemble_boundary_load(mesh: Mesh, edge_values: Sequence[float]) -> NodalField:
    """Load vector of an edgewise-constant flux supported on flagged edges.

    ``edge_values`` has one entry per boundary edge; entries on unflagged
    edges must be zero (the flux lives on the instrumented part only).
    """
    vals = np.asarray(edge_values, dtype=float)
    nb = mesh.boundary_edges.shape[0]
    if vals.shape != (nb,):
        raise InvalidParameterError(f"expected {nb} edge values, got {vals.shape}")
    if np.any(vals[~mesh.sigma_flags] != 0.0):
        raise InvalidParameterError("flux prescribed on an edge outside the flagged part")
    return boundary_load_matrix(mesh) @ vals


def _pivots(lu: spla.SuperLU) -> tuple[float, float, Optional[int]]:
    """Smallest and largest pivot magnitude, and the number of negative pivots
    when the row and column permutations coincide (else None)."""
    pivots = lu.U.diagonal()
    magnitudes = np.abs(pivots)
    negative = (int((pivots < 0.0).sum())
                if np.array_equal(lu.perm_r, lu.perm_c) else None)
    return float(magnitudes.min()), float(magnitudes.max()), negative


def factorize(matrix: sp.csc_matrix,
              where: str) -> tuple[spla.SuperLU, Optional[int]]:
    """Sparse LU of a symmetric matrix, refused when it is near singular.

    The first attempt runs SuperLU in symmetric mode: a minimum-degree
    ordering of ``A + A^T`` and diagonal pivots, so the row and column
    permutations coincide and the factors stay far sparser than with the
    default column ordering.  It is kept when its smallest pivot magnitude
    exceeds ``SYMMETRIC_PIVOT_RTOL`` times the largest.  Otherwise the matrix
    is refactored with partial pivoting, and that factorization must clear
    ``PIVOT_RTOL``.  ``where`` names the system in error messages.

    Returns the factorization and the number of its negative pivots, or None
    when its row and column permutations differ.  With equal permutations
    ``P^T A P = L U`` and ``U = D L^T`` (SuperLU runs without equilibration),
    so by Sylvester's law of inertia the count is the number of negative
    eigenvalues of ``A``.

    Raises
    ------
    ResonanceError
        If the partial-pivoting factorization is exactly singular or its
        smallest pivot magnitude is at or below ``PIVOT_RTOL`` times the
        largest.
    """
    try:
        lu = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                       options=dict(SymmetricMode=True))
    except RuntimeError:  # an exactly zero pivot: let partial pivoting judge
        pass
    else:
        small, large, negative = _pivots(lu)
        if small > SYMMETRIC_PIVOT_RTOL * large:
            return lu, negative
    try:
        lu = spla.splu(matrix)
    except RuntimeError as exc:  # SuperLU reports exact singularity this way
        raise ResonanceError(f"factorization failed {where}: {exc}", 0.0, 0.0) from exc
    small, large, negative = _pivots(lu)
    threshold = PIVOT_RTOL * large
    if small <= threshold:
        raise ResonanceError(
            f"near-singular system {where}: smallest pivot {small:.3e} "
            f"<= {threshold:.3e}",
            small,
            threshold,
        )
    return lu, negative


class HelmholtzSystem:
    """Factorized Galerkin system ``(S - k^2 M_q) u = b`` for one ``(q, k)``.

    Factorizing once and solving for many right-hand sides is the workhorse
    behind trace operators, which need one solve per basis function.  The
    factorization comes from :func:`factorize`: SuperLU's symmetric mode
    when its pivots are safely away from zero, otherwise partial pivoting
    with the resonance guard below.  ``solve_many`` runs the triangular
    solves in panels of ``SOLVE_PANEL`` columns, densifying sparse loads one
    panel at a time, and can keep only some rows of the solutions; every
    solve's residual is checked over all rows against ``RESIDUAL_RTOL``.
    ``negative_pivots`` is the number of negative eigenvalues of the matrix,
    read from the factorization's pivots; it is None when the row and column
    permutations differ, which partial pivoting usually leaves them.

    Raises
    ------
    ResonanceError
        If the matrix is singular or the smallest pivot magnitude of its
        partial-pivoting factorization falls at or below ``PIVOT_RTOL`` times
        the largest: the wavenumber is numerically resonant for this
        coefficient.
    """

    def __init__(self, mesh: Mesh, q: CoefficientLike, k: float):
        if not (k > 0.0 and np.isfinite(k)):
            raise InvalidParameterError(f"wavenumber must be positive and finite, got {k!r}")
        q = as_coefficient(mesh, q)
        if not q.values.any():
            raise InvalidParameterError("coefficient is identically zero")
        self.mesh = mesh
        self.q = q
        self.k = float(k)
        self.stiffness = assemble_stiffness(mesh)
        self.weighted_mass = assemble_weighted_mass(mesh, q)
        self.matrix = (self.stiffness - (k * k) * self.weighted_mass).tocsc()
        self._lu, self.negative_pivots = factorize(self.matrix, f"at k={k:.17g}")
        self._matrix_norm = spla.norm(self.matrix, 1)

    def _check_residual(self, b: np.ndarray, u: np.ndarray) -> None:
        r = self.matrix @ u - b
        scale = self._matrix_norm * np.linalg.norm(u, axis=0) + np.linalg.norm(b, axis=0)
        bad = np.linalg.norm(r, axis=0) > RESIDUAL_RTOL * np.maximum(scale, 1e-300)
        if np.any(bad):
            raise SolverError(
                f"direct solve residual exceeded {RESIDUAL_RTOL:g} of scale"
            )

    def solve(self, load: NodalField) -> NodalField:
        """Solve for one load vector; the residual bound is verified."""
        b = np.asarray(load, dtype=float)
        if b.shape != (self.mesh.n_vertices,):
            raise InvalidParameterError("load vector does not match mesh size")
        u = self._lu.solve(b)
        self._check_residual(b, u)
        return u

    def solve_many(self, loads, rows: Optional[np.ndarray] = None) -> np.ndarray:
        """Solve for a block of load vectors (columns); residuals verified.

        ``loads`` is a dense array or a sparse matrix; only one panel of it is
        dense at a time.  Every panel's residual is checked over all mesh
        rows.  With ``rows`` (vertex indices), only those rows of the
        solutions are kept and returned.
        """
        if sp.issparse(loads):
            b = loads.tocsc().astype(float, copy=False)
        else:
            b = np.asarray(loads, dtype=float)
        if b.ndim != 2 or b.shape[0] != self.mesh.n_vertices:
            raise InvalidParameterError("load block must be (n_vertices, m)")
        if rows is not None:
            rows = np.asarray(rows)
            if (rows.ndim != 1 or rows.dtype.kind not in "iu"
                    or not ((rows >= 0) & (rows < b.shape[0])).all()):
                raise InvalidParameterError("rows must be a flat array of vertex indices")
        u = np.empty((b.shape[0] if rows is None else rows.size, b.shape[1]))
        for start in range(0, b.shape[1], SOLVE_PANEL):
            panel = slice(start, start + SOLVE_PANEL)
            # Contiguous columns: SuperLU reads them without another copy, and
            # the residual's column norms do not stride across the block.
            rhs = (b[:, panel].toarray(order="F") if sp.issparse(b)
                   else np.asfortranarray(b[:, panel]))
            solution = self._lu.solve(rhs)
            self._check_residual(rhs, solution)
            u[:, panel] = solution if rows is None else solution[rows]
        return u

