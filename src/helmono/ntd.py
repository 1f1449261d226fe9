"""Boundary bases, Neumann-to-Dirichlet matrices and probing operators.

Everything downstream of the forward solver observes the domain through a
finite orthonormal family of boundary fluxes supported on the instrumented
part of the boundary.  This module builds those families (piecewise-constant
per edge, optionally grouped into contiguous arc-length segments), solves one
coefficient's problem for every flux (:func:`basis_solutions`), assembles its
Galerkin Neumann-to-Dirichlet matrix (:func:`ntd_matrix`)

    Lambda(q)[i, j] = integral_Sigma( b_i  trace(u^{(b_j)}) ) ds,

the probing operator ``T_B`` of a region (the ``k^2``-weighted interior
energy of background solutions), region Gram matrices and their factors
(:func:`probe_factors`), and solves the localized-potential maximization
problem: find a flux, orthogonal to a given finite family, whose solution
energy concentrates in one region while staying small in another.

All operators carry the identity of the basis they were assembled on; mixing
bases is refused downstream.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp

from .errors import BasisMismatchError, EigenSolverError, InvalidParameterError, SolverError, \
    checked_count
from .fem import (
    REFINE_BERR,
    CoefficientLike,
    HelmholtzSystem,
    _region_factor,
    assemble_region_masses,
    boundary_load_matrix,
    check_system,
)
from .mesh import Mesh, Region

#: Raw operator matrices may deviate from exact symmetry by at most this
#: relative amount before being symmetrized.
SYMMETRY_RTOL = 1e-10


@dataclass(frozen=True)
class BoundaryBasis:
    """Orthonormal edgewise-constant flux family on the flagged boundary part.

    ``edge_indices`` point into the mesh's boundary edge list (loop order);
    ``functions[e, j]`` is the value of basis function ``j`` on flagged edge
    ``e``; ``lengths`` are the edge lengths.  The family is orthonormal in
    the boundary L2 inner product: ``functions.T @ diag(lengths) @ functions``
    is the identity.  ``basis_id`` is a content hash used to match operators
    assembled on the same basis.
    """

    edge_indices: np.ndarray
    functions: np.ndarray
    lengths: np.ndarray
    basis_id: str

    def __post_init__(self):
        for name in ("edge_indices", "functions", "lengths"):
            getattr(self, name).setflags(write=False)

    @property
    def dim(self) -> int:
        return self.functions.shape[1]


def boundary_basis(mesh: Mesh, segments: Optional[int] = None) -> BoundaryBasis:
    """Build the flux basis on the flagged part of the boundary.

    With ``segments=None`` every flagged edge carries its own normalized
    indicator (dimension = number of flagged edges).  With ``segments=m`` the
    flagged part is cut into ``m`` contiguous groups of equal arc length,
    measured along the boundary loop from its canonical start; the cut points
    depend only on the geometry, not on the mesh resolution, so bases with
    ``m`` and ``2m`` segments are nested across refinements of the same
    domain.

    One function per edge of a closed loop (``segments=None`` with every
    edge flagged, or as many segments as edges) is orthonormal in boundary
    L2 but not independent as loads: the flux alternating edge by edge puts
    zero load on every vertex, so ``Lambda`` is singular.

    Raises
    ------
    InvalidParameterError
        If no edge is flagged, or ``segments`` exceeds the flagged edge count
        (some group would be empty).
    """
    idx = np.flatnonzero(mesh.sigma_flags)
    if idx.size == 0:
        raise InvalidParameterError("no boundary edge is flagged")
    lengths = mesh.boundary_edge_lengths()[idx]
    if segments is None:
        m = idx.size
        group = np.arange(m)
    else:
        m = checked_count(segments, "segments", 1, idx.size)
        total = lengths.sum()
        cum = np.concatenate([[0.0], np.cumsum(lengths)])
        mid = 0.5 * (cum[:-1] + cum[1:])
        group = np.minimum((mid / total * m).astype(int), m - 1)
        present = np.unique(group)
        if present.size != m:
            raise InvalidParameterError(
                f"segmentation into {m} groups left some group empty"
            )
    group_lengths = np.bincount(group, weights=lengths, minlength=m)
    functions = np.zeros((idx.size, m))
    functions[np.arange(idx.size), group] = 1.0 / np.sqrt(group_lengths[group])

    digest = hashlib.sha256()
    digest.update(np.int64(mesh.n_vertices).tobytes())
    digest.update(idx.astype(np.int64).tobytes())
    digest.update(group.astype(np.int64).tobytes())
    basis = BoundaryBasis(
        edge_indices=idx,
        functions=functions,
        lengths=lengths,
        basis_id=digest.hexdigest()[:16],
    )
    gram = functions.T @ (lengths[:, None] * functions)
    if np.abs(gram - np.eye(m)).max() > 1e-12:
        raise SolverError("boundary basis failed orthonormality check")
    return basis


def basis_edge_values(basis: BoundaryBasis, coeffs: np.ndarray) -> np.ndarray:
    """Edgewise values of the flux with the given basis coefficients."""
    return basis.functions @ np.asarray(coeffs, dtype=float)


def project_onto_basis(basis: BoundaryBasis, edge_values: np.ndarray) -> np.ndarray:
    """Boundary-L2 projection of edgewise flux values onto the basis.

    Exact whenever the flux is piecewise constant on the basis's groups, which
    is how coarse-basis vectors are carried into a finer nested basis.
    """
    vals = np.asarray(edge_values, dtype=float)
    return basis.functions.T @ (basis.lengths[:, None] * vals if vals.ndim == 2
                                else basis.lengths * vals)


def basis_load_matrix(mesh: Mesh, basis: BoundaryBasis) -> sp.csc_matrix:
    """Nodal load vectors of the basis functions, one sparse column each.

    Column ``j`` is also the Riesz pairing used to read traces back:
    ``loads[:, j] @ u`` equals the boundary integral of ``b_j`` against the
    trace of ``u`` (the edge trapezoid rule is exact for P1 traces against
    edgewise-constant fluxes).  Only the vertices of the flagged boundary
    edges carry entries, and every stored entry is nonzero.
    """
    e = boundary_load_matrix(mesh)[:, basis.edge_indices]
    loads = (e @ sp.csr_matrix(basis.functions)).tocsc()
    loads.eliminate_zeros()
    return loads


@dataclass(frozen=True)
class SymOp:
    """A symmetric operator matrix expressed in a boundary basis."""

    matrix: np.ndarray
    basis_id: str
    label: str
    k: float

    def __post_init__(self):
        self.matrix.setflags(write=False)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def __sub__(self, other: "SymOp") -> "SymOp":
        if self.basis_id != other.basis_id:
            raise BasisMismatchError(
                f"cannot combine operators on bases {self.basis_id} and {other.basis_id}"
            )
        if self.k != other.k:
            raise BasisMismatchError(
                f"cannot combine operators at wavenumbers {self.k} and {other.k}"
            )
        return SymOp(
            matrix=self.matrix - other.matrix,
            basis_id=self.basis_id,
            label=f"{self.label}-{other.label}",
            k=self.k,
        )

    def scaled(self, factor: float) -> "SymOp":
        return SymOp(
            matrix=float(factor) * self.matrix,
            basis_id=self.basis_id,
            label=f"{factor:g}*{self.label}",
            k=self.k,
        )


def make_symop(raw: np.ndarray, basis_id: str, label: str, k: float) -> SymOp:
    """Validate near-symmetry of a raw operator matrix and symmetrize it.

    Each half is scaled before the sum, so entries near the largest double
    do not overflow.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.ndim != 2 or raw.shape[0] != raw.shape[1]:
        raise InvalidParameterError("operator matrix must be square")
    if not np.isfinite(raw).all():
        raise SolverError(f"operator '{label}' has non-finite entries")
    scale = float(np.abs(raw).max()) if raw.size else 0.0
    defect = float(np.abs(raw - raw.T).max()) if raw.size else 0.0
    if defect > SYMMETRY_RTOL * max(scale, 1e-300):
        raise SolverError(
            f"operator '{label}' symmetry defect {defect:.3e} "
            f"exceeds {SYMMETRY_RTOL:g} of scale {scale:.3e}"
        )
    return SymOp(matrix=0.5 * raw + 0.5 * raw.T, basis_id=basis_id, label=label,
                 k=float(k))


def basis_solutions(mesh: Mesh, q: CoefficientLike, k: float, basis: BoundaryBasis,
                    system: Optional[HelmholtzSystem] = None) -> np.ndarray:
    """Nodal solutions for every basis flux, one column per basis function,
    solved on ``system`` or on one factored in the mesh's vertex order (the
    cheapest for solves over every row)."""
    if system is None:
        system = HelmholtzSystem(mesh, q, k)
    else:
        check_system(system, mesh, q, k)
    return system.solve_many(basis_load_matrix(mesh, basis))


def ntd_matrix(mesh: Mesh, q: CoefficientLike, k: float, basis: BoundaryBasis,
               label: str = "ntd", *, system: Optional[HelmholtzSystem] = None,
               solutions: Optional[np.ndarray] = None) -> SymOp:
    """Neumann-to-Dirichlet matrix: entry ``(i, j)`` is the boundary integral
    of basis flux ``i`` against the trace of the solution driven by flux
    ``j``.  Read from the boundary rows of given :func:`basis_solutions`,
    else by :meth:`HelmholtzSystem.ntd` on ``system`` or on one factored with
    the flagged boundary last, off the trailing block of its factors with no
    solve per flux.  Symmetric up to roundoff (checked, then symmetrized
    exactly).  Refuses a ``system`` of another ``(mesh, q, k)``, mis-shaped
    ``solutions``, or both at once (:class:`InvalidParameterError`)."""
    if system is not None and solutions is not None:
        raise InvalidParameterError("give the system or the solutions, not both")
    loads = basis_load_matrix(mesh, basis)
    if solutions is None:
        if system is None:
            system = HelmholtzSystem(mesh, q, k, sigma_last=True)
        else:
            check_system(system, mesh, q, k)
        raw = system.ntd(loads)
    elif solutions.shape != loads.shape:
        raise InvalidParameterError(f"expected solutions of shape {loads.shape}, "
                                    f"got {solutions.shape}")
    else:
        rows = np.unique(loads.indices)
        raw = loads[rows].toarray().T @ solutions[rows]
    return make_symop(raw, basis.basis_id, label, k)


def probe_factors(mass: tuple, solutions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The factors ``(U, Y)`` of a region's Gram matrix ``U^T Y``: ``U`` holds
    the rows of ``solutions`` at the region's vertices and ``Y = W U``, with
    ``(vertices, W)`` the region's entry of
    :func:`~helmono.fem.assemble_region_masses`."""
    vertices, w = mass
    u = solutions[vertices]
    return u, w @ u


def gram_from_solutions(mesh: Mesh, region: Region, basis: BoundaryBasis,
                        solutions: np.ndarray, weight: float = 1.0,
                        label: str = "gram", k: float = 0.0, *,
                        mass: Optional[tuple] = None) -> SymOp:
    """Interior Gram matrix ``G[i, j] = weight * integral_R( u_i u_j )``.

    Only the rows of ``solutions`` at the region's vertices enter, against
    the mass matrix of the region's own triangles (:func:`probe_factors`), so
    the cost grows with the region and not with the mesh.  ``mass`` is the
    region's entry of :func:`~helmono.fem.assemble_region_masses` at
    ``weight``, when the caller assembled it with other regions; otherwise
    it is assembled here.  An empty region gives the zero operator.
    """
    if mass is None:
        mass = assemble_region_masses(mesh, [region], weight)[0]
    u, y = probe_factors(mass, solutions)
    return make_symop(u.T @ y, basis.basis_id, label, k)


def tb_from_solutions(mesh: Mesh, region: Region, k: float, basis: BoundaryBasis,
                      background_solutions: np.ndarray, *,
                      mass: Optional[tuple] = None) -> SymOp:
    """Probing operator of a region: ``k^2``-weighted energy of the background
    (coefficient one) solutions inside it, shared across regions such as the
    pixels of a reconstruction grid.  ``mass`` is as in
    :func:`gram_from_solutions`, at weight ``k^2``.  Positive semidefinite;
    an empty region is refused, since a probe with no support carries no
    test."""
    if region.is_empty:
        raise InvalidParameterError("probing region is empty")
    return gram_from_solutions(mesh, region, basis, background_solutions,
                               weight=k * k, label="tb", k=k, mass=mass)


class LocalizedPotential(NamedTuple):
    """A unit flux ``g``, orthogonal to the excluded family, concentrating
    solution energy in the probed region: ``b_energy`` and ``d_energy`` are
    its energies ``g . G_B g`` and ``g . G_D g`` in the target and avoided
    regions, ``floor`` the smallest avoided energy per unit flux the
    solutions resolve, and ``ratio`` is ``b_energy / (d_energy + floor)``."""

    g: np.ndarray
    ratio: float
    b_energy: float
    d_energy: float
    floor: float


#: Triangles per chunk when a region's factor is reduced (one factor row each,
#: plus one per vertex), so a large region's factor is never in memory whole.
_FACTOR_CHUNK = 512


def _reduced_factor(mesh: Mesh, region: Region, u: np.ndarray) -> np.ndarray:
    """The QR triangle ``R`` of the region's mass factor of ``u`` (``R^T R =
    u^T M_R u``), reduced a chunk at a time; no rows for an empty region."""
    triangles = np.flatnonzero(region.triangle_flags)
    r = np.zeros((0, u.shape[1]))
    for start in range(0, triangles.size, _FACTOR_CHUNK):
        block = np.vstack([r, _region_factor(mesh, triangles[start:start + _FACTOR_CHUNK], u)])
        r = sla.qr(block, mode="raw", overwrite_a=True, check_finite=False)[1]
    return r


def localized_potential(mesh: Mesh, q: CoefficientLike, k: float,
                        basis: BoundaryBasis, region_b: Region, region_d: Region,
                        v: Optional[np.ndarray] = None, *,
                        system: Optional[HelmholtzSystem] = None) -> LocalizedPotential:
    """Maximize solution energy in ``region_b`` against ``region_d`` over the
    fluxes orthogonal to the columns of ``v`` (the excluded family ``V``).

    The flux ``g = N c``, ``N`` an orthonormal basis of ``V``'s complement (a
    complete QR of ``v``), has energies ``|R_B c|^2`` and ``|R_D c|^2``, with
    ``R_R`` the QR triangle of the region's mass factor of the
    :func:`basis_solutions` (on ``system``) times ``N``.  A generalized SVD
    (Van Loan 1976) maximizes ``|R_B c|^2 / (|R_D c|^2 + floor |c|^2)`` with
    no Gram matrix: ``c = R^{-1} y`` for a QR ``Q R`` of ``[R_D; sqrt(floor)
    I; R_B]`` and ``y`` the right singular vector of the smallest singular
    value of ``Q``'s first two row blocks.  The solves refine each solution
    to a backward error of :data:`~helmono.fem.REFINE_BERR`, which moves a
    unit flux's energies by up to ``2 REFINE_BERR |[R_D; R_B]|_2^2``; the
    floor, half that, is the smallest avoided energy they resolve.

    Preconditions: ``region_b`` minus ``region_d`` has positive area, ``v``
    (if given) has independent columns, fewer than the basis dimension, and
    ``system`` (if given) was factored for ``(mesh, q, k)``.
    """
    if region_b.minus(region_d).is_empty:
        raise InvalidParameterError(
            "target region must have positive area outside the avoided region"
        )
    dim = basis.dim
    v = np.zeros((dim, 0)) if v is None else np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != dim:
        raise InvalidParameterError(f"excluded family must be ({dim}, p)")
    p = v.shape[1]
    if p >= dim:
        raise InvalidParameterError("excluded family must have fewer columns than dim")
    if p and np.linalg.matrix_rank(v) < p:
        raise InvalidParameterError("excluded family has dependent columns")

    complement = np.linalg.qr(v, mode="complete")[0][:, p:]
    u = basis_solutions(mesh, q, k, basis, system) @ complement
    r_d, r_b = _reduced_factor(mesh, region_d, u), _reduced_factor(mesh, region_b, u)
    floor = REFINE_BERR * np.linalg.norm(np.vstack([r_d, r_b]), 2) ** 2
    stack = np.vstack([r_d, np.sqrt(floor) * np.eye(dim - p), r_b])
    q_stack, r_stack = sla.qr(stack, mode="economic", check_finite=False)
    y = np.linalg.svd(q_stack[:r_d.shape[0] + dim - p], full_matrices=False)[2][-1]
    c = sla.solve_triangular(r_stack, y, check_finite=False)
    c /= np.linalg.norm(c)
    g = complement @ c
    if g[np.argmax(np.abs(g))] < 0:
        g, c = -g, -c
    residual = np.linalg.norm(v.T @ g)
    if residual > 1e-10 * np.linalg.norm(v, 2):
        raise EigenSolverError(f"excluded-family residual |V^T g| = {residual:.3e}")
    b_energy, d_energy = float(np.sum((r_b @ c) ** 2)), float(np.sum((r_d @ c) ** 2))
    return LocalizedPotential(g, b_energy / (d_energy + floor), b_energy, d_energy,
                              float(floor))
