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

from .errors import BasisMismatchError, EigenSolverError, InvalidParameterError, SolverError
from .fem import (
    CoefficientLike,
    HelmholtzSystem,
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
        m = int(segments)
        if not (1 <= m <= idx.size):
            raise InvalidParameterError(
                f"segments must be between 1 and {idx.size}, got {segments}"
            )
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
    """A flux concentrating solution energy in the probed region.

    ``g`` is a unit flux orthogonal to the excluded family.  ``ratio`` is
    its attained Rayleigh quotient, ``g . G_B g / g . (G_D + eps I) g``:
    energy in the target region over the regularized energy in the avoided
    region.  ``b_energy`` and ``d_energy`` are the solution energies of
    ``g`` in the target and avoided regions, ``g . G_B g`` and ``g . G_D g``.
    """

    g: np.ndarray
    ratio: float
    b_energy: float
    d_energy: float


def localized_potential(mesh: Mesh, q: CoefficientLike, k: float,
                        basis: BoundaryBasis, region_b: Region, region_d: Region,
                        v: Optional[np.ndarray] = None) -> LocalizedPotential:
    """Maximize solution energy in ``region_b`` against ``region_d`` over the
    fluxes orthogonal to the columns of ``v`` (the excluded family ``V``).

    With ``N`` an orthonormal basis of ``V``'s complement (the trailing
    columns of a complete QR of ``v``; all of the basis when ``v`` is absent
    or has no column), solves the regularized generalized eigenproblem

        N^T G_B N c = rho ( N^T G_D N + eps I ) c

    where ``G_R`` is the region Gram of the ``(q, k)`` solutions and ``eps``,
    ``1e-10`` times the mean diagonal of ``N^T G_D N`` (of ``N^T G_B N`` when
    that is zero), keeps the right side definite.  The flux ``g = N c`` of
    the top eigenvector is normalized and returned with its attained
    quotient.

    Preconditions: ``region_b`` minus ``region_d`` has positive area, and
    ``v`` (if given) has independent columns, fewer than the basis dimension.
    """
    if region_b.minus(region_d).is_empty:
        raise InvalidParameterError(
            "target region must have positive area outside the avoided region"
        )
    dim = basis.dim
    if v is None:
        v = np.zeros((dim, 0))
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != dim:
        raise InvalidParameterError(f"excluded family must be ({dim}, p)")
    p = v.shape[1]
    if p >= dim:
        raise InvalidParameterError("excluded family must have fewer columns than dim")
    if p and np.linalg.matrix_rank(v) < p:
        raise InvalidParameterError("excluded family has dependent columns")

    solutions = basis_solutions(mesh, q, k, basis)
    g_b = gram_from_solutions(mesh, region_b, basis, solutions, label="gram_b", k=k).matrix
    g_d = gram_from_solutions(mesh, region_d, basis, solutions, label="gram_d", k=k).matrix

    complement = np.linalg.qr(v, mode="complete")[0][:, p:]
    b_reduced = complement.T @ g_b @ complement
    d_reduced = complement.T @ g_d @ complement
    eps_scale = float(np.trace(d_reduced)) / (dim - p)
    if eps_scale <= 0.0:
        eps_scale = float(np.trace(b_reduced)) / (dim - p)
    if eps_scale <= 0.0:
        raise EigenSolverError("regularizer scale collapsed: no solution energy anywhere")
    eps = 1e-10 * eps_scale
    rhs = d_reduced + eps * np.eye(dim - p)

    try:
        _, vecs = sla.eigh(0.5 * (b_reduced + b_reduced.T), 0.5 * (rhs + rhs.T))
    except (sla.LinAlgError, np.linalg.LinAlgError) as exc:
        raise EigenSolverError(f"localization pencil breakdown: {exc}") from exc
    g = complement @ vecs[:, -1]
    g = g / np.linalg.norm(g)
    top = int(np.argmax(np.abs(g)))
    if g[top] < 0:
        g = -g
    residual = np.linalg.norm(v.T @ g)
    if residual > 1e-10 * np.linalg.norm(v, 2):
        raise EigenSolverError(f"excluded-family residual |V^T g| = {residual:.3e}")
    b_energy = float(g @ g_b @ g)
    d_energy = float(g @ g_d @ g)
    # g is a unit vector, so g . eps I g is eps
    return LocalizedPotential(g=g, ratio=b_energy / (d_energy + eps),
                              b_energy=b_energy, d_energy=d_energy)
