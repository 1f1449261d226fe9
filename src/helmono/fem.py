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

from collections import Counter
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Union

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import InvalidParameterError, ResonanceError, SolverError, checked_positive
from .mesh import Mesh, Region

# A nodal field is a plain vector of vertex values.
NodalField = np.ndarray

#: Relative pivot threshold under which a factorization counts as singular.
PIVOT_RTOL = 1e-12
#: Relative residual bound every direct solve is checked against.
RESIDUAL_RTOL = 1e-10
#: Relative pivot threshold a symmetric-mode factorization must clear to be
#: kept.  It sits well above ``PIVOT_RTOL``: near a resonance the static
#: diagonal pivots can stay larger than the partial-pivoting ones, so a
#: factorization anywhere near that guard is redone with partial pivoting and
#: judged by it.  Over 690 wavenumbers at the first five resonances of meshes
#: n = 8, 16 and 32 (q = 1 and a random q), the 168 whose partial-pivoting
#: ratio fell below ``PIVOT_RTOL`` had static ratios up to 2.5e-13 in the
#: meshes' vertex order and up to 5.4e-13 with the flagged boundary last
#: (all of it, the top, bottom or right side, or a stretch without a
#: corner); the 1129 such wavenumbers of 4416 at the first eight
#: resonances of meshes n = 8 to 32 (q = 1 and three random q) reached
#: 1.6e-11 in either order.
SYMMETRIC_PIVOT_RTOL = 1e-9
#: Normwise backward error ``|A u - b| / (|A| |u| + |b|)`` above which a
#: solve gets one step of iterative refinement.  Static pivots can let the
#: factors of an indefinite matrix grow; a solve shows it in its backward
#: error, and the step restores it.  On meshes n = 4 to 24 (k = 1, random q)
#: the NtD matrices solved for and those read off trailing blocks then agreed
#: to 6.3e-14 relative over 1500 cases, against 1.0e-13 with the threshold
#: at twice this; at n = 128 about one basis solve in twenty-five exceeds it.
REFINE_BERR = float(np.finfo(float).eps)
#: Element growth ``max_i sum_k |L_ik| |U_ki| / max_i |(LU)_ii|`` of a
#: trailing block above which the NtD matrix is solved for instead of read
#: off it.  On those meshes, blocks grown at most 210-fold gave matrices
#: within 6.1e-14 of twice-refined solves, blocks grown 400- to 1300-fold up
#: to 7e-13 off.  At n = 128, k = 1, 78 of 80 compare systems grew at most
#: 29-fold and two 121- and 124-fold.
TAIL_GROWTH_MAX = 100.0
#: Seed of the load combination ``h`` that checks a trailing-block NtD matrix.
_CHECK_SEED = 20171122
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


def checked_q_k(mesh: Mesh, q: CoefficientLike, k: float) -> Coefficient:
    """``q`` as a :class:`Coefficient` of the mesh, refused together with
    ``k`` unless ``k`` is positive and finite and ``k^2 q`` is finite."""
    k = checked_positive(k, "wavenumber")
    q = as_coefficient(mesh, q)
    if not np.isfinite(k * k * float(np.abs(q.values).max())):
        raise InvalidParameterError(f"k^2 q must be finite, got k={k!r}")
    return q


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


def assemble_region_masses(mesh: Mesh, regions: Sequence[Region],
                           weight: float) -> list[tuple[np.ndarray, sp.csr_matrix]]:
    """Assemble ``weight * integral_R( phi_i phi_j )`` of each region on its
    own vertices, all regions in one assembly.

    Entry ``r`` holds the vertices of region ``r``'s triangles (ascending
    mesh indices) and the mass matrix over them.  It equals the rows and
    columns of ``assemble_weighted_mass(mesh, weight * flags_r)`` at those
    vertices; every other entry of that matrix is zero.  The regions are
    assembled as one block-diagonal matrix, each block numbered and summed in
    the order of the region's own triangles, so a region's matrix has the
    same bits whichever regions share the call.  The cost is proportional to
    the regions, not the mesh.
    """
    for region in regions:
        if region.triangle_flags.shape != (mesh.n_triangles,):
            raise InvalidParameterError("region does not match mesh triangle count")
    if not np.isfinite(weight):
        raise InvalidParameterError(f"mass weight must be finite, got {weight!r}")
    flags = np.array([region.triangle_flags for region in regions], dtype=bool)
    owner, triangles = np.nonzero(flags.reshape(len(regions), mesh.n_triangles))
    n = mesh.n_vertices
    # region-major keys: block r holds region r's vertices, ascending
    keys, local = np.unique(owner[:, None] * n + mesh.triangles[triangles],
                            return_inverse=True)
    scale = mesh.positive_areas[triangles] * float(weight)
    block = _mass(local.reshape(-1, 3), scale, keys.size)
    starts = np.searchsorted(keys, np.arange(len(regions) + 1) * n)
    masses = []
    for r, (lo, hi) in enumerate(zip(starts[:-1], starts[1:])):
        first, last = block.indptr[lo], block.indptr[hi]
        mass = sp.csr_matrix((block.data[first:last], block.indices[first:last] - lo,
                              block.indptr[lo:hi + 1] - first), shape=(hi - lo, hi - lo))
        masses.append((keys[lo:hi] - r * n, mass))
    return masses


def _region_factor(mesh: Mesh, triangles: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``X`` with ``X^T X = u^T M u``, ``M`` the mass of the given triangles.
    The element mass ``area (I + J) / 12`` gives one row ``sqrt(w) u[v]`` per
    vertex, ``w`` its triangles' summed ``area / 12``, and one row
    ``sqrt(area / 12)`` times the sum of its vertices' rows per triangle."""
    corners = mesh.triangles[triangles]
    scale = mesh.positive_areas[triangles] / 12.0
    vertices, local = np.unique(corners.ravel(), return_inverse=True)
    weights = np.bincount(local, np.repeat(scale, 3), vertices.size)
    return np.vstack([np.sqrt(weights)[:, None] * u[vertices],
                      np.sqrt(scale)[:, None] * u[corners].sum(axis=1)])


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


_tally: ContextVar[Optional[Counter]] = ContextVar("helmono_tally", default=None)


@contextmanager
def counting():
    """Count, inside the block, the sparse factorizations made and the routes
    :meth:`HelmholtzSystem.ntd` took; yields the :class:`collections.Counter`.

    Keys: ``factorizations`` (every SuperLU factorization :func:`factorize`
    made, including one a pivot guard refused and had redone),
    ``ntd.trailing`` (a Neumann-to-Dirichlet matrix read off the trailing
    block of the factors), ``ntd.solved`` (one computed from solves),
    ``defect.inertia`` and ``defect.sweep`` (the route a :func:`spectral.d_of_q`
    count or nearest eigenvalue took), and from
    :func:`monotone.reconstruct`, ``counts.dense`` (pixel matrices whose
    eigenvalues were computed, one :func:`spectral.count_negative` call
    each), ``probes.built`` (pixel probes ``T_B`` built for those counts),
    ``counts.certified`` (sweep steps at which a pixel's rejection was
    certified instead) and ``pixels.undecided``
    (reported pixels whose verdict is undecided).  The tally belongs to the
    calling context, so the counts are those of the block alone.
    """
    tally = Counter()
    token = _tally.set(tally)
    try:
        yield tally
    finally:
        _tally.reset(token)


def count(name: str, n: int = 1) -> None:
    """Add ``n`` to ``name`` in the tally of the enclosing :func:`counting`
    block.  Threads do not inherit the block: only counts made on the
    thread that opened it are added."""
    tally = _tally.get()
    if tally is not None:
        tally[name] += n


def _splu(matrix: sp.csc_matrix, **options) -> spla.SuperLU:
    count("factorizations")
    return spla.splu(matrix, **options)


def _pivots(lu: spla.SuperLU) -> tuple[float, float, Optional[int]]:
    """Smallest and largest pivot magnitude, and the number of negative
    pivots when the row and column permutations coincide (else None).

    The pivots are the diagonal of ``lu.U``.  Reading that attribute makes
    scipy build CSC copies of both ``L`` and ``U`` and keep them for the
    factorization's lifetime (about 12 MB at ``n = 128``); later reads of
    ``lu.L`` and ``lu.U`` return the same copies.
    """
    pivots = lu.U.diagonal()
    magnitudes = np.abs(pivots)
    negative = (int((pivots < 0.0).sum())
                if np.array_equal(lu.perm_r, lu.perm_c) else None)
    return float(magnitudes.min()), float(magnitudes.max()), negative


class _Ordered:
    """Solves with a matrix through the factorization ``lu`` of its rows and
    columns taken in ``order``."""

    def __init__(self, lu: spla.SuperLU, order: np.ndarray):
        self.lu, self.order = lu, order

    def solve(self, b: np.ndarray) -> np.ndarray:
        solution = self.lu.solve(b[self.order])
        u = np.empty_like(solution)
        u[self.order] = solution
        return u


class Factorization(NamedTuple):
    """What :func:`factorize` returns: ``lu`` solves with the matrix (its
    ``solve`` takes vectors and column blocks), ``negative`` is the number of
    negative eigenvalues of the matrix, or None."""

    lu: object
    negative: Optional[int]


def factorize(matrix: sp.csc_matrix, where: str, order: np.ndarray) -> Factorization:
    """Sparse LU of a symmetric matrix, refused when it is near singular.

    The first attempt runs SuperLU in symmetric mode on the rows and columns
    taken in ``order``, with no further reordering and diagonal pivots, so
    the row and column permutations coincide.  It is kept when its smallest
    pivot magnitude exceeds ``SYMMETRIC_PIVOT_RTOL`` times the largest; its
    ``lu`` is then an ``_Ordered`` solver.  Otherwise the matrix is
    refactored with partial pivoting, and that factorization must clear
    ``PIVOT_RTOL``.  ``where`` names the system in error messages.

    The negative count is that of the pivots, or None when the row and
    column permutations differ.  With equal permutations the factorization is
    a congruence (``U = D L^T``, SuperLU runs without equilibration), so by
    Sylvester's law of inertia the count is the number of negative
    eigenvalues of the matrix.

    Raises
    ------
    ResonanceError
        If the partial-pivoting factorization is exactly singular or its
        smallest pivot magnitude is at or below ``PIVOT_RTOL`` times the
        largest.
    """
    # Held until return: freed before _pivots copies the factors, it left
    # compare's peak RSS 12-18 MB higher (mesh.n = 128, heap layout).
    target = matrix[order][:, order].tocsc()
    try:
        lu = _splu(target, permc_spec="NATURAL", diag_pivot_thresh=0.0,
                   options=dict(SymmetricMode=True))
    except RuntimeError:  # an exactly zero pivot: let partial pivoting judge
        pass
    else:
        small, large, negative = _pivots(lu)
        if small > SYMMETRIC_PIVOT_RTOL * large:
            return Factorization(_Ordered(lu, order), negative)
    try:
        lu = _splu(matrix)
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
    return Factorization(lu, negative)


class HelmholtzSystem:
    """Factorized Galerkin system ``(S - k^2 M_q) u = b`` for one ``(q, k)``.

    Factorizing once and solving for many right-hand sides is the workhorse
    behind trace operators.  The factorization comes from :func:`factorize`,
    with the vertices in the mesh's :attr:`~helmono.mesh.Mesh.vertex_order`,
    or with ``sigma_last`` in its :attr:`~helmono.mesh.Mesh.sigma_last_order`
    (the vertices of the flagged boundary edges last): SuperLU's symmetric
    mode when its pivots are safely away from zero, otherwise partial
    pivoting with the resonance guard below.  ``solve_many`` runs the
    triangular solves in panels of ``SOLVE_PANEL`` columns, densifying sparse
    loads one panel at a time, and can keep only some rows of the solutions;
    a solve whose backward error exceeds ``REFINE_BERR`` is refined once, and
    every solve's residual is checked over all rows against
    ``RESIDUAL_RTOL``.  ``ntd`` gives ``B^T A^{-1} B`` for boundary loads
    ``B``; in the ``sigma_last`` order it reads it off the trailing block of
    the factors, with no solve per load.  ``negative_pivots`` is the number
    of negative eigenvalues of the matrix, read from the factorization's
    pivots; it is None when the row and column permutations differ, which
    partial pivoting usually leaves them.  The stiffness part is the mesh's
    shared, read-only :attr:`~helmono.mesh.Mesh.stiffness`.  With ``mass``,
    the unweighted mass matrix is assembled before the factorization, while
    no factor occupies memory, and kept as ``mass`` for
    :func:`spectral.d_of_q`'s window check; otherwise ``mass`` is None.

    Raises
    ------
    ResonanceError
        If the matrix is singular or the smallest pivot magnitude of its
        partial-pivoting factorization falls at or below ``PIVOT_RTOL`` times
        the largest: the wavenumber is numerically resonant for this
        coefficient.
    """

    def __init__(self, mesh: Mesh, q: CoefficientLike, k: float, *,
                 sigma_last: bool = False, mass: bool = False):
        q = checked_q_k(mesh, q, k)
        if not q.values.any():
            raise InvalidParameterError("coefficient is identically zero")
        self.mesh = mesh
        self.q = q
        self.k = float(k)
        self.mass = assemble_mass(mesh) if mass else None
        self.matrix = (mesh.stiffness - (k * k) * assemble_weighted_mass(mesh, q)).tocsc()
        order = mesh.sigma_last_order if sigma_last else mesh.vertex_order
        self._lu, self.negative_pivots = factorize(self.matrix, f"at k={k:.17g}", order)
        self._tail = int(np.count_nonzero(mesh.sigma_tail)) if sigma_last else 0
        self._matrix_norm = spla.norm(self.matrix, 1)

    def _solve(self, b: np.ndarray) -> np.ndarray:
        """Solve ``A u = b`` for a block of columns, refine the columns whose
        backward error exceeds ``REFINE_BERR`` once, and refuse a residual
        above ``RESIDUAL_RTOL`` of its scale."""
        u = self._lu.solve(b)
        r = self.matrix @ u
        r -= b
        scale = np.maximum(self._matrix_norm * np.linalg.norm(u, axis=0)
                           + np.linalg.norm(b, axis=0), 1e-300)
        refine = np.linalg.norm(r, axis=0) > REFINE_BERR * scale
        if refine.any():
            cols = np.flatnonzero(refine)
            u[:, cols] -= self._lu.solve(np.asfortranarray(r[:, cols]))
            r[:, cols] = self.matrix @ u[:, cols] - b[:, cols]
        if np.any(np.linalg.norm(r, axis=0) > RESIDUAL_RTOL * scale):
            raise SolverError(f"direct solve residual exceeded {RESIDUAL_RTOL:g} of scale")
        return u

    def solve(self, load: NodalField) -> NodalField:
        """Solve for one load vector; the residual bound is verified."""
        b = np.asarray(load, dtype=float)
        if b.shape != (self.mesh.n_vertices,):
            raise InvalidParameterError("load vector does not match mesh size")
        return self._solve(b[:, None])[:, 0]

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
            solution = self._solve(rhs)
            u[:, panel] = solution if rows is None else solution[rows]
        return u

    def ntd(self, loads: sp.spmatrix) -> np.ndarray:
        """``loads^T A^{-1} loads`` for a sparse load block, unsymmetrized.

        When the factorization kept the ``sigma_last`` order and the loads
        vanish off the flagged boundary, the trailing ``g x g`` blocks of the
        factors are an unpivoted LU of the Schur complement ``C`` of the
        other vertices; ``A^{-1}`` restricted to the boundary is ``C^{-1}``,
        so the matrix is ``B^T C^{-1} B`` for the boundary rows ``B`` of the
        loads: two dense triangular solves of size ``g``, no solve per load.
        One solve of ``loads h`` (fixed-seed ``h``) checks it: that solve's
        own residual, then
        ``|Lambda h - loads^T u| <= RESIDUAL_RTOL (|Lambda| |h| + |loads^T u|)``.
        Otherwise, and when the block grew more than ``TAIL_GROWTH_MAX``-fold
        (an unpivoted LU of an indefinite block can), the boundary rows of the
        solutions are solved for.  Each call counts its route in
        :func:`counting` (``ntd.trailing`` or ``ntd.solved``).

        Raises
        ------
        SolverError
            If a residual check fails.
        """
        loads = loads.tocsc()
        if loads.shape[0] != self.mesh.n_vertices:
            raise InvalidParameterError("load block must be (n_vertices, m)")
        rows = np.unique(loads.indices)
        ntd = self._read_off_tail(loads, rows)
        if ntd is None:
            count("ntd.solved")
            return loads[rows].toarray().T @ self.solve_many(loads, rows)
        count("ntd.trailing")
        h = np.random.default_rng(_CHECK_SEED).standard_normal(loads.shape[1])
        traces = loads.T @ self._solve((loads @ h)[:, None])[:, 0]
        scale = np.linalg.norm(ntd, 1) * np.linalg.norm(h) + np.linalg.norm(traces)
        if np.linalg.norm(ntd @ h - traces) > RESIDUAL_RTOL * scale:
            raise SolverError(
                f"trailing-block residual exceeded {RESIDUAL_RTOL:g} of scale")
        return ntd

    def _read_off_tail(self, loads: sp.csc_matrix,
                       rows: np.ndarray) -> Optional[np.ndarray]:
        """``B^T C^{-1} B`` from the trailing blocks of the factors, or None
        when the factorization did not keep the ``sigma_last`` order, some of
        ``rows`` lie before its tail, or the block grew more than
        ``TAIL_GROWTH_MAX``-fold."""
        if not (self._tail and isinstance(self._lu, _Ordered)):
            return None
        lu, order = self._lu.lu, self._lu.order
        start = order.size - self._tail
        kept = (np.array_equal(lu.perm_r, lu.perm_c)
                and np.array_equal(lu.perm_c[start:], np.arange(start, order.size)))
        if not (kept and self.mesh.sigma_tail[rows].all()):
            return None
        low, up = lu.L[start:, start:], lu.U[start:, start:]
        # With U = D L^T the diagonal of |L| |U| bounds all its entries.  It
        # is summed a few rows at a time, and a factor is made dense only
        # once the block is kept, one at a time, to keep the memory small.
        growth = diagonal = 0.0
        for part in np.array_split(np.arange(self._tail), max(1, self._tail // 64)):
            rows_, cols = low[part].toarray(), up[:, part].toarray()
            growth = max(growth, np.einsum("ij,ji->i", np.abs(rows_), np.abs(cols)).max())
            diagonal = max(diagonal, np.abs(np.einsum("ij,ji->i", rows_, cols)).max())
        if growth > TAIL_GROWTH_MAX * diagonal:
            return None
        b = loads[order[start:]]
        low = low.toarray()
        y = sla.solve_triangular(low, b.toarray(), lower=True, unit_diagonal=True,
                                 overwrite_b=True, check_finite=False)
        del low
        y = sla.solve_triangular(up.toarray(), y, overwrite_b=True, check_finite=False)
        return b.toarray().T @ y


def check_system(system: HelmholtzSystem, mesh: Mesh, q: CoefficientLike, k: float) -> None:
    """Refuse a ``system`` factored for another ``(mesh, q, k)``."""
    if not (system.mesh is mesh and system.k == float(k)
            and np.array_equal(system.q.values, as_coefficient(mesh, q).values)):
        raise InvalidParameterError("system was factored for another (mesh, q, k)")
