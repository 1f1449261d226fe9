"""Eigenvalue counts for the discrete Helmholtz Neumann pencils.

Three counting problems drive the monotonicity machinery:

* ``d_of_q`` counts positive eigenvalues of the Neumann pencil
  ``(k^2 M_q - S) v = lambda M v``, the discrete version of counting positive
  Neumann eigenvalues of ``Laplacian + k^2 q``.
* ``count_K_eigs_above_one`` counts eigenvalues above one of the compact-part
  pencil ``M_{1 + k^2 q} v = mu (S + M) v`` (the ``H^1`` Gram on the right).
* ``count_negative`` counts negative eigenvalues of a dense symmetric matrix,
  the primitive behind every "less-or-equal up to a finite-dimensional defect"
  verdict; a :class:`RejectionCertificate` proves from a small Krylov
  compression of a probe's factors that such a count's verdict would be a
  rejection.

``d_of_q``, ``is_resonance`` and ``nearest_neumann_eigenvalue`` share one
route: the symmetric-mode factorization of ``S - k^2 M_q`` in the
:class:`~helmono.fem.HelmholtzSystem` of ``(q, k)``, given or factored for
the call.  Its negative pivots are the pencil's positive eigenvalues
(Sylvester's law of inertia), one shift-invert eigenvalue at zero on its
factors is the eigenvalue nearest zero, and one window,
``TOL_FACTOR * (k^2 max(q, 0) + 1)`` unless given, decides resonance.  A
matrix that refuses that factorization, or whose factors have no pivot
signs, takes a sweep of the top pencil eigenvalues in the same window.
``count_K_eigs_above_one`` sweeps its own pencil: an independent cross-check.

Counts refuse to guess: an eigenvalue inside the tolerance window around the
decision threshold raises :class:`SpectralAmbiguityError` (for the pencils) or
is reported in a separate indeterminate tally (for ``count_negative``), which
:meth:`CountResult.verdict` turns into accept, reject or undecided.

Every pencil eigenvalue comes from one helper, eigenvalues only (no routine
returns eigenvectors): dense LAPACK for small pencils, else ARPACK
shift-inverted at a shift from one factorization, above the spectrum for the
top eigenvalues and at zero for the nearest.

Determinism: ARPACK always starts from the same vector, drawn from a
fixed-seed generator, so repeated runs are bit-identical.  The dense counts
run with both bundled OpenBLAS copies (numpy's and scipy's) limited to one
thread (:func:`one_blas_thread`), so their eigenvalues do not depend on the
BLAS thread setting; the CLI runs every subcommand under the same limit.
"""

from __future__ import annotations

import ctypes
import functools
import glob
import os
import threading
from contextlib import contextmanager
from typing import NamedTuple, Optional

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import EigenSolverError, InvalidParameterError, ResonanceError, \
    SpectralAmbiguityError, checked_count, checked_positive
from .fem import Coefficient, CoefficientLike, HelmholtzSystem, assemble_mass, \
    assemble_weighted_mass, check_system, checked_q_k, count, factorize
from .mesh import Mesh

#: Problems at or below this many unknowns are solved densely.
DENSE_CUTOFF = 1200
#: Default count tolerance: this factor times the largest computed |eigenvalue|,
#: or for the Neumann pencil its upper bound ``k^2 max(q, 0) + 1``.
TOL_FACTOR = 1e-8
#: Lanczos basis size of the shift-invert search for the one eigenvalue
#: nearest zero.
NEAREST_NCV = 8
#: Krylov basis size of a :class:`RejectionCertificate`.  On 8x8 pixel grids
#: at basis 256 (n = 64, three negative-contrast inclusions, alpha 1 to 1/8)
#: 12 columns certified every rejected pixel at every step; 8 missed up to
#: 2 per step.
CERTIFICATE_DIM = 12
#: A Krylov column that keeps at most this fraction of its norm after
#: orthogonalization ends the basis of a :class:`RejectionCertificate`.
KRYLOV_BREAKDOWN = 1e-8
#: What a certified Ritz value must clear beyond the window, relative to the
#: Frobenius bound ``b`` of the matrix (see :class:`RejectionCertificate`).
CERTIFICATE_MARGIN = 1e-12

_V0_SEED = 20151225


def _thread_calls(libs: str, pattern: str, name: str):
    """(get, set) of the thread count of the OpenBLAS in ``libs``, or None."""
    for path in sorted(glob.glob(os.path.join(libs, pattern))):
        try:
            lib = ctypes.CDLL(path)
            get = getattr(lib, name.format("get"))
            put = getattr(lib, name.format("set"))
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


@functools.cache
def _blas_thread_calls():
    """(get, set) of numpy's and of scipy's bundled OpenBLAS, each or None.

    ``numpy.linalg`` calls the first copy; scipy (SuperLU, ARPACK, LAPACK)
    calls the second, which it loads on its own.
    """
    site = os.path.dirname(os.path.dirname(np.__file__))
    return (
        _thread_calls(os.path.join(site, "numpy.libs"), "libscipy_openblas64_*.so",
                      "scipy_openblas_{}_num_threads64_"),
        _thread_calls(os.path.join(site, "scipy.libs"), "libscipy_openblas-*.so",
                      "scipy_openblas_{}_num_threads"),
    )


# The thread counts are settings of the whole process, so the record of the
# blocks holding them is one too.
_CAP_LOCK = threading.Lock()
_cap = {"depth": 0, "saved": []}


@contextmanager
def one_blas_thread():
    """Limit numpy's and scipy's OpenBLAS to one thread each inside the block.

    Yields True when numpy's copy is limited, which the dense counts need.
    The thread counts are process-wide, so open blocks share them: the first
    to open saves every count it found and sets it to one, the last to close
    restores them (also on an exception).  A copy without the thread-count
    calls runs unchanged; without numpy's the block yields False.
    """
    numpy_calls, scipy_calls = _blas_thread_calls()
    calls = [c for c in (numpy_calls, scipy_calls) if c is not None]
    with _CAP_LOCK:
        if _cap["depth"] == 0:
            _cap["saved"] = [(put, get()) for get, put in calls]
            for _, put in calls:
                put(1)
        _cap["depth"] += 1
    try:
        yield numpy_calls is not None
    finally:
        with _CAP_LOCK:
            _cap["depth"] -= 1
            if _cap["depth"] == 0:
                for put, saved in _cap["saved"]:
                    put(saved)


class CountResult(NamedTuple):
    """Outcome of a signed eigenvalue count.

    ``negative`` eigenvalues lie strictly below ``-tol``; ``indeterminate``
    ones sit inside the open window of half-width ``tol/2`` around that
    threshold, on either side of it; ``certain`` ones lie at or below
    ``-1.5 tol``, below the window, and are negative at any resolution of it.
    """

    negative: int
    indeterminate: int
    tol: float
    certain: int

    def verdict(self, d: int) -> Optional[bool]:
        """At most ``d`` negative eigenvalues?  True however the window's
        eigenvalues fall, False when the ``certain`` ones alone exceed ``d``,
        None (undecided) otherwise: the one place a count meets an allowance.
        """
        if self.certain + self.indeterminate <= d:
            return True
        if self.certain > d:
            return False
        return None


def _deterministic_start(n: int) -> np.ndarray:
    return np.random.default_rng(_V0_SEED).standard_normal(n)


def _eigenvalues(a, b, sigma: float, m: int, solve,
                 ncv: Optional[int] = None) -> np.ndarray:
    """Eigenvalues of ``a v = lambda b v`` with ``b`` positive definite.

    Dense LAPACK returns all of them when the pencil has at most
    ``DENSE_CUTOFF`` rows or ``m > n - 2`` (past ARPACK's reach); otherwise
    ARPACK returns the ``m`` nearest ``sigma``, shift-inverted there, with
    ``solve`` applying ``(a - sigma b)^{-1}`` from the caller's factorization.
    """
    n = a.shape[0]
    if n <= DENSE_CUTOFF or m > n - 2:
        return sla.eigh(a.toarray(), b.toarray(), eigvals_only=True)
    opinv = spla.LinearOperator((n, n), matvec=solve, dtype=float)
    try:
        return spla.eigsh(a, k=m, M=b.tocsc(), sigma=sigma, which="LM",
                          v0=_deterministic_start(n), ncv=ncv,
                          return_eigenvectors=False, OPinv=opinv)
    except spla.ArpackNoConvergence as exc:
        raise EigenSolverError(f"eigensolver did not converge: {exc}") from exc


def _neumann_upper(q: Coefficient, k: float) -> float:
    """A bound strictly above every eigenvalue of the Neumann pencil of ``(q, k)``."""
    return (k * k) * max(q.max, 0.0) + 1.0


def _neumann_pencil(mesh: Mesh, q: CoefficientLike, k: float):
    q = checked_q_k(mesh, q, k)
    mq = assemble_weighted_mass(mesh, q)
    m = assemble_mass(mesh)
    a = (k * k) * mq - mesh.stiffness
    return a, m, _neumann_upper(q, k)


def neumann_eigenvalues(mesh: Mesh, q: CoefficientLike, k: float, count: int) -> np.ndarray:
    """Largest ``count`` eigenvalues of the Neumann pencil for ``(q, k)``, read-only.

    These are the discrete Neumann eigenvalues of ``Laplacian + k^2 q``,
    sorted descending: one step of :func:`_sweep_down`, whose infinite
    threshold ends it there.
    """
    a, m, sigma_upper = _neumann_pencil(mesh, q, k)
    count = checked_count(count, "count", 1, mesh.n_vertices)
    values, _ = _sweep_down(a, m, sigma_upper, np.inf, None, mesh.vertex_order, count)
    values.setflags(write=False)
    return values


def _sweep_down(a, b, sigma_upper, threshold: float, tol: Optional[float],
                order: np.ndarray, m: int = 8):
    """Top eigenvalues of ``a v = lambda b v``, descending, from the top ``m``
    on until at least one falls below the decision window around
    ``threshold``; returns (values, effective tolerance).

    ``sigma_upper`` lies strictly above the whole spectrum, so the
    eigenvalues nearest it are the top ones, and the shifted pencil is
    negative definite: :func:`fem.factorize` keeps its symmetric-mode
    factorization.  The count doubles until the sweep ends.  Every step
    restarts ARPACK from the same start vector, but the shifted pencil is
    factored once per sweep, in ``order`` (the pencil has the mesh's pattern,
    so the mesh's :attr:`~helmono.mesh.Mesh.vertex_order`).
    """
    n = a.shape[0]
    solve = None
    if n > DENSE_CUTOFF:
        solve = factorize((a - sigma_upper * b).tocsc(), f"at shift {sigma_upper:.17g}",
                          order).lu.solve
    m = min(m, n)
    while True:
        values = np.sort(_eigenvalues(a, b, sigma_upper, m, solve))[::-1][:m]
        tol_eff = tol if tol is not None else TOL_FACTOR * float(np.abs(values).max())
        if values.min() < threshold - tol_eff or m >= n:
            return values, tol_eff
        m = min(2 * m, n)


def _nearest_zero(system: HelmholtzSystem) -> float:
    """The eigenvalue nearest zero of ``system.matrix v = mu M v``, shift-
    inverted at zero on the system's own factorization.  ``M`` is the
    system's ``mass`` when it kept one, else it is assembled here.
    """
    m = system.mass if system.mass is not None else assemble_mass(system.mesh)
    w = _eigenvalues(system.matrix, m, 0.0, 1, system._lu.solve, NEAREST_NCV)
    return float(w[np.argmin(np.abs(w))])


class _AtZero(NamedTuple):
    """The Neumann pencil of ``(q, k)`` around zero: ``d`` eigenvalues lie
    above ``tol`` and ``nearest`` is the one nearest zero."""

    d: int
    nearest: float
    tol: float

    @property
    def resonant(self) -> bool:
        return abs(self.nearest) <= self.tol

    def decided(self) -> int:
        if self.resonant:
            raise SpectralAmbiguityError(
                f"Neumann eigenvalue(s) within {self.tol:.3e} of zero, the nearest "
                f"{self.nearest:.3e}", offending=(self.nearest,))
        return self.d


def _at_zero(mesh: Mesh, q: CoefficientLike, k: float, tol: Optional[float] = None,
             system: Optional[HelmholtzSystem] = None, factor: bool = True) -> _AtZero:
    """The pencil around zero from ``system`` or from
    ``HelmholtzSystem(mesh, q, k, mass=True)``: ``d`` from its negative
    pivots, ``nearest`` from :func:`_nearest_zero` on its factors.  A matrix
    that cannot be factored (also ``q = 0``: ``S`` is singular) or a
    factorization without pivot signs takes :func:`_sweep_down` instead, in
    the same window, as does ``factor=False`` (the caller's factorization of
    it was refused).  The route is counted in :func:`fem.counting`."""
    coeff = checked_q_k(mesh, q, k)
    if system is not None:
        check_system(system, mesh, coeff, k)
    tol = (TOL_FACTOR * _neumann_upper(coeff, k) if tol is None
           else checked_positive(tol, "tolerance"))
    if system is None and factor and coeff.values.any():
        try:
            system = HelmholtzSystem(mesh, coeff, k, mass=True)
        except ResonanceError:
            pass
    if system is not None and system.negative_pivots is not None:
        count("defect.inertia")
        return _AtZero(system.negative_pivots, -_nearest_zero(system), tol)
    count("defect.sweep")
    a, m, sigma_upper = _neumann_pencil(mesh, coeff, k)
    values, _ = _sweep_down(a, m, sigma_upper, 0.0, tol, mesh.vertex_order)
    return _AtZero(int((values > tol).sum()), float(values[np.argmin(np.abs(values))]), tol)


def d_of_q(mesh: Mesh, q: CoefficientLike, k: float, tol: Optional[float] = None, *,
           system: Optional[HelmholtzSystem] = None) -> int:
    """Number of positive Neumann eigenvalues of ``Laplacian + k^2 q``, read
    from the negative pivots of ``S - k^2 M_q`` (see the module notes).

    ``system`` is the factorized :class:`HelmholtzSystem` of the same
    ``(mesh, q, k)``; without it one is factored for the call.  The default
    ``tol`` is ``TOL_FACTOR * (k^2 max(q, 0) + 1)``, the factor times an
    upper bound of the spectrum.

    Raises
    ------
    SpectralAmbiguityError
        If some eigenvalue lies within ``tol`` of zero, in which case the
        count is not meaningful (the configuration is numerically resonant).
    InvalidParameterError
        If ``tol`` is not positive and finite, or ``system`` belongs to
        another mesh, coefficient or wavenumber.
    """
    return _at_zero(mesh, q, k, tol, system).decided()


def count_K_eigs_above_one(mesh: Mesh, q: CoefficientLike, k: float,
                           tol: Optional[float] = None) -> int:
    """Number of eigenvalues above one of ``M_{1 + k^2 q} v = mu (S + M) v``.

    This counts, in the discretization, the eigenvalues above one of the
    compact part of the variational operator; in exact arithmetic it equals
    ``d_of_q``, but it is computed from a different pencil so the two serve
    as mutual cross-checks.
    """
    tol = None if tol is None else checked_positive(tol, "tolerance")
    q = checked_q_k(mesh, q, k)
    p = assemble_weighted_mass(mesh, 1.0 + (k * k) * q.values)
    g = mesh.stiffness + assemble_mass(mesh)
    sigma_upper = max(1.0 + (k * k) * q.max, 0.0) + 1.0
    values, tol_eff = _sweep_down(p, g, sigma_upper, 1.0, tol, mesh.vertex_order)
    # The count decides mu > 1 + tol, so the ambiguous band sits around that
    # decision point.  mu = 1 exactly is a structural eigenvalue (constants
    # whenever q has mean zero contribution) and is cleanly not counted.
    near = values[np.abs(values - (1.0 + tol_eff)) < 0.5 * tol_eff]
    if near.size:
        raise SpectralAmbiguityError(
            f"{near.size} eigenvalue(s) within {0.5 * tol_eff:.3e} of the "
            f"decision point 1 + {tol_eff:.3e}",
            offending=tuple(near),
        )
    return int((values > 1.0 + tol_eff).sum())


def is_resonance(mesh: Mesh, q: CoefficientLike, k: float,
                 tol: Optional[float] = None) -> bool:
    """Whether some discrete Neumann eigenvalue of ``(q, k)`` lies within
    ``tol`` of zero, i.e. the forward problem is (numerically) unsolvable:
    exactly when :func:`d_of_q` would raise, with the same default ``tol``
    and from the same factorization."""
    return _at_zero(mesh, q, k, tol).resonant


def nearest_neumann_eigenvalue(mesh: Mesh, q: CoefficientLike, k: float) -> float:
    """The signed Neumann eigenvalue of smallest magnitude, from the
    factorization :func:`d_of_q` counts with.

    Measures how close the configuration is to a discrete resonance.  Its
    sign brackets no resonance along a wavenumber scan, as the nearest
    eigenvalue jumps between branches; :func:`d_of_q`'s changes do.
    """
    return _at_zero(mesh, q, k).nearest


def _count_from(w: np.ndarray, tol: Optional[float]) -> CountResult:
    """The count rule on the ascending eigenvalues ``w`` of one matrix."""
    tol_eff = TOL_FACTOR * (float(np.abs(w).max()) if w.size else 0.0) if tol is None else tol
    below = w < -tol_eff
    return CountResult(negative=int(below.sum()),
                       indeterminate=int((np.abs(w + tol_eff) < 0.5 * tol_eff).sum()),
                       tol=tol_eff, certain=int((below & (w <= -1.5 * tol_eff)).sum()))


def count_negative(matrix: np.ndarray, tol: Optional[float] = None) -> CountResult:
    """Count eigenvalues of a dense symmetric matrix below ``-tol``.

    Eigenvalues inside the open window of half-width ``tol/2`` around the
    ``-tol`` threshold are tallied separately as indeterminate, and those
    below it as certain; :meth:`CountResult.verdict` decides from the two
    whether the count fits an allowance.  The default tolerance is
    ``1e-8 * max|eigenvalue|`` (zero for the zero matrix, which therefore has
    no negative and no indeterminate eigenvalues).  The matrix is checked by
    :func:`checked_symmetric`: a non-finite entry is rejected, since no
    comparison with it could fail.  The eigenvalues are computed under
    :func:`one_blas_thread`, so the count does not depend on the BLAS thread
    setting.
    """
    sym = checked_symmetric(matrix)
    tol = None if tol is None else checked_positive(tol, "tolerance")
    with one_blas_thread():
        w = np.linalg.eigvalsh(sym)
    return _count_from(w, tol)


def checked_symmetric(matrix: np.ndarray) -> np.ndarray:
    """``matrix`` as :func:`count_negative` hands it to ``eigvalsh``,
    checked: square, finite, and symmetric up to ``1e-12`` of its largest
    entry.

    A matrix equal to its transpose bit for bit (so also in the signs of its
    zeros) is its own symmetrization and is returned as it is.  One equal to
    its transpose but for the signs of mirrored zeros gets ``+0.0`` in those
    pairs, in a copy (halving would flush subnormal entries to zero), and any
    other is replaced by ``0.5 * m + 0.5 * m.T`` (halves first: no overflow
    near the largest double).
    """
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidParameterError("count_negative expects a square matrix")
    if not np.isfinite(m).all():
        raise InvalidParameterError("eigenvalue counts expect finite entries")
    bits = m.view(np.uint64)
    if (bits == bits.T).all():
        return m
    scale = float(np.abs(m).max())
    defect = float(np.abs(m - m.T).max())
    if defect > 1e-12 * max(scale, 1e-300):
        raise InvalidParameterError(
            f"matrix is not symmetric: defect {defect:.3e} vs scale {scale:.3e}"
        )
    # defect 0: m == m.T but for the signs of some mirrored zeros
    return np.where(bits != bits.T, 0.0, m) if defect == 0.0 else 0.5 * m + 0.5 * m.T


class RejectionCertificate:
    """Proof, without the full spectrum, that the count of ``diff - alpha t``
    has the verdict False at allowance ``d``: more than ``d`` of its
    eigenvalues lie below the indeterminate window of :func:`count_negative`.

    ``t`` is the symmetric part of ``u^T y`` and is never formed: for a probe
    ``T_B``, ``u`` holds the background solutions' rows at the pixel's
    vertices and ``y = W u`` with ``W`` its (symmetric) mass matrix, so
    ``u^T y`` is symmetric up to rounding.  ``t`` is compressed once onto an
    orthonormal Krylov basis ``Q`` of at most :data:`CERTIFICATE_DIM`
    columns, built with the products ``u^T (y v)`` from the fixed-seed start
    vector of the iterative solves, each new column orthogonalized twice
    against the others; a column keeping at most :data:`KRYLOV_BREAKDOWN` of
    its norm ends the basis (breakdown).  The compressions are the symmetric
    parts of ``Q^T diff Q`` and ``(u Q)^T (y Q)``.  For each ``alpha``, the
    Ritz values ``theta`` of ``Q^T diff Q - alpha Q^T t Q`` bound those of
    the full matrix from above (Cauchy interlacing: ``lambda_i <= theta_i``).
    So when ``theta_{d+1}`` lies below ``-1.5 tau - CERTIFICATE_MARGIN b``,
    with ``b = diff_norm + alpha |u|_F |y|_F (1 + CERTIFICATE_MARGIN)`` and
    ``tau`` the explicit ``tol`` or ``TOL_FACTOR b``, the matrix has
    ``d + 1`` eigenvalues below ``-1.5 tol``: its count has ``certain > d``,
    so ``count_negative(diff - alpha t, tol).verdict(d)`` is False, as is
    ``leq_d``'s verdict.  ``diff_norm`` is ``|diff|_F``, computed once by a
    caller that certifies many probes against one ``diff``.  Since
    ``|u^T y|_F <= |u|_F |y|_F``, and the factor covers the rounding of the
    product, ``b`` is at least ``|diff|_F + alpha |t|_F``, so ``tau`` is no
    smaller than the default tolerance ``TOL_FACTOR max|lambda|``.  The
    margin covers the rounding of the compressions and of the dense
    eigenvalues.  A basis whose Gram matrix is off the identity by more than
    the margin, or non-finite input, certifies nothing.
    """

    def __init__(self, diff: np.ndarray, diff_norm: float, u: np.ndarray, y: np.ndarray):
        q = _krylov_basis(u, y, CERTIFICATE_DIM)
        if np.abs(q.T @ q - np.eye(q.shape[1])).max(initial=0.0) > CERTIFICATE_MARGIN:
            q = q[:, :0]
        self._diff = _symmetric_part(q.T @ (diff @ q))
        self._t = _symmetric_part((u @ q).T @ (y @ q))
        self._norms = (float(diff_norm), float(np.linalg.norm(u)) * float(np.linalg.norm(y))
                       * (1.0 + CERTIFICATE_MARGIN))
        if not (np.isfinite(self._diff).all() and np.isfinite(self._t).all()
                and np.isfinite(self._norms).all()):
            self._diff = self._t = np.zeros((0, 0))

    def rejects(self, alpha: float, d: int, tol: Optional[float] = None) -> bool:
        """Whether ``diff - alpha t`` certainly has more than ``d`` eigenvalues
        below the window, so that its count's ``verdict(d)`` is False; False
        means only that this basis does not show it."""
        tol = None if tol is None else checked_positive(tol, "tolerance")
        if self._diff.shape[0] <= d:
            return False
        theta = np.linalg.eigvalsh(self._diff - alpha * self._t)
        b = self._norms[0] + alpha * self._norms[1]
        tau = TOL_FACTOR * b if tol is None else tol
        return bool(theta[d] < -1.5 * tau - CERTIFICATE_MARGIN * b)


def _krylov_basis(u: np.ndarray, y: np.ndarray, dim: int) -> np.ndarray:
    """Orthonormal basis of the Krylov space of ``u^T y`` from the fixed-seed
    start vector, at most ``dim`` columns (see :class:`RejectionCertificate`)."""
    n = u.shape[1]
    rows = np.empty((min(dim, n), n))  # the basis vectors, one per row
    v = _deterministic_start(n)
    rows[0] = v / np.linalg.norm(v)
    for j in range(1, rows.shape[0]):
        w = u.T @ (y @ rows[j - 1])
        scale = np.linalg.norm(w)
        for _ in range(2):
            w -= (rows[:j] @ w) @ rows[:j]
        norm = np.linalg.norm(w)
        if not norm > KRYLOV_BREAKDOWN * scale:
            return rows[:j].T
        rows[j] = w / norm
    return rows.T


def _symmetric_part(c: np.ndarray) -> np.ndarray:
    return 0.5 * c + 0.5 * c.T
