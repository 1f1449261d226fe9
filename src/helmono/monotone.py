"""Monotonicity comparisons, inclusion tests and scatterer reconstruction.

The ordering underneath everything is "less or equal up to a finite
defect": ``A <=_d B`` holds when ``B - A`` has at most ``d`` eigenvalues
below the count tolerance.  The forward theory supplies the defect budget:
ordered coefficients force ``Lambda(q1) <=_d Lambda(q2)`` with ``d`` the
number of positive Neumann eigenvalues of the larger coefficient, and a
scatterer region ``B`` inside the support ``D`` of a positive contrast forces
``alpha T_B <=_d Lambda(q) - Lambda(1)``.  Pixels of a reconstruction grid
are accepted or rejected by exactly that test.

Every pixel, operator pair and certificate is decided by one rule,
:meth:`~helmono.spectral.CountResult.verdict`.  A :class:`ComparisonResult`
carries the raw counts, the tolerance used and the defect allowance, so a
verdict can always be audited against the counts that produced it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache, cached_property
from typing import Callable, Optional

import numpy as np

from .errors import InvalidParameterError, ResonanceError, checked_count, checked_positive
from .fem import Coefficient, CoefficientLike, HelmholtzSystem, as_coefficient, \
    assemble_region_masses, assemble_weighted_mass, count
from .mesh import Mesh, PixelGrid
from .ntd import BoundaryBasis, SymOp, basis_load_matrix, basis_solutions, ntd_matrix, \
    probe_factors, tb_from_solutions
from .spectral import RejectionCertificate, _at_zero, checked_symmetric, count_negative, \
    d_of_q, one_blas_thread

_SWEEP_CAP = 20


@dataclass(frozen=True)
class ComparisonResult:
    """Outcome of one ``A <=_d B`` test.

    ``verdict`` is True exactly when the count's
    :meth:`~helmono.spectral.CountResult.verdict` at ``d_allowed`` is True;
    ``decided`` is False when that verdict is None (undecided), where
    ``verdict`` reads False.
    """

    negative_count: int
    indeterminate_count: int
    d_allowed: int
    tol: float
    verdict: bool
    decided: bool


def leq_d(a: SymOp, b: SymOp, d: int, tol: Optional[float] = None) -> ComparisonResult:
    """Test ``a <=_d b``: does ``b - a`` have at most ``d`` negative eigenvalues?

    Both operators must live on the same boundary basis and wavenumber
    (``b - a`` raises :class:`~helmono.errors.BasisMismatchError` otherwise).
    """
    d = checked_count(d, "defect allowance", 0)
    counts = count_negative((b - a).matrix, tol)
    verdict = counts.verdict(d)
    return ComparisonResult(
        negative_count=counts.negative,
        indeterminate_count=counts.indeterminate,
        d_allowed=d,
        tol=counts.tol,
        verdict=verdict is True,
        decided=verdict is not None,
    )


def identity_residual(mesh: Mesh, q1: CoefficientLike, q2: CoefficientLike,
                      k: float, basis: BoundaryBasis, g: np.ndarray) -> float:
    """Relative residual of the exact quadratic energy identity for one flux.

    For the flux with basis coefficients ``g`` and solutions ``u1, u2`` of the
    two configurations, the Galerkin discretization satisfies

        g.(Lambda2 - Lambda1) g  +  k^2 integral( (q1 - q2) u1^2 )
            =  integral( |grad(u2 - u1)|^2 - k^2 q2 (u2 - u1)^2 )

    exactly; the returned value is the defect of that equality relative to
    the magnitudes of its three terms (zero when all terms vanish).
    """
    g = np.asarray(g, dtype=float)
    if g.shape != (basis.dim,):
        raise InvalidParameterError(f"flux coefficients must have shape ({basis.dim},)")
    sys1, sys2 = HelmholtzSystem(mesh, q1, k), HelmholtzSystem(mesh, q2, k)
    load = basis_load_matrix(mesh, basis) @ g
    u1 = sys1.solve(load)
    u2 = sys2.solve(load)
    boundary_term = load @ (u2 - u1)
    weighted = assemble_weighted_mass(mesh, sys1.q) - assemble_weighted_mass(mesh, sys2.q)
    interior_term = (k * k) * (u1 @ (weighted @ u1))
    w = u2 - u1
    energy_term = w @ (sys2.matrix @ w)
    scale = abs(boundary_term) + abs(interior_term) + abs(energy_term)
    if scale == 0.0:
        return 0.0
    return abs(boundary_term + interior_term - energy_term) / scale


def _defect_system(mesh: Mesh, q: CoefficientLike, k: float, sigma_last: bool = False):
    """The :class:`HelmholtzSystem` of ``(q, k)``, with its mass matrix, and
    ``d_of_q`` read from its inertia.

    When the system cannot be factored, the count runs first from the
    sweep, in ``d_of_q``'s window, without factoring the refused matrix
    again, so a near-resonant configuration reports its ambiguous count
    before the resonance, as when the count came first.
    """
    try:
        system = HelmholtzSystem(mesh, q, k, sigma_last=sigma_last, mass=True)
    except ResonanceError:
        _at_zero(mesh, q, k, factor=False).decided()
        raise
    d = d_of_q(mesh, q, k, system=system)
    system.mass = None  # only d_of_q's window check reads it
    return system, d


def monotonicity_check(mesh: Mesh, q1: CoefficientLike, q2: CoefficientLike,
                       k: float, basis: BoundaryBasis,
                       tol: Optional[float] = None) -> ComparisonResult:
    """Verify ``Lambda(q1) <=_d Lambda(q2)`` with the defect predicted for ``q2``.

    Requires ``q1 <= q2`` triangle by triangle; the allowance is
    ``d_of_q(q2)``, read from the inertia of the ``q2`` system.  On a faithful
    discretization the verdict is True.
    """
    q1 = as_coefficient(mesh, q1)
    q2 = as_coefficient(mesh, q2)
    if not (q1.values <= q2.values).all():
        raise InvalidParameterError("coefficients are not ordered: q1 <= q2 fails")
    # One factorization per coefficient, each with the flagged boundary last
    # so its operator needs no solves; the q2 system, which also gives d(q2),
    # is released before q1 is factored.
    system, d2 = _defect_system(mesh, q2, k, sigma_last=True)
    lam2 = ntd_matrix(mesh, q2, k, basis, "ntd_q2", system=system)
    del system
    lam1 = ntd_matrix(mesh, q1, k, basis, "ntd_q1")
    return leq_d(lam1, lam2, d2, tol)


def inclusion_test(lam_q: SymOp, lam_1: SymOp, tb: SymOp, alpha: float,
                   d_max: int, tol: Optional[float] = None) -> ComparisonResult:
    """Test ``alpha T_B <=_d  lam_q - lam_1`` for one probing region.

    :func:`leq_d` counts the negative eigenvalues of
    ``lam_q - lam_1 - alpha T_B``; on the same matrix the verdict is True
    exactly where :func:`reconstruct`'s pixel verdict is True.
    """
    return leq_d(tb.scaled(checked_positive(alpha, "alpha")), lam_q - lam_1, d_max, tol)


@dataclass(frozen=True)
class ReconstructionResult:
    """Pixelwise verdicts of a reconstruction run.

    ``counts[i]`` is pixel ``i``'s :class:`~helmono.spectral.CountResult`,
    or None where the alpha sweep certified its rejection without a dense
    count.  ``mask[i]`` is True where the count has at most ``d_max``
    eigenvalues below ``-tol``; ``verdicts[i]`` is its
    :meth:`~helmono.spectral.CountResult.verdict` at ``d_max`` (None when
    undecided, False when certified), equal to ``mask[i]`` wherever decided.
    ``params`` records the run parameters (k, alpha, d_max, basis_dim, tol,
    contrast, and ``sweep_stable`` when the sweep ran); ``sweep`` lists the
    ``(alpha, accepted_count)`` history when the sweep ran.  On first access
    ``negative_counts`` and ``indeterminate_counts`` count the certified
    pixels, to the bits of an explicit-alpha run at ``params["alpha"]``.
    """

    grid: PixelGrid
    mask: np.ndarray
    counts: tuple
    verdicts: tuple
    params: dict
    sweep: Optional[list] = field(default=None)
    _complete: Optional[Callable[[], list]] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.mask.setflags(write=False)

    @cached_property
    def _dense(self) -> np.ndarray:
        counts = self._complete() if self._complete else self.counts
        table = np.array([(c.negative, c.indeterminate) for c in counts], dtype=int)
        table.setflags(write=False)
        return table

    negative_counts = property(lambda self: self._dense[:, 0])
    indeterminate_counts = property(lambda self: self._dense[:, 1])

    @property
    def ambiguous(self) -> np.ndarray:
        """Pixels whose verdict is undecided."""
        return np.array([v is None for v in self.verdicts], dtype=bool)

    def pixel_values(self) -> np.ndarray:
        """Image values per pixel: 255 accepted, 0 rejected, 128 undecided."""
        values = {True: 255, False: 0, None: 128}
        return np.array([values[v] for v in self.verdicts], dtype=int)


def _accepted(counts: list, d_max: int) -> np.ndarray:
    """reconstruct's mask, ``negative <= d_max``; a certified rejection (None) fails."""
    return np.array([c is not None and c.negative <= d_max for c in counts], dtype=bool)


def _pixel_counts(diff: np.ndarray, tb: Callable[[int], np.ndarray], alpha: float,
                  tol: Optional[float], counted: np.ndarray) -> list:
    """The :class:`~helmono.spectral.CountResult` of the pixel matrix
    ``diff - alpha tb(p)`` of every pixel ``p`` in ``counted`` (a mask), in
    pixel order, and None for every other pixel, whose ``T_B`` is not asked
    for.

    Each count is one :func:`~helmono.spectral.count_negative` call on the
    calling thread; their number is added to the ``counts.dense`` tally of
    :func:`fem.counting`.
    """
    counts = [count_negative(diff - alpha * tb(p), tol) if c else None
              for p, c in enumerate(counted)]
    count("counts.dense", int(np.count_nonzero(counted)))
    return counts


def contrast_alpha(q: Coefficient, contrast: str, alpha: Optional[float]) -> Optional[float]:
    """The alpha :func:`reconstruct` uses for ``q``: ``alpha`` if given, else
    ``min(q) - 1`` over the triangles with ``q > 1`` under a positive contrast
    and None (the sweep) under a negative one.  Raises
    :class:`InvalidParameterError` where ``q`` or ``alpha`` breaks the
    contrast's preconditions."""
    if contrast not in ("positive", "negative"):
        raise InvalidParameterError(f"contrast must be positive or negative, got {contrast!r}")
    if alpha is not None:
        alpha = checked_positive(alpha, "alpha")
    if contrast == "negative" and q.max > 1.0:
        raise InvalidParameterError(
            f"negative contrast requires q <= 1 everywhere (max is {q.max:.17g})"
        )
    if contrast == "positive" and q.min < 1.0:
        raise InvalidParameterError(
            f"positive contrast requires q >= 1 everywhere (min is {q.min:.17g})"
        )
    if contrast == "positive" and alpha is None:
        above = q.values[q.values > 1.0]
        if above.size == 0:
            raise InvalidParameterError(
                "no triangle has q > 1; give alpha explicitly for a no-scatterer run"
            )
        alpha = float(above.min() - 1.0)
    return alpha


def reconstruct(mesh: Mesh, q_true: CoefficientLike, k: float,
                basis: BoundaryBasis, grid: PixelGrid,
                contrast: str = "positive", alpha: Optional[float] = None,
                tol: Optional[float] = None) -> ReconstructionResult:
    """Reconstruct the scatterer support pixel by pixel.

    For every pixel ``B`` of the grid the inclusion test compares
    ``alpha T_B`` against the measured operator gap:

    * ``contrast="positive"`` (``q >= 1``, strictly above 1 on the scatterer):
      gap ``Lambda(q) - Lambda(1)``, allowance ``d_of_q(max q)``, and alpha
      defaults to ``min(q restricted to the scatterer) - 1``.  The allowance
      is read from the inertia of the factorized ``max q`` system.
    * ``contrast="negative"`` (``q <= 1``): gap ``Lambda(1) - Lambda(q)``,
      allowance ``d_of_q(1)``, read from the inertia of the background
      system.  No usable alpha is computable from the data; with
      ``alpha=None`` the dyadic sweep ``alpha = 2^-m`` runs until the
      accepted set is nonempty and stable across two consecutive steps (the
      larger alpha of the first such pair is reported, and
      ``params["sweep_stable"]`` is True).  If no stable pair appears within
      the cap the smallest alpha's result is returned with
      ``params["sweep_stable"]`` False.

    :func:`contrast_alpha` checks ``q`` and ``alpha`` and derives alpha; at
    a given or derived alpha each pixel gets one dense count.  Every
    pixel's mass comes from one assembly
    (:func:`~helmono.fem.assemble_region_masses`), and a pixel's ``T_B`` is
    built by :func:`~helmono.ntd.tb_from_solutions` only when a dense count
    needs it.  The sweep builds a
    :class:`~helmono.spectral.RejectionCertificate` per pixel once, from the
    pixel's factors (:func:`~helmono.ntd.probe_factors`, made for the
    certificate and then dropped), and at each step counts densely only the
    pixels it does not certify as rejected (most pixels, rejected by a wide
    margin at every step); a ``T_B`` it builds is kept for its later steps,
    so none is built twice.  The reported step's certified pixels stay
    uncounted (``counts`` entry None, verdict False) until
    ``negative_counts`` is read, and ``params["tol"]`` is the largest of the
    pixels counted at that step (the explicit ``tol``, or None, if none
    was).  The sweep checks ``diff`` once for finiteness and symmetry, each
    pixel's mass for symmetry and its factors for finiteness; every counted
    matrix is checked again by its count, and a certified pixel's ``T_B``
    and matrix are never built.  Each dense count is one
    :func:`~helmono.spectral.count_negative` call on the calling thread,
    under its one-thread limit on both OpenBLAS copies, so the result is bit
    for bit the same for every BLAS setting.  The numbers of dense counts,
    of ``T_B`` built, of certified rejections and of undecided pixels go to
    the ``counts.dense``, ``probes.built``, ``counts.certified`` and
    ``pixels.undecided`` tallies of :func:`fem.counting`.

    Returns per-pixel verdicts plus the parameters that produced them.
    """
    q = as_coefficient(mesh, q_true)
    alpha = contrast_alpha(q, contrast, alpha)
    if contrast == "positive":
        d_max = _defect_system(mesh, q.max, k)[1]
        system = None
    else:
        system, d_max = _defect_system(mesh, 1.0, k)

    # The measured operator needs no solutions: it is read off the trailing
    # block of its factorization, made before the background solutions
    # exist, while the least memory is in use.  The probes read every row of
    # those solutions.
    lam_q = ntd_matrix(mesh, q, k, basis, "ntd_measured")
    u1 = basis_solutions(mesh, 1.0, k, basis, system)
    del system
    lam1 = ntd_matrix(mesh, 1.0, k, basis, "ntd_background", solutions=u1)
    if contrast == "positive":
        diff = lam_q.matrix - lam1.matrix
    else:
        diff = lam1.matrix - lam_q.matrix
    masses = assemble_region_masses(mesh, grid.regions, k * k)

    def tb(p: int) -> np.ndarray:
        count("probes.built")
        return tb_from_solutions(mesh, grid.regions[p], k, basis, u1, mass=masses[p]).matrix

    sweep_history = None
    if alpha is not None:
        alpha_used = float(alpha)
        counts = _pixel_counts(diff, tb, alpha_used, tol, np.ones(len(masses), dtype=bool))
    else:
        # Most pixels are rejected at every step by a wide margin; their
        # certificates prove it from a small compression of the probe's
        # factors, and only the other pixels' T_B are built, once each, and
        # counted densely.  The matrices never built are checked through
        # their operands: diff, and each pixel's solution rows and mass.
        tb = cache(tb)
        checked_symmetric(diff)
        diff_norm = float(np.linalg.norm(diff))
        certificates = []
        with one_blas_thread():
            for mass in masses:
                checked_symmetric(mass[1].toarray())
                u, y = probe_factors(mass, u1)
                if not (np.isfinite(u).all() and np.isfinite(y).all()):
                    raise InvalidParameterError("probe factors must have finite entries")
                certificates.append(RejectionCertificate(diff, diff_norm, u, y))
        sweep_history = []
        step = None
        for m in range(_SWEEP_CAP + 1):
            a = 2.0 ** (-m)
            certified = np.array([c.rejects(a, d_max, tol) for c in certificates])
            count("counts.certified", int(certified.sum()))
            step_counts = _pixel_counts(diff, tb, a, tol, ~certified)
            mask = _accepted(step_counts, d_max)
            sweep_history.append((a, int(mask.sum())))
            # the larger alpha of the first nonempty pair with equal masks
            stable = step is not None and bool(step[2].any()) and np.array_equal(step[2], mask)
            if stable:
                break
            step = (a, step_counts, mask)
        alpha_used, counts, _ = step
    verdicts = tuple(False if c is None else c.verdict(d_max) for c in counts)
    count("pixels.undecided", verdicts.count(None))

    def complete() -> list:
        missing = np.array([c is None for c in counts])
        filled = _pixel_counts(diff, tb, alpha_used, tol, missing)
        return [f if c is None else c for c, f in zip(counts, filled)]

    params = {
        "k": float(k),
        "alpha": alpha_used,
        "d_max": int(d_max),
        "basis_dim": basis.dim,
        "tol": max((c.tol for c in counts if c is not None), default=tol),
        "contrast": contrast,
    }
    if sweep_history is not None:
        params["sweep_stable"] = stable
    return ReconstructionResult(
        grid=grid,
        mask=_accepted(counts, d_max),
        counts=tuple(counts),
        verdicts=verdicts,
        params=params,
        sweep=sweep_history,
        _complete=complete if None in counts else None,
    )
