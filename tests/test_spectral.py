import math
import sys
import threading

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from helmono import fem, spectral
from helmono import (
    HelmholtzSystem,
    assemble_boundary_load,
    assemble_mass,
    assemble_stiffness,
    build_unit_square_mesh,
    count_K_eigs_above_one,
    count_negative,
    d_of_q,
    is_resonance,
    mark_sigma,
    nearest_neumann_eigenvalue,
    neumann_eigenvalues,
)
from helmono.errors import InvalidParameterError, SpectralAmbiguityError
from helmono.spectral import checked_symmetric, one_blas_thread

PI2 = math.pi ** 2


def test_top_eigenvalue_is_k_squared():
    mesh = build_unit_square_mesh(32)
    values = neumann_eigenvalues(mesh, 1.0, 1.0, 3)
    assert abs(values[0] - 1.0) <= 1e-3


def test_second_eigenvalue_analytic():
    mesh = build_unit_square_mesh(32)
    values = neumann_eigenvalues(mesh, 1.0, 1.0, 3)
    exact = 1.0 - PI2
    assert abs(values[1] - exact) <= 0.02 * abs(exact)


def test_zero_coefficient_spectrum():
    # q = 0 turns the pencil into the negated Laplacian; constants give 0
    mesh = build_unit_square_mesh(8)
    values = neumann_eigenvalues(mesh, 0.0, 1.0, 3)
    assert abs(values[0]) <= 1e-10
    assert values[1] < -1.0


def test_eigenvalues_sorted_descending():
    mesh = build_unit_square_mesh(8)
    values = neumann_eigenvalues(mesh, 1.0, 2.0, 6)
    assert (np.diff(values) <= 1e-12).all()
    assert not values.flags.writeable


def test_arpack_eigenvalues_match_dense_lapack():
    # n = 36 has 1369 vertices, above DENSE_CUTOFF: both calls run ARPACK.
    mesh = build_unit_square_mesh(36)
    assert mesh.n_vertices > spectral.DENSE_CUTOFF
    q = np.random.default_rng(5).uniform(0.2, 3.0, mesh.n_triangles)
    k = 2.5
    a = (k * k) * fem.assemble_weighted_mass(mesh, q) - assemble_stiffness(mesh)
    w = sla.eigh(a.toarray(), assemble_mass(mesh).toarray(), eigvals_only=True)
    scale = 1e-9 * np.abs(w).max()
    top = neumann_eigenvalues(mesh, q, k, 8)
    assert np.abs(top - w[::-1][:8]).max() <= scale
    assert abs(nearest_neumann_eigenvalue(mesh, q, k) - w[np.argmin(np.abs(w))]) <= scale


def test_d_of_q_analytic_counts():
    mesh = build_unit_square_mesh(32)
    assert d_of_q(mesh, 1.0, 1.0) == 1
    assert d_of_q(mesh, 1.0, 4.0) == 3


def test_sweep_factors_the_shifted_pencil_once(monkeypatch):
    # At k = 8 the first eight eigenvalues above one are all counted, so the
    # sweep doubles its count once; both steps share one factorization.
    calls = []

    def counting(matrix, where, *args):
        calls.append(where)
        return factorize(matrix, where, *args)

    factorize = spectral.factorize
    monkeypatch.setattr(spectral, "factorize", counting)
    mesh = build_unit_square_mesh(64)
    assert count_K_eigs_above_one(mesh, 1.0, 8.0) == 8
    assert len(calls) == 1


def test_d_of_q_small_constant():
    # k^2 q0 below the first positive Laplacian eigenvalue: only constants
    mesh = build_unit_square_mesh(8)
    assert d_of_q(mesh, 0.1, 1.0) == 1


def test_d_of_q_ambiguous_near_resonance():
    mesh = build_unit_square_mesh(8)
    s = assemble_stiffness(mesh).toarray()
    m = assemble_mass(mesh).toarray()
    rho = np.sort(sla.eigh(s, m, eigvals_only=True))
    k_star = float(np.sqrt(rho[1]))
    with pytest.raises(SpectralAmbiguityError):
        d_of_q(mesh, 1.0, k_star)


def _piecewise(mesh, values):
    """The coefficient equal to ``values[i, j]`` on the triangles whose
    centroid lies in cell ``(i, j)`` (row ``i`` along y) of a uniform grid
    over the unit square."""
    cells = values.shape[0]
    centroid = mesh.vertices[mesh.triangles].mean(axis=1)
    ix = np.minimum((centroid * cells).astype(int), cells - 1)
    return values[ix[:, 1], ix[:, 0]]


# n = 36 has 1369 vertices, above DENSE_CUTOFF: the sweep and the window
# search run ARPACK there and dense LAPACK at n = 8.
@settings(max_examples=12, deadline=None)
@given(st.sampled_from([8, 36]),
       arrays(np.float64, (3, 3), elements=st.floats(0.2, 3.0)),
       st.floats(0.5, 4.0))
@example(36, np.full((3, 3), 1.0), 2.0)
def test_d_routes_agree(n, values, k):
    mesh = build_unit_square_mesh(n)
    q = _piecewise(mesh, values)
    # Resonances excluded: every route's window sits far below this margin.
    assume(abs(nearest_neumann_eigenvalue(mesh, q, k)) > 1e-3)
    d = d_of_q(mesh, q, k)
    assert d_of_q(mesh, q, k, system=HelmholtzSystem(mesh, q, k)) == d
    # Two independent legs: the compact-part pencil's sweep, and the top
    # d + 1 pencil eigenvalues (ARPACK at n = 36), d of them above the window.
    assert count_K_eigs_above_one(mesh, q, k) == d
    tol = spectral.TOL_FACTOR * (k * k * max(q.max(), 0.0) + 1.0)
    assert (neumann_eigenvalues(mesh, q, k, d + 1) > tol).sum() == d


def test_d_decided_near_a_resonance_in_one_window():
    # The top eigenvalue 2e-7 above zero, outside the window
    # 1e-8 (k^2 + 1) ~ 1.1e-7 every route shares: d = 2 with or without a
    # factored system, and no resonance.
    mesh = build_unit_square_mesh(8)
    s = assemble_stiffness(mesh).toarray()
    m = assemble_mass(mesh).toarray()
    rho = np.sort(sla.eigh(s, m, eigvals_only=True))
    k = float(np.sqrt(rho[1] + 2e-7))
    tol = spectral.TOL_FACTOR * (k * k + 1.0)
    assert d_of_q(mesh, 1.0, k) == 2
    assert d_of_q(mesh, 1.0, k, system=HelmholtzSystem(mesh, 1.0, k, mass=True)) == 2
    near = nearest_neumann_eigenvalue(mesh, 1.0, k)
    assert near == pytest.approx(2e-7, rel=1e-3)
    assert abs(near) > tol and not is_resonance(mesh, 1.0, k)
    assert is_resonance(mesh, 1.0, k, 2.0 * near)


@pytest.mark.parametrize("n", [8, 40])
def test_d_from_system_ambiguous_inside_window(n):
    mesh = build_unit_square_mesh(n)
    system = HelmholtzSystem(mesh, 1.0, 1.0)
    near = nearest_neumann_eigenvalue(mesh, 1.0, 1.0)
    assert d_of_q(mesh, 1.0, 1.0, 0.5 * abs(near), system=system) == 1
    with pytest.raises(SpectralAmbiguityError) as info:
        d_of_q(mesh, 1.0, 1.0, 2.0 * abs(near), system=system)
    assert info.value.offending == pytest.approx((near,), rel=1e-9)


def test_d_from_system_without_pivot_signs_takes_the_sweep(monkeypatch):
    mesh = build_unit_square_mesh(40)  # above DENSE_CUTOFF: the sweep factors
    q = _piecewise(mesh, np.array([[1.0, 2.5], [0.5, 1.5]]))
    d = d_of_q(mesh, q, 3.0)
    # No symmetric-mode factorization is kept: every one is partial pivoting.
    monkeypatch.setattr(fem, "SYMMETRIC_PIVOT_RTOL", 1.0)
    system = HelmholtzSystem(mesh, q, 3.0)
    assert system.negative_pivots is None
    calls = []

    def counting(matrix, where, *args):
        calls.append(where)
        return factorize(matrix, where, *args)

    factorize = spectral.factorize
    monkeypatch.setattr(spectral, "factorize", counting)
    windows = []

    def sweep(a, b, sigma_upper, threshold, tol, order):
        windows.append(tol)
        return sweep_down(a, b, sigma_upper, threshold, tol, order)

    sweep_down = spectral._sweep_down
    monkeypatch.setattr(spectral, "_sweep_down", sweep)
    assert d_of_q(mesh, q, 3.0, system=system) == d
    assert len(calls) == 1
    # the window of the inertia route: the factor times k^2 max(q) + 1
    assert windows == [spectral.TOL_FACTOR * (9.0 * 2.5 + 1.0)]
    assert d_of_q(mesh, q, 3.0, 1e-6, system=system) == d
    assert windows[1] == 1e-6
    for other_q, other_k, other_mesh in ((1.0, 3.0, mesh), (q, 2.0, mesh),
                                         (q, 3.0, build_unit_square_mesh(40))):
        with pytest.raises(InvalidParameterError, match="another"):
            d_of_q(other_mesh, other_q, other_k, system=system)


@pytest.mark.parametrize("q, k", [(1.0, 1e200), (0.0, 1e200), (1e10, 1e150)])
def test_a_wavenumber_whose_k2q_overflows_is_refused(q, k):
    # An infinite k^2 q is no resonance and no LAPACK input: every route
    # refuses it as a parameter.
    mesh = build_unit_square_mesh(4)
    for call in (lambda: HelmholtzSystem(mesh, q, k), lambda: d_of_q(mesh, q, k),
                 lambda: count_K_eigs_above_one(mesh, q, k),
                 lambda: nearest_neumann_eigenvalue(mesh, q, k),
                 lambda: neumann_eigenvalues(mesh, q, k, 3)):
        with pytest.raises(InvalidParameterError, match=r"k\^2 q must be finite"):
            call()


@pytest.mark.parametrize("tol", [np.nan, np.inf, -np.inf, 0.0, -1e-8])
def test_counts_reject_a_tolerance_that_is_not_positive_and_finite(tol):
    # NaN fails every comparison, so a NaN window would pass every guard.
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        count_negative(-np.eye(3), tol=tol)
    mesh = build_unit_square_mesh(8)
    system = HelmholtzSystem(mesh, 1.0, 1.0)
    for count in (d_of_q, count_K_eigs_above_one, is_resonance):
        with pytest.raises(InvalidParameterError, match="positive and finite"):
            count(mesh, 1.0, 1.0, tol)
    with pytest.raises(InvalidParameterError, match="positive and finite"):
        d_of_q(mesh, 1.0, 1.0, tol, system=system)


def test_count_k_matches_d():
    mesh = build_unit_square_mesh(16)
    rng = np.random.default_rng(7)
    for _ in range(20):
        q = rng.uniform(0.5, 2.0, mesh.n_triangles)
        assert count_K_eigs_above_one(mesh, q, 1.0) == d_of_q(mesh, q, 1.0)


def test_count_k_zero_coefficient():
    mesh = build_unit_square_mesh(8)
    assert count_K_eigs_above_one(mesh, 0.0, 1.0) == 0
    assert count_K_eigs_above_one(mesh, 0.0, 3.0) == 0


def test_count_k_unit_coefficient():
    mesh = build_unit_square_mesh(32)
    assert count_K_eigs_above_one(mesh, 1.0, 1.0) == 1


def test_d_monotone_in_q():
    mesh = build_unit_square_mesh(8)
    rng = np.random.default_rng(10)
    for _ in range(10):
        q1 = rng.uniform(0.3, 1.5, mesh.n_triangles)
        q2 = q1 + rng.uniform(0.0, 2.0, mesh.n_triangles)
        d1 = d_of_q(mesh, q1, 2.0)
        d2 = d_of_q(mesh, q2, 2.0)
        assert d1 <= d2
        assert d2 <= d_of_q(mesh, float(q2.max()), 2.0)


def test_resonance_detection():
    mesh = build_unit_square_mesh(64)
    assert is_resonance(mesh, 1.0, math.pi, tol=1e-2)
    assert not is_resonance(mesh, 1.0, 1.0, tol=1e-2)


def test_nonresonant_solve_consistency():
    mesh = mark_sigma(build_unit_square_mesh(8), "all")
    assert not is_resonance(mesh, 1.0, 1.0)
    load = assemble_boundary_load(mesh, np.ones(mesh.boundary_edges.shape[0]))
    u = HelmholtzSystem(mesh, 1.0, 1.0).solve(load)
    assert np.isfinite(u).all()


def test_nearest_eigenvalue_signed():
    mesh = build_unit_square_mesh(16)
    near = nearest_neumann_eigenvalue(mesh, 1.0, 1.0)
    assert abs(near - 1.0) <= 1e-3  # top eigenvalue is the closest to zero


def test_count_negative_example_rows():
    assert count_negative(np.diag([-1.0, 2.0, 3.0]), tol=1e-8).negative == 1
    zero = count_negative(np.zeros((4, 4)))
    assert zero.negative == 0
    assert zero.indeterminate == 0


def test_count_negative_against_brute_force():
    rng = np.random.default_rng(20)
    a = rng.standard_normal((20, 20))
    a = 0.5 * (a + a.T)
    result = count_negative(a)
    w = np.linalg.eigvalsh(a)
    assert result.negative == int((w < -result.tol).sum())


def test_count_negative_inertia_identity():
    a = np.diag([-1.0, 0.0, 2.0, 3.0, -5.0])
    neg = count_negative(a).negative
    pos = count_negative(-a).negative
    assert neg == 2 and pos == 2
    assert neg + pos + 1 == a.shape[0]  # one exact zero eigenvalue


def test_count_negative_rejects_asymmetry():
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    with pytest.raises(InvalidParameterError):
        count_negative(a)


def test_count_negative_near_symmetric_does_not_overflow():
    # the slow path symmetrizes by halves, so entries near the largest double
    # stay finite: eigenvalues about -1.7e308 and +1.7e308
    a = np.array([[1.0, 1.7e308], [np.nextafter(1.7e308, 0.0), 1.0]])
    result = count_negative(a)
    assert (result.negative, result.indeterminate) == (1, 0)
    assert np.isfinite(result.tol)


@pytest.mark.parametrize("where, value", [((0, 1), np.nan), ((0, 0), np.inf),
                                          ((2, 2), -np.inf)])
def test_count_negative_rejects_non_finite(where, value):
    # NaN fails every comparison, so neither the symmetry check nor the
    # count would notice it: the verdict would read "no negative eigenvalue"
    a = np.diag([-1.0, 2.0, 3.0])
    a[where] = a[where[::-1]] = value
    with pytest.raises(InvalidParameterError, match="finite"):
        count_negative(a)
    with pytest.raises(InvalidParameterError, match="finite"):
        count_negative(a, tol=1e-8)


def _reference_count(a, tol, sym=None):
    """The count as symmetrize-then-eigvalsh, with the 1e-8 default tolerance,
    the half-width window around -tol and the eigenvalues below it;
    ``sym`` defaults to (a + a.T)/2."""
    w = np.linalg.eigvalsh(0.5 * (a + a.T) if sym is None else sym)
    tol_eff = float(tol) if tol is not None else 1e-8 * (
        float(np.abs(w).max()) if w.size else 0.0)
    return (int((w < -tol_eff).sum()),
            int((np.abs(w + tol_eff) < 0.5 * tol_eff).sum()), tol_eff,
            int(((w < -tol_eff) & (w <= -1.5 * tol_eff)).sum()))


@st.composite
def _symmetric(draw, min_n=1, n=None):
    """Exactly symmetric matrices, some mirrored entry pairs -0.0 and 0.0."""
    if n is None:
        n = draw(st.integers(min_n, 10))
    a = draw(arrays(np.float64, (n, n), elements=st.floats(-1e3, 1e3, width=64)))
    a = np.triu(a) + np.triu(a, 1).T
    zero = draw(arrays(np.bool_, (n, n)))
    sign = draw(arrays(np.bool_, (n, n)))
    for i, j in zip(*np.nonzero(np.triu(zero, 1))):
        a[i, j], a[j, i] = (-0.0, 0.0) if sign[i, j] else (0.0, -0.0)
    return a


_tols = st.none() | st.floats(1e-9, 10.0)


# a == a.T, but symmetrizing turns each -0.0 into 0.0, and LAPACK reads the
# sign of a zero: eigvalsh of the two differs in the last bit.
_SIGNED_ZEROS = np.array([[1.0, 0.0, 1.0, 1.0],
                          [-0.0, 1.0, 1.0, 0.0],
                          [1.0, 1.0, 1.0, 0.0],
                          [1.0, -0.0, -0.0, 1.0]])


@settings(max_examples=150, deadline=None)
@given(_symmetric(), _tols)
@example(_SIGNED_ZEROS, None)
@example(-_SIGNED_ZEROS, None)
@example(np.array([[-5e-324, 0.0], [-0.0, 0.0]]), None)  # halving flushes -5e-324
def test_count_negative_exactly_symmetric_matches_reference(a, tol):
    assert np.array_equal(a, a.T)
    assert tuple(count_negative(a, tol)) == _reference_count(a, tol)


def _nudge(a, data, delta):
    """Add delta to one off-diagonal entry of a, leaving its mirror."""
    i, j = data.draw(st.permutations(range(a.shape[0])))[:2]
    a[i, j] += delta


@settings(max_examples=150, deadline=None)
@given(_symmetric(min_n=2), _tols, st.floats(0.01, 0.5), st.data())
def test_count_negative_near_symmetric_matches_reference(a, tol, frac, data):
    _nudge(a, data, frac * 1e-12 * float(np.abs(a).max()))
    assume(not np.array_equal(a, a.T))
    # The slow path halves before adding; on subnormal entries the halves
    # round, so (a + a.T)/2 can differ from it in the last bits.
    assert tuple(count_negative(a, tol)) == _reference_count(a, tol, 0.5 * a + 0.5 * a.T)


def test_count_negative_near_symmetric_subnormal_entries():
    # 0.5 * 5e-324 rounds to zero: halves-first symmetrization and
    # (a + a.T)/2 give different diagonals, and max|w| differs in its last bit
    a = np.full((4, 4), 2.2250738585072014e-309)
    a[0, 0], a[1, 1] = 5e-324, 1.0
    a[1, 2] += 5e-13
    result = count_negative(a)
    assert tuple(result) == _reference_count(a, None, 0.5 * a + 0.5 * a.T)
    assert (result.negative, result.indeterminate) == (0, 0)


@settings(max_examples=100, deadline=None)
@given(_symmetric(min_n=2), _tols, st.floats(4.0, 1e6), st.data())
def test_count_negative_beyond_symmetry_bound_raises(a, tol, factor, data):
    _nudge(a, data, factor * 1e-12 * max(float(np.abs(a).max()), 1.0))
    with pytest.raises(InvalidParameterError, match="not symmetric"):
        count_negative(a, tol)


@settings(max_examples=100, deadline=None)
@given(_symmetric(min_n=2), st.floats(0.01, 0.5), st.data())
def test_checked_symmetric_returns_the_matrix_or_its_symmetrization(a, frac, data):
    # bitwise mirrored: the matrix itself; mirrored but for the signs of
    # zeros: +0.0 in those pairs; nearly symmetric: the halves-first sum
    bits = a.view(np.uint64)
    if (bits == bits.T).all():
        assert checked_symmetric(a) is a
    else:
        expected = np.where(bits != bits.T, 0.0, a)
        assert checked_symmetric(a).tobytes() == expected.tobytes()
    _nudge(a, data, frac * 1e-12 * float(np.abs(a).max()))
    assume(not np.array_equal(a, a.T))
    assert checked_symmetric(a).tobytes() == (0.5 * a + 0.5 * a.T).tobytes()


def test_checked_symmetric_does_not_overflow():
    big = np.array([[1.0, 1.7e308], [np.nextafter(1.7e308, 0.0), 1.0]])
    sym = checked_symmetric(big)
    assert np.isfinite(sym).all() and np.array_equal(sym, sym.T)
    assert np.array_equal(sym, checked_symmetric(big.T))


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checked_symmetric_rejects_non_finite(value):
    a = np.diag([-1.0, 2.0, 3.0])
    a[0, 2] = a[2, 0] = value
    with pytest.raises(InvalidParameterError, match="finite"):
        checked_symmetric(a)


@settings(max_examples=50, deadline=None)
@given(_symmetric(min_n=2), st.floats(4.0, 1e6), st.data())
def test_checked_symmetric_beyond_symmetry_bound_raises(a, factor, data):
    _nudge(a, data, factor * 1e-12 * max(float(np.abs(a).max()), 1.0))
    with pytest.raises(InvalidParameterError, match="not symmetric"):
        checked_symmetric(a)


def test_count_negative_shapes():
    with pytest.raises(InvalidParameterError, match="square"):
        count_negative(np.zeros((2, 3, 3)))
    with pytest.raises(InvalidParameterError, match="square"):
        count_negative(np.zeros((3, 4)))
    with pytest.raises(InvalidParameterError, match="square"):
        checked_symmetric(np.eye(3)[None])


@pytest.mark.skipif(spectral._blas_thread_calls()[0] is None,
                    reason="numpy's OpenBLAS exports no thread-count calls")
def test_one_blas_thread_restores_the_count_after_an_exception():
    get, put = spectral._blas_thread_calls()[0]
    original = get()
    put(2)
    try:
        before = get()
        with pytest.raises(RuntimeError, match="inside"):
            with one_blas_thread() as capped:
                assert capped and get() == 1
                with one_blas_thread():  # open blocks share the limit
                    assert get() == 1
                assert get() == 1
                raise RuntimeError("inside the block")
        assert get() == before
    finally:
        put(original)


@pytest.mark.skipif(spectral._blas_thread_calls()[0] is None,
                    reason="numpy's OpenBLAS exports no thread-count calls")
def test_one_blas_thread_holds_the_limit_while_any_block_is_open():
    # More threads than cores open and close blocks with a short switch
    # interval: a lost update of the open-block record would restore the old
    # count while some block is still open, or leave the limit in place.
    get, put = spectral._blas_thread_calls()[0]
    original = get()
    put(2)
    before = get()
    seen = []

    def worker():
        for _ in range(200):
            with one_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        after = get()
        put(original)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert after == before


def test_one_blas_thread_without_the_thread_calls_changes_nothing(monkeypatch):
    found = spectral._blas_thread_calls()
    calls = found[0]
    before = calls[0]() if calls else None
    monkeypatch.setattr(spectral, "_blas_thread_calls", lambda: (None, found[1]))
    with one_blas_thread() as capped:
        assert capped is False
        if calls:
            assert calls[0]() == before
        assert count_negative(np.diag([-1.0, 2.0]), 1e-8)[:2] == (1, 0)
    if calls:
        assert calls[0]() == before


def test_count_negative_explicit_tol_positive():
    with pytest.raises(InvalidParameterError):
        count_negative(np.eye(2), tol=0.0)


def test_count_negative_indeterminate_band():
    tol = 1e-6
    a = np.diag([-tol, -10.0, 1.0])
    result = count_negative(a, tol=tol)
    # the eigenvalue at exactly -tol is flagged, not silently counted
    assert result.indeterminate == 1
    assert result.negative == 1
    assert result.certain == 1


@pytest.mark.parametrize("eigenvalues, tol, split, verdicts", [
    # below the window, inside it below -tol, inside it above -tol
    ([-1.0, -1.2e-6, -0.8e-6, 1.0], 1e-6, (2, 2, 1), [False, None, None, True]),
    # a rejected pixel of a negative-contrast sweep: two eigenvalues below the
    # window, so counted or not the third leaves more than one negative
    ([-1.5e-4, -2.8e-7, -1.34e-9, 0.3, 2.0], 1.48e-9, (2, 1, 2), [False, False, None, True]),
])
def test_verdict_of_a_count_split_at_the_threshold(eigenvalues, tol, split, verdicts):
    counts = count_negative(np.diag(eigenvalues), tol=tol)
    assert (counts.negative, counts.indeterminate, counts.certain) == split
    assert [counts.verdict(d) for d in range(4)] == verdicts


def test_spectrum_deterministic_iterative_path():
    # large enough to take the shift-invert route; bitwise repeatability
    mesh = build_unit_square_mesh(40)
    a = neumann_eigenvalues(mesh, 1.0, 1.0, 6)
    b = neumann_eigenvalues(mesh, 1.0, 1.0, 6)
    assert (a == b).all()


def test_count_request_bounds():
    mesh = build_unit_square_mesh(4)
    with pytest.raises(InvalidParameterError):
        neumann_eigenvalues(mesh, 1.0, 1.0, 0)
    with pytest.raises(InvalidParameterError):
        neumann_eigenvalues(mesh, 1.0, 1.0, mesh.n_vertices + 1)


@pytest.mark.skipif(spectral._blas_thread_calls()[1] is None,
                    reason="scipy's OpenBLAS exports no thread-count calls")
def test_one_blas_thread_restores_scipys_count_after_an_exception():
    get, put = spectral._blas_thread_calls()[1]
    original = get()
    put(2)
    try:
        before = get()
        with pytest.raises(RuntimeError, match="inside"):
            with one_blas_thread():
                assert get() == 1
                with one_blas_thread():  # open blocks share the limit
                    assert get() == 1
                assert get() == 1
                raise RuntimeError("inside the block")
        assert get() == before
    finally:
        put(original)


@pytest.mark.skipif(spectral._blas_thread_calls()[1] is None,
                    reason="scipy's OpenBLAS exports no thread-count calls")
def test_one_blas_thread_holds_scipys_limit_while_any_block_is_open():
    get, put = spectral._blas_thread_calls()[1]
    original = get()
    put(2)
    before = get()
    seen = []

    def worker():
        for _ in range(200):
            with one_blas_thread():
                seen.append(get())

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
        assert not any(t.is_alive() for t in threads)
    finally:
        sys.setswitchinterval(interval)
        after = get()
        put(original)
    assert len(seen) == 8 * 200 and set(seen) == {1}
    assert after == before


@pytest.mark.skipif(spectral._blas_thread_calls()[1] is None,
                    reason="scipy's OpenBLAS exports no thread-count calls")
def test_one_blas_thread_limits_scipys_copy_without_numpys_calls(monkeypatch):
    found = spectral._blas_thread_calls()
    get, put = found[1]
    original = get()
    monkeypatch.setattr(spectral, "_blas_thread_calls", lambda: (None, found[1]))
    put(2)
    try:
        before = get()
        with one_blas_thread() as capped:
            assert capped is False and get() == 1
        assert get() == before
    finally:
        put(original)


def _certificate(diff, u, y):
    return spectral.RejectionCertificate(diff, np.linalg.norm(diff), u, y)


def _sym(a):
    return 0.5 * a + 0.5 * a.T


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 40), rank=st.integers(0, 16), seed=st.integers(0, 2**32 - 1),
       diff_scale=st.floats(1e-6, 10.0), alpha=st.floats(1e-3, 1e3), d=st.integers(0, 6),
       tol=st.none() | st.floats(1e-12, 1e-2), identity=st.booleans(),
       window=st.none() | st.floats(0.95, 1.45))
@example(n=6, rank=8, seed=1, diff_scale=1.0, alpha=0.3, d=2, tol=None, identity=True,
         window=1.2)
@example(n=10, rank=12, seed=2, diff_scale=0.1, alpha=1.0, d=4, tol=None, identity=False,
         window=1.05)
def test_certified_rejection_holds_in_the_dense_count(n, rank, seed, diff_scale, alpha,
                                                      d, tol, identity, window):
    # Cauchy interlacing: a certified pixel matrix has d + 1 eigenvalues
    # below the window, so its dense count exceeds d with none of them
    # indeterminate.  The probe comes as factors u (rank rows) and y = W u
    # with W positive semidefinite, the identity or a random one; ranks
    # below the Krylov size make the basis break down.  The Frobenius bound
    # never undercuts the probe's, and is the probe's own at rank one with
    # W the identity.  With ``window``, tol puts the matrix's (d+1)-th
    # eigenvalue at -window tol, inside the window: nothing may be certified.
    # A full-rank probe of at most CERTIFICATE_DIM columns (the examples)
    # gives Ritz values equal to the eigenvalues, so a certificate whose
    # threshold sat inside the window would certify there.
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((n, n)) * diff_scale
    diff = 0.5 * a + 0.5 * a.T
    u = rng.standard_normal((rank, n))
    g = np.eye(rank) if identity else rng.standard_normal((rank, rank))
    y = (g @ g.T) @ u
    t = _sym(u.T @ y)
    matrix = diff - alpha * t
    w = np.linalg.eigvalsh(matrix)
    if window is not None and d < n and w[d] < 0.0:
        tol = -w[d] / window
    certificate = _certificate(diff, u, y)
    assert certificate._norms[0] + alpha * certificate._norms[1] >= (
        np.linalg.norm(diff) + alpha * np.linalg.norm(t))
    if not certificate.rejects(alpha, d, tol):
        return
    counts = count_negative(matrix, tol)
    assert counts.verdict(d) is False
    assert counts.negative > d
    assert (w < -1.5 * counts.tol).sum() > d


def test_certificate_on_a_low_rank_probe():
    # diff = 0 and a rank-3 PSD probe u^T u: the Krylov space breaks down
    # after four columns and holds the probe's range, so the three negative
    # eigenvalues of -alpha t are exact Ritz values and the fourth is zero.
    u = np.random.default_rng(5).standard_normal((3, 30))
    t = _sym(u.T @ u)
    assert spectral._krylov_basis(u, u, spectral.CERTIFICATE_DIM).shape == (30, 4)
    certificate = _certificate(np.zeros((30, 30)), u, u)
    assert certificate.rejects(0.5, 2)
    assert certificate.rejects(0.5, 2, tol=1e-6)
    assert not certificate.rejects(0.5, 3)
    assert count_negative(-0.5 * t).negative == 3


def test_certificate_from_a_basis_off_the_identity_certifies_nothing(monkeypatch):
    # The low-rank case above certifies on its true basis; the same basis
    # off orthonormal by more than CERTIFICATE_MARGIN certifies nothing.
    u = np.random.default_rng(5).standard_normal((3, 30))
    diff = np.zeros((30, 30))
    assert _certificate(diff, u, u).rejects(0.5, 2)
    true_basis = spectral._krylov_basis
    monkeypatch.setattr(spectral, "_krylov_basis", lambda *args: (
        true_basis(*args) * (1.0 + 100.0 * spectral.CERTIFICATE_MARGIN)))
    assert not _certificate(diff, u, u).rejects(0.5, 2)


def test_certificate_declines_non_finite_input_and_refuses_bad_tolerances():
    u = np.eye(4)
    diff = np.zeros((4, 4))
    diff[0, 0] = np.inf
    assert not _certificate(diff, u, u).rejects(1.0, 0)
    spoiled = u.copy()
    spoiled[2, 1] = np.nan
    assert not _certificate(np.zeros((4, 4)), spoiled, u).rejects(1.0, 0)
    assert not _certificate(np.zeros((4, 4)), u, spoiled).rejects(1.0, 0)
    certificate = _certificate(np.zeros((4, 4)), u, u)
    assert certificate.rejects(1.0, 0)
    for tol in (0.0, -1.0, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="tolerance"):
            certificate.rejects(1.0, 0, tol)
