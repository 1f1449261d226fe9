import dataclasses
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helmono import monotone, spectral
from helmono import (
    Coefficient,
    PixelGrid,
    ReconstructionResult,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    basis_solutions,
    boundary_basis,
    build_unit_square_mesh,
    count_negative,
    d_of_q,
    identity_residual,
    inclusion_test,
    leq_d,
    make_symop,
    mark_sigma,
    monotonicity_check,
    nearest_neumann_eigenvalue,
    ntd_matrix,
    pixel_grid,
    reconstruct,
    rect_region,
    tb_from_solutions,
)
from helmono.errors import BasisMismatchError, InvalidParameterError, SpectralAmbiguityError
from helmono.fem import assemble_region_masses, counting
from helmono.spectral import checked_symmetric


def _mesh(n, selector="all"):
    return mark_sigma(build_unit_square_mesh(n), selector)


def _op(matrix, basis_id="shared", label="test", k=1.0):
    return make_symop(np.asarray(matrix, dtype=float), basis_id, label, k)


def test_leq_d_reflexive():
    rng = np.random.default_rng(1)
    a = rng.standard_normal((6, 6))
    a = _op(0.5 * (a + a.T))
    for d in (0, 1, 5):
        result = leq_d(a, a, d)
        assert result.verdict
        assert result.negative_count == 0
        assert result.indeterminate_count == 0


def test_leq_d_two_negatives():
    diff = np.diag([-1.0, -1.0, 5.0, 7.0])
    zero = _op(np.zeros((4, 4)))
    b = _op(diff)
    rejected = leq_d(zero, b, 1)
    assert not rejected.verdict and rejected.decided
    assert leq_d(zero, b, 2).verdict


def test_leq_d_accepts_when_every_window_eigenvalue_lies_below_the_threshold():
    # -1.2 tol sits inside the window, below -tol: it is negative and the
    # count is 1 however it falls, so d = 1 accepts and d = 0 is undecided.
    tol = 1e-6
    zero = _op(np.zeros((3, 3)))
    b = _op(np.diag([-1.2 * tol, 1.0, 2.0]))
    accepted = leq_d(zero, b, 1, tol)
    assert (accepted.negative_count, accepted.indeterminate_count) == (1, 1)
    assert accepted.verdict and accepted.decided
    undecided = leq_d(zero, b, 0, tol)
    assert not undecided.verdict and not undecided.decided


def test_leq_d_guards():
    a = _op(np.eye(3))
    b = _op(np.eye(3), basis_id="other")
    c = _op(np.eye(3), k=2.0)
    with pytest.raises(BasisMismatchError):
        leq_d(a, b, 0)
    with pytest.raises(BasisMismatchError):
        leq_d(a, c, 0)
    with pytest.raises(InvalidParameterError):
        leq_d(a, a, -1)


def test_leq_d_transitive():
    # negatives(C-A) <= negatives(B-A) + negatives(C-B), eigenvalue interlacing
    rng = np.random.default_rng(14)
    for _ in range(50):
        mats = []
        for _ in range(3):
            x = rng.standard_normal((12, 12))
            mats.append(0.5 * (x + x.T))
        a, b, c = (_op(m) for m in mats)
        d1 = leq_d(a, b, 12).negative_count
        d2 = leq_d(b, c, 12).negative_count
        assert leq_d(a, c, d1 + d2).verdict


def test_identity_residual_equal_coefficients():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    g = np.zeros(basis.dim)
    g[0] = 1.0
    assert identity_residual(mesh, 1.3, 1.3, 1.0, basis, g) <= 1e-12


def test_identity_residual_random_pairs():
    mesh = _mesh(16)
    basis = boundary_basis(mesh)
    rng = np.random.default_rng(8)
    for _ in range(10):
        q1 = rng.uniform(0.5, 2.0, mesh.n_triangles)
        q2 = rng.uniform(0.5, 2.0, mesh.n_triangles)
        g = rng.standard_normal(basis.dim)
        assert identity_residual(mesh, q1, q2, 1.0, basis, g) <= 1e-9


def test_identity_residual_scale_invariant():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    rng = np.random.default_rng(9)
    q1 = rng.uniform(0.5, 2.0, mesh.n_triangles)
    q2 = rng.uniform(0.5, 2.0, mesh.n_triangles)
    g = rng.standard_normal(basis.dim)
    r1 = identity_residual(mesh, q1, q2, 1.0, basis, g)
    r2 = identity_residual(mesh, q1, q2, 1.0, basis, 2.0 * g)
    assert abs(r1 - r2) <= 1e-9


def test_monotonicity_equal_coefficients():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    result = monotonicity_check(mesh, 1.0, 1.0, 1.0, basis)
    assert result.verdict
    assert result.negative_count == 0


def test_monotonicity_center_bump():
    mesh = _mesh(32)
    basis = boundary_basis(mesh)
    bump = rect_region(mesh, (0.375, 0.375, 0.625, 0.625))
    q2 = Coefficient.constant(mesh, 1.0).with_region(bump, 1.5)
    result = monotonicity_check(mesh, 1.0, q2, 1.0, basis)
    assert result.verdict
    assert result.negative_count <= result.d_allowed == 1


@pytest.mark.parametrize("run", ["compare", "positive", "negative"])
def test_allowance_read_from_a_factored_system(monkeypatch, run):
    # Every caller that factors the system of the allowance's coefficient
    # reads d(q) from its pivots; no eigenvalue sweep runs beside it.
    mesh = _mesh(16)
    basis = boundary_basis(mesh, 8)
    grid = pixel_grid(mesh, 2, 2)
    inclusion = rect_region(mesh, (0.25, 0.25, 0.5, 0.5))
    q = Coefficient.constant(mesh, 1.0).with_region(
        inclusion, 0.5 if run == "negative" else 2.0)
    k = 4.0
    allowance_q = {"compare": q, "positive": q.max, "negative": 1.0}[run]
    expected = d_of_q(mesh, allowance_q, k)

    def no_sweep(*args):
        raise AssertionError("the eigenvalue sweep ran")

    monkeypatch.setattr(spectral, "_sweep_down", no_sweep)
    if run == "compare":
        assert monotonicity_check(mesh, 1.0, q, k, basis).d_allowed == expected
    else:
        result = reconstruct(mesh, q, k, basis, grid, contrast=run, alpha=0.5)
        assert result.params["d_max"] == expected


def test_monotonicity_requires_ordering():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    with pytest.raises(InvalidParameterError):
        monotonicity_check(mesh, 2.0, 1.0, 1.0, basis)


def test_swapped_order_counts_grow_with_basis():
    # q2 >= q1 with a strict bump touching the boundary: the gap operator has
    # ever more positive eigenvalues as the basis refines, i.e. the swapped
    # comparison accumulates negatives
    mesh = _mesh(32)
    bump = rect_region(mesh, (0.0, 0.0, 0.25, 0.25))
    q2 = Coefficient.constant(mesh, 1.0).with_region(bump, 2.0)
    counts = []
    for segments in (8, 16, 32):
        basis = boundary_basis(mesh, segments)
        lam1 = ntd_matrix(mesh, 1.0, 1.0, basis)
        lam2 = ntd_matrix(mesh, q2, 1.0, basis)
        counts.append(count_negative(lam1.matrix - lam2.matrix, tol=1e-9).negative)
    assert counts[0] < counts[1] < counts[2]


def test_quantitative_monotonicity_after_deflation():
    # the operator gap dominates the weighted interior Gram of background
    # solutions outside a low-dimensional subspace, whose dimension the
    # positive-Neumann-eigenvalue count bounds
    mesh = _mesh(16)
    k = 1.0
    basis = boundary_basis(mesh, 32)
    rng = np.random.default_rng(11)
    q1 = rng.uniform(0.8, 1.5, mesh.n_triangles)
    q2 = q1 + rng.uniform(0.0, 0.8, mesh.n_triangles)
    lam1 = ntd_matrix(mesh, q1, k, basis).matrix
    lam2 = ntd_matrix(mesh, q2, k, basis).matrix
    gap = lam2 - lam1
    u1 = basis_solutions(mesh, q1, k, basis)
    w = assemble_weighted_mass(mesh, (k * k) * (q2 - q1))
    gram = u1.T @ (w @ u1)
    gram = 0.5 * (gram + gram.T)
    tol = 1e-8 * np.abs(np.linalg.eigvalsh(gap)).max()
    vals, vecs = np.linalg.eigh(gap - gram)
    deflate = vecs[:, vals < -tol]
    assert deflate.shape[1] <= d_of_q(mesh, q2, k)
    for _ in range(50):
        g = rng.standard_normal(basis.dim)
        g -= deflate @ (deflate.T @ g)
        g /= np.linalg.norm(g)
        assert g @ gap @ g >= g @ gram @ g - tol


def test_inclusion_with_zero_probe_reduces_to_monotonicity():
    mesh = _mesh(16)
    basis = boundary_basis(mesh)
    bump = rect_region(mesh, (0.25, 0.25, 0.75, 0.75))
    q = Coefficient.constant(mesh, 1.0).with_region(bump, 1.5)
    lam_q = ntd_matrix(mesh, q, 1.0, basis)
    lam_1 = ntd_matrix(mesh, 1.0, 1.0, basis)
    tiny = make_symop(np.zeros((basis.dim, basis.dim)), lam_q.basis_id, "tb", 1.0)
    d_max = d_of_q(mesh, q, 1.0)
    direct = inclusion_test(lam_q, lam_1, tiny, 1.0, d_max)
    reference = monotonicity_check(mesh, 1.0, q, 1.0, basis)
    assert direct.negative_count == reference.negative_count
    assert direct.verdict == reference.verdict


def test_inclusion_probe_outside_scatterer_rejected_and_grows():
    mesh = _mesh(32)
    scatterer = rect_region(mesh, (0.25, 0.25, 0.5, 0.5))
    q = Coefficient.constant(mesh, 1.0).with_region(scatterer, 2.0)
    probe = rect_region(mesh, (0.75, 0.75, 1.0, 1.0))
    d_max = d_of_q(mesh, 2.0, 1.0)
    counts = []
    for segments in (32, 64):
        basis = boundary_basis(mesh, segments)
        lam_q = ntd_matrix(mesh, q, 1.0, basis)
        lam_1 = ntd_matrix(mesh, 1.0, 1.0, basis)
        tb = tb_from_solutions(mesh, probe, 1.0, basis,
                               basis_solutions(mesh, 1.0, 1.0, basis))
        result = inclusion_test(lam_q, lam_1, tb, 1.0, d_max)
        assert not result.verdict
        assert result.negative_count > d_max
        counts.append(result.negative_count)
    assert counts[0] < counts[1]


def test_inclusion_guards():
    a = _op(np.eye(3))
    b = _op(np.eye(3), basis_id="other")
    with pytest.raises(BasisMismatchError):
        inclusion_test(a, b, a, 1.0, 0)
    with pytest.raises(InvalidParameterError):
        inclusion_test(a, a, a, -1.0, 0)
    with pytest.raises(InvalidParameterError):
        inclusion_test(a, a, a, 1.0, -2)


def test_reconstruct_no_scatterer_rejects_everything():
    mesh = _mesh(16)
    basis = boundary_basis(mesh)
    grid = pixel_grid(mesh, 4, 4)
    result = reconstruct(mesh, 1.0, 1.0, basis, grid, alpha=0.5)
    assert not result.mask.any()
    assert (result.negative_counts > result.params["d_max"]).all()


def test_reconstruct_single_pixel_scatterer():
    mesh = _mesh(32)
    basis = boundary_basis(mesh)
    grid = pixel_grid(mesh, 4, 4)
    inclusion = rect_region(mesh, (0.25, 0.25, 0.5, 0.5))  # pixel (1, 1)
    q = Coefficient.constant(mesh, 1.0).with_region(inclusion, 2.0)
    result = reconstruct(mesh, q, 1.0, basis, grid)
    assert result.params["alpha"] == 1.0  # derived q_min - 1 on the scatterer
    assert np.flatnonzero(result.mask).tolist() == [grid.index(1, 1)]


def test_reconstruct_smaller_alpha_keeps_accepted_pixels():
    mesh = _mesh(32)
    basis = boundary_basis(mesh)
    grid = pixel_grid(mesh, 4, 4)
    inclusion = rect_region(mesh, (0.25, 0.25, 0.5, 0.5))
    q = Coefficient.constant(mesh, 1.0).with_region(inclusion, 2.0)
    first = reconstruct(mesh, q, 1.0, basis, grid)
    second = reconstruct(mesh, q, 1.0, basis, grid,
                         alpha=first.params["alpha"] / 10.0)
    assert second.mask[first.mask].all()


def test_reconstruct_negative_contrast_sweep():
    mesh = _mesh(16)
    basis = boundary_basis(mesh)
    grid = pixel_grid(mesh, 4, 4)
    inclusion = rect_region(mesh, (0.25, 0.25, 0.5, 0.5))
    q = Coefficient.constant(mesh, 1.0).with_region(inclusion, 0.5)
    result = reconstruct(mesh, q, 1.0, basis, grid, contrast="negative")
    assert result.params["alpha"] == 0.25
    assert np.flatnonzero(result.mask).tolist() == [grid.index(1, 1)]
    alphas = [a for a, _ in result.sweep]
    assert alphas == sorted(alphas, reverse=True)


@pytest.mark.parametrize("contrast, value", [("positive", 2.0), ("negative", 0.5)])
def test_reconstruct_counts_match_inclusion_test(contrast, value):
    # reconstruct and the library test share the probe, the count and the
    # verdict rule, so every pixel gets the same count and the same verdict
    mesh = _mesh(16)
    basis = boundary_basis(mesh, 16)
    grid = pixel_grid(mesh, 4, 4)
    inclusion = rect_region(mesh, (0.25, 0.25, 0.75, 0.5))
    q = Coefficient.constant(mesh, 1.0).with_region(inclusion, value)
    result = reconstruct(mesh, q, 1.0, basis, grid, contrast=contrast)
    lam_q = ntd_matrix(mesh, q, 1.0, basis)
    lam_1 = ntd_matrix(mesh, 1.0, 1.0, basis)
    upper, lower = (lam_q, lam_1) if contrast == "positive" else (lam_1, lam_q)
    alpha, d_max = result.params["alpha"], result.params["d_max"]
    u1 = basis_solutions(mesh, 1.0, 1.0, basis)
    for p, region in enumerate(grid.regions):
        test = inclusion_test(upper, lower, tb_from_solutions(mesh, region, 1.0, basis, u1),
                              alpha, d_max)
        assert result.negative_counts[p] == test.negative_count
        assert test.verdict == (result.pixel_values()[p] == 255)
        assert result.mask[p] == (test.negative_count <= d_max)


def _recording_counts(monkeypatch):
    """Record (thread, matrix bytes) of every pixel matrix reconstruct counts."""
    seen = []

    def recorder(matrix, tol=None):
        seen.append((threading.get_ident(), matrix.tobytes()))
        return count_negative(matrix, tol)

    monkeypatch.setattr(monotone, "count_negative", recorder)
    return seen


def test_reconstruct_counts_each_pixel_once_on_the_calling_thread(monkeypatch):
    # An explicit alpha counts every pixel once.  The sweep counts no
    # (pixel, alpha) twice and fewer than pixels * steps in all (certified
    # rejections are not counted); reading its counts then counts exactly
    # the reported step's certified pixels, to the bits of an explicit alpha.
    # Every count runs on the calling thread.
    seen = _recording_counts(monkeypatch)
    mesh = _mesh(16)
    basis = boundary_basis(mesh)
    grid = pixel_grid(mesh, 4, 4)
    pixels = len(grid.regions)
    inclusion = rect_region(mesh, (0.25, 0.25, 0.5, 0.5))
    q_low = Coefficient.constant(mesh, 1.0).with_region(inclusion, 0.5)
    for q, kwargs in ((1.0, {"alpha": 0.5}), (q_low, {"contrast": "negative"})):
        seen.clear()
        serial = reconstruct(mesh, q, 1.0, basis, grid, **kwargs)
        steps = len(serial.sweep) if serial.sweep else 1
        assert steps > 1 or "alpha" in kwargs
        if "alpha" in kwargs:
            assert len(seen) == pixels
        else:
            assert len(seen) < pixels * steps
        assert {thread for thread, _ in seen} == {threading.get_ident()}
        matrices = sorted(m for _, m in seen)
        assert len(set(matrices)) == len(matrices)
        if "alpha" not in kwargs:
            certified = [p for p, c in enumerate(serial.counts) if c is None]
            assert certified
            seen.clear()
            serial.negative_counts
            assert len(seen) == len(certified)
            assert {thread for thread, _ in seen} == {threading.get_ident()}
            completed = {m for _, m in seen}
            assert not completed & set(matrices)
            seen.clear()
            reported = reconstruct(mesh, q, 1.0, basis, grid, contrast="negative",
                                   alpha=serial.params["alpha"])
            assert len(seen) == pixels
            assert {m for _, m in seen} <= set(matrices) | completed
            assert np.array_equal(reported.negative_counts, serial.negative_counts)
            assert np.array_equal(reported.indeterminate_counts,
                                  serial.indeterminate_counts)
            assert reported.params["tol"] >= serial.params["tol"] == max(
                c.tol for p, c in enumerate(reported.counts) if p not in certified)


def _negative_sweep_case():
    mesh = _mesh(16)
    grid = pixel_grid(mesh, 4, 4)
    inclusion = rect_region(mesh, (0.25, 0.25, 0.5, 0.5))
    q_low = Coefficient.constant(mesh, 1.0).with_region(inclusion, 0.5)
    return mesh, grid, q_low


def _recording_steps(monkeypatch):
    """Record (alpha, counted mask) of every call reconstruct makes to _pixel_counts."""
    steps = []
    pixel_counts = monotone._pixel_counts

    def record_step(diff, tb, alpha, tol, counted):
        steps.append((alpha, counted.copy()))
        return pixel_counts(diff, tb, alpha, tol, counted)

    monkeypatch.setattr(monotone, "_pixel_counts", record_step)
    return steps


def test_reconstruct_checks_each_operand_once_and_builds_only_counted_matrices(monkeypatch):
    # The sweep checks diff and each pixel's mass once; it builds a pixel's
    # T_B at most once, and only for a pixel it counts densely.  Every
    # matrix it counts is checked by its count, and a certified pixel's
    # matrix is never built.
    mesh, grid, q_low = _negative_sweep_case()
    pixels = len(grid.regions)
    operands, checked, built = [], [], {}

    def check_operand(matrix):
        operands.append(matrix)
        return checked_symmetric(matrix)

    def check_counted(matrix):
        checked.append(matrix.tobytes())
        return checked_symmetric(matrix)

    tb_from_solutions = monotone.tb_from_solutions

    def record_probe(mesh, region, *args, **kwargs):
        p = next(i for i, r in enumerate(grid.regions) if r is region)
        assert p not in built
        tb = tb_from_solutions(mesh, region, *args, **kwargs)
        built[p] = tb.matrix
        return tb

    monkeypatch.setattr(monotone, "checked_symmetric", check_operand)
    monkeypatch.setattr(spectral, "checked_symmetric", check_counted)
    monkeypatch.setattr(monotone, "tb_from_solutions", record_probe)
    steps = _recording_steps(monkeypatch)
    seen = _recording_counts(monkeypatch)
    with counting() as tally:
        result = reconstruct(mesh, q_low, 1.0, boundary_basis(mesh), grid,
                             contrast="negative")
    diff, *masses = operands
    assert len(masses) == pixels
    for (_, mass), operand in zip(assemble_region_masses(mesh, grid.regions, 1.0), masses):
        assert np.array_equal(mass.toarray(), operand)
    assert [a for a, _ in steps] == [a for a, _ in result.sweep]
    counted_pixels = {p for _, counted in steps for p in np.flatnonzero(counted)}
    assert set(built) == counted_pixels and len(built) < pixels
    assert tally["probes.built"] == len(built)

    counted = sorted((np.multiply(built[p], -a) + diff).tobytes()
                     for a, mask in steps for p in np.flatnonzero(mask))
    assert sorted(m for _, m in seen) == sorted(checked) == counted
    assert tally["counts.dense"] == len(counted)
    assert tally["counts.dense"] + tally["counts.certified"] == pixels * len(steps)


@pytest.mark.parametrize("pixel", [1, 2])
@pytest.mark.parametrize("entry, message", [(np.inf, "finite"), (1e-6, "not symmetric")])
def test_certified_pixel_matrices_are_checked(monkeypatch, pixel, entry, message):
    # The last two pixels, far from the inclusion, are certified at every
    # step of this sweep, so no count sees their matrices: their operands
    # are checked instead.  An infinite entry spoils the solution rows at a
    # vertex of the pixel alone; 1e-6 of its largest entry, added to one
    # side of the pixel's mass, spoils its symmetry.
    mesh, grid, q_low = _negative_sweep_case()
    basis = boundary_basis(mesh)
    with pytest.MonkeyPatch.context() as patch:
        steps = _recording_steps(patch)
        reconstruct(mesh, q_low, 1.0, basis, grid, contrast="negative")
    assert not any(counted[-pixel] for _, counted in steps)

    masses = assemble_region_masses(mesh, grid.regions, 1.0)
    others = np.concatenate([v for i, (v, _) in enumerate(masses) if i != len(masses) - pixel])
    vertex = np.setdiff1d(masses[-pixel][0], others)[0]
    if np.isinf(entry):
        basis_solutions = monotone.basis_solutions

        def spoiled(*args, **kwargs):
            u = basis_solutions(*args, **kwargs)
            u[vertex, 5] = entry
            return u

        monkeypatch.setattr(monotone, "basis_solutions", spoiled)
    else:
        def spoiled(*args, **kwargs):
            found = assemble_region_masses(*args, **kwargs)
            vertices, mass = found[-pixel]
            mass = mass.toarray()
            mass[0, -1] += entry * np.abs(mass).max()
            found[-pixel] = (vertices, sp.csr_matrix(mass))
            return found

        monkeypatch.setattr(monotone, "assemble_region_masses", spoiled)
    with pytest.raises(InvalidParameterError, match=message):
        reconstruct(mesh, q_low, 1.0, basis, grid, contrast="negative")


def test_reconstruct_counts_serially_without_the_blas_limit(monkeypatch):
    # Without numpy's thread-count call the counts still run, each pixel
    # once, on the calling thread.
    found = spectral._blas_thread_calls()
    monkeypatch.setattr(spectral, "_blas_thread_calls", lambda: (None, found[1]))
    seen = _recording_counts(monkeypatch)
    mesh = _mesh(8)
    grid = pixel_grid(mesh, 4, 2)
    reconstruct(mesh, 1.0, 1.0, boundary_basis(mesh), grid, alpha=0.5)
    assert len(seen) == len(grid.regions)
    assert {thread for thread, _ in seen} == {threading.get_ident()}


@pytest.mark.parametrize("alpha", [-1.0, 0.0, float("nan"), float("inf")])
def test_reconstruct_rejects_bad_alpha(alpha):
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    grid = pixel_grid(mesh, 2, 2)
    with pytest.raises(InvalidParameterError, match="alpha must be positive and finite"):
        reconstruct(mesh, 1.0, 1.0, basis, grid, alpha=alpha)
    with pytest.raises(InvalidParameterError, match="alpha must be positive and finite"):
        reconstruct(mesh, 1.0, 1.0, basis, grid, contrast="negative", alpha=alpha)


@pytest.mark.parametrize("reads", [1, 2])
@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from([8, 12]), corner=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)),
       size=st.tuples(st.floats(0.25, 0.6), st.floats(0.25, 0.6)), shift=st.floats(0.2, 2.0))
def test_sweep_counts_a_certified_pixel_only_when_its_count_is_read(reads, n, corner,
                                                                    size, shift):
    # The mask, the verdicts and the image need no dense count; reading the
    # counts, once or again, counts the certified pixels once, to the bits of
    # an explicit alpha, and each of those dense verdicts is the certified False.
    mesh = _mesh(n)
    basis = boundary_basis(mesh)
    grid = pixel_grid(mesh, 3, 3)
    x0, y0 = (c * (1.0 - s) for c, s in zip(corner, size))
    inclusion = rect_region(mesh, (x0, y0, x0 + size[0], y0 + size[1]))
    q = Coefficient.constant(mesh, 1.0).with_region(inclusion, 1.0 / (1.0 + shift))
    swept = reconstruct(mesh, q, 1.0, basis, grid, contrast="negative")
    certified = [p for p, c in enumerate(swept.counts) if c is None]
    with pytest.MonkeyPatch.context() as patch:
        seen = _recording_counts(patch)
        swept.mask, swept.verdicts, swept.ambiguous, swept.pixel_values()
        assert seen == []
        for _ in range(reads):
            swept.indeterminate_counts, swept.negative_counts
        assert len(seen) == len(certified)
    dense = reconstruct(mesh, q, 1.0, basis, grid, contrast="negative",
                        alpha=swept.params["alpha"])
    assert np.array_equal(swept.negative_counts, dense.negative_counts)
    assert np.array_equal(swept.indeterminate_counts, dense.indeterminate_counts)
    assert [c for c in swept.counts if c is not None] == [
        c for p, c in enumerate(dense.counts) if p not in certified]
    assert swept.params["tol"] == max(
        (c.tol for p, c in enumerate(dense.counts) if p not in certified), default=None)
    d_max = swept.params["d_max"]
    for p in certified:
        assert swept.verdicts[p] is False and dense.counts[p].verdict(d_max) is False


@pytest.mark.parametrize("sigma_last", [False, True])
def test_a_refused_factorization_is_not_redone_for_the_defect(sigma_last):
    # At a resonance the system's symmetric and partial-pivoting
    # factorizations are both refused; d(q) then sweeps at once, factoring
    # only the shifted pencil: three factorizations in all.
    mesh = _mesh(40)  # above DENSE_CUTOFF: the sweep factors
    rho = spla.eigsh(assemble_stiffness(mesh).tocsc(), k=1, M=assemble_mass(mesh).tocsc(),
                     sigma=np.pi ** 2, return_eigenvectors=False)[0]
    with counting() as tally, pytest.raises(SpectralAmbiguityError):
        monotone._defect_system(mesh, 1.0, float(np.sqrt(rho)), sigma_last=sigma_last)
    assert (tally["factorizations"], tally["defect.sweep"]) == (3, 1)


def test_reconstruct_mask_pure_under_grid_permutation():
    mesh = _mesh(16)
    basis = boundary_basis(mesh)
    grid = pixel_grid(mesh, 4, 4)
    rng = np.random.default_rng(15)
    perm = rng.permutation(len(grid.regions))
    shuffled = PixelGrid(
        nx=grid.nx,
        ny=grid.ny,
        boxes=grid.boxes[perm],
        regions=[grid.regions[i] for i in perm],
    )
    base = reconstruct(mesh, 1.0, 1.0, basis, grid, alpha=0.5)
    moved = reconstruct(mesh, 1.0, 1.0, basis, shuffled, alpha=0.5)
    assert (moved.negative_counts == base.negative_counts[perm]).all()
    assert (moved.mask == base.mask[perm]).all()


def test_reconstruct_contrast_preconditions():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    grid = pixel_grid(mesh, 2, 2)
    low = rect_region(mesh, (0.0, 0.0, 0.5, 0.5))
    q_below = Coefficient.constant(mesh, 1.0).with_region(low, 0.5)
    with pytest.raises(InvalidParameterError):
        reconstruct(mesh, q_below, 1.0, basis, grid)  # positive needs q >= 1
    q_above = Coefficient.constant(mesh, 1.0).with_region(low, 2.0)
    with pytest.raises(InvalidParameterError):
        reconstruct(mesh, q_above, 1.0, basis, grid, contrast="negative")
    with pytest.raises(InvalidParameterError):
        reconstruct(mesh, 1.0, 1.0, basis, grid)  # no contrast, no alpha
    with pytest.raises(InvalidParameterError):
        reconstruct(mesh, 1.0, 1.0, basis, grid, contrast="sideways", alpha=0.5)


def test_pixel_values_mapping():
    # At d_max = 1: pixel 0 certainly accepted; pixel 1 undecided (its window
    # eigenvalues straddle -tol); pixel 2 rejected, as two eigenvalues lie
    # below the window whether or not its third, above -tol, is counted (a
    # rejected pixel of a negative-contrast sweep); pixel 3 accepted, as its
    # window eigenvalue below -tol leaves one negative eigenvalue either way.
    tol, d_max = 1.48e-9, 1
    eigenvalues = ([-1.0, 0.0, 1.0], [-1.2 * tol, -0.8 * tol, 1.0],
                   [-1.5e-4, -2.8e-7, -1.34e-9], [-1.2 * tol, 1.0, 2.0])
    counts = [count_negative(np.diag(w), tol) for w in eigenvalues]
    assert [(c.negative, c.indeterminate, c.certain) for c in counts] == [
        (1, 0, 1), (1, 2, 0), (2, 1, 2), (1, 1, 0)]
    negative = np.array([c.negative for c in counts])
    result = ReconstructionResult(
        grid=PixelGrid(nx=4, ny=1, boxes=np.zeros((4, 4)), regions=[None] * 4),
        mask=negative <= d_max,
        counts=tuple(counts),
        verdicts=tuple(c.verdict(d_max) for c in counts),
        params={"d_max": d_max},
    )
    assert result.pixel_values().tolist() == [255, 128, 0, 255]
    assert result.ambiguous.tolist() == [False, True, False, False]


def test_reconstruct_flags_a_sweep_without_a_stable_pair():
    # q = 1 makes every pixel matrix -alpha T_B, and T_B is PSD and nonzero,
    # so no alpha accepts a pixel and the sweep reaches its cap.
    mesh = _mesh(8)
    grid = pixel_grid(mesh, 2, 2)
    result = reconstruct(mesh, 1.0, 1.0, boundary_basis(mesh), grid, contrast="negative")
    assert result.params["sweep_stable"] is False
    assert not result.mask.any()
    assert len(result.sweep) == monotone._SWEEP_CAP + 1
    assert result.params["alpha"] == 2.0 ** -monotone._SWEEP_CAP
    inclusion = rect_region(mesh, (0.0, 0.0, 0.5, 0.5))
    q_low = Coefficient.constant(mesh, 1.0).with_region(inclusion, 0.5)
    settled = reconstruct(mesh, q_low, 1.0, boundary_basis(mesh), grid, contrast="negative")
    assert settled.params["sweep_stable"] is True
    fixed = reconstruct(mesh, 1.0, 1.0, boundary_basis(mesh), grid, alpha=0.5)
    assert "sweep_stable" not in fixed.params


_unit = st.floats(0.0, 1.0)


@settings(max_examples=25, deadline=None)
@given(n=st.sampled_from([8, 12]), corner=st.tuples(_unit, _unit),
       size=st.tuples(st.floats(0.25, 0.6), st.floats(0.25, 0.6)),
       value=st.floats(1.2, 3.0), alpha1=st.floats(1e-3, 0.5), ratio=st.floats(1.1, 50.0))
def test_larger_alpha_never_accepts_more(n, corner, size, value, alpha1, ratio):
    # T_B is PSD, so by Weyl every eigenvalue of diff - alpha T_B is
    # non-increasing in alpha: the negative count can only grow with alpha.
    mesh = _mesh(n)
    basis = boundary_basis(mesh)
    grid = pixel_grid(mesh, 3, 3)
    x0, y0 = (c * (1.0 - s) for c, s in zip(corner, size))
    inclusion = rect_region(mesh, (x0, y0, x0 + size[0], y0 + size[1]))
    q = Coefficient.constant(mesh, 1.0).with_region(inclusion, value)
    low, high = (reconstruct(mesh, q, 1.0, basis, grid, alpha=a, tol=1e-9)
                 for a in (alpha1, alpha1 * ratio))
    decided = ~low.ambiguous & ~high.ambiguous
    assert not (high.mask & ~low.mask & decided).any()
    assert (high.negative_counts[decided] >= low.negative_counts[decided]).all()


@settings(max_examples=20, deadline=None)
@given(n=st.sampled_from([8, 12]), corner=st.tuples(_unit, _unit),
       size=st.tuples(st.floats(0.25, 0.6), st.floats(0.25, 0.6)),
       contrast=st.sampled_from(["positive", "negative"]), shift=st.floats(0.2, 2.0),
       alpha=st.floats(1e-3, 0.5), segments=st.integers(1, 8))
def test_refining_a_nested_basis_never_accepts_more(n, corner, size, contrast, shift,
                                                     alpha, segments):
    # The bases of m and 2m segments are nested, so every operator on the
    # coarse one is a compression P^T X P (P an isometry) of the same one on
    # the fine one; by Cauchy interlacing the negative count can only grow
    # with the basis: more boundary data never accepts more pixels.
    mesh = _mesh(n)
    grid = pixel_grid(mesh, 3, 3)
    x0, y0 = (c * (1.0 - s) for c, s in zip(corner, size))
    inclusion = rect_region(mesh, (x0, y0, x0 + size[0], y0 + size[1]))
    value = 1.0 + shift if contrast == "positive" else 1.0 / (1.0 + shift)
    q = Coefficient.constant(mesh, 1.0).with_region(inclusion, value)
    coarse, fine = (reconstruct(mesh, q, 1.0, boundary_basis(mesh, m), grid,
                                contrast=contrast, alpha=alpha, tol=1e-9)
                    for m in (segments, 2 * segments))
    assert coarse.params["d_max"] == fine.params["d_max"]
    decided = ~coarse.ambiguous & ~fine.ambiguous
    assert not (fine.mask & ~coarse.mask & decided).any()
    assert (fine.negative_counts[decided] >= coarse.negative_counts[decided]).all()


@settings(max_examples=20, deadline=None)
@given(n=st.integers(6, 12), k=st.floats(0.5, 5.0), seed=st.integers(0, 2**32 - 1),
       segments=st.integers(1, 24))
def test_ordered_coefficients_pass_the_monotonicity_check(n, k, seed, segments):
    # q1 <= q2 gives Lambda(q1) <=_d Lambda(q2) with d = d(q2), away from the
    # resonances of either coefficient; one factorization per coefficient,
    # its operator read off the trailing block or, where that grew, solved.
    mesh = _mesh(n)
    rng = np.random.default_rng(seed)
    q1 = rng.uniform(0.3, 2.0, mesh.n_triangles)
    q2 = q1 + rng.uniform(0.0, 1.0, mesh.n_triangles) * (rng.random(mesh.n_triangles) < 0.5)
    for q in (q1, q2):
        assume(abs(nearest_neumann_eigenvalue(mesh, q, k)) > 1e-2)
    basis = boundary_basis(mesh, segments)
    with counting() as tally:
        result = monotonicity_check(mesh, q1, q2, k, basis)
    assert tally["ntd.trailing"] + tally["ntd.solved"] == 2
    assert result.verdict, result


@settings(max_examples=30, deadline=None)
@given(n=st.sampled_from([8, 12, 16]), k=st.floats(0.5, 6.0),
       sides=st.sets(st.sampled_from(["bottom", "top", "left", "right"]),
                     min_size=1, max_size=3),
       segments=st.integers(1, 48), corner=st.tuples(st.integers(0, 2), st.integers(0, 2)),
       value=st.floats(1.1, 4.0), fraction=st.none() | st.floats(0.01, 1.0))
def test_partial_data_never_rejects_a_pixel_inside_the_scatterer(n, k, sides, segments,
                                                                 corner, value, fraction):
    # The energy identity makes Lambda(q) - Lambda(1) - k^2 G_{q-1}(u_1) the
    # form of S - k^2 M_q on u_q - u_1, nonnegative off d(q) directions; so
    # alpha T_B <=_{d(max q)} Lambda(q) - Lambda(1) for every pixel B inside
    # the scatterer and alpha <= min(q - 1) on B, whatever part of the
    # boundary is measured, on any basis and at any k.
    mesh = _mesh(n, " ".join(sorted(sides)))
    grid = pixel_grid(mesh, 4, 4)
    ix, iy = corner
    scatterer = rect_region(mesh, (ix / 4, iy / 4, (ix + 2) / 4, (iy + 2) / 4))
    q = Coefficient.constant(mesh, 1.0).with_region(scatterer, value)
    for coefficient in (q, 1.0, value):  # the measured, background and allowance systems
        assume(abs(nearest_neumann_eigenvalue(mesh, coefficient, k)) > 1e-2)
    basis = boundary_basis(mesh, min(segments, n * len(sides)))
    alpha = None if fraction is None else fraction * (value - 1.0)
    result = reconstruct(mesh, q, k, basis, grid, alpha=alpha)
    inside = [(iy + j) * 4 + ix + i for j in (0, 1) for i in (0, 1)]
    assert all(result.verdicts[p] is not False for p in inside), result.counts


def test_partial_data_scatterer_detection():
    # Acceptance 5's positive case on partial data: three sides measured, the
    # bottom not, 24 segments, a 4x4 grid and q = 2 on its center 2x2 block.
    # Accepting the center is the theorem above; rejecting every other pixel
    # is what this configuration shows.
    mesh = _mesh(32, "left top right")
    grid = pixel_grid(mesh, 4, 4)
    scatterer = rect_region(mesh, (0.25, 0.25, 0.75, 0.75))
    q = Coefficient.constant(mesh, 1.0).with_region(scatterer, 2.0)
    result = reconstruct(mesh, q, 1.0, boundary_basis(mesh, 24), grid)
    assert np.flatnonzero(result.mask).tolist() == [5, 6, 9, 10]
    assert not result.ambiguous.any()
    assert result.params["alpha"] == 1.0 and result.params["d_max"] == 1
