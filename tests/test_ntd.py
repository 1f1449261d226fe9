import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helmono import (
    Coefficient,
    HelmholtzSystem,
    Region,
    assemble_weighted_mass,
    basis_edge_values,
    basis_load_matrix,
    basis_solutions,
    boundary_basis,
    boundary_load_matrix,
    build_unit_square_mesh,
    empty_region,
    gram_from_solutions,
    localized_potential,
    make_symop,
    mark_sigma,
    nearest_neumann_eigenvalue,
    ntd_matrix,
    project_onto_basis,
    rect_region,
    tb_from_solutions,
)
from helmono import d_of_q, fem
from helmono.errors import (BasisMismatchError, EigenSolverError, InvalidParameterError,
                            SolverError)
from helmono.fem import counting
from helmono.ntd import SYMMETRY_RTOL


def _mesh(n, selector="all"):
    return mark_sigma(build_unit_square_mesh(n), selector)


def _whole(mesh):
    return Region(np.ones(mesh.n_triangles, dtype=bool))


def _background(mesh, k, basis):
    return basis_solutions(mesh, 1.0, k, basis)


def test_basis_dimension_full_boundary():
    mesh = _mesh(4)
    basis = boundary_basis(mesh)
    assert basis.dim == 16
    # one edge in the support of each function, every edge in one support
    support = basis.functions != 0.0
    assert support.shape == (16, 16)
    assert support.sum(axis=0).tolist() == [1] * 16
    assert support.sum(axis=1).tolist() == [1] * 16


def test_basis_gram_identity():
    mesh = _mesh(6)
    basis = boundary_basis(mesh)
    lengths = mesh.boundary_edge_lengths()[basis.edge_indices]
    gram = basis.functions.T @ (lengths[:, None] * basis.functions)
    assert np.abs(gram - np.eye(basis.dim)).max() <= 1e-12


def test_basis_segment_grouping():
    mesh = _mesh(4)
    basis = boundary_basis(mesh, 8)
    assert basis.dim == 8
    # two edges in the support of each function, every edge used once
    support = basis.functions != 0.0
    assert support.sum(axis=0).tolist() == [2] * 8
    assert support.sum(axis=1).tolist() == [1] * 16


def test_basis_partial_boundary():
    mesh = _mesh(4, "bottom")
    basis = boundary_basis(mesh)
    assert basis.dim == 4


def test_basis_errors():
    mesh = build_unit_square_mesh(4)  # nothing flagged
    with pytest.raises(InvalidParameterError):
        boundary_basis(mesh)
    flagged = _mesh(4)
    with pytest.raises(InvalidParameterError):
        boundary_basis(flagged, 17)  # more groups than edges
    with pytest.raises(InvalidParameterError):
        boundary_basis(flagged, 0)


def test_segment_prolongation_is_exact():
    # nested partitions: a coarse basis vector projects onto the fine basis
    # and evaluates back to the same edge values
    mesh = _mesh(8)
    coarse = boundary_basis(mesh, 8)
    fine = boundary_basis(mesh, 16)
    vec = np.zeros((coarse.dim, 1))
    vec[2, 0] = 1.0
    edge_vals = basis_edge_values(coarse, vec)
    lifted = project_onto_basis(fine, edge_vals)
    back = basis_edge_values(fine, lifted)
    assert np.abs(back - edge_vals).max() <= 1e-12


def test_ntd_symmetric_and_deterministic():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    op1 = ntd_matrix(mesh, 1.0, 1.0, basis)
    op2 = ntd_matrix(mesh, 1.0, 1.0, basis)
    assert np.abs(op1.matrix - op1.matrix.T).max() == 0.0
    assert np.abs(op1.matrix - op2.matrix).max() <= 1e-15


@settings(max_examples=20, deadline=None)
@given(n=st.integers(4, 24), segments=st.integers(1, 16), selector=st.sampled_from(["all", "top"]),
       seed=st.integers(0, 2**32 - 1))
def test_ntd_from_boundary_rows_matches_full_product(n, segments, selector, seed):
    mesh = _mesh(n, selector)
    basis = boundary_basis(mesh, min(segments, int(mesh.sigma_flags.sum())))
    q = np.random.default_rng(seed).uniform(0.5, 2.0, mesh.n_triangles)
    loads = basis_load_matrix(mesh, basis)
    full = loads.T @ HelmholtzSystem(mesh, q, 1.0).solve_many(loads)
    full = 0.5 * (full + full.T)
    op = ntd_matrix(mesh, q, 1.0, basis)
    assert np.abs(op.matrix - full).max() <= 1e-13 * np.abs(full).max()


def test_basis_loads_are_sparse_without_explicit_zeros():
    mesh = _mesh(16, "top")
    basis = boundary_basis(mesh, 5)
    loads = basis_load_matrix(mesh, basis)
    assert sp.isspmatrix_csc(loads)
    dense = loads.toarray()
    assert loads.nnz == np.count_nonzero(dense)
    expected = boundary_load_matrix(mesh)[:, basis.edge_indices] @ basis.functions
    assert np.array_equal(dense, expected)


def test_ntd_matrix_peak_memory_below_one_dense_block():
    # Neither the loads nor the solutions may exist as a dense
    # n_vertices x dim block: the peak stays below the size of one.
    mesh = _mesh(128)
    basis = boundary_basis(mesh, 256)
    block = mesh.n_vertices * basis.dim * 8
    tracemalloc.start()
    try:
        ntd_matrix(mesh, 1.0, 1.0, basis)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < block, (peak, block)


def test_ntd_converges_under_mesh_refinement():
    # fixed 16-segment partition of the boundary, refining only the mesh:
    # consecutive differences shrink by at least a factor 2
    ops = {}
    for n in (16, 32, 64):
        mesh = _mesh(n)
        basis = boundary_basis(mesh, 16)
        ops[n] = ntd_matrix(mesh, 1.0, 1.0, basis).matrix
    d1 = np.abs(ops[32] - ops[16]).max()
    d2 = np.abs(ops[64] - ops[32]).max()
    assert d2 <= d1 / 2.0


def test_symop_algebra_guards():
    a = make_symop(np.eye(3), "basis-a", "x", 1.0)
    b = make_symop(np.eye(3), "basis-b", "y", 1.0)
    c = make_symop(2.0 * np.eye(3), "basis-a", "z", 1.0)
    d = make_symop(np.eye(3), "basis-a", "w", 2.0)
    diff = c - a
    assert np.abs(diff.matrix - np.eye(3)).max() == 0.0
    assert np.abs(a.scaled(3.0).matrix - 3.0 * np.eye(3)).max() == 0.0
    with pytest.raises(BasisMismatchError):
        a - b
    with pytest.raises(BasisMismatchError):
        a - d


def test_make_symop_rejects_asymmetry():
    # a lopsided matrix means the solve went wrong, not that an argument
    # was malformed, hence the solver error
    bad = np.array([[0.0, 1.0], [0.5, 0.0]])
    with pytest.raises(SolverError, match="symmetry defect"):
        make_symop(bad, "basis-a", "bad", 1.0)


@pytest.mark.parametrize("where, value", [((0, 1), np.nan), ((0, 0), np.inf),
                                          ((1, 1), -np.inf)])
def test_make_symop_rejects_non_finite(where, value):
    # NaN fails every comparison, so the symmetry check alone would pass it
    raw = np.diag([-1.0, 2.0, 3.0])
    raw[where] = raw[where[::-1]] = value
    with pytest.raises(SolverError, match="non-finite"):
        make_symop(raw, "basis-a", "bad", 1.0)


def test_tb_positive_semidefinite():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    region = rect_region(mesh, (0.25, 0.25, 0.75, 0.75))
    tb = tb_from_solutions(mesh, region, 1.0, basis, _background(mesh, 1.0, basis)).matrix
    w = np.linalg.eigvalsh(tb)
    assert w.min() >= -1e-10 * max(w.max(), 1e-300)


def test_tb_trace_monotone_in_region():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    u1 = _background(mesh, 1.0, basis)
    small = rect_region(mesh, (0.4, 0.4, 0.6, 0.6))
    tb_small = tb_from_solutions(mesh, small, 1.0, basis, u1).matrix
    tb_full = tb_from_solutions(mesh, _whole(mesh), 1.0, basis, u1).matrix
    assert np.trace(tb_full) >= np.trace(tb_small)


def test_tb_additive_over_disjoint_regions():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    u1 = _background(mesh, 1.0, basis)
    left = rect_region(mesh, (0.0, 0.0, 0.5, 1.0))
    right = rect_region(mesh, (0.5, 0.0, 1.0, 1.0))
    lhs = (tb_from_solutions(mesh, left, 1.0, basis, u1).matrix
           + tb_from_solutions(mesh, right, 1.0, basis, u1).matrix)
    rhs = tb_from_solutions(mesh, _whole(mesh), 1.0, basis, u1).matrix
    assert np.abs(lhs - rhs).max() <= 1e-12


def test_tb_empty_region_rejected():
    mesh = _mesh(4)
    basis = boundary_basis(mesh)
    with pytest.raises(InvalidParameterError):
        tb_from_solutions(mesh, empty_region(mesh), 1.0, basis,
                          _background(mesh, 1.0, basis))


def test_region_gram_matches_tb():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    k = 1.3
    u1 = _background(mesh, k, basis)
    region = rect_region(mesh, (0.0, 0.0, 0.5, 0.5))
    gram = gram_from_solutions(mesh, region, basis, u1, k=k).matrix
    tb = tb_from_solutions(mesh, region, k, basis, u1).matrix
    assert np.abs(k * k * gram - tb).max() <= 1e-12 * max(np.abs(tb).max(), 1e-300)


def test_region_gram_dominated_by_full_domain():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    u = _background(mesh, 1.0, basis)
    part = rect_region(mesh, (0.25, 0.0, 1.0, 0.75))
    g_part = gram_from_solutions(mesh, part, basis, u).matrix
    g_full = gram_from_solutions(mesh, _whole(mesh), basis, u).matrix
    w = np.linalg.eigvalsh(g_full - g_part)
    assert w.min() >= -1e-12 * max(np.abs(g_full).max(), 1e-300)


def test_region_gram_direct_quadrature_oracle():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    region = rect_region(mesh, (0.25, 0.25, 0.75, 0.75))
    solutions = _background(mesh, 1.0, basis)
    gram = gram_from_solutions(mesh, region, basis, solutions).matrix
    rng = np.random.default_rng(5)
    g = rng.standard_normal(basis.dim)
    u = solutions @ g
    m_region = assemble_weighted_mass(mesh, region.triangle_flags.astype(float))
    direct = u @ (m_region @ u)
    via_matrix = g @ gram @ g
    assert abs(direct - via_matrix) <= 1e-10 * max(abs(direct), 1e-300)


def test_localized_potential_trivial_case():
    # no avoided region, no excluded fluxes: the quotient is g.G_B g / floor
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    result = localized_potential(mesh, 1.0, 1.0, basis, _whole(mesh), empty_region(mesh))
    assert np.isfinite(result.ratio)
    assert result.ratio > 0.0 and result.floor > 0.0 and result.d_energy == 0.0
    assert result.ratio == result.b_energy / result.floor


def test_localized_potential_orthogonal_to_v():
    mesh = _mesh(8, "bottom")
    basis = boundary_basis(mesh)
    rng = np.random.default_rng(6)
    v = np.linalg.qr(rng.standard_normal((basis.dim, 3)))[0]
    b = rect_region(mesh, (0.0, 0.5, 0.5, 1.0))
    d = rect_region(mesh, (0.5, 0.0, 1.0, 1.0))
    result = localized_potential(mesh, 1.0, 1.0, basis, b, d, v)
    assert np.linalg.norm(v.T @ result.g) <= 1e-10
    assert abs(np.linalg.norm(result.g) - 1.0) <= 1e-12


def test_localized_potential_energies_are_region_grams():
    # the returned energies are g . G g for the two region Grams, up to the
    # Grams' own rounding, so a caller needs no second solve to report them
    mesh = _mesh(8, "bottom")
    basis = boundary_basis(mesh)
    b = rect_region(mesh, (0.0, 0.5, 0.5, 1.0))
    d = rect_region(mesh, (0.5, 0.0, 1.0, 1.0))
    result = localized_potential(mesh, 1.0, 1.0, basis, b, d)
    u = _background(mesh, 1.0, basis)
    for region, energy in ((b, result.b_energy), (d, result.d_energy)):
        gram = gram_from_solutions(mesh, region, basis, u, k=1.0).matrix
        assert abs(energy - result.g @ gram @ result.g) <= 1e-13 * np.linalg.norm(gram, 2)
    assert result.ratio > 0.0 and result.b_energy > 0.0


def test_localized_potential_reaches_the_constrained_maximum():
    # acceptance 6's configuration at 16 segments: the returned quotient is
    # the exact constrained maximum, the top eigenvalue of the unregularized
    # pencil on V's complement, less what the floor takes (about 1e-5 of it)
    mesh = _mesh(32, "bottom")
    region_b = rect_region(mesh, (0.0, 0.75, 0.25, 1.0))
    region_d = rect_region(mesh, (0.5, 0.0, 1.0, 1.0))
    coarse = boundary_basis(mesh, 8)
    basis = boundary_basis(mesh, 16)
    v = project_onto_basis(basis, basis_edge_values(coarse, np.eye(coarse.dim)[:, :3]))
    result = localized_potential(mesh, 1.0, 1.0, basis, region_b, region_d, v)
    solutions = basis_solutions(mesh, 1.0, 1.0, basis)
    g_b = gram_from_solutions(mesh, region_b, basis, solutions, k=1.0).matrix
    g_d = gram_from_solutions(mesh, region_d, basis, solutions, k=1.0).matrix
    n = sla.null_space(v.T)
    best = sla.eigh(n.T @ g_b @ n, n.T @ g_d @ n, eigvals_only=True)[-1]
    assert best == pytest.approx(7.025, abs=1e-3)
    assert result.ratio == pytest.approx(7.025, abs=1e-3)
    assert result.ratio <= best
    assert np.abs(v.T @ result.g).max() <= 1e-10



def _acceptance_6_at_16_segments():
    # the mesh, basis and excluded family of acceptance 6 at 16 segments
    mesh = _mesh(32, "bottom")
    coarse = boundary_basis(mesh, 8)
    basis = boundary_basis(mesh, 16)
    v = project_onto_basis(basis, basis_edge_values(coarse, np.eye(coarse.dim)[:, :3]))
    return mesh, basis, v


def test_localized_potential_keeps_the_constraint_without_an_avoided_region():
    # With no avoided region the quotient is g.G_B g / eps, so the flux is the
    # top eigenvector of G_B on V's complement whatever eps is: the target
    # energy reaches G_B's largest eigenvalue there.  B, the strip along the
    # measured side, gives G_B many large eigenvalues, so projecting V out of
    # G_B's top eigenvector afterwards would fall 1e-3 short.
    mesh, basis, v = _acceptance_6_at_16_segments()
    region_b = rect_region(mesh, (0.0, 0.0, 1.0, 0.25))
    result = localized_potential(mesh, 1.0, 1.0, basis, region_b, empty_region(mesh), v)
    g_b = gram_from_solutions(mesh, region_b, basis, basis_solutions(mesh, 1.0, 1.0, basis),
                              k=1.0).matrix
    n = sla.null_space(v.T)
    best = np.linalg.eigvalsh(n.T @ g_b @ n)[-1]
    assert abs(result.b_energy - best) <= 1e-9 * best
    assert result.d_energy == 0.0


def test_localized_potential_refuses_a_flux_off_the_complement(monkeypatch):
    # the orthogonality guard reads V itself: a wrong complement is refused
    mesh, basis, v = _acceptance_6_at_16_segments()
    region_b = rect_region(mesh, (0.0, 0.0, 1.0, 0.25))
    monkeypatch.setattr(np.linalg, "qr", lambda a, mode="reduced": (np.eye(a.shape[0]), None))
    with pytest.raises(EigenSolverError, match="excluded-family residual"):
        localized_potential(mesh, 1.0, 1.0, basis, region_b, empty_region(mesh), v)


_BOX = st.tuples(st.integers(0, 7), st.integers(0, 7), st.integers(1, 8),
                 st.integers(1, 8))


def _box(cells):
    x0, y0, w, h = cells
    return (x0 / 8, y0 / 8, min(x0 + w, 8) / 8, min(y0 + h, 8) / 8)


@settings(max_examples=30, deadline=None)
@given(sides=st.sets(st.sampled_from(["bottom", "top", "left", "right"]), min_size=1),
       b_cells=_BOX, d_cells=st.none() | _BOX, p=st.integers(0, 3),
       k=st.floats(0.5, 3.0), seed=st.integers(0, 2**32 - 1))
def test_no_flux_orthogonal_to_v_beats_the_localized_potential(sides, b_cells, d_cells,
                                                               p, k, seed):
    # result.ratio is the largest quotient h.G_B h / (h.G_D h + floor h.h)
    # over the fluxes h orthogonal to V.  The energies come from the regions'
    # mass factors: a Gram's rounding is about the floor itself.  A D energy
    # at the floor, an amplitude sqrt(eps) |S| known to eps |S|, moves the
    # quotient by up to about sqrt(eps) relative.
    mesh = _mesh(8, " ".join(sorted(sides)))
    region_b = rect_region(mesh, _box(b_cells))
    region_d = empty_region(mesh) if d_cells is None else rect_region(mesh, _box(d_cells))
    assume(not region_b.minus(region_d).is_empty)
    basis = boundary_basis(mesh)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((basis.dim, p))
    result = localized_potential(mesh, 1.0, k, basis, region_b, region_d, v)

    solutions = basis_solutions(mesh, 1.0, k, basis)
    x_b, x_d = (fem._region_factor(mesh, np.flatnonzero(region.triangle_flags), solutions)
                for region in (region_b, region_d))
    orth = sla.orth(v) if p else np.zeros((basis.dim, 0))

    def quotient(h):
        return np.sum((x_b @ h) ** 2) / (np.sum((x_d @ h) ** 2) + result.floor * (h @ h))

    assert abs(np.linalg.norm(result.g) - 1.0) <= 1e-12
    assert np.abs(v.T @ result.g).max(initial=0.0) <= 1e-10 * np.abs(v).max(initial=1.0)
    tol = 4.0 * np.sqrt(np.finfo(float).eps)
    assert quotient(result.g) == pytest.approx(result.ratio, rel=tol)
    fluxes = rng.standard_normal((basis.dim, 20))
    fluxes[:, 0] = result.g + 1e-3 * fluxes[:, 0]  # near the maximizer
    fluxes -= orth @ (orth.T @ fluxes)
    for h in fluxes.T:
        assert quotient(h) <= result.ratio * (1.0 + tol)


def test_localized_potential_precondition_errors():
    mesh = _mesh(8)
    basis = boundary_basis(mesh)
    inner = rect_region(mesh, (0.25, 0.25, 0.5, 0.5))
    outer = rect_region(mesh, (0.0, 0.0, 0.75, 0.75))
    with pytest.raises(InvalidParameterError):
        localized_potential(mesh, 1.0, 1.0, basis, inner, outer)  # B inside D
    rank_deficient = np.zeros((basis.dim, 2))
    rank_deficient[:, 0] = 1.0
    rank_deficient[:, 1] = 1.0
    with pytest.raises(InvalidParameterError):
        localized_potential(mesh, 1.0, 1.0, basis, outer, inner, rank_deficient)
    too_many = np.eye(basis.dim)
    with pytest.raises(InvalidParameterError):
        localized_potential(mesh, 1.0, 1.0, basis, outer, inner, too_many)


def test_solution_energies_comparable_when_q_differs_inside_d():
    # two coefficients equal outside D: the D-energies of their flux-wise
    # solutions stay within constant factors of each other, seen through the
    # generalized spectrum of the two region Grams on the common range
    mesh = _mesh(16)
    basis = boundary_basis(mesh, 32)
    d_region = rect_region(mesh, (0.25, 0.25, 0.75, 0.75))
    q1 = Coefficient.constant(mesh, 1.0)
    q2 = q1.with_region(d_region, 1.8)
    g1, g2 = (gram_from_solutions(mesh, d_region, basis,
                                  basis_solutions(mesh, q, 1.0, basis)).matrix
              for q in (q1, q2))
    w1, v1 = np.linalg.eigh(g1)
    span = v1[:, w1 > 1e-8 * w1.max()]
    mu = sla.eigh(span.T @ g2 @ span, span.T @ g1 @ span, eigvals_only=True)
    assert mu.min() > 0.0
    assert 0.1 <= mu.min() and mu.max() <= 10.0


def test_make_symop_does_not_overflow_near_the_largest_double():
    # halving before the sum keeps a finite symmetric input finite
    raw = np.array([[1e308, 1.7e308], [1.7e308, 1e308]])
    op = make_symop(raw, "basis-a", "huge", 1.0)
    assert np.array_equal(op.matrix, raw)


@pytest.mark.parametrize("n, selector, segments", [(8, "all", None), (16, "top + left", 8),
                                                   (24, "bottom", 5)])
def test_ntd_paths_agree_bitwise(n, selector, segments, monkeypatch):
    # ntd_matrix on a given boundary-last system and on its own give the same
    # bits; boundary rows read from the full solutions agree to roundoff (the
    # system reads the matrix off the trailing block of the factors, not from
    # solves); reading rows makes no factorization and no solve
    mesh = _mesh(n, selector)
    basis = boundary_basis(mesh, segments)
    q = np.random.default_rng(n).uniform(0.5, 2.0, mesh.n_triangles)
    system = HelmholtzSystem(mesh, q, 1.7, sigma_last=True)
    solved = ntd_matrix(mesh, q, 1.7, basis, system=system)
    u = basis_solutions(mesh, q, 1.7, basis, system)

    def no_solve(*args, **kwargs):
        raise AssertionError("ntd solved although it was given the solutions")

    for name in ("solve_many", "_solve"):
        monkeypatch.setattr(HelmholtzSystem, name, no_solve)
    with counting() as tally:
        read = ntd_matrix(mesh, q, 1.7, basis, solutions=u)
    assert tally["factorizations"] == 0
    monkeypatch.undo()
    frozen = ntd_matrix(mesh, q, 1.7, basis)
    assert np.array_equal(frozen.matrix.view(np.uint64), solved.matrix.view(np.uint64))
    assert np.abs(read.matrix - solved.matrix).max() <= 1e-12 * np.abs(solved.matrix).max()
    for op in (read, frozen):
        assert (op.basis_id, op.k) == (solved.basis_id, solved.k)


def test_ntd_rejects_mis_shaped_solutions():
    mesh = _mesh(4)
    basis = boundary_basis(mesh)
    rows = np.unique(basis_load_matrix(mesh, basis).indices)
    u = basis_solutions(mesh, 1.0, 1.0, basis)
    with pytest.raises(InvalidParameterError, match="shape"):
        ntd_matrix(mesh, 1.0, 1.0, basis, solutions=u[rows])


def test_a_system_of_another_configuration_is_refused():
    # the check d_of_q makes refuses a system of another (mesh, q, k) here
    # too, and ntd_matrix takes the system or the solutions, not both
    mesh = _mesh(4)
    basis = boundary_basis(mesh)
    system = HelmholtzSystem(mesh, 1.0, 1.0, sigma_last=True)
    for q, k, on in ((1.0, 1.5, mesh), (2.0, 1.0, mesh), (1.0, 1.0, _mesh(4))):
        with pytest.raises(InvalidParameterError, match="another"):
            ntd_matrix(on, q, k, basis, system=system)
        with pytest.raises(InvalidParameterError, match="another"):
            basis_solutions(on, q, k, basis, system)
    u = basis_solutions(mesh, 1.0, 1.0, basis, system)
    with pytest.raises(InvalidParameterError, match="not both"):
        ntd_matrix(mesh, 1.0, 1.0, basis, system=system, solutions=u)


@settings(max_examples=30, deadline=None)
@given(n=st.integers(3, 10), k=st.floats(0.3, 8.0), seed=st.integers(0, 2**32 - 1),
       selector=st.sampled_from(["all", "bottom", "left + top"]))
def test_ntd_symmetric_for_random_q_and_k(n, k, seed, selector):
    # Lambda is symmetric before symmetrization, to the contracted relative
    # bound, away from the resonances where the forward map is undefined
    mesh = _mesh(n, selector)
    q = np.random.default_rng(seed).uniform(0.2, 3.0, mesh.n_triangles)
    assume(abs(nearest_neumann_eigenvalue(mesh, q, k)) > 1e-2)
    basis = boundary_basis(mesh)
    u = basis_solutions(mesh, q, k, basis)
    raw = basis_load_matrix(mesh, basis).T @ u
    assert np.abs(raw - raw.T).max() <= SYMMETRY_RTOL * np.abs(raw).max()
    op = ntd_matrix(mesh, q, k, basis, solutions=u)
    assert np.array_equal(op.matrix, op.matrix.T)


def _solve_route(mesh, q, k, basis, system=None):
    """Lambda from the solutions on ``system`` (by default a plain one),
    whatever ``system.ntd()`` does."""
    return ntd_matrix(mesh, q, k, basis, solutions=basis_solutions(mesh, q, k, basis, system))


@settings(max_examples=25, deadline=None)
@given(n=st.integers(5, 20), k=st.floats(0.3, 6.0), seed=st.integers(0, 2**32 - 1),
       selector=st.sampled_from(["all", "bottom + right", "left + top"]),
       segments=st.one_of(st.none(), st.integers(1, 80)))
def test_ntd_routes_agree(n, k, seed, selector, segments):
    # Lambda from a boundary-last system (read off the trailing block, or
    # solved for when the block grew) equals loads[rows].T @ solutions[rows]
    # to 1e-11 relative; segments=None is one basis function per edge, the
    # worst conditioned basis, and singular on the closed loop.
    mesh = _mesh(n, selector)
    assume(segments is None or segments <= int(mesh.sigma_flags.sum()))
    q = np.random.default_rng(seed).uniform(0.3, 3.0, mesh.n_triangles)
    assume(abs(nearest_neumann_eigenvalue(mesh, q, k)) > 1e-2)
    basis = boundary_basis(mesh, segments)
    system = HelmholtzSystem(mesh, q, k, sigma_last=True)
    with counting() as tally:
        lam = ntd_matrix(mesh, q, k, basis, system=system).matrix
    assert tally["ntd.trailing"] + tally["ntd.solved"] == 1
    u = basis_solutions(mesh, q, k, basis, system)
    loads = basis_load_matrix(mesh, basis)
    rows = np.unique(loads.indices)
    solved = loads[rows].toarray().T @ u[rows]
    assert np.abs(lam - solved).max() <= 1e-11 * np.abs(solved).max()


@pytest.mark.parametrize("n, selector, segments", [(8, "all", None), (24, "top", 5),
                                                   (64, "all", 128)])
def test_fresh_forward_map_reads_the_trailing_block(n, selector, segments, monkeypatch):
    # ntd_matrix without a system makes no solve per basis function: one
    # factorization, the flagged boundary last, and only the check solve
    mesh = _mesh(n, selector)
    q = np.random.default_rng(n).uniform(0.5, 2.0, mesh.n_triangles)
    systems = []
    ntd = HelmholtzSystem.ntd
    monkeypatch.setattr(HelmholtzSystem, "ntd",
                        lambda self, loads: systems.append(self) or ntd(self, loads))
    with counting() as tally:
        ntd_matrix(mesh, q, 1.0, boundary_basis(mesh, segments))
    assert dict(tally) == {"factorizations": 1, "ntd.trailing": 1}
    tail = np.unique(mesh.boundary_edges[mesh.sigma_flags])
    assert set(systems[0]._lu.order[-tail.size:].tolist()) == set(tail.tolist())


@pytest.mark.parametrize("n", [8, 13, 64])
def test_one_function_per_edge_of_a_closed_loop(n):
    # The alternating flux on an even loop of edges loads no vertex, so
    # Lambda is singular; whichever route ntd() takes, it matches the solve
    # route and annihilates that flux.
    mesh = _mesh(n)
    basis = boundary_basis(mesh)
    q = np.random.default_rng(n).uniform(0.5, 2.0, mesh.n_triangles)
    system = HelmholtzSystem(mesh, q, 1.0, sigma_last=True)
    lam = ntd_matrix(mesh, q, 1.0, basis, system=system).matrix
    expected = _solve_route(mesh, q, 1.0, basis, system).matrix
    scale = np.abs(expected).max()
    assert np.abs(lam - expected).max() <= 1e-11 * scale
    alternating = np.where(np.arange(basis.dim) % 2 == 0, 1.0, -1.0)
    assert np.abs(lam @ alternating).max() <= 1e-11 * scale


@pytest.mark.parametrize("refuse", ["pivots", "growth"])
def test_forced_fallback_gives_the_solve_route(monkeypatch, refuse):
    # A factorization refused by the symmetric pivot guard is redone with
    # partial pivoting, and a trailing block refused for its growth is not
    # read: either way Lambda is solved for.
    mesh = _mesh(12)
    basis = boundary_basis(mesh)
    q = np.random.default_rng(5).uniform(0.5, 2.0, mesh.n_triangles)
    expected = _solve_route(mesh, q, 2.0, basis).matrix
    if refuse == "pivots":
        monkeypatch.setattr(fem, "SYMMETRIC_PIVOT_RTOL", 1.0)
    else:
        monkeypatch.setattr(fem, "TAIL_GROWTH_MAX", 0.0)
    with counting() as tally:
        system = HelmholtzSystem(mesh, q, 2.0, sigma_last=True)
        lam = ntd_matrix(mesh, q, 2.0, basis, system=system).matrix
    assert (tally["ntd.trailing"], tally["ntd.solved"]) == (0, 1)
    # pivots: the symmetric attempt, then partial pivoting
    assert tally["factorizations"] == (2 if refuse == "pivots" else 1)
    assert np.abs(lam - expected).max() <= 1e-11 * np.abs(expected).max()
    if refuse == "growth":
        assert np.array_equal(lam, _solve_route(mesh, q, 2.0, basis, system).matrix)


def test_trailing_block_is_checked_against_a_solve(monkeypatch):
    # a matrix read off the trailing block that does not reproduce a solve
    # of the combined loads is refused
    mesh = _mesh(8)
    loads = basis_load_matrix(mesh, boundary_basis(mesh, 6))
    system = HelmholtzSystem(mesh, 1.0, 1.0, sigma_last=True)
    read = system._read_off_tail
    monkeypatch.setattr(system, "_read_off_tail",
                        lambda *args: read(*args) * (1.0 + 1e-6))
    with pytest.raises(SolverError, match="trailing-block residual"):
        system.ntd(loads)


def test_sigma_last_system_solves_like_the_plain_one():
    mesh = _mesh(16, "top")
    q = np.random.default_rng(3).uniform(0.5, 2.0, mesh.n_triangles)
    plain = HelmholtzSystem(mesh, q, 3.0)
    last = HelmholtzSystem(mesh, q, 3.0, sigma_last=True)
    assert last.negative_pivots == plain.negative_pivots is not None
    assert d_of_q(mesh, q, 3.0, system=last) == d_of_q(mesh, q, 3.0, system=plain)
    load = np.random.default_rng(4).standard_normal(mesh.n_vertices)
    u = plain.solve(load)
    assert np.abs(last.solve(load) - u).max() <= 1e-10 * np.abs(u).max()


def test_one_refinement_step_restores_a_grown_solve(monkeypatch):
    # n = 26, k = 7 with this q: the static pivots grow, the plain solves'
    # NtD matrix is 5.4e-12 off and one refinement step brings it to 1.2e-15
    mesh = _mesh(26)
    loads = basis_load_matrix(mesh, boundary_basis(mesh, 4))
    q = np.random.default_rng(0).uniform(0.5, 2.0, mesh.n_triangles)
    system = HelmholtzSystem(mesh, q, 7.0)
    b = loads.toarray()
    x = system.solve_many(loads)
    for _ in range(2):
        x -= system._lu.solve(system.matrix @ x - b)
    reference = b.T @ x
    scale = np.abs(reference).max()
    assert np.abs(b.T @ system.solve_many(loads) - reference).max() <= 5e-14 * scale
    monkeypatch.setattr(fem, "REFINE_BERR", np.inf)
    assert np.abs(b.T @ system.solve_many(loads) - reference).max() > 1e-12 * scale
