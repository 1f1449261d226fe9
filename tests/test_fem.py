import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

from helmono import (
    Coefficient,
    HelmholtzSystem,
    assemble_boundary_load,
    assemble_mass,
    assemble_stiffness,
    assemble_weighted_mass,
    boundary_load_matrix,
    build_unit_square_mesh,
    mark_sigma,
)
from helmono.errors import InvalidParameterError, ResonanceError, SolverError
from helmono.fem import PIVOT_RTOL
from support import eval_p1_structured


def _mesh(n, selector="all"):
    return mark_sigma(build_unit_square_mesh(n), selector)


def test_stiffness_row_sums_vanish():
    s = assemble_stiffness(build_unit_square_mesh(8))
    row_sums = np.asarray(abs(s @ np.ones(s.shape[0])))
    assert row_sums.max() <= 1e-12


def test_stiffness_trace_two_triangles():
    s = assemble_stiffness(build_unit_square_mesh(1))
    assert abs(s.diagonal().sum() - 4.0) <= 1e-12


def test_stiffness_kernel_is_constants():
    s = assemble_stiffness(build_unit_square_mesh(4)).toarray()
    w = np.linalg.eigvalsh(s)
    assert abs(w[0]) <= 1e-12
    assert w[1] > 1e-8  # zero eigenvalue is simple on a connected mesh


def test_stiffness_exact_symmetry():
    s = assemble_stiffness(build_unit_square_mesh(6))
    assert (s != s.T).nnz == 0


def test_stiffness_assembled_once_per_mesh_and_shared_read_only(monkeypatch):
    from helmono import fem, spectral

    calls = []

    def counted(mesh):
        calls.append(mesh)
        return assemble_stiffness(mesh)

    monkeypatch.setattr(fem, "assemble_stiffness", counted)
    mesh = _mesh(8)
    first = HelmholtzSystem(mesh, 1.0, 1.0)
    second = HelmholtzSystem(mesh, Coefficient.constant(mesh, 2.0), 1.5, sigma_last=True)
    spectral.d_of_q(mesh, 1.0, 1.0)
    spectral.count_K_eigs_above_one(mesh, 1.0, 1.0)
    assert len(calls) == 1
    s = mesh.stiffness
    with pytest.raises(ValueError):
        s.data[0] = 0.0
    fresh = assemble_stiffness(mesh)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(s, part), getattr(fresh, part))
    for system, q, k in ((first, 1.0, 1.0), (second, 2.0, 1.5)):
        expected = (fresh - (k * k) * assemble_weighted_mass(mesh, q)).tocsc()
        assert (system.matrix != expected).nnz == 0
    HelmholtzSystem(mark_sigma(build_unit_square_mesh(8), "all"), 1.0, 1.0)
    assert len(calls) == 2


def test_assembly_rejects_degenerate_triangle():
    from helmono import Mesh

    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    triangles = np.array([[0, 1, 3], [0, 1, 1]])  # second has zero area
    boundary = np.array([[0, 1], [1, 3], [3, 2], [2, 0]])
    bad = Mesh(vertices, triangles, boundary, np.zeros(4, dtype=bool))
    with pytest.raises(InvalidParameterError, match="degenerate triangle"):
        assemble_stiffness(bad)
    with pytest.raises(InvalidParameterError, match="degenerate triangle"):
        assemble_weighted_mass(bad, 1.0)


def test_mass_partition_of_unity():
    m = assemble_weighted_mass(build_unit_square_mesh(8), 1.0)
    assert abs(m.sum() - 1.0) <= 1e-12


def test_mass_zero_weight():
    m = assemble_weighted_mass(build_unit_square_mesh(4), 0.0)
    assert m.nnz == 0 or abs(m).max() == 0.0


def test_mass_linear_in_weight():
    mesh = build_unit_square_mesh(4)
    rng = np.random.default_rng(2)
    w = rng.uniform(0.5, 2.0, mesh.n_triangles)
    m1 = assemble_weighted_mass(mesh, w)
    m2 = assemble_weighted_mass(mesh, 2.0 * w)
    assert abs(m2 - 2.0 * m1).max() == 0.0


def test_mass_additive_in_weight():
    mesh = build_unit_square_mesh(4)
    rng = np.random.default_rng(3)
    w1 = rng.uniform(0.0, 1.0, mesh.n_triangles)
    w2 = rng.uniform(0.0, 1.0, mesh.n_triangles)
    lhs = assemble_weighted_mass(mesh, w1) + assemble_weighted_mass(mesh, w2)
    rhs = assemble_weighted_mass(mesh, w1 + w2)
    assert abs(lhs - rhs).max() <= 1e-15


def test_boundary_load_zero_flux():
    mesh = _mesh(4)
    load = assemble_boundary_load(mesh, np.zeros(mesh.boundary_edges.shape[0]))
    assert not load.any()


def test_boundary_load_perimeter():
    mesh = _mesh(8)
    load = assemble_boundary_load(mesh, np.ones(mesh.boundary_edges.shape[0]))
    assert abs(load.sum() - 4.0) <= 1e-12


def test_boundary_load_single_edge():
    mesh = _mesh(4)
    vals = np.zeros(mesh.boundary_edges.shape[0])
    vals[0] = 1.0
    load = assemble_boundary_load(mesh, vals)
    nz = np.flatnonzero(load)
    assert nz.size == 2
    h = mesh.boundary_edge_lengths()[0]
    assert np.allclose(load[nz], h / 2.0, rtol=0, atol=1e-15)


def test_boundary_load_unflagged_edge_rejected():
    mesh = _mesh(4, "bottom")
    vals = np.zeros(mesh.boundary_edges.shape[0])
    vals[~mesh.sigma_flags] = 1.0
    with pytest.raises(InvalidParameterError):
        assemble_boundary_load(mesh, vals)


def test_load_matrix_matches_vector_path():
    mesh = _mesh(4, "bottom")
    mat = boundary_load_matrix(mesh)
    vals = np.zeros(mesh.boundary_edges.shape[0])
    vals[np.flatnonzero(mesh.sigma_flags)[1]] = 2.5
    direct = assemble_boundary_load(mesh, vals)
    assert np.abs(mat @ vals - direct).max() == 0.0


def test_solve_zero_flux_gives_zero():
    mesh = _mesh(8)
    load = assemble_boundary_load(mesh, np.zeros(mesh.boundary_edges.shape[0]))
    u = HelmholtzSystem(mesh, 1.0, 1.0).solve(load)
    assert np.abs(u).max() == 0.0


def test_solve_linearity():
    mesh = _mesh(8)
    rng = np.random.default_rng(4)
    nb = mesh.boundary_edges.shape[0]
    g1 = rng.standard_normal(nb)
    g2 = rng.standard_normal(nb)
    system = HelmholtzSystem(mesh, 1.0, 1.0)
    u1 = system.solve(assemble_boundary_load(mesh, g1))
    u2 = system.solve(assemble_boundary_load(mesh, g2))
    u12 = system.solve(assemble_boundary_load(mesh, g1 + g2))
    scale = max(np.abs(u12).max(), 1.0)
    assert np.abs(u12 - (u1 + u2)).max() <= 1e-10 * scale


def test_galerkin_orthogonality():
    mesh = _mesh(8)
    system = HelmholtzSystem(mesh, 1.3, 1.7)
    load = assemble_boundary_load(mesh, np.ones(mesh.boundary_edges.shape[0]))
    u = system.solve(load)
    residual = system.matrix @ u - load
    scale = abs(system.matrix).max() * np.abs(u).max() + np.abs(load).max()
    assert np.abs(residual).max() <= 1e-10 * scale


def test_system_matrix_symmetric_exactly():
    mesh = _mesh(6)
    system = HelmholtzSystem(mesh, 1.0, 2.0)
    assert abs(system.matrix - system.matrix.T).max() == 0.0


def test_resonant_wavenumber_detected():
    mesh = _mesh(8)
    s = assemble_stiffness(mesh).toarray()
    m = assemble_mass(mesh).toarray()
    rho = np.sort(sla.eigh(s, m, eigvals_only=True))
    k_star = float(np.sqrt(rho[1]))  # first nonzero Neumann eigenvalue
    with pytest.raises(ResonanceError) as info:
        HelmholtzSystem(mesh, 1.0, k_star)
    assert info.value.smallest_pivot <= info.value.threshold


@pytest.mark.parametrize("k", [0.5, 2.0, 5.0, 9.0])
def test_negative_pivots_are_the_inertia(k):
    # A symmetric-mode factorization has equal row and column permutations,
    # so its negative pivots count the negative eigenvalues of the matrix.
    mesh = _mesh(8)
    q = np.random.default_rng(3).uniform(0.5, 2.0, mesh.n_triangles)
    system = HelmholtzSystem(mesh, q, k)
    w = np.linalg.eigvalsh(system.matrix.toarray())
    assert np.abs(w).min() > 1e-6 * np.abs(w).max()
    assert system.negative_pivots == int((w < 0.0).sum())


@pytest.mark.parametrize("n, random_q, sigma_last", [
    pytest.param(n, random_q, last, id=f"{random_q}-{n}" + ("-sigma_last" if last else ""))
    for last in (False, True) for random_q in (False, True) for n in (8, 16)])
def test_resonance_guard_matches_partial_pivoting(n, random_q, sigma_last):
    # At and around the first five discrete resonances, HelmholtzSystem must
    # refuse exactly the wavenumbers whose partial-pivoting factorization has
    # a pivot ratio at or below PIVOT_RTOL, whichever factorization it keeps,
    # in the vertex order and with the flagged boundary last.
    mesh = _mesh(n)
    q = (np.random.default_rng(n).uniform(0.5, 2.0, mesh.n_triangles) if random_q
         else np.ones(mesh.n_triangles))
    s = assemble_stiffness(mesh)
    mq = assemble_weighted_mass(mesh, q)
    mu = np.sort(sla.eigh(s.toarray(), mq.toarray(), eigvals_only=True))
    offsets = [0.0] + [sign * 10.0 ** -e for e in range(6, 17) for sign in (1, -1)]
    verdicts = []
    for j in range(1, 6):
        for offset in offsets:
            k = float(np.sqrt(mu[j]) * (1.0 + offset))
            try:
                pivots = np.abs(spla.splu((s - (k * k) * mq).tocsc()).U.diagonal())
                expected = pivots.min() <= PIVOT_RTOL * pivots.max()
            except RuntimeError:
                expected = True
            try:
                HelmholtzSystem(mesh, q, k, sigma_last=sigma_last)
                raised = False
            except ResonanceError:
                raised = True
            assert raised == expected, (j, offset)
            verdicts.append(raised)
    assert any(verdicts) and not all(verdicts)


@settings(max_examples=25, deadline=None)
@given(n=st.integers(4, 16), width=st.sampled_from([1, 15, 16, 17, 33]),
       k=st.floats(0.5, 2.0), seed=st.integers(0, 2**32 - 1))
def test_solve_many_panels_match_single_solves(n, width, k, seed):
    # q <= 2 and k <= 2 keep k^2 q below the first nonzero Neumann eigenvalue
    # (about pi^2 / 2 for such q), so no case is resonant.
    mesh = _mesh(n)
    rng = np.random.default_rng(seed)
    system = HelmholtzSystem(mesh, rng.uniform(0.5, 2.0, mesh.n_triangles), k)
    loads = rng.standard_normal((mesh.n_vertices, width))
    block = system.solve_many(loads)
    columns = np.column_stack([system.solve(loads[:, j]) for j in range(width)])
    assert block.shape == loads.shape
    assert np.abs(block - columns).max() <= 1e-12 * np.abs(columns).max()


@settings(max_examples=30, deadline=None)
@given(n=st.integers(4, 16), width=st.sampled_from([1, 15, 16, 17, 33]),
       sparse=st.booleans(), seed=st.integers(0, 2**32 - 1))
def test_solve_many_rows_match_full_block(n, width, sparse, seed):
    # Sparse or dense loads and any subset of rows give exactly the rows of
    # the full dense-load block: the panels are solved identically.
    mesh = _mesh(n)
    rng = np.random.default_rng(seed)
    system = HelmholtzSystem(mesh, rng.uniform(0.5, 2.0, mesh.n_triangles), 1.0)
    dense = sp.random(mesh.n_vertices, width, density=0.1, random_state=rng).toarray()
    rows = np.sort(rng.choice(mesh.n_vertices, rng.integers(0, mesh.n_vertices + 1),
                              replace=False))
    full = system.solve_many(dense)
    loads = sp.csc_matrix(dense) if sparse else dense
    assert np.array_equal(system.solve_many(loads, rows), full[rows])
    assert np.array_equal(system.solve_many(loads), full)


class _CorruptRow:
    """Stands in for a factorization and perturbs one row of every solution."""

    def __init__(self, lu, row):
        self.lu, self.row = lu, row

    def solve(self, rhs):
        u = self.lu.solve(rhs)
        u[self.row] += 1e-3 * np.abs(u).max()
        return u


def test_solve_many_checks_rows_it_drops():
    # The residual is checked over every mesh row, so a wrong solution value
    # in a row outside ``rows`` is still caught.
    mesh = _mesh(8)
    system = HelmholtzSystem(mesh, 1.0, 1.0)
    loads = sp.csc_matrix(np.eye(mesh.n_vertices)[:, :20])
    rows = np.arange(10)
    system.solve_many(loads, rows)
    system._lu = _CorruptRow(system._lu, mesh.n_vertices // 2)
    with pytest.raises(SolverError):
        system.solve_many(loads, rows)


def test_solve_many_rejects_bad_rows():
    mesh = _mesh(4)
    system = HelmholtzSystem(mesh, 1.0, 1.0)
    loads = np.ones((mesh.n_vertices, 2))
    for rows in ([mesh.n_vertices], [-1], [[0, 1]], [0.5]):
        with pytest.raises(InvalidParameterError):
            system.solve_many(loads, np.array(rows))


def test_zero_coefficient_rejected_for_solve():
    mesh = _mesh(4)
    with pytest.raises(InvalidParameterError):
        HelmholtzSystem(mesh, 0.0, 1.0)


def test_coefficient_helpers():
    mesh = build_unit_square_mesh(4)
    q = Coefficient.constant(mesh, 1.5)
    assert q.min == q.max == 1.5
    arr = Coefficient.from_array(mesh, np.full(mesh.n_triangles, 2.0))
    assert arr.max == 2.0
    with pytest.raises(InvalidParameterError):
        Coefficient.from_array(mesh, np.ones(3))


def test_refinement_shrinks_error():
    # coarse and mid solutions against a fine reference: mid error at least
    # 3x smaller (second-order convergence gives ~16x; the bound is loose)
    k = 1.0

    def unit_flux_solution(mesh):
        load = assemble_boundary_load(mesh, np.ones(mesh.boundary_edges.shape[0]))
        return HelmholtzSystem(mesh, 1.0, k).solve(load)

    fine = _mesh(128)
    u_fine = unit_flux_solution(fine)

    def error_on_fine(n):
        mesh = _mesh(n)
        err = eval_p1_structured(mesh, unit_flux_solution(mesh), fine.vertices) - u_fine
        return np.sqrt(err @ (assemble_mass(fine) @ err))

    e16 = error_on_fine(16)
    e64 = error_on_fine(64)
    assert e64 < e16 / 3.0
