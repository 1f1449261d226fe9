"""The probe operators ``T_B`` and region Grams, built from the region alone.

``gram_from_solutions`` sums the mass of the region's own triangles against
the solution rows at the region's vertices.  These tests hold it to the
full-mesh product ``U.T @ M_w @ U`` over random meshes, regions and weights,
hold a region's mass factor ``X`` (``X^T X`` is the Gram) to it, hold the
masses that one assembly gives many regions to each region's own assembly
bit for bit, and check that the input checks still fire.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helmono import (
    Mesh,
    Region,
    assemble_weighted_mass,
    boundary_basis,
    build_unit_square_mesh,
    empty_region,
    gram_from_solutions,
    mark_sigma,
    pixel_grid,
    tb_from_solutions,
)
from helmono import fem
from helmono.errors import InvalidParameterError
from helmono.fem import assemble_region_masses
from helmono.ntd import make_symop, probe_factors


def _mesh(n):
    return mark_sigma(build_unit_square_mesh(n), "all")


@st.composite
def _probe_cases(draw):
    """A mesh, a region of one of four shapes, a finite weight and a seed."""
    n = draw(st.integers(4, 24))
    mesh = _mesh(n)
    cells = st.integers(0, n - 1)

    def box_flags(i0, j0, i1, j1):
        # cell-aligned box [i0, i1) x [j0, j1); barycenters sit inside cells
        bary = mesh.barycenters * n
        return ((bary[:, 0] > i0) & (bary[:, 0] < i1)
                & (bary[:, 1] > j0) & (bary[:, 1] < j1))

    def random_box():
        i0, j0 = draw(cells), draw(cells)
        return box_flags(i0, j0, draw(st.integers(i0 + 1, n)), draw(st.integers(j0 + 1, n)))

    shape = draw(st.sampled_from(["box", "union", "boundary", "triangle"]))
    if shape == "box":
        flags = random_box()
    elif shape == "union":
        flags = random_box() | random_box() | random_box()
    elif shape == "boundary":
        i0, i1 = sorted(draw(st.lists(st.integers(0, n), min_size=2, max_size=2,
                                      unique=True)))
        depth = draw(st.integers(1, n))
        flags = draw(st.sampled_from([box_flags(i0, 0, i1, depth),
                                      box_flags(n - depth, i0, n, i1),
                                      box_flags(0, 0, n, n)]))
    else:
        flags = np.arange(mesh.n_triangles) == draw(st.integers(0, mesh.n_triangles - 1))
    weight = draw(st.sampled_from([0.0, -1.0, 1.0])) * draw(st.floats(1e-3, 1e3))
    return mesh, Region(flags), weight, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(_probe_cases())
def test_gram_matches_full_mesh_mass(case):
    mesh, region, weight, seed = case
    basis = boundary_basis(mesh, 8)
    u = np.random.default_rng(seed).standard_normal((mesh.n_vertices, basis.dim))
    gram = gram_from_solutions(mesh, region, basis, u, weight=weight).matrix
    full = u.T @ assemble_weighted_mass(mesh, region.triangle_flags * weight) @ u
    assert np.abs(gram - full).max() <= 1e-12 * np.abs(full).max()


@settings(max_examples=60, deadline=None)
@given(_probe_cases())
def test_region_factor_squares_to_the_gram(case):
    mesh, region, _, seed = case
    basis = boundary_basis(mesh, 8)
    u = np.random.default_rng(seed).standard_normal((mesh.n_vertices, basis.dim))
    x = fem._region_factor(mesh, np.flatnonzero(region.triangle_flags), u)
    gram = gram_from_solutions(mesh, region, basis, u).matrix
    triangles = mesh.triangles[region.triangle_flags]
    assert x.shape == (np.unique(triangles).size + triangles.shape[0], basis.dim)
    assert np.abs(x.T @ x - gram).max() <= 1e-12 * np.abs(gram).max()


@pytest.mark.parametrize("n", [4, 9])
def test_gram_empty_region_is_zero(n):
    mesh = _mesh(n)
    basis = boundary_basis(mesh, 4)
    u = np.random.default_rng(n).standard_normal((mesh.n_vertices, basis.dim))
    gram = gram_from_solutions(mesh, empty_region(mesh), basis, u, weight=2.0)
    assert gram.matrix.shape == (4, 4)
    assert not gram.matrix.any()


@pytest.mark.parametrize("weight", [np.inf, -np.inf, np.nan])
def test_gram_rejects_non_finite_weight(weight):
    mesh = _mesh(4)
    basis = boundary_basis(mesh, 4)
    u = np.ones((mesh.n_vertices, basis.dim))
    whole = Region(np.ones(mesh.n_triangles, dtype=bool))
    with pytest.raises(InvalidParameterError, match="finite"):
        gram_from_solutions(mesh, whole, basis, u, weight=weight)


def test_probe_on_degenerate_mesh_raises_every_call():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    triangles = np.array([[0, 1, 3], [0, 1, 1]])  # second has zero area
    boundary = np.array([[0, 1], [1, 3], [3, 2], [2, 0]])
    bad = Mesh(vertices, triangles, boundary, np.ones(4, dtype=bool))
    basis = boundary_basis(bad)
    u = np.ones((bad.n_vertices, basis.dim))
    whole = Region(np.ones(bad.n_triangles, dtype=bool))
    for _ in range(2):  # a failed area check is never kept as a result
        with pytest.raises(InvalidParameterError, match="degenerate triangle"):
            gram_from_solutions(bad, whole, basis, u)
    with pytest.raises(InvalidParameterError, match="degenerate triangle"):
        tb_from_solutions(bad, whole, 1.0, basis, u)


def _mass_alone(mesh, region, weight):
    """One region's mass assembled on its own vertices, as a probe was before
    the regions shared one assembly."""
    flags = region.triangle_flags
    vertices, local = np.unique(mesh.triangles[flags], return_inverse=True)
    return vertices, fem._mass(local.reshape(-1, 3), mesh.positive_areas[flags] * weight,
                               vertices.size)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 20), data=st.data())
def test_one_assembly_gives_each_region_its_own_mass_and_probe(n, data):
    # Pixels of an nx x ny grid that need not divide n (unequal pixels), plus
    # a box overlapping them: each region's block, and the T_B built from
    # it, has the bits of the region's own assembly and T_B.
    mesh = _mesh(n)
    nx, ny = data.draw(st.integers(1, n)), data.draw(st.integers(1, n))
    regions = list(pixel_grid(mesh, nx, ny).regions)
    regions.insert(data.draw(st.integers(0, len(regions))),
                   Region(mesh.barycenters[:, 0] < data.draw(st.floats(0.0, 1.0))))
    k = data.draw(st.floats(0.1, 10.0))
    basis = boundary_basis(mesh, min(8, 4 * n))
    u = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).standard_normal(
        (mesh.n_vertices, basis.dim))
    masses = assemble_region_masses(mesh, regions, k * k)
    assert len(masses) == len(regions)
    for region, mass in zip(regions, masses):
        vertices, alone = _mass_alone(mesh, region, k * k)
        assert np.array_equal(mass[0], vertices)
        assert np.array_equal(mass[1].indptr, alone.indptr)
        assert np.array_equal(mass[1].indices, alone.indices)
        assert mass[1].data.tobytes() == alone.data.tobytes()
        ub = u[vertices]
        before = make_symop(ub.T @ (alone @ ub), basis.basis_id, "tb", k).matrix
        _, y = probe_factors(mass, u)
        assert y.tobytes() == (alone @ ub).tobytes()
        if not region.is_empty:
            tb = tb_from_solutions(mesh, region, k, basis, u, mass=mass).matrix
            assert tb.tobytes() == before.tobytes()
            assert tb.tobytes() == tb_from_solutions(mesh, region, k, basis, u).matrix.tobytes()
