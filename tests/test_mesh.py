import numpy as np
import pytest

from helmono import (
    Mesh,
    Region,
    build_unit_square_mesh,
    empty_region,
    mark_sigma,
    mesh_to_text,
    pixel_grid,
    rect_region,
)
from helmono.errors import InvalidParameterError
from support import eval_p1_structured, structured_n, validate_mesh


def test_smallest_mesh_counts():
    mesh = build_unit_square_mesh(1)
    assert mesh.n_vertices == 4
    assert mesh.n_triangles == 2
    assert mesh.boundary_edges.shape[0] == 4
    assert not mesh.sigma_flags.any()


def test_n2_counts():
    mesh = build_unit_square_mesh(2)
    assert mesh.n_vertices == 9
    assert mesh.n_triangles == 8
    assert mesh.boundary_edges.shape[0] == 8


def test_areas_partition_unity():
    mesh = build_unit_square_mesh(32)
    areas = mesh.triangle_areas()
    assert (areas > 0).all()
    assert abs(areas.sum() - 1.0) <= 1e-12


def test_zero_subdivisions_rejected():
    with pytest.raises(InvalidParameterError):
        build_unit_square_mesh(0)


def test_validate_mesh_family():
    for n in (1, 2, 3, 5, 8):
        validate_mesh(build_unit_square_mesh(n))


def test_boundary_loop_chains():
    mesh = build_unit_square_mesh(4)
    heads = mesh.boundary_edges[:, 1]
    tails = mesh.boundary_edges[:, 0]
    # consecutive edges share a vertex, last wraps to first
    assert (heads == np.roll(tails, -1)).all()


def test_mark_sigma_all():
    mesh = mark_sigma(build_unit_square_mesh(4), "all")
    assert mesh.sigma_flags.all()


def test_mark_sigma_bottom_count():
    mesh = mark_sigma(build_unit_square_mesh(4), "bottom")
    assert mesh.sigma_flags.sum() == 4
    mids = 0.5 * (
        mesh.vertices[mesh.boundary_edges[:, 0]]
        + mesh.vertices[mesh.boundary_edges[:, 1]]
    )
    assert (mids[mesh.sigma_flags, 1] < 1e-9).all()


def test_mark_sigma_idempotent_and_union():
    mesh = mark_sigma(build_unit_square_mesh(4), "bottom")
    again = mark_sigma(mesh, "bottom")
    assert (again.sigma_flags == mesh.sigma_flags).all()
    both = mark_sigma(mesh, "left")
    # bottom flags untouched, left flags added
    assert (both.sigma_flags & mesh.sigma_flags).sum() == 4
    assert both.sigma_flags.sum() == 8
    combined = mark_sigma(build_unit_square_mesh(4), "bottom + left")
    assert (combined.sigma_flags == both.sigma_flags).all()


def test_mark_sigma_callable_selector():
    mesh = build_unit_square_mesh(4)
    flagged = mark_sigma(mesh, lambda x, y: y < 1e-9)
    ref = mark_sigma(mesh, "bottom")
    assert (flagged.sigma_flags == ref.sigma_flags).all()


def test_mark_sigma_nothing_matches():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(InvalidParameterError):
        mark_sigma(mesh, lambda x, y: np.zeros_like(x, dtype=bool))
    with pytest.raises(InvalidParameterError):
        mark_sigma(mesh, "diagonal")


def test_rect_region_full_box():
    mesh = build_unit_square_mesh(3)
    region = rect_region(mesh, (0.0, 0.0, 1.0, 1.0))
    assert region.triangle_flags.all()


def test_rect_region_half_area():
    mesh = build_unit_square_mesh(2)
    region = rect_region(mesh, (0.0, 0.0, 0.5, 1.0))
    assert region.triangle_flags.sum() == mesh.n_triangles // 2
    assert abs(mesh.positive_areas[region.triangle_flags].sum() - 0.5) <= 1e-12


def test_rect_region_disjoint_box():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(InvalidParameterError):
        rect_region(mesh, (2.0, 2.0, 3.0, 3.0))


def test_region_algebra():
    mesh = build_unit_square_mesh(4)
    left = rect_region(mesh, (0.0, 0.0, 0.5, 1.0))
    bottom = rect_region(mesh, (0.0, 0.0, 1.0, 0.5))
    assert left.minus(left).is_empty
    corner = left.minus(left.minus(bottom))
    assert np.array_equal(corner.triangle_flags, left.triangle_flags & bottom.triangle_flags)
    assert abs(mesh.positive_areas[corner.triangle_flags].sum() - 0.25) <= 1e-12
    assert empty_region(mesh).is_empty
    assert not Region(np.ones(mesh.n_triangles, dtype=bool)).is_empty


def test_pixel_grid_partitions():
    mesh = build_unit_square_mesh(4)
    grid = pixel_grid(mesh, 4, 4)
    total = np.zeros(mesh.n_triangles, dtype=int)
    for region in grid.regions:
        total += region.triangle_flags.astype(int)
    assert (total == 1).all()
    assert grid.index(1, 2) == 2 * 4 + 1
    assert grid.boxes.shape == (16, 4)


def test_pixel_grid_finer_than_mesh():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(InvalidParameterError):
        pixel_grid(mesh, 8, 8)


def test_structured_n_roundtrip():
    assert structured_n(build_unit_square_mesh(7)) == 7


def test_eval_p1_exact_for_linears():
    mesh = build_unit_square_mesh(5)
    u = 2.0 * mesh.vertices[:, 0] - 3.0 * mesh.vertices[:, 1] + 0.25
    rng = np.random.default_rng(12)
    pts = rng.uniform(0.0, 1.0, size=(40, 2))
    vals = eval_p1_structured(mesh, u, pts)
    exact = 2.0 * pts[:, 0] - 3.0 * pts[:, 1] + 0.25
    assert np.abs(vals - exact).max() <= 1e-12


def test_degenerate_triangle_rejected():
    vertices = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    triangles = np.array([[0, 1, 3], [0, 1, 1]])  # second has zero area
    boundary = np.array([[0, 1], [1, 3], [3, 2], [2, 0]])
    mesh = Mesh(vertices, triangles, boundary, np.zeros(4, dtype=bool))
    with pytest.raises(InvalidParameterError, match="area"):
        validate_mesh(mesh)


def test_mesh_to_text_record_counts():
    mesh = mark_sigma(build_unit_square_mesh(2), "bottom")
    text = mesh_to_text(mesh)
    lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    vertex = [l for l in lines if l.startswith("vertex ")]
    triangle = [l for l in lines if l.startswith("triangle ")]
    edge = [l for l in lines if l.startswith("edge ")]
    assert len(vertex) == 9
    assert len(triangle) == 8
    assert len(edge) == 8
    flagged = [l for l in edge if l.split()[-1] == "1"]
    assert len(flagged) == 2


def test_mesh_arrays_read_only():
    mesh = build_unit_square_mesh(2)
    with pytest.raises(ValueError):
        mesh.vertices[0, 0] = 5.0


def test_region_flags_read_only():
    region = Region(np.zeros(8, dtype=bool))
    with pytest.raises(ValueError):
        region.triangle_flags[0] = True


@pytest.mark.parametrize("n", [1, 2, 3, 8, 17, 40, 50])
def test_vertex_order_is_a_deterministic_permutation(n):
    # nested dissection with the corner of largest index moved last
    mesh = build_unit_square_mesh(n)
    order = mesh.vertex_order
    assert np.array_equal(np.sort(order), np.arange(mesh.n_vertices))
    assert np.array_equal(build_unit_square_mesh(n).vertex_order, order)
    assert mesh.vertex_order is order
    with pytest.raises(ValueError):
        order[0] = 0
    assert order[-1] == (n + 1) ** 2 - 1


@pytest.mark.parametrize("selector", ["all", "top", "bottom + left",
                                      lambda x, y: (y < 1e-9) & (abs(x - 0.5) < 0.2)])
def test_sigma_last_order_ends_with_the_flagged_boundary(selector):
    # the flagged vertices and the corner that ends the vertex order come
    # last, corners among them at the very end
    mesh = mark_sigma(build_unit_square_mesh(12), selector)
    order = mesh.sigma_last_order
    assert np.array_equal(np.sort(order), np.arange(mesh.n_vertices))
    tail = set(np.unique(mesh.boundary_edges[mesh.sigma_flags]).tolist()) | {168}
    assert np.flatnonzero(mesh.sigma_tail).tolist() == sorted(tail)
    assert set(order[-len(tail):].tolist()) == tail
    corners = {0, 12, 156, 168} & tail
    assert set(order[-len(corners):].tolist()) == corners
    # the other vertices keep their relative order
    position = np.argsort(mesh.vertex_order)
    assert (np.diff(position[order[:-len(tail)]]) > 0).all()


def test_nested_dissection_stops_on_coincident_vertices():
    # no cut separates vertices at one point: the bisection ends at its level
    # cap with a permutation all the same
    from helmono.mesh import _nested_dissection

    vertices = np.zeros((12, 2))
    vertices[:3] = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
    mesh = Mesh(vertices, np.array([[0, 1, 2]]), np.array([[0, 1], [1, 2], [2, 0]]),
                np.zeros(3, dtype=bool))
    order = _nested_dissection(mesh.vertices, *mesh._edges())
    assert np.array_equal(np.sort(order), np.arange(12))
    assert np.array_equal(np.sort(mesh.vertex_order), np.arange(12))


@pytest.mark.parametrize("n", [24, 32, 44, 45, 64, 96, 128])
def test_vertex_order_fill_near_minimum_degree(n):
    # A symmetric-mode factorization in the mesh's vertex order has at most
    # 5% more nonzeros than in SuperLU's minimum-degree order (9% more at
    # n = 16, whose factorization takes a millisecond).
    import scipy.sparse.linalg as spla

    from helmono import assemble_stiffness, assemble_weighted_mass

    mesh = build_unit_square_mesh(n)
    matrix = (assemble_stiffness(mesh) - assemble_weighted_mass(mesh, 2.0)).tocsc()
    order = mesh.vertex_order
    options = dict(diag_pivot_thresh=0.0, options=dict(SymmetricMode=True))
    ordered = spla.splu(matrix[order][:, order].tocsc(), permc_spec="NATURAL", **options)
    degree = spla.splu(matrix, permc_spec="MMD_AT_PLUS_A", **options)
    assert ordered.L.nnz + ordered.U.nnz <= 1.05 * (degree.L.nnz + degree.U.nnz)
