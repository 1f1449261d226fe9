"""Helpers only the tests use: a structural mesh check, P1 evaluation on the
structured mesh, and readers for the operator and image files the CLI writes.
"""

from pathlib import Path
from typing import Optional

import numpy as np

from helmono.errors import InvalidParameterError
from helmono.io import fmt
from helmono.mesh import Mesh
from helmono.ntd import BoundaryBasis, SymOp, make_symop


def validate_mesh(mesh: Mesh) -> None:
    """Check the structural invariants; raises InvalidParameterError on failure.

    Verified: positive triangle areas, every interior edge shared by exactly
    two triangles and every boundary edge by exactly one, boundary edges
    forming closed loops with the domain on the left, and edge-connectivity of
    the triangulation.
    """
    mesh.positive_areas  # raises on a degenerate triangle

    edge_count: dict = {}
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            key = (min(a, b), max(a, b))
            edge_count[key] = edge_count.get(key, 0) + 1
    if not all(c in (1, 2) for c in edge_count.values()):
        raise InvalidParameterError("edge shared by more than two triangles")
    boundary_keys = {(min(a, b), max(a, b)) for a, b in mesh.boundary_edges}
    actual_boundary = {k for k, c in edge_count.items() if c == 1}
    if boundary_keys != actual_boundary:
        raise InvalidParameterError("boundary edge list does not match mesh topology")

    # Domain-on-the-left orientation: each boundary edge (a, b) must occur with
    # that orientation in its owning triangle's counter-clockwise cycle.
    oriented = set()
    for tri in mesh.triangles:
        for a, b in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            oriented.add((a, b))
    for a, b in mesh.boundary_edges:
        if (a, b) not in oriented:
            raise InvalidParameterError(f"boundary edge ({a}, {b}) has the domain on its right")

    # Loop order: consecutive boundary edges chain head to tail.
    heads = mesh.boundary_edges[:, 0]
    tails = mesh.boundary_edges[:, 1]
    if not (np.roll(heads, -1) == tails).all():
        raise InvalidParameterError("boundary edges are not in loop order")

    # Edge-connectivity via triangle adjacency.
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components

    tri = mesh.triangles
    rows = np.concatenate([tri[:, 0], tri[:, 1], tri[:, 2]])
    cols = np.concatenate([tri[:, 1], tri[:, 2], tri[:, 0]])
    adj = coo_matrix(
        (np.ones(rows.size), (rows, cols)), shape=(mesh.n_vertices, mesh.n_vertices)
    )
    n_comp, _ = connected_components(adj, directed=False)
    if n_comp != 1:
        raise InvalidParameterError(f"mesh has {n_comp} connected components")


def structured_n(mesh: Mesh) -> int:
    """Recover the per-side cell count of a structured unit-square mesh."""
    n = int(round(np.sqrt(mesh.n_vertices))) - 1
    if (n + 1) ** 2 != mesh.n_vertices or mesh.n_triangles != 2 * n * n:
        raise InvalidParameterError("mesh is not a structured unit-square mesh")
    return n


def eval_p1_structured(mesh: Mesh, u: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Evaluate a nodal P1 field of a structured unit-square mesh at points.

    Points must lie in the closed unit square.  Used to compare solutions
    across refinement levels.
    """
    n = structured_n(mesh)
    pts = np.asarray(points, dtype=float)
    x = np.clip(pts[:, 0], 0.0, 1.0)
    y = np.clip(pts[:, 1], 0.0, 1.0)
    i = np.minimum((x * n).astype(int), n - 1)
    j = np.minimum((y * n).astype(int), n - 1)
    xl = x * n - i  # local coordinates in [0, 1]
    yl = y * n - j

    def vid(ii, jj):
        return jj * (n + 1) + ii

    u = np.asarray(u, dtype=float)
    u00 = u[vid(i, j)]
    u10 = u[vid(i + 1, j)]
    u01 = u[vid(i, j + 1)]
    u11 = u[vid(i + 1, j + 1)]
    # Lower triangle (xl >= yl): u00 + (u10-u00) xl + (u11-u10) yl
    lower = u00 + (u10 - u00) * xl + (u11 - u10) * yl
    # Upper triangle (xl < yl): u00 + (u11-u01) xl + (u01-u00) yl
    upper = u00 + (u11 - u01) * xl + (u01 - u00) * yl
    return np.where(xl >= yl, lower, upper)


def read_symop_csv(path, basis: Optional[BoundaryBasis] = None) -> SymOp:
    """Read an operator dump back.

    Pass the basis the file was produced on to restore comparability (the
    file itself only records the dimension); operators loaded without a basis
    get a file-derived id and can only be compared with operators loaded the
    same way.
    """
    text = Path(path).read_text()
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise InvalidParameterError(f"{path}: empty operator file")
    head = lines[0].split(",")
    if len(head) != 3:
        raise InvalidParameterError(f"{path}: malformed header {lines[0]!r}")
    label, k_str, dim_str = head
    try:
        k = float(k_str)
        dim = int(dim_str)
    except ValueError as exc:
        raise InvalidParameterError(f"{path}: malformed header {lines[0]!r}") from exc
    if len(lines) - 1 != dim:
        raise InvalidParameterError(
            f"{path}: header says dim {dim} but file has {len(lines) - 1} rows"
        )
    try:
        matrix = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    except ValueError as exc:
        raise InvalidParameterError(f"{path}: malformed matrix row") from exc
    if matrix.shape != (dim, dim):
        raise InvalidParameterError(f"{path}: matrix is not {dim} x {dim}")
    if basis is not None:
        if basis.dim != dim:
            raise InvalidParameterError(
                f"{path}: file dimension {dim} does not match basis dimension {basis.dim}"
            )
        basis_id = basis.basis_id
    else:
        basis_id = f"file:{label}:k{fmt(k)}:dim{dim}"
    return make_symop(matrix, basis_id, label, k)


def read_pgm(path) -> np.ndarray:
    """Read a P2 image back into mathematical orientation."""
    tokens = []
    for line in Path(path).read_text().splitlines():
        line = line.split("#", 1)[0]
        tokens.extend(line.split())
    if not tokens or tokens[0] != "P2":
        raise InvalidParameterError(f"{path}: not an ASCII PGM file")
    nx, ny, maxval = int(tokens[1]), int(tokens[2]), int(tokens[3])
    data = np.array([int(t) for t in tokens[4:]], dtype=int)
    if data.size != nx * ny or maxval != 255:
        raise InvalidParameterError(f"{path}: malformed PGM payload")
    return data.reshape(ny, nx)[::-1]
