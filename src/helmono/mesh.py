"""Conforming P1 triangle meshes of the unit square and triangle-set regions.

The mesh generator produces a structured one-diagonal triangulation: an
``n x n`` grid of square cells, each split into two triangles along the
south-west to north-east diagonal.  Boundary edges are stored in
counter-clockwise loop order starting at the origin, so the arc-length
parameterization of the boundary is just a cumulative sum of edge lengths.

A subset of the boundary (the instrumented part, where fluxes are applied and
traces are read) is tracked per edge through ``sigma_flags``; regions (scatterer
supports, probe boxes, reconstruction pixels) are plain boolean masks over
triangles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp

from .errors import InvalidParameterError, _shown, checked_count

_SIDE_TOL = 1e-12
#: Boxes of at most this many vertices are not split further by the
#: nested-dissection order.
_DISSECTION_LEAF = 2
#: Bisection levels at most: keys of ``3^levels`` fit in 64 bits, and
#: vertices that no cut separates (coincident ones) stop the loop here.
_DISSECTION_LEVELS = 32


@dataclass(frozen=True)
class Mesh:
    """Immutable conforming triangle mesh.

    Parameters
    ----------
    vertices : ndarray, shape (nv, 2)
        Vertex coordinates.
    triangles : ndarray, shape (nt, 3)
        Vertex indices per triangle, counter-clockwise.
    boundary_edges : ndarray, shape (nb, 2)
        Vertex index pairs of boundary edges, oriented so the domain lies on
        the left, listed in loop order.
    sigma_flags : ndarray, shape (nb,)
        True on edges belonging to the instrumented boundary part.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray
    sigma_flags: np.ndarray

    def __post_init__(self):
        for name in ("vertices", "triangles", "boundary_edges", "sigma_flags"):
            arr = getattr(self, name)
            arr.setflags(write=False)
        if self.vertices.ndim != 2 or self.vertices.shape[1] != 2:
            raise InvalidParameterError("vertices must have shape (nv, 2)")
        if self.triangles.ndim != 2 or self.triangles.shape[1] != 3:
            raise InvalidParameterError("triangles must have shape (nt, 3)")
        if self.boundary_edges.ndim != 2 or self.boundary_edges.shape[1] != 2:
            raise InvalidParameterError("boundary_edges must have shape (nb, 2)")
        if self.sigma_flags.shape != (self.boundary_edges.shape[0],):
            raise InvalidParameterError("sigma_flags length must match boundary_edges")

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    def triangle_areas(self) -> np.ndarray:
        """Signed areas, positive for counter-clockwise triangles."""
        p = self.vertices[self.triangles]
        d1 = p[:, 1] - p[:, 0]
        d2 = p[:, 2] - p[:, 0]
        return 0.5 * (d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0])

    @cached_property
    def positive_areas(self) -> np.ndarray:
        """Triangle areas, checked positive; read-only.

        Computed and checked on first use, then kept with the mesh.  A failed
        check is not kept, so every use on a degenerate mesh raises.

        Raises
        ------
        InvalidParameterError
            If some triangle has zero or negative signed area.
        """
        areas = self.triangle_areas()
        if not (areas > 0.0).all():
            bad = int(np.argmin(areas))
            raise InvalidParameterError(
                f"degenerate triangle {bad} with signed area {areas[bad]:.3e}"
            )
        areas.setflags(write=False)
        return areas

    @cached_property
    def barycenters(self) -> np.ndarray:
        """Triangle barycenters, shape (nt, 2); computed on first use, read-only."""
        bary = self.vertices[self.triangles].mean(axis=1)
        bary.setflags(write=False)
        return bary

    @cached_property
    def stiffness(self) -> sp.csr_matrix:
        """The stiffness matrix :func:`helmono.fem.assemble_stiffness` of
        this mesh; read-only.

        It depends on the geometry alone, so it is assembled on first use and
        kept with the mesh, and every system and pencil of the mesh shares it.
        """
        from .fem import assemble_stiffness  # fem builds on this module

        s = assemble_stiffness(self)
        for part in (s.data, s.indices, s.indptr):
            part.setflags(write=False)
        return s

    @cached_property
    def vertex_order(self) -> np.ndarray:
        """Elimination order of the vertices for sparse factorizations;
        read-only.

        The fill-reducing order (:meth:`_fill_order`) with one corner of the
        boundary, the one of largest index, moved last.  The last pivot of a
        symmetric factorization is ``1 / (A^{-1})_{nn}``, about
        ``sigma_min / v_n^2`` for a near-null vector ``v``, so it reveals a
        near resonance only where ``v`` is not small; Neumann modes are not
        small at the corners, while the middle lines, where the top
        separators of nested dissection run, are nodal lines of many of them.
        Computed on first use, then kept with the mesh.
        """
        last = np.zeros(self.n_vertices, dtype=bool)
        last[np.flatnonzero(self._corners)[-1:]] = True
        return self._ending_with(last)

    @cached_property
    def sigma_tail(self) -> np.ndarray:
        """Vertex mask of the vertices :attr:`sigma_last_order` puts last:
        those of the flagged boundary edges and the corner that ends
        :attr:`vertex_order`; read-only."""
        tail = np.zeros(self.n_vertices, dtype=bool)
        tail[self.boundary_edges[self.sigma_flags].ravel()] = True
        tail[self.vertex_order[-1:]] = True
        tail.setflags(write=False)
        return tail

    @cached_property
    def sigma_last_order(self) -> np.ndarray:
        """Elimination order with the :attr:`sigma_tail` vertices last, the
        corners among them after the rest; read-only.

        The other vertices keep the fill-reducing order (see
        :meth:`_fill_order`).  The trailing block of a factorization in this
        order is then the Schur complement onto the flagged boundary (and
        that corner), from which a Neumann-to-Dirichlet matrix is read
        without a solve per basis function.  That block is dense whatever the
        order inside it, so its corners come last at no cost in fill, and the
        last pivot sits at a corner as in :attr:`vertex_order`, whatever part
        of the boundary is flagged.
        """
        return self._ending_with(self.sigma_tail)

    def _ending_with(self, last: np.ndarray) -> np.ndarray:
        """The fill-reducing order with the ``last`` vertices (a mask) moved
        to its end, corners among them at the very end."""
        order = self._fill_order
        rank = last.astype(np.int8) + (last & self._corners)
        order = order[np.argsort(rank[order], kind="stable")]
        order.setflags(write=False)
        return order

    @cached_property
    def _corners(self) -> np.ndarray:
        """Vertex mask of the boundary corners, where the boundary turns."""
        e = self.boundary_edges
        step = self.vertices[e[:, 1]] - self.vertices[e[:, 0]]
        into = np.empty(self.n_vertices, dtype=np.intp)
        into[e[:, 1]] = np.arange(e.shape[0])
        before = step[into[e[:, 0]]]  # the boundary edge ending where each begins
        turn = np.abs(before[:, 0] * step[:, 1] - before[:, 1] * step[:, 0])
        corner = np.zeros(self.n_vertices, dtype=bool)
        corner[e[turn > _SIDE_TOL * np.hypot(*before.T) * np.hypot(*step.T), 0]] = True
        return corner

    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Both ends of every mesh edge, each edge once."""
        t = self.triangles
        a, b = t.ravel(), np.roll(t, -1, axis=1).ravel()
        once = a < b  # an interior edge lies in two triangles, once each way
        return (np.concatenate([a[once], self.boundary_edges[:, 0]]),
                np.concatenate([b[once], self.boundary_edges[:, 1]]))

    @cached_property
    def _fill_order(self) -> np.ndarray:
        """A fill-reducing vertex order: nested dissection by coordinate
        bisection.

        Every box holding more than ``_DISSECTION_LEAF`` vertices is cut
        across its longer side at the middle, and the vertices of the upper
        half with an edge into the lower half form its separator.  A box's
        order is its lower half, its upper half, then its separator, so
        separators come last; all boxes of one level are cut at once.

        On the unit-square meshes, a symmetric factorization in
        :attr:`vertex_order` (one corner moved last) keeps 9% more nonzeros
        than in SuperLU's multiple-minimum-degree order at ``n = 16``, at
        most 5% more from ``n = 24`` to 44, where a factorization takes
        milliseconds, and fewer from ``n = 45`` on: 5% fewer at ``n = 128``.
        """
        return _nested_dissection(self.vertices, *self._edges())

    def boundary_edge_lengths(self) -> np.ndarray:
        a = self.vertices[self.boundary_edges[:, 0]]
        b = self.vertices[self.boundary_edges[:, 1]]
        return np.hypot(*(b - a).T)


@dataclass(frozen=True)
class Region:
    """A set of triangles, stored as a boolean mask over the mesh."""

    triangle_flags: np.ndarray

    def __post_init__(self):
        flags = np.asarray(self.triangle_flags, dtype=bool)
        flags.setflags(write=False)
        object.__setattr__(self, "triangle_flags", flags)

    @property
    def is_empty(self) -> bool:
        return not self.triangle_flags.any()

    def minus(self, other: "Region") -> "Region":
        return Region(self.triangle_flags & ~other.triangle_flags)


def _nested_dissection(vertices: np.ndarray, a: np.ndarray,
                       b: np.ndarray) -> np.ndarray:
    """Nested-dissection order of the vertices with edges ``(a[i], b[i])``
    (see ``Mesh._fill_order``)."""
    n = vertices.shape[0]
    x, y = vertices.T
    lo = vertices.min(axis=0, keepdims=True)
    hi = vertices.max(axis=0, keepdims=True)
    box = np.zeros(n, dtype=np.intp)  # meaningful for live vertices only
    live = np.ones(n, dtype=bool)  # not yet in a separator or a leaf
    key = np.zeros(n, dtype=np.int64)  # base-3 digits: lower, upper, separator
    for _ in range(_DISSECTION_LEVELS):
        split = np.bincount(box[live], minlength=lo.shape[0]) > _DISSECTION_LEAF
        live &= split[box]
        if not live.any():
            break
        box = np.where(live, np.cumsum(split)[box] - 1, 0)
        lo, hi = lo[split], hi[split]
        rows = np.arange(lo.shape[0])
        axis = (hi - lo).argmax(axis=1)
        mid = 0.5 * (lo[rows, axis] + hi[rows, axis])
        upper = np.where(axis[box] == 1, y, x) >= mid[box]
        code = np.where(live, 2 * box + upper, -1)
        ca, cb = code[a], code[b]
        separator = np.zeros(n, dtype=bool)
        separator[np.where(ca & 1, a, b)[(ca ^ cb) == 1]] = True
        key = 3 * key + np.where(separator, 2, upper & live)
        inside = (ca == cb) & (ca >= 0)
        a, b = a[inside], b[inside]
        live &= ~separator
        box = 2 * box + upper
        lo, hi = np.repeat(lo, 2, axis=0), np.repeat(hi, 2, axis=0)
        hi[2 * rows, axis] = mid
        lo[2 * rows + 1, axis] = mid
    return np.argsort(key, kind="stable")


def build_unit_square_mesh(n: int) -> Mesh:
    """Triangulate the unit square into ``2 n^2`` triangles, one diagonal per cell.

    Vertices sit on the uniform ``(n+1) x (n+1)`` grid; vertex ``(i, j)`` has
    index ``j * (n + 1) + i`` and coordinates ``(i/n, j/n)``.  Each cell is
    split along its south-west to north-east diagonal into two
    counter-clockwise triangles.

    Parameters
    ----------
    n : int
        Number of cells per side, at least 1.

    Returns
    -------
    Mesh
        Mesh with ``(n+1)^2`` vertices, ``2 n^2`` triangles and ``4 n``
        boundary edges in counter-clockwise loop order starting at the origin;
        all sigma flags start False.
    """
    n = checked_count(n, "n", 1)
    side = np.linspace(0.0, 1.0, n + 1)
    xx, yy = np.meshgrid(side, side)  # row index = j (y), column index = i (x)
    vertices = np.column_stack([xx.ravel(), yy.ravel()])

    def vid(i, j):
        return j * (n + 1) + i

    ii, jj = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    ii = ii.ravel()
    jj = jj.ravel()
    v00 = vid(ii, jj)
    v10 = vid(ii + 1, jj)
    v01 = vid(ii, jj + 1)
    v11 = vid(ii + 1, jj + 1)
    lower = np.column_stack([v00, v10, v11])  # below the diagonal
    upper = np.column_stack([v00, v11, v01])  # above the diagonal
    triangles = np.empty((2 * n * n, 3), dtype=np.int64)
    triangles[0::2] = lower
    triangles[1::2] = upper

    k = np.arange(n)
    bottom = np.column_stack([vid(k, 0), vid(k + 1, 0)])
    right = np.column_stack([vid(n, k), vid(n, k + 1)])
    top = np.column_stack([vid(n - k, n), vid(n - k - 1, n)])
    left = np.column_stack([vid(0, n - k), vid(0, n - k - 1)])
    boundary_edges = np.vstack([bottom, right, top, left]).astype(np.int64)

    return Mesh(
        vertices=vertices,
        triangles=triangles,
        boundary_edges=boundary_edges,
        sigma_flags=np.zeros(boundary_edges.shape[0], dtype=bool),
    )


#: The sides of the unit square by name, as masks of edge midpoints.
_SIDES: dict[str, Callable[[np.ndarray, np.ndarray], np.ndarray]] = {
    "all": lambda mx, my: np.ones_like(mx, dtype=bool),
    "bottom": lambda mx, my: np.abs(my) <= _SIDE_TOL,
    "top": lambda mx, my: np.abs(my - 1.0) <= _SIDE_TOL,
    "left": lambda mx, my: np.abs(mx) <= _SIDE_TOL,
    "right": lambda mx, my: np.abs(mx - 1.0) <= _SIDE_TOL,
}


def _side_names(selector: str) -> list:
    """The side names of a selector string: split on ``+`` and whitespace,
    lower-cased, and refused unless there is one and each names a side."""
    names = selector.replace("+", " ").lower().split()
    if not names:
        raise InvalidParameterError("empty boundary selector")
    for name in names:
        if name not in _SIDES:
            raise InvalidParameterError(
                f"unknown boundary selector {name!r}; expected all/bottom/top/left/right")
    return names


def mark_sigma(mesh: Mesh, selector) -> Mesh:
    """Flag boundary edges as part of the instrumented boundary.

    ``selector`` is either a callable taking edge-midpoint coordinate arrays
    ``(mx, my)`` and returning a boolean mask, or a string naming sides of the
    unit square: one of ``all``, ``bottom``, ``top``, ``left``, ``right``, or
    several of those joined by ``+`` or whitespace (their union).  Matching is
    by edge midpoint.  Flags accumulate: edges already flagged stay flagged, so
    repeated calls with different selectors take unions and repeating the same
    selector is a no-op.

    Returns a new mesh; the input is unchanged.
    """
    mids = 0.5 * (
        mesh.vertices[mesh.boundary_edges[:, 0]] + mesh.vertices[mesh.boundary_edges[:, 1]]
    )
    if callable(selector):
        matched = np.asarray(selector(mids[:, 0], mids[:, 1]), dtype=bool)
        if matched.shape != (mesh.boundary_edges.shape[0],):
            raise InvalidParameterError("selector must return one flag per boundary edge")
    elif isinstance(selector, str):
        matched = np.zeros(mesh.boundary_edges.shape[0], dtype=bool)
        for name in _side_names(selector):
            matched |= _SIDES[name](mids[:, 0], mids[:, 1])
    else:
        raise InvalidParameterError("selector must be a callable or a string")
    if not matched.any():
        raise InvalidParameterError("selector matched no boundary edge")
    return Mesh(
        vertices=mesh.vertices,
        triangles=mesh.triangles,
        boundary_edges=mesh.boundary_edges,
        sigma_flags=mesh.sigma_flags | matched,
    )


def rect_region(mesh: Mesh, box: Sequence[float]) -> Region:
    """Select the triangles whose barycenter lies in the closed box.

    Parameters
    ----------
    box : (x0, y0, x1, y1)
        Axis-aligned rectangle, corners included.

    Raises
    ------
    InvalidParameterError
        If the box is degenerate or selects no triangle.
    """
    x0, y0, x1, y1 = (float(v) for v in box)
    if not (x0 < x1 and y0 < y1):
        raise InvalidParameterError(f"degenerate box {box!r}")
    bary = mesh.barycenters
    flags = (bary[:, 0] >= x0) & (bary[:, 0] <= x1) & (bary[:, 1] >= y0) & (bary[:, 1] <= y1)
    if not flags.any():
        raise InvalidParameterError(f"box {box!r} selects no triangle")
    return Region(flags)


def empty_region(mesh: Mesh) -> Region:
    return Region(np.zeros(mesh.n_triangles, dtype=bool))


@dataclass(frozen=True)
class PixelGrid:
    """Rectangular reconstruction grid: boxes plus the triangles inside each."""

    nx: int
    ny: int
    boxes: np.ndarray  # (nx*ny, 4), rows (x0, y0, x1, y1), x fastest
    regions: list = field(repr=False, default_factory=list)

    def index(self, ix: int, iy: int) -> int:
        return iy * self.nx + ix


def pixel_grid(mesh: Mesh, nx: int, ny: int) -> PixelGrid:
    """Partition the unit square into ``nx x ny`` pixels of triangles.

    Each triangle is assigned to exactly one pixel by its barycenter (the
    boxes tile the square half-open, so nothing is double counted).  Raises if
    any pixel ends up empty, which happens when the grid is finer than the
    mesh; a grid of more pixels than the mesh has triangles is refused before
    anything is allocated.
    """
    nx, ny = checked_count(nx, "nx", 1), checked_count(ny, "ny", 1)
    if nx * ny > mesh.n_triangles:
        raise InvalidParameterError(f"{_shown(nx)} x {_shown(ny)} pixels but "
                                    f"{mesh.n_triangles} triangles; grid finer than mesh")
    bary = mesh.barycenters
    ix = np.clip(np.floor(bary[:, 0] * nx).astype(int), 0, nx - 1)
    iy = np.clip(np.floor(bary[:, 1] * ny).astype(int), 0, ny - 1)
    pix = iy * nx + ix
    boxes = np.empty((nx * ny, 4))
    regions = []
    for j in range(ny):
        for i in range(nx):
            p = j * nx + i
            boxes[p] = (i / nx, j / ny, (i + 1) / nx, (j + 1) / ny)
            flags = pix == p
            if not flags.any():
                raise InvalidParameterError(
                    f"pixel ({i}, {j}) contains no triangle; grid finer than mesh"
                )
            regions.append(Region(flags))
    return PixelGrid(nx=nx, ny=ny, boxes=boxes, regions=regions)

