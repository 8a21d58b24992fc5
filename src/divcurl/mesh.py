"""Conforming triangulations of bounded planar regions.

The boundary of a mesh is a finite union of disjoint simple polygonal
loops.  Loop 0 is the outer loop; loops 1..J bound holes.  Boundary
edges are directed so that the domain interior lies to the left of
(vertex_a -> vertex_b): the outer loop runs counter-clockwise, hole
loops clockwise.  With that convention each directed edge is aligned
with the positively oriented unit tangent tau = (-nu2, nu1), nu being
the outward unit normal.

Meshes are immutable after construction and safe for concurrent reads.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .errors import EmptyPartitionPieceError, MeshError

TAG_NONE = 0
TAG_NU = 1
TAG_TAU = 2
_VALID_TAGS = (TAG_NONE, TAG_NU, TAG_TAU)
_TINY = np.finfo(float).tiny  # the smallest normal float


def _shoelace(points):
    """Signed area of the polygon with the given ordered vertices."""
    x = points[:, 0]
    y = points[:, 1]
    return 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def _point_in_polygon(point, polygon):
    """Ray-casting point-in-polygon test (point strictly inside)."""
    x, y = point
    xs, ys = polygon[:, 0], polygon[:, 1]
    xn, yn = np.roll(xs, -1), np.roll(ys, -1)
    straddle = (ys > y) != (yn > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        x_hit = xs + (y - ys) / (yn - ys) * (xn - xs)
    return bool(np.count_nonzero(straddle & (x < x_hit)) % 2)


def _first_repeat(keys):
    """Index of the first entry of ``keys`` equal to an earlier one, or -1."""
    repeat = np.ones(len(keys), dtype=bool)
    repeat[np.unique(keys, return_index=True)[1]] = False
    return int(np.argmax(repeat)) if repeat.any() else -1


@dataclass(frozen=True, eq=False, repr=False)
class Mesh:
    """Immutable triangle mesh with oriented boundary loops.

    vertices : (nv, 2) float array of point coordinates.
    triangles : (nt, 3) int array of vertex indices, counter-clockwise.
    boundary_edges : (nb, 4) int array of rows (a, b, loop_id, tag) with
        tag in {TAG_NONE, TAG_NU, TAG_TAU}.  Edge direction follows the
        orientation convention in the module docstring.

    ``loops[j]`` lists the rows of ``boundary_edges`` on loop j in
    traversal order.

    The edge table is built once, at construction, from the 3*nt
    triangle sides: ``edges`` (ne, 2) holds every undirected edge as a
    sorted pair in lexicographic order, ``triangle_edges`` (nt, 3) the
    edge of each triangle's sides (v0v1, v1v2, v2v0), and
    ``edge_counts`` (ne,) the number of triangles using each edge.
    Validation, edge lookups, refinement and line integrals all read it.

    All invariants are checked at construction: every vertex is used,
    triangles have positive area, each edge is shared by at most two
    triangles, the edges used once are exactly the boundary rows, each
    directed like its triangle, the loops are simple closed cycles that
    share no vertex (outer counter-clockwise, holes clockwise inside it)
    and the triangles form one piece through shared edges.  Errors about one
    triangle, boundary row or vertex name it in their context
    (``triangle=``, ``boundary_row=``, ``vertex=``).
    """

    vertices: np.ndarray
    triangles: np.ndarray
    boundary_edges: np.ndarray

    def __post_init__(self):
        vertices = np.ascontiguousarray(np.asarray(self.vertices, dtype=float))
        triangles = np.ascontiguousarray(np.asarray(self.triangles, dtype=np.int64))
        bedges = np.ascontiguousarray(np.asarray(self.boundary_edges, dtype=np.int64))
        if vertices.ndim != 2 or vertices.shape[1] != 2:
            raise MeshError("vertices must be an (nv, 2) array")
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        if bedges.ndim != 2 or bedges.shape[1] != 4:
            raise MeshError("boundary_edges must be an (nb, 4) array")
        if not np.all(np.isfinite(vertices)):
            raise MeshError("vertex coordinates must be finite")
        nv = len(vertices)
        for what, key, idx in (("triangle", "triangle", triangles),
                               ("boundary edge", "boundary_row", bedges[:, :2])):
            bad = np.flatnonzero(((idx < 0) | (idx >= nv)).any(axis=1))
            if len(bad):
                raise MeshError(f"{what} vertex index out of range (row {bad[0]})",
                                code="MESH_INDEX", **{key: int(bad[0])})
        if len(triangles) == 0:
            raise MeshError("mesh has no triangles")
        # Areas, hat gradients and every matrix need normal floats: reject a
        # scale whose squared extent (below) or triangle area (in _validate)
        # overflows, underflows or is subnormal.  Column by column, since
        # np.ptp(axis=0) on an (nv, 2) array is about ten times slower.
        with np.errstate(over="ignore", under="ignore"):
            extent2 = float(sum(np.ptp(col) ** 2 for col in vertices.T))
        if not _TINY <= extent2 < np.inf:
            raise MeshError(f"mesh scale out of range: the squared bounding-box extent "
                            f"{extent2:g} is not a normal float")
        for arr in (vertices, triangles, bedges):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "boundary_edges", bedges)
        self._validate()

    def __repr__(self):
        return (f"Mesh(nv={len(self.vertices)}, nt={len(self.triangles)}, "
                f"nb={len(self.boundary_edges)}, loops={len(self.loops)})")

    # -- validation ---------------------------------------------------

    def _validate(self):
        """Build the edge table, check every invariant, chain the loops."""
        p = self.vertices
        t = self.triangles
        be = self.boundary_edges
        nv = len(p)

        unused = np.flatnonzero(np.bincount(t.ravel(), minlength=nv) == 0)
        if len(unused):
            raise MeshError(f"vertex {int(unused[0])} is used by no triangle",
                            code="MESH_TOPOLOGY", vertex=int(unused[0]))

        signed = self.areas
        if np.any(signed < _TINY):
            bad = int(np.argmin(signed))
            if signed[bad] <= 0.0:
                raise MeshError(
                    f"triangle {bad} has non-positive signed area {signed[bad]:g}",
                    code="MESH_ORIENTATION", triangle=bad)
            raise MeshError(f"mesh scale out of range: triangle {bad} has area "
                            f"{signed[bad]:g}, below the smallest normal float",
                            triangle=bad)

        # The edge table: one key lo*nv + hi per triangle side.
        sides = np.stack([t, np.roll(t, -1, axis=1)], axis=2)
        keys, inverse, counts = np.unique(
            (sides.min(axis=2) * nv + sides.max(axis=2)).ravel(),
            return_inverse=True, return_counts=True)
        edges = np.column_stack([keys // nv, keys % nv])
        tri_edges = inverse.reshape(-1, 3)
        for name, arr in (("_edge_keys", keys), ("edges", edges),
                          ("triangle_edges", tri_edges), ("edge_counts", counts)):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        # Sides grouped by edge: the sides of edge e, in triangle order, are
        # side_of[first[e]:first[e] + counts[e]]; side s belongs to triangle
        # s // 3 and starts at vertex t.flat[s].
        side_of = np.argsort(inverse, kind="stable")
        first = np.cumsum(counts) - counts

        # Each undirected edge is shared by exactly 2 triangles or lies on
        # the boundary (1 triangle); boundary rows must be those edges,
        # once each, directed like the counter-clockwise side of their
        # triangle.
        if counts.max() > 2:
            i = int(np.argmax(counts))
            raise MeshError(
                f"edge ({edges[i, 0]}, {edges[i, 1]}) is shared by {counts[i]} triangles",
                code="MESH_TOPOLOGY", triangle=int(side_of[first[i] + 2] // 3))
        row_keys = be[:, :2].min(axis=1) * nv + be[:, :2].max(axis=1)
        pos = np.minimum(np.searchsorted(keys, row_keys), len(keys) - 1)
        uses = np.where(keys[pos] == row_keys, counts[pos], 0)
        if np.any(uses != 1):
            row = int(np.argmax(uses != 1))
            raise MeshError(
                f"boundary edge row {row} ({be[row, 0]}, {be[row, 1]}) is used by "
                f"{uses[row]} triangles", code="MESH_TOPOLOGY", boundary_row=row)
        free = counts == 1
        free[pos] = False
        if np.any(free):
            e = int(np.argmax(free))
            raise MeshError(
                f"edge ({edges[e, 0]}, {edges[e, 1]}) is used by one triangle but is "
                f"not a boundary edge", code="MESH_TOPOLOGY",
                triangle=int(side_of[first[e]] // 3))
        row = _first_repeat(pos)
        if row >= 0:
            raise MeshError("duplicate boundary edge", code="MESH_TOPOLOGY",
                            boundary_row=row)
        opposed = be[:, 0] != t.ravel()[side_of[first[pos]]]
        bad_tag = ~np.isin(be[:, 3], _VALID_TAGS)
        if np.any(opposed | bad_tag):
            row = int(np.argmax(opposed | bad_tag))
            a, b, _, tag = be[row]
            if opposed[row]:
                raise MeshError(
                    f"boundary edge row {row} ({a}->{b}) opposes its triangle's "
                    f"orientation; interior must lie to the left",
                    code="MESH_ORIENTATION", boundary_row=row)
            raise MeshError(f"boundary edge row {row} has invalid tag {tag}",
                            code="MESH_FORMAT", boundary_row=row)

        # Chain each loop into one simple closed cycle.
        loop_ids = np.unique(be[:, 2])
        gap = (be[:, 2] < 0) | (be[:, 2] >= len(loop_ids))
        if np.any(gap):
            raise MeshError("loop ids must be 0..J without gaps", code="MESH_TOPOLOGY",
                            boundary_row=int(np.argmax(gap)))
        loops = []
        for lid in loop_ids:
            rows = np.flatnonzero(be[:, 2] == lid)
            nxt = {int(be[r, 0]): r for r in rows}
            start = int(be[rows[0], 0])
            order = []
            a = start
            for _ in range(len(rows)):
                if a not in nxt:
                    raise MeshError(f"loop {lid} is not a simple closed cycle",
                                    code="MESH_TOPOLOGY", boundary_row=int(rows[0]))
                r = nxt.pop(a)
                order.append(r)
                a = int(be[r, 1])
            if a != start or nxt:
                raise MeshError(f"loop {lid} is not a single closed cycle",
                                code="MESH_TOPOLOGY", boundary_row=int(rows[0]))
            loops.append(np.asarray(order, dtype=np.int64))

        # Loop 0 is the outer loop (counter-clockwise); holes are clockwise
        # and lie inside it.  Each fault cites the loop's first row.
        if loops:
            polys = [p[be[rows, 0]] for rows in loops]
            if _shoelace(polys[0]) <= 0.0:
                raise MeshError("loop 0 must be counter-clockwise (outer loop)",
                                code="MESH_ORIENTATION", boundary_row=int(loops[0][0]))
            for j in range(1, len(loops)):
                if _shoelace(polys[j]) >= 0.0:
                    raise MeshError(f"hole loop {j} must be clockwise",
                                    code="MESH_ORIENTATION", boundary_row=int(loops[j][0]))
                if not _point_in_polygon(polys[j][0], polys[0]):
                    raise MeshError(f"hole loop {j} is not enclosed by loop 0",
                                    code="MESH_TOPOLOGY", boundary_row=int(loops[j][0]))
        for arr in loops:
            arr.setflags(write=False)
        object.__setattr__(self, "loops", tuple(loops))

        # The triangles must form one piece through shared edges; pieces
        # that meet only at vertices would pass every check above.
        shared = first[counts == 2]
        adjacency = sp.coo_matrix(
            (np.ones(len(shared)), (side_of[shared] // 3, side_of[shared + 1] // 3)),
            shape=(len(t), len(t)))
        pieces, label = csgraph.connected_components(adjacency, directed=False)
        if pieces > 1:
            bad = int(np.argmax(label != label[0]))
            raise MeshError(
                f"the domain is not connected through edges: it has {pieces} "
                f"pieces, and triangle {bad} is not in the piece of triangle 0",
                code="MESH_TOPOLOGY", triangle=bad)

        # Two loops that touch at a vertex pass every check above, but the
        # region between them is not a hole: no vertex may start two rows.
        # (A loop through one vertex twice already fails the walk.)
        row = _first_repeat(be[:, 0])
        if row >= 0:
            raise MeshError(
                f"boundary vertex {be[row, 0]} starts two boundary rows; the loops "
                f"must be simple and must not touch", code="MESH_TOPOLOGY",
                boundary_row=row)

    # -- derived geometry (cached; the mesh is immutable) -------------

    @cached_property
    def _cache(self):
        """Operators and constants derived from this mesh by fem, spectra and
        bvp; stored on the instance, so they are freed with it."""
        return {}

    @cached_property
    def areas(self):
        """Triangle areas, (nt,)."""
        p, t = self.vertices, self.triangles
        e1 = p[t[:, 1]] - p[t[:, 0]]
        e2 = p[t[:, 2]] - p[t[:, 0]]
        return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])

    @cached_property
    def centroids(self):
        return self.vertices[self.triangles].mean(axis=1)

    @cached_property
    def hat_gradients(self):
        """Gradients of the three nodal hat functions, (nt, 3, 2).

        Exact for P1: grad(lambda_i) = (y_j - y_k, x_k - x_j) / (2A),
        indices cyclic.
        """
        p, t = self.vertices, self.triangles
        x = p[t, 0]  # (nt, 3)
        y = p[t, 1]
        g = np.empty((len(t), 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            g[:, i, 0] = y[:, j] - y[:, k]
            g[:, i, 1] = x[:, k] - x[:, j]
        g /= (2.0 * self.areas)[:, None, None]
        return g

    def edge_id(self, a, b):
        """Global edge index (row of ``edges``) of the undirected edge (a, b).

        ``a`` and ``b`` may be index arrays of one shape; the result then
        has that shape.
        """
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.int64),
                                   np.asarray(b, dtype=np.int64))
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        nv, keys = len(self.vertices), self._edge_keys
        query = lo * nv + hi
        ids = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
        missing = (lo < 0) | (hi >= nv) | (keys[ids] != query)
        if np.any(missing):
            i = np.unravel_index(np.argmax(missing), missing.shape)
            raise MeshError(f"({a[i]}, {b[i]}) is not a mesh edge", code="MESH_INDEX")
        return int(ids) if ids.ndim == 0 else ids

    @cached_property
    def boundary_edge_ids(self):
        """Global edge index of each boundary_edges row, (nb,)."""
        return self.edge_id(self.boundary_edges[:, 0], self.boundary_edges[:, 1])

    @cached_property
    def boundary_vertices(self):
        """Sorted indices of vertices lying on the boundary."""
        return np.unique(self.boundary_edges[:, :2])

    @cached_property
    def interior_vertices(self):
        mask = np.ones(len(self.vertices), dtype=bool)
        mask[self.boundary_vertices] = False
        return np.flatnonzero(mask)

    @cached_property
    def boundary_edge_lengths(self):
        p = self.vertices
        d = p[self.boundary_edges[:, 1]] - p[self.boundary_edges[:, 0]]
        return np.hypot(d[:, 0], d[:, 1])

    @cached_property
    def boundary_edge_frames(self):
        """Outward normal and positive tangent per boundary edge: (nb, 2, 2).

        frames[r, 0] = nu, frames[r, 1] = tau.
        """
        p = self.vertices
        d = p[self.boundary_edges[:, 1]] - p[self.boundary_edges[:, 0]]
        tau = d / np.hypot(d[:, 0], d[:, 1])[:, None]
        nu = np.stack([tau[:, 1], -tau[:, 0]], axis=1)
        return np.stack([nu, tau], axis=1)

    @cached_property
    def perimeter(self):
        return float(self.boundary_edge_lengths.sum())

    @cached_property
    def area(self):
        return float(self.areas.sum())

    @cached_property
    def h_max(self):
        p = self.vertices
        d = p[self.edges[:, 1]] - p[self.edges[:, 0]]
        return float(np.hypot(d[:, 0], d[:, 1]).max())

    @property
    def num_holes(self):
        return len(self.loops) - 1

    def info(self):
        """Summary dict for reporting."""
        return {
            "vertices": len(self.vertices),
            "triangles": len(self.triangles),
            "boundary_edges": len(self.boundary_edges),
            "loops": len(self.loops),
            "holes": self.num_holes,
            "area": self.area,
            "perimeter": self.perimeter,
            "h_max": self.h_max,
        }


@dataclass(frozen=True, eq=False, repr=False)
class BoundaryPartition:
    """Disjoint split of the boundary edges into a flux part and a tangential part.

    ``gamma_nu`` and ``gamma_tau`` are frozensets of rows of
    ``mesh.boundary_edges``; they must be disjoint, nonempty and cover
    every boundary edge.
    """

    mesh: Mesh
    gamma_nu: frozenset
    gamma_tau: frozenset

    def __post_init__(self):
        nu = frozenset(int(r) for r in self.gamma_nu)
        tau = frozenset(int(r) for r in self.gamma_tau)
        nb = len(self.mesh.boundary_edges)
        all_rows = set(range(nb))
        if not nu or not tau:
            raise EmptyPartitionPieceError("both partition pieces must be nonempty")
        if nu & tau:
            raise MeshError("partition pieces overlap", code="MESH_TOPOLOGY")
        if (nu | tau) != all_rows:
            raise MeshError("partition pieces must cover every boundary edge",
                            code="MESH_TOPOLOGY")
        object.__setattr__(self, "gamma_nu", nu)
        object.__setattr__(self, "gamma_tau", tau)

    def __repr__(self):
        return (f"BoundaryPartition(|gamma_nu|={len(self.gamma_nu)}, "
                f"|gamma_tau|={len(self.gamma_tau)})")

    @classmethod
    def from_tags(cls, mesh):
        """Build the partition from the NU/TAU region tags of the mesh."""
        tags = mesh.boundary_edges[:, 3]
        nu = frozenset(np.flatnonzero(tags == TAG_NU).tolist())
        tau = frozenset(np.flatnonzero(tags == TAG_TAU).tolist())
        untagged = int(np.count_nonzero(tags == TAG_NONE))
        if untagged:
            raise MeshError(
                f"{untagged} boundary edge(s) carry no NU/TAU tag; supply a "
                "partition explicitly", code="MESH_FORMAT")
        return cls(mesh, nu, tau)

    def vertices_of(self, piece):
        """All vertices incident to the edges of one piece, endpoints included."""
        rows = sorted(self.gamma_nu if piece == "nu" else self.gamma_tau)
        return np.unique(self.mesh.boundary_edges[rows, :2])


def edge_frame(m, edge):
    """Outward unit normal and positive unit tangent of a boundary edge.

    ``edge`` is a global edge index (row of ``m.edges``).  Interior edges
    are rejected: nu and tau are only defined on the boundary.
    """
    edge = int(edge)
    if edge < 0 or edge >= len(m.edges):
        raise MeshError(f"edge index {edge} out of range", code="MESH_INDEX")
    row = np.flatnonzero(m.boundary_edge_ids == edge)
    if len(row) == 0:
        raise MeshError(f"edge {edge} is an interior edge; nu/tau undefined",
                        code="MESH_INDEX")
    frames = m.boundary_edge_frames[row[0]]
    return frames[0].copy(), frames[1].copy()


# -- generators -------------------------------------------------------


def _loop_rows(ring, loop_id):
    """Boundary rows (ring[k], ring[k + 1], loop_id, TAG_NONE), closing the ring."""
    return np.column_stack([ring, np.roll(ring, -1), np.full(len(ring), loop_id),
                            np.full(len(ring), TAG_NONE)])


def _ring_triangles(rings):
    """Two triangles per quad between consecutive rows of ``rings`` (K, ns),
    each row a closed ring of vertex indices; ordered by ring, then sector."""
    nxt = np.roll(rings, -1, axis=1)
    a, b, c, d = rings[:-1], rings[1:], nxt[1:], nxt[:-1]
    return np.stack([a, b, c, a, c, d], axis=2).reshape(-1, 3)


def _ring_points(radii, n_sectors):
    """Points of n_sectors equal angles on circles of the given radii, (K*ns, 2)."""
    theta = 2.0 * np.pi * np.arange(n_sectors) / n_sectors
    radii = np.asarray(radii)[:, None]
    return np.column_stack([(radii * np.cos(theta)).ravel(),
                            (radii * np.sin(theta)).ravel()])


def generate_rectangle(nx, ny, w, h):
    """Crossed-diagonal triangulation of the rectangle [0, w] x [0, h].

    Each of the nx*ny cells is split into 4 triangles by its center
    point, so P1 gradients reproduce every globally linear function.
    """
    nx, ny = int(nx), int(ny)
    if nx < 1 or ny < 1:
        raise MeshError("nx and ny must be >= 1")
    if not (w > 0 and h > 0):
        raise MeshError("rectangle dimensions must be positive")
    xs = np.linspace(0.0, w, nx + 1)
    ys = np.linspace(0.0, h, ny + 1)
    gx, gy = np.meshgrid(xs, ys, indexing="xy")
    cx, cy = np.meshgrid(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:]),
                         indexing="xy")
    vertices = np.column_stack([np.concatenate([gx.ravel(), cx.ravel()]),
                                np.concatenate([gy.ravel(), cy.ravel()])])

    g = np.arange((nx + 1) * (ny + 1)).reshape(ny + 1, nx + 1)  # g[j, i]: grid point
    bl, br = g[:-1, :-1].ravel(), g[:-1, 1:].ravel()
    tl, tr = g[1:, :-1].ravel(), g[1:, 1:].ravel()
    c = g.size + np.arange(nx * ny)
    tris = np.stack([bl, br, c, br, tr, c, tr, tl, c, tl, bl, c], axis=1).reshape(-1, 3)
    # counter-clockwise from (0, 0): bottom, right, top, left side
    ring = np.concatenate([g[0, :-1], g[:-1, -1], g[-1, :0:-1], g[:0:-1, 0]])
    return Mesh(vertices, tris, _loop_rows(ring, 0))


def generate_disk(n_rings, n_sectors, r):
    """Polygonal approximation of the disk of radius r centered at 0.

    Fan of n_sectors triangles around the center plus quad rings split
    into triangle pairs; the covered region is the inscribed regular
    n_sectors-gon.
    """
    n_rings, n_sectors = int(n_rings), int(n_sectors)
    if n_rings < 1 or n_sectors < 3:
        raise MeshError("need n_rings >= 1 and n_sectors >= 3")
    if not r > 0:
        raise MeshError("radius must be positive")
    vertices = np.vstack([np.zeros((1, 2)),
                          _ring_points(r * np.arange(1, n_rings + 1) / n_rings, n_sectors)])
    rings = 1 + np.arange(n_rings * n_sectors).reshape(n_rings, n_sectors)
    fan = np.column_stack([np.zeros(n_sectors, dtype=np.int64), rings[0],
                           np.roll(rings[0], -1)])
    return Mesh(vertices, np.vstack([fan, _ring_triangles(rings)]),
                _loop_rows(rings[-1], 0))


def generate_annulus(r_in, r_out, n_rings, n_sectors):
    """Polygonal annulus: loop 0 at radius r_out, hole loop 1 at r_in."""
    n_rings, n_sectors = int(n_rings), int(n_sectors)
    if not (0 < r_in < r_out):
        raise MeshError("need 0 < r_in < r_out")
    if n_rings < 1 or n_sectors < 3:
        raise MeshError("need n_rings >= 1 and n_sectors >= 3")
    vertices = _ring_points(np.linspace(r_in, r_out, n_rings + 1), n_sectors)
    rings = np.arange((n_rings + 1) * n_sectors).reshape(n_rings + 1, n_sectors)
    # hole loop runs clockwise so the annulus stays on the left
    hole = np.roll(rings[0, ::-1], 1)
    return Mesh(vertices, _ring_triangles(rings),
                np.vstack([_loop_rows(rings[-1], 0), _loop_rows(hole, 1)]))


def refine_uniform(m):
    """Split every triangle into 4 by its edge midpoints.

    Boundary loop ids and region tags are inherited by the two child
    edges of each boundary edge; the total area is preserved exactly.
    The midpoint of edge e is vertex nv + e.
    """
    p, t, edges = m.vertices, m.triangles, m.edges
    vertices = np.vstack([p, 0.5 * (p[edges[:, 0]] + p[edges[:, 1]])])
    nv = len(p)
    v0, v1, v2 = t.T
    m01, m12, m20 = (nv + m.triangle_edges).T
    tris = np.stack([v0, m01, m20, v1, m12, m01, v2, m20, m12, m01, m12, m20],
                    axis=1).reshape(-1, 3)
    a, b, lid, tag = m.boundary_edges.T
    c = nv + m.boundary_edge_ids
    be = np.stack([a, c, lid, tag, c, b, lid, tag], axis=1).reshape(-1, 4)
    return Mesh(vertices, tris, be)


# -- text file format -------------------------------------------------

_MESH_SECTIONS = ({"$vertices": ("vertex", (float, float))},
                  {"$triangles": ("triangle", (int, int, int))},
                  {"$boundary_edges": ("boundary edge", (int, int, int, int))})


def _write_text(path, sections, preamble=""):
    """Write ``preamble``, then per ``(name, columns)`` section a ``name count``
    header and one line per row, each number written as its ``repr``."""
    with open(path, "w") as fh:
        fh.write(preamble)
        for name, columns in sections:
            fh.write(f"{name} {len(columns[0])}\n")
            cells = [map(repr, col.tolist()) for col in columns]
            fh.writelines(row + "\n" for row in map(" ".join, zip(*cells)))


def _read_text(path, sections):
    """Read the ``$name count`` sections of a mesh or field file, in order.

    Each entry of ``sections`` maps the names allowed there to ``(what,
    converters)``: a message label and one ``float`` or ``int`` per column.
    Returns ``(name, columns, lines, header_line)`` per section, ``lines``
    holding each row's file line.  Faults are MESH_FORMAT errors at a line.
    """
    with open(path) as fh:
        raw = fh.readlines()
    tokens = [line.partition("#")[0].split() for line in raw]
    numbers = [n for n, parts in enumerate(tokens, start=1) if parts]
    tokens = [parts for parts in tokens if parts]
    fail, last = partial(MeshError, code="MESH_FORMAT"), max(len(raw), 1)
    out, pos = [], 0
    for spec in sections:
        heads = " or ".join(spec)
        if pos >= len(tokens):
            raise fail(f"missing section {heads}", line=last)
        (name, *rest), n0 = tokens[pos], numbers[pos]
        if name not in spec or len(rest) != 1:
            raise fail(f"expected '{heads} <count>'", line=n0)
        try:
            count = int(rest[0])
        except ValueError:
            raise fail(f"bad count in {name} header", line=n0) from None
        if count < 0:
            raise fail(f"negative count in {name} header", line=n0)
        what, converters = spec[name]
        width = len(converters)
        rows = tokens[pos + 1:pos + 1 + count]
        lines = numbers[pos + 1:pos + 1 + count]
        try:
            if len(rows) < count or any(len(parts) != width for parts in rows):
                raise ValueError
            flat = [tok for parts in rows for tok in parts]
            columns = [np.fromiter(map(conv, flat[j::width]), conv, count)
                       for j, conv in enumerate(converters)]
        except (ValueError, OverflowError):
            for n, parts in zip(lines, rows):  # the first row at fault
                if len(parts) != width:
                    raise fail(f"expected {width} values for {what}", line=n) from None
                try:
                    for conv, tok in zip(converters, parts):
                        np.array(conv(tok), conv)  # int64 overflow, as in fromiter
                except (ValueError, OverflowError):
                    raise fail(f"could not parse {what}", line=n) from None
            raise fail(f"unexpected end of file in {what}", line=last) from None
        finite = np.logical_and.reduce([np.isfinite(col) for col in columns])
        if not finite.all():
            raise fail(f"non-finite value in {what}", line=lines[int(np.argmin(finite))])
        out.append((name, columns, lines, n0))
        pos += 1 + count
    if pos != len(tokens):
        raise fail(f"trailing content after {name} section", line=numbers[pos])
    return out


def save_mesh(m, path):
    """Write the whitespace-separated text format (see ``load_mesh``)."""
    _write_text(path, [("$vertices", m.vertices.T), ("$triangles", m.triangles.T),
                       ("$boundary_edges", m.boundary_edges.T)], "# divcurl mesh\n")


def load_mesh(path):
    """Read a mesh from the text format.

    Sections: ``$vertices N`` then N lines ``x y``; ``$triangles M`` then
    M lines ``i j k`` (0-based, counter-clockwise); ``$boundary_edges B``
    then B lines ``a b loop_id tag`` with tag 0=NONE, 1=NU, 2=TAU.
    ``#`` starts a comment.  Errors are reported with the line number.
    """
    sections = _read_text(path, _MESH_SECTIONS)
    try:
        return Mesh(*(np.column_stack(columns) for _, columns, _, _ in sections))
    except MeshError as exc:
        for key, (_, _, lines, _) in zip(("vertex", "triangle", "boundary_row"), sections):
            if key in exc.context:
                exc.line = exc.context["line"] = lines[exc.context[key]]
        raise
