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
from functools import cached_property

import numpy as np

from .errors import EmptyPartitionPieceError, MeshError

TAG_NONE = 0
TAG_NU = 1
TAG_TAU = 2
_VALID_TAGS = (TAG_NONE, TAG_NU, TAG_TAU)


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


@dataclass(frozen=True, eq=False, repr=False)
class Mesh:
    """Immutable triangle mesh with oriented boundary loops.

    vertices : (nv, 2) float array of point coordinates.
    triangles : (nt, 3) int array of vertex indices, counter-clockwise.
    boundary_edges : (nb, 4) int array of rows (a, b, loop_id, tag) with
        tag in {TAG_NONE, TAG_NU, TAG_TAU}.  Edge direction follows the
        orientation convention in the module docstring.

    ``loops[j]`` lists the rows of ``boundary_edges`` on loop j in
    traversal order.  All invariants are checked at construction.
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
        if triangles.size and (triangles.min() < 0 or triangles.max() >= nv):
            raise MeshError("triangle vertex index out of range", code="MESH_INDEX")
        if len(triangles) == 0:
            raise MeshError("mesh has no triangles")
        for arr in (vertices, triangles, bedges):
            arr.setflags(write=False)
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "triangles", triangles)
        object.__setattr__(self, "boundary_edges", bedges)
        object.__setattr__(self, "loops", self._validate())

    def __repr__(self):
        return (f"Mesh(nv={len(self.vertices)}, nt={len(self.triangles)}, "
                f"nb={len(self.boundary_edges)}, loops={len(self.loops)})")

    # -- validation ---------------------------------------------------

    def _validate(self):
        p = self.vertices
        t = self.triangles
        be = self.boundary_edges

        unused = np.flatnonzero(np.bincount(t.ravel(), minlength=len(p)) == 0)
        if len(unused):
            raise MeshError(f"vertex {int(unused[0])} is used by no triangle",
                            code="MESH_TOPOLOGY", vertex=int(unused[0]))

        e1 = p[t[:, 1]] - p[t[:, 0]]
        e2 = p[t[:, 2]] - p[t[:, 0]]
        signed = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        if np.any(signed <= 0.0):
            bad = int(np.argmin(signed))
            raise MeshError(
                f"triangle {bad} has non-positive signed area {signed[bad]:g}",
                code="MESH_ORIENTATION", triangle=bad)

        # Each undirected edge is shared by exactly 2 triangles or lies on
        # the boundary (1 triangle); boundary edges must match those and be
        # directed like the CCW traversal of their owning triangle.
        directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        und = np.sort(directed, axis=1)
        uniq, counts = np.unique(und, axis=0, return_counts=True)
        if np.any(counts > 2):
            i = int(np.argmax(counts))
            raise MeshError(
                f"edge ({uniq[i, 0]}, {uniq[i, 1]}) is shared by {counts[i]} triangles",
                code="MESH_TOPOLOGY")
        lone = {tuple(e) for e in uniq[counts == 1]}
        if be.size and (be[:, :2].min() < 0 or be[:, :2].max() >= len(p)):
            raise MeshError("boundary edge vertex index out of range", code="MESH_INDEX")
        be_und = {tuple(sorted((int(a), int(b)))) for a, b in be[:, :2]}
        if be_und != lone:
            raise MeshError(
                "boundary_edges do not match the edges used by exactly one triangle",
                code="MESH_TOPOLOGY")
        if len(be_und) != len(be):
            raise MeshError("duplicate boundary edge", code="MESH_TOPOLOGY")
        directed_set = {(int(a), int(b)) for a, b in directed}
        for row, (a, b, _, tag) in enumerate(be):
            if (int(a), int(b)) not in directed_set:
                raise MeshError(
                    f"boundary edge row {row} ({a}->{b}) opposes its triangle's "
                    f"orientation; interior must lie to the left",
                    code="MESH_ORIENTATION")
            if int(tag) not in _VALID_TAGS:
                raise MeshError(f"boundary edge row {row} has invalid tag {tag}",
                                code="MESH_FORMAT")

        # Chain each loop into one simple closed cycle.
        loop_ids = np.unique(be[:, 2]) if len(be) else np.array([], dtype=np.int64)
        if len(be) and (loop_ids.min() != 0 or not np.array_equal(
                loop_ids, np.arange(len(loop_ids)))):
            raise MeshError("loop ids must be 0..J without gaps", code="MESH_TOPOLOGY")
        loops = []
        for lid in loop_ids:
            rows = np.flatnonzero(be[:, 2] == lid)
            nxt = {}
            for r in rows:
                a = int(be[r, 0])
                if a in nxt:
                    raise MeshError(
                        f"loop {lid} is not a simple cycle (vertex {a} repeats)",
                        code="MESH_TOPOLOGY")
                nxt[a] = r
            start = int(be[rows[0], 0])
            order = []
            a = start
            for _ in range(len(rows)):
                if a not in nxt:
                    raise MeshError(f"loop {lid} is not closed", code="MESH_TOPOLOGY")
                r = nxt.pop(a)
                order.append(r)
                a = int(be[r, 1])
            if a != start or nxt:
                raise MeshError(f"loop {lid} is not a single closed cycle",
                                code="MESH_TOPOLOGY")
            loops.append(np.asarray(order, dtype=np.int64))

        # Loop 0 is the outer loop (counter-clockwise); holes are clockwise
        # and lie inside it.
        if loops:
            polys = [p[be[rows, 0]] for rows in loops]
            if _shoelace(polys[0]) <= 0.0:
                raise MeshError("loop 0 must be counter-clockwise (outer loop)",
                                code="MESH_ORIENTATION")
            for j in range(1, len(loops)):
                if _shoelace(polys[j]) >= 0.0:
                    raise MeshError(
                        f"hole loop {j} must be clockwise", code="MESH_ORIENTATION")
                if not _point_in_polygon(polys[j][0], polys[0]):
                    raise MeshError(
                        f"hole loop {j} is not enclosed by loop 0", code="MESH_TOPOLOGY")

        for arr in loops:
            arr.setflags(write=False)
        return tuple(loops)

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

    @cached_property
    def edges(self):
        """All unique undirected edges as sorted pairs, (ne, 2), lexicographic."""
        t = self.triangles
        directed = np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]])
        return np.unique(np.sort(directed, axis=1), axis=0)

    @cached_property
    def _edge_lookup(self):
        return {(int(a), int(b)): i for i, (a, b) in enumerate(self.edges)}

    def edge_id(self, a, b):
        """Global edge index of the undirected edge (a, b)."""
        key = (min(int(a), int(b)), max(int(a), int(b)))
        try:
            return self._edge_lookup[key]
        except KeyError:
            raise MeshError(f"({a}, {b}) is not a mesh edge", code="MESH_INDEX")

    @cached_property
    def boundary_edge_ids(self):
        """Global edge index of each boundary_edges row, (nb,)."""
        return np.asarray([self.edge_id(a, b) for a, b in self.boundary_edges[:, :2]],
                          dtype=np.int64)

    @cached_property
    def _boundary_row_of_edge(self):
        return {int(e): r for r, e in enumerate(self.boundary_edge_ids)}

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
    def boundary_vertex_position(self):
        """Map vertex index -> position in ``boundary_vertices`` (-1 if interior)."""
        pos = np.full(len(self.vertices), -1, dtype=np.int64)
        pos[self.boundary_vertices] = np.arange(len(self.boundary_vertices))
        return pos

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
    row = m._boundary_row_of_edge.get(edge)
    if row is None:
        raise MeshError(f"edge {edge} is an interior edge; nu/tau undefined",
                        code="MESH_INDEX")
    frames = m.boundary_edge_frames[row]
    return frames[0].copy(), frames[1].copy()


# -- generators -------------------------------------------------------


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
    grid = np.column_stack([gx.ravel(), gy.ravel()])

    def g(i, j):
        return j * (nx + 1) + i

    cx, cy = np.meshgrid(0.5 * (xs[:-1] + xs[1:]), 0.5 * (ys[:-1] + ys[1:]),
                         indexing="xy")
    centers = np.column_stack([cx.ravel(), cy.ravel()])
    vertices = np.vstack([grid, centers])
    base = len(grid)

    tris = []
    for j in range(ny):
        for i in range(nx):
            c = base + j * nx + i
            bl, br = g(i, j), g(i + 1, j)
            tl, tr = g(i, j + 1), g(i + 1, j + 1)
            tris += [(bl, br, c), (br, tr, c), (tr, tl, c), (tl, bl, c)]

    bedges = []
    for i in range(nx):
        bedges.append((g(i, 0), g(i + 1, 0)))
    for j in range(ny):
        bedges.append((g(nx, j), g(nx, j + 1)))
    for i in range(nx, 0, -1):
        bedges.append((g(i, ny), g(i - 1, ny)))
    for j in range(ny, 0, -1):
        bedges.append((g(0, j), g(0, j - 1)))
    be = np.asarray([(a, b, 0, TAG_NONE) for a, b in bedges], dtype=np.int64)
    return Mesh(vertices, np.asarray(tris, dtype=np.int64), be)


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
    theta = 2.0 * np.pi * np.arange(n_sectors) / n_sectors
    verts = [np.zeros((1, 2))]
    for k in range(1, n_rings + 1):
        rad = r * k / n_rings
        verts.append(np.column_stack([rad * np.cos(theta), rad * np.sin(theta)]))
    vertices = np.vstack(verts)

    def idx(k, j):
        return 1 + (k - 1) * n_sectors + (j % n_sectors)

    tris = []
    for j in range(n_sectors):
        tris.append((0, idx(1, j), idx(1, j + 1)))
    for k in range(1, n_rings):
        for j in range(n_sectors):
            a, b = idx(k, j), idx(k + 1, j)
            c, d = idx(k + 1, j + 1), idx(k, j + 1)
            tris += [(a, b, c), (a, c, d)]
    be = np.asarray(
        [(idx(n_rings, j), idx(n_rings, j + 1), 0, TAG_NONE) for j in range(n_sectors)],
        dtype=np.int64)
    return Mesh(vertices, np.asarray(tris, dtype=np.int64), be)


def generate_annulus(r_in, r_out, n_rings, n_sectors):
    """Polygonal annulus: loop 0 at radius r_out, hole loop 1 at r_in."""
    n_rings, n_sectors = int(n_rings), int(n_sectors)
    if not (0 < r_in < r_out):
        raise MeshError("need 0 < r_in < r_out")
    if n_rings < 1 or n_sectors < 3:
        raise MeshError("need n_rings >= 1 and n_sectors >= 3")
    theta = 2.0 * np.pi * np.arange(n_sectors) / n_sectors
    radii = np.linspace(r_in, r_out, n_rings + 1)
    vertices = np.vstack([
        np.column_stack([rad * np.cos(theta), rad * np.sin(theta)]) for rad in radii])

    def idx(k, j):
        return k * n_sectors + (j % n_sectors)

    tris = []
    for k in range(n_rings):
        for j in range(n_sectors):
            a, b = idx(k, j), idx(k + 1, j)
            c, d = idx(k + 1, j + 1), idx(k, j + 1)
            tris += [(a, b, c), (a, c, d)]
    be = [(idx(n_rings, j), idx(n_rings, j + 1), 0, TAG_NONE) for j in range(n_sectors)]
    # hole loop runs clockwise so the annulus stays on the left
    be += [(idx(0, j + 1), idx(0, j), 1, TAG_NONE) for j in range(n_sectors - 1, -1, -1)]
    return Mesh(vertices, np.asarray(tris, dtype=np.int64),
                np.asarray(be, dtype=np.int64))


def refine_uniform(m):
    """Split every triangle into 4 by its edge midpoints.

    Boundary loop ids and region tags are inherited by the two child
    edges of each boundary edge; the total area is preserved exactly.
    """
    p, t = m.vertices, m.triangles
    edges = m.edges
    mids = 0.5 * (p[edges[:, 0]] + p[edges[:, 1]])
    vertices = np.vstack([p, mids])
    nv = len(p)

    def mid(a, b):
        return nv + m.edge_id(a, b)

    tris = []
    for v0, v1, v2 in t:
        m01, m12, m20 = mid(v0, v1), mid(v1, v2), mid(v2, v0)
        tris += [(v0, m01, m20), (v1, m12, m01), (v2, m20, m12), (m01, m12, m20)]

    be = []
    for a, b, lid, tag in m.boundary_edges:
        c = mid(a, b)
        be += [(a, c, lid, tag), (c, b, lid, tag)]
    return Mesh(vertices, np.asarray(tris, dtype=np.int64),
                np.asarray(be, dtype=np.int64))


# -- text file format -------------------------------------------------


def save_mesh(m, path):
    """Write the whitespace-separated text format (see ``load_mesh``)."""
    with open(path, "w") as fh:
        fh.write("# divcurl mesh\n")
        fh.write(f"$vertices {len(m.vertices)}\n")
        for x, y in m.vertices:
            fh.write(f"{float(x)!r} {float(y)!r}\n")
        fh.write(f"$triangles {len(m.triangles)}\n")
        for i, j, k in m.triangles:
            fh.write(f"{i} {j} {k}\n")
        fh.write(f"$boundary_edges {len(m.boundary_edges)}\n")
        for a, b, lid, tag in m.boundary_edges:
            fh.write(f"{a} {b} {lid} {tag}\n")


def load_mesh(path):
    """Read a mesh from the text format.

    Sections: ``$vertices N`` then N lines ``x y``; ``$triangles M`` then
    M lines ``i j k`` (0-based, counter-clockwise); ``$boundary_edges B``
    then B lines ``a b loop_id tag`` with tag 0=NONE, 1=NU, 2=TAU.
    ``#`` starts a comment.  Errors are reported with the line number.
    """
    with open(path) as fh:
        raw = fh.readlines()

    tokens = []  # (line_number, parts)
    for n, line in enumerate(raw, start=1):
        body = line.split("#", 1)[0].strip()
        if body:
            tokens.append((n, body.split()))

    pos = 0

    def read_header(name):
        nonlocal pos
        if pos >= len(tokens):
            raise MeshError(f"missing section ${name}", code="MESH_FORMAT",
                            line=len(raw))
        n, parts = tokens[pos]
        if parts[0] != f"${name}" or len(parts) != 2:
            raise MeshError(f"expected '${name} <count>'", code="MESH_FORMAT", line=n)
        try:
            count = int(parts[1])
        except ValueError:
            raise MeshError(f"bad count in ${name} header", code="MESH_FORMAT", line=n)
        if count < 0:
            raise MeshError(f"negative count in ${name} header",
                            code="MESH_FORMAT", line=n)
        pos += 1
        return count

    def read_rows(count, width, caster, what):
        nonlocal pos
        rows = np.empty((count, width), dtype=float if caster is float else np.int64)
        lines = np.empty(count, dtype=np.int64)
        for i in range(count):
            if pos >= len(tokens):
                raise MeshError(f"unexpected end of file in {what}",
                                code="MESH_FORMAT", line=len(raw))
            n, parts = tokens[pos]
            if len(parts) != width:
                raise MeshError(f"expected {width} values for {what}",
                                code="MESH_FORMAT", line=n)
            try:
                rows[i] = [caster(v) for v in parts]
            except ValueError:
                raise MeshError(f"could not parse {what}", code="MESH_FORMAT", line=n)
            lines[i] = n
            pos += 1
        return rows, lines

    nv = read_header("vertices")
    vertices, _ = read_rows(nv, 2, float, "vertex")
    nt = read_header("triangles")
    triangles, tri_lines = read_rows(nt, 3, int, "triangle")
    nb = read_header("boundary_edges")
    bedges, be_lines = read_rows(nb, 4, int, "boundary edge")
    if pos != len(tokens):
        n, _ = tokens[pos]
        raise MeshError("trailing content after $boundary_edges section",
                        code="MESH_FORMAT", line=n)

    # Pre-validate with line numbers before handing off to Mesh.
    if nt and (triangles.min() < 0 or triangles.max() >= nv):
        bad = int(np.argmax((triangles < 0).any(axis=1) |
                            (triangles >= nv).any(axis=1)))
        raise MeshError("triangle vertex index out of range",
                        code="MESH_INDEX", line=int(tri_lines[bad]))
    if nb and (bedges[:, :2].min() < 0 or bedges[:, :2].max() >= nv):
        bad = int(np.argmax((bedges[:, :2] < 0).any(axis=1) |
                            (bedges[:, :2] >= nv).any(axis=1)))
        raise MeshError("boundary edge vertex index out of range",
                        code="MESH_INDEX", line=int(be_lines[bad]))
    e1 = vertices[triangles[:, 1]] - vertices[triangles[:, 0]]
    e2 = vertices[triangles[:, 2]] - vertices[triangles[:, 0]]
    signed = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
    if np.any(signed <= 0.0):
        bad = int(np.argmin(signed))
        raise MeshError(
            f"triangle has non-positive signed area {signed[bad]:g}",
            code="MESH_ORIENTATION", line=int(tri_lines[bad]))
    und = np.sort(np.concatenate([triangles[:, [0, 1]], triangles[:, [1, 2]],
                                  triangles[:, [2, 0]]]), axis=1)
    shared = {}
    for a, b in und:
        key = (int(a), int(b))
        shared[key] = shared.get(key, 0) + 1
    for i, (a, b, _, _) in enumerate(bedges):
        key = (min(int(a), int(b)), max(int(a), int(b)))
        if shared.get(key, 0) != 1:
            raise MeshError(
                f"boundary edge ({a}, {b}) is used by {shared.get(key, 0)} triangles",
                code="MESH_TOPOLOGY", line=int(be_lines[i]))
    return Mesh(vertices, triangles, bedges)
