import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import divcurl as dc
from divcurl.errors import MeshError
from divcurl.mesh import _shoelace


def test_smallest_crossed_grid():
    m = dc.generate_rectangle(1, 1, 1.0, 1.0)
    assert len(m.vertices) == 5
    assert len(m.triangles) == 4
    assert len(m.boundary_edges) == 4
    assert len(m.loops) == 1


def test_rectangle_area_partition():
    m = dc.generate_rectangle(2, 2, 1.0, 1.0)
    assert m.areas.sum() == 1.0


def test_rectangle_rejects_bad_arguments():
    with pytest.raises(MeshError):
        dc.generate_rectangle(0, 2, 1.0, 1.0)
    with pytest.raises(MeshError):
        dc.generate_rectangle(2, 2, -1.0, 1.0)
    with pytest.raises(MeshError):
        dc.generate_rectangle(2, 2, 1.0, 0.0)


def test_tangent_is_rotated_normal():
    m = dc.generate_rectangle(8, 8, 1.0, 1.0)
    frames = m.boundary_edge_frames
    nu, tau = frames[:, 0], frames[:, 1]
    assert np.abs(tau - np.column_stack([-nu[:, 1], nu[:, 0]])).max() < 1e-14


def test_disk_fan_counts():
    m = dc.generate_disk(1, 3, 1.0)
    assert len(m.vertices) == 4
    assert len(m.triangles) == 3
    assert len(m.loops) == 1


def test_disk_area_matches_inscribed_polygon():
    m = dc.generate_disk(4, 32, 1.0)
    polygon = 0.5 * 32 * np.sin(2 * np.pi / 32)
    assert abs(m.area - polygon) < 1e-12
    assert abs(m.area - np.pi) / np.pi < 0.01


def test_disk_single_loop():
    for rings, sectors in ((1, 3), (2, 7), (5, 16)):
        assert len(dc.generate_disk(rings, sectors, 2.0).loops) == 1


def test_disk_rejects_degenerate_counts():
    with pytest.raises(MeshError):
        dc.generate_disk(0, 8, 1.0)
    with pytest.raises(MeshError):
        dc.generate_disk(2, 2, 1.0)


def test_annulus_has_one_hole():
    m = dc.generate_annulus(0.5, 1.0, 2, 16)
    assert m.num_holes == 1


def test_annulus_area():
    m = dc.generate_annulus(0.5, 1.0, 4, 64)
    exact = np.pi * (1.0 - 0.25)
    assert abs(m.area - exact) / exact < 0.01


def test_annulus_inner_normals_point_inward():
    m = dc.generate_annulus(0.5, 1.0, 2, 16)
    inner_rows = m.loops[1]
    mids = 0.5 * (m.vertices[m.boundary_edges[inner_rows, 0]]
                  + m.vertices[m.boundary_edges[inner_rows, 1]])
    nu = m.boundary_edge_frames[inner_rows, 0]
    radial = np.einsum("ed,ed->e", nu, mids)
    assert np.all(radial < 0.0)


def test_annulus_rejects_inverted_radii():
    with pytest.raises(MeshError):
        dc.generate_annulus(1.0, 0.5, 2, 16)


def test_refine_four_split():
    m = dc.generate_rectangle(1, 1, 1.0, 1.0)
    r = dc.refine_uniform(m)
    assert len(r.triangles) == 16


def test_refine_vertex_bookkeeping():
    m = dc.generate_rectangle(3, 2, 1.5, 1.0)
    r = dc.refine_uniform(m)
    assert len(r.vertices) == len(m.vertices) + len(m.edges)


def test_refine_preserves_area_exactly():
    m = dc.generate_disk(3, 12, 1.0)
    r = dc.refine_uniform(m)
    assert abs(r.area - m.area) <= 1e-14 * m.area


def test_refine_preserves_loops_and_tags():
    m = dc.generate_annulus(0.5, 1.0, 2, 12)
    tagged = m.boundary_edges.copy()
    tagged[:, 3] = np.where(tagged[:, 2] == 0, dc.TAG_NU, dc.TAG_TAU)
    m = dc.Mesh(m.vertices, m.triangles, tagged)
    r = dc.refine_uniform(m)
    assert len(r.loops) == len(m.loops)
    assert np.all(r.boundary_edges[r.boundary_edges[:, 2] == 0, 3] == dc.TAG_NU)
    assert np.all(r.boundary_edges[r.boundary_edges[:, 2] == 1, 3] == dc.TAG_TAU)
    assert r.h_max <= 0.5 * m.h_max + 1e-14


def test_edge_frame_square_sides():
    m = dc.generate_rectangle(4, 4, 1.0, 1.0)
    rows = m.boundary_edges
    mids = 0.5 * (m.vertices[rows[:, 0]] + m.vertices[rows[:, 1]])
    bottom = np.flatnonzero(np.isclose(mids[:, 1], 0.0))[0]
    right = np.flatnonzero(np.isclose(mids[:, 0], 1.0))[0]
    nu, tau = dc.edge_frame(m, m.boundary_edge_ids[bottom])
    assert np.allclose(nu, (0, -1)) and np.allclose(tau, (1, 0))
    nu, tau = dc.edge_frame(m, m.boundary_edge_ids[right])
    assert np.allclose(nu, (1, 0)) and np.allclose(tau, (0, 1))


def test_edge_frame_orthonormal():
    m = dc.generate_disk(2, 9, 1.0)
    for gid in m.boundary_edge_ids:
        nu, tau = dc.edge_frame(m, gid)
        assert abs(nu @ tau) < 1e-14
        assert abs(np.hypot(*nu) - 1.0) < 1e-14
        assert abs(np.hypot(*tau) - 1.0) < 1e-14


def test_edge_frame_rejects_interior_edge():
    m = dc.generate_rectangle(2, 2, 1.0, 1.0)
    interior = set(range(len(m.edges))) - set(m.boundary_edge_ids.tolist())
    with pytest.raises(MeshError):
        dc.edge_frame(m, min(interior))


def test_save_load_round_trip(tmp_path, annulus):
    path = tmp_path / "mesh.txt"
    dc.save_mesh(annulus, path)
    m = dc.load_mesh(path)
    assert np.array_equal(m.vertices, annulus.vertices)
    assert np.array_equal(m.triangles, annulus.triangles)
    assert np.array_equal(m.boundary_edges, annulus.boundary_edges)
    assert len(m.loops) == len(annulus.loops)


def test_load_rejects_negative_area_with_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "$vertices 3\n0 0\n1 0\n0 1\n"
        "$triangles 1\n0 2 1\n"
        "$boundary_edges 3\n0 1 0 0\n1 2 0 0\n2 0 0 0\n")
    with pytest.raises(MeshError) as err:
        dc.load_mesh(path)
    assert err.value.code == "MESH_ORIENTATION"
    assert err.value.line == 6


def test_load_rejects_shared_boundary_edge_with_line(tmp_path):
    path = tmp_path / "bad.txt"
    # the (0, 2) diagonal is interior but declared as a boundary edge
    path.write_text(
        "$vertices 4\n0 0\n1 0\n1 1\n0 1\n"
        "$triangles 2\n0 1 2\n0 2 3\n"
        "$boundary_edges 4\n0 1 0 0\n1 2 0 0\n2 0 0 0\n"
        "0 3 0 0\n")
    with pytest.raises(MeshError) as err:
        dc.load_mesh(path)
    assert err.value.code == "MESH_TOPOLOGY"
    assert err.value.line == 12  # the (2, 0) diagonal is shared by both triangles


def test_load_rejects_malformed_header(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("$vertices\n0 0\n")
    with pytest.raises(MeshError) as err:
        dc.load_mesh(path)
    assert err.value.code == "MESH_FORMAT"
    assert err.value.line == 1


def test_load_rejects_index_out_of_range(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text(
        "$vertices 3\n0 0\n1 0\n0 1\n"
        "$triangles 1\n0 1 7\n"
        "$boundary_edges 3\n0 1 0 0\n1 2 0 0\n2 0 0 0\n")
    with pytest.raises(MeshError) as err:
        dc.load_mesh(path)
    assert err.value.code == "MESH_INDEX"
    assert err.value.line == 6


def test_signed_area_matches_loop_polygons(square, disk, annulus):
    for m in (square, disk, annulus):
        total = 0.0
        for rows in m.loops:
            poly = m.vertices[m.boundary_edges[rows, 0]]
            total += _shoelace(poly)  # holes traverse clockwise: negative
        assert abs(m.areas.sum() - total) <= 1e-12 * abs(total)


def test_generator_invariants_hold(square, disk, annulus):
    # Mesh.__post_init__ re-validates everything; rebuilding must succeed.
    for m in (square, disk, annulus):
        dc.Mesh(m.vertices, m.triangles, m.boundary_edges)
        assert np.all(m.areas > 0.0)


def test_partition_from_tags_and_validation(square):
    nb = len(square.boundary_edges)
    tagged = square.boundary_edges.copy()
    tagged[:, 3] = dc.TAG_TAU
    tagged[:6, 3] = dc.TAG_NU
    m = dc.Mesh(square.vertices, square.triangles, tagged)
    part = dc.BoundaryPartition.from_tags(m)
    assert len(part.gamma_nu) == 6
    assert len(part.gamma_tau) == nb - 6
    with pytest.raises(dc.EmptyPartitionPieceError):
        dc.BoundaryPartition(square, frozenset(), frozenset(range(nb)))
    with pytest.raises(MeshError):
        dc.BoundaryPartition(square, frozenset({0, 1}), frozenset(range(nb)))


def test_unreferenced_vertex_rejected():
    m = dc.generate_rectangle(2, 2, 1.0, 1.0)
    vertices = np.vstack([m.vertices, [[5.0, 5.0]]])
    with pytest.raises(MeshError) as err:
        dc.Mesh(vertices, m.triangles, m.boundary_edges)
    assert err.value.code == "MESH_TOPOLOGY"
    assert err.value.context["vertex"] == len(m.vertices)


def test_mesh_keeps_a_copy_of_a_view_it_is_built_from():
    m = dc.generate_rectangle(2, 2, 1.0, 1.0)
    buf = np.zeros((2, *m.vertices.shape))
    buf[0] = m.vertices
    built = dc.Mesh(buf[0], m.triangles, m.boundary_edges)
    buf[0, 0] = (5.0, 5.0)
    assert buf.flags.writeable
    assert np.array_equal(built.vertices, m.vertices)
    assert built.area == 1.0


@pytest.mark.parametrize("x, y, code, context", [
    (1e308, 1e308, "MESH_INVALID", {}),               # squared extent overflows
    (1e-160, 1e-160, "MESH_INVALID", {}),             # squared extent is subnormal
    (1.0, 1e-310, "MESH_INVALID", {"triangle": 0}),   # area is subnormal
    (1.0, 0.0, "MESH_ORIENTATION", {"triangle": 0}),  # area is zero
])
def test_extreme_scale_rejected_when_built(x, y, code, context):
    vertices = np.array([[0.0, 0.0], [x, 0.0], [0.0, y]])
    with pytest.raises(MeshError) as err:
        dc.Mesh(vertices, [[0, 1, 2]], [[0, 1, 0, 0], [1, 2, 0, 0], [2, 0, 0, 0]])
    assert (err.value.code, err.value.context) == (code, context)
    assert ("mesh scale out of range" in str(err.value)) == (code == "MESH_INVALID")


def _mesh_text(vertices, triangles, boundary):
    rows = [f"$vertices {len(vertices)}", *(f"{x} {y}" for x, y in vertices),
            f"$triangles {len(triangles)}", *(" ".join(map(str, t)) for t in triangles),
            f"$boundary_edges {len(boundary)}", *(" ".join(map(str, b)) for b in boundary)]
    return "\n".join(rows) + "\n"


# Unit square split along the (0, 2) diagonal.  Lines 7-8 hold the
# triangles and lines 10-13 the boundary rows.
SQUARE_V = [(0, 0), (1, 0), (1, 1), (0, 1)]
SQUARE_T = [(0, 1, 2), (0, 2, 3)]
SQUARE_B = [(0, 1, 0, 0), (1, 2, 0, 0), (2, 3, 0, 0), (3, 0, 0, 0)]


def _squares(corners):
    """Unit squares with the given lower-left corners, two triangles each,
    sharing the vertices they have in common."""
    index = {}
    for x0, y0 in corners:
        for q in ((x0, y0), (x0 + 1, y0), (x0 + 1, y0 + 1), (x0, y0 + 1)):
            index.setdefault(q, len(index))
    tris = []
    for x0, y0 in corners:
        a, b, c, d = (index[q] for q in ((x0, y0), (x0 + 1, y0),
                                         (x0 + 1, y0 + 1), (x0, y0 + 1)))
        tris += [(a, b, c), (a, c, d)]
    return np.array(list(index), dtype=float), np.array(tris), index


def _loop(index, points, loop_id):
    ids = [index[q] for q in points]
    return [(a, b, loop_id, 0) for a, b in zip(ids, ids[1:] + ids[:1])]


# Seven unit squares around the hole [1, 2]^2: the 3x3 block without its
# centre and its (0, 0) corner.  The hole loop touches the outer loop at
# (1, 1), so the open region is simply connected and there is no hole.
SEVEN_CORNERS = [(1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
SEVEN_OUTER = [(1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3), (2, 3), (1, 3),
               (0, 3), (0, 2), (0, 1), (1, 1)]
SEVEN_HOLE = [(1, 1), (1, 2), (2, 2), (2, 1)]


# Eight unit squares around the hole [1, 2]^2, with 16 vertices and 16
# triangles: boundary rows start on line 1 + 16 + 1 + 16 + 1 + 1 = 36.
RING_CORNERS = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1), (0, 2), (1, 2), (2, 2)]
RING_OUTER = [(0, 0), (1, 0), (2, 0), (3, 0), (3, 1), (3, 2), (3, 3), (2, 3),
              (1, 3), (0, 3), (0, 2), (0, 1)]
SEVEN_V, SEVEN_T, SEVEN_INDEX = _squares(SEVEN_CORNERS)
RING_V, RING_T, RING_INDEX = _squares(RING_CORNERS)


@pytest.mark.parametrize("vertices, triangles, boundary, code, line", [
    # boundary row (3, 2) opposes triangle (0, 2, 3)
    (SQUARE_V, SQUARE_T, SQUARE_B[:2] + [(3, 2, 0, 0), SQUARE_B[3]], "MESH_ORIENTATION", 12),
    # invalid tag 5
    (SQUARE_V, SQUARE_T, [SQUARE_B[0], (1, 2, 0, 5), *SQUARE_B[2:]], "MESH_FORMAT", 11),
    # duplicate boundary row
    (SQUARE_V, SQUARE_T, SQUARE_B + [SQUARE_B[1]], "MESH_TOPOLOGY", 14),
    # triangle (2, 0, 4), on line 10 after five vertices, is a third user of
    # the (0, 2) diagonal
    (SQUARE_V + [(0.6, 0.3)], SQUARE_T + [(2, 0, 4)], SQUARE_B, "MESH_TOPOLOGY", 10),
    # boundary-edge vertex index out of range
    (SQUARE_V, SQUARE_T, SQUARE_B[:3] + [(3, 9, 0, 0)], "MESH_INDEX", 13),
    # loop ids 0 and 2: row 2 is the first without loop 1 before it
    (SQUARE_V, SQUARE_T, SQUARE_B[:2] + [(2, 3, 2, 0), (3, 0, 2, 0)], "MESH_TOPOLOGY", 12),
    # figure-eight loop 0 through (1, 1) twice: its first row, after 15
    # vertices and 14 triangles
    (SEVEN_V, SEVEN_T, _loop(SEVEN_INDEX, SEVEN_OUTER + SEVEN_HOLE[1:] + [(1, 1)], 0),
     "MESH_TOPOLOGY", 1 + 15 + 1 + 14 + 1 + 1),
    # outer loop numbered 1 and hole numbered 0: loop 0 is clockwise, and
    # its first row is row 12
    (RING_V, RING_T, _loop(RING_INDEX, RING_OUTER, 1) + _loop(RING_INDEX, SEVEN_HOLE, 0),
     "MESH_ORIENTATION", 36 + 12),
])
def test_load_reports_line_of_mesh_fault(tmp_path, vertices, triangles, boundary,
                                         code, line):
    path = tmp_path / "bad.txt"
    path.write_text(_mesh_text(vertices, triangles, boundary))
    with pytest.raises(MeshError) as err:
        dc.load_mesh(path)
    assert (err.value.code, err.value.line) == (code, line)


def test_pinched_ring_rejected():
    # four unit squares around the hole [1, 2]^2, meeting only at its corners
    vertices, tris, index = _squares([(1, 0), (2, 1), (1, 2), (0, 1)])
    outer = [(1, 0), (2, 0), (2, 1), (3, 1), (3, 2), (2, 2), (2, 3), (1, 3),
             (1, 2), (0, 2), (0, 1), (1, 1)]
    hole = [(1, 1), (1, 2), (2, 2), (2, 1)]
    with pytest.raises(MeshError) as err:
        dc.Mesh(vertices, tris, _loop(index, outer, 0) + _loop(index, hole, 1))
    assert err.value.code == "MESH_TOPOLOGY"
    assert err.value.context["triangle"] == 2


def test_touching_loops_rejected(tmp_path):
    vertices, tris, index = _squares(SEVEN_CORNERS)
    rows = _loop(index, SEVEN_OUTER, 0) + _loop(index, SEVEN_HOLE, 1)
    with pytest.raises(MeshError) as err:
        dc.Mesh(vertices, tris, rows)
    # (1, 1) starts outer row 11 and hole row 12
    assert err.value.code == "MESH_TOPOLOGY"
    assert err.value.context["boundary_row"] == 12
    path = tmp_path / "seven.txt"
    path.write_text(_mesh_text(vertices, tris, rows))
    with pytest.raises(MeshError) as err:
        dc.load_mesh(path)
    # header, 15 vertices, header, 14 triangles, header, then rows 0..12
    assert (err.value.code, err.value.line) == ("MESH_TOPOLOGY", 1 + 15 + 1 + 14 + 1 + 13)


def test_loop_through_a_vertex_twice_rejected():
    vertices, tris, index = _squares(SEVEN_CORNERS)
    rows = _loop(index, SEVEN_OUTER + SEVEN_HOLE[1:] + [(1, 1)], 0)
    with pytest.raises(MeshError, match="loop 0 is not a simple closed cycle") as err:
        dc.Mesh(vertices, tris, rows)
    assert err.value.code == "MESH_TOPOLOGY"


@pytest.mark.parametrize("old, new, line", [
    ("0 0\n", "0.5 -inf\n", 2),                 # non-finite coordinates
    ("1 0\n", "nan 0\n", 3),
    ("1 1\n", "1 1e999\n", 4),
    ("0 1 2", "0 1 99999999999999999999", 7),   # does not fit int64
    ("0 1 2", "0 1 2 3", 7),                     # extra token
    ("$triangles 2", "$triangles 3", 9),         # next header read as a row
    ("$vertices 4", "$vertices -4", 1),
])
def test_load_reports_line_of_format_fault(tmp_path, old, new, line):
    path = tmp_path / "bad.txt"
    path.write_text(_mesh_text(SQUARE_V, SQUARE_T, SQUARE_B).replace(old, new, 1))
    with pytest.raises(MeshError) as err:
        dc.load_mesh(path)
    assert (err.value.code, err.value.line) == ("MESH_FORMAT", line)


def test_disjoint_squares_still_rejected():
    vertices, tris, index = _squares([(0, 0), (3, 0)])
    rows = (_loop(index, [(0, 0), (1, 0), (1, 1), (0, 1)], 0)
            + _loop(index, [(3, 0), (4, 0), (4, 1), (3, 1)], 1))
    with pytest.raises(MeshError, match="hole loop 1 must be clockwise") as err:
        dc.Mesh(vertices, tris, rows)
    assert err.value.code == "MESH_ORIENTATION"


# sha256 of save_mesh output, recorded before the generators were
# vectorized: pins vertex, triangle and boundary-row order.
PINNED_SHA256 = {
    "rectangle": ("cae7698030311820ea659f95e1485cadd76dd229963a8425548433a000f8800b",
                  "6d668abd74ab85d241784663eb66621f361fd3932ea820f0c3a79590272b629c"),
    "disk": ("084b51e2e649fc27d462916afa6a044bb276c8793c38b741fd09431cc9e843ee",
             "439f0331f9bcc77f390bb387d1c3033ca755a8a99e91a1c63df7585f06f884d3"),
    "annulus": ("2d9039b3461170fee4dda35aacd91675781f29707fb8585e4125ab31ca3346e6",
                "301799f30d899018e86ce8f66ed073740156214e134344e24c17a5a7a0fb94c2"),
}


@pytest.mark.parametrize("kind, build", [
    ("rectangle", lambda: dc.generate_rectangle(5, 3, 1.5, 1.0)),
    ("disk", lambda: dc.generate_disk(3, 12, 1.0)),
    ("annulus", lambda: dc.generate_annulus(0.5, 1.0, 2, 12)),
])
def test_generator_and_refinement_output_pinned(tmp_path, kind, build):
    def sha(m):
        dc.save_mesh(m, tmp_path / "m.txt")
        return hashlib.sha256((tmp_path / "m.txt").read_bytes()).hexdigest()

    m = build()
    assert (sha(m), sha(dc.refine_uniform(m))) == PINNED_SHA256[kind]


small_meshes = st.one_of(
    st.builds(dc.generate_rectangle, st.integers(1, 4), st.integers(1, 4),
              st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    st.builds(dc.generate_disk, st.integers(1, 3), st.integers(3, 9), st.floats(0.5, 2.0)),
    st.builds(lambda r_in, rings, sectors: dc.generate_annulus(r_in, 1.0, rings, sectors),
              st.floats(0.2, 0.8), st.integers(1, 3), st.integers(3, 9)),
)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(small_meshes, st.booleans())
def test_edge_table_properties(m, refine):
    if refine:
        m = dc.refine_uniform(m)
    t, nv = m.triangles, len(m.vertices)
    sides = np.sort(np.stack([t, np.roll(t, -1, axis=1)], axis=2), axis=2)
    assert np.array_equal(m.edges[m.triangle_edges], sides)
    assert np.array_equal(np.flatnonzero(m.edge_counts == 1), np.sort(m.boundary_edge_ids))
    assert np.all(m.edge_counts <= 2)

    a, b = m.edges.T
    ids = np.arange(len(m.edges))
    assert np.array_equal(m.edge_id(a, b), ids) and np.array_equal(m.edge_id(b, a), ids)
    assert m.edge_id(int(b[-1]), int(a[-1])) == len(m.edges) - 1
    adjacent = np.eye(nv, dtype=bool)
    adjacent[a, b] = adjacent[b, a] = True
    non_edges = [tuple(np.argwhere(~adjacent)[0])] if not adjacent.all() else []
    for pair in non_edges + [(0, 0), (0, nv)]:
        with pytest.raises(MeshError) as err:
            m.edge_id(*pair)
        assert err.value.code == "MESH_INDEX"

    assert nv - len(m.edges) + len(t) == 1 - m.num_holes
    r = dc.refine_uniform(m)
    assert np.array_equal(r.vertices[nv + ids], 0.5 * (m.vertices[a] + m.vertices[b]))


def _with_comments(text, data):
    """``text`` with comment and blank lines inserted at random places and
    comments or blanks appended to random lines."""
    lines = text.splitlines()
    for _ in range(data.draw(st.integers(0, 6))):
        lines.insert(data.draw(st.integers(0, len(lines))),
                     data.draw(st.sampled_from(["", "  \t", "# note", "#$vertices 3 1 2"])))
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines) - 1))
        lines[at] += data.draw(st.sampled_from([" # tail", "#", "\t "]))
    return "\n".join(lines) + "\n"


def _field_of(m, kind, values):
    if kind == "scalar":
        return dc.ScalarField(m, values[:len(m.vertices)])
    if kind == "vector":
        return dc.VectorField(m, values[:2 * len(m.triangles)].reshape(-1, 2))
    return dc.BoundaryFunction(m, values[:len(m.boundary_vertices)])


def _arrays(obj):
    if isinstance(obj, dc.Mesh):
        return obj.vertices, obj.triangles, obj.boundary_edges
    return (obj.coeffs if isinstance(obj, dc.ScalarField) else obj.values,)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(small_meshes, st.sampled_from(["scalar", "vector", "boundary"]), st.data())
def test_text_files_round_trip(tmp_path_factory, m, kind, data):
    n = max(len(m.vertices), 2 * len(m.triangles))
    values = np.array(data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                                         min_size=n, max_size=n)))
    field = _field_of(m, kind, values)
    tmp = tmp_path_factory.mktemp("round_trip")
    for obj, save, load in ((m, dc.save_mesh, dc.load_mesh),
                            (field, dc.save_field, lambda path: dc.load_field(path, m))):
        save(obj, tmp / "saved.txt")
        saved = (tmp / "saved.txt").read_bytes()
        (tmp / "edited.txt").write_text(_with_comments(saved.decode(), data))
        loaded = load(tmp / "edited.txt")
        assert type(loaded) is type(obj)
        assert all(np.array_equal(a, b) for a, b in zip(_arrays(loaded), _arrays(obj)))
        save(loaded, tmp / "again.txt")
        assert (tmp / "again.txt").read_bytes() == saved
