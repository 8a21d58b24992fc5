import numpy as np
import pytest

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
