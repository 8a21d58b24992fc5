import hashlib
import re

import numpy as np
import pytest

import divcurl as dc
from divcurl import fem
from divcurl.errors import MeshError
from conftest import random_vector, random_zero_trace


def single_right_triangle():
    return dc.Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
                   np.array([[0, 1, 2]]),
                   np.array([[0, 1, 0, 0], [1, 2, 0, 0], [2, 0, 0, 0]]))


def test_stiffness_kills_constants(square):
    K = dc.assemble_stiffness(square)
    assert np.abs(K @ np.ones(K.shape[0])).max() < 1e-12


def test_stiffness_right_triangle_diagonal():
    # hand integration of the P1 hat gradients on ((0,0),(1,0),(0,1))
    K = dc.assemble_stiffness(single_right_triangle())
    assert np.allclose(K.diagonal(), [1.0, 0.5, 0.5], atol=1e-15)


def test_stiffness_energy_of_linear_field_refinement_invariant(square):
    f = dc.ScalarField.from_function(square, lambda x, y: 3.0 * x - 2.0 * y + 1.0)
    e0 = f.coeffs @ (dc.assemble_stiffness(square) @ f.coeffs)
    r = dc.refine_uniform(square)
    fr = dc.ScalarField.from_function(r, lambda x, y: 3.0 * x - 2.0 * y + 1.0)
    e1 = fr.coeffs @ (dc.assemble_stiffness(r) @ fr.coeffs)
    assert abs(e1 - e0) <= 1e-12 * abs(e0)


def test_mass_partition_of_unity(square, disk, annulus):
    for m in (square, disk, annulus):
        M = dc.assemble_mass(m)
        ones = np.ones(M.shape[0])
        assert abs(ones @ (M @ ones) - m.area) <= 1e-12 * m.area


def test_boundary_mass_perimeter(square):
    B = dc.assemble_boundary_mass(square)
    ones = np.ones(B.shape[0])
    assert abs(ones @ (B @ ones) - 4.0) < 1e-12


def test_boundary_mass_subset_bottom(square):
    mids = 0.5 * (square.vertices[square.boundary_edges[:, 0]]
                  + square.vertices[square.boundary_edges[:, 1]])
    bottom = np.flatnonzero(np.isclose(mids[:, 1], 0.0))
    B = dc.assemble_boundary_mass(square, bottom)
    ones = np.ones(B.shape[0])
    assert abs(ones @ (B @ ones) - 1.0) < 1e-12


def test_boundary_mass_rejects_bad_subset(square):
    with pytest.raises(MeshError):
        dc.assemble_boundary_mass(square, [len(square.boundary_edges)])


def test_assembled_matrices_bitwise_symmetric(square, annulus):
    for m in (square, annulus):
        for mat in (dc.assemble_stiffness(m), dc.assemble_mass(m),
                    dc.assemble_boundary_mass(m)):
            assert (mat - mat.T).nnz == 0


PRUNING_MESHES = {
    "annulus": lambda: dc.generate_annulus(0.5, 1.0, 4, 24),
    "disk": lambda: dc.generate_disk(4, 24, 1.0),
    "square": lambda: dc.generate_rectangle(6, 6, 1.0, 1.0),
}


def _pattern(mat):
    coo = mat.tocoo()
    return np.sort(coo.row.astype(np.int64) * mat.shape[0] + coo.col)


@pytest.mark.parametrize("name", sorted(PRUNING_MESHES))
def test_stiffness_drops_roundoff_couplings(name):
    m = PRUNING_MESHES[name]()
    K = dc.assemble_stiffness(m)
    coo = K.tocoo()
    root = np.sqrt(K.diagonal())
    off = coo.row != coo.col
    assert np.all(np.abs(coo.data[off]) > 1e-13 * root[coo.row[off]] * root[coo.col[off]])
    # one stored entry per vertex and two per edge, less the dropped ones
    assert K.nnz < len(m.vertices) + 2 * len(m.edges)
    assert (K - K.T).nnz == 0
    assert np.linalg.norm(K @ np.ones(K.shape[0])) <= 1e-13 * K.diagonal().max()
    f = dc.ScalarField(m, np.random.default_rng(8).standard_normal(len(m.vertices)))
    energy = dc.l2_norm(dc.gradient(f)) ** 2
    assert abs(f.coeffs @ (K @ f.coeffs) - energy) <= 1e-13 * energy
    c, s = np.cos(0.7), np.sin(0.7)
    moved = [m.vertices @ np.array([[c, s], [-s, c]]) + np.array([3.0, -2.0]),
             2.0 * m.vertices, 0.25 * m.vertices]
    for vertices in moved:
        other = dc.Mesh(vertices, m.triangles, m.boundary_edges)
        np.testing.assert_array_equal(_pattern(dc.assemble_stiffness(other)), _pattern(K))


def test_gradient_reproduces_linears(square):
    f = dc.ScalarField.from_function(square, lambda x, y: x)
    assert np.abs(dc.gradient(f).values - [1.0, 0.0]).max() < 1e-13
    assert np.abs(dc.perp_gradient(f).values - [0.0, -1.0]).max() < 1e-13
    const = dc.ScalarField.from_function(square, lambda x, y: np.full_like(x, 5.0))
    assert np.abs(dc.gradient(const).values).max() < 1e-13


def test_perp_gradient_pointwise_orthogonal(square):
    rng = np.random.default_rng(0)
    f = dc.ScalarField(square, rng.standard_normal(len(square.vertices)))
    g, gp = dc.gradient(f).values, dc.perp_gradient(f).values
    dots = np.abs(np.einsum("td,td->t", g, gp))
    assert dots.max() <= 1e-14 * max(np.einsum("td,td->t", g, g).max(), 1.0)


def test_l2_norm_unit_field(square):
    v = dc.VectorField.from_function(
        square, lambda x, y: (np.ones_like(x), np.zeros_like(x)))
    assert dc.l2_norm(v) == 1.0


def test_l2_inner_bitwise_symmetric(square):
    rng = np.random.default_rng(1)
    v, w = random_vector(square, rng), random_vector(square, rng)
    assert dc.l2_inner(v, w) == dc.l2_inner(w, v)


def test_l2_inner_rejects_mesh_mismatch(square, disk):
    v = dc.VectorField.zeros(square)
    w = dc.VectorField.zeros(disk)
    with pytest.raises(MeshError):
        dc.l2_inner(v, w)


def test_zero_trace_orthogonality_brute_force():
    # smallest mesh with an interior vertex: 1x1 crossed square
    m = dc.generate_rectangle(1, 1, 1.0, 1.0)
    interior = m.interior_vertices
    assert len(interior) == 1
    psi = dc.ScalarField(m, np.eye(len(m.vertices))[interior[0]])
    phi = psi
    gp, g = dc.perp_gradient(psi).values, dc.gradient(phi).values
    brute = sum(float(a) * (float(v1[0]) * float(v2[0]) + float(v1[1]) * float(v2[1]))
                for a, v1, v2 in zip(m.areas, gp, g))
    assert abs(brute) < 1e-15
    assert abs(dc.l2_inner(dc.perp_gradient(psi), dc.gradient(phi))) < 1e-15


def test_zero_trace_orthogonality_random(square, disk, annulus):
    rng = np.random.default_rng(7)
    for m in (square, disk, annulus):
        for _ in range(5):
            psi = random_zero_trace(m, rng)
            phi = random_zero_trace(m, rng)
            ip = dc.l2_inner(dc.perp_gradient(psi), dc.gradient(phi))
            scale = dc.l2_norm(dc.gradient(psi)) * dc.l2_norm(dc.gradient(phi))
            assert abs(ip) <= 1e-12 * scale


def test_load_grad_zero_field(square):
    assert np.abs(dc.load_grad(dc.VectorField.zeros(square))).max() == 0.0


def test_load_grad_galerkin_consistency(square):
    rng = np.random.default_rng(2)
    f = dc.ScalarField(square, rng.standard_normal(len(square.vertices)))
    d = dc.load_grad(dc.gradient(f))
    K = dc.assemble_stiffness(square)
    scale = np.abs(K @ f.coeffs).max()
    assert np.abs(d - K @ f.coeffs).max() <= 1e-12 * max(scale, 1.0)


def test_load_grad_of_perp_gradient_vanishes_inside(square):
    rng = np.random.default_rng(3)
    f = random_zero_trace(square, rng)
    d = dc.load_grad(dc.perp_gradient(f))
    scale = dc.l2_norm(dc.gradient(f))
    assert np.abs(d[square.interior_vertices]).max() <= 1e-12 * scale


def test_weak_curl_of_perp_gradient_pairs_like_laplacian(square):
    rng = np.random.default_rng(4)
    psi = dc.ScalarField(square, rng.standard_normal(len(square.vertices)))
    r = dc.weak_curl(dc.perp_gradient(psi), tol=1e-13)
    energy = psi.coeffs @ (dc.assemble_stiffness(square) @ psi.coeffs)
    pairing = r.coeffs @ (dc.assemble_mass(square) @ psi.coeffs)
    assert abs(pairing - energy) <= 1e-10 * energy


def test_weak_operators_of_constant_field(square):
    v = dc.VectorField.from_function(
        square, lambda x, y: (np.full_like(x, 2.0), np.full_like(x, -1.0)))
    interior = square.interior_vertices
    M = dc.assemble_mass(square)
    for r in (dc.weak_divergence(v, tol=1e-13), dc.weak_curl(v, tol=1e-13)):
        pairing = np.abs((M @ r.coeffs)[interior])
        assert pairing.max() < 1e-10


def test_weak_divergence_of_linear_gradient(square):
    v = dc.gradient(dc.ScalarField.from_function(square, lambda x, y: 2 * x + y))
    d = dc.load_grad(v)
    assert np.abs(d[square.interior_vertices]).max() < 1e-13


def test_trace_examples(square):
    f = dc.ScalarField.from_function(square, lambda x, y: x)
    tr = dc.trace(f)
    assert np.array_equal(tr.values, square.vertices[square.boundary_vertices, 0])
    assert np.abs(dc.trace(dc.ScalarField.zeros(square)).values).max() == 0.0
    g = dc.ScalarField.from_function(square, lambda x, y: y)
    lhs = dc.trace(f + g).values
    rhs = (dc.trace(f) + dc.trace(g)).values
    assert np.array_equal(lhs, rhs)


def test_conormal_flux_of_zero(square):
    flux = dc.conormal_flux(dc.ScalarField.zeros(square),
                            np.zeros(len(square.vertices)))
    assert np.abs(flux.values).max() == 0.0


def test_conormal_flux_of_linear_interpolant(square_fine):
    m = square_fine
    f = dc.ScalarField.from_function(m, lambda x, y: x)
    flux = dc.conormal_flux(f, np.zeros(len(m.vertices)), tol=1e-13)
    pts = m.vertices[m.boundary_vertices]
    # away from corners the flux equals nu_x of the side: +-1 or 0
    h = 1.0 / 32
    interior_of_side = ((np.abs(pts[:, 0] - 0.5) < 0.5 - 3 * h)
                        ^ (np.abs(pts[:, 1] - 0.5) < 0.5 - 3 * h))
    expected = np.where(np.isclose(pts[:, 0], 1.0), 1.0,
                        np.where(np.isclose(pts[:, 0], 0.0), -1.0, 0.0))
    err = np.abs(flux.values - expected)[interior_of_side]
    assert err.max() < 5 * h


def test_conormal_flux_total_flux_identity(square):
    # with xi = 1: boundary integral of the flux + <rho_dual, 1> = 0
    rng = np.random.default_rng(5)
    rho = dc.ScalarField(square, rng.standard_normal(len(square.vertices)))
    rho_dual = dc.assemble_mass(square) @ rho.coeffs
    K = dc.assemble_stiffness(square)
    from divcurl.linsolve import Constraint, solve_spd
    f = dc.ScalarField(square, solve_spd(
        K, rho_dual, Constraint.dirichlet_zero(square.boundary_vertices),
        tol=1e-13))
    flux = dc.conormal_flux(f, rho_dual, tol=1e-13)
    total = dc.boundary_integral(flux) + float(rho_dual.sum())
    assert abs(total) < 1e-10 * max(np.abs(rho_dual).sum(), 1.0)


def test_conormal_flux_residual_identity_random_tests(square):
    rng = np.random.default_rng(6)
    m = square
    rho = dc.ScalarField(m, rng.standard_normal(len(m.vertices)))
    rho_dual = dc.assemble_mass(m) @ rho.coeffs
    K = dc.assemble_stiffness(m)
    from divcurl.linsolve import Constraint, solve_spd
    f = dc.ScalarField(m, solve_spd(
        K, rho_dual, Constraint.dirichlet_zero(m.boundary_vertices), tol=1e-13))
    flux = dc.conormal_flux(f, rho_dual, tol=1e-13)
    B = dc.assemble_boundary_mass(m)
    lhs_vec = K @ f.coeffs - rho_dual
    rhs_vec = B @ flux.extended()
    scale = max(np.abs(lhs_vec).max(), 1e-30)
    for _ in range(20):
        xi = rng.standard_normal(len(m.vertices))
        assert abs(xi @ lhs_vec - xi @ rhs_vec) <= 1e-10 * scale * np.abs(xi).max() \
            * len(xi) ** 0.5


def test_project_boundary_function_reproduces_traces(square):
    f = dc.ScalarField.from_function(square, lambda x, y: 2 * x - y)
    projected = fem.project_boundary_function(
        square, lambda x, y, nu, tau: 2 * x - y)
    assert np.abs(projected.values - dc.trace(f).values).max() < 1e-10


def test_field_io_round_trip(tmp_path, square):
    rng = np.random.default_rng(8)
    fields = [
        dc.ScalarField(square, rng.standard_normal(len(square.vertices))),
        dc.VectorField(square, rng.standard_normal((len(square.triangles), 2))),
        dc.BoundaryFunction(square,
                            rng.standard_normal(len(square.boundary_vertices))),
    ]
    for i, field in enumerate(fields):
        path = tmp_path / f"field{i}.txt"
        dc.save_field(field, path)
        loaded = dc.load_field(path, square)
        assert type(loaded) is type(field)
        got = loaded.coeffs if hasattr(loaded, "coeffs") else loaded.values
        want = field.coeffs if hasattr(field, "coeffs") else field.values
        assert np.array_equal(got, want)


# sha256 of save_field output, recorded before the field writer was shared
# with save_mesh; the values stress float repr.
PINNED_FIELD_SHA256 = {
    "scalar": "69be499e823f10f4ffa85eb79b0be025804c6d456fda4ce2d53d6ea8e4e8cb73",
    "vector": "0fec8e8bfbd233a5568b5f88ea3e32249803a0db45fc2906db87716ce56c7fdc",
    "boundary": "1e0267036cbc8e675ed26c175dcf7cd42aef1e00dc7d6756dadfda16a7eccbd4",
}


@pytest.mark.parametrize("kind, build", [
    ("scalar", lambda m, v: dc.ScalarField(m, np.resize(v, len(m.vertices)))),
    ("vector", lambda m, v: dc.VectorField(m, np.resize(v, (len(m.triangles), 2)))),
    ("boundary", lambda m, v: dc.BoundaryFunction(m, np.resize(v, len(m.boundary_vertices)))),
])
def test_field_output_pinned(tmp_path, kind, build):
    m = dc.generate_rectangle(3, 2, 1.0, 1.0)
    dc.save_field(build(m, [0.1, -0.0, 1 / 3, 1e-300, 2.0 ** 60, -7.25]), tmp_path / "f.txt")
    assert hashlib.sha256((tmp_path / "f.txt").read_bytes()).hexdigest() \
        == PINNED_FIELD_SHA256[kind]


def test_field_validation():
    m = dc.generate_rectangle(2, 2, 1.0, 1.0)
    with pytest.raises(MeshError):
        dc.ScalarField(m, np.zeros(3))
    bad = np.zeros(len(m.vertices))
    bad[0] = np.nan
    with pytest.raises(MeshError):
        dc.ScalarField(m, bad)
    with pytest.raises(MeshError):
        dc.VectorField(m, np.zeros((2, 2)))


# (class, array attribute, shape on a mesh, shape and finiteness messages, repr)
_FIELD_CONTRACT = [
    (dc.ScalarField, "coeffs", lambda m: (len(m.vertices),),
     "coeffs length must equal the vertex count", "scalar field values must be finite",
     "ScalarField(n={})"),
    (dc.VectorField, "values", lambda m: (len(m.triangles), 2),
     "values must have shape (num_triangles, 2)", "vector field values must be finite",
     "VectorField(nt={})"),
    (dc.BoundaryFunction, "values", lambda m: (len(m.boundary_vertices),),
     "values length must equal the boundary vertex count", "boundary values must be finite",
     "BoundaryFunction(k={})"),
]


@pytest.mark.parametrize("cls, attr, shape, shape_msg, finite_msg, rep", _FIELD_CONTRACT,
                         ids=[row[0].__name__ for row in _FIELD_CONTRACT])
def test_field_contract(cls, attr, shape, shape_msg, finite_msg, rep):
    m = dc.generate_rectangle(2, 2, 1.0, 1.0)
    other = dc.generate_rectangle(2, 2, 1.0, 1.0)
    n = shape(m)
    with pytest.raises(MeshError, match=re.escape(shape_msg)):
        cls(m, np.zeros(n[0] + 1))
    for bad in (np.nan, np.inf):
        data = np.zeros(n)
        data.flat[1] = bad
        with pytest.raises(MeshError, match=finite_msg):
            cls(m, data)
    source = np.arange(np.prod(n), dtype=float).reshape(n) - 2.0
    x = cls(m, source)
    arr = getattr(x, attr)
    assert not arr.flags.writeable
    with pytest.raises(ValueError):
        arr[0] = 1.0
    for op in (lambda a, b: a + b, lambda a, b: a - b):
        with pytest.raises(MeshError) as err:
            op(x, cls(other, source))
        assert err.value.code == "MESH_MISMATCH"
        with pytest.raises(TypeError):  # fields of two types never combine
            op(x, (dc.ScalarField if cls is dc.VectorField else dc.VectorField).zeros(m))
    zero = cls.zeros(m)
    assert type(zero) is cls and zero.mesh is m
    assert np.array_equal(getattr(zero, attr), np.zeros(n))
    for got, want in ((-x, -source), (2 * x, 2.0 * source), (x * 2, source * 2.0),
                      (x + x, source + source), (x - x, source - source)):
        assert type(got) is cls and got.mesh is m
        assert np.array_equal(getattr(got, attr), want)
        assert np.array_equal(np.signbit(getattr(got, attr)), np.signbit(want))
    assert repr(x) == rep.format(n[0])


def test_lift_piecewise_constant(square):
    lifted = fem.lift_piecewise_constant(
        square, np.full(len(square.triangles), 3.0))
    assert np.abs(lifted.coeffs - 3.0).max() < 1e-10
    # the lift is the L2 projection: dual pairings match exactly
    vals = np.cos(square.centroids[:, 0])
    lifted = fem.lift_piecewise_constant(square, vals, tol=1e-13)
    dual = np.zeros(len(square.vertices))
    contrib = (square.areas / 3.0) * vals
    for i in range(3):
        dual += np.bincount(square.triangles[:, i], weights=contrib,
                            minlength=len(square.vertices))
    resid = dc.assemble_mass(square) @ lifted.coeffs - dual
    assert np.abs(resid).max() <= 1e-12 * np.abs(dual).max()
