from collections import deque

import numpy as np
import pytest

import divcurl as dc
from divcurl.errors import CirculationDetectedError, NotSimplyConnectedError
from conftest import random_vector, random_zero_trace


def mean_zero(f):
    m = f.mesh
    shift = dc.volume_integral(f) / m.area
    return dc.ScalarField(m, f.coeffs - shift)


def test_project_G_fixed_point(square):
    rng = np.random.default_rng(0)
    f = mean_zero(dc.ScalarField(square, rng.standard_normal(len(square.vertices))))
    v = -1.0 * dc.gradient(f)
    phi, g = dc.project_G(v, tol=1e-12)
    assert dc.scalar_l2_norm(phi - f) < 1e-10 * dc.scalar_l2_norm(f)
    assert dc.l2_norm(g - v) < 1e-10 * dc.l2_norm(v)


def test_project_G_annihilates_perp_gradients(square):
    rng = np.random.default_rng(1)
    v = dc.perp_gradient(random_zero_trace(square, rng))
    _, g = dc.project_G(v, tol=1e-12)
    assert dc.l2_norm(g) < 1e-10 * dc.l2_norm(v)


def test_project_G_nonexpansive(square):
    rng = np.random.default_rng(2)
    for _ in range(10):
        v = random_vector(square, rng)
        _, g = dc.project_G(v, tol=1e-11)
        assert dc.l2_norm(g) <= dc.l2_norm(v) + 1e-12


def test_project_G0_fixed_point_and_constants(square):
    rng = np.random.default_rng(3)
    f = random_zero_trace(square, rng)
    v = -1.0 * dc.gradient(f)
    phi, g = dc.project_G0(v, tol=1e-12)
    assert dc.scalar_l2_norm(phi - f) < 1e-10 * dc.scalar_l2_norm(f)
    const = dc.VectorField.from_function(
        square, lambda x, y: (np.full_like(x, 2.0), np.full_like(x, -3.0)))
    phi_c, g_c = dc.project_G0(const, tol=1e-12)
    assert dc.scalar_l2_norm(phi_c) < 1e-10
    assert dc.l2_norm(g_c) < 1e-10
    v_r = random_vector(square, rng)
    assert dc.l2_norm(dc.project_G0(v_r, tol=1e-11).field) <= dc.l2_norm(v_r) + 1e-12


def test_project_C_recovers_up_to_constant(square):
    rng = np.random.default_rng(4)
    f = dc.ScalarField(square, rng.standard_normal(len(square.vertices)))
    v = dc.perp_gradient(f)
    psi, c = dc.project_C(v, tol=1e-12)
    assert dc.scalar_l2_norm(psi - mean_zero(f)) < 1e-10 * dc.scalar_l2_norm(f)
    assert dc.l2_norm(c - v) < 1e-10 * dc.l2_norm(v)


def test_project_C0_annihilates_gradients_and_is_idempotent(square):
    rng = np.random.default_rng(5)
    v = dc.gradient(random_zero_trace(square, rng))
    _, c = dc.project_C0(v, tol=1e-12)
    assert dc.l2_norm(c) < 1e-10 * dc.l2_norm(v)
    w = random_vector(square, rng)
    _, c1 = dc.project_C0(w, tol=1e-12)
    _, c2 = dc.project_C0(c1, tol=1e-12)
    assert dc.l2_norm(c2 - c1) <= 1e-10 * max(dc.l2_norm(c1), 1e-300)


def test_all_projections_idempotent(square):
    rng = np.random.default_rng(6)
    for proj in (dc.project_G, dc.project_G0, dc.project_C, dc.project_C0):
        v = random_vector(square, rng)
        p1 = proj(v, tol=1e-12).field
        p2 = proj(p1, tol=1e-12).field
        assert dc.l2_norm(p2 - p1) <= 1e-10 * max(dc.l2_norm(p1), 1e-300)


def test_harmonic_decompose_zero(square):
    dec = dc.harmonic_decompose(dc.VectorField.zeros(square))
    assert dc.l2_norm(dec.h) == 0.0
    assert dc.scalar_l2_norm(dec.psi0) == 0.0
    assert dc.scalar_l2_norm(dec.phi0) == 0.0


def test_harmonic_decompose_invariants_random(square, annulus):
    rng = np.random.default_rng(7)
    for m in (square, annulus):
        for _ in range(5):
            v = random_vector(m, rng)
            dec = dc.harmonic_decompose(v, tol=1e-12)
            dec.validate(v)
            total = (dc.l2_norm(dec.curl_part) ** 2 + dc.l2_norm(dec.grad_part) ** 2
                     + dc.l2_norm(dec.h) ** 2)
            assert abs(dc.l2_norm(v) ** 2 - total) <= 1e-9 * dc.l2_norm(v) ** 2


def test_harmonic_decompose_routes_agree(square):
    rng = np.random.default_rng(8)
    v = random_vector(square, rng)
    a = dc.harmonic_decompose(v, tol=1e-12, route="direct")
    b = dc.harmonic_decompose(v, tol=1e-12, route="weak")
    assert dc.l2_norm(a.h - b.h) <= 1e-9 * dc.l2_norm(v)
    assert dc.scalar_l2_norm(a.psi0 - b.psi0) <= 1e-9 * max(
        dc.scalar_l2_norm(a.psi0), 1e-300)


def test_harmonic_gradient_goes_to_harmonic_part():
    # the gradient of the interpolated harmonic polynomial x^2 - y^2 is a
    # discrete gradient but not discretely harmonic in general; the
    # interpolation residue in the potentials vanishes at rate >= 1
    norms = []
    for rings, sectors in ((4, 24), (8, 48), (16, 96)):
        m = dc.generate_disk(rings, sectors, 1.0)
        F = dc.ScalarField.from_function(m, lambda x, y: x * x - y * y)
        v = dc.gradient(F)
        dec = dc.harmonic_decompose(v, tol=1e-13)
        norms.append((dc.scalar_l2_norm(dec.psi0) + dc.scalar_l2_norm(dec.phi0),
                      dc.l2_norm(v), dc.l2_norm(dec.h - v)))
    rates = [np.log2(norms[i][0] / norms[i + 1][0]) for i in range(2)]
    assert min(rates) >= 1.0
    assert norms[-1][0] <= 0.02 * norms[-1][1]
    # h carries essentially all of v
    assert norms[-1][2] <= 0.05 * norms[-1][1]
    # the crossed square cancels the residue exactly: h reproduces v alone
    sq = dc.generate_rectangle(16, 16, 1.0, 1.0)
    Fs = dc.ScalarField.from_function(sq, lambda x, y: x * x - y * y)
    dec = dc.harmonic_decompose(dc.gradient(Fs), tol=1e-13)
    assert dc.scalar_l2_norm(dec.phi0) < 1e-10


def test_annulus_circulation_energy_in_h(annulus):
    m = dc.refine_uniform(annulus)
    b = dc.VectorField.from_function(
        m, lambda x, y: (-y / (x * x + y * y), x / (x * x + y * y)))
    dec = dc.harmonic_decompose(b, tol=1e-12)
    assert dc.l2_norm(dec.h) ** 2 >= 0.99 * dc.l2_norm(b) ** 2


def test_square_harmonic_field_is_both_gradient_and_curl():
    # on a simply connected mesh a harmonic field is reproduced by both
    # projections up to discretization error, shrinking under refinement
    errs = []
    for n in (8, 16):
        m = dc.generate_rectangle(n, n, 1.0, 1.0)
        h = dc.VectorField.from_function(
            m, lambda x, y: (3 * x * x - 3 * y * y, -6 * x * y))
        assert dc.is_harmonic(h, 1e-8).harmonic
        eg = dc.l2_norm(dc.project_G(h, tol=1e-12).field - h) / dc.l2_norm(h)
        ec = dc.l2_norm(dc.project_C(h, tol=1e-12).field - h) / dc.l2_norm(h)
        errs.append(max(eg, ec))
    assert errs[1] <= 0.75 * errs[0]
    assert errs[1] < 0.2


def test_annulus_has_nonzero_harmonic_field(annulus):
    # circulation survives decomposition: the harmonic subspace is nontrivial
    b = dc.VectorField.from_function(
        annulus, lambda x, y: (-y / (x * x + y * y), x / (x * x + y * y)))
    dec = dc.harmonic_decompose(b, tol=1e-12)
    assert dc.l2_norm(dec.h) > 0.9 * dc.l2_norm(b)


def test_conjugate_pair_relation_for_shared_fields(square):
    # constant fields are exactly both gradients and perp-gradients; their
    # potentials form a conjugate pair: grad(-phi_v) = perp_grad(psi_v)
    rng = np.random.default_rng(10)
    for _ in range(5):
        a, b = rng.standard_normal(2)
        v = dc.VectorField.from_function(
            square, lambda x, y: (np.full_like(x, a), np.full_like(x, b)))
        phi, g = dc.project_G(v, tol=1e-12)
        psi, c = dc.project_C(v, tol=1e-12)
        assert dc.l2_norm(g - v) < 1e-8 and dc.l2_norm(c - v) < 1e-8
        lhs = dc.gradient(-1.0 * phi).values
        rhs = dc.perp_gradient(psi).values
        assert np.abs(lhs - rhs).max() < 1e-8 * max(abs(a), abs(b), 1e-300)


def test_is_harmonic_cases(square):
    rng = np.random.default_rng(11)
    v = random_vector(square, rng)
    dec = dc.harmonic_decompose(v, tol=1e-12)
    assert dc.is_harmonic(dec.h, 1e-8).harmonic
    bump = dc.ScalarField(square, np.eye(len(square.vertices))[
        square.interior_vertices[0]])
    rep = dc.is_harmonic(dc.perp_gradient(bump), 1e-8)
    assert not rep.harmonic
    assert rep.worst_ratio > 1e-3
    const = dc.VectorField.from_function(
        square, lambda x, y: (np.ones_like(x), np.ones_like(x)))
    assert dc.is_harmonic(const, 1e-8).harmonic


def _poincare_loop_reference(v, kind):
    """poincare_potential as plain loops: per-side edge averages of the
    1-form, then a breadth-first walk from vertex 0 over neighbours in
    ascending order."""
    m = v.mesh
    p, edges = m.vertices, m.edges
    form = v.values if kind == "grad" else np.column_stack([-v.values[:, 1], v.values[:, 0]])
    index = {(a, b): e for e, (a, b) in enumerate(edges.tolist())}
    acc, count = np.zeros((len(edges), 2)), np.zeros(len(edges))
    for k, (i, j, l) in enumerate(m.triangles.tolist()):
        for a, b in ((i, j), (j, l), (l, i)):
            e = index[(min(a, b), max(a, b))]
            acc[e] += form[k]
            count[e] += 1
    w = np.einsum("ed,ed->e", acc / count[:, None], p[edges[:, 1]] - p[edges[:, 0]])
    neighbours = [[] for _ in p]
    for e, (a, b) in enumerate(edges.tolist()):
        neighbours[a].append((b, w[e]))
        neighbours[b].append((a, -w[e]))
    values = np.full(len(p), np.nan)
    values[0] = 0.0
    queue = deque([0])
    while queue:
        a = queue.popleft()
        for b, step in neighbours[a]:
            if np.isnan(values[b]):
                values[b] = values[a] + step
                queue.append(b)
    return values - float(np.sum(dc.assemble_mass(m) @ values)) / m.area


def test_poincare_matches_loop_reference_exactly(disk):
    f = dc.ScalarField(disk, np.random.default_rng(4).standard_normal(len(disk.vertices)))
    for v, kind in ((dc.gradient(f), "grad"), (dc.perp_gradient(f), "curl")):
        assert np.array_equal(dc.poincare_potential(v, kind).coeffs,
                              _poincare_loop_reference(v, kind))


def test_poincare_gradient_recovery(square):
    f = dc.ScalarField.from_function(square, lambda x, y: x * x - y * y + x * y)
    fm = mean_zero(f)
    pot = dc.poincare_potential(dc.gradient(f), "grad")
    assert np.abs(pot.coeffs - fm.coeffs).max() < 1e-10


def test_poincare_curl_recovery(square):
    f = dc.ScalarField.from_function(square, lambda x, y: np.sin(x) * y + x)
    fm = mean_zero(f)
    pot = dc.poincare_potential(dc.perp_gradient(f), "curl")
    assert np.abs(pot.coeffs - fm.coeffs).max() < 1e-10


def test_poincare_detects_circulation(square):
    v = dc.VectorField.from_function(square, lambda x, y: (-y, x))
    with pytest.raises(CirculationDetectedError) as err:
        dc.poincare_potential(v, "grad")
    assert err.value.code == "CIRCULATION_DETECTED"
    assert err.value.mismatch > 0.0


def test_poincare_circulation_magnitude_brute_force():
    # the rotation field's line integral around an interior cycle is
    # ~ 2 * enclosed area (curl = 2); brute-force the square [1/4, 3/4]^2
    m = dc.generate_rectangle(8, 8, 1.0, 1.0)
    v = dc.VectorField.from_function(m, lambda x, y: (-y, x))
    tri_sets = [set(t) for t in m.triangles.tolist()]

    def edge_average(a, b):
        tris = [i for i, s in enumerate(tri_sets) if a in s and b in s]
        return v.values[tris].mean(axis=0)

    def g(i, j):
        return j * 9 + i

    cycle = ([g(i, 2) for i in range(2, 6)] + [g(6, j) for j in range(2, 6)]
             + [g(i, 6) for i in range(6, 2, -1)]
             + [g(2, j) for j in range(6, 2, -1)])
    total = 0.0
    for a, b in zip(cycle, cycle[1:] + cycle[:1]):
        total += edge_average(a, b) @ (m.vertices[b] - m.vertices[a])
    assert abs(total - 2.0 * 0.25) < 0.02


def test_poincare_requires_simply_connected(annulus):
    with pytest.raises(NotSimplyConnectedError):
        dc.poincare_potential(dc.VectorField.zeros(annulus), "grad")
