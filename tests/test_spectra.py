import gc
import weakref

import numpy as np
import pytest

import divcurl as dc
from divcurl.errors import DegenerateBError, EmptyGammaError
from divcurl.fem import assemble_boundary_mass, assemble_stiffness


def rotated(m, angle):
    c, s = np.cos(angle), np.sin(angle)
    rot = np.array([[c, -s], [s, c]])
    return dc.Mesh(m.vertices @ rot.T, m.triangles, m.boundary_edges)


def test_lambda1_square_value_and_bound(square_fine):
    lam = dc.dirichlet_lambda1(square_fine, tol=1e-10)
    exact = 2 * np.pi ** 2
    assert lam >= exact - 1e-8
    assert abs(lam - exact) / exact < 0.01


def test_lambda1_scaling():
    lam1 = dc.dirichlet_lambda1(dc.generate_rectangle(10, 10, 1.0, 1.0), tol=1e-10)
    lam2 = dc.dirichlet_lambda1(dc.generate_rectangle(10, 10, 2.0, 2.0), tol=1e-10)
    assert abs(lam2 - lam1 / 4.0) < 1e-8 * lam1


def test_lambda_m_square_value(square_fine):
    lam = dc.neumann_lambda_m(square_fine, tol=1e-10)
    assert abs(lam - np.pi ** 2) / np.pi ** 2 < 0.01


def test_lambda_m_scaling():
    lam1 = dc.neumann_lambda_m(dc.generate_rectangle(10, 10, 1.0, 1.0), tol=1e-10)
    lam2 = dc.neumann_lambda_m(dc.generate_rectangle(10, 10, 2.0, 2.0), tol=1e-10)
    assert abs(lam2 - lam1 / 4.0) < 1e-8 * lam1


def test_lambda_m_positive_on_annulus(annulus):
    assert dc.neumann_lambda_m(annulus, tol=1e-9) > 0.0


def test_dirichlet_dominates_neumann(square):
    lam1 = dc.dirichlet_lambda1(square, tol=1e-10)
    lam_m = dc.neumann_lambda_m(square, tol=1e-10)
    assert lam1 > lam_m > 0.0


def test_steklov_basis_invariants(disk):
    basis = dc.steklov_basis(disk, 7, tol=1e-10)
    basis.validate()
    assert np.abs(basis.fields[0].coeffs - disk.perimeter ** -0.5).max() < 1e-8


def test_steklov_delta0_is_exact_and_delta1_takes_one_factor(monkeypatch):
    import scipy.sparse.linalg as spla

    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    m = dc.generate_annulus(0.5, 1.0, 2, 16)
    basis = dc.steklov_basis(m, 2)
    # delta_1 is a k = 1 solve: one shift-invert factor, no Sturm count
    assert len(calls) == 1
    assert basis.eigenvalues[0] == 0.0
    c = basis.fields[0].coeffs
    assert np.ptp(c) == 0.0
    assert abs(c[0] - m.perimeter ** -0.5) <= 1e-15


def test_steklov_disk_spectrum():
    m = dc.generate_disk(12, 96, 1.0)
    basis = dc.steklov_basis(m, 6, tol=1e-9)
    got = basis.eigenvalues[1:6]
    want = np.array([1.0, 1.0, 2.0, 2.0, 3.0])
    assert np.abs(got - want).max() / want.max() < 0.02


def test_steklov_delta1_is_rayleigh_minimum(disk):
    basis = dc.steklov_basis(disk, 6, tol=1e-10)
    K = assemble_stiffness(disk)
    B = assemble_boundary_mass(disk)
    d1 = basis.eigenvalues[1]
    # every basis eigenfield attains its own eigenvalue as Rayleigh quotient
    for j in range(1, 6):
        c = basis.fields[j].coeffs
        rq = (c @ (K @ c)) / (c @ (B @ c))
        assert rq >= d1 - 1e-8
        assert abs(rq - basis.eigenvalues[j]) < 1e-6 * max(1.0, rq)
    # random boundary-mean-zero combinations cannot beat delta_1
    rng = np.random.default_rng(0)
    ones_b = B @ np.ones(B.shape[0])
    for _ in range(10):
        c = rng.standard_normal(B.shape[0])
        chi = dc.solve_spd(K + B, B @ c, dc.Constraint.none(), tol=1e-12)
        chi -= (ones_b @ chi) / float(ones_b.sum())
        denom = chi @ (B @ chi)
        if denom <= 0:
            continue
        assert (chi @ (K @ chi)) / denom >= d1 * (1 - 1e-6)


def test_steklov_rejects_oversized_basis(square):
    with pytest.raises(DegenerateBError):
        dc.steklov_basis(square, len(square.boundary_vertices) + 1)


def test_mixed_lambda_full_gamma_is_dirichlet(square):
    gamma = set(range(len(square.boundary_edges)))
    lam = dc.mixed_lambda1(square, gamma, tol=1e-10)
    assert abs(lam - dc.dirichlet_lambda1(square, tol=1e-10)) < 1e-8 * lam


def test_mixed_lambda_positive_and_empty_gamma_rejected(square):
    loop = square.loops[0]
    lam = dc.mixed_lambda1(square, set(loop[:6].tolist()), tol=1e-9)
    assert lam > 0.0
    with pytest.raises(EmptyGammaError):
        dc.mixed_lambda1(square, set())
    with pytest.raises(EmptyGammaError):
        dc.m2_gamma(square, {len(square.boundary_edges) + 3})


def test_m2_monotone_under_growing_gamma(square):
    loop = square.loops[0]
    sizes = (6, 12, 18, 30, 48)
    values = [dc.m2_gamma(square, set(loop[:k].tolist()), tol=1e-10)
              for k in sizes]
    for a, b in zip(values, values[1:]):
        assert b <= a + 1e-12


def test_quantities_rotation_invariant(square):
    m2 = rotated(square, 0.7)
    pairs = [
        (dc.dirichlet_lambda1(square, tol=1e-10),
         dc.dirichlet_lambda1(m2, tol=1e-10)),
        (dc.neumann_lambda_m(square, tol=1e-10),
         dc.neumann_lambda_m(m2, tol=1e-10)),
        (dc.steklov_basis(square, 2, tol=1e-10).eigenvalues[1],
         dc.steklov_basis(m2, 2, tol=1e-10).eigenvalues[1]),
        (dc.mixed_lambda1(square, set(square.loops[0][:8].tolist()), tol=1e-10),
         dc.mixed_lambda1(m2, set(m2.loops[0][:8].tolist()), tol=1e-10)),
    ]
    for a, b in pairs:
        assert abs(a - b) <= 1e-8 * abs(a)


def test_spectral_caches_are_keyed_on_seed(monkeypatch):
    from divcurl import spectra

    seeds = []
    smallest_eigs = spectra.smallest_eigs

    def counting(*args, **kwargs):
        seeds.append(kwargs["seed"])
        return smallest_eigs(*args, **kwargs)

    monkeypatch.setattr(spectra, "smallest_eigs", counting)
    m = dc.generate_rectangle(6, 6, 1.0, 1.0)
    gamma = set(m.loops[0][:8].tolist())
    for compute in (lambda seed: dc.dirichlet_lambda1(m, seed=seed),
                    lambda seed: dc.neumann_lambda_m(m, seed=seed),
                    lambda seed: dc.steklov_basis(m, 3, seed=seed).eigenvalues[1],
                    lambda seed: dc.mixed_lambda1(m, gamma, seed=seed)):
        seeds.clear()
        a = compute(0)
        assert compute(0) == a and seeds == [0]
        b = compute(1)
        assert seeds == [0, 1]
        assert abs(b - a) <= 1e-6 * abs(a)


def test_caches_release_a_dropped_mesh(monkeypatch):
    from conftest import (random_boundary, random_scalar, shift_to_normal_compat,
                          shift_to_tangential_compat)
    from divcurl import bvp, linsolve

    monkeypatch.setattr(linsolve, "_factor_cache", {})
    m = dc.generate_rectangle(6, 6, 1.0, 1.0)
    rng = np.random.default_rng(0)
    rho = random_scalar(m, rng)
    eta = shift_to_normal_compat(m, rho, random_boundary(m, rng))
    sol = bvp.solve_normal(bvp.DivCurlData(m, rho, random_scalar(m, rng), eta_nu=eta))
    basis = dc.steklov_basis(m, 3)
    eta_tau = shift_to_tangential_compat(m, rho, random_boundary(m, rng))
    tan = bvp.solve_tangential(bvp.DivCurlData(m, random_scalar(m, rng), rho,
                                               eta_tau=eta_tau))
    c0 = bvp.estimate_C0(m, seed=3)
    assert linsolve._factor_cache
    ref = weakref.ref(m)
    del m, rho, eta, sol, basis, eta_tau, tan, c0
    gc.collect()
    assert ref() is None
    assert linsolve._factor_cache == {}
