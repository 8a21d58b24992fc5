import numpy as np
import pytest
import scipy.linalg as sla

import divcurl as dc
from divcurl import bvp
from divcurl.errors import (EmptyPartitionPieceError, IncompatibleDataError,
                            InsufficientBasisError, NonConvergenceError)
from divcurl.fem import project_boundary_function
from conftest import (random_boundary, random_scalar,
                      shift_to_normal_compat, shift_to_tangential_compat)

PI = np.pi


def ones_scalar(m):
    return dc.ScalarField.from_function(m, lambda x, y: np.ones_like(x))


def const_boundary(m, value):
    return dc.BoundaryFunction(m, np.full(len(m.boundary_vertices), value))


# -- compatibility checks ------------------------------------------------


def test_compat_normal_examples(square):
    zero_s, zero_b = dc.ScalarField.zeros(square), dc.BoundaryFunction.zeros(square)
    assert bvp.check_compat_normal(zero_s, zero_b) == 0.0
    assert abs(bvp.check_compat_normal(ones_scalar(square),
                                       const_boundary(square, 0.25))) < 1e-12
    assert abs(bvp.check_compat_normal(ones_scalar(square), zero_b) - 1.0) < 1e-12


def test_compat_tangential_examples(square):
    zero_s, zero_b = dc.ScalarField.zeros(square), dc.BoundaryFunction.zeros(square)
    assert bvp.check_compat_tangential(zero_s, zero_b) == 0.0
    assert abs(bvp.check_compat_tangential(ones_scalar(square),
                                           const_boundary(square, 0.25))) < 1e-12
    assert abs(bvp.check_compat_tangential(ones_scalar(square), zero_b) - 1.0) < 1e-12


# -- scalar solvers -------------------------------------------------------


def test_poisson_zero(square):
    phi = bvp.solve_dirichlet_poisson(dc.ScalarField.zeros(square))
    assert dc.scalar_l2_norm(phi) == 0.0


def test_poisson_manufactured_rate():
    errors = []
    for n in (8, 16, 32):
        m = dc.generate_rectangle(n, n, 1.0, 1.0)
        rho = dc.ScalarField.from_function(
            m, lambda x, y: 2 * PI ** 2 * np.sin(PI * x) * np.sin(PI * y))
        phi = bvp.solve_dirichlet_poisson(rho, tol=1e-12)
        exact = dc.ScalarField.from_function(
            m, lambda x, y: np.sin(PI * x) * np.sin(PI * y))
        errors.append(dc.scalar_l2_norm(phi - exact))
    rate = np.log2(errors[1] / errors[2])
    assert 1.8 < rate < 2.2


def test_poisson_discrete_estimates_random(square):
    rng = np.random.default_rng(0)
    lam1 = dc.dirichlet_lambda1(square, tol=1e-10)
    for _ in range(10):
        rho = random_scalar(square, rng)
        phi = bvp.solve_dirichlet_poisson(rho, tol=1e-12)
        nr = dc.scalar_l2_norm(rho)
        assert dc.scalar_l2_norm(phi) <= nr / lam1 * (1 + 1e-9)
        assert dc.l2_norm(dc.gradient(phi)) <= nr / np.sqrt(lam1) * (1 + 1e-9)


def test_neumann_zero(square):
    chi = bvp.solve_neumann_fem(dc.BoundaryFunction.zeros(square))
    assert dc.scalar_l2_norm(chi) == 0.0


def test_neumann_steklov_fixed_point(square):
    basis = dc.steklov_basis(square, 3, tol=1e-10)
    eta = dc.trace(basis.fields[1]) * float(basis.eigenvalues[1])
    chi = bvp.solve_neumann_fem(eta, tol=1e-12)
    shift = dc.volume_integral(basis.fields[1]) / square.area
    s1_shifted = dc.ScalarField(square, basis.fields[1].coeffs - shift)
    assert dc.scalar_l2_norm(chi - s1_shifted) < 1e-8


def test_neumann_energy_bound(square):
    rng = np.random.default_rng(1)
    basis = dc.steklov_basis(square, 2, tol=1e-10)
    delta1 = float(basis.eigenvalues[1])
    for _ in range(5):
        eta = random_boundary(square, rng)
        eta = eta - const_boundary(
            square, dc.boundary_integral(eta) / square.perimeter)
        chi = bvp.solve_neumann_fem(eta, tol=1e-12)
        lhs = dc.l2_norm(dc.gradient(chi))
        assert lhs <= dc.boundary_l2_norm(eta) / np.sqrt(delta1) * (1 + 1e-8)


def test_neumann_rejects_nonzero_net_flux(square):
    with pytest.raises(IncompatibleDataError) as err:
        bvp.solve_neumann_fem(const_boundary(square, 1.0))
    assert "zero net flux" in err.value.condition


def test_steklov_series_single_term(square):
    basis = dc.steklov_basis(square, 4, tol=1e-10)
    eta = dc.trace(basis.fields[2]) * float(basis.eigenvalues[2])
    chi = bvp.solve_neumann_steklov(eta, 3, basis)
    shift = dc.volume_integral(basis.fields[2]) / square.area
    expected = dc.ScalarField(square, basis.fields[2].coeffs - shift)
    assert dc.scalar_l2_norm(chi - expected) < 1e-7


def test_steklov_series_zero_terms(square):
    basis = dc.steklov_basis(square, 2, tol=1e-10)
    eta = dc.trace(basis.fields[1])
    chi = bvp.solve_neumann_steklov(eta, 0, basis)
    assert dc.scalar_l2_norm(chi) == 0.0


def test_steklov_series_monotone_tail(disk):
    rng = np.random.default_rng(2)
    basis = dc.steklov_basis(disk, 21, tol=1e-10)
    eta = random_boundary(disk, rng)
    eta = eta - const_boundary(disk, dc.boundary_integral(eta) / disk.perimeter)
    chi_fem = bvp.solve_neumann_fem(eta, tol=1e-13)
    errs = []
    for terms in (2, 5, 10, 20):
        chi_m = bvp.solve_neumann_steklov(eta, terms, basis)
        errs.append(dc.l2_norm(dc.gradient(chi_m - chi_fem)))
    for a, b in zip(errs, errs[1:]):
        assert b <= a + 1e-12


def test_steklov_series_insufficient_basis(square):
    basis = dc.steklov_basis(square, 3, tol=1e-10)
    eta = dc.trace(basis.fields[1])
    with pytest.raises(InsufficientBasisError):
        bvp.solve_neumann_steklov(eta, 3, basis)


# -- normal problem -------------------------------------------------------


def test_normal_zero_data(square):
    data = dc.DivCurlData(mesh=square, eta_nu=dc.BoundaryFunction.zeros(square))
    sol = bvp.solve_normal(data, tol=1e-12)
    assert dc.l2_norm(sol.v) == 0.0
    assert sol.report.satisfied


def test_normal_rejects_incompatible(square):
    data = dc.DivCurlData(mesh=square, rho=ones_scalar(square),
                          eta_nu=dc.BoundaryFunction.zeros(square))
    with pytest.raises(IncompatibleDataError) as err:
        bvp.solve_normal(data)
    assert "div-flux balance" in err.value.condition
    assert abs(err.value.residual - 1.0) < 1e-12


def test_normal_sharpness_of_steklov_term(square):
    basis = dc.steklov_basis(square, 2, tol=1e-11)
    eta = dc.trace(basis.fields[1]) * float(basis.eigenvalues[1])
    sol = bvp.solve_normal(dc.DivCurlData(mesh=square, eta_nu=eta),
                           tol=1e-12, eig_tol=1e-11)
    assert abs(sol.report.slack) <= 1e-6 * sol.report.rhs
    assert sol.report.terms["lambda1_term"] == 0.0
    assert sol.report.terms["C0_term"] == 0.0


def test_normal_bound_reports_random(square, disk):
    rng = np.random.default_rng(3)
    for m in (square, disk):
        for _ in range(5):
            rho, omega = random_scalar(m, rng), random_scalar(m, rng)
            eta = shift_to_normal_compat(m, rho, random_boundary(m, rng))
            sol = bvp.solve_normal(
                dc.DivCurlData(mesh=m, rho=rho, omega=omega, eta_nu=eta),
                tol=1e-11, eig_tol=1e-9)
            assert sol.report.satisfied
            assert abs(sol.report.rhs - sum(sol.report.terms.values())) \
                <= 1e-12 * sol.report.rhs


def test_normal_weak_equations_hold(square):
    rng = np.random.default_rng(4)
    m = square
    rho, omega = random_scalar(m, rng), random_scalar(m, rng)
    eta = shift_to_normal_compat(m, rho, random_boundary(m, rng))
    sol = bvp.solve_normal(dc.DivCurlData(mesh=m, rho=rho, omega=omega, eta_nu=eta),
                           tol=1e-12)
    M = dc.assemble_mass(m)
    interior = m.interior_vertices
    div_defect = dc.load_grad(sol.v) + M @ rho.coeffs
    curl_defect = dc.load_perp(sol.v) - M @ omega.coeffs
    scale = max(np.abs(M @ rho.coeffs).max(), np.abs(M @ omega.coeffs).max())
    assert np.abs(div_defect[interior]).max() <= 1e-8 * scale
    assert np.abs(curl_defect[interior]).max() <= 1e-8 * scale


def test_normal_total_flux_identity(square):
    rng = np.random.default_rng(5)
    m = square
    rho = random_scalar(m, rng)
    eta = shift_to_normal_compat(m, rho, random_boundary(m, rng))
    sol = bvp.solve_normal(dc.DivCurlData(mesh=m, rho=rho, omega=None, eta_nu=eta),
                           tol=1e-12)
    # variational normal trace of v: flux of chi minus the source flux g
    v_nu = dc.conormal_flux(sol.chi, np.zeros(len(m.vertices)), tol=1e-13) - sol.flux
    total = dc.boundary_integral(v_nu - eta)
    assert abs(total - sol.compat_residual) < 1e-10 * max(
        1.0, dc.boundary_l2_norm(eta))


def test_normal_manufactured_convergence():
    def vstar(x, y):
        px = PI * np.cos(PI * x) * np.sin(PI * y)
        py = PI * np.sin(PI * x) * np.cos(PI * y)
        return py - px + 2 * x, -px - py - 2 * y

    errs = []
    for n in (16, 32):
        m = dc.generate_rectangle(n, n, 1.0, 1.0)
        rho = dc.ScalarField.from_function(
            m, lambda x, y: 2 * PI ** 2 * np.sin(PI * x) * np.sin(PI * y))
        eta = project_boundary_function(
            m, lambda x, y, nu, tau:
            vstar(x, y)[0] * nu[:, 0] + vstar(x, y)[1] * nu[:, 1])
        eta = shift_to_normal_compat(m, rho, eta)
        sol = bvp.solve_normal(
            dc.DivCurlData(mesh=m, rho=rho, omega=rho, eta_nu=eta), tol=1e-12)
        ref = dc.VectorField.from_function(m, vstar)
        errs.append(dc.l2_norm(sol.v - ref) / dc.l2_norm(ref))
    assert np.log2(errs[0] / errs[1]) >= 0.9
    assert errs[-1] < 0.05


# -- tangential problem ---------------------------------------------------


def test_tangential_zero_data(square):
    data = dc.DivCurlData(mesh=square, eta_tau=dc.BoundaryFunction.zeros(square))
    sol = bvp.solve_tangential(data, tol=1e-12)
    assert dc.l2_norm(sol.v) == 0.0


def test_tangential_rejects_incompatible(square):
    data = dc.DivCurlData(mesh=square, omega=ones_scalar(square),
                          eta_tau=dc.BoundaryFunction.zeros(square))
    with pytest.raises(IncompatibleDataError) as err:
        bvp.solve_tangential(data)
    assert "curl-circulation balance" in err.value.condition


def test_tangential_incompatible_keeps_its_residual_sign(square):
    data = dc.DivCurlData(mesh=square, omega=ones_scalar(square) * -1.0,
                          eta_tau=dc.BoundaryFunction.zeros(square))
    with pytest.raises(IncompatibleDataError) as err:
        bvp.solve_tangential(data)
    assert err.value.condition == bvp.COMPAT_TANGENTIAL
    assert err.value.residual == pytest.approx(-1.0, rel=1e-12)
    assert "tolerance" in str(err.value)


def test_tangential_is_the_rotated_normal_problem(annulus):
    # w = (-v2, v1) turns (rho, omega, eta_tau) into (-omega, rho, -eta_tau).
    rng = np.random.default_rng(11)
    for _ in range(3):
        rho, omega = random_scalar(annulus, rng), random_scalar(annulus, rng)
        eta = shift_to_tangential_compat(annulus, omega, random_boundary(annulus, rng))
        tan = bvp.solve_tangential(
            dc.DivCurlData(mesh=annulus, rho=rho, omega=omega, eta_tau=eta))
        nor = bvp.solve_normal(
            dc.DivCurlData(mesh=annulus, rho=-omega, omega=rho, eta_nu=-eta))
        w = nor.v.values
        assert np.array_equal(tan.v.values, np.column_stack([w[:, 1], -w[:, 0]]))
        assert tan.report.terms == nor.report.terms
        assert tan.report.lhs == nor.report.lhs
        assert tan.report.kind == "tangential"
        assert tan.compat_residual == bvp.check_compat_tangential(omega, eta)


def test_tangential_sharpness(square):
    basis = dc.steklov_basis(square, 2, tol=1e-11)
    eta = dc.trace(basis.fields[1]) * (-float(basis.eigenvalues[1]))
    sol = bvp.solve_tangential(dc.DivCurlData(mesh=square, eta_tau=eta),
                               tol=1e-12, eig_tol=1e-11)
    assert abs(sol.report.slack) <= 1e-6 * sol.report.rhs
    assert abs(dc.l2_norm(sol.v) - np.sqrt(float(basis.eigenvalues[1]))) < 1e-6


def test_tangential_bound_reports_random(square):
    rng = np.random.default_rng(6)
    for _ in range(5):
        rho, omega = random_scalar(square, rng), random_scalar(square, rng)
        eta = shift_to_tangential_compat(square, omega,
                                         random_boundary(square, rng))
        sol = bvp.solve_tangential(
            dc.DivCurlData(mesh=square, rho=rho, omega=omega, eta_tau=eta),
            tol=1e-11, eig_tol=1e-9)
        assert sol.report.satisfied
        assert "delta1_term_eta_nu_reading" in sol.report.notes


def test_tangential_manufactured_convergence():
    def vstar(x, y):
        px = PI * np.cos(PI * x) * np.sin(PI * y)
        py = PI * np.sin(PI * x) * np.cos(PI * y)
        return py - px + 2 * y, -px - py + 2 * x

    errs = []
    for n in (16, 32):
        m = dc.generate_rectangle(n, n, 1.0, 1.0)
        omega = dc.ScalarField.from_function(
            m, lambda x, y: 2 * PI ** 2 * np.sin(PI * x) * np.sin(PI * y))
        eta = project_boundary_function(
            m, lambda x, y, nu, tau:
            vstar(x, y)[0] * tau[:, 0] + vstar(x, y)[1] * tau[:, 1])
        eta = shift_to_tangential_compat(m, omega, eta)
        sol = bvp.solve_tangential(
            dc.DivCurlData(mesh=m, rho=omega, omega=omega, eta_tau=eta), tol=1e-12)
        ref = dc.VectorField.from_function(m, vstar)
        errs.append(dc.l2_norm(sol.v - ref) / dc.l2_norm(ref))
    assert np.log2(errs[0] / errs[1]) >= 0.9
    assert errs[-1] < 0.05


# -- mixed problem ---------------------------------------------------------


def bottom_partition(m, n_bottom):
    loop = m.loops[0]
    bottom = frozenset(int(r) for r in loop[:n_bottom])
    rest = frozenset(set(range(len(m.boundary_edges))) - bottom)
    return dc.BoundaryPartition(m, bottom, rest)


def test_mixed_zero_data(square):
    part = bottom_partition(square, 12)
    sol = bvp.solve_mixed(dc.DivCurlData(mesh=square, partition=part), tol=1e-12)
    assert dc.l2_norm(sol.v) == 0.0


def test_mixed_requires_partition(square):
    with pytest.raises(EmptyPartitionPieceError):
        bvp.solve_mixed(dc.DivCurlData(mesh=square))


def test_mixed_unit_source_example(square):
    part = bottom_partition(square, 12)
    data = dc.DivCurlData(mesh=square, rho=ones_scalar(square), partition=part)
    sol = bvp.solve_mixed(data, tol=1e-12, eig_tol=1e-10)
    grad_phi_sq = sol.report.notes["grad_phi_norm"] ** 2
    m2_tau = sol.report.notes["m2_gamma_tau"]
    assert grad_phi_sq <= m2_tau * dc.scalar_l2_norm(ones_scalar(square)) ** 2
    assert sol.report.terms["m2_phi_term"] > grad_phi_sq  # positive slack
    assert dc.scalar_l2_norm(sol.psi) == 0.0


def test_mixed_swap_symmetry(square):
    part = bottom_partition(square, 12)
    rng = np.random.default_rng(7)
    rho = random_scalar(square, rng)
    eta_nu = random_boundary(square, rng)
    sol_a = bvp.solve_mixed(
        dc.DivCurlData(mesh=square, rho=rho, eta_nu=eta_nu, partition=part),
        tol=1e-12)
    part_swapped = dc.BoundaryPartition(square, part.gamma_tau, part.gamma_nu)
    sol_b = bvp.solve_mixed(
        dc.DivCurlData(mesh=square, omega=rho, eta_tau=eta_nu,
                       partition=part_swapped), tol=1e-12)
    assert np.array_equal(sol_a.phi.coeffs, sol_b.psi.coeffs)


def test_mixed_field_orthogonality_and_bound(square):
    part = bottom_partition(square, 12)
    rng = np.random.default_rng(8)
    for _ in range(5):
        data = dc.DivCurlData(mesh=square, rho=random_scalar(square, rng),
                              omega=random_scalar(square, rng),
                              eta_nu=random_boundary(square, rng),
                              eta_tau=random_boundary(square, rng),
                              partition=part)
        sol = bvp.solve_mixed(data, tol=1e-11, eig_tol=1e-9)
        pythag = (sol.report.notes["grad_phi_norm"] ** 2
                  + sol.report.notes["grad_psi_norm"] ** 2)
        assert abs(dc.l2_norm(sol.v) ** 2 - pythag) <= 1e-9 * pythag
        assert sol.report.satisfied
        reconstructed = np.sqrt(sum(sol.report.terms.values()))
        assert abs(sol.report.rhs - reconstructed) <= 1e-12 * sol.report.rhs


# -- flux operator norm and least-energy diagnostics -----------------------


def test_estimate_c0_positive_and_stable(square):
    c0 = bvp.estimate_C0(square, tol=1e-8)
    assert c0 > 0.0
    refined = dc.refine_uniform(square)
    c0_fine = bvp.estimate_C0(refined, tol=1e-8)
    assert abs(c0_fine - c0) <= 5e-3 * c0  # stable to ~3 significant digits


def test_estimate_c0_reuses_an_entry_built_at_no_looser_tolerance(monkeypatch):
    from conftest import assert_reuse_rule, splu_call_log

    calls = splu_call_log(monkeypatch)
    m = dc.generate_rectangle(8, 8, 1.0, 1.0)
    assert_reuse_rule(lambda tol: bvp.estimate_C0(m, tol=tol), calls)


def test_estimate_c0_scaling():
    a = bvp.estimate_C0(dc.generate_rectangle(12, 12, 1.0, 1.0), tol=1e-8)
    b = bvp.estimate_C0(dc.generate_rectangle(12, 12, 2.0, 2.0), tol=1e-8)
    assert abs(b / a - np.sqrt(2.0)) < 0.05 * np.sqrt(2.0)

    # K is scale-invariant while M ~ L^2 and B ~ L, so under x -> L x the
    # discrete constants obey C0 ~ L^(1/2), lambda1 ~ L^-2 and delta1 ~ L^-1
    # exactly, and a rigid motion leaves all three unchanged.
    def constants(m):
        return np.array([bvp.estimate_C0(m, tol=1e-8), dc.dirichlet_lambda1(m),
                         dc.steklov_basis(m, 2).eigenvalues[1]])

    m = dc.generate_rectangle(12, 8, 1.5, 1.0)
    base = constants(m)
    for L in (2.0, 0.25):
        scaled = constants(dc.Mesh(L * m.vertices, m.triangles, m.boundary_edges))
        expected = base * np.array([L ** 0.5, L ** -2.0, L ** -1.0])
        np.testing.assert_allclose(scaled, expected, rtol=1e-8)
    c, s = np.cos(0.7), np.sin(0.7)
    moved = m.vertices @ np.array([[c, s], [-s, c]]) + np.array([3.0, -2.0])
    np.testing.assert_allclose(
        constants(dc.Mesh(moved, m.triangles, m.boundary_edges)), base, rtol=1e-8)


def test_reports_invariant_under_rigid_motion():
    # The same nodal data and partition rows on a rotated and translated
    # copy of the mesh: every norm and constant in the bounds is invariant,
    # so are lhs and each term.
    m = dc.generate_rectangle(12, 8, 1.5, 1.0)
    c, s = np.cos(0.7), np.sin(0.7)
    moved = dc.Mesh(m.vertices @ np.array([[c, s], [-s, c]]) + np.array([3.0, -2.0]),
                    m.triangles, m.boundary_edges)
    rng = np.random.default_rng(11)
    rho, omega = random_scalar(m, rng), random_scalar(m, rng)
    eta_nu, eta_tau = random_boundary(m, rng), random_boundary(m, rng)
    shifted_nu = shift_to_normal_compat(m, rho, eta_nu).values
    shifted_tau = shift_to_tangential_compat(m, omega, eta_tau).values
    nb = len(m.boundary_edges)
    nu = frozenset(range(nb // 3, nb // 3 + nb // 2))

    def reports(mesh):
        r, o = dc.ScalarField(mesh, rho.coeffs), dc.ScalarField(mesh, omega.coeffs)
        bf = lambda values: dc.BoundaryFunction(mesh, values)
        partition = dc.BoundaryPartition(mesh, nu, frozenset(range(nb)) - nu)
        return [
            bvp.solve_normal(dc.DivCurlData(mesh, rho=r, omega=o, eta_nu=bf(shifted_nu)),
                             tol=1e-12).report,
            bvp.solve_tangential(dc.DivCurlData(mesh, rho=r, omega=o,
                                                eta_tau=bf(shifted_tau)), tol=1e-12).report,
            bvp.solve_mixed(dc.DivCurlData(mesh, rho=r, omega=o, eta_nu=bf(eta_nu.values),
                                           eta_tau=bf(eta_tau.values), partition=partition),
                            tol=1e-12).report,
        ]

    for base, other in zip(reports(m), reports(moved)):
        assert base.terms.keys() == other.terms.keys()
        np.testing.assert_allclose([other.lhs, *other.terms.values()],
                                   [base.lhs, *base.terms.values()], rtol=1e-9)


def test_estimate_c0_factors_interior_stiffness_and_trace_mass(monkeypatch):
    import scipy.sparse.linalg as spla

    shapes = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **k: shapes.append(A.shape) or splu(A, **k))
    m = dc.generate_annulus(0.5, 1.0, 2, 16)
    bvp.estimate_C0(m)
    ni, nb = len(m.interior_vertices), len(m.boundary_vertices)
    assert sorted(shapes) == sorted([(ni, ni), (nb, nb)])


@pytest.mark.parametrize("m", [dc.generate_rectangle(6, 6, 1.0, 1.0),
                               dc.generate_annulus(0.5, 1.0, 2, 16),
                               dc.generate_rectangle(1, 1, 1.0, 1.0)],
                         ids=["square", "annulus", "no-interior"])
def test_estimate_c0_matches_dense_reference(m):
    # C0^2 is the largest eigenvalue of (R^T B^-1 R, M), with R r the
    # boundary dual of the flux of the zero-trace Poisson solution for r.
    K, M = dc.assemble_stiffness(m).toarray(), dc.assemble_mass(m).toarray()
    bv, iv = m.boundary_vertices, m.interior_vertices
    R = K[np.ix_(bv, iv)] @ np.linalg.solve(K[np.ix_(iv, iv)], M[iv]) - M[bv]
    Bb = dc.assemble_boundary_mass(m).toarray()[np.ix_(bv, bv)]
    top = sla.eigh(R.T @ np.linalg.solve(Bb, R), M, eigvals_only=True)[-1]
    tol = 1e-8
    assert abs(bvp.estimate_C0(m, tol=tol) ** 2 - top) <= tol * top


def test_estimate_c0_restart_limit_is_nonconvergence():
    # a long thin strip needs more than one Lanczos restart for C0
    m = dc.generate_rectangle(60, 3, 20.0, 1.0)
    with pytest.raises(NonConvergenceError) as err:
        bvp.estimate_C0(m, max_iter=1)
    assert err.value.iterations == 1


def test_least_energy_no_holes_trivial(square):
    rng = np.random.default_rng(9)
    v = dc.VectorField(square, rng.standard_normal((len(square.triangles), 2)))
    rep = bvp.least_energy_check(v, [])
    assert rep.max_abs_cosine == 0.0
    assert rep.is_least_energy(1e-12)


def test_least_energy_annulus(annulus):
    m = annulus
    eta = project_boundary_function(
        m, lambda x, y, nu, tau: (x * nu[:, 0] + y * nu[:, 1]) / (x * x + y * y))
    eta = shift_to_normal_compat(m, dc.ScalarField.zeros(m), eta)
    sol = bvp.solve_normal(dc.DivCurlData(mesh=m, eta_nu=eta), tol=1e-12,
                           eig_tol=1e-9)
    b = dc.VectorField.from_function(
        m, lambda x, y: (-y / (x * x + y * y), x / (x * x + y * y)))
    rep = bvp.least_energy_check(sol.v, [b])
    assert rep.max_abs_cosine <= 5 * m.h_max
    for t in (-1.0, -0.5, 0.5, 1.0):
        assert dc.l2_norm(sol.v + t * b) > dc.l2_norm(sol.v)


def test_corollary_inequality_form(square):
    # ||v||^2 <= C (||curl v||^2 + ||div v||^2 + ||v.nu||^2) with C built
    # from the report's squared coefficient combinations
    rng = np.random.default_rng(10)
    rho, omega = random_scalar(square, rng), random_scalar(square, rng)
    eta = shift_to_normal_compat(square, rho, random_boundary(square, rng))
    sol = bvp.solve_normal(
        dc.DivCurlData(mesh=square, rho=rho, omega=omega, eta_nu=eta),
        tol=1e-11, eig_tol=1e-9)
    lam1 = sol.report.notes["lambda1"]
    delta1 = sol.report.notes["delta1"]
    c0 = sol.report.notes["C0"]
    a = 1.0 / np.sqrt(lam1)
    c_rho = a + c0 / np.sqrt(delta1)
    c_eta = 1.0 / np.sqrt(delta1)
    big_c = 3.0 * max(c_rho ** 2, a ** 2, c_eta ** 2)
    lhs = dc.l2_norm(sol.v) ** 2
    rhs = big_c * (dc.scalar_l2_norm(rho) ** 2 + dc.scalar_l2_norm(omega) ** 2
                   + dc.boundary_l2_norm(eta) ** 2)
    assert lhs <= rhs
