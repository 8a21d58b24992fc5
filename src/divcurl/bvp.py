"""Normal, tangential and mixed div-curl boundary value problems.

Each solver builds the field from potentials: zero-trace Poisson
solutions absorb the divergence and vorticity sources, and a harmonic
component (a gradient or perp-gradient of a harmonic potential) matches
the boundary data.  Alongside the field every solver evaluates the
corresponding discrete energy bound with this mesh's own eigenvalues,
so the reported inequality is a theorem of the discretization rather
than an approximation of a continuum constant.  The tangential problem
is the normal problem of the field rotated by 90 degrees.

Matrices, spectral constants and ``C0`` come from the mesh's one
per-mesh cache, so repeated solves on a mesh reuse them and all of it
is freed with the mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse.linalg as spla

from .errors import (EmptyPartitionPieceError, IncompatibleDataError,
                     InsufficientBasisError, NonConvergenceError)
from .fem import (BoundaryFunction, ScalarField, VectorField, _trace_mass,
                  assemble_boundary_mass, assemble_mass, assemble_stiffness,
                  boundary_integral, boundary_l2_norm, conormal_flux, gradient,
                  l2_inner, l2_norm, perp_gradient, scalar_l2_norm,
                  volume_integral)
from .linsolve import Constraint, _lu, solve_spd
from .mesh import BoundaryPartition, Mesh
from .spectra import dirichlet_lambda1, m2_gamma, steklov_basis

__all__ = [
    "DivCurlData", "BoundReport", "DivCurlSolution", "LeastEnergyReport",
    "COMPAT_NORMAL", "COMPAT_TANGENTIAL", "COMPAT_NEUMANN",
    "check_compat_normal", "check_compat_tangential",
    "solve_dirichlet_poisson", "solve_neumann_fem", "solve_neumann_steklov",
    "solve_normal", "solve_tangential", "solve_mixed",
    "estimate_C0", "least_energy_check",
]

# Names of the integral identities the data must satisfy; error payloads
# and reports cite these so a failed run says which condition broke.
COMPAT_NORMAL = "div-flux balance: integral_domain(rho) = integral_boundary(eta_nu ds)"
COMPAT_TANGENTIAL = ("curl-circulation balance: integral_domain(omega) = "
                     "integral_boundary(eta_tau ds)")
COMPAT_NEUMANN = "zero net flux: integral_boundary(eta ds) = 0"


@dataclass(frozen=True, eq=False, repr=False)
class DivCurlData:
    """Sources and boundary data of a div-curl problem.

    rho / omega: prescribed divergence and curl (P1 scalars; None = zero).
    eta_nu / eta_tau: prescribed normal / tangential boundary components.
    partition: boundary split for the mixed problem.
    """

    mesh: Mesh
    rho: ScalarField | None = None
    omega: ScalarField | None = None
    eta_nu: BoundaryFunction | None = None
    eta_tau: BoundaryFunction | None = None
    partition: BoundaryPartition | None = None

    def __repr__(self):
        have = [n for n in ("rho", "omega", "eta_nu", "eta_tau", "partition")
                if getattr(self, n) is not None]
        return f"DivCurlData({', '.join(have)})"

    def rho_or_zero(self):
        return self.rho if self.rho is not None else ScalarField.zeros(self.mesh)

    def omega_or_zero(self):
        return self.omega if self.omega is not None else ScalarField.zeros(self.mesh)

    def eta_nu_or_zero(self):
        return (self.eta_nu if self.eta_nu is not None
                else BoundaryFunction.zeros(self.mesh))

    def eta_tau_or_zero(self):
        return (self.eta_tau if self.eta_tau is not None
                else BoundaryFunction.zeros(self.mesh))


@dataclass(frozen=True)
class BoundReport:
    """One evaluated energy inequality ||v|| <= combination of data norms.

    ``terms`` holds the named additive pieces; ``rhs`` is their
    combination (plain sum for the normal/tangential bounds, root of the
    summed squares for the mixed bound) and ``slack = rhs - lhs``.
    """

    kind: str
    lhs: float
    terms: dict
    rhs: float
    slack: float
    satisfied: bool
    notes: dict = field(default_factory=dict)

    def as_dict(self):
        return {
            "kind": self.kind,
            "lhs": self.lhs,
            "terms": dict(self.terms),
            "rhs": self.rhs,
            "slack": self.slack,
            "satisfied": self.satisfied,
            "notes": dict(self.notes),
        }


def _make_report(kind, lhs, terms, combine="sum", notes=None):
    terms = {k: float(v) for k, v in terms.items()}
    if combine == "sum":
        rhs = float(sum(terms.values()))
    elif combine == "sqrt-sum":
        rhs = float(np.sqrt(sum(terms.values())))
    else:
        raise ValueError(combine)
    slack = rhs - lhs
    notes = {k: float(v) for k, v in (notes or {}).items()}
    return BoundReport(kind=kind, lhs=float(lhs), terms=terms, rhs=rhs,
                       slack=float(slack), satisfied=bool(slack >= -1e-9 * rhs),
                       notes=notes)


@dataclass(frozen=True, eq=False, repr=False)
class DivCurlSolution:
    """Solver output: the field, its potentials and the bound report."""

    v: VectorField
    report: BoundReport
    phi: ScalarField
    psi: ScalarField
    chi: ScalarField | None = None
    flux: BoundaryFunction | None = None
    compat_residual: float | None = None

    def __repr__(self):
        return (f"DivCurlSolution(kind={self.report.kind!r}, "
                f"|v|={l2_norm(self.v):.6g}, satisfied={self.report.satisfied})")


# -- compatibility checks ----------------------------------------------


def check_compat_normal(rho, eta_nu):
    """Residual of the div-flux balance (exact discrete integrals)."""
    return volume_integral(rho) - boundary_integral(eta_nu)


def check_compat_tangential(omega, eta_tau):
    """Residual of the curl-circulation balance."""
    return volume_integral(omega) - boundary_integral(eta_tau)


def _require_compat(condition, residual, eta, compat_tol, source=None):
    """Raise IncompatibleDataError naming ``condition`` when |residual|
    exceeds compat_tol times |source|_L1 + |eta|_L1 + floor (interpolated
    moduli; a missing source counts as zero)."""
    m = eta.mesh
    l1_source = (float(np.sum(assemble_mass(m) @ np.abs(source.coeffs)))
                 if source is not None else 0.0)
    l1_eta = float(np.sum(assemble_boundary_mass(m) @ np.abs(eta.extended())))
    scale = l1_source + l1_eta + 1e-300
    if abs(residual) > compat_tol * scale:
        raise IncompatibleDataError(
            f"{condition} violated: residual = {residual:.6e} "
            f"(tolerance {compat_tol * scale:.3e})",
            condition=condition, residual=residual)


# -- scalar building blocks --------------------------------------------


def solve_dirichlet_poisson(rho, tol=1e-10):
    """Zero-trace Galerkin solution of K phi = M rho.

    Satisfies the discrete estimates ||phi|| <= ||rho|| / lambda1 and
    ||grad phi|| <= ||rho|| / sqrt(lambda1) with lambda1 the zero-trace
    eigenvalue of this mesh.
    """
    m = rho.mesh
    phi = solve_spd(assemble_stiffness(m), assemble_mass(m) @ rho.coeffs,
                    Constraint.dirichlet_zero(m.boundary_vertices), tol=tol)
    return ScalarField(m, phi)


def solve_neumann_fem(eta, tol=1e-10, compat_tol=1e-9):
    """Mean-zero solution of the pure-flux problem K chi = B eta.

    The data must have zero total flux: |integral(eta ds)| must not
    exceed compat_tol times the L1 scale of eta.
    """
    m = eta.mesh
    _require_compat(COMPAT_NEUMANN, boundary_integral(eta), eta, compat_tol)
    M = assemble_mass(m)
    b = assemble_boundary_mass(m) @ eta.extended()
    chi = solve_spd(assemble_stiffness(m), b,
                    Constraint.mean_zero(M @ np.ones(M.shape[0])), tol=tol)
    return ScalarField(m, chi)


def solve_neumann_steklov(eta, terms, basis, compat_tol=1e-9):
    """Truncated eigenfunction-series solution of the pure-flux problem.

    chi_M = sum_{j=1..terms} (eta_j / delta_j) s_j with eta_j the
    boundary expansion coefficients of eta; returned mean-zero.
    """
    m = eta.mesh
    terms = int(terms)
    if terms < 0:
        raise ValueError("terms must be >= 0")
    if len(basis) < terms + 1:
        raise InsufficientBasisError(
            f"series with {terms} terms needs {terms + 1} Steklov pairs, "
            f"basis has {len(basis)}")
    _require_compat(COMPAT_NEUMANN, boundary_integral(eta), eta, compat_tol)
    coeffs = np.zeros(len(m.vertices))
    if terms > 0:
        hat = basis.boundary_coefficients(eta)
        for j in range(1, terms + 1):
            coeffs += (hat[j] / basis.eigenvalues[j]) * basis.fields[j].coeffs
    M = assemble_mass(m)
    coeffs -= float(np.sum(M @ coeffs)) / m.area
    return ScalarField(m, coeffs)


# -- spectral constants ---------------------------------------------------


def estimate_C0(m, tol=1e-8, max_iter=2000):
    """Discrete operator norm of the source-to-boundary-flux map.

    Measures the largest ratio ||flux of the zero-trace Poisson
    solution||_L2(ds) / ||source||_L2 over the P1 source space.  By
    Green's identity that map is minus the adjoint of the discrete
    harmonic extension H (w on the boundary, -K_ii^-1 K_ib w inside), so
    C0 = ||H|| from L2(ds) to L2: the root of the largest eigenvalue of
    the boundary-sized pencil (H^T M H, B_bb), found by ARPACK's Lanczos
    iteration from a fixed start vector.  ``max_iter`` bounds its
    restarts.  The value is kept on the mesh and reused for any tolerance
    no tighter than the one it was computed at.
    """
    return m._cached("C0", lambda: _flux_norm(m, tol, max_iter), tol)


def _flux_norm(m, tol, max_iter):
    """``estimate_C0`` without the cache."""
    K = assemble_stiffness(m).tocsr()
    M = assemble_mass(m)
    B_bb = _trace_mass(m)
    bv, iv = m.boundary_vertices, m.interior_vertices
    K_ib = K[iv][:, bv].tocsr()
    K_ii = _lu(K[iv][:, iv], "the interior stiffness") if len(iv) else None
    B_lu = _lu(B_bb, "the boundary trace mass")

    def apply_HtMH(w):
        u = np.empty(len(m.vertices))
        u[bv] = w
        if K_ii is None:
            return (M @ u)[bv]
        u[iv] = -K_ii.solve(K_ib @ w)
        y = M @ u
        return y[bv] - K_ib.T @ K_ii.solve(y[iv])

    nb = len(bv)
    try:
        value = spla.eigsh(
            spla.LinearOperator((nb, nb), dtype=float, matvec=apply_HtMH),
            k=1, M=B_bb, which="LA", v0=np.random.default_rng(0).standard_normal(nb),
            Minv=spla.LinearOperator((nb, nb), dtype=float, matvec=B_lu.solve),
            tol=1e-3 * tol, maxiter=max_iter, return_eigenvectors=False)[0]
    except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
        raise NonConvergenceError(
            f"Lanczos iteration for the flux operator norm did not converge in "
            f"{max_iter} restarts: {exc}", iterations=max_iter) from None
    return float(np.sqrt(max(value, 0.0)))


# -- the three boundary value problems ----------------------------------


def solve_normal(data, tol=1e-10, eig_tol=1e-8, steklov_terms=None):
    """Least-energy solution with the normal component prescribed on all of
    the boundary.

    Construction: phi0 and psi0 are the zero-trace Poisson solutions for
    the divergence and vorticity sources; the variational flux of phi0
    augments the boundary data, and a pure-flux potential chi matches it:
    v = perp_grad(psi0) - grad(phi0) + grad(chi).  The report evaluates

        ||v|| <= (||rho|| + ||omega||)/sqrt(lambda1)
                 + (||eta_nu||_ds + C0 ||rho||)/sqrt(delta1)

    with this mesh's own constants.  ``steklov_terms`` switches the
    pure-flux step to the truncated eigenfunction series (cross-check
    mode).
    """
    m = data.mesh
    rho, omega = data.rho_or_zero(), data.omega_or_zero()
    eta_nu = data.eta_nu_or_zero()
    residual = check_compat_normal(rho, eta_nu)
    _require_compat(COMPAT_NORMAL, residual, eta_nu, 1e-9, source=rho)

    phi0 = solve_dirichlet_poisson(rho, tol=tol)
    psi0 = solve_dirichlet_poisson(omega, tol=tol)
    g = conormal_flux(phi0, assemble_mass(m) @ rho.coeffs, tol=tol)
    eta_total = eta_nu + g
    if steklov_terms is None:
        chi = solve_neumann_fem(eta_total, tol=tol, compat_tol=1.0)
    else:
        basis = steklov_basis(m, steklov_terms + 1, tol=eig_tol)
        chi = solve_neumann_steklov(eta_total, steklov_terms, basis, compat_tol=1.0)
    v = perp_gradient(psi0) - gradient(phi0) + gradient(chi)

    lam1 = dirichlet_lambda1(m, tol=eig_tol)
    delta1 = float(steklov_basis(m, 2, tol=eig_tol).eigenvalues[1])
    c0 = estimate_C0(m, tol=min(1e-6, eig_tol * 100))
    norm_rho, norm_omega = scalar_l2_norm(rho), scalar_l2_norm(omega)
    terms = {
        "lambda1_term": (norm_rho + norm_omega) / np.sqrt(lam1),
        "delta1_term": boundary_l2_norm(eta_nu) / np.sqrt(delta1),
        "C0_term": c0 * norm_rho / np.sqrt(delta1),
    }
    report = _make_report(
        "normal", l2_norm(v), terms,
        notes={"lambda1": lam1, "delta1": delta1, "C0": c0,
               "compat_residual": residual})
    return DivCurlSolution(v=v, report=report, phi=phi0, psi=psi0, chi=chi,
                           flux=g, compat_residual=residual)


def solve_tangential(data, tol=1e-10, eig_tol=1e-8, steklov_terms=None):
    """Least-energy solution with the tangential component prescribed on
    all of the boundary.

    Solved as the normal problem for the rotated field w = (-v2, v1):
    div w = -curl v, curl w = div v, w.nu = -v.tau and ||w|| = ||v||, so
    the data (rho, omega, eta_tau) become (-omega, rho, -eta_tau), and
    v = (w2, -w1) = perp_grad(psi0) - grad(phi0) - perp_grad(chi).  The
    normal bound of w is the tangential bound of v term for term, with
    ||omega|| in the flux term.  The report also carries the alternative
    reading that keeps a (zero) eta_nu norm there, since only the
    tangential data enters this construction.
    """
    m = data.mesh
    rho, omega = data.rho_or_zero(), data.omega_or_zero()
    eta_tau = data.eta_tau_or_zero()
    residual = check_compat_tangential(omega, eta_tau)
    _require_compat(COMPAT_TANGENTIAL, residual, eta_tau, 1e-9, source=omega)

    rot = solve_normal(DivCurlData(m, rho=-omega, omega=data.rho, eta_nu=-eta_tau),
                       tol=tol, eig_tol=eig_tol, steklov_terms=steklov_terms)
    eta_nu_norm = (boundary_l2_norm(data.eta_nu)
                   if data.eta_nu is not None else 0.0)
    report = replace(rot.report, kind="tangential", notes={
        **rot.report.notes, "compat_residual": float(residual),
        "delta1_term_eta_nu_reading":
            float(eta_nu_norm / np.sqrt(rot.report.notes["delta1"]))})
    # Negate as 0 - x so that exact zeros come back as 0.0, not -0.0.
    w = rot.v.values
    zeros = ScalarField.zeros(m)
    return DivCurlSolution(
        v=VectorField(m, np.column_stack([w[:, 1], 0.0 - w[:, 0]])), report=report,
        phi=rot.psi, psi=zeros - rot.phi, chi=zeros - rot.chi,
        flux=BoundaryFunction.zeros(m) - rot.flux, compat_residual=residual)


def solve_mixed(data, tol=1e-10, eig_tol=1e-8):
    """Solution with normal data on gamma_nu and tangential data on gamma_tau.

    No integral compatibility is required.  Each potential solves a
    Poisson problem with natural boundary data on its own piece and zero
    trace on the other (interface vertices go to the Dirichlet side):

        K phi = M rho   - B_{gamma_nu} eta_nu,  phi = 0 on gamma_tau,
        K psi = M omega - B_{gamma_tau} eta_tau, psi = 0 on gamma_nu,

    and v = perp_grad(psi) - grad(phi).  The two pieces are exactly
    L2-orthogonal, and the report combines the per-potential bounds

        ||grad phi||^2 <= M2(gamma_tau) (||rho||^2 + ||eta_nu||^2_{gamma_nu})

    (and its mirror) into ||v||^2 <= sum.
    """
    m = data.mesh
    partition = data.partition
    if partition is None:
        raise EmptyPartitionPieceError(
            "the mixed problem needs a BoundaryPartition (or NU/TAU tags)")
    rho, omega = data.rho_or_zero(), data.omega_or_zero()
    eta_nu, eta_tau = data.eta_nu_or_zero(), data.eta_tau_or_zero()

    K = assemble_stiffness(m)
    M = assemble_mass(m)
    rows_nu = sorted(partition.gamma_nu)
    rows_tau = sorted(partition.gamma_tau)
    B_nu = assemble_boundary_mass(m, rows_nu)
    B_tau = assemble_boundary_mass(m, rows_tau)

    b_phi = M @ rho.coeffs - B_nu @ eta_nu.extended()
    phi = ScalarField(m, solve_spd(
        K, b_phi, Constraint.dirichlet_zero(partition.vertices_of("tau")), tol=tol))
    b_psi = M @ omega.coeffs - B_tau @ eta_tau.extended()
    psi = ScalarField(m, solve_spd(
        K, b_psi, Constraint.dirichlet_zero(partition.vertices_of("nu")), tol=tol))
    v = perp_gradient(psi) - gradient(phi)

    m2_tau = m2_gamma(m, rows_tau, tol=eig_tol)  # space of phi: zero trace on tau
    m2_nu = m2_gamma(m, rows_nu, tol=eig_tol)
    phi_data_sq = scalar_l2_norm(rho) ** 2 + boundary_l2_norm(eta_nu, rows_nu) ** 2
    psi_data_sq = scalar_l2_norm(omega) ** 2 + boundary_l2_norm(eta_tau, rows_tau) ** 2
    terms = {
        "m2_phi_term": m2_tau * phi_data_sq,
        "m2_psi_term": m2_nu * psi_data_sq,
    }
    report = _make_report(
        "mixed", l2_norm(v), terms, combine="sqrt-sum",
        notes={"m2_gamma_tau": m2_tau, "m2_gamma_nu": m2_nu,
               "grad_phi_norm": l2_norm(gradient(phi)),
               "grad_psi_norm": l2_norm(gradient(psi))})
    return DivCurlSolution(v=v, report=report, phi=phi, psi=psi,
                           compat_residual=0.0)


# -- least-energy diagnostics -------------------------------------------


@dataclass(frozen=True)
class LeastEnergyReport:
    """Normalized inner products of a solution against circulation fields."""

    cosines: tuple
    max_abs_cosine: float

    def is_least_energy(self, tol):
        return self.max_abs_cosine <= tol


def least_energy_check(v, circulation_basis):
    """Angle of v against each circulation field.

    A least-energy solution is orthogonal to every harmonic circulation
    field, so ||v + t b||^2 = ||v||^2 + t^2 ||b||^2 grows for any t != 0.
    """
    norm_v = l2_norm(v)
    cosines = []
    for b in circulation_basis:
        denom = norm_v * l2_norm(b)
        cosines.append(l2_inner(v, b) / denom if denom > 0.0 else 0.0)
    max_abs = max((abs(c) for c in cosines), default=0.0)
    return LeastEnergyReport(cosines=tuple(cosines), max_abs_cosine=float(max_abs))
