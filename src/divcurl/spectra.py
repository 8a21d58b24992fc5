"""Spectral constants of the Laplacian used by the energy bounds.

Four quantities: the smallest zero-trace eigenvalue (Poincare constant),
the first nonzero mean-free eigenvalue (Poincare-Wirtinger constant),
the Steklov spectrum with its boundary-orthonormal eigenfunctions, and
the least eigenvalue of the mixed problem that has the eigenvalue in
both the equation and the complementary boundary condition.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateBError, EmptyGammaError, SolverError
from .fem import ScalarField, assemble_boundary_mass, assemble_mass, assemble_stiffness
from .linsolve import Constraint, smallest_eigs
from .mesh import Mesh

__all__ = [
    "SteklovBasis", "dirichlet_lambda1", "neumann_lambda_m",
    "steklov_basis", "mixed_lambda1", "m2_gamma",
]

@dataclass(frozen=True, eq=False, repr=False)
class SteklovBasis:
    """Ordered Steklov eigenpairs with boundary-orthonormal eigenfields.

    eigenvalues[0] = 0 with a constant eigenfield; traces are orthonormal
    in L2(ds) and the stiffness pairing of the fields is diagonal with
    the eigenvalues on the diagonal.
    """

    mesh: Mesh
    eigenvalues: np.ndarray
    fields: tuple

    def __repr__(self):
        return f"SteklovBasis(k={len(self.eigenvalues)})"

    def __len__(self):
        return len(self.eigenvalues)

    def validate(self, eig_tol=1e-8, ortho_tol=1e-8, stiff_tol=1e-6):
        """Check the basis invariants; raises SolverError on violation."""
        m = self.mesh
        ev = self.eigenvalues
        if np.any(np.diff(ev) < -eig_tol * max(1.0, abs(ev[-1]))):
            raise SolverError("Steklov eigenvalues are not nondecreasing")
        scale = max(1.0, abs(float(ev[-1])))
        if abs(float(ev[0])) > eig_tol * scale:
            raise SolverError(f"lowest Steklov eigenvalue {ev[0]:g} is not ~0")
        c = self.fields[0].coeffs
        if np.ptp(c) > eig_tol * max(1.0, np.abs(c).max()):
            raise SolverError("lowest Steklov eigenfield is not constant")
        B = assemble_boundary_mass(m)
        K = assemble_stiffness(m)
        coeffs = np.column_stack([f.coeffs for f in self.fields])
        gram_b = coeffs.T @ (B @ coeffs)
        if np.abs(gram_b - np.eye(len(ev))).max() > ortho_tol:
            raise SolverError("Steklov traces are not boundary-orthonormal")
        gram_k = coeffs.T @ (K @ coeffs)
        err = np.abs(gram_k - np.diag(ev)).max()
        if err > stiff_tol * scale:
            raise SolverError(
                f"stiffness pairing of Steklov fields is not diagonal (err={err:g})")

    def boundary_coefficients(self, eta):
        """Expansion coefficients of a boundary function against the traces."""
        B = assemble_boundary_mass(self.mesh)
        be = B @ eta.extended()
        return np.asarray([float(f.coeffs @ be) for f in self.fields])


def _lowest(m, key, pencil, tol, seed):
    """Smallest eigenvalue of K x = lambda B x, kept in the mesh cache under
    ``key``; ``pencil()`` gives (B, constraint) on a miss."""
    cache = m._cache
    if key not in cache:
        B, constraint = pencil()
        pairs = smallest_eigs(assemble_stiffness(m), B, 1, constraint,
                              tol=tol, seed=seed)
        cache[key] = pairs[0][0]
    return cache[key]


def dirichlet_lambda1(m, tol=1e-8, seed=0):
    """Smallest eigenvalue of K x = lambda M x with zero boundary values."""
    return _lowest(m, ("lambda1", tol, seed), lambda: (
        assemble_mass(m), Constraint.dirichlet_zero(m.boundary_vertices)), tol, seed)


def neumann_lambda_m(m, tol=1e-8, seed=0):
    """First nonzero eigenvalue of K x = lambda M x (mean-free subspace)."""
    def pencil():
        M = assemble_mass(m)
        return M, Constraint.mean_zero(M @ np.ones(M.shape[0]))
    return _lowest(m, ("lambda_m", tol, seed), pencil, tol, seed)


def steklov_basis(m, k, tol=1e-8, seed=0):
    """First k Steklov eigenpairs of K x = delta B x, including delta_0 = 0.

    delta_0 = 0 with the constant field 1/sqrt(perimeter) is exact; the
    other k - 1 pairs are solved by ``smallest_eigs``, shift-invert
    Lanczos on (K, B) with shift -1 on the boundary-mean-zero subspace.
    B is the boundary mass and is singular on interior vertices, so the
    pairs live on the boundary-trace subspace and the interior values
    are their discrete harmonic extensions.
    """
    k = int(k)
    nb = len(m.boundary_vertices)
    if k > nb:
        raise DegenerateBError(
            f"requested {k} Steklov pairs but the boundary has {nb} vertices")
    cache = m._cache
    key = ("steklov", tol, seed)
    # The cache holds arrays only: a value referencing m would form a cycle
    # that keeps the mesh alive until the cycle collector runs.
    cached = cache.get(key)
    if cached is None or len(cached[0]) < k:
        B = assemble_boundary_mass(m)
        ones = np.ones(B.shape[0])
        b_ones = B @ ones
        pairs = [(0.0, ones / np.sqrt(b_ones.sum()))]
        if k > 1:
            pairs += smallest_eigs(assemble_stiffness(m), B, k - 1,
                                   Constraint.boundary_mean_zero(b_ones),
                                   tol=tol, seed=seed)
        basis = SteklovBasis(
            mesh=m,
            eigenvalues=np.asarray([ev for ev, _ in pairs]),
            fields=tuple(ScalarField(m, x) for _, x in pairs))
        basis.validate(eig_tol=max(tol, 1e-8))
        cache[key] = (basis.eigenvalues, tuple(f.coeffs for f in basis.fields))
        return basis
    eigenvalues, coeffs = cached
    return SteklovBasis(mesh=m, eigenvalues=eigenvalues[:k].copy(),
                        fields=tuple(ScalarField(m, c) for c in coeffs[:k]))


def _gamma_vertices(m, gamma_rows):
    rows = np.asarray(sorted(int(r) for r in gamma_rows), dtype=np.int64)
    if len(rows) == 0:
        raise EmptyGammaError("gamma must contain at least one boundary edge")
    if rows.min() < 0 or rows.max() >= len(m.boundary_edges):
        raise EmptyGammaError(
            f"gamma entries must be rows of mesh.boundary_edges, got {rows.max()}")
    return rows, np.unique(m.boundary_edges[rows, :2])


def mixed_lambda1(m, gamma, tol=1e-8, seed=0):
    """Least eigenvalue of K x = lambda (M + B_complement) x, zero trace on gamma.

    ``gamma`` is a set of rows of ``mesh.boundary_edges``.  The
    eigenvalue sits against the sum of the volume mass and the boundary
    mass of the complementary arcs, which is the constant governing the
    combined volume+boundary norm on the gamma-vanishing subspace.  With
    gamma covering the whole boundary this degenerates to the zero-trace
    problem.
    """
    rows, verts = _gamma_vertices(m, gamma)

    def pencil():
        complement = sorted(set(range(len(m.boundary_edges))) - set(rows.tolist()))
        B = (assemble_mass(m) + assemble_boundary_mass(m, complement)).tocsr()
        return B, Constraint.dirichlet_zero(verts)
    return _lowest(m, ("mixed", tuple(rows.tolist()), tol, seed), pencil, tol, seed)


def m2_gamma(m, gamma, tol=1e-8, seed=0):
    """Embedding constant: reciprocal of ``mixed_lambda1``."""
    lam = mixed_lambda1(m, gamma, tol=tol, seed=seed)
    if lam <= 0.0:
        raise SolverError(f"mixed eigenvalue {lam:g} is not positive")
    return 1.0 / lam
