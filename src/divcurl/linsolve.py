"""Constrained symmetric positive (semi-)definite solvers.

``solve_spd`` is a conjugate gradient iteration in double precision
whose preconditioner is a single-precision sparse LU factorization of
the constrained operator, i.e. mixed-precision iterative refinement: the
CG loop certifies the double-precision residual, the LU makes it take a
handful of steps.  Dirichlet constraints are imposed by row/column
elimination; mean-type constraints are imposed by deflating the
constants out of the right-hand side and of every preconditioned
residual, with the operator factored with one node pinned.  Factors are
cached for each (matrix object, constraint) and dropped when the matrix
is garbage collected, so callers must not modify a matrix in place once
it has been passed to ``solve_spd``.

``smallest_eigs`` computes the lowest eigenpairs of the pencil
A x = lambda B x by shift-inverted subspace iteration: the iteration
operator is (A + B)^-1 B (shift sigma = 1, which is nonsingular for
every pencil used here even when A or B alone is singular), with
Rayleigh-Ritz B-orthonormalization on the original pencil at every step.
The inner solves use a double-precision sparse LU factorization.
Results are deterministic for a fixed seed.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla

from .errors import (DegenerateBError, IncompatibleRHSError, NonConvergenceError,
                     SolverError)

KIND_NONE = "NONE"
KIND_DIRICHLET_ZERO = "DIRICHLET_ZERO"
KIND_MEAN_ZERO = "MEAN_ZERO"
KIND_BOUNDARY_MEAN_ZERO = "BOUNDARY_MEAN_ZERO"
_MEAN_KINDS = (KIND_MEAN_ZERO, KIND_BOUNDARY_MEAN_ZERO)


@dataclass(frozen=True)
class Constraint:
    """Subspace constraint for a linear or eigenvalue solve.

    DIRICHLET_ZERO pins the listed nodes to zero (rows eliminated).
    MEAN_ZERO / BOUNDARY_MEAN_ZERO select the representative with
    ``weights @ x == 0`` out of the family x + constants; ``weights`` is
    the relevant mass action on constants (M @ 1 or B @ 1).  These mean
    constraints presume the operator's null space is the constants.
    """

    kind: str
    nodes: np.ndarray | None = None
    weights: np.ndarray | None = None

    @staticmethod
    def none():
        return Constraint(KIND_NONE)

    @staticmethod
    def dirichlet_zero(nodes):
        nodes = np.unique(np.asarray(nodes, dtype=np.int64))
        if len(nodes) == 0:
            raise ValueError("DIRICHLET_ZERO requires a nonempty node set")
        return Constraint(KIND_DIRICHLET_ZERO, nodes=nodes)

    @staticmethod
    def mean_zero(weights):
        return Constraint(KIND_MEAN_ZERO, weights=np.asarray(weights, dtype=float))

    @staticmethod
    def boundary_mean_zero(weights):
        return Constraint(KIND_BOUNDARY_MEAN_ZERO,
                          weights=np.asarray(weights, dtype=float))


def _free_mask(n, constraint):
    mask = np.ones(n, dtype=bool)
    if constraint.kind == KIND_DIRICHLET_ZERO:
        mask[constraint.nodes] = False
    return mask


# id(A) -> {constraint key: _Factor}; weakref.finalize drops an id's entry
# when its matrix is collected, so an entry must not reference A itself.
_factor_cache = {}


@dataclass(frozen=True, eq=False)
class _Factor:
    """Constrained operator A_ff and a single-precision LU of it.

    For mean-type constraints the LU is of A_ff with its last node pinned
    to zero, which is nonsingular when the null space is the constants.
    """

    A_ff: object
    lu: spla.SuperLU
    pinned: bool

    def apply(self, r):
        # Scale to unit max-norm so single precision neither underflows
        # nor overflows on tiny or huge residuals.
        s = float(np.abs(r).max())
        if s == 0.0:
            return np.zeros_like(r)
        rhs = (r[:-1] if self.pinned else r) / s
        z = self.lu.solve(rhs.astype(np.float32)).astype(float) * s
        return np.append(z, 0.0) if self.pinned else z


def _factor(A, constraint, mask):
    """Cached factor of A on the subspace selected by ``constraint``."""
    key = (constraint.kind, constraint.nodes.tobytes()
           if constraint.kind == KIND_DIRICHLET_ZERO else None)
    per_matrix = _factor_cache.get(id(A))
    if per_matrix is None:
        per_matrix = _factor_cache[id(A)] = {}
        weakref.finalize(A, _factor_cache.pop, id(A), None)
    factor = per_matrix.get(key)
    if factor is None:
        if constraint.kind == KIND_DIRICHLET_ZERO:
            A_ff = A[mask][:, mask].tocsr()
        else:
            A_ff = A.tocsr(copy=True)
        pinned = constraint.kind in _MEAN_KINDS
        P = A_ff[:-1, :-1] if pinned else A_ff
        try:
            lu = spla.splu(P.astype(np.float32).tocsc(), permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolverError(
                f"cannot factor the {constraint.kind} constrained operator: {exc}")
        factor = per_matrix[key] = _Factor(A_ff, lu, pinned)
    return factor


def solve_spd(A, b, constraint=None, tol=1e-10, max_iter=None, rhs_scale=None):
    """Solve A x = b on the constrained subspace by preconditioned CG.

    Returns x with relative residual <= tol there; the constraint is
    satisfied exactly (eliminated rows are exact zeros, the weighted mean
    is shifted out at the end).  Raises NonConvergenceError past
    ``max_iter`` (default 10 n), IncompatibleRHSError when a singular
    system's right-hand side has a constants component above
    tol * max(||b||, rhs_scale), and SolverError when the constrained
    operator is singular.  Pass ``rhs_scale`` when b was assembled
    from data whose exact dual is zero, so pure roundoff is not mistaken
    for incompatibility.
    """
    b = np.asarray(b, dtype=float)
    n = A.shape[0]
    if b.shape != (n,):
        raise ValueError("right-hand side length does not match the matrix")
    constraint = constraint or Constraint.none()
    if max_iter is None:
        max_iter = 10 * n

    mask = _free_mask(n, constraint)
    b_f = b[mask]
    deflate = constraint.kind in _MEAN_KINDS
    nf = len(b_f)
    ones = np.ones(nf)
    if deflate:
        comp = abs(float(ones @ b_f)) / np.sqrt(nf)
        norm_b = np.linalg.norm(b_f)
        scale = max(norm_b, rhs_scale or 0.0)
        if comp > tol * scale and norm_b > 0.0:
            raise IncompatibleRHSError(
                "right-hand side has a constants component "
                f"{comp:.3e} > tol * scale = {tol * scale:.3e} on a singular system")
        b_f = b_f - (float(ones @ b_f) / nf) * ones

    x = np.zeros(n)
    if np.linalg.norm(b_f) > 0.0:
        factor = _factor(A, constraint, mask)
        x[mask] = _pcg(factor.A_ff, b_f, factor.apply, tol, max_iter, deflate)
    if deflate and constraint.weights is not None:
        w = constraint.weights
        total = float(w.sum())
        if total != 0.0:
            x -= (float(w @ x) / total)
    return x


def _pcg(A, b, precondition, tol, max_iter, deflate):
    n = A.shape[0]
    scale = np.linalg.norm(b)

    def project(v):
        if deflate:
            v -= (v.sum() / n)
        return v

    x = np.zeros(n)
    r = b.copy()
    z = project(precondition(r))
    p = z.copy()
    rz = float(r @ z)
    for it in range(1, max_iter + 1):
        q = A @ p
        pq = float(p @ q)
        if pq <= 0.0:
            raise NonConvergenceError(
                "conjugate gradient hit a non-positive curvature direction "
                "(matrix not positive definite on the constrained subspace)",
                iterations=it, residual=float(np.linalg.norm(r) / scale))
        alpha = rz / pq
        x += alpha * p
        r -= alpha * q
        if deflate and it % 50 == 0:
            project(r)
        if np.linalg.norm(r) <= tol * scale:
            return project(x) if deflate else x
        z = project(precondition(r))
        rz_new = float(r @ z)
        p = z + (rz_new / rz) * p
        rz = rz_new
    raise NonConvergenceError(
        f"conjugate gradient did not reach tol={tol:g} in {max_iter} iterations",
        iterations=max_iter, residual=float(np.linalg.norm(r) / scale))


def smallest_eigs(A, B, k, constraint=None, tol=1e-8, seed=0, max_iter=300):
    """k smallest eigenpairs of A x = lambda B x on the constrained subspace.

    B may be positive semi-definite (e.g. a boundary mass matrix); the
    pairs returned live on the B-nondegenerate subspace.  Eigenvalues are
    nondecreasing, eigenvectors B-orthonormal, and each vector's
    largest-magnitude coefficient is made positive so expansions are
    reproducible.  Raises DegenerateBError when the B-positive subspace
    has dimension < k and NonConvergenceError past ``max_iter`` subspace
    iterations.
    """
    constraint = constraint or Constraint.none()
    k = int(k)
    if k < 1:
        raise ValueError("k must be >= 1")
    n = A.shape[0]
    mask = _free_mask(n, constraint)
    if constraint.kind == KIND_DIRICHLET_ZERO:
        A_ff = A[mask][:, mask].tocsr()
        B_ff = B[mask][:, mask].tocsr()
    else:
        A_ff, B_ff = A.tocsr(), B.tocsr()
    nf = A_ff.shape[0]

    # Mass-type B: its positive-diagonal count bounds the nondegenerate
    # subspace dimension.
    b_rank_bound = int(np.count_nonzero(B_ff.diagonal() > 0.0))
    deflate = constraint.kind in _MEAN_KINDS
    avail = b_rank_bound - (1 if deflate else 0)
    if avail < k:
        raise DegenerateBError(
            f"requested {k} eigenpairs but the B-positive subspace has "
            f"dimension at most {avail}")

    block = min(max(2 * k, k + 8), avail)
    op = spla.splu((A_ff + B_ff).tocsc())

    def b_mul(X):
        return B_ff @ X

    ones = np.ones(nf)
    b_ones = B_ff @ ones
    ones_b = float(ones @ b_ones)

    def deflate_cols(X):
        if deflate and ones_b > 0.0:
            X -= np.outer(ones, (b_ones @ X) / ones_b)
        return X

    rng = np.random.default_rng(seed)
    X = deflate_cols(rng.standard_normal((nf, block)))

    # Roundoff floor for the residual test: a zero eigenvalue has
    # ||Ax|| ~ |lambda| ||Bx|| ~ 0, where a purely relative criterion
    # can never be met in floating point.
    a_scale = float(np.abs(A_ff.diagonal()).max()) if nf else 1.0
    b_scale = float(np.abs(B_ff.diagonal()).max()) if nf else 1.0
    eps_floor = 64.0 * np.finfo(float).eps

    theta = None
    for _ in range(max_iter):
        Y = deflate_cols(op.solve(b_mul(X)))
        # Rayleigh-Ritz on the original pencil over span(Y) with
        # B-orthonormalization; directions degenerate in B are dropped.
        Br = Y.T @ b_mul(Y)
        Br = 0.5 * (Br + Br.T)
        s, Q = sla.eigh(Br)
        keep = s > max(s[-1], 0.0) * 1e-12
        if np.count_nonzero(keep) < k:
            raise DegenerateBError(
                "iteration subspace degenerated below k B-positive directions")
        W = Q[:, keep] / np.sqrt(s[keep])
        Z = Y @ W
        Ar = Z.T @ (A_ff @ Z)
        Ar = 0.5 * (Ar + Ar.T)
        theta, C = sla.eigh(Ar)
        X = Z @ C

        resid_ok = True
        for j in range(k):
            ax = A_ff @ X[:, j]
            bx = B_ff @ X[:, j]
            r = np.linalg.norm(ax - theta[j] * bx)
            bound = tol * (np.linalg.norm(ax) + abs(theta[j]) * np.linalg.norm(bx))
            floor = eps_floor * (a_scale + abs(theta[j]) * b_scale) * \
                np.linalg.norm(X[:, j])
            if r > max(bound, floor):
                resid_ok = False
                break
        if resid_ok:
            break
    else:
        raise NonConvergenceError(
            f"subspace iteration did not converge in {max_iter} sweeps",
            iterations=max_iter)

    pairs = []
    for j in range(k):
        x = np.zeros(n)
        x[mask] = X[:, j]
        i_max = int(np.argmax(np.abs(x)))
        if x[i_max] < 0.0:
            x = -x
        pairs.append((float(theta[j]), x))
    return pairs
