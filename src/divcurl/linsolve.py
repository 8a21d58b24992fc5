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
A x = lambda B x with ARPACK's shift-invert Lanczos (scipy's ``eigsh``;
Lehoucq, Sorensen & Yang, ARPACK Users' Guide, SIAM 1998) on a
double-precision sparse LU of A - sigma B.  Under DIRICHLET_ZERO the
shift is sigma = 0: the eliminated operator A_ff is nonsingular there
(for a stiffness matrix on a connected mesh with a nonempty Dirichlet
set) and keeps its own sparsity pattern.  Otherwise A may be singular,
and sigma = -1 is nonsingular for every pencil used here even when A or
B alone is singular.  Results are deterministic for a fixed seed.
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
        lu = _lu(P.astype(np.float32),
                 f"the {constraint.kind} constrained operator")
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
        # Written to be false on NaN too: an operator or preconditioner
        # that over- or underflows must end here, not in a division by 0.
        if not (pq > 0.0 and rz > 0.0):
            raise NonConvergenceError(
                "conjugate gradient hit a non-positive curvature direction "
                "(matrix or preconditioner not positive definite on the "
                "constrained subspace)",
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
    reproducible.

    ARPACK's shift-invert Lanczos (sigma = 0 under DIRICHLET_ZERO, -1
    otherwise) finds the pairs, one more application of
    (A - sigma B)^-1 B purifies its vectors of components that B does not
    see, and Rayleigh-Ritz on the original pencil, B-orthonormalized
    twice, gives the result; for k within one of the B-positive
    dimension Rayleigh-Ritz runs over that whole subspace instead.  Lanczos from one start vector
    can miss a copy of a repeated eigenvalue, so for k >= 2 a Sturm count
    checks that none below the k-th is missing, and Lanczos on the
    B-orthogonal complement of the pairs found looks for those that are.
    Every pair must pass a relative residual test with a roundoff floor.
    Raises DegenerateBError when the B-positive subspace has dimension
    < k, SolverError when the shifted operator cannot be factored (under
    DIRICHLET_ZERO, when A_ff itself is singular), and
    NonConvergenceError past ``max_iter`` ARPACK restarts, on a Sturm
    count that is not met or on a failed residual test.
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
    b_positive = np.flatnonzero(B_ff.diagonal() > 0.0)
    deflate = constraint.kind in _MEAN_KINDS
    avail = len(b_positive) - (1 if deflate else 0)
    if avail < k:
        raise DegenerateBError(
            f"requested {k} eigenpairs but the B-positive subspace has "
            f"dimension at most {avail}")

    sigma = 0.0 if constraint.kind == KIND_DIRICHLET_ZERO else -1.0
    lu = _lu(A_ff, "A") if sigma == 0.0 else _lu(A_ff + B_ff, "A + B")
    b_ones = B_ff @ np.ones(nf)
    ones_b = float(b_ones.sum())
    rng = np.random.default_rng(seed)
    X = np.zeros((nf, 0))

    def project(Y):
        # Remove the constants (mean constraints) and the pairs already
        # found, B-orthogonally.
        if deflate and ones_b > 0.0:
            Y -= (b_ones @ Y) / ones_b
        if X.shape[1]:
            Y -= X @ (X.T @ (B_ff @ Y))
        return Y

    need = k
    for _ in range(k):
        whole = need >= avail - X.shape[1] - 1
        if whole:
            # ARPACK needs ncv > need directions that B sees; the columns
            # of B at its positive-diagonal nodes span everything it sees.
            Y = project(lu.solve(B_ff[:, b_positive].toarray()))
        else:
            try:
                _, V = spla.eigsh(
                    A_ff, need, M=B_ff, sigma=sigma, which="LM",
                    OPinv=spla.LinearOperator((nf, nf), dtype=float,
                                              matvec=lambda x: project(lu.solve(x))),
                    v0=project(rng.standard_normal(nf)), rng=rng,
                    ncv=min(max(2 * need + 1, 20), avail - X.shape[1]),
                    tol=1e-2 * tol, maxiter=max_iter)
            except (spla.ArpackNoConvergence, spla.ArpackError) as exc:
                raise NonConvergenceError(
                    f"shift-invert Lanczos did not converge in {max_iter} "
                    f"restarts: {exc}", iterations=max_iter) from None
            # ARPACK's vectors carry roundoff in the null space of B; one
            # more application of the shift-inverted operator removes it.
            Y = project(lu.solve(B_ff @ V))
        # Rayleigh-Ritz over span(X, Y) with B-orthonormalization;
        # directions degenerate in B are dropped.  One pass leaves a Gram
        # error of about eps times the condition of span(X, Y) in B, which
        # for nearly dependent columns is enough to split close pairs
        # wrongly; a second pass removes it.
        Z = np.column_stack([X, Y])
        for _ in range(2):
            Br = Z.T @ (B_ff @ Z)
            s, Q = sla.eigh(0.5 * (Br + Br.T))
            keep = s > max(s[-1], 0.0) * 1e-12
            if np.count_nonzero(keep) < k:
                raise DegenerateBError(
                    "eigenvector subspace has fewer than k B-positive directions")
            Z = Z @ (Q[:, keep] / np.sqrt(s[keep]))
        Ar = Z.T @ (A_ff @ Z)
        theta, C = sla.eigh(0.5 * (Ar + Ar.T))
        theta, X = theta[:k], Z @ C[:, :k]
        # Eigenvalues within the residual tolerance of the k-th may be
        # either side of it.
        mu = theta[-1] * (1.0 - 10.0 * tol)
        if whole or k < 2 or mu <= 0.0:
            break
        need = (_count_below(A_ff, B_ff, mu) - (1 if deflate else 0)
                - int(np.count_nonzero(theta < mu)))
        if need <= 0:
            break
    else:
        raise NonConvergenceError(
            f"{need} eigenvalue(s) below {mu:.6g} were not found", iterations=k)

    # Roundoff floor for the residual test: a zero eigenvalue has
    # ||Ax|| ~ |lambda| ||Bx|| ~ 0, where a purely relative criterion
    # can never be met in floating point.
    a_scale = float(np.abs(A_ff.diagonal()).max())
    b_scale = float(np.abs(B_ff.diagonal()).max())
    eps_floor = 64.0 * np.finfo(float).eps
    pairs = []
    for j in range(k):
        ax = A_ff @ X[:, j]
        bx = B_ff @ X[:, j]
        r = np.linalg.norm(ax - theta[j] * bx)
        bound = max(tol * (np.linalg.norm(ax) + abs(theta[j]) * np.linalg.norm(bx)),
                    eps_floor * (a_scale + abs(theta[j]) * b_scale)
                    * np.linalg.norm(X[:, j]))
        if r > bound:
            raise NonConvergenceError(
                f"eigenpair {j} failed the residual test: {r:.3e} > {bound:.3e}",
                residual=float(r))
        x = np.zeros(n)
        x[mask] = X[:, j]
        i_max = int(np.argmax(np.abs(x)))
        if x[i_max] < 0.0:
            x = -x
        pairs.append((float(theta[j]), x))
    return pairs


def _lu(A, what, **options):
    """Sparse LU of A in its own precision, ordered by minimum degree on
    A^T + A; SolverError naming ``what`` when A is singular.  Every
    factorization in the package goes through here."""
    try:
        return spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", **options)
    except RuntimeError as exc:
        raise SolverError(f"cannot factor {what}: {exc}") from None


def _count_below(A, B, mu):
    """Number of eigenvalues of A x = lambda B x below mu (a Sturm count).

    By Sylvester's law of inertia it is the number of negative pivots of
    the symmetric factorization of A - mu B, taken without off-diagonal
    pivoting.  Eigenvalues at infinity (B singular, A positive definite
    there) add positive pivots only.
    """
    lu = _lu(A - mu * B, f"A - ({mu:g}) B", diag_pivot_thresh=0.0,
             options={"SymmetricMode": True})
    if not np.array_equal(lu.perm_r, lu.perm_c):
        raise SolverError(f"A - ({mu:g}) B has a zero pivot; no Sturm count")
    return int(np.count_nonzero(lu.U.diagonal() < 0.0))
