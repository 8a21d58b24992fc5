import gc

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.sparse.linalg import spsolve

import divcurl as dc
from divcurl import linsolve
from divcurl.errors import (DegenerateBError, IncompatibleRHSError,
                            NonConvergenceError, SolverError)
from divcurl.linsolve import Constraint, smallest_eigs, solve_spd
from conftest import dense_pencil


def test_mass_solve_recovers_constants(square):
    M = dc.assemble_mass(square)
    ones = np.ones(M.shape[0])
    x = solve_spd(M, M @ ones, Constraint.none(), tol=1e-12)
    assert np.abs(x - 1.0).max() < 1e-10


def test_zero_rhs_gives_zero(square):
    K = dc.assemble_stiffness(square)
    M = dc.assemble_mass(square)
    x = solve_spd(K, np.zeros(K.shape[0]),
                  Constraint.mean_zero(M @ np.ones(M.shape[0])), tol=1e-12)
    assert np.abs(x).max() == 0.0


def test_dirichlet_constraint_exact_componentwise(square):
    K = dc.assemble_stiffness(square)
    M = dc.assemble_mass(square)
    rng = np.random.default_rng(0)
    b = M @ rng.standard_normal(K.shape[0])
    x = solve_spd(K, b, Constraint.dirichlet_zero(square.boundary_vertices),
                  tol=1e-11)
    assert np.all(x[square.boundary_vertices] == 0.0)


def test_mean_constraint_exact(square):
    K = dc.assemble_stiffness(square)
    M = dc.assemble_mass(square)
    w = M @ np.ones(M.shape[0])
    rng = np.random.default_rng(1)
    b = K @ rng.standard_normal(K.shape[0])  # annihilates constants exactly-ish
    x = solve_spd(K, b, Constraint.mean_zero(w), tol=1e-11)
    assert abs(w @ x) <= 1e-12 * np.abs(w * x).sum()


def test_incompatible_rhs_rejected(square):
    K = dc.assemble_stiffness(square)
    M = dc.assemble_mass(square)
    b = M @ np.ones(M.shape[0])  # pure constants component
    with pytest.raises(IncompatibleRHSError):
        solve_spd(K, b, Constraint.mean_zero(M @ np.ones(M.shape[0])), tol=1e-10)


def test_nonconvergence_reports_residual(square):
    K = dc.assemble_stiffness(square)
    rng = np.random.default_rng(2)
    b = rng.standard_normal(K.shape[0])
    with pytest.raises(NonConvergenceError) as err:
        solve_spd(K, b, Constraint.dirichlet_zero(square.boundary_vertices),
                  tol=1e-14, max_iter=2)
    assert err.value.iterations == 2
    assert err.value.residual is not None


def test_manufactured_poisson_second_order():
    errors = []
    for n in (8, 16, 32):
        m = dc.generate_rectangle(n, n, 1.0, 1.0)
        K = dc.assemble_stiffness(m)
        M = dc.assemble_mass(m)
        rho = dc.ScalarField.from_function(
            m, lambda x, y: 2 * np.pi ** 2 * np.sin(np.pi * x) * np.sin(np.pi * y))
        x = solve_spd(K, M @ rho.coeffs,
                      Constraint.dirichlet_zero(m.boundary_vertices), tol=1e-12)
        exact = dc.ScalarField.from_function(
            m, lambda x_, y_: np.sin(np.pi * x_) * np.sin(np.pi * y_))
        errors.append(dc.scalar_l2_norm(dc.ScalarField(m, x) - exact))
    rates = [np.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(rates) > 1.8 and max(rates) < 2.2


def test_eigs_identity_pencil(square):
    M = dc.assemble_mass(square)
    pairs = smallest_eigs(M, M, 4, Constraint.none(), tol=1e-10)
    for value, _ in pairs:
        assert abs(value - 1.0) < 1e-10


def test_eigs_dirichlet_laplacian_square():
    m = dc.generate_rectangle(24, 24, 1.0, 1.0)
    pairs = smallest_eigs(dc.assemble_stiffness(m), dc.assemble_mass(m), 1,
                          Constraint.dirichlet_zero(m.boundary_vertices),
                          tol=1e-10)
    lam = pairs[0][0]
    exact = 2 * np.pi ** 2
    assert lam >= exact - 1e-8  # conforming elements bound from above
    assert abs(lam - exact) / exact < 0.01


def test_eigs_steklov_disk_low_spectrum():
    m = dc.generate_disk(10, 64, 1.0)
    pairs = smallest_eigs(dc.assemble_stiffness(m), dc.assemble_boundary_mass(m),
                          5, Constraint.none(), tol=1e-9)
    values = np.asarray([v for v, _ in pairs])
    assert abs(values[0]) < 1e-8
    assert np.abs(values[1:] - [1, 1, 2, 2]).max() < 0.02


def test_eigs_residual_invariant_and_order(square):
    K = dc.assemble_stiffness(square)
    M = dc.assemble_mass(square)
    tol = 1e-9
    pairs = smallest_eigs(K, M, 5, Constraint.dirichlet_zero(
        square.boundary_vertices), tol=tol)
    values = [v for v, _ in pairs]
    assert all(values[i] <= values[i + 1] + 1e-12 for i in range(4))
    # the residual contract lives on the constrained subspace (free rows)
    free = square.interior_vertices
    for value, x in pairs:
        ax, bx = (K @ x)[free], (M @ x)[free]
        r = np.linalg.norm(ax - value * bx)
        assert r <= tol * (np.linalg.norm(ax) + abs(value) * np.linalg.norm(bx))


def test_eigs_sign_convention_and_determinism(square):
    K = dc.assemble_stiffness(square)
    M = dc.assemble_mass(square)
    c = Constraint.dirichlet_zero(square.boundary_vertices)
    a = smallest_eigs(K, M, 3, c, tol=1e-9, seed=11)
    b = smallest_eigs(K, M, 3, c, tol=1e-9, seed=11)
    for (va, xa), (vb, xb) in zip(a, b):
        assert va == vb
        assert np.array_equal(xa, xb)
        assert xa[np.argmax(np.abs(xa))] > 0.0


def test_eigs_degenerate_b_rejected(square):
    K = dc.assemble_stiffness(square)
    B = dc.assemble_boundary_mass(square)
    with pytest.raises(DegenerateBError):
        smallest_eigs(K, B, len(square.boundary_vertices) + 1,
                      Constraint.none(), tol=1e-8)


# -- the cached single-precision factor ----------------------------------


@pytest.fixture
def splu_calls(monkeypatch):
    """Counts the factorizations solve_spd makes; starts from an empty cache."""
    calls = []
    real = spla.splu

    def counting(*args, **kwargs):
        calls.append(args[0].shape)
        return real(*args, **kwargs)

    monkeypatch.setattr(spla, "splu", counting)
    monkeypatch.setattr(linsolve, "_factor_cache", {})
    return calls


def test_repeated_solves_factor_once(square, splu_calls):
    K = dc.assemble_stiffness(square).copy()
    c = Constraint.dirichlet_zero(square.boundary_vertices)
    rng = np.random.default_rng(3)
    for _ in range(3):
        solve_spd(K, rng.standard_normal(K.shape[0]), c, tol=1e-12)
    # an equal constraint built anew hits the same entry
    solve_spd(K, rng.standard_normal(K.shape[0]),
              Constraint.dirichlet_zero(square.boundary_vertices[::-1]), tol=1e-12)
    assert len(splu_calls) == 1


def test_dirichlet_node_sets_get_separate_factors(square, splu_calls):
    K = dc.assemble_stiffness(square).copy()
    bv = square.boundary_vertices
    rng = np.random.default_rng(4)
    for nodes in (bv, bv[: len(bv) // 2], bv):
        solve_spd(K, rng.standard_normal(K.shape[0]),
                  Constraint.dirichlet_zero(nodes), tol=1e-12)
    assert len(splu_calls) == 2
    assert len(linsolve._factor_cache[id(K)]) == 2


def test_factor_dropped_with_its_matrix(square, splu_calls):
    K = dc.assemble_stiffness(square).copy()
    solve_spd(K, np.random.default_rng(5).standard_normal(K.shape[0]),
              Constraint.dirichlet_zero(square.boundary_vertices), tol=1e-12)
    assert len(linsolve._factor_cache) == 1
    del K
    gc.collect()
    assert linsolve._factor_cache == {}


def _reference(A, b, constraint):
    """Float64 direct solution of the constrained system."""
    n = A.shape[0]
    x = np.zeros(n)
    A = A.tocsc()
    if constraint.kind == "DIRICHLET_ZERO":
        free = np.setdiff1d(np.arange(n), constraint.nodes)
        x[free] = spsolve(A[free][:, free], b[free])
    elif constraint.kind == "MEAN_ZERO":
        x[:-1] = spsolve(A[:-1, :-1], (b - b.mean())[:-1])
        w = constraint.weights
        x -= (w @ x) / w.sum()
    else:
        x = spsolve(A, b)
    return x


@pytest.mark.parametrize("kind", ["DIRICHLET_ZERO", "MEAN_ZERO", "NONE"])
def test_agrees_with_float64_direct_solve(square_fine, kind):
    K = dc.assemble_stiffness(square_fine)
    M = dc.assemble_mass(square_fine)
    rng = np.random.default_rng(6)
    if kind == "DIRICHLET_ZERO":
        A, c = K, Constraint.dirichlet_zero(square_fine.boundary_vertices)
        b = M @ rng.standard_normal(A.shape[0])
    elif kind == "MEAN_ZERO":
        A, c = K, Constraint.mean_zero(M @ np.ones(M.shape[0]))
        b = K @ rng.standard_normal(A.shape[0])
    else:
        A, c = M, Constraint.none()
        b = rng.standard_normal(A.shape[0])
    tol = 1e-10
    x = solve_spd(A, b, c, tol=tol)
    ref = _reference(A, b, c)
    # a relative residual <= tol bounds the relative error by cond(A) * tol
    assert np.linalg.norm(x - ref) <= 1e3 * tol * np.linalg.norm(ref)


@pytest.mark.parametrize("boundary", [False, True])
def test_mean_constraints_hold_exactly(square, boundary):
    K = dc.assemble_stiffness(square)
    W = dc.assemble_boundary_mass(square) if boundary else dc.assemble_mass(square)
    w = W @ np.ones(W.shape[0])
    c = Constraint.boundary_mean_zero(w) if boundary else Constraint.mean_zero(w)
    b = K @ np.random.default_rng(7).standard_normal(K.shape[0])
    x = solve_spd(K, b, c, tol=1e-12)
    assert abs(w @ x) <= 1e-12 * np.abs(w * x).sum()
    r = K @ x - b
    assert np.linalg.norm(r - r.mean()) <= 1e-12 * np.linalg.norm(b - b.mean())


def test_singular_operator_is_solver_error():
    # an isolated vertex appended to a mesh's stiffness: its row is empty
    m = dc.generate_rectangle(2, 2, 1.0, 1.0)
    K = sp.block_diag([dc.assemble_stiffness(m), sp.csr_matrix((1, 1))]).tocsr()
    b = np.ones(K.shape[0])
    with pytest.raises(SolverError) as err:
        solve_spd(K, b, Constraint.dirichlet_zero(m.boundary_vertices))
    assert err.value.code == "SOLVER_FAILURE"


# -- dense references for the eigen solver ----------------------------------


@pytest.fixture(scope="module", params=["square", "annulus"])
def small_mesh(request):
    if request.param == "square":
        return dc.generate_rectangle(6, 6, 1.0, 1.0)
    return dc.generate_annulus(0.5, 1.0, 2, 16)


def _pencil(m, name):
    """(A, B, constraint, free nodes, dense pairs skipped) of a named pencil."""
    K, M = dc.assemble_stiffness(m), dc.assemble_mass(m)
    if name == "dirichlet":
        return K, M, Constraint.dirichlet_zero(m.boundary_vertices), m.interior_vertices, 0
    if name == "mean_zero":
        # the zero eigenvalue (constants) is deflated away
        return K, M, Constraint.mean_zero(M @ np.ones(M.shape[0])), None, 1
    if name == "steklov":
        return K, dc.assemble_boundary_mass(m), Constraint.none(), None, 0
    ne = len(m.boundary_edges)
    gamma = np.unique(m.boundary_edges[: ne // 2, :2])
    B = (M + dc.assemble_boundary_mass(m, list(range(ne // 2, ne)))).tocsr()
    free = np.setdiff1d(np.arange(len(m.vertices)), gamma)
    return K, B, Constraint.dirichlet_zero(gamma), free, 0


@pytest.mark.parametrize("name", ["dirichlet", "mean_zero", "steklov", "mixed"])
def test_eigs_match_dense_reference(small_mesh, name):
    A, B, constraint, free, skip = _pencil(small_mesh, name)
    values, V = dense_pencil(A, B, free)
    Bf = B.toarray() if free is None else B.toarray()[np.ix_(free, free)]
    avail = len(values) - skip
    tol = 1e-8
    # On the square, k = 5 of the mean-zero pencil needs both copies of
    # the double eigenvalue lambda_4 = lambda_5, and Lanczos alone finds
    # one; avail - 2 is the largest k ARPACK runs for, and k = avail
    # takes the whole B-positive subspace.
    for k in (1, 2, 5, avail - 2, avail):
        pairs = smallest_eigs(A, B, k, constraint, tol=tol)
        theta = np.asarray([v for v, _ in pairs])
        expect = values[skip:skip + k]
        assert np.all(np.abs(theta - expect) <= tol * np.maximum(1.0, expect)), k
        X = np.column_stack([x for _, x in pairs])
        X = X if free is None else X[free]
        assert np.abs(X.T @ Bf @ X - np.eye(k)).max() < 1e-8
        for j in range(k):
            # inside a cluster only the spanned subspace is defined
            cluster = V[:, np.abs(values - theta[j]) <= 1e-4 * max(1.0, theta[j])]
            x = X[:, j]
            off = x - cluster @ (cluster.T @ (Bf @ x))
            assert np.abs(off).max() <= 1e-6 * np.abs(x).max(), (k, j)


@pytest.mark.parametrize("name", ["dirichlet", "mean_zero", "steklov", "mixed"])
def test_whole_subspace_eigs_are_accurate_to_roundoff(small_mesh, name):
    # k = avail takes Rayleigh-Ritz over the whole B-positive subspace,
    # whose basis is far from B-orthogonal; one B-orthonormalization pass
    # leaves errors near 1e-9 on the square's mixed pencil, two leave 1e-13.
    A, B, constraint, free, skip = _pencil(small_mesh, name)
    values, V = dense_pencil(A, B, free)
    Bf = B.toarray() if free is None else B.toarray()[np.ix_(free, free)]
    k = len(values) - skip
    pairs = smallest_eigs(A, B, k, constraint, tol=1e-8)
    theta = np.asarray([v for v, _ in pairs])
    X = np.column_stack([x for _, x in pairs])
    X = X if free is None else X[free]
    assert np.abs(X.T @ Bf @ X - np.eye(k)).max() <= 1e-11
    assert np.abs(theta - values[skip:]).max() <= 1e-11 * values[-1]
    for j in range(k):
        cluster = V[:, np.abs(values - theta[j]) <= 1e-4 * max(1.0, theta[j])]
        off = X[:, j] - cluster @ (cluster.T @ (Bf @ X[:, j]))
        assert np.abs(off).max() <= 1e-8 * np.abs(X[:, j]).max(), j


def test_dirichlet_eigs_factor_the_eliminated_operator(monkeypatch):
    # sigma = 0: the LU is of A_ff alone, not of A_ff + B_ff, whose mass
    # pattern would restore the couplings assemble_stiffness dropped.
    factored = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda A, **k: factored.append(A) or splu(A, **k))
    m = dc.generate_rectangle(6, 6, 1.0, 1.0)
    K, M = dc.assemble_stiffness(m), dc.assemble_mass(m)
    iv = m.interior_vertices
    smallest_eigs(K, M, 1, Constraint.dirichlet_zero(m.boundary_vertices))
    A_ff = K[iv][:, iv]
    assert len(factored) == 1
    assert factored[0].nnz == A_ff.nnz < M[iv][:, iv].nnz
    assert (factored[0] != A_ff).nnz == 0


def test_eigs_restart_limit_is_nonconvergence(square):
    K, M = dc.assemble_stiffness(square), dc.assemble_mass(square)
    with pytest.raises(NonConvergenceError) as err:
        smallest_eigs(K, M, 6, Constraint.dirichlet_zero(square.boundary_vertices),
                      max_iter=1)
    assert err.value.iterations == 1
