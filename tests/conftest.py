import numpy as np
import pytest

import divcurl as dc


@pytest.fixture(scope="session")
def square():
    return dc.generate_rectangle(12, 12, 1.0, 1.0)


@pytest.fixture(scope="session")
def square_fine():
    return dc.generate_rectangle(32, 32, 1.0, 1.0)


@pytest.fixture(scope="session")
def disk():
    return dc.generate_disk(8, 48, 1.0)


@pytest.fixture(scope="session")
def annulus():
    return dc.generate_annulus(0.5, 1.0, 3, 48)


def random_scalar(m, rng):
    return dc.ScalarField(m, rng.standard_normal(len(m.vertices)))


def random_zero_trace(m, rng):
    c = rng.standard_normal(len(m.vertices))
    c[m.boundary_vertices] = 0.0
    return dc.ScalarField(m, c)


def random_vector(m, rng):
    return dc.VectorField(m, rng.standard_normal((len(m.triangles), 2)))


def random_boundary(m, rng):
    return dc.BoundaryFunction(m, rng.standard_normal(len(m.boundary_vertices)))


def shift_to_normal_compat(m, rho, eta):
    """Constant shift of eta making the div-flux balance exact."""
    from divcurl import bvp
    res = bvp.check_compat_normal(rho, eta)
    return eta + dc.BoundaryFunction(
        m, np.full(len(m.boundary_vertices), res / m.perimeter))


def shift_to_tangential_compat(m, omega, eta):
    from divcurl import bvp
    res = bvp.check_compat_tangential(omega, eta)
    return eta + dc.BoundaryFunction(
        m, np.full(len(m.boundary_vertices), res / m.perimeter))


def dense_pencil(A, B, free=None):
    """All eigenpairs of A x = lambda B x on the nodes ``free`` by dense eigh.

    Nodes where B's diagonal vanishes (e.g. the interior for a boundary
    mass) are eliminated by a Schur complement, so only finite eigenvalues
    are returned; the eigenvectors are B-orthonormal and harmonic-extended
    to the eliminated nodes.
    """
    import scipy.linalg as sla
    A, B = A.toarray(), B.toarray()
    if free is not None:
        A, B = A[np.ix_(free, free)], B[np.ix_(free, free)]
    p = np.diag(B) > 0.0
    z = ~p
    X = sla.solve(A[np.ix_(z, z)], A[np.ix_(z, p)]) if z.any() else np.zeros((0, p.sum()))
    values, Vp = sla.eigh(A[np.ix_(p, p)] - A[np.ix_(p, z)] @ X, B[np.ix_(p, p)])
    V = np.zeros((len(A), len(values)))
    V[p], V[z] = Vp, -X @ Vp
    return values, V


def splu_call_log(monkeypatch):
    """A list that gains one entry for each scipy ``splu`` call from now on."""
    import scipy.sparse.linalg as spla
    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    return calls


def assert_reuse_rule(compute, calls):
    """``compute(tol)`` factors once, reuses its entry at the same or a looser
    tolerance, and recomputes, then reuses, at a tighter one."""
    calls.clear()
    a = compute(1e-8)
    assert calls
    calls.clear()
    assert compute(1e-8) == a and compute(1e-6) == a and not calls
    b = compute(1e-11)
    assert calls and abs(b - a) <= 1e-6 * abs(a)
    calls.clear()
    assert compute(1e-8) == b and compute(1e-11) == b and not calls
