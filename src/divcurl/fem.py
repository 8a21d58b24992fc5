"""P1/P0 finite element fields, Galerkin matrices and discrete operators.

Scalars are continuous piecewise-linear (P1, one coefficient per
vertex); vector fields are piecewise-constant (P0, one 2-vector per
triangle).  The gradient of a P1 function is exactly a P0 field, so the
identities between gradients, perp-gradients and the weak div/curl
pairings hold to rounding.  All quadrature below is exact closed form
for these spaces.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .errors import MeshError
from .linsolve import Constraint, solve_spd
from .mesh import Mesh, _first_repeat, _read_text, _write_text

__all__ = [
    "ScalarField", "VectorField", "BoundaryFunction",
    "assemble_stiffness", "assemble_mass", "assemble_boundary_mass",
    "gradient", "perp_gradient", "l2_inner", "l2_norm",
    "scalar_l2_inner", "scalar_l2_norm", "boundary_l2_norm", "boundary_integral",
    "volume_integral", "load_grad", "load_perp",
    "weak_divergence", "weak_curl", "trace", "conormal_flux",
    "save_field", "load_field",
]


def _check_same_mesh(a, b):
    if a.mesh is not b.mesh:
        raise MeshError("fields live on different meshes", code="MESH_MISMATCH")


@dataclass(frozen=True, eq=False, repr=False)
class _Field:
    """A mesh and one read-only array of finite values on it.

    Each subclass adds the array as its second field and names it in
    ``_array``; ``_shape(mesh)`` is the array's shape, ``_nodes(mesh)``
    the points ``from_function`` samples, ``_errors`` the shape and
    finiteness messages and ``_key`` the size label of the repr.  Fields
    of one type and one mesh add, subtract and scale.
    """

    mesh: Mesh

    def __post_init__(self):
        a = np.ascontiguousarray(np.asarray(self._data, dtype=float))
        if a.shape != self._shape(self.mesh):
            raise MeshError(self._errors[0])
        if not np.all(np.isfinite(a)):
            raise MeshError(self._errors[1])
        a.setflags(write=False)
        object.__setattr__(self, self._array, a)

    @property
    def _data(self):
        return getattr(self, self._array)

    def __repr__(self):
        return f"{type(self).__name__}({self._key}={len(self._data)})"

    @classmethod
    def zeros(cls, mesh):
        return cls(mesh, np.zeros(cls._shape(mesh)))

    @classmethod
    def from_function(cls, mesh, f):
        """Nodal interpolant; ``f(x, y)`` must accept coordinate arrays."""
        pts = cls._nodes(mesh)
        return cls(mesh, np.asarray(f(pts[:, 0], pts[:, 1]), dtype=float))

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_same_mesh(self, other)
        return type(self)(self.mesh, self._data + other._data)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        _check_same_mesh(self, other)
        return type(self)(self.mesh, self._data - other._data)

    def __mul__(self, a):
        return type(self)(self.mesh, self._data * float(a))

    __rmul__ = __mul__

    def __neg__(self):
        return type(self)(self.mesh, -self._data)


@dataclass(frozen=True, eq=False, repr=False)
class ScalarField(_Field):
    """P1 scalar function given by one nodal value per vertex."""

    coeffs: np.ndarray
    _array, _key = "coeffs", "n"
    _errors = ("coeffs length must equal the vertex count",
               "scalar field values must be finite")

    _nodes = staticmethod(lambda mesh: mesh.vertices)
    _shape = staticmethod(lambda mesh: (len(mesh.vertices),))


@dataclass(frozen=True, eq=False, repr=False)
class VectorField(_Field):
    """P0 planar vector field: one 2-vector per triangle."""

    values: np.ndarray
    _array, _key = "values", "nt"
    _errors = ("values must have shape (num_triangles, 2)",
               "vector field values must be finite")

    _shape = staticmethod(lambda mesh: (len(mesh.triangles), 2))

    @classmethod
    def from_function(cls, mesh, f):
        """Centroid sample; ``f(x, y)`` returns the pair (vx, vy) of arrays."""
        cx, cy = mesh.centroids[:, 0], mesh.centroids[:, 1]
        vx, vy = f(cx, cy)
        return cls(mesh, np.column_stack([np.broadcast_to(vx, cx.shape),
                                          np.broadcast_to(vy, cy.shape)]))


@dataclass(frozen=True, eq=False, repr=False)
class BoundaryFunction(_Field):
    """Trace-space function: one value per boundary vertex.

    Values are stored in the order of ``mesh.boundary_vertices``.
    """

    values: np.ndarray
    _array, _key = "values", "k"
    _errors = ("values length must equal the boundary vertex count",
               "boundary values must be finite")

    _nodes = staticmethod(lambda mesh: mesh.vertices[mesh.boundary_vertices])
    _shape = staticmethod(lambda mesh: (len(mesh.boundary_vertices),))

    def extended(self):
        """Nodal vector over all vertices, zero at interior vertices."""
        full = np.zeros(len(self.mesh.vertices))
        full[self.mesh.boundary_vertices] = self.values
        return full


# -- assembly ----------------------------------------------------------

def _scatter_symmetric(local, rows_of, n):
    """Assemble per-element symmetric blocks into CSR and symmetrize exactly."""
    nloc = local.shape[1]
    ii = np.repeat(rows_of, nloc, axis=1).ravel()
    jj = np.tile(rows_of, (1, nloc)).ravel()
    mat = sp.coo_matrix((local.ravel(), (ii, jj)), shape=(n, n)).tocsr()
    return (mat + mat.T) * 0.5


def assemble_stiffness(m):
    """Galerkin stiffness K_ij = integral of grad(hat_i) . grad(hat_j).

    Exact for P1 (constant gradients per triangle); symmetric positive
    semi-definite with null space = constants on a connected mesh.

    An off-diagonal entry is -(cot a + cot b) / 2 with a, b the angles
    facing its edge, so it is exactly 0 wherever a + b = pi: the two
    triangles then share a circumcircle, as at every cell side of the
    crossed-diagonal square and on many edges of the generated disks
    and annuli.  Assembled in floating point such entries hold only
    roundoff (<= 1e-14 relative), yet they add fill to every factor of
    K.  Off-diagonal entries with |K_ij| <= 1e-13 sqrt(K_ii K_jj) are
    therefore dropped from the pattern.  The rule is symmetric and
    invariant under rigid motion and scaling, and it leaves the real
    couplings of the generated meshes (>= 1e-4 relative) alone.
    """
    cache = m._cache
    if "K" not in cache:
        g = m.hat_gradients
        local = np.einsum("tid,tjd->tij", g, g) * m.areas[:, None, None]
        K = _scatter_symmetric(local, m.triangles, len(m.vertices)).tocoo()
        root = np.sqrt(K.diagonal())
        tiny = (K.row != K.col) & (np.abs(K.data) <= 1e-13 * root[K.row] * root[K.col])
        K.data[tiny] = 0.0
        K = K.tocsr()
        K.eliminate_zeros()
        cache["K"] = K
    return cache["K"]


def assemble_mass(m):
    """Volume mass matrix with the exact P1 pattern area/12 (area/6 diagonal)."""
    cache = m._cache
    if "M" not in cache:
        pattern = (np.ones((3, 3)) + np.eye(3)) / 12.0
        local = m.areas[:, None, None] * pattern
        cache["M"] = _scatter_symmetric(local, m.triangles, len(m.vertices))
    return cache["M"]


def assemble_boundary_mass(m, subset=None):
    """Boundary mass over a set of boundary edges (all of them by default).

    ``subset`` contains row indices into ``m.boundary_edges``; anything
    not identifying a boundary edge is rejected.  The matrix is n-by-n
    with nonzero entries only among the vertices of the subset edges
    (exact P1 edge pattern length/6, length/3 diagonal).
    """
    if subset is None:
        cache = m._cache
        if "B" in cache:
            return cache["B"]
        rows = np.arange(len(m.boundary_edges))
    else:
        rows = np.asarray(sorted(int(r) for r in subset), dtype=np.int64)
        if len(rows) and (rows.min() < 0 or rows.max() >= len(m.boundary_edges)):
            raise MeshError(
                "subset entries must be rows of mesh.boundary_edges "
                f"(got index {int(rows.min()) if rows.min() < 0 else int(rows.max())})",
                code="MESH_INDEX")
    n = len(m.vertices)
    if len(rows) == 0:
        return sp.csr_matrix((n, n))
    lengths = m.boundary_edge_lengths[rows]
    pattern = (np.ones((2, 2)) + np.eye(2)) / 6.0
    local = lengths[:, None, None] * pattern
    mat = _scatter_symmetric(local, m.boundary_edges[rows, :2], n)
    if subset is None:
        m._cache["B"] = mat
    return mat


def _trace_mass(m):
    """Boundary mass restricted to ``m.boundary_vertices`` (rows and columns)."""
    cache = m._cache
    if "B_bb" not in cache:
        bv = m.boundary_vertices
        cache["B_bb"] = assemble_boundary_mass(m)[np.ix_(bv, bv)].tocsr()
    return cache["B_bb"]


# -- differential operators and inner products ------------------------


def gradient(f):
    """Exact per-triangle gradient of a P1 scalar, as a P0 field."""
    g = np.einsum("ti,tid->td", f.coeffs[f.mesh.triangles], f.mesh.hat_gradients)
    return VectorField(f.mesh, g)


def perp_gradient(f):
    """Gradient rotated by +90 degrees: (g1, g2) -> (g2, -g1)."""
    g = gradient(f).values
    return VectorField(f.mesh, np.column_stack([g[:, 1], -g[:, 0]]))


def l2_inner(v, w):
    """L2 inner product of two P0 fields (exact; fixed triangle order)."""
    _check_same_mesh(v, w)
    per_tri = np.einsum("td,td->t", v.values, w.values)
    return float(np.dot(v.mesh.areas, per_tri))


def l2_norm(v):
    return float(np.sqrt(max(l2_inner(v, v), 0.0)))


def scalar_l2_inner(f, g):
    """L2 inner product of two P1 scalars via the consistent mass matrix."""
    _check_same_mesh(f, g)
    return float(f.coeffs @ (assemble_mass(f.mesh) @ g.coeffs))


def scalar_l2_norm(f):
    return float(np.sqrt(max(scalar_l2_inner(f, f), 0.0)))


def volume_integral(f):
    """Exact integral of a P1 scalar over the domain."""
    return float(np.sum(assemble_mass(f.mesh) @ f.coeffs))


def boundary_l2_norm(eta, subset=None):
    """L2(ds) norm of a boundary function, optionally over an edge subset."""
    b = assemble_boundary_mass(eta.mesh, subset)
    e = eta.extended()
    return float(np.sqrt(max(e @ (b @ e), 0.0)))


def boundary_integral(eta, subset=None):
    """Exact integral of a P1 boundary function, optionally over a subset."""
    b = assemble_boundary_mass(eta.mesh, subset)
    return float(np.sum(b @ eta.extended()))


def _scatter_to_vertices(m, contrib):
    """Sum per-corner triangle values, shape (nt, 3), into one value per vertex."""
    n = len(m.vertices)
    d = np.zeros(n)
    for i in range(3):
        d += np.bincount(m.triangles[:, i], weights=contrib[:, i], minlength=n)
    return d


def load_grad(v):
    """Dual vector d_i = integral of grad(hat_i) . v (exact P0 x P0)."""
    m = v.mesh
    contrib = np.einsum("tid,td->ti", m.hat_gradients, v.values) * m.areas[:, None]
    return _scatter_to_vertices(m, contrib)


def load_perp(v):
    """Dual vector d_i = integral of perp_grad(hat_i) . v."""
    # perp_grad(hat) . v = g2*v1 - g1*v2 with g = grad(hat)
    rotated = VectorField(v.mesh, np.column_stack([-v.values[:, 1], v.values[:, 0]]))
    return load_grad(rotated)


def lift_piecewise_constant(mesh, values, tol=1e-12):
    """L2 projection of per-triangle scalar data onto the P1 space.

    Solves M f = d with d_i = integral(hat_i * data); use this to feed
    piecewise-constant source data to the solvers, which take P1 scalars.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(mesh.triangles),):
        raise MeshError("values must hold one number per triangle")
    contrib = (mesh.areas / 3.0) * values
    dual = _scatter_to_vertices(mesh, np.broadcast_to(contrib[:, None],
                                                      (len(contrib), 3)))
    return ScalarField(mesh, solve_spd(assemble_mass(mesh), dual,
                                       Constraint.none(), tol=tol))


def weak_divergence(v, tol=1e-10):
    """L2 Riesz representative of the weak divergence of a P0 field.

    Solves M r = -load_grad(v): r is the P1 function pairing like div v
    against every nodal test function.
    """
    r = solve_spd(assemble_mass(v.mesh), -load_grad(v), Constraint.none(), tol=tol)
    return ScalarField(v.mesh, r)


def weak_curl(v, tol=1e-10):
    """L2 Riesz representative of the weak curl of a P0 field (M r = load_perp)."""
    r = solve_spd(assemble_mass(v.mesh), load_perp(v), Constraint.none(), tol=tol)
    return ScalarField(v.mesh, r)


def trace(f):
    """Restriction of a P1 scalar to the boundary vertices."""
    return BoundaryFunction(f.mesh, f.coeffs[f.mesh.boundary_vertices])


_GAUSS4_T = 0.5 + np.array([-0.4305681557970263, -0.16999052179242816,
                            0.16999052179242816, 0.4305681557970263])
_GAUSS4_W = 0.5 * np.array([0.34785484513745385, 0.6521451548625461,
                            0.6521451548625461, 0.34785484513745385])


def project_boundary_function(mesh, f, tol=1e-12):
    """L2(ds) projection of edgewise boundary data onto the P1 trace space.

    ``f(x, y, nu, tau)`` is evaluated at Gauss points of every boundary
    edge with the edge's frame attached, so data that jumps at corners
    (e.g. an exact normal trace) gets a well-defined projection rather
    than an arbitrary vertex value.
    """
    be = mesh.boundary_edges
    pa = mesh.vertices[be[:, 0]]
    pb = mesh.vertices[be[:, 1]]
    lengths = mesh.boundary_edge_lengths
    frames = mesh.boundary_edge_frames
    dual = np.zeros(len(mesh.vertices))
    for t, w in zip(_GAUSS4_T, _GAUSS4_W):
        pts = (1.0 - t) * pa + t * pb
        vals = np.asarray(f(pts[:, 0], pts[:, 1], frames[:, 0], frames[:, 1]),
                          dtype=float)
        np.add.at(dual, be[:, 0], w * lengths * (1.0 - t) * vals)
        np.add.at(dual, be[:, 1], w * lengths * t * vals)
    g = solve_spd(_trace_mass(mesh), dual[mesh.boundary_vertices],
                  Constraint.none(), tol=tol)
    return BoundaryFunction(mesh, g)


def conormal_flux(f, rho_dual, tol=1e-10):
    """Variational conormal derivative of a Galerkin solution.

    ``f`` solves the discrete problem whose volume load in dual form is
    ``rho_dual``; the returned g satisfies the residual identity

        integral(grad f . grad xi) - <rho_dual, xi> = integral_boundary(g xi ds)

    for every P1 test function xi, i.e. B g = (K f - rho_dual) on the
    boundary rows.
    """
    m = f.mesh
    resid = assemble_stiffness(m) @ f.coeffs - np.asarray(rho_dual, dtype=float)
    g = solve_spd(_trace_mass(m), resid[m.boundary_vertices],
                  Constraint.none(), tol=tol)
    return BoundaryFunction(m, g)


# -- field file format -------------------------------------------------

_FIELD_SECTION = {"$scalar": ("scalar value", (float,)),
                  "$vector": ("vector value", (float, float)),
                  "$boundary": ("boundary value", (int, float))}


def save_field(field, path):
    """Write a field file: ``$scalar N``, ``$vector M`` or ``$boundary K``."""
    if isinstance(field, ScalarField):
        section = ("$scalar", [field.coeffs])
    elif isinstance(field, VectorField):
        section = ("$vector", field.values.T)
    elif isinstance(field, BoundaryFunction):
        section = ("$boundary", [field.mesh.boundary_vertices, field.values])
    else:
        raise TypeError(f"cannot save {type(field).__name__}")
    _write_text(path, [section])


def load_field(path, mesh):
    """Read a field file written by ``save_field`` and attach it to ``mesh``."""
    [(kind, columns, lines, head)] = _read_text(path, [_FIELD_SECTION])
    if kind != "$boundary":
        cls, size = ((ScalarField, len(mesh.vertices)) if kind == "$scalar"
                     else (VectorField, len(mesh.triangles)))
        if len(lines) != size:
            raise MeshError(f"{kind[1:]} field length does not match the mesh",
                            code="MESH_FORMAT", line=head)
        return cls(mesh, columns[0] if kind == "$scalar" else np.column_stack(columns))
    idx, values = columns
    bv = mesh.boundary_vertices
    pos = np.minimum(np.searchsorted(bv, idx), len(bv) - 1)
    if np.any(bv[pos] != idx):
        row = int(np.argmax(bv[pos] != idx))
        raise MeshError(f"vertex {idx[row]} is not a boundary vertex",
                        code="MESH_INDEX", line=lines[row])
    row = _first_repeat(pos)
    if row >= 0:
        raise MeshError(f"boundary vertex {idx[row]} is listed twice",
                        code="MESH_FORMAT", line=lines[row])
    if len(pos) != len(bv):
        raise MeshError("boundary function does not cover all boundary vertices",
                        code="MESH_FORMAT", line=head)
    return BoundaryFunction(mesh, values[np.argsort(pos)])
