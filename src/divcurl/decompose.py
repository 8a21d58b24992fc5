"""Orthogonal projections and the harmonic decomposition of P0 fields.

Every planar L2 field splits orthogonally into a perp-gradient with
zero-trace potential, a gradient with zero-trace potential, and a
harmonic remainder:

    v = perp_grad(psi0) - grad(phi0) + h.

The two potentials solve zero-Dirichlet Poisson problems driven by the
weak curl and the weak divergence of v; h is defined as the residual,
so reconstruction is exact and all discretization error sits in the two
Galerkin solves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.sparse import csgraph

from .bvp import solve_dirichlet_poisson
from .errors import CirculationDetectedError, NotSimplyConnectedError, SolverError
from .fem import (ScalarField, VectorField, assemble_mass, assemble_stiffness,
                  gradient, l2_inner, l2_norm, load_grad, load_perp, perp_gradient,
                  weak_curl, weak_divergence)
from .linsolve import Constraint, solve_spd

__all__ = [
    "Projection", "HarmonicDecomposition", "HarmonicityReport",
    "project_G", "project_G0", "project_C", "project_C0",
    "harmonic_decompose", "is_harmonic", "poincare_potential",
]


class Projection(NamedTuple):
    potential: ScalarField
    field: VectorField


def _project(v, perp, zero_trace, tol):
    """Fit v by -grad (perp=False) or perp_grad (perp=True) of a P1 potential
    that has zero trace or, otherwise, mean zero; returns both."""
    m = v.mesh
    if zero_trace:
        constraint, rhs_scale = Constraint.dirichlet_zero(m.boundary_vertices), None
    else:
        M = assemble_mass(m)
        constraint, rhs_scale = Constraint.mean_zero(M @ np.ones(M.shape[0])), l2_norm(v)
    load = load_perp(v) if perp else -load_grad(v)
    potential = ScalarField(m, solve_spd(assemble_stiffness(m), load, constraint,
                                         tol=tol, rhs_scale=rhs_scale))
    return Projection(potential,
                      perp_gradient(potential) if perp else -gradient(potential))


def project_G(v, tol=1e-10):
    """Best approximation of v by gradients; returns (phi_v, -grad(phi_v)).

    phi_v is the mean-zero potential minimizing ||v + grad(phi)||; the
    projected field is -grad(phi_v) and is never longer than v.
    """
    return _project(v, perp=False, zero_trace=False, tol=tol)


def project_G0(v, tol=1e-10):
    """Projection onto gradients of zero-trace potentials."""
    return _project(v, perp=False, zero_trace=True, tol=tol)


def project_C(v, tol=1e-10):
    """Best approximation of v by perp-gradients; returns (psi_v, perp_grad)."""
    return _project(v, perp=True, zero_trace=False, tol=tol)


def project_C0(v, tol=1e-10):
    """Projection onto perp-gradients of zero-trace potentials."""
    return _project(v, perp=True, zero_trace=True, tol=tol)


@dataclass(frozen=True, eq=False, repr=False)
class HarmonicDecomposition:
    """v = perp_grad(psi0) - grad(phi0) + h with zero-trace potentials."""

    psi0: ScalarField
    phi0: ScalarField
    h: VectorField

    def __repr__(self):
        return (f"HarmonicDecomposition(|curl part|={l2_norm(self.curl_part):.3e}, "
                f"|grad part|={l2_norm(self.grad_part):.3e}, |h|={l2_norm(self.h):.3e})")

    @property
    def curl_part(self):
        return perp_gradient(self.psi0)

    @property
    def grad_part(self):
        return -gradient(self.phi0)

    def reconstruct(self):
        return self.curl_part + self.grad_part + self.h

    def validate(self, v):
        """Check reconstruction, harmonicity of h and pairwise orthogonality."""
        if l2_norm(self.reconstruct() - v) > 1e-12 * max(l2_norm(v), 1e-300):
            raise SolverError("harmonic decomposition does not reconstruct the input")
        rep = is_harmonic(self.h, 1e-9)
        if not rep.harmonic:
            raise SolverError(
                f"remainder fails the harmonicity test (worst ratio {rep.worst_ratio:g})")
        parts = [self.curl_part, self.grad_part, self.h]
        norms = [l2_norm(p) for p in parts]
        for i in range(3):
            for j in range(i + 1, 3):
                denom = max(norms[i] * norms[j], 1e-300)
                if abs(l2_inner(parts[i], parts[j])) > 1e-10 * denom:
                    raise SolverError("decomposition components are not orthogonal")


def harmonic_decompose(v, tol=1e-10, route="direct"):
    """Split a P0 field into curl part + gradient part + harmonic remainder.

    ``route="direct"`` solves the two zero-trace Galerkin systems with
    the weak pairings of v as data; ``route="weak"`` first forms the
    weak curl/divergence as P1 functions and feeds them through the
    zero-Dirichlet Poisson solver.  Both routes solve the same linear
    systems and agree to solver tolerance.
    """
    m = v.mesh
    if route == "direct":
        psi0 = project_C0(v, tol=tol).potential
        phi0 = project_G0(v, tol=tol).potential
    elif route == "weak":
        psi0 = solve_dirichlet_poisson(weak_curl(v, tol=tol), tol=tol)
        phi0 = solve_dirichlet_poisson(weak_divergence(v, tol=tol), tol=tol)
    else:
        raise ValueError(f"unknown route {route!r}")
    h = v - perp_gradient(psi0) + gradient(phi0)
    return HarmonicDecomposition(psi0=psi0, phi0=phi0, h=h)


@dataclass(frozen=True)
class HarmonicityReport:
    harmonic: bool
    worst_ratio: float
    worst_vertex: int
    worst_kind: str  # 'grad' (solenoidal test) or 'perp' (irrotational test)
    tol: float

    def __bool__(self):
        return self.harmonic


def is_harmonic(v, tol=1e-8):
    """Test whether both weak pairings of v vanish on interior bump functions.

    The residuals are normalized by ||v|| times the energy norm of each
    nodal bump; the report carries the worst offender.
    """
    m = v.mesh
    interior = m.interior_vertices
    norm_v = l2_norm(v)
    if len(interior) == 0 or norm_v == 0.0:
        return HarmonicityReport(True, 0.0, -1, "grad", tol)
    bump_energy = np.sqrt(assemble_stiffness(m).diagonal()[interior])
    denom = norm_v * np.maximum(bump_energy, 1e-300)
    worst_ratio = -1.0
    worst_vertex, worst_kind = -1, "grad"
    for kind, dual in (("grad", load_grad(v)), ("perp", load_perp(v))):
        ratio = np.abs(dual[interior]) / denom
        i = int(np.argmax(ratio))
        if ratio[i] > worst_ratio:
            worst_ratio = float(ratio[i])
            worst_vertex = int(interior[i])
            worst_kind = kind
    return HarmonicityReport(worst_ratio <= tol, worst_ratio, worst_vertex,
                             worst_kind, tol)


def _edge_line_integrals(v, kind):
    """Line integral of the 1-form of ``v`` along every mesh edge (a -> b).

    A P0 field integrates exactly along an edge as (field . edge vector);
    edges shared by two triangles use the average of the two one-sided
    values, so gradients of P1 functions integrate exactly (their
    tangential component matches across edges).
    """
    m = v.mesh
    if kind == "grad":
        w = v.values
    elif kind == "curl":
        w = np.column_stack([-v.values[:, 1], v.values[:, 0]])
    else:
        raise ValueError("kind must be 'grad' or 'curl'")
    sides = m.triangle_edges.ravel()
    acc = np.column_stack([np.bincount(sides, weights=np.repeat(w[:, k], 3),
                                       minlength=len(m.edges)) for k in range(2)])
    avg = acc / m.edge_counts[:, None]
    d = m.vertices[m.edges[:, 1]] - m.vertices[m.edges[:, 0]]
    return np.einsum("ed,ed->e", avg, d)


def poincare_potential(v, kind="grad"):
    """Reconstruct a potential of v by edge path integrals on a spanning tree.

    ``kind="grad"`` integrates v1 dx1 + v2 dx2 (result's gradient is v for
    irrotational fields); ``kind="curl"`` integrates v1 dx2 - v2 dx1
    (result's perp-gradient is v for solenoidal fields).  The mesh must
    be simply connected; any non-tree edge whose closure mismatch
    exceeds 1e-8 * ||v|| * h_max trips CirculationDetectedError with the
    worst cycle edge.  The result is normalized to mean zero.
    """
    m = v.mesh
    if m.num_holes > 0:
        raise NotSimplyConnectedError(
            f"path-independent potentials need a simply connected mesh "
            f"(found {m.num_holes} hole(s))")
    w = _edge_line_integrals(v, kind)

    # Breadth-first spanning tree from vertex 0, neighbours in ascending
    # order; Mesh guarantees that it reaches every vertex.
    nv, edges = len(m.vertices), m.edges
    ends = np.concatenate([edges, edges[:, ::-1]])
    graph = sp.csr_matrix((np.ones(len(ends)), (ends[:, 0], ends[:, 1])), shape=(nv, nv))
    order, pred = csgraph.breadth_first_order(graph, 0, return_predecessors=True)
    child = order[1:]
    parent = pred[child]
    tree = m.edge_id(parent, child)
    step = np.where(parent < child, w[tree], -w[tree])
    # Root-first, each value is its parent's plus one step: the sum of the
    # tree path's line integrals, added in path order.
    values = [0.0] * nv
    for c, a, dv in zip(child.tolist(), parent.tolist(), step.tolist()):
        values[c] = values[a] + dv
    values = np.asarray(values)
    in_tree = np.zeros(len(edges), dtype=bool)
    in_tree[tree] = True

    gap = np.abs(values[edges[:, 0]] + w - values[edges[:, 1]])
    gap[in_tree] = 0.0
    worst = int(np.argmax(gap))
    threshold = 1e-8 * max(l2_norm(v), 1e-300) * m.h_max
    if gap[worst] > threshold:
        a, b = edges[worst]
        raise CirculationDetectedError(
            f"closing edge ({a}, {b}) mismatches by {gap[worst]:.3e} "
            f"(> {threshold:.3e}): the field carries circulation",
            edge=int(worst), mismatch=float(gap[worst]))

    M = assemble_mass(m)
    values -= float(np.sum(M @ values)) / m.area
    return ScalarField(m, values)
