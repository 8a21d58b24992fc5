"""Correctness checks for the benchmark's operations.

Every check recomputes what it needs from raw mesh arrays with its own
P1 geometry (areas, hat gradients, mass matrices), or compares against a
property the method must have; none of them calls back into divcurl.
Each check returns a list of problems; an empty list means it passed.
"""

import numpy as np
import scipy.sparse as sp
from scipy.optimize import brentq
from scipy.special import j0, y0

# Tolerances, each well above what correct output reaches at this size
# and well below what the self-test's corruptions produce.
PAIRING_TOL = 1e-7       # weak div/curl identities, relative to the data
NORM_TOL = 1e-10         # report lhs against the recomputed field norm
ORTHO_TOL = 1e-9         # |<a, b>| / (|a| |b|) for orthogonal pieces
RECON_TOL = 1e-10        # reconstruction of a field from its pieces
LAMBDA1_TOL = 5e-3       # mesh lambda1 against the exact annulus value
POTENTIAL_TOL = 1e-11    # path-integral potential against f - mean(f)
GEOMETRY_TOL = 1e-12     # area and perimeter before and after refinement


class Geometry:
    """P1 quantities of a triangle mesh, computed from its arrays alone."""

    def __init__(self, vertices, triangles, boundary_edges):
        p = np.asarray(vertices, dtype=float)
        t = np.asarray(triangles, dtype=np.int64)
        be = np.asarray(boundary_edges, dtype=np.int64)
        self.nv = len(p)
        self.triangles = t
        x, y = p[t, 0], p[t, 1]
        self.areas = 0.5 * ((x[:, 1] - x[:, 0]) * (y[:, 2] - y[:, 0])
                            - (x[:, 2] - x[:, 0]) * (y[:, 1] - y[:, 0]))
        # grad(lambda_i) = (y_j - y_k, x_k - x_j) / (2 |T|), (i, j, k) cyclic
        j, k = [1, 2, 0], [2, 0, 1]
        self.grads = np.stack([y[:, j] - y[:, k], x[:, k] - x[:, j]], axis=2)
        self.grads /= (2.0 * self.areas)[:, None, None]
        ii = np.repeat(t, 3, axis=1).ravel()
        jj = np.tile(t, (1, 3)).ravel()
        local = self.areas[:, None, None] * (np.ones((3, 3)) + np.eye(3)) / 12.0
        self.mass = sp.csr_matrix((local.ravel(), (ii, jj)), shape=(self.nv,) * 2)
        d = p[be[:, 1]] - p[be[:, 0]]
        lengths = np.hypot(d[:, 0], d[:, 1])
        local_b = lengths[:, None, None] * (np.ones((2, 2)) + np.eye(2)) / 6.0
        bi = np.repeat(be[:, :2], 2, axis=1).ravel()
        bj = np.tile(be[:, :2], (1, 2)).ravel()
        self.bmass = sp.csr_matrix((local_b.ravel(), (bi, bj)), shape=(self.nv,) * 2)
        self.perimeter = float(lengths.sum())
        self.area = float(self.areas.sum())
        self.boundary_vertices = np.unique(be[:, :2])
        interior = np.ones(self.nv, dtype=bool)
        interior[self.boundary_vertices] = False
        self.interior_vertices = np.flatnonzero(interior)
        self.volume_weights = self.mass @ np.ones(self.nv)

    def extend(self, boundary_values):
        full = np.zeros(self.nv)
        full[self.boundary_vertices] = boundary_values
        return full

    def gradient(self, coeffs):
        return np.einsum("ti,tid->td", np.asarray(coeffs)[self.triangles], self.grads)

    def perp_gradient(self, coeffs):
        g = self.gradient(coeffs)
        return np.column_stack([g[:, 1], -g[:, 0]])

    def inner(self, a, b):
        return float(np.dot(self.areas, np.einsum("td,td->t", a, b)))

    def norm(self, a):
        return float(np.sqrt(max(self.inner(a, a), 0.0)))

    def pairing(self, v, perp=False):
        """sum_T |T| v_T . grad(lambda_i) (perp: . perp_grad(lambda_i)) per vertex."""
        v = np.asarray(v)
        w = np.column_stack([-v[:, 1], v[:, 0]]) if perp else v
        contrib = np.einsum("tid,td->ti", self.grads, w) * self.areas[:, None]
        return np.bincount(self.triangles.ravel(), weights=contrib.ravel(),
                           minlength=self.nv)


def unique_edges(triangles):
    t = np.asarray(triangles, dtype=np.int64)
    und = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    return np.unique(und, axis=0)


def annulus_lambda1(r_in, r_out):
    """Smallest zero-trace Laplace eigenvalue of the annulus r_in < r < r_out.

    k is the first root of J0(k a) Y0(k b) - J0(k b) Y0(k a); lambda1 = k^2.
    """
    def cross(k):
        return j0(k * r_in) * y0(k * r_out) - j0(k * r_out) * y0(k * r_in)

    step = 0.05 / (r_out - r_in)
    lo = step
    while cross(lo) * cross(lo + step) > 0.0:
        lo += step
    return brentq(cross, lo, lo + step, xtol=1e-14) ** 2


def _rel(err, scale):
    return float(err) / max(float(scale), 1e-300)


# -- warm_draws ---------------------------------------------------------


def check_reports(geo, solutions):
    """Each report's lhs is ||v|| recomputed from the mesh, and it holds."""
    problems = []
    for name, (v, report) in solutions.items():
        norm_v = geo.norm(v)
        if _rel(abs(report["lhs"] - norm_v), norm_v) > NORM_TOL:
            problems.append(f"{name}: report lhs {report['lhs']!r} != ||v|| {norm_v!r}")
        if not report["satisfied"] or report["lhs"] > report["rhs"] * (1 + 1e-9):
            problems.append(f"{name}: bound not satisfied "
                            f"(lhs {report['lhs']!r}, rhs {report['rhs']!r})")
    return problems


def _identity(name, got, want, rows):
    scale = np.abs(want).max()
    err = _rel(np.abs(got[rows] - want[rows]).max(), scale)
    return [f"{name}: relative error {err:.3e}"] if err > PAIRING_TOL else []


def check_normal_pairings(geo, v, rho, omega, eta_nu):
    """sum_T |T| v.grad(l_i) = -(M rho)_i + (B eta_nu)_i at every vertex and
    sum_T |T| v.perp_grad(l_i) = (M omega)_i at interior vertices."""
    every = np.arange(geo.nv)
    div_want = -(geo.mass @ rho) + geo.bmass @ geo.extend(eta_nu)
    return (_identity("normal div pairing", geo.pairing(v), div_want, every)
            + _identity("normal curl pairing", geo.pairing(v, perp=True),
                        geo.mass @ omega, geo.interior_vertices))


def check_tangential_pairings(geo, v, rho, omega, eta_tau):
    """The rotated pair: curl pairing (M omega - B eta_tau)_i at every vertex
    and divergence pairing -(M rho)_i at interior vertices."""
    every = np.arange(geo.nv)
    curl_want = geo.mass @ omega - geo.bmass @ geo.extend(eta_tau)
    return (_identity("tangential curl pairing", geo.pairing(v, perp=True),
                      curl_want, every)
            + _identity("tangential div pairing", geo.pairing(v),
                        -(geo.mass @ rho), geo.interior_vertices))


def _orthogonal(name, geo, a, b):
    denom = geo.norm(a) * geo.norm(b)
    cos = _rel(abs(geo.inner(a, b)), denom)
    return [f"{name}: |cos| = {cos:.3e}"] if cos > ORTHO_TOL else []


def _reconstructs(name, geo, v, pieces):
    err = _rel(geo.norm(v - sum(pieces)), geo.norm(v))
    return [f"{name}: reconstruction error {err:.3e}"] if err > RECON_TOL else []


def check_mixed(geo, v, phi, psi):
    """v = perp_grad(psi) - grad(phi), and the two pieces are orthogonal."""
    curl, grad = geo.perp_gradient(psi), -geo.gradient(phi)
    return (_reconstructs("mixed", geo, v, [curl, grad])
            + _orthogonal("mixed pieces", geo, curl, grad))


def check_decomposition(geo, v, psi0, phi0, h):
    """curl + grad + h reconstructs v and the parts are pairwise orthogonal."""
    curl, grad = geo.perp_gradient(psi0), -geo.gradient(phi0)
    return (_reconstructs("decomposition", geo, v, [curl, grad, h])
            + _orthogonal("curl part vs grad part", geo, curl, grad)
            + _orthogonal("curl part vs h", geo, curl, h)
            + _orthogonal("grad part vs h", geo, grad, h))


# -- cold_verify ----------------------------------------------------------


def check_exit(exit_code, report):
    """The CLI run exits 0 and reports every bound satisfied."""
    if exit_code != 0 or report.get("status") != "ok":
        return [f"exit code {exit_code}, status {report.get('status')!r}"]
    if report.get("all_satisfied") is not True:
        return ["all_satisfied is not true"]
    return []


def check_bounds_hold(report):
    """One run per problem, each with lhs <= rhs."""
    runs = report.get("runs", [])
    problems = []
    if sorted(r["problem"] for r in runs) != ["mixed", "normal", "tangential"]:
        problems.append(f"expected one run per problem, got {len(runs)}")
    for r in runs:
        if not r["lhs"] <= r["rhs"]:
            problems.append(f"{r['problem']}: lhs {r['lhs']!r} > rhs {r['rhs']!r}")
    return problems


def check_shared_constants(report):
    """The normal and tangential runs report the same lambda1, delta1, C0."""
    notes = {r["problem"]: r["notes"] for r in report.get("runs", [])}
    if "normal" not in notes or "tangential" not in notes:
        return ["normal or tangential run missing"]
    return [f"{key}: normal {notes['normal'][key]!r} != tangential "
            f"{notes['tangential'][key]!r}"
            for key in ("lambda1", "delta1", "C0")
            if notes["normal"].get(key) != notes["tangential"].get(key)]


def check_lambda1(report, exact):
    """Mesh lambda1 within LAMBDA1_TOL of the exact annulus eigenvalue."""
    values = [r["notes"]["lambda1"] for r in report.get("runs", [])
              if "lambda1" in r.get("notes", {})]
    if not values:
        return ["no lambda1 reported"]
    return [f"lambda1 {lam!r} is {_rel(abs(lam - exact), exact):.3e} from {exact!r}"
            for lam in values if _rel(abs(lam - exact), exact) > LAMBDA1_TOL]


# -- mesh_roundtrip ---------------------------------------------------------


def check_refined_counts(coarse, fine):
    """4 nt triangles, nv + ne vertices, 2 nb boundary edges, V - E + T = 2 - loops.

    ``coarse`` and ``fine`` are (vertices, triangles, boundary_edges) tuples.
    """
    (pc, tc, bc), (pf, tf, bf) = coarse, fine
    problems = []
    want = {"triangles": (len(tf), 4 * len(tc)),
            "vertices": (len(pf), len(pc) + len(unique_edges(tc))),
            "boundary edges": (len(bf), 2 * len(bc))}
    for what, (got, expected) in want.items():
        if got != expected:
            problems.append(f"refined mesh has {got} {what}, expected {expected}")
    loops = len(np.unique(np.asarray(bf)[:, 2]))
    euler = len(pf) - len(unique_edges(tf)) + len(tf)
    if euler != 2 - loops:
        problems.append(f"V - E + T = {euler}, expected {2 - loops}")
    return problems


def check_refined_geometry(coarse, fine):
    """Refinement keeps area and perimeter to rounding."""
    a, b = Geometry(*coarse), Geometry(*fine)
    problems = []
    for what, x, y in (("area", a.area, b.area),
                       ("perimeter", a.perimeter, b.perimeter)):
        if _rel(abs(x - y), x) > GEOMETRY_TOL:
            problems.append(f"{what} changed from {x!r} to {y!r}")
    return problems


def check_roundtrip(saved, loaded):
    """Loaded arrays equal the saved ones exactly; both are dicts of arrays."""
    return [f"{key} differs after save and load" for key in saved
            if not np.array_equal(np.asarray(saved[key]), np.asarray(loaded[key]))]


def check_potential(geo, f, potential):
    """The path-integral potential of grad(f) equals f minus its volume mean."""
    f = np.asarray(f)
    want = f - float(geo.volume_weights @ f) / geo.area
    err = _rel(np.abs(np.asarray(potential) - want).max(), np.abs(want).max())
    return [f"potential error {err:.3e}"] if err > POTENTIAL_TOL else []
