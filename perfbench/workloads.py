"""The three workloads: setup, one operation, and the checks of its output.

Each workload is driven as a closed loop by one caller.  divcurl is
reached through module attributes only, so the spans installed by
``spans.Recorder`` see every call.
"""

import contextlib
import io
import json
import os

import numpy as np

import checks
from divcurl import bvp, cli, decompose, fem, mesh, spectra


def op_seed(seed, i):
    """Seed of operation i (0 is the warm-up) of a run with workload seed ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


def _arrays(m):
    return m.vertices, m.triangles, m.boundary_edges


class WarmDraws:
    """Fresh data on a fixed n=128 crossed-diagonal square; constants are warm."""

    name = "warm_draws"

    def __init__(self, seed, workdir, n=128):
        self.seed, self.n = seed, n
        self.mesh = self.geo = self.geo_mesh = None

    def setup(self):
        m = mesh.generate_rectangle(self.n, self.n, 1.0, 1.0)
        nu = set()
        for ring in m.loops:
            nu.update(int(r) for r in ring[:len(ring) // 2])
        tau = set(range(len(m.boundary_edges))) - nu
        self.partition = mesh.BoundaryPartition(m, frozenset(nu), frozenset(tau))
        # Warm-up: the constants at the tolerances the solvers use by default
        # (eig_tol=1e-8, and C0 at min(1e-6, 100 eig_tol)).
        spectra.dirichlet_lambda1(m, tol=1e-8)
        spectra.steklov_basis(m, 2, tol=1e-8)
        bvp.estimate_C0(m, tol=1e-6)
        spectra.m2_gamma(m, sorted(tau), tol=1e-8)
        spectra.m2_gamma(m, sorted(nu), tol=1e-8)
        self.mesh = m

    def op(self, i):
        m = self.mesh
        rng = np.random.default_rng(op_seed(self.seed, i))
        nv, nbv = len(m.vertices), len(m.boundary_vertices)
        rho = fem.ScalarField(m, rng.standard_normal(nv))
        omega = fem.ScalarField(m, rng.standard_normal(nv))
        eta_nu = fem.BoundaryFunction(m, rng.standard_normal(nbv))
        eta_tau = fem.BoundaryFunction(m, rng.standard_normal(nbv))
        shift_nu = bvp.check_compat_normal(rho, eta_nu) / m.perimeter
        shift_tau = bvp.check_compat_tangential(omega, eta_tau) / m.perimeter
        eta_nu_c = fem.BoundaryFunction(m, eta_nu.values + shift_nu)
        eta_tau_c = fem.BoundaryFunction(m, eta_tau.values + shift_tau)
        normal = bvp.solve_normal(bvp.DivCurlData(m, rho, omega, eta_nu=eta_nu_c))
        tangential = bvp.solve_tangential(bvp.DivCurlData(m, rho, omega, eta_tau=eta_tau_c))
        mixed = bvp.solve_mixed(bvp.DivCurlData(m, rho, omega, eta_nu, eta_tau,
                                                self.partition))
        dec = decompose.harmonic_decompose(normal.v)
        return {
            "rho": rho.coeffs, "omega": omega.coeffs,
            "eta_nu": eta_nu_c.values, "eta_tau": eta_tau_c.values,
            "reports": {name: (sol.v.values, sol.report.as_dict())
                        for name, sol in (("normal", normal), ("tangential", tangential),
                                          ("mixed", mixed))},
            "mixed": (mixed.v.values, mixed.phi.coeffs, mixed.psi.coeffs),
            "dec": (normal.v.values, dec.psi0.coeffs, dec.phi0.coeffs, dec.h.values),
        }

    def verify(self, out):
        """(name, problems) for every check of one operation's output."""
        if self.geo_mesh is not self.mesh:
            self.geo, self.geo_mesh = checks.Geometry(*_arrays(self.mesh)), self.mesh
        geo = self.geo
        v_n, v_t = out["reports"]["normal"][0], out["reports"]["tangential"][0]
        return [
            ("reports", checks.check_reports(geo, out["reports"])),
            ("normal_pairings", checks.check_normal_pairings(
                geo, v_n, out["rho"], out["omega"], out["eta_nu"])),
            ("tangential_pairings", checks.check_tangential_pairings(
                geo, v_t, out["rho"], out["omega"], out["eta_tau"])),
            ("mixed", checks.check_mixed(geo, *out["mixed"])),
            ("decomposition", checks.check_decomposition(geo, *out["dec"])),
        ]


class ColdVerify:
    """One in-process ``verify-bounds`` CLI run on a fresh 4,000-vertex annulus."""

    name = "cold_verify"
    GEN = "annulus:rin=0.5,rout=1,rings=24,sectors=160"

    def __init__(self, seed, workdir):
        self.seed = seed
        self.out_dir = os.path.join(workdir, "cold_verify")
        self.exact_lambda1 = checks.annulus_lambda1(0.5, 1.0)

    def setup(self):
        self.op(0)

    def op(self, i):
        argv = ["verify-bounds", "--gen", self.GEN, "--draws", "1",
                "--seed", str(op_seed(self.seed, i)), "--out", self.out_dir]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        return code

    def report(self):
        with open(os.path.join(self.out_dir, "report.json")) as fh:
            return json.load(fh)

    def verify(self, code, report=None):
        report = self.report() if report is None else report
        return [
            ("exit", checks.check_exit(code, report)),
            ("bounds_hold", checks.check_bounds_hold(report)),
            ("shared_constants", checks.check_shared_constants(report)),
            ("lambda1", checks.check_lambda1(report, self.exact_lambda1)),
        ]


class MeshRoundtrip:
    """Refine a disk, write and read it back with a field, rebuild a potential."""

    name = "mesh_roundtrip"

    def __init__(self, seed, workdir):
        a, b, c, d = np.random.default_rng(seed).uniform(0.5, 2.0, 4)
        # The fixed smooth function whose P1 interpolant's gradient is round-tripped.
        self.fn = lambda x, y: np.sin(a * x + b) * np.cos(c * y) + d * x * y
        self.mesh_path = os.path.join(workdir, "mesh.txt")
        self.field_path = os.path.join(workdir, "field.txt")
        self.disk = None

    def setup(self):
        self.disk = mesh.generate_disk(24, 96, 1.0)
        self.op(0)

    def op(self, i):
        fine = mesh.refine_uniform(self.disk)
        mesh.save_mesh(fine, self.mesh_path)
        loaded = mesh.load_mesh(self.mesh_path)
        f = fem.ScalarField.from_function(loaded, self.fn)
        v = fem.gradient(f)
        fem.save_field(v, self.field_path)
        loaded_v = fem.load_field(self.field_path, loaded)
        potential = decompose.poincare_potential(loaded_v)
        return {"fine": _arrays(fine), "loaded": _arrays(loaded), "f": f.coeffs,
                "v": v.values, "loaded_v": loaded_v.values, "potential": potential.coeffs}

    def verify(self, out):
        keys = ("vertices", "triangles", "boundary_edges", "field")
        saved = dict(zip(keys, (*out["fine"], out["v"])))
        loaded = dict(zip(keys, (*out["loaded"], out["loaded_v"])))
        return [
            ("refined_counts", checks.check_refined_counts(_arrays(self.disk), out["fine"])),
            ("refined_geometry", checks.check_refined_geometry(_arrays(self.disk), out["fine"])),
            ("roundtrip", checks.check_roundtrip(saved, loaded)),
            ("potential", checks.check_potential(
                checks.Geometry(*out["loaded"]), out["f"], out["potential"])),
        ]


WORKLOADS = {cls.name: cls for cls in (WarmDraws, ColdVerify, MeshRoundtrip)}
