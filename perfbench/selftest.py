"""Self-test of the benchmark's checks.

    python3 perfbench/selftest.py

Runs one operation of each workload (warm_draws on a 16x16 square to stay
quick), requires every check to pass on divcurl's output, then applies
deliberately wrong changes to that output and requires the named check to
reject each one.  Exits 0 when all of that holds.
"""

import copy
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.dont_write_bytecode = True
sys.path.insert(0, os.path.join(ROOT, "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402


def _replace(out, key, index, value):
    out = copy.deepcopy(out)
    parts = list(out[key])
    parts[index] = value
    out[key] = tuple(parts)
    return out


def _perturbed(a, k, delta):
    a = np.array(a, dtype=float)
    a[k] += delta
    return a


def warm_cases(wl, out):
    geo = checks.Geometry(wl.mesh.vertices, wl.mesh.triangles, wl.mesh.boundary_edges)
    k = int(geo.interior_vertices[len(geo.interior_vertices) // 2])
    x, y = wl.mesh.vertices[:, 0], wl.mesh.vertices[:, 1]

    def scaled_report(name):
        o = copy.deepcopy(out)
        v, report = o["reports"][name]
        o["reports"][name] = (v * 1.001, report)
        return o

    def unsatisfied(o):
        o = copy.deepcopy(o)
        o["reports"]["mixed"][1]["satisfied"] = False
        return o

    def mixed_nonorthogonal(o):
        # phi + 0.1 x has a trace on gamma_tau; v is rebuilt to match
        _, phi, psi = o["mixed"]
        phi = phi + 0.1 * x
        return {**o, "mixed": (geo.perp_gradient(psi) - geo.gradient(phi), phi, psi)}

    def decomposition_nonorthogonal(o):
        # potentials with traces; h is rebuilt so the sum still equals v
        v, psi0, phi0, h = o["dec"]
        scale = 0.1 * geo.norm(v) / np.sqrt(geo.area)
        psi0, phi0 = psi0 + scale * x, phi0 + scale * y
        h = v - geo.perp_gradient(psi0) + geo.gradient(phi0)
        return {**o, "dec": (v, psi0, phi0, h)}

    phi = out["mixed"][1]
    phi0 = out["dec"][2]
    return [
        ("reports", "normal v scaled by 1.001", scaled_report("normal")),
        ("reports", "mixed report marked unsatisfied", unsatisfied(out)),
        ("normal_pairings", "normal v scaled by 1.001", scaled_report("normal")),
        ("tangential_pairings", "tangential v scaled by 1.001",
         scaled_report("tangential")),
        ("mixed", "one phi value perturbed",
         _replace(out, "mixed", 1, _perturbed(phi, k, 1e-3 * np.abs(phi).max()))),
        ("mixed", "pieces not orthogonal, v rebuilt", mixed_nonorthogonal(out)),
        ("decomposition", "one phi0 value perturbed",
         _replace(out, "dec", 2, _perturbed(phi0, k, 1e-3 * np.abs(phi0).max()))),
        ("decomposition", "parts not orthogonal, h rebuilt",
         decomposition_nonorthogonal(out)),
    ]


def cold_cases(code, report):
    def edited(fn):
        r = copy.deepcopy(report)
        fn(r)
        return code, r

    def run(r, problem):
        return next(x for x in r["runs"] if x["problem"] == problem)

    return [
        ("exit", "exit code 1", (1, report)),
        ("exit", "all_satisfied false",
         edited(lambda r: r.update(all_satisfied=False))),
        ("bounds_hold", "normal lhs above rhs",
         edited(lambda r: run(r, "normal").update(lhs=run(r, "normal")["rhs"] * 1.001))),
        ("shared_constants", "tangential delta1 changed",
         edited(lambda r: run(r, "tangential")["notes"].update(
             delta1=run(r, "tangential")["notes"]["delta1"] * 1.001))),
        ("lambda1", "lambda1 off by 1 %",
         edited(lambda r: [x["notes"].update(lambda1=x["notes"]["lambda1"] * 1.01)
                           for x in r["runs"] if "lambda1" in x["notes"]])),
    ]


def roundtrip_cases(out):
    vertices, triangles, bedges = out["fine"]
    dropped = {**out, "fine": (vertices, triangles[1:], bedges)}
    v = np.array(out["loaded_v"])
    v[7, 0] = np.nextafter(v[7, 0], np.inf)
    p = out["potential"]
    return [
        ("refined_counts", "one triangle dropped from the refined mesh", dropped),
        ("refined_geometry", "one triangle dropped from the refined mesh", dropped),
        ("roundtrip", "one loaded field value one ulp off", {**out, "loaded_v": v}),
        ("roundtrip", "one loaded vertex moved",
         _replace(out, "loaded", 0, _perturbed(out["loaded"][0], (3, 1), 1e-9))),
        ("potential", "one potential value perturbed",
         {**out, "potential": _perturbed(p, 5, 1e-9 * np.abs(p).max())}),
    ]


def verdicts(verify, *args):
    return {name: problems for name, problems in verify(*args)}


def main():
    workdir = os.path.join(ROOT, ".bench_out", f"selftest-{os.getpid()}")
    os.makedirs(workdir)
    failures = []
    try:
        warm = workloads.WarmDraws(7, workdir, n=16)
        warm.setup()
        out = warm.op(1)
        suites = [(warm.name, warm.verify, (out,),
                   [(c, d, (o,)) for c, d, o in warm_cases(warm, out)])]

        cold = workloads.ColdVerify(7, workdir)
        code = cold.op(1)
        report = cold.report()
        suites.append((cold.name, cold.verify, (code, report),
                       cold_cases(code, report)))

        trip = workloads.MeshRoundtrip(7, workdir)
        trip.setup()
        out = trip.op(1)
        suites.append((trip.name, trip.verify, (out,),
                       [(c, d, (o,)) for c, d, o in roundtrip_cases(out)]))

        for name, verify, clean, cases in suites:
            base = verdicts(verify, *clean)
            for check, problems in base.items():
                ok = not problems
                print(f"{'PASS' if ok else 'FAIL'} {name}.{check} accepts correct output"
                      + ("" if ok else f": {problems}"))
                if not ok:
                    failures.append(f"{name}.{check} on correct output")
            for check in set(base) - {c for c, _, _ in cases}:
                failures.append(f"{name}.{check} has no corruption case")
            for check, description, args in cases:
                rejected = bool(verdicts(verify, *args)[check])
                print(f"{'PASS' if rejected else 'FAIL'} {name}.{check} rejects: {description}")
                if not rejected:
                    failures.append(f"{name}.{check} accepted: {description}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for f in failures:
        print(f"selftest failure: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
