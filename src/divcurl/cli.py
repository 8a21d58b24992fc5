"""Batch command-line front end.

Subcommands cover mesh generation and IO, eigenvalue tables, field
decomposition, the three boundary value solvers, randomized bound
verification and manufactured-solution convergence studies.  Runs emit
a JSON report (plus CSV tables and field files) into --out; reports are
byte-reproducible for a fixed seed except for the single ``timestamp``
key.  Exit codes: 0 success, 1 domain error (structured error JSON on
stdout), 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time

import numpy as np

from . import bvp, decompose, spectra
from .errors import DivCurlError
from .fem import (BoundaryFunction, ScalarField, VectorField, l2_inner,
                  l2_norm, load_field, project_boundary_function, save_field,
                  scalar_l2_norm)
from .mesh import (BoundaryPartition, generate_annulus, generate_disk,
                   generate_rectangle, load_mesh, refine_uniform, save_mesh)

_PI = np.pi


def _json_safe(obj):
    if isinstance(obj, dict):
        return {str(k): _json_safe(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_safe(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_json_safe(v) for v in obj.tolist()]
    return obj


def _write_report(out_dir, payload, name="report.json"):
    payload = dict(payload)
    payload["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    text = json.dumps(_json_safe(payload), indent=2, sort_keys=True)
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, name), "w") as fh:
            fh.write(text + "\n")
    print(text)


def _write_csv(out_dir, name, header, rows):
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _parse_gen(spec):
    """Inline generator specs: square:n=32 | disk:rings=8,sectors=64,r=1 |
    annulus:rin=0.5,rout=1,rings=4,sectors=64 | rect:nx=8,ny=4,w=2,h=1."""
    kind, _, rest = spec.partition(":")
    params = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not value:
                raise DivCurlError(f"bad generator parameter {item!r} in {spec!r}",
                                   code="BAD_GENERATOR")
            name = key.strip()
            try:
                params[name] = float(value)
            except ValueError:
                params[name] = np.nan
            if not np.isfinite(params[name]):
                raise DivCurlError(
                    f"generator parameter {name!r} in {spec!r} must be a finite "
                    f"number, got {value!r}", code="BAD_GENERATOR", parameter=name)
    try:
        if kind == "square":
            n = int(params.get("n", 16))
            return generate_rectangle(n, n, params.get("w", 1.0), params.get("h", 1.0))
        if kind == "rect":
            return generate_rectangle(int(params["nx"]), int(params["ny"]),
                                      params.get("w", 1.0), params.get("h", 1.0))
        if kind == "disk":
            return generate_disk(int(params.get("rings", 8)),
                                 int(params.get("sectors", 64)),
                                 params.get("r", 1.0))
        if kind == "annulus":
            return generate_annulus(params.get("rin", 0.5), params.get("rout", 1.0),
                                    int(params.get("rings", 4)),
                                    int(params.get("sectors", 64)))
    except KeyError as exc:
        raise DivCurlError(f"generator {spec!r} is missing parameter {exc}",
                           code="BAD_GENERATOR")
    raise DivCurlError(f"unknown generator kind {kind!r} "
                       "(expected square|rect|disk|annulus)", code="BAD_GENERATOR")


def _get_mesh(args):
    if getattr(args, "gen", None):
        return _parse_gen(args.gen)
    if getattr(args, "mesh", None):
        return load_mesh(args.mesh)
    raise DivCurlError("provide --gen or --mesh", code="NO_MESH")


def _parse_arcs(m, spec):
    """Arc lists 'loop:start:count[,loop:start:count...]' -> boundary edge rows."""
    rows = set()
    for item in spec.split(","):
        parts = item.split(":")
        if len(parts) != 3:
            raise DivCurlError(f"bad arc {item!r}; expected loop:start:count",
                               code="BAD_ARC")
        try:
            loop, start, count = (int(v) for v in parts)
        except ValueError:
            raise DivCurlError(f"bad arc {item!r}; loop, start and count must be "
                               "integers", code="BAD_ARC", arc=item) from None
        if loop < 0 or loop >= len(m.loops):
            raise DivCurlError(f"arc {item!r}: loop {loop} does not exist",
                               code="BAD_ARC")
        ring = m.loops[loop]
        if count < 1 or count > len(ring):
            raise DivCurlError(f"arc {item!r}: count out of range", code="BAD_ARC")
        for i in range(count):
            rows.add(int(ring[(start + i) % len(ring)]))
    return rows


def _parse_const(spec, flag):
    """The finite number of a ``const:<value>`` data flag."""
    try:
        value = float(spec.split(":", 1)[1])
    except ValueError:
        value = np.nan
    if not np.isfinite(value):
        raise DivCurlError(
            f"bad constant {spec!r} for {flag}; expected const:<finite number>",
            code="BAD_FIELD", flag=flag, value=spec)
    return value


def _parse_scalar(m, spec, flag):
    if spec is None:
        return None
    if spec.startswith("const:"):
        return ScalarField(m, np.full(len(m.vertices), _parse_const(spec, flag)))
    field = load_field(spec, m)
    if not isinstance(field, ScalarField):
        raise DivCurlError(f"{spec} does not hold a scalar field", code="BAD_FIELD")
    return field


def _parse_boundary(m, spec, flag):
    if spec is None:
        return None
    if spec.startswith("const:"):
        return BoundaryFunction(m, np.full(len(m.boundary_vertices),
                                           _parse_const(spec, flag)))
    field = load_field(spec, m)
    if not isinstance(field, BoundaryFunction):
        raise DivCurlError(f"{spec} does not hold a boundary function",
                           code="BAD_FIELD")
    return field


def _partition(m, args):
    gamma_nu = getattr(args, "gamma_nu", None)
    gamma_tau = getattr(args, "gamma_tau", None)
    if gamma_nu is None and gamma_tau is None:
        return BoundaryPartition.from_tags(m)
    nb = len(m.boundary_edges)
    if gamma_nu is not None:
        nu = _parse_arcs(m, gamma_nu)
        tau = _parse_arcs(m, gamma_tau) if gamma_tau else set(range(nb)) - nu
    else:
        tau = _parse_arcs(m, gamma_tau)
        nu = set(range(nb)) - tau
    return BoundaryPartition(m, frozenset(nu), frozenset(tau))


# -- subcommand handlers ------------------------------------------------


def _cmd_mesh(args):
    if args.action == "gen":
        if not args.gen:
            raise DivCurlError("mesh gen requires --gen", code="NO_MESH")
        m = _parse_gen(args.gen)
    elif args.action == "refine":
        m = refine_uniform(_get_mesh(args))
    else:
        m = _get_mesh(args)
    payload = {"command": f"mesh {args.action}", "status": "ok", "mesh": m.info()}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_mesh(m, os.path.join(args.out, "mesh.txt"))
        payload["mesh_file"] = os.path.join(args.out, "mesh.txt")
    _write_report(args.out, payload)
    return 0


def _cmd_eig(args):
    m = _get_mesh(args)
    rows = []
    h = m.h_max
    if args.which in ("lambda1", "all"):
        rows.append(("lambda1", spectra.dirichlet_lambda1(m, tol=args.eig_tol), h, 1))
    if args.which in ("lambda_m", "all"):
        rows.append(("lambda_m", spectra.neumann_lambda_m(m, tol=args.eig_tol), h, 1))
    if args.which in ("steklov", "all"):
        basis = spectra.steklov_basis(m, args.k, tol=args.eig_tol)
        for j, value in enumerate(basis.eigenvalues):
            rows.append((f"delta_{j}", float(value), h, args.k))
    if args.which == "mixed":
        if not args.gamma_nu:
            raise DivCurlError("eig --which mixed needs --gamma-nu", code="BAD_ARC")
        gamma = _parse_arcs(m, args.gamma_nu)
        lam = spectra.mixed_lambda1(m, gamma, tol=args.eig_tol)
        rows.append(("lambda1_gamma", lam, h, 1))
        rows.append(("m2_gamma", 1.0 / lam, h, 1))
    if args.out:
        _write_csv(args.out, "eigenvalues.csv", ("name", "value", "mesh_h", "k"), rows)
    payload = {"command": "eig", "status": "ok", "which": args.which,
               "table": [{"name": n, "value": v, "mesh_h": hh, "k": k}
                         for n, v, hh, k in rows]}
    _write_report(args.out, payload)
    return 0


def _cmd_decompose(args):
    m = _get_mesh(args)
    field = load_field(args.field, m)
    if not isinstance(field, VectorField):
        raise DivCurlError(f"{args.field} does not hold a vector field",
                           code="BAD_FIELD")
    dec = decompose.harmonic_decompose(field, tol=args.tol)
    rep = decompose.is_harmonic(dec.h, 1e-8)
    parts = {"curl_part": dec.curl_part, "grad_part": dec.grad_part, "h": dec.h}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        save_field(dec.psi0, os.path.join(args.out, "psi0.txt"))
        save_field(dec.phi0, os.path.join(args.out, "phi0.txt"))
        for name, part in parts.items():
            save_field(part, os.path.join(args.out, f"{name}.txt"))
    norms = {name: l2_norm(part) for name, part in parts.items()}
    pair_names = list(parts)
    payload = {
        "command": "decompose", "status": "ok",
        "norms": {**norms, "input": l2_norm(field)},
        "pairwise_inner_products": {
            f"{a}.{b}": l2_inner(parts[a], parts[b])
            for i, a in enumerate(pair_names) for b in pair_names[i + 1:]},
        "harmonicity_residual": rep.worst_ratio,
        "pythagoras_defect": l2_norm(field) ** 2 - sum(n ** 2 for n in norms.values()),
    }
    _write_report(args.out, payload)
    return 0


def _solution_payload(command, sol):
    payload = sol.report.as_dict()
    payload.update({"command": command, "status": "ok",
                    "compat_residual": sol.compat_residual})
    return payload


def _save_solution(out_dir, sol):
    if not out_dir:
        return
    os.makedirs(out_dir, exist_ok=True)
    save_field(sol.v, os.path.join(out_dir, "v.txt"))
    save_field(sol.phi, os.path.join(out_dir, "phi.txt"))
    save_field(sol.psi, os.path.join(out_dir, "psi.txt"))
    if sol.chi is not None:
        save_field(sol.chi, os.path.join(out_dir, "chi.txt"))


def _cmd_solve(args):
    m = _get_mesh(args)
    data = bvp.DivCurlData(
        mesh=m,
        rho=_parse_scalar(m, args.rho, "--rho"),
        omega=_parse_scalar(m, args.omega, "--omega"),
        eta_nu=_parse_boundary(m, args.eta_nu, "--eta-nu"),
        eta_tau=_parse_boundary(m, args.eta_tau, "--eta-tau"),
        partition=_partition(m, args) if args.problem == "mixed" else None)
    if args.problem == "normal":
        sol = bvp.solve_normal(data, tol=args.tol, eig_tol=args.eig_tol,
                               steklov_terms=args.steklov_terms)
    elif args.problem == "tangential":
        sol = bvp.solve_tangential(data, tol=args.tol, eig_tol=args.eig_tol,
                                   steklov_terms=args.steklov_terms)
    else:
        sol = bvp.solve_mixed(data, tol=args.tol, eig_tol=args.eig_tol)
    _save_solution(args.out, sol)
    _write_report(args.out, _solution_payload(f"solve-{args.problem}", sol))
    return 0


def _random_draw(m, rng, problem, partition=None):
    rho = ScalarField(m, rng.standard_normal(len(m.vertices)))
    omega = ScalarField(m, rng.standard_normal(len(m.vertices)))
    eta_nu = BoundaryFunction(m, rng.standard_normal(len(m.boundary_vertices)))
    eta_tau = BoundaryFunction(m, rng.standard_normal(len(m.boundary_vertices)))
    if problem == "normal":
        shift = bvp.check_compat_normal(rho, eta_nu) / m.perimeter
        eta_nu = eta_nu + BoundaryFunction(
            m, np.full(len(m.boundary_vertices), shift))
        return bvp.DivCurlData(mesh=m, rho=rho, omega=omega, eta_nu=eta_nu)
    if problem == "tangential":
        shift = bvp.check_compat_tangential(omega, eta_tau) / m.perimeter
        eta_tau = eta_tau + BoundaryFunction(
            m, np.full(len(m.boundary_vertices), shift))
        return bvp.DivCurlData(mesh=m, rho=rho, omega=omega, eta_tau=eta_tau)
    return bvp.DivCurlData(mesh=m, rho=rho, omega=omega, eta_nu=eta_nu,
                           eta_tau=eta_tau, partition=partition)


def _default_partition(m):
    """Half of every loop to the flux side; deterministic."""
    nu = set()
    for ring in m.loops:
        nu.update(int(r) for r in ring[:max(1, len(ring) // 2)])
    tau = set(range(len(m.boundary_edges))) - nu
    return BoundaryPartition(m, frozenset(nu), frozenset(tau))


def _cmd_verify_bounds(args):
    m = _get_mesh(args)
    rng = np.random.default_rng(args.seed)
    partition = _default_partition(m)
    solvers = {"normal": bvp.solve_normal, "tangential": bvp.solve_tangential}
    runs = []
    all_ok = True
    for problem in ("normal", "tangential", "mixed"):
        for draw in range(args.draws):
            data = _random_draw(m, rng, problem, partition)
            if problem == "mixed":
                sol = bvp.solve_mixed(data, tol=args.tol, eig_tol=args.eig_tol)
            else:
                sol = solvers[problem](data, tol=args.tol, eig_tol=args.eig_tol)
            entry = sol.report.as_dict()
            entry.update({"problem": problem, "draw": draw,
                          "compat_residual": sol.compat_residual})
            runs.append(entry)
            all_ok &= sol.report.satisfied
    payload = {"command": "verify-bounds", "status": "ok", "seed": args.seed,
               "draws": args.draws, "mesh": m.info(), "all_satisfied": all_ok,
               "runs": runs}
    _write_report(args.out, payload)
    return 0


# -- manufactured convergence cases --------------------------------------


def _vstar_normal(x, y):
    px = _PI * np.cos(_PI * x) * np.sin(_PI * y)
    py = _PI * np.sin(_PI * x) * np.cos(_PI * y)
    return py - px + 2 * x, -px - py - 2 * y


def _vstar_tangential(x, y):
    px = _PI * np.cos(_PI * x) * np.sin(_PI * y)
    py = _PI * np.sin(_PI * x) * np.cos(_PI * y)
    # harmonic part -perp_grad(x^2 - y^2) = (-(-2y), 2x) rotated:
    # perp_grad(chi) = (chi_y, -chi_x) = (-2y, -2x); v = pg(psi)-g(phi)-pg(chi)
    return py - px + 2 * y, -px - py + 2 * x


def _manufactured_case(case, m, tol, eig_tol):
    """Returns (error, reference_norm) for one mesh level."""
    sin2 = lambda x, y: 2 * _PI ** 2 * np.sin(_PI * x) * np.sin(_PI * y)
    if case == "poisson":
        rho = ScalarField.from_function(m, sin2)
        phi = bvp.solve_dirichlet_poisson(rho, tol=tol)
        exact = ScalarField.from_function(
            m, lambda x, y: np.sin(_PI * x) * np.sin(_PI * y))
        return scalar_l2_norm(phi - exact), scalar_l2_norm(exact)
    if case in ("normal", "tangential"):
        vstar = _vstar_normal if case == "normal" else _vstar_tangential
        rho = ScalarField.from_function(m, sin2)
        if case == "normal":
            eta = project_boundary_function(
                m, lambda x, y, nu, tau:
                vstar(x, y)[0] * nu[:, 0] + vstar(x, y)[1] * nu[:, 1], tol=tol)
            shift = bvp.check_compat_normal(rho, eta) / m.perimeter
            eta = eta + BoundaryFunction(m, np.full(len(m.boundary_vertices), shift))
            data = bvp.DivCurlData(mesh=m, rho=rho, omega=rho, eta_nu=eta)
            sol = bvp.solve_normal(data, tol=tol, eig_tol=eig_tol)
        else:
            eta = project_boundary_function(
                m, lambda x, y, nu, tau:
                vstar(x, y)[0] * tau[:, 0] + vstar(x, y)[1] * tau[:, 1], tol=tol)
            shift = bvp.check_compat_tangential(rho, eta) / m.perimeter
            eta = eta + BoundaryFunction(m, np.full(len(m.boundary_vertices), shift))
            data = bvp.DivCurlData(mesh=m, rho=rho, omega=rho, eta_tau=eta)
            sol = bvp.solve_tangential(data, tol=tol, eig_tol=eig_tol)
        ref = VectorField.from_function(m, vstar)
        return l2_norm(sol.v - ref), l2_norm(ref)
    if case == "mixed":
        # phi* = sin(pi x)(1 - y) vanishes on left/right/top; psi* = x(1-x) y
        # vanishes on the bottom; v* = perp_grad(psi*) - grad(phi*).
        frames = m.boundary_edge_frames
        bottom = {int(r) for r in range(len(m.boundary_edges))
                  if abs(frames[r, 0, 1] + 1.0) < 1e-12}
        partition = BoundaryPartition(
            m, frozenset(bottom),
            frozenset(set(range(len(m.boundary_edges))) - bottom))
        rho = ScalarField.from_function(
            m, lambda x, y: _PI ** 2 * np.sin(_PI * x) * (1 - y))
        omega = ScalarField.from_function(m, lambda x, y: 2 * y)

        def vstar(x, y):
            vx = x * (1 - x) - _PI * np.cos(_PI * x) * (1 - y)
            vy = -(1 - 2 * x) * y + np.sin(_PI * x)
            return vx, vy

        eta_nu = project_boundary_function(
            m, lambda x, y, nu, tau:
            vstar(x, y)[0] * nu[:, 0] + vstar(x, y)[1] * nu[:, 1], tol=tol)
        eta_tau = project_boundary_function(
            m, lambda x, y, nu, tau:
            vstar(x, y)[0] * tau[:, 0] + vstar(x, y)[1] * tau[:, 1], tol=tol)
        data = bvp.DivCurlData(mesh=m, rho=rho, omega=omega, eta_nu=eta_nu,
                               eta_tau=eta_tau, partition=partition)
        sol = bvp.solve_mixed(data, tol=tol, eig_tol=eig_tol)
        ref = VectorField.from_function(m, vstar)
        return l2_norm(sol.v - ref), l2_norm(ref)
    raise DivCurlError(f"unknown convergence case {case!r}", code="BAD_CASE")


def _cmd_convergence(args):
    rows = []
    prev_err = None
    for level in range(1, args.levels + 1):
        n = 4 * 2 ** level
        m = generate_rectangle(n, n, 1.0, 1.0)
        err, ref = _manufactured_case(args.case, m, args.tol, args.eig_tol)
        rel = err / ref
        rate = float(np.log2(prev_err / rel)) if prev_err else float("nan")
        rows.append((level, 1.0 / n, rel, rate))
        prev_err = rel
    if args.out:
        _write_csv(args.out, "convergence.csv", ("level", "h", "error", "rate"), rows)
    payload = {"command": "convergence", "status": "ok", "case": args.case,
               "table": [{"level": lv, "h": h, "error": e, "rate": r}
                         for lv, h, e, r in rows],
               "final_rate": rows[-1][3]}
    _write_report(args.out, payload)
    return 0


# -- argument parsing ----------------------------------------------------


def _add_common(parser, mesh=True):
    if mesh:
        parser.add_argument("--mesh", help="mesh file to load")
        parser.add_argument("--gen", help="inline generator, e.g. square:n=32")
    parser.add_argument("--out", help="output directory for artifacts")
    parser.add_argument("--tol", type=float, default=1e-10,
                        help="linear solve tolerance")
    parser.add_argument("--eig-tol", dest="eig_tol", type=float, default=1e-8,
                        help="eigenpair tolerance")
    parser.add_argument("--seed", type=int, default=0)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="divcurl",
        description="Planar div-curl solves, decompositions and bound reports.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("mesh", help="generate, refine or inspect meshes")
    p.add_argument("action", choices=("gen", "refine", "info"))
    _add_common(p)
    p.set_defaults(func=_cmd_mesh)

    p = sub.add_parser("eig", help="eigenvalue tables")
    p.add_argument("--which", choices=("lambda1", "lambda_m", "steklov",
                                       "mixed", "all"), default="all")
    p.add_argument("--k", type=int, default=7, help="Steklov pairs to compute")
    p.add_argument("--gamma-nu", dest="gamma_nu",
                   help="arc list loop:start:count[,...] for the mixed eigenvalue")
    _add_common(p)
    p.set_defaults(func=_cmd_eig)

    p = sub.add_parser("decompose", help="harmonic decomposition of a vector field")
    p.add_argument("--field", required=True, help="vector field file")
    _add_common(p)
    p.set_defaults(func=_cmd_decompose)

    for problem in ("normal", "tangential", "mixed"):
        p = sub.add_parser(f"solve-{problem}")
        p.add_argument("--rho", help="scalar field file or const:<value>")
        p.add_argument("--omega", help="scalar field file or const:<value>")
        p.add_argument("--eta-nu", dest="eta_nu",
                       help="boundary function file or const:<value>")
        p.add_argument("--eta-tau", dest="eta_tau",
                       help="boundary function file or const:<value>")
        p.add_argument("--gamma-nu", dest="gamma_nu",
                       help="arc list for the flux piece (mixed problem)")
        p.add_argument("--gamma-tau", dest="gamma_tau",
                       help="arc list for the tangential piece (mixed problem)")
        p.add_argument("--steklov-terms", dest="steklov_terms", type=int,
                       help="use the truncated eigenfunction series for the "
                            "pure-flux step (cross-check mode)")
        _add_common(p)
        p.set_defaults(func=_cmd_solve, problem=problem)

    p = sub.add_parser("verify-bounds",
                       help="random-data check that every bound report holds")
    p.add_argument("--draws", type=int, default=20)
    _add_common(p)
    p.set_defaults(func=_cmd_verify_bounds)

    p = sub.add_parser("convergence", help="manufactured-solution study")
    p.add_argument("--case", choices=("normal", "tangential", "mixed", "poisson"),
                   required=True)
    p.add_argument("--levels", type=int, default=4)
    _add_common(p, mesh=False)
    p.set_defaults(func=_cmd_convergence)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.tol <= 0 or args.eig_tol <= 0:
        parser.error("tolerances must be positive")
    if getattr(args, "k", 1) < 1:
        parser.error("--k must be >= 1")
    if getattr(args, "draws", 1) < 1:
        parser.error("--draws must be >= 1")
    if (getattr(args, "steklov_terms", None) or 0) < 0:
        parser.error("--steklov-terms must be >= 0")
    if getattr(args, "levels", 1) < 1:
        parser.error("--levels must be >= 1")
    try:
        return args.func(args)
    except DivCurlError as exc:
        payload = {
            "status": "error",
            "code": exc.code,
            "condition": getattr(exc, "condition", None),
            "message": str(exc),
            "context": _json_safe(exc.context),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 1


if __name__ == "__main__":
    sys.exit(main())
