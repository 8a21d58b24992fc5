"""Batch command-line front end.

Subcommands cover mesh generation and IO, eigenvalue tables, field
decomposition, the three boundary value solvers, randomized bound
verification and manufactured-solution convergence studies.  Each
subcommand accepts only the flags its handler reads (``_COMMANDS``),
spelled in full.  Every flag is defined once in ``_OPTIONS``, and
argparse rejects any other flag, ``--mesh`` next to ``--gen``, a count
below its minimum and a tolerance that is not positive and finite.
``--gen kind:key=value,...`` builds a mesh from ``_GENERATORS``; an
unknown kind or key, an empty, repeated or missing key, a non-finite
number and a fractional size are BAD_GENERATOR errors.  Runs emit a
JSON report (plus CSV tables and field files) into --out; reports are
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
from dataclasses import replace
from typing import Callable, NamedTuple

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


# kind -> (builder, {key: (type, default)}); a key whose default is None
# is required.  The builders look the generators up when called, so the
# timing wrappers perfbench/spans.py installs on this module see each call.
_GENERATORS = {
    "square": (lambda p: generate_rectangle(p["n"], p["n"], p["w"], p["h"]),
               {"n": (int, 16), "w": (float, 1.0), "h": (float, 1.0)}),
    "rect": (lambda p: generate_rectangle(p["nx"], p["ny"], p["w"], p["h"]),
             {"nx": (int, None), "ny": (int, None), "w": (float, 1.0), "h": (float, 1.0)}),
    "disk": (lambda p: generate_disk(p["rings"], p["sectors"], p["r"]),
             {"rings": (int, 8), "sectors": (int, 64), "r": (float, 1.0)}),
    "annulus": (lambda p: generate_annulus(p["rin"], p["rout"], p["rings"], p["sectors"]),
                {"rin": (float, 0.5), "rout": (float, 1.0), "rings": (int, 4),
                 "sectors": (int, 64)}),
}


def _parse_gen(spec):
    """The mesh of an inline generator spec ``kind:key=value,...``."""
    kind, _, rest = spec.partition(":")
    if kind not in _GENERATORS:
        raise DivCurlError(f"unknown generator kind {kind!r} "
                           f"(expected {'|'.join(_GENERATORS)})", code="BAD_GENERATOR")
    build, keys = _GENERATORS[kind]
    params = {}
    for item in rest.split(",") if rest else ():
        name, _, text = item.partition("=")
        name = name.strip()
        if name not in keys or name in params:
            why = "repeated" if name in params else f"unknown (expected {', '.join(keys)})"
            raise DivCurlError(f"generator parameter {name!r} in {spec!r} is {why}",
                               code="BAD_GENERATOR", parameter=name)
        convert = keys[name][0]
        try:
            value = float(text)
        except ValueError:
            value = np.nan
        if not np.isfinite(value) or (convert is int and not value.is_integer()):
            raise DivCurlError(
                f"generator parameter {name!r} in {spec!r} must be a finite "
                f"{'integer' if convert is int else 'number'}, got {text!r}",
                code="BAD_GENERATOR", parameter=name)
        params[name] = convert(value)
    for name, (_, default) in keys.items():
        if params.setdefault(name, default) is None:
            raise DivCurlError(f"generator {spec!r} is missing parameter {name!r}",
                               code="BAD_GENERATOR", parameter=name)
    return build(params)


def _get_mesh(args):
    if args.gen:
        return _parse_gen(args.gen)
    if args.mesh:
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


# DivCurlData's data fields, each read from the flag of its name; a solve-*
# subcommand without that flag leaves the field None
_DATA = (("rho", ScalarField), ("omega", ScalarField),
         ("eta_nu", BoundaryFunction), ("eta_tau", BoundaryFunction))


def _parse_data(m, spec, name, kind):
    """The field of data flag --<name>: a field file, or const:<value>."""
    if spec is None:
        return None
    flag = "--" + name.replace("_", "-")
    if spec.startswith("const:"):
        try:
            value = float(spec.split(":", 1)[1])
        except ValueError:
            value = np.nan
        if not np.isfinite(value):
            raise DivCurlError(
                f"bad constant {spec!r} for {flag}; expected const:<finite number>",
                code="BAD_FIELD", flag=flag, value=spec)
        nodes = m.vertices if kind is ScalarField else m.boundary_vertices
        return kind(m, np.full(len(nodes), value))
    field = load_field(spec, m)
    if not isinstance(field, kind):
        raise DivCurlError(f"{spec} does not hold a {kind.__name__} for {flag}",
                           code="BAD_FIELD")
    return field


def _partition(m, args):
    """The arcs of --gamma-nu and --gamma-tau; either defaults to the
    complement of the other, and the mesh's tags serve when both are absent."""
    if args.gamma_nu is None and args.gamma_tau is None:
        return BoundaryPartition.from_tags(m)
    nu, tau = (None if spec is None else _parse_arcs(m, spec)
               for spec in (args.gamma_nu, args.gamma_tau))
    every = set(range(len(m.boundary_edges)))
    return BoundaryPartition(m, frozenset(every - tau if nu is None else nu),
                             frozenset(every - nu if tau is None else tau))


class _Solver(NamedTuple):
    solve: Callable             # (data, tol, eig_tol, steklov_terms=None) -> solution
    eta: str | None             # the datum random and manufactured data shift
    residual: Callable | None   # (data) -> the compatibility residual of eta


# problem -> solver.  The lambdas look the solvers up when called, so the
# timing wrappers perfbench/spans.py installs on bvp see each call.
_SOLVERS = {
    "normal": _Solver(
        lambda data, tol, eig_tol, terms=None: bvp.solve_normal(
            data, tol=tol, eig_tol=eig_tol, steklov_terms=terms),
        "eta_nu", lambda data: bvp.check_compat_normal(data.rho, data.eta_nu)),
    "tangential": _Solver(
        lambda data, tol, eig_tol, terms=None: bvp.solve_tangential(
            data, tol=tol, eig_tol=eig_tol, steklov_terms=terms),
        "eta_tau", lambda data: bvp.check_compat_tangential(data.omega, data.eta_tau)),
    "mixed": _Solver(
        lambda data, tol, eig_tol, terms=None: bvp.solve_mixed(
            data, tol=tol, eig_tol=eig_tol),
        None, None),
}


def _balanced(problem, m, rho, omega, eta):
    """Normal or tangential data whose boundary datum is eta shifted by the
    constant that makes the compatibility residual vanish."""
    solver = _SOLVERS[problem]
    data = bvp.DivCurlData(mesh=m, rho=rho, omega=omega, **{solver.eta: eta})
    shift = solver.residual(data) / m.perimeter
    return replace(data, **{solver.eta: eta + BoundaryFunction(
        m, np.full(len(m.boundary_vertices), shift))})


# -- subcommand handlers ------------------------------------------------


def _cmd_mesh(args):
    if args.action == "gen" and not args.gen:
        raise DivCurlError("mesh gen requires --gen", code="NO_MESH")
    m = _get_mesh(args)
    if args.action == "refine":
        m = refine_uniform(m)
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


def _cmd_solve(args):
    m = _get_mesh(args)
    problem = args.command.removeprefix("solve-")
    data = bvp.DivCurlData(
        mesh=m, **{name: _parse_data(m, getattr(args, name, None), name, kind)
                   for name, kind in _DATA},
        partition=_partition(m, args) if problem == "mixed" else None)
    sol = _SOLVERS[problem].solve(data, args.tol, args.eig_tol,
                                  getattr(args, "steklov_terms", None))
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        for name in ("v", "phi", "psi", "chi"):
            if getattr(sol, name) is not None:  # the mixed solution has no chi
                save_field(getattr(sol, name), os.path.join(args.out, f"{name}.txt"))
    payload = sol.report.as_dict()
    payload.update({"command": args.command, "status": "ok",
                    "compat_residual": sol.compat_residual})
    _write_report(args.out, payload)
    return 0


def _random_draw(m, rng, problem, partition):
    rho = ScalarField(m, rng.standard_normal(len(m.vertices)))
    omega = ScalarField(m, rng.standard_normal(len(m.vertices)))
    eta_nu = BoundaryFunction(m, rng.standard_normal(len(m.boundary_vertices)))
    eta_tau = BoundaryFunction(m, rng.standard_normal(len(m.boundary_vertices)))
    if problem == "mixed":
        return bvp.DivCurlData(mesh=m, rho=rho, omega=omega, eta_nu=eta_nu,
                               eta_tau=eta_tau, partition=partition)
    return _balanced(problem, m, rho, omega, eta_nu if problem == "normal" else eta_tau)


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
    runs = []
    all_ok = True
    for problem, solver in _SOLVERS.items():
        for draw in range(args.draws):
            data = _random_draw(m, rng, problem, partition)
            sol = solver.solve(data, args.tol, args.eig_tol)
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


def _vstar_mixed(x, y):
    # phi* = sin(pi x)(1 - y) vanishes on left/right/top; psi* = x(1-x) y
    # vanishes on the bottom; v* = perp_grad(psi*) - grad(phi*).
    vx = x * (1 - x) - _PI * np.cos(_PI * x) * (1 - y)
    vy = -(1 - 2 * x) * y + np.sin(_PI * x)
    return vx, vy


def _trace(m, vstar, tangential, tol):
    """Projection of vstar . tau (tangential) or vstar . nu onto the boundary."""
    def component(x, y, nu, tau):
        frame = tau if tangential else nu
        return vstar(x, y)[0] * frame[:, 0] + vstar(x, y)[1] * frame[:, 1]
    return project_boundary_function(m, component, tol=tol)


def _manufactured_case(case, m, tol, eig_tol):
    """Returns (error, reference_norm) for one mesh level."""
    sin2 = lambda x, y: 2 * _PI ** 2 * np.sin(_PI * x) * np.sin(_PI * y)
    if case == "poisson":
        rho = ScalarField.from_function(m, sin2)
        phi = bvp.solve_dirichlet_poisson(rho, tol=tol)
        exact = ScalarField.from_function(
            m, lambda x, y: np.sin(_PI * x) * np.sin(_PI * y))
        return scalar_l2_norm(phi - exact), scalar_l2_norm(exact)
    if case == "mixed":
        vstar = _vstar_mixed
        frames = m.boundary_edge_frames
        bottom = {int(r) for r in range(len(m.boundary_edges))
                  if abs(frames[r, 0, 1] + 1.0) < 1e-12}
        data = bvp.DivCurlData(
            mesh=m,
            rho=ScalarField.from_function(
                m, lambda x, y: _PI ** 2 * np.sin(_PI * x) * (1 - y)),
            omega=ScalarField.from_function(m, lambda x, y: 2 * y),
            eta_nu=_trace(m, vstar, False, tol), eta_tau=_trace(m, vstar, True, tol),
            partition=BoundaryPartition(
                m, frozenset(bottom),
                frozenset(set(range(len(m.boundary_edges))) - bottom)))
    else:
        vstar = _vstar_normal if case == "normal" else _vstar_tangential
        rho = ScalarField.from_function(m, sin2)
        data = _balanced(case, m, rho, rho, _trace(m, vstar, case == "tangential", tol))
    sol = _SOLVERS[case].solve(data, tol, eig_tol)
    ref = VectorField.from_function(m, vstar)
    return l2_norm(sol.v - ref), l2_norm(ref)


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


def _checked(convert, ok, what):
    """An argparse type: convert(text), which must satisfy ok."""
    def parse(text):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {what}, got {text!r}")
    return parse


_TOL = _checked(float, lambda x: 0 < x < np.inf, "a positive finite number")
_COUNT = _checked(int, lambda n: n >= 0, "an integer >= 0")
_SIZE = _checked(int, lambda n: n >= 1, "an integer >= 1")

# Every flag, defined once; argparse derives the attribute from the name.
_OPTIONS = {
    "action": dict(choices=("gen", "refine", "info")),
    "--mesh": dict(help="mesh file to load"),
    "--gen": dict(help="inline generator, e.g. square:n=32"),
    "--out": dict(help="output directory for artifacts"),
    "--tol": dict(type=_TOL, default=1e-10, help="linear solve tolerance"),
    "--eig-tol": dict(type=_TOL, default=1e-8, help="eigenpair tolerance"),
    "--seed": dict(type=_COUNT, default=0, help="seed of the random data"),
    "--which": dict(choices=("lambda1", "lambda_m", "steklov", "mixed", "all"),
                    default="all"),
    "--k": dict(type=_SIZE, default=7, help="Steklov pairs to compute"),
    "--field": dict(required=True, help="vector field file"),
    "--rho": dict(help="scalar field file or const:<value>"),
    "--omega": dict(help="scalar field file or const:<value>"),
    "--eta-nu": dict(help="boundary function file or const:<value>"),
    "--eta-tau": dict(help="boundary function file or const:<value>"),
    "--gamma-nu": dict(help="arc list loop:start:count[,...] of the flux piece"),
    "--gamma-tau": dict(help="arc list of the tangential piece "
                             "(default: the rest of the boundary)"),
    "--steklov-terms": dict(type=_COUNT,
                            help="use the truncated eigenfunction series for the "
                                 "pure-flux step (cross-check mode)"),
    "--draws": dict(type=_SIZE, default=20, help="random draws per problem"),
    "--case": dict(choices=(*_SOLVERS, "poisson"), required=True),
    "--levels": dict(type=_SIZE, default=4, help="mesh levels n = 8, 16, 32, ..."),
}

_MESH = (("--mesh", "--gen"), "--out")
_SOLVE = (*_MESH, "--tol", "--eig-tol", "--rho", "--omega", "--eta-nu")
# subcommand -> (handler, help, the flags the handler reads); a tuple of
# flags is a mutually exclusive group
_COMMANDS = {
    "mesh": (_cmd_mesh, "generate, refine or inspect meshes", ("action", *_MESH)),
    "eig": (_cmd_eig, "eigenvalue tables",
            (*_MESH, "--eig-tol", "--which", "--k", "--gamma-nu")),
    "decompose": (_cmd_decompose, "harmonic decomposition of a vector field",
                  (*_MESH, "--tol", "--field")),
    "solve-normal": (_cmd_solve, "normal component prescribed on the boundary",
                     (*_SOLVE, "--steklov-terms")),
    "solve-tangential": (_cmd_solve, "tangential component prescribed on the boundary",
                         (*_SOLVE, "--eta-tau", "--steklov-terms")),
    "solve-mixed": (_cmd_solve, "normal component on gamma_nu, tangential on gamma_tau",
                    (*_SOLVE, "--eta-tau", "--gamma-nu", "--gamma-tau")),
    "verify-bounds": (_cmd_verify_bounds, "random-data check that every bound report holds",
                      (*_MESH, "--tol", "--eig-tol", "--seed", "--draws")),
    "convergence": (_cmd_convergence, "manufactured-solution study",
                    ("--out", "--tol", "--eig-tol", "--case", "--levels")),
}


def build_parser():
    # No abbreviations: a prefix such as --eta must not pass for the one
    # flag of that prefix a subcommand happens to have.
    parser = argparse.ArgumentParser(
        prog="divcurl", allow_abbrev=False,
        description="Planar div-curl solves, decompositions and bound reports.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (func, help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text, allow_abbrev=False)
        for flag in flags:
            exclusive = isinstance(flag, tuple)
            group = p.add_mutually_exclusive_group() if exclusive else p
            for option in flag if exclusive else (flag,):
                group.add_argument(option, **_OPTIONS[option])
        p.set_defaults(func=func)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
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
