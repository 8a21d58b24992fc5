"""Spans around divcurl's public functions, installed from outside the package.

``Recorder.install`` replaces every public module-level function of the
seven layers with a timing wrapper, both where it is defined and in every
divcurl module that imported it by name (``bvp.solve_spd``,
``cli.generate_annulus``, ...).  It also wraps ``Mesh`` construction and
scipy's ``splu``.  Spans (name, start, end, parent) stay in memory until
the run writes them out.  Callers must reach divcurl through module
attributes (``bvp.solve_normal``), never through names bound before
``install``.
"""

import contextlib
import functools
import importlib
import time
import types

import numpy as np
import scipy.sparse.linalg as spla

LAYERS = ("mesh", "fem", "linsolve", "spectra", "bvp", "decompose", "cli")
OP = "perfbench.op"
SETUP = "perfbench.setup"
MEASURE = "perfbench.measure"   # the recorder's own work; belongs to no layer
SPLU = "scipy.splu"

BUILD = ("mesh.generate_rectangle", "mesh.generate_disk", "mesh.generate_annulus",
         "mesh.Mesh")
ASSEMBLE = ("fem.assemble_stiffness", "fem.assemble_mass", "fem.assemble_boundary_mass")

# (name, unit, better); every value is per timed operation.
PER_LAYER = [
    ("mesh.build_s", "s", "lower"),
    ("mesh.refine_s", "s", "lower"),
    ("mesh.save_s", "s", "lower"),
    ("mesh.load_s", "s", "lower"),
    ("fem.assemble_s", "s", "lower"),
    ("fem.assemble_calls", "count", "lower"),
    ("fem.conormal_flux_s", "s", "lower"),
    ("fem.field_io_s", "s", "lower"),
    ("linsolve.solve_spd_s", "s", "lower"),
    ("linsolve.solve_spd_calls", "count", "lower"),
    ("linsolve.solve_spd_residual_max", "ratio", "lower"),
    ("linsolve.smallest_eigs_s", "s", "lower"),
    ("linsolve.smallest_eigs_calls", "count", "lower"),
    ("linsolve.splu_calls", "count", "lower"),
    ("linsolve.splu_s", "s", "lower"),
    ("linsolve.splu_fill_nnz", "count", "lower"),
    ("spectra.constants_s", "s", "lower"),
    ("spectra.calls", "count", "lower"),
    ("spectra.eig_solves_per_call", "ratio", "lower"),
    ("bvp.estimate_C0_s", "s", "lower"),
    ("bvp.estimate_C0_calls", "count", "lower"),
    ("bvp.solve_normal_s", "s", "lower"),
    ("bvp.solve_tangential_s", "s", "lower"),
    ("bvp.solve_mixed_s", "s", "lower"),
    ("decompose.harmonic_decompose_s", "s", "lower"),
    ("decompose.poincare_potential_s", "s", "lower"),
] + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]


def spd_residual(result, A, b, constraint=None, *_, **__):
    """Relative residual of a solve_spd result on its constrained subspace."""
    b = np.asarray(b, dtype=float)
    r = A @ result - b
    keep = np.ones(len(b), dtype=bool)
    kind = getattr(constraint, "kind", "NONE")
    if kind == "DIRICHLET_ZERO":
        keep[constraint.nodes] = False
    r, b = r[keep], b[keep]
    if kind in ("MEAN_ZERO", "BOUNDARY_MEAN_ZERO"):
        # the solver deflates the constants out of b first
        r, b = r - r.mean(), b - b.mean()
    norm_b = float(np.linalg.norm(b))
    return float(np.linalg.norm(r)) / norm_b if norm_b > 0.0 else float(np.linalg.norm(r))


def lu_fill(result, *_, **__):
    """nnz(L + U) of a SuperLU factorization (L's unit diagonal not counted)."""
    return float(result.L.nnz + result.U.nnz - result.shape[0])


class Recorder:
    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self.values = {}     # span index -> residual or fill measured for it
        self.names = set()   # names of the wrapped functions
        self._stack = []
        self._patches = []

    def open(self, name):
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), None,
                           self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name):
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def _wrap(self, name, fn, measure=None):
        self.names.add(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure is not None:
                with self.span(MEASURE):
                    self.values[idx] = measure(result, *args, **kwargs)
            return result
        return wrapper

    def _patch(self, owner, name, new):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    def install(self):
        package = importlib.import_module("divcurl")
        modules = {layer: importlib.import_module(f"divcurl.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == mod.__name__):
                    span = f"{layer}.{name}"
                    wrapped[obj] = self._wrap(
                        span, obj, spd_residual if span == "linsolve.solve_spd" else None)
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._patch(mod, name, wrapped[obj])
        mesh_cls = modules["mesh"].Mesh
        self._patch(mesh_cls, "__init__", self._wrap("mesh.Mesh", mesh_cls.__init__))
        self._patch(spla, "splu", self._wrap(SPLU, spla.splu, lu_fill))

    def uninstall(self):
        while self._patches:
            owner, name, old = self._patches.pop()
            setattr(owner, name, old)

    def trace(self):
        return [{"name": n, "start": s, "end": e, "parent": p} for n, s, e, p in self.spans]

    def metrics(self):
        """Per-layer metrics averaged over the spans named OP."""
        spans = self.spans
        in_op, child_time = [], [0.0] * len(spans)
        for name, start, end, parent in spans:
            in_op.append(name == OP or (parent >= 0 and in_op[parent]))
            if parent >= 0:
                child_time[parent] += end - start
        ops = sum(1 for s in spans if s[0] == OP)
        if ops == 0:
            return {}

        def ancestors(i):
            p = spans[i][3]
            while p >= 0:
                yield spans[p][0]
                p = spans[p][3]

        def outermost(names, blockers=()):
            stop = set(names) | set(blockers)
            return [i for i, s in enumerate(spans)
                    if in_op[i] and s[0] in names
                    and not any(a in stop for a in ancestors(i))]

        def seconds(*names, blockers=()):
            return sum(spans[i][2] - spans[i][1] for i in outermost(names, blockers)) / ops

        def calls(*names):
            return len(outermost(names)) / ops

        spectra_names = {n for n in self.names if n.startswith("spectra.")}
        spectra_calls = len(outermost(spectra_names))
        eigs_in_spectra = sum(1 for i in outermost({"linsolve.smallest_eigs"})
                              if any(a in spectra_names for a in ancestors(i)))
        residuals = [self.values[i] for i in outermost({"linsolve.solve_spd"})
                     if i in self.values]
        out = {
            "mesh.build_s": seconds(*BUILD, blockers=("mesh.refine_uniform", "mesh.load_mesh")),
            "mesh.refine_s": seconds("mesh.refine_uniform"),
            "mesh.save_s": seconds("mesh.save_mesh"),
            "mesh.load_s": seconds("mesh.load_mesh"),
            "fem.assemble_s": seconds(*ASSEMBLE),
            "fem.assemble_calls": calls(*ASSEMBLE),
            "fem.conormal_flux_s": seconds("fem.conormal_flux"),
            "fem.field_io_s": seconds("fem.save_field", "fem.load_field"),
            "linsolve.solve_spd_s": seconds("linsolve.solve_spd"),
            "linsolve.solve_spd_calls": calls("linsolve.solve_spd"),
            "linsolve.solve_spd_residual_max": max(residuals, default=0.0),
            "linsolve.smallest_eigs_s": seconds("linsolve.smallest_eigs"),
            "linsolve.smallest_eigs_calls": calls("linsolve.smallest_eigs"),
            "linsolve.splu_calls": calls(SPLU),
            "linsolve.splu_s": seconds(SPLU),
            "linsolve.splu_fill_nnz": sum(self.values.get(i, 0.0) for i in outermost({SPLU})) / ops,
            "spectra.constants_s": seconds(*spectra_names),
            "spectra.calls": spectra_calls / ops,
            "spectra.eig_solves_per_call": eigs_in_spectra / spectra_calls if spectra_calls else 0.0,
            "bvp.estimate_C0_s": seconds("bvp.estimate_C0"),
            "bvp.estimate_C0_calls": calls("bvp.estimate_C0"),
            "bvp.solve_normal_s": seconds("bvp.solve_normal"),
            "bvp.solve_tangential_s": seconds("bvp.solve_tangential"),
            "bvp.solve_mixed_s": seconds("bvp.solve_mixed"),
            "decompose.harmonic_decompose_s": seconds("decompose.harmonic_decompose"),
            "decompose.poincare_potential_s": seconds("decompose.poincare_potential"),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                s[2] - s[1] - child_time[i] for i, s in enumerate(spans)
                if in_op[i] and s[0].split(".", 1)[0] == layer) / ops
        return out
