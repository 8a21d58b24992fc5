import contextlib
import io
import json

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import divcurl as dc
from divcurl.cli import main
from conftest import dense_pencil


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_mesh_gen_info_refine_round_trip(tmp_path, capsys):
    out = tmp_path / "gen"
    code, report = run(capsys, "mesh", "gen", "--gen", "annulus:rin=0.5,rout=1,rings=2,sectors=24",
                       "--out", str(out))
    assert code == 0
    assert report["mesh"]["holes"] == 1
    code, report = run(capsys, "mesh", "refine", "--mesh", str(out / "mesh.txt"),
                       "--out", str(tmp_path / "ref"))
    assert code == 0
    assert report["mesh"]["triangles"] == 4 * 2 * 2 * 24
    code, report = run(capsys, "mesh", "info", "--mesh", str(out / "mesh.txt"),
                       "--out", str(tmp_path / "info"))
    assert code == 0
    assert report["mesh"]["loops"] == 2


def test_eig_table_contains_lambda1(tmp_path, capsys):
    code, report = run(capsys, "eig", "--gen", "square:n=24", "--which", "lambda1",
                       "--out", str(tmp_path / "eig"))
    assert code == 0
    row = report["table"][0]
    assert row["name"] == "lambda1"
    assert abs(row["value"] - 2 * np.pi ** 2) / (2 * np.pi ** 2) < 0.02
    csv_text = (tmp_path / "eig" / "eigenvalues.csv").read_text()
    assert csv_text.splitlines()[0] == "name,value,mesh_h,k"


def test_solve_normal_incompatible_cites_condition(capsys):
    code, report = run(capsys, "solve-normal", "--gen", "square:n=8",
                       "--rho", "const:1", "--eta-nu", "const:0")
    assert code == 1
    assert report["status"] == "error"
    assert report["code"] == "INCOMPATIBLE_DATA"
    assert "div-flux balance" in report["condition"]
    assert "residual" in report["message"]


def test_solve_normal_writes_fields_and_report(tmp_path, capsys):
    out = tmp_path / "sol"
    # rho = 1 over the unit square balances eta_nu = 1/4 over the perimeter
    code, report = run(capsys, "solve-normal", "--gen", "square:n=8",
                       "--rho", "const:1", "--eta-nu", "const:0.25",
                       "--out", str(out))
    assert code == 0
    assert report["satisfied"] is True
    assert set(report["terms"]) == {"lambda1_term", "delta1_term", "C0_term"}
    for name in ("v.txt", "phi.txt", "psi.txt", "chi.txt", "report.json"):
        assert (out / name).exists()
    m = dc.generate_rectangle(8, 8, 1.0, 1.0)
    v = dc.load_field(out / "v.txt", m)
    assert isinstance(v, dc.VectorField)
    assert abs(dc.l2_norm(v) - report["lhs"]) < 1e-12


def test_solve_mixed_with_arc_partition(tmp_path, capsys):
    code, report = run(capsys, "solve-mixed", "--gen", "square:n=8",
                       "--rho", "const:1", "--gamma-nu", "0:0:8",
                       "--out", str(tmp_path / "mixed"))
    assert code == 0
    assert report["satisfied"] is True
    assert set(report["terms"]) == {"m2_phi_term", "m2_psi_term"}


def test_decompose_subcommand(tmp_path, capsys):
    m = dc.generate_rectangle(6, 6, 1.0, 1.0)
    rng = np.random.default_rng(0)
    v = dc.VectorField(m, rng.standard_normal((len(m.triangles), 2)))
    mesh_path = tmp_path / "mesh.txt"
    field_path = tmp_path / "v.txt"
    dc.save_mesh(m, mesh_path)
    dc.save_field(v, field_path)
    out = tmp_path / "dec"
    code, report = run(capsys, "decompose", "--mesh", str(mesh_path),
                       "--field", str(field_path), "--out", str(out))
    assert code == 0
    assert report["harmonicity_residual"] < 1e-8
    assert abs(report["pythagoras_defect"]) < 1e-9 * report["norms"]["input"] ** 2
    for name in ("psi0.txt", "phi0.txt", "curl_part.txt", "grad_part.txt", "h.txt"):
        assert (out / name).exists()


def test_convergence_poisson_rate(tmp_path, capsys):
    code, report = run(capsys, "convergence", "--case", "poisson", "--levels", "3",
                       "--out", str(tmp_path / "conv"))
    assert code == 0
    errors = [row["error"] for row in report["table"]]
    assert all(b < a for a, b in zip(errors, errors[1:]))
    assert 1.8 <= report["final_rate"] <= 2.2
    lines = (tmp_path / "conv" / "convergence.csv").read_text().splitlines()
    assert lines[0] == "level,h,error,rate"
    assert len(lines) == 4


def test_verify_bounds_deterministic(tmp_path, capsys):
    args = ("verify-bounds", "--gen", "square:n=6", "--draws", "4", "--seed", "7")
    code_a, rep_a = run(capsys, *args, "--out", str(tmp_path / "a"))
    code_b, rep_b = run(capsys, *args, "--out", str(tmp_path / "b"))
    assert code_a == code_b == 0
    assert rep_a["all_satisfied"] and rep_b["all_satisfied"]
    text_a = (tmp_path / "a" / "report.json").read_text()
    text_b = (tmp_path / "b" / "report.json").read_text()
    ja, jb = json.loads(text_a), json.loads(text_b)
    ja.pop("timestamp"), jb.pop("timestamp")
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_verify_bounds_seed_changes_runs(tmp_path, capsys):
    _, rep_a = run(capsys, "verify-bounds", "--gen", "square:n=6", "--draws", "2",
                   "--seed", "1")
    _, rep_b = run(capsys, "verify-bounds", "--gen", "square:n=6", "--draws", "2",
                   "--seed", "2")
    assert rep_a["runs"][0]["lhs"] != rep_b["runs"][0]["lhs"]


def test_verify_bounds_factor_count(monkeypatch, capsys):
    # lambda1, C0 (K_ii and B_bb), delta1 (K + B), two M2, and the solves'
    # single-precision factors; the Steklov Sturm count is not needed
    import scipy.sparse.linalg as spla

    calls = []
    splu = spla.splu
    monkeypatch.setattr(spla, "splu", lambda *a, **k: calls.append(1) or splu(*a, **k))
    code, _ = run(capsys, "verify-bounds", "--gen",
                  "annulus:rin=0.5,rout=1,rings=4,sectors=24", "--draws", "1",
                  "--seed", "3")
    assert code == 0
    assert len(calls) == 11


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as err:
        main(["eig", "--which", "bogus"])
    assert err.value.code == 2


def test_bad_mesh_file_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("$vertices zzz\n")
    code, report = run(capsys, "mesh", "info", "--mesh", str(bad))
    assert code == 1
    assert report["code"] == "MESH_FORMAT"
    assert report["context"]["line"] == 1


def exit_code(argv):
    """main's return value, or the code of a usage error's SystemExit."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_bad_field_count_is_domain_error(tmp_path, capsys):
    bad = tmp_path / "rho.txt"
    bad.write_text("$scalar abc\n")
    code = exit_code(["solve-normal", "--gen", "square:n=4", "--rho", str(bad),
                      "--eta-nu", "const:0"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["code"] == "MESH_FORMAT"
    assert report["context"]["line"] == 1


@pytest.mark.parametrize("flag", ["--rho", "--eta-nu"])
def test_bad_const_is_domain_error(flag, capsys):
    code = exit_code(["solve-normal", "--gen", "square:n=4", "--eta-nu", "const:0",
                      flag, "const:abc"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["code"] == "BAD_FIELD"
    assert "const:abc" in report["message"]


def test_bad_arc_number_is_domain_error(capsys):
    code = exit_code(["solve-mixed", "--gen", "square:n=4", "--gamma-nu", "a:b:c"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["code"] == "BAD_ARC"
    assert "a:b:c" in report["message"]


def _field_lines(m, kind):
    """Header and valid data lines of a zero field of the given kind on m."""
    if kind == "scalar":
        return f"$scalar {len(m.vertices)}", ["0.0"] * len(m.vertices)
    if kind == "vector":
        return f"$vector {len(m.triangles)}", ["0.0 0.0"] * len(m.triangles)
    return (f"$boundary {len(m.boundary_vertices)}",
            [f"{i} 0.0" for i in m.boundary_vertices])


@pytest.mark.parametrize("kind, bad, argv", [
    ("scalar", "abc", ["solve-normal", "--eta-nu", "const:0", "--rho"]),
    ("boundary", "x 0.0", ["solve-normal", "--eta-nu"]),
    ("vector", "0.5", ["decompose", "--field"]),
    ("scalar", "1.0 junk 7", ["solve-normal", "--eta-nu", "const:0", "--rho"]),
    ("vector", "0.5 0.5 0.5", ["decompose", "--field"]),
    ("scalar", "nan", ["solve-normal", "--eta-nu", "const:0", "--rho"]),
    ("vector", "0.0 -inf", ["decompose", "--field"]),
    ("boundary", "0 1e999", ["solve-normal", "--eta-nu"]),
    ("boundary", "0 0.0", ["solve-normal", "--eta-nu"]),  # vertex 0 listed twice
])
def test_bad_field_data_line_is_domain_error(kind, bad, argv, tmp_path, capsys):
    header, lines = _field_lines(dc.generate_rectangle(4, 4, 1.0, 1.0), kind)
    lines[3] = bad
    path = tmp_path / f"{kind}.txt"
    path.write_text("\n".join([header] + lines) + "\n")
    code = exit_code(argv[:1] + ["--gen", "square:n=4"] + argv[1:] + [str(path)])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["code"] == "MESH_FORMAT"
    assert report["context"]["line"] == 5


@pytest.mark.parametrize("kind, edit, code, line", [
    ("scalar", lambda header, lines: [header] + lines[:-1], "MESH_FORMAT", 41),
    ("scalar", lambda header, lines: [header] + lines + ["0.0"], "MESH_FORMAT", 43),
    ("scalar", lambda header, lines: ["$scalar -1"] + lines, "MESH_FORMAT", 1),
    ("scalar", lambda header, lines: ["$scalar 3"] + lines[:3], "MESH_FORMAT", 1),
    ("scalar", lambda header, lines: [], "MESH_FORMAT", 1),
    ("boundary", lambda header, lines: [header, "# vertex 6 is interior", ""]
     + lines[:3] + ["6 0.0"] + lines[4:], "MESH_INDEX", 7),
], ids=["truncated", "overlong", "negative-count", "wrong-size", "empty", "interior-vertex"])
def test_field_file_fault_names_its_line(kind, edit, code, line, tmp_path):
    m = dc.generate_rectangle(4, 4, 1.0, 1.0)  # 41 vertices
    path = tmp_path / f"{kind}.txt"
    path.write_text("".join(f"{row}\n" for row in edit(*_field_lines(m, kind))))
    with pytest.raises(dc.MeshError) as err:
        dc.load_field(path, m)
    assert (err.value.code, err.value.line) == (code, line)


def test_bad_generator_number_is_domain_error(capsys):
    code = exit_code(["mesh", "gen", "--gen", "square:n=abc"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["code"] == "BAD_GENERATOR"
    assert "'n'" in report["message"]


def test_eig_k_zero_is_usage_error(capsys):
    assert exit_code(["eig", "--gen", "square:n=4", "--k", "0"]) == 2
    assert "--k" in capsys.readouterr().err


def test_negative_steklov_terms_is_usage_error(capsys):
    assert exit_code(["solve-tangential", "--gen", "square:n=4",
                      "--steklov-terms", "-1"]) == 2
    assert "--steklov-terms" in capsys.readouterr().err


def test_zero_convergence_levels_is_usage_error(capsys):
    assert exit_code(["convergence", "--case", "poisson", "--levels", "0"]) == 2
    assert "--levels" in capsys.readouterr().err


@pytest.mark.parametrize("draws", ["0", "-1"])
def test_nonpositive_draws_is_usage_error(draws, capsys):
    assert exit_code(["verify-bounds", "--gen", "square:n=4", "--draws", draws]) == 2
    assert "--draws" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_nonfinite_const_is_bad_field(value, capsys):
    code = exit_code(["solve-normal", "--gen", "square:n=4", "--eta-nu", "const:0",
                      "--rho", f"const:{value}"])
    assert code == 1
    report = json.loads(capsys.readouterr().out)
    assert report["code"] == "BAD_FIELD"
    assert report["context"] == {"flag": "--rho", "value": f"const:{value}"}
    assert "--rho" in report["message"] and f"const:{value}" in report["message"]


@pytest.mark.parametrize("spec, code", [
    ("square:n=8,w=1e200,h=1e-200", "MESH_INVALID"),
    ("square:n=2,h=1e308", "MESH_INVALID"),
    ("square:n=1,h=1e-200", "MESH_INVALID"),
    ("square:n=1,w=1e150,h=1e-300", "MESH_INVALID"),
    ("disk:rings=2,sectors=8,r=1e-200", "MESH_INVALID"),
])
def test_extreme_generator_scale_is_domain_error(spec, code, capsys):
    # degenerate scales: the float32 preconditioner or the mass matrix
    # over- or underflows
    with np.errstate(all="ignore"):
        assert exit_code(["solve-normal", "--gen", spec, "--omega", "const:1"]) == 1
    assert json.loads(capsys.readouterr().out)["code"] == code


def test_eig_small_mesh_matches_dense_reference(capsys):
    # k = 16 is every boundary vertex of square:n=4: the whole trace space
    m = dc.generate_rectangle(4, 4, 1.0, 1.0)
    K, M = dc.assemble_stiffness(m), dc.assemble_mass(m)
    steklov, _ = dense_pencil(K, dc.assemble_boundary_mass(m))
    dirichlet, _ = dense_pencil(K, M, m.interior_vertices)
    for which, k, expect in (("steklov", "16", steklov), ("lambda1", "9", dirichlet[:1])):
        code, report = run(capsys, "eig", "--gen", "square:n=4", "--which", which,
                           "--k", k)
        assert code == 0
        values = np.asarray([row["value"] for row in report["table"]])
        assert np.abs(values - expect).max() <= 1e-8 * max(1.0, expect.max())


# -- fuzzing solve-normal's --gen and const: specs ------------------------

_SIZES = {"square": ("n",), "rect": ("nx", "ny"), "disk": ("rings", "sectors"),
          "annulus": ("rings", "sectors")}
_LENGTHS = {"square": ("w", "h"), "rect": ("w", "h"), "disk": ("r",),
            "annulus": ("rin", "rout")}
_BAD_NUMBERS = ["", "abc", "nan", "inf", "-inf", "1e999", "0x10", "1,5"]
# Sizes stay at most 8, so every mesh is at most 8x8 cells.  Repeating a
# strategy in one_of weights it, so most specs build a mesh.
_sizes = st.integers(1, 8).map(str)
_size_values = st.one_of(_sizes, _sizes, _sizes,
                         st.sampled_from(["0", "-2", "2.5"] + _BAD_NUMBERS))
_lengths = st.floats(0.1, 10.0).map(repr)
_length_values = st.one_of(
    _lengths, _lengths, st.sampled_from(["0", "-1", "1e-200", "1e-300", "1e200", "1e308"]),
    st.sampled_from(_BAD_NUMBERS))
# None and const:0 balance each other, so some draws solve.
_const_specs = st.one_of(
    st.none(), st.just("const:0"),
    st.floats(-1e3, 1e3).map(lambda x: f"const:{x!r}"),
    st.sampled_from(["const:", "const:abc", "const:nan", "const:-inf",
                     "const:1e999", "const:1e308", "const:-1e308", "const:1e-320"]))


@st.composite
def _gen_specs(draw):
    kind = draw(st.sampled_from([*_SIZES, *_SIZES, "cube"]))
    if kind not in _SIZES:
        return f"{kind}:n=2"
    items = [f"{key}={draw(_size_values)}" for key in _SIZES[kind]]
    items += [f"{key}={draw(_length_values)}" for key in _LENGTHS[kind]
              if draw(st.booleans())]
    if draw(st.integers(0, 3)) == 3:
        items.append(draw(st.sampled_from(["n", "=3", "w=", "x=1"])))
    return f"{kind}:" + ",".join(draw(st.permutations(items)))


@settings(derandomize=True, max_examples=30, deadline=None)
@given(_gen_specs(), _const_specs, _const_specs, _const_specs)
@example("annulus:rings=2,sectors=8,rin=0.25", None, "const:-2.5", "const:0")
@example("disk:rings=2,sectors=8", "const:1", None, "const:0.5")
def test_solve_normal_fuzz_exits_cleanly(spec, rho, omega, eta_nu):
    argv = ["solve-normal", "--gen", spec]
    for flag, value in (("--rho", rho), ("--omega", omega), ("--eta-nu", eta_nu)):
        if value is not None:
            argv += [flag, value]
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = exit_code(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert json.loads(out.getvalue())["status"] == "ok"
    elif code == 1:
        report = json.loads(out.getvalue())
        assert report["status"] == "error" and report["code"]


# -- generator specs, tolerances and per-subcommand flags -----------------


@pytest.mark.parametrize("spec, key", [
    ("square:=3", ""), ("square:x=1", "x"), ("square:n=3,n=4", "n"),
    ("disk:rings=2.5,sectors=8", "rings"), ("rect:nx=2", "ny"),
])
def test_bad_generator_key_is_domain_error(spec, key, capsys):
    assert exit_code(["solve-normal", "--gen", spec]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["code"] == "BAD_GENERATOR"
    assert report["context"] == {"parameter": key}
    assert repr(key) in report["message"]


@pytest.mark.parametrize("flag", ["--tol", "--eig-tol"])
@pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
def test_bad_tolerance_is_usage_error(flag, value, capsys):
    assert exit_code(["solve-normal", "--gen", "square:n=4", flag, value]) == 2
    assert f"argument {flag}:" in capsys.readouterr().err


def test_empty_gamma_tau_is_domain_error(capsys):
    code = exit_code(["solve-mixed", "--gen", "square:n=4", "--gamma-nu", "0:0:8",
                      "--gamma-tau", ""])
    assert code == 1
    assert json.loads(capsys.readouterr().out)["code"] == "BAD_ARC"


_BASE_ARGV = {
    "mesh": ["mesh", "info", "--gen", "square:n=2"],
    "eig": ["eig", "--gen", "square:n=2"],
    "decompose": ["decompose", "--gen", "square:n=2", "--field", "v.txt"],
    "solve-normal": ["solve-normal", "--gen", "square:n=2"],
    "solve-tangential": ["solve-tangential", "--gen", "square:n=2"],
    "solve-mixed": ["solve-mixed", "--gen", "square:n=2"],
    "verify-bounds": ["verify-bounds", "--gen", "square:n=2"],
    "convergence": ["convergence", "--case", "poisson"],
}
_UNREAD_FLAGS = {
    "mesh": ["--tol", "--eig-tol", "--seed"],
    "eig": ["--tol", "--seed"],
    "decompose": ["--eig-tol", "--seed"],
    "solve-normal": ["--eta-tau", "--gamma-nu", "--gamma-tau", "--seed", "--eta"],
    "solve-tangential": ["--gamma-nu", "--gamma-tau", "--seed"],
    "solve-mixed": ["--steklov-terms", "--seed"],
    "convergence": ["--seed"],
    # prefixes of flags the handler reads are not abbreviations of them
    "verify-bounds": ["--draw"],
}


@pytest.mark.parametrize("command, flag", [
    (command, flag) for command, flags in _UNREAD_FLAGS.items() for flag in flags])
def test_flag_the_handler_does_not_read_is_usage_error(command, flag, capsys):
    assert exit_code(_BASE_ARGV[command] + [flag, "1"]) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command", [c for c in _BASE_ARGV if c != "convergence"])
def test_mesh_next_to_gen_is_usage_error(command, tmp_path, capsys):
    # the file is never opened: the parser rejects the pair first
    assert exit_code(_BASE_ARGV[command] + ["--mesh", str(tmp_path / "absent.txt")]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


# -- fuzzing arc specs, mesh files and field files ------------------------


def assert_exits_cleanly(argv):
    """main returns 0, 1 or 2 without raising; exit 1 prints a coded error."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
            np.errstate(all="ignore"):
        code = exit_code(argv)
    assert code in (0, 1, 2)
    if code == 0:
        assert json.loads(out.getvalue())["status"] == "ok"
    elif code == 1:
        report = json.loads(out.getvalue())
        assert report["status"] == "error" and report["code"]


_arcs = st.tuples(st.integers(0, 1), st.integers(-10, 20), st.integers(1, 8)).map(
    lambda t: ":".join(map(str, t)))
_arc_items = st.one_of(  # weighted towards well-formed arcs, as in _size_values
    _arcs, _arcs, _arcs,
    st.sampled_from(["", "0", "0:1", "0:0:1:1", "a:b:c", "0:0:2.5", "0: 0:4", "0:0:1e3",
                     "-1:0:3", "2:0:3", "0:0:0", "0:0:9",
                     "0:99999999999999999999:3", "0:0:99999999999999999999"]))
_arc_specs = st.lists(_arc_items, min_size=1, max_size=3).map(",".join)
_ARC_MESHES = ["square:n=2", "annulus:rin=0.5,rout=1,rings=1,sectors=8"]


@settings(derandomize=True, max_examples=30, deadline=None)
@given(st.sampled_from(_ARC_MESHES), st.sampled_from(["nu", "tau", "both", "eig"]),
       _arc_specs, _arc_specs)
@example(_ARC_MESHES[1], "both", "1:0:8", "0:0:8")
@example(_ARC_MESHES[0], "eig", "0:6:4", "")
def test_arc_spec_fuzz_exits_cleanly(gen, target, nu, tau):
    if target == "eig":
        argv = ["eig", "--gen", gen, "--which", "mixed", f"--gamma-nu={nu}"]
    else:
        argv = ["solve-mixed", "--gen", gen, "--rho", "const:1"]
        argv += [f"--gamma-nu={nu}"] if target in ("nu", "both") else []
        argv += [f"--gamma-tau={tau}"] if target in ("tau", "both") else []
    assert_exits_cleanly(argv)


# mostly small numbers, which keep a file readable but change the mesh or field
_TOKENS = [*"0123456789", "16", "-1", "0.5", "2.5", "1e308", "-1e-300", "nan", "-inf",
           "abc", "99999999999999999999", "", "#", "$vertices", "$triangles",
           "$boundary_edges", "$scalar", "$vector", "$boundary"]
# (operation, line, column or second line, token); indices are taken modulo
# the current length, so every edit applies to any file
_edits = st.lists(st.tuples(st.sampled_from(["drop", "repeat", "swap", "cut", *["token"] * 4]),
                            st.integers(0, 999), st.integers(0, 999),
                            st.sampled_from(_TOKENS)), min_size=1, max_size=3)


def _edited(text, edits):
    lines = text.splitlines()
    for op, i, j, token in edits:
        if not lines:
            break
        i, j = i % len(lines), j % len(lines)
        if op == "drop":
            del lines[i]
        elif op == "repeat":
            lines.insert(i, lines[i])
        elif op == "swap":
            lines[i], lines[j] = lines[j], lines[i]
        elif op == "cut":
            del lines[i:]
        else:
            parts = lines[i].split() or [""]
            parts[j % len(parts)] = token
            lines[i] = " ".join(parts)
    return "".join(f"{line}\n" for line in lines)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    dc.save_mesh(dc.generate_annulus(0.5, 1.0, 1, 8), path / "mesh.txt")
    dc.save_field(dc.ScalarField.zeros(dc.generate_rectangle(4, 4, 1.0, 1.0)),
                  path / "rho.txt")
    return path


@settings(derandomize=True, max_examples=30, deadline=None)
@given(edits=_edits)
def test_mesh_file_fuzz_exits_cleanly(fuzz_dir, edits):
    path = fuzz_dir / "edited_mesh.txt"
    path.write_text(_edited((fuzz_dir / "mesh.txt").read_text(), edits))
    assert_exits_cleanly(["mesh", "info", "--mesh", str(path)])


@settings(derandomize=True, max_examples=30, deadline=None)
@given(edits=_edits)
def test_field_file_fuzz_exits_cleanly(fuzz_dir, edits):
    path = fuzz_dir / "edited_rho.txt"
    path.write_text(_edited((fuzz_dir / "rho.txt").read_text(), edits))
    assert_exits_cleanly(["solve-normal", "--gen", "square:n=4", "--eta-nu", "const:0",
                          "--rho", str(path)])
