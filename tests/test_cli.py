import json

import numpy as np
import pytest

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
