"""Command-line interface: commands, exit codes, file formats, determinism."""

import json

import numpy as np
import pytest

from twocenter.cli import main


def run(args):
    return main([str(a) for a in args])


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    data = np.array([[float(cell) for cell in line.split(",")] for line in lines[1:]])
    return header, data


def test_simulate_free_motion(tmp_path):
    out = tmp_path / "free.csv"
    code = run(
        ["simulate", "--m-minus", 0, "--m-plus", 0, "--q0", "0,1,0", "--p0", "1,0,0",
         "--t-end", 1, "--out", out]
    )
    assert code == 0
    header, data = read_csv(out)
    assert header == ["t", "x", "y", "z", "px", "py", "pz", "J", "Theta", "E"]
    # straight line x = t, constant J column
    assert np.max(np.abs(data[:, 1] - data[:, 0])) <= 1e-12
    assert np.max(np.abs(data[:, 7] - data[0, 7])) <= 1e-14


def test_simulate_default_conserves_integrals(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code = run(["simulate", "--t-end", 5, "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "max relative drift" in printed
    _, data = read_csv(out)
    for col in (7, 8, 9):  # J, Theta, E
        assert np.max(np.abs(data[:, col] - data[0, col])) <= 1e-8


def test_simulate_malformed_config(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q0: 1,2\n")
    code = run(["simulate", "--config", cfg])
    assert code == 1
    err = capsys.readouterr().err
    assert err.strip().count("\n") == 0 and err.startswith("error:")


def test_simulate_collision_exit_code(tmp_path):
    out = tmp_path / "infall.csv"
    code = run(
        ["simulate", "--q0", "0.5,0,0", "--p0", "0,0,0", "--t-end", 10, "--out", out]
    )
    assert code == 2
    _, data = read_csv(out)
    assert data[-1, 0] < 10.0


def test_simulate_deterministic_output(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    ja, jb = tmp_path / "a.json", tmp_path / "b.json"
    for out, jpath in ((a, ja), (b, jb)):
        assert run(["simulate", "--t-end", 2, "--seed", 9, "--out", out, "--json", jpath]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert ja.read_bytes() == jb.read_bytes()


def test_project_stationary_rows(tmp_path):
    src = tmp_path / "still.csv"
    rows = ["t,x,y,z,px,py,pz"] + [f"{t},0,0,0,0,0,0" for t in (0.0, 0.5, 1.0, 1.5)]
    src.write_text("\n".join(rows) + "\n")
    out = tmp_path / "proj.csv"
    assert run(["project", "--input", src, "--out", out]) == 0
    header, data = read_csv(out)
    assert header == ["tau", "X", "Y", "Z", "W", "Xp", "Yp", "Zp", "Wp", "G"]
    assert np.allclose(data[:, 0], [0.0, 0.5, 1.0, 1.5], atol=1e-15)  # tau = t
    assert np.allclose(data[:, 1:5], [[0, 0, 0, 1]] * 4, atol=1e-15)
    assert np.allclose(data[:, 9], -2.0, atol=1e-14)  # G = -(m- + m+) at a = 1


def test_project_roundtrip_against_simulation(tmp_path):
    src = tmp_path / "orbit.csv"
    assert run(["simulate", "--t-end", 3, "--out", src]) == 0
    out = tmp_path / "proj.csv"
    assert run(["project", "--input", src, "--out", out]) == 0
    _, planar = read_csv(src)
    _, proj = read_csv(out)
    # unprojecting the ellipsoid columns reproduces the planar positions
    for i in (1, 2, 3):
        assert np.max(np.abs(proj[:, i] / proj[:, 4] - planar[:, i])) <= 1e-10
    # G is the lifted energy and stays constant along the projected orbit
    assert np.max(np.abs(proj[:, 9] - proj[0, 9])) <= 1e-8


def test_project_empty_input(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    assert run(["project", "--input", empty]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_project_inline_config(tmp_path):
    out = tmp_path / "proj.csv"
    assert run(["project", "--t-end", 1, "--out", out]) == 0
    _, data = read_csv(out)
    assert data.shape[1] == 10


def test_verify_theorem_passes(tmp_path, capsys):
    jpath = tmp_path / "verify.json"
    code = run(["verify-theorem", "--samples", 2000, "--tau-end", 2, "--json", jpath])
    assert code == 0
    printed = capsys.readouterr().out
    assert printed.count("PASS") == 4
    assert "FAIL" not in printed
    payload = json.loads(jpath.read_text())
    assert all(check["passed"] for check in payload["checks"].values())
    # the documented tolerances appear verbatim in the report
    tolerances = {name: check["tolerance"] for name, check in payload["checks"].items()}
    assert tolerances["pointwise-relation"] == 1e-10
    assert tolerances["two-route-equivalence"] == 1e-6
    assert tolerances["ellipsoidal-energy-drift"] == 1e-8
    assert tolerances["velocity-independence"] == 1e-6


def test_verify_theorem_general_a_with_fit(capsys):
    code = run(["verify-theorem", "--a", 2, "--fit", "--samples", 512, "--tau-end", 1])
    assert code == 0
    printed = capsys.readouterr().out
    assert "fitted relation" in printed
    assert "PASS pointwise-relation" in printed
    assert "PASS fit-relation" in printed


def test_verify_theorem_kepler_mode(capsys):
    code = run(
        ["verify-theorem", "--m-plus", 0, "--a", 0.0001, "--q0", "1,1,0.5",
         "--p0", "0.2,0.4,0.1", "--tau-end", 1]
    )
    assert code == 0
    printed = capsys.readouterr().out
    assert "kepler-limit" in printed


def test_verify_theorem_failure_exit_code(capsys):
    # released at rest between the centers: the planar route collides, so
    # the two-route check cannot be completed and must report failure
    code = run(["verify-theorem", "--q0", "0.5,0,0", "--p0", "0,0,0", "--samples", 500])
    assert code == 3
    assert "FAIL" in capsys.readouterr().out


def test_fit_relation_output(capsys):
    code = run(["fit-relation", "--a", 2, "--m-minus", 1, "--m-plus", 3, "--samples", 512])
    assert code == 0
    printed = capsys.readouterr().out
    lam = {}
    for line in printed.strip().splitlines():
        key, _, value = line.partition("=")
        lam[key.strip()] = float(value)
    assert abs(lam["lambda_J"] - 0.4) <= 1e-9
    assert abs(lam["lambda_E"] - 0.2) <= 1e-9
    assert abs(lam["lambda_theta2"] + 0.16) <= 1e-9
    assert lam["max residual"] <= 1e-8


def test_coords_forward(capsys):
    assert run(["coords", "--q0", "0,1,0"]) == 0
    printed = capsys.readouterr().out
    values = dict(line.split(" = ") for line in printed.strip().splitlines())
    assert float(values["alpha"]) == pytest.approx(np.sqrt(2), abs=1e-15)
    assert float(values["beta"]) == 0.0
    assert float(values["theta"]) == pytest.approx(1.5 * np.pi, abs=1e-14)
    assert values["degenerate"] == "false"


def test_coords_inverse(capsys):
    assert run(["coords", "--inverse", "--alpha", 2, "--beta", 0.5, "--theta", 0]) == 0
    printed = capsys.readouterr().out
    q = [float(v) for v in printed.strip().split(" = ")[1].split(",")]
    assert q[0] == pytest.approx(1.0, abs=1e-15)  # alpha * beta at a = 1
    assert run(["coords", "--inverse", "--alpha", 2]) == 1


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nm_minus: 0\nm_plus: 0\nq0: 0,1,0\np0: 1,0,0\nt_end: 2\n")
    out = tmp_path / "t.csv"
    assert run(["simulate", "--config", cfg, "--t-end", 1, "--out", out]) == 0
    _, data = read_csv(out)
    assert data[-1, 0] == pytest.approx(1.0, abs=0)  # flag wins over file
