"""Command-line interface: commands, exit codes, file formats, determinism."""

import argparse
import contextlib
import io
import json
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from twocenter import (
    PhasePoint,
    Problem,
    energy_arrays,
    integrate,
    integrate_planar,
    lift_arrays,
    make_rng,
    projective,
    reparametrize_time,
    verify,
)
from twocenter.cli import _write_rows, main, make_parser


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


def test_simulate_lands_on_a_short_end_time(tmp_path):
    """A last step that starts before half the end time is cut to t_end - t, and t + h
    rounds one ulp short of this end time: the run must not end in step_underflow."""
    out = tmp_path / "short.csv"
    end = 0.006349534848195604
    assert run(["simulate", "--m-minus", 0, "--m-plus", 0, "--t-end", repr(end), "--out", out]) == 0
    _, data = read_csv(out)
    assert data[-1, 0] == end


def test_simulate_default_conserves_integrals(tmp_path, capsys):
    out = tmp_path / "orbit.csv"
    code = run(["simulate", "--t-end", 5, "--out", out])
    assert code == 0
    printed = capsys.readouterr().out
    assert "max relative drift" in printed
    _, data = read_csv(out)
    for col in (7, 8, 9):  # J, Theta, E
        assert np.max(np.abs(data[:, col] - data[0, col])) <= 1e-8


def test_parser_is_built_once_and_each_call_parses_afresh(tmp_path, capsys):
    """Flags of one call leak into no later call: after a fitted a = 2 run with
    few samples and a simulate, a plain verify-theorem prints what it prints
    through a newly built parser."""
    assert make_parser() is make_parser()
    fitted, plain = tmp_path / "fitted.json", tmp_path / "plain.json"
    assert run(["verify-theorem", "--a", 2, "--fit", "--samples", 500, "--tau-end", 1, "--json", fitted]) == 0
    assert "[500 points]" in capsys.readouterr().out
    assert run(["simulate", "--t-end", 1, "--out", tmp_path / "orbit.csv"]) == 0
    capsys.readouterr()
    args = ["verify-theorem", "--tau-end", 1, "--json", plain]
    assert run(args) == 0
    printed = capsys.readouterr().out
    assert "[10000 points]" in printed
    assert "fit" in json.loads(fitted.read_text()) and "fit" not in json.loads(plain.read_text())
    make_parser.cache_clear()
    assert run(args) == 0
    assert capsys.readouterr().out == printed


def test_simulate_malformed_config(tmp_path, capsys):
    """A config value that does not parse is refused on one line naming the file, the line and the key."""
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("q0: 1,2\n")
    code = run(["simulate", "--config", cfg])
    assert code == 1
    assert capsys.readouterr().err == f"error: {cfg}:1: q0 must be three comma-separated numbers, got '1,2'\n"


def test_repeated_config_key_is_refused(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("a: 1\n# the same key again\na: 2\n")
    assert run(["simulate", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {cfg}:3: repeated key 'a'\n"


@pytest.mark.parametrize("args, refusal", [
    pytest.param(["simulate", "--m-minus", "abc"], "--m-minus must be a number, got 'abc'", id="float"),
    pytest.param(["simulate", "--q0", "1,2"], "--q0 must be three comma-separated numbers, got '1,2'", id="vector"),
    pytest.param(["fit-relation", "--samples", "1e3"], "--samples must be an integer, got '1e3'", id="int"),
])
def test_unparsable_flag_value_names_the_flag(args, refusal, capsys):
    assert run(args) == 1
    assert capsys.readouterr().err == f"error: {refusal}\n"


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


def test_fit_uses_at_most_4096_samples(capsys):
    assert run(["fit-relation", "--a", 2, "--samples", 4096]) == 0
    capped = capsys.readouterr().out
    assert run(["fit-relation", "--a", 2, "--samples", 100_000]) == 0
    assert capsys.readouterr().out == capped


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("# comment line\nm_minus: 0\nm_plus: 0\nq0: 0,1,0\np0: 1,0,0\nt_end: 2\n")
    out = tmp_path / "t.csv"
    assert run(["simulate", "--config", cfg, "--t-end", 1, "--out", out]) == 0
    _, data = read_csv(out)
    assert data[-1, 0] == pytest.approx(1.0, abs=0)  # flag wins over file


# exit 2 from a refused evaluation: one "aborted:" line naming the guard
ABORTED = {"start-at-center", "center-row-input", "near-center-row-input"}


def _repeated_rows(prob, n, rng, **kwargs):
    return np.tile([0.0, 2.0, 0.0], (n, 1)), np.tile([0.3, 0.0, 0.6], (n, 1))


@pytest.mark.parametrize(
    "args, code, rank_deficient",
    [
        pytest.param(["simulate", "--config", "{tmp}/bad.cfg"], 1, False, id="malformed-config"),
        pytest.param(["simulate", "--t-end", 1, "--out", "{tmp}/missing/x.csv"], 1, False, id="unwritable-out"),
        pytest.param(["simulate", "--t-end", 1, "--out", "{tmp}/x.csv", "--json", "{tmp}/missing/x.json"], 1, False,
                     id="unwritable-json"),
        pytest.param(["simulate", "--q0", "1,0,0", "--out", "{tmp}/x.csv"], 2, False, id="start-at-center"),
        pytest.param(["simulate", "--q0", "0.5,0,0", "--p0", "0,0,0", "--t-end", 10, "--out", "{tmp}/x.csv"], 2, False,
                     id="infall"),
        pytest.param(["simulate", "--m-minus", 1e160, "--m-plus", 1e160, "--out", "{tmp}/x.csv"], 2, False,
                     id="huge-masses"),
        pytest.param(["verify-theorem", "--m-minus", 1e160, "--m-plus", 1e160, "--samples", 500], 3, False,
                     id="huge-masses-verify"),
        pytest.param(["verify-theorem", "--q0", "nan,0,0"], 1, False, id="nonfinite-start-verify"),
        pytest.param(["simulate", "--a", 1e300, "--t-end", 1, "--out", "{tmp}/x.csv"], 1, False,
                     id="overflowing-half-distance"),
        pytest.param(["verify-theorem", "--q0", "1e155,0,0", "--tau-end", 1, "--samples", 100], 1, False,
                     id="overflowing-lift"),
        # E grows as a^2 p^2: the pointwise relation's residual overflows, a failed check
        pytest.param(["verify-theorem", "--a", 1.34e154, "--tau-end", 0.5, "--samples", 50], 3, False,
                     id="overflowing-relation-residual"),
        # Q'_x = p_x |(q, 1)|_* - x (Q, p)_* is inf - inf here
        pytest.param(["verify-theorem", "--q0", "3,0,0", "--p0", "1.5e308,0,0", "--tau-end", 1, "--samples", 100], 1,
                     False, id="overflowing-lifted-velocity"),
        # the diagnostics overflow to inf: an inf drift (exit 2), or a refused tau grid, never a numpy warning
        pytest.param(["simulate", "--q0", "1e155,0,0", "--t-end", 1, "--out", "{tmp}/x.csv"], 2, False,
                     id="overflowing-first-integrals"),
        pytest.param(["project", "--q0", "1e155,0,0", "--t-end", 1, "--out", "{tmp}/x.csv"], 1, False,
                     id="overflowing-star-norm"),
        pytest.param(["simulate", "--p0", "1e200,0,0", "--t-end", 1, "--out", "{tmp}/x.csv"], 2, False,
                     id="overflowing-velocity"),
        pytest.param(["verify-theorem", "--p0", "1e200,0,0", "--tau-end", 1, "--samples", 100], 3, False,
                     id="overflowing-velocity-verify"),
        pytest.param(["project", "--input", "{tmp}/overflow.csv", "--out", "{tmp}/x.csv"], 2, False,
                     id="overflowing-energy-input"),
        # p is not dq/dt there: the quadrature's tau step would exceed the t step (tau = 1e198 at t = 1)
        pytest.param(["project", "--input", "{tmp}/tau_beyond_t.csv", "--out", "{tmp}/x.csv"], 1, False,
                     id="tau-beyond-t-input"),
        pytest.param(["project", "--input", "{tmp}/overflow_lift.csv", "--out", "{tmp}/x.csv"], 1, False,
                     id="overflowing-lift-input"),
        # Q within the collision guard of a scaled center: G is refused, as the intrinsic run refuses it
        pytest.param(["project", "--input", "{tmp}/center.csv", "--out", "{tmp}/x.csv"], 2, False,
                     id="center-row-input"),
        pytest.param(["project", "--input", "{tmp}/near_center.csv", "--out", "{tmp}/x.csv"], 2, False,
                     id="near-center-row-input"),
        pytest.param(["project", "--input", "{tmp}/header_only.csv"], 1, False, id="header-only-input"),
        pytest.param(["project", "--input", "{tmp}/ragged.csv"], 1, False, id="ragged-input"),
        pytest.param(["project", "--input", "{tmp}/malformed.csv"], 1, False, id="malformed-input"),
        pytest.param(["project", "--input", "{tmp}/narrow.csv"], 1, False, id="rows-narrower-than-header"),
        pytest.param(["fit-relation", "--samples", 64], 3, True, id="rank-deficient-fit"),
        pytest.param(["verify-theorem", "--fit", "--samples", 200, "--tau-end", 0.5], 3, True,
                     id="rank-deficient-verify-fit"),
        # E grows as a^2 p^2: the fit refuses its overflowing design by name, before numpy or LAPACK warns
        pytest.param(["fit-relation", "--a", 1e154, "--samples", 50], 1, False, id="overflowing-fit"),
        pytest.param(["verify-theorem", "--a", 1e154, "--fit", "--tau-end", 0.5, "--samples", 50], 1, False,
                     id="overflowing-verify-fit"),
        pytest.param(["fit-relation", "--seed", -1], 1, False, id="negative-seed"),
        pytest.param(["verify-theorem", "--seed", 2**64], 1, False, id="seed-beyond-uint64"),
        # a numpy index, but not the bytes of its (n, 3) draw: refused by name before anything is allocated
        pytest.param(["verify-theorem", "--samples", 2**62, "--tau-end", 0.1], 1, False, id="samples-beyond-bytes"),
        pytest.param(["frobnicate"], 1, False, id="unknown-subcommand"),
        # elliptic coordinates are not part of the construction: no coords subcommand, no alpha key
        pytest.param(["coords", "--q0", "0,1,0"], 1, False, id="coords-subcommand"),
        pytest.param(["simulate", "--config", "{tmp}/alpha.cfg"], 1, False, id="alpha-config-key"),
        # one tolerance, relative and absolute both: the two retired keys and flags are unknown
        pytest.param(["simulate", "--config", "{tmp}/rel_tol.cfg"], 1, False, id="retired-tolerance-key"),
        pytest.param(["simulate", "--rel-tol", 1e-6, "--t-end", 1, "--out", "{tmp}/x.csv"], 1, False,
                     id="retired-tolerance-flag"),
        pytest.param(["verify-theorem", "--tol", 0, "--tau-end", 1, "--samples", 50], 1, False, id="zero-tolerance"),
        pytest.param([], 1, False, id="missing-subcommand"),
        pytest.param(["simulate", "--bogus", 1], 1, False, id="unknown-flag"),
        pytest.param(["verify-theorem", "--t-end", 100], 1, False, id="flag-of-another-subcommand"),
        pytest.param(["fit-relation", "--out", "{tmp}/fit.csv"], 1, False, id="flag-the-subcommand-does-not-read"),
        pytest.param(["simulate", "--t-end"], 1, False, id="flag-without-value"),
    ],
)
def test_failures_end_in_documented_exit_codes(args, code, rank_deficient, tmp_path, monkeypatch, capsys, request):
    (tmp_path / "bad.cfg").write_text("q0: 1,2\n")
    (tmp_path / "alpha.cfg").write_text("alpha: 2\n")
    (tmp_path / "rel_tol.cfg").write_text("rel_tol: 1e-6\n")
    header = "t,x,y,z,px,py,pz\n"
    (tmp_path / "header_only.csv").write_text(header)
    (tmp_path / "ragged.csv").write_text(header + "0,0,2,0,0.3,0,0.6\n0.1,0,2,0\n")
    (tmp_path / "malformed.csv").write_text(header + "0,0,2,0,0.3,0,0.6x\n")
    (tmp_path / "narrow.csv").write_text("J,E,Theta," + header + "0,0,2,0,0.3,0,0.6\n")
    (tmp_path / "overflow.csv").write_text(header + "0,0,2,0,1e200,0,0\n1,0,2,0,1e200,0,0\n")  # G is inf
    (tmp_path / "tau_beyond_t.csv").write_text(header + "0,0,2,0,1e200,0,0.6\n1,1,2,0,1e200,0,0.6\n")
    (tmp_path / "overflow_lift.csv").write_text(header + "0,0,2,0,1.5e308,0,0.6\n1,0,2,0,1.5e308,0,0.6\n")  # Q' is inf
    (tmp_path / "center.csv").write_text(header + "0,0,2,0,0.3,0,0.6\n0.1,1,0,0,0,0,0\n")
    (tmp_path / "near_center.csv").write_text(header + "0,1.000000001,0,0,0,0,0\n")
    if rank_deficient:
        monkeypatch.setattr(projective, "sample_phase_points", _repeated_rows)
    assert run([str(a).format(tmp=tmp_path) for a in args]) == code
    err = capsys.readouterr().err
    if code == 1:
        assert err.startswith("error:") and err.strip().count("\n") == 0
    if request.node.callspec.id in ABORTED:
        assert err.startswith("aborted:") and err.strip().count("\n") == 0


def test_draw_too_large_to_allocate_is_one_error_line(monkeypatch, capsys):
    """A count below the sampler's bound that memory cannot hold ends in one ``error:``
    line, exit 1, not a traceback.  The draw is stubbed: attempting it could allocate."""
    message = "Unable to allocate 2.18 TiB for an array with shape (100000000000, 3) and data type float64"

    def unallocatable(*args, **kwargs):
        raise MemoryError(message)

    monkeypatch.setattr(verify, "sample_phase_points", unallocatable)
    assert run(["verify-theorem", "--samples", 10**11, "--tau-end", 0.1]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


# Edge values of a: tiny, 1, either side of the largest a whose 1 + a^2 is
# finite (about 1.34e154), beyond it, and the values Problem refuses outright.
EDGE_HALF_DISTANCES = ["5e-324", "1e-300", "1", "1.34e154", "1.3407807929942596e154", "1.35e154", "1e300",
                       "nan", "inf", "-inf", "0", "-1"]
edge_vectors = st.tuples(*[st.floats(-1e308, 1e308).map(repr)] * 3).map(",".join)


EDGE_MASSES = ["0", "1e-300", "1", "1e4", "1e160", "-1", "nan"]
EDGE_ENDS = ["0", "-1", "nan", "inf", "1e-300", "0.5"]
EDGE_TOLERANCES = ["0", "-1e-12", "nan", "1e-300", "1e-12"]
EDGE_SEEDS = ["0", "-1", str(2**64)]
# the fit's least count and one short of it, a numpy index whose (n, 3) draw is not, and non-counts;
# never a count that fits the bound but not memory: under overcommit its draw would allocate
EDGE_SAMPLES = ["0", "7", "8", str(2**62), "1e3", "-1"]
# on a center, and inside the collision guard of one
EDGE_STARTS = ["1,0,0", "1.000000001,0,0"]
# each command with the flag of its end time, if it integrates
EDGE_COMMANDS = [
    (["project"], "--t-end"),
    (["verify-theorem"], "--tau-end"),
    (["fit-relation"], None),
    (["verify-theorem", "--fit"], "--tau-end"),
]


# Usable values of every drawn input: each command exits 0 on them, so a flag
# the parser does not know (exit 1, which the draws accept) fails the examples.
USABLE = {"a": "1", "m_minus": "1", "m_plus": "0.5", "q0": "0,2,0", "p0": "0.3,0,0.6", "end": "0.5",
          "tol": "1e-12", "seed": "42", "samples": "50"}


# Derandomized: a few draws (a fast orbit, say) run for a second or more, so
# a fixed set of draws keeps the test's time the same from run to run.
@settings(max_examples=500, deadline=None, derandomize=True)
@example(command=(["simulate"], "--t-end"), **USABLE)
@example(command=EDGE_COMMANDS[0], **USABLE)
@example(command=EDGE_COMMANDS[1], **USABLE)
@example(command=EDGE_COMMANDS[2], **USABLE)
@example(command=EDGE_COMMANDS[3], **USABLE)
@given(
    command=st.sampled_from(EDGE_COMMANDS),
    a=st.sampled_from(EDGE_HALF_DISTANCES),
    m_minus=st.sampled_from(EDGE_MASSES),
    m_plus=st.sampled_from(EDGE_MASSES),
    q0=edge_vectors | st.sampled_from(EDGE_STARTS),
    p0=edge_vectors,
    # half the draws take the usable value, so most reach the run and the checks
    end=st.just("0.5") | st.sampled_from(EDGE_ENDS),
    tol=st.just("1e-12") | st.sampled_from(EDGE_TOLERANCES),
    seed=st.just("42") | st.sampled_from(EDGE_SEEDS),
    samples=st.just("50") | st.sampled_from(EDGE_SAMPLES),
)
def test_edge_inputs_end_in_documented_exit_codes(command, a, m_minus, m_plus, q0, p0, end, tol, seed, samples):
    """Any a, masses, start, end time, tolerance, seed and sample count end in
    exit code 0 to 3: no traceback, and (pytest turns RuntimeWarning into an
    error) no numpy warning; exit 1 prints one ``error:`` line.  ``simulate``
    and ``project`` draw nothing, and ``fit-relation`` reads no start, end or
    tolerance, so they get none.  On the ``USABLE`` values every command exits 0."""
    words, end_flag = command
    args = [*words, "--a", a, "--m-minus", m_minus, "--m-plus", m_plus, "--seed", seed]
    if end_flag:
        args += ["--q0", q0, "--p0", p0, end_flag, end, "--tol", tol]
    if words[0] in ("verify-theorem", "fit-relation"):
        args += ["--samples", samples]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(args)
    assert code in (0, 1, 2, 3)
    if code == 1:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1, (args, err.getvalue())
    if dict(a=a, m_minus=m_minus, m_plus=m_plus, q0=q0, p0=p0, end=end, tol=tol, seed=seed,
            samples=samples) == USABLE:
        assert code == 0, args


# Well-formed config lines, and the defects a config or trajectory file can carry.
CONFIG_LINES = ["a: 2", "m_plus: 0.5", "q0: 0,2.5,0", "t_end: 0.5", "# a comment", ""]
BAD_CONFIG_LINES = ["a 2", "bogus: 1", "q0: 1,2", "p0: 1,2,3,4", "t_end: soon", "seed: 1.5"]
CSV_COLUMNS = ["t", "x", "y", "z", "px", "py", "pz"]
CSV_TEXTS = ["x", "one", "1e", "--1", "1.2.3"]


@st.composite
def malformed_configs(draw):
    """A config file with one defect: a bad line, a repeated key or a non-UTF-8
    byte.  Returns its bytes and the line the error must name (None: the file)."""
    lines = draw(st.lists(st.sampled_from(CONFIG_LINES), max_size=4, unique=True))
    at = draw(st.integers(0, len(lines)))
    defect = draw(st.sampled_from(["line", "repeated key", "byte"]))
    if defect == "line":
        lines.insert(at, draw(st.sampled_from(BAD_CONFIG_LINES)))
    elif defect == "repeated key":
        lines.insert(at, "samples: 10")
        at = draw(st.integers(at + 1, len(lines)))
        lines.insert(at, "samples: 20")
    data = "\n".join(lines).encode() + b"\n"
    if defect == "byte":
        cut = draw(st.integers(0, len(data) - 1))
        return data[:cut] + b"\xff" + data[cut:], None
    return data, at + 1


@st.composite
def malformed_csvs(draw):
    """A ``project --input`` file with one defect: a short row, a missing
    column, text in a number field or a non-UTF-8 byte."""
    header = draw(st.permutations(CSV_COLUMNS + draw(st.lists(st.sampled_from(["J", "Theta", "E"]), unique=True))))
    width = len(header)
    rows = draw(st.lists(st.lists(st.floats(-3.0, 3.0).map(repr), min_size=width, max_size=width), min_size=1, max_size=4))
    row, col = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, width - 1))
    defect = draw(st.sampled_from(["short row", "missing column", "text", "byte"]))
    if defect == "short row":
        del rows[row][col]
    elif defect == "missing column":
        col = header.index(draw(st.sampled_from(CSV_COLUMNS)))
        for cells in [header, *rows]:
            del cells[col]
    elif defect == "text":
        rows[row][col] = draw(st.sampled_from(CSV_TEXTS))
    data = "\n".join(",".join(cells) for cells in [header, *rows]).encode() + b"\n"
    if defect == "byte":
        cut = draw(st.integers(0, len(data) - 1))
        data = data[:cut] + b"\xff" + data[cut:]
    return data


def refused_with_one_error_line(args):
    """The stderr of main(args), which must exit 1 with one "error:" line: no
    traceback, and no RuntimeWarning (turned into an error here)."""
    stderr = io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("error", RuntimeWarning)
        code = main(args)
    err = stderr.getvalue()
    assert code == 1 and err.startswith("error:") and err.count("\n") == 1, err
    return err


@settings(max_examples=150, deadline=None, derandomize=True)
@given(config=malformed_configs())
def test_malformed_config_files_exit_1_naming_the_line(config, tmp_path_factory):
    data, line = config
    path = tmp_path_factory.getbasetemp() / "bad.cfg"
    path.write_bytes(data)
    err = refused_with_one_error_line(["simulate", "--config", str(path)])
    assert err.startswith(f"error: {path}:{line}: " if line else f"error: cannot read config file {path}: ")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=malformed_csvs())
def test_malformed_project_inputs_exit_1_naming_the_file(data, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "bad.csv"
    path.write_bytes(data)
    err = refused_with_one_error_line(["project", "--input", str(path)])
    assert f"file {path}" in err


@pytest.mark.parametrize("args", [["--help"], ["simulate", "--help"], ["fit-relation", "-h"]])
def test_help_exits_0(args, capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(args)
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: twocenter")


def registered_flags():
    """Each subcommand's option flags as make_parser() registers them, -h excluded."""
    sub = next(action for action in make_parser()._actions if isinstance(action, argparse._SubParsersAction))
    return {
        name: {flag.option_strings[-1] for flag in parser._actions if flag.option_strings and flag.dest != "help"}
        for name, parser in sub.choices.items()
    }


TRAJECTORY_FLAGS = "--m-minus --m-plus --a --q0 --p0 --tol"
READ_FLAGS = {
    "simulate": f"{TRAJECTORY_FLAGS} --t-end --out",
    "project": f"{TRAJECTORY_FLAGS} --t-end --out --input",
    "verify-theorem": f"{TRAJECTORY_FLAGS} --tau-end --samples --fit",
    "fit-relation": "--m-minus --m-plus --a --samples",
}


def test_each_subcommand_registers_only_the_flags_it_reads():
    flags = registered_flags()
    common = {"--config", "--seed", "--json"}
    assert flags == {name: common | set(read.split()) for name, read in READ_FLAGS.items()}
    assert sum(len(names) for names in flags.values()) == 42


# cheap runs of each subcommand, one per mode; a flag must change the output of at least one
CHEAP_RUNS = {
    "simulate": [["--t-end", 0.5, "--out", "{tmp}/out.csv"]],
    "project": [["--t-end", 0.5, "--out", "{tmp}/out.csv"], ["--input", "{tmp}/orbit.csv", "--out", "{tmp}/out.csv"]],
    "verify-theorem": [["--tau-end", 0.5, "--samples", 64]],
    "fit-relation": [["--samples", 64]],
}
CHANGED = {
    "--m-minus": [0.5], "--m-plus": [0.5], "--a": [2], "--q0": ["0,2.5,0"], "--p0": ["0.3,0,0.5"],
    "--tol": [1e-6], "--t-end": [0.25], "--tau-end": [0.25], "--samples": [100],
    "--seed": [7], "--input": ["{tmp}/orbit.csv"], "--fit": [],
}
DRAWS = {"verify-theorem", "fit-relation"}  # the subcommands that read the seed


def test_no_flag_is_a_no_op(tmp_path, capsys):
    """Every registered flag but --config, --json, --out and an undrawn --seed
    changes stdout or the written file when moved off its default."""
    assert run(["simulate", "--t-end", 0.3, "--out", tmp_path / "orbit.csv"]) == 0

    def output(args):
        out = tmp_path / "out.csv"
        out.unlink(missing_ok=True)
        code = run([str(arg).format(tmp=tmp_path) for arg in args])
        return code, capsys.readouterr().out, out.read_text() if out.exists() else None

    for name, flags in registered_flags().items():
        bases = [[name, *args] for args in CHEAP_RUNS[name]]
        before = [output(base) for base in bases]
        assert all(code == 0 for code, _, _ in before), name
        for flag in sorted(flags - {"--config", "--json", "--out"}):
            if flag == "--seed" and name not in DRAWS:
                continue
            after = [output([*base, flag, *CHANGED[flag]]) for base in bases]
            assert after != before, f"{name} {flag} changes nothing"


def test_verify_theorem_reports_oracle_overflow_as_failed_check(capsys):
    """Masses near the float range overflow the finite-difference oracle: a
    failed check naming the overflow, not a config error."""
    assert run(["verify-theorem", "--m-minus", 1e160, "--m-plus", 1e160, "--samples", 500]) == 3
    captured = capsys.readouterr()
    line = next(line for line in captured.out.splitlines() if "velocity-independence" in line)
    assert line.startswith("FAIL velocity-independence: measured inf") and "overflow" in line
    assert captured.err == ""


def test_verify_theorem_integrates_the_intrinsic_run_once(monkeypatch, capsys):
    """check_two_routes and check_energy_drift share one intrinsic run."""
    calls = []
    real = integrate.integrate_ellipsoid

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("twocenter") and getattr(module, "integrate_ellipsoid", None) is real:
            monkeypatch.setattr(module, "integrate_ellipsoid", counting)
    assert run(["verify-theorem", "--samples", 500, "--tau-end", 2]) == 0
    assert len(calls) == 1
    assert run(["verify-theorem", "--a", 2, "--fit", "--samples", 500, "--tau-end", 2]) == 0
    assert len(calls) == 2


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mass", [4e87, 1e100])
def test_verify_theorem_names_overflow_of_oracle_differences(mass, capsys):
    """The oracle's values are finite, but the norms of their differences
    overflow: against the field only at 4e87, also among velocities at 1e100.
    The same failed check naming the overflow, and no numpy warning."""
    assert run(["verify-theorem", "--m-minus", mass, "--m-plus", mass, "--samples", 500]) == 3
    captured = capsys.readouterr()
    line = next(line for line in captured.out.splitlines() if "velocity-independence" in line)
    assert line.startswith("FAIL velocity-independence: measured inf") and "overflow" in line
    assert captured.err == ""


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("mass", [1e164, 1e170, 1e300, 1.7e308])
def test_verify_theorem_reports_oracle_overflow_up_to_the_float_maximum(mass, capsys):
    """From about 1e163 the oracle's own values overflow to inf or NaN, from about 1e165
    the states of its own RK4 step too, and at the float maximum a stage state is inf:
    the same failed check naming the overflow (exit 3), never an error naming a q that
    no one typed, nor a warning."""
    assert run(["verify-theorem", "--m-minus", mass, "--m-plus", mass, "--samples", 500]) == 3
    captured = capsys.readouterr()
    line = next(line for line in captured.out.splitlines() if "velocity-independence" in line)
    assert line.startswith("FAIL velocity-independence: measured inf") and "overflows" in line
    assert captured.err == ""


@pytest.mark.filterwarnings("error")
def test_simulate_exits_2_naming_an_overflowed_invariant(tmp_path, capsys):
    """|q x p|^2 overflows at q = 1e155 while the run itself stays "ok": E
    reads inf in the CSV and drifts by inf, and one line names it."""
    out = tmp_path / "x.csv"
    assert run(["simulate", "--q0", "1e155,0,0", "--t-end", 1, "--out", out]) == 2
    captured = capsys.readouterr()
    assert "E: max relative drift inf" in captured.out and "status ok" in captured.out
    assert captured.err == "invariant overflowed along the run: E\n"
    _, data = read_csv(out)
    assert np.all(np.isinf(data[:, 9])) and np.all(np.isfinite(data[:, :9]))


@pytest.mark.filterwarnings("error")
def test_project_exits_2_naming_an_overflowed_energy(tmp_path, capsys):
    """|Q'|_*^2 overflows for p = 1e200: G reads inf in the rows, which are
    still written, and one line names it, as simulate does for J, Theta, E."""
    src, out, report = tmp_path / "overflow.csv", tmp_path / "x.csv", tmp_path / "x.json"
    src.write_text("t,x,y,z,px,py,pz\n0,0,2,0,1e200,0,0\n1,0,2,0,1e200,0,0\n")
    assert run(["project", "--input", src, "--out", out, "--json", report]) == 2
    assert capsys.readouterr().err == "invariant overflowed along the run: G\n"
    _, data = read_csv(out)
    assert data.shape == (2, 10) and np.all(np.isinf(data[:, 9])) and np.all(np.isfinite(data[:, :9]))
    assert json.loads(report.read_text())["G_last"] == float("inf")


def test_fit_relation_at_huge_masses_keeps_full_rank(capsys):
    """The design columns are scaled before the solve, so J and E of size 1e16
    no longer push Theta^2 and 1 below the rank cut-off."""
    assert run(["fit-relation", "--m-minus", 1e16, "--m-plus", 1e16, "--samples", 64]) == 0
    lam = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert abs(float(lam["lambda_J"]) - 1.0) <= 1e-10
    assert abs(float(lam["lambda_E"]) - 0.5) <= 1e-10


def test_fit_relation_where_column_norms_overflow(capsys):
    """At masses 1e160 the squares of J and E overflow in their column norms;
    those columns are scaled by their largest entry instead, so the fit keeps
    full rank (it read the zeroed columns as rank deficiency, exit 3)."""
    assert run(["fit-relation", "--m-minus", 1e160, "--m-plus", 1e160, "--samples", 50]) == 0
    lam = dict(line.split(" = ") for line in capsys.readouterr().out.strip().splitlines())
    assert abs(float(lam["lambda_J"]) - 1.0) <= 1e-10
    assert abs(float(lam["lambda_E"]) - 0.5) <= 1e-10


def per_value_csv(header, rows):
    """The CSV writer before the array form: one format(v, ".17g") per value."""
    lines = [",".join(header)]
    lines.extend(",".join(format(float(value), ".17g") for value in row) for row in rows)
    return "\n".join(lines) + "\n"


def test_csvs_match_per_value_writer(tmp_path):
    """simulate and project CSVs, byte for byte; project --input of the
    simulate CSV reads the 17-digit values back exactly."""
    sim, proj, proj_in = tmp_path / "sim.csv", tmp_path / "proj.csv", tmp_path / "proj_in.csv"
    args = ["--a", 2, "--m-plus", 0.7, "--t-end", 5]
    assert run(["simulate", *args, "--out", sim]) == 0
    assert run(["project", *args, "--out", proj]) == 0
    assert run(["project", *args, "--input", sim, "--out", proj_in]) == 0

    prob = Problem(1.0, 0.7, 2.0)
    traj = integrate_planar(PhasePoint(np.array([0.0, 2.0, 0.0]), np.array([0.3, 0.0, 0.6])), prob, 5.0)
    diag = traj.diagnostics
    rows = [[t, *s, j, th, e] for t, s, j, th, e in zip(traj.times, traj.states, diag["J"], diag["Theta"], diag["E"])]
    assert sim.read_text() == per_value_csv(["t", "x", "y", "z", "px", "py", "pz", "J", "Theta", "E"], rows)

    tau = reparametrize_time(traj.times, traj.states[:, :3], traj.states[:, 3:], prob)
    big_q, qp = lift_arrays(traj.states[:, :3], traj.states[:, 3:], prob)
    g = energy_arrays(big_q, qp, prob)
    rows = [[t, *q, *v, e] for t, q, v, e in zip(tau, big_q, qp, g)]
    assert proj.read_text() == per_value_csv(["tau", "X", "Y", "Z", "W", "Xp", "Yp", "Zp", "Wp", "G"], rows)
    assert proj_in.read_bytes() == proj.read_bytes()


def test_csv_writer_matches_per_value_writer_on_special_values(tmp_path):
    specials = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -2.5e-310, 1.7976931348623157e308, 1 / 3, 1e16, 2.0**53 + 2]
    wide = make_rng(5).normal(size=400) * 10.0 ** make_rng(6).integers(-300, 300, size=400)
    table = np.concatenate([specials * 4, wide[: 400 - 44]]).reshape(-1, 4)
    out = tmp_path / "t.csv"
    _write_rows(str(out), ["a", "b", "c", "d"], table)
    assert out.read_text() == per_value_csv(["a", "b", "c", "d"], table)
