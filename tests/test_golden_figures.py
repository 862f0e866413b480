"""Recorded figures of the default CLI runs, so that a change to what they print shows.

The default ``simulate`` run and three ``verify-theorem`` runs are repeated
in process and compared with the values recorded below: exit codes, statuses,
step and row counts and check names exactly, every measured figure to 1e-6
relative.  The figures come from seeded samples and deterministic
integrations, so they repeat bit for bit on one machine; the tolerance
leaves room only for last-bit differences of another libm or LAPACK build.
A figure that moves beyond it means the computation changed (a query count,
a sample count, a step or a constant), and the record is updated only with
that change explained.
"""

import json

import pytest

from twocenter.cli import main

REL = 1e-6

SIMULATE = {
    "code": 0,
    "status": "ok",
    "accepted_steps": 1956,
    "rejected_steps": 0,
    "csv_rows": 1957,
    "drifts": {"E": 2.2995714679894712e-11, "J": 4.591771407547185e-12, "Theta": 9.181359376479275e-12},
}

VERIFY_THEOREM = {
    (): (0, {
        "ellipsoidal-energy-drift": 5.3054227677762356e-12,
        "pointwise-relation": 5.684341886080802e-14,
        "two-route-equivalence": 1.7297012123539783e-10,
        "velocity-independence": 2.29875826281443e-09,
    }),
    ("--a", "2", "--fit"): (0, {
        "ellipsoidal-energy-drift": 3.1429303604113557e-12,
        "fit-relation": 2.842170943040401e-14,
        "pointwise-relation": 2.1316282072803006e-14,
        "two-route-equivalence": 6.033786104385153e-10,
        "velocity-independence": 1.6731292629511724e-09,
    }),
    ("--m-plus", "0"): (0, {
        "ellipsoidal-energy-drift": 4.0885073104846015e-12,
        "kepler-limit": 9.000000744663339e-10,
        "pointwise-relation": 5.684341886080802e-14,
        "two-route-equivalence": 2.3967636142721837e-10,
        "velocity-independence": 2.176177058396367e-09,
    }),
}


def test_default_simulate_figures(tmp_path, capsys):
    csv, report = tmp_path / "orbit.csv", tmp_path / "orbit.json"
    code = main(["simulate", "--out", str(csv), "--json", str(report)])
    capsys.readouterr()
    payload = json.loads(report.read_text())
    rows = len(csv.read_text().strip().splitlines()) - 1  # header line
    assert (code, payload["status"], payload["accepted_steps"], payload["rejected_steps"], rows) == (
        SIMULATE["code"],
        SIMULATE["status"],
        SIMULATE["accepted_steps"],
        SIMULATE["rejected_steps"],
        SIMULATE["csv_rows"],
    )
    assert payload["drifts"] == pytest.approx(SIMULATE["drifts"], rel=REL, abs=0.0)


@pytest.mark.parametrize("args", list(VERIFY_THEOREM), ids=lambda args: " ".join(args) or "default")
def test_verify_theorem_figures(args, tmp_path, capsys):
    report = tmp_path / "verify.json"
    code = main(["verify-theorem", *args, "--json", str(report)])
    capsys.readouterr()
    measured = {name: check["measured"] for name, check in json.loads(report.read_text())["checks"].items()}
    want_code, want = VERIFY_THEOREM[args]
    assert code == want_code
    assert sorted(measured) == sorted(want)
    assert measured == pytest.approx(want, rel=REL, abs=0.0)
