"""The four benchmark workloads: inputs from the seed, one iteration, its gate.

Each workload splits an iteration into three parts so that only library
work is timed:

* ``inputs(i)`` builds iteration ``i``'s inputs from (seed, i); untimed.
* ``run(inputs)`` calls the library's public entry points; this is the
  timed region and the region the tracer's root span covers.
* ``check(inputs, raw)`` is the correctness gate; untimed.  It returns an
  :class:`Outcome` whose ``failed`` counts operations that returned a nonzero
  exit code, a non-``ok`` status or an accuracy figure outside its
  documented tolerance.  An operation that raises is counted by the caller.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

# Library calls go through the module attributes, so that the tracer's
# wrappers, installed on those attributes, see them.
from twocenter import cli, integrate, projective, sampling
from twocenter.dynamics import PhasePoint, Problem, axial_angular_momentum
from twocenter.sampling import make_rng
from twocenter.verify import TOL_FIRST_INTEGRAL_DRIFT, TOL_FIT_RESIDUAL, TOL_POINTWISE_RELATION

# The a = 2 coefficients of G = l_J J + l_E E + l_T2 Theta^2 + l_0 in closed
# form, 2/(1+a^2), 1/(1+a^2), -a^2/(1+a^2)^2 and 0: an oracle that shares no
# code with the least-squares fit it checks.
CLOSED_FORM_A2 = {"lambda_J": 2 / 5, "lambda_E": 1 / 5, "lambda_theta2": -4 / 25, "lambda_0": 0.0}
TOL_CLOSED_FORM = 1e-10


def sub_seed(seed: int, i: int) -> int:
    """Seed of iteration i of a run seeded with ``seed``."""
    return int(np.random.SeedSequence([seed, i]).generate_state(1)[0])


@dataclass
class Outcome:
    """Gate verdict and counts of one iteration."""

    attempted: int
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    figures: dict[str, float] = field(default_factory=dict)
    work: dict[str, float] = field(default_factory=dict)

    def expect(self, ok: bool, message: str) -> bool:
        if not ok:
            self.failures.append(message)
        return ok


def _csv_rows(path: str) -> int:
    with open(path, "r", encoding="utf-8") as handle:
        return sum(1 for line in handle if line.strip()) - 1


def _remove(*paths: str) -> None:
    for path in paths:
        if os.path.exists(path):
            os.remove(path)


class Orbit:
    """``simulate`` on the default orbit, then ``project`` of its CSV."""

    reference = "integrator"  # kernel that iteration times are divided by; see worker.Reference
    ops = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.paths = {name: os.path.join(workdir, name) for name in ("sim.csv", "sim.json", "proj.csv", "proj.json")}

    def inputs(self, i: int):
        _remove(*self.paths.values())
        return None

    def run(self, _):
        p = self.paths
        sim = cli.main(["simulate", "--seed", str(self.seed), "--out", p["sim.csv"], "--json", p["sim.json"]])
        proj = cli.main(["project", "--input", p["sim.csv"], "--out", p["proj.csv"], "--json", p["proj.json"]])
        return sim, proj

    def check(self, _, raw) -> Outcome:
        sim_code, proj_code = raw
        p = self.paths
        out = Outcome(self.ops)
        with open(p["sim.json"], "r", encoding="utf-8") as handle:
            report = json.load(handle)
        rows = _csv_rows(p["sim.csv"])
        drift = max(report["drifts"].values())
        out.figures["drift_max"] = drift
        steps = report["accepted_steps"]
        sim_ok = all([
            out.expect(sim_code == 0, f"simulate exit code {sim_code}"),
            out.expect(report["status"] == "ok", f"simulate status {report['status']}"),
            out.expect(drift <= TOL_FIRST_INTEGRAL_DRIFT, f"drift {drift:.3g} > {TOL_FIRST_INTEGRAL_DRIFT:g}"),
            out.expect(rows == steps + 1, f"simulate CSV has {rows} rows for {steps} accepted steps"),
        ])
        with open(p["proj.json"], "r", encoding="utf-8") as handle:
            proj_report = json.load(handle)
        proj_rows = _csv_rows(p["proj.csv"])
        proj_ok = all([
            out.expect(proj_code == 0, f"project exit code {proj_code}"),
            out.expect(proj_rows == rows, f"project CSV has {proj_rows} rows, simulate {rows}"),
            out.expect(proj_report["samples"] == rows, f"project reports {proj_report['samples']} samples"),
        ])
        out.work.update(
            steps=steps,
            rejected_steps=report["rejected_steps"],
            csv_bytes=os.path.getsize(p["sim.csv"]) + os.path.getsize(p["proj.csv"]),
            simulate_rows=rows,
            project_rows=proj_rows,
        )
        out.failed = (not sim_ok) + (not proj_ok)
        return out


class Ensemble:
    """``integrate_planar`` and ``drift_report`` over 64 seeded starts, t_end = 1.

    The starts are drawn with ``sample_phase_points`` (q_radius 3, p_radius 1,
    min_center_distance 0.5) and kept when |Theta| >= 0.1.  Theta is
    conserved, so its centrifugal barrier keeps every orbit at least about
    Theta^2/2 = 5e-3 from both centers.  Plunging orbits (Theta near 0) can
    pass within 1e-4 of a center, where DOPRI5 at rel_tol 1e-12 drifts past
    TOL_FIRST_INTEGRAL_DRIFT with status "ok"; that limit is documented in
    README.md rather than left to fail at random in a timing workload.
    """

    reference = "integrator"  # kernel that iteration times are divided by; see worker.Reference
    ops = 64
    t_end = 1.0
    min_abs_theta = 0.1
    # Work per iteration follows the seeded starts (CV about 20 %), so the
    # normalized iteration time is scaled to this many accepted steps, close
    # to the mean of the distribution, before the median is taken.
    nominal_steps = 3200
    problem = Problem(1.0, 1.0, 1.0)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def inputs(self, i: int) -> list[PhasePoint]:
        rng = make_rng(sub_seed(self.seed, i))
        starts: list[PhasePoint] = []
        while len(starts) < self.ops:
            q, p = sampling.sample_phase_points(self.problem, self.ops, rng, q_radius=3.0, p_radius=1.0, min_center_distance=0.5)
            keep = np.abs(axial_angular_momentum(q, p)) >= self.min_abs_theta
            starts.extend(PhasePoint(qi, pi) for qi, pi in zip(q[keep], p[keep]))
        return starts[: self.ops]

    def run(self, starts):
        reports = []
        for start in starts:
            reports.append(integrate.drift_report(integrate.integrate_planar(start, self.problem, self.t_end)))
        return reports

    def check(self, starts, reports) -> Outcome:
        out = Outcome(self.ops)
        failed = 0
        worst = 0.0
        for k, report in enumerate(reports):
            drift = max(report.drifts.values())
            worst = max(worst, drift)
            failed += not all([
                out.expect(report.status == "ok", f"orbit {k} status {report.status}"),
                out.expect(drift <= TOL_FIRST_INTEGRAL_DRIFT, f"orbit {k} drift {drift:.3g} > {TOL_FIRST_INTEGRAL_DRIFT:g}"),
            ])
        out.failed = failed
        out.figures["drift_max"] = worst
        out.work.update(
            steps=sum(r.accepted_steps for r in reports),
            rejected_steps=sum(r.rejected_steps for r in reports),
            orbits=len(reports),
        )
        return out


class Theorem:
    """``verify-theorem`` at a = 1, then ``verify-theorem --a 2 --fit``."""

    reference = "integrator"  # kernel that iteration times are divided by; see worker.Reference
    ops = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.paths = [os.path.join(workdir, "a1.json"), os.path.join(workdir, "a2.json")]

    def inputs(self, i: int) -> int:
        _remove(*self.paths)
        return sub_seed(self.seed, i)

    def run(self, seed):
        a1 = cli.main(["verify-theorem", "--seed", str(seed), "--json", self.paths[0]])
        a2 = cli.main(["verify-theorem", "--a", "2", "--fit", "--seed", str(seed), "--json", self.paths[1]])
        return a1, a2

    def check(self, seed, codes) -> Outcome:
        out = Outcome(self.ops)
        payloads, verdicts = [], []
        for code, path, label in zip(codes, self.paths, ("a = 1", "a = 2 --fit")):
            with open(path, "r", encoding="utf-8") as handle:
                payloads.append(json.load(handle))
            ok = out.expect(code == 0, f"verify-theorem {label} exit code {code}")
            for name, check in payloads[-1]["checks"].items():
                ok &= out.expect(check["passed"], f"verify-theorem {label} check {name} failed")
            verdicts.append(ok)
        a1, a2 = (p["checks"] for p in payloads)
        relation = a1["pointwise-relation"]["measured"]
        verdicts[0] &= out.expect(relation <= TOL_POINTWISE_RELATION, f"pointwise relation {relation:.3g}")
        fit = payloads[1]["fit"]
        for k, v in CLOSED_FORM_A2.items():
            verdicts[1] &= out.expect(abs(fit[k] - v) <= TOL_CLOSED_FORM, f"fitted {k} = {fit[k]!r}, closed form {v!r}")
        out.failed = verdicts.count(False)
        out.figures.update(
            drift_max=max(c["ellipsoidal-energy-drift"]["measured"] for c in (a1, a2)),
            route_err=max(c["two-route-equivalence"]["measured"] for c in (a1, a2)),
            relation_err=relation,
        )
        return out


class Sweep:
    """``sample_phase_points`` (10^6 points, a = 1), ``relation_residual`` on them,
    then ``fit_integral_relation`` at a = 2 on 10^6 points.

    The (10^6, 3) arrays are 24 MB, below the machine's last-level cache, so
    this measures dispatch and compute on large arrays, not memory bandwidth.
    """

    reference = "arrays"  # kernel that iteration times are divided by; see worker.Reference
    ops = 3
    points = 1_000_000
    a1 = Problem(1.0, 1.0, 1.0)
    a2 = Problem(1.0, 1.0, 2.0)

    def __init__(self, seed: int, workdir: str):
        self.seed = seed

    def inputs(self, i: int) -> int:
        return sub_seed(self.seed, i)

    def run(self, seed):
        q, p = sampling.sample_phase_points(self.a1, self.points, make_rng(seed))
        residual = projective.relation_residual(q, p, self.a1)
        fit = projective.fit_integral_relation(self.a2, self.points, seed)
        return q, p, residual, fit

    def check(self, seed, raw) -> Outcome:
        q, p, residual, fit = raw
        out = Outcome(self.ops)
        failed = not all([
            out.expect(q.shape == (self.points, 3) and p.shape == (self.points, 3), f"sample shapes {q.shape} {p.shape}"),
            out.expect(bool(np.all(np.isfinite(q)) and np.all(np.isfinite(p))), "nonfinite sample"),
        ])
        worst = float(np.max(np.abs(residual)))
        failed += not out.expect(worst <= TOL_POINTWISE_RELATION, f"relation residual {worst:.3g}")
        fit_ok = out.expect(fit.max_residual <= TOL_FIT_RESIDUAL, f"fit residual {fit.max_residual:.3g}")
        for k, v in CLOSED_FORM_A2.items():
            fit_ok &= out.expect(abs(getattr(fit, k) - v) <= TOL_CLOSED_FORM, f"fitted {k} = {getattr(fit, k)!r}, closed form {v!r}")
        failed += not fit_ok
        out.failed = failed
        out.figures["relation_err"] = worst
        out.work["points"] = 2 * self.points
        return out


WORKLOADS = {"orbit": Orbit, "ensemble": Ensemble, "theorem": Theorem, "sweep": Sweep}
