"""Command-line front end.

Subcommands: ``simulate`` (planar trajectory + drift report), ``project``
(project and reparametrize a planar trajectory), ``verify-theorem``
(pointwise identity, two-route equivalence, energy drift, velocity
independence), ``fit-relation`` (general-a coefficients) and ``coords``
(ellipsoidal coordinate conversion).  Options come from an optional
``key: value`` config file overridden by flags; identical config and seed
give byte-identical output.  Exit codes: 0 ok, 1 config or write error,
2 integration abort, 3 verification failure (including a fit whose samples
stay rank deficient).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .dynamics import PhasePoint, Problem
from .ellipsoidal import EllipsoidalPosition, from_ellipsoidal, to_ellipsoidal
from .errors import InvalidInputError, NearCollisionError, RankDeficientError
from .integrate import IntegratorConfig, drift_report, integrate_ellipsoid, integrate_planar
from .projective import energy_arrays, fit_integral_relation, lift_arrays, lift_velocity, reparametrize_time
from .verify import (
    check_energy_drift,
    check_fitted_relation,
    check_kepler_limit,
    check_pointwise_relation,
    check_two_routes,
    check_velocity_independence,
)

_SIMULATE_HEADER = ["t", "x", "y", "z", "px", "py", "pz", "J", "Theta", "E"]
_PROJECT_HEADER = ["tau", "X", "Y", "Z", "W", "Xp", "Yp", "Zp", "Wp", "G"]


@dataclass(frozen=True)
class RunConfig:
    """Defaults for every subcommand; see the module docstring for keys."""

    m_minus: float = 1.0
    m_plus: float = 1.0
    a: float = 1.0
    q0: tuple = (0.0, 2.0, 0.0)
    p0: tuple = (0.3, 0.0, 0.6)
    t_end: float = 50.0
    tau_end: float = 5.0
    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    seed: int = 42
    samples: int = 10_000
    out: str | None = None
    json: str | None = None
    alpha: float | None = None
    beta: float | None = None
    theta: float | None = None

    def problem(self) -> Problem:
        return Problem(self.m_minus, self.m_plus, self.a)

    def integrator(self) -> IntegratorConfig:
        return IntegratorConfig(rel_tol=self.rel_tol, abs_tol=self.abs_tol)

    def start(self) -> PhasePoint:
        return PhasePoint(np.array(self.q0), np.array(self.p0))


class ConfigError(Exception):
    pass


def _parse_vector(text: str) -> tuple:
    parts = [part.strip() for part in str(text).split(",")]
    if len(parts) != 3:
        raise ConfigError(f"expected three comma-separated values, got {text!r}")
    return tuple(float(part) for part in parts)


_PARSERS = {
    "m_minus": float,
    "m_plus": float,
    "a": float,
    "q0": _parse_vector,
    "p0": _parse_vector,
    "t_end": float,
    "tau_end": float,
    "rel_tol": float,
    "abs_tol": float,
    "seed": int,
    "samples": int,
    "out": str,
    "json": str,
    "alpha": float,
    "beta": float,
    "theta": float,
}


def load_config(path: str) -> dict:
    """Parse a plain ``key: value`` file ('#' starts a comment)."""
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if ":" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected 'key: value', got {raw.strip()!r}")
                key, _, value = line.partition(":")
                key = key.strip()
                if key not in _PARSERS:
                    raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
                try:
                    values[key] = _PARSERS[key](value.strip())
                except ValueError as exc:
                    raise ConfigError(f"{path}:{lineno}: {exc}") from exc
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if getattr(args, "config", None):
        cfg = replace(cfg, **load_config(args.config))
    overrides = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            overrides[f.name] = _PARSERS[f.name](value)
    return replace(cfg, **overrides)


def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def _write_rows(path: str | None, header: list[str], table: np.ndarray) -> None:
    """Write an (N, len(header)) array as CSV, every value as ``%.17g`` (round-trip exact)."""
    row_format = ",".join(["%.17g"] * len(header))
    lines = [",".join(header)]
    lines.extend(row_format % tuple(row) for row in table.tolist())
    text = "\n".join(lines) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def _write_json(path: str | None, payload: dict) -> None:
    if path:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


def cmd_simulate(cfg: RunConfig) -> int:
    traj = integrate_planar(cfg.start(), cfg.problem(), cfg.t_end, cfg.integrator())
    diag = traj.diagnostics
    table = np.column_stack([traj.times, traj.states, diag["J"], diag["Theta"], diag["E"]])
    _write_rows(cfg.out, _SIMULATE_HEADER, table)
    report = drift_report(traj)
    for line in report.lines():
        print(line)
    _write_json(cfg.json, {"command": "simulate", "status": traj.status, "drifts": report.drifts,
                           "accepted_steps": report.accepted_steps, "rejected_steps": report.rejected_steps})
    return 0 if traj.status == "ok" else 2


def _read_planar_csv(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except OSError as exc:
        raise ConfigError(f"cannot read trajectory file {path}: {exc}") from exc
    if not lines:
        raise ConfigError(f"trajectory file {path} is empty")
    header = [name.strip() for name in lines[0].split(",")]
    needed = ["t", "x", "y", "z", "px", "py", "pz"]
    try:
        cols = [header.index(name) for name in needed]
    except ValueError as exc:
        raise ConfigError(f"trajectory file {path} lacks required columns {needed}") from exc
    if len(lines) == 1:
        raise ConfigError(f"trajectory file {path} has no data rows")
    try:
        data = np.loadtxt(lines[1:], delimiter=",", ndmin=2, comments=None)
    except ValueError as exc:
        raise ConfigError(f"trajectory file {path} has a malformed row: {exc}") from exc
    if data.shape[1] != len(header):
        raise ConfigError(f"trajectory file {path} has {data.shape[1]} values per row for {len(header)} columns")
    return data[:, cols]


def cmd_project(cfg: RunConfig, input_path: str | None) -> int:
    prob = cfg.problem()
    metric = prob.metric()
    if input_path is None:
        traj = integrate_planar(cfg.start(), prob, cfg.t_end, cfg.integrator())
        if traj.status != "ok":
            print(f"planar integration aborted: {traj.status}", file=sys.stderr)
            return 2
        times, states = traj.times, traj.states
    else:
        data = _read_planar_csv(input_path)
        times, states = data[:, 0], data[:, 1:7]
    tau = reparametrize_time(times, states[:, :3], states[:, 3:], metric)
    big_q, qp = lift_arrays(states[:, :3], states[:, 3:], metric)
    g = np.atleast_1d(energy_arrays(big_q, qp, prob))
    _write_rows(cfg.out, _PROJECT_HEADER, np.column_stack([tau, big_q, qp, g]))
    _write_json(cfg.json, {"command": "project", "samples": int(len(tau)),
                           "tau_end": float(tau[-1]), "G_first": float(g[0]), "G_last": float(g[-1])})
    return 0


def cmd_verify_theorem(cfg: RunConfig, do_fit: bool) -> int:
    prob = cfg.problem()
    integrator = cfg.integrator()
    start = cfg.start()
    intrinsic = integrate_ellipsoid(lift_velocity(start.q, start.p, prob.metric()), prob, cfg.tau_end, integrator)
    results = [
        check_pointwise_relation(prob, cfg.samples, cfg.seed),
        check_two_routes(start, intrinsic, integrator),
        check_energy_drift(intrinsic),
        check_velocity_independence(prob, seed=cfg.seed),
    ]
    if prob.is_kepler:
        results.append(check_kepler_limit(start, prob))
    fitted = None
    if do_fit:
        fitted = fit_integral_relation(prob, min(cfg.samples, 4096), cfg.seed)
        print(
            "fitted relation: G = "
            f"{_fmt(fitted.lambda_J)} J + {_fmt(fitted.lambda_E)} E "
            f"+ {_fmt(fitted.lambda_theta2)} Theta^2 + {_fmt(fitted.lambda_0)}"
        )
        results.append(check_fitted_relation(fitted, prob))
    for result in results:
        print(result.line())
    payload = {
        "command": "verify-theorem",
        "checks": {r.name: {"measured": r.measured, "tolerance": r.tolerance, "passed": r.passed} for r in results},
    }
    if fitted is not None:
        payload["fit"] = {
            "lambda_J": fitted.lambda_J,
            "lambda_E": fitted.lambda_E,
            "lambda_theta2": fitted.lambda_theta2,
            "lambda_0": fitted.lambda_0,
            "max_residual": fitted.max_residual,
        }
    _write_json(cfg.json, payload)
    return 0 if all(r.passed for r in results) else 3


def cmd_fit_relation(cfg: RunConfig) -> int:
    relation = fit_integral_relation(cfg.problem(), min(cfg.samples, 4096), cfg.seed)
    print(f"lambda_J = {_fmt(relation.lambda_J)}")
    print(f"lambda_E = {_fmt(relation.lambda_E)}")
    print(f"lambda_theta2 = {_fmt(relation.lambda_theta2)}")
    print(f"lambda_0 = {_fmt(relation.lambda_0)}")
    print(f"max residual = {_fmt(relation.max_residual)}")
    _write_json(cfg.json, {"command": "fit-relation", "lambda_J": relation.lambda_J,
                           "lambda_E": relation.lambda_E, "lambda_theta2": relation.lambda_theta2,
                           "lambda_0": relation.lambda_0, "max_residual": relation.max_residual})
    return 0


def cmd_coords(cfg: RunConfig, inverse: bool) -> int:
    prob = cfg.problem()
    if inverse:
        if cfg.alpha is None or cfg.beta is None or cfg.theta is None:
            raise ConfigError("inverse conversion needs alpha, beta and theta")
        position = EllipsoidalPosition(cfg.alpha, cfg.beta, cfg.theta)
        q = from_ellipsoidal(position, prob)
        print(f"q = {_fmt(q[0])},{_fmt(q[1])},{_fmt(q[2])}")
        _write_json(cfg.json, {"command": "coords", "q": [float(v) for v in q]})
    else:
        ep = to_ellipsoidal(np.array(cfg.q0), prob)
        print(f"alpha = {_fmt(ep.alpha)}")
        print(f"beta = {_fmt(ep.beta)}")
        print(f"theta = {_fmt(ep.theta)}")
        print(f"degenerate = {str(ep.degenerate).lower()}")
        _write_json(cfg.json, {"command": "coords", "alpha": ep.alpha, "beta": ep.beta,
                               "theta": ep.theta, "degenerate": ep.degenerate})
    return 0


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="key: value config file")
    for key in _PARSERS:
        flag = "--" + key.replace("_", "-")
        parser.add_argument(flag, dest=key, default=None, help=f"override config key {key}")


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twocenter", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "project", "verify-theorem", "fit-relation", "coords"):
        p = sub.add_parser(name)
        _add_common(p)
        if name == "project":
            p.add_argument("--input", help="existing planar trajectory CSV")
        if name == "verify-theorem":
            p.add_argument("--fit", action="store_true", help="also fit the integral relation")
        if name == "coords":
            p.add_argument("--inverse", action="store_true", help="convert (alpha, beta, theta) to q")
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    try:
        cfg = build_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "project":
            return cmd_project(cfg, args.input)
        if args.command == "verify-theorem":
            return cmd_verify_theorem(cfg, args.fit)
        if args.command == "fit-relation":
            return cmd_fit_relation(cfg)
        return cmd_coords(cfg, args.inverse)
    except (ConfigError, InvalidInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NearCollisionError as exc:
        print(f"aborted: {exc}", file=sys.stderr)
        return 2
    except RankDeficientError as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
