"""Command-line front end.

Subcommands: ``simulate`` (planar trajectory + drift report), ``project``
(project and reparametrize a planar trajectory), ``verify-theorem``
(pointwise identity, two-route equivalence, energy drift, velocity
independence) and ``fit-relation`` (general-a coefficients).
``_COMMANDS`` maps each to its handler and the config keys it reads: a
subcommand takes ``--config``, ``--seed``, ``--json`` and one flag per key
it reads, nothing else.  An optional ``key: value`` config file may set
any key, and flags win over it.  A run is named by its config and seed, so identical ones give
byte-identical output; subcommands that draw nothing ignore the seed.
Exit codes: 0 ok, 1 usage, config or write error, 2 integration abort or
a point inside the collision guard (for ``simulate`` and ``project`` also
an invariant that overflowed along the run: the rows are still written,
and one stderr line names it), 3 verification failure (including a fit
whose sample is rank deficient).
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .dynamics import PhasePoint, Problem
from .errors import InvalidInputError, NearCollisionError, RankDeficientError
from .integrate import DEFAULT_TOL, drift_report, integrate_ellipsoid, integrate_planar
from .projective import energy_arrays, fit_integral_relation, lift_arrays, reparametrize_time
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
_FIT_SAMPLES = 4096  # the fit's cap on ``samples``; the pointwise-relation check takes all of them


@dataclass(frozen=True)
class RunConfig:
    """Every config key and its default; ``tol`` is the runs' relative and absolute tolerance both.  A config
    file may set any key; each subcommand reads only the keys ``_COMMANDS`` lists for it.  A key's
    annotation names the parser of its text (``tuple``: an ``x,y,z`` vector)."""

    m_minus: float = 1.0
    m_plus: float = 1.0
    a: float = 1.0
    q0: tuple = (0.0, 2.0, 0.0)
    p0: tuple = (0.3, 0.0, 0.6)
    t_end: float = 50.0
    tau_end: float = 5.0
    tol: float = DEFAULT_TOL
    seed: int = 42
    samples: int = 10_000
    out: str | None = None
    json: str | None = None

    def problem(self) -> Problem:
        return Problem(self.m_minus, self.m_plus, self.a)

    def start(self) -> PhasePoint:
        return PhasePoint(np.array(self.q0), np.array(self.p0))


class ConfigError(Exception):
    pass


def _parse_vector(text: str) -> tuple:
    values = tuple(map(float, text.split(",")))  # float() strips the blanks around each value
    if len(values) != 3:
        raise ValueError
    return values


# each key's parser and what it reads, from its annotation ("str | None" parses as str)
_PARSE = {"float": (float, "a number"), "int": (int, "an integer"), "str": (str, "text"),
          "tuple": (_parse_vector, "three comma-separated numbers")}
_PARSERS = {f.name: _PARSE[f.type.split(" |")[0]] for f in fields(RunConfig)}


def _parse(key: str, text: str, name: str):
    """``text`` as the value of config key ``key``, by the key's parser; text that does not
    parse is refused with a :class:`ConfigError` naming ``name``, the flag or the config key."""
    parse, reads = _PARSERS[key]
    try:
        return parse(text)
    except ValueError:
        raise ConfigError(f"{name} must be {reads}, got {text!r}") from None


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a ``ConfigError`` (exit 1, one line), where
    argparse would print the usage and exit 2."""

    def error(self, message):
        raise ConfigError(message)


def load_config(path: str) -> dict:
    """Parse a plain ``key: value`` file ('#' starts a comment, a key may appear once)."""
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
                if key in values:
                    raise ConfigError(f"{path}:{lineno}: repeated key {key!r}")
                values[key] = _parse(key, value.strip(), f"{path}:{lineno}: {key}")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def build_config(args: argparse.Namespace) -> RunConfig:
    """Defaults, then the config file, then the flags the subcommand registered."""
    cfg = replace(RunConfig(), **load_config(args.config)) if args.config else RunConfig()
    flags = {key: text for key in _PARSERS if (text := getattr(args, key, None)) is not None}
    return replace(cfg, **{key: _parse(key, text, "--" + key.replace("_", "-")) for key, text in flags.items()})


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
    traj = integrate_planar(cfg.start(), cfg.problem(), cfg.t_end, cfg.tol)
    diag = traj.diagnostics
    table = np.column_stack([traj.times, traj.states, diag["J"], diag["Theta"], diag["E"]])
    _write_rows(cfg.out, _SIMULATE_HEADER, table)
    report = drift_report(traj)
    for line in report.lines():
        print(line)
    _write_json(cfg.json, {"command": "simulate", "status": traj.status, "drifts": report.drifts,
                           "accepted_steps": report.accepted_steps, "rejected_steps": report.rejected_steps})
    overflowed = [name for name, drift in report.drifts.items() if not math.isfinite(drift)]
    if overflowed:
        print(f"invariant overflowed along the run: {', '.join(overflowed)}", file=sys.stderr)
    return 0 if traj.status == "ok" and not overflowed else 2


def _read_planar_csv(path: str) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = [line.strip() for line in handle if line.strip()]
    except (OSError, UnicodeDecodeError) as exc:
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
    if input_path is None:
        traj = integrate_planar(cfg.start(), prob, cfg.t_end, cfg.tol)
        if traj.status != "ok":
            print(f"planar integration aborted: {traj.status}", file=sys.stderr)
            return 2
        times, states = traj.times, traj.states
    else:
        data = _read_planar_csv(input_path)
        times, states = data[:, 0], data[:, 1:7]
    tau = reparametrize_time(times, states[:, :3], states[:, 3:], prob)
    big_q, qp = lift_arrays(states[:, :3], states[:, 3:], prob)
    g = np.atleast_1d(energy_arrays(big_q, qp, prob))  # G may overflow to inf; energy_arrays refuses an inf Q'
    _write_rows(cfg.out, _PROJECT_HEADER, np.column_stack([tau, big_q, qp, g]))
    _write_json(cfg.json, {"command": "project", "samples": int(len(tau)),
                           "tau_end": float(tau[-1]), "G_first": float(g[0]), "G_last": float(g[-1])})
    if not np.isfinite(g).all():
        print("invariant overflowed along the run: G", file=sys.stderr)
        return 2
    return 0


def cmd_verify_theorem(cfg: RunConfig, do_fit: bool) -> int:
    prob = cfg.problem()
    start = cfg.start()
    intrinsic = integrate_ellipsoid(start, prob, cfg.tau_end, cfg.tol)
    results = [
        check_pointwise_relation(prob, cfg.samples, cfg.seed),
        check_two_routes(start, intrinsic, cfg.tol),
        check_energy_drift(intrinsic),
        check_velocity_independence(prob, seed=cfg.seed),
    ]
    if prob.is_kepler:
        results.append(check_kepler_limit(start, prob))
    fitted = None
    if do_fit:
        fitted = fit_integral_relation(prob, min(cfg.samples, _FIT_SAMPLES), cfg.seed)
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
        payload["fit"] = asdict(fitted)
    _write_json(cfg.json, payload)
    return 0 if all(r.passed for r in results) else 3


def cmd_fit_relation(cfg: RunConfig) -> int:
    relation = fit_integral_relation(cfg.problem(), min(cfg.samples, _FIT_SAMPLES), cfg.seed)
    fitted = asdict(relation)
    for name, value in fitted.items():
        print(f"{'max residual' if name == 'max_residual' else name} = {_fmt(value)}")
    _write_json(cfg.json, {"command": "fit-relation", **fitted})
    return 0


_TRAJECTORY_KEYS = "m_minus m_plus a q0 p0 tol"

# subcommand: (handler, the config keys it reads, None or its own flag, whose value the handler takes second)
_COMMANDS = {
    "simulate": (cmd_simulate, f"{_TRAJECTORY_KEYS} t_end out", None),
    "project": (cmd_project, f"{_TRAJECTORY_KEYS} t_end out",
                ("--input", {"metavar": "CSV", "help": "existing planar trajectory CSV"})),
    "verify-theorem": (cmd_verify_theorem, f"{_TRAJECTORY_KEYS} tau_end samples",
                       ("--fit", {"action": "store_true", "help": "also fit the integral relation"})),
    "fit-relation": (cmd_fit_relation, "m_minus m_plus a samples", None),
}
_HELP = {"seed": "override config key seed: a run is named by its config and seed, "
                 "and subcommands that draw nothing ignore it",
         "samples": f"override config key samples; the fit uses at most {_FIT_SAMPLES:,} of them"}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call (about 2 ms) and reused:
    parsing leaves it unchanged."""
    parser = _Parser(prog="twocenter", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, keys, flag) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("--config", help="key: value config file, which may set any key")
        for key in (*keys.split(), "seed", "json"):
            p.add_argument("--" + key.replace("_", "-"), dest=key, help=_HELP.get(key, f"override config key {key}"))
        if flag is not None:
            p.add_argument(flag[0], dest="extra", **flag[1])
    return parser


def main(argv=None) -> int:
    try:
        args = make_parser().parse_args(argv)
        handler, _, flag = _COMMANDS[args.command]
        cfg = build_config(args)
        return handler(cfg) if flag is None else handler(cfg, args.extra)
    except (ConfigError, InvalidInputError, ValueError, OSError, MemoryError) as exc:
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
