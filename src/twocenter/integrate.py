"""Adaptive explicit integration with invariant-drift diagnostics.

Both the planar two-center system and the intrinsic ellipsoid system are
integrated with the Dormand-Prince 5(4) embedded pair (seven stages, FSAL)
under PI step-size control (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4-II.5).  The output grid is the accepted steps; each sample carries the
problem's first integrals (planar runs) or the ellipsoidal energy and
constraint residuals (ellipsoid runs).  Planar runs step in t or, with
``clock="tau"``, in the ellipsoid runs' time tau.  The last step is cut to
land on the end time, so a run with status ``"ok"`` ends on it.

The stepper works on Python floats and the ``math`` module, with one
plain-float right-hand-side kernel per system (``planar_kernel`` and
``intrinsic_kernel``).  A state has only six or eight components, so the
per-step work of a numpy version is call overhead, not arithmetic: one
``acceleration`` call on a 3-vector costs about fifty times the whole
plain-float right-hand side.  The batched numpy evaluators stay the public
API for arrays and the reference the kernels are tested against.  For the
same reason the stage arithmetic is not a loop either: ``_make_step``
generates one step function per state size, with every stage, the new state
and the error terms written out as scalar expressions on locals, and
compiles it on first use.  It keeps the operation order of a loop over the
components, so trajectories are bit-identical to one.

Every kernel evaluation applies ``dynamics.COLLISION_GUARD``, the only
near-center distance the integrators know; f(y_new) is evaluated before a
step is accepted, so no accepted state lies inside the guard.  The stepper
evaluates the kernel at the initial state before its first step, so a start
inside the guard raises for both systems: there is nothing partial to
return.  Mid-run failures abort cleanly: the partial trajectory up to the
last good state is returned with ``status`` set to ``"collision"``,
``"step_underflow"`` (also when the initial derivative is too large for
any step), ``"integrity"`` or ``"step_budget"`` (``_MAX_STEPS`` step
attempts used up before the end time).  Ellipsoid states are projected
back onto the constraint manifold after every accepted step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .dynamics import PhasePoint, Problem, first_integrals, planar_kernel
from .errors import InvalidInputError, NearCollisionError
from .geometry import EllipsoidPoint
from .projective import EllipsoidState, energy_arrays, intrinsic_kernel

# Dormand-Prince 5(4): propagating weights are the last coupling row (FSAL).
_DP_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_DP_ERR = (71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40)

_SAFETY = 0.9
_ALPHA = 0.17  # 1/5 - 0.75 * beta
_BETA = 0.04
_FACMIN = 0.2
_FACMAX = 10.0
_MAX_STEPS = 10_000_000

# Constraint residual beyond which an ellipsoid run is declared corrupted.
_INTEGRITY_LIMIT = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Tolerances and the step-size cap of the adaptive runs."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12
    max_step: float = 0.1

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol", "max_step"):
            value = float(getattr(self, name))
            if not np.isfinite(value) or value <= 0.0:
                raise InvalidInputError(f"{name} must be positive, got {getattr(self, name)!r}")
            object.__setattr__(self, name, value)


@dataclass
class Trajectory:
    """Accepted-step grid with states and per-sample diagnostics."""

    times: np.ndarray
    states: np.ndarray
    diagnostics: dict[str, np.ndarray]
    problem: Problem
    kind: str
    status: str = "ok"
    rejected_steps: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
        if self.kind not in ("planar", "planar_tau", "ellipsoid"):
            raise InvalidInputError(f"unknown trajectory kind {self.kind!r}")
        if self.times.ndim != 1 or len(self.times) == 0:
            raise InvalidInputError("times must be a nonempty 1-d grid")
        if np.any(np.diff(self.times) <= 0.0):
            raise InvalidInputError("times must be strictly increasing")
        if self.states.shape[0] != self.times.shape[0]:
            raise InvalidInputError("states and times must have matching length")
        for name, values in self.diagnostics.items():
            if np.asarray(values).shape != self.times.shape:
                raise InvalidInputError(f"diagnostic {name!r} does not match the grid")

    def __len__(self) -> int:
        return len(self.times)


@dataclass(frozen=True)
class DriftReport:
    """Per-invariant relative drift and step statistics of one run."""

    drifts: dict[str, float]
    accepted_steps: int
    rejected_steps: int
    min_step: float
    max_step: float
    status: str

    def lines(self) -> list[str]:
        out = [
            f"{name}: max relative drift {value:.3g}" for name, value in self.drifts.items()
        ]
        out.append(
            f"steps: {self.accepted_steps} accepted, {self.rejected_steps} rejected, "
            f"h in [{self.min_step:.3g}, {self.max_step:.3g}], status {self.status}"
        )
        return out


def drift_report(traj: Trajectory) -> DriftReport:
    """Summarize invariant drift, max_t |I(t) - I(0)| / max(1, |I(0)|)."""
    drifts = {}
    for name, values in traj.diagnostics.items():
        values = np.asarray(values, dtype=float)
        drifts[name] = float(np.max(np.abs(values - values[0])) / max(1.0, abs(values[0])))
    steps = np.diff(traj.times)
    return DriftReport(
        drifts=drifts,
        accepted_steps=len(traj.times) - 1,
        rejected_steps=traj.rejected_steps,
        min_step=float(steps.min()) if len(steps) else 0.0,
        max_step=float(steps.max()) if len(steps) else 0.0,
        status=traj.status,
    )


class _AbortRun(Exception):
    """Internal: stop stepping and return the partial trajectory."""

    def __init__(self, status: str):
        self.status = status


def _rms(values) -> float:
    return math.sqrt(sum(v * v for v in values) / len(values))


def _initial_step(f, y0, f0, t_end, cfg):
    """Hairer-style starting step from the scaled sizes of y0, f0 and curvature."""
    scale = [cfg.abs_tol + cfg.rel_tol * abs(v) for v in y0]
    d0 = _rms([v / s for v, s in zip(y0, scale)])
    d1 = _rms([v / s for v, s in zip(f0, scale)])
    if not math.isfinite(d1):
        return 0.0  # the derivative overflows its error scale: no step is small enough
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    f1 = f([v + h0 * d for v, d in zip(y0, f0)])
    d2 = _rms([(b - a) / s for a, b, s in zip(f0, f1, scale)]) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, 1e-3 * h0)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, cfg.max_step, t_end)


@functools.cache
def _make_step(n: int):
    """One Dormand-Prince step over states of ``n`` floats, compiled on first use.

    Returns ``step(f, y, k1, h, atol, rtol) -> (y_new, k7, err)``, where k1
    is f(y), k7 = f(y_new) and err is the scaled RMS error estimate.  The
    source is generated from ``_DP_A`` and ``_DP_ERR`` with every zero
    coefficient skipped and every component written out as a scalar
    expression on locals: a loop over zipped sequences costs more than the
    arithmetic on six or eight floats.  Each expression keeps the operation
    order ``v + h * (a1 * k1 + a2 * k2 + ...)`` of such a loop, and the error
    norm stays ``sum`` over a list (compensated on Python >= 3.12), so the
    results are bit-identical to the loop stepper that
    tests/test_step_exactness.py keeps as the reference.  ``namedtuple``
    uses the same ``exec`` technique.
    """

    def names(prefix):
        return [f"{prefix}{i}" for i in range(n)]

    def unpack(variables):
        return ", ".join(variables) + ","

    y, u = names("y"), names("u")
    k = [names(f"k{stage}_") for stage in range(1, 8)]

    def combination(weights, i):
        return " + ".join(f"{w!r} * {k[s][i]}" for s, w in enumerate(weights) if w != 0.0)

    lines = ["def step(f, y, k1, h, atol, rtol):", f"    {unpack(y)} = y", f"    {unpack(k[0])} = k1"]
    for stage, weights in enumerate(_DP_A[:-1], 1):
        args = ", ".join(f"{y[i]} + h * ({combination(weights, i)})" for i in range(n))
        lines.append(f"    {unpack(k[stage])} = f([{args}])")
    # the last coupling row is the 5th-order solution (FSAL)
    lines += [f"    {u[i]} = {y[i]} + h * ({combination(_DP_A[-1], i)})" for i in range(n)]
    lines += [f"    y_new = [{', '.join(u)}]", "    k7 = f(y_new)", f"    {unpack(k[6])} = k7"]
    terms = ", ".join(
        f"(h * ({combination(_DP_ERR, i)}) / (atol + rtol * max(abs({y[i]}), abs({u[i]})))) ** 2"
        for i in range(n)
    )
    lines += [f"    return y_new, k7, sqrt(sum([{terms}]) / {n})"]
    namespace = {"sqrt": math.sqrt}
    exec("\n".join(lines), namespace)
    return namespace["step"]


def _dopri5(f, y0, t_end, cfg, postprocess=None):
    """Adaptive loop over an autonomous system whose state is a sequence of floats.

    ``f`` maps a state to its derivative; it is evaluated at ``y0`` before
    the first step, so an invalid start raises.  ``postprocess``, if given,
    runs on every accepted state and returns the state to continue from
    (constraint renormalization) or raises :class:`_AbortRun`.  Returns
    (times, states, rejected, status).
    """
    rtol, atol, max_step = cfg.rel_tol, cfg.abs_tol, cfg.max_step
    step = _make_step(len(y0))
    t = 0.0
    y = list(y0)
    times = [t]
    states = [y]
    status = "ok"
    rejected = 0
    errold = 1e-4
    k1 = f(y)
    try:
        h = _initial_step(f, y, k1, t_end, cfg)
        just_rejected = False
        for _ in range(_MAX_STEPS):
            if t >= t_end:
                break
            h = min(h, t_end - t, max_step)
            if h < 1e-14 * max(1.0, abs(t)):
                status = "step_underflow"
                break
            y_new, k7, err = step(f, y, k1, h, atol, rtol)
            if err <= 1.0:
                t += h
                if postprocess is None:
                    y = y_new
                    k1 = k7  # FSAL
                else:
                    y = postprocess(y_new)
                    k1 = f(y)
                times.append(t)
                states.append(y)
                facmax = 1.0 if just_rejected else _FACMAX
                fac = facmax if err == 0.0 else _SAFETY * err**-_ALPHA * errold**_BETA
                h *= min(facmax, max(_FACMIN, fac))
                errold = max(err, 1e-4)
                just_rejected = False
            else:
                rejected += 1
                just_rejected = True
                h *= min(1.0, max(_FACMIN, _SAFETY * err**-_ALPHA))
        else:
            if t < t_end:
                status = "step_budget"
    except NearCollisionError:
        status = "collision"
    except _AbortRun as abort:
        status = abort.status
    return np.array(times), np.array(states, dtype=float), rejected, status


def integrate_planar(
    start: PhasePoint, prob: Problem, t_end: float, cfg: IntegratorConfig | None = None, clock: str = "t"
) -> Trajectory:
    """Integrate the two-center system, sampling J, Theta and E along the way.

    With ``clock="tau"`` it steps dq/dtau = |q|_*^2 p, dp/dtau = |q|_*^2 a(q):
    ``t_end`` and the grid are then tau, and the states are still (q, dq/dt).
    """
    cfg = cfg or IntegratorConfig()
    if not np.isfinite(t_end) or t_end <= 0.0:
        raise InvalidInputError(f"t_end must be positive, got {t_end!r}")
    y0 = [*start.q.tolist(), *start.p.tolist()]
    times, states, rejected, status = _dopri5(planar_kernel(prob, clock), y0, t_end, cfg)
    j, theta, e = first_integrals(states[:, :3], states[:, 3:], prob)
    diagnostics = {"J": np.atleast_1d(j), "Theta": np.atleast_1d(theta), "E": np.atleast_1d(e)}
    kind = "planar" if clock == "t" else "planar_tau"  # reparametrize_time refuses the tau grid
    return Trajectory(times, states, diagnostics, prob, kind, status, rejected)


def integrate_ellipsoid(
    start: EllipsoidState, prob: Problem, tau_end: float, cfg: IntegratorConfig | None = None
) -> Trajectory:
    """Integrate the intrinsic ellipsoid system in the reparametrized time.

    After every accepted step the state is projected back onto the
    manifold and tangent space; the recorded residual diagnostics are the
    pre-projection values, i.e. what the integrator actually produced.
    """
    cfg = cfg or IntegratorConfig()
    if not np.isfinite(tau_end) or tau_end <= 0.0:
        raise InvalidInputError(f"tau_end must be positive, got {tau_end!r}")
    metric = start.metric
    if metric.a != prob.a:
        raise InvalidInputError("state metric does not match the problem half-distance")
    wyz = float(metric.weights[1])

    def star(u, v):
        return u[0] * v[0] + wyz * u[1] * v[1] + wyz * u[2] * v[2] + u[3] * v[3]

    y0 = [*start.point.vec.tolist(), *start.velocity.tolist()]
    norm_residuals = [abs(math.sqrt(star(y0[:4], y0[:4])) - 1.0)]
    tangency_residuals = [abs(star(y0[:4], y0[4:]))]

    def cleanup(y):
        big_q, qp = y[:4], y[4:]
        norm = math.sqrt(star(big_q, big_q))
        tangency = star(big_q, qp)
        if abs(norm - 1.0) > _INTEGRITY_LIMIT or abs(tangency) > _INTEGRITY_LIMIT:
            raise _AbortRun("integrity")
        norm_residuals.append(abs(norm - 1.0))
        tangency_residuals.append(abs(tangency))
        big_q = [v / norm for v in big_q]
        radial = star(big_q, qp)
        return big_q + [v - radial * u for v, u in zip(qp, big_q)]

    times, states, rejected, status = _dopri5(intrinsic_kernel(prob), y0, tau_end, cfg, cleanup)
    n = len(times)
    diagnostics = {
        "G": np.atleast_1d(energy_arrays(states[:, :4], states[:, 4:], prob)),
        "norm_residual": np.array(norm_residuals[:n]),
        "tangency_residual": np.array(tangency_residuals[:n]),
    }
    return Trajectory(times, states, diagnostics, prob, "ellipsoid", status, rejected)


def ellipsoid_state_at(traj: Trajectory, index: int) -> EllipsoidState:
    """Pack one sample of an ellipsoid trajectory back into an EllipsoidState."""
    if traj.kind != "ellipsoid":
        raise InvalidInputError("not an ellipsoid trajectory")
    metric = traj.problem.metric()
    row = traj.states[index]
    return EllipsoidState(EllipsoidPoint(row[:4], metric), row[4:])


def cubic_hermite(
    ts: np.ndarray, ys: np.ndarray, dys: np.ndarray, t_query: np.ndarray
) -> np.ndarray:
    """Piecewise-cubic Hermite evaluation of (ts, ys, dys) at t_query.

    Local error is O(h^4), sufficient for the 1e-6 route comparisons on
    tolerance-driven grids.
    """
    ts = np.asarray(ts, dtype=float)
    ys = np.asarray(ys, dtype=float)
    dys = np.asarray(dys, dtype=float)
    t_query = np.atleast_1d(np.asarray(t_query, dtype=float))
    if np.any(t_query < ts[0]) or np.any(t_query > ts[-1]):
        raise InvalidInputError("query times outside the data range")
    idx = np.clip(np.searchsorted(ts, t_query, side="right") - 1, 0, len(ts) - 2)
    h = (ts[idx + 1] - ts[idx])[:, None]
    s = ((t_query - ts[idx]) / h[:, 0])[:, None]
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * ys[idx] + h10 * h * dys[idx] + h01 * ys[idx + 1] + h11 * h * dys[idx + 1]
