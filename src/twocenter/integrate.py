"""Adaptive explicit integration with invariant-drift diagnostics.

Both the planar two-center system and the intrinsic ellipsoid system are
integrated with the Dormand-Prince 5(4) embedded pair (seven stages, FSAL)
under PI step-size control (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4-II.5).  The output grid is the accepted steps; each sample carries the
problem's first integrals (planar runs) or the ellipsoidal energy and
constraint residuals (ellipsoid runs).  Planar runs step in t or, with
``clock="tau"``, in the ellipsoid runs' time tau.  The last step is cut to
land on the end time, so a run with status ``"ok"`` ends on it.

Each run works on Python floats and the ``math`` module.  A state has only
six or eight components, so the per-step work of a numpy version is call
overhead, not arithmetic: one ``acceleration`` call on a 3-vector costs
about fifty times the whole plain-float right-hand side.  The batched numpy
evaluators stay the public API for arrays and the reference the kernels are
tested against.  For the same reason no run calls its right-hand side per
stage either.  Each system defines its right-hand side once, as a template
(``dynamics.PLANAR_RHS`` and ``PLANAR_TAU_RHS``, ``projective.INTRINSIC_RHS``;
see ``codegen``), and ``_make_run`` generates one adaptive run per system,
compiled on first use: the state and the FSAL stage stay in locals across
steps, the template is written out at each of the six stage evaluations, and
for the ellipsoid the integrity check, the residual recording and the
renormalization follow inline.  The problem's constants and the run's
limits are arguments, so nothing is compiled per problem or per call.  The
expressions keep the operation order of a stepper that loops over the
components and calls the kernel, so trajectories are bit-identical to it
(tests/test_step_exactness.py keeps that stepper as the oracle).

Every evaluation of a right-hand side applies ``dynamics.COLLISION_GUARD``,
the only near-center distance the integrators know; f(y_new) is evaluated
before a step is accepted, so no accepted state lies inside the guard.  A
run evaluates the kernel at the initial state before its first step, so a start
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

from .codegen import RhsTemplate, compile_function, compile_kernel
from .dynamics import PhasePoint, Problem, first_integrals, planar_system
from .errors import InvalidInputError, NearCollisionError
from .projective import EllipsoidState, energy_arrays, intrinsic_system

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
# Step attempts before a run ends as "step_budget": 4 to 6 s at the 15 to
# 23 us per attempt measured on a 2-vCPU VM, and t = 6,394 on the default
# orbit, which reaches t = 50 in 1,956 steps.
_MAX_STEPS = 250_000
# Largest step h, in t or in tau.
_MAX_STEP = 0.1

# Constraint residual beyond which an ellipsoid run is declared corrupted.
_INTEGRITY_LIMIT = 1e-6


@dataclass(frozen=True)
class IntegratorConfig:
    """Error tolerances of the adaptive runs."""

    rel_tol: float = 1e-12
    abs_tol: float = 1e-12

    def __post_init__(self):
        for name in ("rel_tol", "abs_tol"):
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
    status: str = "ok"
    rejected_steps: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.asarray(self.states, dtype=float)
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
    return min(100.0 * h0, h1, _MAX_STEP, t_end)


def _star(u, v):
    """Source of (u, v)_* = u0 v0 + wyz u1 v1 + wyz u2 v2 + u3 v3, summed left to right."""
    return f"{u[0]} * {v[0]} + wyz * {u[1]} * {v[1]} + wyz * {u[2]} * {v[2]} + {u[3]} * {v[3]}"


@functools.cache
def _make_run(template: RhsTemplate, renormalize: bool = False):
    """The adaptive Dormand-Prince run of ``template``, compiled on first use.

    Returns ``run(start, t_end, cfg, max_step, max_steps, **params) ->
    (times, states, rejected, status)``, plus the norm and tangency residual
    lists when ``renormalize``; ``start`` is a list of floats and
    ``params`` the template's parameters.  The run evaluates the compiled
    kernel at ``start``, outside its abort handling, then steps with the
    state and the FSAL stage in locals and the template written out at each
    of the six stage evaluations.  With ``renormalize`` (the ellipsoid, whose
    state is (Q, Q') and whose template has the parameter ``wyz``) every
    accepted state is checked against ``_INTEGRITY_LIMIT``, projected back
    onto the manifold and tangent space, and f is evaluated there.  Zero
    tableau coefficients are skipped; each stage keeps the operation order
    ``v + h * (a1 * k1 + a2 * k2 + ...)`` of a loop over the components, and
    the error norm stays ``sum`` over a list (compensated on Python >= 3.12).
    """
    n = len(template.state)
    y, u = [f"y{i}" for i in range(n)], [f"u{i}" for i in range(n)]
    k = [[f"k{stage}_{i}" for i in range(n)] for stage in range(1, 8)]

    def combination(weights, i):
        return " + ".join(f"{w!r} * {k[s][i]}" for s, w in enumerate(weights) if w != 0.0)

    lines = [
        f"def run(start, t_end, cfg, max_step, max_steps, {', '.join(template.params)}):",
        "    atol, rtol = cfg.abs_tol, cfg.rel_tol",
        f"    {', '.join(y)}, = start",
        f"    f = kernel({', '.join(template.params)})",
        "    k1 = f(start)  # a start inside the collision guard raises",
        f"    {', '.join(k[0])}, = k1",
        "    t = 0.0",
        "    times = [t]",
        "    states = [start]",
        '    status = "ok"',
        "    rejected = 0",
        "    errold = 1e-4",
    ]
    if renormalize:
        lines += [
            f"    norm_residuals = [abs(sqrt({_star(y, y)}) - 1.0)]",
            f"    tangency_residuals = [abs({_star(y, y[4:])})]",
        ]
    lines += [
        "    try:",
        "        h = initial_step(f, start, k1, t_end, cfg)",
        "        just_rejected = False",
        "        for _ in range(max_steps):",
        "            if t >= t_end:",
        "                break",
        "            h = min(h, t_end - t, max_step)",
        "            if h < 1e-14 * max(1.0, abs(t)):",
        '                status = "step_underflow"',
        "                break",
    ]
    tab = " " * 12
    for stage, weights in enumerate(_DP_A[:-1], 1):
        values = [f"{y[i]} + h * ({combination(weights, i)})" for i in range(n)]
        lines += template.inline(values, k[stage], tab)
    # the last coupling row is the 5th-order solution (FSAL)
    lines += [f"{tab}{u[i]} = {y[i]} + h * ({combination(_DP_A[-1], i)})" for i in range(n)]
    lines += template.inline(u, k[6], tab)
    terms = ", ".join(
        f"(h * ({combination(_DP_ERR, i)}) / (atol + rtol * max(abs({y[i]}), abs({u[i]})))) ** 2"
        for i in range(n)
    )
    lines += [
        f"{tab}err = sqrt(sum([{terms}]) / {n})",
        f"{tab}if err <= 1.0:",
        f"{tab}    t += h",
    ]
    tab = " " * 16
    if renormalize:
        lines += [
            f"{tab}norm = sqrt({_star(u, u)})",
            f"{tab}tangency = {_star(u, u[4:])}",
            f"{tab}if abs(norm - 1.0) > {_INTEGRITY_LIMIT!r} or abs(tangency) > {_INTEGRITY_LIMIT!r}:",
            f'{tab}    status = "integrity"',
            f"{tab}    break",
            *(f"{tab}{y[i]} = {u[i]} / norm" for i in range(4)),
            f"{tab}radial = {_star(y, u[4:])}",
            *(f"{tab}{y[i]} = {u[i]} - radial * {y[i - 4]}" for i in range(4, 8)),
        ]
        lines += template.inline(y, k[0], tab)
        lines += [
            f"{tab}norm_residuals.append(abs(norm - 1.0))",
            f"{tab}tangency_residuals.append(abs(tangency))",
        ]
    else:
        lines += [f"{tab}{y[i]} = {u[i]}" for i in range(n)]
        lines += [f"{tab}{k[0][i]} = {k[6][i]}" for i in range(n)]
    lines += [
        f"{tab}times.append(t)",
        f"{tab}states.append([{', '.join(y)}])",
        f"{tab}facmax = 1.0 if just_rejected else {_FACMAX!r}",
        f"{tab}fac = facmax if err == 0.0 else {_SAFETY!r} * err ** -{_ALPHA!r} * errold ** {_BETA!r}",
        f"{tab}h *= min(facmax, max({_FACMIN!r}, fac))",
        f"{tab}errold = max(err, 1e-4)",
        f"{tab}just_rejected = False",
        "            else:",
        "                rejected += 1",
        "                just_rejected = True",
        f"                h *= min(1.0, max({_FACMIN!r}, {_SAFETY!r} * err ** -{_ALPHA!r}))",
        "        else:",
        "            if t < t_end:",
        '                status = "step_budget"',
        "    except NearCollisionError:",
        '        status = "collision"',
        "    return times, states, rejected, status" + (", norm_residuals, tangency_residuals" if renormalize else ""),
    ]
    namespace = {"kernel": compile_kernel(template), "initial_step": _initial_step}
    return compile_function(f"{template.name} run", "\n".join(lines) + "\n", "run", namespace)


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
    template, params = planar_system(prob, clock)
    y0 = [*start.q.tolist(), *start.p.tolist()]
    times, states, rejected, status = _make_run(template)(y0, t_end, cfg, _MAX_STEP, _MAX_STEPS, **params)
    states = np.array(states, dtype=float)
    j, theta, e = first_integrals(states[:, :3], states[:, 3:], prob)
    diagnostics = {"J": np.atleast_1d(j), "Theta": np.atleast_1d(theta), "E": np.atleast_1d(e)}
    return Trajectory(np.array(times), states, diagnostics, prob, status, rejected)


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
    if start.metric.a != prob.a:
        raise InvalidInputError("state metric does not match the problem half-distance")
    template, params = intrinsic_system(prob)
    y0 = [*start.point.vec.tolist(), *start.velocity.tolist()]
    run = _make_run(template, renormalize=True)
    times, states, rejected, status, norms, tangencies = run(y0, tau_end, cfg, _MAX_STEP, _MAX_STEPS, **params)
    states = np.array(states, dtype=float)
    diagnostics = {
        "G": np.atleast_1d(energy_arrays(states[:, :4], states[:, 4:], prob)),
        "norm_residual": np.array(norms),
        "tangency_residual": np.array(tangencies),
    }
    return Trajectory(np.array(times), states, diagnostics, prob, status, rejected)


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
