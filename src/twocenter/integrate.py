"""Adaptive explicit integration with invariant-drift diagnostics.

Both the planar two-center system and the intrinsic ellipsoid system are
integrated with the Dormand-Prince 5(4) pair (seven stages, FSAL)
under PI step-size control (Hairer, Norsett & Wanner, *Solving ODEs I*,
II.4-II.5).  The output grid is the accepted steps; each sample carries the
problem's first integrals (planar runs) or the ellipsoidal energy and
constraint residuals (ellipsoid runs).  Planar runs step in t or, with
``clock="tau"``, in the ellipsoid runs' time tau.  The last step is cut to
h = t_end - t and, as t + h may round an ulp off t_end, lands on t_end itself,
so a run with status ``"ok"`` ends on it.

Each run works on Python floats, ``tol`` and the end time too (``geometry.check_number``),
and the ``math`` module.  A state has only six or eight components, so the per-step work
of a numpy version is call overhead, not arithmetic: one ``acceleration`` call on a
3-vector costs about fifty times the whole plain-float right-hand side, and for the same
reason no run calls its right-hand side per stage either.  Each system defines its
right-hand side once, as a template
(``dynamics.PLANAR_RHS`` and ``PLANAR_TAU_RHS``, ``projective.INTRINSIC_RHS``;
see ``codegen``), and ``_make_run`` generates one adaptive run per system,
compiled on first use: the state and the FSAL stage stay in locals across
steps, the template is written out at each of the six stage evaluations, and
for the ellipsoid the integrity check, the residual recording and the
renormalization follow inline.  The problem and the run's limits are
arguments, so nothing is compiled per problem or per call.  The
expressions keep the operation order of a stepper that loops over the
components and calls the kernel, so trajectories are bit-identical to it
(tests/test_step_exactness.py keeps that stepper as the oracle).  The step
control calls no builtin: ``max(a, b)`` is written ``b if b > a else a`` and
``min(a, b)`` ``b if b < a else a``, so a NaN or a signed zero picks the same
operand, and ``abs(v)`` ``-v if v < 0.0 else v``, whose sign of a zero or
NaN the error scale tol + tol * |v| drops.  ``** 2`` stays: ``x ** 2``
(libm's ``pow``) differs from ``x * x`` for about one double in 1,200.  The
error norm and ``_initial_step`` add their squares left to right, where
``sum`` is compensated from Python 3.12 on, so a run gives the same bits on
Python 3.10 to 3.13.

Every evaluation of a right-hand side applies ``dynamics.COLLISION_GUARD``,
the only near-center distance the integrators know; f(y_new) is evaluated
before a step is accepted, so no accepted state lies inside the guard.  So
the diagnostics skip the public evaluators' validation: the column forms of
``dynamics.INTEGRALS`` and ``projective.ENERGY`` run on the states after one
finiteness check; their guard, the template's, cannot trip, since the run
tested the same distances at every accepted state.  A run evaluates the
kernel at the initial state before its first step, so a start inside the
guard raises for both systems: there is nothing partial to return.
Mid-run failures abort cleanly: the partial trajectory up to the last good
state is returned with ``status`` set to ``"collision"``,
``"step_underflow"`` (also when the initial derivative is too large for any
step), ``"integrity"`` or ``"step_budget"`` (``_MAX_STEPS`` step attempts
used up before the end time).  Ellipsoid states are projected back onto the
constraint manifold after every accepted step.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .codegen import RhsTemplate, compile_columns, compile_function, compile_kernel
from .dynamics import INTEGRALS, PLANAR_RHS, PLANAR_TAU_RHS, PhasePoint, Problem
from .errors import InvalidInputError, NearCollisionError
from .geometry import check_finite, check_grid, check_number, star
from .projective import ENERGY, INTRINSIC_RHS, lift_arrays

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
# Step attempts before a run ends as "step_budget": 1.3 to 2.1 s at the 5 to
# 8.5 us per attempt (planar to ellipsoid) measured on a 2-vCPU Xeon VM with
# Python 3.11, and t = 6,394 on the default orbit, which reaches t = 50 in
# 1,956 steps.
_MAX_STEPS = 250_000
# Largest step h, in t or in tau.
_MAX_STEP = 0.1
# The runs' error tolerance, relative and absolute both: a step's error scale is tol + tol * |y_i|.
DEFAULT_TOL = 1e-12

# Constraint residual beyond which an ellipsoid run is declared corrupted.
_INTEGRITY_LIMIT = 1e-6

# The planar template of each clock.
_CLOCKS = {"t": PLANAR_RHS, "tau": PLANAR_TAU_RHS}


@dataclass
class Trajectory:
    """Accepted-step grid with states and per-sample diagnostics, a row of each per time;
    the grid is checked by ``geometry.check_grid``, as in ``reparametrize_time``."""

    times: np.ndarray
    states: np.ndarray
    diagnostics: dict[str, np.ndarray]
    problem: Problem
    status: str = "ok"
    rejected_steps: int = 0

    def __post_init__(self):
        self.times = check_grid(self.times)
        self.states = np.asarray(self.states, dtype=float)
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
    """Summarize invariant drift, max_t |I(t) - I(0)| / max(1, |I(0)|).

    Rounding is monotone, so the largest rounded |I - I(0)| is the larger of
    I_max - I(0) and I(0) - I_min, taken in Python floats: a spread that
    overflows reads inf without a numpy warning.  An invariant with a
    non-finite sample (an overflow) drifts by inf: its spread is then inf or
    nan (inf - inf, or a nan sample, which numpy's max and min propagate).
    """
    values = np.array(list(traj.diagnostics.values()), dtype=float).reshape(-1, len(traj.times))
    highs, lows = values.max(axis=1).tolist(), values.min(axis=1).tolist()
    drifts = {}
    for name, hi, lo, v0 in zip(traj.diagnostics, highs, lows, values[:, 0].tolist()):
        spread = abs(max(hi - v0, v0 - lo))  # abs: a zero spread reads +0.0, as |I - I(0)| does
        drifts[name] = spread / max(1.0, abs(v0)) if math.isfinite(spread) else math.inf
    steps = traj.times[1:] - traj.times[:-1]
    h_min, h_max = (float(steps.min()), float(steps.max())) if len(steps) else (0.0, 0.0)
    return DriftReport(drifts, len(traj.times) - 1, traj.rejected_steps, h_min, h_max, traj.status)


def _initial_step(f, y0, f0, t_end, tol, max_step):
    """Hairer-style starting step from the scaled sizes of y0, f0 and curvature.

    The root-mean-square sizes d0, d1 and d2 add their squares left to right."""
    n = len(y0)
    d0 = d1 = 0.0
    for v, d in zip(y0, f0):
        s = tol + tol * abs(v)
        v, d = v / s, d / s
        d0 += v * v
        d1 += d * d
    d0, d1 = math.sqrt(d0 / n), math.sqrt(d1 / n)
    if not math.isfinite(d1):
        return 0.0  # the derivative overflows its error scale: no step is small enough
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    d2 = 0.0
    for v, a, b in zip(y0, f0, f([v + h0 * d for v, d in zip(y0, f0)])):
        r = (b - a) / (tol + tol * abs(v))
        d2 += r * r
    d2 = math.sqrt(d2 / n) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, 1e-3 * h0)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1, max_step, t_end)


@functools.cache
def _make_run(template: RhsTemplate):
    """The adaptive Dormand-Prince run of ``template``, compiled on first use.

    Returns ``run(start, t_end, tol, max_step, max_steps, prob) ->
    (times, states, rejected, status)``, plus the norm and tangency residual
    lists for ``INTRINSIC_RHS``; ``start`` is a list of floats and ``prob`` carries
    the constants the template reads (``codegen.RhsTemplate``).  The lists are
    flat lists of floats: ``states`` holds one state's n components after
    another's, and ``_integrate`` reshapes it to (-1, n).  The run evaluates the
    compiled kernel at ``start``, outside its abort handling, then steps with the
    state and the FSAL stage in locals and the template written out at each
    of the six stage evaluations.  For ``INTRINSIC_RHS`` (the ellipsoid, whose
    state is (Q, Q') and whose template has the parameter ``wyz``) every
    accepted state is checked against ``_INTEGRITY_LIMIT``, projected back
    onto the manifold and tangent space, and f is evaluated there.  Zero
    tableau coefficients are skipped; each stage keeps the operation order
    ``v + h * (a1 * k1 + a2 * k2 + ...)`` of a loop over the components.
    The error scale's |y_i| is taken once per accepted state: for the planar
    runs it is the step's |u_i|.
    """
    renormalize = template is INTRINSIC_RHS
    n = len(template.state)
    y, u = [f"y{i}" for i in range(n)], template.state
    k = [[f"k{stage}_{i}" for i in range(n)] for stage in range(1, 8)]

    def combination(weights, i):
        return " + ".join(f"{w!r} * {k[s][i]}" for s, w in enumerate(weights) if w != 0.0)

    lines = [
        *template.header("run", ("start", "t_end", "tol", "max_step", "max_steps")),
        f"    {', '.join(y)}, = start",
        *(f"    ys{i} = -{y[i]} if {y[i]} < 0.0 else {y[i]}" for i in range(n)),
        "    f = kernel(prob)",
        "    k1 = f(start)  # a start inside the collision guard raises",
        f"    {', '.join(k[0])}, = k1",
        "    t = 0.0",
        "    times = [t]",
        "    states = list(start)",
        '    status = "ok"',
        "    rejected = 0",
        "    errold = 1e-4",
    ]
    if renormalize:
        lines += [
            f"    norm_residuals = [abs(sqrt({star(y, y)}) - 1.0)]",
            f"    tangency_residuals = [abs({star(y, y[4:])})]",
        ]
    lines += [
        "    try:",
        "        h = initial_step(f, start, k1, t_end, tol, max_step)",
        "        just_rejected = False",
        "        for _ in range(max_steps):",
        "            if t >= t_end:",
        "                break",
        "            h = t_end - t if t_end - t < h else h",
        "            h = max_step if max_step < h else h",
        "            if h < 1e-14 * (t if t > 1.0 else 1.0):",
        '                status = "step_underflow"',
        "                break",
    ]
    tab = " " * 12
    # the last stage is the 5th-order solution (FSAL); the state names u keep it
    for stage, weights in enumerate(_DP_A, 1):
        values = [f"{y[i]} + h * ({combination(weights, i)})" for i in range(n)]
        lines += template.inline(values, k[stage], tab)
    lines += [f"{tab}us{i} = -{u[i]} if {u[i]} < 0.0 else {u[i]}" for i in range(n)]
    terms = " + ".join(
        f"(h * ({combination(_DP_ERR, i)}) / (tol + tol * (us{i} if us{i} > ys{i} else ys{i}))) ** 2" for i in range(n)
    )
    lines += [
        f"{tab}err = sqrt(({terms}) / {n})",
        f"{tab}if err <= 1.0:",
        f"{tab}    t = t_end if h == t_end - t else t + h",
    ]
    tab = " " * 16
    if renormalize:
        lines += [
            f"{tab}norm = sqrt({star(u, u)})",
            f"{tab}tangency = {star(u, u[4:])}",
            f"{tab}if abs(norm - 1.0) > {_INTEGRITY_LIMIT!r} or abs(tangency) > {_INTEGRITY_LIMIT!r}:",
            f'{tab}    status = "integrity"',
            f"{tab}    break",
            *(f"{tab}{y[i]} = {u[i]} / norm" for i in range(4)),
            f"{tab}radial = {star(y, u[4:])}",
            *(f"{tab}{y[i]} = {u[i]} - radial * {y[i - 4]}" for i in range(4, 8)),
            *(f"{tab}ys{i} = -{y[i]} if {y[i]} < 0.0 else {y[i]}" for i in range(n)),
        ]
        lines += template.inline(y, k[0], tab)
        lines += [
            f"{tab}norm_residuals.append(abs(norm - 1.0))",
            f"{tab}tangency_residuals.append(abs(tangency))",
        ]
    else:
        lines += [f"{tab}{y[i]} = {u[i]}" for i in range(n)]
        lines += [f"{tab}ys{i} = us{i}" for i in range(n)]
        lines += [f"{tab}{k[0][i]} = {k[6][i]}" for i in range(n)]
    lines += [
        f"{tab}times.append(t)",
        f"{tab}states += ({', '.join(y)},)",
        f"{tab}facmax = 1.0 if just_rejected else {_FACMAX!r}",
        f"{tab}fac = facmax if err == 0.0 else {_SAFETY!r} * err ** -{_ALPHA!r} * errold ** {_BETA!r}",
        f"{tab}fac = fac if fac > {_FACMIN!r} else {_FACMIN!r}",
        f"{tab}h *= fac if fac < facmax else facmax",
        f"{tab}errold = 1e-4 if 1e-4 > err else err",
        f"{tab}just_rejected = False",
        "            else:",
        "                rejected += 1",
        "                just_rejected = True",
        # err > 1.0 here, so fac < 0.9 and min(1.0, ...) never binds (a nan err clips to 0.2)
        f"                fac = {_SAFETY!r} * err ** -{_ALPHA!r}",
        f"                h *= fac if fac > {_FACMIN!r} else {_FACMIN!r}",
        "        else:",
        "            if t < t_end:",
        '                status = "step_budget"',
        "    except NearCollisionError:",
        '        status = "collision"',
        "    return times, states, rejected, status" + (", norm_residuals, tangency_residuals" if renormalize else ""),
    ]
    namespace = {"kernel": compile_kernel(template), "initial_step": _initial_step}
    return compile_function(f"{template.name} run", "\n".join(lines) + "\n", "run", namespace)


def _integrate(template, y0, t_end, tol, prob, diagnostics, names) -> Trajectory:
    """Run ``template`` at ``tol``; ``names`` label the ``diagnostics`` columns, then the residual lists."""
    run = _make_run(template)
    times, states, rejected, status, *lists = run(y0, t_end, tol, _MAX_STEP, _MAX_STEPS, prob)
    times = np.fromiter(times, float, len(times))  # each list in one pass, with no type inference
    states = np.fromiter(states, float, len(states)).reshape(-1, len(y0))
    lists = [np.fromiter(values, float, len(values)) for values in lists]
    check_finite(states, "states")
    columns = [*compile_columns(diagnostics)(*states.T, prob), *lists]  # an overflow reads inf, and drifts by inf
    return Trajectory(times, states, dict(zip(names, columns)), prob, status, rejected)


def integrate_planar(
    start: PhasePoint, prob: Problem, t_end: float, tol: float = DEFAULT_TOL, clock: str = "t"
) -> Trajectory:
    """Integrate the two-center system, sampling J, Theta and E along the way.

    With ``clock="tau"`` it steps dq/dtau = |q|_*^2 p, dp/dtau = |q|_*^2 a(q):
    ``t_end`` and the grid are then tau, and the states are still (q, dq/dt).
    """
    tol, t_end = check_number(tol, "tol"), check_number(t_end, "t_end")
    if clock not in _CLOCKS:
        raise InvalidInputError(f"clock must be 't' or 'tau', got {clock!r}")
    y0 = [*start.q.tolist(), *start.p.tolist()]
    return _integrate(_CLOCKS[clock], y0, t_end, tol, prob, INTEGRALS, ("J", "Theta", "E"))


def integrate_ellipsoid(start: PhasePoint, prob: Problem, tau_end: float, tol: float = DEFAULT_TOL) -> Trajectory:
    """Integrate the intrinsic ellipsoid system in the reparametrized time.

    The run starts from the lift of the planar ``start``, (Q, Q') of one
    :func:`lift_arrays` call, whose Q is ``project(q)``.  The lift refuses a
    q whose |(q, 1)|_* overflows, as the projected point would be lost, and
    the run a p whose lifted Q' overflows; neither lets numpy warn.  After every accepted
    step the state is projected back onto the manifold and tangent space;
    the recorded residual diagnostics are the pre-projection values, i.e.
    what the integrator actually produced.
    """
    tol, tau_end = check_number(tol, "tol"), check_number(tau_end, "tau_end")
    big_q0, qp0 = lift_arrays(start.q, start.p, prob)  # refuses a q whose |(q, 1)|_* overflows
    if not np.isfinite(qp0).all():
        raise InvalidInputError(f"the lifted velocity Q' overflows at p = {start.p.tolist()}")
    y0 = [*big_q0.tolist(), *qp0.tolist()]
    return _integrate(INTRINSIC_RHS, y0, tau_end, tol, prob, ENERGY, ("G", "norm_residual", "tangency_residual"))


def cubic_hermite(
    ts: np.ndarray, ys: np.ndarray, dys: np.ndarray, t_query: np.ndarray
) -> np.ndarray:
    """Piecewise-cubic Hermite evaluation of (ts, ys, dys) at t_query.

    Local error is O(h^4), sufficient for the 1e-6 route comparisons on
    tolerance-driven grids.  The nodes ``ts`` are checked by ``geometry.check_grid``.
    """
    ts = check_grid(ts)
    ys, dys = np.asarray(ys, dtype=float), np.asarray(dys, dtype=float)
    t_query = np.atleast_1d(np.asarray(t_query, dtype=float))
    if len(ts) < 2 or ys.ndim != 2 or len(ys) != len(ts) or dys.shape != ys.shape:
        raise InvalidInputError("cubic_hermite needs two or more nodes, 2-d ys with one row per node, dys of its shape")
    if not ((ts[0] <= t_query) & (t_query <= ts[-1])).all():  # a NaN query lies outside too
        raise InvalidInputError("query times outside the data range")
    idx = np.clip(np.searchsorted(ts, t_query, side="right") - 1, 0, len(ts) - 2)
    h = (ts[idx + 1] - ts[idx])[:, None]
    s = ((t_query - ts[idx]) / h[:, 0])[:, None]
    h00 = (1.0 + 2.0 * s) * (1.0 - s) ** 2
    h10 = s * (1.0 - s) ** 2
    h01 = s * s * (3.0 - 2.0 * s)
    h11 = s * s * (s - 1.0)
    return h00 * ys[idx] + h10 * h * dys[idx] + h01 * ys[idx + 1] + h11 * h * dys[idx + 1]
