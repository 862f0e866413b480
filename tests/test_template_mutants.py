"""Every operator swap and every scaled literal in a formula template fails a physics check.

The mutants are read from the live templates with ``ast``: each ``+`` <-> ``-``
and ``*`` <-> ``/``, and each nonzero number literal scaled by 1 + 1e-9 (a zero
scales to itself), of the body, the guard's lines and each derivative
expression, one edit at a time, in the six system templates (``PLANAR_RHS``,
``PLANAR_TAU_RHS``, ``INTEGRALS``, ``LIFT``, ``INTRINSIC_RHS``, ``ENERGY``),
the weighted product ``STAR`` and the tau rate of ``reparametrize_time``, so
there is no list of mutants to keep.
Each mutant is rebound wherever the package holds its template, a dict
such as ``integrate._CLOCKS`` included, the caches of compiled code are
cleared, and the checks below run:

- the pointwise relation on 500 sampled points, at two mass pairs and
  a = 1 and 2, and its exact image under the mirror y -> -y;
- the lift of those points on the ellipsoid and tangent to it;
- the tau clock: the planar tau kernel at a start is the planar t kernel
  times |(q, 1)|_*^2;
- the tau rate: ``reparametrize_time`` integrates g = 1/|(q, 1)|_*^2 and
  reads its t rate along p;
- the planar drift of J, Theta and E at t = 5;
- the G drift and the two-route check of an ellipsoid run at tau = 1;
- the velocity independence of the tangential field;
- the normal closure at a state off the manifold, (Q, Q)_* = 1.01: the
  intrinsic Q'' keeps a tangent Q' tangent, (Q, Q'')_* = -|Q'|_*^2.

Before a mutant is judged, the test asserts that the code the checks ran
was compiled from it: every form of its template that they compiled
differs from the original's source, and there is at least one.  A harness
that missed a binding would otherwise report the mutant as a survivor, or
judge the original code.  No recorded bits are involved, so a change that
re-records hashes or golden figures still meets these checks.
"""

import ast
import dataclasses
import sys
import warnings

import numpy as np
import pytest

from twocenter import (
    PhasePoint,
    Problem,
    codegen,
    drift_report,
    dynamics,
    geometry,
    integrate,
    integrate_ellipsoid,
    integrate_planar,
    lift_arrays,
    make_rng,
    projective,
    relation_residual,
    reparametrize_time,
    sample_phase_points,
    star_inner,
    star_norm,
)
from twocenter.errors import NearCollisionError, RankDeficientError
from twocenter.verify import (
    TOL_FIRST_INTEGRAL_DRIFT,
    TOL_POINTWISE_RELATION,
    check_energy_drift,
    check_two_routes,
    check_velocity_independence,
)

from oracles import star_weights

TEMPLATES = (dynamics.PLANAR_RHS, dynamics.PLANAR_TAU_RHS, dynamics.INTEGRALS, geometry.LIFT,
             projective.INTRINSIC_RHS, projective.ENERGY, geometry.STAR, projective._TAU_RATE)
# The mutants that no check kills, each with its reason; every other mutant must fail a check.
SURVIVORS = {
    "lift body: radial = qx * px + wyz * qy * py + wyz * qz * pz - 0.0":
        "signed zero: x - 0.0 differs from x + 0.0 only at x = -0.0, so only the sign of a zero of Q' moves",
}

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult}
SCALE = 1.0 + 1e-9  # of a literal
PROBLEMS = (Problem(1.0, 0.7, 1.0), Problem(0.6, 1.3, 2.0))
START = PhasePoint(np.array([0.3, 2.0, 0.1]), np.array([0.3, -0.1, 0.6]))
MIRROR_Y = np.array([1.0, -1.0, 1.0])
# Step attempts of a run under a mutant: the runs here take a few hundred, and a
# mutant that shrinks the step ends in "step_budget" at once instead of after 250,000.
MAX_STEPS = 5_000
# Errors by which a check refuses a mutant's values: a guard, a domain or a division.
REFUSALS = (ArithmeticError, ValueError, NearCollisionError, RankDeficientError)
COMPILE = codegen.compile_function


def edits(text, mode):
    """(``text`` with one edit, the statement or expression it is in), for each ``+``, ``-``,
    ``*`` and ``/`` swapped and each nonzero number literal scaled by ``SCALE`` in turn;
    ``mode`` is ``"exec"`` for lines, ``"eval"`` for one expression."""
    tree = ast.parse(text, mode=mode)
    for part in tree.body if mode == "exec" else [tree]:
        for node in ast.walk(part):
            if isinstance(node, ast.BinOp) and type(node.op) in SWAPS:
                op, node.op = node.op, SWAPS[type(node.op)]()
                yield ast.unparse(tree), ast.unparse(part)
                node.op = op
            elif isinstance(node, ast.Constant) and type(node.value) in (int, float) and node.value != 0:
                value, node.value = node.value, node.value * SCALE
                yield ast.unparse(tree), ast.unparse(part)
                node.value = value


def mutants(template):
    """{id: mutant} of ``template``, the id naming the field and the edited line."""
    found = {}
    for text, line in edits(template.body, "exec"):
        found[f"{template.name} body: {line}"] = dataclasses.replace(template, body=text)
    if template.guard is not None:
        for text, line in edits(template.guard.lines, "exec"):
            found[f"{template.name} guard: {line}"] = dataclasses.replace(template, guard=template.guard._replace(lines=text))
    for i, expr in enumerate(template.derivative):
        for text, line in edits(expr, "eval"):
            derivative = (*template.derivative[:i], text, *template.derivative[i + 1:])
            found[f"{template.name} derivative {i}: {line}"] = dataclasses.replace(template, derivative=derivative)
    return found


def rebind(original, replacement):
    """Put ``replacement`` wherever a module of the package, or a dict it holds, holds ``original``."""
    for module in [module for name, module in sys.modules.items() if name.partition(".")[0] == "twocenter"]:
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, replacement)
            elif isinstance(value, dict):
                value.update({k: replacement for k, v in value.items() if v is original})


def clear_caches():
    for cache in (codegen.compile_columns, codegen.compile_kernel, integrate._make_run):
        cache.cache_clear()


def closure_holds(prob):
    """The intrinsic Q'' at Q scaled off the ellipsoid to (Q, Q)_* = 1.01, with Q' tangent,
    against the normal closure: (Q, Q'')_* + |Q'|_*^2 = 0, in the weights of the test's oracle."""
    weights = star_weights(prob)
    big_q, qp = lift_arrays(START.q, START.p, prob)
    state = [*(np.sqrt(1.01) * big_q).tolist(), *qp.tolist()]
    qpp = np.array(codegen.compile_kernel(projective.INTRINSIC_RHS)(prob)(state)[4:])
    speed2 = float(weights @ (qp * qp))
    return abs(float(weights @ (np.array(state[:4]) * qpp)) + speed2) <= 1e-13 * max(1.0, speed2)


def tau_clock_holds(prob):
    """The planar tau kernel at ``START`` against the planar t kernel times |(q, 1)|_*^2,
    in the weights of the test's oracle, to 1e-14 relative."""
    state = [*START.q.tolist(), *START.p.tolist()]
    n2 = float(star_weights(prob) @ np.append(START.q, 1.0) ** 2)
    want = n2 * np.array(codegen.compile_kernel(dynamics.PLANAR_RHS)(prob)(state))
    got = np.array(codegen.compile_kernel(dynamics.PLANAR_TAU_RHS)(prob)(state))
    return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def tau_rate_holds(prob):
    """The tau rate of ``reparametrize_time`` at ``START`` against g = 1/|(q, 1)|_*^2 in the weights of
    the test's oracle, to 1e-14 relative, and against its complex-step derivative along p, exact to
    roundoff, to 1e-12 relative.  On the nodes t = 0 and 1 with the state repeated, the quadrature's
    tau(1) is g; with p reversed at the second node it is g + (dg/dt) / 6."""
    weights, nodes = star_weights(prob), [START.q, START.q]
    g = reparametrize_time([0.0, 1.0], nodes, [START.p, START.p], prob)[1]
    gdot = 6.0 * (reparametrize_time([0.0, 1.0], nodes, [START.p, -START.p], prob)[1] - g)
    want = 1.0 / (weights @ np.append(START.q, 1.0) ** 2)
    step = 1e-30  # the complex step: no difference is taken, so it can be this small
    want_dot = (1.0 / (weights @ np.append(START.q + 1j * step * START.p, 1.0) ** 2)).imag / step
    return abs(g - want) <= 1e-14 * want and abs(gdot - want_dot) <= 1e-12 * abs(want_dot)


def first_failure():
    """The name of the first check that fails, or None when every one passes."""
    for prob in PROBLEMS:
        q, p = sample_phase_points(prob, 500, make_rng(7))
        residual = relation_residual(q, p, prob)
        if not np.max(np.abs(residual)) <= TOL_POINTWISE_RELATION:
            return "pointwise relation"
        if not np.array_equal(relation_residual(q * MIRROR_Y, p * MIRROR_Y, prob), residual):
            return "y -> -y mirror of the relation"
        big_q, qp = lift_arrays(q, p, prob)
        if not (np.max(np.abs(star_norm(big_q, prob) - 1.0)) <= 1e-14
                and np.max(np.abs(star_inner(big_q, qp, prob))) <= 1e-14 * np.max(np.abs(qp))):
            return "lift on the ellipsoid"
        if not tau_clock_holds(prob):
            return "tau clock"
        if not tau_rate_holds(prob):
            return "tau rate"
        planar = drift_report(integrate_planar(START, prob, 5.0))
        if planar.status != "ok" or not max(planar.drifts.values()) <= TOL_FIRST_INTEGRAL_DRIFT:
            return "planar drift"
        intrinsic = integrate_ellipsoid(START, prob, 1.0)
        for check in (check_energy_drift(intrinsic), check_two_routes(START, intrinsic), check_velocity_independence(prob)):
            if not check.passed:
                return check.name
        if not closure_holds(prob):
            return "normal closure"
    return None


def judge():
    """(first failing check or None, [(label, source)] of the code compiled meanwhile), on
    cleared caches; a refusal by an error counts as a failing check, named by its type."""
    compiled = []

    def recording(label, source, name, namespace):
        compiled.append((label, source))
        return COMPILE(label, source, name, namespace)

    clear_caches()
    try:
        with pytest.MonkeyPatch.context() as patch, warnings.catch_warnings(), np.errstate(all="ignore"):
            for module in (codegen, integrate):
                patch.setattr(module, "compile_function", recording)
            patch.setattr(integrate, "_MAX_STEPS", MAX_STEPS)
            warnings.simplefilter("ignore")
            failure = first_failure()
    except REFUSALS as exc:
        failure = type(exc).__name__
    finally:
        clear_caches()
    return failure, compiled


@pytest.fixture(scope="module")
def originals():
    """{label: source} of every form the checks compile from the unmutated templates,
    which must pass them all."""
    failure, compiled = judge()
    assert failure is None, f"the unmutated templates fail the check {failure!r}"
    return dict(compiled)


@pytest.mark.parametrize("original", TEMPLATES, ids=lambda template: template.name)
def test_every_mutant_fails_a_physics_check(original, originals):
    labels = {f"{original.name} {form}" for form in ("kernel", "columns", "run")}
    found = mutants(original)
    assert found, f"{original.name} has no operator to swap"
    survived = {}
    for mutant_id, mutant in found.items():
        rebind(original, mutant)
        try:
            failure, compiled = judge()
        finally:
            rebind(mutant, original)
        forms = [(label, source) for label, source in compiled if label in labels]
        assert forms, f"no code of {original.name} was compiled for {mutant_id!r}"
        for label, source in forms:
            assert source != originals.get(label), f"{label} was compiled from the original, not {mutant_id!r}"
        if failure is None:
            survived[mutant_id] = SURVIVORS.get(mutant_id, "not listed")
    listed = {mutant_id: reason for mutant_id, reason in SURVIVORS.items() if mutant_id in found}
    print(f"{original.name}: {len(found) - len(survived)} of {len(found)} mutants killed")
    for mutant_id, reason in survived.items():
        print(f"  survivor {mutant_id!r}: {reason}")
    assert survived == listed
