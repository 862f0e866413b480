"""Plain-float right-hand-side kernels against their numpy forms and references.

The batched ``acceleration`` is the column form of ``PLANAR_RHS``, the same
text as the planar kernel, so the two must agree bit for bit; every other
template's column form must agree with its kernel the same way.  That
comparison shares the formula, so the planar field's independent checks are
elsewhere: the scipy DOP853 run on its own numpy right-hand side in
``tests/test_trajectory_oracle.py``, and the negative potential gradient in
``tests/test_dynamics.py``.  The intrinsic kernel is compared with a numpy
copy of the array right-hand side it replaced.  Both sides round differently
in the last bit (numpy's ``d**3`` is not libm's ``pow``), and a component
that cancels keeps no relative accuracy in either, so the relative tolerance
is taken against the sum of the magnitudes of the terms that form each
component: |kernel - reference| <= ATOL + RTOL * scale.
"""

import ast
import math
import struct
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from twocenter import (InvalidInputError, NearCollisionError, Problem, acceleration, codegen, dynamics, energy_arrays,
                       first_integrals, geometry, projective, star_norm)
from twocenter.codegen import RhsTemplate, compile_columns, compile_kernel
from twocenter.dynamics import COLLISION_GUARD, INTEGRALS, PLANAR_RHS, PLANAR_TAU_RHS
from twocenter.geometry import LIFT
from twocenter.projective import ENERGY, INTRINSIC_RHS

RTOL = 1e-13
ATOL = 1e-15

half_distances = st.floats(0.25, 4.0)
masses = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
coords = st.floats(-5.0, 5.0)
vectors3 = st.tuples(coords, coords, coords)
# Offsets of norm below COLLISION_GUARD: each component under guard / 2.
inside = st.floats(-COLLISION_GUARD / 2, COLLISION_GUARD / 2)
problems = st.builds(Problem, masses, masses, half_distances)


def reference_intrinsic(y, prob):
    """numpy arithmetic of the former array right-hand side, plus its term scale."""
    a = prob.a
    weights = np.array([1.0, 1.0 / (1.0 + a * a), 1.0 / (1.0 + a * a), 1.0])
    centers = np.array([[-a, 0.0, 0.0, 1.0], [a, 0.0, 0.0, 1.0]])
    masses = np.array([prob.m_minus, prob.m_plus])
    big_q, qp = y[:4], y[4:]
    qq = float(np.sum(weights * big_q * big_q))
    diff = big_q - centers * big_q[3]
    dist = np.sqrt(np.sum(diff * diff, axis=-1))
    raw = np.sum((masses / dist**3)[:, None] * centers, axis=0)
    radial = float(np.sum(weights * big_q * raw))
    speed2 = float(np.sum(weights * qp * qp))
    qpp = raw - ((radial + speed2) / qq) * big_q
    raw_scale = np.sum((masses / dist**3)[:, None] * np.abs(centers), axis=0)
    closure_scale = (float(np.sum(weights * np.abs(big_q) * raw_scale)) + speed2) / qq
    scale = np.concatenate([np.zeros(4), raw_scale + closure_scale * np.abs(big_q)])
    return np.concatenate([qp, qpp]), scale


@given(problems, vectors3, vectors3)
def test_planar_kernel_matches_acceleration(prob, q, p):
    assume(min(math.dist(q, (-prob.a, 0.0, 0.0)), math.dist(q, (prob.a, 0.0, 0.0))) >= 1e-3)
    q = np.array(q)
    out = compile_kernel(PLANAR_RHS)(prob)((*q.tolist(), *p))
    assert out[:3] == p
    assert np.array_equal(np.array(out[3:]), acceleration(q, prob))


# Every formula of the package, each once, and those with a guard.
TEMPLATES = list({id(value): value for module in (dynamics, geometry, projective)
                  for value in vars(module).values() if isinstance(value, RhsTemplate)}.values())
GUARDED = [template for template in TEMPLATES if template.guard is not None]


def bound(template, prob):
    """``template``'s kernel and column form, each bound to ``prob``."""
    return compile_kernel(template)(prob), lambda *state: compile_columns(template)(*state, prob)


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
def test_params_are_the_constants_the_template_reads(template):
    """The one binding rule: a template's ``params`` are exactly the names its guard, body
    and derivative read but never assign, less its state and the compiler's own names."""
    tree = ast.parse("\n".join([*template.statements(), *template.derivative]))
    names = [node for node in ast.walk(tree) if isinstance(node, ast.Name)]
    read = {node.id for node in names if isinstance(node.ctx, ast.Load)}
    assigned = {node.id for node in names if isinstance(node.ctx, ast.Store)}
    compiler = {"sqrt", "inf", "InvalidInputError", "NearCollisionError"}
    assert sorted(template.params) == sorted(read - assigned - set(template.state) - compiler)


def refused(template, rhs, row, a, far):
    """``row`` moved where ``template``'s kernel ``rhs`` refuses it: onto the center
    (-a, 0, 0), scaled by w on the ellipsoid, or else out to y = ``far``."""
    w = row[template.state.index("w")] if "w" in template.state else 1.0
    for moved in ([-a * w, 0.0, 0.0], [row[0], far, row[2]]):
        try:
            rhs(moved + row[3:])
        except template.guard.error:
            return moved + row[3:]
    pytest.fail(f"no row tried trips the guard of {template.name}")


@pytest.mark.parametrize("template", GUARDED, ids=lambda t: t.name)
def test_column_form_matches_kernel_row_by_row(template):
    """The column form runs the kernel's text on numpy columns: each row gives
    the kernel's bits, and a batch with refused rows raises the kernel's error
    and message at the first of them in C order, for a (4, 25) batch and for one
    point (0-d columns).  ``LIFT``'s message names the row's q, so it tells the
    rows apart."""
    rng = np.random.default_rng(5)
    size = len(template.state)
    for prob in (Problem(), Problem(1.3, 0.7, 1.7)):
        rhs, columns = bound(template, prob)
        states = rng.uniform(-5.0, 5.0, (80, 25, size))
        want = np.array([rhs(row) for row in states.reshape(-1, size).tolist()])
        got = np.stack(np.broadcast_arrays(*columns(*np.moveaxis(states, -1, 0))), axis=-1)
        assert np.array_equal(got.reshape(want.shape), want)
        batch = states[:4].copy()
        batch[3, 1] = refused(template, rhs, batch[3, 1].tolist(), prob.a, -2e200)  # first in F order
        batch[2, 7] = refused(template, rhs, batch[2, 7].tolist(), prob.a, 3e200)  # first in C order
        for state, first in ((np.moveaxis(batch, -1, 0), batch[2, 7]), (list(map(np.array, batch[3, 1])), batch[3, 1])):
            with pytest.raises(template.guard.error) as in_columns:
                columns(*state)
            with pytest.raises(template.guard.error) as in_kernel:
                rhs(first.tolist())
            assert str(in_columns.value) == str(in_kernel.value)


def test_a_refusal_the_kernel_does_not_share_is_an_assertion():
    """A column form refuses a row by running the kernel on it, which raises the
    guard's error; were the kernel to pass that row, the column form would be at
    fault, and it raises ``AssertionError`` instead of returning."""
    state = [np.array([0.5, 1.5])] * len(LIFT.state)
    with pytest.raises(AssertionError, match="lift kernel passes"):
        codegen._refuse(LIFT, np.array([False, True]), state, Problem(a=2.0))


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
def test_column_form_deletes_each_temporary_after_its_last_reader(template):
    """Each name that a column form assigns, but its outputs ``_out*``, is deleted
    exactly once, by the statement right after the last one that reads it."""
    flat = ast.parse("\n".join(template.statements(columns=True))).body
    names = [{node.id for node in ast.walk(statement) if isinstance(node, ast.Name)} for statement in flat]
    assigned = {statement.targets[0].id for statement in flat if isinstance(statement, ast.Assign)}
    deleted = [(i, target.id) for i, statement in enumerate(flat) if isinstance(statement, ast.Delete)
               for target in statement.targets]
    assert sorted(name for _, name in deleted) == sorted(name for name in assigned if not name.startswith("_out"))
    for i, name in deleted:
        readers = [j for j, statement in enumerate(flat) if name in names[j] and not isinstance(statement, ast.Delete)]
        assert readers[-1] == i - 1, (name, ast.unparse(flat[i]))


def overflowing_rows(template, rhs, a):
    """Rows where ``template``'s kernel ``rhs`` returns inf or NaN and refuses nothing: a row
    off every center with one component, or all, at +-1e155, +-1e200 or +-1.5e308, and the
    row moved 1e-3 from the center (-a, 0, 0), scaled by w on the ellipsoid."""
    base = np.random.default_rng(8).uniform(0.5, 5.0, len(template.state)).tolist()
    w = base[template.state.index("w")] if "w" in template.state else 1.0
    rows, tried = [], [[-a * w + 1e-3, 0.0, 0.0] + base[3:]]
    for big in (1e155, 1e200, 1.5e308, -1e155, -1e200, -1.5e308):
        tried += [base[:i] + [big] + base[i + 1:] for i in range(len(base))] + [[big] * len(base)]
    for row in tried:
        try:
            out = rhs(row)
        except (InvalidInputError, NearCollisionError):
            continue
        if not np.isfinite(out).all():
            rows.append(row)
    return rows


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
def test_guard_lines_run_without_overflow_warnings(template):
    """The one overflow rule: a column form runs whole, not only its guard's lines,
    with overflow warnings off.  On rows where its kernel returns inf or NaN, at unit
    masses and at 1e300, it gives the kernel's bits, NaN included, for a batch and for
    one point of numpy scalars, with no ``RuntimeWarning``."""
    found = 0
    for prob in (Problem(1.3, 0.7, 1.7), Problem(1e300, 1e300, 1.7)):
        rhs, columns = bound(template, prob)
        rows = overflowing_rows(template, rhs, prob.a)
        want = np.array([rhs(row) for row in rows]).reshape(len(rows), len(template.derivative))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batch = np.stack(np.broadcast_arrays(*columns(*np.array(rows).reshape(-1, len(template.state)).T)), axis=-1)
            points = np.array([columns(*map(np.float64, row)) for row in rows]).reshape(want.shape)
        assert np.array_equal(batch, want, equal_nan=True)
        assert np.array_equal(points, want, equal_nan=True)
        found += len(rows)
    assert found, f"no row tried overflows the {template.name} kernel"


# A q far from both centers, where the center distances overflow and no guard refuses,
# and public evaluators at one point whose result overflows, each its kernel's.
FAR = np.array([1e200, 0.0, 0.0])
Q = np.array([0.0, 0.5, 0.0, 0.5])
PUBLIC_OVERFLOWS = {
    "acceleration": lambda prob: (acceleration(FAR, prob), (-0.0, -0.0, -0.0)),
    "first_integrals": lambda prob: (first_integrals(FAR, np.zeros(3), prob), (0.0, 0.0, 0.0)),
    "energy_arrays": lambda prob: (energy_arrays(np.append(FAR, 1.0), np.zeros(4), prob), 0.0),
    "first_integrals-far-momentum": lambda prob: (first_integrals(np.array([1e155, 0, 0]), np.array([0, 1, 0]), prob),
                                                  compile_kernel(INTEGRALS)(prob)([1e155, 0, 0, 0, 1, 0])),
    "energy_arrays-overflowing-speed": lambda prob: (energy_arrays(Q, np.array([1e200, 0, 0, 0]), prob),
                                                     compile_kernel(ENERGY)(prob)([*Q, 1e200, 0, 0, 0])[0]),
    "star_norm": lambda prob: (star_norm(np.array([1e200, 0, 0, 0]), prob), np.inf),
}


@pytest.mark.parametrize("call", list(PUBLIC_OVERFLOWS))
def test_public_evaluators_overflow_without_warnings(call):
    """The center distances of a far q overflow to inf, which no guard refuses, and J, E,
    G and |v|_* overflow at a large p or v: each evaluator returns its kernel's inf or
    NaN (the center distances' inf gives 0) with no ``RuntimeWarning``."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, want = PUBLIC_OVERFLOWS[call](Problem())
    assert np.array_equal(got, want, equal_nan=True)


def relation_kernel(prob):
    """(J, E, Theta^2, G) of one planar state: the kernels of ``INTEGRALS``, ``LIFT``
    and ``ENERGY`` composed, the row form of ``projective._relation``."""
    integrals, lift, energy = compile_kernel(INTEGRALS)(prob), compile_kernel(LIFT)(prob), compile_kernel(ENERGY)(prob)

    def rhs(state):
        j, theta, e = integrals(state)
        g, = energy(lift(state))
        return j, e, theta * theta, g

    return rhs


def test_relation_column_form_matches_composed_kernels_row_by_row():
    """``projective._relation``, through ``LIFT``: each row gives the bits of the
    kernels composed, and a q whose |(q, 1)|_* overflows is refused by both with
    one message, the column form naming the first such row.  (``LIFT`` alone is
    a case of :func:`test_column_form_matches_kernel_row_by_row`.)"""
    rng = np.random.default_rng(6)
    for prob in (Problem(), Problem(1.3, 0.7, 1.7)):
        states = rng.uniform(-5.0, 5.0, (2000, 6))
        rhs = relation_kernel(prob)
        want = np.array([rhs(row) for row in states.tolist()])
        assert np.array_equal(np.stack(projective._relation(prob, *states.T), axis=-1), want)
        states[[7, 9], 1] = (3e200, -2e200)
        with pytest.raises(InvalidInputError) as in_columns:
            projective._relation(prob, *states.T)  # E overflows, with no warning, before the lift refuses
        with pytest.raises(InvalidInputError) as in_kernel:
            rhs(states[7].tolist())
        assert str(in_columns.value) == str(in_kernel.value) == f"|(q, 1)|_* overflows at q = {states[7, :3].tolist()}"


def read_only(values):
    values = np.array(values)
    values.flags.writeable = False
    return values


@pytest.mark.parametrize("template", TEMPLATES, ids=lambda t: t.name)
def test_column_forms_never_write_their_inputs(template):
    """A column form accumulates only into its own temporaries (see codegen): on
    read-only columns, where a write into an input raises, it gives the kernel's
    bits row by row for one point (0-d columns), a batch, and one array passed as
    every column."""
    rhs, columns = bound(template, Problem(1.3, 0.7, 1.7))
    states = np.random.default_rng(7).uniform(0.5, 5.0, (50, len(template.state)))  # off every center
    shared = read_only(states[:, 0])
    for state in ([read_only(value) for value in states[0]], [read_only(column) for column in states.T],
                  [shared] * len(template.state)):
        got = columns(*state)
        rows = np.stack(np.broadcast_arrays(*state), axis=-1).reshape(-1, len(template.state))
        want = np.array([rhs(row) for row in rows.tolist()])
        assert np.array_equal(np.stack(np.broadcast_arrays(*got), axis=-1).reshape(want.shape), want)


def test_import_compiles_no_generated_code():
    """Column forms, kernels and runs are compiled on first use, so importing
    the package costs none of them."""
    check = (
        "import twocenter\n"
        "from twocenter import codegen, integrate\n"
        "caches = (codegen.compile_columns, codegen.compile_kernel, integrate._make_run)\n"
        "assert [c.cache_info().currsize for c in caches] == [0, 0, 0]\n"
    )
    subprocess.run([sys.executable, "-c", check], check=True)


@given(problems, vectors3, st.sampled_from([1.0 - 1e-6, 1.0, 1.0 + 1e-6]), st.tuples(coords, coords, coords, coords))
def test_intrinsic_kernel_matches_array_reference(prob, q, off_manifold, qp):
    """Q is a projected slice point scaled off the ellipsoid as stage values are."""
    a = prob.a
    weights = np.array([1.0, 1.0 / (1.0 + a * a), 1.0 / (1.0 + a * a), 1.0])
    assume(min(math.dist(q, (-a, 0.0, 0.0)), math.dist(q, (a, 0.0, 0.0))) >= 1e-3)
    q4 = np.array([*q, 1.0])
    big_q = off_manifold * q4 / np.sqrt(np.sum(weights * q4 * q4))
    y = np.concatenate([big_q, qp])
    reference, scale = reference_intrinsic(y, prob)
    out = np.array(compile_kernel(INTRINSIC_RHS)(prob)(y.tolist()))
    assert np.array_equal(out[:4], y[4:])
    assert np.all(np.abs(out - reference) <= ATOL + RTOL * scale)


@given(problems, st.sampled_from([-1.0, 1.0]), st.tuples(inside, inside, inside), vectors3)
def test_planar_kernel_guard(prob, side, offset, p):
    q = (side * prob.a + offset[0], offset[1], offset[2])
    with pytest.raises(NearCollisionError):
        compile_kernel(PLANAR_RHS)(prob)((*q, *p))
    with pytest.raises(NearCollisionError):
        acceleration(np.array(q), prob)


@given(problems, st.sampled_from([-1.0, 1.0]), st.floats(0.05, 1.0), st.tuples(inside, inside, inside))
def test_intrinsic_kernel_guard(prob, side, w, offset):
    """Q on the projection ray of a center, up to an offset inside the guard."""
    y = (side * prob.a * w + offset[0], offset[1], offset[2], w, 0.0, 0.0, 0.0, 0.0)
    with pytest.raises(NearCollisionError):
        compile_kernel(INTRINSIC_RHS)(prob)(y)


@given(problems, vectors3, vectors3)
def test_tau_kernel_scales_t_kernel_by_star_norm_squared(prob, q, p):
    """dtau/dt = 1/|q|_*^2, so the tau right-hand side is |q|_*^2 times the t one."""
    assume(min(math.dist(q, (-prob.a, 0.0, 0.0)), math.dist(q, (prob.a, 0.0, 0.0))) >= 1e-3)
    y = (*q, *p)
    n2 = q[0] ** 2 + (q[1] ** 2 + q[2] ** 2) / (1.0 + prob.a**2) + 1.0
    expected = n2 * np.array(compile_kernel(PLANAR_RHS)(prob)(y))
    out = np.array(compile_kernel(PLANAR_TAU_RHS)(prob)(y))
    assert np.allclose(out, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("a", [1.0, 2.0])
def test_kernels_return_python_floats(a):
    """Python floats in, Python floats out: a kernel that closes over a numpy
    scalar (an element of a numpy array is one) runs every stage on numpy scalars,
    about twice as slowly, and numpy scalars are floats to isinstance."""
    prob = Problem(1.0, 0.5, a)
    planar = [0.1, 2.0, -0.3, 0.3, 0.1, 0.6]
    for rhs in (compile_kernel(PLANAR_RHS)(prob), compile_kernel(PLANAR_TAU_RHS)(prob)):
        assert [type(v) for v in rhs(planar)] == [float] * 6
    wyz = 1.0 / (1.0 + a * a)
    norm = math.sqrt(0.1**2 + wyz * (2.0**2 + 0.3**2) + 1.0)
    big_q = [0.1 / norm, 2.0 / norm, -0.3 / norm, 1.0 / norm]
    assert [type(v) for v in compile_kernel(INTRINSIC_RHS)(prob)([*big_q, 0.2, 0.0, 0.1, -0.1])] == [float] * 8


# --- the templates before their shared subexpressions were named ------------------
# ``y * y``, ``z * z``, ``a * w`` and the negated factors were written out where
# used.  Naming each once is the same IEEE operation on the same operands, so
# the kernels, and every generated run, must give the same bits as these.

OLD_PLANAR_RHS = RhsTemplate(
    name="planar t, written out",
    state=PLANAR_RHS.state,
    params=PLANAR_RHS.params,
    body="""\
x_minus = x + a
x_plus = x - a
d2_minus = x_minus * x_minus + y * y + z * z
d2_plus = x_plus * x_plus + y * y + z * z
d_minus = sqrt(d2_minus)
d_plus = sqrt(d2_plus)
if d_minus < guard or d_plus < guard:
    raise NearCollisionError(f"point within {guard:g} of an attracting center")
k_minus = m_minus / (d2_minus * d_minus)
k_plus = m_plus / (d2_plus * d_plus)""",
    derivative=(
        "px",
        "py",
        "pz",
        "-k_minus * x_minus - k_plus * x_plus",
        "-k_minus * y - k_plus * y",
        "-k_minus * z - k_plus * z",
    ),
)

OLD_PLANAR_TAU_RHS = RhsTemplate(
    name="planar tau, written out",
    state=OLD_PLANAR_RHS.state,
    params=PLANAR_TAU_RHS.params,
    body=OLD_PLANAR_RHS.body + "\nn2 = x * x + wyz * y * y + wyz * z * z + 1.0",
    derivative=tuple(f"n2 * ({expr})" for expr in OLD_PLANAR_RHS.derivative),
)

OLD_INTRINSIC_RHS = RhsTemplate(
    name="ellipsoid, written out",
    state=INTRINSIC_RHS.state,
    params=INTRINSIC_RHS.params,
    body="""\
x_minus = x + a * w
x_plus = x - a * w
d2_minus = x_minus * x_minus + y * y + z * z
d2_plus = x_plus * x_plus + y * y + z * z
d_minus = sqrt(d2_minus)
d_plus = sqrt(d2_plus)
if d_minus < guard or d_plus < guard:
    raise NearCollisionError(f"ellipsoid point within {guard:g} of a scaled center")
s_minus = m_minus / (d2_minus * d_minus)
s_plus = m_plus / (d2_plus * d_plus)
f_x = a * s_plus - a * s_minus
f_w = s_minus + s_plus
qq = x * x + wyz * y * y + wyz * z * z + w * w
speed2 = xp * xp + wyz * yp * yp + wyz * zp * zp + wp * wp
c = (x * f_x + w * f_w + speed2) / qq""",
    derivative=("xp", "yp", "zp", "wp", "f_x - c * x", "-c * y", "-c * z", "f_w - c * w"),
)

# near the centers, on the scale of the orbits, and anywhere a double reaches
any_coord = st.one_of(coords, st.floats(-1e-3, 1e-3), st.floats(allow_nan=False))


def outcome(rhs, state):
    """The bits of ``rhs(state)``, or the type of what it raised."""
    try:
        out = rhs(state)
    except (NearCollisionError, ZeroDivisionError) as error:
        return type(error)
    return struct.pack(f"{len(out)}d", *out)


TEMPLATE_PAIRS = pytest.mark.parametrize(
    "old, new",
    [(OLD_PLANAR_RHS, PLANAR_RHS), (OLD_PLANAR_TAU_RHS, PLANAR_TAU_RHS), (OLD_INTRINSIC_RHS, INTRINSIC_RHS)],
    ids=["planar-t", "planar-tau", "ellipsoid"],
)


@TEMPLATE_PAIRS
@given(prob=problems, data=st.data())
def test_templates_match_their_written_out_form_bit_for_bit(old, new, prob, data):
    state = data.draw(st.lists(any_coord, min_size=len(new.state), max_size=len(new.state)))
    if new is INTRINSIC_RHS and data.draw(st.booleans()):
        state[0] = data.draw(st.sampled_from([-1.0, 1.0])) * prob.a * state[3]  # on a center's ray
    assert outcome(compile_kernel(new)(prob), state) == outcome(compile_kernel(old)(prob), state)


@TEMPLATE_PAIRS
def test_templates_match_their_written_out_form_on_many_states(old, new):
    """A reassociated sum changes the last bit of about one orbit-scale state
    in 200, too rarely for a hundred drawn examples to catch."""
    rng = np.random.default_rng(13)
    for prob in (Problem(), Problem(0.3, 1.7, 2.5)):
        new_rhs, old_rhs = compile_kernel(new)(prob), compile_kernel(old)(prob)
        for state in rng.uniform(-5.0, 5.0, (10_000, len(new.state))).tolist():
            assert outcome(new_rhs, state) == outcome(old_rhs, state)
