"""Lifted velocities, the tangential field, and the ellipsoidal energy.

A projected state is the pair of (..., 4) arrays (Q, Q') of ``lift_arrays``
(or ``project`` for Q alone); the field is ``kernel(INTRINSIC_RHS, prob)``
and the energy ``energy_arrays``, whose value at Q' = 0 is the potential.
"""

import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from twocenter import (
    IntegralRelation,
    InvalidInputError,
    NearCollisionError,
    PhasePoint,
    Problem,
    RankDeficientError,
    energy_arrays,
    fd_tangential_acceleration,
    first_integrals,
    fit_integral_relation,
    integrate_planar,
    lift_arrays,
    project,
    relation_coefficients,
    relation_residual,
    reparametrize_time,
    star_inner,
    star_norm,
    velocity_independence_residual,
)
from twocenter import projective
from twocenter.dynamics import kernel
from twocenter.sampling import make_rng, sample_phase_points

from oracles import lifted_speed_squared, star_weights
from twocenter.verify import check_fitted_relation, check_pointwise_relation

EQUAL = Problem(1.0, 1.0, 1.0)

masses = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
problems = st.builds(Problem, masses, masses, st.floats(0.25, 4.0))
seeds = st.integers(0, 2**32 - 1)


def intrinsic_rhs(big_q, qp, prob):
    """(Q', Q'') of the intrinsic ODE at one state, from the template's kernel."""
    y = kernel(projective.INTRINSIC_RHS, prob)(np.concatenate([big_q, qp]).tolist())
    return np.array(y[:4]), np.array(y[4:])


def field_at(point, prob):
    """The tangential field: the intrinsic Q'' at Q' = 0."""
    return intrinsic_rhs(point, np.zeros(4), prob)[1]


def potential_at(points, prob):
    """The potential part of G: G at Q' = 0."""
    return energy_arrays(points, np.zeros(4), prob)


def test_lift_examples():
    _, qp = lift_arrays(np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), EQUAL)
    assert np.allclose(qp, [0, 0, np.sqrt(1.5), 0], atol=1e-15)
    assert star_norm(qp, EQUAL) ** 2 == pytest.approx(0.75, abs=1e-15)
    _, rest = lift_arrays(np.array([0.3, -2.0, 1.1]), np.zeros(3), EQUAL)
    assert np.array_equal(rest, np.zeros(4))
    with pytest.raises(InvalidInputError, match="finite components"):
        lift_arrays(np.array([np.inf, 0.0, 0.0]), np.zeros(3), EQUAL)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_lift_position_is_project(a):
    """The lift's Q is ``project(q)`` bit for bit: one central projection,
    on a single point and on a seeded batch."""
    prob = Problem(1.0, 1.0, a)
    assert np.array_equal(lift_arrays(np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), prob)[0],
                          project(np.array([0.0, 1, 0]), prob))
    rng = make_rng(25)
    qs, ps = rng.uniform(-10, 10, size=(10_000, 3)), rng.uniform(-3, 3, size=(10_000, 3))
    assert np.array_equal(lift_arrays(qs, ps, prob)[0], project(qs, prob))


def test_lift_refuses_an_overflowing_norm():
    """A q whose |(q, 1)|_* overflows is refused before numpy can warn,
    naming the point, or the first such row of a batch, which p broadcasts to."""
    batch = np.zeros((5, 3))
    batch[2] = (0.0, -3e200, 1.0)  # overflows through the y term alone
    batch[4] = (1e155, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=r"^\|\(q, 1\)\|_\* overflows at q = \[1e\+155, 0\.0, 0\.0\]$"):
            lift_arrays(np.array([1e155, 0.0, 0.0]), np.zeros(3), EQUAL)
        with pytest.raises(InvalidInputError, match=r"^\|\(q, 1\)\|_\* overflows at q = \[0\.0, -3e\+200, 1\.0\]$"):
            lift_arrays(batch, np.ones(3), EQUAL)


@pytest.mark.parametrize("n", [10, 3 * projective._ROWS + 7])  # one block, and the row in a short last one
def test_relation_residual_refuses_an_overflowing_norm_without_warning(n):
    """A q whose |(q, 1)|_* overflows is refused by name before numpy can
    warn; a p whose residual overflows reads nan in its row, without a warning."""
    q, p = sample_phase_points(EQUAL, n, make_rng(n))
    p[-1] = (1e200, 0.0, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        residual = relation_residual(q, p, EQUAL)
        assert np.isnan(residual[-1]) and np.all(np.abs(residual[:-1]) <= 1e-10)
        q[-1] = (1e155, 0.0, 0.0)
        with pytest.raises(InvalidInputError, match=r"^\|\(q, 1\)\|_\* overflows at q = \[1e\+155, 0\.0, 0\.0\]$"):
            relation_residual(q, p, EQUAL)


def test_lift_is_tangent():
    rng = make_rng(2)
    for prob in (EQUAL, Problem(a=2.0)):
        qs = rng.uniform(-4, 4, size=(300, 3))
        ps = rng.uniform(-3, 3, size=(300, 3))
        big_q, qp = lift_arrays(qs, ps, prob)
        assert np.max(np.abs(star_inner(big_q, qp, prob))) <= 1e-12


def test_speed_expansion_examples():
    assert lifted_speed_squared(np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), EQUAL) == 0.75
    assert lifted_speed_squared(np.array([1.0, 2, 3]), np.zeros(3), EQUAL) == 0.0


def test_speed_expansion_matches_lift():
    rng = make_rng(21)
    qs = rng.uniform(-5, 5, size=(1000, 3))
    ps = rng.uniform(-3, 3, size=(1000, 3))
    formula = lifted_speed_squared(qs, ps, EQUAL)
    speed2 = star_norm(lift_arrays(qs, ps, EQUAL)[1], EQUAL) ** 2
    assert np.max(np.abs(formula - speed2)) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(problems, seeds)
def test_speed_expansion_matches_lift_at_any_a(prob, seed):
    qs, ps = sample_phase_points(prob, 500, make_rng(seed))
    lifted = np.sum(star_weights(prob) * lift_arrays(qs, ps, prob)[1] ** 2, axis=-1)
    formula = lifted_speed_squared(qs, ps, prob)
    assert np.all(np.abs(formula - lifted) <= 1e-12 * lifted)


def test_tangential_field_examples():
    top = project(np.zeros(3), EQUAL)
    assert np.allclose(field_at(top, EQUAL), np.zeros(4), atol=1e-15)
    assert np.array_equal(field_at(top, Problem(0.0, 0.0, 1.0)), np.zeros(4))
    single = field_at(top, Problem(1.0, 0.0, 1.0))
    assert np.allclose(single, [-1.0, 0, 0, 0], atol=1e-15)


def test_tangential_field_is_tangent():
    rng = make_rng(4)
    prob = Problem(0.6, 1.9, 1.0)
    for point in project(rng.uniform(-4, 4, size=(200, 3)), EQUAL):
        assert abs(star_inner(point, field_at(point, prob), EQUAL)) <= 1e-12


def test_tangential_field_center_ray_guard():
    # the projected center itself sits at zero distance from the scaled center
    point = project(np.array([1.0, 0, 0]), EQUAL)
    with pytest.raises(NearCollisionError):
        field_at(point, EQUAL)


def test_energy_examples():
    lifted = lift_arrays(np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), EQUAL)
    assert energy_arrays(*lifted, EQUAL) == pytest.approx(0.75 - np.sqrt(2), abs=1e-14)
    rest = lift_arrays(np.zeros(3), np.zeros(3), EQUAL)
    assert energy_arrays(*rest, EQUAL) == pytest.approx(-2.0, abs=1e-14)
    assert energy_arrays(*rest, Problem(0.0, 0.0, 1.0)) == 0.0


def test_energy_center_ray_error():
    point = project(np.array([1.0, 0, 0]), EQUAL)
    with pytest.raises(NearCollisionError):
        energy_arrays(point, np.zeros(4), EQUAL)


def test_energy_refuses_the_lifted_center():
    with pytest.raises(NearCollisionError):
        energy_arrays(*lift_arrays(np.array([1.0, 0, 0]), np.zeros(3), EQUAL), EQUAL)


def u_form_energy(big_q, qp, prob):
    """The paper's G: |Q'|_*^2 - (2/(1+a^2)) sum_j m_j u_j / sqrt(1 - u_j^2), u_j = (c_j . Q)/sqrt(1+a^2),
    and the sum of the absolute values of its terms."""
    a = prob.a
    x, w = big_q[..., 0], big_q[..., 3]
    u = np.stack([w - a * x, w + a * x], axis=-1) / np.sqrt(1.0 + a * a)
    speed = star_norm(qp, prob) ** 2
    terms = (2.0 / (1.0 + a * a)) * np.array([prob.m_minus, prob.m_plus]) * u / np.sqrt(1.0 - u * u)
    return speed - np.sum(terms, axis=-1), speed + np.sum(np.abs(terms), axis=-1)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_energy_matches_the_u_form(a):
    """Away from the centers, where 1 - u_j^2 does not cancel, the distance form
    the code evaluates and the paper's u-form agree to roundoff."""
    prob = Problem(1.3, 0.6, a)
    qs, ps = sample_phase_points(prob, 2000, make_rng(11), min_center_distance=0.2)
    big_q, qp = lift_arrays(qs, ps, prob)
    want, size = u_form_energy(big_q, qp, prob)
    assert np.max(np.abs(energy_arrays(big_q, qp, prob) - want) / size) <= 1e-13


def exact_lifted_energy(q, p, prob):
    """G(lift(q, p)) in 50-digit arithmetic, by the u-form: its cancellation in
    1 - u_j^2 costs nothing at this precision."""
    with mpmath.workdps(50):
        wyz = 1 / (1 + mpmath.mpf(prob.a) ** 2)
        x, y, z = map(mpmath.mpf, q)
        px, py, pz = map(mpmath.mpf, p)
        n = mpmath.sqrt(x * x + wyz * (y * y + z * z) + 1)
        radial = (x * px + wyz * (y * py + z * pz)) / n
        xp, yp, zp, wp = px * n - x * radial, py * n - y * radial, pz * n - z * radial, -radial
        g = xp * xp + wyz * (yp * yp + zp * zp) + wp * wp
        for m, sign in ((prob.m_minus, -1), (prob.m_plus, 1)):
            u = (sign * prob.a * x + 1) * mpmath.sqrt(wyz) / n
            g -= 2 * wyz * m * u / mpmath.sqrt(1 - u * u)
        return float(g)


@pytest.mark.parametrize("distance", [1e-4, 1e-6])
@pytest.mark.parametrize("a", [1.0, 2.0])
def test_energy_near_a_center_is_accurate(distance, a):
    """Near a center G loses no more than the lift's roundoff, about 1e-10
    relative at 1e-6; the u-form lost 3.4e-8 at 1e-4 and 4.9e-4 at 1e-6."""
    prob = Problem(0.8, 1.3, a)
    rng = make_rng(3)
    for sign in (-1.0, 1.0):
        for _ in range(5):
            direction = rng.normal(size=3)
            q = np.array([sign * a, 0.0, 0.0]) + distance * direction / np.linalg.norm(direction)
            p = rng.normal(size=3)
            want = exact_lifted_energy(q, p, prob)
            assert abs(energy_arrays(*lift_arrays(q, p, prob), prob) - want) <= 1e-9 * abs(want)


def test_potential_examples():
    origin = project(np.zeros(3), EQUAL)
    assert potential_at(origin, EQUAL) == pytest.approx(-2.0, abs=1e-15)
    side = project(np.array([0.0, 1, 0]), EQUAL)
    assert potential_at(side, EQUAL) == pytest.approx(-np.sqrt(2), abs=1e-15)
    assert potential_at(side, Problem(0.0, 0.0, 1.0)) == 0.0


def test_potential_pullback_identity():
    """Projected potential equals its 3-d closed form, for several a."""
    rng = make_rng(17)
    for a in (1.0, 0.5, 2.0):
        prob = Problem(1.2, 0.7, a)
        qs, _ = sample_phase_points(prob, 1000, rng)
        values = potential_at(project(qs, prob), prob)
        x = qs[:, 0]
        c = np.array([a, 0.0, 0.0])
        d_minus = np.linalg.norm(qs + c, axis=1)
        d_plus = np.linalg.norm(qs - c, axis=1)
        closed = (2 / (1 + a * a)) * (
            prob.m_minus * (a * x - 1) / d_minus - prob.m_plus * (a * x + 1) / d_plus
        )
        assert np.max(np.abs(values - closed)) <= 1e-12


def test_relation_examples():
    q, p = np.array([0.0, 1, 0]), np.array([0.0, 0, 1])
    assert abs(relation_residual(q, p, EQUAL)) <= 1e-12
    assert abs(relation_residual(np.zeros(3), np.zeros(3), EQUAL)) <= 1e-12


def test_relation_sweep():
    rng = make_rng(42)
    qs, ps = sample_phase_points(EQUAL, 10_000, rng)
    assert np.max(np.abs(relation_residual(qs, ps, EQUAL))) <= 1e-10


@settings(max_examples=40, deadline=None)
@given(problems, seeds)
def test_relation_holds_at_any_a(prob, seed):
    qs, ps = sample_phase_points(prob, 2000, make_rng(seed))
    assert np.max(np.abs(relation_residual(qs, ps, prob))) <= 1e-10


def test_relation_coefficients_examples():
    assert relation_coefficients(1.0) == (1.0, 0.5, -0.25, 0.0)
    assert relation_coefficients(2.0) == pytest.approx((0.4, 0.2, -0.16, 0.0), abs=1e-16)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("m_minus, m_plus", [(1.0, 1.0), (0.4, 1.7)])
def test_fit_matches_closed_form(a, m_minus, m_plus):
    relation = fit_integral_relation(Problem(m_minus, m_plus, a), 512, seed=1)
    fitted = (relation.lambda_J, relation.lambda_E, relation.lambda_theta2, relation.lambda_0)
    assert np.max(np.abs(np.subtract(fitted, relation_coefficients(a)))) <= 1e-9
    assert relation.max_residual <= 1e-8


def test_fitted_relation_check_judges_gap_and_residual():
    prob = Problem(1.0, 1.0, 2.0)
    good = check_fitted_relation(IntegralRelation(0.4, 0.2, -0.16, 0.0, 3e-13), prob)
    assert good.name == "fit-relation" and good.passed
    assert good.measured == pytest.approx(3e-13, abs=1e-15)
    a1_form = check_fitted_relation(IntegralRelation(1.0, 0.5, -0.25, 0.0, 3e-13), prob)
    assert not a1_form.passed and a1_form.measured == pytest.approx(0.6)
    loose = check_fitted_relation(IntegralRelation(0.4, 0.2, -0.16, 0.0, 1e-6), prob)
    assert not loose.passed and loose.measured == 1e-6
    at_tolerance = check_fitted_relation(IntegralRelation(0.4, 0.2, -0.16, 0.0, 1e-8), prob)
    assert at_tolerance.passed and at_tolerance.measured == at_tolerance.tolerance == 1e-8


@pytest.mark.parametrize("mass", [1e4, 1e6, 1e100])
def test_pointwise_relation_check_is_relative_to_the_masses(mass, monkeypatch):
    """G, J and E grow with the masses, and so does their roundoff: the
    identity passes at any mass, and lambda_J or lambda_E off by 1e-9 fails."""
    prob = Problem(mass, mass, 1.0)
    result = check_pointwise_relation(prob, 2000, seed=42)
    assert result.passed and result.measured <= 1e-13
    exact = projective.relation_coefficients
    for index in (0, 1):  # lambda_J, lambda_E

        def perturbed(a, index=index):
            coeffs = list(exact(a))
            coeffs[index] += 1e-9
            return tuple(coeffs)

        monkeypatch.setattr(projective, "relation_coefficients", perturbed)
        assert not check_pointwise_relation(prob, 2000, seed=42).passed


def test_pointwise_relation_check_is_absolute_up_to_unit_masses():
    prob = Problem(0.3, 0.7, 2.0)
    q, p = sample_phase_points(prob, 2000, make_rng(42))
    raw = np.max(np.abs(relation_residual(q, p, prob)))
    assert check_pointwise_relation(prob, 2000, seed=42).measured == raw


def test_fit_recovers_printed_coefficients():
    relation = fit_integral_relation(EQUAL, 512, seed=1)
    assert abs(relation.lambda_J - 1.0) <= 1e-9
    assert abs(relation.lambda_E - 0.5) <= 1e-9
    assert abs(relation.lambda_theta2 + 0.25) <= 1e-9
    assert abs(relation.lambda_0) <= 1e-9
    assert relation.max_residual <= 1e-8


def test_fit_free_motion():
    relation = fit_integral_relation(Problem(0.0, 0.0, 1.3), 256, seed=2)
    assert relation.max_residual <= 1e-9


def test_fit_general_a_fixture():
    # pinned from the first fit run (a=2, m_minus=1, m_plus=3, seed=1)
    relation = fit_integral_relation(Problem(1.0, 3.0, 2.0), 512, seed=1)
    assert relation.max_residual <= 1e-8
    assert abs(relation.lambda_J - 0.4) <= 1e-9
    assert abs(relation.lambda_E - 0.2) <= 1e-9
    assert abs(relation.lambda_theta2 + 0.16) <= 1e-9
    assert abs(relation.lambda_0) <= 1e-9


def test_fit_rejects_small_sample():
    with pytest.raises(InvalidInputError):
        fit_integral_relation(EQUAL, 7)


def test_fit_rank_deficiency(monkeypatch):
    """A rank-deficient draw is refused at once: a degenerate sampler stays
    degenerate, so drawing again could not help."""
    draws = []

    def zero_velocity_sampler(prob, n, rng):
        draws.append(n)
        qs, _ = sample_phase_points(prob, n, rng)
        return qs, np.zeros_like(qs)  # Theta column identically zero

    monkeypatch.setattr(projective, "sample_phase_points", zero_velocity_sampler)
    with pytest.raises(RankDeficientError, match=r"^the fit's sample of 64 points is rank deficient \(rank 3 of 4\)$"):
        fit_integral_relation(EQUAL, 64, seed=3)
    assert draws == [64]


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 16.0), st.floats(-3.0, 16.0), st.floats(0.25, 4.0), seeds)
def test_fit_recovers_closed_form_at_any_mass(log_m_minus, log_m_plus, a, seed):
    """Masses in [1e-3, 1e16] keep full rank.  G carries roundoff of about
    mass x 1e-16, so l_T2 and l_0, whose columns are of size one, are only
    determined to that over the column size: the gap of every coefficient is
    judged in units of its column's share of G, and l_J and l_E absolutely."""
    prob = Problem(10.0**log_m_minus, 10.0**log_m_plus, a)
    drawn = []

    def recording_sampler(prob, n, rng):  # 64 points: the fit's one draw
        drawn[:] = sample_phase_points(prob, n, rng)
        return drawn

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projective, "sample_phase_points", recording_sampler)
        relation = fit_integral_relation(prob, 64, seed)
    q, p = drawn
    j, theta, e = first_integrals(q, p, prob)
    column_norms = np.linalg.norm([j, e, theta**2, np.ones_like(j)], axis=1)
    g_norm = np.linalg.norm(energy_arrays(*lift_arrays(q, p, prob), prob))
    fitted = (relation.lambda_J, relation.lambda_E, relation.lambda_theta2, relation.lambda_0)
    gaps = np.abs(np.subtract(fitted, relation_coefficients(a)))
    assert np.all(gaps * column_norms <= 1e-10 * g_norm)
    assert gaps[0] <= 1e-10 and gaps[1] <= 1e-10


def test_intrinsic_rhs_examples():
    top = project(np.zeros(3), EQUAL)
    _, qpp = intrinsic_rhs(top, np.zeros(4), EQUAL)
    assert np.allclose(qpp, np.zeros(4), atol=1e-15)

    side = project(np.array([0.0, 2, 0]), EQUAL)
    _, qpp = intrinsic_rhs(side, np.zeros(4), EQUAL)
    assert np.allclose(qpp, field_at(side, EQUAL), atol=0)

    free = Problem(0.0, 0.0, 1.0)
    big_q, velocity = lift_arrays(np.array([0.0, 2, 0]), np.array([0.3, 0, 0.6]), EQUAL)
    qp, qpp = intrinsic_rhs(big_q, velocity, free)
    speed2 = star_norm(velocity, EQUAL) ** 2
    assert np.allclose(qpp, -speed2 * big_q, atol=1e-15)
    assert np.array_equal(qp, velocity)


def test_reparametrize_stationary():
    times = np.linspace(0.0, 3.0, 7)
    rest = np.zeros((7, 3))
    assert np.allclose(reparametrize_time(times, rest, rest, EQUAL), times, atol=1e-15)


def test_reparametrize_monotone_and_slower_than_t():
    start = PhasePoint(np.array([0.0, 2, 0]), np.array([0.3, 0, 0.6]))
    traj = integrate_planar(start, EQUAL, 10.0)
    tau = reparametrize_time(traj.times, traj.states[:, :3], traj.states[:, 3:], EQUAL)
    assert np.all(np.diff(tau) > 0)
    assert np.all(tau <= traj.times + 1e-15)


def test_reparametrize_fourth_order_convergence():
    """Quadrature error drops ~16x per grid halving; scipy quad is the oracle."""
    prob = Problem(0.0, 0.0, 1.0)
    q0 = np.array([0.5, 1.0, 0.0])
    p0 = np.array([0.2, 0.3, 0.1])

    def integrand(t):
        q = q0 + t * p0
        return 1.0 / (q[0] ** 2 + 0.5 * (q[1] ** 2 + q[2] ** 2) + 1.0)

    reference, err = quad(integrand, 0.0, 2.0, epsabs=1e-14, epsrel=1e-14)
    assert err < 1e-12
    errors = []
    for n in (11, 21):
        times = np.linspace(0.0, 2.0, n)  # free motion in closed form, no integrator
        q = q0 + times[:, None] * p0
        p = np.broadcast_to(p0, q.shape)
        errors.append(abs(reparametrize_time(times, q, p, prob)[-1] - reference))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.4)


@pytest.mark.parametrize(
    "times, q_shape, p_shape, message",
    [
        pytest.param(np.zeros((2, 2)), (2, 3), (2, 3), "1-d grid", id="times-not-1d"),
        pytest.param(np.array([]), (0, 3), (0, 3), "1-d grid", id="empty-grid"),
        pytest.param(np.array([0.0, 1.0]), (3, 3), (2, 3), "q must have shape", id="q-rows"),
        pytest.param(np.array([0.0, 1.0]), (2, 3), (2, 4), "p must have shape", id="p-columns"),
        pytest.param(np.array([0.0, 1.0]), (6,), (2, 3), "q must have shape", id="q-flat"),
        pytest.param(np.array([0.0, 0.0]), (2, 3), (2, 3), "strictly increasing", id="repeated-time"),
        pytest.param(np.array([1.0, 0.0]), (2, 3), (2, 3), "strictly increasing", id="decreasing-time"),
        pytest.param(np.array([0.0, np.nan, 1.0]), (3, 3), (3, 3), "finite", id="nan-time"),
        # the grid's rule comes first, then the rows of q and p
        pytest.param(np.array([0.0, np.nan]), (3, 3), (2, 3), "^times must have finite", id="nan-time-before-q-rows"),
    ],
)
def test_reparametrize_refuses_misshaped_input(times, q_shape, p_shape, message):
    with pytest.raises(InvalidInputError, match=message):
        reparametrize_time(times, np.ones(q_shape), np.ones(p_shape), EQUAL)


@pytest.mark.parametrize(
    "times, q, p, message",
    [
        pytest.param([0.0, 1.0], [[np.nan, 0.0, 0.0]] * 2, [[0.0] * 3] * 2, "^q must have finite", id="nan-q"),
        pytest.param([0.0, 1.0], [[0.0] * 3] * 2, [[0.0, np.inf, 0.0]] * 2, "^p must have finite", id="inf-p"),
        pytest.param([0.0, 1.0], [[1e155, 0.0, 0.0]] * 2, [[0.0] * 3] * 2, r"\|q\|_\*\^2 overflows", id="huge-q"),
        pytest.param([0.0, 1.0], [[1e10, 0.0, 0.0]] * 2, [[1e300, 0.0, 0.0]] * 2, "non-finite", id="huge-q-dot-p"),
        pytest.param([0.0, 1e200], [[1.0, 0.0, 0.0]] * 2, [[0.0] * 3] * 2, "non-finite", id="huge-step"),
    ],
)
def test_reparametrize_refuses_overflow_without_warning(times, q, p, message):
    """pytest turns RuntimeWarning into an error, so an overflow that warns fails here."""
    with pytest.raises(InvalidInputError, match=message):
        reparametrize_time(np.array(times), np.array(q), np.array(p), EQUAL)


def test_tangential_field_matches_potential_gradient():
    """F_tan is -1/2 the tangential gradient of the potential part of G.

    The factor 1/2 comes from G carrying |Q'|^2 rather than |Q'|^2/2; the
    directional derivatives are taken along normalized curves on the
    manifold with central differences.
    """
    rng = make_rng(23)
    h = 1e-6
    for a in (1.0, 2.0):
        prob = Problem(1.1, 0.8, a)
        qs, _ = sample_phase_points(prob, 50, rng, min_center_distance=0.5)
        for point in project(qs, prob):
            field = field_at(point, prob)
            for seed_vec in (np.array([1.0, 0.3, -0.2, 0.1]), np.array([0.0, 1.0, 0.5, -0.3])):
                v = seed_vec - star_inner(point, seed_vec, prob) * point
                v = v / star_norm(v, prob)
                fwd = (point + h * v) / star_norm(point + h * v, prob)
                bwd = (point - h * v) / star_norm(point - h * v, prob)
                dv = (potential_at(fwd, prob) - potential_at(bwd, prob)) / (2 * h)
                assert abs(star_inner(field, v, prob) + 0.5 * dv) <= 1e-6


def test_velocity_independence_free_motion():
    # free motion has no tangential field at all; the residual is pure noise
    assert velocity_independence_residual(np.array([0.2, 1.0, -0.4]), Problem(0.0, 0.0, 1.0)) <= 1e-8


def test_velocity_independence_at_anchor():
    assert velocity_independence_residual(np.array([0.0, 1, 0]), EQUAL) <= 1e-6


@pytest.mark.parametrize("q3", [[0.0, 1.0], [[0.0, 1.0, 0.0]] * 2, [np.nan, 1.0, 0.0]])
def test_velocity_independence_refuses_a_bad_position(q3):
    with pytest.raises(InvalidInputError):
        velocity_independence_residual(np.array(q3), EQUAL)


@pytest.mark.filterwarnings("error")
def test_velocity_independence_spread_overflow_raises():
    """At masses of 1e100 the differenced accelerations are finite but the
    norms of their pairwise differences overflow: raised like the oracle's
    own overflow, not a numpy warning and inf."""
    with pytest.raises(FloatingPointError, match="overflow"):
        velocity_independence_residual(np.array([0.0, 1, 0]), Problem(1e100, 1e100, 1.0), seed=42)


def test_fd_acceleration_matches_field():
    rng = make_rng(29)
    qs, ps = sample_phase_points(EQUAL, 50, rng, q_radius=3.0, min_center_distance=0.5)
    for q, p, point in zip(qs, ps, project(qs, EQUAL)):
        oracle = fd_tangential_acceleration(q, p, EQUAL)
        assert star_norm(oracle - field_at(point, EQUAL), EQUAL) <= 1e-6
