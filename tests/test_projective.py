"""Lifted velocities, the tangential field, and the ellipsoidal energy."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad

from twocenter import (
    CenterRayError,
    EllipsoidPoint,
    EllipsoidState,
    IntegralRelation,
    InvalidInputError,
    NearCollisionError,
    PhasePoint,
    Problem,
    RankDeficientError,
    StarMetric,
    Trajectory,
    ellipsoid_potential,
    ellipsoidal_energy,
    embed,
    energy_arrays,
    fd_tangential_acceleration,
    first_integrals,
    fit_integral_relation,
    integrate_planar,
    intrinsic_rhs,
    lift_arrays,
    lift_velocity,
    lifted_speed_squared,
    project,
    relation_coefficients,
    relation_residual,
    reparametrize_time,
    star_inner,
    star_norm,
    tangential_field,
    velocity_independence_residual,
)
from twocenter.sampling import make_rng, sample_phase_points
from twocenter.verify import check_fitted_relation

M1 = StarMetric(1.0)
EQUAL = Problem(1.0, 1.0, 1.0)

masses = st.one_of(st.just(0.0), st.floats(0.0, 2.0))
problems = st.builds(Problem, masses, masses, st.floats(0.25, 4.0))
seeds = st.integers(0, 2**32 - 1)


def test_lift_examples():
    state = lift_velocity(np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), M1)
    assert np.allclose(state.velocity, [0, 0, np.sqrt(1.5), 0], atol=1e-15)
    assert star_norm(state.velocity, M1) ** 2 == pytest.approx(0.75, abs=1e-15)
    rest = lift_velocity(np.array([0.3, -2.0, 1.1]), np.zeros(3), M1)
    assert np.array_equal(rest.velocity, np.zeros(4))


def test_lift_is_tangent():
    rng = make_rng(2)
    for metric in (M1, StarMetric(2.0)):
        qs = rng.uniform(-4, 4, size=(300, 3))
        ps = rng.uniform(-3, 3, size=(300, 3))
        for q, p in zip(qs, ps):
            state = lift_velocity(q, p, metric)
            assert abs(star_inner(state.point.vec, state.velocity, metric)) <= 1e-12


def test_speed_expansion_examples():
    assert lifted_speed_squared(np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), M1) == 0.75
    assert lifted_speed_squared(np.array([1.0, 2, 3]), np.zeros(3), M1) == 0.0


def test_speed_expansion_matches_lift():
    rng = make_rng(21)
    qs = rng.uniform(-5, 5, size=(1000, 3))
    ps = rng.uniform(-3, 3, size=(1000, 3))
    formula = lifted_speed_squared(qs, ps, M1)
    for q, p, expected in zip(qs, ps, formula):
        speed2 = star_norm(lift_velocity(q, p, M1).velocity, M1) ** 2
        assert abs(expected - speed2) <= 1e-12


@settings(max_examples=40, deadline=None)
@given(problems, seeds)
def test_speed_expansion_matches_lift_at_any_a(prob, seed):
    metric = prob.metric()
    qs, ps = sample_phase_points(prob, 500, make_rng(seed))
    lifted = np.sum(metric.weights * lift_arrays(qs, ps, metric)[1] ** 2, axis=-1)
    formula = lifted_speed_squared(qs, ps, metric)
    assert np.all(np.abs(formula - lifted) <= 1e-12 * lifted)


def test_tangential_field_examples():
    top = project(np.array([0.0, 0, 0, 1]), M1)
    assert np.allclose(tangential_field(top, EQUAL), np.zeros(4), atol=1e-15)
    assert np.array_equal(tangential_field(top, Problem(0.0, 0.0, 1.0)), np.zeros(4))
    single = tangential_field(top, Problem(1.0, 0.0, 1.0))
    assert np.allclose(single, [-1.0, 0, 0, 0], atol=1e-15)


def test_tangential_field_is_tangent():
    rng = make_rng(4)
    prob = Problem(0.6, 1.9, 1.0)
    for q3 in rng.uniform(-4, 4, size=(200, 3)):
        point = project(embed(q3), M1)
        field = tangential_field(point, prob)
        assert abs(star_inner(point.vec, field, M1)) <= 1e-12


def test_tangential_field_center_ray_guard():
    # the projected center itself sits at zero distance from the scaled center
    point = project(np.array([1.0, 0, 0, 1]), M1)
    with pytest.raises(NearCollisionError):
        tangential_field(point, EQUAL)


def test_energy_examples():
    state = lift_velocity(np.array([0.0, 1, 0]), np.array([0.0, 0, 1]), M1)
    assert ellipsoidal_energy(state, EQUAL) == pytest.approx(0.75 - np.sqrt(2), abs=1e-14)
    rest = lift_velocity(np.zeros(3), np.zeros(3), M1)
    assert ellipsoidal_energy(rest, EQUAL) == pytest.approx(-2.0, abs=1e-14)
    assert ellipsoidal_energy(rest, Problem(0.0, 0.0, 1.0)) == 0.0


def test_energy_center_ray_error():
    point = project(np.array([1.0, 0, 0, 1]), M1)
    state = EllipsoidState(point, np.zeros(4))
    with pytest.raises(CenterRayError):
        ellipsoidal_energy(state, EQUAL)


def test_potential_examples():
    origin = project(np.array([0.0, 0, 0, 1]), M1)
    assert ellipsoid_potential(origin, EQUAL) == pytest.approx(-2.0, abs=1e-15)
    side = project(np.array([0.0, 1, 0, 1]), M1)
    assert ellipsoid_potential(side, EQUAL) == pytest.approx(-np.sqrt(2), abs=1e-15)
    assert ellipsoid_potential(side, Problem(0.0, 0.0, 1.0)) == 0.0


def test_potential_pullback_identity():
    """Projected potential equals its 3-d closed form, for several a."""
    rng = make_rng(17)
    for a in (1.0, 0.5, 2.0):
        prob = Problem(1.2, 0.7, a)
        qs, _ = sample_phase_points(prob, 1000, rng)
        for q in qs:
            value = ellipsoid_potential(project(embed(q), prob.metric()), prob)
            x = q[0]
            d_minus = np.linalg.norm(q + prob.center_plus)
            d_plus = np.linalg.norm(q - prob.center_plus)
            closed = (2 / (1 + a * a)) * (
                prob.m_minus * (a * x - 1) / d_minus - prob.m_plus * (a * x + 1) / d_plus
            )
            assert abs(value - closed) <= 1e-12


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


def test_fit_rank_deficiency():
    def zero_velocity_sampler(n, rng):
        qs, _ = sample_phase_points(EQUAL, n, rng)
        return qs, np.zeros_like(qs)  # Theta column identically zero

    with pytest.raises(RankDeficientError):
        fit_integral_relation(EQUAL, 64, seed=3, sampler=zero_velocity_sampler)


@settings(max_examples=60, deadline=None)
@given(st.floats(-3.0, 16.0), st.floats(-3.0, 16.0), st.floats(0.25, 4.0), seeds)
def test_fit_recovers_closed_form_at_any_mass(log_m_minus, log_m_plus, a, seed):
    """Masses in [1e-3, 1e16] keep full rank.  G carries roundoff of about
    mass x 1e-16, so l_T2 and l_0, whose columns are of size one, are only
    determined to that over the column size: the gap of every coefficient is
    judged in units of its column's share of G, and l_J and l_E absolutely."""
    prob = Problem(10.0**log_m_minus, 10.0**log_m_plus, a)
    drawn = []

    def sampler(n, rng):
        drawn[:] = sample_phase_points(prob, n, rng)
        return drawn

    relation = fit_integral_relation(prob, 64, seed, sampler)
    q, p = drawn
    j, theta, e = first_integrals(q, p, prob)
    column_norms = np.linalg.norm([j, e, theta**2, np.ones_like(j)], axis=1)
    g_norm = np.linalg.norm(energy_arrays(*lift_arrays(q, p, prob.metric()), prob))
    fitted = (relation.lambda_J, relation.lambda_E, relation.lambda_theta2, relation.lambda_0)
    gaps = np.abs(np.subtract(fitted, relation_coefficients(a)))
    assert np.all(gaps * column_norms <= 1e-10 * g_norm)
    assert gaps[0] <= 1e-10 and gaps[1] <= 1e-10


def test_intrinsic_rhs_examples():
    top = project(np.array([0.0, 0, 0, 1]), M1)
    _, qpp = intrinsic_rhs(EllipsoidState(top, np.zeros(4)), EQUAL)
    assert np.allclose(qpp, np.zeros(4), atol=1e-15)

    side = project(np.array([0.0, 2, 0, 1]), M1)
    state = EllipsoidState(side, np.zeros(4))
    _, qpp = intrinsic_rhs(state, EQUAL)
    assert np.allclose(qpp, tangential_field(side, EQUAL), atol=0)

    free = Problem(0.0, 0.0, 1.0)
    moving = lift_velocity(np.array([0.0, 2, 0]), np.array([0.3, 0, 0.6]), M1)
    qp, qpp = intrinsic_rhs(moving, free)
    speed2 = star_norm(moving.velocity, M1) ** 2
    assert np.allclose(qpp, -speed2 * moving.point.vec, atol=1e-15)
    assert np.array_equal(qp, moving.velocity)


def test_state_tangency_validation():
    top = project(np.array([0.0, 0, 0, 1]), M1)
    with pytest.raises(InvalidInputError):
        EllipsoidState(top, np.array([0.0, 0, 0, 1e-6]))


def _manual_planar_trajectory(q0, p0, times, prob):
    """Free-motion trajectory assembled in closed form (no integrator)."""
    states = np.empty((len(times), 6))
    for i, t in enumerate(times):
        states[i, :3] = q0 + t * p0
        states[i, 3:] = p0
    return Trajectory(times, states, {}, prob, "planar")


def test_reparametrize_stationary():
    prob = EQUAL
    times = np.linspace(0.0, 3.0, 7)
    states = np.zeros((7, 6))
    traj = Trajectory(times, states, {}, prob, "planar")
    assert np.allclose(reparametrize_time(traj), times, atol=1e-15)


def test_reparametrize_monotone_and_slower_than_t():
    start = PhasePoint(np.array([0.0, 2, 0]), np.array([0.3, 0, 0.6]))
    traj = integrate_planar(start, EQUAL, 10.0)
    tau = reparametrize_time(traj)
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
        traj = _manual_planar_trajectory(q0, p0, np.linspace(0.0, 2.0, n), prob)
        errors.append(abs(reparametrize_time(traj)[-1] - reference))
    assert errors[0] / errors[1] == pytest.approx(16.0, rel=0.4)


def test_tangential_field_matches_potential_gradient():
    """F_tan is -1/2 the tangential gradient of the potential part of G.

    The factor 1/2 comes from G carrying |Q'|^2 rather than |Q'|^2/2; the
    directional derivatives are taken along normalized curves on the
    manifold with central differences.
    """
    rng = make_rng(23)
    h = 1e-6
    for a in (1.0, 2.0):
        metric = StarMetric(a)
        prob = Problem(1.1, 0.8, a)
        qs, _ = sample_phase_points(prob, 50, rng, min_center_distance=0.5)
        for q3 in qs:
            point = project(embed(q3), metric)
            field = tangential_field(point, prob)
            for seed_vec in (np.array([1.0, 0.3, -0.2, 0.1]), np.array([0.0, 1.0, 0.5, -0.3])):
                v = seed_vec - star_inner(point.vec, seed_vec, metric) * point.vec
                v = v / star_norm(v, metric)
                fwd = (point.vec + h * v) / star_norm(point.vec + h * v, metric)
                bwd = (point.vec - h * v) / star_norm(point.vec - h * v, metric)
                dv = (
                    ellipsoid_potential(EllipsoidPoint(fwd, metric), prob)
                    - ellipsoid_potential(EllipsoidPoint(bwd, metric), prob)
                ) / (2 * h)
                assert abs(star_inner(field, v, metric) + 0.5 * dv) <= 1e-6


def test_velocity_independence_free_motion():
    point = project(embed(np.array([0.2, 1.0, -0.4])), M1)
    # free motion has no tangential field at all; the residual is pure noise
    assert velocity_independence_residual(point, Problem(0.0, 0.0, 1.0), samples=6) <= 1e-8


def test_velocity_independence_at_anchor():
    point = project(np.array([0.0, 1, 0, 1]), M1)
    assert velocity_independence_residual(point, EQUAL, samples=10) <= 1e-6


@pytest.mark.filterwarnings("error")
def test_velocity_independence_spread_overflow_raises():
    """At masses of 1e100 the differenced accelerations are finite but the
    norms of their pairwise differences overflow: raised like the oracle's
    own overflow, not a numpy warning and inf."""
    point = project(np.array([0.0, 1, 0, 1]), M1)
    with pytest.raises(FloatingPointError, match="overflow"):
        velocity_independence_residual(point, Problem(1e100, 1e100, 1.0), samples=10, seed=42)


def test_velocity_independence_needs_two_samples():
    point = project(np.array([0.0, 1, 0, 1]), M1)
    with pytest.raises(InvalidInputError):
        velocity_independence_residual(point, EQUAL, samples=1)


def test_fd_acceleration_matches_field():
    rng = make_rng(29)
    qs, ps = sample_phase_points(EQUAL, 50, rng, q_radius=3.0, min_center_distance=0.5)
    for q, p in zip(qs, ps):
        oracle = fd_tangential_acceleration(q, p, EQUAL)
        field = tangential_field(project(embed(q), M1), EQUAL)
        assert star_norm(oracle - field, M1) <= 1e-6
