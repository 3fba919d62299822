import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import geomind.geodesic as geodesic_module
from geomind import (ChartDomainError, ChartExitError, CognitionParams, ConformalFieldMetric,
                     FlatMetric, MindState, NoGeodesicError, ShootingOptions, SphereMetric,
                     TokenField, Trajectory, cycle_step, feedback_forcing, geodesic_between,
                     demo_field, geodesic_step, integrate_geodesic, path_length_energy,
                     predict_geometric, run_thought_flow)
from geomind.geodesic import JACOBIAN_STEP, MAX_BACKTRACKS, _shoot
from geomind.manifold import KERNEL_BLOCK, _as_dt

from conftest import make_field


def chart_to_embed(x):
    th, ph = x
    return np.array([np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph), np.cos(th)])


def great_circle_endpoint(x0, v0, horizon):
    """Closed-form great circle on the unit sphere, mapped back to the chart."""
    th, ph = x0
    p0 = chart_to_embed(x0)
    jac = np.array([
        [np.cos(th) * np.cos(ph), -np.sin(th) * np.sin(ph)],
        [np.cos(th) * np.sin(ph), np.sin(th) * np.cos(ph)],
        [-np.sin(th), 0.0],
    ])
    u = jac @ np.asarray(v0, dtype=float)
    speed = np.linalg.norm(u)
    p = np.cos(speed * horizon) * p0 + np.sin(speed * horizon) * u / speed
    return np.array([np.arccos(np.clip(p[2], -1, 1)), np.arctan2(p[1], p[0])])


# ---------------------------------------------------------------- single step

def test_flat_step_straight_line(flat):
    position, velocity = geodesic_step([0.0, 0.0], [1.0, 0.0], flat, None, 0.1)
    assert np.allclose(position, [0.1, 0.0], atol=1e-15)
    assert np.allclose(velocity, [1.0, 0.0], atol=1e-15)


def test_rest_state_stays_at_rest(sphere, random_field):
    for source, pos in ((sphere, [1.0, 0.5]), (ConformalFieldMetric(random_field), [0.3, 0.1])):
        position, velocity = geodesic_step(pos, [0.0, 0.0], source, None, 0.1)
        assert np.array_equal(position, np.asarray(pos, dtype=float))
        assert np.array_equal(velocity, np.zeros(2))


def test_constant_forcing_half_a_t_squared(flat):
    # oracle: x(t) = a t^2 / 2 for constant acceleration from rest
    traj = integrate_geodesic([0.0, 0.0], [0.0, 0.0], flat,
                              [0.0, 1.0], steps=1000, dt=1e-3)
    assert np.allclose(traj.positions[-1], [0.0, 0.5], atol=1e-4)


def _cycle(dt):
    field, params = make_field([[0.0, 0.0]]), CognitionParams.defaults(2)
    return cycle_step(MindState.initial(field, params, seed=0), field, FlatMetric(2), None, dt)


_DT_CALLS = {
    "geodesic_step": lambda dt: geodesic_step([0.0, 0.0], [1.0, 0.0], FlatMetric(2), None, dt),
    # no step, so the refusal is integrate_geodesic's own
    "integrate_geodesic": lambda dt: integrate_geodesic([0.0, 0.0], [1.0, 0.0], FlatMetric(2),
                                                        None, 0, dt),
    "cycle_step": _cycle,
    "feedback_forcing": lambda dt: feedback_forcing((), CognitionParams.defaults(2), dt),
    "predict_geometric": lambda dt: predict_geometric(np.zeros((2, 2)), np.zeros((2, 2)), dt),
}


@pytest.mark.parametrize("dt", [np.nan, np.inf, -np.inf, 0.0, -1.0, True,
                                pytest.param(np.True_, id="np-True")])
@pytest.mark.parametrize("call", list(_DT_CALLS))
def test_dt_must_be_positive_and_finite(call, dt):
    # a bool is no time step, though it compares as 1, as _as_int refuses one
    with pytest.raises(ValueError, match="dt must be positive and finite"):
        _DT_CALLS[call](dt)


_FLOW_DT_CALLS = dict(_DT_CALLS, run_thought_flow=lambda dt: run_thought_flow(
    demo_field(), ConformalFieldMetric(demo_field()), CognitionParams.defaults(2, kappa=1.0),
    n_steps=3, dt=dt, velocity=[0.0, 0.0]))


@pytest.mark.parametrize("dt", [1e308, 1e200, 1e-200, 2.0**-512, 10**400, np.float64(1e200),
                                2.0**512, float(np.nextafter(2.0**-511, 0.0))],
                         ids=["1e308", "1e200", "1e-200", "2^-512", "10^400", "np-1e200",
                              "2^512", "below-2^-511"])
@pytest.mark.parametrize("call", list(_FLOW_DT_CALLS))
def test_dt_without_a_finite_normal_square_is_refused(call, dt):
    # the feedback forcing divides by dt**2: a flow at 1e308 or 1e200 raised
    # OverflowError at its third cycle, and one at 1e-200 or 2^-512 gave an
    # infinite forcing; pyproject turns any RuntimeWarning into an error, such
    # as one from squaring a numpy 1e200, and an int beyond float range must
    # not reach a float conversion
    with pytest.raises(ValueError, match=r"must have a finite square, at least 2\^-1022"):
        _FLOW_DT_CALLS[call](dt)


def test_dt_at_its_bounds_is_accepted():
    # the rule compares dt with 2^-511 and 2^512 and never squares it; the
    # smallest and largest dt it accepts still have a finite normal square
    for dt in (2.0**-511, np.nextafter(2.0**512, 0.0)):
        assert _as_dt(dt) == dt and 2.0**-1022 <= dt * dt < np.inf


@pytest.mark.parametrize("x, v", [([0.0, 0.0, 0.0], [1.0, 0.0]), ([0.0, 0.0], [[1.0, 0.0]])])
def test_step_rejects_wrong_shapes(flat, x, v):
    with pytest.raises(ValueError, match="must have dimension 2"):
        geodesic_step(x, v, flat, None, 0.1)


# ---------------------------------------------------------------- integration

def test_sample_count(flat):
    traj = integrate_geodesic([0.0, 0.0], [1.0, 0.0], flat, None,
                              steps=100, dt=0.01)
    assert len(traj) == 101


def test_step_count_of_a_reciprocal_dt():
    # s steps of dt = 1/s end at t = 1, though 1 / (1 / 23238) lies more than 1e-12 below 23238
    traj = integrate_geodesic([0.0], [1.0], FlatMetric(1), None, steps=23238, dt=1 / 23238)
    assert len(traj) == 23239
    assert abs(traj.times[-1] - 1.0) <= 1e-9


def test_times_are_a_running_sum(flat):
    # the cycle keeps time as t + dt, which differs from k * dt in the last bits
    traj = integrate_geodesic([0.0, 0.0], [1.0, 0.0], flat, None, steps=100, dt=0.01)
    t, expected = 0.0, [0.0]
    for _ in range(100):
        t += 0.01
        expected.append(t)
    assert traj.times.tolist() == expected
    assert traj.positions.shape == traj.velocities.shape == (101, 2)


def test_flat_unit_velocity_translation(flat):
    traj = integrate_geodesic([0.2, -0.1], [0.4, 0.7], flat, None,
                              steps=1000, dt=1e-3)
    assert np.allclose(traj.positions[-1], [0.6, 0.6], atol=1e-9)


def test_zero_velocity_all_samples_fixed(sphere):
    traj = integrate_geodesic([1.0, 0.2], [0.0, 0.0], sphere, None,
                              steps=50, dt=0.01)
    for position in traj.positions:
        assert np.array_equal(position, np.array([1.0, 0.2]))


def test_equator_is_closed_geodesic(sphere):
    traj = integrate_geodesic([np.pi / 2, 0.0], [0.0, 1.0], sphere,
                              None, steps=6283, dt=1e-3)
    final = traj.positions[-1]
    assert np.linalg.norm(final - np.array([np.pi / 2, 2 * np.pi])) < 1e-3


def test_chart_exit_truncates_and_flags(sphere):
    # heading straight into the north pole
    traj = integrate_geodesic([0.5, 0.0], [-1.0, 0.0], sphere, None,
                              steps=200, dt=0.01)
    assert traj.truncated
    assert len(traj) < 201
    assert traj.positions[-1][0] > 0.0


def test_zero_forcing_bitwise_equals_default(sphere):
    a = integrate_geodesic([1.0, 0.3], [0.2, 0.5], sphere, None, steps=100, dt=1e-2)
    b = integrate_geodesic([1.0, 0.3], [0.2, 0.5], sphere, np.zeros(2), steps=100, dt=1e-2)
    assert np.array_equal(a.positions, b.positions)
    assert np.array_equal(a.velocities, b.velocities)


def test_metric_speed_conserved(flat, sphere, random_field):
    cases = [
        (flat, [0.0, 0.0], [0.7, 0.4]),
        (sphere, [1.0, 0.3], [0.2, 0.5]),
        (ConformalFieldMetric(random_field), [0.0, 0.0], [0.7, 0.4]),
    ]
    for source, x0, v0 in cases:
        traj = integrate_geodesic(x0, v0, source, None,
                                  steps=1000, dt=1e-3)
        speeds = np.array([
            np.sqrt(v @ source.metric(x) @ v)
            for x, v in zip(traj.positions, traj.velocities)
        ])
        assert np.max(np.abs(speeds - speeds[0])) <= 1e-4


def test_rk4_order_on_great_circle(sphere):
    x0, v0 = np.array([1.0, 0.3]), np.array([0.2, 0.5])
    exact = great_circle_endpoint(x0, v0, 1.0)
    errors = []
    for dt in (0.05, 0.025, 0.0125):
        traj = integrate_geodesic(x0, v0, sphere, None, steps=round(1 / dt), dt=dt)
        errors.append(np.linalg.norm(traj.positions[-1] - exact))
    assert errors[0] / errors[1] >= 8.0
    assert errors[1] / errors[2] >= 8.0


# ---------------------------------------------------------------- length and energy

def test_unit_speed_length_energy(flat):
    traj = integrate_geodesic([0.0, 0.0], [1.0, 0.0], flat, None,
                              steps=100, dt=0.01)
    length, energy = path_length_energy(traj, flat)
    assert length == pytest.approx(1.0, abs=1e-12)
    assert energy == pytest.approx(0.5, abs=1e-12)


def test_scaled_metric_length_energy():
    # oracle: length scales by sqrt(s), energy by s
    scaled = FlatMetric(2, scale=4.0)
    traj = integrate_geodesic([0.0, 0.0], [1.0, 0.0], scaled, None,
                              steps=100, dt=0.01)
    length, energy = path_length_energy(traj, scaled)
    assert length == pytest.approx(2.0, abs=1e-12)
    assert energy == pytest.approx(2.0, abs=1e-12)


def test_length_invariant_under_resampling(flat):
    coarse = integrate_geodesic([0.0, 0.0], [0.6, 0.8], flat, None,
                                steps=50, dt=0.02)
    fine = integrate_geodesic([0.0, 0.0], [0.6, 0.8], flat, None,
                              steps=100, dt=0.01)
    l_coarse, _ = path_length_energy(coarse, flat)
    l_fine, _ = path_length_energy(fine, flat)
    assert abs(l_coarse - l_fine) < 1e-9


def test_too_short_trajectory_rejected(flat):
    traj = Trajectory(np.array([[0.0, 0.0]]), np.array([[1.0, 0.0]]), np.array([0.0]), 0.1)
    with pytest.raises(ValueError):
        path_length_energy(traj, flat)


# ---------------------------------------------------------------- boundary solver

def test_flat_shooting_straight_segment(flat):
    traj = geodesic_between([0.0, 0.0], [3.0, 4.0], flat)
    length, _ = path_length_energy(traj, flat)
    assert length == pytest.approx(5.0, abs=1e-6)
    # straight line: every sample on the chord
    positions = traj.positions
    ts = np.linspace(0, 1, len(traj))
    assert np.allclose(positions, np.outer(ts, [3.0, 4.0]), atol=1e-9)


def test_sphere_equatorial_arc(sphere):
    traj = geodesic_between([np.pi / 2, 0.0], [np.pi / 2, 1.0], sphere)
    length, _ = path_length_energy(traj, sphere)
    assert length == pytest.approx(1.0, abs=1e-4)


def test_sphere_shooting_with_bent_start(sphere):
    a, b = np.array([1.0, 0.2]), np.array([1.4, 1.1])
    traj = geodesic_between(a, b, sphere, ShootingOptions(tol=1e-8))
    assert np.linalg.norm(traj.positions[-1] - b) <= 1e-8
    # endpoint speed constant along the connecting geodesic
    speeds = [np.sqrt(v @ sphere.metric(x) @ v)
              for x, v in zip(traj.positions, traj.velocities)]
    assert np.max(np.abs(np.array(speeds) - speeds[0])) < 1e-6


def test_identical_endpoints_rejected(flat):
    with pytest.raises(ValueError, match="endpoints must differ"):
        geodesic_between([1.0, 1.0], [1.0, 1.0], flat)


def test_separated_clusters_shooting_fails():
    rng = np.random.default_rng(5)
    h = 0.1
    means = [0.05 * rng.standard_normal(2) for _ in range(3)]
    means += [np.array([10.0, 0.0]) + 0.05 * rng.standard_normal(2) for _ in range(3)]
    field = make_field(means, bandwidth=h, epsilon=0.01)
    source = ConformalFieldMetric(field)
    with pytest.raises(NoGeodesicError):
        geodesic_between(means[0], means[3], source,
                         ShootingOptions(max_iters=3, steps=150))


def test_local_minimality_against_perturbations(flat, sphere, random_field):
    # geodesic energy beats 20 random same-endpoint C1 bump perturbations
    rng = np.random.default_rng(17)
    cases = [
        (flat, [0.0, 0.0], [1.0, 1.0]),
        (sphere, [1.0, 0.2], [1.3, 0.9]),
        (ConformalFieldMetric(random_field), [-0.5, -0.5], [0.8, 0.6]),
    ]

    def discrete_energy(points, dt, source):
        total = 0.0
        for i in range(len(points) - 1):
            vel = (points[i + 1] - points[i]) / dt
            mid = 0.5 * (points[i] + points[i + 1])
            total += 0.5 * float(vel @ source.metric(mid) @ vel) * dt
        return total

    for source, a, b in cases:
        traj = geodesic_between(a, b, source, ShootingOptions(steps=100))
        points = traj.positions
        ts = np.linspace(0.0, 1.0, len(points))
        base = discrete_energy(points, traj.dt, source)
        for _ in range(20):
            direction = rng.standard_normal(2)
            direction /= np.linalg.norm(direction)
            bump = 0.05 * np.sin(np.pi * ts)[:, None] * direction
            perturbed = points + bump
            assert base <= discrete_energy(perturbed, traj.dt, source) + 1e-12


# ---------------------------------------------------------------- batched rows and shots

def _source(kind, d):
    if kind == "flat":
        return FlatMetric(d, scale=2.0)
    if kind == "sphere":
        return SphereMetric(1.5)
    rng = np.random.default_rng(d)
    return ConformalFieldMetric(make_field(rng.uniform(-1.0, 1.0, (6, d)), dim=d,
                                           bandwidth=0.7, epsilon=0.3))


@st.composite
def _batches(draw):
    kind = draw(st.sampled_from(["flat", "sphere", "conformal"]))
    d = 2 if kind == "sphere" else draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 6))
    lo, hi = ([0.2, -3.0], [2.9, 3.0]) if kind == "sphere" else ([-1.5] * d, [1.5] * d)
    unit = hnp.arrays(float, (rows, d), elements=st.floats(0.0, 1.0))
    x = np.asarray(lo) + draw(unit) * (np.asarray(hi) - np.asarray(lo))
    v = draw(hnp.arrays(float, (rows, d), elements=st.floats(-2.0, 2.0)))
    forcing = draw(st.none() | hnp.arrays(float, d, elements=st.floats(-1.0, 1.0)))
    return _source(kind, d), x, v, forcing


@settings(max_examples=80, deadline=None)
@given(_batches())
def test_batch_rows_equal_their_solo_runs(case):
    source, x, v, forcing = case
    gamma = source.christoffel(x)
    assert gamma.shape == x.shape + (source.dim,) * 2
    for row, point in enumerate(x):
        if source.in_domain(point):
            assert np.array_equal(gamma[row], source.christoffel(point))
    batch = integrate_geodesic(x, v, source, forcing, steps=10, dt=0.02)
    solos = [integrate_geodesic(p, u, source, forcing, steps=10, dt=0.02) for p, u in zip(x, v)]
    # the first row to leave the chart ends the batch
    assert len(batch) == min(len(s) for s in solos)
    assert batch.truncated == any(s.truncated for s in solos)
    assert batch.positions.shape == (len(batch),) + x.shape
    for row, solo in enumerate(solos):
        assert np.array_equal(batch.positions[:, row], solo.positions[:len(batch)])
        assert np.array_equal(batch.velocities[:, row], solo.velocities[:len(batch)])
        assert np.array_equal(batch.times, solo.times[:len(batch)])


@pytest.mark.parametrize("kind, d", [("conformal", 1), ("conformal", 2), ("conformal", 3),
                                     ("conformal", 5), ("conformal", 16), ("sphere", 2),
                                     ("flat", 3)])
def test_christoffel_rows_equal_single_points(kind, d):
    # thousands of points, so that a rounding that differs from the single
    # point's in one row in a thousand shows, for the tensor and for the
    # contraction Gamma(v, v). Each batch takes one kernel pass. Batches hold
    # at most 2^23 Gamma entries (64 MB), so all points go in one batch below
    # D = 16
    source = _source(kind, d)
    rng = np.random.default_rng(100 + d)
    points = rng.uniform(0.2, 2.9, (8000, d))
    velocities = rng.normal(scale=3.0, size=(8000, d))
    step = 2**23 // d**3
    for lo in range(0, len(points), step):
        gamma = source.christoffel(points[lo:lo + step])
        gamma_vv = source.christoffel(points[lo:lo + step], velocities[lo:lo + step])
        assert gamma_vv.shape == points[lo:lo + step].shape
        for row, (point, v) in enumerate(zip(points[lo:lo + step], velocities[lo:lo + step])):
            assert np.array_equal(gamma[row], source.christoffel(point)), point.tolist()
            assert np.array_equal(gamma_vv[row], source.christoffel(point, v)), point.tolist()


def test_christoffel_rows_of_the_largest_benchmark_field_equal_single_points():
    # 10^4 tokens at D = 16, as in flow_dense, with the D + 1 rows of a
    # shooting stage: one kernel pass of 17 x 10^4 elements, far beyond
    # KERNEL_BLOCK, still gives each row its single point's bits
    n, d = 10_000, 16
    rng = np.random.default_rng(n + d)
    field = TokenField(np.arange(n), rng.normal(size=(n, d)), rng.uniform(0.0, 0.1, (n, d)),
                       rng.uniform(0.5, 2.0, n), 1.5, 0.1)
    source = ConformalFieldMetric(field)
    points = field.means[rng.choice(n, d + 1)] + rng.normal(scale=0.5, size=(d + 1, d))
    velocities = rng.normal(size=(d + 1, d))
    assert (d + 1) * n > KERNEL_BLOCK
    gamma = source.christoffel(points)
    gamma_vv = source.christoffel(points, velocities)
    assert np.count_nonzero(gamma) == (d + 1) * (3 * d * d - 2 * d)
    for row, point in enumerate(points):
        assert np.array_equal(gamma[row], source.christoffel(point)), row
        assert np.array_equal(gamma_vv[row], source.christoffel(point, velocities[row])), row


def test_christoffel_rows_equal_single_points_where_lambda_vanishes_or_is_nan():
    # weights of 1e308 make rho overflow to inf near the tokens, so lambda
    # and 2 lambda are 0 and the gather's table divides by zero; far away
    # lambda^2 underflows, so grad lambda and Gamma are signed zeros; a NaN
    # coordinate makes every value NaN. Sign bits are compared on the
    # non-NaN rows only: IEEE leaves the sign of a NaN that a multiply or a
    # division makes to the hardware and to numpy's loops
    field = make_field([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], weights=[1e308] * 3)
    source = ConformalFieldMetric(field)
    points = np.array([[0.3, 0.3], [np.nan, 0.2], [25.0, 0.5], [30.0, 0.0]])
    velocities = np.array([[1.0, -2.0], [0.5, 0.5], [-3.0, 1.5], [2.0, -0.25]])
    with np.errstate(all="ignore"):
        gamma = source.christoffel(points)
        solos = [source.christoffel(point) for point in points]
        gamma_vv = source.christoffel(points, velocities)
        solos_vv = [source.christoffel(point, v) for point, v in zip(points, velocities)]
        assert source.conformal_factor(points[0]) == 0.0
    assert np.isnan(solos[0]).all() and np.isnan(solos[1]).all()
    assert not np.any(solos[2]) and np.signbit(solos[2]).any()
    assert np.isfinite(solos[3]).all() and np.any(solos[3])
    assert np.isnan(solos_vv[0]).all() and np.isnan(solos_vv[1]).all()
    assert not np.any(solos_vv[2]) and np.isfinite(solos_vv[3]).all() and np.any(solos_vv[3])
    for row, (solo, solo_vv) in enumerate(zip(solos, solos_vv)):
        assert np.array_equal(gamma[row], solo, equal_nan=True), row
        assert np.array_equal(gamma_vv[row], solo_vv, equal_nan=True), row
    for row in (2, 3):
        assert np.array_equal(np.signbit(gamma[row]), np.signbit(solos[row])), row
        assert np.array_equal(np.signbit(gamma_vv[row]), np.signbit(solos_vv[row])), row


def test_contraction_rows_whose_speed_squared_overflows_take_the_tensor():
    # |v|^2 overflows from |v| of about 1.3e154 on. Such a row, alone or in
    # a batch of ordinary rows, is the einsum over the gathered tensor, bit
    # for bit: far from the data grad lambda underflows to 0, where the
    # closed form's |v|^2 g would be inf 0 = NaN and the tensor gives 0
    field = make_field([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], bandwidth=0.5, epsilon=0.3)
    source = ConformalFieldMetric(field)
    points = np.array([[0.3, 0.3], [0.4, 0.6], [60.0, 0.5], [0.8, -0.2], [-0.5, 0.9],
                       [0.1, 0.2]])
    velocities = np.array([[1.0, -2.0], [1e160, 3e159], [2e155, -1e155], [0.5, 0.25],
                           [np.nan, 1.0], [-2e154, 5e153]])
    wide = [1, 2, 4, 5]
    with np.errstate(all="ignore"):
        batch = source.christoffel(points, velocities)
        solos = [source.christoffel(point, v) for point, v in zip(points, velocities)]
        tensors = [np.einsum("mnl,n,l->m", source.christoffel(point), v, v)
                   for point, v in zip(points, velocities)]
        assert [not np.dot(v, v) < np.inf for v in velocities] == [k in wide for k in range(6)]
    assert np.all(source.conformal_gradient(points[2]) == 0.0) and np.all(solos[2] == 0.0)
    assert np.isfinite(solos[5]).all()
    for row, (solo, tensor) in enumerate(zip(solos, tensors)):
        assert np.array_equal(batch[row], solo, equal_nan=True), row
        if row in wide:
            assert np.array_equal(solo, tensor, equal_nan=True), row
        else:
            assert np.isfinite(solo).all() and np.allclose(solo, tensor, rtol=1e-13, atol=0.0)
    for row in (2, 5):
        assert np.array_equal(np.signbit(batch[row]), np.signbit(tensors[row])), row
        assert np.array_equal(np.signbit(solos[row]), np.signbit(tensors[row])), row


def test_chart_check_covers_every_row_of_a_batch(sphere):
    with pytest.raises(ChartDomainError):
        sphere.christoffel(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_sphere_step_tests_the_chart_at_each_stage_and_its_end(sphere, monkeypatch):
    # 5 tests per step: christoffel's at each of the 4 stage points and
    # geodesic_step's at the end point. A stage point at the pole still ends
    # the step in ChartExitError: x + dt/2 v has theta 0.05 - 0.05 here
    seen = []
    check = SphereMetric.check_domain
    monkeypatch.setattr(SphereMetric, "check_domain",
                        lambda self, x: seen.append(np.array(x)) or check(self, x))
    for x, v in (([1.0, 0.3], [0.2, 0.5]), ([[1.0, 0.3], [1.2, 0.1]], [[0.2, 0.5], [-0.1, 0.4]])):
        seen.clear()
        end, _ = geodesic_step(x, v, sphere, None, 0.01)
        assert len(seen) == 5 and np.array_equal(seen[-1], end)
    seen.clear()
    with pytest.raises(ChartExitError):
        geodesic_step([0.05, 0.3], [-10.0, 0.0], sphere, None, 0.01)
    assert len(seen) == 2 and not sphere.in_domain(seen[-1])
    with pytest.raises(ChartDomainError):
        sphere.christoffel([0.0, 0.3], [1.0, 0.0])


@pytest.mark.parametrize("container", [list, tuple])
@pytest.mark.parametrize("kind, d", [("conformal", 3), ("flat", 3), ("sphere", 2)])
def test_christoffel_takes_velocities_as_any_array_like(kind, d, container):
    # a list or tuple v gives the bits of the float array, for a point and a
    # batch; the field's batch holds a row whose |v|^2 overflows, which
    # takes the tensor fallback
    source = _source(kind, d)
    rng = np.random.default_rng(11)
    x = rng.uniform(0.3, 1.4, (4, d))
    v = rng.normal(size=(4, d))
    v[2] *= 1e160
    with np.errstate(over="ignore", invalid="ignore"):
        for point, u in zip(x, v):
            assert (source.christoffel(list(point), container(u.tolist())).tobytes()
                    == source.christoffel(point, u).tobytes())
        rows = container(container(u) for u in v.tolist())
        assert source.christoffel(x, rows).tobytes() == source.christoffel(x, v).tobytes()


@st.composite
def _metric_batches(draw):
    kind = draw(st.sampled_from(["flat", "sphere", "conformal"]))
    d = 2 if kind == "sphere" else draw(st.sampled_from([2, 3, 5]))
    rows = draw(st.integers(1, 8))
    if kind == "sphere":
        # theta across (0, pi), inside the chart's sine floor of 1e-12
        theta = hnp.arrays(float, rows, elements=st.floats(1e-11, np.pi - 1e-11))
        phi = hnp.arrays(float, rows, elements=st.floats(-3.0, 3.0))
        return _source(kind, d), np.stack([draw(theta), draw(phi)], axis=1)
    return _source(kind, d), draw(hnp.arrays(float, (rows, d), elements=st.floats(-2.5, 2.5)))


@settings(max_examples=100, deadline=None)
@given(_metric_batches())
def test_metric_rows_equal_single_points(case):
    source, x = case
    g = source.metric(x)
    assert g.shape == x.shape + (source.dim,)
    for row, point in enumerate(x):
        assert g[row].tobytes() == source.metric(point).tobytes()
        if isinstance(source, ConformalFieldMetric):
            # the point path of density_at, apart from metric()'s
            expected = source.conformal_factor(point) * np.eye(source.dim)
            assert g[row].tobytes() == expected.tobytes()


def test_sphere_metric_keeps_the_bits_of_the_scalar_square(sphere):
    # r^2 sin^2(theta) as np.diag([r^2, r^2 np.sin(theta) ** 2]) gives it at
    # a point; an array's ** 2 differs from it in the last bit at about 1 in
    # 1,000 angles, so many angles in one batch show a change of rule
    rng = np.random.default_rng(12)
    x = np.stack([np.linspace(1e-6, np.pi - 1e-6, 20_000), rng.uniform(-3.0, 3.0, 20_000)], axis=1)
    g = sphere.metric(x)
    for row, (theta, _) in enumerate(x):
        r2 = sphere.radius**2
        assert g[row].tobytes() == np.diag([r2, r2 * np.sin(theta) ** 2]).tobytes(), row


@pytest.mark.parametrize("kind, d", [("conformal", 3), ("flat", 3), ("sphere", 2)])
def test_path_length_energy_is_the_trapezoid_of_each_samples_speed(kind, d):
    # one batch metric call gives each sample the bits of float(v @ g @ v)
    # at its own point, on a long free path, whose 1,501 samples fill more
    # than one densities block on the field metric, and on a shooting path
    source = _source(kind, d)
    start = np.full(d, 1.0)
    paths = [integrate_geodesic(start, np.full(d, 0.3), source, None, steps=1500, dt=1e-3),
             geodesic_between(start, start + 0.5, source)]
    for traj in paths:
        speed_sq = np.array([float(v @ source.metric(x) @ v)
                             for x, v in zip(traj.positions, traj.velocities)])
        length = float(np.trapezoid(np.sqrt(np.maximum(speed_sq, 0.0)), dx=traj.dt))
        energy = 0.5 * float(np.trapezoid(speed_sq, dx=traj.dt))
        assert not traj.truncated
        assert [e.hex() for e in path_length_energy(traj, source)] == [length.hex(), energy.hex()]


def _solo_between(a, b, source, opts):
    """The shooting loop with one integration per shot and per Jacobian
    probe: the reference that batched shots must reproduce bitwise."""
    def shoot(velocity):
        traj = integrate_geodesic(a, velocity, source, None, steps=opts.steps, dt=1.0 / opts.steps)
        if traj.truncated:
            return None, np.inf, traj
        miss = traj.positions[-1] - b
        return miss, float(np.linalg.norm(miss)), traj

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    velocity = b - a
    miss, miss_norm, traj = shoot(velocity)
    if miss is None:
        raise NoGeodesicError("reference", miss=miss_norm, iterations=0, reason="chart-exit")
    iterations, reason = opts.max_iters, "max-iters"
    for iteration in range(opts.max_iters):
        if miss_norm <= opts.tol:
            return traj
        d = source.dim
        jac = np.empty((d, d))
        h = JACOBIAN_STEP * max(1.0, float(np.linalg.norm(velocity)))
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            miss_k, _, _ = shoot(velocity + e)
            jac[:, k] = ((miss_k - miss) / h) if miss_k is not None else 0.0
        delta = np.linalg.lstsq(jac, miss, rcond=None)[0]
        scale = 1.0
        for _ in range(MAX_BACKTRACKS):
            trial = velocity - scale * delta
            trial_miss, trial_norm, trial_traj = shoot(trial)
            if trial_norm < miss_norm:
                velocity, miss, traj, miss_norm = trial, trial_miss, trial_traj, trial_norm
                break
            scale *= 0.5
        else:
            iterations, reason = iteration + 1, "backtracks-exhausted"
            break
    if miss_norm <= opts.tol:
        return traj
    raise NoGeodesicError("reference", miss=miss_norm, iterations=iterations, reason=reason)


def _assert_same_solve(a, b, source, opts):
    try:
        expected = _solo_between(a, b, source, opts)
    except NoGeodesicError as exc:
        with pytest.raises(NoGeodesicError) as info:
            geodesic_between(a, b, source, opts)
        assert (info.value.reason, info.value.iterations) == (exc.reason, exc.iterations)
        assert info.value.miss == exc.miss
        return
    traj = geodesic_between(a, b, source, opts)
    assert np.array_equal(traj.positions, expected.positions)
    assert np.array_equal(traj.velocities, expected.velocities)
    assert np.array_equal(traj.times, expected.times)


@pytest.fixture
def survey_case():
    """Four clusters of four tokens in D = 3 and a path that passes between
    them, as in the benchmark's survey workload."""
    rng = np.random.default_rng(11)
    centers = np.array([[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 1.5]])
    means = centers[np.arange(16) % 4] + rng.normal(0.0, 0.05, size=(16, 3))
    field = make_field(means, dim=3, epsilon=0.5, weights=rng.uniform(0.8, 1.2, size=16))
    return (np.array([-1.5, 0.6, 0.0]), np.array([1.5, 0.6, 0.0]), ConformalFieldMetric(field),
            ShootingOptions(tol=1e-10, max_iters=50, steps=100))


@pytest.mark.parametrize("d", [2, 3, 5])
def test_shot_jacobian_equals_separate_probe_shots(d):
    source = _source("conformal", d)
    rng = np.random.default_rng(d)
    a, b, velocity = rng.uniform(-1.0, 1.0, (3, d))
    miss, miss_norm, traj, jac = _shoot(a, b, velocity, source, 30)
    base = integrate_geodesic(a, velocity, source, None, steps=30, dt=1.0 / 30)
    assert np.array_equal(traj.positions, base.positions)
    assert np.array_equal(traj.velocities, base.velocities)
    assert np.array_equal(miss, base.positions[-1] - b)
    assert miss_norm == float(np.linalg.norm(miss))
    h = JACOBIAN_STEP * max(1.0, float(np.linalg.norm(velocity)))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        probe = integrate_geodesic(a, velocity + e, source, None, steps=30, dt=1.0 / 30)
        assert np.array_equal(jac[:, k], ((probe.positions[-1] - b) - miss) / h)


def test_probe_step_of_a_speed_whose_square_overflows_is_finite():
    # np.linalg.norm squares without scaling; the probe step must not be infinite
    a, b, velocity = np.array([-1e200]), np.array([1e200]), np.array([2e200])
    miss, miss_norm, _, jac = _shoot(a, b, velocity, FlatMetric(1), 10)
    assert np.array_equal(miss, [0.0]) and miss_norm == 0.0
    assert np.isfinite(jac).all() and jac[0, 0] == pytest.approx(1.0)


def test_survey_like_solve_makes_one_shot_per_iteration_plus_one(survey_case, monkeypatch, caplog):
    a, b, source, opts = survey_case
    shots = []
    integrate = geodesic_module.integrate_geodesic

    def counting(position, velocity, *args, **kwargs):
        shots.append(np.shape(velocity))
        return integrate(position, velocity, *args, **kwargs)

    monkeypatch.setattr(geodesic_module, "integrate_geodesic", counting)
    with caplog.at_level(logging.DEBUG, logger="geomind.geodesic"):
        geodesic_between(a, b, source, opts)
    iterations = [r for r in caplog.records if "shooting iteration" in r.getMessage()]
    assert len(iterations) == 4
    assert shots == [(4, 3)] * (1 + len(iterations))
    monkeypatch.undo()
    _assert_same_solve(a, b, source, opts)


def test_shooting_logs_one_debug_line_per_iteration(survey_case, caplog):
    a, b, source, opts = survey_case
    with caplog.at_level(logging.DEBUG, logger="geomind.geodesic"):
        traj = geodesic_between(a, b, source, opts)
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    assert lines[-1].startswith("shooting converged in 4 iterations")
    misses = []
    for k, line in enumerate(lines[:-1], start=1):
        match = re.fullmatch(r"shooting iteration (\d+): miss (\S+), step scale (\S+), "
                             r"(\d+) backtracks, (\d+) rows per shot", line)
        assert match, line
        assert int(match[1]) == k and match[5] == "4"
        misses.append(float(match[2]))
        assert float(match[3]) == 0.5 ** int(match[4])
    assert misses == sorted(misses, reverse=True)
    assert misses[-1] == pytest.approx(float(np.linalg.norm(traj.positions[-1] - b)), rel=1e-3)


def test_probe_leaving_the_chart_gives_a_zero_column(sphere):
    # the meridian shot ends 5e-7 short of the south pole; probe 0 adds
    # h > 1e-6 to d(theta)/dt and crosses it
    a = np.array([1.0, 0.0])
    velocity = np.array([np.pi - 5e-7 - 1.0, 0.0])
    miss, _, traj, jac = _shoot(a, a, velocity, sphere, 50)
    assert not traj.truncated and miss is not None
    assert integrate_geodesic(a, velocity + [2e-6, 0.0], sphere, None, 50, 0.02).truncated
    assert np.array_equal(jac[:, 0], np.zeros(2))
    assert np.any(jac[:, 1] != 0.0)


@pytest.mark.parametrize("b", [[np.pi - 1e-6, 0.01], [np.pi - 1e-6, 0.2]],
                         ids=["converges", "backtracks-exhausted"])
def test_solve_with_probes_leaving_the_chart_matches_separate_shots(sphere, monkeypatch, b):
    columns = []
    shoot = geodesic_module._shoot

    def spy(*args):
        out = shoot(*args)
        if out[3] is not None:
            columns.append(np.all(out[3] == 0.0, axis=0).any())
        return out

    monkeypatch.setattr(geodesic_module, "_shoot", spy)
    opts = ShootingOptions(tol=1e-8, max_iters=30, steps=50)
    _assert_same_solve([2.0, 0.0], b, sphere, opts)
    assert any(columns)


def test_first_shot_leaving_the_chart_stops_the_solve(sphere, monkeypatch):
    # 5 steps of the straight start [0, 30] leave the chart: with no finite
    # miss there is nothing to refine, so the solve ends after that one shot
    velocities = []
    shoot = geodesic_module._shoot

    def spy(a, b, velocity, *args):
        velocities.append(velocity.copy())
        return shoot(a, b, velocity, *args)

    monkeypatch.setattr(geodesic_module, "_shoot", spy)
    a, b, opts = [1.0, 0.0], [1.0, 30.0], ShootingOptions(steps=5)
    with pytest.raises(NoGeodesicError) as info:
        geodesic_between(a, b, sphere, opts)
    assert len(velocities) == 1 and np.array_equal(velocities[0], [0.0, 30.0])
    assert (info.value.reason, info.value.iterations, info.value.miss) == ("chart-exit", 0, np.inf)
    monkeypatch.undo()
    _assert_same_solve(a, b, sphere, opts)
