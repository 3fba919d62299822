import logging
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import geomind.geodesic as geodesic_module
from geomind import (CallableMetric, ChartDomainError, ConformalFieldMetric, FlatMetric,
                     NoGeodesicError, ShootingOptions, SphereMetric, TokenField, Trajectory,
                     geodesic_between, geodesic_step, integrate_geodesic,
                     path_length_energy)
from geomind.geodesic import JACOBIAN_STEP, MAX_BACKTRACKS, _shoot
from geomind.manifold import KERNEL_BLOCK

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
                              [0.0, 1.0], horizon=1.0, dt=1e-3)
    assert np.allclose(traj.positions[-1], [0.0, 0.5], atol=1e-4)


def test_step_rejects_bad_dt(flat):
    with pytest.raises(ValueError):
        geodesic_step([0.0, 0.0], [1.0, 0.0], flat, None, 0.0)


@pytest.mark.parametrize("x, v", [([0.0, 0.0, 0.0], [1.0, 0.0]), ([0.0, 0.0], [[1.0, 0.0]])])
def test_step_rejects_wrong_shapes(flat, x, v):
    with pytest.raises(ValueError, match="must have dimension 2"):
        geodesic_step(x, v, flat, None, 0.1)


# ---------------------------------------------------------------- integration

def test_sample_count(flat):
    traj = integrate_geodesic([0.0, 0.0], [1.0, 0.0], flat, None,
                              horizon=1.0, dt=0.01)
    assert len(traj) == 101


def test_step_count_of_a_reciprocal_dt():
    # 1 / (1 / 23238) lies more than 1e-12 below 23238, yet dt = 1/s means s steps
    traj = integrate_geodesic([0.0], [1.0], FlatMetric(1), None, horizon=1.0, dt=1 / 23238)
    assert len(traj) == 23239
    assert abs(traj.times[-1] - 1.0) <= 1e-9


def test_times_are_a_running_sum(flat):
    # the cycle keeps time as t + dt, which differs from k * dt in the last bits
    traj = integrate_geodesic([0.0, 0.0], [1.0, 0.0], flat, None, horizon=1.0, dt=0.01)
    t, expected = 0.0, [0.0]
    for _ in range(100):
        t += 0.01
        expected.append(t)
    assert traj.times.tolist() == expected
    assert traj.positions.shape == traj.velocities.shape == (101, 2)


def test_flat_unit_velocity_translation(flat):
    traj = integrate_geodesic([0.2, -0.1], [0.4, 0.7], flat, None,
                              horizon=1.0, dt=1e-3)
    assert np.allclose(traj.positions[-1], [0.6, 0.6], atol=1e-9)


def test_zero_velocity_all_samples_fixed(sphere):
    traj = integrate_geodesic([1.0, 0.2], [0.0, 0.0], sphere, None,
                              horizon=0.5, dt=0.01)
    for position in traj.positions:
        assert np.array_equal(position, np.array([1.0, 0.2]))


def test_equator_is_closed_geodesic(sphere):
    traj = integrate_geodesic([np.pi / 2, 0.0], [0.0, 1.0], sphere,
                              None, horizon=2 * np.pi, dt=1e-3)
    final = traj.positions[-1]
    assert np.linalg.norm(final - np.array([np.pi / 2, 2 * np.pi])) < 1e-3


def test_chart_exit_truncates_and_flags(sphere):
    # heading straight into the north pole
    traj = integrate_geodesic([0.5, 0.0], [-1.0, 0.0], sphere, None,
                              horizon=2.0, dt=0.01)
    assert traj.truncated
    assert len(traj) < 201
    assert traj.positions[-1][0] > 0.0


def test_zero_forcing_bitwise_equals_default(sphere):
    a = integrate_geodesic([1.0, 0.3], [0.2, 0.5], sphere, None, horizon=1.0, dt=1e-2)
    b = integrate_geodesic([1.0, 0.3], [0.2, 0.5], sphere, np.zeros(2), horizon=1.0, dt=1e-2)
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
                                  horizon=1.0, dt=1e-3)
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
        traj = integrate_geodesic(x0, v0, sphere, None, horizon=1.0, dt=dt)
        errors.append(np.linalg.norm(traj.positions[-1] - exact))
    assert errors[0] / errors[1] >= 8.0
    assert errors[1] / errors[2] >= 8.0


# ---------------------------------------------------------------- length and energy

def test_unit_speed_length_energy(flat):
    traj = integrate_geodesic([0.0, 0.0], [1.0, 0.0], flat, None,
                              horizon=1.0, dt=0.01)
    length, energy = path_length_energy(traj, flat)
    assert length == pytest.approx(1.0, abs=1e-12)
    assert energy == pytest.approx(0.5, abs=1e-12)


def test_scaled_metric_length_energy():
    # oracle: length scales by sqrt(s), energy by s
    scaled = FlatMetric(2, scale=4.0)
    traj = integrate_geodesic([0.0, 0.0], [1.0, 0.0], scaled, None,
                              horizon=1.0, dt=0.01)
    length, energy = path_length_energy(traj, scaled)
    assert length == pytest.approx(2.0, abs=1e-12)
    assert energy == pytest.approx(2.0, abs=1e-12)


def test_length_invariant_under_resampling(flat):
    coarse = integrate_geodesic([0.0, 0.0], [0.6, 0.8], flat, None,
                                horizon=1.0, dt=0.02)
    fine = integrate_geodesic([0.0, 0.0], [0.6, 0.8], flat, None,
                              horizon=1.0, dt=0.01)
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
    with pytest.raises(ValueError):
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

def _callable_metric(d):
    # a smooth, non-conformal metric with a bounded chart
    return CallableMetric(lambda x: np.diag(1.0 + 0.1 * x**2) + 0.05 * np.outer(np.sin(x), np.sin(x)),
                          d, domain=lambda x: bool(np.all(np.abs(x) < 3.0)))


def _source(kind, d):
    if kind == "flat":
        return FlatMetric(d, scale=2.0)
    if kind == "sphere":
        return SphereMetric(1.5)
    if kind == "callable":
        return _callable_metric(d)
    rng = np.random.default_rng(d)
    return ConformalFieldMetric(make_field(rng.uniform(-1.0, 1.0, (6, d)), dim=d,
                                           bandwidth=0.7, epsilon=0.3))


@st.composite
def _batches(draw):
    kind = draw(st.sampled_from(["flat", "sphere", "callable", "conformal"]))
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
    batch = integrate_geodesic(x, v, source, forcing, horizon=0.2, dt=0.02)
    solos = [integrate_geodesic(p, u, source, forcing, horizon=0.2, dt=0.02) for p, u in zip(x, v)]
    # the first row to leave the chart ends the batch
    assert len(batch) == min(len(s) for s in solos)
    assert batch.truncated == any(s.truncated for s in solos)
    assert batch.positions.shape == (len(batch),) + x.shape
    for row, solo in enumerate(solos):
        assert np.array_equal(batch.positions[:, row], solo.positions[:len(batch)])
        assert np.array_equal(batch.velocities[:, row], solo.velocities[:len(batch)])
        assert np.array_equal(batch.times, solo.times[:len(batch)])


@pytest.mark.parametrize("kind, d", [("conformal", 1), ("conformal", 2), ("conformal", 3),
                                     ("conformal", 5), ("conformal", 16), ("sphere", 2)])
def test_christoffel_rows_equal_single_points(kind, d):
    # thousands of points, so that a rounding that differs from the single
    # point's in one row in a thousand shows. Each batch takes one kernel
    # pass. Batches hold at most 2^23 Gamma entries (64 MB), so all points
    # go in one batch below D = 16
    source = _source(kind, d)
    points = np.random.default_rng(100 + d).uniform(0.2, 2.9, (8000, d))
    step = 2**23 // d**3
    for lo in range(0, len(points), step):
        gamma = source.christoffel(points[lo:lo + step])
        for row, point in enumerate(points[lo:lo + step]):
            assert np.array_equal(gamma[row], source.christoffel(point)), point.tolist()


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
    assert (d + 1) * n > KERNEL_BLOCK
    gamma = source.christoffel(points)
    assert np.count_nonzero(gamma) == (d + 1) * (3 * d * d - 2 * d)
    for row, point in enumerate(points):
        assert np.array_equal(gamma[row], source.christoffel(point)), row


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
    with np.errstate(all="ignore"):
        gamma = source.christoffel(points)
        solos = [source.christoffel(point) for point in points]
        assert source.conformal_factor(points[0]) == 0.0
    assert np.isnan(solos[0]).all() and np.isnan(solos[1]).all()
    assert not np.any(solos[2]) and np.signbit(solos[2]).any()
    assert np.isfinite(solos[3]).all() and np.any(solos[3])
    for row, solo in enumerate(solos):
        assert np.array_equal(gamma[row], solo, equal_nan=True), row
    for row in (2, 3):
        assert np.array_equal(np.signbit(gamma[row]), np.signbit(solos[row])), row


def test_chart_check_covers_every_row_of_a_batch(sphere):
    with pytest.raises(ChartDomainError):
        sphere.christoffel(np.array([[1.0, 0.0], [0.0, 0.0]]))
    source = _callable_metric(2)
    with pytest.raises(ChartDomainError):
        source.check_domain(np.array([[0.0, 0.0], [0.0, 3.5]]))


def _solo_between(a, b, source, opts):
    """The shooting loop with one integration per shot and per Jacobian
    probe: the reference that batched shots must reproduce bitwise."""
    def shoot(velocity):
        traj = integrate_geodesic(a, velocity, source, None, horizon=1.0, dt=1.0 / opts.steps)
        if traj.truncated:
            return None, np.inf, traj
        miss = traj.positions[-1] - b
        return miss, float(np.linalg.norm(miss)), traj

    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    velocity = b - a
    miss, miss_norm, traj = shoot(velocity)
    iterations, reason = opts.max_iters, "max-iters"
    for iteration in range(opts.max_iters):
        if miss is not None and miss_norm <= opts.tol:
            return traj
        if miss is None:
            velocity = 0.5 * (velocity + (b - a))
            miss, miss_norm, traj = shoot(velocity)
            continue
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
    if miss is not None and miss_norm <= opts.tol:
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
    base = integrate_geodesic(a, velocity, source, None, horizon=1.0, dt=1.0 / 30)
    assert np.array_equal(traj.positions, base.positions)
    assert np.array_equal(traj.velocities, base.velocities)
    assert np.array_equal(miss, base.positions[-1] - b)
    assert miss_norm == float(np.linalg.norm(miss))
    h = JACOBIAN_STEP * max(1.0, float(np.linalg.norm(velocity)))
    for k in range(d):
        e = np.zeros(d)
        e[k] = h
        probe = integrate_geodesic(a, velocity + e, source, None, horizon=1.0, dt=1.0 / 30)
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
    assert integrate_geodesic(a, velocity + [2e-6, 0.0], sphere, None, 1.0, 0.02).truncated
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
