import numpy as np
import pytest

from geomind import (ConformalFieldMetric, FlatMetric, NoGeodesicError,
                     ShootingOptions, SphereMetric, Trajectory,
                     geodesic_between, geodesic_step, integrate_geodesic,
                     path_length_energy)

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
