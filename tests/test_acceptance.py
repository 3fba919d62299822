"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Tolerances are fixed here, not configurable.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

from geomind import (CognitionParams, ConformalFieldMetric, FlatMetric,
                     MindState, ShootingOptions, SphereMetric,
                     ThoughtFlow, Trajectory,
                     attention_weights, christoffel_fd, curvature_at,
                     cycle_step, feedback_forcing, geodesic_between,
                     integrate_geodesic, run_learning, sample_embedding,
                     save_field, score_flow, select_conscious)
from geomind.cli import main
from geomind.mind import analyze_field, demo_field

from conftest import make_field
from test_geodesic import great_circle_endpoint


def _report(number: int, label: str, ok: bool):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {number:2d}: {label}")
    assert ok, f"criterion {number}: {label}"


def test_criterion_01_flat_space_reduction():
    started = time.perf_counter()
    field = make_field([])
    source = ConformalFieldMetric(field)
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(5):
        x = rng.uniform(-3, 3, 2)
        for gamma in (source.christoffel(x), christoffel_fd(source, x)):
            ok &= float(np.max(np.abs(gamma))) <= 1e-10
        ok &= float(np.max(np.abs(curvature_at(source, x).riemann))) <= 1e-8
    traj = integrate_geodesic([0.3, -0.2], [0.7, 0.4], source,
                              None, steps=1000, dt=1e-3)
    expected = np.array([0.3, -0.2]) + np.array([0.7, 0.4])
    ok &= float(np.linalg.norm(traj.positions[-1] - expected)) <= 1e-9
    elapsed = time.perf_counter() - started
    ok &= elapsed < 1.0
    _report(1, f"flat-space reduction (runtime {elapsed:.2f}s)", ok)


def test_criterion_02_sphere_oracle():
    started = time.perf_counter()
    sphere = SphereMetric(1.0)
    rng = np.random.default_rng(7)
    ok = True
    for _ in range(20):
        theta = rng.uniform(0.15, np.pi - 0.15)
        phi = rng.uniform(0.0, 2 * np.pi)
        x = np.array([theta, phi])
        expect_tpp = -math.sin(theta) * math.cos(theta)
        expect_ptp = math.cos(theta) / math.sin(theta)
        exact = sphere.christoffel(x)
        ok &= abs(exact[0, 1, 1] - expect_tpp) <= 1e-6
        ok &= abs(exact[1, 0, 1] - expect_ptp) <= 1e-6
        fd = christoffel_fd(sphere, x)
        ok &= abs(fd[0, 1, 1] - expect_tpp) <= 1e-4
        ok &= abs(fd[1, 0, 1] - expect_ptp) <= 1e-4
        ok &= abs(curvature_at(sphere, x).scalar - 2.0) <= 1e-3
    traj = integrate_geodesic([np.pi / 2, 0.0], [0.0, 1.0], sphere,
                              None, steps=6283, dt=1e-3)
    closure = float(np.linalg.norm(traj.positions[-1] - np.array([np.pi / 2, 2 * np.pi])))
    ok &= closure <= 1e-3
    elapsed = time.perf_counter() - started
    ok &= elapsed < 10.0
    _report(2, f"sphere oracle (closure {closure:.1e}, runtime {elapsed:.2f}s)", ok)


def test_criterion_03_metric_speed_conservation():
    rng = np.random.default_rng(42)
    field = make_field([rng.uniform(-1, 1, 2) for _ in range(5)],
                       bandwidth=0.8, epsilon=0.5)
    cases = [
        (FlatMetric(2), [0.0, 0.0], [0.7, 0.4]),
        (SphereMetric(1.0), [1.0, 0.3], [0.2, 0.5]),
        (ConformalFieldMetric(field), [0.0, 0.0], [0.7, 0.4]),
    ]
    worst = 0.0
    for source, x0, v0 in cases:
        traj = integrate_geodesic(x0, v0, source, None,
                                  steps=1000, dt=1e-3)
        assert len(traj) == 1001
        speeds = np.array([
            math.sqrt(v @ source.metric(x) @ v)
            for x, v in zip(traj.positions, traj.velocities)
        ])
        worst = max(worst, float(np.max(np.abs(speeds - speeds[0]))))
    _report(3, f"speed conservation over 1000 steps (max drift {worst:.1e})",
            worst <= 1e-4)


def test_criterion_04_rk4_order():
    sphere = SphereMetric(1.0)
    x0, v0 = np.array([1.0, 0.3]), np.array([0.2, 0.5])
    exact = great_circle_endpoint(x0, v0, 1.0)
    errors = []
    for dt in (0.05, 0.025, 0.0125):
        traj = integrate_geodesic(x0, v0, sphere, None,
                                  steps=round(1 / dt), dt=dt)
        errors.append(float(np.linalg.norm(traj.positions[-1] - exact)))
    r1, r2 = errors[0] / errors[1], errors[1] / errors[2]
    _report(4, f"RK4 convergence order (ratios {r1:.1f}, {r2:.1f})",
            r1 >= 8.0 and r2 >= 8.0)


def _cycle_positions(field, source, params, n_steps, dt, input_vec=None,
                     start=(0.1, 0.2), velocity=(0.5, 0.3)):
    state = MindState.initial(field, params, seed=1, start=list(start),
                              velocity=list(velocity))
    positions, velocities = [state.position], [state.velocity]
    for _ in range(n_steps):
        state = cycle_step(state, field, source, input_vec, dt)
        positions.append(state.position)
        velocities.append(state.velocity)
    return np.stack(positions), np.stack(velocities)


def test_criterion_05_zero_error_reduction():
    rng = np.random.default_rng(42)
    field = make_field([rng.uniform(-1, 1, 2) for _ in range(5)],
                       bandwidth=0.8, epsilon=0.5)
    source = ConformalFieldMetric(field)
    ok = True
    # kappa = 0 with live errors
    params = CognitionParams.defaults(2, kappa=0.0, input_blend=0.4, feedback_gain=1.0)
    pos, vel = _cycle_positions(field, source, params, 500, 1e-3,
                                input_vec=np.array([2.0, -1.0]))
    ref = integrate_geodesic(pos[0], vel[0], source, None, steps=500, dt=1e-3)
    ok &= np.array_equal(pos, ref.positions) and np.array_equal(vel, ref.velocities)
    # identically zero feedback history despite kappa > 0
    params = CognitionParams.defaults(2, kappa=2.0, input_blend=0.4, feedback_gain=0.0)
    pos, vel = _cycle_positions(field, source, params, 500, 1e-3,
                                input_vec=np.array([2.0, -1.0]))
    ok &= np.array_equal(pos, ref.positions) and np.array_equal(vel, ref.velocities)
    _report(5, "zero-prediction-error reduction is bitwise identical (500 steps)", ok)


def test_criterion_06_forcing_correctness():
    params = CognitionParams.defaults(1, kappa=1.0, feedback_gain=1.0)
    history = [(0.0, np.array([0.0])), (1.0, np.array([1.0])), (2.0, np.array([4.0]))]
    forcing = feedback_forcing(history, params, 1.0)
    ok = np.array_equal(forcing, np.array([2.0]))
    flat = FlatMetric(1)
    traj = integrate_geodesic([0.0], [0.0], flat,
                              [2.0], steps=1000, dt=1e-3)
    # closed form x(T) = a T^2 / 2 = 1
    ok &= abs(traj.positions[-1][0] - 1.0) <= 1e-4
    _report(6, "feedback forcing equals 2 and matches a*t^2/2", bool(ok))


def test_criterion_07_attention_and_context():
    params = CognitionParams.defaults(2)
    rng = np.random.default_rng(3)
    ok = True
    for _ in range(1000):
        n = int(rng.integers(1, 10))
        seq = [rng.standard_normal(2) * 2 for _ in range(n)]
        w = attention_weights(rng.standard_normal(2), seq, params)
        ok &= abs(float(np.sum(w)) - 1.0) <= 1e-12
    seq = [np.array([0.3, -0.4])] * 5
    w = attention_weights(np.array([1.0, 1.0]), seq, params)
    ok &= bool(np.allclose(w, 0.2, atol=1e-12))
    # hand-evaluated softmax(1/sqrt(2), 0); independently recomputed value
    seq = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    w = attention_weights(np.array([1.0, 0.0]), seq, params)
    e = math.exp(1.0 / math.sqrt(2.0))
    expected = np.array([e / (e + 1.0), 1.0 / (e + 1.0)])
    ok &= bool(np.max(np.abs(w - expected)) <= 1e-5)
    ok &= bool(np.max(np.abs(w - np.array([0.6697615493266569, 0.3302384506733431]))) <= 1e-5)
    _report(7, "attention normalisation, uniformity and softmax example", ok)


def test_criterion_08_competition():
    rng = np.random.default_rng(21)

    def flow_with_score(score):
        traj = Trajectory(np.zeros((2, 2)), np.zeros((2, 2)), np.array([0.0, 0.1]), 0.1)
        errs = [np.array([math.sqrt(-score), 0.0])]
        flow = ThoughtFlow(traj, errs, 0.0, 0)
        return ThoughtFlow(flow.trajectory, flow.errors, score_flow(flow), 0)

    ok = True
    for _ in range(100):
        scores = rng.uniform(-5, -0.01, size=int(rng.integers(2, 8)))
        theta = rng.uniform(-5, 0)
        flows = [flow_with_score(s) for s in scores]
        base = select_conscious(flows, theta)
        a, b, c = rng.uniform(0.1, 2.0, 3)
        transformed = [ThoughtFlow(f.trajectory, f.errors,
                                   a * f.score + b * math.tanh(f.score) + c * f.score**3,
                                   f.seed) for f in flows]
        theta_t = a * theta + b * math.tanh(theta) + c * theta**3
        ok &= select_conscious(transformed, theta_t).winner == base.winner
    below = [flow_with_score(-4.0), flow_with_score(-9.0)]
    ok &= select_conscious(below, threshold=-1.0).winner is None
    _report(8, "competition invariant under 100 monotone rescalings", ok)


def test_criterion_09_learning_convergence():
    started = time.perf_counter()
    params = CognitionParams.defaults(2, kappa=1.0, input_blend=0.5, feedback_gain=1.0)
    _, errors = run_learning(demo_field(), params, [0.8, 0.4], cycles=50, dt=0.1,
                             seed=11, rate=0.2, start=[-0.2, -0.1], velocity=[0.0, 0.0])
    early = float(np.mean(errors[:5]))
    late = float(np.mean(errors[45:50]))
    elapsed = time.perf_counter() - started
    ok = late <= 0.5 * early and elapsed < 5.0
    _report(9, f"learning halves the error (ratio {late / early:.3f}, "
               f"runtime {elapsed:.2f}s)", ok)


def test_criterion_10_feature_manipulation():
    def build(weight):
        return make_field([[0.0, 0.0]], weights=[weight], bandwidth=1.0, epsilon=0.5)

    a, b = np.array([-1.5, 0.6]), np.array([1.5, 0.6])
    token = np.zeros(2)

    def max_deviation_toward(traj):
        positions = traj.positions
        u = (b - a) / np.linalg.norm(b - a)
        rel = positions - a
        perp = rel - np.outer(rel @ u, u)
        w = token - (a + ((token - a) @ u) * u)
        w_hat = w / np.linalg.norm(w)
        return float(np.max(perp @ w_hat))

    lams, devs = {}, {}
    for weight in (1.0, 10.0):
        source = ConformalFieldMetric(build(weight))
        lams[weight] = source.conformal_factor(token)
        traj = geodesic_between(a, b, source, ShootingOptions(max_iters=100, steps=300))
        devs[weight] = max_deviation_toward(traj)
    ok = lams[10.0] < lams[1.0] and devs[10.0] > devs[1.0]
    _report(10, f"x10 weight pulls the geodesic closer "
                f"(deviation {devs[1.0]:.3f} -> {devs[10.0]:.3f})", ok)


def test_criterion_11_connectivity():
    offsets = [(0, 0), (0.4, 0), (0, 0.4), (-0.4, 0), (0, -0.4)]
    means = [np.array(o, dtype=float) for o in offsets]
    means += [np.array([50.0, 0.0]) + np.array(o) for o in offsets]
    ids = list(range(10))
    # the connectivity threshold is the field's epsilon; the density midway
    # between the clusters (about 1e-136) lies below 1e-100, the bridge's above
    field = make_field(means, bandwidth=1.0, epsilon=1e-100, ids=ids)
    report = analyze_field(field, ConformalFieldMetric(field))
    ok = len(report.components) == 2
    bridged = make_field(means + [np.array([25.0, 0.0])], bandwidth=1.0, epsilon=1e-100,
                         ids=ids + [99], weights=[1.0] * 10 + [5.0])
    report2 = analyze_field(bridged, ConformalFieldMetric(bridged))
    ok &= len(report2.components) == 1
    _report(11, "two clusters split, bridge token reconnects", ok)


def test_criterion_12_simulate_determinism(tmp_path):
    save_field(demo_field(), tmp_path / "field.json")
    (tmp_path / "config.json").write_text(json.dumps({
        "field": "field.json",
        "metric": {"kind": "field"},
        "cognition": {"kappa": 0.5, "beta": 0.3, "feedback_gain": 0.2},
        "simulation": {"steps": 120, "dt": 0.01, "seeds": [1, 2, 3],
                       "start": [0.0, 0.0], "velocity": [0.3, 0.2]},
        "output": {"format": "json"},
    }))
    digests = []
    for k in range(3):
        out = tmp_path / f"run{k}"
        rc = main(["simulate", "--config", str(tmp_path / "config.json"),
                   "--out", str(out)])
        assert rc == 0
        h = hashlib.sha256()
        for p in sorted(out.iterdir()):
            h.update(p.name.encode())
            h.update(p.read_bytes())
        digests.append(h.hexdigest())
    _report(12, "simulate runs are byte-identical across 3 invocations",
            digests[0] == digests[1] == digests[2])
