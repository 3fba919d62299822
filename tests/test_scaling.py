"""Exact power-of-two symmetry oracles for the density-metric geodesic flow.

Multiplying by 2^k is exact in binary floating point, short of overflow and
underflow (Higham, Accuracy and Stability of Numerical Algorithms, 2.1), and
every formula on the geodesic and curvature paths is homogeneous. So a run
on a rescaled field must give exactly the rescaled results, at zero
tolerance, whatever the summation order (metamorphic testing: Chen et al.,
ACM Computing Surveys 51(1), 2018):

- space scale s = 2^k on means, bandwidth, start and velocity: positions
  and velocities come out x s, the scalar curvature x s^-2;
- density scale c = 2^k on weights and epsilon: positions and velocities
  stay bitwise unchanged, the scalar curvature comes out x c;
- reflecting some axes of the means, start and velocity reflects the
  geodesic: every value is equal, and every nonzero one bitwise; a zero may
  change sign, since an RK4 update x + 0.0 turns -0.0 into 0.0.

- time scale tau = 2^k on dt, the geometric predictor's window and the
  horizon, with the start velocity divided by tau and a constant forcing by
  tau^2: positions, activation ids, prediction errors and scores stay
  bitwise unchanged, times come out x tau and velocities x tau^-1. Every
  RK4 product then changes by an exact power of two: Gamma(v, v) scales by
  tau^-2, and so does the feedback forcing kappa (psi_2 - 2 psi_1 + psi_0) / dt^2,
  because the feedback psi is position-valued.

A hidden absolute constant, such as rho + eps + 1e-12, or a wrong power of
h or of dt breaks these. The space draws keep covariances zero, since
sampled normals do not reflect, and every draw keeps each kernel value and
coordinate far from overflow and from the subnormals, where scaling rounds.

The time twins run only a few cycles: feedback_forcing accepts a history
whose spacing is within 1e-9 * max(1, dt) of dt, a tolerance that is not
homogeneous in dt, so the rounding that accumulates in the times must stay
far below it at both scales.

The space and density scales hold through the command line. A config
whose lengths are scaled by s, and whose squared lengths (covariances,
attention temperature, competition threshold) by s^2, or whose weights and
epsilon are scaled by c, makes all five commands write the same files,
every float scaled by its own s^p c^q (POWERS): a density scale keeps every flow and geodesic, and
divides the metric by c, so path length and energy change by c^-1/2 and
c^-1, and c = 4 keeps the square root exact. So does the time scale, for
the three commands that take simulation.dt: simulate, compete and learn.
geodesic and analyze have no dt (a shot's step is 1 / geodesic.steps of a
unit interval), so there is nothing to scale in them.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geomind import (CognitionParams, ConformalFieldMetric, TokenField, integrate_geodesic,
                     run_thought_flow)
from geomind.cli import COMMANDS, main

STEPS, DT = 4, 0.05


def _numbers(top):
    # magnitudes at or above 2^-10, so no value nears the subnormals at 2^-3
    return st.one_of(st.just(0.0), st.floats(2.0**-10, top), st.floats(-top, -2.0**-10))


@st.composite
def _cases(draw):
    d, n = draw(st.integers(1, 5)), draw(st.integers(1, 11))
    batch = draw(st.integers(0, 3))  # 0: one (D,) row, else a (B, D) batch
    shape = (batch, d) if batch else (d,)
    return dict(
        means=draw(hnp.arrays(float, (n, d), elements=_numbers(2.0))),
        weights=draw(hnp.arrays(float, n, elements=st.floats(0.25, 2.0))),
        bandwidth=draw(st.floats(0.5, 2.0)), epsilon=draw(st.floats(0.25, 2.0)),
        start=draw(hnp.arrays(float, shape, elements=_numbers(2.0))),
        velocity=draw(hnp.arrays(float, shape, elements=_numbers(1.0))),
        k=draw(st.sampled_from([-3, 2, 5])),
        flip=np.where(draw(hnp.arrays(bool, d)), -1.0, 1.0))


def _run(case, space=1.0, density=1.0, sign=1.0):
    """The geodesic and the scalar curvature at its positions, on the drawn
    field and start rescaled by space and density and reflected by sign."""
    n, d = case["means"].shape
    field = TokenField(np.arange(n), case["means"] * space * sign, np.zeros((n, d)),
                       case["weights"] * density, case["bandwidth"] * space,
                       case["epsilon"] * density)
    source = ConformalFieldMetric(field)
    traj = integrate_geodesic(case["start"] * space * sign, case["velocity"] * space * sign,
                              source, steps=STEPS, dt=DT)
    assert not traj.truncated and np.isfinite(traj.positions).all()
    return traj, source.scalar_curvature(traj.positions.reshape(-1, d))


def _same(a, b) -> bool:
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_cases())
def test_geodesic_and_curvature_scale_exactly_by_powers_of_two(case):
    base, curvature = _run(case)
    factor = 2.0 ** case["k"]

    spaced, spaced_curvature = _run(case, space=factor)
    assert _same(spaced.positions, base.positions * factor)
    assert _same(spaced.velocities, base.velocities * factor)
    assert _same(spaced_curvature, curvature * factor**-2)

    dense, dense_curvature = _run(case, density=factor)
    assert _same(dense.positions, base.positions)
    assert _same(dense.velocities, base.velocities)
    assert _same(dense_curvature, curvature * factor)

    reflected, _ = _run(case, sign=case["flip"])
    assert np.array_equal(reflected.positions, base.positions * case["flip"])
    assert np.array_equal(reflected.velocities, base.velocities * case["flip"])


@st.composite
def _forced_cases(draw):
    """A _cases draw with a constant forcing vector."""
    case = draw(_cases())
    d = case["means"].shape[1]
    return dict(case, forcing=draw(hnp.arrays(float, d, elements=_numbers(1.0))))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_forced_cases())
def test_forced_geodesic_scales_exactly_in_time(case):
    n, d = case["means"].shape
    source = ConformalFieldMetric(TokenField(np.arange(n), case["means"], np.zeros((n, d)),
                                             case["weights"], case["bandwidth"], case["epsilon"]))
    tau = 2.0 ** case["k"]
    base, twin = (integrate_geodesic(case["start"], case["velocity"] / t, source,
                                     case["forcing"] / t**2, steps=STEPS, dt=DT * t)
                  for t in (1.0, tau))
    assert not base.truncated and np.isfinite(base.velocities).all()
    assert _same(twin.positions, base.positions)
    assert _same(twin.velocities, base.velocities / tau)
    assert _same(twin.times, base.times * tau) and twin.dt == base.dt * tau


@st.composite
def _flow_cases(draw):
    """A small field with diagonal covariances, a cognitive pipeline with
    either predictor, an input schedule and a short forced flow."""
    d, n = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    matrix = hnp.arrays(float, (d, d), elements=st.floats(-1.0, 1.0))
    vector = hnp.arrays(float, d, elements=_numbers(2.0))
    dt = draw(st.floats(0.01, 0.5))
    return dict(
        means=draw(hnp.arrays(float, (n, d), elements=_numbers(2.0))),
        covariances=draw(hnp.arrays(float, (n, d), elements=st.floats(0.0, 0.05))),
        weights=draw(hnp.arrays(float, n, elements=st.floats(0.25, 2.0))),
        bandwidth=draw(st.floats(0.5, 2.0)), epsilon=draw(st.floats(0.25, 2.0)),
        params=dict(value_matrix=draw(matrix), predictor_matrix=draw(matrix),
                    bias=draw(hnp.arrays(float, d, elements=_numbers(0.5))),
                    activation=draw(st.sampled_from(["identity", "tanh"])),
                    input_blend=draw(st.floats(0.0, 1.0)),
                    feedback_gain=draw(st.floats(-2.0, 2.0)), kappa=draw(st.floats(0.0, 2.0)),
                    context_capacity=draw(st.integers(1, 4)),
                    predictor=draw(st.sampled_from(["contextual", "geometric"])),
                    # round(window / dt) >= 1 steps of the front buffer
                    geometric_window=dt * draw(st.floats(0.75, 4.0))),
        inputs={step: draw(vector) for step in draw(st.sets(st.integers(0, 9), max_size=3))},
        start=draw(vector), velocity=draw(hnp.arrays(float, d, elements=_numbers(1.0))),
        dt=dt, steps=draw(st.integers(3, 10)), seed=draw(st.integers(0, 2**32 - 1)),
        k=draw(st.sampled_from([-2, 1, 3])))


def _flow(case, tau=1.0):
    """The drawn thought flow with dt and the geometric window scaled by tau
    and the start velocity by 1 / tau."""
    n, d = case["means"].shape
    field = TokenField(np.arange(n), case["means"], case["covariances"], case["weights"],
                       case["bandwidth"], case["epsilon"])
    params = CognitionParams(**dict(case["params"],
                                    geometric_window=case["params"]["geometric_window"] * tau))
    return run_thought_flow(field, ConformalFieldMetric(field), params, case["inputs"],
                            n_steps=case["steps"], dt=case["dt"] * tau, seed=case["seed"],
                            start=case["start"], velocity=case["velocity"] / tau)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_flow_cases())
def test_thought_flow_scales_exactly_in_time(case):
    base, tau = _flow(case), 2.0 ** case["k"]
    twin = _flow(case, tau)
    assert base.stop_reason is None
    assert _same(twin.trajectory.positions, base.trajectory.positions)
    assert _same(twin.trajectory.velocities, base.trajectory.velocities / tau)
    assert _same(twin.trajectory.times, base.trajectory.times * tau)
    assert twin.trajectory.activations == [(t * tau, i) for t, i in base.trajectory.activations]
    assert _same(np.array(twin.errors), np.array(base.errors))
    assert repr(twin.score) == repr(base.score) and twin.stop_reason is None


# The factor s^p c^q tau^r by which an artifact float changes under the space
# scale s, the density scale c and the time scale tau, as (p, q, r), by the
# nearest key above it; every float of pca_projection.json, whose keys are
# token ids, changes by s.
POWERS = {"position": (1, 0, 0), "velocity": (1, 0, -1), "point": (1, 0, 0),
          "high_curvature": (1, 0, 0), "mean": (1, 0, 0), "bandwidth": (1, 0, 0),
          "error_norms": (1, 0, 0), "scores": (2, 0, 0), "threshold": (2, 0, 0),
          "covariance": (2, 0, 0), "scalar": (-2, 1, 0), "percentile_cut": (-2, 1, 0),
          "length": (1, -0.5, 0), "energy": (2, -1, 0), "weight": (0, 1, 0),
          "epsilon": (0, 1, 0), "t": (0, 0, 1), "dt": (0, 0, 1)}


def _write_run(root, s, c, tau=1.0):
    """A field, an input schedule and a config under root, every length
    scaled by s, every squared length by s^2, the weights and epsilon by c,
    and dt and the geometric window by tau, with the start velocity scaled
    by s / tau; the config's path.

    The runs stay out of the places where a scale is not exact: the
    activation is the identity, not tanh; the tokens lie within a few
    bandwidths of each other and of every point the runs visit, so no
    kernel value nears the subnormals; and the geodesic's endpoints lie far
    enough apart that every shot's speed |v| stays above 1 at both scales,
    where the shooting probe step JACOBIAN_STEP * max(1, |v|) scales by s."""
    def scaled(rows, power=1):
        return (np.asarray(rows) * s**power).tolist()

    means = [[0.0, 0.0, 0.0], [1.2, 0.1, -0.3], [0.4, 1.1, 0.2], [-0.6, 0.5, 0.9],
             [0.9, -0.8, 0.4], [-0.3, -0.7, -0.5]]
    covariances = [np.diag(d) for d in ([0.01, 0.02, 0.015], [0.02, 0.01, 0.01],
                                        [0.0, 0.0, 0.0], [0.03, 0.02, 0.01], [0.01, 0.01, 0.02])]
    # one full matrix, whose samples take the Cholesky factor
    covariances.insert(2, [[0.02, 0.005, 0.0], [0.005, 0.03, 0.004], [0.0, 0.004, 0.01]])
    weights = [1.0, 0.7, 1.3, 0.9, 1.1, 0.6]
    tokens = [{"id": 10 + k, "mean": scaled(mean), "covariance": scaled(cov, 2), "weight": w * c}
              for k, (mean, cov, w) in enumerate(zip(means, covariances, weights))]
    files = {
        "field.json": {"dimension": 3, "bandwidth": 0.8 * s, "epsilon": 0.5 * c, "tokens": tokens},
        "inputs.json": [{"step": 5, "vector": scaled([1.0, 0.5, 0.0])},
                        {"step": 20, "vector": scaled([-0.5, 0.3, 0.6])}],
        "config.json": {
            "field": "field.json",
            "cognition": {
                "value_matrix": [[0.9, 0.1, 0.0], [0.0, 1.0, 0.05], [0.02, 0.0, 0.95]],
                "predictor_matrix": [[0.8, 0.0, 0.1], [0.05, 0.9, 0.0], [0.0, 0.1, 0.85]],
                "bias": scaled([0.05, -0.02, 0.01]), "beta": 0.3, "feedback_gain": 0.8,
                "kappa": 0.0005, "attention_temperature": 0.6 * s**2, "context_capacity": 4,
                "geometric_window": 0.1 * tau},
            "simulation": {"steps": 40, "dt": 0.05 * tau, "seeds": [1, 2, 3],
                           "inputs": "inputs.json", "start": scaled([0.2, 0.1, 0.0]),
                           "velocity": (np.asarray(scaled([0.3, -0.2, 0.1])) / tau).tolist()},
            "competition": {"threshold": -0.3 * s**2},
            "learning": {"rate": 0.3, "cycles": 8, "input": scaled([0.5, 0.5, 0.2])},
            "geodesic": {"start": scaled([-0.6, -0.9, -0.4]), "end": scaled([1.3, 0.9, 0.6]),
                         "tol": 1e-7 * s, "steps": 40, "max_iters": 20},
            "output": {"format": "json"}}}
    root.mkdir()
    for name, payload in files.items():
        (root / name).write_text(json.dumps(payload))
    return root / "config.json"


def _compare(base, twin, factors, powers, where, seen):
    """Assert that twin is base with every float multiplied by its factor,
    factors[powers] for the powers of the nearest key above it in POWERS,
    and every other value equal; count the nonzero floats by factor in seen."""
    if isinstance(base, dict):
        assert list(twin) == list(base), where
        for key in base:
            _compare(base[key], twin[key], factors, POWERS.get(key, powers), f"{where}/{key}",
                     seen)
    elif isinstance(base, list):
        assert isinstance(twin, list) and len(twin) == len(base), where
        for k, (a, b) in enumerate(zip(base, twin)):
            _compare(a, b, factors, powers, f"{where}[{k}]", seen)
    elif type(base) is float:
        assert powers is not None, f"{where}: no scaling rule"
        assert type(twin) is float and repr(twin) == repr(base * factors[powers]), where
        seen[factors[powers]] += base != 0.0
    else:
        assert type(twin) is type(base) and twin == base, where


@pytest.mark.parametrize("s, c, tau, commands", [
    (2.0, 1.0, 1.0, COMMANDS), (1.0, 4.0, 1.0, COMMANDS),
    # geodesic and analyze take no dt
    (1.0, 1.0, 4.0, ("simulate", "compete", "learn"))], ids=["space", "density", "time"])
def test_every_command_writes_the_scaled_files(tmp_path, s, c, tau, commands):
    configs = {"base": _write_run(tmp_path / "base", 1.0, 1.0),
               "twin": _write_run(tmp_path / "twin", s, c, tau)}
    factors = {(p, q, r): s**p * c**q * tau**r for p, q, r in POWERS.values()}
    seen = Counter()
    for command in commands:
        outs = {side: tmp_path / side / command for side in configs}
        for side, config in configs.items():
            assert main([command, "--config", str(config), "--out", str(outs[side])]) == 0
        names = sorted(path.name for path in outs["base"].iterdir())
        assert names == sorted(path.name for path in outs["twin"].iterdir())
        for name in names:
            base, twin = (json.loads((outs[side] / name).read_text()) for side in configs)
            _compare(base, twin, factors, (1, 0, 0) if name == "pca_projection.json" else None,
                     f"{command}/{name}", seen)
    # nonzero floats of every factor were compared
    assert set(seen) == set(factors.values()) and all(seen.values()), seen
