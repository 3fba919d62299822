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

A hidden absolute constant, such as rho + eps + 1e-12, or a wrong power of
h breaks these. The draws keep covariances zero, since sampled normals do
not reflect, and keep every kernel value and coordinate far from overflow
and from the subnormals, where scaling rounds.

Both scales hold through the command line. A config whose lengths are
scaled by s, and whose squared lengths (covariances, attention temperature,
competition threshold) by s^2, or whose weights and epsilon are scaled by
c, makes all five commands write the same files, every float scaled by its
own s^p c^q (POWERS): a density scale keeps every flow and geodesic, and
divides the metric by c, so path length and energy change by c^-1/2 and
c^-1, and c = 4 keeps the square root exact.
"""

import json
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geomind import ConformalFieldMetric, TokenField, integrate_geodesic
from geomind.cli import COMMANDS, main

HORIZON, DT = 0.2, 0.05


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
                              source, horizon=HORIZON, dt=DT)
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


# The factor s^p c^q by which an artifact float changes under the space scale
# s and the density scale c, as (p, q), by the nearest key above it; every
# float of pca_projection.json, whose keys are token ids, changes by s.
POWERS = {"position": (1, 0), "velocity": (1, 0), "point": (1, 0), "high_curvature": (1, 0),
          "mean": (1, 0), "bandwidth": (1, 0), "error_norms": (1, 0),
          "scores": (2, 0), "threshold": (2, 0), "covariance": (2, 0),
          "scalar": (-2, 1), "percentile_cut": (-2, 1),
          "length": (1, -0.5), "energy": (2, -1), "weight": (0, 1), "epsilon": (0, 1),
          "t": (0, 0), "dt": (0, 0)}


def _write_run(root, s, c):
    """A field, an input schedule and a config under root, every length
    scaled by s, every squared length by s^2 and the weights and epsilon by
    c; the config's path.

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
                "kappa": 0.0005, "attention_temperature": 0.6 * s**2, "context_capacity": 4},
            "simulation": {"steps": 40, "dt": 0.05, "seeds": [1, 2, 3], "inputs": "inputs.json",
                           "start": scaled([0.2, 0.1, 0.0]), "velocity": scaled([0.3, -0.2, 0.1])},
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


@pytest.mark.parametrize("s, c", [(2.0, 1.0), (1.0, 4.0)], ids=["space", "density"])
def test_every_command_writes_the_scaled_files(tmp_path, s, c):
    configs = {"base": _write_run(tmp_path / "base", 1.0, 1.0),
               "twin": _write_run(tmp_path / "twin", s, c)}
    factors = {(p, q): s**p * c**q for p, q in POWERS.values()}
    seen = Counter()
    for command in COMMANDS:
        outs = {side: tmp_path / side / command for side in configs}
        for side, config in configs.items():
            assert main([command, "--config", str(config), "--out", str(outs[side])]) == 0
        names = sorted(path.name for path in outs["base"].iterdir())
        assert names == sorted(path.name for path in outs["twin"].iterdir())
        for name in names:
            base, twin = (json.loads((outs[side] / name).read_text()) for side in configs)
            _compare(base, twin, factors, (1, 0) if name == "pca_projection.json" else None,
                     f"{command}/{name}", seen)
    # nonzero floats of every factor were compared
    assert set(seen) == set(factors.values()) and all(seen.values()), seen
