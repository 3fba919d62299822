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
"""

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geomind import ConformalFieldMetric, TokenField, integrate_geodesic

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
