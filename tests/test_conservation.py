"""Conservation laws of the density-metric geodesic flow as oracles.

A geodesic of g = lambda I conserves its energy lambda |v|^2. A field that is
invariant under rotations about a point c (one isotropic token, or several
tokens at one mean) has Killing fields, so every
L_ij = lambda ((x - c)_i v_j - (x - c)_j v_i) is conserved as well (do Carmo,
Riemannian Geometry, ch. 3). RK4 keeps both to O(dt^4) (Hairer, Lubich and
Wanner, Geometric Numerical Integration), so their largest drift over a run
must fall about 16x each time dt halves. The steps run from 0.04 to 0.005,
where the finest drift still lies far above rounding. An acceleration that is
wrong by a relative 1e-9 drifts by about 1e-9 at every step and fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geomind.cognition import CognitionParams
from geomind.geodesic import integrate_geodesic
from geomind.manifold import ConformalFieldMetric
from geomind.mind import run_thought_flow

from conftest import make_field

STEPS = (0.04, 0.02, 0.01, 0.005)
HORIZON = 4.0
# each halving of dt must cut every drift by at least this factor
ORDER_RATIO = 12.0


def _energy_and_momenta(source, positions, velocities, centre):
    """lambda |v|^2 and the (D, D) L_ij of each (..., D) sample."""
    d = positions.shape[-1]
    lam = np.array([source.conformal_factor(x) for x in positions.reshape(-1, d)])
    lam = lam.reshape(positions.shape[:-1])
    energy = lam * np.einsum("...d,...d->...", velocities, velocities)
    xc = positions - centre
    wedge = xc[..., :, None] * velocities[..., None, :] - xc[..., None, :] * velocities[..., :, None]
    return energy, lam[..., None, None] * wedge


def _drifts(source, start, velocity, centre):
    """(energy drift, L drift) per step of STEPS: the largest deviation from
    the initial value over the run, per batch row and per (i, j)."""
    drifts = []
    for dt in STEPS:
        traj = integrate_geodesic(start, velocity, source, None, horizon=HORIZON, dt=dt)
        assert not traj.truncated
        energy, momenta = _energy_and_momenta(source, traj.positions, traj.velocities, centre)
        drifts.append((np.abs(energy - energy[0]).max(axis=0),
                       np.abs(momenta - momenta[0]).max(axis=0)))
    return drifts


def _assert_fourth_order(drifts, what):
    for k, (coarse, fine) in enumerate(zip(drifts, drifts[1:])):
        assert np.all(coarse >= ORDER_RATIO * fine), (what, STEPS[k + 1], coarse, fine)


def _assert_conserved(drifts, d, bound):
    """Energy and every L_ij with i < j hold fourth order, and at the
    coarsest step each drift stays below bound."""
    upper = np.triu_indices(d, 1)
    energy = [e for e, _ in drifts]
    momenta = [m[..., upper[0], upper[1]] for _, m in drifts]
    _assert_fourth_order(energy, "energy")
    _assert_fourth_order(momenta, "L")
    assert np.all(energy[0] < bound) and np.all(momenta[0] < bound), (energy[0], momenta[0])


def test_one_token_conserves_energy_and_momentum_to_fourth_order():
    # at dt = 0.04, 0.02, 0.01 and 0.005 the energy drifts by 5.0e-9,
    # 3.2e-10, 2.0e-11 and 1.2e-12, and L_01 by 5.7e-9 to 1.4e-12
    source = ConformalFieldMetric(make_field([[0.0, 0.0]], bandwidth=1.0, epsilon=0.5))
    drifts = _drifts(source, np.array([1.2, -0.3]), np.array([-0.4, 0.9]), np.zeros(2))
    _assert_conserved(drifts, 2, bound=1e-8)
    assert drifts[-1][0] > 1e-13, "the finest drift must lie above rounding"


@st.composite
def _rotation_invariant_cases(draw):
    """A field of 1-3 tokens at one mean c with zero covariance, a start at
    0.3-1.5 bandwidths from c and a velocity of norm 1-2, fast enough that
    the finest run's drift lies far above rounding.

    The geodesic stays in the plane of x - c and v, so L_ij drifts in
    proportion to the plane's (i, j) component u_i w_j - u_j w_i. With
    u = s / sqrt(D) for signs s and w_i = t_i m_i for signs t and
    magnitudes m_i at least 0.7 apart, each component is at least
    0.7 / sqrt(D), so no L_ij drift sinks to rounding."""
    d = draw(st.sampled_from([2, 3, 5]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 3))
    bandwidth = draw(st.floats(0.6, 1.2))
    centre = rng.uniform(-1.0, 1.0, d)
    field = make_field(np.tile(centre, (n, 1)), dim=d, bandwidth=bandwidth,
                       epsilon=draw(st.floats(0.2, 0.5)), weights=rng.uniform(0.5, 2.0, n))
    u = rng.choice([-1.0, 1.0], d) / np.sqrt(d)
    w = rng.choice([-1.0, 1.0], d) * (rng.permutation(d) + 1.0 + rng.uniform(0.0, 0.3, d))
    start = centre + draw(st.floats(0.3, 1.5)) * bandwidth * u
    velocity = draw(st.floats(-1.0, 1.0)) * u + w / np.linalg.norm(w)
    velocity *= draw(st.floats(1.0, 2.0)) / np.linalg.norm(velocity)
    return ConformalFieldMetric(field), start, velocity, centre


@settings(max_examples=8, deadline=None, derandomize=True)
@given(_rotation_invariant_cases())
def test_rotation_invariant_fields_conserve_energy_and_every_momentum(case):
    source, start, velocity, centre = case
    _assert_conserved(_drifts(source, start, velocity, centre), source.dim, bound=1e-5)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_each_row_of_a_batch_conserves_its_own_quantities(d):
    # a (B, D) batch takes the batched Christoffel path, not the single point's
    rng = np.random.default_rng(d)
    centre = rng.uniform(-1.0, 1.0, d)
    source = ConformalFieldMetric(make_field([centre, centre], dim=d, bandwidth=0.8,
                                             epsilon=0.3, weights=[1.0, 0.5]))
    offsets, velocities = rng.standard_normal((4, d)), rng.standard_normal((4, d))
    starts = centre + 0.8 * offsets / np.linalg.norm(offsets, axis=1)[:, None]
    _assert_conserved(_drifts(source, starts, velocities, centre), d, bound=1e-5)


@pytest.mark.parametrize("d", [2, 3])
def test_energy_holds_fourth_order_on_a_field_without_symmetry(d):
    rng = np.random.default_rng(10 + d)
    source = ConformalFieldMetric(make_field(rng.uniform(-1.0, 1.0, (5, d)), dim=d,
                                             bandwidth=0.8, epsilon=0.4,
                                             weights=rng.uniform(0.5, 2.0, 5)))
    drifts = _drifts(source, rng.uniform(-0.5, 0.5, d), rng.uniform(-1.0, 1.0, d), np.zeros(d))
    energy = [e for e, _ in drifts]
    _assert_fourth_order(energy, "energy")
    assert energy[0] < 1e-5


def test_zero_feedback_flow_conserves_its_energy():
    # with no feedback the flow is the free geodesic from the nearest token
    rng = np.random.default_rng(3)
    field = make_field(rng.uniform(-1.0, 1.0, (5, 2)), bandwidth=0.8, epsilon=0.5)
    source = ConformalFieldMetric(field)
    params = CognitionParams.defaults(2, kappa=2.0, input_blend=0.4, feedback_gain=0.0)
    drifts = []
    for dt in STEPS:
        flow = run_thought_flow(field, source, params, inputs={0: np.array([2.0, -1.0])},
                                n_steps=round(HORIZON / dt), dt=dt, seed=1,
                                start=[0.1, 0.2], velocity=[0.5, -0.6])
        traj = flow.trajectory
        energy, _ = _energy_and_momenta(source, traj.positions, traj.velocities, np.zeros(2))
        drifts.append(np.abs(energy - energy[0]).max())
    _assert_fourth_order(drifts, "energy")
    assert drifts[0] < 1e-5
