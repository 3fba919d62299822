import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geomind import (CognitionParams, ConformalFieldMetric, FlatMetric,
                     MindState, attention_weights,
                     context_vector, cycle_step, feedback_forcing,
                     integrate_geodesic, perceive, predict_contextual,
                     predict_geometric, prediction_error, sample_embedding)

from conftest import make_field


# ---------------------------------------------------------------- sampling

def test_zero_covariance_returns_mean_exactly():
    mean = np.array([0.3, -0.7])
    out = sample_embedding(mean, np.zeros((2, 2)), np.random.default_rng(0))
    assert np.array_equal(out, mean)


def test_sampling_deterministic_for_equal_rng_state():
    mean, cov = np.zeros(2), np.diag([0.5, 2.0])
    a = sample_embedding(mean, cov, np.random.default_rng(123))
    b = sample_embedding(mean, cov, np.random.default_rng(123))
    assert np.array_equal(a, b)


def test_sampling_advances_rng():
    mean, cov = np.zeros(2), np.diag([1.0, 1.0])
    rng = np.random.default_rng(123)
    a = sample_embedding(mean, cov, rng)
    b = sample_embedding(mean, cov, rng)
    assert not np.array_equal(a, b)


def test_sample_mean_clt_bound():
    # oracle: with unit covariance, the empirical mean of n draws lands
    # within 4/sqrt(n) of the true mean per component (4 sigma)
    mean = np.array([1.0, -2.0])
    rng = np.random.default_rng(2024)
    n = 10_000
    draws = np.stack([sample_embedding(mean, np.eye(2), rng) for _ in range(n)])
    assert np.all(np.abs(draws.mean(axis=0) - mean) < 4.0 / math.sqrt(n))


def test_full_covariance_cholesky_path():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    rng = np.random.default_rng(5)
    draws = np.stack([sample_embedding(np.zeros(2), cov, rng) for _ in range(20_000)])
    assert np.max(np.abs(np.cov(draws.T) - cov)) < 0.1


# ---------------------------------------------------------------- attention

def test_identical_values_give_uniform_weights(identity_params):
    seq = [np.array([0.4, 0.6])] * 4
    w = attention_weights(np.array([1.0, 2.0]), seq, identity_params)
    assert np.allclose(w, 0.25)


def test_singleton_sequence(identity_params):
    w = attention_weights(np.array([1.0, 2.0]), [np.array([0.0, 1.0])], identity_params)
    assert np.array_equal(w, np.array([1.0]))


def test_hand_evaluated_softmax(identity_params):
    # oracle: softmax(1/sqrt(2), 0) computed from math.exp
    seq = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    w = attention_weights(np.array([1.0, 0.0]), seq, identity_params)
    e = math.exp(1.0 / math.sqrt(2.0))
    assert np.allclose(w, [e / (e + 1.0), 1.0 / (e + 1.0)], atol=1e-12)


def test_weights_sum_to_one_random_sequences(identity_params):
    rng = np.random.default_rng(9)
    for _ in range(200):
        n = rng.integers(1, 12)
        seq = [rng.standard_normal(2) * 3 for _ in range(n)]
        w = attention_weights(rng.standard_normal(2), seq, identity_params)
        assert abs(float(np.sum(w)) - 1.0) <= 1e-12
        assert np.all(w > 0.0)


@st.composite
def _attention_cases(draw):
    d, n = draw(st.integers(1, 6)), draw(st.integers(1, 12))
    coords = st.floats(-100.0, 100.0)
    query = draw(hnp.arrays(float, d, elements=coords))
    sequence = list(draw(hnp.arrays(float, (n, d), elements=coords)))
    params = CognitionParams.defaults(d, attention_temperature=draw(st.floats(0.05, 10.0)))
    return query, sequence, params


@settings(max_examples=200, deadline=None)
@given(_attention_cases())
def test_attention_weights_are_a_distribution(case):
    # logits reach 1.2e6 here, so weights far below the largest underflow to 0
    query, sequence, params = case
    w = attention_weights(query, sequence, params)
    assert w.shape == (len(sequence),)
    assert np.all(w >= 0.0)
    assert abs(float(np.sum(w)) - 1.0) <= 1e-12


def test_softmax_shift_invariance(identity_params):
    # appending a shared extra coordinate shifts every logit by a constant
    rng = np.random.default_rng(10)
    params3 = CognitionParams.defaults(3, attention_temperature=identity_params.attention_temperature)
    for _ in range(20):
        q2 = rng.standard_normal(2)
        seq2 = [rng.standard_normal(2) for _ in range(5)]
        shift = rng.uniform(-5, 5)
        w_base = attention_weights(q2, seq2, identity_params)
        q3 = np.append(q2, 1.0)
        offset = shift * identity_params.attention_temperature
        seq3 = [np.append(v, offset) for v in seq2]
        w_shift = attention_weights(q3, seq3, params3)
        assert np.allclose(w_base, w_shift, atol=1e-12)


def test_empty_sequence_rejected(identity_params):
    with pytest.raises(ValueError):
        attention_weights(np.array([1.0, 0.0]), [], identity_params)


# ---------------------------------------------------------------- context vector

def test_uniform_weights_identity_matrix_mean(identity_params):
    seq = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    ctx = context_vector([0.5, 0.5], seq, identity_params)
    assert np.allclose(ctx, [0.5, 0.5])


def test_one_hot_weight_selects_value(identity_params):
    seq = [np.array([1.0, 0.0]), np.array([0.3, 0.9])]
    ctx = context_vector([0.0, 1.0], seq, identity_params)
    assert np.allclose(ctx, [0.3, 0.9])


def test_context_vector_hand_arithmetic():
    params = CognitionParams.defaults(2, value_matrix=2.0 * np.eye(2))
    seq = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    ctx = context_vector([0.25, 0.75], seq, params)
    assert np.allclose(ctx, [0.5, 1.5])


def test_context_vector_length_mismatch(identity_params):
    with pytest.raises(ValueError):
        context_vector([1.0], [np.array([1.0, 0.0])] * 2, identity_params)


def test_context_vector_unnormalized_weights(identity_params):
    with pytest.raises(ValueError):
        context_vector([0.5, 0.6], [np.array([1.0, 0.0])] * 2, identity_params)


# ---------------------------------------------------------------- predictors

def test_identity_pipeline_passthrough(identity_params):
    ctx = np.array([0.7, -0.2])
    assert np.array_equal(predict_contextual(ctx, identity_params), ctx)


def test_tanh_of_bias():
    params = CognitionParams.defaults(2, activation="tanh", bias=np.array([10.0, 10.0]))
    out = predict_contextual(np.zeros(2), params)
    assert np.allclose(out, math.tanh(10.0), atol=1e-12)


def test_tanh_zero_map():
    params = CognitionParams.defaults(2, activation="tanh",
                                      predictor_matrix=np.zeros((2, 2)))
    assert np.array_equal(predict_contextual([3.0, -4.0], params), np.zeros(2))


def _recorded(times, positions, velocities):
    """(T, D) positions, (T, D) velocities and dt, as predict_geometric reads them."""
    return np.stack(positions), np.stack(velocities), times[1] - times[0]


def test_geometric_constant_velocity():
    dt = 0.01
    times = np.arange(0, 1.0 + dt / 2, dt)
    v = np.array([0.3, -0.2])
    positions, velocities, step = _recorded(times, [t * v for t in times], [v] * len(times))
    out = predict_geometric(positions, velocities, step, window=0.5)
    assert np.allclose(out, positions[-1], atol=1e-12)


def test_geometric_zero_velocity():
    dt = 0.1
    times = np.arange(0, 1.0 + dt / 2, dt)
    p = np.array([0.4, 0.4])
    recorded = _recorded(times, [p] * len(times), [np.zeros(2)] * len(times))
    assert np.allclose(predict_geometric(*recorded, window=0.3), p)


def test_geometric_linear_velocity_integral():
    # oracle: integral of (t, 0) over [0, 1] is 1/2; trapezoid exact on linear
    dt = 1e-3
    times = np.arange(0, 1.0 + dt / 2, dt)
    recorded = _recorded(times, [np.array([t**2 / 2, 0.0]) for t in times],
                         [np.array([t, 0.0]) for t in times])
    out = predict_geometric(*recorded, window=1.0)
    assert np.allclose(out, [0.5, 0.0], atol=1e-9)


def test_geometric_window_exceeds_history():
    dt = 0.1
    times = np.arange(0, 0.5 + dt / 2, dt)
    recorded = _recorded(times, [np.zeros(2)] * len(times), [np.zeros(2)] * len(times))
    with pytest.raises(ValueError):
        predict_geometric(*recorded, window=2.0)


def test_geometric_consistency_on_recorded_geodesic(sphere):
    dt = 1e-3
    traj = integrate_geodesic([1.0, 0.3], [0.2, 0.5], sphere, None,
                              horizon=1.0, dt=dt)
    out = predict_geometric(traj.positions, traj.velocities, traj.dt, window=0.5)
    assert np.linalg.norm(out - traj.positions[-1]) <= dt**2


# ---------------------------------------------------------------- perception and error

def test_perceive_internal_only():
    params = CognitionParams.defaults(2, input_blend=0.0)
    front = np.array([1.0, 2.0])
    assert np.array_equal(perceive(front, [9.0, 9.0], params), front)


def test_perceive_fully_external():
    params = CognitionParams.defaults(2, input_blend=1.0)
    assert np.array_equal(perceive([1.0, 2.0], [9.0, 8.0], params), np.array([9.0, 8.0]))


def test_perceive_no_input_ignores_blend():
    params = CognitionParams.defaults(2, input_blend=0.7)
    front = np.array([1.0, 2.0])
    assert np.array_equal(perceive(front, None, params), front)


def test_prediction_error_basics():
    assert np.array_equal(prediction_error([1.0, 2.0], [0.0, 0.0]), np.array([1.0, 2.0]))
    assert np.array_equal(prediction_error([0.5, 0.5], [0.5, 0.5]), np.zeros(2))
    a, b = np.array([0.3, -0.1]), np.array([1.0, 0.4])
    assert np.array_equal(prediction_error(a, b), -prediction_error(b, a))
    with pytest.raises(ValueError):
        prediction_error([1.0], [1.0, 2.0])


# ---------------------------------------------------------------- feedback forcing

def test_constant_history_zero_forcing():
    params = CognitionParams.defaults(1, kappa=2.0)
    hist = [(0.0, np.array([0.7])), (1.0, np.array([0.7])), (2.0, np.array([0.7]))]
    assert np.array_equal(feedback_forcing(hist, params, 1.0), np.zeros(1))


def test_zero_kappa_zero_forcing():
    params = CognitionParams.defaults(1, kappa=0.0)
    hist = [(0.0, np.array([0.0])), (1.0, np.array([5.0])), (2.0, np.array([1.0]))]
    assert np.array_equal(feedback_forcing(hist, params, 1.0), np.zeros(1))


def test_quadratic_history_second_difference():
    # oracle: second difference of t^2 sampled at unit spacing is exactly 2
    params = CognitionParams.defaults(1, kappa=1.0, feedback_gain=1.0)
    hist = [(0.0, np.array([0.0])), (1.0, np.array([1.0])), (2.0, np.array([4.0]))]
    assert np.array_equal(feedback_forcing(hist, params, 1.0), np.array([2.0]))


def test_underfull_history_warmup():
    params = CognitionParams.defaults(2, kappa=3.0)
    hist = [(0.0, np.array([1.0, 1.0]))]
    assert np.array_equal(feedback_forcing(hist, params, 1.0), np.zeros(2))


def test_non_uniform_timestamps_rejected():
    params = CognitionParams.defaults(1, kappa=1.0)
    hist = [(0.0, np.array([0.0])), (1.0, np.array([1.0])), (2.5, np.array([4.0]))]
    with pytest.raises(ValueError):
        feedback_forcing(hist, params, 1.0)


def test_history_eviction_and_ordering(random_field):
    # the cycle keeps the last three (time, feedback) pairs, oldest first
    source = ConformalFieldMetric(random_field)
    params = CognitionParams.defaults(2, feedback_gain=0.5, input_blend=1.0)
    state = MindState.initial(random_field, params, seed=1)
    errors = []
    for _ in range(5):
        state = cycle_step(state, random_field, source, [0.3, -0.2], 0.25)
        errors.append(state.last_error)
    assert [t for t, _ in state.history] == [0.5, 0.75, 1.0]
    for (_, psi), error in zip(state.history, errors[2:]):
        assert np.array_equal(psi, 0.5 * error)


# ---------------------------------------------------------------- full cycle

def test_cycle_unforced_equals_geodesic_step(random_field):
    source = ConformalFieldMetric(random_field)
    params = CognitionParams.defaults(2, kappa=0.0, input_blend=0.0)
    state = MindState.initial(random_field, params, seed=1,
                              start=[0.1, 0.2], velocity=[0.5, 0.3])
    reference = integrate_geodesic(state.position, state.velocity, source, None,
                                   horizon=0.1, dt=1e-3)
    for k in range(100):
        state = cycle_step(state, random_field, source, None, 1e-3)
        assert np.array_equal(state.position, reference.positions[k + 1])
        assert np.array_equal(state.velocity, reference.velocities[k + 1])


def test_cycle_zero_history_identical_to_unforced(random_field):
    # zero feedback gain makes the recorded feedback identically zero even
    # though kappa is positive and prediction errors are not
    source = ConformalFieldMetric(random_field)
    params = CognitionParams.defaults(2, kappa=2.0, feedback_gain=0.0, input_blend=0.5)
    state = MindState.initial(random_field, params, seed=1,
                              start=[0.1, 0.2], velocity=[0.5, 0.3])
    reference = integrate_geodesic(state.position, state.velocity, source, None,
                                   horizon=0.1, dt=1e-3)
    for k in range(100):
        state = cycle_step(state, random_field, source, [5.0, -3.0], 1e-3)
        assert np.array_equal(state.position, reference.positions[k + 1])


def test_cycle_forced_velocity_kick_one_dimensional():
    # 1-D flat field; history preloaded so the push completes (0, 1, 4),
    # giving constant forcing 2 across the step
    field = make_field([[0.0]], dim=1, epsilon=1.0)
    flat_field = make_field([], dim=1, epsilon=1.0)
    params = CognitionParams.defaults(
        1, kappa=1.0, feedback_gain=1.0, input_blend=1.0,
        predictor_matrix=np.zeros((1, 1)))
    source = FlatMetric(1)
    history = ((-2.0, np.array([0.0])), (-1.0, np.array([1.0])))
    state = MindState.initial(field, params, seed=0, start=[0.0], velocity=[0.0])
    state = MindState(position=state.position, velocity=state.velocity, params=params,
                      rng=state.rng, context=state.context, history=history,
                      recent_fronts=state.recent_fronts)
    # beta = 1 and W_phi = 0 make the error equal the input exactly
    new = cycle_step(state, flat_field, source, np.array([4.0]), dt=1.0)
    assert new.velocity[0] == pytest.approx(2.0, abs=1e-12)
    assert new.position[0] == pytest.approx(1.0, abs=1e-12)


def test_cycle_determinism_long_horizon(random_field):
    source = ConformalFieldMetric(random_field)
    covs = [np.diag([0.01, 0.01])] * 5
    noisy = make_field(random_field.means, bandwidth=0.8,
                       epsilon=0.5, covs=covs)
    params = CognitionParams.defaults(2, kappa=0.4, input_blend=0.2, feedback_gain=0.3)

    def run():
        state = MindState.initial(noisy, params, seed=77, start=[0.0, 0.0],
                                  velocity=[0.3, 0.1])
        out = []
        for _ in range(1000):
            state = cycle_step(state, noisy, source, None, 1e-2)
            out.append(state.position)
        return np.stack(out)

    assert np.array_equal(run(), run())


def test_warmup_first_two_cycles_unforced(random_field):
    # strong kappa and input, yet the first two steps match the free geodesic
    source = ConformalFieldMetric(random_field)
    params = CognitionParams.defaults(2, kappa=50.0, input_blend=1.0, feedback_gain=5.0)
    state = MindState.initial(random_field, params, seed=1,
                              start=[0.1, 0.2], velocity=[0.5, 0.3])
    reference = integrate_geodesic(state.position, state.velocity, source, None,
                                   horizon=0.02, dt=1e-2)
    for k in range(2):
        state = cycle_step(state, random_field, source, [3.0, 3.0], 1e-2)
        assert np.array_equal(state.position, reference.positions[k + 1])


def test_cycle_context_window_capacity(random_field):
    source = ConformalFieldMetric(random_field)
    params = CognitionParams.defaults(2, context_capacity=4)
    state = MindState.initial(random_field, params, seed=5)
    for _ in range(10):
        state = cycle_step(state, random_field, source, None, 1e-2)
    assert len(state.context) == 4
