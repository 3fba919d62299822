import copy
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geomind import (CognitionParams, ConformalFieldMetric, FlatMetric,
                     MindState, attention_weights,
                     context_vector, cycle_step, feedback_forcing,
                     demo_field, geodesic_step, integrate_geodesic, perceive,
                     predict_contextual, predict_geometric, prediction_error,
                     sample_embedding)

from geomind import cognition

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
    out = predict_geometric(positions[-51:], velocities[-51:], step)
    assert np.allclose(out, positions[-1], atol=1e-12)


def test_geometric_zero_velocity():
    dt = 0.1
    times = np.arange(0, 1.0 + dt / 2, dt)
    p = np.array([0.4, 0.4])
    recorded = _recorded(times, [p] * len(times), [np.zeros(2)] * len(times))
    assert np.allclose(predict_geometric(recorded[0][-4:], recorded[1][-4:], recorded[2]), p)


def test_geometric_linear_velocity_integral():
    # oracle: integral of (t, 0) over [0, 1] is 1/2; trapezoid exact on linear
    dt = 1e-3
    times = np.arange(0, 1.0 + dt / 2, dt)
    recorded = _recorded(times, [np.array([t**2 / 2, 0.0]) for t in times],
                         [np.array([t, 0.0]) for t in times])
    out = predict_geometric(*recorded)
    assert np.allclose(out, [0.5, 0.0], atol=1e-9)


def test_geometric_consistency_on_recorded_geodesic(sphere):
    dt = 1e-3
    traj = integrate_geodesic([1.0, 0.3], [0.2, 0.5], sphere, None,
                              steps=1000, dt=dt)
    out = predict_geometric(traj.positions[-501:], traj.velocities[-501:], traj.dt)
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
    hist = [np.array([0.7]), np.array([0.7]), np.array([0.7])]
    assert np.array_equal(feedback_forcing(hist, params, 1.0), np.zeros(1))


def test_zero_kappa_zero_forcing():
    params = CognitionParams.defaults(1, kappa=0.0)
    hist = [np.array([0.0]), np.array([5.0]), np.array([1.0])]
    assert np.array_equal(feedback_forcing(hist, params, 1.0), np.zeros(1))


def test_quadratic_history_second_difference():
    # oracle: second difference of t^2 sampled at unit spacing is exactly 2
    params = CognitionParams.defaults(1, kappa=1.0, feedback_gain=1.0)
    hist = [np.array([0.0]), np.array([1.0]), np.array([4.0])]
    assert np.array_equal(feedback_forcing(hist, params, 1.0), np.array([2.0]))


def test_underfull_history_warmup():
    params = CognitionParams.defaults(2, kappa=3.0)
    hist = [np.array([1.0, 1.0])]
    assert np.array_equal(feedback_forcing(hist, params, 1.0), np.zeros(2))


def test_history_eviction_and_ordering(random_field):
    # the cycle keeps the last three feedback vectors, oldest first
    source = ConformalFieldMetric(random_field)
    params = CognitionParams.defaults(2, feedback_gain=0.5, input_blend=1.0)
    state = MindState.initial(random_field, params, seed=1)
    errors = []
    for _ in range(5):
        state = cycle_step(state, random_field, source, [0.3, -0.2], 0.25)
        errors.append(state.last_error)
    assert len(state.history) == 3
    for psi, error in zip(state.history, errors[2:]):
        assert np.array_equal(psi, 0.5 * error)


def test_cycles_far_from_time_zero_force_with_the_kept_vectors():
    # at t = 1e10 the clock's steps of dt = 1.1 are not 1.1 apart in floats;
    # the history keeps no times, so the fourth cycle still runs, forced by
    # the second difference of the three vectors it keeps
    field, dt = demo_field(), 1.1
    source = ConformalFieldMetric(field)
    params = CognitionParams.defaults(2, kappa=0.05, input_blend=0.5)
    state = dataclasses.replace(MindState.initial(field, params, seed=3, velocity=[0.01, 0.0]),
                                time=1e10)
    for k in range(4):
        previous = state
        state = cycle_step(state, field, source, [0.4, -0.3], dt)
        assert state.time == previous.time + dt
    assert len(state.history) == 3
    psi0, psi1, psi2 = state.history
    forcing = params.kappa * (psi2 - 2.0 * psi1 + psi0) / dt**2
    assert np.any(forcing)
    x, v = geodesic_step(previous.position, previous.velocity, source, forcing, dt)
    assert np.array_equal(state.position, x) and np.array_equal(state.velocity, v)


# ---------------------------------------------------------------- full cycle

def test_cycle_unforced_equals_geodesic_step(random_field):
    source = ConformalFieldMetric(random_field)
    params = CognitionParams.defaults(2, kappa=0.0, input_blend=0.0)
    state = MindState.initial(random_field, params, seed=1,
                              start=[0.1, 0.2], velocity=[0.5, 0.3])
    reference = integrate_geodesic(state.position, state.velocity, source, None,
                                   steps=100, dt=1e-3)
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
                                   steps=100, dt=1e-3)
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
    history = (np.array([0.0]), np.array([1.0]))
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
                                   steps=2, dt=1e-2)
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


# ---------------------------------------------------------------- per-sample work, once

COVARIANCE_KINDS = ("zero", "diagonal", "full", "semidefinite")


def _covariance(draw, kind, d):
    scale = st.floats(0.0, 0.05)
    if kind == "zero":
        return np.zeros((d, d))
    if kind == "diagonal":
        return np.diag(draw(hnp.arrays(float, d, elements=scale)))
    # full: B B^T + a ridge; semidefinite: rank d - 1, so Cholesky may fail
    b = draw(hnp.arrays(float, (d, d if kind == "full" else d - 1), elements=st.floats(-0.2, 0.2)))
    cov = b @ b.T + (0.01 * np.eye(d) if kind == "full" else 0.0)
    return (cov + cov.T) / 2.0


@st.composite
def _cycle_cases(draw):
    d, n, steps = draw(st.integers(2, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 8))
    means = draw(hnp.arrays(float, (n, d), elements=st.floats(-1.0, 1.0)))
    kinds = draw(st.lists(st.sampled_from(COVARIANCE_KINDS), min_size=n, max_size=n))
    field = make_field(means, dim=d, bandwidth=0.8, epsilon=0.5,
                       covs=np.stack([_covariance(draw, kind, d) for kind in kinds]))
    matrix = hnp.arrays(float, (d, d), elements=st.floats(-1.5, 1.5))
    identity = draw(st.booleans())
    params = CognitionParams(
        value_matrix=np.eye(d) if identity else draw(matrix),
        predictor_matrix=np.eye(d) if identity else draw(matrix),
        bias=draw(hnp.arrays(float, d, elements=st.floats(-0.5, 0.5))),
        activation=draw(st.sampled_from(("identity", "tanh"))),
        input_blend=0.3, feedback_gain=0.2, kappa=0.5,
        context_capacity=draw(st.one_of(st.integers(1, 5), st.just(steps + 3))))
    inputs = draw(st.lists(st.one_of(st.none(), hnp.arrays(float, d, elements=st.floats(-1, 1))),
                           min_size=steps, max_size=steps))
    return field, params, inputs, draw(st.integers(0, 2**32 - 1))


def _bits(a):
    return np.asarray(a, dtype=float).tobytes()


@settings(max_examples=60, deadline=None)
@given(_cycle_cases())
def test_cycle_prediction_context_and_draws_match_the_public_functions(case):
    field, p, inputs, seed = case
    source = ConformalFieldMetric(field)
    state = MindState.initial(field, p, seed=seed, start=np.zeros(field.dimension))
    predictions = []

    def recording(context, params):
        predictions.append(predict_contextual(context, params))
        return predictions[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cognition, "predict_contextual", recording)
        for input_vec in inputs:
            ctx = [row.copy() for row in state.context]
            expected = predict_contextual(
                context_vector(attention_weights(ctx[-1], ctx, p), ctx, p), p)
            rng = copy.deepcopy(state.rng)
            state = cycle_step(state, field, source, input_vec, 0.01)

            assert _bits(predictions[-1]) == _bits(expected)
            row = field.rows([state.last_activation])[0]
            draw = sample_embedding(field.means[row], field.covariances[row], rng)
            assert _bits(state.context[-1]) == _bits(draw)
            assert state.rng.bit_generator.state == rng.bit_generator.state
            kept = ctx[max(0, len(ctx) + 1 - p.context_capacity):]
            assert _bits(state.context[:-1]) == _bits(np.reshape(kept, (-1, field.dimension)))
            assert len(state.context) == len(state.values) <= p.context_capacity
            for sample, value in zip(state.context, state.values):
                assert _bits(value) == _bits(p.value_matrix @ sample)


@st.composite
def _sampling_cases(draw):
    d = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(COVARIANCE_KINDS))
    mean = draw(hnp.arrays(float, d, elements=st.floats(-2.0, 2.0)))
    field = make_field([mean], dim=d, covs=[_covariance(draw, kind, d)])
    return field, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=100, deadline=None)
@given(_sampling_cases())
def test_draws_with_the_kept_root_match_fresh_draws(case):
    field, seed = case
    mean, cov = field.means[0], field.covariances[0]
    kept, fresh = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(3):  # the first draw computes the root, the others reuse it
        a = sample_embedding(mean, cov, kept, field.sampling_root(0))
        b = sample_embedding(mean, cov, fresh)
        assert _bits(a) == _bits(b)
        assert kept.bit_generator.state == fresh.bit_generator.state
    # exactly D normals per draw
    assert kept.bit_generator.state == _advanced(seed, 3 * field.dimension)


def _advanced(seed, normals):
    rng = np.random.default_rng(seed)
    rng.standard_normal(normals)
    return rng.bit_generator.state


def test_sampling_root_is_kept_read_only_and_shared_by_a_moved_copy():
    field = make_field([[0.0, 0.0], [1.0, 0.0]], covs=[np.diag([0.04, 0.01]),
                                                       [[0.5, 0.1], [0.1, 0.2]]])
    diagonal, full = field.sampling_root(0), field.sampling_root(1)
    assert np.array_equal(diagonal, [0.2, 0.1])
    assert np.array_equal(full, np.linalg.cholesky(field.covariances[1]))
    assert field.sampling_root(1) is full and not full.flags.writeable
    moved = field._replace(means=field.means + 1.0)
    assert moved.sampling_root(1) is full
    assert make_field([[0.0, 0.0]]).sampling_root(0) is None


def test_hand_built_state_derives_value_rows_from_a_tuple_context(random_field):
    value = np.array([[0.5, -1.0], [2.0, 0.25]])
    params = CognitionParams.defaults(2, value_matrix=value, activation="tanh")
    context = (np.array([0.1, 0.2]), np.array([-0.3, 0.4]))
    state = MindState(position=np.zeros(2), velocity=np.array([0.2, 0.1]), params=params,
                      rng=np.random.default_rng(0), context=context)
    assert state.context.shape == state.values.shape == (2, 2)
    for sample, row in zip(context, state.values):
        assert _bits(row) == _bits(value @ sample)
    new = cycle_step(state, random_field, ConformalFieldMetric(random_field), None, 0.01)
    expected = predict_contextual(
        context_vector(attention_weights(context[-1], context, params), context, params), params)
    assert _bits(new.last_error) == _bits(np.zeros(2) - expected)
    assert len(new.context) == 3


def test_hand_built_state_refuses_a_context_of_another_dimension():
    with pytest.raises(ValueError, match="dimension 2"):
        MindState(position=np.zeros(2), velocity=np.zeros(2),
                  params=CognitionParams.defaults(2), rng=np.random.default_rng(0),
                  context=(np.zeros(3),))
