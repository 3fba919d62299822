import logging
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import geomind.mind

from geomind import (CognitionParams, ConfigError, ConformalFieldMetric,
                     ShootingOptions, SphereMetric, ThoughtFlow,
                     Trajectory, analyze_field, curvature_at,
                     demo_field, density_at, feature_vector, geodesic_between,
                     integrate_geodesic, intrinsic_dimension, learn_update,
                     manipulate_feature, pca_projection, predict_geometric,
                     run_learning, run_thought_flow, score_flow, select_conscious)
from geomind.mind import (CURVATURE_PERCENTILE, GRID_BUDGET, GRID_PADDING,
                          POINTS_PER_AXIS, SEGMENT_SAMPLES, _percentile)

from conftest import make_field


def _flow_with_errors(errors, seed=0):
    traj = Trajectory(np.zeros((2, 2)), np.zeros((2, 2)), np.array([0.0, 0.1]), 0.1)
    flow = ThoughtFlow(trajectory=traj,
                       errors=[np.asarray(e, dtype=float) for e in errors],
                       score=0.0, seed=seed)
    return ThoughtFlow(flow.trajectory, flow.errors, score_flow(flow), seed)


# ---------------------------------------------------------------- scoring

def test_zero_error_scores_zero():
    assert _flow_with_errors([[0.0, 0.0]] * 3).score == 0.0


def test_unit_error_scores_minus_one():
    assert _flow_with_errors([[1.0, 0.0]] * 4).score == -1.0


def test_score_mean_of_squared_norms():
    # oracle: norms {0, 2} -> squared {0, 4} -> mean 2
    assert _flow_with_errors([[0.0, 0.0], [2.0, 0.0]]).score == -2.0


def test_empty_flow_rejected():
    traj = Trajectory(np.zeros((1, 2)), np.zeros((1, 2)), np.array([0.0]), 0.1)
    flow = ThoughtFlow(traj, [], 0.0, 0)
    with pytest.raises(ValueError):
        score_flow(flow)


# ---------------------------------------------------------------- selection

def test_single_flow_above_threshold():
    sel = select_conscious([_flow_with_errors([[0.5, 0.5]])], threshold=-1.0)
    assert sel.winner == 0


def test_all_below_threshold_no_winner():
    flows = [_flow_with_errors([[2.0, 0.0]]), _flow_with_errors([[3.0, 0.0]])]
    sel = select_conscious(flows, threshold=0.5)
    assert sel.winner is None
    assert sel.scores == [-4.0, -9.0]


def test_tie_breaks_to_lowest_index():
    flows = [_flow_with_errors([[1.0, 0.0]]), _flow_with_errors([[1.0, 0.0]])]
    assert select_conscious(flows, threshold=-10.0).winner == 0


def test_winner_invariant_under_monotone_transforms():
    # brute-force oracle: argmax and strict threshold comparison commute
    # with any strictly increasing map applied to scores and threshold alike
    rng = np.random.default_rng(21)
    for _ in range(100):
        scores = rng.uniform(-5, 0, size=rng.integers(2, 8))
        theta = rng.uniform(-5, 0)
        flows = [_flow_with_errors([[np.sqrt(-s), 0.0]]) for s in scores]
        base = select_conscious(flows, theta)
        a, b, c = rng.uniform(0.1, 2.0, 3)

        def monotone(x):
            return a * x + b * np.tanh(x) + c * x**3

        mapped = [ThoughtFlow(f.trajectory, f.errors, monotone(f.score), f.seed)
                  for f in flows]
        assert select_conscious(mapped, monotone(theta)).winner == base.winner


# ---------------------------------------------------------------- thought flows

def test_empty_field_flow_is_straight_line(empty_field, identity_params):
    source = ConformalFieldMetric(empty_field)
    flow = run_thought_flow(empty_field, source, identity_params, n_steps=50,
                            dt=0.01, seed=3, start=[0.0, 0.0], velocity=[1.0, 0.0])
    assert flow.trajectory.token_ids is None
    final = flow.trajectory.positions[-1]
    assert np.allclose(final, [0.5, 0.0], atol=1e-9)
    assert flow.score == 0.0


def test_flow_activations_match_nearest_labels(random_field):
    # brute-force oracle: integrate the same free geodesic and label each
    # sample with the nearest token mean
    source = ConformalFieldMetric(random_field)
    params = CognitionParams.defaults(2, kappa=0.0, input_blend=0.0)
    flow = run_thought_flow(random_field, source, params, n_steps=80, dt=0.01,
                            seed=1, start=[0.0, 0.0], velocity=[0.6, 0.2])
    reference = integrate_geodesic(flow.trajectory.positions[0], flow.trajectory.velocities[0],
                                   source, None, steps=80, dt=0.01)
    expected = [int(random_field.ids[random_field.nearest(x)]) for x in reference.positions]
    assert flow.trajectory.token_ids.dtype == np.int64
    assert flow.trajectory.token_ids.tolist() == expected


def test_flow_repeatable_for_equal_seed(random_field):
    source = ConformalFieldMetric(random_field)
    params = CognitionParams.defaults(2, kappa=0.7, input_blend=0.4, feedback_gain=0.2)
    kwargs = dict(inputs={3: np.array([0.5, 0.5])}, n_steps=60, dt=0.01, seed=9,
                  start=[0.1, 0.1], velocity=[0.2, 0.0])
    a = run_thought_flow(random_field, source, params, **kwargs)
    b = run_thought_flow(random_field, source, params, **kwargs)
    assert np.array_equal(a.trajectory.positions, b.trajectory.positions)
    assert a.score == b.score
    assert np.array_equal(a.trajectory.token_ids, b.trajectory.token_ids)


def test_flow_sample_count(random_field, identity_params):
    source = ConformalFieldMetric(random_field)
    flow = run_thought_flow(random_field, source, identity_params, n_steps=100,
                            dt=0.01, seed=0)
    assert len(flow.trajectory) == 101
    assert len(flow.errors) == 100
    assert flow.stop_reason is None


def test_geometric_predictor_in_a_flow_reads_the_last_window_of_fronts(random_field):
    # a window of 0.05 at dt 0.01 spans 5 steps, so 6 fronts: until cycle 5
    # has them, the prediction is the perceived front and the error zero
    source = ConformalFieldMetric(random_field)
    params = CognitionParams.defaults(2, kappa=0.5, predictor="geometric", geometric_window=0.05)
    flow = run_thought_flow(random_field, source, params, n_steps=12, dt=0.01, seed=4,
                            start=[0.0, 0.0], velocity=[0.6, 0.2])
    traj = flow.trajectory
    assert flow.stop_reason is None and len(flow.errors) == 12
    for k, error in enumerate(flow.errors):
        # without input the perceived point is the front before cycle k
        expected = np.zeros(2) if k < 5 else traj.positions[k] - predict_geometric(
            traj.positions[k - 5:k + 1], traj.velocities[k - 5:k + 1], 0.01)
        assert error.tobytes() == expected.tobytes(), k
    assert all(np.any(error) for error in flow.errors[5:])


def test_diverging_flow_stops_at_first_non_finite_cycle():
    field = demo_field()
    source = ConformalFieldMetric(field)
    params = CognitionParams.defaults(2, kappa=1e6, input_blend=0.3, feedback_gain=5.0)
    kwargs = dict(n_steps=300, dt=0.01, seed=1, start=[0.0, 0.0], velocity=[0.3, 0.2])
    flow = run_thought_flow(field, source, params, **kwargs)
    assert flow.stop_reason == "non-finite"
    traj = flow.trajectory
    assert traj.truncated
    assert 1 < len(traj) < 301
    assert len(flow.errors) == len(traj) - 1
    assert np.isfinite(traj.positions).all() and np.isfinite(traj.velocities).all()
    assert np.isfinite(flow.errors).all()
    # the recorded cycles are the untruncated run's own
    shorter = run_thought_flow(field, source, params, **dict(kwargs, n_steps=len(traj) - 1))
    assert shorter.stop_reason is None
    assert np.array_equal(shorter.trajectory.positions, traj.positions)


def test_truncated_flow_logs_its_stop_reason_and_cycles(caplog):
    field = demo_field()
    params = CognitionParams.defaults(2, kappa=1e6, input_blend=0.3, feedback_gain=5.0)
    with caplog.at_level(logging.INFO, logger="geomind.mind"):
        flow = run_thought_flow(field, ConformalFieldMetric(field), params, n_steps=300,
                                dt=0.01, seed=1, start=[0.0, 0.0], velocity=[0.3, 0.2])
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert flow.stop_reason == "non-finite"
    assert lines == [f"thought flow (seed 1): score {flow.score:.17g}, stop reason non-finite, "
                     f"{len(flow.errors)} cycles"]


# ---------------------------------------------------------------- learning

def test_learn_zero_rate_keeps_field(one_token_field):
    updated = learn_update(one_token_field, [5.0, 5.0], rate=0.0)
    assert np.array_equal(updated.means[0], one_token_field.means[0])


def test_learn_full_rate_jumps_to_target(one_token_field):
    updated = learn_update(one_token_field, [5.0, -1.0], rate=1.0)
    assert np.array_equal(updated.means[0], np.array([5.0, -1.0]))


def test_learn_geometric_contraction(one_token_field):
    # oracle: two half-rate pulls leave (1 - eta)^2 = 1/4 of the distance
    target = np.array([2.0, 0.0])
    d0 = np.linalg.norm(one_token_field.means[0] - target)
    field = learn_update(one_token_field, target, rate=0.5)
    field = learn_update(field, target, rate=0.5)
    d2 = np.linalg.norm(field.means[0] - target)
    assert d2 == pytest.approx(0.25 * d0, abs=1e-12)


def test_learn_moves_only_closest_token():
    field = make_field([[0.0, 0.0], [10.0, 0.0]])
    updated = learn_update(field, [1.0, 0.0], rate=0.5)
    assert np.array_equal(updated.means[0], np.array([0.5, 0.0]))
    assert np.array_equal(updated.means[1], np.array([10.0, 0.0]))
    assert np.array_equal(updated.ids, field.ids)
    assert len(updated) == len(field)


@pytest.mark.parametrize("rate", [-0.1, 1.5, np.nan, np.inf])
def test_learn_refuses_a_rate_outside_0_1(one_token_field, rate):
    with pytest.raises(ValueError, match=r"learning rate must lie in \[0, 1\]"):
        learn_update(one_token_field, [5.0, 5.0], rate)


def test_learn_empty_field_rejected(empty_field):
    with pytest.raises(ValueError):
        learn_update(empty_field, [0.0, 0.0], rate=0.5)


@pytest.mark.parametrize("perceived", [[np.nan, 0.0], [0.0, np.inf], [-np.inf, 1.0]],
                         ids=["nan", "inf", "-inf"])
def test_learn_refuses_non_finite_perceived_point(perceived):
    # nearest() maps a non-finite point to row 0, which would take a NaN mean
    field = demo_field()
    with pytest.raises(ValueError, match="perceived must be finite"):
        learn_update(field, perceived, rate=0.5)


def test_learn_shifts_derived_metric(one_token_field):
    probe = np.array([2.0, 0.0])
    before = ConformalFieldMetric(one_token_field).conformal_factor(probe)
    updated = learn_update(one_token_field, probe, rate=1.0)
    after = ConformalFieldMetric(updated).conformal_factor(probe)
    assert after < before


LEARNING_PARAMS = CognitionParams.defaults(2, kappa=1.0, input_blend=0.5, feedback_gain=1.0)


def test_learning_logs_one_info_line_per_cycle(caplog):
    with caplog.at_level(logging.INFO, logger="geomind.mind"):
        snapshots, errors = run_learning(demo_field(), LEARNING_PARAMS, [0.8, 0.4],
                                         cycles=6, dt=0.1, seed=11, rate=0.2,
                                         start=[-0.2, -0.1], velocity=[0.0, 0.0])
    lines = [r.getMessage() for r in caplog.records if r.name == "geomind.mind"]
    assert len(lines) == len(errors) == 6
    for k, (line, before, after) in enumerate(zip(lines, snapshots, snapshots[1:]), start=1):
        match = re.fullmatch(r"learning cycle (\d+): error norm (\S+), moved token (\d+)", line)
        assert match, line
        assert int(match[1]) == k and float(match[2]) == errors[k - 1]
        moved = before.ids[np.any(before.means != after.means, axis=1)]
        assert moved.tolist() == [int(match[3])]


def test_learning_loop_converges_on_demo_field():
    field = demo_field()
    params = CognitionParams.defaults(2, kappa=1.0, input_blend=0.5, feedback_gain=1.0)
    _, errors = run_learning(field, params, [0.8, 0.4], cycles=50, dt=0.1,
                             seed=11, rate=0.2, start=[-0.2, -0.1],
                             velocity=[0.0, 0.0])
    early = float(np.mean(errors[:5]))
    late = float(np.mean(errors[45:50]))
    assert late <= 0.5 * early


# ---------------------------------------------------------------- features

def test_feature_single_token(one_token_field):
    assert np.array_equal(feature_vector(one_token_field, [1]),
                          one_token_field.means[0])


def test_feature_midpoint():
    field = make_field([[0.0, 0.0], [2.0, 2.0]], weights=[0.5, 0.5])
    assert np.allclose(feature_vector(field, [1, 2]), [1.0, 1.0])


def test_feature_hand_arithmetic():
    field = make_field([[1.0, 0.0], [0.0, 2.0]], weights=[2.0, 1.0])
    assert np.allclose(feature_vector(field, [1, 2]), [2.0, 2.0])


def test_feature_matches_token_by_token_sum():
    rng = np.random.default_rng(3)
    field = make_field(list(rng.normal(size=(30, 3))), dim=3,
                       weights=list(rng.uniform(0.5, 2.0, 30)),
                       ids=[int(i) for i in rng.permutation(30) + 10])
    ids = [int(i) for i in rng.choice(field.ids, size=12)]
    total = np.zeros(3)
    for token_id in ids:
        (row,) = np.flatnonzero(field.ids == token_id)
        total = total + field.weights[row] * field.means[row]
    assert np.array_equal(feature_vector(field, ids), total)


def test_feature_unknown_id(one_token_field):
    with pytest.raises(ValueError):
        feature_vector(one_token_field, [42])
    with pytest.raises(ValueError):
        feature_vector(one_token_field, [])


@pytest.mark.parametrize("bad", [2.9, True, "2", np.float64(2.0)],
                         ids=["float", "bool", "str", "numpy-float"])
def test_token_ids_must_be_integers(bad):
    # each of these once selected the token with id int(bad)
    field = make_field([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    for select in (field.rows, lambda ids: feature_vector(field, ids),
                   lambda ids: manipulate_feature(field, ids, 2.0)):
        with pytest.raises(ValueError, match=re.escape(f"integer, got {bad!r}")):
            select([1, bad])


def test_token_ids_of_any_int_type_select_rows():
    field = make_field([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    assert field.rows([np.int32(3), np.uint64(1), 2]).tolist() == [2, 0, 1]
    with pytest.raises(ValueError, match=r"unknown token id\(s\): \[1180591620717411303424\]"):
        field.rows([2**70])


def test_manipulate_identity_scale(one_token_field):
    out = manipulate_feature(one_token_field, [1], 1.0)
    assert out.weights[0] == one_token_field.weights[0]


def test_manipulate_zero_scale_kills_density(one_token_field):
    from geomind import density_at
    means, weights = one_token_field.means.copy(), one_token_field.weights.copy()
    out = manipulate_feature(one_token_field, [1], 0.0)
    assert density_at(out, [0.0, 0.0]) == 0.0
    # input untouched, by this and by a learning step
    learn_update(one_token_field, [3.0, 4.0], rate=0.5)
    assert one_token_field.weights[0] == 1.0
    assert np.array_equal(one_token_field.means, means)
    assert np.array_equal(one_token_field.weights, weights)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -1.0], ids=["nan", "inf", "negative"])
def test_manipulate_refuses_scale_that_is_not_finite_and_non_negative(scale):
    field = demo_field()
    with pytest.raises(ValueError, match="scale must be non-negative and finite"):
        manipulate_feature(field, [1], scale)
    assert np.array_equal(field.weights, np.ones(3))


@pytest.mark.parametrize("build, rule", [
    (lambda: CognitionParams.defaults(2, kappa=np.nan), "kappa"),
    (lambda: CognitionParams.defaults(2, kappa=np.inf), "kappa"),
    (lambda: CognitionParams.defaults(2, attention_temperature=np.nan), "attention_temperature"),
    (lambda: CognitionParams.defaults(2, attention_temperature=np.inf), "attention_temperature"),
    (lambda: CognitionParams.defaults(2, geometric_window=np.nan), "geometric_window"),
    (lambda: CognitionParams.defaults(2, feedback_gain=np.nan), "feedback_gain"),
    (lambda: CognitionParams.defaults(2, feedback_gain=-np.inf), "feedback_gain"),
    (lambda: CognitionParams.defaults(2, input_blend=np.nan), "input_blend"),
], ids=["kappa-nan", "kappa-inf", "temperature-nan", "temperature-inf", "window-nan",
        "gain-nan", "gain-inf", "blend-nan"])
def test_parameters_refuse_nan_and_non_finite_values(build, rule):
    # every check is written so that NaN fails it
    with pytest.raises(ValueError, match=rule):
        build()


def test_manipulate_inverse_restores_weights():
    field = make_field([[0.0, 0.0], [1.0, 1.0]], weights=[0.7, 1.3])
    for scale in (10.0, 0.3, 2.5):
        roundtrip = manipulate_feature(manipulate_feature(field, [1, 2], scale),
                                       [1, 2], 1.0 / scale)
        assert np.max(np.abs(roundtrip.weights - field.weights)) <= 1e-12


def test_manipulate_bends_geodesic_toward_token():
    # brute-force before/after comparison of the connecting path
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

    devs = {}
    lams = {}
    for weight in (1.0, 10.0):
        field = build(weight)
        source = ConformalFieldMetric(field)
        lams[weight] = source.conformal_factor(token)
        traj = geodesic_between(a, b, source, ShootingOptions(max_iters=100, steps=300))
        devs[weight] = max_deviation_toward(traj)
    assert lams[10.0] < lams[1.0]
    assert devs[10.0] > devs[1.0]


# ---------------------------------------------------------------- field analysis

def test_analyze_empty_field(empty_field):
    report = analyze_field(empty_field, ConformalFieldMetric(empty_field))
    assert report.components == []
    assert report.high_curvature.shape == (0, 2)
    assert np.all(np.abs(report.scalars) < 1e-10)
    assert report.intrinsic_dimension == 1


def test_analyze_with_every_grid_point_outside_the_chart_returns_empty_arrays():
    # the grid spans theta in [4.3, 4.7], all beyond the sphere chart's pi
    field = make_field([[4.5, 0.0], [4.5, 0.2]], bandwidth=0.1)
    report = analyze_field(field, SphereMetric())
    assert report.points.shape == (0, 2) and report.scalars.shape == (0,)
    assert report.high_curvature.shape == (0, 2)
    assert report.percentile_cut == 0.0


def _survey_field(seed, scale=1.0):
    """16 tokens in 4 fixed clusters at D=3 with seeded offsets and weights,
    laid out like the benchmark's survey workload, every mean times scale."""
    rng = np.random.default_rng([seed, 3])
    centers = np.array([[-1.5, 0.0, 0.0], [1.5, 0.0, 0.0], [0.0, 1.5, 0.0], [0.0, 0.0, 1.5]])
    means = scale * (centers[np.arange(16) % 4] + rng.normal(0.0, 0.05, size=(16, 3)))
    weights = list(rng.uniform(0.8, 1.2, size=16))
    return make_field(list(means), dim=3, bandwidth=1.0, epsilon=0.5, weights=weights,
                      covs=[np.zeros((3, 3))] * 16)


def _per_point_report(field, source):
    """analyze_field's curvature flags and components from one curvature_at
    and one density_at call per point."""
    lo = field.means.min(axis=0) - GRID_PADDING * field.bandwidth
    hi = field.means.max(axis=0) + GRID_PADDING * field.bandwidth
    axes = [np.linspace(lo[k], hi[k], POINTS_PER_AXIS) for k in range(field.dimension)]
    points = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    scalars = np.array([curvature_at(source, p).scalar for p in points])
    cut = np.percentile(np.abs(scalars), CURVATURE_PERCENTILE)
    high = points[np.abs(scalars) > cut]
    return points, scalars, high, _all_pairs_components(field)


def _all_pairs_components(field):
    """analyze_field's components from every pair's segment, tested by one
    density_at call per sample."""
    ids, means = field.ids.tolist(), field.means
    edges = [(ids[i], ids[j]) for i in range(len(ids)) for j in range(i + 1, len(ids))
             if min(density_at(field, means[i] + t * (means[j] - means[i]))
                    for t in np.linspace(0.0, 1.0, SEGMENT_SAMPLES)) >= field.epsilon]
    components = {i: {i} for i in ids}
    for i, j in edges:
        merged = components[i] | components[j]
        for k in merged:
            components[k] = merged
    unique = {frozenset(c) for c in components.values()}
    return sorted(sorted(c) for c in unique)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_analyze_matches_per_point_path_on_survey_fields(seed):
    field = _survey_field(seed)
    source = ConformalFieldMetric(field)
    report = analyze_field(field, source)
    points, scalars, high, components = _per_point_report(field, source)
    assert np.array_equal(report.points, points)
    assert np.allclose(report.scalars, scalars, rtol=1e-5, atol=1e-7 * np.abs(scalars).max())
    assert np.array_equal(report.high_curvature, high)
    assert report.components == components


def test_analyze_refuses_grid_over_budget_before_allocating():
    field = make_field([[0.0] * 7], dim=7, covs=[np.zeros((7, 7))])
    start = time.perf_counter()
    with pytest.raises(ConfigError, match=f"points_per_axis 8 at D=7 .* budget of {GRID_BUDGET}"):
        analyze_field(field, ConformalFieldMetric(field))
    assert time.perf_counter() - start < 1.0
    assert GRID_BUDGET == 8**6


def _two_cluster_field(bridge=False, epsilon=1e-100):
    offsets = [(0, 0), (0.4, 0), (0, 0.4), (-0.4, 0), (0, -0.4)]
    means = [np.array(o) for o in offsets]
    means += [np.array([50.0, 0.0]) + np.array(o) for o in offsets]
    ids = list(range(10))
    weights = [1.0] * 10
    if bridge:
        means.append(np.array([25.0, 0.0]))
        ids.append(99)
        weights.append(5.0)
    return make_field(means, bandwidth=1.0, epsilon=epsilon, ids=ids, weights=weights)


def test_two_clusters_two_components():
    field = _two_cluster_field()
    report = analyze_field(field, ConformalFieldMetric(field))
    assert report.components == [list(range(5)), list(range(5, 10))]


def test_adjacent_ids_join_one_component():
    # tokens next to each other in id order are a pair of the scan too: ids 1
    # and 2 lie 0.3 apart, and 3 is far from both
    field = make_field([[0.0, 0.0], [0.3, 0.0], [9.0, 0.0]])
    assert analyze_field(field, ConformalFieldMetric(field)).components == [[1, 2], [3]]


def test_a_join_links_the_roots_of_both_components():
    # a 3-4-5 triangle: the segment from 1 to 2 dips below epsilon and the
    # sides through 3 stay above it, so (1, 3) puts 3 under 1, and (2, 3) must
    # join 2 with the root of that component, not with 3 alone
    field = make_field([[0.0, 0.0], [4.0, 0.0], [2.0, 1.5]], epsilon=0.75)
    assert analyze_field(field, ConformalFieldMetric(field)).components == [[1, 2, 3]]


def test_bridge_token_joins_components():
    field = _two_cluster_field(bridge=True)
    report = analyze_field(field, ConformalFieldMetric(field))
    assert len(report.components) == 1
    assert report.components[0] == list(range(10)) + [99]


@st.composite
def _split_fields(draw):
    """2 to 5 clusters of 1 to 4 tokens, their centres 10 to 20 bandwidths
    apart on a line in D = 2 or 3, under random ids, and optionally a heavy
    bridge token between the first two clusters; with it, the field's epsilon
    is tiny, so that the bridge's tails can join them."""
    d, clusters = draw(st.sampled_from([2, 3])), draw(st.integers(2, 5))
    bridge = draw(st.booleans())
    jitter = st.floats(-0.4, 0.4)
    centres = np.cumsum([0.0] + [draw(st.floats(10.0, 20.0)) for _ in range(clusters - 1)])
    means, weights = [], []
    for centre in centres:
        for _ in range(draw(st.integers(1, 4))):
            means.append([centre + draw(jitter)] + [draw(jitter) for _ in range(d - 1)])
            weights.append(draw(st.floats(0.5, 2.0)))
    if bridge:
        means.append([(centres[0] + centres[1]) / 2] + [0.0] * (d - 1))
        weights.append(draw(st.floats(1.0, 5.0)))
    ids = draw(st.permutations(range(100, 100 + len(means))))
    epsilon = draw(st.floats(1e-60, 1e-30)) if bridge else draw(st.floats(1e-3, 0.05))
    return make_field(means, dim=d, epsilon=epsilon, weights=weights, ids=ids), clusters, bridge


@settings(max_examples=40, deadline=None)
@given(_split_fields())
def test_components_of_split_fields_equal_the_all_pairs_reference(case):
    field, clusters, bridge = case
    components = analyze_field(field, ConformalFieldMetric(field)).components
    assert components == _all_pairs_components(field)
    if not bridge:
        assert len(components) == clusters


@pytest.mark.parametrize("field", [_survey_field(1), _survey_field(2),
                                   make_field(np.linspace(0.0, 2.0, 9)[:, None], dim=1),
                                   make_field(np.random.default_rng(4).uniform(0.0, 1.0, (70, 2)))],
                         ids=["survey1", "survey2", "line9", "square70"])
def test_one_component_field_tests_one_segment_per_join(field, monkeypatch):
    # n - 1 segments of SEGMENT_SAMPLES points, where every pair's n (n - 1) / 2
    # were tested before: no segment is tested between tokens the edges found
    # so far already join
    rows = []
    densities = geomind.mind.densities
    monkeypatch.setattr(geomind.mind, "densities",
                        lambda f, points: rows.append(np.size(points) // f.dimension)
                        or densities(f, points))
    report = analyze_field(field, ConformalFieldMetric(field))
    assert report.components == [sorted(field.ids.tolist())]
    assert sum(rows) == (len(field) - 1) * SEGMENT_SAMPLES


def test_split_field_tests_108_segments(monkeypatch):
    # the survey field with every mean times 4 (tools/tree_drift.py's
    # SPLIT_SCALE) falls apart into its four clusters; pairs in different
    # components are each tested, so 108 of its 120 segments are
    rows = []
    densities = geomind.mind.densities
    monkeypatch.setattr(geomind.mind, "densities",
                        lambda f, points: rows.append(np.size(points) // f.dimension)
                        or densities(f, points))
    field = _survey_field(1, scale=4.0)
    assert len(analyze_field(field, ConformalFieldMetric(field)).components) == 4
    assert sum(rows) == 108 * SEGMENT_SAMPLES


def test_component_count_monotone_in_rho_min():
    # the connectivity threshold rho_min is the field's epsilon
    counts = []
    for epsilon in (1e-2, 1e-20, 1e-40, 1e-100):
        field = _two_cluster_field(bridge=True, epsilon=epsilon)
        counts.append(len(analyze_field(field, ConformalFieldMetric(field)).components))
    assert counts == sorted(counts, reverse=True)


def test_line_in_r5_has_intrinsic_dimension_one():
    rng = np.random.default_rng(1)
    direction = rng.standard_normal(5)
    direction /= np.linalg.norm(direction)
    field = make_field([float(i) * direction for i in range(8)], dim=5,
                       covs=[np.zeros((5, 5))] * 8)
    assert intrinsic_dimension(field) == 1


def test_planar_cloud_in_r4_has_dimension_two():
    rng = np.random.default_rng(2)
    basis = np.linalg.qr(rng.standard_normal((4, 2)))[0]
    means = [basis @ rng.uniform(-2, 2, 2) for _ in range(12)]
    field = make_field(means, dim=4, covs=[np.zeros((4, 4))] * 12)
    assert intrinsic_dimension(field) == 2


def test_high_curvature_cut_is_percentile_based(random_field):
    report = analyze_field(random_field, ConformalFieldMetric(random_field))
    n = len(report.points)
    assert 0 < len(report.high_curvature) <= int(np.ceil(0.1 * n)) + 1


def _percentile_cases():
    """Arrays of every size from 1 up, with ties, zeros of one sign, +-inf
    and NaN, and random magnitudes from 1e-300 to 1e300."""
    rng = np.random.default_rng(7)
    special = np.array([0.0, 0.0, 1.0, 1.0, 2.5, np.inf, -np.inf, np.nan, 1e308, 5e-324])
    cases = [np.array([v]) for v in special] + [-np.array([0.0, 0.0, 1.0])]
    for k in range(2000):
        n = 1 + k % 23
        cases.append(rng.choice(special[:-1 if k % 3 else None], n))
        cases.append(rng.integers(0, 4, n).astype(float))
        cases.append(np.abs(rng.standard_normal(n)) * 10.0 ** rng.integers(-300, 300, n))
    return cases


def test_percentile_is_numpys_bitwise():
    # np.sort and np.percentile's partition may order +0.0 and -0.0 apart, so
    # each array's zeros share one sign, as the |scalar| of analyze do
    for values in _percentile_cases():
        for q in (CURVATURE_PERCENTILE, 0.0, 37.5, 50.0, 100.0):
            with np.errstate(invalid="ignore"):
                expected = np.percentile(values, q)
            got = _percentile(values, q)
            assert type(got) is float and repr(got) == repr(float(expected)), (values, q)
            assert np.signbit(got) == np.signbit(expected), (values, q)


def test_pca_projection_shape(random_field):
    proj = pca_projection(random_field)
    assert set(proj) == set(random_field.ids.tolist())
    assert all(v.shape == (2,) for v in proj.values())


# ---------------------------------------------------------------- nearest token

def test_nearest_single_token(one_token_field):
    assert one_token_field.nearest([9.0, 9.0]) == 0


def test_nearest_tie_breaks_to_lowest_id():
    field = make_field([[0.0, 0.0], [2.0, 0.0]], ids=[7, 3])
    assert field.ids[field.nearest([1.0, 0.0])] == 3


def test_nearest_hand_distance():
    field = make_field([[0.0, 0.0], [10.0, 0.0]], ids=[1, 2])
    assert field.ids[field.nearest([4.0, 0.0])] == 1


@pytest.mark.parametrize("seed", range(4))
def test_nearest_matches_reference_loop(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 5))
    means = rng.normal(size=(40, dim))
    means[20:30] = means[:10]  # exact ties between distinct tokens
    ids = [int(i) for i in rng.permutation(1000)[:40] + 1]
    field = make_field(list(means), dim=dim, ids=ids)
    for x in np.vstack([rng.normal(size=(50, dim)), means[:10]]):
        expected = min((float(np.linalg.norm(m - x)), i) for m, i in zip(means, ids))[1]
        assert field.ids[field.nearest(x)] == expected


def test_nearest_empty_field_rejected(empty_field):
    with pytest.raises(ValueError):
        empty_field.nearest([0.0, 0.0])


def _nearest_id(field, x):
    """Id of the brute-force nearest token: the least |v - x| by
    np.linalg.norm, ties to the lowest id."""
    return min((float(np.linalg.norm(m - x)), int(i)) for m, i in zip(field.means, field.ids))[1]


def test_nearest_exact_ties_go_to_the_lowest_id():
    rng = np.random.default_rng(11)
    for dim in (1, 2, 16):
        means = rng.normal(size=(6, dim))
        means = np.vstack([means, means[[2, 2, 4]]])  # three more copies of two means
        field = make_field(list(means), dim=dim, ids=[40, 9, 31, 7, 12, 3, 25, 5, 18])
        for row, expected in ((2, 5), (4, 12), (0, 40)):
            for x in (means[row], means[row] + 1e-9, means[row] * (1.0 + 1e-15)):
                assert field.ids[field.nearest(x)] == expected == _nearest_id(field, x)


def test_nearest_on_a_bisector_goes_to_the_lower_id():
    # v and its mirror image in the first axis are bitwise equally far from
    # every point with a zero first coordinate
    rng = np.random.default_rng(12)
    for dim in (2, 16):
        v = rng.normal(size=dim)
        v[0] = 0.75
        mirror = v.copy()
        mirror[0] = -0.75
        field = make_field([v, mirror, 50.0 + v], dim=dim, ids=[8, 2, 1])
        for t in (0.0, 1e-12, 0.3, 4.0):
            x = v + t * rng.normal(size=dim)
            x[0] = 0.0
            assert field.ids[field.nearest(x)] == 2 == _nearest_id(field, x)
    # midpoints of means on a grid, where many distances tie or differ in
    # the last bits only
    for dim in (2, 16):
        means = np.round(4.0 * rng.normal(size=(12, dim))) / 4.0
        field = make_field(list(means), dim=dim, bandwidth=0.3, ids=list(rng.permutation(12) + 1))
        for a in range(12):
            for b in range(a):
                x = 0.5 * (means[a] + means[b])
                assert field.ids[field.nearest(x)] == _nearest_id(field, x)


def test_nearest_far_away_where_every_kernel_value_underflows():
    rng = np.random.default_rng(13)
    for dim in (2, 16):
        means = rng.normal(size=(30, dim))
        field = make_field(list(means), dim=dim, ids=list(range(100, 70, -1)))
        for distance in (60.0, 1e3, 1e8):
            direction = rng.normal(size=dim)
            x = means[0] + distance * direction / np.linalg.norm(direction)
            assert density_at(field, x) == 0.0
            assert field.ids[field.nearest(x)] == _nearest_id(field, x)


@pytest.mark.parametrize("scale", [1e150, 1e155, 1e300])
def test_nearest_at_coordinates_where_squares_come_near_or_past_overflow(scale):
    rng = np.random.default_rng(14)
    for dim in (1, 2, 16):
        means = rng.normal(size=(20, dim))
        means[5] = means[9]
        field = make_field(list(means), dim=dim, ids=list(rng.permutation(20) + 1))
        huge_ids = list(rng.permutation(20) + 1)
        if scale > 1e150:
            # |v_i - c|^2 overflows, so the field is refused; huge points
            # still meet the unit field
            with pytest.raises(ValueError, match="mean is too far from the centroid"):
                make_field(list(scale * means), dim=dim, ids=huge_ids)
            huge = None
        else:
            huge = make_field(list(scale * means), dim=dim, ids=huge_ids)
        with np.errstate(over="ignore", invalid="ignore"):
            for x in (scale * rng.normal(size=dim), -scale * np.ones(dim)):
                assert field.ids[field.nearest(x)] == _nearest_id(field, x)
            for x in (scale * means[9], scale * (means[9] + 1e-3 * rng.normal(size=dim)),
                      scale * rng.normal(size=dim), np.zeros(dim)):
                assert huge is None or huge.ids[huge.nearest(x)] == _nearest_id(huge, x)


def test_nearest_where_one_squared_distance_overflows_and_one_exponent_does_not():
    # |x - v_0|^2 overflows to inf while |x_c|^2 and the exponent of v_1 stay
    # finite: the exact rule still has to see every row
    field = make_field([[-1.2e154], [1.2e154], [3e153]], dim=1, ids=[1, 3, 2])
    with np.errstate(over="ignore", invalid="ignore"):
        for x in ([1e154], [-1e154], [2.5e153]):
            assert field.ids[field.nearest(x)] == _nearest_id(field, np.array(x))


def test_nearest_of_an_infinite_or_nan_point():
    # an infinite coordinate puts every token at distance inf, a tie that
    # goes to the lowest id; a NaN distance ties with nothing, giving row 0
    for dim in (2, 16):
        means = np.random.default_rng(15).normal(size=(5, dim))
        field = make_field(list(means), dim=dim, ids=[30, 10, 20, 5, 40])
        with np.errstate(over="ignore", invalid="ignore"):
            for bad in ([np.inf], [-np.inf], [np.inf, -np.inf]):
                x = np.zeros(dim)
                x[:len(bad)] = bad
                assert field.nearest(x) == 3 and _nearest_id(field, x) == 5
            for bad in ([np.nan], [np.nan, np.inf], [np.inf, np.nan]):
                x = np.zeros(dim)
                x[:len(bad)] = bad
                assert field.nearest(x) == 0


@st.composite
def _nearest_cases(draw):
    dim = draw(st.sampled_from([1, 2, 16]))
    n = draw(st.integers(1, 12))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3, 1e150]))
    coord = st.floats(-2.0, 2.0, allow_nan=False)
    means = scale * np.array(draw(st.lists(st.lists(coord, min_size=dim, max_size=dim),
                                           min_size=n, max_size=n)))
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
                              max_size=3)):
        means[a] = means[b]
    ids = draw(st.permutations(range(1, 40)))[:n]
    bandwidth = draw(st.sampled_from([1e-3, 0.5, 1.0, 30.0]))
    field = make_field(list(means), dim=dim, bandwidth=bandwidth, ids=ids)
    a, b = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    t = draw(st.sampled_from([0.0, 0.5, 1.0, draw(st.floats(-3.0, 3.0))]))
    offset = draw(st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 1e3, 1e200]))
    direction = np.array(draw(st.lists(coord, min_size=dim, max_size=dim)))
    return field, means[a] + t * (means[b] - means[a]) + offset * direction


@settings(max_examples=400, deadline=None)
@given(_nearest_cases())
def test_nearest_matches_the_brute_force_loop(case):
    field, x = case
    with np.errstate(over="ignore", invalid="ignore"):
        assert field.ids[field.nearest(x)] == _nearest_id(field, x)
