"""Whole thought flows: competition, learning updates and field analysis.

A thought flow is a recorded trajectory with its per-cycle prediction
errors and a competition score. Flows compete by score against a
consciousness threshold; learning drags the token nearest the perceived
state toward it, reshaping the density and hence the metric.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, replace as dc_replace
from typing import Optional, Sequence

import numpy as np

from .cognition import CognitionParams, MindState, cycle_step, perceive
from .errors import ChartExitError, ConfigError
from .geodesic import Trajectory
from .manifold import (KERNEL_BLOCK, ConformalFieldMetric, MetricSource,
                       TokenField, _as_int, _as_vector, densities)

logger = logging.getLogger(__name__)

# analyze_field refuses a grid of more points than this (8 per axis at D=6)
# before allocating it.
GRID_BUDGET = 8**6
# The analyze grid has this many points per axis and pads the token bounding
# box by this many bandwidths on every side; analyze flags points whose
# |scalar curvature| lies above this percentile, and tests each connectivity
# segment at this many points.
POINTS_PER_AXIS = 8
GRID_PADDING = 2.0
CURVATURE_PERCENTILE = 90.0
SEGMENT_SAMPLES = 64
# intrinsic_dimension is the smallest PCA rank explaining this variance share.
VARIANCE_SHARE = 0.95


@dataclass(frozen=True)
class ThoughtFlow:
    """A completed run: trajectory, per-cycle errors, score and its seed.

    stop_reason is None for a full run, else why the flow was truncated:
    "chart-exit" or "non-finite". A flow that never completed a cycle
    scores -inf, so it can never win a competition.
    """

    trajectory: Trajectory
    errors: list[np.ndarray]
    score: float
    seed: int
    stop_reason: Optional[str] = None


@dataclass(frozen=True)
class Selection:
    """Outcome of flow competition against the consciousness threshold."""

    winner: Optional[int]
    scores: list[float]
    threshold: float


@dataclass(frozen=True)
class FieldReport:
    """Curvature samples, flagged regions, token connectivity and dimension.

    points (P, D) are the grid points inside the chart, scalars (P,) their
    scalar curvatures, and high_curvature (H, D) the points flagged above
    percentile_cut.
    """

    points: np.ndarray
    scalars: np.ndarray
    high_curvature: np.ndarray
    components: list[list[int]]
    intrinsic_dimension: int
    percentile_cut: float = 0.0


def score_flow(flow: ThoughtFlow) -> float:
    """Negative mean squared prediction error; zero-error flows score highest."""
    if not flow.errors:
        raise ValueError("flow has no cycles")
    return -float(np.mean([float(e @ e) for e in flow.errors]))


def run_thought_flow(field: TokenField, source: MetricSource, params: CognitionParams,
                     inputs: Optional[dict[int, np.ndarray]] = None,
                     n_steps: int = 100, dt: float = 1e-2, seed: int = 0,
                     start=None, velocity=None) -> ThoughtFlow:
    """Run n_steps consciousness cycles from the token nearest the start point.

    inputs maps cycle indices (0-based) to external input vectors; absent
    indices mean no stimulus. A chart exit, or a cycle whose state or
    prediction error is not finite, truncates the flow before that cycle and
    flags the trajectory, whose token_ids are None on an empty field. n_steps
    is an int of at least 1 (manifold._as_int). Each flow logs one INFO line:
    its seed, score, stop reason ("none" for a full run) and the number of
    cycles it ran.
    """
    n_steps = _as_int(n_steps, "n_steps", 1)
    inputs = inputs or {}
    errors: list[np.ndarray] = []
    stop_reason = None
    # the finiteness check below reports a divergence; numpy need not warn
    with np.errstate(over="ignore", invalid="ignore"):
        state = MindState.initial(field, params, seed, start=start, velocity=velocity)
        positions, velocities, times = [state.position], [state.velocity], [state.time]
        ids = [state.last_activation]
        for k in range(n_steps):
            try:
                state = cycle_step(state, field, source, inputs.get(k), dt)
            except ChartExitError:
                stop_reason = "chart-exit"
            else:
                if not np.isfinite((state.position, state.velocity, state.last_error)).all():
                    stop_reason = "non-finite"
            if stop_reason:
                logger.warning("thought flow (seed %d) stopped at cycle %d: %s",
                               seed, k, stop_reason)
                break
            positions.append(state.position)
            velocities.append(state.velocity)
            times.append(state.time)
            errors.append(state.last_error)
            ids.append(state.last_activation)
        traj = Trajectory(np.stack(positions), np.stack(velocities), np.array(times), dt,
                          np.array(ids) if len(field) else None, truncated=stop_reason is not None)
        flow = ThoughtFlow(trajectory=traj, errors=errors, score=-np.inf, seed=seed,
                           stop_reason=stop_reason)
        if errors:
            flow = dc_replace(flow, score=score_flow(flow))
    logger.info("thought flow (seed %d): score %.17g, stop reason %s, %d cycles",
                seed, flow.score, stop_reason or "none", len(errors))
    return flow


def select_conscious(flows: Sequence[ThoughtFlow], threshold: float) -> Selection:
    """Argmax-by-score selection; a winner exists only above the threshold.

    Ties break toward the lowest flow index.
    """
    if not flows:
        raise ValueError("no flows to select from")
    scores = [f.score for f in flows]
    best = max(range(len(scores)), key=scores.__getitem__)  # the first of equal maxima
    winner = best if scores[best] > threshold else None
    return Selection(winner=winner, scores=scores, threshold=threshold)


def learn_update(field: TokenField, perceived, rate: float) -> TokenField:
    """Pull the token nearest the perceived point toward it by the given rate.

    Returns a new field; ids, weights and covariances are untouched, so the
    only change is the repositioned mean (and therefore the derived metric).
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError("learning rate must lie in [0, 1]")
    perceived = _as_vector(perceived, field.dimension, "perceived")
    if not np.isfinite(perceived).all():
        raise ValueError("perceived must be finite")
    row = field.nearest(perceived)
    means = field.means.copy()
    means[row] = means[row] + rate * (perceived - means[row])
    return field._replace(means=means)


def run_learning(field: TokenField, params: CognitionParams, input_vec,
                 cycles: int, dt: float, seed: int, rate: float,
                 start=None, velocity=None) -> tuple[list[TokenField], list[float]]:
    """Repeat the cycle with a fixed input, learning after every step.

    The conformal metric is rebuilt from the current field each cycle, so
    token repositioning immediately reshapes the geometry. Returns the field
    snapshots (initial plus one per cycle) and the per-cycle error norms.
    A cycle whose state, error norm or learned mean is not finite ends the
    run before it is recorded, so both lists are then shorter than a full
    run's. cycles is an int of at least 1 (manifold._as_int). Each recorded
    cycle logs one INFO line: its number (from 1), its error norm and the id
    of the token whose mean moved.
    """
    cycles = _as_int(cycles, "cycles", 1)
    input_vec = _as_vector(input_vec, field.dimension, "input")
    snapshots = [field]
    error_norms: list[float] = []
    with np.errstate(over="ignore", invalid="ignore"):
        state = MindState.initial(field, params, seed, start=start, velocity=velocity)
        for _ in range(cycles):
            source = ConformalFieldMetric(field)
            perceived = perceive(state.position, input_vec, params)
            state = cycle_step(state, field, source, input_vec, dt)
            error_norm = float(np.linalg.norm(state.last_error))
            finite = np.isfinite((state.position, state.velocity, perceived)).all()
            updated = learn_update(field, perceived, rate) if finite else field
            if not (finite and np.isfinite(error_norm) and np.isfinite(updated.means).all()):
                logger.warning("learning stopped at cycle %d: non-finite", len(error_norms))
                break
            error_norms.append(error_norm)
            if logger.isEnabledFor(logging.INFO):
                moved = field.ids[np.any(updated.means != field.means, axis=1)].tolist()
                logger.info("learning cycle %d: error norm %.17g, moved token %s",
                            len(error_norms), error_norm, moved[0] if moved else "none")
            field = updated
            snapshots.append(field)
    return snapshots, error_norms


def feature_vector(field: TokenField, ids: Sequence[int]) -> np.ndarray:
    """Weighted aggregate sum w_i v_i over the selected tokens."""
    rows = field.rows(ids)
    if not rows.size:
        raise ValueError("feature requires at least one token id")
    # initial=0.0 and the row order give the same sum as adding token by token
    return np.sum(field.weights[rows, None] * field.means[rows], axis=0, initial=0.0)


def manipulate_feature(field: TokenField, ids: Sequence[int], scale: float) -> TokenField:
    """Rescale the weights of the selected tokens; the input field is untouched."""
    if not 0.0 <= scale < np.inf:
        raise ValueError("scale must be non-negative and finite")
    rows = field.rows(ids)
    weights = field.weights.copy()
    weights[rows] = scale * weights[rows]
    return field._replace(weights=weights)


def _connected_components(field: TokenField) -> list[list[int]]:
    """Brute-force token graph: an edge exists when the density at every one
    of SEGMENT_SAMPLES evenly spaced points a + t (b - a) of the straight
    segment between two means stays at or above the field's epsilon."""
    order = np.argsort(field.ids)
    ids, means = field.ids[order].tolist(), field.means[order]
    n = len(ids)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ts = np.linspace(0.0, 1.0, SEGMENT_SAMPLES)[:, None]
    first, second = np.triu_indices(n, 1)
    # whole segments per block, about KERNEL_BLOCK kernel elements each
    pairs = max(1, KERNEL_BLOCK // (n * SEGMENT_SAMPLES))
    for lo in range(0, len(first), pairs):
        i, j = first[lo:lo + pairs], second[lo:lo + pairs]
        a, b = means[i, None, :], means[j, None, :]
        rho = densities(field, a + ts * (b - a)).reshape(len(i), SEGMENT_SAMPLES)
        edge = rho.min(axis=1) >= field.epsilon
        for ri, rj in zip(i[edge].tolist(), j[edge].tolist()):
            ri, rj = find(ri), find(rj)
            if ri != rj:
                parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i, token_id in enumerate(ids):
        groups.setdefault(find(i), []).append(token_id)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def intrinsic_dimension(field: TokenField) -> int:
    """Smallest PCA rank explaining VARIANCE_SHARE of the token-mean variance."""
    if len(field) < 2:
        return 1
    centered = field.means - field.means.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    power = svals**2
    total = float(np.sum(power))
    if total <= 0.0:
        return 1
    cumulative = np.cumsum(power) / total
    k = int(np.searchsorted(cumulative, VARIANCE_SHARE - 1e-12) + 1)
    return min(max(k, 1), field.dimension)


def pca_projection(field: TokenField) -> dict[int, np.ndarray]:
    """Token means projected on the top two principal axes (plot-ready)."""
    if not len(field):
        return {}
    centered = field.means - field.means.mean(axis=0)
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    axes = vt[:2]
    coords = centered @ axes.T
    if coords.shape[1] < 2:
        coords = np.hstack([coords, np.zeros((coords.shape[0], 2 - coords.shape[1]))])
    return dict(zip(field.ids.tolist(), coords))


def _check_grid(d: int) -> None:
    """ConfigError when the analyze grid exceeds GRID_BUDGET points at D = d."""
    if POINTS_PER_AXIS**d > GRID_BUDGET:
        raise ConfigError(f"analyze grid: points_per_axis {POINTS_PER_AXIS} at D={d} gives "
                          f"{POINTS_PER_AXIS**d} points, over the budget of {GRID_BUDGET}")


def _percentile(values: np.ndarray, q: float) -> float:
    """np.percentile(values, q), bitwise, of a non-empty (n,) array whose
    zeros share one sign, by numpy's linear rule on the sorted values, without
    np.percentile's np.unique, which imports numpy.ma: at the virtual index
    i = (n - 1) q / 100, a and b are the values at floor i and floor i + 1
    and gamma = i - floor i, or at i >= n - 1 both the top value and
    gamma = i + 1; the result is b - (b - a)(1 - gamma) when gamma >= 0.5,
    else a + (b - a) gamma. Any NaN sorts last and gives NaN."""
    ordered = np.sort(values).tolist()
    index = (len(ordered) - 1) * (q / 100)
    if ordered[-1] != ordered[-1]:
        return ordered[-1]
    if index >= len(ordered) - 1:
        a = b = ordered[-1]
        gamma = index + 1  # i - (-1): numpy points both neighbours at row -1
    else:
        below = int(index)  # floor, as index >= 0
        a, b = ordered[below], ordered[below + 1]
        gamma = index - below
    return b - (b - a) * (1 - gamma) if gamma >= 0.5 else a + (b - a) * gamma


@np.errstate(over="ignore", invalid="ignore")
def analyze_field(field: TokenField, source: MetricSource) -> FieldReport:
    """Survey the field: curvature map, outlier regions, connectivity, dimension.

    Scalar curvature is sampled on a regular grid of POINTS_PER_AXIS points
    per axis over the padded bounding box, at the points inside the chart;
    points with |scalar| strictly above CURVATURE_PERCENTILE are flagged as
    candidate trouble regions. The field's epsilon is the connectivity
    threshold. A grid of more than GRID_BUDGET points is refused with
    ConfigError before anything is allocated.
    """
    d = field.dimension
    _check_grid(d)
    if len(field):
        lo = field.means.min(axis=0) - GRID_PADDING * field.bandwidth
        hi = field.means.max(axis=0) + GRID_PADDING * field.bandwidth
    else:
        lo, hi = -np.ones(d), np.ones(d)
    axes = [np.linspace(lo[k], hi[k], POINTS_PER_AXIS) for k in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    points = points[np.fromiter(map(source.in_domain, points), bool, len(points))]
    scalars = source.scalar_curvature(points)
    magnitudes = np.abs(scalars)
    cut = _percentile(magnitudes, CURVATURE_PERCENTILE) if len(points) else 0.0
    return FieldReport(
        points=points,
        scalars=scalars,
        high_curvature=points[magnitudes > cut],
        components=_connected_components(field) if len(field) else [],
        intrinsic_dimension=intrinsic_dimension(field),
        percentile_cut=cut,
    )


def demo_field() -> TokenField:
    """Canonical three-token field in the plane used by docs and tests."""
    return TokenField(ids=[1, 2, 3], means=[[0.0, 0.0], [2.0, 0.0], [1.0, 1.5]],
                      covariances=np.zeros((3, 2, 2)), weights=np.ones(3),
                      bandwidth=1.0, epsilon=0.5)
