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
from .errors import ChartExitError
from .geodesic import Trajectory
from .manifold import (ConformalFieldMetric, MetricSource, TokenEmbedding,
                       TokenField, _as_vector, curvature_at, density_at)

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class ThoughtFlow:
    """A completed run: trajectory, per-cycle errors, score and its seed."""

    trajectory: Trajectory
    errors: list[np.ndarray]
    score: float
    seed: int


@dataclass(frozen=True)
class Selection:
    """Outcome of flow competition against the consciousness threshold."""

    winner: Optional[int]
    scores: list[float]
    threshold: float


@dataclass(frozen=True)
class GridSpec:
    """Sampling specification for analyze_field.

    The grid spans the token bounding box padded by padding_bandwidths * h
    on every axis. rho_min defaults to the field's epsilon.
    """

    points_per_axis: int = 8
    padding_bandwidths: float = 2.0
    rho_min: Optional[float] = None
    curvature_percentile: float = 90.0
    segment_samples: int = 64

    def __post_init__(self):
        if self.points_per_axis < 2:
            raise ValueError("points_per_axis must be at least 2")
        if self.padding_bandwidths < 2.0:
            raise ValueError("grid must pad the bounding box by at least 2 bandwidths")


@dataclass(frozen=True)
class FieldReport:
    """Curvature samples, flagged regions, token connectivity and dimension."""

    curvature_samples: list[tuple[np.ndarray, float]]
    high_curvature: list[np.ndarray]
    components: list[list[int]]
    intrinsic_dimension: int
    percentile_cut: float = 0.0


def nearest_token(field: TokenField, x) -> int:
    """Id of the token whose mean is nearest to x (ties to the lowest id)."""
    return field.nearest(x).id


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
    indices mean no stimulus. A chart exit truncates the flow and flags the
    trajectory.
    """
    if n_steps < 1:
        raise ValueError("n_steps must be at least 1")
    inputs = inputs or {}
    state = MindState.initial(field, params, seed, start=start, velocity=velocity)
    samples = [state.front]
    activations = list([state.last_activation] if state.last_activation else [])
    errors: list[np.ndarray] = []
    truncated = False
    for k in range(n_steps):
        try:
            state = cycle_step(state, field, source, inputs.get(k), dt)
        except ChartExitError:
            truncated = True
            logger.warning("thought flow (seed %d) left the chart at cycle %d", seed, k)
            break
        samples.append(state.front)
        errors.append(state.last_error)
        if state.last_activation is not None:
            activations.append(state.last_activation)
    traj = Trajectory(samples=samples, dt=dt, activations=activations, truncated=truncated)
    flow = ThoughtFlow(trajectory=traj, errors=errors, score=0.0, seed=seed)
    if errors:
        flow = dc_replace(flow, score=score_flow(flow))
    return flow


def select_conscious(flows: Sequence[ThoughtFlow], threshold: float) -> Selection:
    """Argmax-by-score selection; a winner exists only above the threshold.

    Ties break toward the lowest flow index.
    """
    if not flows:
        raise ValueError("no flows to select from")
    scores = [f.score for f in flows]
    best = 0
    for i, s in enumerate(scores):
        if s > scores[best]:
            best = i
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
    (row,) = field.rows([field.nearest(perceived).id])
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
    """
    if cycles < 1:
        raise ValueError("cycles must be at least 1")
    input_vec = _as_vector(input_vec, field.dimension, "input")
    state = MindState.initial(field, params, seed, start=start, velocity=velocity)
    snapshots = [field]
    error_norms: list[float] = []
    for _ in range(cycles):
        source = ConformalFieldMetric(field)
        perceived = perceive(state.front.position, input_vec, params)
        state = cycle_step(state, field, source, input_vec, dt)
        error_norms.append(float(np.linalg.norm(state.last_error)))
        field = learn_update(field, perceived, rate)
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
    if scale < 0:
        raise ValueError("scale must be non-negative")
    rows = field.rows(ids)
    weights = field.weights.copy()
    weights[rows] = scale * weights[rows]
    return field._replace(weights=weights)


def _connected_components(field: TokenField, rho_min: float, segment_samples: int) -> list[list[int]]:
    """Brute-force token graph: an edge exists when the density along the
    straight segment between two means never drops below rho_min."""
    order = np.argsort(field.ids)
    ids, means = field.ids[order].tolist(), field.means[order]
    n = len(ids)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    ts = np.linspace(0.0, 1.0, segment_samples)
    for i in range(n):
        for j in range(i + 1, n):
            a, b = means[i], means[j]
            min_rho = min(density_at(field, a + t * (b - a)) for t in ts)
            if min_rho >= rho_min:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[rj] = ri
    groups: dict[int, list[int]] = {}
    for i, token_id in enumerate(ids):
        groups.setdefault(find(i), []).append(token_id)
    return sorted((sorted(g) for g in groups.values()), key=lambda g: g[0])


def intrinsic_dimension(field: TokenField, variance_threshold: float = 0.95) -> int:
    """Smallest PCA rank explaining the threshold share of token-mean variance."""
    if len(field) < 2:
        return 1
    centered = field.means - field.means.mean(axis=0)
    svals = np.linalg.svd(centered, compute_uv=False)
    power = svals**2
    total = float(np.sum(power))
    if total <= 0.0:
        return 1
    cumulative = np.cumsum(power) / total
    k = int(np.searchsorted(cumulative, variance_threshold - 1e-12) + 1)
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


def analyze_field(field: TokenField, source: MetricSource,
                  grid: GridSpec = GridSpec()) -> FieldReport:
    """Survey the field: curvature map, outlier regions, connectivity, dimension.

    Scalar curvature is sampled on a regular grid over the padded bounding
    box; points with |scalar| strictly above the configured percentile are
    flagged as candidate trouble regions.
    """
    d = field.dimension
    if len(field):
        lo = field.means.min(axis=0) - grid.padding_bandwidths * field.bandwidth
        hi = field.means.max(axis=0) + grid.padding_bandwidths * field.bandwidth
    else:
        lo, hi = -np.ones(d), np.ones(d)
    axes = [np.linspace(lo[k], hi[k], grid.points_per_axis) for k in range(d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)

    samples: list[tuple[np.ndarray, float]] = []
    for p in points:
        if not source.in_domain(p):
            continue
        samples.append((p, curvature_at(source, p).scalar))

    high: list[np.ndarray] = []
    cut = 0.0
    if samples:
        magnitudes = np.array([abs(s) for _, s in samples])
        cut = float(np.percentile(magnitudes, grid.curvature_percentile))
        high = [p for (p, s), m in zip(samples, magnitudes) if m > cut]

    rho_min = field.epsilon if grid.rho_min is None else grid.rho_min
    components = _connected_components(field, rho_min, grid.segment_samples) if len(field) else []
    return FieldReport(
        curvature_samples=samples,
        high_curvature=high,
        components=components,
        intrinsic_dimension=intrinsic_dimension(field),
        percentile_cut=cut,
    )


def demo_field() -> TokenField:
    """Canonical three-token field in the plane used by docs and tests."""
    tokens = (
        TokenEmbedding(1, np.array([0.0, 0.0]), np.zeros((2, 2)), 1.0),
        TokenEmbedding(2, np.array([2.0, 0.0]), np.zeros((2, 2)), 1.0),
        TokenEmbedding(3, np.array([1.0, 1.5]), np.zeros((2, 2)), 1.0),
    )
    return TokenField(tokens=tokens, dimension=2, bandwidth=1.0, epsilon=0.5)
