"""Token-level cognitive machinery driving the consciousness cycle.

One cycle: perceive the moving front against optional external input,
predict the next embedding from the attention-weighted context window,
evaluate the prediction error, and force the geodesic with the discrete
second time derivative of the feedback signal, scaled by the intensity
index kappa. Token activation and stochastic resampling close the loop.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np

from .geodesic import GeodesicState, Trajectory, constant_forcing, geodesic_step
from .manifold import MetricSource, TokenEmbedding, TokenField, _as_vector

# Rolling front buffer capacity; bounds the window of the kinematic predictor.
RECENT_FRONTS_MAX = 257


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax; invariant to a constant shift of the logits."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


@dataclass(frozen=True)
class SampledEmbedding:
    """A stochastic draw from one token's embedding distribution."""

    token_id: int
    value: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "value", np.asarray(self.value, dtype=float))


@dataclass(frozen=True)
class CognitionParams:
    """Configuration of the cognitive pipeline.

    value_matrix and predictor_matrix are the linear maps of the context
    aggregation and the contextual predictor; activation is applied
    elementwise on the predictor output. input_blend in [0, 1] mixes external
    input into perception, feedback_gain is the slope of the linear feedback
    map, and kappa scales the forcing term. attention_temperature defaults to
    sqrt(D).
    """

    value_matrix: np.ndarray
    predictor_matrix: np.ndarray
    bias: np.ndarray
    activation: str = "identity"
    input_blend: float = 0.0
    feedback_gain: float = 1.0
    kappa: float = 0.0
    attention_temperature: Optional[float] = None
    context_capacity: int = 16
    predictor: str = "contextual"
    geometric_window: float = 0.1

    def __post_init__(self):
        w = np.asarray(self.value_matrix, dtype=float)
        p = np.asarray(self.predictor_matrix, dtype=float)
        b = np.asarray(self.bias, dtype=float)
        d = b.shape[0]
        if w.shape != (d, d) or p.shape != (d, d) or b.ndim != 1:
            raise ValueError("matrices must be DxD and bias a D-vector")
        if self.activation not in ("identity", "tanh"):
            raise ValueError(f"unknown activation {self.activation!r}")
        if not 0.0 <= self.input_blend <= 1.0:
            raise ValueError("input_blend must lie in [0, 1]")
        if self.kappa < 0:
            raise ValueError("kappa must be non-negative")
        if self.attention_temperature is None:
            object.__setattr__(self, "attention_temperature", float(np.sqrt(d)))
        if self.attention_temperature <= 0:
            raise ValueError("attention_temperature must be positive")
        if self.context_capacity < 1:
            raise ValueError("context_capacity must be positive")
        if self.predictor not in ("contextual", "geometric"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if self.geometric_window <= 0:
            raise ValueError("geometric_window must be positive")
        object.__setattr__(self, "value_matrix", w)
        object.__setattr__(self, "predictor_matrix", p)
        object.__setattr__(self, "bias", b)

    @property
    def dim(self) -> int:
        return self.bias.shape[0]

    @classmethod
    def defaults(cls, dim: int, **overrides) -> "CognitionParams":
        """Identity pipeline in the given dimension."""
        base = dict(
            value_matrix=np.eye(dim),
            predictor_matrix=np.eye(dim),
            bias=np.zeros(dim),
        )
        base.update(overrides)
        return cls(**base)


class ErrorHistory:
    """Fixed-capacity buffer of the last three feedback vectors with timestamps."""

    capacity = 3

    def __init__(self, entries=()):
        self._buf: deque[tuple[float, np.ndarray]] = deque(maxlen=self.capacity)
        for t, vec in entries:
            self.push(t, vec)

    def push(self, t: float, vec) -> None:
        vec = np.asarray(vec, dtype=float)
        if self._buf and t <= self._buf[-1][0]:
            raise ValueError("timestamps must be strictly increasing")
        self._buf.append((float(t), vec))

    def entries(self) -> list[tuple[float, np.ndarray]]:
        return list(self._buf)

    def copy(self) -> "ErrorHistory":
        return ErrorHistory((t, v.copy()) for t, v in self._buf)

    @property
    def full(self) -> bool:
        return len(self._buf) == self.capacity

    def __len__(self) -> int:
        return len(self._buf)


@dataclass(frozen=True)
class MindState:
    """Live state of one consciousness cycle.

    Advancing the state consumes it: the rng stream is shared with the
    returned successor, so a superseded state must not be advanced again.
    """

    front: GeodesicState
    params: CognitionParams
    rng: np.random.Generator
    context: tuple[SampledEmbedding, ...] = ()
    history: ErrorHistory = dc_field(default_factory=ErrorHistory)
    recent_fronts: tuple[GeodesicState, ...] = ()
    last_error: Optional[np.ndarray] = None
    last_activation: Optional[tuple[float, int]] = None

    @property
    def dim(self) -> int:
        return self.front.dim

    @classmethod
    def initial(cls, field: TokenField, params: CognitionParams, seed: int,
                start=None, velocity=None) -> "MindState":
        """State anchored at the token nearest the start point.

        On an empty field the front sits at the start point itself and the
        context stays empty.
        """
        d = field.dimension
        start = np.zeros(d) if start is None else _as_vector(start, d, "start")
        velocity = np.zeros(d) if velocity is None else _as_vector(velocity, d, "velocity")
        rng = np.random.default_rng(seed)
        context: tuple[SampledEmbedding, ...] = ()
        activation = None
        position = start
        if len(field):
            token = field.nearest(start)
            position = token.mean.copy()
            context = (sample_embedding(token, rng),)
            activation = (0.0, token.id)
        front = GeodesicState(position, velocity, 0.0)
        return cls(front=front, params=params, rng=rng, context=context,
                   recent_fronts=(front,), last_activation=activation)


def sample_embedding(token: TokenEmbedding, rng: np.random.Generator) -> SampledEmbedding:
    """Draw mean + L z with L a square root of the covariance and z standard normal.

    Diagonal covariances use the elementwise square root, full ones the
    Cholesky factor (eigenvalue square root if only semidefinite); both clip
    rounding-level negatives to zero. The rng advances by exactly D draws.
    """
    d = token.dim
    cov = token.covariance
    z = rng.standard_normal(d)
    if not np.any(cov):
        return SampledEmbedding(token.id, token.mean.copy())
    if np.count_nonzero(cov - np.diag(np.diagonal(cov))) == 0:
        diag = np.clip(np.diagonal(cov), 0.0, None)
        return SampledEmbedding(token.id, token.mean + np.sqrt(diag) * z)
    try:
        factor = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(cov)
        factor = eigvecs @ np.diag(np.sqrt(np.clip(eigvals, 0.0, None)))
    return SampledEmbedding(token.id, token.mean + factor @ z)


def attention_weights(query: SampledEmbedding, sequence: list[SampledEmbedding],
                      params: CognitionParams) -> np.ndarray:
    """Softmax of the temperature-scaled dot products of query against the sequence."""
    if not sequence:
        raise ValueError("attention over an empty sequence")
    q = query.value
    logits = np.array([float(q @ s.value) for s in sequence]) / params.attention_temperature
    return softmax(logits)


def context_vector(weights, sequence: list[SampledEmbedding],
                   params: CognitionParams) -> np.ndarray:
    """Attention-weighted sum of the value-mapped sequence embeddings."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(sequence),):
        raise ValueError("weights and sequence lengths differ")
    if abs(float(np.sum(weights)) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    values = np.stack([params.value_matrix @ s.value for s in sequence])
    return np.einsum("n,nd->d", weights, values)


def predict_contextual(context, params: CognitionParams) -> np.ndarray:
    """Activation of the affine map of the context vector."""
    context = np.asarray(context, dtype=float)
    pre = params.predictor_matrix @ context + params.bias
    if params.activation == "tanh":
        return np.tanh(pre)
    return pre


def predict_geometric(traj: Trajectory, window: float) -> np.ndarray:
    """Base point at t - window plus the trapezoidal integral of the recorded
    velocities over the window."""
    if window <= 0:
        raise ValueError("window must be positive")
    n_back = int(round(window / traj.dt))
    if n_back < 1 or n_back > len(traj) - 1:
        raise ValueError(
            f"window {window} spans {n_back} steps but trajectory has {len(traj) - 1}")
    states = traj.samples[len(traj) - 1 - n_back:]
    velocities = np.stack([s.velocity for s in states])
    integral = np.trapezoid(velocities, dx=traj.dt, axis=0)
    return states[0].position + integral


def perceive(front, input_vec, params: CognitionParams) -> np.ndarray:
    """Blend of the front with external input: (1 - beta) front + beta input.

    Without input the front passes through unchanged regardless of beta.
    """
    front = np.asarray(front, dtype=float)
    if input_vec is None:
        return front.copy()
    input_vec = np.asarray(input_vec, dtype=float)
    if input_vec.shape != front.shape:
        raise ValueError("input dimension does not match the front")
    beta = params.input_blend
    return (1.0 - beta) * front + beta * input_vec


def prediction_error(perceived, predicted) -> np.ndarray:
    """Componentwise difference between perceived and predicted states."""
    perceived = np.asarray(perceived, dtype=float)
    predicted = np.asarray(predicted, dtype=float)
    if perceived.shape != predicted.shape:
        raise ValueError("perceived and predicted dimensions differ")
    return perceived - predicted


def feedback_forcing(history: ErrorHistory, params: CognitionParams, dt: float) -> np.ndarray:
    """kappa times the three-point second difference of the feedback vectors.

    Underfull histories (warm-up) contribute exactly zero forcing.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    entries = history.entries()
    if len(entries) < 3:
        return np.zeros(params.dim)
    (t0, psi0), (t1, psi1), (t2, psi2) = entries
    if abs((t1 - t0) - dt) > 1e-9 * max(1.0, dt) or abs((t2 - t1) - dt) > 1e-9 * max(1.0, dt):
        raise ValueError("history timestamps are not uniform with spacing dt")
    return params.kappa * (psi2 - 2.0 * psi1 + psi0) / dt**2


def _predict(state: MindState, perceived: np.ndarray, dt: float) -> np.ndarray:
    params = state.params
    if params.predictor == "geometric":
        n_back = int(round(params.geometric_window / dt))
        if n_back + 1 > RECENT_FRONTS_MAX:
            raise ValueError("geometric_window spans more steps than the front buffer holds")
        if len(state.recent_fronts) >= n_back + 1:
            recent = Trajectory(samples=list(state.recent_fronts), dt=dt)
            return predict_geometric(recent, params.geometric_window)
        return perceived.copy()
    if state.context:
        query = state.context[-1]
        weights = attention_weights(query, list(state.context), params)
        ctx = context_vector(weights, list(state.context), params)
        return predict_contextual(ctx, params)
    # nothing to attend over yet: predict the perceived state itself
    return perceived.copy()


def cycle_step(state: MindState, field: TokenField, source: MetricSource,
               input_vec=None, dt: float = 1e-2) -> MindState:
    """Advance one full consciousness cycle of duration dt.

    Order of operations: perceive, predict, evaluate the error, record the
    feedback vector, force the geodesic with its discrete second derivative,
    then activate and resample the token nearest the new front.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    params = state.params
    front = state.front

    perceived = perceive(front.position, input_vec, params)
    predicted = _predict(state, perceived, dt)
    error = prediction_error(perceived, predicted)

    history = state.history.copy()
    history.push(front.time, params.feedback_gain * error)
    forcing_vec = feedback_forcing(history, params, dt)

    new_front = geodesic_step(front, source, constant_forcing(forcing_vec), dt)

    context = state.context
    activation = None
    if len(field):
        token = field.nearest(new_front.position)
        sample = sample_embedding(token, state.rng)
        context = (context + (sample,))[-params.context_capacity:]
        activation = (new_front.time, token.id)

    recent = (state.recent_fronts + (new_front,))[-RECENT_FRONTS_MAX:]
    return replace(state, front=new_front, context=context, history=history,
                   recent_fronts=recent, last_error=error, last_activation=activation)
