"""Token-level cognitive machinery driving the consciousness cycle.

One cycle: perceive the moving front against optional external input,
predict the next embedding from the attention-weighted context window,
evaluate the prediction error, and force the geodesic with the discrete
second time derivative of the feedback signal, scaled by the intensity
index kappa. Token activation and stochastic resampling close the loop.

Work that depends only on a drawn sample is done once per sample: the state
keeps each context sample's value-mapped row, and the field each token's
covariance root, without changing a bit of the cycle's results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .geodesic import geodesic_step
from .manifold import MetricSource, TokenField, _as_int, _as_vector, covariance_root

# Rolling front buffer capacity; bounds the window of the kinematic predictor.
RECENT_FRONTS_MAX = 257


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable softmax of a 1-D array of logits; invariant to a
    constant shift of the logits. The ufunc reductions give np.max's and
    np.sum's bits without their Python wrappers, which cost more than the
    reductions on a context window."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - np.maximum.reduce(logits)
    e = np.exp(shifted)
    return e / np.add.reduce(e)


@dataclass(frozen=True)
class CognitionParams:
    """Configuration of the cognitive pipeline.

    value_matrix and predictor_matrix are the linear maps of the context
    aggregation and the contextual predictor; activation is applied
    elementwise on the predictor output. input_blend in [0, 1] mixes external
    input into perception, feedback_gain is the slope of the linear feedback
    map, and kappa scales the forcing term. attention_temperature defaults to
    sqrt(D). context_capacity is an int of at least 1 (manifold._as_int).
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
        if not -np.inf < self.feedback_gain < np.inf:
            raise ValueError("feedback_gain must be finite")
        if not 0.0 <= self.kappa < np.inf:
            raise ValueError("kappa must be non-negative and finite")
        if self.attention_temperature is None:
            object.__setattr__(self, "attention_temperature", float(np.sqrt(d)))
        if not 0.0 < self.attention_temperature < np.inf:
            raise ValueError("attention_temperature must be positive and finite")
        _as_int(self.context_capacity, "context_capacity", 1)
        if self.predictor not in ("contextual", "geometric"):
            raise ValueError(f"unknown predictor {self.predictor!r}")
        if not 0.0 < self.geometric_window < np.inf:
            raise ValueError("geometric_window must be positive and finite")
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


@dataclass(frozen=True)
class MindState:
    """Live state of one consciousness cycle.

    position, velocity and time are the moving front. context is the (C, D)
    array of the sampled embeddings of the activated tokens, oldest first,
    and values the (C, D) array of their value-mapped rows
    params.value_matrix @ context[k], each computed once, when its sample is
    drawn. A state built without values derives them from context, which
    may then be any sequence of (D,) embeddings; a state given values must
    give the rows of its own context and params. history holds the last
    three feedback vectors, oldest first, one per cycle, recent_fronts the
    last RECENT_FRONTS_MAX (position, velocity) pairs, and last_activation
    the id of the token the state activated, None on an empty field.
    Advancing the state consumes it: the rng stream is shared with the
    returned successor, so a superseded state must not be advanced again.
    """

    position: np.ndarray
    velocity: np.ndarray
    params: CognitionParams
    rng: np.random.Generator
    time: float = 0.0
    context: np.ndarray = ()
    values: Optional[np.ndarray] = None
    history: tuple[np.ndarray, ...] = ()
    recent_fronts: tuple[tuple[np.ndarray, np.ndarray], ...] = ()
    last_error: Optional[np.ndarray] = None
    last_activation: Optional[int] = None

    def __post_init__(self):
        if self.values is None:
            d = self.params.dim
            context = np.asarray(self.context, dtype=float)
            context = context if context.size else context.reshape(0, d)
            if context.ndim != 2 or context.shape[1] != d:
                raise ValueError(f"context must be a sequence of embeddings of dimension {d}")
            object.__setattr__(self, "context", context)
            object.__setattr__(self, "values", _value_rows(context, self.params))

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
        context: tuple[np.ndarray, ...] = ()
        activation = None
        position = start
        if len(field):
            row = field.nearest(start)
            position = field.means[row].copy()
            context = (_sample(field, row, rng),)
            activation = int(field.ids[row])
        return cls(position=position, velocity=velocity, params=params, rng=rng,
                   context=context, recent_fronts=((position, velocity),),
                   last_activation=activation)


def sample_embedding(mean, covariance, rng: np.random.Generator,
                     root: Optional[np.ndarray] = None) -> np.ndarray:
    """Draw mean + L z for a (D,) mean and a (D, D) covariance or a (D,) row
    of its diagonal, with L the square root covariance_root(covariance) and
    z standard normal.

    Diagonal covariances use the elementwise square root, full ones the
    Cholesky factor (eigenvalue square root if only semidefinite); both clip
    rounding-level negatives to zero. A caller that keeps the root passes it
    as root; None computes it, which for a zero covariance is one np.any.
    Returns the (D,) draw; the rng advances by exactly D draws.
    """
    mean = np.asarray(mean, dtype=float)
    z = rng.standard_normal(len(mean))
    if root is None:
        root = covariance_root(covariance)
    if root is None:
        return mean.copy()
    return mean + (root * z if root.ndim == 1 else root @ z)


def _sample(field: TokenField, row: int, rng: np.random.Generator) -> np.ndarray:
    """sample_embedding of the token in the given row, with the root the
    field keeps."""
    return sample_embedding(field.means[row], field.covariances[row], rng,
                            field.sampling_root(row))


def attention_weights(query, sequence, params: CognitionParams) -> np.ndarray:
    """Softmax of the temperature-scaled dot products of the query vector
    against a sequence of vectors."""
    if not len(sequence):
        raise ValueError("attention over an empty sequence")
    # vecdot is the per-row BLAS dot that q @ s uses on one pair of vectors
    logits = np.vecdot(sequence, query) / params.attention_temperature
    return softmax(logits)


def context_vector(weights, sequence, params: CognitionParams) -> np.ndarray:
    """Attention-weighted sum of the value-mapped sequence embeddings."""
    weights = np.asarray(weights, dtype=float)
    if weights.shape != (len(sequence),):
        raise ValueError("weights and sequence lengths differ")
    if abs(float(np.sum(weights)) - 1.0) > 1e-9:
        raise ValueError("weights must sum to 1")
    return _weighted_sum(weights, _value_rows(sequence, params))


def _value_rows(sequence, params: CognitionParams) -> np.ndarray:
    """(C, D) array of the rows params.value_matrix @ s of a sequence of C
    embeddings, one matrix-vector product each."""
    return np.array([params.value_matrix @ s for s in sequence]).reshape(-1, params.dim)


def _weighted_sum(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_k weights[k] values[k] of (C,) weights and (C, D) value rows."""
    return np.einsum("n,nd->d", weights, values)


def predict_contextual(context, params: CognitionParams) -> np.ndarray:
    """Activation of the affine map of the context vector."""
    context = np.asarray(context, dtype=float)
    pre = params.predictor_matrix @ context + params.bias
    if params.activation == "tanh":
        return np.tanh(pre)
    return pre


def predict_geometric(positions, velocities, dt: float) -> np.ndarray:
    """First position plus the trapezoidal integral of the velocities, from
    the (T, D) positions and velocities of a window sampled every dt, the
    last row at t. dt must satisfy 0 < dt < inf, else ValueError."""
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    return positions[0] + np.trapezoid(velocities, dx=dt, axis=0)


def window_steps(window: float, dt: float) -> int:
    """round(window / dt), a geometric window's steps of dt; ValueError below
    one step or past the front buffer."""
    if not window / dt <= RECENT_FRONTS_MAX - 0.5:  # round(window / dt) >= RECENT_FRONTS_MAX or inf
        raise ValueError(f"cognition.geometric_window {window} spans more than "
                         f"{RECENT_FRONTS_MAX - 1} steps of dt {dt}")
    if not window / dt > 0.5:  # round(0.5) is 0, and a window needs a step
        raise ValueError(f"cognition.geometric_window {window} spans no step of dt {dt}")
    return round(window / dt)


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


def feedback_forcing(history, params: CognitionParams, dt: float) -> np.ndarray:
    """kappa times the three-point second difference of the feedback vectors,
    given as a sequence of at most three, oldest first, one per cycle of dt.

    Underfull histories (warm-up) contribute exactly zero forcing. dt must
    satisfy 0 < dt < inf, else ValueError.
    """
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    if len(history) < 3:
        return np.zeros(params.dim)
    psi0, psi1, psi2 = history
    return params.kappa * (psi2 - 2.0 * psi1 + psi0) / dt**2


def _predict(state: MindState, perceived: np.ndarray, dt: float) -> np.ndarray:
    params = state.params
    if params.predictor == "geometric":
        n_back = window_steps(params.geometric_window, dt)
        if len(state.recent_fronts) >= n_back + 1:
            positions, velocities = map(np.stack, zip(*state.recent_fronts[-1 - n_back:]))
            return predict_geometric(positions, velocities, dt)
        return perceived.copy()
    if len(state.context):
        weights = attention_weights(state.context[-1], state.context, params)
        return predict_contextual(_weighted_sum(weights, state.values), params)
    # nothing to attend over yet: predict the perceived state itself
    return perceived.copy()


def cycle_step(state: MindState, field: TokenField, source: MetricSource,
               input_vec=None, dt: float = 1e-2) -> MindState:
    """Advance one full consciousness cycle of duration 0 < dt < inf (else ValueError).

    Order of operations: perceive, predict, evaluate the error, record the
    feedback vector, force the geodesic with its discrete second derivative,
    then activate and resample the token nearest the new front. The new
    sample and its value-mapped row join the context window, whose oldest
    entries drop out beyond params.context_capacity.
    """
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    params = state.params

    perceived = perceive(state.position, input_vec, params)
    predicted = _predict(state, perceived, dt)
    error = prediction_error(perceived, predicted)

    history = (state.history + (params.feedback_gain * error,))[-3:]
    forcing_vec = feedback_forcing(history, params, dt)

    x, v = geodesic_step(state.position, state.velocity, source, forcing_vec, dt)
    t = state.time + dt

    context, values = state.context, state.values
    activation = None
    if len(field):
        row = field.nearest(x)
        sample = _sample(field, row, state.rng)
        # drop the oldest rows before the join, so that each window is a fresh
        # contiguous array, as np.stack built it, and the sums keep their bits
        keep = max(0, len(context) + 1 - params.context_capacity)
        context = np.concatenate((context[keep:], sample[None]))
        values = np.concatenate((values[keep:], (params.value_matrix @ sample)[None]))
        activation = int(field.ids[row])

    recent = (state.recent_fronts + ((x, v),))[-RECENT_FRONTS_MAX:]
    # the constructor directly: dataclasses.replace takes the generic path
    # over every field and costs more than the feedback forcing
    return MindState(position=x, velocity=v, params=params, rng=state.rng, time=t,
                     context=context, values=values, history=history, recent_fronts=recent,
                     last_error=error, last_activation=activation)
