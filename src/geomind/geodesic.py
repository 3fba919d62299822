"""Geodesic integration, path measurement and the two-point boundary solver.

The flow state is integrated with fixed-step RK4 on the first-order system
x' = v, v'^m = -Gamma^m_{nl} v^n v^l + F^m(state). The zero forcing function
recovers the plain geodesic equation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field
from typing import Callable, Optional

import numpy as np

from .errors import ChartDomainError, ChartExitError, NoGeodesicError
from .manifold import MetricSource, _as_vector

logger = logging.getLogger(__name__)

ForcingFunction = Callable[["GeodesicState"], np.ndarray]


@dataclass(frozen=True)
class GeodesicState:
    """Position, velocity and time of the moving front."""

    position: np.ndarray
    velocity: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        pos = np.asarray(self.position, dtype=float)
        vel = np.asarray(self.velocity, dtype=float)
        if pos.ndim != 1 or vel.shape != pos.shape:
            raise ValueError("position and velocity must be vectors of equal dimension")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "velocity", vel)

    @property
    def dim(self) -> int:
        return self.position.shape[0]


@dataclass
class Trajectory:
    """Uniformly sampled states plus the (time, token id) activation record."""

    samples: list[GeodesicState]
    dt: float
    activations: list[tuple[float, int]] = dc_field(default_factory=list)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def dim(self) -> int:
        return self.samples[0].dim

    def positions(self) -> np.ndarray:
        return np.stack([s.position for s in self.samples])

    def velocities(self) -> np.ndarray:
        return np.stack([s.velocity for s in self.samples])


def zero_forcing(state: GeodesicState) -> np.ndarray:
    return np.zeros(state.dim)


def constant_forcing(vector) -> ForcingFunction:
    vec = np.asarray(vector, dtype=float)

    def forcing(state: GeodesicState) -> np.ndarray:
        return vec

    return forcing


def _acceleration(source: MetricSource, pos, vel, t, forcing: ForcingFunction) -> np.ndarray:
    source.check_domain(pos)
    gamma = source.christoffel(pos)
    acc = -np.einsum("mnl,n,l->m", gamma, vel, vel)
    return acc + forcing(GeodesicState(pos, vel, t))


def geodesic_step(state: GeodesicState, source: MetricSource,
                  forcing: Optional[ForcingFunction], dt: float) -> GeodesicState:
    """One RK4 step of the (optionally forced) geodesic equation.

    Raises ChartExitError carrying the last valid state if any stage point
    leaves the chart domain.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if state.dim != source.dim:
        raise ValueError(f"state dimension {state.dim} != metric dimension {source.dim}")
    f = forcing if forcing is not None else zero_forcing
    x, v, t = state.position, state.velocity, state.time
    try:
        k1x = v
        k1v = _acceleration(source, x, v, t, f)
        k2x = v + 0.5 * dt * k1v
        k2v = _acceleration(source, x + 0.5 * dt * k1x, k2x, t + 0.5 * dt, f)
        k3x = v + 0.5 * dt * k2v
        k3v = _acceleration(source, x + 0.5 * dt * k2x, k3x, t + 0.5 * dt, f)
        k4x = v + dt * k3v
        k4v = _acceleration(source, x + dt * k3x, k4x, t + dt, f)
        x_new = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v_new = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        source.check_domain(x_new)
    except ChartDomainError as exc:
        raise ChartExitError(f"left chart domain during step at t={t}: {exc}",
                             last_state=state) from exc
    return GeodesicState(x_new, v_new, t + dt)


def integrate_geodesic(initial: GeodesicState, source: MetricSource,
                       forcing: Optional[ForcingFunction] = None,
                       horizon: float = 1.0, dt: float = 1e-3) -> Trajectory:
    """Integrate for floor(horizon/dt) steps, returning floor(horizon/dt)+1 samples.

    A chart exit truncates the trajectory at the last valid state and sets
    the truncated flag instead of raising.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < dt:
        raise ValueError("horizon must be at least dt")
    n_steps = int(np.floor(horizon / dt + 1e-12))
    samples = [initial]
    state = initial
    truncated = False
    for _ in range(n_steps):
        try:
            state = geodesic_step(state, source, forcing, dt)
        except ChartExitError:
            truncated = True
            break
        samples.append(state)
    return Trajectory(samples=samples, dt=dt, truncated=truncated)


def path_length_energy(traj: Trajectory, source: MetricSource) -> tuple[float, float]:
    """Metric length and kinetic energy of a sampled path.

    length = integral of sqrt(v^T g v) dt, energy = 1/2 integral of v^T g v dt,
    both by the trapezoidal rule on the sampled integrand.
    """
    if len(traj) < 2:
        raise ValueError("trajectory needs at least 2 samples")
    speed_sq = np.array([
        float(s.velocity @ source.metric(s.position) @ s.velocity) for s in traj.samples
    ])
    speed = np.sqrt(np.maximum(speed_sq, 0.0))
    length = float(np.trapezoid(speed, dx=traj.dt))
    energy = 0.5 * float(np.trapezoid(speed_sq, dx=traj.dt))
    return length, energy


@dataclass(frozen=True)
class ShootingOptions:
    """Budget and tolerances for the single-shooting boundary solver."""

    tol: float = 1e-6
    max_iters: int = 50
    steps: int = 200
    fd_step: float = 1e-6
    max_backtracks: int = 12


def geodesic_between(a, b, source: MetricSource,
                     opts: ShootingOptions = ShootingOptions()) -> Trajectory:
    """Connect a to b by single shooting over the unit time interval.

    The initial velocity starts at the straight chart velocity b - a and is
    refined by damped Gauss-Newton on the endpoint miss; the step is halved
    whenever the miss would increase. Raises NoGeodesicError, read downstream
    as "no connecting path found", with the iterations run and the reason:
    max-iters, backtracks-exhausted or singular-jacobian.
    """
    a = _as_vector(a, source.dim, "a")
    b = _as_vector(b, source.dim, "b")
    if np.array_equal(a, b):
        raise ValueError("endpoints must differ")

    def shoot(velocity):
        traj = integrate_geodesic(GeodesicState(a, velocity, 0.0), source, None,
                                  horizon=1.0, dt=1.0 / opts.steps)
        if traj.truncated:
            return None, np.inf, traj
        miss = traj.samples[-1].position - b
        return miss, float(np.linalg.norm(miss)), traj

    velocity = b - a
    miss, miss_norm, traj = shoot(velocity)
    iterations, reason = opts.max_iters, "max-iters"
    for iteration in range(opts.max_iters):
        if miss is not None and miss_norm <= opts.tol:
            logger.debug("shooting converged in %d iterations, miss %.3e", iteration, miss_norm)
            return traj
        if miss is None:
            # truncated shot: retreat toward a shorter straight guess
            velocity = 0.5 * (velocity + (b - a))
            miss, miss_norm, traj = shoot(velocity)
            continue
        d = source.dim
        jac = np.empty((d, d))
        h = opts.fd_step * max(1.0, float(np.linalg.norm(velocity)))
        for k in range(d):
            e = np.zeros(d)
            e[k] = h
            miss_k, _, _ = shoot(velocity + e)
            jac[:, k] = ((miss_k - miss) / h) if miss_k is not None else 0.0
        try:
            delta = np.linalg.lstsq(jac, miss, rcond=None)[0]
        except np.linalg.LinAlgError:
            iterations, reason = iteration + 1, "singular-jacobian"
            break
        scale = 1.0
        for _ in range(opts.max_backtracks):
            trial = velocity - scale * delta
            trial_miss, trial_norm, trial_traj = shoot(trial)
            if trial_norm < miss_norm:
                velocity, miss, traj, miss_norm = trial, trial_miss, trial_traj, trial_norm
                break
            scale *= 0.5
        else:
            iterations, reason = iteration + 1, "backtracks-exhausted"
            break
    if miss is not None and miss_norm <= opts.tol:
        return traj
    raise NoGeodesicError(
        f"shooting stopped after {iterations} iterations ({reason}, miss {miss_norm:.3e})",
        miss=miss_norm, iterations=iterations, reason=reason)
