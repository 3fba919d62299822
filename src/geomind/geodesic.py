"""Geodesic integration, path measurement and the two-point boundary solver.

The flow state is integrated with fixed-step RK4 on the first-order system
x' = v, v'^m = -Gamma^m_{nl} v^n v^l + F^m, with F a forcing vector held
constant over the step. No forcing recovers the plain geodesic equation.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from .errors import ChartDomainError, ChartExitError, NoGeodesicError
from .manifold import MetricSource, _as_vector

logger = logging.getLogger(__name__)

# Shooting: finite-difference step of the Jacobian, relative to max(1, |v|),
# and the number of step halvings before an iteration gives up.
JACOBIAN_STEP = 1e-6
MAX_BACKTRACKS = 12


@dataclass
class Trajectory:
    """A flow sampled every dt: (T, D) positions and velocities at the (T,)
    times, plus the (time, token id) activation record."""

    positions: np.ndarray
    velocities: np.ndarray
    times: np.ndarray
    dt: float
    activations: list[tuple[float, int]] = dc_field(default_factory=list)
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.times)


def _acceleration(source: MetricSource, pos, vel, f: np.ndarray) -> np.ndarray:
    source.check_domain(pos)
    gamma = source.christoffel(pos)
    acc = -np.einsum("mnl,n,l->m", gamma, vel, vel)
    return acc + f


def geodesic_step(x, v, source: MetricSource, forcing: Optional[np.ndarray],
                  dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of the geodesic equation forced by a constant vector.

    Returns the new (position, velocity). forcing is a D-vector held over the
    whole step, or None for no forcing. Raises ChartExitError if any stage
    point leaves the chart domain; x and v are then the last valid state.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    x = _as_vector(x, source.dim, "position")
    v = _as_vector(v, source.dim, "velocity")
    # adding zeros keeps unforced and zero-forced steps bitwise equal
    f = np.zeros(source.dim) if forcing is None else _as_vector(forcing, source.dim, "forcing")
    try:
        k1x = v
        k1v = _acceleration(source, x, v, f)
        k2x = v + 0.5 * dt * k1v
        k2v = _acceleration(source, x + 0.5 * dt * k1x, k2x, f)
        k3x = v + 0.5 * dt * k2v
        k3v = _acceleration(source, x + 0.5 * dt * k2x, k3x, f)
        k4x = v + dt * k3v
        k4v = _acceleration(source, x + dt * k3x, k4x, f)
        x_new = x + (dt / 6.0) * (k1x + 2.0 * k2x + 2.0 * k3x + k4x)
        v_new = v + (dt / 6.0) * (k1v + 2.0 * k2v + 2.0 * k3v + k4v)
        source.check_domain(x_new)
    except ChartDomainError as exc:
        raise ChartExitError(f"left chart domain during step: {exc}") from exc
    return x_new, v_new


def integrate_geodesic(position, velocity, source: MetricSource,
                       forcing: Optional[np.ndarray] = None,
                       horizon: float = 1.0, dt: float = 1e-3) -> Trajectory:
    """Integrate from t = 0 for floor(horizon/dt) steps, returning
    floor(horizon/dt)+1 samples.

    A chart exit truncates the trajectory at the last valid state and sets
    the truncated flag instead of raising.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    if horizon < dt:
        raise ValueError("horizon must be at least dt")
    n_steps = int(np.floor(horizon / dt + 1e-12))
    x = _as_vector(position, source.dim, "position")
    v = _as_vector(velocity, source.dim, "velocity")
    positions, velocities, times = [x], [v], [0.0]
    truncated = False
    for _ in range(n_steps):
        try:
            x, v = geodesic_step(x, v, source, forcing, dt)
        except ChartExitError:
            truncated = True
            break
        positions.append(x)
        velocities.append(v)
        # t + dt, as cycle_step keeps time; k * dt differs in the last bits
        times.append(times[-1] + dt)
    return Trajectory(np.stack(positions), np.stack(velocities), np.array(times), dt,
                      truncated=truncated)


def path_length_energy(traj: Trajectory, source: MetricSource) -> tuple[float, float]:
    """Metric length and kinetic energy of a sampled path.

    length = integral of sqrt(v^T g v) dt, energy = 1/2 integral of v^T g v dt,
    both by the trapezoidal rule on the sampled integrand.
    """
    if len(traj) < 2:
        raise ValueError("trajectory needs at least 2 samples")
    speed_sq = np.array([
        float(v @ source.metric(x) @ v) for x, v in zip(traj.positions, traj.velocities)
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

    def __post_init__(self):
        if self.steps < 1 or self.max_iters < 0 or not self.tol > 0:
            raise ValueError(f"shooting needs steps >= 1, max_iters >= 0 and tol > 0, got {self}")


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
        traj = integrate_geodesic(a, velocity, source, None, horizon=1.0, dt=1.0 / opts.steps)
        if traj.truncated:
            return None, np.inf, traj
        miss = traj.positions[-1] - b
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
        h = JACOBIAN_STEP * max(1.0, float(np.linalg.norm(velocity)))
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
        for _ in range(MAX_BACKTRACKS):
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
