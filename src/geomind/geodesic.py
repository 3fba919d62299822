"""Geodesic integration, path measurement and the two-point boundary solver.

The flow state is integrated with fixed-step RK4 on the first-order system
x' = v, v'^m = -Gamma^m_{nl} v^n v^l + F^m, with F a forcing vector held
constant over the step. No forcing recovers the plain geodesic equation.

geodesic_step and integrate_geodesic take one (D,) state or a (B, D) batch
of rows. A batch is row-invariant: each row gets exactly the bits of its
own run, because the metric sources evaluate a batch with elementwise
arithmetic and per-row stacked products only. So the shooting solver
integrates every shot together with its D Jacobian probes as one batch of
D + 1 rows and keeps the results of one shot and D probe shots bitwise.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ChartDomainError, ChartExitError, NoGeodesicError
from .manifold import MetricSource, _as_int, _as_vector

logger = logging.getLogger(__name__)

# Shooting: finite-difference step of the Jacobian, relative to max(1, |v|),
# and the number of step halvings before an iteration gives up.
JACOBIAN_STEP = 1e-6
MAX_BACKTRACKS = 12


@dataclass
class Trajectory:
    """A flow sampled every dt: (T, D) positions and velocities at the (T,)
    times, and token_ids, the (T,) int64 ids activated at them, or None where
    none was. integrate_geodesic on a (B, D) batch gives (T, B, D) arrays."""

    positions: np.ndarray
    velocities: np.ndarray
    times: np.ndarray
    dt: float
    token_ids: Optional[np.ndarray] = None
    truncated: bool = False

    def __len__(self) -> int:
        return len(self.times)


def _acceleration(source: MetricSource, pos, vel, f: np.ndarray) -> np.ndarray:
    source.check_domain(pos)
    # f - e is f + (-e) in IEEE arithmetic, signed zeros included, so this is
    # -e + f bitwise in one ufunc call; the ellipsis takes a (D,) row or a
    # (B, D) batch
    return f - np.einsum("...mnl,...n,...l->...m", source.christoffel(pos), vel, vel)


def geodesic_step(x, v, source: MetricSource, forcing: Optional[np.ndarray],
                  dt: float) -> tuple[np.ndarray, np.ndarray]:
    """One RK4 step of the geodesic equation forced by a constant vector.

    x and v are one (D,) state or a (B, D) batch of rows, stepped together;
    each row gets exactly the bits it gets alone. Returns the new
    (position, velocity). forcing is a D-vector held over the whole step and
    shared by all rows, or None for no forcing. Raises ChartExitError if any
    stage point of any row leaves the chart domain; x and v are then the last
    valid state. dt must satisfy 0 < dt < inf, else ValueError.
    """
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    x = _as_vector(x, source.dim, "position", batch=True)
    v = _as_vector(v, source.dim, "velocity", batch=True)
    if v.shape != x.shape:
        raise ValueError(f"velocity must have dimension {source.dim} and the position's "
                         f"shape {x.shape}, got shape {v.shape}")
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
                       steps: int = 1000, dt: float = 1e-3) -> Trajectory:
    """Integrate from t = 0 for the given number of steps of dt, returning
    steps + 1 samples. steps is an int of at least 0 (manifold._as_int) and
    dt must satisfy 0 < dt < inf, else ValueError.

    A (B, D) batch of positions and velocities gives (T, B, D) positions and
    velocities, each row bitwise equal to its own run up to the batch's end.
    A chart exit truncates the trajectory at the last valid state and sets
    the truncated flag instead of raising; in a batch, the first row to
    leave the chart truncates them all.
    """
    steps = _as_int(steps, "steps", 0)
    if not 0 < dt < np.inf:
        raise ValueError("dt must be positive and finite")
    x = _as_vector(position, source.dim, "position", batch=True)
    v = _as_vector(velocity, source.dim, "velocity", batch=True)
    positions, velocities, times = [x], [v], [0.0]
    truncated = False
    for _ in range(steps):
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


@np.errstate(over="ignore", invalid="ignore")
def path_length_energy(traj: Trajectory, source: MetricSource) -> tuple[float, float]:
    """Metric length and kinetic energy of a sampled path.

    length = integral of sqrt(v^T g v) dt, energy = 1/2 integral of v^T g v dt,
    both by the trapezoidal rule on the sampled integrand, inf on overflow.
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
    """Budget and tolerances for the single-shooting boundary solver: steps
    an int of at least 1, max_iters one of at least 0 (manifold._as_int)
    and tol > 0, else ValueError."""

    tol: float = 1e-6
    max_iters: int = 50
    steps: int = 200

    def __post_init__(self):
        _as_int(self.steps, "shooting steps", 1)
        _as_int(self.max_iters, "shooting max_iters", 0)
        if not self.tol > 0:
            raise ValueError(f"shooting needs tol > 0, got {self.tol!r}")


def _shoot(a: np.ndarray, b: np.ndarray, velocity: np.ndarray, source: MetricSource,
           steps: int):
    """One shot from a with the given initial velocity, and its Jacobian probes.

    The rows [v; v + h e_1; ...; v + h e_D], h = JACOBIAN_STEP max(1, |v|),
    are integrated together over the unit interval. Returns the endpoint miss
    of row 0 (None if it left the chart), its norm (inf then), row 0's
    Trajectory and the finite-difference Jacobian of the miss, whose column
    is zero for a probe that left the chart (None with row 0). If any row
    leaves the chart, the rows run again one at a time, so every rule is the
    one a single row follows.
    """
    d = len(velocity)
    with np.errstate(over="ignore"):
        speed = float(np.linalg.norm(velocity))
    if speed == np.inf and np.isfinite(velocity).all():
        # norm squares without scaling, so a speed above about 1.3e154 overflows
        top = float(np.abs(velocity).max())
        speed = top * float(np.linalg.norm(velocity / top))
    h = JACOBIAN_STEP * max(1.0, speed)
    rows = np.vstack([velocity, velocity + h * np.eye(d)])
    batch = integrate_geodesic(np.tile(a, (d + 1, 1)), rows, source, None, steps, 1.0 / steps)
    if not batch.truncated:
        ends = list(batch.positions[-1])
        # contiguous, as a single run's arrays are, for the BLAS calls on its rows
        traj = Trajectory(np.ascontiguousarray(batch.positions[:, 0]),
                          np.ascontiguousarray(batch.velocities[:, 0]), batch.times, batch.dt)
    else:
        traj = integrate_geodesic(a, velocity, source, None, steps, 1.0 / steps)
        if traj.truncated:
            return None, np.inf, traj, None
        ends = [traj.positions[-1]]
        for row in rows[1:]:
            probe = integrate_geodesic(a, row, source, None, steps, 1.0 / steps)
            ends.append(None if probe.truncated else probe.positions[-1])
    miss = ends[0] - b
    jac = np.zeros((d, d))
    for k, end in enumerate(ends[1:]):
        if end is not None:
            jac[:, k] = ((end - b) - miss) / h
    return miss, float(np.linalg.norm(miss)), traj, jac


@np.errstate(over="ignore", invalid="ignore")
def geodesic_between(a, b, source: MetricSource,
                     opts: ShootingOptions = ShootingOptions()) -> Trajectory:
    """Connect a to b by single shooting over the unit time interval.

    The initial velocity starts at the straight chart velocity b - a and is
    refined by damped Gauss-Newton on the endpoint miss; the step is halved
    whenever the miss would increase. Every shot carries its D Jacobian
    probes as one batch (_shoot), so a solve of k iterations without
    backtracking makes 1 + k shots of D + 1 rows. Raises NoGeodesicError,
    read downstream as "no connecting path found", with the iterations run
    and the reason: max-iters, backtracks-exhausted or singular-jacobian,
    which a Jacobian or miss that is not finite also gives.
    """
    a = _as_vector(a, source.dim, "a")
    b = _as_vector(b, source.dim, "b")
    if np.array_equal(a, b):
        raise ValueError("endpoints must differ")

    velocity = b - a
    miss, miss_norm, traj, jac = _shoot(a, b, velocity, source, opts.steps)
    iterations, reason = opts.max_iters, "max-iters"
    for iteration in range(opts.max_iters):
        if miss is not None and miss_norm <= opts.tol:
            logger.debug("shooting converged in %d iterations, miss %.3e", iteration, miss_norm)
            return traj
        if miss is None:
            # truncated shot: retreat toward a shorter straight guess
            velocity = 0.5 * (velocity + (b - a))
            miss, miss_norm, traj, jac = _shoot(a, b, velocity, source, opts.steps)
            logger.debug("shooting iteration %d: the shot left the chart, retreating toward "
                         "b - a; miss %.3e", iteration + 1, miss_norm)
            continue
        try:
            if not (np.isfinite(jac).all() and np.isfinite(miss).all()):
                raise np.linalg.LinAlgError  # before LAPACK prints an illegal-value line
            delta = np.linalg.lstsq(jac, miss, rcond=None)[0]
        except np.linalg.LinAlgError:
            iterations, reason = iteration + 1, "singular-jacobian"
            break
        scale = 1.0
        for backtracks in range(MAX_BACKTRACKS):
            trial = velocity - scale * delta
            shot = _shoot(a, b, trial, source, opts.steps)
            if shot[1] < miss_norm:
                velocity, (miss, miss_norm, traj, jac) = trial, shot
                break
            scale *= 0.5
        else:
            iterations, reason = iteration + 1, "backtracks-exhausted"
            break
        logger.debug("shooting iteration %d: miss %.3e, step scale %g, %d backtracks, "
                     "%d rows per shot", iteration + 1, miss_norm, scale, backtracks,
                     source.dim + 1)
    if miss is not None and miss_norm <= opts.tol:
        return traj
    raise NoGeodesicError(
        f"shooting stopped after {iterations} iterations ({reason}, miss {miss_norm:.3e})",
        miss=miss_norm, iterations=iterations, reason=reason)
