"""Run configuration: parsing and validation of the JSON config file.

A rule the library holds too is the library's, called at load, before any
output directory exists: manifold._as_dt, _as_int (through io.whole_number)
and _as_vector, and CognitionParams for the shapes of its two matrices.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .cognition import CognitionParams, window_steps
from .errors import ConfigError, GeomindError
from .geodesic import ShootingOptions
from .io import (FORMATS, _read_json, finite_number, load_field, load_input_schedule,
                 numbers, whole_number)
from .manifold import (ConformalFieldMetric, FlatMetric, MetricSource,
                       SphereMetric, TokenField, _as_dt, _as_vector)


def _matrix(raw, dim: int, name: str) -> np.ndarray:
    # CognitionParams checks its shape against the bias, which _vector ties to D
    return np.eye(dim) if raw is None or raw == "identity" else numbers(raw, name)


def _vector(raw, dim: int, name: str) -> np.ndarray:
    vector = np.zeros(dim) if raw is None or raw == "zero" else numbers(raw, name)
    return _as_vector(vector, dim, name)


@dataclass
class RunConfig:
    """Validated configuration for one CLI command."""

    field: TokenField
    metric: MetricSource
    params: CognitionParams
    steps: int
    dt: float
    seeds: list[int]
    inputs: dict[int, np.ndarray]
    start: Optional[np.ndarray]
    velocity: Optional[np.ndarray]
    threshold: float
    learning_rate: float
    learning_cycles: int
    learning_input: Optional[np.ndarray]
    geodesic_start: Optional[np.ndarray]
    geodesic_end: Optional[np.ndarray]
    shooting: ShootingOptions
    out_dir: Path
    fmt: str


def load_config(path, out_override=None, seed_override: Optional[Sequence[int]] = None) -> RunConfig:
    """Read, validate and resolve a config file into a RunConfig.

    Any malformed value ends in ConfigError; an error in a field or input
    schedule file stays a FieldFormatError. io.numbers reads every number.
    """
    path = Path(path)
    raw = _read_json(path, dict, ConfigError)
    try:
        return _resolve(raw, path, out_override, seed_override)
    except GeomindError:
        raise
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        # a value of the wrong type or range, or a section that is not an object
        raise ConfigError(f"{path}: {exc}") from exc


def _resolve(raw: dict, path: Path, out_override, seed_override) -> RunConfig:
    field_path = raw.get("field")
    if field_path is None:
        raise ConfigError("config must name a 'field' file")
    # joining an absolute path keeps it as it is
    field = load_field(path.parent / field_path)
    dim = field.dimension

    metric_raw = raw.get("metric", {"kind": "field"})
    kind = metric_raw.get("kind", "field")
    if kind == "field":
        metric: MetricSource = ConformalFieldMetric(field)
    elif kind == "flat":
        metric = FlatMetric(dim, finite_number(metric_raw.get("scale", 1.0), "metric.scale"))
    elif kind == "sphere":
        if dim != 2:
            raise ConfigError("sphere metric requires a 2-dimensional field")
        metric = SphereMetric(finite_number(metric_raw.get("radius", 1.0), "metric.radius"))
    else:
        raise ConfigError(f"metric kind must be field, flat or sphere, got {kind!r}")

    cog = raw.get("cognition", {})
    params = CognitionParams(
        value_matrix=_matrix(cog.get("value_matrix"), dim, "value_matrix"),
        predictor_matrix=_matrix(cog.get("predictor_matrix"), dim, "predictor_matrix"),
        bias=_vector(cog.get("bias"), dim, "bias"),
        activation=cog.get("activation", "identity"),
        input_blend=finite_number(cog.get("beta", 0.0), "cognition.beta"),
        feedback_gain=finite_number(cog.get("feedback_gain", 1.0), "cognition.feedback_gain"),
        kappa=finite_number(cog.get("kappa", 0.0), "cognition.kappa"),
        attention_temperature=(finite_number(cog["attention_temperature"],
                                             "cognition.attention_temperature")
                               if "attention_temperature" in cog else None),
        context_capacity=whole_number(cog.get("context_capacity", 16),
                                      "cognition.context_capacity"),
        predictor=cog.get("predictor", "contextual"),
        geometric_window=finite_number(cog.get("geometric_window", 0.1),
                                       "cognition.geometric_window"),
    )

    sim, learn = raw.get("simulation", {}), raw.get("learning", {})
    steps = whole_number(sim.get("steps", 100), "simulation.steps", 1)
    learning_cycles = whole_number(learn.get("cycles", 50), "learning.cycles", 1)
    dt = finite_number(sim.get("dt", 0.01), "simulation.dt")
    for count, name in ((steps, "simulation.steps"), (learning_cycles, "learning.cycles")):
        # a flow's last time is count * dt; an int past float range raises OverflowError
        if not math.isfinite(count * dt):
            raise ConfigError(f"simulation.dt {dt} times {name} {count} must be finite")
    _as_dt(dt, "simulation.dt")
    if params.predictor == "geometric":
        window_steps(params.geometric_window, dt)
    seeds = [whole_number(s, "seed")
             for s in (seed_override if seed_override else sim.get("seeds", [0]))]
    if not seeds:
        raise ConfigError("at least one seed is required")
    if len(set(seeds)) != len(seeds):
        raise ConfigError("seeds must be unique")
    if min(seeds) < 0:
        raise ConfigError(f"seeds must be non-negative, got {min(seeds)}")
    schedule_path = sim.get("inputs")
    inputs = {} if schedule_path is None else load_input_schedule(path.parent / schedule_path)
    for step, vec in inputs.items():
        _as_vector(vec, dim, f"input schedule step {step}: vector")
    start = _vector(sim["start"], dim, "start") if "start" in sim else None
    velocity = _vector(sim["velocity"], dim, "velocity") if "velocity" in sim else None

    threshold = finite_number(raw.get("competition", {}).get("threshold", 0.0),
                              "competition.threshold")

    learning_rate = finite_number(learn.get("rate", 0.2), "learning.rate")
    if not 0.0 <= learning_rate <= 1.0:
        raise ConfigError(f"learning.rate must lie in [0, 1], got {learning_rate}")
    learning_input = _vector(learn["input"], dim, "learning input") if "input" in learn else None

    geo = raw.get("geodesic", {})
    geodesic_start = _vector(geo["start"], dim, "geodesic start") if "start" in geo else None
    geodesic_end = _vector(geo["end"], dim, "geodesic end") if "end" in geo else None
    if (geodesic_start is not None and geodesic_end is not None
            and np.array_equal(geodesic_start, geodesic_end)):
        raise ConfigError("geodesic start and end must differ")
    shooting = ShootingOptions(
        tol=finite_number(geo.get("tol", 1e-6), "geodesic.tol"),
        max_iters=whole_number(geo.get("max_iters", 50), "geodesic.max_iters"),
        steps=whole_number(geo.get("steps", 200), "geodesic.steps"))

    out = raw.get("output", {})
    out_dir = Path(out_override) if out_override else Path(out.get("directory", "out"))
    fmt = out.get("format", "json")
    if fmt not in FORMATS:
        raise ConfigError(f"output format must be one of {FORMATS}, got {fmt!r}")

    return RunConfig(
        field=field, metric=metric, params=params,
        steps=steps, dt=dt, seeds=seeds, inputs=inputs, start=start, velocity=velocity,
        threshold=threshold, learning_rate=learning_rate, learning_cycles=learning_cycles,
        learning_input=learning_input, geodesic_start=geodesic_start,
        geodesic_end=geodesic_end, shooting=shooting, out_dir=out_dir, fmt=fmt,
    )
