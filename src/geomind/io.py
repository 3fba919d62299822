"""File formats: token fields, input schedules and trajectory export.

All JSON output is written deterministically (fixed key order, no
timestamps) and floats round-trip exactly through their shortest decimal
representation.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import FieldFormatError
from .geodesic import GeodesicState, Trajectory
from .manifold import TokenField, _token_arrays

FORMATS = ("json", "csv")


def refuse_constant(name: str):
    """parse_constant hook for json.loads: NaN, Infinity and -Infinity are
    not standard JSON, and no input number may be non-finite."""
    raise ValueError(f"{name} is not allowed; numbers must be finite")


def finite_float(text: str) -> float:
    """parse_float hook for json.loads that refuses a number, such as 1e999,
    that overflows to infinity. It costs a call per number, so it is for
    small files; the token checks cover field files."""
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"{text} is not allowed; numbers must be finite")
    return value


def write_json(path: Union[str, Path], payload) -> None:
    """Write an artifact as indented strict JSON; a NaN or infinity in the
    payload raises ValueError instead of writing non-standard JSON."""
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _read_json(path: Union[str, Path]) -> object:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise FieldFormatError(f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text, parse_constant=refuse_constant)
    except json.JSONDecodeError as exc:
        raise FieldFormatError(
            f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
        ) from exc
    except ValueError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc


def load_field(path: Union[str, Path]) -> TokenField:
    """Parse a token-field JSON file.

    Expected shape: {"dimension": D, "bandwidth": h, "epsilon": eps,
    "tokens": [{"id", "mean", "covariance"?, "weight"?}, ...]} where a
    covariance is either a diagonal list of length D or a full DxD matrix.
    Missing covariance defaults to zero, missing weight to 1.0.
    """
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FieldFormatError(f"{path}: top level must be an object")
    try:
        dimension = int(data["dimension"])
    except KeyError:
        raise FieldFormatError(f"{path}: missing 'dimension'")
    bandwidth = float(data.get("bandwidth", 1.0))
    epsilon = float(data.get("epsilon", 1.0))
    entries = data.get("tokens", [])

    def row(entry) -> tuple:
        try:
            token_id = int(entry["id"])
            mean = np.asarray(entry["mean"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldFormatError(f"token entry missing id or mean: {entry!r}") from exc
        cov = entry.get("covariance")
        cov = np.zeros((dimension, dimension)) if cov is None else cov
        try:
            weight = float(entry.get("weight", 1.0))
        except (TypeError, ValueError) as exc:
            # re-raised below as a FieldFormatError that names the file
            raise ValueError(f"token {token_id}: weight must be a number, "
                             f"got {entry['weight']!r}") from exc
        return token_id, mean, cov, weight

    try:
        empty = TokenField((), dimension, bandwidth, epsilon)
        return empty._replace(**_token_arrays(map(row, entries), len(entries), dimension))
    except (ValueError, OverflowError) as exc:  # ids are stored as int64
        raise FieldFormatError(f"{path}: {exc}") from exc


def field_to_dict(field: TokenField) -> dict:
    return {
        "dimension": field.dimension,
        "bandwidth": field.bandwidth,
        "epsilon": field.epsilon,
        "tokens": [
            {"id": i, "mean": mean, "covariance": cov, "weight": w}
            for i, mean, cov, w in zip(field.ids.tolist(), field.means.tolist(),
                                       field.covariances.tolist(), field.weights.tolist())
        ],
    }


def save_field(field: TokenField, path: Union[str, Path]) -> None:
    write_json(path, field_to_dict(field))


def load_input_schedule(path: Union[str, Path]) -> dict[int, np.ndarray]:
    """Parse a sparse input schedule: a JSON list of {"step", "vector"} pairs
    with distinct, non-negative steps."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise FieldFormatError(f"{path}: input schedule must be a JSON list")
    schedule: dict[int, np.ndarray] = {}
    for entry in data:
        try:
            step, vector = int(entry["step"]), np.asarray(entry["vector"], dtype=float)
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldFormatError(f"{path}: bad schedule entry {entry!r}") from exc
        if not np.isfinite(vector).all():
            raise FieldFormatError(f"{path}: step {step}: vector must be finite")
        if step < 0 or step in schedule:
            rule = "is negative" if step < 0 else "appears more than once"
            raise FieldFormatError(f"{path}: step {step} {rule}")
        schedule[step] = vector
    return schedule


def export_trajectory(traj: Trajectory, fmt: str, path: Union[str, Path]) -> None:
    """Write a trajectory as JSON or CSV; import reproduces it exactly.

    JSON holds one object per sample {t, position, velocity, token_id?};
    CSV uses the header t,p0..p{D-1},v0..v{D-1},token_id with an empty
    token_id on samples without an activation. A truncated trajectory's CSV
    ends with the line truncated,<dt>, which also keeps dt when fewer than
    two samples remain.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown export format {fmt!r}; expected one of {FORMATS}")
    activation_at = {t: tid for t, tid in traj.activations}
    if fmt == "json":
        payload = {
            "dt": traj.dt,
            "truncated": traj.truncated,
            "samples": [],
        }
        for s in traj.samples:
            entry = {
                "t": s.time,
                "position": s.position.tolist(),
                "velocity": s.velocity.tolist(),
            }
            if s.time in activation_at:
                entry["token_id"] = activation_at[s.time]
            payload["samples"].append(entry)
        write_json(path, payload)
        return
    d = traj.dim
    header = ["t"] + [f"p{k}" for k in range(d)] + [f"v{k}" for k in range(d)] + ["token_id"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for s in traj.samples:
            token = activation_at.get(s.time, "")
            row = ([repr(float(s.time))] + [repr(float(x)) for x in s.position]
                   + [repr(float(x)) for x in s.velocity] + [token])
            writer.writerow(row)
        if traj.truncated:
            writer.writerow(["truncated", repr(float(traj.dt))])


def import_trajectory(path: Union[str, Path], fmt: Optional[str] = None) -> Trajectory:
    """Read back a trajectory written by export_trajectory."""
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    samples, activations = [], []
    if fmt == "json":
        data = _read_json(path)
        for entry in data["samples"]:
            state = GeodesicState(np.asarray(entry["position"], dtype=float),
                                  np.asarray(entry["velocity"], dtype=float),
                                  float(entry["t"]))
            samples.append(state)
            if "token_id" in entry:
                activations.append((state.time, int(entry["token_id"])))
        return Trajectory(samples=samples, dt=float(data["dt"]),
                          activations=activations, truncated=bool(data["truncated"]))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        d = (len(header) - 2) // 2
        dt = None
        for row in reader:
            if row[0] == "truncated":
                dt = float(row[1])
                break
            t = float(row[0])
            pos = np.array([float(x) for x in row[1:1 + d]])
            vel = np.array([float(x) for x in row[1 + d:1 + 2 * d]])
            samples.append(GeodesicState(pos, vel, t))
            if row[-1] != "":
                activations.append((t, int(row[-1])))
    truncated = dt is not None
    if not truncated:
        dt = samples[1].time - samples[0].time if len(samples) > 1 else 1.0
    return Trajectory(samples=samples, dt=dt, activations=activations, truncated=truncated)
