"""File formats: token fields, input schedules and trajectory export.

All JSON output is written deterministically (fixed key order, no
timestamps) and floats round-trip exactly through their shortest decimal
representation.
"""

from __future__ import annotations

import csv
import json
import math
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .errors import FieldFormatError
from .geodesic import Trajectory
from .manifold import TokenField

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


def whole_number(value, name: str) -> int:
    """value as an int when it is an int, or a float such as 3.0 with no
    fractional part; a bool or any other value raises ValueError."""
    if isinstance(value, bool) or not (
            isinstance(value, int) or isinstance(value, float) and value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def finite_number(value, name: str) -> float:
    """value as a float when it is an int or a float, not a bool; a bool, a
    string, any other value, or an int too large for a float raises
    ValueError. A float is taken as it is: the config parser refuses a
    number that overflows to infinity, and a token field refuses its own
    non-finite numbers, with the rule they break."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        raise ValueError(f"{name} must be a number within float range, got {value!r}") from None


def _float(value: float) -> str:
    text = float.__repr__(value)
    if "n" in text:  # nan, inf, -inf; no finite float's repr holds an "n"
        raise ValueError(f"Out of range float values are not JSON compliant: {text}")
    return text


def _key(key) -> str:
    if isinstance(key, str):
        return encode_basestring_ascii(key)
    if isinstance(key, float):
        return '"' + _float(key) + '"'
    if key is True or key is False or key is None:
        return '"' + _encode(key, "") + '"'
    if isinstance(key, int):
        return '"' + int.__repr__(key) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _encode(value, indent: str) -> str:
    """value as json.dumps(value, indent=2, allow_nan=False) writes it at
    nesting level indent. json's indented encoder is pure Python and makes
    a call per float; a list of floats here is one str.join."""
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = indent + "  "
        separator = ",\n" + inner
        try:
            body = separator.join(map(float.__repr__, value))
        except TypeError:  # an item is not a float
            body = separator.join([_encode(item, inner) for item in value])
        else:
            if "n" in body:
                for item in value:
                    _float(item)
        return "[\n" + inner + body + "\n" + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        body = (",\n" + inner).join([_key(k) + ": " + _encode(v, inner)
                                     for k, v in value.items()])
        return "{\n" + inner + body + "\n" + indent + "}"
    if isinstance(value, float):
        return _float(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def write_json(path: Union[str, Path], payload) -> None:
    """Write an artifact as indented strict JSON, byte-equal to
    json.dumps(payload, indent=2, allow_nan=False) plus a newline: a NaN or
    infinity raises ValueError instead of writing non-standard JSON, and an
    unsupported type raises TypeError."""
    Path(path).write_text(_encode(payload, "") + "\n")


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
    Missing covariance defaults to zero, missing weight to 1.0. The rows are
    assembled here and checked by the TokenField constructor, which takes
    the arrays over without a copy. Any error is a FieldFormatError naming
    the file.
    """
    data = _read_json(path)
    if not isinstance(data, dict):
        raise FieldFormatError(f"{path}: top level must be an object")
    try:
        dimension = whole_number(data["dimension"], "dimension")
        bandwidth, epsilon = (finite_number(data.get(name, 1.0), name)
                              for name in ("bandwidth", "epsilon"))
    except KeyError:
        raise FieldFormatError(f"{path}: missing 'dimension'")
    except ValueError as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc
    if dimension < 1:
        raise FieldFormatError(f"{path}: dimension must be positive, got {dimension}")
    entries = data.get("tokens", [])
    if not isinstance(entries, list):
        raise FieldFormatError(f"{path}: tokens must be a list, got {type(entries).__name__}")
    n = len(entries)
    ids, weights = np.empty(n, dtype=np.int64), np.empty(n)
    means, covariances = np.empty((n, dimension)), np.zeros((n, dimension, dimension))
    try:
        for k, entry in enumerate(entries):
            try:
                token_id = whole_number(entry["id"], "token id")
                mean = np.asarray(entry["mean"], dtype=float)
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad token entry {entry!r}: {exc}") from exc
            if mean.shape != (dimension,):
                raise ValueError(f"token {token_id}: mean must be a vector of length {dimension}")
            cov = entry.get("covariance")
            if cov is not None:  # a missing covariance stays zero
                cov = np.asarray(cov, dtype=float)
                if cov.shape == (dimension,):
                    covariances[k].flat[::dimension + 1] = cov  # off-diagonal stays zero
                elif cov.shape == (dimension, dimension):
                    covariances[k] = cov
                else:
                    raise ValueError(f"token {token_id}: covariance must be a diagonal of length "
                                     f"{dimension} or a {dimension}x{dimension} matrix")
            weight = finite_number(entry.get("weight", 1.0), f"token {token_id}: weight")
            ids[k], means[k], weights[k] = token_id, mean, weight
        return TokenField(ids, means, covariances, weights, bandwidth, epsilon)
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
    with distinct, non-negative steps, each vector a list of JSON numbers."""
    data = _read_json(path)
    if not isinstance(data, list):
        raise FieldFormatError(f"{path}: input schedule must be a JSON list")
    schedule: dict[int, np.ndarray] = {}
    for entry in data:
        try:
            step = whole_number(entry["step"], "step")
            if not isinstance(entry["vector"], list):
                raise ValueError("vector must be a list of numbers")
            vector = np.array([finite_number(v, "vector entry") for v in entry["vector"]])
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldFormatError(f"{path}: bad schedule entry {entry!r}: {exc}") from exc
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
    ends with the line truncated,<dt>, and any other trajectory of fewer than
    two samples with dt,<dt>, so dt survives where the times cannot give it.
    """
    if fmt not in FORMATS:
        raise ValueError(f"unknown export format {fmt!r}; expected one of {FORMATS}")
    activation_at = {t: tid for t, tid in traj.activations}
    rows = zip(traj.times.tolist(), traj.positions.tolist(), traj.velocities.tolist())
    if fmt == "json":
        samples = []
        for t, position, velocity in rows:
            entry = {"t": t, "position": position, "velocity": velocity}
            if t in activation_at:
                entry["token_id"] = activation_at[t]
            samples.append(entry)
        write_json(path, {"dt": traj.dt, "truncated": traj.truncated, "samples": samples})
        return
    d = traj.positions.shape[1]
    header = ["t"] + [f"p{k}" for k in range(d)] + [f"v{k}" for k in range(d)] + ["token_id"]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for t, position, velocity in rows:
            writer.writerow([repr(t)] + list(map(repr, position)) + list(map(repr, velocity))
                            + [activation_at.get(t, "")])
        if traj.truncated:
            writer.writerow(["truncated", repr(float(traj.dt))])
        elif len(traj) < 2:
            writer.writerow(["dt", repr(float(traj.dt))])


def import_trajectory(path: Union[str, Path], fmt: Optional[str] = None) -> Trajectory:
    """Read back a trajectory written by export_trajectory.

    fmt defaults to the file suffix: .csv is CSV, anything else JSON. An
    unknown fmt raises ValueError. A file that cannot be read, lacks a key
    or holds no samples, or positions and velocities of unequal lengths,
    raises FieldFormatError naming the file; so does a CSV file of fewer than
    two samples without a truncated or dt line.
    """
    path = Path(path)
    if fmt is None:
        fmt = "csv" if path.suffix.lower() == ".csv" else "json"
    if fmt not in FORMATS:
        raise ValueError(f"unknown import format {fmt!r}; expected one of {FORMATS}")
    data = _read_json(path) if fmt == "json" else None
    times, positions, velocities, activations = [], [], [], []
    dt, truncated = None, False
    try:
        if fmt == "json":
            dt, truncated = float(data["dt"]), data["truncated"]
            if not isinstance(truncated, bool):
                raise ValueError(f"truncated must be true or false, got {truncated!r}")
            for entry in data["samples"]:
                times.append(float(entry["t"]))
                positions.append(entry["position"])
                velocities.append(entry["velocity"])
                if "token_id" in entry:
                    activations.append((times[-1], int(entry["token_id"])))
        else:
            with open(path, newline="") as fh:
                reader = csv.reader(fh)
                width = len(next(reader, ()))
                d = (width - 2) // 2
                for row in reader:
                    if row[:1] == ["truncated"]:
                        dt, truncated = float(row[1]), True
                        break
                    if row[:1] == ["dt"]:
                        dt = float(row[1])
                        break
                    if len(row) != width:
                        raise ValueError(f"line {reader.line_num} has {len(row)} fields, "
                                         f"the header {width}")
                    times.append(float(row[0]))
                    positions.append(list(map(float, row[1:1 + d])))
                    velocities.append(list(map(float, row[1 + d:1 + 2 * d])))
                    if row[-1] != "":
                        activations.append((times[-1], int(row[-1])))
            if dt is None:
                if len(times) < 2:
                    raise ValueError("fewer than two samples and no dt line")
                dt = times[1] - times[0]
        positions = np.array(positions, dtype=float)
        velocities = np.array(velocities, dtype=float)
    except OSError as exc:
        raise FieldFormatError(f"cannot read {path}: {exc}") from exc
    except KeyError as exc:
        raise FieldFormatError(f"{path}: missing key {exc}") from exc
    except (IndexError, TypeError, ValueError) as exc:
        raise FieldFormatError(f"{path}: {exc}") from exc
    if positions.ndim != 2 or velocities.shape != positions.shape:
        raise FieldFormatError(f"{path}: expected samples, each with a position "
                               "and a velocity of one equal length")
    return Trajectory(positions, velocities, np.array(times), dt, activations, truncated)
