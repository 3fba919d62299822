"""File formats: token fields, input schedules, trajectory export and the
field report.

All JSON output is written deterministically (fixed key order, no
timestamps) and floats round-trip exactly through their shortest decimal
representation. Every JSON byte comes from json.dumps(indent=2,
allow_nan=False), directly or through the row templates of _template, which
the three float tables take: snapshot token rows, trajectory samples and
the field report's curvature samples.
"""

from __future__ import annotations

import csv
import functools
import json
import logging
import math
from itertools import chain
from pathlib import Path
from typing import Optional, Sequence, Union

import numpy as np

from .errors import FieldFormatError
from .geodesic import Trajectory
from .manifold import TokenField, _as_int
from .mind import FieldReport

FORMATS = ("json", "csv")

# save_snapshots encodes token rows, and _write_listed writes the rows of
# every listed artifact, this many at a time.
ROW_BLOCK = 256

logger = logging.getLogger(__name__)


def _refuse_constant(text: str):
    """json.loads parse_constant hook: JSON has no NaN, Infinity or -Infinity."""
    raise ValueError(f"{text} is not allowed; numbers must be finite")


def whole_number(value, name: str, floor: Optional[int] = None) -> int:
    """value as an int when it is an int, or a float such as 3.0 with no
    fractional part, and at least floor when one is given (manifold._as_int);
    a bool or any other value raises ValueError."""
    if not (type(value) is int or type(value) is float and value.is_integer()):
        raise ValueError(f"{name} must be a whole number, got {value!r}")
    return _as_int(int(value), name, floor)


def _as_format(fmt, name: str = "export format") -> str:
    """fmt when it is one of FORMATS, else ValueError."""
    if fmt not in FORMATS:
        raise ValueError(f"{name} must be one of {FORMATS}, got {fmt!r}")
    return fmt


def numbers(raw, name: str) -> np.ndarray:
    """raw, a JSON number or a rectangular nest of lists of them, as a float
    array whose shape the caller checks: the one rule of what counts as a
    number in a JSON input file. A bool, string, null, object, ragged list,
    int beyond float range, NaN or infinity (1e999) raises ValueError."""
    try:
        array = np.asarray(raw, dtype=float)
        leaves = raw if array.ndim else (raw,)
        for _ in range(array.ndim - 1):
            leaves = chain.from_iterable(leaves)
        if set(map(type, leaves)) <= {int, float} and np.isfinite(array).all():
            return array
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a number or a rectangular array of numbers, "
                     f"all finite and within float range, got {raw!r:.80}")


def finite_number(value, name: str) -> float:
    """value as a finite float when it is a single number by the rule of numbers."""
    array = numbers(value, name)
    if array.ndim:
        raise ValueError(f"{name} must be a number, got {value!r:.80}")
    return float(array)


def write_json(path: Union[str, Path], payload) -> None:
    """Write an artifact as json.dumps(payload, indent=2, allow_nan=False)
    plus a newline, encoded before the file is opened: a NaN or infinity
    raises ValueError instead of writing non-standard JSON, an unsupported
    type raises TypeError, and neither leaves a file."""
    Path(path).write_text(json.dumps(payload, indent=2, allow_nan=False) + "\n")


def _template(row) -> str:
    """A %-template of row, a JSON object whose "%s" strings are slots, as
    write_json writes it two levels down, in a list of the top object, so it
    cannot drift from write_json; led by a slot for the separator before it.
    Snapshot token rows, trajectory samples and curvature samples are
    filled into templates from one float.__repr__ pass; json's indented
    encoder is pure Python."""
    text = json.dumps(row, indent=2).replace("\n", "\n    ")
    return "%s\n    " + text.replace('"%s"', "%s")


def _read_json(path: Union[str, Path], top: type, error: type = FieldFormatError):
    """The JSON value, a top (dict or list), in the file at path, with the
    literals NaN and Infinity refused; any failure raises error naming the file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise error(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text, parse_constant=_refuse_constant)
    except json.JSONDecodeError as exc:
        raise error(f"{path}: malformed JSON at line {exc.lineno} column {exc.colno}: "
                    f"{exc.msg}") from exc
    except ValueError as exc:
        raise error(f"{path}: {exc}") from exc
    if not isinstance(data, top):
        raise error(f"{path}: top level must be {'an object' if top is dict else 'a list'}")
    return data


def _token_column(values: list, ids: np.ndarray, shape: tuple, name: str, rule: str) -> np.ndarray:
    """values, one per token, as an (n, *shape) float array read in one call;
    if they do not fit, the first offending token is named by its id."""
    try:
        column = numbers(values, name)
        if column.shape[1:] == shape:
            return column
    except ValueError:
        pass
    if not values:
        return np.empty((0,) + shape)
    for token_id, value in zip(ids, values):
        if numbers(value, f"token {token_id}: {name}").shape != shape:
            raise ValueError(f"token {token_id}: {rule}")


def load_field(path: Union[str, Path]) -> TokenField:
    """Parse a token-field JSON file.

    Expected shape: {"dimension": D, "bandwidth": h, "epsilon": eps,
    "tokens": [{"id", "mean", "covariance"?, "weight"?}, ...]} where a
    covariance is either a diagonal list of length D or a full DxD matrix.
    Missing covariance defaults to zero, missing weight to 1.0. Means,
    weights, diagonal and full covariances are each read as one column and
    checked by the TokenField constructor, which takes the arrays over
    without a copy. The covariances are (n, D) diagonals when no token gives
    a full matrix, else (n, D, D). Any error is a FieldFormatError naming
    the file.
    """
    data = _read_json(path, dict)
    if "dimension" not in data:
        raise FieldFormatError(f"{path}: missing 'dimension'")
    entries = data.get("tokens", [])
    means, full, diagonal = [], [], []
    try:
        d = whole_number(data["dimension"], "dimension", 1)
        bandwidth, epsilon = (finite_number(data.get(name, 1.0), name)
                              for name in ("bandwidth", "epsilon"))
        if not isinstance(entries, list):
            raise ValueError(f"tokens must be a list, got {type(entries).__name__}")
        ids = np.empty(len(entries), dtype=np.int64)
        for k, entry in enumerate(entries):
            try:
                ids[k] = whole_number(entry["id"], "token id")
                means.append(entry["mean"])
            except (KeyError, TypeError, ValueError) as exc:
                raise ValueError(f"bad token entry {entry!r}: {exc}") from exc
            cov = entry.get("covariance")
            if cov is not None:  # a missing covariance stays zero
                (full if type(cov) is list and cov and type(cov[0]) is list else diagonal).append(k)
        means = _token_column(means, ids, (d,), "mean", f"mean must be a vector of length {d}")
        weights = _token_column([entry.get("weight", 1.0) for entry in entries], ids, (),
                                "weight", "weight must be a number")
        covariances = np.zeros((len(ids), d, d) if full else (len(ids), d))
        # with full matrices, an (n, D) view of their diagonals; a diagonal
        # leaves the off-diagonals zero
        diagonals = covariances.reshape(len(ids), d * d)[:, ::d + 1] if full else covariances
        rule = f"covariance must be a diagonal of length {d} or a {d}x{d} matrix"
        for rows, target in ((full, covariances), (diagonal, diagonals)):
            target[rows] = _token_column([entries[k]["covariance"] for k in rows], ids[rows],
                                         target.shape[1:], "covariance", rule)
        return TokenField(ids, means, covariances, weights, bandwidth, epsilon)
    except (ValueError, OverflowError) as exc:  # ids are stored as int64
        raise FieldFormatError(f"{path}: {exc}") from exc


def _changed_rows(field: TokenField, previous: Optional[TokenField]) -> np.ndarray:
    """The rows of field whose id, mean, covariance or weight differs bitwise
    from the same row of previous, compared as int64 so that 0.0 and -0.0
    differ; every row when there is no previous field, or n, D or the shape
    of the covariances differ."""
    if (previous is None or field.means.shape != previous.means.shape
            or field.covariances.shape != previous.covariances.shape):
        return np.arange(len(field))
    differs = np.zeros(len(field), dtype=bool)
    for name in ("ids", "means", "covariances", "weights"):
        new, old = getattr(field, name), getattr(previous, name)
        differs |= (new.view(np.int64) != old.view(np.int64)).any(axis=tuple(range(1, new.ndim)))
    return np.flatnonzero(differs)


@functools.lru_cache(maxsize=None)
def _row_template(d: int, diagonal: bool) -> str:
    """The _template of one token row in dimension d, with slots for the
    separator before the row, the id, the mean, the covariance entries (when
    diagonal, only the diagonal ones, with 0.0 written off it) and the
    weight."""
    cov = [["%s" if i == j or not diagonal else 0.0 for j in range(d)] for i in range(d)]
    return _template({"id": "%s", "mean": ["%s"] * d, "covariance": cov, "weight": "%s"})


def _encode_rows(field: TokenField, block: np.ndarray, rows: list) -> None:
    """Set rows[k], for each k of block, to the text of token row k: one
    repr pass over the block's floats, then one template fill per row. A
    row whose off-diagonals are all bitwise +0.0 takes the diagonal
    template; any other, -0.0 included, takes the full one. A row of (n, D)
    diagonals has no off-diagonal columns, so it takes the diagonal one."""
    d = field.dimension
    covariances = field.covariances[block]
    table = np.concatenate((field.means[block], covariances.reshape(len(block), -1),
                            field.weights[block, None]), axis=1)
    if not np.isfinite(table).all():  # floats in the reference's order: json raises its error
        json.dumps(table.tolist(), indent=2, allow_nan=False)
    off = (np.arange(d, d + d * d)[~np.eye(d, dtype=bool).ravel()]  # off-diagonal columns
           if covariances.ndim == 3 else np.arange(0))
    diagonal = ~table[:, off].view(np.int64).any(axis=1)
    keep = np.ones(table.shape, dtype=bool)
    keep[:, off] = ~diagonal[:, None]
    reprs = list(map(float.__repr__, table[keep].tolist()))
    widths = keep.sum(axis=1)
    templates = (_row_template(d, False), _row_template(d, True))
    for k, i, diag, end, width in zip(block.tolist(), field.ids[block].tolist(), diagonal.tolist(),
                                      np.cumsum(widths).tolist(), widths.tolist()):
        rows[k] = templates[diag] % ("[" if k == 0 else ",", i, *reprs[end - width:end])


def _write_listed(path: Union[str, Path], payload: dict, key: str, rows: Sequence[str]) -> None:
    """Write payload as write_json would, with the None that its entry key
    holds written as a list whose items' text, each led by its separator,
    is rows: one write for the head, one per ROW_BLOCK rows joined, and one
    for the tail, so at most one block's joined text exists at a time."""
    text = json.dumps(payload, indent=2, allow_nan=False)
    # a top-level key alone sits on a line indented by two spaces
    head, mark, tail = text.partition(f'\n  "{key}": null')
    with open(path, "w") as fh:
        fh.write(head + mark[:-4])
        for lo in range(0, len(rows), ROW_BLOCK):
            fh.write("".join(rows[lo:lo + ROW_BLOCK]))
        fh.write(("\n  ]" if rows else "[]") + tail + "\n")


def save_snapshots(fields: Sequence[TokenField], paths: Sequence[Union[str, Path]]) -> None:
    """Write each field to its path, byte-equal to write_json(path, payload)
    for the JSON payload {"dimension", "bandwidth", "epsilon", "tokens"},
    each token {"id", "mean", "covariance", "weight"} with its covariance as
    a D x D matrix, an (n, D) field's diagonals with +0.0 off the diagonal.

    The encoded text of every token row is kept for the length of the call,
    and a row is encoded again only when its id, mean, covariance or weight
    differs bitwise from the same row of the previous field. The first
    field, and a field whose n, D or covariance shape differs from the
    previous one, is encoded in full; the header always is. Rows are
    encoded ROW_BLOCK at a time, each through one repr pass and cached row
    templates, and written ROW_BLOCK rows per write, so no one string ever
    holds a full field's whole text.
    """
    if len(fields) != len(paths):
        raise ValueError(f"{len(fields)} fields but {len(paths)} paths")
    previous, rows = None, []
    for field, path in zip(fields, paths):
        changed = _changed_rows(field, previous)
        if len(rows) != len(field):
            rows = [""] * len(field)
        for lo in range(0, len(changed), ROW_BLOCK):
            _encode_rows(field, changed[lo:lo + ROW_BLOCK], rows)
        _write_listed(path, {"dimension": field.dimension, "bandwidth": field.bandwidth,
                             "epsilon": field.epsilon, "tokens": None}, "tokens", rows)
        logger.debug("wrote %s: %d of %d token rows encoded", path, len(changed), len(rows))
        previous = field


def save_field(field: TokenField, path: Union[str, Path]) -> None:
    save_snapshots([field], [path])


@functools.lru_cache(maxsize=None)
def _curvature_template(d: int) -> str:
    """The _template of one curvature sample in dimension d, with slots for
    the separator before it, the point and the scalar."""
    return _template({"point": ["%s"] * d, "scalar": "%s"})


def save_field_report(report: FieldReport, path: Union[str, Path]) -> None:
    """Write analyze's report, byte-equal to write_json(path, payload) of
    the payload {"curvature_samples": [{"point", "scalar"}, ...],
    "high_curvature", "percentile_cut", "components", "intrinsic_dimension"}.
    The samples are filled into a cached template from one float.__repr__
    pass over the table of report.points beside report.scalars; a NaN or
    infinity anywhere raises ValueError and writes no file."""
    table = np.column_stack((report.points, report.scalars))
    if not np.isfinite(table).all():  # floats in the payload's order: json raises its error
        json.dumps(table.tolist(), indent=2, allow_nan=False)
    template, width = _curvature_template(table.shape[1] - 1), table.shape[1]
    reprs = list(map(float.__repr__, table.ravel().tolist()))
    rows = [template % ("[" if k == 0 else ",", *reprs[k * width:(k + 1) * width])
            for k in range(len(table))]
    _write_listed(path, {"curvature_samples": None,
                         "high_curvature": report.high_curvature.tolist(),
                         "percentile_cut": report.percentile_cut,
                         "components": report.components,
                         "intrinsic_dimension": report.intrinsic_dimension},
                  "curvature_samples", rows)


def load_input_schedule(path: Union[str, Path]) -> dict[int, np.ndarray]:
    """Parse a sparse input schedule: a JSON list of {"step", "vector"} pairs
    with distinct, non-negative steps, each vector a list of JSON numbers."""
    data = _read_json(path, list)
    schedule: dict[int, np.ndarray] = {}
    for entry in data:
        try:
            step = whole_number(entry["step"], "step")
            vector = numbers(entry["vector"], "vector")
            if vector.ndim != 1:
                raise ValueError("vector must be a list of numbers")
        except (KeyError, TypeError, ValueError) as exc:
            raise FieldFormatError(f"{path}: bad schedule entry {entry!r}: {exc}") from exc
        if step < 0 or step in schedule:
            rule = "is negative" if step < 0 else "appears more than once"
            raise FieldFormatError(f"{path}: step {step} {rule}")
        schedule[step] = vector
    return schedule


@functools.lru_cache(maxsize=None)
def _sample_template(d: int, activated: bool) -> str:
    """The _template of one trajectory sample in dimension d, with slots for
    the separator before it, t, the position, the velocity and, when
    activated, the token id."""
    sample = {"t": "%s", "position": ["%s"] * d, "velocity": ["%s"] * d}
    return _template(dict(sample, token_id="%s") if activated else sample)


def export_trajectory(traj: Trajectory, fmt: str, path: Union[str, Path]) -> None:
    """Write a trajectory as JSON or CSV, every float as its repr, so that
    json.loads or float() gives back its exact bits.

    JSON holds one object per sample {t, position, velocity, token_id?},
    byte-equal to write_json of that payload, with a token_id on every
    sample or, when traj.token_ids is None, on none. CSV uses the header
    t,p0..p{D-1},v0..v{D-1},token_id with an empty token_id on every sample
    of a trajectory without ids. A truncated trajectory's CSV ends with the
    line truncated,<dt>, and any other trajectory of fewer than two samples
    with dt,<dt>, so dt survives where the times cannot give it. In either
    format a NaN or infinity raises ValueError and writes no file, as do
    times that are not (T,), positions and velocities not both (T, D), or
    token ids that are neither None nor (T,) integers.
    """
    fmt = _as_format(fmt)
    times, positions, velocities = traj.times, traj.positions, traj.velocities
    ids = None if traj.token_ids is None else np.asarray(traj.token_ids)
    if (positions.ndim != 2 or velocities.shape != positions.shape
            or times.shape != positions.shape[:1]
            or ids is not None and (ids.shape != times.shape or ids.dtype.kind not in "iu")):
        raise ValueError("a trajectory needs (T,) times and (T, D) positions and velocities, "
                         "and (T,) integer token ids or none, got shapes "
                         f"{times.shape}, {positions.shape} and {velocities.shape}"
                         + ("" if ids is None else f" and {ids.dtype} ids of shape {ids.shape}"))
    table = np.concatenate((times[:, None], positions, velocities), axis=1)
    if not (math.isfinite(traj.dt) and np.isfinite(table).all()):
        if fmt == "json":  # the error write_json gives: dt first, then the samples in order
            json.dumps([traj.dt, table.tolist()], indent=2, allow_nan=False)
        raise ValueError("a trajectory with a NaN or infinite number cannot be exported")
    d, width = positions.shape[1], table.shape[1]
    reprs = list(map(float.__repr__, table.ravel().tolist()))
    tail = [] if ids is None else ids.tolist()
    samples = [reprs[k * width:(k + 1) * width] + tail[k:k + 1] for k in range(len(times))]
    if fmt == "json":
        template = _sample_template(d, ids is not None)
        rows = [template % ("[" if k == 0 else ",", *cells) for k, cells in enumerate(samples)]
        _write_listed(path, {"dt": traj.dt, "truncated": traj.truncated, "samples": None},
                      "samples", rows)
        return
    header = ["t"] + [f"p{k}" for k in range(d)] + [f"v{k}" for k in range(d)] + ["token_id"]
    empty = [""] if ids is None else []
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for cells in samples:
            writer.writerow(cells + empty)
        if traj.truncated:
            writer.writerow(["truncated", repr(float(traj.dt))])
        elif len(traj) < 2:
            writer.writerow(["dt", repr(float(traj.dt))])
