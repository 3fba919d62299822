import csv
import dataclasses
import errno
import hashlib
import json
import logging
import math
import os
import re
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geomind import (ConfigError, FieldFormatError, SphereMetric,
                     Trajectory, export_trajectory, integrate_geodesic,
                     load_field, load_input_schedule, save_field)
from geomind.io import FORMATS, write_json as write_artifact
import geomind
from geomind.cli import COMMANDS, main, run
from geomind.cognition import window_steps
from geomind.config import load_config
from geomind.mind import demo_field

from conftest import field_to_dict, make_field


# ---------------------------------------------------------------- field files

def write_json(path, payload):
    path.write_text(json.dumps(payload, indent=2))


def test_load_field_well_formed(tmp_path):
    path = tmp_path / "field.json"
    write_json(path, {
        "dimension": 2, "bandwidth": 0.5, "epsilon": 0.1,
        "tokens": [
            {"id": 1, "mean": [0.0, 0.0], "covariance": [0.1, 0.2], "weight": 2.0},
            {"id": 2, "mean": [1.0, 1.0], "covariance": [[0.1, 0.0], [0.0, 0.1]]},
        ],
    })
    field = load_field(path)
    assert len(field) == 2
    assert field.dimension == 2
    assert field.bandwidth == 0.5
    assert np.array_equal(field.covariances[0], np.diag([0.1, 0.2]))
    assert field.weights[1] == 1.0


def test_load_field_missing_covariance_defaults_zero(tmp_path):
    path = tmp_path / "field.json"
    write_json(path, {"dimension": 2, "bandwidth": 1.0, "epsilon": 1.0,
                      "tokens": [{"id": 5, "mean": [1.0, 2.0]}]})
    field = load_field(path)
    # a file with no full matrix keeps its covariances as (n, D) diagonals
    assert field.covariances.shape == (1, 2)
    assert np.array_equal(field.covariances[0], np.zeros(2))


def test_load_field_duplicate_id_names_offender(tmp_path):
    path = tmp_path / "field.json"
    write_json(path, {"dimension": 2, "tokens": [
        {"id": 4, "mean": [0.0, 0.0]}, {"id": 4, "mean": [1.0, 1.0]}]})
    with pytest.raises(FieldFormatError, match="4"):
        load_field(path)


@pytest.mark.parametrize("bad, rule", [
    ({"covariance": [[1.0, 2.0], [2.0, 1.0]]}, "covariance must be positive semidefinite"),
    ({"weight": -0.5}, "weight must be non-negative"),
    # every covariance a diagonal (or left out): the (n, D) path
    ({"covariance": [0.5, -1.0]}, "covariance must be positive semidefinite"),
])
def test_load_field_names_offender_past_first_block(tmp_path, bad, rule):
    # row 600 of 1,000 lies in the second validation block
    tokens = [{"id": 5000 - k, "mean": [0.01 * k, 0.0]} for k in range(1000)]
    tokens[600].update(bad)
    path = tmp_path / "field.json"
    write_json(path, {"dimension": 2, "tokens": tokens})
    with pytest.raises(FieldFormatError, match=f"token 4400: {rule}"):
        load_field(path)


@pytest.mark.parametrize("weight", [None, [1.0]], ids=["null", "list"])
def test_load_field_non_number_weight_names_offender(tmp_path, weight):
    field = field_to_dict(demo_field())
    field["tokens"][1]["weight"] = weight
    write_json(tmp_path / "field.json", field)
    with pytest.raises(FieldFormatError, match=r"token 2: weight must be a number"):
        load_field(tmp_path / "field.json")
    write_json(tmp_path / "config.json", {"field": "field.json"})
    assert main(["simulate", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("value", ["x", None, [1]], ids=["string", "null", "list"])
@pytest.mark.parametrize("name", ["bandwidth", "epsilon"])
def test_load_field_non_number_constant_names_file(tmp_path, name, value):
    field = field_to_dict(demo_field())
    field[name] = value
    write_json(tmp_path / "field.json", field)
    with pytest.raises(FieldFormatError, match=rf"field\.json: {name} must be a number"):
        load_field(tmp_path / "field.json")
    write_json(tmp_path / "config.json", {"field": "field.json"})
    assert main(["simulate", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("tokens", [5, {"id": 1, "mean": [0.0, 0.0]}, "ab"],
                         ids=["int", "object", "string"])
def test_load_field_refuses_tokens_that_are_not_a_list(tmp_path, tokens):
    write_json(tmp_path / "field.json", {"dimension": 2, "tokens": tokens})
    with pytest.raises(FieldFormatError, match=r"field\.json: tokens must be a list"):
        load_field(tmp_path / "field.json")


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_input_files_refuse_non_finite_constants(workdir, constant):
    field = (workdir / "field.json").read_text().replace('"weight": 1.0', f'"weight": {constant}', 1)
    assert constant in field
    (workdir / "bad_field.json").write_text(field)
    with pytest.raises(FieldFormatError, match=f"{constant} is not allowed"):
        load_field(workdir / "bad_field.json")
    (workdir / "schedule.json").write_text(f'[{{"step": 0, "vector": [0.0, {constant}]}}]')
    with pytest.raises(FieldFormatError, match=f"{constant} is not allowed"):
        load_input_schedule(workdir / "schedule.json")
    config = (workdir / "config.json").read_text().replace('"dt": 0.01', f'"dt": {constant}')
    assert constant in config
    (workdir / "bad_config.json").write_text(config)
    assert main(["simulate", "--config", str(workdir / "bad_config.json"),
                 "--out", str(workdir / "bad_out")]) == 2


@pytest.mark.parametrize("entry, rule", [
    ('"tokens": [{"id": 7, "mean": [0.0, 1e999]}]', "token 7: mean must be a number .*, got \\[0.0, inf"),
    ('"bandwidth": 1e999', "bandwidth must be a number .*, got inf"),
    ('"epsilon": -1e999', "epsilon must be a number .*, got -inf"),
    ('"bandwidth": 1e200', "with a normal square: .*, got 1e\\+200"),
    ('"bandwidth": 1e-170', "with a normal square: .*, got 1e-170"),
])
def test_load_field_refuses_overflowing_numbers(tmp_path, entry, rule):
    # 1e999 is standard JSON but reads as infinity; 1e200 squared overflows
    # and 1e-170 squared underflows to 0
    (tmp_path / "field.json").write_text('{"dimension": 2, ' + entry + '}')
    with pytest.raises(FieldFormatError, match=rule):
        load_field(tmp_path / "field.json")
    write_json(tmp_path / "config.json", {"field": "field.json"})
    assert main(["simulate", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")]) == 2


def test_geodesic_on_a_field_with_tiny_epsilon_exits_2_with_no_output(tmp_path):
    # far from the token lambda = 1/epsilon = 1e300, whose square overflowed
    # in the Christoffel symbols and ended the run in a traceback
    write_json(tmp_path / "field.json", {"dimension": 1, "epsilon": 1e-300,
                                         "tokens": [{"id": 1, "mean": [0.0]}]})
    write_json(tmp_path / "config.json", {"field": "field.json",
                                          "geodesic": {"start": [100.0], "end": [101.0]}})
    assert main(["geodesic", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_load_input_schedule_refuses_overflowing_number(tmp_path):
    (tmp_path / "inputs.json").write_text('[{"step": 3, "vector": [1e999, 0.0]}]')
    with pytest.raises(FieldFormatError, match=r"entry \{'step': 3, .*\}: vector must be "
                                               r"a number .*, got \[inf, 0.0\]"):
        load_input_schedule(tmp_path / "inputs.json")


def test_config_refuses_overflowing_number(workdir):
    config = (workdir / "config.json").read_text().replace('"dt": 0.01', '"dt": 1e999')
    assert "1e999" in config
    (workdir / "bad_config.json").write_text(config)
    with pytest.raises(ConfigError, match="simulation.dt must be a number .*, got inf"):
        load_config(workdir / "bad_config.json")
    assert main(["simulate", "--config", str(workdir / "bad_config.json"),
                 "--out", str(workdir / "bad_out")]) == 2


def test_config_refuses_a_null_attention_temperature(workdir, capsys):
    # a null there is refused like in every other number slot; leaving the
    # key out still means the default, sqrt(D)
    config = json.loads((workdir / "config.json").read_text())
    assert load_config(workdir / "config.json").params.attention_temperature == math.sqrt(2)
    config["cognition"]["attention_temperature"] = None
    write_json(workdir / "bad_config.json", config)
    with pytest.raises(ConfigError, match="attention_temperature must be a number .*, got None"):
        load_config(workdir / "bad_config.json")
    assert main(["simulate", "--config", str(workdir / "bad_config.json"),
                 "--out", str(workdir / "bad_out")]) == 2
    assert not (workdir / "bad_out").exists()
    assert "attention_temperature" in capsys.readouterr().err


def test_json_writers_refuse_non_finite_values(tmp_path):
    # no loader accepts such a field; learn_update builds its copies the same way
    field = demo_field()._replace(weights=np.array([np.nan, 1.0, 1.0]))
    with pytest.raises(ValueError, match="not JSON compliant"):
        save_field(field, tmp_path / "field.json")
    traj = Trajectory(np.array([[np.inf, 0.0]]), np.zeros((1, 2)), np.array([0.0]), 0.1)
    with pytest.raises(ValueError, match="not JSON compliant"):
        export_trajectory(traj, "json", tmp_path / "traj.json")


def test_load_field_malformed_json_reports_line(tmp_path):
    path = tmp_path / "field.json"
    path.write_text('{\n  "dimension": 2,\n  "tokens": [}\n}')
    with pytest.raises(FieldFormatError, match="line 3"):
        load_field(path)


def test_field_round_trip(tmp_path):
    field = demo_field()
    path = tmp_path / "field.json"
    save_field(field, path)
    back = load_field(path)
    assert back.dimension == field.dimension
    assert back.bandwidth == field.bandwidth
    for name in ("ids", "means", "covariances", "weights"):
        assert np.array_equal(getattr(back, name), getattr(field, name))


def test_load_input_schedule(tmp_path):
    path = tmp_path / "inputs.json"
    write_json(path, [{"step": 0, "vector": [1.0, 0.0]},
                      {"step": 7, "vector": [0.0, 0.5]}])
    schedule = load_input_schedule(path)
    assert set(schedule) == {0, 7}
    assert np.array_equal(schedule[7], np.array([0.0, 0.5]))


@pytest.mark.parametrize("steps, rule", [([2, 5, 2], "step 2 appears more than once"),
                                         ([0, -1], "step -1 is negative")],
                         ids=["duplicate", "negative"])
def test_malformed_input_schedule_exits_2(workdir, steps, rule):
    write_json(workdir / "schedule.json", [{"step": k, "vector": [0.1, 0.2]} for k in steps])
    with pytest.raises(FieldFormatError, match=f"schedule.json: {rule}"):
        load_input_schedule(workdir / "schedule.json")
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["simulation"]["inputs"] = "schedule.json"
    write_json(workdir / "cfg_schedule.json", cfg)
    out = workdir / "schedule_out"
    assert main(["simulate", "--config", str(workdir / "cfg_schedule.json"),
                 "--out", str(out)]) == 2
    assert not out.exists()
    # a step at or past simulation.steps is kept and never applied
    write_json(workdir / "schedule.json", [{"step": 100, "vector": [0.1, 0.2]}])
    assert main(["simulate", "--config", str(workdir / "cfg_schedule.json"),
                 "--out", str(out)]) == 0


@pytest.mark.parametrize("vector", [["0.5", 0.2], [0.1, True], [None, 0.2], [[0.1], 0.2],
                                    "0.1,0.2", 0.5],
                         ids=["quoted", "bool", "null", "nested", "string", "number"])
def test_schedule_vector_must_be_a_list_of_numbers(workdir, vector):
    write_json(workdir / "schedule.json", [{"step": 1, "vector": vector}])
    with pytest.raises(FieldFormatError, match=r"schedule\.json: bad schedule entry"):
        load_input_schedule(workdir / "schedule.json")
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["simulation"]["inputs"] = "schedule.json"
    write_json(workdir / "cfg_schedule.json", cfg)
    out = workdir / "schedule_out"
    assert main(["simulate", "--config", str(workdir / "cfg_schedule.json"),
                 "--out", str(out)]) == 2
    assert not out.exists()


# ---------------------------------------------------------------- trajectory export

def _sample_trajectory():
    times = [0.1 * k for k in range(5)]
    return Trajectory(np.array([[0.1 * k, -0.2 * k] for k in range(5)]),
                      np.array([[1.0, -2.0]] * 5), np.array(times), 0.1,
                      token_ids=np.array([3, 0, 4, -7, 9]))


# finite floats; hypothesis also draws +-0.0 and subnormals, and these make sure
COORDINATES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310]),
                        st.floats(allow_nan=False, allow_infinity=False))


@st.composite
def _trajectories(draw):
    n, d = draw(st.integers(1, 20)), draw(st.integers(1, 4))
    rows = hnp.arrays(float, (n, d), elements=COORDINATES)
    dt = draw(st.floats(min_value=0.0, max_value=1e6, exclude_min=True))
    times = [0.0]
    for _ in range(n - 1):
        times.append(times[-1] + dt)
    ids = st.none() | hnp.arrays(np.int64, n, elements=st.integers(-2**63, 2**63 - 1))
    return Trajectory(draw(rows), draw(rows), np.array(times), dt, token_ids=draw(ids),
                      truncated=draw(st.booleans()))


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def _reference_payload(traj):
    """The payload whose write_json bytes export_trajectory writes as JSON:
    one dict per sample."""
    samples = []
    ids = _ids(traj)
    for k, (t, position, velocity) in enumerate(zip(traj.times.tolist(), traj.positions.tolist(),
                                                    traj.velocities.tolist())):
        entry = {"t": t, "position": position, "velocity": velocity}
        if ids is not None:
            entry["token_id"] = ids[k]
        samples.append(entry)
    return {"dt": traj.dt, "truncated": traj.truncated, "samples": samples}


def _strict_json(path: Path):
    def refuse(constant):
        raise ValueError(f"{path.name} holds {constant}")
    return json.loads(path.read_text(), parse_constant=refuse)


def _read_trajectory(path: Path) -> Trajectory:
    """An exported trajectory file as json or csv parse it, and nothing more:
    float() and int() per CSV cell, and dt from the CSV trailer line, or else
    from the first two times. The token ids of the samples that have one
    are read as one array, None when no sample has an id."""
    if path.suffix == ".json":
        data = _strict_json(path)
        samples = data["samples"]
        ids = [s["token_id"] for s in samples if "token_id" in s]
        return Trajectory(np.array([s["position"] for s in samples]),
                          np.array([s["velocity"] for s in samples]),
                          np.array([s["t"] for s in samples]), data["dt"],
                          np.array(ids) if ids else None, data["truncated"])
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    label, dt = rows.pop() if rows[-1][0] in ("truncated", "dt") else ("", None)
    d = (len(header) - 2) // 2
    table = np.array([[float(cell) for cell in row[:-1]] for row in rows])
    ids = [int(row[-1]) for row in rows if row[-1]]
    return Trajectory(table[:, 1:1 + d], table[:, 1 + d:], table[:, 0],
                      float(rows[1][0]) - float(rows[0][0]) if dt is None else float(dt),
                      np.array(ids) if ids else None, label == "truncated")


def _edge_trajectory(token_id):
    return Trajectory(np.array([[-0.0, 5e-324], [1e308, -1e308]]), np.array([[0.0, -5e-324]] * 2),
                      np.array([0.0, 0.5]), 0.5, token_ids=np.array([token_id] * 2))


def _long_trajectory(n):
    """n samples, each with a token id: export writes a block of ROW_BLOCK
    samples per write, so 256 fill one block and 257 spill a row."""
    rng = np.random.default_rng(n)
    times = np.arange(n) * 0.25
    return Trajectory(rng.normal(size=(n, 2)), rng.normal(size=(n, 2)), times, 0.25,
                      token_ids=7 * np.arange(n) - 2**62)


def _ids(traj):
    return None if traj.token_ids is None else traj.token_ids.tolist()


# the same file is rewritten for every example
@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(traj=_trajectories())
@example(traj=_sample_trajectory())
@example(traj=Trajectory(np.zeros((1, 2)), np.zeros((1, 2)), np.array([0.0]), 0.25))
@example(traj=_edge_trajectory(-2**63))
@example(traj=_edge_trajectory(2**64 - 1))  # a uint64 id beyond int64 is written exactly too
@example(traj=_long_trajectory(256))
@example(traj=_long_trajectory(257))
def test_trajectory_round_trip_exact(tmp_path, fmt, traj):
    path = tmp_path / f"traj.{fmt}"
    path.unlink(missing_ok=True)  # left by the previous example
    if fmt == "json":
        reference = tmp_path / "reference.json"
        write_artifact(reference, _reference_payload(traj))
    export_trajectory(traj, fmt, path)
    if fmt == "json":
        assert path.read_bytes() == reference.read_bytes()
    back = _read_trajectory(path)
    for name in ("positions", "velocities", "times"):
        a, b = getattr(back, name), getattr(traj, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    assert _bits(back.dt) == _bits(traj.dt)
    assert back.truncated is traj.truncated
    assert _ids(back) == _ids(traj)
    if fmt == "csv":
        # header, one row per sample, and the truncated or dt line only where
        # the times cannot give dt or the run was truncated
        lines = path.read_text().splitlines()
        lone = len(traj) == 1 and not traj.truncated
        assert len(lines) == 1 + len(traj) + traj.truncated + lone
        if traj.truncated or lone:  # a lone sample of dt 0.25 ends in dt,0.25
            label = "truncated" if traj.truncated else "dt"
            assert lines[-1] == f"{label},{float(traj.dt)!r}"


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("start, samples", [([0.5, 0.0], 50), ([0.001, 0.0], 1)])
def test_truncated_round_trip_keeps_flag_and_dt(tmp_path, fmt, start, samples):
    # both leave the sphere chart through theta = 0
    traj = integrate_geodesic(start, [-1.0, 0.0], SphereMetric(1.0),
                              steps=200, dt=0.01)
    assert traj.truncated and len(traj) == samples
    path = tmp_path / f"traj.{fmt}"
    export_trajectory(traj, fmt, path)
    back = _read_trajectory(path)
    assert back.truncated is True
    assert back.dt == 0.01
    assert back.times.tolist() == traj.times.tolist()
    assert np.array_equal(back.positions, traj.positions)


def test_csv_column_count(tmp_path):
    path = tmp_path / "traj.csv"
    export_trajectory(_sample_trajectory(), "csv", path)
    header, *rows = path.read_text().splitlines()
    assert header == "t,p0,p1,v0,v1,token_id"
    assert len(header.split(",")) == 6
    # a token id on every sample, 0 included
    assert [row.rsplit(",", 1)[1] for row in rows] == ["3", "0", "4", "-7", "9"]


# The next four tests keep the names they had when geomind also read these
# files back; each now checks the half that remains, what export writes.

def test_import_csv_refuses_times_whose_difference_overflows(tmp_path):
    # the trailer follows the length and the truncated flag alone, so this
    # file keeps no dt: the first two times give inf
    path = tmp_path / "traj.csv"
    export_trajectory(Trajectory(np.zeros((2, 1)), np.zeros((2, 1)), np.array([-1e308, 1e308]),
                                 0.25), "csv", path)
    assert path.read_text().splitlines() == ["t,p0,v0,token_id", "-1e+308,0.0,0.0,",
                                             "1e+308,0.0,0.0,"]


def test_import_csv_refuses_lone_sample_without_dt(tmp_path):
    # one sample cannot give dt from its times, so its CSV ends with a dt
    # line, or with the truncated line where the run was truncated
    path = tmp_path / "traj.csv"
    for truncated, label in ((False, "dt"), (True, "truncated")):
        export_trajectory(Trajectory(np.zeros((1, 2)), np.zeros((1, 2)), np.array([0.0]), 0.25,
                                     truncated=truncated), "csv", path)
        assert path.read_text().splitlines() == ["t,p0,p1,v0,v1,token_id", "0.0,0.0,0.0,0.0,0.0,",
                                                 f"{label},0.25"]


def test_import_csv_refuses_short_row(tmp_path):
    # every sample row has the header's fields, token_id empty or not
    path = tmp_path / "traj.csv"
    export_trajectory(_sample_trajectory(), "csv", path)
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == 5 and all(len(row) == len(header) == 6 for row in rows)


@pytest.mark.parametrize("where, cell, kind", [
    ("p1", "0_5", "float"), ("p1", " 0.5", "float"), ("p1", "0.50", "float"),
    ("dt", "0_25", "float"), ("dt", "0.25 ", "float"),
    ("token_id", "0_7", "int"), ("token_id", " 7", "int"), ("token_id", "7.0", "int")])
def test_import_csv_refuses_a_cell_export_cannot_write(tmp_path, where, cell, kind):
    # float() reads each of these cells (0_5 as 5.0), but export writes the
    # value as its repr, one text per value, and never the cell itself
    value = float(cell) if kind == "float" else int(float(cell))
    traj = _sample_trajectory()
    if where == "dt":  # a lone sample writes dt on its last line
        traj = Trajectory(np.zeros((1, 2)), np.zeros((1, 2)), np.array([0.0]), value)
    elif where == "p1":  # sample 2, on line 4
        positions = traj.positions.copy()
        positions[2, 1] = value
        traj = dataclasses.replace(traj, positions=positions)
    else:
        ids = traj.token_ids.copy()
        ids[2] = value
        traj = dataclasses.replace(traj, token_ids=ids)
    path = tmp_path / "traj.csv"
    export_trajectory(traj, "csv", path)
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    line, column = (len(lines), 1) if where == "dt" else (4, lines[0].index(where))
    written = lines[line - 1][column]
    assert written == repr(value) and written != cell
    assert type(value)(written) == value


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("ids", [np.array([3, 0, 4, -7]), np.array([3, 0, 4, -7, 9, 1]),
                                 np.array([[3, 0, 4, -7, 9]]), np.array([3.0, 0.0, 4.0, -7.0, 9.0]),
                                 np.array([True, False, True, True, False]),
                                 np.array([3, 0, 4, -7, 10**400])],
                         ids=["short", "long", "2-d", "float", "bool", "object"])
def test_export_refuses_token_ids_that_are_not_integers_per_sample(tmp_path, fmt, ids):
    traj = dataclasses.replace(_sample_trajectory(), token_ids=ids)
    path = tmp_path / f"traj.{fmt}"
    with pytest.raises(ValueError, match=r"needs \(T,\) times .* and \(T,\) integer token ids"):
        export_trajectory(traj, fmt, path)
    assert not path.exists()


def test_unknown_format_rejected_before_write(tmp_path):
    path = tmp_path / "traj.xml"
    with pytest.raises(ValueError, match=re.escape(
            f"export format must be one of {FORMATS}, got 'xml'")):
        export_trajectory(_sample_trajectory(), "xml", path)
    assert not path.exists()


@pytest.mark.parametrize("fmt", FORMATS)
def test_export_refuses_a_batch_trajectory(tmp_path, fmt):
    # (T, B, D) positions and velocities, which neither format can hold
    traj = integrate_geodesic([[0.5, 0.0], [0.6, 0.1]], [[0.1, 0.0], [0.0, 0.1]],
                              SphereMetric(1.0), steps=5, dt=0.01)
    assert traj.positions.shape == (6, 2, 2)
    path = tmp_path / f"traj.{fmt}"
    with pytest.raises(ValueError, match=r"needs \(T,\) times and \(T, D\) positions"):
        export_trajectory(traj, fmt, path)
    assert not path.exists()


def _with_bad_leaf(value, kind):
    """value with its first number replaced by a quoted copy, true, null or a
    one-element list of it."""
    if isinstance(value, list):
        return [_with_bad_leaf(value[0], kind)] + value[1:]
    return {"quoted": str(value), "true": True, "null": None, "nested": [value]}[kind]


BAD_LEAVES = ("quoted", "true", "null", "nested")


# Every way a JSON input file can put something other than a finite number
# where a number belongs.
BAD_NUMBERS = ("NaN", "Infinity", "-Infinity", "1e999", "-1e999", "1" + "0" * 400,
               "true", '"1.0"', "null")
_BAD = "@bad@"


def _float_slots(value, path=()):
    """The path of every float in a JSON value. Ints are left out: ids, steps,
    seeds and counts are whole-number slots, with rules of their own."""
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    if type(value) is float:
        yield path
    for key, item in items:
        yield from _float_slots(item, path + (key,))


def _with_bad(payload, path, bad: str) -> str:
    """payload as JSON text, with the raw text bad at path."""
    payload = json.loads(json.dumps(payload))
    target = payload
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = _BAD
    return json.dumps(payload, indent=2).replace(f'"{_BAD}"', bad)


@st.composite
def _input_files(draw):
    """A valid field, schedule and config, with every number a float."""
    d = draw(st.integers(1, 3))
    small = st.floats(-2.0, 2.0)
    vector = st.lists(small, min_size=d, max_size=d)
    positive = st.floats(0.1, 2.0)
    eye = [[float(i == j) for j in range(d)] for i in range(d)]
    tokens = []
    for k in range(draw(st.integers(1, 3))):
        token = {"id": k + 1, "mean": draw(vector), "weight": draw(positive)}
        form = draw(st.sampled_from(["none", "diagonal", "full"]))
        if form != "none":
            scale = draw(positive)
            token["covariance"] = ([scale] * d if form == "diagonal"
                                   else [[scale * x for x in row] for row in eye])
        tokens.append(token)
    field = {"dimension": d, "bandwidth": draw(positive), "epsilon": draw(positive),
             "tokens": tokens}
    schedule = [{"step": 0, "vector": draw(vector)}, {"step": 3, "vector": draw(vector)}]
    kinds = ["field", "flat"] + (["sphere"] if d == 2 else [])
    metric = {"kind": draw(st.sampled_from(kinds))}
    if metric["kind"] != "field":
        metric["scale" if metric["kind"] == "flat" else "radius"] = draw(positive)
    start = draw(vector)
    config = {
        "field": "field.json", "metric": metric,
        "cognition": {"kappa": draw(positive), "beta": 0.5, "feedback_gain": draw(positive),
                      "attention_temperature": draw(positive), "geometric_window": 0.05,
                      "value_matrix": eye, "predictor_matrix": eye, "bias": draw(vector)},
        "simulation": {"steps": 5, "dt": 0.01, "seeds": [1], "start": start,
                       "velocity": draw(vector), "inputs": "schedule.json"},
        "competition": {"threshold": -1.0},
        "learning": {"rate": 0.5, "cycles": 3, "input": draw(vector)},
        "geodesic": {"start": start, "end": [x + 1.0 for x in start], "tol": 1e-6},
    }
    return {"field": field, "schedule": schedule, "config": config}


@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(files=_input_files(), bad=st.lists(st.sampled_from(BAD_NUMBERS), min_size=1))
def test_every_number_slot_of_an_input_file_refuses_what_is_not_finite(tmp_path, capsys, files,
                                                                       bad):
    # each float in each file in turn takes one of the bad texts, cycling
    # through the drawn list; a run exits 2 with one error line naming the
    # file, and makes no output directory
    base = Path(tempfile.mkdtemp(dir=tmp_path))
    for name, payload in files.items():
        write_json(base / f"{name}.json", payload)
    load_config(base / "config.json")  # the files are valid as drawn
    k = 0
    for name, payload in files.items():
        for path in _float_slots(payload):
            text, k = bad[k % len(bad)], k + 1
            case = Path(tempfile.mkdtemp(dir=tmp_path))
            for other, valid in files.items():
                write_json(case / f"{other}.json", valid)
            (case / f"{name}.json").write_text(_with_bad(payload, path, text))
            assert main(["simulate", "--config", str(case / "config.json"),
                         "--out", str(case / "out")]) == 2, (name, path)
            assert not (case / "out").exists()
            err = capsys.readouterr().err
            assert err.startswith("geomind: error: ") and err.count("\n") == 1, err
            assert f"{name}.json" in err, err


@pytest.mark.parametrize("fmt", FORMATS)
@pytest.mark.parametrize("where", ["positions", "velocities", "times", "dt", "several"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_export_refuses_non_finite_trajectory_and_writes_nothing(tmp_path, fmt, where, bad):
    traj = _sample_trajectory()
    if where == "dt":
        traj = dataclasses.replace(traj, dt=bad)
    elif where == "several":  # JSON names the first of them in file order
        times, velocities = traj.times.copy(), traj.velocities.copy()
        times[4], velocities[1, 1] = bad, -np.inf if bad == np.inf else np.inf
        traj = dataclasses.replace(traj, times=times, velocities=velocities,
                                   dt=np.nan if bad == np.inf else 0.1)
    else:
        values = getattr(traj, where).copy()
        values.flat[3] = bad
        traj = dataclasses.replace(traj, **{where: values})
    path = tmp_path / f"traj.{fmt}"
    if fmt == "json":  # the error that write_json gives the same payload
        with pytest.raises(ValueError) as reference:
            write_artifact(tmp_path / "reference.json", _reference_payload(traj))
        rule = re.escape(str(reference.value))
    else:
        rule = "cannot be exported"
    with pytest.raises(ValueError, match=rule):
        export_trajectory(traj, fmt, path)
    assert not path.exists()


@st.composite
def _exported_trajectories(draw):
    d, t = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    small = st.floats(-2.0, 2.0)
    rows = st.lists(st.lists(small, min_size=d, max_size=d), min_size=t, max_size=t)
    return Trajectory(np.array(draw(rows)), np.array(draw(rows)), 0.25 * np.arange(t), 0.25,
                      token_ids=np.full(t, 7), truncated=draw(st.booleans()))


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=40, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(traj=_exported_trajectories(),
       bad=st.lists(st.sampled_from([np.nan, np.inf, -np.inf]), min_size=1))
def test_every_number_slot_of_a_trajectory_file_refuses_what_is_not_finite(tmp_path, fmt, traj,
                                                                           bad):
    # dt, every t and every position and velocity entry, in turn, takes one
    # of the bad values; export raises and writes no file
    path = Path(tempfile.mkdtemp(dir=tmp_path)) / f"traj.{fmt}"
    cases = [dataclasses.replace(traj, dt=bad[0])]
    for name in ("times", "positions", "velocities"):
        for k in range(getattr(traj, name).size):
            values = getattr(traj, name).copy()
            values.flat[k] = bad[len(cases) % len(bad)]
            cases.append(dataclasses.replace(traj, **{name: values}))
    assert len(cases) == 1 + len(traj) * (1 + 2 * traj.positions.shape[1])
    for case in cases:
        with pytest.raises(ValueError):
            export_trajectory(case, fmt, path)
        assert not path.exists()
    export_trajectory(traj, fmt, path)  # and the trajectory as drawn is written
    assert path.exists()


# ---------------------------------------------------------------- command driver

@pytest.fixture
def workdir(tmp_path):
    save_field(demo_field(), tmp_path / "field.json")
    write_json(tmp_path / "config.json", {
        "field": "field.json",
        "metric": {"kind": "field"},
        "cognition": {"kappa": 0.5, "beta": 0.3, "feedback_gain": 0.2},
        "simulation": {"steps": 100, "dt": 0.01, "seeds": [1, 2],
                       "start": [0.0, 0.0], "velocity": [0.3, 0.2]},
        "competition": {"threshold": -100.0},
        "learning": {"rate": 0.2, "cycles": 10, "input": [0.8, 0.4]},
        "geodesic": {"start": [-1.5, 0.6], "end": [1.5, 0.6],
                     "max_iters": 100, "steps": 200},
        "output": {"directory": "out", "format": "json"},
    })
    return tmp_path


def test_simulate_writes_one_file_per_seed(workdir):
    out = workdir / "sim"
    rc = main(["simulate", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == ["trajectory_seed1.json", "trajectory_seed2.json"]
    traj = _read_trajectory(out / "trajectory_seed1.json")
    assert len(traj) == 101


def test_unknown_command_exits_2(workdir):
    assert main(["frobnicate", "--config", str(workdir / "config.json")]) == 2


def test_bad_config_exits_2(workdir):
    write_json(workdir / "bad.json", {"field": "absent.json"})
    assert main(["simulate", "--config", str(workdir / "bad.json")]) == 2


def test_invalid_format_exits_2(workdir):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["output"]["format"] = "xml"
    write_json(workdir / "cfg_xml.json", cfg)
    assert main(["simulate", "--config", str(workdir / "cfg_xml.json")]) == 2


def test_duplicate_seeds_exit_2(workdir):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["simulation"]["seeds"] = [1, 1]
    write_json(workdir / "cfg_dup.json", cfg)
    assert main(["simulate", "--config", str(workdir / "cfg_dup.json")]) == 2


def test_oversized_geometric_window_exits_2(workdir):
    # round(2.56 / 0.01) = 256 steps of dt 0.01 fit the 257-front buffer, and
    # 300 steps fill it, so the flow's own check sees them too; 257 steps do not fit
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["cognition"].update(predictor="geometric", geometric_window=2.56)
    cfg["simulation"].update(steps=300, seeds=[1])
    write_json(workdir / "cfg_window.json", cfg)
    out = workdir / "window"
    assert main(["simulate", "--config", str(workdir / "cfg_window.json"), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["trajectory_seed1.json"]
    assert len(_strict_json(out / "trajectory_seed1.json")["samples"]) == 301
    cfg["cognition"]["geometric_window"] = 2.57
    write_json(workdir / "cfg_window.json", cfg)
    out = workdir / "window_too_long"
    rc = main(["simulate", "--config", str(workdir / "cfg_window.json"), "--out", str(out)])
    assert rc == 2
    assert not out.exists()
    with pytest.raises(ValueError, match="spans more than 256 steps"):  # not round's OverflowError
        window_steps(1e10, 1e-300)


@pytest.mark.parametrize("window", [0.005, 1e-300])
def test_geometric_window_under_half_a_step_exits_2(workdir, capsys, window):
    # round(window / dt) is 0 steps of dt 0.01, and the first cycle's
    # predict_geometric raised ValueError out of main with an empty --out
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["cognition"].update(predictor="geometric", geometric_window=window)
    write_json(workdir / "cfg_window.json", cfg)
    out = workdir / "window_too_short"
    rc = main(["simulate", "--config", str(workdir / "cfg_window.json"), "--out", str(out)])
    assert rc == 2 and not out.exists()
    assert f"geometric_window {window} spans no step of dt 0.01" in capsys.readouterr().err


@pytest.mark.parametrize("section, value, command", [
    ("geodesic", {"start": [-1.5, 0.6], "end": [1.5, 0.6], "steps": 0}, "geodesic"),
    ("geodesic", {"start": [-1.5, 0.6], "end": [1.5, 0.6], "steps": -3}, "geodesic"),
    ("geodesic", {"start": [-1.5, 0.6], "end": [1.5, 0.6], "max_iters": -1}, "geodesic"),
    ("geodesic", {"start": [-1.5, 0.6], "end": [1.5, 0.6], "tol": 0.0}, "geodesic"),
    ("geodesic", {"start": [0.5, 0.5], "end": [0.5, 0.5]}, "geodesic"),
    ("competition", {"threshold": "x"}, "compete"),
    ("metric", {"kind": "flat", "scale": "abc"}, "simulate"),
    ("metric", {"kind": "flat", "scale": -1.0}, "simulate"),
    ("metric", {"kind": "sphere", "radius": 0.0}, "simulate"),
    # analyze's finite-difference curvature squared it: OverflowError escaped main
    ("metric", {"kind": "sphere", "radius": 1e300}, "analyze"),
    ("metric", "field", "simulate"),
    ("simulation", [], "simulate"),
    ("cognition", {"kappa": -1.0}, "simulate"),
    ("simulation", {"seeds": [-1]}, "simulate"),
], ids=["steps-0", "steps-negative", "max-iters-negative", "tol-zero", "equal-endpoints",
        "threshold-string", "scale-string", "scale-negative", "radius-zero", "radius-overflow",
        "metric-string", "simulation-list", "kappa-negative", "seed-negative"])
def test_malformed_config_value_exits_2(workdir, section, value, command):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg[section] = value
    write_json(workdir / "cfg_bad.json", cfg)
    with pytest.raises(ConfigError):
        load_config(workdir / "cfg_bad.json")
    out = workdir / "bad_out"
    assert main([command, "--config", str(workdir / "cfg_bad.json"), "--out", str(out)]) == 2
    assert not out.exists()


THREE_D_FIELD = {"dimension": 3, "tokens": [{"id": 1, "mean": [0.0, 0.0, 0.0]}]}

# one case per load rule of the config and field files: the config sections
# it updates (None deletes the key), the field file it loads instead of the
# demo field, if any, and a word that the one error line must hold
LOAD_RULES = {
    "dt-zero": ({"simulation": {"dt": 0.0}}, None, "dt"),
    "steps-zero": ({"simulation": {"steps": 0}}, None, "steps"),
    "seeds-empty": ({"simulation": {"seeds": []}}, None, "seed"),
    "schedule-vector-length": ({"simulation": {"inputs": "schedule3.json"}}, None, "vector"),
    "start-length": ({"simulation": {"start": [0.0, 0.0, 0.0]}}, None, "start"),
    "rate-above-1": ({"learning": {"rate": 1.5}}, None, "rate"),
    "rate-negative": ({"learning": {"rate": -0.1}}, None, "rate"),
    "cycles-zero": ({"learning": {"cycles": 0}}, None, "cycles"),
    "value-matrix-shape": ({"cognition": {"value_matrix": np.eye(3).tolist()}}, None,
                           "value_matrix"),
    "predictor-matrix-shape": ({"cognition": {"predictor_matrix": [[1.0, 0.0]]}}, None,
                               "predictor_matrix"),
    "bias-length": ({"cognition": {"bias": [0.0, 0.0, 0.0]}}, None, "bias"),
    "activation": ({"cognition": {"activation": "relu"}}, None, "activation"),
    "predictor": ({"cognition": {"predictor": "oracle"}}, None, "predictor"),
    "field-missing": ({"field": None}, None, "field"),
    "metric-kind": ({"metric": {"kind": "hyperbolic"}}, None, "kind"),
    "sphere-on-3d": ({"metric": {"kind": "sphere"}}, THREE_D_FIELD, "sphere"),
    "field-top-level-list": ({}, [], "top level"),
    "field-dimension-missing": ({}, {"tokens": []}, "dimension"),
    "field-dimension-zero": ({}, {"dimension": 0, "tokens": []}, "dimension"),
    "format-unknown": ({"output": {"format": "xml"}}, None, "format"),
    "endpoints-equal": ({"geodesic": {"end": [-1.5, 0.6]}}, None, "geodesic"),
}


@pytest.mark.parametrize("case", LOAD_RULES)
def test_load_rule_exits_2_with_one_line_naming_the_key(workdir, capsys, case):
    sections, field, word = LOAD_RULES[case]
    cfg = json.loads((workdir / "config.json").read_text())
    for section, update in sections.items():
        if update is None:
            del cfg[section]
        else:
            cfg[section].update(update)
    if field is not None:
        write_json(workdir / "field_rule.json", field)
        cfg["field"] = "field_rule.json"
    write_json(workdir / "schedule3.json", [{"step": 0, "vector": [0.1, 0.2, 0.3]}])
    write_json(workdir / "cfg_rule.json", cfg)
    out = workdir / "rule_out"
    assert main(["simulate", "--config", str(workdir / "cfg_rule.json"), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("geomind: error: ") and word in err[0], err


# every vector, matrix and token slot of the config, schedule and field files,
# each fed a quoted number, true, null and a nested list
NUMBER_SLOTS = {
    "start": ("simulation", "start", [0.0, 0.0]),
    "value-matrix": ("cognition", "value_matrix", [[1.0, 0.0], [0.0, 1.0]]),
    "schedule-vector": ("schedule", "vector", [0.1, 0.2]),
    "mean": ("token", "mean", [2.0, 0.0]),
    "diagonal-covariance": ("token", "covariance", [0.1, 0.2]),
    "full-covariance": ("token", "covariance", [[0.1, 0.0], [0.0, 0.1]]),
    "weight": ("token", "weight", 1.0),
}


@pytest.mark.parametrize("section, name, value", [
    pytest.param("simulation", "dt", "nan", id="dt"),
    pytest.param("simulation", "dt", 10**400, id="dt-beyond-float"),
    pytest.param("competition", "threshold", "nan", id="threshold"),
    pytest.param("metric", "scale", "nan", id="scale"),
    pytest.param("cognition", "kappa", True, id="kappa"),
    pytest.param("simulation", "start", ["nan", 0], id="start"),
    pytest.param("cognition", "bias", [False, 0.0], id="bias"),
    pytest.param("cognition", "value_matrix", [[1.0, 0.0], [0.0, "1"]], id="value-matrix"),
    pytest.param("field", "bandwidth", True, id="bandwidth"),
    pytest.param("token", "weight", "2", id="weight"),
] + [pytest.param(section, name, _with_bad_leaf(valid, kind), id=f"{slot}-{kind}")
     for slot, (section, name, valid) in NUMBER_SLOTS.items() for kind in BAD_LEAVES])
def test_quoted_or_bool_number_exits_2(workdir, capsys, section, name, value):
    cfg = json.loads((workdir / "config.json").read_text())
    if section in ("field", "token"):
        field = json.loads((workdir / "field.json").read_text())
        (field if section == "field" else field["tokens"][1])[name] = value
        write_json(workdir / "field_number.json", field)
        cfg["field"] = "field_number.json"
    elif section == "schedule":
        write_json(workdir / "schedule_number.json", [{"step": 1, name: value}])
        cfg["simulation"]["inputs"] = "schedule_number.json"
    elif section == "metric":
        cfg["metric"] = {"kind": "flat", name: value}
    else:
        cfg[section][name] = value
    write_json(workdir / "cfg_number.json", cfg)
    where = {"field": "field_number.json", "token": "field_number.json",
             "schedule": "schedule_number.json"}.get(section, "cfg_number.json")
    error = ConfigError if where == "cfg_number.json" else FieldFormatError
    # the second token of the demo field has id 2
    offender = "token 2: " if section == "token" else ""
    with pytest.raises(error, match=rf"{where}: .*{offender}"):
        load_config(workdir / "cfg_number.json")
    out = workdir / "number_out"
    assert main(["compete", "--config", str(workdir / "cfg_number.json"), "--out", str(out)]) == 2
    assert not out.exists()
    assert f"{where}: {offender}" in capsys.readouterr().err


@pytest.mark.parametrize("command, section, name", [
    ("learn", "learning", "input"), ("geodesic", "geodesic", "start"),
    ("geodesic", "geodesic", "end")])
def test_run_without_its_required_input_leaves_no_output(workdir, command, section, name):
    cfg = json.loads((workdir / "config.json").read_text())
    del cfg[section][name]
    write_json(workdir / "cfg_missing.json", cfg)
    out = workdir / "missing_out"
    assert main([command, "--config", str(workdir / "cfg_missing.json"), "--out", str(out)]) == 2
    assert not out.exists()


INTEGER_FIELDS = {  # where the value sits, the command that uses it, how to read it back
    "context_capacity": ("cognition", "simulate", lambda c: c.params.context_capacity),
    "steps": ("simulation", "simulate", lambda c: c.steps),
    "seeds": ("simulation", "simulate", lambda c: c.seeds[0]),
    "cycles": ("learning", "learn", lambda c: c.learning_cycles),
    "max_iters": ("geodesic", "geodesic", lambda c: c.shooting.max_iters),
    "shooting-steps": ("geodesic", "geodesic", lambda c: c.shooting.steps),
    "dimension": ("field", "simulate", lambda c: c.field.dimension),
    "id": ("field", "simulate", lambda c: int(c.field.ids[0])),
    "step": ("schedule", "simulate", lambda c: next(iter(c.inputs))),
}


def _config_with_integer(workdir, name, value) -> Path:
    cfg = json.loads((workdir / "config.json").read_text())
    section = INTEGER_FIELDS[name][0]
    if section == "field":
        field = json.loads((workdir / "field.json").read_text())
        if name == "dimension":
            field["dimension"] = value
        else:
            field["tokens"][0]["id"] = value
        write_json(workdir / "field_int.json", field)
        cfg["field"] = "field_int.json"
    elif section == "schedule":
        write_json(workdir / "schedule_int.json", [{"step": value, "vector": [0.1, 0.2]}])
        cfg["simulation"]["inputs"] = "schedule_int.json"
    else:
        cfg[section][name.removeprefix("shooting-")] = [value] if name == "seeds" else value
    write_json(workdir / "cfg_int.json", cfg)
    return workdir / "cfg_int.json"


@pytest.mark.parametrize("value", [2.5, True], ids=["fraction", "bool"])
@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_non_integral_integer_field_exits_2(workdir, name, value):
    path = _config_with_integer(workdir, name, value)
    error = ConfigError if INTEGER_FIELDS[name][0] not in ("field", "schedule") else FieldFormatError
    with pytest.raises(error, match="must be a whole number"):
        load_config(path)
    if name == "step":
        with pytest.raises(FieldFormatError, match="step must be a whole number"):
            load_input_schedule(workdir / "schedule_int.json")
    out = workdir / "int_out"
    assert main([INTEGER_FIELDS[name][1], "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("name", INTEGER_FIELDS)
def test_whole_float_integer_field_loads_as_int(workdir, name):
    value = {"dimension": 2.0, "id": 7.0}.get(name, 3.0)
    read_back = INTEGER_FIELDS[name][2](load_config(_config_with_integer(workdir, name, value)))
    assert type(read_back) is int and read_back == value


def test_negative_seed_flag_exits_2(workdir, capsys):
    out = workdir / "neg_seed"
    rc = main(["simulate", "--config", str(workdir / "config.json"), "--out", str(out),
               "--seed", "-1"])
    assert rc == 2
    assert not out.exists()
    assert "seeds must be non-negative" in capsys.readouterr().err


def test_python_dash_m_runs_the_cli():
    src = Path(geomind.__file__).resolve().parents[1]
    proc = subprocess.run([sys.executable, "-m", "geomind", "--help"],
                          env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: geomind")


def test_analyze_does_not_import_numpy_ma(workdir):
    # np.percentile goes through np.unique, which imports numpy.ma on its
    # first call; analyze takes its cut without it
    src = Path(geomind.__file__).resolve().parents[1]
    code = ("import sys; from geomind.cli import main; "
            f"status = main(['analyze', '--config', {str(workdir / 'config.json')!r}, "
            f"'--out', {str(workdir / 'analyze')!r}]); "
            "print(status, 'numpy.ma' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=str(src)),
                          capture_output=True, text=True, timeout=60)
    assert proc.stdout.split() == ["0", "False"], proc.stderr
    assert json.loads((workdir / "analyze" / "field_report.json").read_text())["curvature_samples"]


def test_compete_writes_selection(workdir):
    out = workdir / "compete"
    rc = main(["compete", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 0
    selection = json.loads((out / "selection.json").read_text())
    assert selection["threshold"] == -100.0
    assert len(selection["scores"]) == 2
    assert selection["winner_index"] in (0, 1)
    assert selection["winner_seed"] in (1, 2)


def test_learn_writes_snapshots_and_error_curve(workdir):
    out = workdir / "learn"
    rc = main(["learn", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 0
    snapshots = sorted(p.name for p in out.iterdir() if p.name.startswith("field_cycle"))
    assert len(snapshots) == 11  # initial field plus one per cycle
    curve = json.loads((out / "error_curve.json").read_text())
    assert len(curve["error_norms"]) == 10
    # snapshots remain loadable fields
    load_field(out / snapshots[-1])


def test_analyze_outputs_report_and_projection(workdir):
    out = workdir / "analyze"
    rc = main(["analyze", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "field_report.json").read_text())
    assert report["intrinsic_dimension"] == 2
    assert len(report["components"]) >= 1
    projection = json.loads((out / "pca_projection.json").read_text())
    assert set(projection) == {"1", "2", "3"}


def test_analyze_empty_field_succeeds(workdir):
    save_field(make_field([], epsilon=0.5), workdir / "empty.json")
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["field"] = "empty.json"
    write_json(workdir / "cfg_empty.json", cfg)
    out = workdir / "analyze_empty"
    rc = main(["analyze", "--config", str(workdir / "cfg_empty.json"), "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "field_report.json").read_text())
    assert report["components"] == []


@pytest.mark.parametrize("command, name, header", [
    ("learn", "error_curve", "cycle,error_norm"), ("analyze", "pca_projection", "token_id,x,y")])
def test_csv_tables_hold_their_json_twins_values_bitwise(workdir, command, name, header):
    cfg = json.loads((workdir / "config.json").read_text())
    for fmt in FORMATS:
        cfg["output"]["format"] = fmt
        write_json(workdir / f"cfg_{fmt}.json", cfg)
        assert main([command, "--config", str(workdir / f"cfg_{fmt}.json"),
                     "--out", str(workdir / fmt)]) == 0
    data = _strict_json(workdir / "json" / f"{name}.json")
    # the JSON values in the CSV's row order: by cycle from 1, by token id
    if command == "learn":
        expected = [[k, e] for k, e in enumerate(data["error_norms"], start=1)]
    else:
        expected = [[int(tid), *xy] for tid, xy in data.items()]
    assert [row[0] for row in expected] == list(range(1, len(expected) + 1))
    lines = (workdir / "csv" / f"{name}.csv").read_text().splitlines()
    assert lines[0] == header
    rows = [line.split(",") for line in lines[1:]]
    assert [[int(row[0])] + [_bits(float(cell)) for cell in row[1:]] for row in rows] == [
        [row[0]] + [_bits(value) for value in row[1:]] for row in expected]


def test_runtime_error_writes_failure_and_exits_1(workdir):
    # a grid point lies within one finite-difference step of the pole theta = 0
    write_json(workdir / "near_pole.json", {"dimension": 2, "bandwidth": 1.0, "tokens": [
        {"id": 1, "mean": [2.00001, 0.0]}, {"id": 2, "mean": [3.0, 1.0]}]})
    write_json(workdir / "cfg_near_pole.json",
               {"field": "near_pole.json", "metric": {"kind": "sphere"}})
    out = workdir / "near_pole"
    rc = main(["analyze", "--config", str(workdir / "cfg_near_pole.json"), "--out", str(out)])
    assert rc == 1
    assert sorted(p.name for p in out.iterdir()) == ["failure.json"]
    failure = _strict_json(out / "failure.json")
    assert failure["error"] == "ChartDomainError"
    assert failure["message"].startswith("sphere chart is singular")


def test_geodesic_writes_path(workdir):
    out = workdir / "geo"
    rc = main(["geodesic", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 0
    traj = _read_trajectory(out / "geodesic_path.json")
    assert np.allclose(traj.positions[0], [-1.5, 0.6])
    assert np.allclose(traj.positions[-1], [1.5, 0.6], atol=1e-5)
    summary = json.loads((out / "geodesic_summary.json").read_text())
    assert summary["length"] > 0


def _two_cluster_geodesic(workdir, max_iters):
    """Run geodesic between two far clusters; returns the exit status and report."""
    means = [[0.05 * i, 0.0] for i in range(3)] + [[10.0 + 0.05 * i, 0.0] for i in range(3)]
    write_json(workdir / "clusters.json", {
        "dimension": 2, "bandwidth": 0.1, "epsilon": 0.01,
        "tokens": [{"id": i, "mean": m} for i, m in enumerate(means)],
    })
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["field"] = "clusters.json"
    cfg["geodesic"] = {"start": [0.0, 0.0], "end": [10.0, 0.0],
                       "max_iters": max_iters, "steps": 150}
    write_json(workdir / "cfg_fail.json", cfg)
    out = workdir / "geo_fail"
    rc = main(["geodesic", "--config", str(workdir / "cfg_fail.json"), "--out", str(out)])
    return rc, json.loads((out / "no_geodesic.json").read_text())


def test_geodesic_failure_writes_report_and_exits_1(workdir, tmp_path):
    rc, report = _two_cluster_geodesic(workdir, max_iters=3)
    assert rc == 1
    assert report["error"] == "no-geodesic-found"
    assert (report["reason"], report["iterations"]) == ("max-iters", 3)


def test_geodesic_failure_reports_real_iterations_and_reason(workdir):
    # backtracking runs out on the fifth Gauss-Newton iteration, long before 50
    rc, report = _two_cluster_geodesic(workdir, max_iters=50)
    assert rc == 1
    assert (report["reason"], report["iterations"]) == ("backtracks-exhausted", 5)
    assert 0.0 < report["miss"] < float("inf")


def test_geodesic_failure_writes_null_when_every_shot_leaves_chart(workdir):
    # the end lies past the sphere chart's pole, so the first shot, from b - a,
    # leaves the chart and ends the solve before any iteration
    save_field(make_field([], epsilon=0.5), workdir / "empty.json")
    write_json(workdir / "cfg_pole_geo.json", {
        "field": "empty.json", "metric": {"kind": "sphere", "radius": 1.0},
        "geodesic": {"start": [0.5, 0.0], "end": [-0.5, 0.0], "max_iters": 4, "steps": 50},
    })
    out = workdir / "geo_pole"
    rc = main(["geodesic", "--config", str(workdir / "cfg_pole_geo.json"), "--out", str(out)])
    assert rc == 1
    text = (out / "no_geodesic.json").read_text()
    assert "Infinity" not in text
    assert json.loads(text) == {"error": "no-geodesic-found", "reason": "chart-exit",
                                "miss": None, "iterations": 0}


def test_flow_that_never_ran_scores_null_and_cannot_win(workdir):
    save_field(make_field([], epsilon=0.5), workdir / "empty.json")
    write_json(workdir / "cfg_no_cycle.json", {
        "field": "empty.json", "metric": {"kind": "sphere", "radius": 1.0},
        "simulation": {"steps": 10, "dt": 0.01, "seeds": [1, 2],
                       "start": [0.001, 0.0], "velocity": [-1.0, 0.0]},
    })
    out = workdir / "no_cycle"
    assert main(["compete", "--config", str(workdir / "cfg_no_cycle.json"), "--out", str(out)]) == 1
    assert _strict_json(out / "failure.json")["seeds"] == [1, 2]
    assert _strict_json(out / "selection.json") == {
        "threshold": 0.0, "scores": [None, None], "winner_index": None, "winner_seed": None}


def test_chart_exit_writes_failure_and_exits_1(workdir):
    save_field(make_field([], epsilon=0.5), workdir / "empty.json")
    cfg = {
        "field": "empty.json",
        "metric": {"kind": "sphere", "radius": 1.0},
        "simulation": {"steps": 400, "dt": 0.01, "seeds": [1],
                       "start": [0.5, 0.0], "velocity": [-1.0, 0.0]},
        "output": {"format": "json"},
    }
    write_json(workdir / "cfg_pole.json", cfg)
    out = workdir / "pole"
    rc = main(["simulate", "--config", str(workdir / "cfg_pole.json"), "--out", str(out)])
    assert rc == 1
    failure = json.loads((out / "failure.json").read_text())
    assert failure["error"] == "chart-exit"
    truncated = _read_trajectory(out / "trajectory_seed1.json")
    assert len(truncated) < 401


@pytest.mark.parametrize("command", ["simulate", "compete"])
def test_diverging_flow_writes_failure_and_exits_1(workdir, command):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["cognition"].update(kappa=1e6, feedback_gain=5.0)
    cfg["simulation"]["steps"] = 300
    write_json(workdir / "cfg_diverge.json", cfg)
    out = workdir / "diverge"
    assert main([command, "--config", str(workdir / "cfg_diverge.json"), "--out", str(out)]) == 1
    assert _strict_json(out / "failure.json") == {
        "error": "non-finite", "seeds": [1, 2], "reasons": ["non-finite", "non-finite"]}
    for seed in (1, 2):
        traj = _strict_json(out / f"trajectory_seed{seed}.json")
        assert traj["truncated"] is True
        assert 1 < len(traj["samples"]) < 301
    if command == "compete":
        # the kept cycles' squared errors overflow, so the scores are -inf
        assert _strict_json(out / "selection.json")["scores"] == [None, None]


def test_diverging_learning_writes_failure_and_exits_1(workdir):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["cognition"].update(kappa=1e6, feedback_gain=5.0)
    cfg["learning"]["cycles"] = 300
    write_json(workdir / "cfg_diverge.json", cfg)
    out = workdir / "diverge_learn"
    assert main(["learn", "--config", str(workdir / "cfg_diverge.json"), "--out", str(out)]) == 1
    failure = _strict_json(out / "failure.json")
    assert failure["error"] == "non-finite" and 0 < failure["cycles"] < 300
    assert len(_strict_json(out / "error_curve.json")["error_norms"]) == failure["cycles"]
    snapshots = sorted(out.glob("field_cycle*.json"))
    assert len(snapshots) == failure["cycles"] + 1
    for path in snapshots:
        _strict_json(path)


def _run_in(tmp_path, command, field, config):
    write_json(tmp_path / "field.json", field)
    write_json(tmp_path / "config.json", dict(config, field="field.json"))
    out = tmp_path / "out"
    # pyproject turns every RuntimeWarning into an error, so a warning fails here too
    return main([command, "--config", str(tmp_path / "config.json"), "--out", str(out)]), out


def test_learned_mean_that_overflows_ends_learn_as_non_finite(tmp_path):
    # the state stays finite, but the first update moves the mean by -2e308
    rc, out = _run_in(tmp_path, "learn", {"dimension": 1, "tokens": [{"id": 1, "mean": [1e308]}]}, {
        "cognition": {"beta": 1.0, "predictor": "geometric"},
        "learning": {"input": [-1e308], "rate": 1.0, "cycles": 3},
        "simulation": {"start": [1e308]}})
    assert rc == 1
    assert _strict_json(out / "failure.json") == {"error": "non-finite", "cycles": 0}
    assert _strict_json(out / "error_curve.json") == {"error_norms": []}
    assert sorted(p.name for p in out.iterdir()) == [
        "error_curve.json", "failure.json", "field_cycle0000.json"]
    assert _strict_json(out / "field_cycle0000.json")["tokens"][0]["mean"] == [1e308]


def test_geodesic_whose_length_overflows_writes_failure_and_exits_1(tmp_path):
    rc, out = _run_in(tmp_path, "geodesic", {"dimension": 1, "tokens": [{"id": 1, "mean": [0.0]}]}, {
        "metric": {"kind": "flat"},
        "geodesic": {"start": [-1e200], "end": [1e200], "steps": 10}})
    assert rc == 1
    assert _strict_json(out / "failure.json") == {"error": "non-finite"}
    assert not (out / "geodesic_summary.json").exists()
    path = _strict_json(out / "geodesic_path.json")["samples"]
    assert (path[0]["position"], path[-1]["position"]) == ([-1e200], [1e200])


@pytest.mark.parametrize("fmt", FORMATS)
def test_geodesic_whose_path_overflows_writes_failure_and_exits_1(tmp_path, capfd, fmt):
    # the shot ends within tol, but its velocities reach +-inf: the export
    # ended in a "not JSON compliant: inf" traceback with an empty --out
    rc, out = _run_in(tmp_path, "geodesic", field_to_dict(demo_field()), {
        "geodesic": {"start": [-1e300, 0.0], "end": [1.0, 0.0], "steps": 12, "max_iters": 4,
                     "tol": 1.0},
        "output": {"format": fmt}})
    assert rc == 1
    assert sorted(p.name for p in out.iterdir()) == ["failure.json"]
    assert _strict_json(out / "failure.json") == {"error": "non-finite"}
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("command", COMMANDS)
def test_out_under_a_file_exits_2_and_creates_nothing(workdir, capsys, command):
    # mkdir raised NotADirectoryError out of main: a traceback and exit 1
    (workdir / "afile").write_text("kept\n")
    before = sorted(p.name for p in workdir.iterdir())
    out = workdir / "afile" / "out"
    rc = main([command, "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"geomind: error: cannot make the output directory {out}: Not a directory\n")
    assert sorted(p.name for p in workdir.iterdir()) == before
    assert (workdir / "afile").read_text() == "kept\n"


@pytest.mark.parametrize("command, artifact", [
    ("simulate", "trajectory_seed2.json"), ("compete", "selection.json"),
    ("learn", "error_curve.json"), ("analyze", "field_report.json"),
    ("geodesic", "geodesic_summary.json")])
def test_artifact_on_a_full_disk_exits_1_with_one_line(workdir, capsys, command, artifact):
    # the write's OSError (ENOSPC) escaped main: a traceback and no report;
    # a failed write() names no file, so the line names the output directory
    out = workdir / "out"
    out.mkdir()
    (out / artifact).symlink_to("/dev/full")
    rc = main([command, "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (
        f"geomind: error: cannot write {out}: {os.strerror(errno.ENOSPC)}\n")


def test_artifact_that_is_a_directory_is_named(workdir, capsys):
    # open() fails with an error that carries the file's name
    out = workdir / "out"
    (out / "selection.json").mkdir(parents=True)
    rc = main(["compete", "--config", str(workdir / "config.json"), "--out", str(out)])
    assert rc == 1
    assert capsys.readouterr().err == (f"geomind: error: cannot write {out / 'selection.json'}: "
                                       f"{os.strerror(errno.EISDIR)}\n")


def test_learn_on_an_empty_field_exits_2(tmp_path, capsys):
    # learn_update's nearest() raised ValueError and left an empty --out
    rc, out = _run_in(tmp_path, "learn", {"dimension": 2, "tokens": []},
                      {"learning": {"input": [1.0, 0.0]}})
    assert rc == 2 and not out.exists()
    assert capsys.readouterr().err == (
        "geomind: error: learn command requires a field with at least one token\n")


@pytest.mark.parametrize("command", ["simulate", "compete"])
def test_flow_that_overflows_at_its_start_reports_without_a_warning(tmp_path, command):
    # the offsets -|v - c|^2 / 2h^2 are finite, -1.5e308, but at the start
    # token the exponent's s . x_c = |v - c|^2 / h^2 overflows before the first cycle
    a = 8.66e153
    rc, out = _run_in(tmp_path, command, {"dimension": 1, "bandwidth": 0.5, "tokens": [
        {"id": 1, "mean": [a]}, {"id": 2, "mean": [-a]}]},
        {"simulation": {"steps": 2, "start": [a], "seeds": [1]}})
    assert rc == 1
    assert _strict_json(out / "failure.json") == {
        "error": "non-finite", "seeds": [1], "reasons": ["non-finite"]}
    assert _strict_json(out / "trajectory_seed1.json")["truncated"] is True


def test_means_whose_centroid_overflows_exit_2(tmp_path, capsys):
    # every mean is finite, but the first column sums to 3.1e308
    rc, out = _run_in(tmp_path, "analyze", {"dimension": 2, "tokens": [
        {"id": 1, "mean": [1e307, 1e307]}, {"id": 2, "mean": [1.5e308, -1e308]},
        {"id": 3, "mean": [1.5e308, 1e308]}]}, {})
    assert rc == 2 and not out.exists()
    assert "means must have finite column sums" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["analyze", "geodesic"])
def test_means_whose_kernel_offsets_overflow_exit_2(tmp_path, capfd, command):
    # the centroid is 0, but |v - c|^2 = 1e400 overflows: analyze ended in a
    # NaN traceback, and geodesic printed LAPACK's DLASCL line and reported a
    # singular Jacobian
    rc, out = _run_in(tmp_path, command, {"dimension": 1, "tokens": [
        {"id": 1, "mean": [1e200]}, {"id": 2, "mean": [-1e200]}]},
        {"geodesic": {"start": [1e200], "end": [-1e200]}})
    assert rc == 2 and not out.exists()
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == (f"geomind: error: {tmp_path / 'field.json'}: token 1: mean is too "
                            "far from the centroid: its kernel offset -|v - c|^2 / 2h^2 is not "
                            "finite\n")


# tokens the kernel offsets accept, -1.5e308, but at bandwidth 0.5 the
# exponent's s . x_c = |v - c|^2 / h^2 overflows near them
FAR_PAIR = {"dimension": 1, "bandwidth": 0.5, "tokens": [
    {"id": 1, "mean": [8.66e153]}, {"id": 2, "mean": [-8.66e153]}]}


def test_analyze_of_a_field_whose_curvature_overflows_reports_non_finite(tmp_path, capfd):
    # ended in a "not JSON compliant: nan" traceback with an empty --out
    rc, out = _run_in(tmp_path, "analyze", FAR_PAIR, {})
    assert rc == 1
    assert sorted(p.name for p in out.iterdir()) == ["failure.json"]
    assert _strict_json(out / "failure.json") == {"error": "non-finite"}
    assert capfd.readouterr() == ("", "")


def test_analyze_with_every_grid_point_outside_the_chart_writes_an_empty_report(tmp_path):
    # the grid spans theta in [4.3, 4.7], all beyond the sphere chart's pi
    rc, out = _run_in(tmp_path, "analyze", {"dimension": 2, "bandwidth": 0.1, "tokens": [
        {"id": 1, "mean": [4.5, 0.0]}, {"id": 2, "mean": [4.5, 0.2]}]},
        {"metric": {"kind": "sphere"}})
    assert rc == 0
    report = _strict_json(out / "field_report.json")
    assert report["curvature_samples"] == [] and report["high_curvature"] == []
    assert report["percentile_cut"] == 0.0


def test_geodesic_with_a_non_finite_jacobian_stops_before_lapack(tmp_path, capfd):
    # LAPACK printed "On entry to DLASCL parameter number 4 had an illegal value"
    rc, out = _run_in(tmp_path, "geodesic", FAR_PAIR,
                      {"geodesic": {"start": [8.66e153], "end": [-8.66e153]}})
    assert rc == 1
    assert sorted(p.name for p in out.iterdir()) == ["no_geodesic.json"]
    assert (out / "no_geodesic.json").read_text() == (
        '{\n  "error": "no-geodesic-found",\n  "reason": "singular-jacobian",\n'
        '  "miss": null,\n  "iterations": 1\n}\n')
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("simulation, rule", [
    ({"dt": 1e308, "steps": 3}, "times simulation.steps 3 must be finite"),
    ({"dt": 1e306, "steps": 3}, "times learning.cycles 1000 must be finite"),
    ({"dt": 1e200, "steps": 3}, "must have a finite square"),
    # dt**2 underflowed to 0, and the forcing's divide-by-zero warning escaped main
    ({"dt": 1e-300, "steps": 3}, "must have a finite square, at least 2^-1022"),
    ({"dt": 2.0**-512, "steps": 3}, "must have a finite square, at least 2^-1022"),
], ids=["steps", "cycles", "square", "square-underflow", "square-subnormal"])
def test_dt_whose_times_or_square_overflow_exits_2(tmp_path, capsys, simulation, rule):
    rc, out = _run_in(tmp_path, "simulate", {"dimension": 1, "tokens": [{"id": 1, "mean": [0.0]}]}, {
        "metric": {"kind": "flat"}, "learning": {"cycles": 1000},
        "simulation": dict(simulation, start=[0.0], velocity=[0.0], seeds=[1])})
    assert rc == 2 and not out.exists()
    assert rule in capsys.readouterr().err


def test_analyze_grid_over_budget_exits_2_quickly(tmp_path):
    write_json(tmp_path / "field.json", {"dimension": 7, "tokens": [{"id": 1, "mean": [0.0] * 7}]})
    write_json(tmp_path / "config.json", {"field": "field.json"})
    out = tmp_path / "out"
    start = time.perf_counter()
    assert main(["analyze", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    assert time.perf_counter() - start < 1.0
    assert not out.exists()


def _tree_digest(root: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(root.rglob("*")):
        if p.is_file():
            h.update(p.name.encode())
            h.update(p.read_bytes())
    return h.hexdigest()


def test_runs_byte_identical(workdir):
    digests = []
    for k in range(3):
        out = workdir / f"det{k}"
        rc = main(["simulate", "--config", str(workdir / "config.json"), "--out", str(out)])
        assert rc == 0
        digests.append(_tree_digest(out))
    assert digests[0] == digests[1] == digests[2]


def test_run_refuses_an_unknown_command_before_mkdir(workdir):
    config = dataclasses.replace(load_config(workdir / "config.json"), out_dir=workdir / "bogus")
    with pytest.raises(ConfigError, match="unknown command 'bogus'"):
        run("bogus", config)
    assert not config.out_dir.exists()


def test_learn_runs_back_to_back_in_one_process_are_byte_identical(workdir):
    config = load_config(workdir / "config.json")
    digests = []
    for k in range(2):
        config = dataclasses.replace(config, out_dir=workdir / f"learn{k}")
        assert run("learn", config) == 0
        digests.append(_tree_digest(config.out_dir))
    assert digests[0] == digests[1]


def test_compete_logs_one_info_line_per_seed_and_writes_the_same_tree(workdir, caplog):
    config = load_config(workdir / "config.json")
    quiet = dataclasses.replace(config, out_dir=workdir / "quiet")
    assert run("compete", quiet) == 0
    loud = dataclasses.replace(config, out_dir=workdir / "loud")
    with caplog.at_level(logging.INFO, logger="geomind"):
        assert run("compete", loud) == 0
    lines = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    scores = json.loads((loud.out_dir / "selection.json").read_text())["scores"]
    assert lines == [f"thought flow (seed {seed}): score {score:.17g}, stop reason none, "
                     "100 cycles" for seed, score in zip((1, 2), scores)]
    assert _tree_digest(quiet.out_dir) == _tree_digest(loud.out_dir)


def test_seed_override(workdir):
    out = workdir / "seeded"
    rc = main(["simulate", "--config", str(workdir / "config.json"),
               "--out", str(out), "--seed", "42"])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["trajectory_seed42.json"]


def test_csv_output_format(workdir):
    cfg = json.loads((workdir / "config.json").read_text())
    cfg["output"]["format"] = "csv"
    write_json(workdir / "cfg_csv.json", cfg)
    out = workdir / "csv"
    rc = main(["simulate", "--config", str(workdir / "cfg_csv.json"), "--out", str(out)])
    assert rc == 0
    lines = (out / "trajectory_seed1.csv").read_text().splitlines()
    assert lines[0] == "t,p0,p1,v0,v1,token_id"
    assert len(lines) == 102
