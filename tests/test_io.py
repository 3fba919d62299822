import json
import logging
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geomind import (CognitionParams, ConformalFieldMetric, FieldFormatError, FieldReport,
                     FlatMetric, TokenField, analyze_field, run_learning)
from geomind.cli import main
from geomind.config import load_config
from geomind.io import (ROW_BLOCK, field_to_dict, load_field, save_field, save_field_report,
                        save_snapshots, write_json)
from geomind.mind import demo_field

from conftest import make_field


class Tagged(float):
    """A float whose str and repr are not the number; json writes the number."""

    def __repr__(self):
        return "Tagged()"

    __str__ = __repr__


FINITE = st.floats(allow_nan=False, allow_infinity=False)
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                               1e-310, 1e308, -1e308, 1.7976931348623157e308, 1e16, 0.1])
FLOATS = st.one_of(FINITE, EDGE_FLOATS, FINITE.map(np.float64), FINITE.map(Tagged))
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, st.text(),
                    st.sampled_from(["", "é", "\x00\x1f\x7f", " ", "\"\\/", "😀"]))
KEYS = st.one_of(st.text(), st.integers(), FINITE, st.booleans(), st.none())
PAYLOADS = st.recursive(
    st.one_of(SCALARS, st.lists(FLOATS)),
    lambda children: st.one_of(st.lists(children), st.lists(children).map(tuple),
                               st.dictionaries(KEYS, children)),
    max_leaves=40)

# the same file is rewritten for every example
SHARED_PATH = settings(max_examples=150, deadline=None,
                       suppress_health_check=[HealthCheck.function_scoped_fixture])


@SHARED_PATH
@given(PAYLOADS)
def test_write_json_matches_json_dumps_bytes(tmp_path, payload):
    path = tmp_path / "payload.json"
    write_json(path, payload)
    expected = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    assert path.read_bytes() == expected.encode()


@pytest.mark.parametrize("payload", [[], {}, (), [[]], {"a": {}}, [1.0, 2], ["x", 0.5],
                                     {1: 1.0, 2.5: [], True: (), None: [-0.0]}],
                         ids=repr)
def test_write_json_edge_payloads(tmp_path, payload):
    write_json(tmp_path / "edge.json", payload)
    expected = json.dumps(payload, indent=2, allow_nan=False) + "\n"
    assert (tmp_path / "edge.json").read_text() == expected


NON_FINITE = [float("nan"), float("inf"), float("-inf"), np.float64("nan")]


@pytest.mark.parametrize("where", ["top", "float-list", "mixed-list", "key", "value"])
@pytest.mark.parametrize("bad", NON_FINITE, ids=["nan", "inf", "-inf", "np-nan"])
def test_write_json_refuses_non_finite(tmp_path, where, bad):
    payload = {"top": bad, "float-list": [1.0, bad, 2.0], "mixed-list": [1, "a", [bad]],
               "key": {"a": 1, bad: 2}, "value": {"a": [0.5], "b": bad}}[where]
    with pytest.raises(ValueError):
        json.dumps(payload, indent=2, allow_nan=False)
    path = tmp_path / "bad.json"
    with pytest.raises(ValueError, match="not JSON compliant"):
        write_json(path, payload)
    assert not path.exists()


@pytest.mark.parametrize("payload", [{1, 2}, [0.5, {3}], {"a": np.int64(3)}, [np.float32(1.0)],
                                     {frozenset(): 1}],
                         ids=["set", "nested-set", "np-int64", "np-float32", "set-key"])
def test_write_json_refuses_unsupported_types(tmp_path, payload):
    with pytest.raises(TypeError):
        json.dumps(payload, indent=2, allow_nan=False)
    with pytest.raises(TypeError):
        write_json(tmp_path / "bad.json", payload)


# ---------------------------------------------------------------- token fields

@st.composite
def _fields(draw):
    n, d = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    coords = st.floats(-1e6, 1e6)
    ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n, unique=True))
    means = draw(hnp.arrays(float, (n, d), elements=coords))
    factors = draw(hnp.arrays(float, (n, d, d), elements=st.floats(-10, 10)))
    covariances = factors @ factors.transpose(0, 2, 1)
    covariances = (covariances + covariances.transpose(0, 2, 1)) / 2
    weights = draw(hnp.arrays(float, n, elements=st.floats(0, 1e6)))
    return TokenField(ids, means, covariances, weights,
                      draw(st.floats(1e-3, 1e3)), draw(st.floats(1e-6, 1e3)))


@SHARED_PATH
@given(_fields())
def test_field_round_trips_bitwise(tmp_path, field):
    save_field(field, tmp_path / "field.json")
    back = load_field(tmp_path / "field.json")
    assert (back.dimension, back.bandwidth, back.epsilon) == (
        field.dimension, field.bandwidth, field.epsilon)
    for name in ("ids", "means", "covariances", "weights"):
        a, b = getattr(back, name), getattr(field, name)
        if name == "covariances" and not len(field):
            b = b.reshape(0, field.dimension)  # a file with no full matrix loads as (n, D)
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes(), name


def test_diagonal_covariances_equal_np_diag(tmp_path):
    rng = np.random.default_rng(4)
    full = rng.normal(size=(3, 3))
    full = full @ full.T
    diagonals = [rng.uniform(0.0, 2.0, 3), np.array([-0.0, 0.0, 5e-324])]
    tokens = [{"id": 1, "mean": [0.0] * 3, "covariance": diagonals[0].tolist()},
              {"id": 2, "mean": [1.0] * 3, "covariance": full.tolist()},
              {"id": 3, "mean": [2.0] * 3, "covariance": diagonals[1].tolist()},
              {"id": 4, "mean": [3.0] * 3}]
    (tmp_path / "field.json").write_text(json.dumps({"dimension": 3, "tokens": tokens}))
    field = load_field(tmp_path / "field.json")
    expected = np.stack([np.diag(diagonals[0]), full, np.diag(diagonals[1]), np.zeros((3, 3))])
    assert np.array_equal(field.covariances, expected)
    assert field.covariances.tobytes() == expected.tobytes()  # -0.0 stays -0.0


DIAGONAL_KINDS = ("random", "missing", "zero", "negative zero", "subnormal", "at the bound",
                  "past the bound", "nan")


@st.composite
def _diagonal_fields(draw):
    """(ids, means, diagonals, weights, kinds) of n tokens in D = 1 to 4,
    each diagonal of a kind from DIAGONAL_KINDS: an entry of -0.0, 5e-324,
    -1e-10 max(1, max |diagonal|), the float just below that, or NaN, or a
    row left out of the file (zero), or all zeros."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 4))
    ids = draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n, unique=True))
    means = draw(hnp.arrays(float, (n, d), elements=st.floats(-1e3, 1e3)))
    weights = draw(hnp.arrays(float, n, elements=st.floats(0, 10)))
    diagonals = draw(hnp.arrays(float, (n, d), elements=st.floats(0, 1e12)))
    kinds = [draw(st.sampled_from(DIAGONAL_KINDS)) for _ in range(n)]
    for row, kind in enumerate(kinds):
        j = draw(st.integers(0, d - 1))
        if kind in ("missing", "zero"):
            diagonals[row] = 0.0
        elif kind != "random":
            diagonals[row, j] = 0.0
            bound = -1e-10 * max(1.0, float(np.abs(diagonals[row]).max()))
            diagonals[row, j] = {"negative zero": -0.0, "subnormal": 5e-324, "at the bound": bound,
                                 "past the bound": np.nextafter(bound, -np.inf),
                                 "nan": np.nan}[kind]
    return ids, means, diagonals, weights, kinds


def _built(make):
    """The field make() returns, or the message of the ValueError it raises."""
    try:
        return make()
    except ValueError as exc:
        return str(exc)


@SHARED_PATH
@given(_diagonal_fields())
def test_diagonal_lists_and_full_matrices_give_the_same_field(tmp_path, case):
    ids, means, diagonals, weights, kinds = case
    n, d = diagonals.shape
    matrices = np.zeros((n, d, d))
    matrices[:, range(d), range(d)] = diagonals
    # the constructor refuses the same token by the same rule in either shape
    fields = [_built(lambda: TokenField(ids, means, covariances, weights, 1.0, 0.5))
              for covariances in (diagonals, matrices)]
    if isinstance(fields[0], str) or isinstance(fields[1], str):
        assert fields[0] == fields[1]
    if "nan" in kinds:  # a field file cannot hold a NaN
        return
    path = tmp_path / "field.json"
    for covariances in (diagonals, matrices):
        tokens = [{"id": i, "mean": mean, "weight": w} for i, mean, w in
                  zip(ids, means.tolist(), weights.tolist())]
        for token, cov, kind in zip(tokens, covariances.tolist(), kinds):
            if kind != "missing" or covariances is matrices:  # the matrix file writes zeros
                token["covariance"] = cov
        path.write_text(json.dumps({"dimension": d, "bandwidth": 1.0, "epsilon": 0.5,
                                    "tokens": tokens}))
        try:
            fields.append(load_field(path))
        except FieldFormatError as exc:
            fields.append(str(exc))
    _, _, by_diagonal, by_matrix = fields
    if isinstance(by_diagonal, str) or isinstance(by_matrix, str):
        assert by_diagonal == by_matrix == f"{path}: {fields[0]}"
        return
    assert by_diagonal.covariances.shape == (n, d) and by_matrix.covariances.shape == (n, d, d)
    assert by_diagonal.covariances.tobytes() == diagonals.tobytes()
    for row in range(n):
        roots = by_diagonal.sampling_root(row), by_matrix.sampling_root(row)
        assert roots[0] is roots[1] is None or roots[0].tobytes() == roots[1].tobytes()
    write_json(tmp_path / "a.json", field_to_dict(by_diagonal))
    write_json(tmp_path / "b.json", field_to_dict(by_matrix))
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    save_field(by_diagonal, tmp_path / "a.json")
    save_field(by_matrix, tmp_path / "b.json")
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
    # snapshots whose covariance shape changes from one to the next
    _assert_snapshots_match(tmp_path, [by_diagonal, by_matrix, by_diagonal])


# ---------------------------------------------------------------- snapshot writer

def _assert_snapshots_match(tmp_path, fields):
    """save_snapshots writes every field byte-equal to the reference encoding
    write_json(path, field_to_dict(field))."""
    paths = [tmp_path / f"snap{k:04d}.json" for k in range(len(fields))]
    save_snapshots(fields, paths)
    for field, path in zip(fields, paths):
        write_json(tmp_path / "reference.json", field_to_dict(field))
        assert path.read_bytes() == (tmp_path / "reference.json").read_bytes(), path.name


def _snapshot_log(caplog, tmp_path, fields) -> list[tuple[int, int]]:
    """(rows encoded, n) of each snapshot, read from the writer's DEBUG lines."""
    caplog.clear()
    with caplog.at_level(logging.DEBUG, logger="geomind.io"):
        save_snapshots(fields, [tmp_path / f"log{k}.json" for k in range(len(fields))])
    lines = [r.getMessage() for r in caplog.records if r.name == "geomind.io"]
    assert len(lines) == len(fields)
    counts = []
    for k, line in enumerate(lines):
        match = re.fullmatch(r"wrote (\S+): (\d+) of (\d+) token rows encoded", line)
        assert match and match[1].endswith(f"log{k}.json"), line
        counts.append((int(match[2]), int(match[3])))
    return counts


LEARNING_PARAMS = CognitionParams.defaults(2, kappa=1.0, input_blend=0.5, feedback_gain=1.0)


def _learning_snapshots(cycles):
    rng = np.random.default_rng(3)
    n = 12
    field = TokenField(np.arange(n) + 1, rng.normal(0.0, 1.0, (n, 2)),
                       np.einsum("nd,de->nde", rng.uniform(0.01, 0.1, (n, 2)), np.eye(2)),
                       rng.uniform(0.5, 1.5, n), 1.0, 0.5)
    snapshots, errors = run_learning(field, LEARNING_PARAMS, [0.8, 0.4],
                                     cycles=cycles, dt=0.05, seed=7, rate=0.3,
                                     start=[0.0, 0.0], velocity=[0.2, 0.1])
    assert len(errors) == cycles
    return snapshots


def test_snapshots_of_a_long_learning_run_match_the_reference(tmp_path):
    _assert_snapshots_match(tmp_path, _learning_snapshots(40))


def test_snapshots_reencode_only_the_moved_row(tmp_path, caplog):
    snapshots = _learning_snapshots(40)
    counts = _snapshot_log(caplog, tmp_path, snapshots)
    assert counts[0] == (12, 12)
    for (encoded, n), before, after in zip(counts[1:], snapshots, snapshots[1:]):
        moved = int(np.any(before.means != after.means, axis=1).sum())
        assert (encoded, n) == (moved, 12) and moved <= 1
    assert sum(encoded for encoded, _ in counts[1:]) >= 30
    # every call starts afresh, with no rows kept from the last one
    assert _snapshot_log(caplog, tmp_path, snapshots[-1:]) == [(12, 12)]


@st.composite
def _field_sequences(draw):
    """A field and a run of edits, each changing random rows of one array."""
    n, d = draw(st.integers(1, 5)), draw(st.integers(1, 3))
    coords = st.one_of(st.floats(-1e3, 1e3), st.sampled_from([0.0, -0.0, 5e-324]))
    ids = np.array(draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=n, max_size=n,
                                 unique=True)))
    means = draw(hnp.arrays(float, (n, d), elements=coords))
    covariances = np.zeros((n, d, d))
    weights = draw(hnp.arrays(float, n, elements=st.floats(0, 10)))
    fields = [TokenField(ids, means, covariances, weights, 1.0, 0.5)]
    for _ in range(draw(st.integers(1, 6))):
        rows = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True))
        ids, means = fields[-1].ids.copy(), fields[-1].means.copy()
        covariances, weights = fields[-1].covariances.copy(), fields[-1].weights.copy()
        what = draw(st.sampled_from(["ids", "means", "covariances", "weights"]))
        if what == "ids":  # fresh ids above every current one stay unique
            ids[rows] = [(int(ids.max()) + 1 + k) % 2**63 for k in range(len(rows))]
            if len(set(ids.tolist())) < n:
                continue
        elif what == "means":
            means[rows] = draw(hnp.arrays(float, (len(rows), d), elements=coords))
        elif what == "covariances":
            scale = draw(hnp.arrays(float, (len(rows), d), elements=st.floats(0, 10)))
            covariances[rows] = np.einsum("rd,de->rde", scale, np.eye(d))
        else:
            weights[rows] = draw(hnp.arrays(float, len(rows), elements=st.floats(0, 10)))
        fields.append(TokenField(ids, means, covariances, weights, 1.0, 0.5))
    return fields


@SHARED_PATH
@given(_field_sequences())
def test_snapshots_of_random_row_edits_match_the_reference(tmp_path, fields):
    _assert_snapshots_match(tmp_path, fields)


COVARIANCE_KINDS = ("full", "diagonal", "zero", "negative zero", "subnormal")


def _covariance(draw, kind: str, d: int) -> np.ndarray:
    """One symmetric PSD d x d covariance of the given kind: a full SPD
    matrix; a diagonal one whose off-diagonals are +0.0; all zeros; or a
    diagonal one whose (0, 1) and (1, 0) entries are -0.0 or 5e-324."""
    if kind == "full":
        factor = draw(hnp.arrays(float, (d, d), elements=st.floats(-3, 3)))
        return factor @ factor.T + np.eye(d)
    if kind == "zero":
        return np.zeros((d, d))
    diagonal = draw(hnp.arrays(float, d, elements=st.one_of(
        st.floats(0, 10), st.sampled_from([0.0, -0.0, 5e-324]))))
    cov = np.diag(diagonal)
    if d > 1 and kind != "diagonal":
        cov[0, 1] = cov[1, 0] = -0.0 if kind == "negative zero" else 5e-324
    return cov


@st.composite
def _mixed_covariance_sequences(draw):
    """A field whose rows mix the covariance kinds, in D = 1 to 3, and a run
    of fields each giving random rows a covariance of a fresh kind."""
    n, d = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    means = draw(hnp.arrays(float, (n, d), elements=st.floats(-1e3, 1e3)))
    weights = draw(hnp.arrays(float, n, elements=st.floats(0, 10)))
    covariances = np.stack([_covariance(draw, draw(st.sampled_from(COVARIANCE_KINDS)), d)
                            for _ in range(n)])
    fields = [TokenField(np.arange(n), means, covariances, weights, 1.0, 0.5)]
    for _ in range(draw(st.integers(0, 3))):
        covariances = fields[-1].covariances.copy()
        for row in draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n, unique=True)):
            covariances[row] = _covariance(draw, draw(st.sampled_from(COVARIANCE_KINDS)), d)
        fields.append(TokenField(np.arange(n), means, covariances, weights, 1.0, 0.5))
    return fields


@SHARED_PATH
@given(_mixed_covariance_sequences())
def test_snapshots_of_mixed_covariance_kinds_match_the_reference(tmp_path, fields):
    _assert_snapshots_match(tmp_path, fields)


def test_snapshots_of_mixed_covariance_kinds_across_row_blocks(tmp_path):
    # 300 rows span two ROW_BLOCKs, with rows of every kind on both sides
    rng = np.random.default_rng(16)
    n, d = 300, 3
    factors = rng.normal(size=(n, d, d))
    covariances = np.einsum("nd,de->nde", rng.uniform(0.01, 0.05, (n, d)), np.eye(d))
    full = np.arange(n) % 3 == 0
    covariances[full] = factors[full] @ factors[full].transpose(0, 2, 1)
    covariances[1::6, 0, 1] = covariances[1::6, 1, 0] = -0.0
    covariances[2::6, 1, 2] = covariances[2::6, 2, 1] = 5e-324
    covariances[4::12] = 0.0
    field = TokenField(np.arange(n), rng.normal(size=(n, d)), covariances,
                       rng.uniform(0.5, 1.5, n), 1.0, 0.5)
    moved = TokenField(field.ids, field.means, field.covariances[::-1], field.weights, 1.0, 0.5)
    for f in (field, moved):
        off = f.covariances.reshape(n, d * d)[:, ~np.eye(d, dtype=bool).ravel()]
        diagonal = ~off.view(np.int64).any(axis=1)
        assert all(0 < rows.sum() < len(rows)
                   for rows in (diagonal[:ROW_BLOCK], diagonal[ROW_BLOCK:]))
    _assert_snapshots_match(tmp_path, [field, moved])


@pytest.mark.parametrize("n", [1, ROW_BLOCK - 1, ROW_BLOCK, ROW_BLOCK + 1, 2 * ROW_BLOCK + 1])
def test_snapshots_at_row_block_boundaries(tmp_path, n):
    # rows are written a block of ROW_BLOCK per write, the last block partial
    # unless n is a multiple; the second field moves the last row only
    rng = np.random.default_rng(n)
    field = TokenField(np.arange(n), rng.normal(size=(n, 2)), rng.uniform(0.01, 0.1, (n, 2)),
                       rng.uniform(0.5, 1.5, n), 1.0, 0.5)
    means = field.means.copy()
    means[-1] += 1.0
    moved = TokenField(field.ids, means, field.covariances, field.weights, 1.0, 0.5)
    _assert_snapshots_match(tmp_path, [field])
    _assert_snapshots_match(tmp_path, [field, moved])


@pytest.mark.parametrize("where", ["means", "covariances", "weights"])
def test_snapshot_of_a_non_finite_row_raises_the_reference_error(tmp_path, where):
    # the constructor refuses NaN, so write it into the field's own array
    field = demo_field()
    array = getattr(field, where)
    array.flags.writeable = True
    array.reshape(-1)[-1] = np.nan
    with pytest.raises(ValueError) as reference:
        write_json(tmp_path / "reference.json", field_to_dict(field))
    with pytest.raises(ValueError, match=re.escape(str(reference.value))):
        save_snapshots([field], [tmp_path / "snap.json"])


def test_snapshot_sees_a_mean_flip_from_zero_to_negative_zero(tmp_path, caplog):
    # 0.0 == -0.0 as floats, but the two are written differently
    before = TokenField([1, 2], [[0.0, 1.0], [2.0, 3.0]], np.zeros((2, 2, 2)), [1.0, 1.0])
    after = TokenField([1, 2], [[-0.0, 1.0], [2.0, 3.0]], np.zeros((2, 2, 2)), [1.0, 1.0])
    _assert_snapshots_match(tmp_path, [before, after])
    assert '"mean": [\n        -0.0,' in (tmp_path / "snap0001.json").read_text()
    assert _snapshot_log(caplog, tmp_path, [before, after]) == [(2, 2), (1, 2)]


def test_snapshots_across_a_change_of_n_or_dimension(tmp_path, caplog):
    rng = np.random.default_rng(8)

    def field(n, d):
        return TokenField(np.arange(n), rng.normal(size=(n, d)), np.zeros((n, d, d)),
                          np.ones(n), 0.7, 0.2)

    fields = [field(3, 2), field(4, 2), field(4, 2), field(4, 3), field(2, 3), field(0, 3),
              field(0, 1), field(2, 1)]
    _assert_snapshots_match(tmp_path, fields)
    assert _snapshot_log(caplog, tmp_path, fields) == [
        (3, 3), (4, 4), (4, 4), (4, 4), (2, 2), (0, 0), (0, 0), (2, 2)]


def test_snapshot_of_an_empty_field(tmp_path):
    empty = TokenField([], np.empty((0, 2)), np.empty((0, 2, 2)), [], 2.0, 0.25)
    _assert_snapshots_match(tmp_path, [empty, empty, demo_field(), empty])
    assert json.loads((tmp_path / "snap0000.json").read_text())["tokens"] == []


def test_save_snapshots_needs_one_path_per_field(tmp_path):
    with pytest.raises(ValueError, match="2 fields but 1 paths"):
        save_snapshots([demo_field(), demo_field()], [tmp_path / "one.json"])
    assert not (tmp_path / "one.json").exists()


def _report_payload(report: FieldReport) -> dict:
    """The field report as analyze wrote it with write_json, before its
    curvature samples took a row template."""
    return {
        "curvature_samples": [
            {"point": p.tolist(), "scalar": s}
            for p, s in zip(report.points, report.scalars.tolist())
        ],
        "high_curvature": [p.tolist() for p in report.high_curvature],
        "percentile_cut": report.percentile_cut,
        "components": report.components,
        "intrinsic_dimension": report.intrinsic_dimension,
    }


def _assert_report_matches(tmp_path, report: FieldReport) -> bytes:
    save_field_report(report, tmp_path / "report.json")
    write_json(tmp_path / "reference.json", _report_payload(report))
    text = (tmp_path / "report.json").read_bytes()
    assert text == (tmp_path / "reference.json").read_bytes()
    return text


@pytest.mark.parametrize("d", [1, 3])
def test_field_report_matches_the_reference(tmp_path, d):
    rng = np.random.default_rng(d)
    field = make_field(rng.normal(size=(12, d)), dim=d, bandwidth=0.8, epsilon=0.3,
                       weights=rng.uniform(0.5, 2.0, 12))
    report = analyze_field(field, ConformalFieldMetric(field))
    # a curve is flat, so at D = 1 every scalar is 0.0 or -0.0 and none is high
    assert len(report.points) == 8**d and bool(len(report.high_curvature)) == (d > 1)
    _assert_report_matches(tmp_path, report)


def test_field_report_of_one_more_sample_than_a_row_block(tmp_path):
    # the 257th sample is written alone, in a partial second block
    rng = np.random.default_rng(257)
    report = FieldReport(rng.normal(size=(257, 2)), rng.normal(size=257), np.empty((0, 2)),
                         [[1]], 1, percentile_cut=0.5)
    assert len(report.points) == ROW_BLOCK + 1
    _assert_report_matches(tmp_path, report)


def test_field_report_of_a_one_token_field(tmp_path):
    field = make_field([[0.5, -1.0]], epsilon=0.5)
    _assert_report_matches(tmp_path, analyze_field(field, ConformalFieldMetric(field)))


def test_field_report_without_high_curvature_points(tmp_path):
    report = analyze_field(demo_field(), FlatMetric(2))
    assert len(report.points) and not len(report.high_curvature)
    _assert_report_matches(tmp_path, report)


def test_field_report_keeps_negative_zero_and_writes_no_samples(tmp_path):
    report = FieldReport(points=np.array([[-0.0, 1.5], [0.0, -0.0]]),
                         scalars=np.array([0.25, -0.0]),
                         high_curvature=np.array([[-0.0, 1.5]]), components=[[1], [2, 3]],
                         intrinsic_dimension=2, percentile_cut=0.125)
    assert _assert_report_matches(tmp_path, report).count(b"-0.0") == 4
    _assert_report_matches(tmp_path, FieldReport(np.empty((0, 2)), np.empty(0),
                                                 np.empty((0, 2)), [], 0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_field_report_refuses_a_non_finite_point_as_write_json_does(tmp_path, bad):
    report = FieldReport(np.array([[0.5, bad]]), np.array([1.0]), np.empty((0, 2)), [], 1)
    with pytest.raises(ValueError) as expected:
        write_json(tmp_path / "reference.json", _report_payload(report))
    with pytest.raises(ValueError, match=re.escape(str(expected.value))):
        save_field_report(report, tmp_path / "report.json")
    assert not (tmp_path / "report.json").exists()


def test_csv_analyze_writes_the_reference_field_report(tmp_path):
    save_field(make_field([[0.0, 0.0], [1.5, 0.5], [0.5, 2.0]], bandwidth=0.9, epsilon=0.4),
               tmp_path / "field.json")
    write_json(tmp_path / "config.json", {"field": "field.json", "output": {"format": "csv"}})
    assert main(["analyze", "--config", str(tmp_path / "config.json"),
                 "--out", str(tmp_path / "out")]) == 0
    config = load_config(tmp_path / "config.json")
    write_json(tmp_path / "reference.json",
               _report_payload(analyze_field(config.field, config.metric)))
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == [
        "field_report.json", "pca_projection.csv"]
    assert ((tmp_path / "out" / "field_report.json").read_bytes()
            == (tmp_path / "reference.json").read_bytes())
