import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from geomind import TokenField
from geomind.io import load_field, save_field, write_json


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
