"""The exit contract of every run, fuzzed at the edges the loaders accept.

A run exits 0, exits 1 with a report (failure.json or no_geodesic.json), or
exits 2 with no output directory; nothing escapes cli.main. The loaders
refuse what is malformed (tests/test_cli.py fuzzes each number slot of an
input file), so what remains is a run on values the loaders take, at their
edges: bandwidth and epsilon near 2^-511 and 2^511, weights of 0 and 1e300,
means near the far-mean limit sqrt(2 * max float) h, kappa and feedback
gain near +-1e300, dt from 1e-300 to 1e3, subnormal velocities, empty
fields, the flat and sphere metrics and both output formats. Each draw is
small (n <= 8, D <= 3, at most 20 steps, cycles, geodesic steps and
iterations), and each side of an edge is drawn, so many runs are refused
at load. Every command runs twice, and both runs must write the same bytes.
"""

import hashlib
import json
import math
import sys
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, event, given, settings, strategies as st

from geomind.cli import COMMANDS, main
from geomind.io import FORMATS

TINY, HUGE = 2.0**-511, 2.0**511
# |v - c| at which a token's kernel offset -|v - c|^2 / 2h^2 overflows, in units of h
FAR = math.sqrt(2.0) * math.sqrt(sys.float_info.max)

# each list starts at an ordinary value, which Hypothesis draws most and
# shrinks to, and holds both sides of each edge
BANDWIDTHS = st.sampled_from([1.0, 0.3]) | st.sampled_from(
    [2.0 * TINY, TINY, 2.0**-512, HUGE / 2.0, HUGE * (1.0 - 2.0**-53), HUGE])
EPSILONS = st.sampled_from([1.0, 1e-3]) | st.sampled_from(
    [2.0 * TINY, TINY, 2.0**-512, HUGE, 1e300])
WEIGHTS = st.sampled_from([1.0, 0.5, 0.0, 1e300])
# a mean coordinate in units of the bandwidth: near the data, or also near
# the far-mean limit
NEAR_MEANS = st.floats(-3.0, 3.0)
FAR_MEANS = NEAR_MEANS | st.sampled_from(
    [1e153, -1e153, 0.45 * FAR, -0.45 * FAR, 0.5 * FAR, 0.99 * FAR, -FAR])
COVARIANCES = st.sampled_from([None, 0.0, 0.01, 1e300])
GAINS = st.floats(-2.0, 2.0) | st.sampled_from([1e300, -1e300, 1.7e308, -1.7e308])
KAPPAS = st.floats(0.0, 2.0) | st.sampled_from([1e300, 1.7e308, -1e300])
# a flat metric's scale or the sphere's radius
SCALES = st.sampled_from([1.0, 0.5]) | st.sampled_from(
    [2.0**-512, TINY, HUGE * (1.0 - 2.0**-53), HUGE, 1e-300, 1e300])
# a geometric window in steps of dt: round() takes 0.5 to no step, and the
# recent fronts hold 256 steps
WINDOWS = st.sampled_from([10.0, 1.0, 0.5, 0.51, 256.49, 256.5, 257.0])
DTS = st.floats(1e-300, 1e3) | st.sampled_from([0.01, 1e-300, 1e-12, 1e3])
COORDINATES = st.floats(-3.0, 3.0) | st.sampled_from(
    [5e-324, -5e-324, 2.2e-310, -1e-308, 1e300, -1e300])


def _vector(d):
    return st.lists(COORDINATES, min_size=d, max_size=d)


@st.composite
def _runs(draw):
    """A field, a config and maybe an input schedule, as JSON payloads by file name."""
    kind = draw(st.sampled_from(["field", "flat", "sphere"]))
    d = 2 if kind == "sphere" else draw(st.integers(1, 3))
    h = draw(BANDWIDTHS)
    means = draw(st.sampled_from([NEAR_MEANS, FAR_MEANS]))
    tokens = []
    for k in range(draw(st.integers(0, 8))):
        token = {"id": k, "mean": [h * m for m in draw(st.lists(means, min_size=d, max_size=d))],
                 "weight": draw(WEIGHTS)}
        cov = draw(COVARIANCES)
        if cov is not None:
            token["covariance"] = [cov] * d
        tokens.append(token)
    steps = draw(st.integers(1, 20))
    metric = {"kind": kind}
    if kind != "field":
        metric["scale" if kind == "flat" else "radius"] = draw(SCALES)
    dt = draw(DTS)
    simulation = {"steps": steps, "dt": dt,
                  "seeds": draw(st.lists(st.integers(0, 3), min_size=1, max_size=2, unique=True)),
                  "start": draw(_vector(d)), "velocity": draw(_vector(d))}
    files = {"field.json": {"dimension": d, "bandwidth": h, "epsilon": draw(EPSILONS),
                            "tokens": tokens}}
    if draw(st.booleans()):
        files["inputs.json"] = [{"step": step, "vector": draw(_vector(d))}
                                for step in draw(st.sets(st.integers(0, steps), max_size=3))]
        simulation["inputs"] = "inputs.json"
    files["config.json"] = {
        "field": "field.json",
        "metric": metric,
        "cognition": {"beta": draw(st.sampled_from([0.0, 0.3, 1.0])),
                      "feedback_gain": draw(GAINS), "kappa": draw(KAPPAS),
                      "context_capacity": draw(st.integers(1, 4)),
                      "predictor": draw(st.sampled_from(["contextual", "geometric"])),
                      "geometric_window": dt * draw(WINDOWS)},
        "simulation": simulation,
        "competition": {"threshold": draw(st.sampled_from([-1e300, -1.0, 0.0]))},
        "learning": {"rate": draw(st.sampled_from([0.0, 0.2, 1.0])),
                     "cycles": draw(st.integers(1, 20)), "input": draw(_vector(d))},
        "geodesic": {"start": draw(_vector(d)), "end": draw(_vector(d)),
                     "steps": draw(st.integers(1, 20)), "max_iters": draw(st.integers(0, 5)),
                     "tol": draw(st.sampled_from([1e-6, 1.0, 1e300]))},
        "output": {"format": draw(st.sampled_from(FORMATS))},
    }
    return files


def _digest(root: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(root.rglob("*")) if root.exists() else []:
        h.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


@settings(max_examples=400, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(files=_runs())
def test_every_run_keeps_the_exit_contract(files):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name, payload in files.items():
            (root / name).write_text(json.dumps(payload))
        for command in COMMANDS:
            digests = []
            for side in ("a", "b"):
                out = root / f"{command}_{side}"
                rc = main([command, "--config", str(root / "config.json"), "--out", str(out)])
                assert rc in (0, 1, 2), (command, rc)
                event(f"{command} exits {rc}")
                if rc == 2:
                    assert not out.exists(), command
                if rc == 1:
                    assert ((out / "failure.json").exists()
                            or (out / "no_geodesic.json").exists()), command
                for path in out.glob("*.json"):
                    json.loads(path.read_text(), parse_constant=_refuse_constant)
                digests.append(_digest(out))
            assert digests[0] == digests[1], command
