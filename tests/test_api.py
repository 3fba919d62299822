"""The public surface: every exported name resolves, and README's library
example runs as written."""

import re
from pathlib import Path

import numpy as np
import pytest

import geomind

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_exported_name_resolves():
    missing = [name for name in geomind.__all__ if not hasattr(geomind, name)]
    assert missing == []
    assert len(set(geomind.__all__)) == len(geomind.__all__)


def test_readme_library_example_runs():
    section = README.read_text().split("### Library use", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)
    exec(compile(code, f"{README}:Library use", "exec"), {})


FIELD = geomind.demo_field()
SOURCE = geomind.ConformalFieldMetric(FIELD)
PARAMS = geomind.CognitionParams.defaults(2)
# each count's name in its errors, its floor, and a call with a value in its slot
COUNTS = {
    "integrate_geodesic": ("steps", 0, lambda n: geomind.integrate_geodesic(
        [0.0, 0.0], [0.1, 0.0], SOURCE, steps=n, dt=0.01)),
    "shooting-steps": ("shooting steps", 1, lambda n: geomind.ShootingOptions(steps=n)),
    "shooting-max-iters": ("shooting max_iters", 0,
                           lambda n: geomind.ShootingOptions(max_iters=n)),
    "run_thought_flow": ("n_steps", 1, lambda n: geomind.run_thought_flow(
        FIELD, SOURCE, PARAMS, n_steps=n)),
    "run_learning": ("cycles", 1, lambda n: geomind.run_learning(
        FIELD, PARAMS, [0.5, 0.5], cycles=n, dt=0.01, seed=0, rate=0.1)),
    "context_capacity": ("context_capacity", 1,
                         lambda n: geomind.CognitionParams.defaults(2, context_capacity=n)),
}


@pytest.mark.parametrize("bad", [True, 2.0, 2.5], ids=["bool", "whole-float", "float"])
@pytest.mark.parametrize("count", sorted(COUNTS))
def test_every_count_is_an_int_at_or_above_its_floor(count, bad):
    # a bool once counted as 1 and a float reached range() as a TypeError, or
    # was kept until the first cycle or shot used it
    name, floor, call = COUNTS[count]
    call(np.int64(floor))
    with pytest.raises(ValueError, match=re.escape(f"{name} must be an integer, got {bad!r}")):
        call(bad)
    with pytest.raises(ValueError, match=re.escape(f"{name} must be at least {floor}, got "
                                                   f"{floor - 1}")):
        call(floor - 1)
