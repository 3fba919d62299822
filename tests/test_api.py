"""The public surface: every exported name resolves, and README's library
example runs as written."""

import re
from pathlib import Path

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
