"""Mutation gate: run each mutant of a checked-in table against the tests
that must kill it.

Usage (from the repository root):
    python3 tools/mutants.py

The table, tools/mutants.json, is a JSON list of mutants, each
{"name", "file", "old", "new", "tests"}: file is a path under the
repository root, old an exact text that occurs once in it, new its
replacement, and tests the pytest node ids that must kill the mutant. The
tool copies the repository, without .git and caches, to a temporary
directory and never edits the repository itself. It first runs every named
test on the unmutated copy, which must pass. Then, for each mutant, it
writes the mutated file into the copy, runs `python -m pytest -x` on the
mutant's tests with the copy's src first on PYTHONPATH, and restores the
file. A mutant is killed when pytest reports a failed test (exit status 1),
or when its tests run TIMEOUT_FACTOR times longer than the unmutated run of
every named test: pytest is then stopped, since the mutant made a test hang.

The exit status is 0 when every mutant is killed, 1 when any survives (each
survivor is named), and 2 when the table is stale: an old text that does
not occur exactly once, a test id that pytest cannot run, or a named test
that fails without any mutant.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tools" / "mutants.json"
IGNORE = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                                ".perfbench_work")
TIMEOUT_FACTOR = 10


class StaleTable(Exception):
    """The table no longer matches the repository."""


def load_table(path: Path) -> list[dict]:
    """The mutants of a table file."""
    table = json.loads(Path(path).read_text())
    for row in table:
        if set(row) != {"name", "file", "old", "new", "tests"} or not row["tests"]:
            raise StaleTable(f"{path}: each mutant needs name, file, old, new and tests: {row}")
    names = [row["name"] for row in table]
    if len(set(names)) != len(names):
        raise StaleTable(f"{path}: mutant names must be unique")
    return table


def mutate(text: str, row: dict) -> str:
    """text with the mutant's old text replaced by its new one."""
    count = text.count(row["old"])
    if count != 1:
        raise StaleTable(f"{row['name']}: the old text occurs {count} times in {row['file']}")
    return text.replace(row["old"], row["new"])


def run_tests(copy: Path, tests: list[str], timeout=None):
    """Exit status of pytest on the given node ids in the copy, or None when
    it is stopped after timeout seconds."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(copy / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    try:
        return subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p",
                               "no:cacheprovider", *tests], cwd=copy, env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return None


def run(table: list[dict], out=sys.stdout) -> int:
    """Run every mutant of the table; the exit status of the tool."""
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=IGNORE)
        originals = {row["file"]: (copy / row["file"]).read_text() for row in table}
        mutated = {row["name"]: mutate(originals[row["file"]], row) for row in table}
        tests = list(dict.fromkeys(test for row in table for test in row["tests"]))
        start = time.perf_counter()
        status = run_tests(copy, tests)
        timeout = TIMEOUT_FACTOR * (time.perf_counter() - start)
        if status != 0:
            raise StaleTable(f"the named tests do not pass without a mutant (pytest exit {status})")
        survivors = []
        for row in table:
            start = time.perf_counter()
            path = copy / row["file"]
            path.write_text(mutated[row["name"]])
            try:
                status = run_tests(copy, row["tests"], timeout)
            finally:
                path.write_text(originals[row["file"]])
            if status not in (0, 1, None):
                raise StaleTable(f"{row['name']}: pytest could not run {row['tests']} "
                                 f"(exit {status})")
            verdict = {0: "SURVIVED", 1: "killed", None: "timeout"}[status]
            print(f"{verdict:8} {row['name']} ({time.perf_counter() - start:.1f} s)", file=out)
            if status == 0:
                survivors.append(row["name"])
    print(f"{len(table) - len(survivors)} of {len(table)} mutants killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""), file=out)
    return 1 if survivors else 0


def main() -> int:
    try:
        return run(load_table(TABLE))
    except StaleTable as exc:
        print(f"stale mutant table: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
