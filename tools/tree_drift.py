"""Compare the output trees that two geomind source roots write.

Usage (from the repository root):
    python3 tools/tree_drift.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout with geomind under src/. The inputs come from this
repository's perfbench.workloads: every benchmark workload, seeds 1-3, each
with JSON and CSV output, 24 trees in all. Each root runs the workload's
commands through its own geomind.cli.run in a subprocess. For every file
the report prints "identical", or the largest absolute drift of a float and
the number of floats that moved. The exit status is 1 when the file lists
differ or any value other than a float differs (a key, a length, an int, a
string, a float turning into something else), else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 2, 3)
FORMATS = ("json", "csv")

# Runs inside each root's interpreter: argv[1] is a JSON list of
# [config path, output directory, [command, ...]].
_RUNNER = """
import json, sys
from geomind.cli import run
from geomind.config import load_config
for config, out, commands in json.loads(sys.argv[1]):
    cfg = load_config(config, out_override=out)
    for command in commands:
        run(command, cfg)
"""


def _run_root(root: Path, jobs: list) -> None:
    env = dict(os.environ, PYTHONPATH=str(Path(root).resolve() / "src"))
    subprocess.run([sys.executable, "-c", _RUNNER, json.dumps(jobs)], env=env,
                   check=True, stdout=subprocess.DEVNULL)


def _values(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    rows = []
    for line in path.read_text().splitlines():
        cells = []
        for cell in line.split(","):
            for kind in (int, float):
                try:
                    cell = kind(cell)
                    break
                except ValueError:
                    pass
            cells.append(cell)
        rows.append(cells)
    return rows


def _walk(a, b, where: str, drift: list, problems: list) -> None:
    """Append |a - b| of every float pair that moved to drift and a note on
    every other difference to problems."""
    if type(a) is float and type(b) is float:
        if a != b:
            drift.append(abs(a - b))
    elif isinstance(a, dict) and isinstance(b, dict):
        if list(a) != list(b):
            problems.append(f"{where}: keys {list(a)} != {list(b)}")
        for key in a.keys() & b.keys():
            _walk(a[key], b[key], f"{where}.{key}", drift, problems)
    elif isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            problems.append(f"{where}: length {len(a)} != {len(b)}")
        for k, (x, y) in enumerate(zip(a, b)):
            _walk(x, y, f"{where}[{k}]", drift, problems)
    elif type(a) is not type(b) or a != b:
        problems.append(f"{where}: {a!r} != {b!r}")


def compare(parent_root, change_root, names=tuple(sorted(workloads.WORKLOADS)),
            seeds=SEEDS, formats=FORMATS, out=sys.stdout) -> int:
    """Build the trees under both roots, print one line per file and return
    the exit status described in the module docstring."""
    status = 0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trees, jobs = [], {"parent": [], "change": []}
        for name in names:
            for seed in seeds:
                for fmt in formats:
                    tree = f"{name}/seed{seed}/{fmt}"
                    config = workloads.generate(name, seed, work / "inputs" / tree)
                    data = json.loads(config.read_text())
                    data["output"]["format"] = fmt
                    config.write_text(json.dumps(data, indent=2) + "\n")
                    for side in jobs:
                        jobs[side].append([str(config), str(work / side / tree),
                                           list(workloads.WORKLOADS[name].commands)])
                    trees.append(tree)
        _run_root(parent_root, jobs["parent"])
        _run_root(change_root, jobs["change"])
        for tree in trees:
            old, new = work / "parent" / tree, work / "change" / tree
            names_old = sorted(p.name for p in old.iterdir())
            names_new = sorted(p.name for p in new.iterdir())
            if names_old != names_new:
                print(f"{tree}: file lists differ: {names_old} != {names_new}", file=out)
                status = 1
            for file in sorted(set(names_old) & set(names_new)):
                if (old / file).read_bytes() == (new / file).read_bytes():
                    print(f"{tree}/{file}: identical", file=out)
                    continue
                drift, problems = [], []
                _walk(_values(old / file), _values(new / file), file, drift, problems)
                line = (f"{tree}/{file}: max drift {max(drift, default=0.0):.3g}, "
                        f"{len(drift)} floats moved")
                if problems:
                    status = 1
                    line += "; other values differ: " + "; ".join(problems[:5])
                print(line, file=out)
    return status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(Path(args[0]), Path(args[1]))


if __name__ == "__main__":
    sys.exit(main())
