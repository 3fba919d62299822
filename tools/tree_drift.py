"""Compare the output trees that two geomind source roots write.

Usage (from the repository root):
    python3 tools/tree_drift.py PARENT_ROOT CHANGE_ROOT

Each root is a checkout with geomind under src/. The inputs come from this
repository's perfbench.workloads: every benchmark workload, seeds 1-3, each
with JSON and CSV output, 24 trees in all, plus eight more: a long-learn
tree, the learn_churn seed-1 config at 25 cycles, whose many snapshots share
most of their token rows; a full-covariance learn tree, the learn_churn
seed-1 config with every covariance but the first turned into a full matrix
by one fixed orthogonal matrix and the first a diagonal one with a -0.0
off-diagonal pair, since every benchmark field's covariances are diagonal;
a diagonal-list learn tree, the learn_churn seed-1 config with each 8x8
covariance written as its diagonal list, since only such a field loads its
covariances as (n, D) diagonals and learn_churn writes its matrices;
a cognition tree, the flow_sparse seed-1 config with non-identity value
and predictor matrices, a bias, tanh activation and a context capacity of
4, since every benchmark config keeps the identity pipeline; and a sphere
tree per format, the flow_sparse seed-1 config on the unit-sphere metric
with a geodesic section, running compete, analyze and geodesic, since every
benchmark config keeps the field metric: most of its flows leave the chart,
and analyze keeps only the grid points inside it; and an empty-field tree
per format, compete on the flow_sparse seed-1 config with every token
removed, since only a tokenless field gives flows that activate nothing.
Each root runs the tree's
commands, the workload's own unless the tree names others, through its own
geomind.cli.run in a subprocess.
For every file the report prints "identical", or the largest absolute drift
of a float and the number of floats that moved, where a float moved when its
repr changed, so a zero that changed sign counts. A last line sums up: the
files compared, how many are identical, how many have moved floats with the
largest drift of all, and how many differ otherwise, counting a file that
only one side wrote and a file whose bytes differ while none of its values
does (formatting drift, such as whitespace or the spelling of a number). The exit status is
1 when the file lists differ, any value other than a float differs (a key, a
length, an int, a string, a float turning into something else) or a file
differs in formatting alone, else 0.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402

SEEDS = (1, 2, 3)
FORMATS = ("json", "csv")
LONG_LEARN_CYCLES = 25
# The cognition tree's pipeline, for the flow_sparse field in D = 2.
COGNITION = {"value_matrix": [[0.9, -0.3], [0.2, 1.1]],
             "predictor_matrix": [[0.8, 0.25], [-0.15, 0.95]],
             "bias": [0.05, -0.1], "activation": "tanh", "context_capacity": 4}
# The sphere trees' commands and config sections, for the flow_sparse field.
SPHERE_COMMANDS = ("compete", "analyze", "geodesic")
SPHERE = {"metric": {"kind": "sphere", "radius": 1.0},
          "geodesic": {"start": [0.3, 0.2], "end": [2.5, 1.2], "steps": 100}}


def full_covariances(field: dict) -> None:
    """Give the tokens of a field file full covariances, in place: each C
    becomes Q C Q for the Householder reflection Q = I - (2/D) 1 1^T, except
    the first, which keeps its diagonal with -0.0 at (0, 1) and (1, 0)."""
    d = field["dimension"]
    q = np.eye(d) - 2.0 / d
    for token in field["tokens"][1:]:
        cov = q @ np.asarray(token["covariance"]) @ q
        token["covariance"] = ((cov + cov.T) / 2).tolist()
    field["tokens"][0]["covariance"][0][1] = field["tokens"][0]["covariance"][1][0] = -0.0


def diagonal_lists(field: dict) -> None:
    """Write each covariance of a field file as its diagonal list, in place."""
    for token in field["tokens"]:
        token["covariance"] = np.diagonal(token["covariance"]).tolist()


def no_tokens(field: dict) -> None:
    """Remove every token of a field file, in place."""
    field["tokens"] = []


# Runs inside each root's interpreter: argv[1] is a JSON list of
# [config path, output directory, [command, ...]].
_RUNNER = """
import json, logging, sys
from geomind.cli import run
from geomind.config import load_config
# the sphere trees' chart exits log warnings; their files record them
logging.disable(logging.WARNING)
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
    every other difference to problems. A float moved when its repr changed,
    so a zero that changed sign moves by 0."""
    if type(a) is float and type(b) is float:
        if repr(a) != repr(b):
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


def specs(names, seeds, formats) -> list:
    """(tree, workload, seed, commands, {config section: {key: value, ...}})
    of every tree to build: one per workload, seed and format, the
    long-learn, full-covariance and diagonal-list trees when learn_churn and
    seed 1 are among them, and the cognition tree and one sphere and one
    empty-field tree per format when flow_sparse and seed 1 are. Each
    section's values are merged into the config, adding a section it lacks;
    the full-covariance, diagonal-list and empty-field trees' edits hold
    {"field": function}, a rewrite of their field file."""
    commands = {name: workloads.WORKLOADS[name].commands for name in names}
    trees = [(f"{name}/seed{seed}/{fmt}", name, seed, commands[name],
              {"output": {"format": fmt}})
             for name in names for seed in seeds for fmt in formats]
    if "learn_churn" in names and 1 in seeds:
        learn = commands["learn_churn"]
        trees.append(("learn_churn/seed1/long", "learn_churn", 1, learn,
                      {"learning": {"cycles": LONG_LEARN_CYCLES}}))
        trees.append(("learn_churn/seed1/full", "learn_churn", 1, learn,
                      {"field": full_covariances}))
        trees.append(("learn_churn/seed1/diagonal", "learn_churn", 1, learn,
                      {"field": diagonal_lists}))
    if "flow_sparse" in names and 1 in seeds:
        trees.append(("flow_sparse/seed1/cognition", "flow_sparse", 1,
                      commands["flow_sparse"], {"cognition": COGNITION}))
        trees += [(f"flow_sparse/seed1/sphere/{fmt}", "flow_sparse", 1, SPHERE_COMMANDS,
                   {**SPHERE, "output": {"format": fmt}}) for fmt in formats]
        trees += [(f"flow_sparse/seed1/empty/{fmt}", "flow_sparse", 1, ("compete",),
                   {"field": no_tokens, "output": {"format": fmt}}) for fmt in formats]
    return trees


def compare(parent_root, change_root, names=tuple(sorted(workloads.WORKLOADS)),
            seeds=SEEDS, formats=FORMATS, out=sys.stdout) -> int:
    """Build the trees under both roots, print one line per file and the
    summary line, and return the exit status described in the module
    docstring."""
    status = 0
    compared, identical, moved, other, largest = 0, 0, 0, 0, 0.0
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        trees, jobs = [], {"parent": [], "change": []}
        for tree, name, seed, commands, edits in specs(names, seeds, formats):
            config = workloads.generate(name, seed, work / "inputs" / tree)
            data = json.loads(config.read_text())
            for section, values in edits.items():
                if section == "field":
                    field_path = config.parent / "field.json"
                    field = json.loads(field_path.read_text())
                    values(field)
                    field_path.write_text(json.dumps(field) + "\n")
                else:
                    data.setdefault(section, {}).update(values)
            config.write_text(json.dumps(data, indent=2) + "\n")
            for side in jobs:
                jobs[side].append([str(config), str(work / side / tree), list(commands)])
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
                other += len(set(names_old) ^ set(names_new))
            for file in sorted(set(names_old) & set(names_new)):
                compared += 1
                if (old / file).read_bytes() == (new / file).read_bytes():
                    print(f"{tree}/{file}: identical", file=out)
                    identical += 1
                    continue
                drift, problems = [], []
                _walk(_values(old / file), _values(new / file), file, drift, problems)
                if not (drift or problems):
                    # whitespace, escapes or the spelling of a number
                    problems.append("the bytes differ, but no value does")
                moved += bool(drift)
                other += bool(problems)
                largest = max([largest, *drift])
                line = (f"{tree}/{file}: max drift {max(drift, default=0.0):.3g}, "
                        f"{len(drift)} floats moved")
                if problems:
                    status = 1
                    line += "; other differences: " + "; ".join(problems[:5])
                print(line, file=out)
    print(f"summary: {compared} files compared, {identical} identical, {moved} with moved "
          f"floats (max drift {largest:.3g}), {other} with other differences", file=out)
    return status


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    return compare(Path(args[0]), Path(args[1]))


if __name__ == "__main__":
    sys.exit(main())
