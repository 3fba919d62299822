"""Output checker: decides whether one job's output directory is correct.

A job passes when every command exited 0, the directory holds exactly the
files its commands promise, every file is strict JSON (no NaN or Infinity),
no trajectory is truncated, and the geodesic ends within the configured
tolerance of its target. Repeats of a job must also hash the same.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path


def _reject_constant(token: str):
    raise ValueError(f"non-standard JSON constant {token}")


def strict_load(path: Path):
    """Parse a JSON file, refusing NaN, Infinity and -Infinity."""
    return json.loads(path.read_text(), parse_constant=_reject_constant)


def tree_digest(directory: Path) -> tuple[str, int]:
    """SHA-256 over the sorted relative paths and bytes of every file, and
    the total number of bytes."""
    digest = hashlib.sha256()
    total = 0
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        data = path.read_bytes()
        total += len(data)
        digest.update(path.relative_to(directory).as_posix().encode() + b"\0")
        digest.update(len(data).to_bytes(8, "little") + data)
    return digest.hexdigest(), total


def expected_files(command: str, config: dict) -> set[str]:
    if command == "compete":
        seeds = config["simulation"]["seeds"]
        return {f"trajectory_seed{s}.json" for s in seeds} | {"selection.json"}
    if command == "learn":
        cycles = config["learning"]["cycles"]
        return ({f"field_cycle{k:04d}.json" for k in range(cycles + 1)}
                | {"error_curve.json"})
    if command == "analyze":
        return {"field_report.json", "pca_projection.json"}
    if command == "geodesic":
        return {"geodesic_path.json", "geodesic_summary.json"}
    raise ValueError(f"no expected outputs for command {command!r}")


def _check_trajectory(data, samples: int, name: str) -> list[str]:
    problems = []
    if data.get("truncated") is not False:
        problems.append(f"{name}: trajectory is truncated")
    if len(data.get("samples", ())) != samples:
        problems.append(f"{name}: {len(data.get('samples', ()))} samples, expected {samples}")
    return problems


def check_job(out_dir: Path, statuses: dict[str, int], config: dict) -> list[str]:
    """Return the problems found in one job's outputs; empty means correct."""
    problems = [f"{cmd}: exit status {st}" for cmd, st in statuses.items() if st != 0]
    expected = set().union(*(expected_files(cmd, config) for cmd in statuses))
    present = {p.name for p in out_dir.iterdir()} if out_dir.is_dir() else set()
    problems += [f"missing {name}" for name in sorted(expected - present)]
    problems += [f"unexpected {name}" for name in sorted(present - expected)]
    data = {}
    for name in sorted(expected & present):
        try:
            data[name] = strict_load(out_dir / name)
        except ValueError as exc:
            problems.append(f"{name}: {exc}")
    sim = config.get("simulation", {})
    for name, payload in data.items():
        if name.startswith("trajectory_seed"):
            problems += _check_trajectory(payload, sim["steps"] + 1, name)
    if "selection.json" in data and len(data["selection.json"]["scores"]) != len(sim["seeds"]):
        problems.append("selection.json: one score per seed expected")
    if "error_curve.json" in data:
        if len(data["error_curve.json"]["error_norms"]) != config["learning"]["cycles"]:
            problems.append("error_curve.json: one error per cycle expected")
    if "geodesic_path.json" in data:
        geo = config["geodesic"]
        path = data["geodesic_path.json"]
        problems += _check_trajectory(path, geo["steps"] + 1, "geodesic_path.json")
        if path["samples"]:
            end = path["samples"][-1]["position"]
            miss = math.dist(end, geo["end"])
            if not miss <= geo["tol"]:
                problems.append(f"geodesic ends {miss:.3e} from its target (tol {geo['tol']})")
    if "field_report.json" in data:
        ids = sorted(t for comp in data["field_report.json"]["components"] for t in comp)
        n_tokens = len(data["pca_projection.json"]) if "pca_projection.json" in data else None
        if ids != sorted(set(ids)) or (n_tokens is not None and len(ids) != n_tokens):
            problems.append("field_report.json: components do not partition the tokens")
    return problems
