"""Command-line entry point.

Usage: geomind <simulate|compete|learn|analyze|geodesic> --config <path>
       [--out <dir>] [--seed <n> ...]

Exit status is 0 on success, 1 on a runtime failure (with a report file
written) or on an OS error while writing the outputs (with one stderr line
and no report), 2 on usage or configuration errors. All outputs are
deterministic for a fixed config and seed list.
"""

from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from itertools import chain

import numpy as np

from .config import RunConfig, load_config
from .errors import ConfigError, FieldFormatError, GeomindError, NoGeodesicError
from .geodesic import geodesic_between, path_length_energy
from .io import export_trajectory, save_field_report, save_snapshots, write_json
from .mind import (_check_grid, analyze_field, pca_projection, run_learning,
                   run_thought_flow, select_conscious)


COMMANDS = ("simulate", "compete", "learn", "analyze", "geodesic")

logger = logging.getLogger(__name__)


def _configure_logging() -> None:
    level_name = os.environ.get("GEOMIND_LOG", "WARNING").upper()
    level = getattr(logging, level_name, logging.WARNING)
    logging.basicConfig(level=level, format="%(levelname)s %(name)s: %(message)s")


def _run_flows(config: RunConfig):
    return [run_thought_flow(config.field, config.metric, config.params, inputs=config.inputs,
                             n_steps=config.steps, dt=config.dt, seed=seed,
                             start=config.start, velocity=config.velocity)
            for seed in config.seeds]


def _export_flows(flows, config: RunConfig) -> int:
    """Write each flow's trajectory; exit status 1 and failure.json when a
    flow was truncated. The report's error is the first truncated flow's
    stop reason; reasons gives each listed seed's own."""
    for flow in flows:
        name = f"trajectory_seed{flow.seed}.{config.fmt}"
        export_trajectory(flow.trajectory, config.fmt, config.out_dir / name)
    bad = [f for f in flows if f.stop_reason]
    if bad:
        write_json(config.out_dir / "failure.json", {
            "error": bad[0].stop_reason, "seeds": [f.seed for f in bad],
            "reasons": [f.stop_reason for f in bad]})
    return 1 if bad else 0


def cmd_simulate(config: RunConfig) -> int:
    return _export_flows(_run_flows(config), config)


def cmd_compete(config: RunConfig) -> int:
    flows = _run_flows(config)
    status = _export_flows(flows, config)
    selection = select_conscious(flows, config.threshold)
    write_json(config.out_dir / "selection.json", {
        "threshold": selection.threshold,
        # -inf: a flow without a completed cycle, or whose squared errors
        # overflowed; JSON has no Infinity
        "scores": [s if math.isfinite(s) else None for s in selection.scores],
        "winner_index": selection.winner,
        "winner_seed": None if selection.winner is None else config.seeds[selection.winner],
    })
    return status


def cmd_learn(config: RunConfig) -> int:
    snapshots, error_norms = run_learning(
        config.field, config.params, config.learning_input,
        cycles=config.learning_cycles, dt=config.dt, seed=config.seeds[0],
        rate=config.learning_rate, start=config.start, velocity=config.velocity)
    save_snapshots(snapshots, [config.out_dir / f"field_cycle{k:04d}.json"
                               for k in range(len(snapshots))])
    if config.fmt == "csv":
        lines = ["cycle,error_norm"]
        lines += [f"{k},{repr(float(e))}" for k, e in enumerate(error_norms, start=1)]
        (config.out_dir / "error_curve.csv").write_text("\n".join(lines) + "\n")
    else:
        write_json(config.out_dir / "error_curve.json",
                   {"error_norms": [float(e) for e in error_norms]})
    if len(error_norms) < config.learning_cycles:
        write_json(config.out_dir / "failure.json",
                   {"error": "non-finite", "cycles": len(error_norms)})
        return 1
    return 0


def cmd_analyze(config: RunConfig) -> int:
    report = analyze_field(config.field, config.metric)
    projection = pca_projection(config.field)
    values = chain([report.percentile_cut], report.scalars, *projection.values())
    if not all(map(math.isfinite, values)):  # JSON has no NaN or Infinity
        write_json(config.out_dir / "failure.json", {"error": "non-finite"})
        return 1
    save_field_report(report, config.out_dir / "field_report.json")
    if config.fmt == "csv":
        lines = ["token_id,x,y"]
        lines += [f"{tid},{repr(float(c[0]))},{repr(float(c[1]))}"
                  for tid, c in sorted(projection.items())]
        (config.out_dir / "pca_projection.csv").write_text("\n".join(lines) + "\n")
    else:
        write_json(config.out_dir / "pca_projection.json",
                   {str(tid): c.tolist() for tid, c in sorted(projection.items())})
    return 0


def cmd_geodesic(config: RunConfig) -> int:
    try:
        traj = geodesic_between(config.geodesic_start, config.geodesic_end,
                                config.metric, config.shooting)
    except NoGeodesicError as exc:
        write_json(config.out_dir / "no_geodesic.json", {
            "error": "no-geodesic-found",
            "reason": exc.reason,
            # a miss is infinite when every shot left the chart; JSON has no Infinity
            "miss": exc.miss if math.isfinite(exc.miss) else None,
            "iterations": exc.iterations,
        })
        return 1
    if not (np.isfinite(traj.positions).all() and np.isfinite(traj.velocities).all()):
        # a shot can end within tol while its path overflows; JSON has no Infinity
        write_json(config.out_dir / "failure.json", {"error": "non-finite"})
        return 1
    export_trajectory(traj, config.fmt, config.out_dir / f"geodesic_path.{config.fmt}")
    length, energy = path_length_energy(traj, config.metric)
    if not (math.isfinite(length) and math.isfinite(energy)):  # JSON has no Infinity
        write_json(config.out_dir / "failure.json", {"error": "non-finite"})
        return 1
    write_json(config.out_dir / "geodesic_summary.json",
               {"length": length, "energy": energy})
    return 0


def run(command: str, config: RunConfig) -> int:
    """Dispatch a command against a validated config; returns the exit status.
    A runtime GeomindError, other than ConfigError and FieldFormatError, is
    written to failure.json as {"error": <class name>, "message": ...}."""
    handlers = {
        "simulate": cmd_simulate,
        "compete": cmd_compete,
        "learn": cmd_learn,
        "analyze": cmd_analyze,
        "geodesic": cmd_geodesic,
    }
    if command not in handlers:
        raise ConfigError(f"unknown command {command!r}; expected one of {COMMANDS}")
    # before mkdir, so a refused run leaves no output directory
    if command == "learn" and config.learning_input is None:
        raise ConfigError("learn command requires learning.input in the config")
    if command == "learn" and not len(config.field):
        raise ConfigError("learn command requires a field with at least one token")
    if command == "geodesic" and (config.geodesic_start is None or config.geodesic_end is None):
        raise ConfigError("geodesic command requires geodesic.start and geodesic.end")
    if command == "analyze":
        _check_grid(config.field.dimension)
    try:
        config.out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # such as a file where a directory of the path should be
        raise ConfigError(f"cannot make the output directory {config.out_dir}: "
                          f"{exc.strerror or exc}") from exc
    try:
        return handlers[command](config)
    except (ConfigError, FieldFormatError):
        raise
    except GeomindError as exc:
        logger.error("%s failed: %s", command, exc)
        write_json(config.out_dir / "failure.json",
                   {"error": type(exc).__name__, "message": str(exc)})
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geomind",
        description="Simulate thought flows on token-embedding manifolds")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="path to the JSON run config")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--seed", type=int, action="append", default=None,
                        help="override the seed list (repeatable)")
    return parser


def main(argv=None) -> int:
    _configure_logging()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        config = load_config(args.config, out_override=args.out, seed_override=args.seed)
        try:
            return run(args.command, config)
        except OSError as exc:  # an artifact write failed, such as on a full disk
            # a failed write() names no file, so name the output directory
            print(f"geomind: error: cannot write {exc.filename or config.out_dir}: "
                  f"{exc.strerror or exc}", file=sys.stderr)
            return 1
    except (ConfigError, FieldFormatError) as exc:
        print(f"geomind: error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())
