"""Run the benchmark once per seed on each workload and report how much each
end-to-end metric spreads: (Q3 - Q1) / median over the runs, with the
quartiles from statistics.quantiles(values, n=4).

Usage (from the repository root):
    python3 perfbench/steadiness.py [--seeds 1-10] [--workloads a,b] [--out FILE]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from run import machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "machine": machine(), "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        walls = []
        for seed in args.seeds:
            cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                                      "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
            walls.append(time.perf_counter() - t0)
            last = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not last["correct"]:
                ok = False
            for name in bounds:
                values[name].append(last["metrics"][name]["value"])
        entry = {"seeds": args.seeds, "max_run_wall_s": max(walls), "metrics": {}}
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            entry["metrics"][name] = {"median": med, "spread": spread, "bound": bounds[name],
                                      "values": vals}
            print(f"{workload:<12} {name:<12} median {med:10.4f} spread {spread:.3f} "
                  f"(bound {bounds[name]})", flush=True)
        report["workloads"][workload] = entry
    if args.out:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
