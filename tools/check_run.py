"""Check the standard output of one perfbench run as the benchmark reads it.

Usage (from the repository root):
    python3 perfbench/run.py --workload W --seed 1 --seconds 2 --trace 1 > run.out
    python3 tools/check_run.py < run.out

The first line of the output tells whether the run was traced. The last
line must parse as strict JSON (no NaN, Infinity or -Infinity), with
correct true and every metric value a finite number, and its metric names
must be exactly this repository's BENCHMARK.json per_layer names for a
traced run, or its end_to_end names for an untraced one. The tool prints
each fault it finds and exits 1, or prints one ok line and exits 0.
"""

from __future__ import annotations

import json
import math
import sys

from bench_pairs import BENCHMARK, result_line


def faults(text: str) -> list[str]:
    """What is wrong with text, the whole standard output of one run; [] when
    its last line is a result the benchmark accepts."""
    lines = text.strip().splitlines()
    try:
        traced = json.loads(lines[0])["trace"]
        result = result_line(lines[-1])
    except (IndexError, KeyError, TypeError, ValueError) as exc:
        return [f"no first line with a trace flag and a strict JSON last line: {exc!r:.200}"]
    if not isinstance(result, dict) or not isinstance(result.get("metrics"), dict):
        return ["the last line is not an object with a metrics object"]
    found = []
    if result.get("correct") is not True:
        found.append(f"correct is {result.get('correct')!r}, not true")
    expected = {m["name"] for m in BENCHMARK["per_layer" if traced else "end_to_end"]}
    names = set(result["metrics"])
    if names != expected:
        found.append(f"metric names differ from BENCHMARK.json: missing {sorted(expected - names)}, "
                     f"extra {sorted(names - expected)}")
    for name, metric in result["metrics"].items():
        value = metric.get("value") if isinstance(metric, dict) else None
        if type(value) not in (int, float) or not math.isfinite(value):
            found.append(f"{name}: value {value!r} is not a finite number")
    return found


def main() -> int:
    found = faults(sys.stdin.read())
    for fault in found:
        print(f"check_run: {fault}")
    if not found:
        print("check_run: ok")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
