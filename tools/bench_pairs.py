"""Run the benchmark in two checkouts in alternating pairs and summarise them.

Usage (from the repository root):
    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT --workload W --seeds 1-10
        [--out FILE]

Each root is a checkout with perfbench/ and src/. For every seed the tool
runs `python3 perfbench/run.py --workload W --seed N --seconds S --trace 0`
once in each root, one after the other: the parent first on odd seeds, the
change first on even ones. S is this repository's BENCHMARK.json
run_seconds, the run length the benchmark itself uses. --seeds takes
numbers and ranges such as "1-10" or "1,3,11-12". For every end-to-end metric that BENCHMARK.json
names, the report prints each side's median and quartiles over the seeds
and the number of pairs the change won, by the metric's better direction;
a tie counts for neither side. The final lines of every run and that
summary are printed as one JSON object on the last line, and written to
FILE when --out is given. The exit status is 1 when any run was not
correct, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """The seeds of a list such as "1-10" or "1,3,11-12", in order."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError(f"seeds {text!r} must name each seed once")
    return seeds


def run_once(root: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """The first line (workload and machine) and the final line of one
    untraced perfbench run in root, both parsed."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"]),
                           "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[0]), json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"{root}: perfbench exited with status {proc.returncode} "
                           "and no final line") from None


def run_pairs(roots: dict, workload: str, seeds, run=run_once) -> dict:
    """{"info": {side: first line}, "runs": {side: {seed: final line}}} of
    one run per side and seed, the parent first on odd seeds."""
    info, runs = {}, {side: {} for side in SIDES}
    for seed in seeds:
        for side in (SIDES if seed % 2 else SIDES[::-1]):
            first, final = run(roots[side], workload, seed)
            info.setdefault(side, first)
            runs[side][str(seed)] = final
            print(f"seed {seed} {side}: " + ", ".join(
                f"{name} {m['value']:.6g}" for name, m in final["metrics"].items()),
                file=sys.stderr)
    return {"info": info, "runs": runs}


def _quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarise(runs: dict, metrics: list[dict]) -> dict:
    """Per end-to-end metric ({"name", "better"} as in BENCHMARK.json), each
    side's quartiles over the seeds both sides ran and the pairs each side
    won; plus each side's attempted and failed operations and whether every
    run was correct."""
    seeds = [seed for seed in runs["parent"] if seed in runs["change"]]
    summary = {}
    for metric in metrics:
        name, sign = metric["name"], (1.0 if metric["better"] == "lower" else -1.0)
        values = {side: [runs[side][seed]["metrics"][name]["value"] for seed in seeds]
                  for side in SIDES}
        diffs = [sign * (p - c) for p, c in zip(values["parent"], values["change"])]
        summary[name] = {"pairs": len(seeds),
                         **{side: _quartiles(values[side]) for side in SIDES},
                         "change_won": sum(d > 0 for d in diffs),
                         "parent_won": sum(d < 0 for d in diffs)}
    for side in SIDES:
        lines = [runs[side][seed] for seed in seeds]
        summary[side] = {"attempted": sum(line["attempted"] for line in lines),
                         "failed": sum(line["failed"] for line in lines),
                         "correct": all(line["correct"] for line in lines)}
    return summary


def report(summary: dict, metrics: list[dict], out=sys.stdout) -> None:
    print(f"{'metric':<14}{'side':>8}{'q1':>12}{'median':>12}{'q3':>12}{'won':>6}", file=out)
    for metric in metrics:
        entry = summary[metric["name"]]
        for side in SIDES:
            q = entry[side]
            print(f"{metric['name']:<14}{side:>8}{q['q1']:>12.6g}{q['median']:>12.6g}"
                  f"{q['q3']:>12.6g}{entry[side + '_won']:>6}", file=out)
    for side in SIDES:
        s = summary[side]
        print(f"{side}: {s['failed']}/{s['attempted']} failed, correct {s['correct']}", file=out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seeds", required=True, type=parse_seeds)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    metrics = BENCHMARK["end_to_end"]
    result = run_pairs({"parent": args.parent, "change": args.change}, args.workload,
                       args.seeds)
    result = {"workload": args.workload, "seconds": BENCHMARK["run_seconds"], **result,
              "summary": summarise(result["runs"], metrics)}
    report(result["summary"], metrics)
    if args.out:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result))
    return 0 if all(result["summary"][side]["correct"] for side in SIDES) else 1


if __name__ == "__main__":
    sys.exit(main())
