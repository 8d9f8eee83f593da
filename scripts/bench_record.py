#!/usr/bin/env python3
"""Record alternating benchmark runs of a parent tree and this tree in one JSON file.

Usage:

    python3 scripts/bench_record.py --workload W --seeds S1,S2,... --parent DIR --out FILE

For each seed, ``DIR/benchmark/run.py`` and this tree's ``benchmark/run.py``
run as child processes, one after the other, each from its own tree's
root; the side that goes first alternates from seed to seed.  Each run
gets ``--workload W --seed S --seconds T``, with T the ``run_seconds`` of
this tree's ``BENCHMARK.json``.  Nothing under either ``benchmark/`` is
edited, and a run that reads incorrect is kept.

FILE holds:

- ``argv``, ``workload``, ``seeds`` and ``seconds``;
- ``trees``: each side's git commit and whether its tree is dirty (both
  null for a directory that is not a git checkout);
- ``runs``: per run, its seed, side, place in the pair and exit code,
  its ``env`` record and its final JSON object (``correct``,
  ``attempted``, ``failed``, ``metrics``) as the run printed them;
- ``summary``: per side, the count of runs, of correct runs and of
  attempted and failed operations, and per metric the median and
  quartiles over the runs that printed it;
- ``wins``: per end-to-end metric of ``BENCHMARK.json``, the number of
  seeds at which this tree read better than the parent.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def parse_run(stdout: str) -> dict:
    """The ``env`` record and the final JSON object of one ``run.py`` output;
    either is None when the output lacks it."""
    lines = stdout.splitlines()
    env = next((json.loads(line.removeprefix("env ")) for line in lines
                if line.startswith("env ")), None)
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return {"env": env, "result": result if isinstance(result, dict) else None}


def tree_state(root: Path) -> dict:
    """The commit checked out at ``root`` and whether its tree differs from it."""
    def git(*args):
        child = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return child.stdout.strip() if child.returncode == 0 else None

    if git("rev-parse", "--show-toplevel") != str(root.resolve()):
        return {"commit": None, "dirty": None}
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def summarize(runs: list[dict]) -> dict:
    """Per side: run and operation counts, and per-metric medians and quartiles."""
    out = {}
    for side in SIDES:
        results = [r["result"] for r in runs if r["side"] == side and r["result"]]
        values: dict[str, list[float]] = {}
        for result in results:
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        out[side] = {
            "runs": sum(r["side"] == side for r in runs),
            "correct": sum(bool(result["correct"]) for result in results),
            "attempted": sum(result["attempted"] for result in results),
            "failed": sum(result["failed"] for result in results),
            "metrics": {name: quartiles(vals) for name, vals in values.items()},
        }
    return out


def count_wins(runs: list[dict], end_to_end: list[dict]) -> dict:
    """Per end-to-end metric, the seeds at which the change read better than the parent."""
    by_seed: dict[int, dict] = {}
    for r in runs:
        if r["result"]:
            by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
    wins = {}
    for metric in end_to_end:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        wins[name] = sum(
            1 for pair in by_seed.values()
            if len(pair) == 2 and all(name in pair[side] for side in SIDES)
            and sign * (pair["change"][name]["value"] - pair["parent"][name]["value"]) > 0
        )
    return wins


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> tuple[int, str]:
    """Exit code and standard output of one benchmark run; its stderr passes through."""
    child = subprocess.run(
        [sys.executable, str(tree / "benchmark" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds)],
        cwd=tree, stdout=subprocess.PIPE, text=True,
    )
    return child.returncode, child.stdout


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="comma-separated benchmark seeds")
    parser.add_argument("--parent", required=True, type=Path, help="the parent's tree")
    parser.add_argument("--out", required=True, type=Path, help="JSON file to write")
    args = parser.parse_args()
    seeds = [int(part) for part in args.seeds.split(",") if part.strip()]
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    if not (trees["parent"] / "benchmark" / "run.py").is_file():
        parser.error(f"no benchmark/run.py under {args.parent}")

    runs = []
    for number, seed in enumerate(seeds):
        order = SIDES if number % 2 == 0 else SIDES[::-1]
        for place, side in enumerate(order):
            code, stdout = run_once(trees[side], args.workload, seed, seconds)
            runs.append({"seed": seed, "side": side, "first": place == 0, "exit": code,
                         **parse_run(stdout)})
    record = {
        "argv": sys.argv,
        "workload": args.workload,
        "seeds": seeds,
        "seconds": seconds,
        "trees": {side: tree_state(path) for side, path in trees.items()},
        "runs": runs,
        "summary": summarize(runs),
        "wins": count_wins(runs, bench["end_to_end"]),
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
