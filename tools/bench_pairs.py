"""Paired benchmark runs of two source trees, written as one BENCH_*.json.

Each run is

    python3 perfbench/run.py --workload all --seed S --seconds 30 --trace 0

in a fresh copy of its tree (no ``__pycache__``, so no stale bytecode is
read), in ``PAIRS`` pairs, the parent and the change alternating which
runs first, pair i at seed i + 1.  The script times nothing: it records the metrics that
``perfbench/run.py`` prints, and their median and quartiles per side.

    git archive PARENT | tar -x -C /tmp/parent
    python3 tools/bench_pairs.py /tmp/parent . --out BENCH_31.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

METRICS = ("wall_s", "scores_per_s", "setup_s", "peak_rss_mb")
PAIRS = 10
SECONDS = 30
SKIP = shutil.ignore_patterns("__pycache__", ".perfbench-out", ".git",
                              ".pytest_cache", ".hypothesis")


def run_once(tree: Path, seed: int, seconds: float) -> dict:
    """Each workload's result line, from one run in a fresh copy of
    ``tree``."""
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "tree"
        shutil.copytree(tree, copy, ignore=SKIP)
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "all",
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=copy, capture_output=True, text=True, check=True).stdout
    results, name = {}, None
    for line in out.splitlines():
        if line.startswith("[") and " seed=" in line:
            name = line[1:line.index("]")]
        elif line.startswith("{"):
            results[name] = json.loads(line)
    return results


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    order = []
    for i in range(PAIRS):
        sides = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        order.append(sides)
        for side in sides:
            runs[side].append(run_once(trees[side], i + 1, SECONDS))
            print(f"pair {i + 1}/{PAIRS}: {side} done", file=sys.stderr)
    workloads = {}
    for name in runs["parent"][0]:
        workloads[name] = {
            metric: {side: summary([r[name]["metrics"][metric]["value"]
                                    for r in runs[side]])
                     for side in runs}
            for metric in METRICS}
        workloads[name]["runs"] = {
            side: [{key: r[name][key] for key in ("correct", "attempted", "failed")}
                   for r in runs[side]] for side in runs}
    record = {
        "machine": {"cores": os.cpu_count(), "python": platform.python_version(),
                    "numpy": np.__version__},
        "threads": 1,
        "command": "python3 perfbench/run.py --workload all --seed S "
                   f"--seconds {SECONDS} --trace 0",
        "seconds": SECONDS,
        "seeds": [i + 1 for i in range(PAIRS)],
        "order": order,
        "quartiles": "statistics.quantiles(n=4, method='inclusive')",
        "workloads": workloads,
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
