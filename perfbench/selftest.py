"""Self-test of the benchmark, in well under a minute.

Usage, from the root of a checkout:  python3 perfbench/selftest.py

1. The closed form behind the MATTR reference matches brute force.
2. Every workload runs at a tiny size, untraced and traced, passes its
   checks and reports exactly the metrics BENCHMARK.json names.
3. Each check fails when it is fed a perturbed score matrix: one cell of
   one run's matrix tripled.
4. Without the lexdiv sources the benchmark exits non-zero and prints no
   result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import checks
import run
from workloads import NAMES, commands, make_texts, plan, write_corpus

SEED = 7


def closed_form_matches_brute_force() -> list:
    rng = np.random.default_rng(SEED)
    for _ in range(200):
        x = rng.integers(0, int(rng.integers(1, 30)), size=int(rng.integers(1, 120)))
        n = int(rng.integers(1, len(x) + 1))
        if checks.window_type_total(x, n) != sum(checks.window_types(x, n)):
            return [f"window_type_total({x.tolist()}, {n}) differs from brute force"]
    return []


def tiny_runs_pass() -> list:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for name in NAMES:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run.run_workload(name, SEED, 1, trace, tiny=True)
            if not res["correct"] or res["failed"]:
                problems.append(f"{name} trace={trace}: {res['fails'][:3]}")
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {got} != {want}")
    return problems


def _perturbed(mat: checks.Matrix, rid: str) -> checks.Matrix:
    out = mat.copy()
    out.values[out.rows.index(rid), -1] *= 3.0
    return out


def perturbations_fail(name: str) -> list:
    p = plan(name, tiny=True)
    texts = make_texts(p.lengths, SEED)
    run.OUT_ROOT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as tmp:
        work = Path(tmp)
        write_corpus(texts, work / "corpus")
        (work / "out").mkdir()
        results = run.cli_round(commands(p, work / "corpus", work / "out", SEED),
                                work, run._env())
        if any(r["rc"] for r in results):
            return [f"{name}: a tiny CLI round failed"]
        out = checks.read_outputs(work / "out", p)
    problems = [f"{name}: {m}" for m in checks.check_all(p, texts, out, SEED)]
    for r in p.runs:
        mat = out["matrix"][r.stem]
        first_selected = out["profiles"][r.stem][1][0]
        cases = (
            ("scores", mat.rows[0],
             lambda m: checks.check_scores(r, p, texts, m, SEED)),
            ("icc", mat.rows[0], lambda m: checks.check_icc(r, m, out["icc"][r.stem])),
            ("profiles", first_selected,
             lambda m: checks.check_profiles(r, m, out["profiles"][r.stem])),
        )
        for check, rid, fn in cases:
            if not fn(_perturbed(mat, rid)):
                problems.append(f"{name}/{r.stem}: the {check} check passed "
                                f"a perturbed matrix")
    bad = _perturbed(out["matrix"][p.anova], out["matrix"][p.anova].rows[0])
    if not checks.check_anova(p.anova, bad, out["anova"]):
        problems.append(f"{name}: the ANOVA check passed a perturbed matrix")
    return problems


def refuses_without_sources() -> list:
    with tempfile.TemporaryDirectory(dir=run.OUT_ROOT) as tmp:
        shutil.copytree(run.HERE, Path(tmp) / run.HERE.name,
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", tmp)
        proc = subprocess.run(
            [sys.executable, f"{run.HERE.name}/run.py", "--workload", NAMES[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=tmp, capture_output=True, text=True, timeout=180)
    if proc.returncode == 0 or proc.stdout.strip():
        return ["without sources the benchmark exited 0 or printed a result"]
    return []


def main() -> int:
    steps = [("closed form", closed_form_matches_brute_force),
             ("tiny runs", tiny_runs_pass)]
    steps += [(f"perturbations {n}", lambda n=n: perturbations_fail(n)) for n in NAMES]
    steps.append(("no sources", refuses_without_sources))
    failures = 0
    for label, step in steps:
        problems = step()
        failures += len(problems)
        print(f"{'FAIL' if problems else 'ok  '} {label}")
        for msg in problems:
            print(f"     {msg}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
