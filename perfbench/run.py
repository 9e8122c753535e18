"""lexdiv benchmark: run one workload through the `lexdiv` CLI, check its
outputs, and print its metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload random-orderfree --seed 1 --seconds 20 --trace 0

The workloads are `random-orderfree`, `sequence-mixed` and `sweep-long`
(see README.md); `--workload all` runs each in turn.  A round is the
workload's fixed list of CLI commands, each a fresh process with
`--threads 1`; rounds repeat until `--seconds` of rounds have been measured.
The outputs of the first round are checked against references computed
apart from `lexdiv` (checks.py), and every later round must reproduce them
byte for byte.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates the CLI
rounds with traced rounds (tracing.py) and prints the per-layer metrics;
the spans go to .perfbench-out/trace-<workload>-seed<seed>.json.  The last
line of standard output is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench-out"

# Machine-speed calibration.  On a shared host the CPU speed drifts by tens
# of percent within a second, and the drift moves lexdiv's dict- and
# Counter-bound kernels together with this fixed computation of the same
# kind.  While a process runs, the benchmark wakes every CAL_EVERY_S and
# times one calibration in its own CPU time; the process's times are
# reported scaled to the speed at which a calibration takes CAL_REF_S.  The
# benchmark and the processes it starts share one CPU, so that the
# calibrations measure the CPU the workload runs on; they take about 1% of
# the CPU from the process they sample, the same in every run.
CAL_INTS = [(i * 7919) % 97 for i in range(300)]
CAL_REF_S = 0.0015
CAL_EVERY_S = 0.1


def calibrate() -> float:
    start = time.process_time()
    for _ in range(40):
        Counter(CAL_INTS)
        counts = {}
        for v in CAL_INTS:
            counts[v] = counts.get(v, 0) + 1
    return time.process_time() - start


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("LEXDIV_SEED", None)
    return env


def spawn(argv, log_path: Path, env: dict) -> dict:
    """Run one process: wall time from spawn to exit, peak RSS, and the
    speed scale from the calibrations made while it ran."""
    cal = [calibrate()]
    with open(log_path, "wb") as log:
        start = time.monotonic()
        proc = subprocess.Popen([sys.executable, *argv], stdout=log,
                                stderr=subprocess.STDOUT, env=env)
        pidfd = os.pidfd_open(proc.pid)
        try:
            while not select.select([pidfd], [], [], CAL_EVERY_S)[0]:
                cal.append(calibrate())
            end = time.monotonic()
        finally:
            os.close(pidfd)
        _pid, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    cal.append(calibrate())
    return {"start": start, "wall": end - start, "rc": proc.returncode,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "scale": CAL_REF_S / statistics.median(cal)}


def cli_round(cmds, work: Path, env: dict) -> list:
    results = []
    for stem, argv, run in cmds:
        timing_path = work / f"{stem}.timing.json"
        timing_path.unlink(missing_ok=True)
        res = spawn([str(HERE / "launch.py"), str(timing_path), *argv],
                    work / f"{stem}.log", env)
        res.update(stem=stem, run=run)
        if res["rc"] == 0:
            timing = json.loads(timing_path.read_text())
            res["library_s"] = timing["library_s"]
            if run is not None:
                if timing["library_calls"] < 1 or timing["corpus_loaded_at"] is None:
                    raise SystemExit(f"perfbench: {stem}: the CLI made no "
                                     f"run_method/parameter_sweep or load_corpus call")
                res["setup"] = timing["corpus_loaded_at"] - res["start"]
        results.append(res)
    return results


def digest(out_dir: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def failure_tail(work: Path, stem: str) -> str:
    text = (work / f"{stem}.log").read_text(errors="replace").strip()
    return text.splitlines()[-1] if text else "(no output)"


def round_metrics(results: list, n_scores: int) -> dict:
    """One round's figures, scaled ("raw_" ones unscaled)."""
    evals = [r for r in results if r["run"] is not None]
    library = sum(r["library_s"] * r["scale"] for r in evals)
    wall = sum(r["wall"] * r["scale"] for r in results)
    setups = [r["setup"] * r["scale"] for r in evals]
    return {"wall_s": wall, "scores_per_s": n_scores / library, "setups": setups,
            "peak_rss_mb": max(r["rss_mb"] for r in results),
            "library_s": library, "overhead_s": wall - sum(setups) - library,
            "raw_wall_s": sum(r["wall"] for r in results),
            "raw_scores_per_s": n_scores / sum(r["library_s"] for r in evals)}


def _median_sum(traced: list, name: str) -> float:
    """Median over traced rounds of the scaled summed duration of the spans
    called `name`."""
    return statistics.median(
        t["scale"] * sum(s["end"] - s["start"] for s in t["spans"] if s["name"] == name)
        for t in traced)


def layer_metrics(p, traced: list, micro: dict, cli: list, out_bytes: int) -> dict:
    row_s = _median_sum(traced, "sampling.row")
    scale = traced[0]["scale"]  # of the process that ran the micro-benchmarks
    metrics = {
        "corpus.load_s": (_median_sum(traced, "corpus.load"), "s"),
        "corpus.tokens": (sum(p.lengths), "count"),
        "sampling.row_s": (row_s, "s"),
        "sampling.samples": (p.scores(), "count"),
        "sampling.self_s": (row_s - micro["kernel_s"] * scale, "s"),
    }
    for index, us in micro["eval_us"].items():
        metrics[f"indices.{index}.eval_us"] = (us * scale, "us")
    metrics.update({
        "numerics.presence_us": (micro["presence_us"] * scale, "us"),
        "numerics.f_isf_ms": (micro["f_isf_ms"] * scale, "ms"),
        "stats.icc_s": (_median_sum(traced, "stats.icc"), "s"),
        "stats.anova_s": (_median_sum(traced, "stats.anova"), "s"),
        "profiles.select_s": (_median_sum(traced, "profiles.select"), "s"),
        "profiles.emit_s": (_median_sum(traced, "profiles.emit"), "s"),
        "cli.write_s": (_median_sum(traced, "cli.write"), "s"),
        "cli.output_bytes": (out_bytes, "bytes"),
        "cli.overhead_s": (statistics.median(m["overhead_s"] for m in cli), "s"),
        "trace.overhead_s": (_median_sum(traced, "sampling.run")
                             - statistics.median(m["library_s"] for m in cli), "s"),
    })
    return metrics


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> dict:
    import checks
    from workloads import commands, make_texts, plan, write_corpus

    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    p = plan(name, tiny)
    texts = make_texts(p.lengths, seed)
    OUT_ROOT.mkdir(exist_ok=True)
    work = OUT_ROOT / f"{name}-seed{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        corpus_dir, out_dir, replica_dir = work / "corpus", work / "out", work / "replica"
        write_corpus(texts, corpus_dir)
        out_dir.mkdir()
        replica_dir.mkdir()
        cmds = commands(p, corpus_dir, out_dir, seed)
        env = _env()
        # fill the page cache and the bytecode cache before timing
        spawn(["-c", "import lexdiv.cli"], work / "warmup.log", env)

        fails, attempted, failed = [], 0, 0
        first, cli, traced, micro = None, [], [], None
        measured = 0.0
        while measured < seconds or not cli:
            t0 = time.monotonic()
            results = cli_round(cmds, work, env)
            measured += time.monotonic() - t0
            attempted += len(results)
            bad = [r["stem"] for r in results if r["rc"] != 0]
            failed += len(bad)
            fails += [f"{stem} failed: {failure_tail(work, stem)}" for stem in bad]
            if bad:
                break
            cli.append(round_metrics(results, p.scores()))
            if first is None:
                fails += checks.check_all(p, texts, checks.read_outputs(out_dir, p), seed)
                first = digest(out_dir)
            elif digest(out_dir) != first:
                fails.append("a later round's outputs differ from the first round's")
            if trace:
                t0 = time.monotonic()
                result_path = work / "traced.json"
                argv = [str(HERE / "tracing.py"), name, str(seed), str(corpus_dir),
                        str(replica_dir), str(result_path)]
                argv += (["--tiny"] if tiny else []) + ([] if traced else ["--micro"])
                res = spawn(argv, work / "traced.log", env)
                measured += time.monotonic() - t0
                attempted += 1
                if res["rc"] != 0:
                    failed += 1
                    fails.append(f"traced round failed: {failure_tail(work, 'traced')}")
                    break
                data = json.loads(result_path.read_text())
                traced.append({"spans": data["spans"], "scale": res["scale"]})
                micro = micro or data["micro"]
                for r in p.runs:
                    if ((replica_dir / f"{r.stem}.csv").read_bytes()
                            != (out_dir / f"{r.stem}.csv").read_bytes()):
                        fails.append(f"{r.stem}: traced replica differs from the CLI")

        metrics, raw = {}, {}
        if trace and traced:
            out_bytes = sum(f.stat().st_size for f in out_dir.iterdir())
            metrics = layer_metrics(p, traced, micro, cli, out_bytes)
            trace_path = OUT_ROOT / f"trace-{name}-seed{seed}.json"
            trace_path.write_text(json.dumps(
                [dict(s, round=i, scale=t["scale"])
                 for i, t in enumerate(traced) for s in t["spans"]]))
        elif cli and not trace:
            def med(key):
                return statistics.median(m[key] for m in cli)
            metrics = {
                "wall_s": (med("wall_s"), "s"),
                "scores_per_s": (med("scores_per_s"), "1/s"),
                "setup_s": (statistics.median(s for m in cli for s in m["setups"]), "s"),
                "peak_rss_mb": (med("peak_rss_mb"), "MB"),
            }
            raw = {"wall_s": med("raw_wall_s"), "scores_per_s": med("raw_scores_per_s")}
        return {"correct": not fails, "attempted": attempted, "failed": failed,
                "fails": fails, "rounds": len(cli), "unscaled": raw,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "lexdiv" / "cli.py").is_file():
        print(f"perfbench: no lexdiv sources at {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    from workloads import NAMES

    names = NAMES if args.workload == "all" else [args.workload]
    if any(n not in NAMES for n in names):
        ap.error(f"--workload must be one of {', '.join(NAMES)} or all")
    for name in names:
        res = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for msg in res.pop("fails")[:20]:
            print(f"CHECK FAILED [{name}]: {msg}", file=sys.stderr)
        print(f"[{name}] seed={args.seed} rounds={res.pop('rounds')} "
              f"attempted={res['attempted']} failed={res['failed']} "
              f"correct={res['correct']}")
        raw = res.pop("unscaled")
        for key, m in res["metrics"].items():
            note = f"  (unscaled {raw[key]:.6g})" if key in raw else ""
            print(f"[{name}] {key} = {m['value']:.6g} {m['unit']}{note}")
        print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
