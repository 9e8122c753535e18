"""Traced replica of one workload round, plus per-call micro-benchmarks.

Usage: python3 tracing.py WORKLOAD SEED CORPUS_DIR OUT_DIR RESULT_JSON [--tiny] [--micro]

Runs in a fresh process, like each CLI command, so no cache is warm that a
CLI run would find cold.  It repeats the round's CLI commands by calling
`lexdiv`'s public functions from here, with a span (name, start, end,
parent, round attributes) around each call into a layer.  Spans are kept in
memory and written to RESULT_JSON at the end.  With --micro it then times
single `evaluate`, `hypergeom_presence` and `f_isf` calls on inputs of the
workload's own sizes.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import replace
from pathlib import Path

import numpy as np

from lexdiv import (
    IndexKind,
    IndexSpec,
    ScoreMatrix,
    alternating_sampling,
    center_columns,
    emit_plot_data,
    evaluate,
    icc_2_1,
    load_corpus,
    ordered_random_sampling,
    parameter_sweep,
    random_sampling,
    rm_anova,
    select_profiles,
)
from lexdiv.cli import RunConfig, _write_sidecar
from lexdiv.numerics import f_isf, hypergeom_presence
from lexdiv.profiles import subset_rows

from workloads import HDD_N, MTLD_FACTOR, MTTRSS_S, WINDOW, Plan, Run, plan

SPECS = {
    "hdd": IndexSpec(IndexKind.HDD, n=HDD_N),
    "ttr": IndexSpec(IndexKind.TTR),
    "mattr": IndexSpec(IndexKind.MATTR, n=WINDOW),
    "mtld": IndexSpec(IndexKind.MTLD, factor=MTLD_FACTOR),
    "mttrss": IndexSpec(IndexKind.MTTRSS, n=WINDOW, s=MTTRSS_S),
}
ROW_FUNCTIONS = {
    "random": random_sampling,
    "ordered_random": ordered_random_sampling,
    "alternating": alternating_sampling,
}
MICRO_SAMPLES = 40   # samples per (index, size) for the evaluate timings


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        rec = {"id": len(self.spans), "name": name,
               "parent": self._stack[-1] if self._stack else None, **attrs}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        rec["start"] = time.perf_counter()
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


def _scores(tr: Tracer, r: Run, p: Plan, corpus, seed: int) -> ScoreMatrix:
    if r.method == "sweep":
        with tr.span("sampling.row"):
            return parameter_sweep(corpus, IndexKind(r.index), list(r.conditions),
                                   master_seed=seed, s=MTTRSS_S)
    fn, spec, rows = ROW_FUNCTIONS[r.method], SPECS[r.index], []
    for text in corpus:
        with tr.span("sampling.row", text=text.id):
            rows.append(fn(text, p.truncate, r.conditions, r.iterations, seed, spec))
    return ScoreMatrix([t.id for t in corpus], r.labels(p.truncate), np.array(rows))


def replica(tr: Tracer, p: Plan, corpus_dir: str, out_dir: Path, seed: int):
    """The round's commands, in the CLI's order, from public functions."""
    for r in p.runs:
        out = out_dir / f"{r.stem}.csv"
        with tr.span("cli.command", stem=r.stem):
            with tr.span("corpus.load"):
                corpus = load_corpus(corpus_dir)
            with tr.span("sampling.run"):
                matrix = _scores(tr, r, p, corpus, seed)
            with tr.span("cli.write"):
                matrix.to_long_csv(out)
                _write_sidecar(out, RunConfig(subcommand="replica"),
                               extra={"matrix_meta": matrix.meta})
            mode = "consistency" if r.method == "sweep" else "agreement"
            with tr.span("stats.icc"):
                icc_2_1(matrix, mode=mode)
            with tr.span("profiles.select"):
                selection = select_profiles(matrix, count=12)
            sub = subset_rows(matrix, selection)
            if r.method == "sweep":
                sub = center_columns(sub)
            with tr.span("profiles.emit"):
                emit_plot_data(sub, out_dir / f"{r.stem}.profiles.csv", format="csv")
    with tr.span("cli.command", stem="anova"):
        matrix = ScoreMatrix.from_long_csv(out_dir / f"{p.anova}.csv")
        with tr.span("stats.anova"):
            rm_anova(matrix)


def _timed_calls(fn, args_list) -> list:
    out = []
    for args in args_list:
        start = time.perf_counter()
        fn(*args)
        out.append(time.perf_counter() - start)
    return out


def _samples(p: Plan, texts, m: int, rng) -> list:
    """Ordered m-samples of the L-truncations, as integer codes like the
    sampling engine scores them."""
    out = []
    for _ in range(MICRO_SAMPLES):
        tokens = np.array(texts[rng.integers(len(texts))].tokens[:p.truncate])
        codes = np.unique(tokens, return_inverse=True)[1].astype(np.int64)
        out.append(codes[np.sort(rng.permutation(p.truncate)[:m])])
    return out


def _cases(index: str, p: Plan, texts, rng) -> list:
    """(calls per text and round, [(input, spec)]) for each size or
    parameter at which the workload evaluates `index`.  An index the
    workload does not use is timed at the workload's own sizes, weight 0."""
    spec = SPECS[index]
    runs = [r for r in p.runs if r.index == index]
    if p.truncate == 0:
        if not runs:
            return [(0, [(t, spec) for t in texts])]
        return [(1, [(t, replace(spec, factor=float(c)) if index == "mtld"
                      else replace(spec, n=int(c))) for t in texts])
                for c in runs[0].conditions]
    sizes = [s for r in runs for s in r.cells(p.truncate)] or sorted(
        {(0, m) for r in p.runs for _n, m in r.cells(p.truncate)})
    return [(n, [(x, spec) for x in _samples(p, texts, m, rng)]) for n, m in sizes]


def micro(p: Plan, corpus, seed: int) -> dict:
    """Per-call costs on the workload's own inputs.  `kernel_s` estimates
    the kernel time in one round's library calls: calls x mean call time."""
    rng = np.random.default_rng([seed, 3])
    texts = list(corpus)
    result = {"eval_us": {}, "kernel_s": 0.0}
    for index in SPECS:
        cases = _cases(index, p, texts, rng)
        times = []
        for per_text, calls in cases:
            dt = _timed_calls(evaluate, [(x, spec, rng) for x, spec in calls])
            times += dt
            result["kernel_s"] += per_text * len(texts) * statistics.fmean(dt)
        result["eval_us"][index] = statistics.median(times) * 1e6
        if index == "hdd":
            triples = sorted({
                (len(x), int(f), spec.n) for _n, calls in cases for x, spec in calls
                for f in np.unique(np.asarray(getattr(x, "tokens", x)),
                                    return_counts=True)[1]})
    per_call = [statistics.fmean(_timed_calls(hypergeom_presence, triples))
                for _ in range(5)]
    result["presence_us"] = statistics.median(per_call) * 1e6
    n, k = len(texts), max(len(r.conditions) for r in p.runs)
    dfs = [(0.025, n - 1, (n - 1) * (k - 1)), (0.025, (n - 1) * (k - 1), n - 1)]
    result["f_isf_ms"] = statistics.median(_timed_calls(f_isf, dfs * 5)) * 1e3
    return result


def main():
    name, seed, corpus_dir, out_dir, result_path = sys.argv[1:6]
    seed = int(seed)
    p = plan(name, tiny="--tiny" in sys.argv)
    tr = Tracer()
    replica(tr, p, corpus_dir, Path(out_dir), seed)
    result = {"spans": tr.spans}
    if "--micro" in sys.argv:
        result["micro"] = micro(p, load_corpus(corpus_dir), seed)
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
