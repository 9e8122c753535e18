"""The benchmark's workloads: generated corpora and the CLI commands run on them.

A workload is fixed by its name, its scale and the seed.  The seed drives
only the token draws and the master seed handed to `lexdiv`; the text
lengths, the conditions and the iteration counts are fixed, so the amount
of work does not depend on the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

ZIPF_A = 1.4
VOCAB = 2000

HDD_N = 42
WINDOW = 50
MTLD_FACTOR = 0.72
MTTRSS_S = 10
# CLI flags pinning each index's parameters to the values the checks use
INDEX_FLAGS = {
    "hdd": ("--n", str(HDD_N)),
    "ttr": (),
    "mattr": ("--n", str(WINDOW)),
    "mtld": ("--factor", str(MTLD_FACTOR)),
    "mttrss": ("--n", str(WINDOW), "--s", str(MTTRSS_S)),
}


@dataclass(frozen=True)
class Run:
    """One `evaluate-length` or `evaluate-parameter` command."""

    stem: str          # output file stem
    index: str
    method: str        # random | ordered_random | alternating | sweep
    conditions: tuple  # sample lengths m, dealing widths k, or sweep parameters
    iterations: int = 0

    def cells(self, truncate: int):
        """(index scores per text, sample length) for each condition: one
        score per scored sample or full-extract cell; a sweep scores each
        text once per parameter, on the whole text."""
        for c in self.conditions:
            if self.method == "sweep":
                yield 1, None
            elif self.method == "alternating":
                yield (1 if c == 1 else self.iterations * c), truncate // c
            else:
                yield (1 if c == truncate else self.iterations), c

    def labels(self, truncate: int) -> list:
        """The CLI's column labels: the sample length, or the parameter."""
        return [str(c if m is None else m)
                for c, (_n, m) in zip(self.conditions, self.cells(truncate))]

    def scores(self, n_texts: int, truncate: int) -> int:
        return n_texts * sum(n for n, _m in self.cells(truncate))


@dataclass(frozen=True)
class Plan:
    lengths: tuple     # token count of each generated text
    truncate: int      # L of the length methods; 0 for sweeps
    runs: tuple
    anova: str         # stem of the score file `stats anova` reads

    @property
    def n_texts(self) -> int:
        return len(self.lengths)

    def scores(self) -> int:
        return sum(r.scores(self.n_texts, self.truncate) for r in self.runs)


def _ladder(n_texts, shortest, step):
    return tuple(shortest + step * i for i in range(n_texts))


def plan(name: str, tiny: bool = False) -> Plan:
    """`tiny` gives a few-second version of the same workload for the self-test."""
    n_texts = 14 if tiny else 100
    if name == "random-orderfree":
        iters = 3 if tiny else 40
        ms = (240, 120, 80, 60)
        return Plan(
            lengths=_ladder(n_texts, 300, 5), truncate=300,
            runs=(Run("hdd", "hdd", "random", ms, iters),
                  Run("ttr", "ttr", "random", ms, iters)),
            anova="ttr",
        )
    if name == "sequence-mixed":
        iters = 3 if tiny else 10
        ms = (300, 150, 100, 75)
        return Plan(
            lengths=_ladder(n_texts, 300, 5), truncate=300,
            runs=(Run("ord-mattr", "mattr", "ordered_random", ms, iters),
                  Run("ord-mtld", "mtld", "ordered_random", ms, iters),
                  Run("ord-mttrss", "mttrss", "ordered_random", ms, iters),
                  Run("alt-mattr", "mattr", "alternating", (1, 2, 3, 4), iters)),
            anova="alt-mattr",
        )
    if name == "sweep-long":
        lengths = _ladder(14, 600, 40) if tiny else _ladder(20, 2000, 200)
        return Plan(
            lengths=lengths, truncate=0,
            runs=(Run("mattr", "mattr", "sweep", tuple(range(50, 501, 50))),
                  Run("hdd", "hdd", "sweep", tuple(range(42, 421, 42))),
                  Run("mtld", "mtld", "sweep",
                      tuple(round(0.66 + 0.01 * i, 2) for i in range(10)))),
            anova="mattr",
        )
    raise KeyError(name)


NAMES = ("random-orderfree", "sequence-mixed", "sweep-long")


def make_texts(lengths, seed: int) -> dict:
    """Zipfian pseudo-texts, as in the acceptance-8 corpus, keyed by id."""
    rng = np.random.default_rng([seed, 0])
    return {
        f"z{i:03d}": [f"w{d}" for d in rng.zipf(ZIPF_A, size=n) % VOCAB]
        for i, n in enumerate(lengths)
    }


def write_corpus(texts: dict, corpus_dir: Path):
    corpus_dir.mkdir(parents=True)
    for text_id, tokens in texts.items():
        (corpus_dir / f"{text_id}.txt").write_text(" ".join(tokens) + "\n",
                                                  encoding="utf-8")


def commands(p: Plan, corpus_dir: Path, out_dir: Path, seed: int):
    """(stem, lexdiv argv, Run or None) for each command of one round."""
    cmds = []
    for r in p.runs:
        out = out_dir / r.stem
        common = ["--corpus", str(corpus_dir), "--index", r.index,
                  "--seed", str(seed), "--out", f"{out}.csv",
                  "--icc-out", f"{out}.icc.json",
                  "--profiles-out", f"{out}.profiles.csv"]
        if r.method == "sweep":
            argv = ["evaluate-parameter", *common,
                    "--params", ",".join(str(c) for c in r.conditions)]
        else:
            argv = ["evaluate-length", *common, *INDEX_FLAGS[r.index],
                    "--method", r.method, "--truncate", str(p.truncate),
                    "--conditions", ",".join(str(c) for c in r.conditions),
                    "--iters", str(r.iterations), "--threads", "1"]
        cmds.append((r.stem, argv, r))
    cmds.append(("anova", ["stats", "anova", "--from",
                           str(out_dir / f"{p.anova}.csv"),
                           "--out", str(out_dir / "anova.json")], None))
    return cmds
