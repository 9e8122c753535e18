"""The bytes of every cell of the sampling harness, pinned.

``cell_pins.json`` beside this script holds the ``repr`` of every value,
and the ``meta``, of every ``run_method`` matrix (every kind, both Maas
variants, all four methods, 1, 40 and 1,100 iterations, ``threads=1``) and
of every ``parameter_sweep`` matrix of every sweepable kind, on five small
Zipf texts, with the numpy version that made them.
``tests/test_cell_pins.py`` recomputes them all.

A change that moves cells on purpose regenerates the file, from the root
of a checkout:

    PYTHONPATH=src python tests/data/cell_pins.py
"""

import json
from pathlib import Path

import numpy as np

from lexdiv.corpus import Corpus, Text
from lexdiv.indices import INDEXES, MAAS_VARIANTS, IndexSpec
from lexdiv.sampling import METHODS, SamplingConfig, parameter_sweep, run_method

PATH = Path(__file__).with_name("cell_pins.json")
TRUNCATE_TO = 150
ITERATIONS = (1, 40, 1100)
SEED = 7
# the windowed kinds' n, small enough for the shortest sample (L/4)
N = 20


def corpus() -> Corpus:
    rng = np.random.default_rng(20231)
    texts = []
    for i in range(5):
        length = int(rng.integers(TRUNCATE_TO, TRUNCATE_TO + 40))
        draws = rng.zipf(1.4, size=length) % 300
        texts.append(Text(id=f"z{i}", tokens=tuple(f"w{d}" for d in draws)))
    return Corpus(texts=tuple(texts))


def specs() -> list:
    out = []
    for kind, index in INDEXES.items():
        if "maas_variant" in index.defaults:
            out += [IndexSpec(kind, maas_variant=v) for v in MAAS_VARIANTS]
        else:
            out.append(IndexSpec(kind, n=N) if "n" in index.defaults
                       else IndexSpec(kind))
    return out


def entry(name: str, matrix) -> dict:
    return {"name": name,
            "rows": list(matrix.row_ids),
            "cols": list(matrix.col_labels),
            "cells": [[repr(float(v)) for v in row] for row in matrix.values],
            "meta": json.loads(json.dumps(matrix.meta))}


def matrices():
    """``(name, matrix)`` of every pinned matrix, in file order."""
    texts = corpus()
    for spec in specs():
        for method in METHODS:
            for iterations in ITERATIONS:
                config = SamplingConfig(method, TRUNCATE_TO,
                                        iterations=iterations, master_seed=SEED)
                yield (f"{spec.label()} {method} {iterations}",
                       run_method(texts, config, spec, threads=1))
    for kind, index in INDEXES.items():
        if index.sweep is not None:
            values = index.sweep_values or (10, 20, 30, 40)
            yield (f"{kind.value} sweep",
                   parameter_sweep(texts, kind, values, master_seed=SEED))


def main() -> None:
    pins = {"numpy": np.__version__,
            "matrices": [entry(name, m) for name, m in matrices()]}
    PATH.write_text(json.dumps(pins, indent=0) + "\n")
    print(f"{PATH}: {len(pins['matrices'])} matrices")


if __name__ == "__main__":
    main()
