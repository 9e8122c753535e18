"""Every cell of the sampling harness keeps its bytes: the matrices pinned in
``data/cell_pins.json`` (see ``data/cell_pins.py``, which regenerates it)."""

import json

import numpy as np

from .data.cell_pins import PATH, entry, matrices


def test_every_pinned_cell_keeps_its_bytes():
    pins = json.loads(PATH.read_text())
    versions = ("" if pins["numpy"] == np.__version__ else
                f" (pinned with numpy {pins['numpy']}, now {np.__version__})")
    got = [entry(name, m) for name, m in matrices()]
    assert [e["name"] for e in got] == [e["name"] for e in pins["matrices"]]
    for now, pinned in zip(got, pins["matrices"]):
        name = now["name"]
        assert (now["rows"], now["cols"]) == (pinned["rows"], pinned["cols"]), name
        for rid, new, old in zip(now["rows"], now["cells"], pinned["cells"]):
            for col, a, b in zip(now["cols"], new, old):
                assert a == b, (f"{name}: cell ({rid}, {col}) moved from {b} "
                                f"to {a}{versions}")
        assert now["meta"] == pinned["meta"], f"{name}: meta moved{versions}"
