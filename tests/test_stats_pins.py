"""Every ``lexdiv stats`` output keeps its bytes: the JSON pinned in
``data/stats_pins.json`` (see ``data/stats_pins.py``, which regenerates it)."""

import json

from .data.stats_pins import COMMANDS, PATH, outputs


def test_every_stats_output_keeps_its_bytes(tmp_path):
    pinned = json.loads(PATH.read_text())
    assert list(pinned["outputs"]) == list(map(" ".join, COMMANDS))
    for name, now in zip(pinned["outputs"], outputs(pinned, tmp_path)):
        assert now == pinned["outputs"][name], f"stats {name} moved"
