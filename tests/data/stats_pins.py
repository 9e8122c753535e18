"""The JSON of every ``lexdiv stats`` output, pinned.

``stats_pins.json`` beside this script holds one small long-form score CSV
(eight texts, four columns), a criterion CSV for it, and the bytes that
``lexdiv stats`` writes for each command in ``COMMANDS``: ICC in both modes,
the repeated-measures ANOVA, and compare-corr with automatic selection and
with a named pair in both orders.  ``tests/test_stats_pins.py`` reruns them
all on the pinned inputs.

A change that moves a stats output on purpose regenerates the file, from
the root of a checkout:

    PYTHONPATH=src python tests/data/stats_pins.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from lexdiv.cli import main as lexdiv
from lexdiv.sampling import ScoreMatrix

PATH = Path(__file__).with_name("stats_pins.json")
COMMANDS = (
    ["icc", "--mode", "agreement"],
    ["icc", "--mode", "consistency"],
    ["anova"],
    ["compare-corr"],
    ["compare-corr", "--col-a", "80", "--col-b", "120"],
    ["compare-corr", "--col-a", "120", "--col-b", "80"],
)


def inputs() -> dict:
    """The score and criterion CSVs' text: four columns that follow the
    criterion more or less closely, with noise."""
    rng = np.random.default_rng(2007)
    y = rng.normal(50.0, 10.0, size=8)
    values = np.column_stack([
        0.7 + w * (y - 50.0) / 100.0 + rng.normal(0.0, 0.02, size=8)
        for w in (0.3, 0.2, 0.1, 0.0)])
    ids = [f"t{i}" for i in range(8)]
    with tempfile.TemporaryDirectory() as tmp:
        scores = Path(tmp) / "scores.csv"
        ScoreMatrix(ids, ["240", "120", "80", "60"], values).to_long_csv(scores)
        scores_text = scores.read_text()
    criterion = "id,score\n" + "".join(
        f"{rid},{float(v)!r}\n" for rid, v in zip(ids, y))
    return {"scores": scores_text, "criterion": criterion}


def outputs(pinned: dict, tmp: Path) -> list:
    """The bytes ``lexdiv stats`` writes for each of ``COMMANDS`` on the
    score and criterion CSVs of ``pinned``, made in ``tmp``."""
    scores, criterion = tmp / "scores.csv", tmp / "criterion.csv"
    scores.write_text(pinned["scores"])
    criterion.write_text(pinned["criterion"])
    out = tmp / "out.json"
    written = []
    for command in COMMANDS:
        argv = ["stats", command[0], "--from", str(scores), "--out", str(out),
                *command[1:]]
        if command[0] == "compare-corr":
            argv += ["--criterion", str(criterion)]
        if lexdiv(argv) != 0:
            raise SystemExit(f"lexdiv {' '.join(argv)} failed")
        written.append(out.read_text())
    return written


def main() -> None:
    pinned = inputs()
    with tempfile.TemporaryDirectory() as tmp:
        pinned["outputs"] = dict(zip(map(" ".join, COMMANDS),
                                     outputs(pinned, Path(tmp))))
    PATH.write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"{PATH}: {len(COMMANDS)} outputs")


if __name__ == "__main__":
    main()
