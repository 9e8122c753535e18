"""The benchmark harness in ``perfbench/`` reaches into ``lexdiv`` by name.
These tests read its sources without running them and check that every
name it takes from the package still exists, so a refactor that renames
or moves one fails here rather than in a benchmark run.  They also check
that the library calls the harness times hold all of a command's
scoring, and run the benchmark's own self-test."""

import ast
import functools
import importlib
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SOURCES = sorted(PERFBENCH.glob("*.py"))

# The library functions perfbench/launch.py wraps with its timers by name.
LAUNCH_WRAPS = ("load_corpus", "run_method", "parameter_sweep")


def _lexdiv_imports(path):
    """(module, names) for each ``import lexdiv...`` and ``from lexdiv...
    import ...`` statement of a source file."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom) and node.level == 0 \
                and node.module.split(".")[0] == "lexdiv":
            yield node.module, [alias.name for alias in node.names]
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lexdiv":
                    yield alias.name, []


def test_perfbench_sources_found():
    assert PERFBENCH / "launch.py" in SOURCES
    assert any(list(_lexdiv_imports(path)) for path in SOURCES)


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_perfbench_lexdiv_names_resolve(path):
    for module_name, names in _lexdiv_imports(path):
        module = importlib.import_module(module_name)
        missing = [name for name in names if not hasattr(module, name)]
        assert not missing, f"{path.name}: {module_name} lacks {missing}"


def test_benchmark_selftest_passes():
    """``perfbench/selftest.py`` runs every workload at a tiny size and
    feeds each check a perturbed matrix; a change that breaks the
    benchmark or its checks fails here."""
    proc = subprocess.run([sys.executable, "perfbench/selftest.py"],
                          cwd=PERFBENCH.parent, capture_output=True,
                          text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]


def test_cli_has_the_functions_launch_wraps():
    import lexdiv.cli

    for name in LAUNCH_WRAPS:
        assert callable(getattr(lexdiv.cli, name, None)), name


def _counted(kernel, calls, inside):
    @functools.wraps(kernel)
    def wrapper(*args, **kwargs):
        calls.append(inside[0])
        return kernel(*args, **kwargs)
    return wrapper


@pytest.mark.parametrize("index, params", [
    ("mattr", "20,40"), ("msttr", "20,40"), ("mttrss", "20,40"),
    ("mttrrs", "20,40"), ("hdd", "21,42"), ("mtld", "0.7,0.72,0.75")])
def test_evaluate_parameter_scores_only_inside_parameter_sweep(
        tmp_path, monkeypatch, index, params):
    """``launch.py`` times an ``evaluate-parameter`` command's scoring as
    the time inside its ``parameter_sweep`` call, so the command must call
    no index kernel (an ``IndexDef``'s ``rows`` or ``counts``) outside it,
    whatever outputs it writes."""
    import lexdiv.cli
    from lexdiv.indices import INDEXES

    corpus = tmp_path / "texts"
    corpus.mkdir()
    rng = np.random.default_rng(5)
    for i in range(4):
        tokens = [f"w{v}" for v in rng.zipf(1.4, 200 + 50 * i) % 300]
        (corpus / f"t{i}.txt").write_text(" ".join(tokens), encoding="utf-8")
    calls, inside = [], [False]
    for kind, entry in INDEXES.items():
        # a count kernel's rows are derived from it
        name = "rows" if entry.counts is None else "counts"
        spied = {name: _counted(getattr(entry, name), calls, inside)}
        monkeypatch.setitem(INDEXES, kind, replace(entry, **spied))
    sweep = lexdiv.cli.parameter_sweep

    def timed(*args, **kwargs):
        inside[0] = True
        try:
            return sweep(*args, **kwargs)
        finally:
            inside[0] = False

    monkeypatch.setattr(lexdiv.cli, "parameter_sweep", timed)
    out = tmp_path / "sweep"
    rc = lexdiv.cli.main([
        "evaluate-parameter", "--corpus", str(corpus), "--index", index,
        "--params", params, "--seed", "3", "--out", f"{out}.csv",
        "--icc-out", f"{out}.icc.json",
        "--profiles-out", f"{out}.profiles.csv"])
    assert rc == 0
    assert calls and all(calls), calls
