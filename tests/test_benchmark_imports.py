"""The benchmark harness in ``perfbench/`` reaches into ``lexdiv`` by name.
These tests read its sources without running them and check that every
name it takes from the package still exists, so a refactor that renames
or moves one fails here rather than in a benchmark run."""

import ast
import importlib
from pathlib import Path

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


def test_cli_has_the_functions_launch_wraps():
    import lexdiv.cli

    for name in LAUNCH_WRAPS:
        assert callable(getattr(lexdiv.cli, name, None)), name
