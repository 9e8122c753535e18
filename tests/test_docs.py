"""The module docstrings and README cite only names that exist."""

import re
from dataclasses import fields
from pathlib import Path

import pytest

import lexdiv.indices as indices_mod
import lexdiv.sampling as sampling_mod

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(
    encoding="utf-8")


@pytest.mark.parametrize("module", [sampling_mod, indices_mod])
def test_module_docstring_cites_only_existing_private_names(module):
    """Every ``_private`` name that a module docstring cites is defined in
    that module, so a deleted or renamed helper cannot live on there."""
    cited = set(re.findall(r"``(_\w+)", module.__doc__))
    assert not {name for name in cited if not hasattr(module, name)}


def test_sampling_docstring_cites_its_engine():
    """The check above has names to check."""
    cited = set(re.findall(r"``(_\w+)", sampling_mod.__doc__))
    assert {"_monte_carlo", "_Packer", "_BLOCK"} <= cited


def test_readme_cites_only_existing_private_names():
    """Every `_private` name README cites is defined in ``lexdiv.indices``
    or ``lexdiv.sampling``."""
    cited = set(re.findall(r"`(_\w+)", README))
    assert cited
    assert not {name for name in cited
                if not hasattr(indices_mod, name)
                and not hasattr(sampling_mod, name)}


def test_readme_cites_only_existing_attributes():
    """Every `IndexDef.x`, `IndexSpec.x`, `Method.x`, `SamplingConfig.x`
    and `ScoreMatrix.x` README cites is a field, method or property of that
    class."""
    classes = {"IndexDef": indices_mod.IndexDef,
               "IndexSpec": indices_mod.IndexSpec,
               "Method": sampling_mod.Method,
               "SamplingConfig": sampling_mod.SamplingConfig,
               "ScoreMatrix": sampling_mod.ScoreMatrix}
    cited = set(re.findall(rf"`({'|'.join(classes)})\.(\w+)", README))
    assert {cls for cls, _ in cited} == set(classes)
    assert not [f"{cls}.{name}" for cls, name in cited
                if not hasattr(classes[cls], name)
                and name not in {f.name for f in fields(classes[cls])}]
