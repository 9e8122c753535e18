"""The module docstrings cite only names that exist."""

import re

import pytest

import lexdiv.indices as indices_mod
import lexdiv.sampling as sampling_mod


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
