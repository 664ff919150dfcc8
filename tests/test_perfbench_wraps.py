"""The benchmark's tracer wraps program functions by module attribute name.

A rename or removal in the program would make ``--trace 1`` runs fail when
the wrappers are installed, so every traced attribute is checked here.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WRAPPED = [
    (module, attr)
    for module, attr, _, _ in _load_tracer().WRAPS
    if module.split(".")[0] == "sampspectra"
]


def test_program_modules_are_wrapped():
    assert {module for module, _ in WRAPPED} >= {
        "sampspectra.cli", "sampspectra.moments", "sampspectra.volumes",
        "sampspectra.field_sim",
    }


@pytest.mark.parametrize("module, attr", WRAPPED)
def test_wrapped_attribute_exists(module, attr):
    assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"
