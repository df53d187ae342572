"""The benchmark's tracer wraps rarcheck functions by (module, attribute)
name.  A refactor that renames or removes one of them would silently drop
a layer from the traced run, so every name must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parent.parent / "perfbench" / "layers.py"


def _patches():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.PATCHES


@pytest.mark.parametrize("modname,attr,span", _patches())
def test_traced_name_resolves(modname, attr, span):
    assert callable(getattr(importlib.import_module(modname), attr, None))
