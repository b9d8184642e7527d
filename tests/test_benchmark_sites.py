"""Every library function the traced benchmark wraps still exists where it
wraps it, so a refactor that drops or moves one of those names fails here
and not only under `python -m pytest perfbench`."""

import importlib
import importlib.util
from pathlib import Path

import pytest

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def _sites():
    spec = importlib.util.spec_from_file_location("perfbench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return [(module, attr) for module, attr, _, _ in layers.SITES]


@pytest.mark.parametrize("module, attr", _sites(), ids=lambda name: name)
def test_site_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr, None))
