import importlib

import pytest

MODULES = [
    "zdq",
    "zdq.sources",
    "zdq.beliefs",
    "zdq.quantizers",
    "zdq.costs",
    "zdq.dp",
    "zdq.oracles",
    "zdq.infinite",
    "zdq.config",
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
