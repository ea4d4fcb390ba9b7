"""The package's exports and the demos' imports resolve."""

import importlib.util
from pathlib import Path

import pytest

import coinwalk

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def test_exports_resolve_without_repeats():
    names = coinwalk.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(coinwalk, name)]
    assert missing == []


@pytest.mark.parametrize("path", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_imports_resolve(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # __name__ is not "__main__", so main() does not run
    assert callable(module.main)
