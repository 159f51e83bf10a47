"""The benchmark tracer's targets name callables that exist in the package.

``perfbench/tracer.py`` wraps the functions and methods listed in its
``TARGETS`` by name; one that a change renames or deletes would fail only
a traced benchmark run, so this reads the list and resolves every entry.
"""

import importlib
import importlib.util
import pathlib
import sys

import pytest

_TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def targets():
    name = "_perfbench_tracer_under_test"
    spec = importlib.util.spec_from_file_location(name, _TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the class is made
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module.TARGETS


def test_every_tracer_target_resolves(targets):
    assert targets
    for target in targets:
        owner = importlib.import_module(target.module)
        if target.cls is not None:
            owner = vars(getattr(owner, target.cls))
            assert callable(owner.get(target.attr)), target.span
        else:
            assert callable(getattr(owner, target.attr, None)), target.span
