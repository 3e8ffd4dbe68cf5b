"""The benchmark's span tracer binds to library names: each must resolve."""

from __future__ import annotations

import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_function_resolves(tracing):
    """`Tracer.install` wraps `getattr(module, name)` at every binding site."""
    missing = [
        f"{module.__name__}.{name}"
        for _, module, name in tracing.FUNCTION_SPANS
        if not callable(getattr(module, name, None))
    ]
    assert not missing


def test_every_traced_method_is_defined_on_its_class(tracing):
    """`Tracer.install` wraps `vars(cls)[name]`: the class itself must define it."""
    missing = [
        f"{cls.__qualname__}.{name}"
        for _, cls, name in tracing.METHOD_SPANS
        if not callable(vars(cls).get(name))
    ]
    assert not missing
