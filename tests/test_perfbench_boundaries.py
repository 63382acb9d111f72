"""The repository benchmark's tracer (``perfbench/tracing.py``) wraps
layer boundaries of ``repro`` by attribute name.  A rename in ``repro``
must fail here, in tier 1, rather than break
``perfbench/run.py --trace 1`` at run time.  The tracer is loaded from
its file and never edited."""

from __future__ import annotations

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACING_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "module, cls_name, methods, layer", tracing.METHOD_BOUNDARIES,
    ids=[f"{cls}" for _m, cls, _n, _l in tracing.METHOD_BOUNDARIES])
def test_method_boundaries_resolve(module, cls_name, methods, layer):
    cls = getattr(importlib.import_module(module), cls_name)
    for name in methods:
        assert inspect.isfunction(getattr(cls, name, None)), \
            f"{module}.{cls_name}.{name} is not a method"
    assert layer in tracing.LAYERS


@pytest.mark.parametrize(
    "module, name, layer", tracing.FUNCTION_BOUNDARIES,
    ids=[name for _m, name, _l in tracing.FUNCTION_BOUNDARIES])
def test_function_boundaries_resolve(module, name, layer):
    fn = getattr(importlib.import_module(module), name, None)
    assert inspect.isfunction(fn), f"{module}.{name} is not a function"
    assert layer in tracing.LAYERS
