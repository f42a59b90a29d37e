"""The benchmark's tracer wraps package functions by name: every name it
traces or counts must resolve, so a rename fails here and not first in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

from gapforge import bands

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize("module, func", tracer.TRACED + tracer.COUNTED,
                         ids=[f"{m}.{f}" for m, f in tracer.TRACED + tracer.COUNTED])
def test_traced_name_resolves(module, func):
    assert callable(getattr(importlib.import_module(f"gapforge.{module}"), func, None))


def test_dense_limit_resolves():
    # the tracer's solve counter reads it
    assert isinstance(bands.DENSE_LIMIT, int)
