"""The benchmark tracer's targets exist in the package.

``bench/tracer.py`` rebinds the functions and methods in its ``TARGETS``
table to timing wrappers.  A target renamed or moved by a refactor would
make the tracer fail or leave its per-layer metric at zero, so every entry
must resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


@pytest.mark.parametrize("modname, path",
                         [(modname, path) for _, modname, path, _ in
                          tracer.TARGETS],
                         ids=[name for name, *_ in tracer.TARGETS])
def test_tracer_target_resolves(modname, path):
    owner, attr = tracer.resolve(importlib.import_module(modname), path)
    assert callable(getattr(owner, attr))
