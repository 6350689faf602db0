"""The benchmark tracer's targets exist in the package.

``bench/tracer.py`` rebinds the functions and methods in its ``TARGETS``
table to timing wrappers.  A target renamed or moved by a refactor would
make the tracer fail or leave its per-layer metric at zero, so every entry
must resolve to a callable.  A traced run also reads the layer counts the
package promises.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

import tvbospec.bounds as bounds
from tvbospec.kernels import SpatialKernel, TemporalKernel
from tvbospec.tvbo import TVBOConfig, run_tvbo

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


def test_traced_bound_report_builds_one_gram():
    cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                     temporal=TemporalKernel.rbf(1.0), horizon=12, seed=1)
    trace = run_tvbo(cfg)
    traced = tracer.Tracer()
    traced.install()
    try:
        # through the module, whose attribute the tracer rebinds
        bounds.bound_report(trace)
    finally:
        traced.uninstall()
    metrics = tracer.layer_metrics(traced.spans)
    assert metrics["bounds.gram_builds_per_report"] == 1
    # bound_report reaches the lower bound through its public name
    lower = [s for s in traced.spans if s.name == "bounds.lower_bound"]
    assert [s.work for s in lower] == [cfg.horizon]
    assert metrics["bounds.lower_bound.s_per_step"] > 0
