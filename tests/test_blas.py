"""The BLAS policy: all LAPACK on scipy's OpenBLAS, numpy's at one thread."""

import ast
from pathlib import Path

import numpy as np
import pytest

import tvbospec
from tvbospec._blas import numpy_openblas
from tvbospec.bounds import bound_report, scaling_diagnostic
from tvbospec.kernels import SpatialKernel, TemporalKernel
from tvbospec.tvbo import TVBOConfig, run_tvbo

SRC = Path(tvbospec.__file__).resolve().parent

CLASSES = {
    "rbf": TemporalKernel.rbf(1.0),
    "sinc_squared": TemporalKernel.sinc_squared(1.0),
    "periodic": TemporalKernel.periodic(period=0.5, lengthscale=0.8),
    "cosine_sum": TemporalKernel.cosine_sum([(0.0, 0.4), (2.3, 0.6)]),
}


def _numpy_linalg_names(tree):
    """Attribute names reached as np.linalg.<name> or numpy.linalg.<name>."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == "linalg"
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            yield node.attr


def test_no_numpy_linalg_solver_in_package():
    # numpy's LAPACK would run on numpy's own OpenBLAS pool, which the
    # package keeps at one thread; eigensolves go through spectral._eigh
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.relative_to(SRC)}: np.linalg.{name}"
                  for name in _numpy_linalg_names(tree)
                  if name != "LinAlgError"]
    assert found == []


def test_guard_sees_numpy_linalg_calls():
    tree = ast.parse("import numpy\nnp.linalg.eigh(a)\n"
                     "numpy.linalg.cholesky(a)\nnp.linalg.LinAlgError\n")
    assert sorted(_numpy_linalg_names(tree)) == \
        ["LinAlgError", "cholesky", "eigh"]


def _numpy_lib():
    lib = numpy_openblas()
    if lib is None:
        pytest.skip("numpy is not linked against a bundled scipy_openblas64_")
    return lib


def test_numpy_openblas_pinned_to_one_thread():
    assert _numpy_lib().scipy_openblas_get_num_threads64_() == 1


def _regret_arrays(temporal):
    cfg = TVBOConfig(spatial=SpatialKernel.rbf([0.4]), temporal=temporal,
                     horizon=160, seed=4)
    trace = run_tvbo(cfg)
    rep = bound_report(trace)
    low = rep.lower
    return [trace.chosen_idx, trace.star_idx, trace.instantaneous, trace.ys,
            trace.posterior_sd, trace.objective, trace.betas, rep.upper_curve,
            np.array([rep.info_exact, rep.info_spectral,
                      rep.c1_violation_fraction, trace.total]),
            low.mu_hat, low.sigma_hat, low.sigma_hat_full, low.terms,
            low.terms_full]


def _scaling_arrays():
    rows = scaling_diagnostic(SpatialKernel.rbf([0.7]), CLASSES, [150, 200],
                              [0])
    return [np.array([[row[k] for k in sorted(row)] for row in rows[label]])
            for label in CLASSES]


def test_results_do_not_depend_on_numpy_thread_count():
    # what numpy still runs (matmul, gemv, short dots) splits work by output
    # element, so its bits are the same on one thread and on two
    lib = _numpy_lib()
    pinned = [_regret_arrays(t) for t in CLASSES.values()] + [_scaling_arrays()]
    lib.scipy_openblas_set_num_threads64_(2)
    try:
        threaded = ([_regret_arrays(t) for t in CLASSES.values()]
                    + [_scaling_arrays()])
    finally:
        lib.scipy_openblas_set_num_threads64_(1)
    assert lib.scipy_openblas_get_num_threads64_() == 1
    for want, got in zip(pinned, threaded):
        assert len(want) == len(got)
        for a, b in zip(want, got):
            assert np.array_equal(a, b)
