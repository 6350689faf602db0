"""The BLAS policy: all LAPACK on scipy's OpenBLAS, numpy's at one thread,
one eigensolver and one triangular-solve entry point."""

import ast
from pathlib import Path

import numpy as np
import pytest

import tvbospec
from tvbospec._blas import numpy_openblas
from tvbospec.bounds import bound_report, scaling_diagnostic
from tvbospec.gp import Dataset
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


SCIPY_EIGENSOLVERS = {"eigh", "eigvalsh"}


def _scipy_linalg_uses(tree, names):
    """Where ``tree`` imports the scipy.linalg functions in ``names`` or
    calls them as an attribute of scipy.linalg (imported under any alias)."""
    linalg_names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("scipy.linalg"):
                    linalg_names.add(alias.asname or "scipy")
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                if (node.module.startswith("scipy.linalg")
                        and alias.name in names):
                    yield f"from {node.module} import {alias.name}"
                elif node.module == "scipy" and alias.name == "linalg":
                    linalg_names.add(alias.asname or "linalg")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and node.attr in names
                and ast.unparse(node.value) in linalg_names
                | {f"{name}.linalg" for name in linalg_names}):
            yield ast.unparse(node)


def test_no_scipy_eigensolver_in_package():
    # every eigensolve goes through spectral._eigh, the cached ?syevd handle
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.relative_to(SRC)}: {use}"
                  for use in _scipy_linalg_uses(tree, SCIPY_EIGENSOLVERS)]
    assert found == []


def test_guard_sees_scipy_eigensolver_uses():
    tree = ast.parse(
        "from scipy.linalg import eigh, toeplitz\n"
        "from scipy.linalg import eigvalsh as ev\n"
        "import scipy.linalg\nscipy.linalg.eigh(a)\n"
        "import scipy.linalg as sla\nsla.eigvalsh(a)\n"
        "from scipy import linalg\nlinalg.eigh(a)\n"
        "np.linalg.eigh(a)\nfrom scipy.linalg import get_lapack_funcs\n")
    assert sorted(_scipy_linalg_uses(tree, SCIPY_EIGENSOLVERS)) == [
        "from scipy.linalg import eigh", "from scipy.linalg import eigvalsh",
        "linalg.eigh", "scipy.linalg.eigh", "sla.eigvalsh"]


def test_no_scipy_triangular_solve_in_package():
    # every triangular solve goes through gp._trtrs, the cached ?trtrs
    # handle; solve_triangular checks and copies the whole block per call
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.relative_to(SRC)}: {use}"
                  for use in _scipy_linalg_uses(tree, {"solve_triangular"})]
    assert found == []


def test_guard_sees_scipy_triangular_solve_uses():
    tree = ast.parse(
        "from scipy.linalg import cholesky, solve_triangular\n"
        "import scipy.linalg as sla\nsla.solve_triangular(a, b)\n"
        "from scipy.linalg import get_lapack_funcs\n")
    assert sorted(_scipy_linalg_uses(tree, {"solve_triangular"})) == [
        "from scipy.linalg import solve_triangular", "sla.solve_triangular"]


def test_run_tvbo_validates_one_dataset(monkeypatch):
    # the loop grows its posterior in place instead of re-validating a new
    # Dataset at every step
    built = []
    check = Dataset.__post_init__
    monkeypatch.setattr(Dataset, "__post_init__",
                        lambda self: built.append(check(self)))
    run_tvbo(TVBOConfig(spatial=SpatialKernel.rbf([0.4]),
                        temporal=TemporalKernel.rbf(1.0), horizon=20))
    assert len(built) == 1


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
