"""The BLAS policy: every LAPACK call made by tvbospec._blas on scipy's
OpenBLAS, numpy's OpenBLAS at one thread."""

import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import tvbospec
from tvbospec import _blas
from tvbospec._blas import numpy_openblas
from tvbospec.bounds import bound_report, scaling_diagnostic
from tvbospec.gp import Dataset
from tvbospec.kernels import SpatialKernel, TemporalKernel, eval_temporal
from tvbospec.spectral import TimeGrid
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
    # package keeps at one thread; LAPACK calls go through tvbospec._blas
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


BLAS_MODULE = SRC / "_blas.py"


def _scipy_linalg_names(tree):
    """Each name ``tree`` imports from scipy.linalg (or a submodule) or
    reads as an attribute of it, imported under any alias."""
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("scipy.linalg") and alias.asname:
                    modules.add(alias.asname)
                elif alias.name == "scipy" and alias.asname:
                    modules.add(f"{alias.asname}.linalg")
                elif alias.name.split(".")[0] == "scipy":
                    modules.add("scipy.linalg")
        elif isinstance(node, ast.ImportFrom) and node.module:
            if node.module.startswith("scipy.linalg"):
                yield from (alias.name for alias in node.names)
            elif node.module == "scipy":
                modules.update(alias.asname or "linalg" for alias in node.names
                               if alias.name == "linalg")
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and ast.unparse(node.value) in modules):
            yield node.attr


def _forbidden_scipy_linalg_names(path, tree):
    """What the module at ``path`` takes from scipy.linalg beyond its due:
    _blas.py makes every LAPACK call through cached handles, so it needs
    only the handle lookup and the workspace query, and other modules no
    more than ``toeplitz``; no wrapper (eigh, eigvalsh, cholesky,
    solve_triangular, ...) is needed anywhere."""
    allowed = ({"get_lapack_funcs", "_compute_lwork"} if path == BLAS_MODULE
               else {"toeplitz"})
    return [name for name in _scipy_linalg_names(tree)
            if name not in allowed]


def test_only_blas_module_calls_lapack():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.relative_to(SRC)}: scipy.linalg.{name}"
                  for name in _forbidden_scipy_linalg_names(path, tree)]
    assert found == []


def test_guard_sees_scipy_linalg_uses():
    tree = ast.parse(
        "from scipy.linalg import eigh, toeplitz\n"
        "from scipy.linalg import eigvalsh as ev\n"
        "from scipy.linalg.lapack import dpotrf\n"
        "import scipy.linalg\nscipy.linalg.cholesky(a)\n"
        "import scipy.linalg as sla\nsla.solve_triangular(a, b)\n"
        "import scipy.linalg.lapack as lp\nlp.dtrtrs(a, b)\n"
        "from scipy import linalg\nlinalg.eigh(a)\n"
        "from scipy import linalg as la\nla.solve(a, b)\n"
        "import scipy as sp\nsp.linalg.lu(a)\n"
        "np.linalg.eigh(a)\nscipy.special.ndtr(x)\n"
        "from scipy.special import ndtr\n")
    assert sorted(_scipy_linalg_names(tree)) == [
        "cholesky", "dpotrf", "dtrtrs", "eigh", "eigh", "eigvalsh", "lu",
        "solve", "solve_triangular", "toeplitz"]
    blas_like = ast.parse(
        "from scipy.linalg import get_lapack_funcs, eigh, toeplitz\n"
        "from scipy.linalg.lapack import _compute_lwork\n")
    assert _forbidden_scipy_linalg_names(BLAS_MODULE, blas_like) == [
        "eigh", "toeplitz"]
    assert _forbidden_scipy_linalg_names(SRC / "gp.py", blas_like) == [
        "get_lapack_funcs", "eigh", "_compute_lwork"]


@pytest.mark.parametrize("factor", ["spatial_d2", "rbf", "periodic",
                                    "cosine_sum"])
def test_potrf_matches_scipy_cholesky(factor):
    # the cached ?potrf handle with the arguments scipy's wrapper passes, on
    # the jittered prior factors of the regret defaults (200 steps) and of
    # the d = 2 loop (40 x 40 grid): the same bits
    if factor == "spatial_d2":
        axis = np.linspace(0.0, 1.0, 40)
        grid = np.array([(a, b) for a in axis for b in axis])
        gram = SpatialKernel.rbf([0.4, 0.4]).pairwise(grid, grid)
    else:
        ts = TimeGrid(200, 0.1).times
        gram = eval_temporal(CLASSES[factor], np.abs(ts[:, None] - ts))
    gram[np.diag_indices_from(gram)] += 1e-10
    before = gram.copy()
    got = _blas.cholesky_lower(gram)
    assert np.array_equal(gram, before)
    assert np.array_equal(got, scipy.linalg.cholesky(gram, lower=True))


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
