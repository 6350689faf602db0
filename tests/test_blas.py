"""The BLAS policy: every LAPACK call made by tvbospec._blas on scipy's
OpenBLAS, numpy's OpenBLAS at one thread."""

import ast
import ctypes
import functools
import importlib.util
import json
import os
import platform
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import get_lapack_funcs, lapack
from scipy.linalg.lapack import _compute_lwork

import tvbospec
from conftest import SYEVD_STAGES
from tvbospec import _blas
from tvbospec._blas import numpy_openblas
from tvbospec.bounds import bound_report, scaling_diagnostic
from tvbospec.gp import Dataset
from tvbospec.kernels import (
    SpatialKernel,
    TemporalKernel,
    eval_temporal,
    spectral_lines,
)
from tvbospec.spectral import TimeGrid, build_spatiotemporal_matrix
from tvbospec.tvbo import TVBOConfig, run_tvbo

SRC = Path(tvbospec.__file__).resolve().parent

CLASSES = {
    "rbf": TemporalKernel.rbf(1.0),
    "sinc_squared": TemporalKernel.sinc_squared(1.0),
    "periodic": TemporalKernel.periodic(period=0.5, lengthscale=0.8),
    "cosine_sum": TemporalKernel.cosine_sum([(0.0, 0.4), (2.3, 0.6)]),
}


def _numpy_submodule_names(tree, submodule):
    """Attribute names reached as np.<submodule>.<name> or
    numpy.<submodule>.<name>."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Attribute)
                and node.value.attr == submodule
                and isinstance(node.value.value, ast.Name)
                and node.value.value.id in ("np", "numpy")):
            yield node.attr


def test_no_numpy_linalg_solver_in_package():
    # numpy's LAPACK would run on numpy's own OpenBLAS pool, which the
    # package keeps at one thread; LAPACK calls go through tvbospec._blas.
    # np.fft is not used either: spectra come from eig_sym.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.relative_to(SRC)}: np.linalg.{name}"
                  for name in _numpy_submodule_names(tree, "linalg")
                  if name != "LinAlgError"]
        found += [f"{path.relative_to(SRC)}: np.fft.{name}"
                  for name in _numpy_submodule_names(tree, "fft")]
    assert found == []


def test_guard_sees_numpy_linalg_calls():
    tree = ast.parse("import numpy\nnp.linalg.eigh(a)\n"
                     "numpy.linalg.cholesky(a)\nnp.linalg.LinAlgError\n"
                     "np.fft.fft(a)\nnumpy.fft.rfft(a)\n")
    assert sorted(_numpy_submodule_names(tree, "linalg")) == \
        ["LinAlgError", "cholesky", "eigh"]
    assert sorted(_numpy_submodule_names(tree, "fft")) == ["fft", "rfft"]


BLAS_MODULE = SRC / "_blas.py"

# The only place scipy.linalg may be imported: the cython_lapack fallback
# of the LAPACK lookup.  scipy.fft may be imported nowhere.
ALLOWED_SUBMODULE_USES = {
    (BLAS_MODULE, "_lapack", "scipy.linalg.cython_lapack"),
}


def _scipy_submodule_uses(tree):
    """(dotted name, enclosing function or None) for each name ``tree``
    imports from scipy.linalg or scipy.fft (or a submodule), imports them
    as, or reads from them as an attribute of an imported ``scipy``."""
    found = []
    scipy_aliases = set()

    def heavy(module):
        return module.split(".")[:2] in (["scipy", "linalg"], ["scipy", "fft"])

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Import):
            for alias in node.names:
                if heavy(alias.name):
                    found.append((alias.name, function))
                # `import scipy.special` binds `scipy` too, and scipy's
                # lazy attributes load scipy.linalg on first use
                if alias.name == "scipy" or (alias.name.startswith("scipy.")
                                             and alias.asname is None):
                    scipy_aliases.add(alias.asname or "scipy")
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                name = f"{node.module}.{alias.name}"
                if heavy(node.module) or heavy(name):
                    found.append((name, function))
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in scipy_aliases
              and node.attr in ("linalg", "fft")):
            found.append((f"scipy.{node.attr}", function))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def _forbidden_scipy_submodule_uses(path, tree):
    """What the module at ``path`` takes from scipy.linalg or scipy.fft
    beyond the allowed fallback import."""
    return [(name, function)
            for name, function in _scipy_submodule_uses(tree)
            if (path, function, name) not in ALLOWED_SUBMODULE_USES]


def test_only_blas_module_calls_lapack():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [f"{path.relative_to(SRC)}: {name} in {function}"
                  for name, function in
                  _forbidden_scipy_submodule_uses(path, tree)]
    assert found == []


def test_guard_sees_scipy_linalg_uses():
    tree = ast.parse(
        "from scipy.linalg import eigh, toeplitz\n"
        "from scipy.linalg.lapack import dpotrf\n"
        "import scipy.linalg as sla\n"
        "from scipy import linalg, special\n"
        "from scipy.fft import dct\n"
        "import scipy as sp\nsp.fft.rfft(a)\nsp.special.ndtr(a)\n"
        "from scipy.special import ndtr\n"
        "np.linalg.eigh(a)\n"
        "import scipy.special\nscipy.linalg.lu(a)\n"
        "import scipy.special as ss\nss.linalg\n"
        "def _lapack():\n"
        "    from scipy.linalg import cython_lapack\n"
        "def _cosine_transform():\n"
        "    from scipy.fft import dct\n"
        "    import scipy\n"
        "    return scipy.linalg.eigh(a)\n")
    assert _scipy_submodule_uses(tree) == [
        ("scipy.linalg.eigh", None), ("scipy.linalg.toeplitz", None),
        ("scipy.linalg.lapack.dpotrf", None), ("scipy.linalg", None),
        ("scipy.linalg", None), ("scipy.fft.dct", None),
        ("scipy.fft", None), ("scipy.linalg", None),
        ("scipy.linalg.cython_lapack", "_lapack"),
        ("scipy.fft.dct", "_cosine_transform"),
        ("scipy.linalg", "_cosine_transform")]
    forbidden = _forbidden_scipy_submodule_uses(BLAS_MODULE, tree)
    assert ("scipy.linalg.cython_lapack", "_lapack") not in forbidden
    assert len(forbidden) == 10
    # every fft use is forbidden in every module, inside a function too
    fft_uses = [("scipy.fft.dct", None), ("scipy.fft", None),
                ("scipy.fft.dct", "_cosine_transform")]
    for path in sorted(SRC.rglob("*.py")):
        forbidden = _forbidden_scipy_submodule_uses(path, tree)
        assert all(use in forbidden for use in fft_uses), path
        assert len(forbidden) == (10 if path == BLAS_MODULE else 11), path


# The two eigensolver entry points: spectral.eig_sym takes a kernel
# matrix's eigenvalues, bounds.lower_bound the eigenpairs of its leading
# blocks.  Entries are (module, enclosing function, vectors).
EIGEN_ENTRY_POINTS = [("bounds.py", "lower_bound", True),
                      ("spectral.py", "eig_sym", False)]


def _eigh_descending_uses(tree):
    """(enclosing function or None, vectors) for each use of
    eigh_descending in ``tree``: for a call, the ``vectors`` literal it
    passes (True by default, None when not a constant); for any other
    reference to the name, "reference"."""
    found = []

    def named(node):
        return ((isinstance(node, ast.Name) and node.id == "eigh_descending")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "eigh_descending"))

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and named(node.func):
            arg = node.args[1] if len(node.args) > 1 else next(
                (k.value for k in node.keywords if k.arg == "vectors"), None)
            found.append((function, True if arg is None else
                          arg.value if isinstance(arg, ast.Constant) else None))
            children = [*node.args, *node.keywords]
        else:
            if named(node):
                found.append((function, "reference"))
            children = ast.iter_child_nodes(node)
        for child in children:
            visit(child, function)

    visit(tree, None)
    return found


# The routine each function of _blas passes to _call: ?syevd's stages only
# in eigh_descending, its workspace query only in _syevd_lwork.
LAPACK_CALL_SITES = sorted(
    [("_blas.py", "_syevd_lwork", "syevd"), ("_blas.py", "_potrf", "potrf"),
     ("_blas.py", "_trtrs", "trtrs")]
    + [("_blas.py", "eigh_descending", stage) for stage in SYEVD_STAGES])


def _call_sites(tree):
    """(enclosing function or None, routine) for each call of ``_call`` in
    ``tree``; the routine is None when it is not a string literal."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Call) and "_call" in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None)):
            first = node.args[0] if node.args else None
            literal = (isinstance(first, ast.Constant)
                       and isinstance(first.value, str))
            found.append((function, first.value if literal else None))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_eigensolver_has_two_entry_points():
    found, sites = [], []
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found += [(module, function, vectors)
                  for function, vectors in _eigh_descending_uses(tree)]
        sites += [(module, function, routine)
                  for function, routine in _call_sites(tree)]
    assert sorted(found) == EIGEN_ENTRY_POINTS
    # ?syevd's stages are called inside eigh_descending only, and every
    # routine with a handle has a pool-size entry and one call site
    assert sorted(sites) == LAPACK_CALL_SITES
    assert ({routine for _, _, routine in LAPACK_CALL_SITES}
            == set(_blas._HANDLES) == set(_blas._THREAD_DEPENDENT_FROM))


def test_guard_sees_call_sites():
    tree = ast.parse(
        "_call('syevd', n)\n"
        "def f():\n    _blas._call('sytrd', n, a)\n    _call(name, n)\n"
        "    call('stedc', n)\n    _call()\n")
    assert _call_sites(tree) == [(None, "syevd"), ("f", "sytrd"),
                                 ("f", None), ("f", None)]


def test_guard_sees_eigh_descending_uses():
    tree = ast.parse(
        "from tvbospec._blas import eigh_descending\n"
        "eigh_descending(a)\n"
        "def f():\n    _blas.eigh_descending(a, False)\n"
        "def g():\n    eigh_descending(a, vectors=flag)\n"
        "class C:\n    def h(self):\n"
        "        return eigh_descending(eigh_descending(a)[0], vectors=True)\n"
        "solve = eigh_descending\n"
        "eigh(a)\n")
    assert _eigh_descending_uses(tree) == [
        (None, True), ("f", False), ("g", None), ("h", True), ("h", True),
        (None, "reference")]


# The LAPACK handles, read only by _blas._call, which sets scipy's pool
# size around them; the pool functions, named only in _blas.
LAPACK_HANDLES = {"_HANDLES"}
POOL_FUNCTIONS = {"scipy_openblas_set_num_threads", "blas_thread_shutdown_",
                  "openblas_read_env"}


def _name_uses(tree, names):
    """(enclosing function or None, name) for each of ``names`` that
    ``tree`` reads as a variable, takes as an attribute or spells as a
    string."""
    found = []

    def visit(node, function):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            function = node.name
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name in names:
            found.append((function, name))
        for child in ast.iter_child_nodes(node):
            visit(child, function)

    visit(tree, None)
    return found


def test_lapack_handles_are_called_in_one_helper():
    found, helper = [], set()
    for path in sorted(SRC.rglob("*.py")):
        module = str(path.relative_to(SRC))
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function, name in _name_uses(tree,
                                         LAPACK_HANDLES | POOL_FUNCTIONS):
            if (module, function) == ("_blas.py", "_call"):
                helper.add(name)
            elif name in LAPACK_HANDLES or module != "_blas.py":
                found.append((module, function, name))
    assert found == []
    assert LAPACK_HANDLES <= helper


def test_guard_sees_handle_and_pool_function_uses():
    tree = ast.parse(
        "_HANDLES = handles()\n"
        "def _call():\n    _HANDLES['syevd'](a)\n    h = {'p': _HANDLES}\n"
        "def f():\n    _blas._HANDLES['trtrs'](b)\n"
        "    lib.scipy_openblas_set_num_threads(1)\n"
        "    getattr(lib, 'blas_thread_shutdown_')()\n"
        "    lib.scipy_openblas_set_num_threads64_(1)\n"
        "read = getattr(lib, 'openblas_read_env', None)\n"
        "def g():\n    lib.openblas_read_env()\n")
    assert _name_uses(tree, LAPACK_HANDLES | POOL_FUNCTIONS) == [
        ("_call", "_HANDLES"), ("_call", "_HANDLES"), ("f", "_HANDLES"),
        ("f", "scipy_openblas_set_num_threads"),
        ("f", "blas_thread_shutdown_"), (None, "openblas_read_env"),
        ("g", "openblas_read_env")]


def _fresh_interpreter(code: str, **variables) -> str:
    """stdout of ``code`` run by a new interpreter that imports this
    tvbospec, with the environment ``variables`` set (None: unset)."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    for name, value in variables.items():
        env.pop(name, None)
        if value is not None:
            env[name] = value
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True, timeout=300).stdout


def _uses_bundled_openblas():
    lib = _blas.scipy_openblas()
    return lib is not None and hasattr(lib, "scipy_dsyevd_")


def test_import_and_validation_load_neither_scipy_linalg_nor_fft():
    # a fresh interpreter, as `tvbospec run` starts: the import and every
    # experiment's default config validated, and scipy.linalg and
    # scipy.fft never loaded
    if not _uses_bundled_openblas():
        pytest.skip("scipy bundles no scipy_openblas library: LAPACK is "
                    "looked up through scipy.linalg.cython_lapack")
    code = (
        "import sys\n"
        "import tvbospec.expcli.experiments as ex\n"
        "for name in ex.EXPERIMENTS:\n"
        "    ex.validate_config(ex.default_config(name))\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('scipy.linalg', 'scipy.fft'))))\n")
    assert _fresh_interpreter(code).strip() == "[]"


BENCH = Path(__file__).resolve().parents[1] / "bench"
_spec = importlib.util.spec_from_file_location("bench_workloads",
                                               BENCH / "workloads.py")
workloads = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(workloads)

# What the kernels that import scipy.special lazily return; these are the
# values they gave when kernels imported it at module level.
LAZY_SPECIAL_CALLS = (
    "from tvbospec.kernels import (TemporalKernel, spectral_density,\n"
    "                              spectral_lines)\n"
    "w = [0.0, 0.3, 1.7]\n"
    "out = [list(spectral_density(TemporalKernel.matern(1.5, 1.2), w)),\n"
    "       list(spectral_density(\n"
    "           TemporalKernel.rational_quadratic(0.8, alpha=1.0), w)),\n"
    "       spectral_lines(TemporalKernel.periodic(period=0.3,\n"
    "                                              lengthscale=0.8))]\n")
MATERN_DENSITY = [2.771281292110204, 0.3786133492904112,
                  0.0008911803334401867]
RQ_DENSITY = [3.5543063505266934, 0.4212941964202706, 2.0066041145079372e-05]
PERIODIC_HEAVIEST_LINES = [
    [0.0, 0.35844525508684205], [3.3333333333333335, 0.21908451709421356],
    [-3.3333333333333335, 0.21908451709421356]]


def test_workloads_load_no_module_after_setup(tmp_path):
    # a fresh interpreter sets up and runs every benchmark workload's tiny
    # configs (regret with bounds on included), plus the d = 2 loop on a
    # 16 x 16 grid, which screens: the runs import no module that the
    # import and validate_config did not (numpy loads numpy.random and
    # numpy.ma on first use), and scipy.special is never loaded, since the
    # lower bound's Phi is bounds' own and no kernel they use needs it.
    # The Matern and rational-quadratic densities and periodic lines then
    # load it.
    code = (
        "import json, sys\n"
        f"sys.path.insert(0, {str(BENCH)!r})\n"
        "import workloads\n"
        "import tvbospec.expcli.experiments as ex\n"
        "runs = [run for name in sorted(workloads.TINY)\n"
        "        for run in workloads.experiments(name, 0, True)]\n"
        "screened = workloads.experiments('loop_d2', 0, True)[0]\n"
        "screened['config']['params']['grid_resolution'] = 16\n"
        "runs.append(screened)\n"
        "for run in runs:\n"
        "    ex.validate_config(run['config'])\n"
        "setup = set(sys.modules)\n"
        "for i, run in enumerate(runs):\n"
        f"    ex.run_experiment(run['config'], {str(tmp_path)!r} + f'/{{i}}',\n"
        "                      jobs=run['jobs'])\n"
        "loaded = sorted(set(sys.modules) - setup)\n"
        "special = sorted(m for m in sys.modules\n"
        "                 if m.startswith('scipy.special'))\n"
        + LAZY_SPECIAL_CALLS +
        "print(json.dumps([loaded, special, 'scipy.special' in sys.modules,\n"
        "                  out]))\n")
    loaded, special, special_after, (matern, rq, lines) = json.loads(
        _fresh_interpreter(code).splitlines()[-1])
    assert len(list(tmp_path.glob("*/manifest.json"))) == 1 + sum(
        len(runs) for runs in workloads.TINY.values())
    assert loaded == []
    assert special == []
    assert special_after
    assert matern == MATERN_DENSITY
    assert rq == RQ_DENSITY
    assert lines[:3] == PERIODIC_HEAVIEST_LINES
    assert lines == [list(line) for line in spectral_lines(
        TemporalKernel.periodic(period=0.3, lengthscale=0.8))]


def test_one_scipy_openblas_mapped():
    # _blas loads scipy's bundled OpenBLAS with ctypes before any scipy
    # extension module does; scipy.special and scipy.linalg, imported
    # after it, must link that same file rather than map a second copy
    # with its own thread pool
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/maps")
    if _blas.scipy_openblas() is None:
        pytest.skip("scipy bundles no scipy_openblas library")
    import scipy.linalg  # noqa: F401
    import scipy.special  # noqa: F401
    maps = Path("/proc/self/maps").read_text(encoding="utf-8").splitlines()
    mapped = {line.split(maxsplit=5)[-1] for line in maps
              if "scipy.libs/libscipy_openblas" in line}
    assert len(mapped) == 1, mapped


def _spatial_d2_gram():
    axis = np.linspace(0.0, 1.0, 40)
    grid = np.array([(a, b) for a in axis for b in axis])
    return SpatialKernel.rbf([0.4, 0.4]).pairwise(grid, grid)


@pytest.mark.parametrize("factor", ["spatial_d2", "rbf", "periodic",
                                    "cosine_sum"])
def test_potrf_matches_scipy_cholesky(factor, at_wrapper_pool_size):
    # ctypes ?potrf with the arguments scipy's f2py handle passes (a Fortran
    # copy, clean=1), on the jittered prior factors of the regret defaults
    # (200 steps) and of the d = 2 loop (40 x 40 grid): the same bits
    if factor == "spatial_d2":
        gram = _spatial_d2_gram()
    else:
        ts = TimeGrid(200, 0.1).times
        gram = eval_temporal(CLASSES[factor], np.abs(ts[:, None] - ts))
    gram[np.diag_indices_from(gram)] += 1e-10
    before = gram.copy()
    for lower, factorize in ((1, _blas.cholesky_lower),
                             (0, _blas.cholesky_upper)):
        want, info = at_wrapper_pool_size("potrf", len(gram), lapack.dpotrf,
                                          gram, lower=lower, clean=1)
        assert info == 0
        got = factorize(gram)
        assert got.flags.f_contiguous
        assert np.array_equal(got, want)
    assert np.array_equal(gram, before)


def test_potrf_allocates_one_copy():
    # the factor is the only n x n allocation: clean=1 zeroes the other
    # triangle a column at a time, without index arrays
    gram = _spatial_d2_gram()[:800, :800]
    gram[np.diag_indices_from(gram)] += 0.01
    tracemalloc.start()
    try:
        factor = _blas.cholesky_lower(gram)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert factor.shape == (800, 800)
    assert peak <= 1.05 * 800 * 800 * 8


def _jittered_gram(n=300):
    gram = _regret_gram(CLASSES["rbf"], n)
    gram[np.diag_indices_from(gram)] += 0.01
    return gram


FACTORIZATIONS = [(1, _blas.cholesky_lower), (0, _blas.cholesky_upper)]


@pytest.mark.parametrize("lower, factorize", FACTORIZATIONS)
def test_potrf_factors_writeable_fortran_input_in_place(
        lower, factorize, at_wrapper_pool_size):
    # f2py's overwrite_a=1: the input becomes the factor, with the copy
    # path's bits, and no n x n array is allocated
    gram = _jittered_gram()
    want = at_wrapper_pool_size("potrf", len(gram), lapack.dpotrf, gram,
                                lower=lower, clean=1)[0]
    a = np.asfortranarray(gram)
    tracemalloc.start()
    try:
        got = factorize(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got is a
    assert np.array_equal(got, want)
    assert np.array_equal(got, factorize(gram))  # C-ordered: copied
    assert peak < 0.05 * gram.nbytes


def _read_only_fortran(gram):
    a = np.asfortranarray(gram)
    a.flags.writeable = False
    return a


@pytest.mark.parametrize("lower, factorize", FACTORIZATIONS)
@pytest.mark.parametrize("build", [
    np.ascontiguousarray, _read_only_fortran,
    lambda g: np.asfortranarray(np.pad(g, ((0, 1), (0, 1))))[:-1, :-1]],
    ids=["c_ordered", "read_only_fortran", "strided_fortran"])
def test_potrf_leaves_other_input_untouched(build, lower, factorize,
                                            at_wrapper_pool_size):
    gram = _jittered_gram()
    a = build(gram)
    assert not _blas._in_place(a)
    got = factorize(a)
    assert got is not a and got.flags.f_contiguous
    assert np.array_equal(a, gram)
    assert np.array_equal(got, at_wrapper_pool_size(
        "potrf", len(gram), lapack.dpotrf, gram, lower=lower, clean=1)[0])


# The f2py handles scipy's eigh calls: the reference for the ctypes ones.
SYEVD, SYEVD_LWORK = get_lapack_funcs(("syevd", "syevd_lwork"),
                                      dtype=np.float64)


def _f2py_syevd(a, vectors, at_wrapper_pool_size):
    lwork, liwork = _compute_lwork(SYEVD_LWORK, n=a.shape[0],
                                   lower=1, compute_v=int(vectors))
    w, v, info = at_wrapper_pool_size("syevd", a.shape[0], SYEVD, a,
                                      compute_v=int(vectors), lower=1,
                                      lwork=lwork, liwork=liwork)
    assert info == 0
    return w[::-1], (v[:, ::-1] if vectors else None)


def _regret_gram(temporal, n=200):
    # the Gram of a horizon-n run's observations, C-ordered, as the lower
    # bound slices it step by step
    rng = np.random.default_rng(3)
    xs = rng.choice(np.linspace(0.0, 1.0, 25), size=(n, 1))
    return build_spatiotemporal_matrix(SpatialKernel.rbf([0.4]), temporal,
                                       xs, TimeGrid(n, 0.1).times).values


def _assert_syevd_matches_f2py(a, at_wrapper_pool_size):
    for vectors in (True, False):
        vals, vecs = _blas.eigh_descending(a, vectors)
        want_vals, want_vecs = _f2py_syevd(a, vectors, at_wrapper_pool_size)
        assert np.array_equal(vals, want_vals)
        if vectors:
            assert np.array_equal(vecs, want_vecs)
        else:
            assert vecs is None


# Max-abs scales of a regret Gram (unit diagonal): as built, and beyond
# either end of ?syevd's [RMIN, RMAX], where it runs ?lascl.
SCALES = {"unit": 1.0, "tiny": 1e-150, "huge": 1e150}


@pytest.mark.parametrize("label, scale", [
    *((label, "unit") for label in sorted(CLASSES)),
    ("cosine_sum", "tiny"), ("periodic", "huge"), ("rbf", "tiny"),
    ("sinc_squared", "huge")])
def test_syevd_matches_f2py_on_gram_slices(label, scale,
                                           at_wrapper_pool_size):
    # the stage-by-stage solve gives the bits of f2py's one-shot ?syevd,
    # both jobz, on every leading block of order 0..259 of each class's
    # Gram, and of one scaled to each side of ?syevd's [RMIN, RMAX]
    gram = _regret_gram(CLASSES[label], 259) * SCALES[scale]
    assert (scale == "unit") == (_blas._RMIN <= np.abs(gram).max()
                                 <= _blas._RMAX)
    before = gram.copy()
    assert gram.flags.c_contiguous
    for k in range(len(gram) + 1):
        _assert_syevd_matches_f2py(gram[:k, :k], at_wrapper_pool_size)
    assert np.array_equal(gram, before)


def test_syevd_scaling_range_is_lapacks():
    # RMIN = sqrt(SAFMIN / EPS) and RMAX = 1 / RMIN, from DLAMCH
    smlnum = lapack.dlamch("S") / lapack.dlamch("P")
    assert _blas._RMIN == np.sqrt(smlnum)
    assert _blas._RMAX == np.sqrt(1.0 / smlnum)


def test_syevd_workspace_query_matches_compute_lwork():
    for vectors in (False, True):
        for n in range(1, 401):
            want = _compute_lwork(SYEVD_LWORK, n=n, lower=1,
                                  compute_v=int(vectors))
            assert _blas._syevd_lwork.__wrapped__(n, vectors) == want


def _upper_factor_buffer(cap=16, n=11):
    # the GP posterior's layout: L^T in the upper triangle of a Fortran
    # (cap, cap) buffer, solved against as its (cap, n) leading columns
    chol = np.zeros((cap, cap), order="F")
    gram = _regret_gram(CLASSES["rbf"], n)
    gram[np.diag_indices_from(gram)] += 0.01
    chol[:n, :n] = _blas.cholesky_upper(gram)
    return chol[:, :n]


RIGHT_HAND_SIDES = {
    # name: (builder, solved in place by f2py's overwrite_b=1)
    "vector": (lambda b: b[:, 0].copy(), True),
    "strided_vector": (lambda b: b.copy()[:, 0], False),
    "one_column": (lambda b: np.ascontiguousarray(b[:, :1]), True),
    "c_ordered": (np.ascontiguousarray, False),
    "fortran": (np.asfortranarray, True),
}


@pytest.mark.parametrize("rhs", sorted(RIGHT_HAND_SIDES))
@pytest.mark.parametrize("trans, solve", [(1, _blas.solve_transposed),
                                          (0, _blas.solve_upper)])
def test_trtrs_matches_f2py(rhs, trans, solve):
    u = _upper_factor_buffer()
    assert u.flags.f_contiguous and u.shape == (16, 11)
    before = u.copy()
    build, in_place = RIGHT_HAND_SIDES[rhs]
    base = np.random.default_rng(5).standard_normal((11, 4))
    b, b_ref = build(base), build(base)
    want, info = lapack.dtrtrs(u, b_ref, lower=0, trans=trans, overwrite_b=1)
    assert info == 0
    got = solve(u, b)
    assert (want is b_ref) == in_place
    assert (got is b) == in_place
    assert got.shape == want.shape
    assert np.array_equal(got, want)
    assert np.array_equal(u, before)


def test_capsule_fallback_gives_the_same_bits(monkeypatch,
                                              at_wrapper_pool_size):
    # without scipy's bundled library the routines come from
    # cython_lapack's exported pointers, called the same way
    # (cython functions, which take no hidden CHARACTER lengths and
    # ignore them)
    from scipy.linalg import cython_lapack
    monkeypatch.setattr(_blas, "scipy_openblas", lambda: None)
    handles = _blas._lapack()
    assert [ctypes.cast(h, ctypes.c_void_p).value
            for h in handles.values()] == [
        _blas._capsule_address(cython_lapack.__pyx_capi__[name])
        for name in _blas._SIGNATURES]
    monkeypatch.setattr(_blas, "_HANDLES", handles)
    monkeypatch.setattr(_blas, "_syevd_lwork",
                        functools.cache(_blas._syevd_lwork.__wrapped__))
    gram = _regret_gram(CLASSES["periodic"], 64)
    for scale in SCALES.values():  # ?lascl runs for two of them
        _assert_syevd_matches_f2py(gram[:40, :40] * scale,
                                   at_wrapper_pool_size)
    gram[np.diag_indices_from(gram)] += 0.01
    assert np.array_equal(_blas.cholesky_lower(gram),
                          lapack.dpotrf(gram, lower=1, clean=1)[0])
    u = _blas.cholesky_upper(gram)
    b = np.random.default_rng(6).standard_normal((64, 3))
    for trans, solve in ((1, _blas.solve_transposed), (0, _blas.solve_upper)):
        want = lapack.dtrtrs(u, b, lower=0, trans=trans)[0]
        assert np.array_equal(solve(u, b.copy(order="F")), want)


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


def test_import_lets_arrays_below_8_mib_reuse_heap_pages():
    # in a fresh interpreter: after `import tvbospec`, a freed 4 MiB array
    # stays in glibc's heap, so the next one faults no page in
    if not sys.platform.startswith("linux") or \
            platform.libc_ver()[0] != "glibc":
        pytest.skip("glibc's dynamic mmap threshold")
    code = (
        "import resource\n"
        "import tvbospec, numpy as np\n"
        "def faults():\n"
        "    start = resource.getrusage(resource.RUSAGE_SELF).ru_minflt\n"
        "    np.ones(1 << 19)\n"
        "    return resource.getrusage(resource.RUSAGE_SELF).ru_minflt - start\n"
        "print([faults(), faults()])\n")
    first, second = json.loads(_fresh_interpreter(code))
    assert first > 64  # fresh pages do count
    assert second < 64, (first, second)


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


def _scipy_lib():
    lib = _blas.scipy_openblas()
    if lib is None:
        pytest.skip("scipy bundles no scipy_openblas library")
    return lib


@pytest.fixture
def threaded_everywhere(monkeypatch):
    """Makes _blas run every routine, at every order, on as many scipy
    threads as its pool started with, and at least two."""
    _scipy_lib()
    monkeypatch.setattr(_blas, "_POOL_SIZE", max(2, _blas._POOL_SIZE))
    monkeypatch.setattr(_blas, "_THREAD_DEPENDENT_FROM",
                        dict.fromkeys(_blas._THREAD_DEPENDENT_FROM, 1))


# The measured orders of the table in _blas: 1..259.
MEASURED_ORDERS = range(1, _blas._UNMEASURED_FROM)


@pytest.mark.parametrize("label", sorted(CLASSES))
def test_calls_below_the_threaded_order_do_not_depend_on_threads(
        label, request, monkeypatch):
    # every routine in _blas's table, at every measured order below its
    # entry, gives on one scipy thread the bits the pool's size gives: the
    # ?syevd stages on every leading block of a regret Gram of each class
    # (eigenvalues of it scaled beyond RMAX too, so that ?lascl runs),
    # with ?syevd's workspace query, ?potrf on the jittered blocks, and
    # ?trtrs with the leading blocks of their upper factor
    gram = _regret_gram(CLASSES[label], MEASURED_ORDERS[-1])
    factor = _blas.cholesky_upper(gram + 0.01 * np.eye(len(gram)))
    rhs = np.random.default_rng(8).standard_normal((len(gram), 3))
    single_orders = {}  # routine: the orders it ran on one thread at
    gate = _blas.pool_threads

    def pool_threads(routine, order):
        threads = gate(routine, order)
        if threads == 1:
            single_orders.setdefault(routine, set()).add(order)
        return threads

    monkeypatch.setattr(_blas, "pool_threads", pool_threads)

    potrf_orders = range(1, _blas._THREAD_DEPENDENT_FROM["potrf"])

    def results():
        out = []
        for k in MEASURED_ORDERS:
            block = gram[:k, :k]
            for vectors in (True, False):
                out.append(_blas._syevd_lwork.__wrapped__(k, vectors))
                out += _blas.eigh_descending(block, vectors)
            out.append(_blas.eigh_descending(block * SCALES["huge"],
                                             vectors=False)[0])
        for k in potrf_orders:
            block = gram[:k, :k] + 0.01 * np.eye(k)
            out += [_blas.cholesky_lower(block), _blas.cholesky_upper(block)]
        for k in MEASURED_ORDERS:
            u = factor[:k, :k]
            out += [solve(u, rhs[:k].copy(order="F")) for solve in
                    (_blas.solve_transposed, _blas.solve_upper)]
        return out

    single = results()
    # each routine ran on one thread at every order from 2 (order 1 is
    # ?syevd's quick return, with no stage) to below its entry
    assert set(single_orders) == set(_blas._THREAD_DEPENDENT_FROM)
    for routine, orders in single_orders.items():
        start = min(_blas._THREAD_DEPENDENT_FROM[routine],
                    _blas._UNMEASURED_FROM)
        assert orders >= set(range(2, start)), routine
    request.getfixturevalue("threaded_everywhere")
    threaded = results()
    assert len(single) == len(threaded)
    for want, got in zip(single, threaded):
        assert np.array_equal(want, got)


def test_trtrs_does_not_depend_on_threads(request):
    # a 200 x 1600 right-hand side, the regret loop's widest solve
    gram = _jittered_gram(200)
    u = _blas.cholesky_upper(gram)
    b = np.asfortranarray(
        np.random.default_rng(7).standard_normal((200, 1600)))

    def results():
        return [solve(u, b.copy(order="F"))
                for solve in (_blas.solve_transposed, _blas.solve_upper)]

    single = results()
    request.getfixturevalue("threaded_everywhere")
    for want, got in zip(single, results()):
        assert np.array_equal(want, got)


def _pool_calls():
    """Threaded calls, with their results: an order-200 eigensolve with
    vectors (its ?sytrd and ?ormtr), ?potrf at orders 1600 and 200, and a
    ?trtrs solve."""
    gram = _jittered_gram(200)
    vals, vecs = _blas.eigh_descending(gram)
    spatial = np.asfortranarray(_spatial_d2_gram())
    spatial[np.diag_indices_from(spatial)] += 1e-10
    factor = _blas.cholesky_lower(spatial)
    u = _blas.cholesky_upper(gram)
    x = _blas.solve_transposed(u, np.asfortranarray(factor[:200, :]))
    return [vals, vecs, factor, u, x]


def test_threaded_calls_run_without_the_stop_to_the_same_bits(monkeypatch):
    # a pool whose workers are stopped before each call, so that every
    # threaded call starts them afresh, against the parked pool
    lib = _scipy_lib()
    if _blas._SHUTDOWN is None:
        pytest.skip("the library cannot stop its pool's workers")
    parked = _pool_calls()

    def stopped_first(handle):
        def call(*args):
            _blas._SHUTDOWN()
            return handle(*args)
        return call

    for name, handle in list(_blas._HANDLES.items()):
        monkeypatch.setitem(_blas._HANDLES, name, stopped_first(handle))
    stopped = _pool_calls()
    assert lib.scipy_openblas_get_num_threads() == 1
    assert len(parked) == len(stopped)
    for a, b in zip(parked, stopped):
        assert np.array_equal(a, b)


def test_no_scipy_worker_runs_after_a_call():
    # in a fresh interpreter: over a 0.2 s sleep right after threaded calls
    # the process spends less than 10 ms of CPU (a worker with OpenBLAS's
    # default timeout busy-waits for about 0.1 s after each call); then
    # scipy's pool is back at one thread, the calls added at most its size
    # less one threads, each asleep, and no thread but the caller is
    # running; the calls ran ?sytrd, ?ormtr and ?potrf on the raised pool,
    # and ?syevd's other stages on one thread
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/task")
    _scipy_lib()
    if _blas._POOL_SIZE == 1:
        pytest.skip("scipy's pool started at one thread")
    if _blas._READ_ENV is None:
        pytest.skip("the library cannot set its workers' idle timeout")
    code = (
        "import json, os, sys, threading, time\n"
        f"sys.path.insert(0, {str(Path(__file__).parent)!r})\n"
        "import tvbospec\n"
        "from tvbospec import _blas\n"
        "def states():\n"
        "    return {int(t): open(f'/proc/self/task/{t}/stat').read()\n"
        "            .rsplit(')', 1)[1].split()[0]\n"
        "            for t in os.listdir('/proc/self/task')}\n"
        "imported = set(states())\n"
        "lib, pools = _blas.scipy_openblas(), {}\n"
        "def spy(name, handle):\n"
        "    def call(*args):\n"
        "        pools.setdefault(name, set()).add(\n"
        "            lib.scipy_openblas_get_num_threads())\n"
        "        return handle(*args)\n"
        "    return call\n"
        "for name, handle in list(_blas._HANDLES.items()):\n"
        "    _blas._HANDLES[name] = spy(name, handle)\n"
        "from test_blas import _pool_calls\n"
        "_pool_calls()\n"
        "start = time.process_time()\n"
        "time.sleep(0.2)\n"
        "idle_cpu = time.process_time() - start\n"
        "after = states()\n"
        "after.pop(threading.get_native_id())\n"
        "print(json.dumps([lib.scipy_openblas_get_num_threads(),\n"
        "                  sorted(after.values()),\n"
        "                  sorted(after[t] for t in set(after) - imported),\n"
        "                  idle_cpu,\n"
        "                  {name: max(sizes) for name, sizes in\n"
        "                   pools.items()}]))\n")
    threads, states, added, idle_cpu, pools = json.loads(
        _fresh_interpreter(code).splitlines()[-1])
    pool = _blas._POOL_SIZE
    assert pools == {"syevd": 1, "lansy": 1, "sytrd": pool, "stedc": 1,
                     "ormtr": pool, "lacpy": 1, "potrf": pool, "trtrs": 1}
    assert idle_cpu < 0.010, idle_cpu
    assert threads == 1
    assert len(added) <= pool - 1
    assert set(added) <= {"S"}, added
    assert "R" not in states, states


def _pool_events(code: str, **variables):
    """The JSON of the last line that ``code`` prints in a fresh
    interpreter with the environment ``variables`` set."""
    return json.loads(_fresh_interpreter(code, **variables).splitlines()[-1])


@pytest.mark.parametrize("timeout", [None, "20"], ids=["unset", "set"])
@pytest.mark.parametrize("threads", ["1", "2"])
def test_import_sets_only_the_thread_timeout(threads, timeout):
    # in a fresh interpreter: after `import tvbospec`, scipy's library
    # reads the minimum idle-worker timeout, os.environ holds
    # OPENBLAS_THREAD_TIMEOUT as it was started with, the pool size and
    # thread count read what loading the library, pinning it to one thread
    # and stopping its workers give without the re-read, and the import
    # left no scipy worker (numpy's, started before, are not counted)
    if not sys.platform.startswith("linux"):
        pytest.skip("reads /proc/self/task")
    lib = _scipy_lib()
    if not hasattr(lib, "openblas_read_env"):
        pytest.skip("the library cannot re-read its variables")
    variables = {"OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": None,
                 "GOTO_NUM_THREADS": None,
                 "OPENBLAS_THREAD_TIMEOUT": timeout}
    reference = _pool_events(
        "import ctypes, json, numpy, scipy\n"
        f"lib = ctypes.CDLL({lib._name!r})\n"
        "started = lib.scipy_openblas_get_num_threads()\n"
        "lib.scipy_openblas_set_num_threads(1)\n"
        "lib.blas_thread_shutdown_()\n"
        "print(json.dumps([started, lib.scipy_openblas_get_num_threads()]))\n",
        **variables)
    got = _pool_events(
        "import json, os, numpy\n"
        "before = len(os.listdir('/proc/self/task'))\n"
        "import tvbospec\n"
        "from tvbospec import _blas\n"
        "lib = _blas.scipy_openblas()\n"
        "print(json.dumps([lib.openblas_thread_timeout(),\n"
        "                  os.environ.get('OPENBLAS_THREAD_TIMEOUT'),\n"
        "                  [_blas._POOL_SIZE,\n"
        "                   lib.scipy_openblas_get_num_threads()],\n"
        "                  len(os.listdir('/proc/self/task')) - before]))\n",
        **variables)
    assert got == [4, timeout, reference, 0]
    assert reference[0] == min(int(threads), len(os.sched_getaffinity(0)))


def test_threaded_calls_hold_the_shared_pool_lock(monkeypatch):
    # share_pool's lock is held through each threaded call, with the pool
    # raised, and through no one-thread call
    lib = _scipy_lib()
    monkeypatch.setattr(_blas, "_POOL_SIZE", max(2, _blas._POOL_SIZE))
    monkeypatch.setattr(_blas, "_POOL_LOCK", _blas._POOL_LOCK)

    class RecordingLock:
        held = 0

        def __enter__(self):
            self.held += 1

        def __exit__(self, *exc):
            self.held -= 1

    lock = RecordingLock()
    _blas.share_pool(lock)
    seen = []
    potrf = _blas._HANDLES["potrf"]

    def recording(*args):
        seen.append((lock.held, lib.scipy_openblas_get_num_threads()))
        return potrf(*args)

    monkeypatch.setitem(_blas._HANDLES, "potrf", recording)
    threaded = _blas._THREAD_DEPENDENT_FROM["potrf"]
    for n in (threaded - 1, threaded):
        _blas.cholesky_lower(np.eye(n) + np.ones((n, n)))
    assert seen == [(0, 1), (1, _blas._POOL_SIZE)]
    assert lock.held == 0
