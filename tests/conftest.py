import numpy as np
import pytest

from tvbospec import _blas
from tvbospec.kernels import SpatialKernel, TemporalKernel

if not hasattr(np, "trapezoid"):  # numpy < 2
    np.trapezoid = np.trapz

# one line per acceptance criterion, echoed in the terminal summary
ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.write_sep("=", "acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def shipped_temporal_kernels():
    """One representative of every temporal family the package ships."""
    return {
        "rbf": TemporalKernel.rbf(1.0),
        "matern12": TemporalKernel.matern(0.5, 0.7),
        "matern32": TemporalKernel.matern(1.5, 1.2),
        "matern52": TemporalKernel.matern(2.5, 0.9),
        "rq": TemporalKernel.rational_quadratic(0.8, alpha=1.0),
        "rq2": TemporalKernel.rational_quadratic(1.1, alpha=2.0),
        "sinc": TemporalKernel.sinc(1.0),
        "sinc_squared": TemporalKernel.sinc_squared(1.0),
        "periodic": TemporalKernel.periodic(period=0.3, lengthscale=0.8),
        "cosine_sum": TemporalKernel.cosine_sum([(0.0, 0.4), (1.3, 0.6)]),
    }


# The stages tvbospec._blas runs a ?syevd solve as.
SYEVD_STAGES = ("lansy", "lascl", "sytrd", "sterf", "stedc", "ormtr",
                "lacpy")


@pytest.fixture(scope="session")
def at_wrapper_pool_size():
    """Runs ``reference(*args, **kwargs)``, an f2py LAPACK handle's call, on
    as many scipy BLAS threads as tvbospec._blas runs ``routine`` of order
    ``n`` on, so that the two compare bit for bit.  A one-shot ``"syevd"``
    runs at the pool size from the first order at which one of its stages
    does."""
    def run(routine, n, reference, *args, **kwargs):
        stages = SYEVD_STAGES if routine == "syevd" else (routine,)
        threads = max(_blas.pool_threads(stage, n) for stage in stages)
        if threads == 1:
            return reference(*args, **kwargs)
        _blas.scipy_openblas().scipy_openblas_set_num_threads(threads)
        try:
            return reference(*args, **kwargs)
        finally:
            _blas._sleep_pool()
    return run


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(scope="session")
def spatial_rbf():
    return SpatialKernel.rbf([0.2])
