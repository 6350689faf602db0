"""Byte-identity gate: small configs of all seven experiments reproduce the
committed manifests in ``tests/golden`` exactly.

Each manifest holds the SHA-256 of every CSV and SVG a run writes, so a
single CSV cell moved by one ulp changes it.  ``tests/golden/regenerate.py``
rebuilds the manifests; see its docstring for when that is allowed.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate",
                                               GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)
CONFIGS = regenerate.configs()


def test_every_experiment_has_a_golden_manifest():
    assert {c["experiment"] for c in CONFIGS.values()} == {
        "fig1", "fig2", "fig3", "fig4", "fig5", "table1", "regret"}
    assert sorted(p.name for p in GOLDEN.glob("*.manifest.json")) == \
        sorted(f"{name}.manifest.json" for name in CONFIGS)


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_manifest_matches_golden(name, tmp_path):
    fresh = regenerate.build(name, CONFIGS[name], tmp_path)
    golden = GOLDEN / fresh.name
    assert fresh.read_bytes() == golden.read_bytes(), name


# The configs whose manifest is known to differ at a thread count.  On one
# thread OpenBLAS's ?potrf factors a matrix of 128 or more rows with other
# blocking than on several, and the prior draw of regret_d2_screen factors
# the spatial Gram of its 400 grid points, so its objective moves at one
# thread (ROADMAP item 2; the screen needs a grid of 256 points or more).
# Pinning scipy's BLAS pool empties this table.
THREAD_DEPENDENT = {"1": {"regret_d2_screen"}}


@pytest.mark.parametrize("threads", ["1", "4"])
def test_manifests_do_not_depend_on_blas_threads(threads, tmp_path):
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
    subprocess.run([sys.executable, str(GOLDEN / "regenerate.py"),
                    "--out", str(tmp_path)],
                   env=env, check=True, capture_output=True, timeout=300)
    differ = {name for name in CONFIGS
              if (tmp_path / f"{name}.manifest.json").read_bytes()
              != (GOLDEN / f"{name}.manifest.json").read_bytes()}
    assert differ == THREAD_DEPENDENT.get(threads, set())
