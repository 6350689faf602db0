"""Workload definitions: which experiments a pass runs, with which config.

A workload is a list of (experiment id, parameter overrides, jobs).  The
benchmark seed is turned into the config seed here; the program under test
only ever sees the generated config files.

Config seeds are ``seed % REFERENCE_SEEDS`` so that every benchmark seed
maps onto one of the committed reference manifests in ``bench/reference``
(config seed 0 is the package default).
"""

from __future__ import annotations

REFERENCE_SEEDS = 10

# Spatial kernel and grid for the query-heavy d=2 loop: 40 x 40 = 1600 grid
# points, one seed per kernel class, bounds off.
_LOOP_D2 = {
    "spatial": {"family": "rbf", "lengthscales": [0.4, 0.4]},
    "grid_resolution": 40,
    "horizon": 200,
    "replications": 1,
    "bounds": False,
}

WORKLOADS = {
    # run regret at its default config through the replication thread pool
    "regret_default": [("regret", {}, 2)],
    "loop_d2": [("regret", _LOOP_D2, 1)],
    "figures": [(exp, {}, 1) for exp in
                ("fig1", "fig2", "fig3", "fig4", "fig5", "table1")],
}

# Small versions of the same experiments for the harness self-check.  They
# go through every code path the full workloads use (thread pool, bounds,
# d=2 grid, all six figure experiments) in a few seconds.
TINY = {
    "regret_default": [("regret", {"horizon": 12, "grid_resolution": 6,
                                   "replications": 2}, 2)],
    "loop_d2": [("regret", dict(_LOOP_D2, grid_resolution=5, horizon=10), 1)],
    "figures": [
        ("fig1", {"n": 20}, 1),
        ("fig2", {"panels": [{"n": 20, "delta": 0.1}]}, 1),
        ("fig3", {"panels": [{"n": 20, "delta": 0.25}]}, 1),
        ("fig4", {"ns": [12]}, 1),
        ("fig5", {"ns": [10, 20], "replications": 2}, 1),
        ("table1", {"ns": [10, 20]}, 1),
    ],
}


def config_seed(seed: int) -> int:
    return seed % REFERENCE_SEEDS


def experiments(workload: str, seed: int, tiny: bool = False):
    """The pass of ``workload`` at benchmark seed ``seed``.

    Returns a list of {"config", "jobs"} items, one per experiment run, in
    run order.  Each config is what a user would put in a JSON config file.
    """
    table = TINY if tiny else WORKLOADS
    if workload not in table:
        raise KeyError(f"unknown workload {workload!r}; known: {sorted(table)}")
    return [{"config": {"experiment": exp, "seed": config_seed(seed),
                        "params": dict(params)},
             "jobs": jobs}
            for exp, params, jobs in table[workload]]
