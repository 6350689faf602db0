"""Experiment implementations behind the CLI.

Each experiment's params are read once, by ``_parse_<id>(params)``, into
typed inputs (kernels, grids, counts, floats) and the (matrix size,
eigendecompositions) pairs of the runtime estimate; a bad value raises
InvalidConfig naming its field.  ``run_<id>(seed, outdir, **inputs)``
writes deterministic CSV datasets plus SVG renderings into ``outdir`` and
returns the files written; reruns with the same config and seed produce
byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import math
# multiprocessing.popen_fork and .synchronize are what ProcessPoolExecutor
# loads when it starts a fork pool; importing them here keeps a pooled run
# from loading modules after set-up.
import multiprocessing
import multiprocessing.popen_fork  # noqa: F401
import multiprocessing.synchronize  # noqa: F401
import operator
import re
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from .. import _blas
from ..bounds import bound_report, scaling_diagnostic
from ..errors import InvalidConfig
from ..gp import DEFAULT_SAMPLING_CAP
from ..kernels import (
    TemporalKernel,
    _check_lag_range,
    _finite_real,
    classify,
    eval_temporal,
    kernel_from_dict,
)
from ..spectral import (
    SymMatrix,
    TimeGrid,
    approx_product_spectrum,
    approx_temporal_spectrum,
    build_temporal_matrix,
    eig_sym,
    positive_count,
)
from ..tvbo import TVBOConfig, run_replications
from .svgplot import SvgPlot

__all__ = ["EXPERIMENTS", "run_experiment", "validate_config",
           "default_config", "write_manifest"]


# --------------------------------------------------------------------------
# shared helpers
# --------------------------------------------------------------------------


def _write_csv(path: Path, header, rows) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_cell(v) for v in row) + "\n")
    return path


def _cell(v) -> str:
    if isinstance(v, (bool, np.bool_)):
        return str(bool(v))
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return str(v)


def _sem(values) -> np.ndarray:
    """Standard error of the mean over axis 0: the ddof=1 standard
    deviation divided by sqrt(n), zeros when n < 2."""
    values = np.asarray(values, dtype=float)
    if len(values) < 2:
        return np.zeros(values.shape[1:])
    return values.std(axis=0, ddof=1) / np.sqrt(len(values))


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(outdir: Path, files) -> Path:
    """Record every artifact with its checksum; the manifest lists itself."""
    entries = [{"file": f.name, "sha256": _sha256(f)} for f in sorted(files)]
    entries.append({"file": "manifest.json", "sha256": None})
    path = outdir / "manifest.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"artifacts": entries}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _count(value, field: str, least: int = 1) -> int:
    """An integer field >= ``least`` (bools are rejected)."""
    if isinstance(value, bool) or not isinstance(value, int) or value < least:
        raise InvalidConfig(
            f"field {field} must be an integer >= {least}, got {value!r}")
    return value


def _real(value, field: str) -> float:
    """A number field a finite float can hold (bools are rejected)."""
    if not _finite_real(value):
        raise InvalidConfig(
            f"field {field} must be a finite number, got {value!r}")
    return float(value)


def _counts(value, field: str) -> list[int]:
    """A nonempty list of distinct size fields."""
    if not isinstance(value, list) or not value:
        raise InvalidConfig(
            f"field {field} must be a nonempty list of integers >= 1, "
            f"got {value!r}")
    counts = [_count(v, f"{field}[{i}]") for i, v in enumerate(value)]
    _distinct(counts, field)
    return counts


def _distinct(keys, field: str) -> None:
    """Refuses a list whose entries repeat a key: each entry names its own
    artifacts or rows."""
    seen = {}
    for i, key in enumerate(keys):
        if key in seen:
            raise InvalidConfig(f"field {field}[{i}] repeats {field}"
                                f"[{seen[key]}] ({key})")
        seen[key] = i


def _checked(field, build, *args, **kwargs):
    """``build(*args, **kwargs)``; a ValueError, TypeError or OverflowError
    it raises becomes an InvalidConfig naming ``field``, or when ``field``
    is None the field the message starts with."""
    try:
        return build(*args, **kwargs)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidConfig(f"field {field}: {exc}" if field
                            else f"field {exc}") from exc


def _lags_in_range(field: str, temporal, n: int, delta: float) -> None:
    """Refuses the kernel ``temporal`` at ``field`` when eval_temporal
    overflows at a lag of a run's grid of ``n`` steps ``delta``: its lags
    are at most n * delta, the bound that TimeGrid checks."""
    _checked(field, _check_lag_range, temporal, float(n) * delta)


def _kernel(kind: str, spec, field: str | None = None):
    """The ``kind`` ("spatial" or "temporal") kernel the config table
    ``spec`` at ``field`` (default: ``kind``) describes."""
    field = field or kind
    if not isinstance(spec, dict):
        raise InvalidConfig(f"field {field} must be a table, got {spec!r}")
    if "kind" in spec:
        raise InvalidConfig(f"field {field}: field kind is not allowed in a "
                            "config kernel table")
    return _checked(field, kernel_from_dict, {"kind": kind, **spec})


# Kernel labels become file names, CSV cells and SVG text.
_LABEL = re.compile(r"[A-Za-z0-9_-]+")


def _kernels(table) -> dict:
    """The temporal kernels of a ``kernels`` table, by label."""
    if not isinstance(table, dict) or not table:
        raise InvalidConfig(f"field kernels must be a nonempty table, "
                            f"got {table!r}")
    for label in table:
        if not isinstance(label, str) or not _LABEL.fullmatch(label):
            raise InvalidConfig(f"field kernels: label {label!r} must match "
                                f"{_LABEL.pattern}")
    return {label: _kernel("temporal", spec, f"kernels.{label}")
            for label, spec in table.items()}


# --------------------------------------------------------------------------
# fig1: product-spectrum approximation of the spatio-temporal matrix
# --------------------------------------------------------------------------

FIG1_DEFAULTS = {
    "n": 100,
    "delta": 0.1,
    "spatial": {"family": "rbf", "lengthscales": [0.2]},
    "temporal": {"family": "rbf", "lengthscale": 1.0},
}


def _parse_fig1(params: dict):
    n = _count(params["n"], "n")
    inputs = {"grid": _checked(None, TimeGrid, n,
                               _real(params["delta"], "delta")),
              "spatial": _kernel("spatial", params["spatial"]),
              "temporal": _kernel("temporal", params["temporal"])}
    _lags_in_range("temporal", inputs["temporal"], n, inputs["grid"].delta)
    return inputs, [(n, 3)]


def run_fig1(seed: int, outdir: Path, grid, spatial, temporal):
    n, delta = grid.n, grid.delta
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, 1.0, size=(n, spatial.dimension))
    ts = (np.arange(n) + 1) * delta

    ks = SymMatrix(spatial.pairwise(xs, xs))
    kt = build_temporal_matrix(temporal, grid)
    # The Toeplitz kt takes its lags from arange(n) * delta, which round
    # differently from the differences of ts, so the full matrix evaluates
    # the temporal kernel on ts as cross_covariance does.
    kfull = SymMatrix(ks.values * eval_temporal(
        temporal, np.abs(ts[:, None] - ts[None, :])))
    spec_s = eig_sym(ks)
    spec_t = eig_sym(kt)
    spec_full = eig_sym(kfull)
    prod = approx_product_spectrum(spec_s, spec_t, n)
    used_s = {i for i, _ in prod.pairs}
    used_t = {j for _, j in prod.pairs}

    files = []
    files.append(_write_csv(
        outdir / "fig1_spatial.csv",
        ["index", "eigenvalue_over_n", "used_in_approx"],
        [(i + 1, spec_s.values[i] / n, int(i + 1 in used_s))
         for i in range(n)]))
    files.append(_write_csv(
        outdir / "fig1_temporal.csv",
        ["index", "eigenvalue", "used_in_approx"],
        [(i + 1, spec_t.values[i], int(i + 1 in used_t)) for i in range(n)]))
    files.append(_write_csv(
        outdir / "fig1_full.csv",
        ["index", "eigenvalue", "approximation", "provenance_i",
         "provenance_j"],
        [(i + 1, spec_full.values[i], prod.spectrum.values[i],
          prod.pairs[i][0], prod.pairs[i][1]) for i in range(n)]))

    for name, spec, title in (
            ("fig1_spatial.svg", spec_s.values / n, "spatial spectrum / n"),
            ("fig1_temporal.svg", spec_t.values, "temporal spectrum")):
        plot = SvgPlot(title=title, xlabel="index", ylabel="eigenvalue",
                       ylog=True)
        plot.add(range(1, n + 1), spec, label="exact", marker=True, line=False)
        files.append(plot.write(outdir / name))
    plot = SvgPlot(title="spatio-temporal spectrum", xlabel="index",
                   ylabel="eigenvalue", ylog=True)
    plot.add(range(1, n + 1), spec_full.values, label="exact", marker=True,
             line=False)
    plot.add(range(1, n + 1), prod.spectrum.values,
             label="largest products / n", marker=True, line=False)
    files.append(plot.write(outdir / "fig1_full.svg"))
    return files


# --------------------------------------------------------------------------
# fig2 / fig3: temporal spectra vs sampled spectral density
# --------------------------------------------------------------------------

FIG2_DEFAULTS = {
    "temporal": {"family": "rbf", "lengthscale": 1.0},
    "panels": [{"n": 100, "delta": 0.1}, {"n": 100, "delta": 0.05},
               {"n": 200, "delta": 0.1}],
}

FIG3_DEFAULTS = {
    "temporal": {"family": "sinc_squared", "bandlimit": 1.0},
    "panels": [{"n": 100, "delta": 0.6}, {"n": 100, "delta": 0.25},
               {"n": 200, "delta": 0.25}],
}


def _parse_panels(params: dict):
    panels = params["panels"]
    if not isinstance(panels, list) or not panels \
            or not all(isinstance(p, dict) for p in panels):
        raise InvalidConfig("field panels must be a nonempty list of tables")
    grids = []
    for i, panel in enumerate(panels):
        _count(panel.get("n"), f"panels[{i}].n")
        if "delta" in panel:
            _real(panel["delta"], f"panels[{i}].delta")
        grids.append(_checked(f"panels[{i}]", TimeGrid, **panel))
    _distinct([_panel_tag(grid) for grid in grids], "panels")
    temporal = _kernel("temporal", params["temporal"])
    if classify(temporal).support_discrete:
        raise InvalidConfig(
            f"field temporal: a {temporal.family.value} kernel has discrete "
            "spectral support; the sampled-density panels need a broadband "
            "or band-limited kernel")
    for grid in grids:
        _lags_in_range("temporal", temporal, grid.n, grid.delta)
    inputs = {"temporal": temporal, "grids": grids}
    return inputs, [(grid.n, 1) for grid in grids]


def _panel_tag(grid) -> str:
    """The part of a panel's artifact names that its grid sets."""
    return f"n{grid.n}_d{grid.delta:g}"


def _run_density_panels(outdir: Path, stem: str, temporal, grids):
    files = []
    for grid in grids:
        n, delta = grid.n, grid.delta
        exact = eig_sym(build_temporal_matrix(temporal, grid))
        approx = approx_temporal_spectrum(temporal, grid)
        tag = f"{stem}_{_panel_tag(grid)}"
        files.append(_write_csv(
            outdir / f"{tag}.csv",
            ["index", "eigenvalue", "approx_sorted", "frequency",
             "approx_unsorted"],
            [(i + 1, exact.values[i], approx.spectrum.values[i],
              approx.frequencies[i], approx.raw_values[i])
             for i in range(n)]))
        plot = SvgPlot(title=f"n={n}, step={delta:g}", xlabel="index",
                       ylabel="eigenvalue")
        plot.add(range(1, n + 1), exact.values, label="exact")
        plot.add(range(1, n + 1), approx.spectrum.values,
                 label="sorted density samples")
        files.append(plot.write(outdir / f"{tag}.svg"))
    return files


def run_fig2(seed: int, outdir: Path, temporal, grids):
    return _run_density_panels(outdir, "fig2", temporal, grids)


def run_fig3(seed: int, outdir: Path, temporal, grids):
    return _run_density_panels(outdir, "fig3", temporal, grids)


# --------------------------------------------------------------------------
# fig4: periodic kernel under commensurate sampling
# --------------------------------------------------------------------------

FIG4_DEFAULTS = {
    "period": 0.3,
    "lengthscale": 1.0,
    "divisors": [3, 6],
    "ns": [60, 120],
}


def _parse_fig4(params: dict):
    ns = _counts(params["ns"], "ns")
    divisors = _counts(params["divisors"], "divisors")
    temporal = _checked(None, TemporalKernel.periodic,
                        **{field: _real(params[field], field)
                           for field in ("period", "lengthscale")})
    for i, k in enumerate(divisors):  # run_fig4's widest grid at each step
        step = _checked(f"divisors[{i}]", operator.truediv, temporal.period, k)
        _checked("period", TimeGrid, max(ns), step)
    inputs = {"temporal": temporal, "divisors": divisors, "ns": ns}
    return inputs, [(n, len(divisors)) for n in ns]


def run_fig4(seed: int, outdir: Path, temporal, divisors, ns):
    r = temporal.period
    files = []
    rows = []
    plot = SvgPlot(title="periodic kernel, commensurate sampling",
                   xlabel="index", ylabel="eigenvalue")
    for k in divisors:
        for n in ns:
            grid = TimeGrid(n, r / k)
            spec = eig_sym(build_temporal_matrix(temporal, grid))
            cnt = positive_count(spec)
            rows.append((k, n, cnt))
            tag = f"fig4_k{k}_n{n}"
            files.append(_write_csv(
                outdir / f"{tag}.csv", ["index", "eigenvalue"],
                [(i + 1, v) for i, v in enumerate(spec.values)]))
            plot.add(range(1, min(20, len(spec.values)) + 1),
                     spec.values[:20], label=f"step=r/{k}, n={n}",
                     marker=True)
    files.append(_write_csv(outdir / "fig4_counts.csv",
                            ["period_divisor", "n", "positive_count"], rows))
    files.append(plot.write(outdir / "fig4.svg"))
    return files


# --------------------------------------------------------------------------
# fig5: eigenvalue counts in [a, b] and mutual information per observation
# --------------------------------------------------------------------------

FIG5_KERNELS = {
    "rbf": {"family": "rbf", "lengthscale": 1.0},
    "sinc_squared": {"family": "sinc_squared", "bandlimit": 1.0},
    "periodic": {"family": "periodic", "period": 0.3, "lengthscale": 0.8},
    "cosine_sum": {"family": "cosine_sum",
                   "lines": [[0.0, 0.4], [1.3, 0.6]]},
}

FIG5_DEFAULTS = {
    "spatial": {"family": "rbf", "lengthscales": [0.7]},
    "kernels": FIG5_KERNELS,
    "ns": [50, 100, 150, 200],
    "delta": 0.1,
    "noise": 0.01,
    "interval": [1.0, 2.0],
    "replications": 10,
}


def _parse_scaling(params: dict):
    """The parser of fig5 and table1; only fig5 has ``replications``."""
    ns = _counts(params["ns"], "ns")
    noise = _real(params["noise"], "noise")
    if not noise > 0:
        raise InvalidConfig(f"field noise must be positive, got {noise!r}")
    interval = params["interval"]
    if not isinstance(interval, list) or len(interval) != 2:
        raise InvalidConfig(f"field interval must be a list [a, b], "
                            f"got {interval!r}")
    a, b = (_real(v, f"interval[{i}]") for i, v in enumerate(interval))
    if not a <= b:
        raise InvalidConfig(
            f"field interval must satisfy a <= b, got {interval!r}")
    inputs = {"spatial": _kernel("spatial", params["spatial"]),
              "kernels": _kernels(params["kernels"]), "ns": ns,
              "delta": _checked(None, TimeGrid, max(ns),
                                _real(params["delta"], "delta")).delta,
              "noise": noise, "interval": (a, b)}
    for label, temporal in inputs["kernels"].items():
        _lags_in_range(f"kernels.{label}", temporal, max(ns), inputs["delta"])
    if "replications" in params:
        inputs["replications"] = _count(params["replications"],
                                        "replications")
    count = inputs.get("replications", 1) * len(inputs["kernels"])
    return inputs, [(n, count) for n in ns]


def run_fig5(seed: int, outdir: Path, spatial, kernels, ns, delta, noise,
             interval, replications):
    diag = scaling_diagnostic(spatial, kernels, ns,
                              [seed + rep for rep in range(replications)],
                              interval=interval, noise=noise, delta=delta)
    raw_rows = []
    summary = {}
    for label, rows in diag.items():
        per_n = {n: {"count": [], "ipn": []} for n in ns}
        for row in rows:
            raw_rows.append((label, row["n"], row["seed"], row["count"],
                             row["info_per_n"], row["n0_proxy"]))
            per_n[row["n"]]["count"].append(row["count"])
            per_n[row["n"]]["ipn"].append(row["info_per_n"])
        summary[label] = per_n

    files = []
    files.append(_write_csv(
        outdir / "fig5_raw.csv",
        ["kernel", "n", "seed", "count", "I_over_n", "n0_proxy"], raw_rows))

    rows = []
    for label, per_n in summary.items():
        for n in ns:
            c = per_n[n]["count"]
            i = per_n[n]["ipn"]
            rows.append((label, n, float(np.mean(c)), float(_sem(c)),
                         float(np.mean(i)), float(_sem(i))))
    files.append(_write_csv(
        outdir / "fig5_summary.csv",
        ["kernel", "n", "count", "count_stderr", "I_over_n",
         "I_over_n_stderr"], rows))

    for what, col, ylabel in (("counts", 2, "eigenvalues in [a, b]"),
                              ("info", 4, "I / n")):
        plot = SvgPlot(title=f"scaling of {what} with n",
                       xlabel="n", ylabel=ylabel)
        for label in summary:
            pts = [(r[1], r[col]) for r in rows if r[0] == label]
            plot.add([p[0] for p in pts], [p[1] for p in pts], label=label,
                     marker=True)
        files.append(plot.write(outdir / f"fig5_{what}.svg"))
    return files


# --------------------------------------------------------------------------
# table1: the taxonomy with measured scaling columns
# --------------------------------------------------------------------------

TABLE1_DEFAULTS = {
    "spatial": FIG5_DEFAULTS["spatial"],
    "kernels": FIG5_KERNELS,
    "ns": [100, 200],
    "delta": 0.1,
    "noise": 0.01,
    "interval": [1.0, 2.0],
}


def run_table1(seed: int, outdir: Path, spatial, kernels, ns, delta, noise,
               interval):
    diag = scaling_diagnostic(spatial, kernels, ns, [seed],
                              interval=interval, noise=noise, delta=delta)
    # the first and last sizes, once each when ns has a single entry
    ends = list(dict.fromkeys([ns[0], ns[-1]]))
    rows = []
    for label, temporal in kernels.items():
        cls = classify(temporal)
        counts = {row["n"]: row["count"] for row in diag[label]}
        ipn = {row["n"]: row["info_per_n"] for row in diag[label]}
        guarantee = ("no-regret (R_n in o(n))" if cls.support_discrete
                     else "linear regret (E[R_n] in Theta(n))")
        rows.append((label, cls.tag.value, cls.support_bounded,
                     cls.support_discrete, *(counts[n] for n in ends),
                     *(ipn[n] for n in ends), guarantee))
    return [_write_csv(
        outdir / "table1.csv",
        ["kernel", "class", "support_bounded", "support_discrete",
         *(f"count_n{n}" for n in ends),
         *(f"info_per_n_n{n}" for n in ends), "regret_guarantee"],
        rows)]


# --------------------------------------------------------------------------
# regret: seeded GP-UCB runs with bound evaluation
# --------------------------------------------------------------------------

REGRET_KERNELS = {
    "rbf": {"family": "rbf", "lengthscale": 1.0},
    "sinc_squared": {"family": "sinc_squared", "bandlimit": 1.0},
    "periodic": {"family": "periodic", "period": 0.5, "lengthscale": 0.8},
    "cosine_sum": {"family": "cosine_sum",
                   "lines": [[0.0, 0.4], [2.3, 0.6]]},
}

REGRET_DEFAULTS = {
    "spatial": {"family": "rbf", "lengthscales": [0.4]},
    "kernels": REGRET_KERNELS,
    "delta": 0.1,
    "horizon": 200,
    "grid_resolution": 25,
    "noise": 0.01,
    "confidence": 0.1,
    "lipschitz": 10.0,
    "replications": 10,
    "bounds": True,
}


def _parse_regret(params: dict):
    """Builds the TVBOConfig of each regret kernel, by label.  Its seed is
    left at 0: ``run_replications`` sets each run's own."""
    horizon = _count(params["horizon"], "horizon")
    resolution = _count(params["grid_resolution"], "grid_resolution", least=2)
    reps = _count(params["replications"], "replications")
    if not isinstance(params["bounds"], bool):
        raise InvalidConfig(f"field bounds must be true or false, "
                            f"got {params['bounds']!r}")
    floats = {key: _real(params[key], key)
              for key in ("delta", "confidence", "lipschitz", "noise")}
    spatial = _kernel("spatial", params["spatial"])
    points = resolution ** spatial.dimension * horizon  # of the prior draw
    if points > DEFAULT_SAMPLING_CAP:
        raise InvalidConfig(
            f"field grid_resolution: {resolution}^{spatial.dimension} grid "
            f"points x horizon {horizon} = {points} exceeds the sampling cap "
            f"of {DEFAULT_SAMPLING_CAP}")
    configs = {label: _checked(None, TVBOConfig, spatial, temporal,
                               horizon=horizon, grid_resolution=resolution,
                               **floats)
               for label, temporal in _kernels(params["kernels"]).items()}
    for label, config in configs.items():
        _lags_in_range(f"kernels.{label}", config.temporal, horizon,
                       config.delta)
    # Per run with bounds: bound_report's h x h eigensolve, and the lower
    # bound's k x k one at each k < h, sum k^3 = (h (h - 1) / 2)^2 in all,
    # listed as that many unit cubes.  The GP-UCB loop solves no eigenproblem.
    runs = reps * len(configs) if params["bounds"] else 0
    sizes = [(horizon, runs), (1, runs * (horizon * (horizon - 1) // 2) ** 2)]
    return {"configs": configs, "replications": reps,
            "bounds": params["bounds"]}, sizes


def _regret_replication(task):
    """One regret replication, ``task`` = (config, seed, bounds): the trace
    of ``run_replications(config, [seed])`` and its ``bound_report``, None
    when ``bounds`` is off.  The trace comes back with ``objective`` None:
    no writer reads the grid x horizon draw (1 MB a trace at defaults), so
    it neither crosses the process boundary nor stays in the parent."""
    config, seed, bounds = task
    [trace] = run_replications(config, [seed])
    report = bound_report(trace) if bounds else None
    return replace(trace, objective=None), report


def _map_replications(tasks, jobs: int) -> list:
    """``_regret_replication`` of each task, in task order: in process when
    ``jobs`` is 1, else in a pool of min(jobs, len(tasks)) forked workers,
    all of them joined before this returns or raises.

    The workers are forked, never spawned, so that each inherits ``_blas``
    as the parent loaded it: scipy's pool size as the library started
    (``_POOL_SIZE``) and its parked-worker timeout.  Every thread-dependent
    LAPACK call then runs at the size the serial run uses, and the bytes are
    the serial run's at every ``jobs``.  numpy's and scipy's OpenBLAS each
    stop their workers in a fork handler, and the executor forks all its
    workers before it starts its own thread, so no BLAS or executor thread
    runs in the parent when it forks.  The workers share one lock through
    ``_blas.share_pool``, so their threaded calls take turns on the cores.

    When a task raises, its error is raised here, and the iterator that
    ``Executor.map`` returns cancels the tasks no worker has taken yet, so
    that, as in the serial map, the rest of the run is not done."""
    if jobs == 1:
        return list(map(_regret_replication, tasks))
    context = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(min(jobs, len(tasks)), mp_context=context,
                             initializer=_blas.share_pool,
                             initargs=(context.Lock(),)) as pool:
        return list(pool.map(_regret_replication, tasks, chunksize=1))


def run_regret(seed: int, outdir: Path, configs, replications, bounds,
               jobs: int = 1):
    seeds = [seed + i for i in range(replications)]
    results = iter(_map_replications(
        [(config, s, bounds) for config in configs.values() for s in seeds],
        jobs))
    files = []
    summary_rows = []
    curve_rows = []
    plot = SvgPlot(title="average regret per step", xlabel="iteration",
                   ylabel="R_n / n")
    for label in configs:
        runs = [next(results) for _ in seeds]
        ratio = np.stack([t.cumulative / (np.arange(len(t.times)) + 1)
                          for t, _ in runs])
        mean_ratio = ratio.mean(axis=0)
        sem_ratio = _sem(ratio)
        for i in range(len(mean_ratio)):
            curve_rows.append((label, i + 1, mean_ratio[i], sem_ratio[i]))
        plot.add(range(1, len(mean_ratio) + 1), mean_ratio, label=label)

        for s, (trace, report) in zip(seeds, runs):
            files.append(trace.to_csv(outdir / f"trace_{label}_seed{s}.csv"))
            if report is not None:
                ub_ok = bool(np.all(trace.cumulative <= report.upper_curve))
                summary_rows.append((
                    label, s, trace.total, report.upper, int(ub_ok),
                    report.lower.total, report.lower.total_full_cov,
                    report.info_exact, report.info_spectral,
                    report.c1_violation_fraction))
            else:
                summary_rows.append((label, s, trace.total, "", "", "", "",
                                     "", "", ""))
    files.append(_write_csv(
        outdir / "regret_summary.csv",
        ["kernel", "seed", "cumulative_regret", "upper_bound",
         "upper_bound_holds", "lower_bound", "lower_bound_full_covariance",
         "info_exact", "info_spectral", "c1_violation_fraction"],
        summary_rows))
    files.append(_write_csv(
        outdir / "regret_curves.csv",
        ["kernel", "iteration", "mean_regret_per_step", "stderr"],
        curve_rows))
    files.append(plot.write(outdir / "regret.svg"))
    return files


# --------------------------------------------------------------------------
# registry, validation, dispatch
# --------------------------------------------------------------------------

# id: (run, parse, description, default params)
EXPERIMENTS = {
    "fig1": (run_fig1, _parse_fig1,
             "spatio-temporal spectrum vs product approximation",
             FIG1_DEFAULTS),
    "fig2": (run_fig2, _parse_panels,
             "broadband temporal spectra vs sampled density", FIG2_DEFAULTS),
    "fig3": (run_fig3, _parse_panels,
             "band-limited temporal spectra and Nyquist zeros",
             FIG3_DEFAULTS),
    "fig4": (run_fig4, _parse_fig4,
             "periodic kernel rank under commensurate sampling",
             FIG4_DEFAULTS),
    "fig5": (run_fig5, _parse_scaling,
             "eigenvalue-count and information scaling in n", FIG5_DEFAULTS),
    "table1": (run_table1, _parse_scaling,
               "taxonomy table with measured scaling columns",
               TABLE1_DEFAULTS),
    "regret": (run_regret, _parse_regret,
               "seeded GP-UCB runs with regret bounds", REGRET_DEFAULTS),
}


def default_config(experiment: str) -> dict:
    if not isinstance(experiment, str) or experiment not in EXPERIMENTS:
        raise InvalidConfig(f"unknown experiment {experiment!r}; "
                            f"known: {sorted(EXPERIMENTS)}")
    *_, defaults = EXPERIMENTS[experiment]
    return {"experiment": experiment, "seed": 0,
            "params": json.loads(json.dumps(defaults))}


# Seconds per eigendecomposition flop-unit (n^3): the median time of
# ``eig_sym`` on a 200 x 200 symmetric matrix over 30 calls, divided by
# 200^3, was 2.4e-10 to 3.1e-10 per process on a 2-vCPU VM.  The first
# process after the machine idled ran its first calls near 5e-9, so a
# single timing per process is not a usable estimate.
_EIGH_SECONDS_PER_N3 = 2.8e-10


DESK_BUDGET_SECONDS = 120.0


def _cubed_total(sizes) -> float:
    """The sum of count * size^3 over (size, count) pairs, exact for integer
    sizes; inf when it exceeds float range."""
    try:
        return float(sum(count * size ** 3 for size, count in sizes))
    except OverflowError:
        return math.inf


def validate_config(config: dict) -> dict:
    """Structural check plus a runtime-class estimate; no side effects.

    Returns {"experiment", "seed", "params", "inputs", "warnings",
    "estimated_seconds"}: ``inputs`` are the parsed params that
    ``run_experiment`` passes to the experiment.  Raises InvalidConfig
    naming the offending field.
    """
    if not isinstance(config, dict):
        raise InvalidConfig(f"config must be a table, got {config!r}")
    unknown = sorted(config.keys() - {"experiment", "seed", "params", "out"})
    if unknown:
        raise InvalidConfig(f"field {unknown[0]} is not a top-level field; "
                            "known: experiment, seed, params, out")
    if "experiment" not in config:
        raise InvalidConfig("missing field: experiment")
    if not isinstance(config.get("out", ""), str):
        raise InvalidConfig(f"field out must be a string, got "
                            f"{config['out']!r}")
    exp = config["experiment"]
    defaults = default_config(exp)["params"]
    overrides = config.get("params", {})
    if not isinstance(overrides, dict):
        raise InvalidConfig(f"field params must be a table, got {overrides!r}")
    unknown = sorted(overrides.keys() - defaults.keys())
    if unknown:
        raise InvalidConfig(f"field {unknown[0]} is not a parameter of "
                            f"{exp}; known: {sorted(defaults)}")
    # Each override, kernel tables included, replaces its default whole.
    params = {**defaults, **overrides}
    seed = _count(config.get("seed", 0), "seed", least=0)

    inputs, sizes = EXPERIMENTS[exp][1](params)
    estimate = 3.0 * _EIGH_SECONDS_PER_N3 * _cubed_total(sizes)
    warnings = []
    if estimate > DESK_BUDGET_SECONDS:
        warnings.append(
            f"estimated eigendecomposition cost {estimate:.0f}s exceeds the "
            f"desk-scale budget of {DESK_BUDGET_SECONDS:.0f}s")
    return {"experiment": exp, "seed": seed, "params": params,
            "inputs": inputs, "warnings": warnings,
            "estimated_seconds": estimate}


def run_experiment(config: dict, out, jobs: int = 1) -> dict:
    """Run one experiment; returns the manifest as a dict.

    ``jobs`` (an integer >= 1, else InvalidConfig) is the number of worker
    processes for regret's (kernel, seed) replications; the other
    experiments ignore it.  With ``jobs`` > 1 they run in a fork pool (see
    ``_map_replications``), and the parent writes every artifact, so the
    bytes are those of ``jobs`` = 1.
    """
    jobs = _count(jobs, "jobs")
    checked = validate_config(config)
    exp = checked["experiment"]
    outdir = Path(out)
    outdir.mkdir(parents=True, exist_ok=True)
    inputs = checked["inputs"]
    if exp == "regret":  # the experiment whose replications are independent
        inputs = dict(inputs, jobs=jobs)
    files = EXPERIMENTS[exp][0](checked["seed"], outdir, **inputs)
    manifest_path = write_manifest(outdir, files)
    with open(manifest_path, "r", encoding="utf-8") as fh:
        return json.load(fh)
