"""Span tracing of tvbospec from outside the package.

``Tracer.install`` rebinds the public functions and methods listed in
``TARGETS`` to timing wrappers; ``Tracer.uninstall`` puts the originals
back.  A function imported by name into other tvbospec modules (for example
``eig_sym`` in ``bounds`` and ``expcli.experiments``) is rebound under every
alias, so calls through any module are seen.  Nothing in ``src/`` changes.

Each wrapped call records a span: id, parent span id on the same thread,
name, start, end, thread, an optional work size, and whether it raised.
Spans stay in memory; ``layer_metrics`` reduces them to the per-layer
numbers the benchmark reports.

Which end-to-end metric each per-layer metric should move:

- kernels.pairwise.*, kernels.eval_temporal.s, gp.mean_var.*,
  gp.sample_prior_path.s: wall_s on loop_d2 (sample_prior_path also
  peak_rss_mb there);
- spectral.eig_sym.*, spectral.approx_product_spectrum.s,
  bounds.scaling_diagnostic.s, expcli.write.s, expcli.artifact_bytes:
  wall_s on figures;
- spectral.build_spatiotemporal_matrix.calls, bounds.gram_builds_per_report,
  gp.extended.s, bounds.lower_bound.*, bounds.bound_report.self_s,
  bounds.upper_bound_curve.calls_per_report: wall_s on regret_default;
- tvbo.run_tvbo.*: wall_s on loop_d2 and regret_default;
- tvbo.run_replications.parallel_eff: wall_s and cpu_s on regret_default;
- expcli.validate_config.s: setup_s on every workload.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import defaultdict
from typing import NamedTuple

PACKAGE = "tvbospec"


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else default


def _lower_bound_steps(args, kwargs):
    return len(_arg(args, kwargs, 2, "trace").times)


def _replication_jobs(args, kwargs):
    return int(_arg(args, kwargs, 2, "jobs", 1))


# (span name, module, attribute path, work-size extractor)
TARGETS = [
    ("kernels.pairwise", "tvbospec.kernels", "SpatialKernel.pairwise", None),
    ("kernels.eval_temporal", "tvbospec.kernels", "eval_temporal", None),
    ("spectral.eig_sym", "tvbospec.spectral", "eig_sym", None),
    ("spectral.approx_product_spectrum", "tvbospec.spectral",
     "approx_product_spectrum", None),
    ("spectral.build_spatiotemporal_matrix", "tvbospec.spectral",
     "build_spatiotemporal_matrix", None),
    ("gp.mean_var", "tvbospec.gp", "GPPosterior.mean_var", None),
    ("gp.extended", "tvbospec.gp", "GPPosterior.extended", None),
    ("gp.sample_prior_path", "tvbospec.gp", "sample_prior_path", None),
    ("tvbo.run_tvbo", "tvbospec.tvbo", "run_tvbo", None),
    ("tvbo.run_replications", "tvbospec.tvbo", "run_replications",
     _replication_jobs),
    ("bounds.lower_bound", "tvbospec.bounds", "lower_bound",
     _lower_bound_steps),
    ("bounds.bound_report", "tvbospec.bounds", "bound_report", None),
    ("bounds.upper_bound_curve", "tvbospec.bounds", "upper_bound_curve",
     None),
    ("bounds.scaling_diagnostic", "tvbospec.bounds", "scaling_diagnostic",
     None),
    ("expcli.run_experiment", "tvbospec.expcli.experiments",
     "run_experiment", None),
    ("expcli.validate_config", "tvbospec.expcli.experiments",
     "validate_config", None),
    ("expcli.write_csv", "tvbospec.expcli.experiments", "_write_csv", None),
    ("expcli.write_manifest", "tvbospec.expcli.experiments",
     "write_manifest", None),
    ("expcli.write_svg", "tvbospec.expcli.svgplot", "SvgPlot.write", None),
    ("expcli.write_trace_csv", "tvbospec.tvbo", "RegretTrace.to_csv", None),
]

WRITERS = ("expcli.write_csv", "expcli.write_manifest", "expcli.write_svg",
           "expcli.write_trace_csv")

# Per-layer metrics computed from spans, with units; "<name>.errors" for
# every target is added below.  The benchmark adds expcli.artifact_bytes
# and trace.overhead_frac, which need the files and an untraced pass.
SPAN_METRICS = {
    "kernels.pairwise.s": "s",
    "kernels.pairwise.calls": "count",
    "kernels.eval_temporal.s": "s",
    "spectral.eig_sym.s": "s",
    "spectral.eig_sym.calls": "count",
    "spectral.approx_product_spectrum.s": "s",
    "spectral.build_spatiotemporal_matrix.calls": "count",
    "bounds.gram_builds_per_report": "builds/report",
    "gp.mean_var.s": "s",
    "gp.mean_var.calls": "count",
    "gp.sample_prior_path.s": "s",
    "gp.extended.s": "s",
    "tvbo.run_tvbo.s": "s",
    "tvbo.run_tvbo.self_s": "s",
    "tvbo.run_replications.parallel_eff": "ratio",
    "bounds.lower_bound.s": "s",
    "bounds.lower_bound.s_per_step": "s/step",
    "bounds.bound_report.self_s": "s",
    "bounds.upper_bound_curve.calls_per_report": "calls/report",
    "bounds.scaling_diagnostic.s": "s",
    "expcli.validate_config.s": "s",
    "expcli.write.s": "s",
}
SPAN_METRICS.update({f"{name}.errors": "count" for name, *_ in TARGETS})


class Span(NamedTuple):
    id: int
    parent: int          # 0 for a span with no traced caller on its thread
    name: str
    start: float
    end: float
    thread: int
    work: int | None
    failed: bool

    @property
    def duration(self) -> float:
        return self.end - self.start


def resolve(module, path: str):
    """(owner, attribute) for 'func' or 'Class.method' inside ``module``."""
    owner = module
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Rebinds the targets to span-recording wrappers while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for name, modname, path, work in TARGETS:
            owner, attr = resolve(importlib.import_module(modname), path)
            original = vars(owner)[attr]
            wrapper = self._wrap(name, original, work)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for modname_, module in list(sys.modules.items()):
                if module is None or not (modname_ == PACKAGE or
                                          modname_.startswith(PACKAGE + ".")):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, func, work):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            sid = next(tracer._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            failed = False
            start = time.perf_counter()
            try:
                return func(*args, **kwargs)
            except BaseException:
                failed = True
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                size = work(args, kwargs) if work is not None else None
                tracer.spans.append(Span(sid, parent, name, start, end,
                                         threading.get_ident(), size, failed))

        return wrapper

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack


def layer_metrics(spans) -> dict[str, float]:
    """Reduce spans to the values named in SPAN_METRICS."""
    by_name = defaultdict(list)
    child_time = defaultdict(float)
    by_id = {}
    for s in spans:
        by_name[s.name].append(s)
        child_time[s.parent] += s.duration
        by_id[s.id] = s

    def total(name):
        return sum(s.duration for s in by_name[name])

    def self_time(name):
        return sum(s.duration - child_time[s.id] for s in by_name[name])

    def calls(name):
        return len(by_name[name])

    def under(span, ancestor):
        while span.parent:
            span = by_id[span.parent]
            if span.name == ancestor:
                return True
        return False

    def ratio(num, den):
        return num / den if den else 0.0

    reports = calls("bounds.bound_report")
    gram_in_reports = sum(
        1 for s in by_name["spectral.build_spatiotemporal_matrix"]
        if under(s, "bounds.bound_report"))
    steps = sum(s.work for s in by_name["bounds.lower_bound"])
    pool_capacity = sum(s.work * s.duration
                        for s in by_name["tvbo.run_replications"])

    out = {
        "kernels.pairwise.s": total("kernels.pairwise"),
        "kernels.pairwise.calls": calls("kernels.pairwise"),
        "kernels.eval_temporal.s": total("kernels.eval_temporal"),
        "spectral.eig_sym.s": total("spectral.eig_sym"),
        "spectral.eig_sym.calls": calls("spectral.eig_sym"),
        "spectral.approx_product_spectrum.s":
            total("spectral.approx_product_spectrum"),
        "spectral.build_spatiotemporal_matrix.calls":
            calls("spectral.build_spatiotemporal_matrix"),
        "bounds.gram_builds_per_report": ratio(gram_in_reports, reports),
        "gp.mean_var.s": total("gp.mean_var"),
        "gp.mean_var.calls": calls("gp.mean_var"),
        "gp.sample_prior_path.s": total("gp.sample_prior_path"),
        "gp.extended.s": total("gp.extended"),
        "tvbo.run_tvbo.s": total("tvbo.run_tvbo"),
        "tvbo.run_tvbo.self_s": self_time("tvbo.run_tvbo"),
        "tvbo.run_replications.parallel_eff":
            ratio(total("tvbo.run_tvbo"), pool_capacity),
        "bounds.lower_bound.s": total("bounds.lower_bound"),
        "bounds.lower_bound.s_per_step":
            ratio(total("bounds.lower_bound"), steps),
        "bounds.bound_report.self_s": self_time("bounds.bound_report"),
        "bounds.upper_bound_curve.calls_per_report":
            ratio(calls("bounds.upper_bound_curve"), reports),
        "bounds.scaling_diagnostic.s": total("bounds.scaling_diagnostic"),
        "expcli.validate_config.s": total("expcli.validate_config"),
        "expcli.write.s": sum(self_time(name) for name in WRITERS),
    }
    for name, *_ in TARGETS:
        out[f"{name}.errors"] = sum(1 for s in by_name[name] if s.failed)
    return out
