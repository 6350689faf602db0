"""Fast self-check of the benchmark harness on tiny configs.

    python3 bench/selfcheck.py

Checks that:

1. BENCHMARK.json names exactly the metrics the harness emits, with the
   same units, and every workload the harness defines;
2. a run of each tiny workload, untraced and traced, emits every
   end-to-end or per-layer metric with its unit and no failed run;
3. a traced pass writes artifacts byte-identical to an untraced pass;
4. the tracer wraps every target and, once uninstalled, leaves every
   attribute of every tvbospec module and wrapped class as it found it.

Exits 0 when all hold; prints what failed otherwise.
"""

from __future__ import annotations

import hashlib
import json
import sys
import threading
import time
from pathlib import Path

import run
import workloads
from tracer import TARGETS, Tracer, resolve

FAILURES = []


def check(cond: bool, what: str) -> None:
    print(("ok   " if cond else "FAIL ") + what)
    if not cond:
        FAILURES.append(what)


def _metrics_of(section) -> dict:
    return {m["name"]: m["unit"] for m in section}


def check_declaration() -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text("utf-8"))
    check(_metrics_of(spec["end_to_end"]) == run.END_TO_END,
          "BENCHMARK.json end_to_end matches the emitted metrics and units")
    check(_metrics_of(spec["per_layer"]) == run.PER_LAYER,
          "BENCHMARK.json per_layer matches the emitted metrics and units")
    check({w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS),
          "BENCHMARK.json lists every workload")


def check_emission(name: str) -> None:
    for trace, expected in ((False, run.END_TO_END), (True, run.PER_LAYER)):
        result = run.measure(name, seed=0, seconds=0, trace=trace,
                             tiny=True)["result"]
        emitted = {k: m["unit"] for k, m in result["metrics"].items()}
        check(emitted == expected and all(
                  isinstance(m["value"], (int, float))
                  for m in result["metrics"].values()),
              f"{name} trace={int(trace)}: every metric emitted with its unit")
        check(result["correct"] and result["failed"] == 0,
              f"{name} trace={int(trace)}: no failed experiment run")


def _tree(root: Path) -> dict:
    return {str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).digest()
            for p in sorted(root.rglob("*")) if p.is_file()}


def check_byte_identity(name: str) -> None:
    w = run.Workload(name, seed=0, tiny=True)
    deadline = time.monotonic() + run.RUN_BUDGET_S
    _, plain_ok = w.run_pass(deadline)
    plain = _tree(w.out)
    _, traced_ok = w.run_pass(deadline, traced=True)
    traced = _tree(w.out)
    check(all(plain_ok) and all(traced_ok) and plain == traced and plain,
          f"{name}: traced artifacts byte-identical to untraced "
          f"({len(plain)} files)")


def _snapshot(owners) -> dict:
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def check_restoration() -> None:
    sys.path.insert(0, str(run.SRC))
    import tvbospec.expcli.experiments as experiments
    out = run.WORK / "selfcheck-restore"
    runs = workloads.experiments("regret_default", 0, tiny=True)

    def run_tiny():
        for item in runs:
            experiments.run_experiment(item["config"], out, jobs=item["jobs"])

    run_tiny()  # first so that lazy imports are not taken for leftovers
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "tvbospec"
                                     or n.startswith("tvbospec."))]
    classes = {getattr(sys.modules[mod], path.split(".")[0])
               for _, mod, path, _ in TARGETS if "." in path}
    owners = modules + sorted(classes, key=lambda c: c.__name__)
    before = _snapshot(owners)

    tracer = Tracer()
    tracer.install()
    try:
        unwrapped = [name for name, mod, path, _ in TARGETS
                     if not hasattr(getattr(*resolve(sys.modules[mod], path)),
                                    "__wrapped__")]
        check(not unwrapped, f"tracer rebinds all {len(TARGETS)} targets "
              f"{unwrapped or ''}")
        run_tiny()
        seen = {s.name for s in tracer.spans}
        expected = {"kernels.pairwise", "gp.mean_var", "tvbo.run_tvbo",
                    "bounds.lower_bound", "expcli.write_trace_csv",
                    "expcli.run_experiment"}
        check(expected <= seen, "wrapped calls record spans")
        pool_threads = {s.thread for s in tracer.spans
                        if s.name == "tvbo.run_tvbo"}
        check(threading.get_ident() not in pool_threads,
              "spans are recorded inside the replication thread pool")
    finally:
        tracer.uninstall()
    after = _snapshot(owners)
    changed = sorted(k for k in set(before) | set(after)
                     if before.get(k) is not after.get(k))
    check(not changed, "every wrapped attribute restored after the traced run")


def main() -> int:
    if not (run.SRC / "tvbospec" / "__init__.py").is_file():
        print(f"no tvbospec sources under {run.SRC}", file=sys.stderr)
        return 2
    check_declaration()
    for name in sorted(workloads.WORKLOADS):
        check_emission(name)
        check_byte_identity(name)
    check_restoration()
    print(f"{len(FAILURES)} failure(s)")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
