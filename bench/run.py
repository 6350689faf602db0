"""tvbospec benchmark: default-config CLI experiments, timed end to end.

    python3 bench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; tvbospec is imported from ``src/``
(nothing is installed).  Every pass runs in a fresh interpreter
(``bench/child.py``) and writes its artifacts under ``.bench_work/``.  Each
experiment run is checked byte for byte against the committed reference
manifests in ``bench/reference``; a run that raised, a child that exited
non-zero and a mismatching artifact all count as failed.

Workloads (see ``bench/workloads.py`` and BENCHMARK.json for why each):
``regret_default``, ``loop_d2`` and ``figures``.

``--trace 0`` measures passes for S seconds after taking set-up samples and
reports the end-to-end metrics as medians over the run's samples:

- wall_s: one pass, first run_experiment call to last manifest written;
- cpu_s: user + system CPU time of that pass, all threads;
- setup_s: fresh-interpreter import plus validate_config of the configs;
- peak_rss_mb: peak resident memory of the process running one pass.

``--trace 1`` alternates untraced and traced passes for S seconds and
reports the per-layer metrics of ``bench/tracer.py`` (medians over traced
passes), ``expcli.artifact_bytes`` and ``trace.overhead_frac``: traced
wall_s minus untraced wall_s as a fraction of untraced, the median over
pairs of an untraced pass and the traced pass right after it.  The printed
line marks it unresolved when it is smaller than the spread of the untraced
passes' wall times, or when there is a single untraced pass to judge that
spread by; on a long workload a run holds only one or two pairs and the
value then mostly reads how the machine's speed changed between passes.

The last stdout line is the JSON result; the line before it holds the run
metadata.  Exit code 2 means the checkout has no tvbospec sources, 1 that no
pass produced a measurement.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
REFERENCE = HERE / "reference"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracer import SPAN_METRICS  # noqa: E402

END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB"}
PER_LAYER = dict(SPAN_METRICS, **{"expcli.artifact_bytes": "bytes",
                                  "trace.overhead_frac": "ratio"})

# Set-up-only interpreters started before the measured passes, so setup_s
# is a median over several samples even when a pass is long.
SETUP_SAMPLES = 5
# A run must end within 180 s; no pass starts that could not end by then.
RUN_BUDGET_S = 170.0


class NoMeasurement(RuntimeError):
    pass


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reference_path(workload: str, seed: int) -> Path:
    return REFERENCE / workload / f"seed{workloads.config_seed(seed)}.json"


def load_reference(workload: str, seed: int) -> dict:
    """The committed manifests of every experiment of the workload."""
    ref = json.loads(reference_path(workload, seed).read_text("utf-8"))
    wanted = {r["config"]["experiment"]
              for r in workloads.experiments(workload, seed)}
    if set(ref) != wanted:
        raise ValueError(f"{reference_path(workload, seed)} covers "
                         f"{sorted(ref)}, expected {sorted(wanted)}")
    return ref


def check_artifacts(outdir: Path, expected: dict | None):
    """(observed manifest, ok) for one experiment output directory.

    ok means the manifest equals ``expected`` and every file on disk is
    listed in it with its checksum.  With no expectation the manifest is
    only checked against the files themselves.
    """
    try:
        observed = json.loads((outdir / "manifest.json").read_text("utf-8"))
        listed = {e["file"]: e["sha256"] for e in observed["artifacts"]}
        on_disk = {p.name for p in outdir.iterdir()}
        ok = on_disk == set(listed) and all(
            digest is None or _sha256(outdir / name) == digest
            for name, digest in listed.items())
    except (OSError, ValueError, KeyError, TypeError):
        return None, False
    if expected is not None:
        ok = ok and observed == expected
    return observed, ok


def _artifact_bytes(outdirs) -> int:
    return sum(p.stat().st_size for d in outdirs if d.is_dir()
               for p in d.iterdir())


class Workload:
    """The generated configs of one workload at one seed, and its passes."""

    def __init__(self, name: str, seed: int, tiny: bool = False,
                 reference: dict | None = None):
        """``reference`` maps experiment id to its expected manifest; runs
        of an experiment it lacks must match that experiment's first
        passing run instead."""
        self.name = name
        self.runs = workloads.experiments(name, seed, tiny)
        self.dir = WORK / (f"{name}-tiny" if tiny else name)
        self.out = self.dir / "out"
        self.reference = dict(reference or {})
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "configs").mkdir(parents=True)
        spec_runs = []
        for i, run in enumerate(self.runs):
            exp = run["config"]["experiment"]
            cfg = self.dir / "configs" / f"{i}-{exp}.json"
            cfg.write_text(json.dumps(run["config"], indent=2), "utf-8")
            spec_runs.append({"config": str(cfg), "jobs": run["jobs"],
                              "out": str(self.out / exp)})
        self.outdirs = [Path(r["out"]) for r in spec_runs]
        self.spec = self.dir / "spec.json"
        self.spec.write_text(json.dumps({"src": str(SRC), "runs": spec_runs},
                                        indent=2), "utf-8")

    def _child(self, flags, deadline):
        cmd = [sys.executable, str(HERE / "child.py"), str(self.spec), *flags]
        try:
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True,
                                  text=True,
                                  timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            print(f"pass timed out: {' '.join(flags)}", file=sys.stderr)
            return None
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_sample(self, deadline):
        return self._child(["--setup-only"], deadline)

    def run_pass(self, deadline, traced=False):
        """One pass; returns (child result or None, per-run ok flags)."""
        shutil.rmtree(self.out, ignore_errors=True)
        result = self._child(["--trace"] if traced else [], deadline)
        oks = []
        for i, (run, outdir) in enumerate(zip(self.runs, self.outdirs)):
            exp = run["config"]["experiment"]
            expected = self.reference.get(exp)
            observed, ok = check_artifacts(outdir, expected)
            if result is None or result["errors"][i] is not None:
                if result is not None:
                    sys.stderr.write(result["errors"][i])
                ok = False
            if ok and expected is None:
                self.reference[exp] = observed
            if not ok:
                print(f"{self.name}: {exp} failed its artifact check",
                      file=sys.stderr)
            oks.append(ok)
        if result is not None:
            result["artifact_bytes"] = _artifact_bytes(self.outdirs)
        return result, oks


def _percentile_rule(values):
    """Highest percentile with at least ten samples above it, if any."""
    n = len(values)
    below = n - 10
    if below < 1:
        return "no percentile (fewer than 11 samples)"
    v = sorted(values)[below - 1]
    return f"p{100.0 * below / n:.0f}={v:.6g}"


def measure(name: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Run one benchmark run; returns result, summary lines and metadata."""
    start = time.monotonic()
    deadline = start + RUN_BUDGET_S
    w = Workload(name, seed, tiny,
                 reference=None if tiny else load_reference(name, seed))
    samples = {k: [] for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb")}
    traced_samples = []
    attempted = failed = 0
    meta = None

    if not trace:
        for _ in range(SETUP_SAMPLES):
            r = w.setup_sample(deadline)
            if r is not None:
                samples["setup_s"].append(r["setup_s"])
                meta = meta or r["meta"]

    t0 = time.monotonic()
    longest = 0.0
    npass = 0
    while True:
        traced = trace and npass % 2 == 1
        begun = time.monotonic()
        result, oks = w.run_pass(deadline, traced=traced)
        longest = max(longest, time.monotonic() - begun)
        npass += 1
        attempted += len(oks)
        failed += oks.count(False)
        if result is not None:
            meta = meta or result["meta"]
            if traced:
                traced_samples.append(result)
            else:
                for k in ("wall_s", "cpu_s", "setup_s", "peak_rss_mb"):
                    samples[k].append(result[k])
        now = time.monotonic()
        have_both = not trace or npass >= 2
        if result is None or (now - t0 >= seconds and have_both) or \
                now + longest > deadline:
            break

    if not samples["wall_s"] or (trace and not traced_samples):
        raise NoMeasurement(f"{name}: no pass produced a measurement")

    lines = []
    if trace:
        layer_values = {}
        for key in SPAN_METRICS:
            layer_values[key] = statistics.median(
                r["layers"][key] for r in traced_samples)
        layer_values["expcli.artifact_bytes"] = statistics.median(
            r["artifact_bytes"] for r in traced_samples)
        # untraced pass k runs right before traced pass k
        pairs = list(zip(samples["wall_s"], (r["wall_s"]
                                             for r in traced_samples)))
        overhead = statistics.median(t / u - 1.0 for u, t in pairs)
        layer_values["trace.overhead_frac"] = overhead
        metrics = {k: {"value": layer_values[k], "unit": PER_LAYER[k]}
                   for k in PER_LAYER}
        for k, m in metrics.items():
            if k != "trace.overhead_frac":
                lines.append(f"{k:44s} {m['value']:.6g} {m['unit']}"
                             f"  (median of {len(traced_samples)} traced)")
        walls = samples["wall_s"]
        if len(walls) < 2:
            verdict = "unresolved: one untraced pass, no spread to judge by"
        else:
            noise = (max(walls) - min(walls)) / statistics.median(walls)
            verdict = (("resolved" if abs(overhead) > noise else "unresolved")
                       + f": untraced wall_s spread {noise:.3g} over "
                       f"{len(walls)} passes")
        lines.append(f"{'trace.overhead_frac':44s} {overhead:.6g} ratio"
                     f"  (median of {len(pairs)} untraced/traced pairs; "
                     f"{verdict})")
    else:
        metrics = {}
        for k, unit in END_TO_END.items():
            values = samples[k]
            metrics[k] = {"value": statistics.median(values), "unit": unit}
            lines.append(f"{k:12s} median {metrics[k]['value']:.6g} {unit}"
                         f"  {_percentile_rule(values)}  n={len(values)}")
    lines.append(f"{'ops_failed_frac':12s} {failed / attempted:.6g} ratio"
                 f"  ({failed} of {attempted} experiment runs)")

    record = {
        "workload": name, "seed": seed,
        "config_seed": workloads.config_seed(seed),
        "seconds": seconds, "trace": int(trace), "tiny": tiny,
        "git_commit": _git_commit(ROOT),
        "samples": samples,
        **(meta or {}),
    }
    return {"result": {"correct": failed == 0, "attempted": attempted,
                       "failed": failed, "metrics": metrics},
            "lines": lines, "meta": record}


def _git_commit(root: Path):
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text("utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text("utf-8").strip()
        for line in (git / "packed-refs").read_text("utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tvbospec" / "__init__.py").is_file():
        print(f"no tvbospec sources under {SRC}", file=sys.stderr)
        return 2
    try:
        out = measure(args.workload, args.seed, args.seconds,
                      bool(args.trace))
    except NoMeasurement as exc:
        print(exc, file=sys.stderr)
        return 1
    for line in out["lines"]:
        print(line)
    print(json.dumps({"meta": out["meta"]}, sort_keys=True))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
