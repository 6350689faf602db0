"""One pass of a workload in a fresh interpreter, as a user runs it.

    python3 bench/child.py SPEC [--setup-only] [--trace]

SPEC is a JSON file written by ``bench/run.py``: the source directory to
import tvbospec from, and the experiment runs of the pass, each with its
config file, output directory and job count.

Set-up is ``import tvbospec.expcli.experiments`` plus ``validate_config`` of
every config, timed from the start of this script.  The pass is timed from
the first ``run_experiment`` call to the return of the last one (which
writes the last manifest), in wall and in CPU time over all threads.  The
last line of stdout is a JSON object with the measurements.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def _metadata() -> dict:
    import numpy
    import scipy
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = os.cpu_count()
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        "nproc": affinity,
        "cpu_count": os.cpu_count(),
        "num_threads_env": {k: v for k, v in sorted(os.environ.items())
                            if k.endswith("_NUM_THREADS")},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text(encoding="utf-8"))

    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import tvbospec.expcli.experiments as experiments
    if src not in Path(experiments.__file__).resolve().parents:
        print(f"tvbospec imported from {experiments.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if args.trace:
        sys.path.insert(0, str(Path(__file__).resolve().parent))
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()

    runs = spec["runs"]
    configs = [json.loads(Path(r["config"]).read_text(encoding="utf-8"))
               for r in runs]
    for config in configs:
        experiments.validate_config(config)
    setup_s = time.perf_counter() - T_START
    result = {"setup_s": setup_s, "meta": _metadata()}

    if not args.setup_only:
        errors = []
        cpu0 = time.process_time()
        t0 = time.perf_counter()
        for run, config in zip(runs, configs):
            try:
                experiments.run_experiment(config, run["out"],
                                           jobs=run["jobs"])
                errors.append(None)
            except Exception:  # reported per run; the pass goes on
                errors.append(traceback.format_exc())
        result["wall_s"] = time.perf_counter() - t0
        result["cpu_s"] = time.process_time() - cpu0
        result["errors"] = errors

    if tracer is not None:
        tracer.uninstall()
        from tracer import layer_metrics
        result["layers"] = layer_metrics(tracer.spans)
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = \
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
