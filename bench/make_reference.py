"""Regenerate the committed reference manifests.

    python3 bench/make_reference.py [WORKLOAD ...]

Runs one untraced pass per workload and config seed and writes
``bench/reference/<workload>/seed<k>.json``.  Only for a change that means
to alter artifacts: the references are the benchmark's determinism gate.
"""

import json
import sys
import time

from run import RUN_BUDGET_S, Workload, reference_path
import workloads


def main(argv) -> int:
    names = argv or sorted(workloads.WORKLOADS)
    for name in names:
        for seed in range(workloads.REFERENCE_SEEDS):
            w = Workload(name, seed)
            result, oks = w.run_pass(time.monotonic() + RUN_BUDGET_S)
            if not all(oks):
                print(f"{name} seed {seed}: a run failed", file=sys.stderr)
                return 1
            path = reference_path(name, seed)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_text(json.dumps(w.reference, indent=1, sort_keys=True)
                            + "\n", "utf-8")
            print(f"wrote {path} (pass {result['wall_s']:.2f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
