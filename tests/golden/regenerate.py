"""Rebuild the golden manifests of the byte-identity test.

    python tests/golden/regenerate.py [--out DIR]

Runs every small config in ``configs.json`` (one or two per experiment,
seconds in total) through ``run_experiment`` and writes each run's
``manifest.json`` to ``DIR/<name>.manifest.json``; DIR defaults to this
directory.  ``tests/test_golden.py`` compares fresh manifests with the
committed ones byte for byte.  Regenerate only for a change that is meant
to move the numbers, and record in CHANGES.md why, with the largest
absolute and relative difference per changed column.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))

from tvbospec.expcli.experiments import run_experiment  # noqa: E402


def configs() -> dict:
    """The golden configs, by name."""
    with open(HERE / "configs.json", encoding="utf-8") as fh:
        return json.load(fh)


def build(name: str, config: dict, outdir: Path) -> Path:
    """Run ``config`` and copy its manifest to ``outdir``; returns the copy."""
    with tempfile.TemporaryDirectory() as work:
        run_experiment(config, work)
        return Path(shutil.copyfile(Path(work) / "manifest.json",
                                    outdir / f"{name}.manifest.json"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, default=HERE,
                        help="directory for the manifests (default: %(default)s)")
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True, exist_ok=True)
    for name, config in configs().items():
        print(build(name, config, args.out))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
