"""Command-line front end: run, validate and list experiments.

Exit codes: 0 on success, 2 on configuration errors, 3 on runtime failures.
"""

from __future__ import annotations

import argparse
import json
import sys
import tomllib
from pathlib import Path

from ..errors import ConfigParseError, InvalidConfig
from .experiments import (
    EXPERIMENTS,
    default_config,
    run_experiment,
    validate_config,
)

__all__ = ["main"]


def _load_config(path: str) -> dict:
    p = Path(path)
    try:
        text = p.read_text(encoding="utf-8")
    except OSError as exc:  # missing, a directory, unreadable
        raise InvalidConfig(
            f"cannot read config file {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise InvalidConfig(f"config file {path} is not UTF-8 text: "
                            f"{exc.reason} at byte {exc.start}") from exc
    if p.suffix.lower() == ".json":
        try:
            config = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigParseError(f"{path}:{exc.lineno}: {exc.msg}") from exc
        if not isinstance(config, dict):
            raise InvalidConfig(f"config must be a table, got {config!r}")
        return config
    try:
        return tomllib.loads(text)
    except tomllib.TOMLDecodeError as exc:
        raise ConfigParseError(f"{path}: {exc}") from exc


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tvbospec",
        description="Reproduce the spectral TVBO experiments (CSV + SVG).")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run an experiment")
    run_p.add_argument("experiment", nargs="?", default=None,
                       help="experiment id (omit when --config is given)")
    run_p.add_argument("--config", default=None,
                       help="TOML or JSON config file")
    run_p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
    run_p.add_argument("--out", default=None, help="output directory")

    val_p = sub.add_parser("validate", help="check a config without running")
    val_p.add_argument("config", help="TOML or JSON config file")

    sub.add_parser("list", help="list available experiments")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)

    if args.command == "list":
        for name in sorted(EXPERIMENTS):
            _, _, description, _ = EXPERIMENTS[name]
            print(f"{name:8s} {description}")
        return 0

    if args.command == "validate":
        try:
            config = _load_config(args.config)
            report = validate_config(config)
        except InvalidConfig as exc:
            print(f"invalid config: {exc}", file=sys.stderr)
            return 2
        print(f"experiment: {report['experiment']}")
        print(f"estimated eigensolver time: {report['estimated_seconds']:.2f}s")
        for warning in report["warnings"]:
            print(f"warning: {warning}")
        print("ok")
        return 0

    # run
    try:
        if args.config:
            config = _load_config(args.config)
        elif args.experiment:
            config = default_config(args.experiment)
        else:
            raise InvalidConfig("give an experiment id or --config")
        if args.experiment and args.config and \
                config.get("experiment") not in (None, args.experiment):
            raise InvalidConfig("experiment id conflicts with the config file")
        if args.seed is not None:
            config["seed"] = args.seed
        out = args.out or config.get("out") \
            or f"artifacts/{config.get('experiment')}"
    except InvalidConfig as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(config, out)
    except InvalidConfig as exc:
        print(f"invalid config: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io failure: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # runtime failure, keep the exit-code contract
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 3
    print(f"wrote {len(manifest['artifacts'])} artifacts to {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
