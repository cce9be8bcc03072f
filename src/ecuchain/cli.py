"""Command-line entry point.

Subcommands: ``init`` (build and check a world from a scenario config),
``run`` (execute the scenario, writing the event log), and the four
benchmarks ``bench-create``, ``bench-challenge``, ``bench-merkle``,
``bench-storage`` (CSV by default, JSON with ``--format json``).

Each subcommand takes only the options it reads: ``init`` and ``run``
take ``--config``, ``--out`` and ``--seed``; the benchmarks take
``--out``, ``--format`` and ``--seed``.

Exit codes: 0 success, 1 configuration/usage error, 2 internal failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path
from typing import Optional, Sequence

from . import __version__
from .bench import bench_challenge, bench_create, bench_merkle, bench_storage
from .protocol import audit
from .sim import ConfigError, build_world, event_log_text, load_config, run
from .wire import U64_MAX

# Each benchmark subcommand: the function it runs and its help line.
BENCHES = {
    "bench-create": (bench_create, "block creation timing"),
    "bench-challenge": (bench_challenge, "challenge validation timing"),
    "bench-merkle": (bench_merkle, "state-root timing"),
    "bench-storage": (bench_storage, "ledger storage measurement"),
}


class CliError(Exception):
    """Usage error surfaced with exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise CliError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="ecuchain",
        description="Vehicle ECU integrity ledger: scenario runner and benchmarks.",
    )
    parser.add_argument("--version", action="version", version=f"ecuchain {__version__}")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p: _Parser, scenario: bool) -> None:
        if scenario:
            p.add_argument("--config", required=True, help="scenario config path")
        p.add_argument("--out", help="output file path")
        if not scenario:
            p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--seed", type=int, default=None, help="override seed")

    common(sub.add_parser("init", help="build a world and report its state"), True)
    common(sub.add_parser("run", help="run a scenario, write the event log"), True)
    for name, (_, help_text) in BENCHES.items():
        common(sub.add_parser(name, help=help_text), False)
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _load(args):
    config = load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
        config.validate()
    return config


def _cmd_init(args) -> int:
    world = build_world(_load(args))
    summary = {
        "vehicles": len(world.vehicles),
        "rsus": len(world.rsus),
        "blocks": len(world.roadside.ledger),
        "roadside_bytes": len(world.roadside.ledger.serialize()),
        "ledgers_valid": audit(world.authority_tier, world.roadside),
    }
    _emit(json.dumps(summary, indent=2) + "\n", args.out)
    return 0


def _cmd_run(args) -> int:
    world = build_world(_load(args))
    result = run(world)
    out = args.out or "events.log"
    Path(out).write_text(event_log_text(result.event_log), encoding="utf-8")
    summary = {
        "event_log": out,
        "encounters": result.report.encounters,
        "verdicts": result.report.verdict_counts,
        "revoked": list(result.report.revoked),
        "refused": result.report.refused,
        "ledgers_valid": result.report.ledgers_valid,
        "roadside_bytes": len(world.roadside.ledger.serialize()),
    }
    sys.stdout.write(json.dumps(summary, indent=2) + "\n")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            parser.print_usage(sys.stderr)
            print("ecuchain: a subcommand is required", file=sys.stderr)
            return 1
        seed = args.seed if args.seed is not None else 0
        if not 0 <= seed <= U64_MAX:
            raise CliError(f"--seed must be in [0, {U64_MAX}]")
        if args.command == "init":
            return _cmd_init(args)
        if args.command == "run":
            return _cmd_run(args)
        bench, _ = BENCHES[args.command]
        report = bench(seed=seed)
        _emit(report.to_json() if args.format == "json" else report.to_csv(), args.out)
        return 0
    except (CliError, ConfigError) as exc:
        print(f"ecuchain: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ecuchain: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # internal failure
        print(f"ecuchain: internal error: {exc!r}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    sys.exit(main())
