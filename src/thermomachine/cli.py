"""Command-line front end.

One subcommand per scenario kind plus ``preset <name>``.  Scenario fields
are set from a JSON config file (--config), then ``--set key=value``
overrides, then dedicated flags, with later sources winning.  Seeds accept
decimal or hex (0x...) notation.  When THERMOMACHINE_OUT_DIR is set,
relative --out paths are written inside that directory.

Exit codes: 0 success, 1 usage error (a scenario name UTF-8 cannot encode too),
unevaluable scenario, a table the format or stdout's encoding cannot hold or a run
out of memory (a k or T axis too long to allocate), 2 verification failure, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from .scenarios import (
    PRESETS,
    Scenario,
    apply_settings,
    coerce_setting,
    run_scenario,
    verification_passed,
)
from .tables import _chunks, export

OUT_DIR_ENV = "THERMOMACHINE_OUT_DIR"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_VERIFY = 2
EXIT_IO = 3

_DEFAULTS = {
    "steady": Scenario(name="steady", kind="steady-sweep", T_prior=0.25),
    "transient": Scenario(
        name="transient", kind="transient-sweep", T_prior=0.25, T=0.2, k_max=300
    ),
    "cost": Scenario(
        name="cost", kind="cost-comparison", T=1.0 / 11.0, T_prior=0.1, k_min=1, k_max=2000
    ),
    "heat": Scenario(
        name="heat", kind="heat-trajectory", T_prior=0.25, T=1.0 / 4.5, k_min=1, k_max=300
    ),
    "noisy": Scenario(
        name="noisy", kind="noisy-ancilla", T_prior=0.1, delta_Tv_rel=0.4, points=200
    ),
    "montecarlo": Scenario(
        name="montecarlo", kind="montecarlo", T=0.2, T_prior=0.25, M=10000, trials=1000
    ),
    "verify": Scenario(name="verify", kind="verify"),
}


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems as exit code 1, not 2."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)  # the flags every subcommand takes
    common.add_argument("--config", metavar="FILE", help="JSON file of scenario fields")
    common.add_argument(
        "--set",
        dest="settings",
        metavar="KEY=VALUE",
        action="append",
        default=[],
        help="override one scenario field (repeatable)",
    )
    common.add_argument("--out", metavar="FILE", help="write the table here (default: stdout)")
    common.add_argument("--format", choices=("csv", "json"), default="csv")
    common.add_argument("--seed", type=seed, metavar="S", help="master seed, decimal or 0x hex")
    parser = _Parser(prog="thermomachine", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, scenario in _DEFAULTS.items():
        sub.add_parser(command, parents=[common], help=f"run a {scenario.kind} scenario")
    p = sub.add_parser("preset", parents=[common], help="run a named preset scenario")
    p.add_argument("preset_name", metavar="NAME", help=", ".join(sorted(PRESETS)))
    return parser


def seed(text: str) -> int:
    """--seed's value as ``--set seed=`` parses it; argparse names this function when it fails."""
    return coerce_setting("seed", text)


def _build_scenario(args: argparse.Namespace) -> Scenario:
    if args.command == "preset":
        scenario = PRESETS.get(args.preset_name)
        if scenario is None:
            raise UsageError(
                f"unknown preset {args.preset_name!r}; choose from {', '.join(sorted(PRESETS))}"
            )
    else:
        scenario = _DEFAULTS[args.command]

    settings: dict[str, object] = {}
    if args.config:
        try:
            raw = json.loads(Path(args.config).read_text())
        except OSError as exc:
            raise UsageError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise UsageError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(raw, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in raw.items():
            items = value if isinstance(value, list) else [value]
            if any(item is None or isinstance(item, (bool, dict, list)) for item in items):
                raise UsageError(f"config field {key!r} cannot hold {json.dumps(value)}")
            settings[key] = coerce_setting(key, ",".join(map(str, items)))
    for item in args.settings:
        key, sep, value = item.partition("=")
        if not sep:
            raise UsageError(f"--set needs KEY=VALUE, got {item!r}")
        settings[key.strip()] = coerce_setting(key.strip(), value.strip())
    if args.seed is not None:
        settings["seed"] = args.seed

    return apply_settings(scenario, settings)


def _resolve_out(path_text: str) -> Path:
    path = Path(path_text)
    out_dir = os.environ.get(OUT_DIR_ENV)
    if out_dir and not path.is_absolute():
        return Path(out_dir) / path
    return path


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        scenario = _build_scenario(args)
        table = run_scenario(scenario)
    except (UsageError, ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}: an input lies outside the formulas' float range", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_USAGE

    try:
        if args.out:
            export(table, args.format, _resolve_out(args.out))
        else:
            sys.stdout.writelines(_chunks(table, args.format))
    except ValueError as exc:  # a non-finite meta value in JSON, or text stdout cannot encode
        print(f"error: cannot write the table as {args.format}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO

    if scenario.kind == "verify" and not verification_passed(table):
        print("verification FAILED", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
