"""Command line interface.

Subcommands: packet, sr, branch, restrict, chain, fraction, analyze.
Formats: pretty (default), json, tsv. Exit codes: 0 success, 2 invalid
input, 3 hypothesis violation under --strict.

Each run computes one record. JSON output is the record itself; TSV
output is its table and/or its key/value lines, all cells written by one
formatter; pretty output is a short template per subcommand that reads
the record. Hypothesis violations go to stderr as warnings. This is the
generic driver: each subcommand, and the weight syntax, is in `commands`.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Iterator, Mapping, Optional, Sequence

from .commands import _COMMANDS, _COMMON, Result, _cell, _Command, format_weight, parse_weight

__all__ = ["main", "console_main", "parse_weight", "format_weight"]


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's shared parser, built on the first call; callers must
    not mutate it. Parsing keeps no state on it between calls."""
    parser = argparse.ArgumentParser(
        prog="lpackets",
        description="Exact discrete-series packet combinatorics for U(r,s)")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        for flag, options in command.options + _COMMON:
            sub.add_argument(flag, **options)
    return parser


def _render(command: _Command, result: Result, fmt: str) -> Iterator[str]:
    record, _, extra = result
    if fmt == "json":
        yield json.dumps(record, indent=2)
    elif fmt == "tsv":
        if command.columns:
            yield "\t".join(command.columns)
            for row in command.rows(record) if command.rows else record:
                yield "\t".join([_cell(row[column]) for column in command.columns])
        for key in command.keys:
            yield f"{key}\t{_cell(record[key])}"
    else:
        yield from command.pretty(record, **extra)


# Per subcommand, whether each of its option strings takes a value;
# argparse gives every subparser the flag --help.
_TAKES_VALUE = {name: {"--help": False,
                       **{flag: options.get("action") != "store_true"
                          for flag, options in command.options + _COMMON}}
                for name, command in _COMMANDS.items()}
_NEGATIVE = re.compile("-[0-9]")


def _takes_value(options: Mapping[str, bool], token: str) -> bool:
    """Whether argparse reads token as a value-taking option of options:
    the option itself, or a "--" prefix of it and of no other option."""
    if token in options:
        return options[token]
    if not token.startswith("--") or "=" in token:
        return False
    matches = [flag for flag in options if flag.startswith(token)]
    return len(matches) == 1 and options[matches[0]]


def _join_negative_values(argv: Sequence[str]) -> list[str]:
    """argv with each value-taking option of the subcommand argv[0], or a
    unique prefix of one, and a following "-<digit>..." token written as
    one "--opt=value" token. argparse reads a separate value such as "-1;1"
    as an option unless it is a plain number, and what counts as one
    differs across Python versions."""
    options = _TAKES_VALUE.get(argv[0], {}) if argv else {}
    joined: list[str] = []
    for token in argv:
        if joined and _NEGATIVE.match(token) and _takes_value(options, joined[-1]):
            joined[-1] += f"={token}"
        else:
            joined.append(token)
    return joined


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(
        _join_negative_values(sys.argv[1:] if argv is None else argv))
    command = _COMMANDS[args.command]
    try:
        result = command.run(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for violation in result.violations:
        print(f"warning: {violation}", file=sys.stderr)
    if result.violations and args.strict:
        print("error: hypothesis violation under --strict", file=sys.stderr)
        return 3
    for line in _render(command, result, args.format):
        print(line)
    return 0


def console_main() -> None:
    raise SystemExit(main())
