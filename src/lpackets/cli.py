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
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .cartan import Weight, half_entry
from .commands import _COMMANDS, _COMMON, Result, _cell, _Command, _parse_weight, format_weight

__all__ = ["main", "console_main", "parse_weight", "format_weight"]


def parse_weight(text: str) -> tuple[Weight, Optional[list[tuple[Fraction, ...]]]]:
    """(weight, blocks), blocks None when no separator appeared."""
    weight, blocks = _parse_weight(text)
    return weight, None if blocks is None else [tuple(map(half_entry, b)) for b in blocks]


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
        # A token "-<digit>..." or "-.<digit>..." is a value, such as "-1;1", never an option.
        sub._negative_number_matcher = re.compile(r"-\.?[0-9]")
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


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
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
