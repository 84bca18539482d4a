"""Command line interface.

Subcommands: packet, sr, branch, restrict, chain, fraction, analyze.
Formats: pretty (default), json, tsv. Exit codes: 0 success, 2 invalid
input, 3 hypothesis violation under --strict.

Each run computes one record. JSON output is the record itself, in the
bytes `json.dumps(record, indent=2)` writes; TSV output is its table
and/or its key/value lines, all cells written by one formatter; pretty
output is a short template per subcommand that reads the record.
Hypothesis violations go to stderr as warnings. This is the generic
driver: each subcommand, and the weight syntax, is in `commands`.

A request whose first argument names a subcommand is parsed by that
subcommand's parser alone. Any other request, and one the subcommand's
parser leaves arguments over from, goes through the full parser, so
argparse's help, usage and error text are its own.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from collections.abc import Iterator, Sequence
from fractions import Fraction
from json.encoder import encode_basestring_ascii

from .cartan import Weight, half_entry
from .commands import _COMMANDS, _COMMON, Result, _cell, _Command, _parse_weight, format_weight

__all__ = ["main", "console_main", "parse_weight", "format_weight"]


def parse_weight(text: str) -> tuple[Weight, list[tuple[Fraction, ...]] | None]:
    """(weight, blocks), blocks None when no separator appeared."""
    weight, blocks = _parse_weight(text)
    return weight, None if blocks is None else [tuple(map(half_entry, b)) for b in blocks]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The full parser and, by name, each subcommand's parser in it."""
    parser = argparse.ArgumentParser(
        prog="lpackets",
        description="Exact discrete-series packet combinatorics for U(r,s)")
    subs = parser.add_subparsers(dest="command", required=True)
    subparsers = {}
    for name, command in _COMMANDS.items():
        sub = subparsers[name] = subs.add_parser(name, help=command.help)
        # A token "-<digit>..." or "-.<digit>..." is a value, such as "-1;1", never an option.
        sub._negative_number_matcher = re.compile(r"-\.?[0-9]")
        for flag, options in command.options + _COMMON:
            sub.add_argument(flag, **options)
    return parser, subparsers


def build_parser() -> argparse.ArgumentParser:
    """The process's shared parser, built on the first call; callers must
    not mutate it. Parsing keeps no state on it between calls."""
    return _parsers()[0]


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The namespace `build_parser().parse_args(argv)` gives, in one pass
    of the subcommand's parser when argv[0] names one and it reads every
    other argument; otherwise the full parser parses, and reports."""
    parser, subparsers = _parsers()
    sub = subparsers.get(argv[0]) if argv else None
    if sub is not None:
        args, extras = sub.parse_known_args(argv[1:])
        if not extras:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def _json(value: object, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2)` for str, int, bool, None, lists,
    tuples and dicts with str keys; indent is the newline and indentation
    that precede value's closing bracket. Any other type is a TypeError."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        items = [_json(item, inner) for item in value]
        return f"[{inner}{f',{inner}'.join(items)}{indent}]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            items.append(f"{encode_basestring_ascii(key)}: {_json(item, inner)}")
        return f"{{{inner}{f',{inner}'.join(items)}{indent}}}"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _render(command: _Command, result: Result, fmt: str) -> Iterator[str]:
    record, _, extra = result
    if fmt == "json":
        yield _json(record)
    elif fmt == "tsv":
        if command.columns:
            yield "\t".join(command.columns)
            for row in command.rows(record) if command.rows else record:
                yield "\t".join([_cell(row[column]) for column in command.columns])
        for key in command.keys:
            yield f"{key}\t{_cell(record[key])}"
    else:
        yield from command.pretty(record, **extra)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
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
