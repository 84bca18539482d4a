"""Command line interface.

Subcommands: packet, sr, branch, restrict, chain, fraction, analyze.
Formats: pretty (default), json, tsv. Exit codes: 0 success, 2 invalid
input, 3 hypothesis violation under --strict, and, from the console
script, 1 when the reader of standard output closes it early.

Each run computes one record. JSON output is the record itself, in the
bytes `json.dumps(record, indent=2)` writes; TSV output is its table
and/or its key/value lines, all cells written by one formatter; pretty
output is a short template per subcommand that reads the record.
Hypothesis violations go to stderr as warnings. This is the generic
driver: each subcommand, and the weight syntax, is in `commands`.

A request whose first argument names a subcommand, and whose every later
argument is an exact option with its value ("--opt=value" or "--opt
value") or a bare flag, is read from the option table alone, without
argparse. Any other request (a prefix, help, an unknown option, a bad or
missing value, a positional, "--") goes to the full argparse parser, so
help, usage and error text, and abbreviations, are argparse's own.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from collections.abc import Iterator, Sequence
from json.encoder import encode_basestring_ascii
from types import SimpleNamespace

from .commands import _COMMANDS, _COMMON, Result, _cell, _Command

__all__ = ["main", "console_main", "build_parser"]

# A token "-<digit>..." or "-.<digit>..." is a value, such as "-1;1", never an option.
_NUMBER = re.compile(r"-\.?[0-9]")


@functools.cache
def _parsers() -> argparse.ArgumentParser:
    """The full parser; argparse is imported only here."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="lpackets",
        description="Exact discrete-series packet combinatorics for U(r,s)")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = subs.add_parser(name, help=command.help)
        sub._negative_number_matcher = _NUMBER
        for flag, options in command.options + _COMMON:
            sub.add_argument(flag, **options)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The process's shared parser, built on the first call; callers must
    not mutate it. Parsing keeps no state on it between calls."""
    return _parsers()


def _table(options: Sequence[tuple[str, dict]]) -> tuple[dict, dict, frozenset]:
    """(defaults, {flag: (dest, action, type, choices)}, required dests) of
    one subcommand's options, read as argparse reads them. A required
    option has no default, so it is missing until it is given."""
    defaults, flags, required = {}, {}, set()
    for flag, spec in options:
        dest, action = flag[2:], spec.get("action")
        flags[flag] = dest, action, spec.get("type"), spec.get("choices")
        if spec.get("required"):
            required.add(dest)
        else:
            defaults[dest] = spec.get("default", False if action == "store_true" else None)
    return defaults, flags, frozenset(required)


_TABLES = {name: _table(command.options + _COMMON) for name, command in _COMMANDS.items()}


def _read(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace of argv read from the option table, or None unless
    argv is a subcommand followed by exact options, each with one value
    its type and choices accept or a bare store_true flag, that give
    every required option."""
    table = _TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    defaults, flags, required = table
    values = dict(defaults)
    tokens = iter(argv[1:])
    for token in tokens:
        flag, joined, value = token.partition("=")
        spec = flags.get(flag)
        if spec is None:
            return None
        dest, action, kind, choices = spec
        if action == "store_true":
            if joined:
                return None
            values[dest] = True
            continue
        if not joined:
            value = next(tokens, None)
            if value is None or value[:1] == "-" and not _NUMBER.match(value):
                return None
        if kind is not None:
            try:
                value = kind(value)
            except (TypeError, ValueError):
                return None
        if choices is not None and value not in choices:
            return None
        values[dest] = [*values[dest], value] if action == "append" else value
    if not required <= values.keys():
        return None
    return SimpleNamespace(command=argv[0], **values)


def _parse(argv: Sequence[str]) -> SimpleNamespace:
    """A namespace whose vars are those of `build_parser().parse_args(argv)`:
    read from the option table when `_read` can, otherwise parsed (or
    answered, with argparse's exit) by the full parser."""
    args = _read(argv)
    return SimpleNamespace(**vars(build_parser().parse_args(argv))) if args is None else args


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
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe. Point stdout at devnull, so that the
        # flush at exit raises no second error (the Python docs' SIGPIPE note).
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 1
    raise SystemExit(status)
