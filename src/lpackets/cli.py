"""Command line interface.

Subcommands: packet, sr, branch, restrict, chain, fraction, analyze.
Formats: pretty (default), json, tsv. Exit codes: 0 success, 2 invalid
input, 3 hypothesis violation under --strict.

Each run computes one record. JSON output is the record itself; TSV
output is its table and/or its key/value lines, all cells written by one
formatter; pretty output is a short template per subcommand that reads
the record. Hypothesis violations go to stderr as warnings. The
subcommands live in `commands`, the weight syntax in `syntax`.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from typing import Callable, Iterator, Mapping, NamedTuple, Optional, Sequence

from .commands import (Result, _cmd_analyze, _cmd_branch, _cmd_chain, _cmd_fraction,
                       _cmd_packet, _cmd_restrict, _cmd_sr, _pretty_analyze, _pretty_branch,
                       _pretty_chain, _pretty_fraction, _pretty_packet, _pretty_restrict,
                       _pretty_sr)
from .syntax import _cell, format_weight, parse_weight

__all__ = ["main", "console_main", "parse_weight", "format_weight"]


# The parser and the renderers, one table entry per subcommand.

_SIG = ("--sig", {"required": True, "help": "signature r,s"})
_PLACE_SIG = ("--sig", {"help": "signature r,s (single place)"})
_PLACE_HCP = ("--hcp", {"help": "parameter a-block/b-block (single place)"})
_PLACES_HC = ("--place", {"action": "append", "default": [],
                          "help": 'place "r,s:a-block/b-block" (repeatable)'})
_COMMON = (("--format", {"choices": ("pretty", "json", "tsv"), "default": "pretty",
                         "help": "output format"}),
           ("--strict", {"action": "store_true",
                         "help": "exit 3 on hypothesis violations instead of warning"}))


class _Command(NamedTuple):
    """A subcommand: its help and options, the handler that computes its
    Result, the pretty template, and its TSV shape: the columns of the
    table over rows(record) (default: the record is the list of rows),
    then key/value lines for keys."""

    help: str
    options: tuple[tuple[str, dict], ...]
    run: Callable[[argparse.Namespace], Result]
    pretty: Callable[..., Iterator[str]]
    columns: tuple[str, ...] = ()
    rows: Optional[Callable[[object], list]] = None
    keys: tuple[str, ...] = ()


_COMMANDS = {
    "packet": _Command(
        "enumerate a packet",
        (_SIG, ("--hw", {"required": True, "help": "highest weight a_sigma"})),
        _cmd_packet, _pretty_packet,
        columns=("a", "b", "degree", "length", "blattner", "coherent")),
    "sr": _Command(
        "minimal K-type test",
        (_SIG, ("--ktype", {"required": True, "help": "K-highest weight mu"}),
         ("--margin", {"type": int, "default": 2,
                       "help": "required regularity margin of the shifted weight"})),
        _cmd_sr, _pretty_sr,
        keys=("accepted", "borel_ok", "positivity_ok", "hc", "hc_double_shift",
              "mu_shifted", "margin")),
    "branch": _Command(
        "restrict U(m) to U(m-1) x U(1)",
        (("--hw", {"required": True, "help": "dominant highest weight"}),),
        _cmd_branch, _pretty_branch,
        columns=("lower", "u1"), rows=lambda rec: rec["constituents"]),
    "restrict": _Command(
        "descend one parameter",
        (_SIG, ("--hcp", {"required": True, "help": "parameter a-block/b-block"})),
        _cmd_restrict, _pretty_restrict,
        keys=("prime", "u1", "discrete_series", "min_in_a", "support_matches", "well_spaced")),
    "chain": _Command(
        "iterated descent",
        (_PLACE_SIG, _PLACE_HCP, _PLACES_HC,
         ("--depth", {"type": int, "required": True,
                      "help": "number of descent steps (clamped to n-1); each step "
                              "needs r >= 1 at every place"})),
        _cmd_chain, _pretty_chain,
        columns=("level", "class", "dual_min_in_a", "u1", "places")),
    "fraction": _Command(
        "isomorphism fraction of a product packet",
        (_PLACE_SIG, ("--hw", {"help": "highest weight a_sigma (single place)"}),
         ("--place", {"action": "append", "default": [],
                      "help": 'place "r,s:highest-weight" (repeatable)'})),
        _cmd_fraction, _pretty_fraction,
        columns=("fraction", "expected", "match"), rows=lambda rec: [rec]),
    "analyze": _Command(
        "full report for one parameter",
        (_PLACE_SIG, _PLACE_HCP, _PLACES_HC),
        _cmd_analyze, _pretty_analyze,
        # The parameter column is each place's own blocks.
        columns=("sig", "parameter", "degree", "length", "packet_index", "blattner",
                 "coherent", "restricted", "u1"),
        rows=lambda rec: [{**place, "parameter": place} for place in rec["places"]],
        keys=("class", "dual_min_in_a", "well_spaced")),
}


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
