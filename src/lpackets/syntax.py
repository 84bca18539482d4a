"""Command-line text: weights, parameters, signatures and places read from
the arguments, and record values written as text.

Weight syntax: comma-separated entries, each "p" or "p/2" with odd p.
Blocks are separated by ";" or by "/" between two entries; a token "p/2"
with odd integer p always reads as the half-integral entry, so "1,1/2"
is the mixed-coset weight (1, 1/2), not a block split, while "5,3/0" is
the blocks (5,3),(0). Use ";" when a "/" boundary would be ambiguous.
"""

from __future__ import annotations

import argparse
from fractions import Fraction
from typing import Iterator, Mapping, Optional, Sequence

from .cartan import Signature, Weight, doubled_text, doubled_to_str, entry_from_str
from .descent import RestrictedParameter
from .packets import HCParameter, InfinitesimalCharacter, infinitesimal_character

Blocks = list[tuple[Fraction, ...]]


def _is_odd_int(text: str) -> bool:
    try:
        return int(text) % 2 != 0
    except ValueError:
        return False


def parse_weight(text: str) -> tuple[Weight, Optional[Blocks]]:
    """Parse a weight with optional block structure.

    Returns (weight, blocks) where blocks is None when no separator
    appeared. Mixed half-integrality is rejected by Weight itself.
    """
    if text.strip() == "":
        raise ValueError("empty weight")
    blocks: Blocks = []
    for segment in text.split(";"):
        current: list[Fraction] = []
        for field in segment.split(",") if segment.strip() else ():
            left, slash, right = field.strip().partition("/")
            if not slash:
                current.append(entry_from_str(left))
            elif right == "2" and _is_odd_int(left):
                current.append(Fraction(int(left), 2))
            else:
                blocks.append((*current, entry_from_str(left)))
                current = [entry_from_str(right)]
        blocks.append(tuple(current))
    weight = Weight(x for block in blocks for x in block)
    return weight, blocks if len(blocks) > 1 else None


def format_weight(weight: Weight, sig: Optional[Signature] = None) -> str:
    """Inverse of parse_weight; uses ";" for the block separator."""
    if sig is None:
        return doubled_text(weight.doubled)
    if len(weight) != sig.n:
        raise ValueError("dimension mismatch")
    return f"{doubled_text(weight.doubled[: sig.r])};{doubled_text(weight.doubled[sig.r:])}"


def parse_signature(text: str) -> Signature:
    head, _, tail = text.partition(",")
    try:
        r, s = int(head), int(tail)
    except ValueError:
        raise ValueError(f"bad signature {text!r}: expected r,s") from None
    return Signature(r, s)


def _check_shape(weight: Weight, blocks: Optional[Blocks], sig: Signature) -> None:
    """Reject a weight whose length, then whose block sizes, do not fit sig."""
    if len(weight) != sig.n:
        raise ValueError(
            f"weight has {len(weight)} entries, signature {sig.r},{sig.s} needs {sig.n}")
    if blocks is not None:
        sizes = tuple(len(b) for b in blocks)
        if sizes != (sig.r, sig.s):
            raise ValueError(f"block sizes ({','.join(map(str, sizes))})"
                             f" do not match signature ({sig.r},{sig.s})")


def parse_hc(text: str, sig: Signature) -> HCParameter:
    weight, blocks = parse_weight(text)
    _check_shape(weight, blocks, sig)
    return HCParameter.from_doubled(weight.doubled[: sig.r], weight.doubled[sig.r:])


def _unblocked(text: str, name: str) -> Weight:
    """A weight given without block split; name is how errors refer to it."""
    weight, blocks = parse_weight(text)
    if blocks is not None:
        raise ValueError(f"{name} takes no block split")
    return weight


def _place_ic(text: str, sig: Signature, place: Optional[str]) -> InfinitesimalCharacter:
    name = "--hw" if place is None else f"bad place {place!r}: highest weight"
    weight = _unblocked(text, name)
    _check_shape(weight, None, sig)
    return infinitesimal_character(weight)


def _collect_places(args: argparse.Namespace, option: str,
                    what: str) -> Iterator[tuple[Signature, str, Optional[str]]]:
    """(sig, text, place) for each --place "r,s:text", then for --sig with
    --<option> (place None); what names the text in errors. A generator, so
    each place's text is parsed before the next place is read."""
    for place in args.place:
        head, sep, text = place.partition(":")
        if not sep:
            raise ValueError(f"bad place {place!r}: expected r,s:{what}")
        yield parse_signature(head), text, place
    value = getattr(args, option)
    if args.sig or value:
        if not (args.sig and value):
            raise ValueError(f"--sig and --{option} must be given together")
        yield parse_signature(args.sig), value, None
    elif not args.place:
        raise ValueError(f"give --place entries or --sig with --{option}")


# Record values as text.

def _blocks_json(blocks: HCParameter | RestrictedParameter) -> dict:
    """The doubled_a and doubled_b blocks of a parameter as entry strings."""
    return {"a": [doubled_to_str(d) for d in blocks.doubled_a],
            "b": [doubled_to_str(d) for d in blocks.doubled_b]}


# Cells and pretty text, from the record's strings, ints and booleans.

def _join(entries: Sequence[str]) -> str:
    return ",".join(entries)


def _blocks(value: Mapping) -> str:
    return f"{_join(value['a'])};{_join(value['b'])}"


def _split(entries: Sequence[str], r: int) -> str:
    """A weight's entries as blocks of sizes r and n - r, in parentheses."""
    return f"({_join(entries[:r])};{_join(entries[r:])})"


def _cell(value: object) -> str:
    """One TSV cell: None empty, booleans in lower case, {a, b} blocks as
    "a;b", entry lists joined by ",", places as "r,s:a;b" joined by spaces."""
    if isinstance(value, list):
        if value and isinstance(value[0], dict):
            return " ".join(f"{_cell(place['sig'])}:{_blocks(place)}" for place in value)
        return ",".join(map(str, value))
    if isinstance(value, dict):
        return _blocks(value)
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else str(value)
