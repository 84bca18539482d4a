"""The subcommands: each one's options, handler, TSV shape and pretty
template, and the command-line text they share: weights, parameters,
signatures and places read from the arguments, record values written.

A handler returns a Result whose record is the JSON document; the pretty
template reads the record.

Weight syntax: comma-separated entries, each "p" or "p/2" with odd p, p
an optional sign and ASCII digits. Blocks are separated by ";" or by "/"
between two entries; a token "p/2" with odd integer p always reads as the
half-integral entry (also "p/+2" or "p/02": the 2 is read as an integer),
so "1,1/2" is the mixed-coset weight (1, 1/2), not a block split, while
"5,3/0" is the blocks (5,3),(0). Use ";" when a "/" boundary would be
ambiguous. `doubled_from_str` reads each token to its doubled int, and
entries stay doubled up to the record's text.
"""

from __future__ import annotations

import warnings
from collections import namedtuple
from collections.abc import Iterator, Sequence
from math import comb
from types import SimpleNamespace

from .branching import branch, weyl_dim
from .cartan import (_INTEGER, _SIGNATURE, Signature, Weight, doubled_from_str, doubled_text,
                     doubled_to_str, weight_to_strings)
from .descent import (_OFF_SPACING, PlacedParameter, RestrictedParameter,
                      _dual_min_entry_in_a_everywhere, classify_restriction, descent_chain,
                      isomorphism_fraction, min_entry_in_a,
                      noncompact_support_matches, restrict_parameter,
                      restriction_is_discrete_series, well_spaced_everywhere)
from .minimal_ktype import _diagnostics, _doubled_margin, minimal_ktype_test
from .packets import (HCParameter, InfinitesimalCharacter, PacketMember, degree,
                      enumerate_packet, infinitesimal_character)

# No public names: `lpackets.cli` is this module's one caller.
__all__ = []


def _parse_weight(text: str) -> tuple[Weight, list[list[int]] | None]:
    """(weight, blocks of doubled entries), blocks None when no separator
    appeared. Mixed half-integrality is rejected by Weight itself."""
    if text.strip() == "":
        raise ValueError("empty weight")
    blocks: list[list[int]] = []
    for segment in text.split(";"):
        current: list[int] = []
        for field in segment.split(",") if segment.strip() else ():
            left, slash, right = field.strip().partition("/")
            doubled = doubled_from_str(left)
            # "p/2" with odd p, whose p doubled is 2 mod 4, is one entry; its
            # denominator is read as doubled_from_str reads one, so "5/+2" is 5/2.
            den = slash and doubled % 4 == 2 and _INTEGER.fullmatch(right)
            if slash and not (den and int(den[1]) == 2):
                blocks.append([*current, doubled])
                current = [doubled_from_str(right)]
            else:
                current.append(doubled // 2 if slash else doubled)
        blocks.append(current)
    weight = Weight.from_doubled(x for block in blocks for x in block)
    return weight, blocks if len(blocks) > 1 else None


def parse_signature(text: str) -> Signature:
    match = _SIGNATURE.fullmatch(text)
    if not match:
        raise ValueError(f"bad signature {text!r}: expected r,s")
    return Signature(int(match[1]), int(match[2]))


def _check_shape(weight: Weight, blocks: list[list[int]] | None, sig: Signature) -> None:
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
    weight, blocks = _parse_weight(text)
    _check_shape(weight, blocks, sig)
    return HCParameter.from_doubled(weight.doubled[: sig.r], weight.doubled[sig.r:])


def _unblocked(text: str, name: str) -> Weight:
    """A weight given without block split; name is how errors refer to it."""
    weight, blocks = _parse_weight(text)
    if blocks is not None:
        raise ValueError(f"{name} takes no block split")
    return weight


def _place_ic(text: str, sig: Signature, place: str | None) -> InfinitesimalCharacter:
    name = "--hw" if place is None else f"bad place {place!r}: highest weight"
    weight = _unblocked(text, name)
    _check_shape(weight, None, sig)
    return infinitesimal_character(weight)


def _collect_places(args: SimpleNamespace, option: str,
                    what: str) -> Iterator[tuple[Signature, str, str | None]]:
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


# Record values as text: a parameter's blocks for the record, then cells
# and pretty text from the record's strings, ints and booleans.

def _blocks_json(blocks: HCParameter | RestrictedParameter) -> dict:
    """The doubled_a and doubled_b blocks of a parameter as entry strings."""
    return {"a": [doubled_to_str(d) for d in blocks.doubled_a],
            "b": [doubled_to_str(d) for d in blocks.doubled_b]}


def _split(entries: Sequence[str], r: int) -> str:
    """A weight's entries as blocks of sizes r and n - r, in parentheses."""
    return f"({_cell(entries[:r])};{_cell(entries[r:])})"


def _cell(value: object) -> str:
    """One TSV cell: None empty, booleans in lower case, {a, b} blocks as
    "a;b", entry lists joined by ",", places as "r,s:a;b" joined by spaces."""
    if isinstance(value, list):
        if value and isinstance(value[0], dict):
            return " ".join(f"{_cell(place['sig'])}:{_cell(place)}" for place in value)
        return ",".join(map(str, value))
    if isinstance(value, dict):
        return f"{_cell(value['a'])};{_cell(value['b'])}"
    if isinstance(value, bool):
        return str(value).lower()
    return "" if value is None else str(value)


def _spacing(spaced: bool) -> list[str]:
    return [] if spaced else [_OFF_SPACING]


class Result(namedtuple("Result", ("record", "violations", "extra"), defaults=((), {}))):
    """What a subcommand computed: its record (the JSON document), the
    hypothesis violations to warn about (a sequence of str), and the
    pretty-only fields that the record does not carry (a mapping)."""

    __slots__ = ()


_YES = {True: "yes", False: "no"}


def _cmd_packet(args: SimpleNamespace) -> Result:
    sig = parse_signature(args.sig)
    ic = _place_ic(args.hw, sig, None)
    return Result([{**_blocks_json(m.hc), **_member_row(m)} for m in enumerate_packet(ic, sig)])


def _member_row(member: PacketMember, **index: int) -> dict:
    """A member's fields in packet and analyze records, index among them."""
    return {"degree": member.degree, "length": member.length, **index,
            "blattner": weight_to_strings(member.blattner),
            "coherent": weight_to_strings(member.coherent)}


def _pretty_packet(members: list) -> Iterator[str]:
    # Member 0 is (top r entries; the rest): a + b is the decreasing character.
    a, b = members[0]["a"], members[0]["b"]
    yield (f"packet for sig ({len(a)},{len(b)}), infinitesimal character "
           f"({_cell(a + b)}): {len(members)} members")
    for k, m in enumerate(members):
        yield (f"  {k}. ({_cell(m)}) degree={m['degree']} length={m['length']} "
               f"blattner={_split(m['blattner'], len(a))} "
               f"coherent={_split(m['coherent'], len(a))}")


def _cmd_sr(args: SimpleNamespace) -> Result:
    sig = parse_signature(args.sig)
    weight, blocks = _parse_weight(args.ktype)
    _check_shape(weight, blocks, sig)
    verdict = minimal_ktype_test(weight, sig)
    shifted = verdict.mu_shifted.doubled
    # The verdict's diagnostics, computed once for the whole record.
    parabolic = _diagnostics(shifted)
    margin = _doubled_margin(shifted)
    margin_text = doubled_to_str(margin) if margin is not None else None
    violations = ([f"shifted weight margin {margin_text} is below --margin {args.margin}"]
                  if margin is not None and margin < 2 * args.margin else [])
    return Result({
        "accepted": verdict.accepted,
        "borel_ok": parabolic.borel_ok,
        "positivity_ok": parabolic.positivity_ok,
        "hc": _blocks_json(verdict.hc) if verdict.hc is not None else None,
        "hc_double_shift": list(map(doubled_to_str, parabolic.doubled_double_shift)),
        "mu_shifted": weight_to_strings(verdict.mu_shifted),
        "margin": margin_text,
    }, violations, {"root_sum": doubled_text(parabolic.doubled_two_rho_u),
                    "roots": parabolic.root_count})


def _pretty_sr(rec: dict, root_sum: str, roots: int) -> Iterator[str]:
    if rec["accepted"]:
        yield f"PASS with hc ({_cell(rec['hc'])})"
    elif not rec["borel_ok"]:
        yield "FAIL: shifted weight is singular (parabolic is not a Borel)"
    else:  # accepted is borel_ok and positivity_ok
        yield "FAIL: positivity against the parabolic root sum fails"
    yield f"  shifted weight: ({_cell(rec['mu_shifted'])})"
    yield f"  parabolic root sum: ({root_sum}) over {roots} roots"
    yield f"  full-shift diagnostic: ({_cell(rec['hc_double_shift'])})"
    if rec["margin"] is not None:
        yield f"  margin: {rec['margin']}"


def _cmd_branch(args: SimpleNamespace) -> Result:
    weight = _unblocked(args.hw, "--hw")
    constituents = branch(weight)
    dim = weyl_dim(weight)
    # Restriction keeps the dimension, so the constituent dims always sum to
    # dim; kept as the golden corpus, CI and bench/workloads.py read it. The
    # tests check the sum itself.
    return Result({
        "upper": weight_to_strings(weight),
        "count": len(constituents),
        "dim": dim,
        "dim_sum": dim,
        "constituents": [
            {"lower": weight_to_strings(c.lower), "u1": doubled_to_str(c.doubled_u1)}
            for c in constituents],
    })


def _pretty_branch(rec: dict) -> Iterator[str]:
    yield (f"{rec['count']} constituents; "
           f"dim {rec['dim']}, constituent dims sum to {rec['dim_sum']}: OK")
    for c in rec["constituents"]:
        yield f"  ({_cell(c['lower'])}) u1={c['u1']}"


def _cmd_restrict(args: SimpleNamespace) -> Result:
    sig = parse_signature(args.sig)
    hc = parse_hc(args.hcp, sig)
    spaced = well_spaced_everywhere(PlacedParameter([(sig, hc)]))
    rp = restrict_parameter(sig, hc)
    return Result({
        "sig": [sig.r, sig.s],
        "prime": _blocks_json(rp),
        "u1": doubled_to_str(rp.doubled_u1),
        "discrete_series": restriction_is_discrete_series(rp, sig.n),
        "min_in_a": min_entry_in_a(hc),
        "support_matches": noncompact_support_matches(sig, hc, rp),
        "well_spaced": spaced,
    }, _spacing(spaced))


def _pretty_restrict(rec: dict) -> Iterator[str]:
    r, s = rec["sig"]
    # U(1,0) descends to U(0): there is no signature (0,0).
    base = "the trivial group U(0)" if r + s == 1 else f"sig ({r - 1},{s})"
    yield f"restricted parameter ({_cell(rec['prime'])}) for {base}, u1={rec['u1']}"
    yield f"  names a discrete series: {_YES[rec['discrete_series']]}"
    yield f"  minimum entry in a-block: {_YES[rec['min_in_a']]}"
    yield f"  noncompact support preserved: {_YES[rec['support_matches']]}"


def _cmd_chain(args: SimpleNamespace) -> Result:
    p = PlacedParameter((sig, parse_hc(text, sig))
                        for sig, text, _ in _collect_places(args, "hcp", "parameter"))
    violations = _spacing(well_spaced_everywhere(p))
    # The only warning left is a stop at a singular descended parameter.
    with warnings.catch_warnings(record=True) as stops:
        warnings.simplefilter("always")
        steps = descent_chain(p, args.depth, warn=False)
    # Each later step classifies the parameter the step before descended to.
    violations += [f"level {step.level}: {_OFF_SPACING}"
                   for before, step in zip(steps, steps[1:])
                   if not well_spaced_everywhere(before.parameter)]
    violations += [str(stop.message) for stop in stops]
    return Result([
        {"level": step.level,
         "places": [{"sig": [sig.r, sig.s], **_blocks_json(hc)}
                    for sig, hc in step.parameter.places],
         "u1": [doubled_to_str(u) for u in step.doubled_u1],
         "class": step.classification.value,
         "dual_min_in_a": step.dual_min_in_a}
        for step in steps], violations, {"stopped": bool(stops)})


def _pretty_chain(steps: list, stopped: bool) -> Iterator[str]:
    if not steps:
        yield ("empty chain (the first descended parameter is singular)" if stopped
               else "empty chain (nothing to descend)")
    for step in steps:
        places = " ".join(f"({_cell(place)})@({_cell(place['sig'])})"
                          for place in step["places"])
        yield (f"level {step['level']}: class={step['class']} "
               f"dual_min_in_a={_cell(step['dual_min_in_a'])} "
               f"u1=[{_cell(step['u1'])}] {places}")


def _cmd_fraction(args: SimpleNamespace) -> Result:
    places = [(sig, _place_ic(text, sig, place))
              for sig, text, place in _collect_places(args, "hw", "highest-weight")]
    fraction = str(isomorphism_fraction(places))
    # Always equal; kept as the golden corpus, CI and bench/workloads.py read them.
    return Result({"fraction": fraction, "expected": fraction, "match": True})


def _pretty_fraction(rec: dict) -> Iterator[str]:
    yield f"{rec['fraction']} (expected {rec['expected']}: OK)"


def _member_data(hc: HCParameter) -> dict:
    """A parameter's data as a member of its packet, without the packet.
    Its index in `enumerate_packet`'s colex order is the sum of
    C(i_k - 1, k) over the 1-based positions i_1 < ... < i_r of its
    a-entries in the decreasing infinitesimal character, the first r
    letters of its shuffle word."""
    member = PacketMember(hc, degree(hc))
    return _member_row(member, packet_index=sum(
        comb(i - 1, k) for k, i in enumerate(member.shuffle_word[:hc.r], 1)))


def _cmd_analyze(args: SimpleNamespace) -> Result:
    p = PlacedParameter((sig, parse_hc(text, sig))
                        for sig, text, _ in _collect_places(args, "hcp", "parameter"))
    if any(sig.r < 1 for sig, _ in p.places):
        raise ValueError("analysis needs r >= 1 at every place")
    spaced = well_spaced_everywhere(p)
    places = []
    for sig, hc in p.places:
        rp = restrict_parameter(sig, hc)
        places.append({"sig": [sig.r, sig.s], **_blocks_json(hc), **_member_data(hc),
                       "restricted": _blocks_json(rp),
                       "u1": doubled_to_str(rp.doubled_u1)})
    return Result({"places": places,
                   "class": classify_restriction(p, warn=False).value,
                   "dual_min_in_a": _dual_min_entry_in_a_everywhere(p),
                   "well_spaced": spaced}, _spacing(spaced))


def _pretty_analyze(rec: dict) -> Iterator[str]:
    for place in rec["places"]:
        r, s = place["sig"]
        yield f"place ({r},{s}): ({_cell(place)})"
        yield (f"  packet index {place['packet_index']}, degree {place['degree']}, "
               f"length {place['length']}")
        yield (f"  blattner {_split(place['blattner'], r)}, "
               f"coherent {_split(place['coherent'], r)}")
        yield f"  restricted ({_cell(place['restricted'])}), u1={place['u1']}"
    yield f"class: {rec['class']}"
    yield f"dual satisfies minimum condition: {_cell(rec['dual_min_in_a'])}"
    yield f"well spaced: {_cell(rec['well_spaced'])}"


# The option table, one entry per subcommand.

_SIG = ("--sig", {"required": True, "help": "signature r,s"})
_PLACE_SIG = ("--sig", {"help": "signature r,s (single place)"})
_PLACE_HCP = ("--hcp", {"help": "parameter a-block/b-block (single place)"})
_PLACES_HC = ("--place", {"action": "append", "default": [],
                          "help": 'place "r,s:a-block/b-block" (repeatable)'})
_COMMON = (("--format", {"choices": ("pretty", "json", "tsv"), "default": "pretty",
                         "help": "output format"}),
           ("--strict", {"action": "store_true",
                         "help": "exit 3 on hypothesis violations instead of warning"}))


class _Command(namedtuple("_Command", ("help", "options", "run", "pretty", "columns", "rows",
                                        "keys"), defaults=((), None, ()))):
    """A subcommand: its help and options, the handler that computes its
    Result, the pretty template, and its TSV shape: the columns of the
    table over rows(record) (default: the record is the list of rows),
    then key/value lines for keys."""

    __slots__ = ()


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
