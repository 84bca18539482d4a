"""The subcommands: what each computes from its arguments, and its pretty
template.

A handler returns a Result whose record is the JSON document; the pretty
template reads the record.
"""

from __future__ import annotations

import argparse
import warnings
from math import comb
from typing import Iterator, Mapping, NamedTuple, Sequence

from .branching import branch, weyl_dim
from .cartan import doubled_text, doubled_to_str, entry_from_str, entry_to_str, weight_to_strings
from .descent import (_OFF_SPACING, PlacedParameter, _dual_min_entry_in_a_everywhere,
                      classify_restriction, descent_chain, expected_fraction,
                      isomorphism_fraction, min_entry_in_a, noncompact_support_matches,
                      restrict_parameter, restriction_is_discrete_series,
                      well_spaced_everywhere)
from .minimal_ktype import minimal_ktype_test, regularity_margin
from .packets import HCParameter, PacketMember, degree, enumerate_packet
from .syntax import (_blocks, _blocks_json, _cell, _check_shape, _collect_places, _join,
                     _place_ic, _split, _unblocked, parse_hc, parse_signature, parse_weight)


def _spacing(spaced: bool) -> list[str]:
    return [] if spaced else [_OFF_SPACING]


class Result(NamedTuple):
    """What a subcommand computed: its record (the JSON document), the
    hypothesis violations to warn about, and the pretty-only fields that
    the record does not carry."""

    record: object
    violations: Sequence[str] = ()
    extra: Mapping[str, object] = {}


_YES = {True: "yes", False: "no"}


def _cmd_packet(args: argparse.Namespace) -> Result:
    sig = parse_signature(args.sig)
    ic = _place_ic(args.hw, sig, None)
    return Result([{**_blocks_json(m.hc), "degree": m.degree, "length": m.length,
                    "blattner": weight_to_strings(m.blattner),
                    "coherent": weight_to_strings(m.coherent)}
                   for m in enumerate_packet(ic, sig)])


def _pretty_packet(members: list) -> Iterator[str]:
    a, b = members[0]["a"], members[0]["b"]
    ic = sorted(a + b, key=entry_from_str, reverse=True)
    yield (f"packet for sig ({len(a)},{len(b)}), infinitesimal character "
           f"({_join(ic)}): {len(members)} members")
    for k, m in enumerate(members):
        yield (f"  {k}. ({_blocks(m)}) degree={m['degree']} length={m['length']} "
               f"blattner={_split(m['blattner'], len(a))} "
               f"coherent={_split(m['coherent'], len(a))}")


def _cmd_sr(args: argparse.Namespace) -> Result:
    sig = parse_signature(args.sig)
    weight, blocks = parse_weight(args.ktype)
    _check_shape(weight, blocks, sig)
    verdict = minimal_ktype_test(weight, sig)
    margin = regularity_margin(verdict.mu_shifted)
    violations = ([f"shifted weight margin {margin} is below --margin {args.margin}"]
                  if margin is not None and margin < args.margin else [])
    return Result({
        "accepted": verdict.accepted,
        "borel_ok": verdict.borel_ok,
        "positivity_ok": verdict.positivity_ok,
        "hc": _blocks_json(verdict.hc) if verdict.hc is not None else None,
        "hc_double_shift": weight_to_strings(verdict.hc_double_shift),
        "mu_shifted": weight_to_strings(verdict.mu_shifted),
        "margin": entry_to_str(margin) if margin is not None else None,
    }, violations, {"root_sum": doubled_text(verdict.doubled_two_rho_u),
                    "roots": verdict.root_count})


def _pretty_sr(rec: dict, root_sum: str, roots: int) -> Iterator[str]:
    if rec["accepted"]:
        yield f"PASS with hc ({_blocks(rec['hc'])})"
    elif not rec["borel_ok"]:
        yield "FAIL: shifted weight is singular (parabolic is not a Borel)"
    elif not rec["positivity_ok"]:
        yield "FAIL: positivity against the parabolic root sum fails"
    else:
        yield "FAIL: recovered parameter is singular"
    yield f"  shifted weight: ({_join(rec['mu_shifted'])})"
    yield f"  parabolic root sum: ({root_sum}) over {roots} roots"
    yield f"  full-shift diagnostic: ({_join(rec['hc_double_shift'])})"
    if rec["margin"] is not None:
        yield f"  margin: {rec['margin']}"


def _cmd_branch(args: argparse.Namespace) -> Result:
    weight = _unblocked(args.hw, "--hw")
    constituents = branch(weight)
    return Result({
        "upper": weight_to_strings(weight),
        "count": len(constituents),
        "dim": weyl_dim(weight),
        "dim_sum": sum(weyl_dim(c.lower) for c in constituents),
        "constituents": [
            {"lower": weight_to_strings(c.lower), "u1": doubled_to_str(c.doubled_u1)}
            for c in constituents],
    })


def _pretty_branch(rec: dict) -> Iterator[str]:
    check = "OK" if rec["dim_sum"] == rec["dim"] else "MISMATCH"
    yield (f"{rec['count']} constituents; "
           f"dim {rec['dim']}, constituent dims sum to {rec['dim_sum']}: {check}")
    for c in rec["constituents"]:
        yield f"  ({_join(c['lower'])}) u1={c['u1']}"


def _cmd_restrict(args: argparse.Namespace) -> Result:
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
    yield f"restricted parameter ({_blocks(rec['prime'])}) for {base}, u1={rec['u1']}"
    yield f"  names a discrete series: {_YES[rec['discrete_series']]}"
    yield f"  minimum entry in a-block: {_YES[rec['min_in_a']]}"
    yield f"  noncompact support preserved: {_YES[rec['support_matches']]}"


def _cmd_chain(args: argparse.Namespace) -> Result:
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
         "u1": [entry_to_str(u) for u in step.u1_weights],
         "class": step.classification.value,
         "dual_min_in_a": step.dual_min_in_a}
        for step in steps], violations, {"stopped": bool(stops)})


def _pretty_chain(steps: list, stopped: bool) -> Iterator[str]:
    if not steps:
        yield ("empty chain (the first descended parameter is singular)" if stopped
               else "empty chain (nothing to descend)")
    for step in steps:
        places = " ".join(f"({_blocks(place)})@({_cell(place['sig'])})"
                          for place in step["places"])
        yield (f"level {step['level']}: class={step['class']} "
               f"dual_min_in_a={_cell(step['dual_min_in_a'])} "
               f"u1=[{_join(step['u1'])}] {places}")


def _cmd_fraction(args: argparse.Namespace) -> Result:
    places = [(sig, _place_ic(text, sig, place))
              for sig, text, place in _collect_places(args, "hw", "highest-weight")]
    fraction = isomorphism_fraction(places)
    expected = expected_fraction([sig for sig, _ in places])
    return Result({"fraction": str(fraction),
                   "expected": str(expected),
                   "match": fraction == expected})


def _pretty_fraction(rec: dict) -> Iterator[str]:
    status = "OK" if rec["match"] else "MISMATCH"
    yield f"{rec['fraction']} (expected {rec['expected']}: {status})"


def _member_data(hc: HCParameter) -> dict:
    """A parameter's data as a member of its packet, without the packet.
    Its index in `enumerate_packet`'s colex order is the sum of
    C(i_k - 1, k) over the 1-based positions i_1 < ... < i_r of its
    a-entries in the decreasing infinitesimal character, the first r
    letters of its shuffle word."""
    member = PacketMember(hc, degree(hc))
    return {"degree": member.degree, "length": member.length,
            "packet_index": sum(comb(i - 1, k)
                                for k, i in enumerate(member.shuffle_word[:hc.r], 1)),
            "blattner": weight_to_strings(member.blattner),
            "coherent": weight_to_strings(member.coherent)}


def _cmd_analyze(args: argparse.Namespace) -> Result:
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
        yield f"place ({r},{s}): ({_blocks(place)})"
        yield (f"  packet index {place['packet_index']}, degree {place['degree']}, "
               f"length {place['length']}")
        yield (f"  blattner {_split(place['blattner'], r)}, "
               f"coherent {_split(place['coherent'], r)}")
        yield f"  restricted ({_blocks(place['restricted'])}), u1={place['u1']}"
    yield f"class: {rec['class']}"
    yield f"dual satisfies minimum condition: {_cell(rec['dual_min_in_a'])}"
    yield f"well spaced: {_cell(rec['well_spaced'])}"
