"""Command line interface.

Subcommands: packet, sr, branch, restrict, chain, fraction, analyze.
Formats: pretty (default), json, tsv. Exit codes: 0 success, 2 invalid
input, 3 hypothesis violation under --strict.

Weight syntax: comma-separated entries, each "p" or "p/2" with odd p.
Blocks are separated by ";" or by "/" between two entries; a token "p/2"
with odd integer p always reads as the half-integral entry, so "1,1/2"
is the mixed-coset weight (1, 1/2), not a block split, while "5,3/0" is
the blocks (5,3),(0). Use ";" when a "/" boundary would be ambiguous.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .branching import branch, weyl_dim
from .cartan import (
    Weight,
    doubled_text,
    doubled_to_str,
    entry_from_str,
    entry_to_str,
    weight_to_strings,
)
from .descent import (
    PlacedParameter,
    RestrictionClass,
    descent_chain,
    expected_fraction,
    isomorphism_fraction,
    min_entry_in_a,
    min_entry_in_a_everywhere,
    noncompact_support_matches,
    restrict_parameter,
    restriction_is_discrete_series,
    well_spaced_everywhere,
)
from .minimal_ktype import minimal_ktype_test, regularity_margin, theta_parabolic
from .packets import (
    HCParameter,
    InfinitesimalCharacter,
    enumerate_packet,
    infinitesimal_character,
)
from .roots import Signature

__all__ = ["main", "console_main", "parse_weight", "format_weight"]

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
    split_seen = False
    current: list[Fraction] = []
    segments = text.split(";")
    for seg_index, segment in enumerate(segments):
        if segment.strip() == "":
            if len(segments) == 1:
                raise ValueError("empty weight")
        else:
            for field in segment.split(","):
                field = field.strip()
                if "/" in field:
                    left, _, right = field.partition("/")
                    if right == "2" and _is_odd_int(left):
                        current.append(Fraction(int(left), 2))
                    else:
                        current.append(entry_from_str(left))
                        blocks.append(tuple(current))
                        split_seen = True
                        current = [entry_from_str(right)]
                else:
                    current.append(entry_from_str(field))
        if seg_index < len(segments) - 1:
            blocks.append(tuple(current))
            split_seen = True
            current = []
    blocks.append(tuple(current))
    weight = Weight(x for block in blocks for x in block)
    return weight, blocks if split_seen else None


def format_weight(weight: Weight, sig: Optional[Signature] = None) -> str:
    """Inverse of parse_weight; uses ";" for the block separator."""
    if sig is None:
        return doubled_text(weight.doubled)
    if len(weight) != sig.n:
        raise ValueError("dimension mismatch")
    return _fmt_blocks(weight.doubled[: sig.r], weight.doubled[sig.r:])


def _fmt_blocks(a: Sequence[int], b: Sequence[int]) -> str:
    """Doubled blocks as "a;b"."""
    return f"{doubled_text(a)};{doubled_text(b)}"


def _fmt_hc(hc: HCParameter) -> str:
    return f"({_fmt_blocks(hc.doubled_a, hc.doubled_b)})"


def _fmt_blocked(weight: Weight, sig: Signature) -> str:
    return f"({format_weight(weight, sig)})"


def parse_signature(text: str) -> Signature:
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"bad signature {text!r}: expected r,s")
    try:
        r, s = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError(f"bad signature {text!r}: expected r,s") from None
    return Signature(r, s)


def _blocks_for_sig(weight: Weight, blocks: Optional[Blocks],
                    sig: Signature) -> HCParameter:
    if len(weight) != sig.n:
        raise ValueError(
            f"weight has {len(weight)} entries, signature {sig.r},{sig.s} needs {sig.n}")
    if blocks is not None:
        sizes = tuple(len(b) for b in blocks)
        if sizes != (sig.r, sig.s):
            raise ValueError(
                f"block sizes {sizes} do not match signature ({sig.r},{sig.s})")
    return HCParameter.from_doubled(weight.doubled[: sig.r], weight.doubled[sig.r:])


def parse_hc(text: str, sig: Signature) -> HCParameter:
    weight, blocks = parse_weight(text)
    return _blocks_for_sig(weight, blocks, sig)


def parse_place_hc(text: str) -> tuple[Signature, HCParameter]:
    head, sep, payload = text.partition(":")
    if not sep:
        raise ValueError(f"bad place {text!r}: expected r,s:parameter")
    sig = parse_signature(head)
    return sig, parse_hc(payload, sig)


def parse_place_hw(text: str) -> tuple[Signature, InfinitesimalCharacter]:
    head, sep, payload = text.partition(":")
    if not sep:
        raise ValueError(f"bad place {text!r}: expected r,s:highest-weight")
    sig = parse_signature(head)
    weight, blocks = parse_weight(payload)
    if blocks is not None:
        raise ValueError(f"bad place {text!r}: highest weight takes no block split")
    return sig, infinitesimal_character(weight)


def _blocks_json(a: Sequence[int], b: Sequence[int]) -> dict:
    return {"a": [doubled_to_str(d) for d in a], "b": [doubled_to_str(d) for d in b]}


def _hc_json(hc: HCParameter) -> dict:
    return _blocks_json(hc.doubled_a, hc.doubled_b)


def _emit_json(obj: object) -> None:
    print(json.dumps(obj, indent=2))


def _finish(args: argparse.Namespace, violations: list[str],
            emit: Callable[[], None]) -> int:
    for violation in violations:
        print(f"warning: {violation}", file=sys.stderr)
    if violations and getattr(args, "strict", False):
        print("error: hypothesis violation under --strict", file=sys.stderr)
        return 3
    emit()
    return 0


# packet

def _cmd_packet(args: argparse.Namespace) -> int:
    sig = parse_signature(args.sig)
    weight, blocks = parse_weight(args.hw)
    if blocks is not None:
        raise ValueError("--hw takes no block split")
    ic = infinitesimal_character(weight)
    members = enumerate_packet(ic, sig)

    def emit() -> None:
        if args.format == "json":
            _emit_json([
                {**_hc_json(m.hc),
                 "degree": m.degree,
                 "length": m.length,
                 "blattner": weight_to_strings(m.blattner),
                 "coherent": weight_to_strings(m.coherent)}
                for m in members])
        elif args.format == "tsv":
            print("a\tb\tdegree\tlength\tblattner\tcoherent")
            for m in members:
                print("\t".join([
                    doubled_text(m.hc.doubled_a),
                    doubled_text(m.hc.doubled_b),
                    str(m.degree),
                    str(m.length),
                    format_weight(m.blattner),
                    format_weight(m.coherent),
                ]))
        else:
            print(f"packet for sig ({sig.r},{sig.s}), "
                  f"infinitesimal character ({format_weight(ic.weight)}): "
                  f"{len(members)} members")
            for k, m in enumerate(members):
                print(f"  {k}. {_fmt_hc(m.hc)} degree={m.degree} "
                      f"length={m.length} "
                      f"blattner={_fmt_blocked(m.blattner, sig)} "
                      f"coherent={_fmt_blocked(m.coherent, sig)}")

    return _finish(args, [], emit)


# sr

def _cmd_sr(args: argparse.Namespace) -> int:
    sig = parse_signature(args.sig)
    weight, blocks = parse_weight(args.ktype)
    if blocks is not None:
        sizes = tuple(len(b) for b in blocks)
        if sizes != (sig.r, sig.s):
            raise ValueError(
                f"block sizes {sizes} do not match signature ({sig.r},{sig.s})")
    verdict = minimal_ktype_test(weight, sig)
    margin = regularity_margin(verdict.mu_shifted)

    violations = []
    if margin is not None and margin < args.margin:
        violations.append(
            f"shifted weight margin {margin} is below --margin {args.margin}")

    if verdict.accepted:
        summary = f"PASS with hc {_fmt_hc(verdict.hc)}"
    elif not verdict.borel_ok:
        summary = "FAIL: shifted weight is singular (parabolic is not a Borel)"
    elif not verdict.positivity_ok:
        summary = "FAIL: positivity against the parabolic root sum fails"
    else:
        summary = "FAIL: recovered parameter is singular"

    def emit() -> None:
        if args.format == "json":
            _emit_json({
                "accepted": verdict.accepted,
                "borel_ok": verdict.borel_ok,
                "positivity_ok": verdict.positivity_ok,
                "hc": _hc_json(verdict.hc) if verdict.hc is not None else None,
                "hc_double_shift": weight_to_strings(verdict.hc_double_shift),
                "mu_shifted": weight_to_strings(verdict.mu_shifted),
                "margin": entry_to_str(margin) if margin is not None else None,
            })
        elif args.format == "tsv":
            rows = [
                ("accepted", str(verdict.accepted).lower()),
                ("borel_ok", str(verdict.borel_ok).lower()),
                ("positivity_ok", str(verdict.positivity_ok).lower()),
                ("hc", format_weight(verdict.hc.weight, sig)
                 if verdict.hc is not None else ""),
                ("hc_double_shift", format_weight(verdict.hc_double_shift)),
                ("mu_shifted", format_weight(verdict.mu_shifted)),
                ("margin", entry_to_str(margin) if margin is not None else ""),
            ]
            for key, value in rows:
                print(f"{key}\t{value}")
        else:
            print(summary)
            print(f"  shifted weight: ({format_weight(verdict.mu_shifted)})")
            parabolic = theta_parabolic(verdict.mu_shifted)
            print(f"  parabolic root sum: ({format_weight(parabolic.two_rho_u)})"
                  f" over {len(parabolic.delta_u)} roots")
            print(f"  full-shift diagnostic: "
                  f"({format_weight(verdict.hc_double_shift)})")
            if margin is not None:
                print(f"  margin: {entry_to_str(margin)}")

    return _finish(args, violations, emit)


# branch

def _cmd_branch(args: argparse.Namespace) -> int:
    weight, blocks = parse_weight(args.hw)
    if blocks is not None:
        raise ValueError("--hw takes no block split")
    constituents = branch(weight)
    dim_upper = weyl_dim(weight)
    dim_sum = sum(weyl_dim(c.lower) for c in constituents)

    def emit() -> None:
        if args.format == "json":
            _emit_json({
                "upper": weight_to_strings(weight),
                "count": len(constituents),
                "dim": dim_upper,
                "dim_sum": dim_sum,
                "constituents": [
                    {"lower": weight_to_strings(c.lower), "u1": doubled_to_str(c.doubled_u1)}
                    for c in constituents],
            })
        elif args.format == "tsv":
            print("lower\tu1")
            for c in constituents:
                print(f"{format_weight(c.lower)}\t{doubled_to_str(c.doubled_u1)}")
        else:
            check = "OK" if dim_sum == dim_upper else "MISMATCH"
            print(f"{len(constituents)} constituents; "
                  f"dim {dim_upper}, constituent dims sum to {dim_sum}: {check}")
            for c in constituents:
                print(f"  ({format_weight(c.lower)}) u1={doubled_to_str(c.doubled_u1)}")

    return _finish(args, [], emit)


# restrict

def _cmd_restrict(args: argparse.Namespace) -> int:
    sig = parse_signature(args.sig)
    hc = parse_hc(args.hcp, sig)
    p = PlacedParameter([(sig, hc)])
    rp = restrict_parameter(sig, hc)
    discrete = restriction_is_discrete_series(rp, sig.n)
    min_in_a = min_entry_in_a(hc)
    support = noncompact_support_matches(sig, hc, rp)
    spaced = well_spaced_everywhere(p)

    violations = []
    if not spaced:
        violations.append("parameter is outside the spacing hypothesis "
                          "(a consecutive gap is below 2)")

    def emit() -> None:
        if args.format == "json":
            _emit_json({
                "sig": [sig.r, sig.s],
                "prime": _blocks_json(rp.doubled_a, rp.doubled_b),
                "u1": doubled_to_str(rp.doubled_u1),
                "discrete_series": discrete,
                "min_in_a": min_in_a,
                "support_matches": support,
                "well_spaced": spaced,
            })
        elif args.format == "tsv":
            rows = [
                ("prime", _fmt_blocks(rp.doubled_a, rp.doubled_b)),
                ("u1", doubled_to_str(rp.doubled_u1)),
                ("discrete_series", str(discrete).lower()),
                ("min_in_a", str(min_in_a).lower()),
                ("support_matches", str(support).lower()),
                ("well_spaced", str(spaced).lower()),
            ]
            for key, value in rows:
                print(f"{key}\t{value}")
        else:
            # U(1,0) descends to U(0): there is no signature (0,0).
            base = ("the trivial group U(0)" if sig.n == 1
                    else f"sig ({sig.r - 1},{sig.s})")
            print(f"restricted parameter ({_fmt_blocks(rp.doubled_a, rp.doubled_b)}) "
                  f"for {base}, u1={doubled_to_str(rp.doubled_u1)}")
            print(f"  names a discrete series: {'yes' if discrete else 'no'}")
            print(f"  minimum entry in a-block: {'yes' if min_in_a else 'no'}")
            print(f"  noncompact support preserved: {'yes' if support else 'no'}")

    return _finish(args, violations, emit)


# chain

def _collect_places_hc(args: argparse.Namespace) -> PlacedParameter:
    places: list[tuple[Signature, HCParameter]] = []
    if args.place:
        for text in args.place:
            places.append(parse_place_hc(text))
    if args.sig or args.hcp:
        if not (args.sig and args.hcp):
            raise ValueError("--sig and --hcp must be given together")
        sig = parse_signature(args.sig)
        places.append((sig, parse_hc(args.hcp, sig)))
    if not places:
        raise ValueError("give --place entries or --sig with --hcp")
    return PlacedParameter(places)


def _chain_json(steps) -> list[dict]:
    return [
        {"level": step.level,
         "places": [{"sig": [sig.r, sig.s], **_hc_json(hc)}
                    for sig, hc in step.parameter.places],
         "u1": [entry_to_str(u) for u in step.u1_weights],
         "class": step.classification.value,
         "dual_min_in_a": step.dual_min_in_a}
        for step in steps]


def _cmd_chain(args: argparse.Namespace) -> int:
    p = _collect_places_hc(args)
    violations = []
    if not well_spaced_everywhere(p):
        violations.append("parameter is outside the spacing hypothesis "
                          "(a consecutive gap is below 2)")
    steps = descent_chain(p, args.depth, warn=False)

    def emit() -> None:
        if args.format == "json":
            _emit_json(_chain_json(steps))
        elif args.format == "tsv":
            print("level\tclass\tdual_min_in_a\tu1\tplaces")
            for step in steps:
                places = " ".join(
                    f"{sig.r},{sig.s}:{format_weight(hc.weight, sig)}"
                    for sig, hc in step.parameter.places)
                u1 = ",".join(entry_to_str(u) for u in step.u1_weights)
                print(f"{step.level}\t{step.classification.value}\t"
                      f"{str(step.dual_min_in_a).lower()}\t{u1}\t{places}")
        else:
            if not steps:
                print("empty chain (nothing to descend)")
            for step in steps:
                places = " ".join(
                    f"{_fmt_hc(hc)}@({sig.r},{sig.s})"
                    for sig, hc in step.parameter.places)
                u1 = ",".join(entry_to_str(u) for u in step.u1_weights)
                print(f"level {step.level}: class={step.classification.value} "
                      f"dual_min_in_a={str(step.dual_min_in_a).lower()} "
                      f"u1=[{u1}] {places}")

    return _finish(args, violations, emit)


# fraction

def _cmd_fraction(args: argparse.Namespace) -> int:
    places: list[tuple[Signature, InfinitesimalCharacter]] = []
    if args.place:
        for text in args.place:
            places.append(parse_place_hw(text))
    if args.sig or args.hw:
        if not (args.sig and args.hw):
            raise ValueError("--sig and --hw must be given together")
        sig = parse_signature(args.sig)
        weight, blocks = parse_weight(args.hw)
        if blocks is not None:
            raise ValueError("--hw takes no block split")
        places.append((sig, infinitesimal_character(weight)))
    if not places:
        raise ValueError("give --place entries or --sig with --hw")

    enumerated = isomorphism_fraction(places)
    expected = expected_fraction([sig for sig, _ in places])
    match = enumerated == expected

    def emit() -> None:
        if args.format == "json":
            _emit_json({"fraction": str(enumerated),
                        "expected": str(expected),
                        "match": match})
        elif args.format == "tsv":
            print("fraction\texpected\tmatch")
            print(f"{enumerated}\t{expected}\t{str(match).lower()}")
        else:
            status = "OK" if match else "MISMATCH"
            print(f"{enumerated} (expected {expected}: {status})")

    return _finish(args, [], emit)


# analyze

def _cmd_analyze(args: argparse.Namespace) -> int:
    p = _collect_places_hc(args)
    if any(sig.r < 1 for sig, _ in p.places):
        raise ValueError("analysis needs r >= 1 at every place")
    spaced = well_spaced_everywhere(p)
    violations = []
    if not spaced:
        violations.append("parameter is outside the spacing hypothesis "
                          "(a consecutive gap is below 2)")

    place_reports = []
    for sig, hc in p.places:
        ic = InfinitesimalCharacter(Weight.from_doubled(
            sorted(hc.doubled_a + hc.doubled_b, reverse=True)))
        packet = enumerate_packet(ic, sig)
        index = next(k for k, m in enumerate(packet) if m.hc == hc)
        member = packet[index]
        rp = restrict_parameter(sig, hc)
        place_reports.append((sig, hc, member, index, rp))

    classification = (RestrictionClass.ISOMORPHISM
                      if min_entry_in_a_everywhere(p) else RestrictionClass.ZERO)
    dual_flag = min_entry_in_a_everywhere(p.dual())

    def emit() -> None:
        if args.format == "json":
            _emit_json({
                "places": [
                    {"sig": [sig.r, sig.s],
                     **_hc_json(hc),
                     "degree": member.degree,
                     "length": member.length,
                     "packet_index": index,
                     "blattner": weight_to_strings(member.blattner),
                     "coherent": weight_to_strings(member.coherent),
                     "restricted": _blocks_json(rp.doubled_a, rp.doubled_b),
                     "u1": doubled_to_str(rp.doubled_u1)}
                    for sig, hc, member, index, rp in place_reports],
                "class": classification.value,
                "dual_min_in_a": dual_flag,
                "well_spaced": spaced,
            })
        elif args.format == "tsv":
            print("sig\tparameter\tdegree\tlength\tpacket_index\tblattner"
                  "\tcoherent\trestricted\tu1")
            for sig, hc, member, index, rp in place_reports:
                print("\t".join([
                    f"{sig.r},{sig.s}",
                    format_weight(hc.weight, sig),
                    str(member.degree),
                    str(member.length),
                    str(index),
                    format_weight(member.blattner),
                    format_weight(member.coherent),
                    _fmt_blocks(rp.doubled_a, rp.doubled_b),
                    doubled_to_str(rp.doubled_u1),
                ]))
            print(f"class\t{classification.value}")
            print(f"dual_min_in_a\t{str(dual_flag).lower()}")
            print(f"well_spaced\t{str(spaced).lower()}")
        else:
            for sig, hc, member, index, rp in place_reports:
                print(f"place ({sig.r},{sig.s}): {_fmt_hc(hc)}")
                print(f"  packet index {index}, degree {member.degree}, "
                      f"length {member.length}")
                print(f"  blattner {_fmt_blocked(member.blattner, sig)}, "
                      f"coherent {_fmt_blocked(member.coherent, sig)}")
                print(f"  restricted ({_fmt_blocks(rp.doubled_a, rp.doubled_b)}), "
                      f"u1={doubled_to_str(rp.doubled_u1)}")
            print(f"class: {classification.value}")
            print(f"dual satisfies minimum condition: "
                  f"{str(dual_flag).lower()}")
            print(f"well spaced: {str(spaced).lower()}")

    return _finish(args, violations, emit)


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--format", choices=("pretty", "json", "tsv"),
                     default="pretty", help="output format")
    sub.add_argument("--strict", action="store_true",
                     help="exit 3 on hypothesis violations instead of warning")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lpackets",
        description="Exact discrete-series packet combinatorics for U(r,s)")
    subs = parser.add_subparsers(dest="command", required=True)

    packet = subs.add_parser("packet", help="enumerate a packet")
    packet.add_argument("--sig", required=True, help="signature r,s")
    packet.add_argument("--hw", required=True, help="highest weight a_sigma")
    _add_common(packet)
    packet.set_defaults(handler=_cmd_packet)

    sr = subs.add_parser("sr", help="minimal K-type test")
    sr.add_argument("--sig", required=True, help="signature r,s")
    sr.add_argument("--ktype", required=True, help="K-highest weight mu")
    sr.add_argument("--margin", type=int, default=2,
                    help="required regularity margin of the shifted weight")
    _add_common(sr)
    sr.set_defaults(handler=_cmd_sr)

    branch_cmd = subs.add_parser("branch", help="restrict U(m) to U(m-1) x U(1)")
    branch_cmd.add_argument("--hw", required=True, help="dominant highest weight")
    _add_common(branch_cmd)
    branch_cmd.set_defaults(handler=_cmd_branch)

    restrict = subs.add_parser("restrict", help="descend one parameter")
    restrict.add_argument("--sig", required=True, help="signature r,s")
    restrict.add_argument("--hcp", required=True, help="parameter a-block/b-block")
    _add_common(restrict)
    restrict.set_defaults(handler=_cmd_restrict)

    chain = subs.add_parser("chain", help="iterated descent")
    chain.add_argument("--sig", help="signature r,s (single place)")
    chain.add_argument("--hcp", help="parameter a-block/b-block (single place)")
    chain.add_argument("--place", action="append", default=[],
                       help='place "r,s:a-block/b-block" (repeatable)')
    chain.add_argument("--depth", type=int, required=True,
                       help="number of descent steps (clamped to n-1)")
    _add_common(chain)
    chain.set_defaults(handler=_cmd_chain)

    fraction = subs.add_parser("fraction",
                               help="isomorphism fraction of a product packet")
    fraction.add_argument("--sig", help="signature r,s (single place)")
    fraction.add_argument("--hw", help="highest weight a_sigma (single place)")
    fraction.add_argument("--place", action="append", default=[],
                          help='place "r,s:highest-weight" (repeatable)')
    _add_common(fraction)
    fraction.set_defaults(handler=_cmd_fraction)

    analyze = subs.add_parser("analyze", help="full report for one parameter")
    analyze.add_argument("--sig", help="signature r,s (single place)")
    analyze.add_argument("--hcp", help="parameter a-block/b-block (single place)")
    analyze.add_argument("--place", action="append", default=[],
                         help='place "r,s:a-block/b-block" (repeatable)')
    _add_common(analyze)
    analyze.set_defaults(handler=_cmd_analyze)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    raise SystemExit(main())
