import ast
import json
import os
import random
import sys
import warnings
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import test_minimal_ktype
from helpers import (all_signatures, format_weight, packet_sweep_characters, random_dominant,
                     random_ic, reference_minimal_ktype)

import lpackets.cli
import lpackets.commands
from lpackets import (PlacedParameter, Signature, Weight, descent_chain, enumerate_packet,
                      infinitesimal_character, minimal_ktype_test, weight_from_strings,
                      weight_to_strings, well_spaced_everywhere)
from lpackets.cartan import doubled_text
from lpackets.cli import _json, _parse, _read, build_parser, main
from lpackets.commands import _COMMANDS, _COMMON, _PLACES_HC, _member_data, _parse_weight


class TestParseWeight:
    # The weight syntax's parser gives each block as its doubled entries.

    def test_plain(self):
        weight, blocks = _parse_weight("5,2,-1")
        assert weight.entries == (5, 2, -1)
        assert blocks is None

    def test_semicolon_blocks(self):
        weight, blocks = _parse_weight("5,2;-1")
        assert weight.entries == (5, 2, -1)
        assert blocks == [[10, 4], [-2]]

    def test_slash_between_integers_rejected(self):
        # ";" is the one block separator: a "/" belongs to its entry.
        with pytest.raises(ValueError, match="^bad weight entry '3/0': denominator must be 2$"):
            _parse_weight("5,3/0")

    def test_odd_over_two_is_an_entry(self):
        weight, blocks = _parse_weight("9/2,5/2")
        assert weight.entries == (Fraction(9, 2), Fraction(5, 2))
        assert blocks is None

    def test_negative_half_entry(self):
        weight, blocks = _parse_weight("9/2,-1/2")
        assert weight.entries == (Fraction(9, 2), Fraction(-1, 2))
        assert blocks is None

    def test_even_over_two_rejected(self):
        with pytest.raises(ValueError, match="^bad weight entry '4/2': not in lowest terms$"):
            _parse_weight("4/2")

    def test_odd_over_other_rejected(self):
        with pytest.raises(ValueError, match="^bad weight entry '7/4': denominator must be 2$"):
            _parse_weight("7/4")

    def test_half_entries_with_semicolon(self):
        weight, blocks = _parse_weight("9/2;5/2")
        assert weight.entries == (Fraction(9, 2), Fraction(5, 2))
        assert blocks == [[9], [5]]

    def test_empty_trailing_block(self):
        weight, blocks = _parse_weight("4;")
        assert weight.entries == (4,)
        assert blocks == [[8], []]

    def test_empty_leading_block(self):
        weight, blocks = _parse_weight(";4,1")
        assert blocks == [[], [8, 2]]

    def test_mixed_coset_rejected(self):
        with pytest.raises(ValueError):
            _parse_weight("1,1/2")

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            _parse_weight("")
        with pytest.raises(ValueError):
            _parse_weight("  ")

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            _parse_weight("5,x")

    @pytest.mark.parametrize("command, flag", [
        ("packet", "--hw"), ("restrict", "--hcp"), ("sr", "--ktype")])
    @pytest.mark.parametrize("text, token, reason", [
        ("5,3/0", "3/0", "denominator must be 2"),
        ("4/2", "4/2", "not in lowest terms"),
        ("7/4", "7/4", "denominator must be 2"),
        ("5/1", "5/1", "denominator must be 2"),
        ("5,2/-1", "2/-1", "denominator must be 2"),
    ])
    def test_former_slash_split_names_the_token(self, command, flag, text, token, reason,
                                                 capsys):
        assert main([command, "--sig", "2,1", flag, text]) == 2
        assert capsys.readouterr() == ("", f"error: bad weight entry '{token}': {reason}\n")

    @pytest.mark.parametrize("argv", [
        ["branch", "--hw", "{}"],
        ["restrict", "--sig", "1,1", "--hcp", "{};1/2"],
    ], ids=["hw", "hcp"])
    @pytest.mark.parametrize("entry", ["5 / 2", "5/ 2", "5 /2", " 5/2 "])
    def test_spaced_half_entry_is_one_entry(self, argv, entry, capsys):
        # Spaces around the "/" of "p/2" with odd p are read within the entry.
        assert main([arg.format("5/2") for arg in argv]) == 0
        want = capsys.readouterr()
        assert main([arg.format(entry) for arg in argv]) == 0
        assert capsys.readouterr() == want

    @pytest.mark.parametrize("argv, entry", [
        (["branch", "--hw", "{}"], "5/+2"),
        (["branch", "--hw", "{}"], "5/02"),
        (["restrict", "--sig", "1,1", "--hcp", "{};1/2"], "5/+2"),
    ], ids=["hw-plus-two", "hw-zero-two", "hcp-plus-two"])
    def test_two_read_as_an_integer_is_one_entry(self, argv, entry, capsys):
        # The denominator is read as doubled_from_str reads it, so the weight
        # syntax and weight_from_strings agree that "5/+2" and "5/02" are 5/2.
        assert _parse_weight(entry) == (weight_from_strings([entry]), None)
        assert main([arg.format("5/2") for arg in argv]) == 0
        want = capsys.readouterr()
        assert main([arg.format(entry) for arg in argv]) == 0
        assert capsys.readouterr() == want


class TestFormatWeight:
    def test_plain(self):
        assert format_weight(Weight((5, 2, -1))) == "5,2,-1"

    def test_blocked(self):
        assert format_weight(Weight((5, 2, -1)), Signature(2, 1)) == "5,2;-1"

    def test_half_integral(self):
        got = format_weight(Weight((Fraction(9, 2), Fraction(5, 2))))
        assert got == "9/2,5/2"

    def test_round_trip(self):
        for text in ("5,2;-1", "9/2;5/2", "0;4,1"):
            weight, blocks = _parse_weight(text)
            sig = Signature(len(blocks[0]), len(blocks[1]))
            assert format_weight(weight, sig) == text

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            format_weight(Weight((1, 0)), Signature(2, 1))

    @given(st.lists(st.integers(-15, 15), min_size=1, max_size=7),
           st.integers(0, 1), st.data())
    def test_round_trip_property(self, halves, parity, data):
        weight = Weight.from_doubled(2 * h + parity for h in halves)
        r = data.draw(st.integers(0, len(weight)))
        text = format_weight(weight, Signature(r, len(weight) - r))
        parsed, blocks = _parse_weight(text)
        assert parsed == weight
        assert blocks == [list(weight.doubled[:r]), list(weight.doubled[r:])]
        assert _parse_weight(format_weight(weight)) == (weight, None)


class TestPacketCommand:
    def test_pretty(self, capsys):
        assert main(["packet", "--sig", "2,1", "--hw", "4,2,0"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "packet for sig (2,1), infinitesimal character (5,2,-1): 3 members\n"
            "  0. (5,2;-1) degree=2 length=0 blattner=(5,3;-2) coherent=(4,2;0)\n"
            "  1. (5,-1;2) degree=1 length=1 blattner=(5,-1;2) coherent=(4,-1;3)\n"
            "  2. (2,-1;5) degree=0 length=2 blattner=(1,-1;6) coherent=(1,-1;6)\n")

    def test_tsv(self, capsys):
        assert main(["packet", "--sig", "2,1", "--hw", "4,2,0",
                     "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "a\tb\tdegree\tlength\tblattner\tcoherent"
        assert [line.split("\t")[2] for line in lines[1:]] == ["2", "1", "0"]
        assert lines[3] == "2,-1\t5\t0\t2\t1,-1,6\t1,-1,6"

    def test_json(self, capsys):
        assert main(["packet", "--sig", "1,1", "--hw", "2,1",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0] == {"a": ["5/2"], "b": ["1/2"], "degree": 1, "length": 0,
                           "blattner": ["3", "0"], "coherent": ["2", "1"]}

    def test_block_split_rejected(self, capsys):
        assert main(["packet", "--sig", "2,1", "--hw", "4,2;0"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_pretty_header_over_every_signature(self, capsys):
        # The header reads the character off member 0's blocks.
        rng = random.Random(73)
        for n in range(1, 7):
            for sig in all_signatures(n):
                for parity in (0, 1):
                    hw = Weight.from_doubled(d + parity for d in random_dominant(rng, n).doubled)
                    assert main(["packet", "--sig", f"{sig.r},{sig.s}",
                                 "--hw", format_weight(hw)]) == 0
                    header = capsys.readouterr().out.splitlines()[0]
                    ic = format_weight(infinitesimal_character(hw).weight)
                    assert header == (f"packet for sig ({sig.r},{sig.s}), infinitesimal "
                                      f"character ({ic}): {comb(n, sig.r)} members")

    def test_deterministic(self, capsys):
        main(["packet", "--sig", "2,2", "--hw", "6,4,2,0"])
        first = capsys.readouterr().out
        main(["packet", "--sig", "2,2", "--hw", "6,4,2,0"])
        assert capsys.readouterr().out == first


class TestSRCommand:
    def test_pretty_pass(self, capsys):
        assert main(["sr", "--sig", "2,1", "--ktype", "5,3;0"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "PASS with hc (5,2;1)\n"
            "  shifted weight: (6,2,0)\n"
            "  margin: 2\n")

    def test_json_pass(self, capsys):
        assert main(["sr", "--sig", "2,1", "--ktype", "5,3;0",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"accepted": True, "hc": {"a": ["5", "2"], "b": ["1"]},
                        "mu_shifted": ["6", "2", "0"], "margin": "2"}

    def test_borel_failure(self, capsys):
        assert main(["sr", "--sig", "2,1", "--ktype", "3,3;0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("FAIL: shifted weight is singular")

    def test_positivity_failure(self, capsys):
        assert main(["sr", "--sig", "1,1", "--ktype", "1;0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("FAIL: positivity against the parabolic root sum")

    def test_margin_gate(self, capsys):
        # An accepted K-type's parameter is well spaced exactly when its
        # shifted weight has margin >= 3. (6,2,0) has margin 2, so its
        # parameter (5,2;1) is off spacing, and --strict exits 3 as
        # `restrict` does on that parameter.
        warning = ("warning: parameter is outside the spacing hypothesis "
                   "(a consecutive gap is below 2)\n")
        strict = "error: hypothesis violation under --strict\n"
        assert _outcome(capsys, ["sr", "--sig", "2,1", "--ktype", "5,3;0", "--strict"]) == (
            3, "", warning + strict)
        assert _outcome(capsys, ["restrict", "--sig", "2,1", "--hcp", "5,2;1", "--strict"]) == (
            3, "", warning + strict)
        # A rejection is an answer, not a violation: (4,4,0) has margin 0.
        code, out, err = _outcome(capsys, ["sr", "--sig", "2,1", "--ktype", "4,4;0", "--strict"])
        assert (code, err) == (0, "")
        assert out.startswith("FAIL: shifted weight is singular")
        assert "  margin: 0\n" in out
        # The gate has no knob: --margin is gone since 0.13.0.
        code, out, err = _outcome(capsys, ["sr", "--sig", "2,1", "--ktype", "5,3;0",
                                           "--margin", "3"])
        assert (code, out) == (2, "")
        assert err.endswith("error: unrecognized arguments: --margin 3\n")

    def test_block_size_mismatch(self, capsys):
        assert main(["sr", "--sig", "2,1", "--ktype", "5;3,0"]) == 2
        assert "block sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("n", range(1, 9))
    def test_record_matches_pair_route(self, n, capsys):
        # The record is the one route that writes the verdict as text.
        # Every tenth weight of the pair reference's sweep, against that
        # reference in plain Fractions; each rejected one's pretty first
        # line names the reason the reference's Borel flag gives, though
        # the command reads it off the margin.
        seen = {"accepted": 0, "borel_fail": 0, "positivity_fail": 0}
        checked = 0
        for k, (mu, sig) in enumerate(test_minimal_ktype.TestPairReference.sweep(n)):
            if k % 10:
                continue
            args = ["sr", f"--sig={sig.r},{sig.s}", f"--ktype={format_weight(mu, sig)}"]
            assert main([*args, "--format=json"]) == 0
            data = json.loads(capsys.readouterr().out)
            accepted, borel_ok, _, hc, _, shifted, _, _ = reference_minimal_ktype(mu, sig)
            entries = shifted.entries
            margin = min((abs(x - y) for i, x in enumerate(entries) for y in entries[i + 1:]),
                         default=None)
            assert data == {
                "accepted": accepted,
                "hc": None if hc is None else {"a": list(map(str, hc.a)),
                                               "b": list(map(str, hc.b))},
                "mu_shifted": list(map(str, entries)),
                "margin": None if margin is None else str(margin),
            }, (mu, sig)
            if not accepted:
                assert main(args) == 0
                reason = ("shifted weight is singular (parabolic is not a Borel)" if not borel_ok
                          else "positivity against the parabolic root sum fails")
                assert capsys.readouterr().out.splitlines()[0] == f"FAIL: {reason}", (mu, sig)
            seen["accepted"] += accepted
            seen["borel_fail"] += not borel_ok
            seen["positivity_fail"] += borel_ok and not accepted
            checked += 1
        assert checked >= 520
        if n >= 2:
            assert min(seen.values()) > 0, seen

    @staticmethod
    def sweep_tenths(n):
        """(sr argv, sig, recovered hc or None) of every tenth input of the
        pair reference's sweep."""
        for k, (mu, sig) in enumerate(test_minimal_ktype.TestPairReference.sweep(n)):
            if k % 10 == 0:
                yield (["sr", f"--sig={sig.r},{sig.s}", f"--ktype={format_weight(mu, sig)}"],
                       sig, minimal_ktype_test(mu, sig).hc)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_spacing_agrees_with_restrict(self, n, capsys):
        # An accepted K-type warns, and exits 3 under --strict, exactly when
        # its recovered parameter is off the spacing hypothesis, as
        # `restrict` on that parameter does.
        warning = ("warning: parameter is outside the spacing hypothesis "
                   "(a consecutive gap is below 2)\n")
        seen = {True: 0, False: 0}
        for argv, sig, hc in self.sweep_tenths(n):
            if hc is None:
                continue
            spaced = well_spaced_everywhere(PlacedParameter([(sig, hc)]))
            code, out, err = _outcome(capsys, argv)
            assert (code, err) == (0, "" if spaced else warning), argv
            assert _outcome(capsys, [*argv, "--strict"]) == (
                (0, out, "") if spaced
                else (3, "", warning + "error: hypothesis violation under --strict\n")), argv
            if sig.r >= 1:
                hcp = format_weight(Weight.from_doubled(hc.doubled_a + hc.doubled_b), sig)
                code, _, restrict_err = _outcome(
                    capsys, ["restrict", f"--sig={sig.r},{sig.s}", f"--hcp={hcp}"])
                assert (code, restrict_err) == (0, err), (argv, hcp)
            seen[spaced] += 1
        assert seen[True] > 0
        assert n == 1 or seen[False] > 0, seen

    @pytest.mark.parametrize("n", range(1, 9))
    def test_rejection_is_an_answer(self, n, capsys):
        # A rejected K-type is no hypothesis violation: --strict changes
        # neither its exit code nor a byte of its output.
        rejected = 0
        for argv, _, hc in self.sweep_tenths(n):
            if hc is not None:
                continue
            code, out, err = _outcome(capsys, argv)
            assert (code, err) == (0, ""), argv
            assert out.startswith("FAIL"), argv
            assert _outcome(capsys, [*argv, "--strict"]) == (0, out, ""), argv
            rejected += 1
        assert n == 1 or rejected > 0


class TestBranchCommand:
    def test_pretty(self, capsys):
        assert main(["branch", "--hw", "5,3"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "3 constituents; dim 3, constituent dims sum to 3: OK\n"
            "  (5) u1=3\n"
            "  (4) u1=4\n"
            "  (3) u1=5\n")

    def test_json(self, capsys):
        assert main(["branch", "--hw", "5,3", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["count"] == data["dim"] == data["dim_sum"] == 3
        assert data["constituents"][1] == {"lower": ["4"], "u1": "4"}

    def test_non_dominant_rejected(self, capsys):
        assert main(["branch", "--hw", "3,5"]) == 2
        assert "not non-increasing" in capsys.readouterr().err


class TestRestrictCommand:
    def test_pretty(self, capsys):
        assert main(["restrict", "--sig", "2,1", "--hcp", "5,2;-1"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "restricted parameter (9/2;-1/2) for sig (1,1), u1=2\n"
            "  names a discrete series: yes\n"
            "  minimum entry in a-block: no\n"
            "  noncompact support preserved: no\n")

    def test_json(self, capsys):
        assert main(["restrict", "--sig", "2,1", "--hcp", "5,-1;2",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {
            "sig": [2, 1],
            "prime": {"a": ["9/2"], "b": ["5/2"]},
            "u1": "-1",
            "discrete_series": True,
            "min_in_a": True,
            "support_matches": True,
            "well_spaced": True,
        }

    def test_off_hypothesis_warns(self, capsys):
        assert main(["restrict", "--sig", "2,1", "--hcp", "3,2;1"]) == 0
        captured = capsys.readouterr()
        assert "warning: parameter is outside the spacing hypothesis" in captured.err
        assert "restricted parameter (5/2;3/2)" in captured.out

    def test_rank_one_base_is_trivial_group(self, capsys):
        assert main(["restrict", "--sig", "1,0", "--hcp", "1;"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == (
            "restricted parameter (;) for the trivial group U(0), u1=1")
        assert "(0,0)" not in out

    def test_off_hypothesis_strict_exits_3(self, capsys):
        assert main(["restrict", "--sig", "2,1", "--hcp", "3,2;1",
                     "--strict"]) == 3
        captured = capsys.readouterr()
        assert "error: hypothesis violation under --strict" in captured.err
        assert captured.out == ""

    # min_in_a holds, but the shifted blocks collide, so the support route
    # disagrees; off the spacing hypothesis that is a warning, not an error.
    DIVERGENT_OUT = {
        "pretty": "restricted parameter (5/2;5/2) for sig (1,1), u1=1\n"
                  "  names a discrete series: no\n"
                  "  minimum entry in a-block: yes\n"
                  "  noncompact support preserved: no\n",
        "json": json.dumps({"sig": [2, 1], "prime": {"a": ["5/2"], "b": ["5/2"]},
                            "u1": "1", "discrete_series": False, "min_in_a": True,
                            "support_matches": False, "well_spaced": False},
                           indent=2) + "\n",
        "tsv": "prime\t5/2;5/2\nu1\t1\ndiscrete_series\tfalse\nmin_in_a\ttrue\n"
               "support_matches\tfalse\nwell_spaced\tfalse\n",
    }
    SPACING = ("warning: parameter is outside the spacing hypothesis"
               " (a consecutive gap is below 2)\n")

    @pytest.mark.parametrize("fmt", ["pretty", "json", "tsv"])
    def test_route_divergence(self, capsys, fmt):
        argv = ["restrict", "--sig", "2,1", "--hcp", "3,1;2", f"--format={fmt}"]
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (self.DIVERGENT_OUT[fmt], self.SPACING)
        assert main([*argv, "--strict"]) == 3
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", self.SPACING + "error: hypothesis violation under --strict\n")


@pytest.mark.parametrize("command", ["restrict", "chain", "analyze"])
def test_help_names_the_block_separator(capsys, command):
    # ";" is the one block separator; a "/" sits inside an entry (p/2).
    with pytest.raises(SystemExit) as exit_info:
        main([command, "-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert "a-block;b-block" in out
    assert "a-block/b-block" not in out


class TestChainCommand:
    def test_json_schema(self, capsys):
        assert main(["chain", "--sig", "2,1", "--hcp", "5,-1;2",
                     "--depth", "2", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert [step["class"] for step in data] == ["iso", "zero"]
        assert data[0] == {
            "level": 2,
            "places": [{"sig": [1, 1], "a": ["9/2"], "b": ["5/2"]}],
            "u1": ["-1"],
            "class": "iso",
            "dual_min_in_a": True,
        }
        assert data[1]["places"] == [{"sig": [0, 1], "a": [], "b": ["3"]}]
        assert data[1]["u1"] == ["4"]

    def test_zero_chain_dual_flag(self, capsys):
        assert main(["chain", "--sig", "2,1", "--hcp", "5,2;-1",
                     "--depth", "1", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data[0]["class"] == "zero"
        assert data[0]["dual_min_in_a"] is True

    def test_depth_clamped_empty(self, capsys):
        assert main(["chain", "--sig", "1,0", "--hcp", "4;",
                     "--depth", "5"]) == 0
        assert capsys.readouterr().out == "empty chain (nothing to descend)\n"

    def test_depth_help_names_the_r_bound(self, capsys):
        # The clamp to n-1 is not the only bound: a step at a place with
        # r = 0 exits 2, as the golden corpus pins for
        # `chain --sig 1,2 --hcp "5;2,-1" --depth 2`.
        with pytest.raises(SystemExit) as exit_info:
            main(["chain", "--help"])
        assert exit_info.value.code == 0
        text = " ".join(capsys.readouterr().out.split())
        assert "number of descent steps (clamped to n-1); each step needs r >= 1 at every place" \
            in text

    def test_depth_above_r_exits_before_any_step(self, capsys):
        # The second place's first descent collides, but two steps need
        # r >= 2 at the first place, so the request is invalid as a whole.
        assert main(["chain", "--place", "1,2:5;2,-1", "--place", "2,1:3,1;2",
                     "--depth", "2"]) == 2
        assert capsys.readouterr() == ("", "error: cannot descend a place with r = 0\n")

    def test_multi_place(self, capsys):
        assert main(["chain", "--place", "2,1:5,-1;2", "--place", "2,1:7,0;4",
                     "--depth", "1", "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "level\tclass\tdual_min_in_a\tu1\tplaces"
        assert lines[1].split("\t")[1] == "iso"

    @pytest.mark.parametrize("fmt", ["pretty", "json", "tsv"])
    @pytest.mark.parametrize("sig, hcp, depth, finished, label, blocks", [
        ("2,1", "3,1;2", "2", 0, "", "5/2;5/2"),
        ("3,1", "25/2,17/2,13/2;21/2", "3", 1, "level 2: ", "23/2;23/2"),
    ], ids=["off-spacing", "well-spaced"])
    def test_singular_descent_stops(self, capsys, fmt, sig, hcp, depth, finished,
                                    label, blocks):
        # The parameter whose descent collides is off spacing: the start
        # (no label) when no step finished, else the one the stopped step
        # (level 2) classified, after a well-spaced start.
        argv = ["chain", "--sig", sig, "--hcp", hcp, "--depth", depth, "--format", fmt]
        stop = f"warning: descended parameter ({blocks}) is singular; the chain stops here\n"
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == (f"warning: {label}parameter is outside the spacing hypothesis "
                                f"(a consecutive gap is below 2)\n{stop}")
        if fmt == "json":
            assert len(json.loads(captured.out)) == finished
        elif fmt == "tsv":
            assert len(captured.out.splitlines()) == 1 + finished
        elif finished == 0:
            assert captured.out == "empty chain (the first descended parameter is singular)\n"
        else:
            assert captured.out.startswith("level 3: class=iso")

        assert main(argv + ["--strict"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.endswith(stop + "error: hypothesis violation under --strict\n")

    @pytest.mark.parametrize("fmt", ["pretty", "json", "tsv"])
    def test_later_step_off_spacing_warns(self, capsys, fmt):
        # The start is well spaced; the step at level 2 classifies
        # (17/2,9/2;7/2), whose entries 9/2 and 7/2 are 1 apart.
        argv = ["chain", "--sig", "3,1", "--hcp", "9,5,1;3", "--depth", "3", "--format", fmt]
        warning = ("warning: level 2: parameter is outside the spacing hypothesis "
                   "(a consecutive gap is below 2)\n")
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err == warning
        if fmt == "json":
            assert [step["level"] for step in json.loads(captured.out)] == [3, 2, 1]
        assert main(argv + ["--strict"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == warning + "error: hypothesis violation under --strict\n"

    def test_well_spaced_chain_is_silent(self, capsys):
        assert main(["chain", "--sig", "2,1", "--hcp", "5,-1;2", "--depth", "2",
                     "--strict"]) == 0
        assert capsys.readouterr().err == ""

    def test_spacing_warnings_match_the_library(self, capsys):
        """The CLI prints the warnings of descent_chain(warn=True), text
        for text and in order: one for each parameter a step classifies
        off the hypothesis, so none at depth 0, then the stop."""
        rng = random.Random(41)
        later = stopped_late = unclassified = two_places = 0
        for _ in range(60):
            n = rng.randint(2, 6)
            places = []
            for _ in range(rng.choice((1, 1, 2))):
                r = rng.randint(1, n)
                sig = Signature(r, n - r)
                places.append((sig, rng.choice(enumerate_packet(random_ic(rng, n), sig)).hc))
            depth = rng.randint(0, min(sig.r for sig, _ in places))
            argv = ["chain", "--depth", str(depth)]
            for sig, hc in places:
                argv += ["--place", f"{sig.r},{sig.s}:"
                         f"{doubled_text(hc.doubled_a)};{doubled_text(hc.doubled_b)}"]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                steps = descent_chain(PlacedParameter(places), depth)
            library = [f"warning: {w.message}" for w in caught]
            code = main([*argv, "--format", "json"])
            err = capsys.readouterr().err
            assert code == 0
            assert err.splitlines() == library, (argv, steps)
            later += err.count("warning: level ")
            stopped_late += "chain stops" in err and bool(steps)
            unclassified += depth == 0 and not well_spaced_everywhere(PlacedParameter(places))
            two_places += len(places) == 2
            assert main([*argv, "--strict"]) == (3 if library else 0)
            capsys.readouterr()
        assert later and stopped_late and unclassified and two_places

    def test_requires_some_place(self, capsys):
        assert main(["chain", "--depth", "1"]) == 2
        assert "give --place entries or --sig with --hcp" in capsys.readouterr().err


class TestFractionCommand:
    def test_pretty(self, capsys):
        assert main(["fraction", "--sig", "2,1", "--hw", "4,2,0"]) == 0
        assert capsys.readouterr().out == "2/3 (expected 2/3: OK)\n"

    def test_two_places_json(self, capsys):
        assert main(["fraction", "--place", "2,1:4,2,0",
                     "--place", "1,2:6,3,0", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"fraction": "2/9", "expected": "2/9", "match": True}

    def test_compact_place(self, capsys):
        assert main(["fraction", "--sig", "3,0", "--hw", "5,2,0"]) == 0
        assert capsys.readouterr().out == "1 (expected 1: OK)\n"

    def test_place_rejects_block_split(self, capsys):
        assert main(["fraction", "--place", "2,1:4,2;0"]) == 2
        assert "highest weight takes no block split" in capsys.readouterr().err


class TestAnalyzeCommand:
    def test_pretty(self, capsys):
        assert main(["analyze", "--sig", "2,1", "--hcp", "5,2;-1"]) == 0
        out = capsys.readouterr().out
        assert out == (
            "place (2,1): (5,2;-1)\n"
            "  packet index 0, degree 2, length 0\n"
            "  blattner (5,3;-2), coherent (4,2;0)\n"
            "  restricted (9/2;-1/2), u1=2\n"
            "class: zero\n"
            "dual satisfies minimum condition: true\n"
            "well spaced: true\n")

    def test_json(self, capsys):
        assert main(["analyze", "--sig", "2,1", "--hcp", "5,-1;2",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["class"] == "iso"
        assert data["well_spaced"] is True
        place = data["places"][0]
        assert place["packet_index"] == 1
        assert place["degree"] == 1
        assert place["restricted"] == {"a": ["9/2"], "b": ["5/2"]}

    def test_r_zero_rejected(self, capsys):
        assert main(["analyze", "--sig", "0,2", "--hcp", ";3,1"]) == 2
        assert "needs r >= 1" in capsys.readouterr().err

    def test_member_data_matches_the_packet_walk(self):
        # The route analyze took before: find the parameter in its packet.
        checked = 0
        for sig, ic in packet_sweep_characters():
            for index, m in enumerate(enumerate_packet(ic, sig)):
                assert _member_data(m.hc) == {
                    "degree": m.degree, "length": m.length, "packet_index": index,
                    "blattner": weight_to_strings(m.blattner),
                    "coherent": weight_to_strings(m.coherent)}
                checked += 1
        assert checked == 5100


class TestReadableErrors:
    @pytest.mark.parametrize("argv, message", [
        (["packet", "--sig", "2,1", "--hw", "1,1/2,0"],
         "mixed half-integrality in weight (1,1/2,0)"),
        (["restrict", "--sig", "2,1", "--hcp", "3,3;2"],
         "a-block (3,3) is not strictly decreasing"),
        (["packet", "--sig", "2,1", "--hw", "0,2,4"],
         "highest weight (0,2,4) is not non-increasing"),
        (["sr", "--sig", "2,1", "--ktype", "3,5;0"],
         "weight (3,5,0) is not K-dominant for sig (2,1)"),
        (["branch", "--hw", "1/2,5/2"],
         "highest weight (1/2,5/2) is not non-increasing"),
        (["chain", "--sig", "2,1", "--hcp", "5;3,0", "--depth", "1"],
         "error: block sizes (1,2) do not match signature (2,1)\n"),
        (["analyze", "--sig", "1,2", "--hcp", "5,2;-1"],
         "error: block sizes (2,1) do not match signature (1,2)\n"),
        # int() reads "1_0" as 10 and other scripts' digits as digits; the
        # syntax takes an optional sign and ASCII digits.
        (["branch", "--hw", "1_0,0"], "error: bad weight entry '1_0'\n"),
        (["branch", "--hw", "\u0661,0"], "error: bad weight entry '\u0661'\n"),
        (["packet", "--sig", "1,1", "--hw", "1_1/2,1/2"], "error: bad weight entry '1_1/2'\n"),
        (["packet", "--sig", "1_0,0", "--hw", "1,0"],
         "error: bad signature '1_0,0': expected r,s\n"),
        (["packet", "--sig", "1,\u0661", "--hw", "1,0"],
         "error: bad signature '1,\u0661': expected r,s\n"),
        (["fraction", "--place", "1,1_0:0,0"], "error: bad signature '1,1_0': expected r,s\n"),
        # "-.5" is a value, not an option, so the weight parser reads it.
        (["branch", "--hw", "-.5"], "error: bad weight entry '-.5'\n"),
        # Entries are "p" or "p/2": no decimals, and a "/" stays in its entry.
        (["packet", "--sig", "1,1", "--hw", "0.5,0"], "error: bad weight entry '0.5'\n"),
        (["packet", "--sig", "2,1", "--hw", "4,2/0"],
         "error: bad weight entry '2/0': denominator must be 2\n"),
    ])
    def test_invalid_input(self, capsys, argv, message):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Fraction(" not in err
        assert message in err

    def test_singular_descent_message(self, capsys):
        main(["chain", "--sig", "2,1", "--hcp", "3,1;2", "--depth", "2"])
        err = capsys.readouterr().err
        assert "Fraction(" not in err
        assert "parameter (5/2;5/2) is singular" in err


def test_commands_keeps_entries_doubled():
    # Entries stay doubled ints from argv to the record's text: the command
    # layer and its driver name no Fraction and build no Fraction view.
    for module in (lpackets.commands, lpackets.cli):
        tree = ast.parse(Path(module.__file__).read_text())
        modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        modules |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                    for alias in node.names}
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
                  for alias in node.names}
        assert "fractions" not in modules, module.__name__
        assert names & {"Fraction", "half_entry", "entry_to_str"} == set(), module.__name__


class TestErrors:
    def test_bad_signature(self, capsys):
        assert main(["packet", "--sig", "2", "--hw", "4,2,0"]) == 2
        assert "expected r,s" in capsys.readouterr().err

    def test_mixed_coset_weight(self, capsys):
        assert main(["packet", "--sig", "1,1", "--hw", "1,1/2"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_wrong_block_sizes(self, capsys):
        assert main(["restrict", "--sig", "1,2", "--hcp", "5,2;-1"]) == 2
        assert "block sizes" in capsys.readouterr().err

    def test_sig_without_hcp(self, capsys):
        assert main(["chain", "--sig", "2,1", "--depth", "1"]) == 2
        assert "must be given together" in capsys.readouterr().err


def _outcome(capsys, argv):
    """(exit code, stdout, stderr) of one run, argparse's own exits included."""
    try:
        code = main(argv)
    except SystemExit as stop:
        code = stop.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("command, options", [
    ("restrict", [("--sig", "1,1"), ("--hcp", "-1;1")]),
    ("chain", [("--sig", "2,1"), ("--hcp", "-1,-5;1"), ("--depth", "2")]),
    ("chain", [("--sig", "2,1"), ("--hcp", "-1,-5;1"), ("--depth", "-1")]),
    ("packet", [("--sig", "2,1"), ("--hw", "-1,-2,-3")]),
    ("branch", [("--hw", "-1,-3")]),
    ("sr", [("--sig", "2,1"), ("--ktype", "-1,-3;-5")]),
    ("restrict", [("--sig", "1,1"), ("--hc", "-1;1")]),
    ("sr", [("--sig", "2,1"), ("--kt", "-1,-3;-5")]),
    ("chain", [("--sig", "2,1"), ("--hc", "-1,-5;1"), ("--depth", "2")]),
    ("chain", [("--sig", "2,1"), ("--hcp", "5,-1;2"), ("--dep", "-1")]),
    ("branch", [("--hw", "-.5")]),
], ids=["restrict", "chain", "chain-negative-depth", "packet", "branch", "sr",
        "restrict-abbreviated", "sr-abbreviated", "chain-abbreviated",
        "chain-abbreviated-depth", "branch-dot-number"])
def test_negative_value_as_separate_argument(capsys, monkeypatch, command, options):
    # A value that starts with "-" may follow its option, or a unique prefix
    # of it, or be joined to it by "="; both go through sys.argv when main
    # gets no argv.
    separate = [command, *(token for option in options for token in option)]
    joined = [command, *(f"{flag}={value}" for flag, value in options)]
    expected = _outcome(capsys, joined)
    assert _outcome(capsys, separate) == expected
    monkeypatch.setattr(sys, "argv", ["lpackets", *separate])
    assert _outcome(capsys, None) == expected


@pytest.mark.parametrize("head, prefix, value, tail", [
    (["packet", "--sig", "2,1"], "--h", "-1,-2,-3", []),
    (["restrict"], "--s", "-1,1", ["--hcp", "1;1"]),
], ids=["help-or-hw", "sig-or-strict"])
def test_ambiguous_prefix_before_negative_value(capsys, head, prefix, value, tail):
    # --help and --strict take no value but still make a prefix ambiguous,
    # so argparse reports it in the separate form as in the "=" form.
    for option in ([prefix, value], [f"{prefix}={value}"]):
        code, out, err = _outcome(capsys, head + option + tail)
        assert (code, out) == (2, "")
        assert f"error: ambiguous option: {option[0]} could match" in err


def test_parser_is_shared_and_keeps_no_state(capsys):
    assert build_parser() is build_parser()
    two = _outcome(capsys, ["chain", "--place", "1,1:3;1", "--place", "1,1:5;-3",
                            "--depth", "1", "--format", "json"])
    one = _outcome(capsys, ["chain", "--place", "1,1:5;-3", "--depth", "1",
                            "--format", "json"])
    assert two[0] == one[0] == 0
    assert [len(step["places"]) for step in json.loads(two[1])] == [2]
    assert [step["places"] for step in json.loads(one[1])] == [
        [step["places"][1] for step in json.loads(two[1])]]
    assert _PLACES_HC[1]["default"] == []
    assert build_parser().parse_args(["chain", "--depth", "1"]).place == []


def _answer(capsys, parse, argv):
    """(vars of the namespace or None, exit code or None, stdout, stderr)
    of parsing argv, argparse's own exits included."""
    try:
        result, code = vars(parse(argv)), None
    except SystemExit as stop:
        result, code = None, stop.code
    captured = capsys.readouterr()
    return result, code, captured.out, captured.err


@pytest.mark.parametrize("argv, read", [
    (["sr", "--sig", "2,1", "--ktype", "5,3;0", "--strict=yes"], False),
    (["packet", "--sig", "2,1", "--hw", "4,2,0", "--format=xml"], False),
    (["chain", "--sig", "2,1", "--hcp", "5,3;1", "--depth=two"], False),
    (["chain", "--sig", "2,1", "--hcp", "5,3;1", "--depth=1.5"], False),
    (["restrict", "--sig", "1,1", "--hcp", "-1;1"], True),
    (["branch", "--hw", "-x"], False),
    (["restrict", "--sig", "1,1", "--hc", "3;1"], False),
    (["branch", "--hw", "1,0", "--"], False),
    (["branch", "--hw", "1,0", "extra"], False),
    (["packet", "--sig=1,1", "--hw", "4,2,0", "--sig", "2,1"], True),
    (["fraction", "--place", "2,1:4,2,0", "--place=1,2:6,3,0"], True),
    (["branch", "--hw="], True),
], ids=["flag-with-value", "bad-choice", "bad-int", "decimal-int", "negative-value",
        "dash-value", "prefix", "double-dash", "positional", "repeated-sig",
        "repeated-place", "empty-value"])
def test_reader_hands_off_what_it_does_not_read(capsys, argv, read):
    # The table reader takes exact options with acceptable values only;
    # every other argv goes to the full parser, so it answers as argparse.
    assert (_read(argv) is not None) == read
    assert _answer(capsys, _parse, argv) == _answer(capsys, build_parser().parse_args, argv)


def test_option_table_holds_only_what_the_reader_reads():
    # `_read` knows store, store_true and append options with a type,
    # choices, a default and required, as argparse applies them, and takes
    # "--name" to the dest "name"; argparse would also put a string default
    # through the type, which `_read` does not do.
    for command in _COMMANDS.values():
        for flag, spec in command.options + _COMMON:
            assert set(spec) <= {"action", "choices", "default", "help", "required", "type"}
            assert flag[:2] == "--" and "-" not in flag[2:], flag
            assert spec.get("action") in (None, "store_true", "append"), flag
            assert spec.get("action") != "append" or spec["default"] == [], flag
            assert not (isinstance(spec.get("default"), str) and "type" in spec), flag


GOLDEN = os.path.join(os.path.dirname(__file__), "data", "cli_golden.json")
with open(GOLDEN) as _handle:
    CORPUS = json.load(_handle)


@pytest.mark.parametrize("entry", CORPUS, ids=lambda e: " ".join(e["argv"]))
def test_golden_output(capsys, entry):
    # Recorded by tests/record_cli_golden.py; every byte must match.
    code = main(entry["argv"])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (
        entry["exit"], entry["stdout"], entry["stderr"])


def test_recorder_counts_what_moved():
    # The recorder's report before it overwrites the corpus: all zeros on
    # the corpus itself; entries match by argv.
    from record_cli_golden import moved
    assert moved(CORPUS, CORPUS) == {sub: {} for sub in _COMMANDS}
    # The recorder keeps each argv once.
    assert len({tuple(entry["argv"]) for entry in CORPUS}) == len(CORPUS)
    entry = {"argv": ["sr", "--sig", "1,0", "--ktype", "2"], "exit": 0, "stdout": "", "stderr": ""}
    new = [{**entry, "stderr": "warning\n"}, {**entry, "argv": ["branch", "--hw", "1"], "exit": 2}]
    assert moved([entry, {**entry, "argv": ["packet"]}], new) == {
        "branch": {"added": 1}, "packet": {"removed": 1}, "sr": {"stderr": 1}}


def test_corpus_is_what_the_recorder_writes():
    # With test_golden_output's replay, the corpus file is byte for byte
    # what tests/record_cli_golden.py writes: its requests in order, then
    # json.dump with indent 1 and a final newline.
    from record_cli_golden import requests
    assert [entry["argv"] for entry in CORPUS] == requests()
    with open(GOLDEN) as handle:
        assert handle.read() == json.dumps(CORPUS, indent=1) + "\n"


def test_golden_corpus_replays_twice_shuffled(capsys):
    # Requests share the option table and the parser but keep no state:
    # replaying the corpus twice in a shuffled order must give every
    # recorded byte again.
    replay = CORPUS * 2
    random.Random(20261018).shuffle(replay)
    mismatched = [" ".join(entry["argv"]) for entry in replay
                  if _outcome(capsys, entry["argv"])
                  != (entry["exit"], entry["stdout"], entry["stderr"])]
    assert mismatched == []


def test_golden_requests_build_no_parser(capsys, monkeypatch):
    # Every request that runs is read from the option table: none of them
    # builds the argparse tree.
    def refuse():
        raise AssertionError("the full parser was built")

    monkeypatch.setattr(lpackets.cli, "build_parser", refuse)
    runs = [entry for entry in CORPUS if entry["exit"] in (0, 3)]
    assert runs
    for entry in runs:
        assert _outcome(capsys, entry["argv"]) == (
            entry["exit"], entry["stdout"], entry["stderr"]), entry["argv"]


def test_golden_chains_leave_the_warning_filters_alone(capsys, monkeypatch):
    # A chain's stop reaches the record as a value, so no request swaps
    # the process-wide warning filters to catch it.
    def refuse(*args, **kwargs):
        raise AssertionError("the warning filters were touched")

    chains = [entry for entry in CORPUS if entry["argv"][0] == "chain"]
    assert len(chains) == 84
    # The patch ends before any assertion, so pytest's report may use them.
    with monkeypatch.context() as patch:
        patch.setattr(warnings, "catch_warnings", refuse)
        patch.setattr(warnings, "simplefilter", refuse)
        outcomes = [_outcome(capsys, entry["argv"]) for entry in chains]
    assert outcomes == [(entry["exit"], entry["stdout"], entry["stderr"]) for entry in chains]


def _is_json(entry):
    return bool(entry["stdout"]) and build_parser().parse_args(entry["argv"]).format == "json"


@pytest.mark.parametrize("entry", [entry for entry in CORPUS if _is_json(entry)],
                         ids=lambda e: " ".join(e["argv"]))
def test_json_writer_matches_json_dumps_on_the_corpus(entry):
    record = json.loads(entry["stdout"])
    assert _json(record) == json.dumps(record, indent=2) == entry["stdout"][:-1]


# Text with the characters JSON escapes: quotes, backslashes, control
# characters, and non-ASCII ones, which json.dumps writes as \u escapes.
_TEXT = st.text(st.sampled_from('"\\\n\t\x00\x1f\x7fé☃\U0001f600') | st.characters())
_RECORDS = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(-10**40, 10**40) | _TEXT,
    lambda inner: (st.lists(inner, max_size=4) | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(_TEXT, inner, max_size=4)),
    max_leaves=20)


@given(_RECORDS)
def test_json_writer_matches_json_dumps(value):
    assert _json(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize("value", [
    0.5, Fraction(1, 2), {1}, [1, [2.0]], {"a": Fraction(3)}, {1: "a"},
], ids=["float", "fraction", "set", "nested-float", "nested-fraction", "int-key"])
def test_json_writer_rejects_other_types(value):
    with pytest.raises(TypeError):
        _json(value)
