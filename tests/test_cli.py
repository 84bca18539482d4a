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
                      infinitesimal_character, weight_from_strings, weight_to_strings)
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

    def test_slash_between_integers_splits(self):
        weight, blocks = _parse_weight("5,3/0")
        assert weight.entries == (5, 3, 0)
        assert blocks == [[10, 6], [0]]

    def test_odd_over_two_is_an_entry(self):
        weight, blocks = _parse_weight("9/2,5/2")
        assert weight.entries == (Fraction(9, 2), Fraction(5, 2))
        assert blocks is None

    def test_negative_half_entry(self):
        weight, blocks = _parse_weight("9/2,-1/2")
        assert weight.entries == (Fraction(9, 2), Fraction(-1, 2))
        assert blocks is None

    def test_even_over_two_splits(self):
        weight, blocks = _parse_weight("4/2")
        assert weight.entries == (4, 2)
        assert blocks == [[8], [4]]

    def test_odd_over_other_splits(self):
        weight, blocks = _parse_weight("7/4")
        assert blocks == [[14], [8]]

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

    @pytest.mark.parametrize("argv", [
        ["branch", "--hw", "{}"],
        ["restrict", "--sig", "1,1", "--hcp", "{};1/2"],
    ], ids=["hw", "hcp"])
    @pytest.mark.parametrize("entry", ["5 / 2", "5/ 2", "5 /2", " 5/2 "])
    def test_spaced_half_entry_is_one_entry(self, argv, entry, capsys):
        # Spaces around the "/" of "p/2" with odd p do not make it a block split.
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
            "  parabolic root sum: (2,0,-2) over 3 roots\n"
            "  full-shift diagnostic: (4,2,2)\n"
            "  margin: 2\n")

    def test_json_pass(self, capsys):
        assert main(["sr", "--sig", "2,1", "--ktype", "5,3;0",
                     "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["accepted"] is True
        assert data["hc"] == {"a": ["5", "2"], "b": ["1"]}
        assert data["hc_double_shift"] == ["4", "2", "2"]
        assert data["mu_shifted"] == ["6", "2", "0"]
        assert data["margin"] == "2"

    def test_borel_failure(self, capsys):
        assert main(["sr", "--sig", "2,1", "--ktype", "3,3;0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("FAIL: shifted weight is singular")

    def test_positivity_failure(self, capsys):
        assert main(["sr", "--sig", "1,1", "--ktype", "1;0"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("FAIL: positivity against the parabolic root sum")

    def test_margin_gate(self, capsys):
        # shifted weight (6,2,0) has margin 2; demand 3 and fail strictly
        assert main(["sr", "--sig", "2,1", "--ktype", "5,3;0",
                     "--margin", "3", "--strict"]) == 3
        captured = capsys.readouterr()
        assert "below --margin 3" in captured.err
        assert captured.out == ""

    def test_block_size_mismatch(self, capsys):
        assert main(["sr", "--sig", "2,1", "--ktype", "5;3,0"]) == 2
        assert "block sizes" in capsys.readouterr().err

    @pytest.mark.parametrize("n", range(1, 9))
    def test_record_matches_pair_route(self, n, capsys):
        # The record is the one route that writes the verdict's flags and
        # the parabolic's diagnostics as text. Every tenth weight of the
        # pair reference's sweep, against that reference in plain Fractions;
        # every hundredth also checks the pretty root-sum line.
        seen = {"accepted": 0, "borel_fail": 0, "positivity_fail": 0}
        checked = 0
        for k, (mu, sig) in enumerate(test_minimal_ktype.TestPairReference.sweep(n)):
            if k % 10:
                continue
            args = ["sr", f"--sig={sig.r},{sig.s}", f"--ktype={format_weight(mu, sig)}",
                    "--margin=0"]
            assert main([*args, "--format=json"]) == 0
            data = json.loads(capsys.readouterr().out)
            accepted, borel_ok, positivity_ok, hc, double_shift, shifted, two_rho_u, roots = (
                reference_minimal_ktype(mu, sig))
            entries = shifted.entries
            margin = min((abs(x - y) for i, x in enumerate(entries) for y in entries[i + 1:]),
                         default=None)
            assert data == {
                "accepted": accepted,
                "borel_ok": borel_ok,
                "positivity_ok": positivity_ok,
                "hc": None if hc is None else {"a": list(map(str, hc.a)),
                                               "b": list(map(str, hc.b))},
                "hc_double_shift": list(map(str, double_shift.entries)),
                "mu_shifted": list(map(str, entries)),
                "margin": None if margin is None else str(margin),
            }, (mu, sig)
            if k % 100 == 0:
                assert main(args) == 0
                root_sum = ",".join(str(t // 2) for t in two_rho_u)
                assert (f"  parabolic root sum: ({root_sum}) over {roots} roots"
                        in capsys.readouterr().out.splitlines()), (mu, sig)
            seen["accepted"] += accepted
            seen["borel_fail"] += not borel_ok
            seen["positivity_fail"] += borel_ok and not positivity_ok
            checked += 1
        assert checked >= 520
        if n >= 2:
            assert min(seen.values()) > 0, seen


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

    def test_multi_place(self, capsys):
        assert main(["chain", "--place", "2,1:5,-1;2", "--place", "2,1:7,0;4",
                     "--depth", "1", "--format", "tsv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "level\tclass\tdual_min_in_a\tu1\tplaces"
        assert lines[1].split("\t")[1] == "iso"

    @pytest.mark.parametrize("fmt", ["pretty", "json", "tsv"])
    @pytest.mark.parametrize("sig, hcp, depth, finished, spaced, blocks", [
        ("2,1", "3,1;2", "2", 0, False, "5/2;5/2"),
        ("3,1", "25/2,17/2,13/2;21/2", "3", 1, True, "23/2;23/2"),
    ], ids=["off-spacing", "well-spaced"])
    def test_singular_descent_stops(self, capsys, fmt, sig, hcp, depth, finished,
                                    spaced, blocks):
        argv = ["chain", "--sig", sig, "--hcp", hcp, "--depth", depth, "--format", fmt]
        stop = f"warning: descended parameter ({blocks}) is singular; the chain stops here\n"
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.err.endswith(stop)
        assert ("spacing hypothesis" in captured.err) is not spaced
        assert "error:" not in captured.err
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
        """The library's chain with warn=True warns once per parameter it
        classifies off the hypothesis, including the one whose descent
        stopped the chain. The CLI warns for the start and for each later
        finished step, so it misses only that last one, and only when some
        step finished; a descent collides only off the hypothesis."""
        rng = random.Random(41)
        later = 0
        for _ in range(60):
            n = rng.randint(2, 6)
            r = rng.randint(1, n)
            sig = Signature(r, n - r)
            hc = rng.choice(enumerate_packet(random_ic(rng, n), sig)).hc
            depth = rng.randint(1, r)
            text = f"{sig.r},{sig.s}:{doubled_text(hc.doubled_a)};{doubled_text(hc.doubled_b)}"
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                steps = descent_chain(PlacedParameter([(sig, hc)]), depth)
            library = sum("spacing hypothesis" in str(w.message) for w in caught)
            stopped = any("chain stops" in str(w.message) for w in caught)
            code = main(["chain", "--place", text, "--depth", str(depth), "--format", "json"])
            err = capsys.readouterr().err
            cli = err.count("spacing hypothesis")
            assert code == 0
            assert cli == library - (stopped and bool(steps)), (text, depth, err)
            later += err.count("warning: level ")
            assert main(["chain", "--place", text, "--depth", str(depth), "--strict"]) == (
                3 if cli or stopped else 0)
            capsys.readouterr()
        assert later > 0

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
        (["packet", "--sig", "1,1", "--hw", "1_1/2,1/2"], "error: bad weight entry '1_1'\n"),
        (["packet", "--sig", "1_0,0", "--hw", "1,0"],
         "error: bad signature '1_0,0': expected r,s\n"),
        (["packet", "--sig", "1,\u0661", "--hw", "1,0"],
         "error: bad signature '1,\u0661': expected r,s\n"),
        (["fraction", "--place", "1,1_0:0,0"], "error: bad signature '1,1_0': expected r,s\n"),
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
    ("sr", [("--sig", "2,1"), ("--ktype", "-1,-3;-5"), ("--margin", "-1")]),
    ("restrict", [("--sig", "1,1"), ("--hc", "-1;1")]),
    ("sr", [("--sig", "2,1"), ("--kt", "-1,-3;-5")]),
    ("chain", [("--sig", "2,1"), ("--hc", "-1,-5;1"), ("--depth", "2")]),
    ("sr", [("--sig", "2,1"), ("--ktype", "5,3;0"), ("--mar", "-1")]),
    ("chain", [("--sig", "2,1"), ("--hcp", "5,-1;2"), ("--dep", "-1")]),
    ("branch", [("--hw", "-.5")]),
], ids=["restrict", "chain", "chain-negative-depth", "packet", "branch", "sr",
        "restrict-abbreviated", "sr-abbreviated", "chain-abbreviated",
        "sr-abbreviated-margin", "chain-abbreviated-depth", "branch-dot-number"])
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
    (["sr", "--sig", "2,1", "--ktype", "5,3;0", "--margin=1.5"], False),
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
