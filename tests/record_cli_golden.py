"""Record the CLI golden corpus, tests/data/cli_golden.json.

Each entry is one request through `lpackets.cli.main` with its exit code,
stdout and stderr. The requests are the benchmark's `cli_request` draws
with n <= 4 (a fixed seed, ten draws per subcommand and format, a
repeated argv kept once) plus hand-picked error, warning and --strict
cases in every format.
`tests/test_cli.py` replays the corpus and compares bytes, so re-record
only when an output change is intended:

    PYTHONPATH=src python tests/record_cli_golden.py

Before it overwrites the corpus, the recorder prints one line per
subcommand: how many entries changed exit code, stdout or stderr, and how
many were added or removed. An unchanged corpus reads all zeros.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import sys
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from workloads import FORMATS, SUBCOMMANDS, cli_request  # noqa: E402

from lpackets.cli import main  # noqa: E402

GOLDEN = os.path.join(ROOT, "tests", "data", "cli_golden.json")
SEED, PER_COMBO, MAX_N = 12345, 10, 4

# Error paths, warnings and --strict exits; each runs in every format.
HAND_PICKED = [
    ["packet", "--sig", "2,1", "--hw", "4,2;0"],
    ["packet", "--sig", "2", "--hw", "4,2,0"],
    ["packet", "--sig", "1,1", "--hw", "1,1/2"],
    ["packet", "--sig", "2,1", "--hw", "1,1/2,0"],
    ["packet", "--sig", "2,1", "--hw", "0,2,4"],
    ["packet", "--sig", "2,1", "--hw", "4,x,0"],
    ["packet", "--sig", "2,1", "--hw", "4,2"],
    ["sr", "--sig", "2,1", "--ktype", "5;3,0"],
    ["sr", "--sig", "2,1", "--ktype", "3,5;0"],
    ["sr", "--sig", "2,1", "--ktype", "5,3;0"],
    ["sr", "--sig", "2,1", "--ktype", "5,3;0", "--strict"],
    ["sr", "--sig", "2,1", "--ktype", "4,4;0", "--strict"],
    ["sr", "--sig", "2,1", "--ktype", "3,3;0"],
    ["sr", "--sig", "1,1", "--ktype", "1;0"],
    ["sr", "--sig", "1,0", "--ktype", "2"],
    ["sr", "--sig", "2,1", "--ktype", "5,3"],
    ["branch", "--hw", "3,5"],
    ["branch", "--hw", "1/2,5/2"],
    ["branch", "--hw", "4;2"],
    ["restrict", "--sig", "1,2", "--hcp", "5,2;-1"],
    ["restrict", "--sig", "2,1", "--hcp", "3,3;2"],
    ["restrict", "--sig", "2,1", "--hcp", "3,2;1"],
    ["restrict", "--sig", "2,1", "--hcp", "3,2;1", "--strict"],
    ["restrict", "--sig", "1,0", "--hcp", "1;"],
    ["restrict", "--sig", "0,2", "--hcp", ";3,1"],
    ["chain", "--depth", "1"],
    ["chain", "--sig", "2,1", "--depth", "1"],
    ["chain", "--sig", "2,1", "--hcp", "5,-1;2", "--depth=-1"],
    ["chain", "--sig", "1,2", "--hcp", "5;2,-1", "--depth", "2"],
    ["chain", "--sig", "1,0", "--hcp", "4;", "--depth", "5"],
    ["chain", "--sig", "2,1", "--hcp", "3,2;1", "--depth", "1"],
    ["chain", "--sig", "2,1", "--hcp", "3,2;1", "--depth", "1", "--strict"],
    ["chain", "--place", "2,1:5,-1;2", "--place", "1,2:4;1,-2", "--depth", "2"],
    ["chain", "--place", "2,1:5,-1;2", "--place", "2,2:5,-1;2,0", "--depth", "1"],
    ["chain", "--place", "2,1", "--depth", "1"],
    ["chain", "--sig", "2,1", "--hcp", "3,1;2", "--depth", "2"],
    ["chain", "--sig", "2,1", "--hcp", "3,1;2", "--depth", "2", "--strict"],
    ["chain", "--sig", "3,1", "--hcp", "25/2,17/2,13/2;21/2", "--depth", "3"],
    ["chain", "--sig", "3,1", "--hcp", "25/2,17/2,13/2;21/2", "--depth", "3", "--strict"],
    ["chain", "--sig", "2,1", "--hcp", "3,2;1", "--depth", "0"],
    ["chain", "--sig", "2,1", "--hcp", "3,2;1", "--depth", "0", "--strict"],
    ["chain", "--sig", "3,1", "--hcp", "5/2,-3/2,-5/2;-1/2", "--depth", "3"],
    ["fraction", "--place", "2,1:4,2;0"],
    ["fraction", "--sig", "2,1"],
    ["fraction"],
    ["fraction", "--place", "2,1:4,2,0", "--place", "1,1:3,0"],
    ["fraction", "--place", "2,1-4,2,0"],
    ["fraction", "--sig", "2,1", "--hw", "4,2"],
    ["analyze", "--sig", "0,2", "--hcp", ";3,1"],
    ["analyze", "--sig", "2,1", "--hcp", "3,2;1"],
    ["analyze", "--sig", "2,1", "--hcp", "3,2;1", "--strict"],
    ["analyze", "--place", "2,1:5,2;-1", "--place", "1,2:4;1,-2"],
    ["analyze", "--place", "2,1:5,2;-1", "--sig", "2,1", "--hcp", "5,-1;2"],
    ["chain", "--place", "2,1:7,0;4", "--sig", "2,1", "--hcp", "5,-1;2", "--depth", "1"],
]


def _rank(sub: str, data) -> int:
    if sub in ("packet", "sr"):
        return data[0] + data[1]
    if sub == "branch":
        return len(data)
    return data[0][0] + data[0][1]


def requests() -> list[list[str]]:
    rng = random.Random(SEED)
    out = []
    for sub in SUBCOMMANDS:
        for fmt in FORMATS:
            kept = 0
            while kept < PER_COMBO:
                argv, data = cli_request(rng, sub, fmt)
                if _rank(sub, data) <= MAX_N:
                    kept += 1
                    if argv not in out:  # a repeat is dropped, not redrawn
                        out.append(argv)
    for argv in HAND_PICKED:
        out.extend([*argv, f"--format={fmt}"] for fmt in FORMATS)
    return out


def run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return {"argv": argv, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


FIELDS = ("exit", "stdout", "stderr")
MOVES = (*FIELDS, "added", "removed")


def moved(old: list[dict], new: list[dict]) -> dict[str, Counter]:
    """Per subcommand, how many entries of new changed each of exit,
    stdout and stderr against old, and how many were added or removed.
    Entries match by argv, which the corpus holds once each."""
    before = {tuple(entry["argv"]): entry for entry in old}
    counts = {sub: Counter() for sub in sorted({e["argv"][0] for e in old + new})}
    for entry in new:
        count, was = counts[entry["argv"][0]], before.pop(tuple(entry["argv"]), None)
        if was is None:
            count["added"] += 1
        else:
            count.update(field for field in FIELDS if was[field] != entry[field])
    for entry in before.values():
        counts[entry["argv"][0]]["removed"] += 1
    return counts


if __name__ == "__main__":
    corpus = [run(argv) for argv in requests()]
    old = []
    if os.path.exists(GOLDEN):
        with open(GOLDEN) as handle:
            old = json.load(handle)
    for sub, count in moved(old, corpus).items():
        print(f"{sub}: " + ", ".join(f"{move} {count[move]}" for move in MOVES))
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w") as handle:
        json.dump(corpus, handle, indent=1)
        handle.write("\n")
    print(f"{len(corpus)} entries -> {GOLDEN}")
