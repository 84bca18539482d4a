"""Workload generators, tasks and oracles for the lpackets benchmark.

A workload is a list of rounds. One round covers the workload's whole
shape mix once (which input sizes it runs), in an order the seed shuffles;
the seed also picks every value. A run executes whole rounds, so runs with
different seeds execute the same mix of sizes and their timings compare.

A task is one generated input plus all its checks. Tasks reach the library
only through `lib` (the imported `lpackets` package) and wrap each call in
a span named after the module it enters. Every result is checked against
an oracle: the bench's own exact arithmetic where the property has a
closed form, otherwise an independent route through the library. A wrong
result raises OracleError, which ends the run; an exception or a non-zero
exit on valid input is an operation failure, counted with its reason.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import warnings
from fractions import Fraction

HALF = Fraction(1, 2)
# Share of descent and cli parameters drawn off the spacing hypothesis.
OFF_SPACING = 0.3


class OracleError(Exception):
    """A library result disagrees with its oracle: the run is wrong."""


class OpFailure(Exception):
    """A request failed on valid input without raising (non-zero exit)."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise OracleError(what)


# Exact arithmetic the oracles use, independent of the library.

def rho_shift(hw) -> tuple:
    """Infinitesimal character of a highest weight: hw + rho(n)."""
    n = len(hw)
    return tuple(Fraction(h) + Fraction(n - 1 - 2 * k, 2) for k, h in enumerate(hw))


def well_spaced(entries) -> bool:
    values = sorted(entries, reverse=True)
    return all(x - y >= 2 for x, y in zip(values, values[1:]))


def support(a, b) -> set:
    return {(i, j) for i, x in enumerate(a) for j, y in enumerate(b) if x > y}


def min_in_a(a, b) -> bool:
    return bool(a) and a[-1] == min(a + b)


def descend(a, b) -> tuple:
    return tuple(x - HALF for x in a[:-1]), tuple(x + HALF for x in b)


def split_u1(a, r: int, n: int) -> Fraction:
    """The U(1) weight a descent splits off: a[-1] - rho(n)[r - 1]."""
    return a[-1] - Fraction(n + 1 - 2 * r, 2)


def fmt(x) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/2"


def fmts(values) -> list:
    return [fmt(x) for x in values]


def expected_chain(places, depth: int) -> list:
    """Descent chain by hand: one (level, places, u1s, class, dual) per step,
    places given as (r, s, a, b)."""
    steps = []
    current = list(places)
    n = current[0][0] + current[0][1]
    for level in range(n - 1, n - 1 - min(depth, n - 1), -1):
        rank = level + 1
        iso = all(min_in_a(a, b) for _, _, a, b in current)
        dual = all(a[0] == max(a + b) for _, _, a, b in current)
        u1s = tuple(split_u1(a, r, rank) for r, _, a, _ in current)
        current = [(r - 1, s, *descend(a, b)) for r, s, a, b in current]
        steps.append((level, current, u1s, "iso" if iso else "zero", dual))
    return steps


def chain_depth(places) -> int:
    """Deepest depth <= min r at which every descended parameter of the
    hand-made chain stays regular, places given as (r, s, a, b).

    Deeper, two descended entries collide and `descent_chain` raises
    (ROADMAP item 4). Workloads run chains only this deep, so that no
    operation fails."""
    depth = 0
    for _, step_places, _, _, _ in expected_chain(places, min(p[0] for p in places)):
        if any(len(set(a + b)) != len(a + b) for _, _, a, b in step_places):
            break
        depth += 1
    return depth


# Generators: plain ints and Fractions only; the library sees them in tasks.

def _highest_weight(rng: random.Random, n: int, zero_gap: bool = False,
                    max_gap: int = 2) -> tuple:
    """Strictly decreasing ints with gaps 1..max_gap, so the character's
    gaps are at least 2 (the spacing hypothesis); with zero_gap one gap is
    0 instead."""
    at = rng.randrange(n - 1) if zero_gap else -1
    entries = [rng.randint(-4, 8)]
    for k in range(n - 1):
        entries.append(entries[-1] - (0 if k == at else rng.randint(1, max_gap)))
    return tuple(entries)


def _kdominant(rng: random.Random, r: int, s: int) -> tuple:
    """Non-increasing within each block; some of these the K-type test rejects."""
    entries: list = []
    for size in (r, s):
        for k in range(size):
            entries.append(rng.randint(-4, 8) if k == 0
                           else entries[-1] - rng.randint(0, 3))
    return tuple(entries)


def _place(rng: random.Random, n: int, r: int, off: bool, max_gap: int = 2) -> tuple:
    """(r, s, hw, a, b): a parameter drawn from the packet of hw's character."""
    hw = _highest_weight(rng, n, zero_gap=off, max_gap=max_gap)
    lam = rho_shift(hw)
    chosen = set(rng.sample(range(n), r))
    a = tuple(lam[k] for k in range(n) if k in chosen)
    b = tuple(lam[k] for k in range(n) if k not in chosen)
    return r, n - r, hw, a, b


# packets

class PacketsTask:
    """Weight -> infinitesimal_character -> enumerate_packet, then the
    minimal K-type test on a fixed sample of the members' Blattner weights
    (round trip back to hc) and on random K-dominant weights."""

    def __init__(self, n, r, hw, picks, forward):
        self.n, self.r, self.hw = n, r, hw
        self.picks, self.forward = picks, forward
        self.expected_count = math.comb(n, r)

    def _ktest(self, lib, tr, mu, sig):
        with tr.span("minimal_ktype.test"):
            verdict = lib.minimal_ktype_test(mu, sig)
        tr.add("minimal_ktype.test.accepted", verdict.accepted)
        if tr.enabled:
            with tr.span("minimal_ktype.shifted_weight", extra=True):
                shifted = lib.shifted_weight(mu, sig)
            with tr.span("minimal_ktype.theta_parabolic", extra=True):
                lib.theta_parabolic(shifted)
        return verdict

    def run(self, lib, tr) -> None:
        n, r = self.n, self.r
        sig = lib.Signature(r, n - r)
        with tr.span("cartan.weight"):
            hw = lib.Weight(self.hw)
        with tr.span("packets.infinitesimal_character"):
            ic = lib.infinitesimal_character(hw)
        with tr.span("packets.enumerate_packet"):
            packet = lib.enumerate_packet(ic, sig)
        tr.add("packets.enumerate_packet.members", len(packet))

        lam = rho_shift(self.hw)
        check(ic.entries == lam, "infinitesimal character is not hw + rho")
        check(len(packet) == self.expected_count, "packet size is not C(n, r)")
        rs = r * (n - r)
        check(all(m.degree + m.length == rs for m in packet), "degree + length != rs")
        lows = [m for m in packet if m.degree == 0]
        highs = [m for m in packet if m.degree == rs]
        check(len(lows) == 1 and len(highs) == 1, "extreme members not unique")
        check(lows[0].hc.a == lam[n - r:] and highs[0].hc.a == lam[:r],
              "extreme members have the wrong a-block")

        # The characters are well spaced, where the round trip is proved.
        for pick in self.picks:
            member = packet[pick % len(packet)]
            verdict = self._ktest(lib, tr, member.blattner, sig)
            check(verdict.accepted and verdict.hc == member.hc,
                  "minimal K-type round trip lost the parameter")
        for entries in self.forward:
            with tr.span("cartan.weight"):
                mu = lib.Weight(entries)
            verdict = self._ktest(lib, tr, mu, sig)
            if verdict.accepted:
                check(lib.blattner(verdict.hc) == mu,
                      "accepted K-type is not the Blattner weight of its hc")
            else:
                shifted = sorted(verdict.mu_shifted.entries)
                check(any(y - x < 2 for x, y in zip(shifted, shifted[1:])),
                      "rejected a K-type whose shifted weight has margin >= 2")


# K-type tests per packets task: round trips from sampled members, then
# random K-dominant weights. With these the test takes about 35% of a
# round and enumeration about 60%.
PICKS, FORWARD = 12, 20


def packets_rounds(rng: random.Random, rounds: int, smoke: bool) -> list:
    sizes = range(4, 6) if smoke else range(4, 13)
    shapes = [(n, r) for n in sizes for r in range(n + 1)]
    out = []
    for _ in range(rounds):
        rng.shuffle(shapes)
        out.append([PacketsTask(
            n, r, _highest_weight(rng, n),
            tuple(rng.randrange(1 << 30) for _ in range(PICKS)),
            tuple(_kdominant(rng, r, n - r) for _ in range(FORWARD)))
            for n, r in shapes])
    return out


# descent

class DescentTask:
    """isomorphism_fraction, classify_restriction with the restriction of
    every place, branching of each Blattner a-block, and descent_chain to
    the deepest depth <= min r that stays regular, all on one tuple of
    places of equal rank."""

    def __init__(self, places):
        self.places = places  # (r, s, hw, a, b) per place
        self.n = places[0][0] + places[0][1]
        self.depth = chain_depth([(p[0], p[1], p[3], p[4]) for p in places])
        self.spaced = [well_spaced(p[3] + p[4]) for p in places]
        self.expected_fraction = math.prod(Fraction(p[0], self.n) for p in places)

    def run(self, lib, tr) -> None:
        n = self.n
        sigs, ics, hcs = [], [], []
        for r, s, hw_entries, a, b in self.places:
            sigs.append(lib.Signature(r, s))
            with tr.span("cartan.weight"):
                hw = lib.Weight(hw_entries)
            with tr.span("packets.infinitesimal_character"):
                ics.append(lib.infinitesimal_character(hw))
            check(ics[-1].entries == rho_shift(hw_entries),
                  "infinitesimal character is not hw + rho")
            hcs.append(lib.HCParameter(a, b))

        with tr.span("descent.isomorphism_fraction"):
            fraction = lib.isomorphism_fraction(list(zip(sigs, ics)))
        tr.add("descent.isomorphism_fraction.combos",
               math.prod(math.comb(n, p[0]) for p in self.places))
        check(fraction == self.expected_fraction, "fraction != prod r/n")
        check(lib.expected_fraction(sigs) == self.expected_fraction,
              "expected_fraction != prod r/n")

        placed = lib.PlacedParameter(zip(sigs, hcs))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with tr.span("descent.classify_restriction"):
                verdict = lib.classify_restriction(placed)
        tr.add("descent.classify_restriction.warnings", len(caught))
        iso = all(min_in_a(p[3], p[4]) for p in self.places)
        check(verdict.value == ("iso" if iso else "zero"),
              "classification disagrees with the minimum-entry rule")
        check(len(caught) == (0 if all(self.spaced) else 1),
              "spacing warning missing or spurious")

        for sig, hc, (r, s, _, a, b), spaced in zip(sigs, hcs, self.places, self.spaced):
            with tr.span("descent.restrict_parameter"):
                rp = lib.restrict_parameter(sig, hc)
            prime = descend(a, b)
            check((rp.prime_a, rp.prime_b) == prime, "descended blocks are wrong")
            check(rp.u1_weight == split_u1(a, r, n), "split-off U(1) weight is wrong")
            if spaced:
                check((support(a, b) == support(*prime)) == min_in_a(a, b),
                      "support route disagrees under the spacing hypothesis")

            with tr.span("packets.blattner"):
                lowest = lib.blattner(hc)
            with tr.span("cartan.weight"):
                upper = lib.Weight(lowest.entries[:r])
            with tr.span("branching.branch"):
                constituents = lib.branch(upper)
            tr.add("branching.branch.constituents", len(constituents))
            check(len(constituents) == math.prod(
                int(x - y) + 1 for x, y in zip(upper.entries, upper.entries[1:])),
                "branching count is not the interlacing count")
            with tr.span("branching.weyl_dim"):
                total = sum(lib.weyl_dim(c.lower) for c in constituents)
                dim = lib.weyl_dim(upper)
            check(total == dim, "constituent dimensions do not sum to the Weyl dimension")
            with tr.span("branching.restrict_ktype"):
                split = lib.restrict_ktype(lowest, sig)
            check(lib.restriction_contains(lowest, sig, split)
                  and split.u1 == lowest.entries[r - 1]
                  and split.tail.entries == lowest.entries[r:],
                  "restricted K-type is not contained in the restriction")

        with tr.span("descent.descent_chain"):
            steps = lib.descent_chain(placed, self.depth, warn=False)
        tr.add("descent.descent_chain.steps", len(steps))
        want = expected_chain([(p[0], p[1], p[3], p[4]) for p in self.places], self.depth)
        check(len(steps) == len(want), "chain has the wrong length")
        for step, (level, places, u1s, cls, dual) in zip(steps, want):
            got = [(sig.r, sig.s, hc.a, hc.b) for sig, hc in step.parameter.places]
            check(step.level == level and got == places and step.u1_weights == u1s
                  and step.classification.value == cls and step.dual_min_in_a == dual,
                  f"chain step at level {level} is wrong")


def descent_rounds(rng: random.Random, rounds: int, smoke: bool) -> list:
    # Each rank n and place count p runs every rotation of place ranks
    # r_v = 1 + (k + v) mod n, so the 3-place tuples of U(4,4)-sized
    # packets (up to 70^3 combinations) set the tail in every round.
    # Characters have the tightest spacing the hypothesis allows (gaps of
    # 2): wider gaps multiply the constituents of each Blattner a-block,
    # and the Weyl-dimension oracle over them would dominate the round.
    sizes = range(2, 4) if smoke else range(2, 9)
    shapes = [(n, tuple(1 + (k + v) % n for v in range(p)))
              for n in sizes for p in (1, 2, 3) for k in range(n)]
    out = []
    for _ in range(rounds):
        rng.shuffle(shapes)
        tasks = []
        for n, ranks in shapes:
            off = rng.randrange(len(ranks)) if rng.random() < OFF_SPACING else -1
            tasks.append(DescentTask(
                [_place(rng, n, r, v == off, max_gap=1) for v, r in enumerate(ranks)]))
        out.append(tasks)
    return out


# cli

SUBCOMMANDS = ("packet", "sr", "branch", "restrict", "chain", "fraction", "analyze")
FORMATS = ("pretty", "json", "tsv")


def _ints(values) -> str:
    return ",".join(str(v) for v in values)


def _blocks(a, b) -> str:
    return f"{','.join(fmts(a))};{','.join(fmts(b))}"


def cli_request(rng: random.Random, sub: str, fmt_name: str) -> tuple:
    """(argv, data): argv for `lpackets`, data for the oracle.

    Every value goes in as "--opt=value": argparse reads "--hw -1,-3" as
    an option with a missing argument, because "-1,-3" looks like a flag.
    """
    n = rng.randint(2, 6)
    off = rng.random() < OFF_SPACING
    if sub == "packet":
        r = rng.randint(0, n)
        data = (r, n - r, _highest_weight(rng, n))
        argv = [f"--sig={r},{n - r}", f"--hw={_ints(data[2])}"]
    elif sub == "sr":
        r = rng.randint(0, n)
        data = (r, n - r, _kdominant(rng, r, n - r))
        argv = [f"--sig={r},{n - r}",
                f"--ktype={_ints(data[2][:r])};{_ints(data[2][r:])}"]
    elif sub == "branch":
        entries = [rng.randint(-4, 8)]
        for _ in range(n - 1):
            entries.append(entries[-1] - rng.randint(0, 2))
        data = tuple(entries)
        argv = [f"--hw={_ints(data)}"]
    elif sub == "fraction":
        data = [(r, n - r, _highest_weight(rng, n))
                for r in (rng.randint(0, n) for _ in range(rng.randint(1, 3)))]
        argv = [f"--place={r},{s}:{_ints(hw)}" for r, s, hw in data]
    else:
        count = 1 if sub == "restrict" else rng.randint(1, 2)
        off_at = rng.randrange(count) if off else -1
        data = [_place(rng, n, rng.randint(1, n), v == off_at) for v in range(count)]
        if sub == "restrict":
            r, s, _, a, b = data[0]
            argv = [f"--sig={r},{s}", f"--hcp={_blocks(a, b)}"]
        else:
            argv = [f"--place={r},{s}:{_blocks(a, b)}" for r, s, _, a, b in data]
        if sub == "chain":
            argv.append(f"--depth={chain_depth([(r, s, a, b) for r, s, _, a, b in data])}")
    return [sub, *argv, f"--format={fmt_name}"], data


class CliTask:
    """One in-process `cli.main` request with stdout/stderr captured."""

    def __init__(self, sub, fmt_name, argv, data):
        self.sub, self.format, self.argv, self.data = sub, fmt_name, argv, data

    def run(self, lib, tr) -> None:
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                with tr.span("cli.main"):
                    code = lib.cli.main(self.argv)
        except SystemExit as exc:
            # argparse exits instead of returning when it cannot read the
            # arguments; that is a failed request, not the end of the run.
            tr.add("cli.exit_nonzero")
            raise OpFailure(f"{self.sub}: argparse exit {exc.code}") from None
        text = out.getvalue()
        tr.add("cli.main.output_bytes", len(text.encode()) + len(err.getvalue().encode()))
        if tr.enabled:
            with tr.span("cli.parse", extra=True):
                lib.cli.build_parser().parse_args(self.argv)
        if code != 0:
            tr.add("cli.exit_nonzero")
            message = err.getvalue().strip().splitlines()
            raise OpFailure(f"{self.sub}: exit {code}: {message[-1] if message else ''}")
        check(text.strip() != "", f"{self.sub} printed nothing")
        if self.format == "json":
            getattr(self, "_check_" + self.sub)(lib, json.loads(text))
        elif self.format == "tsv":
            check(all("\t" in line for line in text.splitlines()),
                  f"{self.sub} tsv line without a tab")

    def _check_packet(self, lib, doc):
        r, s, hw = self.data
        packet = lib.enumerate_packet(
            lib.infinitesimal_character(lib.Weight(hw)), lib.Signature(r, s))
        check(len(doc) == math.comb(r + s, r), "packet json has the wrong size")
        check(doc == [{"a": fmts(m.hc.a), "b": fmts(m.hc.b), "degree": m.degree,
                       "length": m.length, "blattner": fmts(m.blattner),
                       "coherent": fmts(m.coherent)} for m in packet],
              "packet json differs from enumerate_packet")

    def _check_sr(self, lib, doc):
        r, s, mu = self.data
        verdict = lib.minimal_ktype_test(lib.Weight(mu), lib.Signature(r, s))
        hc = verdict.hc
        check(doc["accepted"] == verdict.accepted
              and doc["hc"] == (None if hc is None else {"a": fmts(hc.a), "b": fmts(hc.b)})
              and doc["mu_shifted"] == fmts(verdict.mu_shifted),
              "sr json differs from minimal_ktype_test")

    def _check_branch(self, lib, doc):
        upper = lib.Weight(self.data)
        constituents = lib.branch(upper)
        count = math.prod(x - y + 1 for x, y in zip(self.data, self.data[1:]))
        check(doc["count"] == count == len(constituents)
              and doc["dim"] == doc["dim_sum"] == lib.weyl_dim(upper)
              and doc["constituents"] == [{"lower": fmts(c.lower), "u1": fmt(c.u1)}
                                          for c in constituents],
              "branch json differs from branch/weyl_dim")

    def _check_restrict(self, lib, doc):
        r, s, _, a, b = self.data[0]
        prime = descend(a, b)
        entries = prime[0] + prime[1]
        check(doc["prime"] == {"a": fmts(prime[0]), "b": fmts(prime[1])}
              and doc["u1"] == fmt(split_u1(a, r, r + s))
              and doc["min_in_a"] == min_in_a(a, b)
              and doc["support_matches"] == (support(a, b) == support(*prime))
              and doc["well_spaced"] == well_spaced(a + b)
              and doc["discrete_series"] == (len(set(entries)) == len(entries)),
              "restrict json differs from the descent by hand")

    def _check_chain(self, lib, doc):
        places = [(r, s, a, b) for r, s, _, a, b in self.data]
        want = expected_chain(places, chain_depth(places))
        check(doc == [{"level": level,
                       "places": [{"sig": [r, s], "a": fmts(a), "b": fmts(b)}
                                  for r, s, a, b in step_places],
                       "u1": fmts(u1s), "class": cls, "dual_min_in_a": dual}
                      for level, step_places, u1s, cls, dual in want],
              "chain json differs from the descent by hand")

    def _check_fraction(self, lib, doc):
        n = self.data[0][0] + self.data[0][1]
        want = str(math.prod(Fraction(r, n) for r, _, _ in self.data))
        check(doc == {"fraction": want, "expected": want, "match": True},
              "fraction json differs from prod r/n")

    def _check_analyze(self, lib, doc):
        iso = all(min_in_a(a, b) for _, _, _, a, b in self.data)
        check(doc["class"] == ("iso" if iso else "zero")
              and doc["dual_min_in_a"] == all(a[0] == max(a + b)
                                              for _, _, _, a, b in self.data)
              and doc["well_spaced"] == all(well_spaced(a + b)
                                            for _, _, _, a, b in self.data),
              "analyze json differs from the minimum-entry rule")
        for place, (r, s, _, a, b) in zip(doc["places"], self.data):
            prime = descend(a, b)
            check(place["restricted"] == {"a": fmts(prime[0]), "b": fmts(prime[1])}
                  and place["degree"] == len(support(a, b)),
                  "analyze json place differs from the descent by hand")


def cli_rounds(rng: random.Random, rounds: int, smoke: bool) -> list:
    combos = [(sub, f) for sub in SUBCOMMANDS for f in FORMATS]
    out = []
    for _ in range(rounds):
        rng.shuffle(combos)
        out.append([CliTask(sub, f, *cli_request(rng, sub, f)) for sub, f in combos])
    return out


def cold_requests(rng: random.Random) -> list:
    """One json request per subcommand for the fresh-process timing. These
    probe start-up cost, so they are drawn from well-spaced inputs, which
    the paper covers."""
    out = []
    for sub in SUBCOMMANDS:
        while True:
            argv, data = cli_request(rng, sub, "json")
            places = data if sub in ("restrict", "chain", "analyze") else []
            if all(well_spaced(p[3] + p[4]) for p in places):
                out.append(argv)
                break
    return out


# The reference computation that gauges the machine's speed during a run:
# the hand-made descent chain of one fixed U(4,4) tuple, in the Fraction
# and tuple arithmetic the library also spends its time in.
_LAM = rho_shift((9, 7, 5, 3, 1, -1, -3, -5))
_REFERENCE_PLACES = [(4, 4, _LAM[0::2], _LAM[1::2])] * 2


def reference() -> None:
    for _ in range(6):
        expected_chain(_REFERENCE_PLACES, 4)
        support(_LAM[0::2], _LAM[1::2])


# name -> (rounds generator, rounds generated at set-up, rounds in a traced pass)
WORKLOADS = {
    "packets": (packets_rounds, 6, 1),
    "descent": (descent_rounds, 12, 2),
    "cli": (cli_rounds, 64, 24),
}
