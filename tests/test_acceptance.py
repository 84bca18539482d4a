"""Acceptance gate: ten exact criteria, one reported line each.

Every check is exact rational arithmetic; the only tolerances are the
stated runtime bounds. Run with -v for one pass/fail line per criterion,
or with -s to see the printed summaries as well.
"""

import math
import random
import time
from fractions import Fraction

from helpers import (all_signatures, counting_sweep, member_fraction_reference,
                     packet_sweep_characters, pair_inversions, random_ic, random_kdominant)

from lpackets import (
    HCParameter,
    PlacedParameter,
    RestrictionClass,
    Signature,
    Weight,
    blattner,
    branch,
    classify_restriction,
    descent_chain,
    dual_parameter,
    enumerate_packet,
    expected_fraction,
    extremes,
    isomorphism_fraction,
    min_entry_in_a,
    minimal_ktype_test,
    noncompact_support_matches,
    regularity_margin,
    restrict_ktype,
    restrict_parameter,
    restriction_contains,
    restriction_is_discrete_series,
    shuffle_length,
    theta_parabolic,
    weyl_dim,
)

import pytest


def _report(num: int, detail: str) -> None:
    print(f"criterion {num:2d}: PASS ({detail})")


@pytest.fixture(scope="module")
def packet_sweep():
    """Criteria 1-3 share this: 10 random regular characters per (r,s), n <= 8."""
    started = time.monotonic()
    sweep = [(sig, ic, enumerate_packet(ic, sig)) for sig, ic in packet_sweep_characters()]
    return sweep, time.monotonic() - started


@pytest.fixture(scope="module")
def fraction_sweep():
    """Criteria 6-8 share this: all 1- and 2-place signature tuples, n <= 7,
    with well-spaced characters."""
    return counting_sweep()


def test_criterion_01_packet_cardinality(packet_sweep):
    sweep, elapsed = packet_sweep
    for sig, ic, packet in sweep:
        assert len(packet) == math.comb(sig.n, sig.r)
    assert elapsed < 5.0
    _report(1, f"{len(sweep)} packets, enumeration took {elapsed:.2f}s < 5s")


def test_criterion_02_degree_length_identity(packet_sweep):
    sweep, _ = packet_sweep
    members = 0
    for sig, ic, packet in sweep:
        for m in packet:
            # length and shuffle_length are rs - degree by definition; the
            # inversion count of the shuffle word over all pairs of
            # positions is the independent side of the identity.
            assert m.degree + m.length == sig.r * sig.s
            assert m.degree + shuffle_length(m.hc, ic) == sig.r * sig.s
            assert m.length == pair_inversions(m.shuffle_word)
            members += 1
    _report(2, f"degree + length = rs on {members} members")


def test_criterion_03_packet_extremes(packet_sweep):
    sweep, _ = packet_sweep
    for sig, ic, packet in sweep:
        holo, anti = extremes(packet)
        assert holo.degree == 0
        assert anti.degree == sig.r * sig.s
        assert sum(1 for m in packet if m.degree == 0) == 1
        assert sum(1 for m in packet if m.degree == sig.r * sig.s) == 1
        assert anti.hc.a + anti.hc.b == ic.entries
    _report(3, f"unique extremes in all {len(sweep)} packets, "
               "antiholomorphic concatenation equals the character")


def test_criterion_04_minimal_ktype_round_trip():
    rng = random.Random(107)
    started = time.monotonic()

    forward = 0
    attempts = 0
    sigs = [sig for n in range(2, 7) for sig in all_signatures(n)]
    while forward < 200:
        attempts += 1
        assert attempts < 20000, "generator starved"
        sig = sigs[rng.randrange(len(sigs))]
        mu = random_kdominant(rng, sig)
        verdict = minimal_ktype_test(mu, sig)
        margin = regularity_margin(verdict.mu_shifted)
        if margin is None or margin < 2:
            continue
        assert verdict.accepted
        assert blattner(verdict.hc) == mu
        forward += 1

    inverse = 0
    for n in range(1, 7):
        for sig in all_signatures(n):
            for _ in range(3):
                ic = random_ic(rng, n, strict=True)
                for m in enumerate_packet(ic, sig):
                    verdict = minimal_ktype_test(m.blattner, sig)
                    assert verdict.accepted
                    assert verdict.hc == m.hc
                    inverse += 1

    elapsed = time.monotonic() - started
    assert elapsed < 10.0
    _report(4, f"{forward} forward and {inverse} inverse round trips "
               f"in {elapsed:.2f}s < 10s")


def test_criterion_05_worked_example_lock():
    sig = Signature(2, 1)
    verdict = minimal_ktype_test(Weight((5, 3, 0)), sig)
    assert verdict.mu_shifted == Weight((6, 2, 0))
    parabolic = theta_parabolic(verdict.mu_shifted)
    assert parabolic.two_rho_u == Weight((2, 0, -2))
    assert verdict.positivity_ok
    w, t = verdict.mu_shifted.doubled, parabolic.two_rho_u.doubled
    equalities = [(i, j) for i, j in parabolic.delta_u
                  if w[i - 1] - w[j - 1] == t[i - 1] - t[j - 1]]
    assert len(equalities) == 1
    assert verdict.accepted
    assert verdict.hc == HCParameter((5, 2), (1,))
    full_shift = verdict.mu_shifted - parabolic.two_rho_u
    assert full_shift == Weight((4, 2, 2))
    assert regularity_margin(full_shift) == 0
    _report(5, "fixed example recovers (5,2;1); the full-shift value "
               "(4,2,2) is singular")


def test_criterion_06_counting_identity(fraction_sweep):
    for places in fraction_sweep:
        got = isomorphism_fraction(places)
        want = expected_fraction([sig for sig, _ in places])
        assert got == want
        assert member_fraction_reference(places) == want
    _report(6, f"library fraction and the share of enumerated packet members "
               f"equal the closed form on {len(fraction_sweep)} signature tuples")


def test_criterion_07_route_equivalence(fraction_sweep):
    members = 0
    for places in fraction_sweep:
        for sig, ic in places:
            if sig.r == 0:
                continue
            for m in enumerate_packet(ic, sig):
                rp = restrict_parameter(sig, m.hc)
                assert min_entry_in_a(m.hc) \
                    == noncompact_support_matches(sig, m.hc, rp)
                # the assertion above is the cross-check of the two routes;
                # the classifier itself reads the minimum-entry condition only
                got = classify_restriction(PlacedParameter([(sig, m.hc)]))
                want = (RestrictionClass.ISOMORPHISM if min_entry_in_a(m.hc)
                        else RestrictionClass.ZERO)
                assert got is want
                members += 1
    _report(7, f"minimum-entry and support routes agree on {members} members")


def test_criterion_08_descended_parameter_lattice(fraction_sweep):
    checked = 0
    for places in fraction_sweep:
        for sig, ic in places:
            if sig.r == 0:
                continue
            n = sig.n
            anchor = Fraction(n - 2, 2)
            for m in enumerate_packet(ic, sig):
                rp = restrict_parameter(sig, m.hc)
                assert restriction_is_discrete_series(rp, n)
                entries = rp.prime_a + rp.prime_b
                assert len(set(entries)) == len(entries)
                assert all((x - anchor).denominator == 1 for x in entries)
                if n > 1:
                    HCParameter.from_doubled(rp.doubled_a, rp.doubled_b)
                checked += 1
    _report(8, f"{checked} descended parameters regular and on the "
               "(n-2)/2 + Z coset")


def test_criterion_09_branching_oracle():
    rng = random.Random(109)
    started = time.monotonic()
    for _ in range(100):
        m = rng.randint(1, 6)
        entries = [rng.randint(-8, 8)]
        for _ in range(m - 1):
            entries.append(entries[-1] - rng.randint(0, 3))
        upper = Weight(entries)
        constituents = branch(upper)
        assert sum(weyl_dim(c.lower) for c in constituents) == weyl_dim(upper)

        r = rng.randint(1, m)
        sig = Signature(r, m - r)
        a, b = entries[:r], entries[r:]
        if all(x >= y for x, y in zip(b, b[1:])):
            lam = Weight(a + b)
            assert restriction_contains(lam, sig, restrict_ktype(lam, sig))
    elapsed = time.monotonic() - started
    assert elapsed < 5.0
    _report(9, f"dimension sums and containment held in {elapsed:.2f}s < 5s")


def test_criterion_10_descent_chain_regression():
    failing = HCParameter((5, 2), (-1,))
    assert not min_entry_in_a(failing)
    assert min_entry_in_a(dual_parameter(failing))
    assert dual_parameter(failing) == HCParameter((-2, -5), (1,))
    chain = descent_chain(PlacedParameter([(Signature(2, 1), failing)]), 1)
    assert chain[0].classification is RestrictionClass.ZERO
    assert chain[0].dual_min_in_a is True

    passing = HCParameter((5, -1), (2,))
    assert min_entry_in_a(passing)
    chain = descent_chain(PlacedParameter([(Signature(2, 1), passing)]), 2)
    assert chain[0].classification is RestrictionClass.ISOMORPHISM
    step1 = chain[0].parameter.places[0][1]
    assert step1 == HCParameter((Fraction(9, 2),), (Fraction(5, 2),))
    assert not min_entry_in_a(step1)
    assert chain[1].classification is RestrictionClass.ZERO
    _report(10, "hand-derived descent chain reproduced at both levels")
