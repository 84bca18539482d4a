import copy
import inspect
import itertools
import pickle
import random
import time
import warnings
from fractions import Fraction

import pytest

from helpers import (VERDICT_VALUES, all_signatures, counting_sweep, member_fraction_reference,
                     product_fraction_reference, random_ic, reference_dual_min_in_a,
                     reference_restriction, verdict_values, walk_fraction_reference)

import lpackets.descent
from lpackets import (
    BranchConstituent,
    ChainStep,
    HCParameter,
    InfinitesimalCharacter,
    KRestriction,
    MinimalKTypeVerdict,
    PacketMember,
    PlacedParameter,
    RestrictedParameter,
    RestrictionClass,
    Signature,
    ThetaParabolic,
    Weight,
    branch,
    classify_restriction,
    descent_chain,
    dual_parameter,
    enumerate_packet,
    expected_fraction,
    infinitesimal_character,
    isomorphism_fraction,
    min_entry_in_a,
    min_entry_in_a_everywhere,
    minimal_ktype_test,
    noncompact_support_matches,
    restrict_ktype,
    restrict_parameter,
    restriction_is_discrete_series,
    theta_parabolic,
    well_spaced,
    well_spaced_everywhere,
)

HALF = Fraction(1, 2)


def spaced_ic(rng, n):
    return random_ic(rng, n, strict=True)


class TestWellSpaced:
    def test_examples(self):
        assert well_spaced((5, 2, -1))
        assert not well_spaced((5, 4, -1))
        assert well_spaced(())
        assert well_spaced((3,))

    def test_everywhere(self):
        good = PlacedParameter([(Signature(2, 1), HCParameter((5, 2), (-1,)))])
        bad = PlacedParameter([(Signature(2, 1), HCParameter((5, 2), (1,)))])
        assert well_spaced_everywhere(good)
        assert not well_spaced_everywhere(bad)


class TestRestrictParameter:
    def test_worked_example(self):
        rp = restrict_parameter(Signature(2, 1), HCParameter((5, 2), (-1,)))
        assert rp.prime_a == (Fraction(9, 2),)
        assert rp.prime_b == (-HALF,)
        assert rp.u1_weight == 2

    def test_min_entry_case(self):
        rp = restrict_parameter(Signature(2, 1), HCParameter((5, 2), (3,)))
        assert rp.prime_a == (Fraction(9, 2),)
        assert rp.prime_b == (Fraction(7, 2),)
        assert rp.u1_weight == 2

    def test_empty_base(self):
        rp = restrict_parameter(Signature(1, 0), HCParameter((4,), ()))
        assert rp.prime_a == ()
        assert rp.prime_b == ()
        assert rp.u1_weight == 4

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            restrict_parameter(Signature(0, 2), HCParameter((), (3, 1)))

    def test_u1_is_coherent_tail(self):
        rng = random.Random(47)
        for n in range(1, 7):
            for sig in all_signatures(n):
                if sig.r == 0:
                    continue
                for m in enumerate_packet(spaced_ic(rng, n), sig):
                    rp = restrict_parameter(sig, m.hc)
                    assert rp.u1_weight == m.coherent[sig.r - 1]


class TestDiscreteSeriesCheck:
    def test_regular_descent(self):
        rp = restrict_parameter(Signature(2, 1), HCParameter((5, 2), (-1,)))
        assert restriction_is_discrete_series(rp, 3)

    def test_collision_fails(self):
        rp = restrict_parameter(Signature(2, 1), HCParameter((3, 1), (2,)))
        assert rp.prime_a == rp.prime_b == (Fraction(5, 2),)
        assert not restriction_is_discrete_series(rp, 3)
        with pytest.raises(ValueError):
            HCParameter.from_doubled(rp.doubled_a, rp.doubled_b)

    def test_holds_under_spacing(self):
        rng = random.Random(53)
        for n in range(1, 7):
            for sig in all_signatures(n):
                if sig.r == 0:
                    continue
                for m in enumerate_packet(spaced_ic(rng, n), sig):
                    rp = restrict_parameter(sig, m.hc)
                    assert restriction_is_discrete_series(rp, n)


class TestMinEntryCondition:
    def test_examples(self):
        assert min_entry_in_a(HCParameter((5, 2), (3,))) is True
        assert min_entry_in_a(HCParameter((5, 2), (-1,))) is False
        assert min_entry_in_a(HCParameter((5, -1), (2,))) is True

    def test_compact_base_always_true(self):
        assert min_entry_in_a(HCParameter((4, 1, 0), ())) is True

    def test_empty_a_block_false(self):
        assert min_entry_in_a(HCParameter((), (4, 1))) is False

    def test_everywhere(self):
        good = PlacedParameter([
            (Signature(2, 1), HCParameter((5, -1), (2,))),
            (Signature(1, 2), HCParameter((0,), (7, 3))),
        ])
        assert min_entry_in_a_everywhere(good)
        mixed = PlacedParameter([
            (Signature(2, 1), HCParameter((5, -1), (2,))),
            (Signature(1, 2), HCParameter((4,), (7, 3))),
        ])
        assert not min_entry_in_a_everywhere(mixed)


class TestSupportRoute:
    def test_matches_when_min_in_a(self):
        sig = Signature(2, 1)
        hc = HCParameter((5, -1), (2,))
        assert noncompact_support_matches(sig, hc, restrict_parameter(sig, hc))

    def test_differs_when_min_elsewhere(self):
        sig = Signature(2, 1)
        hc = HCParameter((5, 2), (-1,))
        assert not noncompact_support_matches(sig, hc, restrict_parameter(sig, hc))

    def test_equivalence_under_spacing(self):
        rng = random.Random(59)
        checked = 0
        for n in range(1, 7):
            for sig in all_signatures(n):
                if sig.r == 0:
                    continue
                for m in enumerate_packet(spaced_ic(rng, n), sig):
                    rp = restrict_parameter(sig, m.hc)
                    assert noncompact_support_matches(sig, m.hc, rp) \
                        == min_entry_in_a(m.hc)
                    checked += 1
        assert checked >= 120

    def test_gap_one_divergence(self):
        # a_1 = b_1 + 1: the minimum condition holds but the shifted blocks
        # collide, so the support route drops a pair and the two diverge
        sig = Signature(2, 1)
        hc = HCParameter((3, 1), (2,))
        assert not well_spaced((3, 2, 1))
        assert min_entry_in_a(hc) is True
        rp = restrict_parameter(sig, hc)
        assert noncompact_support_matches(sig, hc, rp) is False

        # off the hypothesis the routes can still agree
        hc2 = HCParameter((3, 2), (1,))
        rp2 = restrict_parameter(sig, hc2)
        assert min_entry_in_a(hc2) is False
        assert noncompact_support_matches(sig, hc2, rp2) is False


def off_spacing_sweep():
    """Every r >= 1 signature for n <= 7 with characters whose consecutive
    gaps may be 1: 8 draws per signature."""
    rng = random.Random(79)
    return [(sig, random_ic(rng, n)) for n in range(1, 8)
            for sig in all_signatures(n) if sig.r >= 1 for _ in range(8)]


def chain_parameters(sig, hc):
    """(parameters, chain): the one-place parameter followed by each
    parameter its chain to depth r reaches, and that chain."""
    p = PlacedParameter([(sig, hc)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        chain = descent_chain(p, sig.r, warn=False)
    return [p] + [step.parameter for step in chain], chain


class TestRouteOracles:
    """The library computes the descended parameter and the class one way;
    the K-type route and the support route check them here."""

    def check(self, places):
        counts = {"restricted": 0, "supported": 0, "unspaced_regular": 0, "divergent": 0,
                  "dual": 0}
        for sig, ic in places:
            for m in enumerate_packet(ic, sig):
                params, chain = chain_parameters(sig, m.hc)
                for k, q in enumerate(params):
                    ((s, hc),) = q.places
                    if s.r < 1:
                        continue
                    rp = restrict_parameter(s, hc)
                    assert rp == reference_restriction(s, hc)
                    counts["restricted"] += 1
                    by_minimum = min_entry_in_a(hc)
                    want = (RestrictionClass.ISOMORPHISM if by_minimum
                            else RestrictionClass.ZERO)
                    assert classify_restriction(q, warn=False) is want
                    if k < len(chain):
                        assert chain[k].classification is want
                        assert chain[k].dual_min_in_a is reference_dual_min_in_a(q)
                        counts["dual"] += 1
                    by_support = noncompact_support_matches(s, hc, rp)
                    descended = rp.doubled_a + rp.doubled_b
                    regular = len(set(descended)) == len(descended)
                    spaced = well_spaced_everywhere(q)
                    # The spacing hypothesis makes a descent regular, and on
                    # every regular descent the routes agree (the proof is in
                    # the descent module's docstring); they may diverge only
                    # at a singular one.
                    assert regular or not spaced
                    if regular:
                        assert by_support == by_minimum
                        counts["supported"] += spaced
                        counts["unspaced_regular"] += not spaced
                    else:
                        counts["divergent"] += by_support != by_minimum
        return counts

    def test_counting_sweep(self):
        places = [place for entry in counting_sweep() for place in entry if place[0].r >= 1]
        counts = self.check(places)
        assert counts["restricted"] >= 25000
        assert counts["supported"] >= 20000
        assert counts["dual"] >= 20000

    def test_off_spacing_sweep(self):
        counts = self.check(off_spacing_sweep())
        assert counts["restricted"] >= 4000
        assert counts["dual"] >= 3000
        # The sweep reaches parameters where the support route diverges, all
        # at singular descents, and regular descents off spacing.
        assert counts["divergent"] >= 100
        assert counts["unspaced_regular"] >= 2000


class TestClassify:
    def test_isomorphism(self):
        p = PlacedParameter([(Signature(2, 1), HCParameter((5, -1), (2,)))])
        assert classify_restriction(p) is RestrictionClass.ISOMORPHISM

    def test_zero(self):
        p = PlacedParameter([(Signature(2, 1), HCParameter((5, 2), (-1,)))])
        assert classify_restriction(p) is RestrictionClass.ZERO

    def test_two_places(self):
        one_bad = PlacedParameter([
            (Signature(2, 1), HCParameter((5, -1), (2,))),
            (Signature(2, 1), HCParameter((7, 4), (0,))),
        ])
        assert classify_restriction(one_bad) is RestrictionClass.ZERO
        both_good = PlacedParameter([
            (Signature(2, 1), HCParameter((5, -1), (2,))),
            (Signature(2, 1), HCParameter((7, 0), (4,))),
        ])
        assert classify_restriction(both_good) is RestrictionClass.ISOMORPHISM

    def test_r_zero_rejected(self):
        p = PlacedParameter([(Signature(0, 2), HCParameter((), (3, 1)))])
        with pytest.raises(ValueError):
            classify_restriction(p)

    def test_off_hypothesis_warns_once(self):
        p = PlacedParameter([(Signature(2, 1), HCParameter((3, 2), (1,)))])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = classify_restriction(p)
        assert got is RestrictionClass.ZERO
        assert len(caught) == 1
        assert "spacing hypothesis" in str(caught[0].message)

    def test_warning_suppressible(self):
        p = PlacedParameter([(Signature(2, 1), HCParameter((3, 2), (1,)))])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            classify_restriction(p, warn=False)
        assert caught == []

    def test_no_warning_on_hypothesis(self):
        p = PlacedParameter([(Signature(2, 1), HCParameter((5, -1), (2,)))])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            classify_restriction(p)
        assert caught == []


class TestFraction:
    def test_worked_example(self):
        places = [(Signature(2, 1), InfinitesimalCharacter(Weight((5, 2, -1))))]
        assert isomorphism_fraction(places) == Fraction(2, 3)
        assert expected_fraction([Signature(2, 1)]) == Fraction(2, 3)

    def test_compact_place(self):
        places = [(Signature(3, 0), InfinitesimalCharacter(Weight((6, 3, 0))))]
        assert isomorphism_fraction(places) == 1
        assert expected_fraction([Signature(3, 0)]) == 1

    def test_two_places(self):
        ic1 = InfinitesimalCharacter(Weight((5, 2, -1)))
        ic2 = InfinitesimalCharacter(Weight((7, 4, 0)))
        places = [(Signature(2, 1), ic1), (Signature(1, 2), ic2)]
        assert isomorphism_fraction(places) == Fraction(2, 9)
        assert expected_fraction([Signature(2, 1), Signature(1, 2)]) == Fraction(2, 9)

    def test_matches_closed_form(self):
        rng = random.Random(61)
        for n in range(1, 7):
            for sig in all_signatures(n):
                places = [(sig, spaced_ic(rng, n))]
                assert isomorphism_fraction(places) == expected_fraction([sig])

    def test_matches_walk_and_enumeration(self):
        # The library reads each place's count off its signature; the
        # subset walk and both enumeration routes are its oracles, over the
        # counting sweep and every single place with n <= 10.
        rng = random.Random(67)
        singles = [[(sig, random_ic(rng, n, strict=strict))]
                   for n in range(1, 11) for sig in all_signatures(n)
                   for strict in (False, True)]
        cases = counting_sweep() + singles
        assert len(cases) == 756 + 130
        for places in cases:
            got = isomorphism_fraction(places)
            assert got == walk_fraction_reference(places)
            assert got == member_fraction_reference(places)
            assert got == product_fraction_reference(places)

    def test_expected_fraction_mixed_rank(self):
        # expected_fraction does not require equal rank: prod r_v / prod n_v.
        sigs = [Signature(2, 1), Signature(1, 1), Signature(0, 4)]
        assert expected_fraction(sigs[:2]) == Fraction(1, 3)
        assert expected_fraction(sigs) == 0
        assert expected_fraction([Signature(3, 2), Signature(2, 4)]) == Fraction(1, 5)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_product_reference_three_places(self, n):
        rng = random.Random(71 + n)
        for k, sigs in enumerate(itertools.product(all_signatures(n), repeat=3)):
            places = [(sig, random_ic(rng, n, strict=k % 2 == 0)) for sig in sigs]
            got = isomorphism_fraction(places)
            assert got == product_fraction_reference(places)
            assert got == expected_fraction(sigs)

    def test_six_places_scale(self):
        # The product packet has 70^6, about 1.2e11, combinations.
        ic = InfinitesimalCharacter(Weight((14, 12, 10, 8, 6, 4, 2, 0)))
        started = time.monotonic()
        got = isomorphism_fraction([(Signature(4, 4), ic)] * 6)
        assert time.monotonic() - started < 1.0
        assert got == Fraction(1, 64)

    def test_unequal_rank_rejected(self):
        with pytest.raises(ValueError):
            isomorphism_fraction([
                (Signature(2, 1), InfinitesimalCharacter(Weight((5, 2, -1)))),
                (Signature(1, 1), InfinitesimalCharacter(Weight((3, 0)))),
            ])

    @pytest.mark.parametrize("places, message", [
        ([(Signature(1, 1), (2, 1, 0))], "dimension mismatch"),
        ([(Signature(2, 1), (2, 1, 0)), (Signature(1, 1), (2, 1, 0))], "dimension mismatch"),
        ([(Signature(2, 1), (2, 1, 0)), (Signature(1, 1), (1, 0))], "places have unequal rank"),
    ], ids=["one-place", "second-place", "consistent-places"])
    def test_place_checked_before_ranks(self, places, message):
        # A place whose character has another rank than its signature is a
        # dimension mismatch, as in enumerate_packet; only places that each
        # match can have unequal ranks.
        with pytest.raises(ValueError, match=f"^{message}$"):
            isomorphism_fraction([(sig, infinitesimal_character(Weight(w))) for sig, w in places])

    @pytest.mark.parametrize("fraction", [isomorphism_fraction, expected_fraction])
    def test_no_place_rejected(self, fraction):
        with pytest.raises(ValueError, match="^at least one place is required$"):
            fraction([])


class TestChain:
    def test_isomorphism_chain(self):
        p = PlacedParameter([(Signature(2, 1), HCParameter((5, -1), (2,)))])
        chain = descent_chain(p, 2)
        assert [step.classification for step in chain] == [
            RestrictionClass.ISOMORPHISM, RestrictionClass.ZERO]
        first = chain[0].parameter.places[0][1]
        assert first == HCParameter((Fraction(9, 2),), (Fraction(5, 2),))
        assert chain[0].u1_weights == (-1,)

    def test_zero_chain_dual_flag(self):
        p = PlacedParameter([(Signature(2, 1), HCParameter((5, 2), (-1,)))])
        chain = descent_chain(p, 1)
        assert chain[0].classification is RestrictionClass.ZERO
        assert dual_parameter(p.places[0][1]) == HCParameter((-2, -5), (1,))
        assert chain[0].dual_min_in_a is True

    def test_depth_clamped(self):
        p = PlacedParameter([(Signature(1, 0), HCParameter((4,), ()))])
        assert descent_chain(p, 10) == []
        p3 = PlacedParameter([(Signature(2, 1), HCParameter((5, -1), (2,)))])
        assert len(descent_chain(p3, 10)) == 2

    @pytest.mark.parametrize("depth", [1.5, 1.0, True, False], ids=repr)
    def test_non_int_depth_rejected(self, depth):
        p = PlacedParameter([(Signature(2, 1), HCParameter((5, -1), (2,)))])
        with pytest.raises(ValueError, match=f"^depth {depth!r} is not an int$"):
            descent_chain(p, depth)

    def test_pending_r_zero_raises(self):
        p = PlacedParameter([(Signature(1, 2), HCParameter((5,), (2, -1)))])
        chain = descent_chain(p, 1)
        assert chain[0].parameter.places[0][0] == Signature(0, 2)
        with pytest.raises(ValueError):
            descent_chain(p, 2)

    def test_depth_above_r_raises_before_the_first_step(self):
        # (3;2,-1) is off the spacing hypothesis, so a first step would warn.
        p = PlacedParameter([(Signature(1, 2), HCParameter((3,), (2, -1)))])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError, match=r"^cannot descend a place with r = 0$"):
                descent_chain(p, 2)
        assert caught == []

    def test_singular_descent_returns_finished_steps(self):
        off = PlacedParameter([(Signature(2, 1), HCParameter((3, 1), (2,)))])
        with pytest.warns(UserWarning, match=r"descended parameter \(5/2;5/2\) is "
                                             r"singular; the chain stops here"):
            assert descent_chain(off, 2, warn=False) == []
        # Well spaced, yet the second step's descended blocks collide.
        spaced = PlacedParameter([(Signature(3, 1), HCParameter.from_doubled((25, 17, 13), (21,)))])
        with pytest.warns(UserWarning) as caught:
            chain = descent_chain(spaced, 3)
        # (12,8;11) is off the spacing hypothesis, so its step warns first.
        assert [str(w.message) for w in caught][1:] == [
            "descended parameter (23/2;23/2) is singular; the chain stops here"]
        assert caught[1].filename == __file__
        assert chain == descent_chain(spaced, 1)
        assert chain[0].parameter.places[0][1] == HCParameter((12, 8), (11,))

    @pytest.mark.parametrize("places, blocks", [
        # Both places are regular after one step; at the second, only the
        # second place's descended blocks collide.
        ([((18, 10, 2), (6,)), ((25, 17, 13), (21,))], "23/2;23/2"),
        # Both collide at the second step: the first place is named.
        ([((27, 19, 15), (23,)), ((25, 17, 13), (21,))], "25/2;25/2"),
    ], ids=["second-place", "both-places"])
    def test_two_places_stop_at_the_first_singular_place(self, places, blocks):
        p = PlacedParameter((Signature(3, 1), HCParameter.from_doubled(a, b)) for a, b in places)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            chain = descent_chain(p, 2, warn=False)
        assert [(w.category, str(w.message)) for w in caught] == [
            (UserWarning, f"descended parameter ({blocks}) is singular; the chain stops here")]
        assert caught[0].filename == __file__
        assert len(chain) == 1
        assert chain == descent_chain(p, 1, warn=False)

    def test_depth_clamp_beats_pending_r_zero(self):
        # n = 2 clamps to one step, so the r = 0 place is never restricted
        p = PlacedParameter([(Signature(1, 1), HCParameter((3,), (0,)))])
        chain = descent_chain(p, 5)
        assert len(chain) == 1
        assert chain[0].parameter.places[0][0] == Signature(0, 1)

    def test_u1_sum_identity(self):
        # split-off weights plus the residual coherent sum reconstruct the
        # original coherent trace at each place
        rng = random.Random(67)
        for _ in range(20):
            n = rng.randint(2, 6)
            r = rng.randint(1, n)
            sig = Signature(r, n - r)
            m = enumerate_packet(spaced_ic(rng, n), sig)[0]
            p = PlacedParameter([(sig, m.hc)])
            chain = descent_chain(p, r, warn=False)
            total = sum(step.u1_weights[0] for step in chain)
            last_sig, last_hc = chain[-1].parameter.places[0]
            residual = sum((last_hc.weight - rho_weight(last_hc.n)).entries)
            original = sum((m.hc.weight - rho_weight(n)).entries)
            assert total + residual == original

    def test_step_matches_classifier_and_restriction(self):
        rng = random.Random(73)
        for _ in range(60):
            n = rng.randint(2, 6)
            places = []
            for _ in range(rng.randint(1, 3)):
                r = rng.randint(1, n)
                sig = Signature(r, n - r)
                ic = random_ic(rng, n, strict=rng.random() < 0.7)
                places.append((sig, rng.choice(enumerate_packet(ic, sig)).hc))
            p = PlacedParameter(places)
            restricted = [restrict_parameter(sig, hc) for sig, hc in places]
            if not all(restriction_is_discrete_series(rp, n) for rp in restricted):
                continue
            (step,) = descent_chain(p, 1, warn=False)
            assert step.classification is classify_restriction(p, warn=False)
            assert step.dual_min_in_a is reference_dual_min_in_a(p)
            assert step.u1_weights == tuple(rp.u1_weight for rp in restricted)
            assert [hc for _, hc in step.parameter.places] == [
                HCParameter.from_doubled(rp.doubled_a, rp.doubled_b) for rp in restricted]

    def test_warning_points_at_caller(self):
        p = PlacedParameter([(Signature(2, 1), HCParameter((3, 2), (1,)))])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            classify_restriction(p)
            descent_chain(p, 1)
        assert [w.filename for w in caught] == [__file__, __file__]

    def test_spacing_warnings_name_their_level(self):
        # Off, on, then off the hypothesis along the chain: the start warns,
        # and so does the level-2 parameter, which the level-1 step classifies.
        # The texts differ, so the default filter shows both.
        p = PlacedParameter([(Signature(3, 1), HCParameter.from_doubled((5, -3, -5), (-1,)))])
        off = "parameter is outside the spacing hypothesis (a consecutive gap is below 2)"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("default")
            descent_chain(p, 0)
            chain = descent_chain(p, 3)
        assert [str(w.message) for w in caught] == [off, f"level 1: {off}"]
        assert [well_spaced_everywhere(step.parameter) for step in chain] == [True, False, True]

    def test_no_spacing_test_without_warn(self, monkeypatch):
        def refuse(p):
            raise AssertionError("spacing was tested")

        monkeypatch.setattr(lpackets.descent, "well_spaced_everywhere", refuse)
        p = PlacedParameter([(Signature(3, 1), HCParameter.from_doubled((5, -3, -5), (-1,)))])
        assert len(descent_chain(p, 3, warn=False)) == 3

    def test_levels_descend(self):
        p = PlacedParameter([(Signature(3, 1), HCParameter((9, 5, 1), (3,)))])
        chain = descent_chain(p, 3, warn=False)
        assert [step.level for step in chain] == [3, 2, 1]


def rho_weight(n):
    from lpackets import rho
    return rho(n)


VALUES = [
    Weight((1, 2)),
    Weight((Fraction(5, 2), Fraction(-1, 2))),
    HCParameter((5, 2), (-1,)),
    HCParameter((), (Fraction(3, 2),)),
    InfinitesimalCharacter(Weight((5, 2, -1))),
    Signature(2, 1),
    PlacedParameter([(Signature(2, 1), HCParameter((5, 2), (-1,))),
                     (Signature(1, 2), HCParameter((4,), (1, -2)))]),
    # The slotted records: a packet member, a parabolic, an accepted and a
    # rejected verdict, a branch constituent.
    enumerate_packet(InfinitesimalCharacter(Weight((5, 2, -1))), Signature(2, 1))[1],
    theta_parabolic(Weight((5, -1, 2))),
    minimal_ktype_test(Weight((5, -1, 2)), Signature(2, 1)),
    minimal_ktype_test(Weight((2, 0, 0)), Signature(2, 1)),
    branch(Weight((Fraction(5, 2), Fraction(-1, 2))))[1],
    # The descent records: a restricted parameter, a chain step and a
    # K-type split.
    restrict_parameter(Signature(2, 1), HCParameter((5, 2), (-1,))),
    descent_chain(PlacedParameter([(Signature(2, 1), HCParameter((5, 2), (-1,))),
                                   (Signature(1, 2), HCParameter((4,), (1, -2)))]), 1)[0],
    restrict_ktype(Weight((5, 3, -2)), Signature(2, 1)),
]

# The public, checking constructor of each checking class, taking its slot
# values; a record's public constructor is the `__init__` compiled from its
# slots, which stores them as given.
PUBLIC = {
    Signature: Signature,
    Weight: Weight.from_doubled,
    HCParameter: HCParameter.from_doubled,
    InfinitesimalCharacter: InfinitesimalCharacter,
    PlacedParameter: PlacedParameter,
    KRestriction: lambda head, doubled_u1, tail: KRestriction(head, Fraction(doubled_u1, 2), tail),
}


def _slot_values(value) -> list:
    return [getattr(value, name) for name in value.__slots__]


def _public(value):
    """value rebuilt from its slot values by its public constructor."""
    cls = type(value)
    return PUBLIC.get(cls, cls)(*_slot_values(value))


def _unchecked(value):
    """value rebuilt from its slot values without a check: by the compiled
    `_trusted` of a checking class, which only those classes have, or by a
    record's compiled `__init__`."""
    cls = type(value)
    assert ("_trusted" in vars(cls)) == (cls in PUBLIC)
    return (cls._trusted if cls in PUBLIC else cls)(*_slot_values(value))


def _value_id(value) -> str:
    """The repr of a value. A verdict shows every value it gives, those it
    computes on access too, as its repr did before 0.9.0: its cases keep
    their ids."""
    if type(value) is not MinimalKTypeVerdict:
        return repr(value)
    values = map("{}={!r}".format, VERDICT_VALUES, verdict_values(value))
    return f"MinimalKTypeVerdict({', '.join(values)})"


@pytest.mark.parametrize("value", VALUES, ids=_value_id)
@pytest.mark.parametrize("clone", [
    lambda v: pickle.loads(pickle.dumps(v)),
    lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    copy.copy,
    copy.deepcopy,
    _unchecked,
    _public,
], ids=["pickle", "pickle-0", "copy", "deepcopy", "unchecked", "public"])
def test_value_types_round_trip(value, clone):
    twin = clone(value)
    assert type(twin) is type(value)
    assert twin == value
    assert hash(twin) == hash(value)
    assert repr(twin) == repr(value)
    field = twin.__slots__[0]
    with pytest.raises(AttributeError):
        setattr(twin, field, getattr(twin, field))
    with pytest.raises(AttributeError):
        delattr(twin, field)


@pytest.mark.parametrize("text", [
    "Signature(r=2, s=1)",
    "PacketMember(hc=HCParameter((5,-1;2)), degree=1)",
    "ThetaParabolic(delta_u=((1, 2), (1, 3), (3, 2)), is_borel=True, "
    "two_rho_u=Weight((2, -2, 0)))",
    "MinimalKTypeVerdict(mu_shifted=Weight((6, -2, 2)), hc=HCParameter((5,-1;2)))",
    "BranchConstituent(lower=Weight((3/2)), doubled_u1=1)",
    "RestrictedParameter(doubled_a=(9,), doubled_b=(-1,), doubled_u1=4)",
    "ChainStep(level=2, parameter=PlacedParameter([(Signature(r=1, s=1), "
    "HCParameter((9/2;-1/2))), (Signature(r=0, s=2), HCParameter((;3/2,-3/2)))]), "
    "doubled_u1=(4, 6), classification=<RestrictionClass.ZERO: 'zero'>, dual_min_in_a=True)",
    "KRestriction(head=Weight((5)), doubled_u1=6, tail=Weight((-2)))",
], ids=lambda text: text.partition("(")[0])
def test_record_repr_and_hash(text):
    # Each record prints as Name(field=value!r, ...), for the first of its
    # class in VALUES, and hashes as the tuple of its fields.
    value = next(v for v in VALUES if type(v).__name__ == text.partition("(")[0])
    assert repr(value) == text
    assert hash(value) == hash(tuple(getattr(value, name) for name in value.__slots__))


@pytest.mark.parametrize("cls, fields", [
    (Weight, ("doubled",)),
    (HCParameter, ("doubled_a", "doubled_b")),
    (InfinitesimalCharacter, ("weight",)),
], ids=["Weight", "HCParameter", "InfinitesimalCharacter"])
def test_value_type_stored_fields(cls, fields):
    # Each core value type is a slotted class over exactly these fields.
    assert tuple(name for base in cls.__mro__ for name in getattr(base, "__slots__", ())) == fields
    assert cls.__slots__ == fields


RECORDS = [PacketMember, BranchConstituent, RestrictedParameter, ChainStep, ThetaParabolic,
           MinimalKTypeVerdict]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_constructor_from_slots(cls):
    # A record declares its fields once, in `__slots__`; `_Frozen` compiles
    # `__init__(self, <slots in order>)`, which reads as a written one.
    parameters = inspect.signature(cls).parameters
    assert tuple(parameters) == cls.__slots__
    assert [p.annotation for p in parameters.values()] == [
        cls.__annotations__[name] for name in cls.__slots__]
    value = next(v for v in VALUES if type(v) is cls)
    fields = [getattr(value, name) for name in cls.__slots__]
    assert cls(*fields) == cls(**dict(zip(cls.__slots__, fields))) == value
    prefix = rf"^{cls.__name__}\.__init__\(\) "
    with pytest.raises(TypeError, match=prefix + "missing 1 required positional argument"):
        cls(*fields[:-1])
    with pytest.raises(TypeError, match=prefix + "got an unexpected keyword argument 'extra'"):
        cls(*fields, extra=None)
    with pytest.raises(TypeError, match=prefix + "takes"):
        cls(*fields, None)


def test_chain_step_stores_doubled_u1():
    # The U(1) weights are stored doubled; u1_weights is their Fraction view.
    assert ChainStep.__slots__ == (
        "level", "parameter", "doubled_u1", "classification", "dual_min_in_a")
    step = descent_chain(PlacedParameter([(Signature(2, 1), HCParameter((5, 2), (-1,))),
                                          (Signature(1, 2), HCParameter((4,), (1, -2)))]), 1)[0]
    assert step.doubled_u1 == (4, 6)
    assert step.u1_weights == (2, 3)
    assert {type(u) for u in step.u1_weights} == {Fraction}


# For each checking class, a value its `_trusted` builds and its public
# constructor rejects.
TAMPERED = [
    (Signature._trusted(0, 0), r"signature needs r, s >= 0 and r \+ s >= 1"),
    (Weight._trusted((2, 1)), r"mixed half-integrality in weight \(1,1/2\)"),
    (HCParameter._trusted((2, 4), ()), r"a-block \(1,2\) is not strictly decreasing"),
    (InfinitesimalCharacter._trusted(Weight((1, 2))),
     r"infinitesimal character \(1,2\) is not strictly decreasing"),
    (PlacedParameter._trusted(()), "at least one place is required"),
    (KRestriction._trusted(Weight((5,)), Fraction(1, 3), Weight((-2,))),
     "weight entry 1/6 is not a half-integer"),
]
CLONES = {
    "pickle": lambda v: pickle.loads(pickle.dumps(v)),
    "pickle-0": lambda v: pickle.loads(pickle.dumps(v, protocol=0)),
    "copy": copy.copy,
    "public": _public,
}


@pytest.mark.parametrize("value, message, clone", [
    pytest.param(value, message, clone, id=f"{name}-{type(value).__name__}")
    for name, clone in CLONES.items() for value, message in TAMPERED])
def test_tampered_value_fails_to_clone(value, message, clone):
    # Unpickling and copying go through the checking constructors (their
    # `__reduce__`), not through a restore of their slots; the public
    # constructors reject what `_trusted` stored unchecked.
    with pytest.raises(ValueError, match=message):
        clone(value)


@pytest.mark.parametrize("call", [
    lambda sig, hc: PlacedParameter([(sig, hc)]),
    restrict_parameter,
    lambda sig, hc: noncompact_support_matches(
        sig, hc, restrict_parameter(Signature(2, 1), HCParameter((5, 2), (1,)))),
], ids=["PlacedParameter", "restrict_parameter", "noncompact_support_matches"])
def test_signature_mismatch_message_is_plain(call):
    with pytest.raises(ValueError) as info:
        call(Signature(1, 2), HCParameter((5, 2), (1,)))
    message = str(info.value)
    assert message == "parameter (5,2;1) does not match signature (1,2)"
    assert "Signature(" not in message and "HCParameter(" not in message
