import random
from fractions import Fraction

import pytest

from helpers import (VERDICT_VALUES, all_signatures, fraction_minimal_ktype,
                     packet_sweep_characters, random_ic, random_kdominant, random_weight,
                     reference_minimal_ktype, sorted_diagnostics, verdict_values)

from lpackets import (
    HCParameter,
    Signature,
    Weight,
    blattner,
    degree,
    enumerate_packet,
    minimal_ktype_test,
    regularity_margin,
    rho,
    shifted_weight,
    theta_parabolic,
)


class TestShiftedWeight:
    def test_worked_example(self):
        mu = Weight((5, 3, 0))
        assert shifted_weight(mu, Signature(2, 1)).entries == (6, 2, 0)

    def test_rejects_non_k_dominant(self):
        with pytest.raises(ValueError):
            shifted_weight(Weight((3, 5, 0)), Signature(2, 1))

    def test_cross_block_order_free(self):
        # only within-block monotonicity is required
        got = shifted_weight(Weight((0, 5)), Signature(1, 1))
        assert got.entries == (0, 5)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            shifted_weight(Weight((1, 0)), Signature(2, 1))


class TestThetaParabolic:
    def test_regular_weight_gives_borel(self):
        para = theta_parabolic(Weight((6, 2, 0)))
        assert para.is_borel
        assert para.two_rho_u.entries == (2, 0, -2)

    def test_singular_weight_not_borel(self):
        para = theta_parabolic(Weight((3, 3, 0)))
        assert not para.is_borel
        assert len(para.delta_u) == 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_rho_gives_two_rho(self, n):
        para = theta_parabolic(rho(n))
        assert para.two_rho_u == rho(n) + rho(n)
        assert para.is_borel

    @pytest.mark.parametrize("n", range(1, 11))
    def test_split_by_signature(self, n):
        # Over a packet member, the pairs inside a block are every compact
        # positive root, the a-to-b pairs count the degree, and the b-to-a
        # pairs the rest of the r*s noncompact ones.
        rng = random.Random(600 + n)
        for sig in all_signatures(n):
            r, s = sig.r, sig.s
            for m in enumerate_packet(random_ic(rng, n), sig):
                a_to_b = b_to_a = compact = 0
                for i, j in theta_parabolic(m.hc.weight).delta_u:
                    if (i <= r) == (j <= r):
                        compact += 1
                    elif i <= r:
                        a_to_b += 1
                    else:
                        b_to_a += 1
                assert compact == r * (r - 1) // 2 + s * (s - 1) // 2
                assert a_to_b == degree(m.hc) == m.degree
                assert b_to_a == r * s - m.degree


class TestVerdicts:
    def test_worked_example_accepted(self):
        verdict = minimal_ktype_test(Weight((5, 3, 0)), Signature(2, 1))
        para = theta_parabolic(verdict.mu_shifted)
        assert verdict.accepted
        assert para.is_borel and verdict.positivity_ok
        assert verdict.mu_shifted.entries == (6, 2, 0)
        assert verdict.hc == HCParameter((5, 2), (1,))
        full_shift = verdict.mu_shifted - para.two_rho_u
        assert full_shift.entries == (4, 2, 2)
        assert regularity_margin(full_shift) == 0

    def test_positivity_failure(self):
        verdict = minimal_ktype_test(Weight((1, 0), ), Signature(1, 1))
        assert not verdict.accepted
        assert theta_parabolic(verdict.mu_shifted).is_borel
        assert not verdict.positivity_ok

    def test_borel_failure(self):
        verdict = minimal_ktype_test(Weight((3, 3, 0)), Signature(2, 1))
        assert not verdict.accepted
        assert not theta_parabolic(verdict.mu_shifted).is_borel
        assert verdict.hc is None

    def test_round_trip_from_blattner(self):
        rng = random.Random(41)
        checked = 0
        for n in range(1, 7):
            for sig in all_signatures(n):
                ic = random_ic(rng, n, strict=True)
                for m in enumerate_packet(ic, sig):
                    verdict = minimal_ktype_test(m.blattner, sig)
                    assert verdict.accepted
                    assert verdict.hc == m.hc
                    checked += 1
        assert checked > 100

    def test_margin_two_guarantees_acceptance(self):
        rng = random.Random(43)
        accepted = 0
        for n in range(2, 7):
            for sig in all_signatures(n):
                for _ in range(8):
                    mu = random_kdominant(rng, sig)
                    verdict = minimal_ktype_test(mu, sig)
                    margin = regularity_margin(verdict.mu_shifted)
                    if margin is not None and margin >= 2:
                        assert verdict.accepted
                        assert blattner(verdict.hc) == mu
                        accepted += 1
        assert accepted >= 40

    def test_double_shift_never_drives_acceptance(self):
        verdict = minimal_ktype_test(Weight((5, 3, 0)), Signature(2, 1))
        # literal full-shift weight equals recovered parameter minus half sum
        half = Weight(Fraction(e, 2) for e in (2, 0, -2))
        full_shift = verdict.mu_shifted - theta_parabolic(verdict.mu_shifted).two_rho_u
        assert full_shift == verdict.hc.weight - half


class TestFractionReference:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_fraction_route(self, n):
        rng = random.Random(300 + n)
        half = Fraction(1, 2)
        for sig in all_signatures(n):
            mus = [m.blattner for m in enumerate_packet(random_ic(rng, n), sig)]
            for _ in range(6):
                mu = random_kdominant(rng, sig)
                mus += [mu, Weight(e + half for e in mu)]
            for mu in mus:
                verdict = minimal_ktype_test(mu, sig)
                para = theta_parabolic(verdict.mu_shifted)
                hc = verdict.hc
                got = (verdict.accepted, para.is_borel, verdict.positivity_ok,
                       None if hc is None else (hc.a, hc.b),
                       (verdict.mu_shifted - para.two_rho_u).entries, verdict.mu_shifted.entries)
                assert got == fraction_minimal_ktype(mu.entries, sig.r)


class TestMargin:
    def test_examples(self):
        assert regularity_margin(Weight((6, 2, 0))) == 2
        assert regularity_margin(Weight((5, 2, 1))) == 1
        assert regularity_margin(Weight((4, 2, 2))) == 0

    def test_half_integral(self):
        got = regularity_margin(Weight((Fraction(9, 2), Fraction(5, 2))))
        assert got == 2

    def test_short_weights(self):
        assert regularity_margin(Weight((7,))) is None
        assert regularity_margin(Weight(())) is None

    def test_matches_pair_minimum(self):
        rng = random.Random(13)
        ties = halves = 0
        for n in range(2, 11):
            for _ in range(200):
                w = random_weight(rng, n)
                want = min(abs(x - y) for k, x in enumerate(w) for y in w[k + 1:])
                assert regularity_margin(w) == want
                ties += want == 0
                halves += w.doubled[0] % 2
        assert ties > 0 and halves > 0


class TestAcceptanceRule:
    """The test accepts exactly when the shifted weight fixes a Borel and
    mu is positive against its root sum: the recovered parameter needs no
    check of its own. The pair-list reference keeps that check. Here over
    the packet sweep's Blattner weights; `TestPairReference` checks the
    rule over its random K-dominant weights."""

    def test_packet_sweep_blattner_weights(self):
        inputs = [(m.blattner, sig) for sig, ic in packet_sweep_characters()
                  for m in enumerate_packet(ic, sig)]
        values = [verdict_values(minimal_ktype_test(mu, sig)) for mu, sig in inputs]
        assert all(accepted == (borel_ok and positivity_ok)
                   for accepted, borel_ok, positivity_ok, *_ in values)
        assert values == [reference_minimal_ktype(mu, sig) for mu, sig in inputs]
        assert len(inputs) == 5100


class TestPairReference:
    """The one-sort test against the pair-list test it replaced
    (`reference_minimal_ktype`), on every value of the verdict and of its
    parabolic, and its acceptance rule, and the parabolic and the
    diagnostics against a one-sort route (`sorted_diagnostics`), over
    random K-dominant weights with ties, on both cosets and for every r."""

    @staticmethod
    def sweep(n):
        """(mu, sig): about 5200 random K-dominant weights with ties for
        each n, every other one on the half-integral coset, for every r."""
        rng = random.Random(700 + n)
        for sig in all_signatures(n):
            for k in range(5200 // (n + 1) + 1):
                mu = random_kdominant(rng, sig, max_gap=rng.choice((1, 3, 6)))
                if k % 2:
                    mu = Weight.from_doubled(d + 1 for d in mu.doubled)
                yield mu, sig

    @pytest.mark.parametrize("n", range(1, 11))
    def test_matches_pair_route(self, n):
        seen = {"accepted": 0, "borel_fail": 0, "positivity_fail": 0, "tie": 0}
        checked = 0
        for mu, sig in self.sweep(n):
            got = minimal_ktype_test(mu, sig)
            values = dict(zip(VERDICT_VALUES, verdict_values(got)))
            borel_ok, positivity_ok = values["borel_ok"], values["positivity_ok"]
            assert got.accepted == (borel_ok and positivity_ok)
            want = reference_minimal_ktype(mu, sig)
            for name, wanted in zip(VERDICT_VALUES, want):
                assert values[name] == wanted, name
            assert type(values["doubled_two_rho_u"]) is tuple
            seen["accepted"] += got.accepted
            seen["borel_fail"] += not borel_ok
            seen["positivity_fail"] += borel_ok and not positivity_ok
            seen["tie"] += len(set(mu.doubled)) < n
            checked += 1
        assert checked >= 5200
        if n >= 2:
            assert min(seen.values()) > 0, seen

    @pytest.mark.parametrize("n", range(1, 11))
    def test_sort_route_matches_parabolic(self, n):
        # The parabolic, the verdict's positivity flag and the full-shift
        # weight against a second route (one sort, no pairs).
        for mu, sig in self.sweep(n):
            got = minimal_ktype_test(mu, sig)
            want = sorted_diagnostics(got.mu_shifted.doubled)
            para = theta_parabolic(got.mu_shifted)
            assert (para.two_rho_u.doubled, len(para.delta_u), para.is_borel, got.positivity_ok,
                    (got.mu_shifted - para.two_rho_u).doubled) == want

    @pytest.mark.parametrize("n", range(1, 11))
    def test_accepted_iff_margin_two(self, n):
        # The converse of `test_margin_two_guarantees_acceptance`: the test,
        # and the pair-list test, accept exactly when the shifted weight has
        # fewer than two entries or a regularity margin of at least 2.
        rejected = 0
        for mu, sig in self.sweep(n):
            want = reference_minimal_ktype(mu, sig)
            margin = regularity_margin(want[VERDICT_VALUES.index("mu_shifted")])
            accepted = margin is None or margin >= 2
            assert want[0] is accepted, (mu, sig)
            assert minimal_ktype_test(mu, sig).accepted is accepted, (mu, sig)
            rejected += not accepted
        assert rejected > 0 or n == 1
