import math
import random
from fractions import Fraction

import pytest

from helpers import (all_signatures, gaussian_binomial, packet_sweep_characters, pair_inversions,
                     random_ic, reference_packet, walk_packet_reference)

from lpackets import (
    HCParameter,
    InfinitesimalCharacter,
    PacketMember,
    Signature,
    Weight,
    blattner,
    coherent_parameter,
    degree,
    dual_parameter,
    enumerate_packet,
    extremes,
    infinitesimal_character,
    min_entry_in_a,
    shuffle_length,
)
from lpackets.cartan import half_entry


def blattner_oracle(hc: HCParameter) -> Weight:
    """Independent route: the parameter plus the half-sum of noncompact
    roots positive on its chamber, minus the compact half-sum."""
    n = hc.n
    w = hc.weight
    coords = [Fraction(0)] * n
    for i, j in noncompact_positive_pairs(hc.sig):
        sign = 1 if w[i - 1] > w[j - 1] else -1
        coords[i - 1] += Fraction(sign, 2)
        coords[j - 1] -= Fraction(sign, 2)
    for i, j in compact_positive_pairs(hc.sig):
        coords[i - 1] -= Fraction(1, 2)
        coords[j - 1] += Fraction(1, 2)
    return Weight(x + c for x, c in zip(w, coords))


def noncompact_positive_pairs(sig: Signature) -> list[tuple[int, int]]:
    """The r*s roots e_i - e_j, i in the a-block and j in the b-block."""
    return [(i, j) for i in range(1, sig.r + 1) for j in range(sig.r + 1, sig.n + 1)]


def compact_positive_pairs(sig: Signature) -> list[tuple[int, int]]:
    pairs = [(i, j) for i in range(1, sig.r + 1)
             for j in range(i + 1, sig.r + 1)]
    pairs += [(i, j) for i in range(sig.r + 1, sig.n + 1)
              for j in range(i + 1, sig.n + 1)]
    return pairs


class TestHCParameter:
    def test_blocks(self):
        hc = HCParameter((5, 2), (-1,))
        assert (hc.r, hc.s, hc.n) == (2, 1, 3)
        assert hc.weight.entries == (5, 2, -1)

    def test_rejects_nondecreasing_block(self):
        with pytest.raises(ValueError):
            HCParameter((2, 5), (-1,))

    def test_rejects_cross_block_collision(self):
        with pytest.raises(ValueError):
            HCParameter((5, 2), (2,))

    def test_empty_blocks(self):
        assert HCParameter((), (3,)).sig == Signature(0, 1)


class TestInfinitesimalCharacter:
    def test_examples(self):
        assert infinitesimal_character(Weight((4, 2, 0))).entries == (5, 2, -1)
        got = infinitesimal_character(Weight((2, 1)))
        assert got.entries == (Fraction(5, 2), Fraction(1, 2))

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            infinitesimal_character(Weight((0, 2)))

    def test_repeated_entries_rejected(self):
        with pytest.raises(ValueError):
            InfinitesimalCharacter(Weight((3, 3, 0)))


class TestEnumerate:
    def test_worked_packet(self):
        ic = InfinitesimalCharacter(Weight((5, 2, -1)))
        members = enumerate_packet(ic, Signature(2, 1))
        assert [(m.hc.a, m.hc.b) for m in members] == [
            ((5, 2), (-1,)), ((5, -1), (2,)), ((2, -1), (5,))]
        assert [m.degree for m in members] == [2, 1, 0]
        assert [m.length for m in members] == [0, 1, 2]

    def test_cardinality_and_identity(self):
        rng = random.Random(5)
        for n in range(1, 8):
            for sig in all_signatures(n):
                ic = random_ic(rng, n)
                members = enumerate_packet(ic, sig)
                assert len(members) == math.comb(n, sig.r)
                assert len({m.hc for m in members}) == len(members)
                for m in members:
                    assert m.degree + m.length == sig.r * sig.s
                    assert m.degree + shuffle_length(m.hc, ic) == sig.r * sig.s
                    assert m.length == pair_inversions(m.shuffle_word)

    def test_colex_order(self):
        ic = InfinitesimalCharacter(Weight((7, 5, 3, 1)))
        members = enumerate_packet(ic, Signature(2, 2))
        words = [m.shuffle_word[:2] for m in members]
        assert words == [(1, 2), (1, 3), (2, 3), (1, 4), (2, 4), (3, 4)]

    def test_dimension_mismatch(self):
        ic = InfinitesimalCharacter(Weight((5, 2, -1)))
        with pytest.raises(ValueError):
            enumerate_packet(ic, Signature(2, 2))

    @pytest.mark.parametrize("sig", [Signature(2, 2), Signature(0, 2), Signature(1, 0)])
    def test_dimension_mismatch_raises_at_call(self, sig):
        # The packet is built eagerly: the error comes from the call itself,
        # not from a later iteration over a lazy result.
        ic = InfinitesimalCharacter(Weight((5, 2, -1)))
        with pytest.raises(ValueError, match="dimension mismatch"):
            enumerate_packet(ic, sig)
        assert isinstance(enumerate_packet(ic, Signature(2, 1)), list)


def doubled_character(rng: random.Random, n: int, parity: int) -> InfinitesimalCharacter:
    """A regular character whose doubled entries all have the given parity:
    integral for 0, half-integral for 1."""
    entries = sorted((2 * k + parity for k in rng.sample(range(-12, 13), n)), reverse=True)
    return InfinitesimalCharacter(Weight.from_doubled(entries))


class TestBulkKernel:
    """enumerate_packet fills its members in bulk; the walk it replaced
    builds them one at a time and is the reference."""

    @pytest.mark.parametrize("parity", [0, 1], ids=["integral", "half-integral"])
    def test_matches_walk(self, parity):
        rng = random.Random(300 + parity)
        members = 0
        for n in range(1, 11):
            ic = doubled_character(rng, n, parity)
            for sig in all_signatures(n):
                got = enumerate_packet(ic, sig)
                want, words = walk_packet_reference(ic, sig)
                assert len(got) == len(want) == len(words) == math.comb(n, sig.r)
                for g, w, word in zip(got, want, words):
                    assert type(g) is PacketMember and type(g.hc) is HCParameter
                    assert (g.hc.doubled_a, g.hc.doubled_b, g.degree, g.shuffle_word) == \
                        (w.hc.doubled_a, w.hc.doubled_b, w.degree, word)
                    assert {x & 1 for x in g.hc.doubled_a + g.hc.doubled_b} <= {parity}
                members += len(got)
        assert members == 2046

    def test_dimension_mismatch_in_both(self):
        ic = InfinitesimalCharacter(Weight((5, 2, -1)))
        for build in (enumerate_packet, walk_packet_reference):
            with pytest.raises(ValueError, match="dimension mismatch"):
                build(ic, Signature(2, 2))


class TestDegreeCounting:
    """Summed over the packet, t^degree is the Gaussian binomial
    [n choose r]_t; over the members meeting the minimum-entry condition
    (their a-block holds the last entry) it is [n-1 choose r-1]_t."""

    @staticmethod
    def polynomial(degrees) -> list[int]:
        coeffs: list[int] = []
        for d in degrees:
            coeffs += [0] * (d + 1 - len(coeffs))
            coeffs[d] += 1
        return coeffs

    @pytest.mark.parametrize("parity", [0, 1], ids=["integral", "half-integral"])
    def test_by_degree(self, parity):
        rng = random.Random(310 + parity)
        for n in range(1, 11):
            ic = doubled_character(rng, n, parity)
            for sig in all_signatures(n):
                packet = enumerate_packet(ic, sig)
                assert self.polynomial(m.degree for m in packet) == gaussian_binomial(n, sig.r)
                iso = [m.degree for m in packet if min_entry_in_a(m.hc)]
                assert self.polynomial(iso) == gaussian_binomial(n - 1, sig.r - 1)

    def test_gaussian_binomial(self):
        assert gaussian_binomial(4, 2) == [1, 1, 2, 1, 1]
        assert gaussian_binomial(3, 0) == [1]
        assert gaussian_binomial(3, -1) == gaussian_binomial(2, 3) == []
        for n in range(8):
            for k in range(n + 1):
                coeffs = gaussian_binomial(n, k)
                assert sum(coeffs) == math.comb(n, k)
                assert coeffs == coeffs[::-1] and len(coeffs) == k * (n - k) + 1


class TestFractionReference:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_fraction_route(self, n):
        rng = random.Random(200 + n)
        for sig in all_signatures(n):
            for strict in (False, True):
                ic = random_ic(rng, n, strict=strict)
                got = [(m.hc.a, m.hc.b, m.degree, m.shuffle_word,
                        m.blattner.entries, m.coherent.entries)
                       for m in enumerate_packet(ic, sig)]
                assert got == reference_packet(ic.entries, sig.r)

    def test_public_views_are_fractions(self):
        ic = infinitesimal_character(Weight((4, 2, 1, 0)))
        for m in enumerate_packet(ic, Signature(2, 2)):
            values = (m.hc.a + m.hc.b + m.blattner.entries + m.coherent.entries
                      + ic.entries + tuple(m.hc.weight))
            assert all(type(x) is Fraction for x in values)
        # The views share one bounded table: a first pass misses, and the
        # second, walked back, hits on the last maxsize entries of the first.
        maxsize = half_entry.cache_info().maxsize
        span = range(-5000, 5001)
        assert type(maxsize) is int and 0 < maxsize < len(span)
        half_entry.cache_clear()
        for order in (span, reversed(span)):
            for d in order:
                value = half_entry(d)
                assert value == Fraction(d, 2) and type(value) is Fraction
        info = half_entry.cache_info()
        assert info.hits >= maxsize and info.misses >= len(span)
        assert info.currsize == maxsize


class TestErrorMessages:
    def test_entries_rendered_as_text(self):
        with pytest.raises(ValueError, match=r"infinitesimal character \(3,3,0\)"):
            InfinitesimalCharacter(Weight((3, 3, 0)))
        with pytest.raises(ValueError, match=r"parameter \(5/2;5/2\) is singular"):
            HCParameter((Fraction(5, 2),), (Fraction(5, 2),))


class TestMemberData:
    def test_stored_fields(self):
        # A member stores its parameter and its degree; everything else,
        # the shuffle word included, is computed on access.
        assert tuple(name for base in PacketMember.__mro__
                     for name in getattr(base, "__slots__", ())) == ("hc", "degree")
        assert PacketMember.__slots__ == ("hc", "degree")

    def test_shuffle_word_of_hand_built_member(self):
        # (5, -1; 2) is a shuffle of the character (5, 2, -1): the a-entries
        # sit at positions 1 and 3, the b-entry at position 2.
        member = PacketMember(HCParameter((5, -1), (2,)), 1)
        assert member.shuffle_word == (1, 3, 2)
        assert member.length == 1 == pair_inversions(member.shuffle_word)
        half = PacketMember(HCParameter((Fraction(-1, 2),), (Fraction(7, 2), Fraction(3, 2))), 0)
        assert half.shuffle_word == (3, 1, 2)
        assert PacketMember(HCParameter((), (4, 0)), 0).shuffle_word == (1, 2)
        assert PacketMember(HCParameter((), ()), 0).shuffle_word == ()

    def test_shuffle_length_examples(self):
        ic = InfinitesimalCharacter(Weight((5, 2, -1)))
        assert shuffle_length(HCParameter((2, -1), (5,)), ic) == 2
        assert shuffle_length(HCParameter((5, -1), (2,)), ic) == 1

    def test_shuffle_length_rejects_foreign(self):
        ic = InfinitesimalCharacter(Weight((5, 2, -1)))
        with pytest.raises(ValueError):
            shuffle_length(HCParameter((5, 3), (-1,)), ic)

    def test_coherent_examples(self):
        assert coherent_parameter(HCParameter((5, 2), (-1,))).entries == (4, 2, 0)
        assert coherent_parameter(HCParameter((5, -1), (2,))).entries == (4, -1, 3)

    def test_blattner_examples(self):
        assert blattner(HCParameter((5, 2), (-1,))).entries == (5, 3, -2)
        assert blattner(HCParameter((2, -1), (5,))).entries == (1, -1, 6)

    def test_blattner_against_oracle(self):
        rng = random.Random(9)
        for n in range(1, 7):
            for sig in all_signatures(n):
                for m in enumerate_packet(random_ic(rng, n), sig):
                    assert m.blattner == blattner_oracle(m.hc)

    def test_blattner_k_dominant(self):
        rng = random.Random(13)
        for n in range(1, 7):
            for sig in all_signatures(n):
                for m in enumerate_packet(random_ic(rng, n), sig):
                    tau = m.blattner.entries
                    a, b = tau[: sig.r], tau[sig.r:]
                    assert all(x >= y for x, y in zip(a, a[1:]))
                    assert all(x >= y for x, y in zip(b, b[1:]))

    def test_degree_matches_root_count(self):
        rng = random.Random(17)
        for n in range(1, 7):
            for sig in all_signatures(n):
                for m in enumerate_packet(random_ic(rng, n), sig):
                    w = m.hc.weight
                    nc = [(i, j) for i, j in noncompact_positive_pairs(sig)
                          if w[i - 1] > w[j - 1]]
                    assert m.degree == len(nc) == degree(m.hc)

    def test_coherent_injective_on_packet(self):
        rng = random.Random(19)
        for sig in all_signatures(5):
            members = enumerate_packet(random_ic(rng, 5), sig)
            assert len({m.coherent for m in members}) == len(members)


class TestExtremes:
    def test_examples(self):
        ic = InfinitesimalCharacter(Weight((5, 2, -1)))
        holo, anti = extremes(enumerate_packet(ic, Signature(1, 2)))
        assert (holo.hc.a, holo.hc.b) == ((-1,), (5, 2))
        assert (anti.hc.a, anti.hc.b) == ((5,), (2, -1))

    def test_antiholomorphic_is_sorted_concatenation(self):
        rng = random.Random(23)
        for n in range(1, 8):
            for sig in all_signatures(n):
                ic = random_ic(rng, n)
                _, anti = extremes(enumerate_packet(ic, sig))
                assert anti.hc.a + anti.hc.b == ic.entries

    def test_empty_packet_rejected(self):
        with pytest.raises(ValueError):
            extremes([])

    def test_repeated_extreme_rejected(self):
        ic = InfinitesimalCharacter(Weight((3, 0)))
        holo, _ = extremes(enumerate_packet(ic, Signature(1, 1)))
        with pytest.raises(ValueError, match="^inconsistent packet: extreme members not unique$"):
            extremes([holo, holo])


class TestDual:
    def test_examples(self):
        assert dual_parameter(HCParameter((5, 2), (-1,))) == HCParameter((-2, -5), (1,))
        assert dual_parameter(HCParameter((0,), ())) == HCParameter((0,), ())

    def test_degree_complement(self):
        rng = random.Random(29)
        for n in range(1, 8):
            for sig in all_signatures(n):
                for m in enumerate_packet(random_ic(rng, n), sig):
                    assert degree(dual_parameter(m.hc)) == sig.r * sig.s - m.degree


class TestInversions:
    """shuffle_length and PacketMember.length, both rs - degree, against
    the count over all pairs of positions."""

    def test_packet_sweep_members(self):
        checked = 0
        for sig, ic in packet_sweep_characters():
            position = {value: k for k, value in enumerate(ic.entries)}
            for m in enumerate_packet(ic, sig):
                expected = pair_inversions(m.shuffle_word)
                assert m.length == expected
                assert shuffle_length(m.hc, ic) == expected
                assert pair_inversions([position[x] for x in m.hc.a + m.hc.b]) == expected
                checked += 1
        assert checked == 5100
