import itertools
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import reference_weyl_dim

from lpackets import (
    KRestriction,
    Signature,
    Weight,
    branch,
    interlaces,
    restrict_ktype,
    restriction_contains,
    weyl_dim,
)
from lpackets.branching import _KERNEL_MAX
from lpackets.cartan import doubled_text


@st.composite
def dominant_weights(draw, max_len=5):
    m = draw(st.integers(min_value=1, max_value=max_len))
    half = draw(st.booleans())
    top = draw(st.integers(min_value=-6, max_value=8))
    gaps = draw(st.lists(st.integers(min_value=0, max_value=3),
                         min_size=m - 1, max_size=m - 1))
    entries = [top]
    for g in gaps:
        entries.append(entries[-1] - g)
    if half:
        return Weight(Fraction(2 * e + 1, 2) for e in entries)
    return Weight(entries)


class TestInterlaces:
    def test_examples(self):
        assert interlaces(Weight((5, 3)), Weight((4,)))
        assert interlaces(Weight((5, 3)), Weight((5,)))
        assert not interlaces(Weight((5, 3)), Weight((2,)))

    def test_half_integral(self):
        upper = Weight((Fraction(9, 2), Fraction(5, 2)))
        assert interlaces(upper, Weight((Fraction(7, 2),)))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            interlaces(Weight((5, 3)), Weight((4, 3)))


class TestBranch:
    def test_worked_example(self):
        got = branch(Weight((5, 3)))
        assert [(c.lower.entries, c.u1) for c in got] == [
            ((5,), 3), ((4,), 4), ((3,), 5)]

    def test_single_entry(self):
        got = branch(Weight((7,)))
        assert len(got) == 1
        assert got[0].lower.entries == ()
        assert got[0].u1 == 7

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError):
            branch(Weight((3, 5)))

    def test_half_integral_coset_preserved(self):
        for c in branch(Weight((Fraction(9, 2), Fraction(5, 2)))):
            assert all(e.denominator == 2 for e in c.lower.entries)

    @given(dominant_weights())
    @settings(max_examples=60, deadline=None)
    def test_dimension_oracle(self, upper):
        constituents = branch(upper)
        assert all(interlaces(upper, c.lower) for c in constituents)
        assert len({(c.lower, c.u1) for c in constituents}) == len(constituents)
        assert sum(c.u1 + sum(c.lower.entries) for c in constituents) \
            == len(constituents) * sum(upper.entries)
        assert weyl_dim(upper) >= len(constituents)
        total = sum(weyl_dim(c.lower) for c in constituents)
        assert total == weyl_dim(upper)


class TestWeylDim:
    def test_examples(self):
        assert weyl_dim(Weight((1, 0))) == 2
        assert weyl_dim(Weight((2, 0))) == 3
        assert weyl_dim(Weight((1, 1, 0))) == 3
        assert weyl_dim(Weight((2, 1, 0))) == 8

    def test_trivial_cases(self):
        assert weyl_dim(Weight((4,))) == 1
        assert weyl_dim(Weight(())) == 1

    def test_translation_invariance(self):
        assert weyl_dim(Weight((7, 6, 5))) == weyl_dim(Weight((2, 1, 0)))

    def test_rejects_non_dominant(self):
        with pytest.raises(ValueError, match=r"^highest weight \(0,2\) is not non-increasing$"):
            weyl_dim(Weight((0, 2)))

    @pytest.mark.parametrize("top", [8, 9], ids=["integral", "half-integral"])
    def test_matches_pairwise_reference(self, top):
        # Every dominant weight with m <= 6 and entries in a window of nine
        # values on one coset: -4..4, or -7/2..9/2.
        window = range(top, top - 18, -2)
        checked = 0
        for m in range(7):
            for doubled in itertools.combinations_with_replacement(window, m):
                weight = Weight.from_doubled(doubled)
                assert weyl_dim(weight) == reference_weyl_dim(weight), weight
                checked += 1
        assert checked == 5005

    def test_kernel_bound_sweep(self):
        # Random dominant weights on both cosets, on both sides of the bound
        # of the compiled kernels.
        rng = random.Random(16)
        for m in range(7, _KERNEL_MAX + 5):
            for parity in (0, 1):
                for _ in range(20):
                    doubled = [2 * rng.randint(-9, 9) + parity]
                    for _ in range(m - 1):
                        doubled.append(doubled[-1] - 2 * rng.randint(0, 3))
                    weight = Weight.from_doubled(doubled)
                    assert weyl_dim(weight) == reference_weyl_dim(weight), weight

    def test_rejects_each_adjacent_inversion(self):
        # One inversion at each position: a kernel returns no value for it,
        # and the general path raises the one error text.
        for m in range(2, _KERNEL_MAX + 2):
            for k in range(m - 1):
                doubled = list(range(2 * m, 0, -2))
                doubled[k], doubled[k + 1] = doubled[k + 1], doubled[k]
                text = re.escape(doubled_text(doubled))
                with pytest.raises(ValueError,
                                   match=rf"^highest weight \({text}\) is not non-increasing$"):
                    weyl_dim(Weight.from_doubled(doubled))


class TestRestrictKType:
    def test_worked_example(self):
        got = restrict_ktype(Weight((5, 4, 3)), Signature(2, 1))
        assert got == KRestriction(head=Weight((5,)), u1=4, tail=Weight((3,)))

    def test_r_one(self):
        got = restrict_ktype(Weight((5, 3, -2)), Signature(1, 2))
        assert got.head.entries == ()
        assert got.u1 == 5
        assert got.tail.entries == (3, -2)

    def test_rejects_r_zero(self):
        with pytest.raises(ValueError):
            restrict_ktype(Weight((5, 3)), Signature(0, 2))

    def test_rejects_non_dominant_block(self):
        with pytest.raises(ValueError):
            restrict_ktype(Weight((3, 5, 0)), Signature(2, 1))


class TestContains:
    def test_peeled_restriction_occurs(self):
        rng = random.Random(31)
        for _ in range(40):
            r = rng.randint(1, 4)
            s = rng.randint(0, 3)
            sig = Signature(r, s)
            entries = []
            for size in (r, s):
                top = rng.randint(-3, 6)
                block = [top]
                for _ in range(size - 1):
                    block.append(block[-1] - rng.randint(0, 3))
                entries.extend(block[:size])
            lam = Weight(entries)
            assert restriction_contains(lam, sig, restrict_ktype(lam, sig))

    def test_wrong_u1_rejected(self):
        lam = Weight((5, 4, 3))
        sig = Signature(2, 1)
        bad = KRestriction(head=Weight((5,)), u1=3, tail=Weight((3,)))
        assert not restriction_contains(lam, sig, bad)

    def test_wrong_tail_rejected(self):
        lam = Weight((5, 4, 3))
        sig = Signature(2, 1)
        bad = KRestriction(head=Weight((5,)), u1=4, tail=Weight((2,)))
        assert not restriction_contains(lam, sig, bad)

    def test_interlacing_head_with_forced_u1(self):
        lam = Weight((5, 4, 3))
        sig = Signature(2, 1)
        ok = KRestriction(head=Weight((4,)), u1=5, tail=Weight((3,)))
        assert restriction_contains(lam, sig, ok)
        bad = KRestriction(head=Weight((3,)), u1=6, tail=Weight((3,)))
        assert not restriction_contains(lam, sig, bad)
