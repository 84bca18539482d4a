import re
from fractions import Fraction
from operator import add, sub

import pytest
from hypothesis import given
from hypothesis import strategies as st

from lpackets import (
    HCParameter,
    InfinitesimalCharacter,
    KRestriction,
    Signature,
    Weight,
    hodge_parameter,
    pairing,
    rho,
    rho_tilde,
    weight_from_strings,
    weight_to_strings,
)
from lpackets.cartan import double_entry, doubled_from_str, doubled_to_str, half_entry


def weights(n_min=1, n_max=5):
    """Uniformly half-integral weights: integer doubles of one parity."""

    def build(draw_data):
        doubles, parity = draw_data
        return Weight(Fraction(2 * d + parity, 2) for d in doubles)

    return st.tuples(
        st.lists(st.integers(min_value=-12, max_value=12),
                 min_size=n_min, max_size=n_max),
        st.integers(min_value=0, max_value=1),
    ).map(build)


class TestWeight:
    def test_entries_exact(self):
        w = Weight((Fraction(5, 2), Fraction(1, 2)))
        assert w.entries == (Fraction(5, 2), Fraction(1, 2))

    def test_rejects_thirds(self):
        with pytest.raises(ValueError):
            Weight((Fraction(1, 3),))

    def test_rejects_mixed_coset(self):
        with pytest.raises(ValueError):
            Weight((1, Fraction(1, 2)))

    def test_add_sub_dimension_mismatch(self):
        with pytest.raises(ValueError):
            Weight((1, 2)) + Weight((1,))
        with pytest.raises(ValueError):
            Weight((1, 2)) - Weight((1,))

    @pytest.mark.parametrize("w, v", [
        (Weight((5, 2, -1)), Weight((0, -3, 4))),
        (Weight((Fraction(5, 2), Fraction(1, 2))), Weight((Fraction(-3, 2), Fraction(7, 2)))),
        (Weight((Fraction(5, 2), Fraction(-1, 2))), Weight((1, -4))),
    ], ids=["integral", "half-integral", "mixed"])
    def test_sub_and_neg_identities(self, w, v):
        assert w - w == Weight((0,) * len(w))
        assert -(-w) == w
        assert (w + v) - v == w

    @pytest.mark.parametrize("op", [add, sub])
    def test_non_weight_operand(self, op):
        w = Weight((1, 2))
        for other in ((1, 2), 1, Fraction(1, 2)):
            with pytest.raises(TypeError):
                op(w, other)
            with pytest.raises(TypeError):
                op(other, w)

    def test_empty_weight_allowed(self):
        assert len(Weight(())) == 0


# Each public constructor of a weight entry, and how to read that entry back doubled.
ENTRY_BUILDERS = {
    "Weight": (lambda v: Weight([v]), lambda w: w.doubled[0]),
    "HCParameter": (lambda v: HCParameter([v], []), lambda hc: hc.doubled_a[0]),
    "InfinitesimalCharacter": (lambda v: InfinitesimalCharacter([v]),
                               lambda ic: ic.weight.doubled[0]),
    "KRestriction": (lambda v: KRestriction(Weight(()), v, Weight(())),
                     lambda split: split.doubled_u1),
    # An entry's text, read back by the one text parser.
    "entry_to_str": (lambda v: doubled_to_str(double_entry(v)), doubled_from_str),
}


@pytest.mark.parametrize("builder", ENTRY_BUILDERS)
@pytest.mark.parametrize("value", [0.5, 2.0, True, "1/2", None,
                                   3, -2, 0, Fraction(5, 2), Fraction(-1, 2), Fraction(4)])
def test_entry_boundary(builder, value):
    """Only ints (not bools) and Fractions enter; others name the value."""
    build, read = ENTRY_BUILDERS[builder]
    if type(value) in (int, Fraction):
        assert read(build(value)) == int(2 * value)
    else:
        with pytest.raises(ValueError, match=f"^weight entry {re.escape(repr(value))} "
                                             "is not an int or a Fraction$"):
            build(value)


class TestSignature:
    def test_n(self):
        assert Signature(2, 1).n == 3

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Signature(0, 0)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Signature(-1, 2)

    def test_unequal_to_other_classes(self):
        # Value types compare equal only to instances of their own class.
        assert (Signature(1, 1) == (1, 1)) is False
        assert (Weight((1,)) == Signature(1, 0)) is False

    @pytest.mark.parametrize("r, s, bad", [
        (2.5, 0.5, "2.5"), (2.0, 1.0, "2.0"), (2, 1.0, "1.0"), (True, False, "True"),
        (1, True, "True"), ("2", 1, "'2'"), (2, None, "None"), (Fraction(2), 1, "Fraction(2, 1)"),
    ])
    def test_rejects_non_integers(self, r, s, bad):
        with pytest.raises(ValueError, match=f"signature entry {re.escape(bad)} is not an int"):
            Signature(r, s)


class TestPairing:
    def test_example(self):
        assert pairing(Weight((6, 2, 0)), Weight((1, -1, 0))) == 4

    def test_half_integral(self):
        x = Weight((Fraction(5, 2), Fraction(-5, 2)))
        assert pairing(x, x) == Fraction(25, 2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            pairing(Weight((1,)), Weight((1, 2)))

    @given(weights(), weights())
    def test_symmetric(self, x, y):
        if len(x) != len(y):
            return
        assert pairing(x, y) == pairing(y, x)

    @given(weights(n_min=3, n_max=3), weights(n_min=3, n_max=3),
           weights(n_min=3, n_max=3), st.integers(-3, 3))
    def test_bilinear(self, x, y, z, c):
        scaled = Weight(c * e for e in x)
        assert pairing(x + y, z) == pairing(x, z) + pairing(y, z)
        assert pairing(scaled, z) == c * pairing(x, z)


def same_length_pairs(n_max=6):
    return st.integers(min_value=1, max_value=n_max).flatmap(
        lambda n: st.tuples(weights(n, n), weights(n, n)))


class TestFractionAgreement:
    """The doubled-integer core against plain Fraction arithmetic."""

    @given(same_length_pairs())
    def test_arithmetic(self, pair):
        x, y = pair
        xs, ys = x.entries, y.entries
        assert (x + y).entries == tuple(a + b for a, b in zip(xs, ys))
        assert (x - y).entries == tuple(a - b for a, b in zip(xs, ys))
        assert (-x).entries == tuple(-a for a in xs)
        assert pairing(x, y) == sum((a * b for a, b in zip(xs, ys)), Fraction(0))

    @given(weights())
    def test_distinguished_shifts(self, w):
        n = len(w)
        assert rho(n).entries == tuple(Fraction(n - 1 - 2 * k, 2) for k in range(n))
        shift = Fraction(n - 1, 2)
        assert hodge_parameter(w).entries == tuple(e + shift for e in w.entries)

    @given(same_length_pairs())
    def test_public_views_are_fractions(self, pair):
        x, y = pair
        views = (x.entries + tuple(x) + (x[0], pairing(x, y)) + x[1:]
                 + rho(len(x)).entries + hodge_parameter(x).entries)
        assert all(type(v) is Fraction for v in views)
        assert x[1:] == x.entries[1:]
        assert x.doubled == tuple(int(2 * e) for e in x.entries)


class TestDistinguishedWeights:
    def test_rho_examples(self):
        assert rho(1).entries == (0,)
        assert rho(3).entries == (1, 0, -1)
        assert rho(4).entries == (Fraction(3, 2), Fraction(1, 2),
                                  Fraction(-1, 2), Fraction(-3, 2))

    def test_rho_tilde_examples(self):
        assert rho_tilde(1).entries == (0,)
        assert rho_tilde(2).entries == (1, 0)
        assert rho_tilde(5).entries == (4, 3, 2, 1, 0)

    @pytest.mark.parametrize("n", range(1, 13))
    def test_rho_shift_identity(self, n):
        shift = Fraction(n - 1, 2)
        assert rho(n) == Weight(e - shift for e in rho_tilde(n))

    def test_rho_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            rho(0)
        with pytest.raises(ValueError, match="^n must be at least 1$"):
            rho_tilde(0)


class TestHodgeParameter:
    def test_examples(self):
        assert hodge_parameter(Weight((5, 2, -1))).entries == (6, 3, 0)
        assert hodge_parameter(Weight((0,))).entries == (0,)
        half = Weight((Fraction(5, 2), Fraction(-5, 2)))
        assert hodge_parameter(half).entries == (3, -2)

    @given(weights(n_min=2))
    def test_preserves_differences(self, w):
        shifted = hodge_parameter(w)
        for k in range(len(w) - 1):
            assert shifted[k] - shifted[k + 1] == w[k] - w[k + 1]


class TestSerialization:
    def test_entry_round_trip(self):
        for text in ("5", "-1", "0", "5/2", "-7/2"):
            assert doubled_to_str(double_entry(half_entry(doubled_from_str(text)))) == text

    @given(st.integers(-10**6, 10**6))
    def test_doubled_round_trip(self, d):
        assert doubled_from_str(doubled_to_str(d)) == d
        assert doubled_from_str(f"{d}/1") == 2 * d

    def test_double_entry_rejects_non_half_integer(self):
        for entry in (Fraction(1, 3), Fraction(-7, 4)):
            with pytest.raises(ValueError, match=f"weight entry {entry} is not a half-integer"):
                double_entry(entry)

    def test_weight_round_trip(self):
        w = Weight((Fraction(9, 2), Fraction(5, 2), Fraction(-1, 2)))
        assert weight_from_strings(weight_to_strings(w)) == w

    def test_strings_format(self):
        w = Weight((Fraction(9, 2), Fraction(5, 2)))
        assert weight_to_strings(w) == ["9/2", "5/2"]
        assert weight_to_strings(Weight((4, -1))) == ["4", "-1"]

    def test_rejects_bad_denominator(self):
        with pytest.raises(ValueError):
            doubled_from_str("1/3")

    def test_rejects_unreduced(self):
        with pytest.raises(ValueError):
            doubled_from_str("4/2")

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            doubled_from_str("x")

    @pytest.mark.parametrize("token", ["1_0", "1_0/2", "3/2_0", "\u0661", "1/\u0662",
                                       "\uff15", "\u00b2", "--1", "+-1", "0x1"])
    def test_rejects_what_int_reads_beyond_ascii_digits(self, token):
        # int() reads underscores and non-ASCII digits; the entry syntax does not.
        with pytest.raises(ValueError, match=f"^bad weight entry {re.escape(repr(token))}$"):
            doubled_from_str(token)

    @pytest.mark.parametrize("token, doubled", [("+3", 6), ("-0", 0), (" 5 / 2 ", 5),
                                                ("007", 14), ("-7/2", -7)])
    def test_accepts_signs_digits_and_spaces(self, token, doubled):
        assert doubled_from_str(token) == doubled

    def test_mixed_coset_rejected(self):
        with pytest.raises(ValueError, match=r"mixed half-integrality in weight \(1,1/2\)"):
            weight_from_strings(["1", "1/2"])
