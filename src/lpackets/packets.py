"""Discrete-series parameter packets for U(r, s).

A regular, strictly decreasing infinitesimal character lambda splits into
an ordered pair of blocks (a; b) in C(n, r) ways, one per r-subset of its
entries; those shuffles are the packet. Each member stores its parameter
and its degree (the count of noncompact positive roots on it). Its shuffle
word, coherent parameter, Blattner parameter (lowest K-type highest
weight) and length are computed from those on each access, by the public
`coherent_parameter` and `blattner` and by degree + length = rs.

The blocks and degrees are read off the a-block index sets: the shuffle
itself needs no pair of entries compared, and a packet is built in bulk by
C iterators over those sets. The public constructors
(`HCParameter(...)`, `HCParameter.from_doubled`, `InfinitesimalCharacter`)
check order, coset and regularity. The rho-shift of a checked
non-increasing weight (`infinitesimal_character`), shuffles of a checked
infinitesimal character, their coherent and Blattner weights, dual
parameters and a checked parameter's weight are valid by construction;
they are built without a second check, one at a time by the `_trusted`
constructors that `_Frozen` compiles and a packet at once by
`_Frozen._fill`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterable, Sequence
from fractions import Fraction
from itertools import combinations, repeat
from operator import add, gt, itemgetter, sub

from .cartan import (
    EntryLike,
    Signature,
    Weight,
    _Frozen,
    check_non_increasing,
    check_parity,
    double_entry,
    doubled_text,
    half_view,
    two_rho,
)

__all__ = [
    "HCParameter",
    "InfinitesimalCharacter",
    "PacketMember",
    "infinitesimal_character",
    "enumerate_packet",
    "degree",
    "shuffle_length",
    "coherent_parameter",
    "blattner",
    "extremes",
    "dual_parameter",
]


def _strictly_decreasing(values: Sequence) -> bool:
    return all(map(gt, values, values[1:]))


_backwards = itemgetter(slice(None, None, -1))


def _singular_text(a: tuple[int, ...], b: tuple[int, ...]) -> str:
    return f"parameter ({doubled_text(a)};{doubled_text(b)}) is singular"


def _check_blocks(a: tuple[int, ...], b: tuple[int, ...]) -> None:
    """Reject doubled blocks that are not a parameter: mixed cosets, a block
    not strictly decreasing, or an entry shared by the blocks."""
    joint = a + b
    check_parity(joint)
    if not _strictly_decreasing(a):
        raise ValueError(f"a-block ({doubled_text(a)}) is not strictly decreasing")
    if not _strictly_decreasing(b):
        raise ValueError(f"b-block ({doubled_text(b)}) is not strictly decreasing")
    if len(set(joint)) != len(joint):
        raise ValueError(_singular_text(a, b))


class HCParameter(_Frozen):
    """Harish-Chandra parameter (a; b): two strictly decreasing blocks,
    jointly regular, with uniform half-integrality.

    The blocks are stored doubled (`doubled_a`, `doubled_b`); `a` and `b`
    are their Fraction views.
    """

    __slots__ = ("doubled_a", "doubled_b")
    doubled_a: tuple[int, ...]
    doubled_b: tuple[int, ...]

    def __init__(self, a: Iterable[EntryLike], b: Iterable[EntryLike]):
        a, b = tuple(double_entry(x) for x in a), tuple(double_entry(x) for x in b)
        _check_blocks(a, b)
        self._store(a, b)

    @classmethod
    def from_doubled(cls, a: Sequence[int], b: Sequence[int]) -> "HCParameter":
        """The parameter whose blocks are half of the given ints."""
        a, b = tuple(a), tuple(b)
        _check_blocks(a, b)
        return cls._trusted(a, b)

    def __reduce__(self):
        return (HCParameter.from_doubled, (self.doubled_a, self.doubled_b))

    a = half_view("doubled_a")
    b = half_view("doubled_b")

    @property
    def r(self) -> int:
        return len(self.doubled_a)

    @property
    def s(self) -> int:
        return len(self.doubled_b)

    @property
    def n(self) -> int:
        return len(self.doubled_a) + len(self.doubled_b)

    @property
    def sig(self) -> Signature:
        return Signature(self.r, self.s)

    @property
    def weight(self) -> Weight:
        """Concatenated (a, b) as a plain weight: the blocks share one coset."""
        return Weight._trusted(self.doubled_a + self.doubled_b)

    def __repr__(self) -> str:
        return f"HCParameter(({doubled_text(self.doubled_a)};{doubled_text(self.doubled_b)}))"


class InfinitesimalCharacter(_Frozen):
    """Strictly decreasing regular weight; the packet-defining datum."""

    __slots__ = ("weight",)
    weight: Weight

    def __init__(self, entries: Iterable[EntryLike]):
        weight = entries if isinstance(entries, Weight) else Weight(entries)
        if not _strictly_decreasing(weight.doubled):
            raise ValueError(
                f"infinitesimal character ({doubled_text(weight.doubled)}) is not "
                "strictly decreasing (singular or misordered)")
        self._store(weight)

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self.weight.entries

    @property
    def n(self) -> int:
        return len(self.weight)

    def __repr__(self) -> str:
        return f"InfinitesimalCharacter(({doubled_text(self.weight.doubled)}))"


class PacketMember(_Frozen):
    """One shuffle of the infinitesimal character. The shuffle word, the
    Blattner and coherent weights and the length are computed on each
    access."""

    __slots__ = ("hc", "degree")
    hc: HCParameter
    degree: int

    @property
    def shuffle_word(self) -> tuple[int, ...]:
        """The 1-based positions of the a-entries, then of the b-entries, in
        the decreasing concatenation of the blocks (the infinitesimal
        character)."""
        joint = self.hc.doubled_a + self.hc.doubled_b
        position = {value: k for k, value in enumerate(sorted(joint, reverse=True), 1)}
        return tuple(map(position.__getitem__, joint))

    @property
    def blattner(self) -> Weight:
        return blattner(self.hc)

    @property
    def coherent(self) -> Weight:
        return coherent_parameter(self.hc)

    @property
    def length(self) -> int:
        """Inversion count of the shuffle word, which is rs - degree."""
        hc = self.hc
        return len(hc.doubled_a) * len(hc.doubled_b) - self.degree


def infinitesimal_character(a_sigma: Iterable[EntryLike]) -> InfinitesimalCharacter:
    """Shift a non-increasing highest weight by rho.

    Doubled, 2 rho falls by 2 per entry, all of one parity, so the result
    is strictly decreasing and on one coset, and is not checked again.
    """
    weight = a_sigma if isinstance(a_sigma, Weight) else Weight(a_sigma)
    doubled = weight.doubled
    check_non_increasing(doubled, "highest weight")
    return InfinitesimalCharacter._trusted(
        Weight._trusted(tuple(map(add, doubled, two_rho(len(doubled))))))


def _below_counts(a: tuple[int, ...], b: tuple[int, ...]) -> list[int]:
    """For each entry of the decreasing block a, the number of entries of
    the decreasing block b below it, by bisection."""
    return list(map(bisect_left, repeat(b[::-1]), a))


def degree(hc: HCParameter) -> int:
    """Number of pairs a_i > b_j; equals the count of noncompact positive
    roots pairing strictly positively with the parameter."""
    return sum(_below_counts(hc.doubled_a, hc.doubled_b))


def shuffle_length(hc: HCParameter, ic: InfinitesimalCharacter) -> int:
    """Inversion count of the permutation taking ic to the concatenation.
    Both blocks decrease, so the inversions are the pairs a_i < b_j, and the
    length equals rs - degree."""
    if tuple(sorted(hc.doubled_a + hc.doubled_b, reverse=True)) != ic.weight.doubled:
        raise ValueError("parameter is not a shuffle of the infinitesimal character")
    return hc.r * hc.s - degree(hc)


def _coherent_doubled(hc: HCParameter) -> tuple[int, ...]:
    return tuple(map(sub, hc.doubled_a + hc.doubled_b, two_rho(hc.n)))


def coherent_parameter(hc: HCParameter) -> Weight:
    """The rho-shift of the concatenated parameter."""
    return Weight._trusted(_coherent_doubled(hc))


def blattner(hc: HCParameter) -> Weight:
    """Lowest K-type highest weight: the coherent parameter plus the sum of
    noncompact positive roots pairing strictly positively with hc. Each
    a-entry gains 2 per b-entry below it, each b-entry loses 2 per a-entry
    above it, doubled."""
    a, b = hc.doubled_a, hc.doubled_b
    gains = [2 * k for k in _below_counts(a, b)]
    gains += [2 * (k - len(a)) for k in _below_counts(b, a)]
    return Weight._trusted(tuple(map(add, _coherent_doubled(hc), gains)))


def enumerate_packet(ic: InfinitesimalCharacter, sig: Signature) -> list[PacketMember]:
    """All C(n, r) shuffles, in colexicographic order of the a-block index set.

    Over the indices n, ..., 1, itertools yields the r-subsets in reverse
    colex order, each subset decreasing; the a-blocks come from the same
    walk over the entries, taken in the same order. So the degrees and the
    a-blocks are reversed lists, every block is read backwards, and the
    b-blocks, the complements, come in yield order. Each slot of every
    member is filled by one `_fill`."""
    n, r = ic.n, sig.r
    if sig.n != n:
        raise ValueError("dimension mismatch")
    # With 1-based a-indices i_1 < ... < i_r, the a-entry at block position
    # k lies above n - r - i_k + k b-entries; summed, the degree is top
    # minus the sum of the a-indices.
    top = r * (n - r) + r * (r + 1) // 2
    degrees = list(map(sub, repeat(top), map(sum, combinations(range(n, 0, -1), r))))
    degrees.reverse()
    members = PacketMember._fill("degree", degrees)
    del degrees  # so that it is never held beside the blocks
    values = ic.weight.doubled[::-1]  # the entries at indices n, ..., 1
    a_blocks = list(map(_backwards, combinations(values, r)))
    a_blocks.reverse()
    hcs = HCParameter._fill("doubled_a", a_blocks)
    HCParameter._fill("doubled_b", map(_backwards, combinations(values, sig.s)), hcs)
    return PacketMember._fill("hc", hcs, members)


def extremes(packet: Sequence[PacketMember]) -> tuple[PacketMember, PacketMember]:
    """(holomorphic, antiholomorphic): the degree-0 and degree-rs members."""
    if not packet:
        raise ValueError("empty packet")
    rs = packet[0].hc.r * packet[0].hc.s
    lows = [m for m in packet if m.degree == 0]
    highs = [m for m in packet if m.degree == rs]
    if len(lows) != 1 or len(highs) != 1:
        raise ValueError("inconsistent packet: extreme members not unique")
    return lows[0], highs[0]


def dual_parameter(hc: HCParameter) -> HCParameter:
    """Contragredient parameter: negate and reverse each block."""
    return HCParameter._trusted(tuple(-x for x in reversed(hc.doubled_a)),
                                tuple(-x for x in reversed(hc.doubled_b)))
