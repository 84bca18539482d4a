"""Discrete-series parameter packets for U(r, s).

A regular, strictly decreasing infinitesimal character lambda splits into
an ordered pair of blocks (a; b) in C(n, r) ways, one per r-subset of its
entries; those shuffles are the packet. Each member carries a degree (the
count of noncompact positive roots on it), a shuffle word, its coherent
parameter, and its Blattner parameter (lowest K-type highest weight).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import add, gt, sub
from typing import Iterable, Iterator, Sequence

from .cartan import (
    EntryLike,
    Weight,
    check_parity,
    double_entry,
    doubled_text,
    half_entry,
    two_rho,
)
from .roots import Signature

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


def _inversions(word: Sequence[int]) -> int:
    return sum(x > y for x, y in itertools.combinations(word, 2))


class HCParameter:
    """Harish-Chandra parameter (a; b): two strictly decreasing blocks,
    jointly regular, with uniform half-integrality.

    The blocks are stored doubled (`doubled_a`, `doubled_b`); `a` and `b`
    are their Fraction views.
    """

    __slots__ = ("doubled_a", "doubled_b")

    def __init__(self, a: Iterable[EntryLike], b: Iterable[EntryLike]):
        self._init(tuple(double_entry(x) for x in a),
                   tuple(double_entry(x) for x in b))

    @classmethod
    def from_doubled(cls, a: Sequence[int], b: Sequence[int]) -> "HCParameter":
        """The parameter whose blocks are half of the given ints."""
        hc = object.__new__(cls)
        hc._init(tuple(a), tuple(b))
        return hc

    def _init(self, a: tuple[int, ...], b: tuple[int, ...]) -> None:
        joint = a + b
        check_parity(joint)
        if not _strictly_decreasing(a):
            raise ValueError(f"a-block ({doubled_text(a)}) is not strictly decreasing")
        if not _strictly_decreasing(b):
            raise ValueError(f"b-block ({doubled_text(b)}) is not strictly decreasing")
        if len(set(joint)) != len(joint):
            raise ValueError(
                f"parameter ({doubled_text(a)};{doubled_text(b)}) is singular")
        object.__setattr__(self, "doubled_a", a)
        object.__setattr__(self, "doubled_b", b)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("HCParameter is immutable")

    def __reduce__(self):
        return (HCParameter.from_doubled, (self.doubled_a, self.doubled_b))

    @property
    def a(self) -> tuple[Fraction, ...]:
        return tuple(half_entry(d) for d in self.doubled_a)

    @property
    def b(self) -> tuple[Fraction, ...]:
        return tuple(half_entry(d) for d in self.doubled_b)

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
        """Concatenated (a, b) as a plain weight."""
        return Weight.from_doubled(self.doubled_a + self.doubled_b)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HCParameter):
            return NotImplemented
        return self.doubled_a == other.doubled_a and self.doubled_b == other.doubled_b

    def __hash__(self) -> int:
        return hash((self.doubled_a, self.doubled_b))

    def __repr__(self) -> str:
        return f"HCParameter(({doubled_text(self.doubled_a)};{doubled_text(self.doubled_b)}))"


class InfinitesimalCharacter:
    """Strictly decreasing regular weight; the packet-defining datum."""

    __slots__ = ("weight",)

    def __init__(self, entries: Iterable[EntryLike]):
        weight = entries if isinstance(entries, Weight) else Weight(entries)
        if not _strictly_decreasing(weight.doubled):
            raise ValueError(
                f"infinitesimal character ({doubled_text(weight.doubled)}) is not "
                "strictly decreasing (singular or misordered)")
        object.__setattr__(self, "weight", weight)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("InfinitesimalCharacter is immutable")

    def __reduce__(self):
        return (InfinitesimalCharacter, (self.weight,))

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return self.weight.entries

    @property
    def n(self) -> int:
        return len(self.weight)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, InfinitesimalCharacter):
            return NotImplemented
        return self.weight == other.weight

    def __hash__(self) -> int:
        return hash(self.weight)

    def __repr__(self) -> str:
        return f"InfinitesimalCharacter(({doubled_text(self.weight.doubled)}))"


@dataclass(frozen=True)
class PacketMember:
    """One shuffle of the infinitesimal character, with derived data."""

    hc: HCParameter
    degree: int
    shuffle_word: tuple[int, ...]
    blattner: Weight
    coherent: Weight

    @property
    def length(self) -> int:
        """Inversion count of the shuffle word."""
        return _inversions(self.shuffle_word)


def infinitesimal_character(a_sigma: Iterable[EntryLike]) -> InfinitesimalCharacter:
    """Shift a non-increasing highest weight by rho.

    The result is strictly decreasing, hence regular.
    """
    weight = a_sigma if isinstance(a_sigma, Weight) else Weight(a_sigma)
    doubled = weight.doubled
    if any(x < y for x, y in zip(doubled, doubled[1:])):
        raise ValueError(f"highest weight ({doubled_text(doubled)}) is not non-increasing")
    return InfinitesimalCharacter(
        Weight.from_doubled(map(add, doubled, two_rho(len(doubled)))))


def degree(hc: HCParameter) -> int:
    """Number of pairs a_i > b_j; equals the count of noncompact positive
    roots pairing strictly positively with the parameter."""
    b = hc.doubled_b
    return sum(1 for ai in hc.doubled_a for bj in b if ai > bj)


def shuffle_length(hc: HCParameter, ic: InfinitesimalCharacter) -> int:
    """Inversion count of the permutation taking ic to the concatenation."""
    entries = ic.weight.doubled
    concat = hc.doubled_a + hc.doubled_b
    if tuple(sorted(concat, reverse=True)) != entries:
        raise ValueError("parameter is not a shuffle of the infinitesimal character")
    position = {value: k for k, value in enumerate(entries)}
    return _inversions([position[value] for value in concat])


def _coherent_doubled(hc: HCParameter) -> tuple[int, ...]:
    return tuple(map(sub, hc.doubled_a + hc.doubled_b, two_rho(hc.n)))


def _blattner_doubled(hc: HCParameter, coherent: Sequence[int]) -> list[int]:
    """The doubled Blattner parameter from the doubled coherent one."""
    coords = list(coherent)
    r = hc.r
    for i, ai in enumerate(hc.doubled_a):
        for j, bj in enumerate(hc.doubled_b, start=r):
            if ai > bj:
                coords[i] += 2
                coords[j] -= 2
    return coords


def coherent_parameter(hc: HCParameter) -> Weight:
    """The rho-shift of the concatenated parameter."""
    return Weight.from_doubled(_coherent_doubled(hc))


def blattner(hc: HCParameter) -> Weight:
    """Lowest K-type highest weight: the coherent parameter plus the sum of
    noncompact positive roots pairing strictly positively with hc."""
    return Weight.from_doubled(_blattner_doubled(hc, _coherent_doubled(hc)))


def _packet_parameters(ic: InfinitesimalCharacter, sig: Signature) -> Iterator[tuple]:
    """(a-block indices, b-block indices, parameter) per shuffle, in
    colexicographic order of the a-block index set; no derived data."""
    n = ic.n
    if sig.n != n:
        raise ValueError("dimension mismatch")
    pick = ic.weight.doubled.__getitem__
    for subset in sorted(itertools.combinations(range(n), sig.r), key=lambda c: c[::-1]):
        chosen = set(subset)
        rest = tuple([k for k in range(n) if k not in chosen])
        yield subset, rest, HCParameter.from_doubled(tuple(map(pick, subset)),
                                                     tuple(map(pick, rest)))


def enumerate_packet(ic: InfinitesimalCharacter, sig: Signature) -> list[PacketMember]:
    """All C(n, r) shuffles, in colexicographic order of the a-block index set."""
    members = []
    for subset, rest, hc in _packet_parameters(ic, sig):
        coherent = _coherent_doubled(hc)
        members.append(PacketMember(
            hc=hc,
            degree=degree(hc),
            shuffle_word=tuple([k + 1 for k in subset + rest]),
            blattner=Weight.from_doubled(_blattner_doubled(hc, coherent)),
            coherent=Weight.from_doubled(coherent),
        ))
    return members


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
    return HCParameter.from_doubled(tuple(-x for x in reversed(hc.doubled_a)),
                                    tuple(-x for x in reversed(hc.doubled_b)))
