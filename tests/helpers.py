"""Shared generators for randomized sweeps, all seeded by the caller,
plain-Fraction, root-pair and one-sort reference computations, and the rebuild
oracle for values the library builds without checking them again."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb
from operator import add, countOf, itemgetter, le, sub
from typing import Iterator

from lpackets import (
    HCParameter,
    InfinitesimalCharacter,
    KRestriction,
    PacketMember,
    PlacedParameter,
    RestrictedParameter,
    Signature,
    Weight,
    coherent_parameter,
    dual_parameter,
    enumerate_packet,
    infinitesimal_character,
    min_entry_in_a,
    min_entry_in_a_everywhere,
    restrict_ktype,
    theta_parabolic,
)
from lpackets.cartan import doubled_text, two_rho


def format_weight(weight: Weight, sig: Signature | None = None) -> str:
    """A weight in the command line's weight syntax, split into the blocks
    of sig by ";" when sig is given."""
    if sig is None:
        return doubled_text(weight.doubled)
    if len(weight) != sig.n:
        raise ValueError("dimension mismatch")
    return f"{doubled_text(weight.doubled[: sig.r])};{doubled_text(weight.doubled[sig.r:])}"


def all_signatures(n: int) -> list[Signature]:
    return [Signature(r, n - r) for r in range(n + 1)]


def random_dominant(rng: random.Random, n: int, strict: bool = False,
                    max_gap: int = 3) -> Weight:
    """Non-increasing integer tuple; strictly decreasing when strict."""
    low = 1 if strict else 0
    entries = [rng.randint(-4, 8)]
    for _ in range(n - 1):
        entries.append(entries[-1] - rng.randint(low, max_gap))
    return Weight(entries)


def random_weight(rng: random.Random, n: int) -> Weight:
    """Entries in a narrow range, so ties are common; half-integral half
    the time."""
    parity = rng.randint(0, 1)
    return Weight.from_doubled(2 * rng.randint(-4, 4) + parity for _ in range(n))


def random_ic(rng: random.Random, n: int, strict: bool = False) -> InfinitesimalCharacter:
    """Regular infinitesimal character; consecutive gaps >= 2 when strict."""
    return infinitesimal_character(random_dominant(rng, n, strict=strict))


def counting_sweep() -> list[list[tuple[Signature, InfinitesimalCharacter]]]:
    """Every 1- and 2-place signature tuple for n <= 7 with well-spaced
    characters: 10 draws per single place, 2 per pair of places."""
    rng = random.Random(103)
    sweep = []
    for n in range(1, 8):
        sigs = all_signatures(n)
        for sig in sigs:
            for _ in range(10):
                sweep.append([(sig, random_ic(rng, n, strict=True))])
        for sig1 in sigs:
            for sig2 in sigs:
                for _ in range(2):
                    sweep.append([(sig1, random_ic(rng, n, strict=True)),
                                  (sig2, random_ic(rng, n, strict=True))])
    return sweep


def packet_sweep_characters() -> list[tuple[Signature, InfinitesimalCharacter]]:
    """10 random regular characters per (r,s), n <= 8: the acceptance
    criteria's packet sweep."""
    rng = random.Random(101)
    return [(sig, random_ic(rng, n)) for n in range(1, 9)
            for sig in all_signatures(n) for _ in range(10)]


def random_kdominant(rng: random.Random, sig: Signature,
                     max_gap: int = 3) -> Weight:
    """Non-increasing within each block of the signature."""
    blocks: list[int] = []
    for size in (sig.r, sig.s):
        for k in range(size):
            top = rng.randint(-4, 8)
            blocks.append(top if k == 0 else blocks[-1] - rng.randint(0, max_gap))
    return Weight(blocks)


# Plain-Fraction references: the computations as they stood before the
# library moved to doubled integers, on tuples of Fractions and with no
# library types, so the integer core can be compared against them.

def _decreasing(values) -> bool:
    return all(x > y for x, y in zip(values, values[1:]))


def reference_packet(lam, r: int) -> list[tuple]:
    """(a, b, degree, shuffle word, Blattner, coherent) per member of the
    packet of the strictly decreasing character lam, in colex order."""
    n = len(lam)
    rho = [Fraction(n - 1 - 2 * k, 2) for k in range(n)]
    members = []
    for subset in sorted(itertools.combinations(range(n), r),
                         key=lambda c: tuple(reversed(c))):
        rest = [k for k in range(n) if k not in subset]
        a = tuple(Fraction(lam[k]) for k in subset)
        b = tuple(Fraction(lam[k]) for k in rest)
        coherent = tuple(x - y for x, y in zip(a + b, rho))
        blattner = list(coherent)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                if x > y:
                    blattner[i] += 1
                    blattner[r + j] -= 1
        members.append((
            a, b,
            sum(1 for x in a for y in b if x > y),
            tuple(k + 1 for k in subset) + tuple(k + 1 for k in rest),
            tuple(blattner),
            coherent,
        ))
    return members


def fraction_minimal_ktype(mu, r: int) -> tuple:
    """(accepted, borel_ok, positivity_ok, hc blocks or None, full-shift
    diagnostic, shifted weight) for a K-dominant mu."""
    n = len(mu)
    mu = tuple(Fraction(x) for x in mu)
    shifted = list(mu)
    for i in range(n):
        for j in range(n):
            if i != j and (i < r) == (j < r) and mu[i] - mu[j] > 0:
                shifted[i] += 1
                shifted[j] -= 1
    roots = [(i, j) for i in range(n) for j in range(n)
             if i != j and shifted[i] - shifted[j] > 0]
    two_rho_u = [0] * n
    for i, j in roots:
        two_rho_u[i] += 1
        two_rho_u[j] -= 1
    borel_ok = len(roots) == n * (n - 1) // 2
    positivity_ok = all(shifted[i] - shifted[j] >= two_rho_u[i] - two_rho_u[j]
                        for i, j in roots)
    hc = None
    if borel_ok and positivity_ok:
        candidate = tuple(x - Fraction(t, 2) for x, t in zip(shifted, two_rho_u))
        a, b = candidate[:r], candidate[r:]
        if len(set(candidate)) == n and _decreasing(a) and _decreasing(b):
            hc = (a, b)
    double_shift = tuple(x - t for x, t in zip(shifted, two_rho_u))
    return hc is not None, borel_ok, positivity_ok, hc, double_shift, tuple(shifted)


def _shuffles(ic: InfinitesimalCharacter, sig: Signature) -> Iterator[tuple]:
    """(a-block indices, shuffle word, doubled entries of the word) for every
    (r, s)-shuffle of ic, in colexicographic order of the a-block index set.
    Indices are 1-based; the word is the a-indices, then the b-indices, each
    increasing, so the entries are the a-block, then the b-block.

    Over the indices taken in decreasing order, itertools yields r-subsets
    in reverse colex order; the complements of colex-ordered subsets come
    in reverse colex order, so they are the s-subsets in yield order."""
    n = ic.n
    if sig.n != n:
        raise ValueError("dimension mismatch")
    pick = ((0,) + ic.weight.doubled).__getitem__
    down = range(n, 0, -1)
    for a_down, b_down in zip(reversed(list(itertools.combinations(down, sig.r))),
                              itertools.combinations(down, sig.s)):
        a_index = a_down[::-1]
        word = a_index + b_down[::-1]
        yield a_index, word, tuple(map(pick, word))


def walk_packet_reference(ic: InfinitesimalCharacter, sig: Signature
                          ) -> tuple[list[PacketMember], list[tuple[int, ...]]]:
    """enumerate_packet one member at a time: a Python loop over the
    shuffles, each member built on its own by the public `PacketMember`,
    from a parameter built without a check. Beside the
    members it returns their shuffle words, each read off the member's own
    index sets."""
    n, r = ic.n, sig.r
    if sig.n != n:
        raise ValueError("dimension mismatch")
    # With 1-based a-indices i_1 < ... < i_r, the a-entry at block position
    # k lies above n - r - i_k + k b-entries; summed, the degree is top
    # minus the sum of the a-indices.
    top = r * (n - r) + r * (r + 1) // 2
    members, words = [], []
    for a_index, word, entries in _shuffles(ic, sig):
        members.append(PacketMember(HCParameter._trusted(entries[:r], entries[r:]),
                                    top - sum(a_index)))
        words.append(word)
    return members, words


def gaussian_binomial(n: int, k: int) -> list[int]:
    """Coefficients of [n choose k]_t, constant term first, by the
    t-Pascal rule [n, k] = [n-1, k-1] + t^k [n-1, k]; [] (the zero
    polynomial) when k < 0 or k > n."""
    if k < 0 or k > n:
        return []
    if k == 0 or k == n:
        return [1]
    left, right = gaussian_binomial(n - 1, k - 1), gaussian_binomial(n - 1, k)
    coeffs = [0] * max(len(left), k + len(right))
    for i, c in enumerate(left):
        coeffs[i] += c
    for i, c in enumerate(right):
        coeffs[k + i] += c
    return coeffs


def product_fraction_reference(places) -> Fraction:
    """The isomorphism fraction by brute force: every combination of
    packet members across the places, iso when the minimum-entry flag
    holds at each place. Its cost is the product of the packet sizes."""
    member_flags = [[min_entry_in_a(m.hc) for m in enumerate_packet(ic, sig)]
                    for sig, ic in places]
    total = count = 0
    for combo in itertools.product(*member_flags):
        total += 1
        count += all(combo)
    return Fraction(count, total)


def member_fraction_reference(places) -> Fraction:
    """The isomorphism fraction as a product over places of the share of
    packet members whose parameter meets the minimum-entry condition, each
    member built by enumerate_packet."""
    share = Fraction(1)
    for sig, ic in places:
        packet = enumerate_packet(ic, sig)
        share *= Fraction(sum(min_entry_in_a(m.hc) for m in packet), len(packet))
    return share


def walk_fraction_reference(places) -> Fraction:
    """The isomorphism fraction by walking each place's packet as the
    r-subsets of its character's entries, which are the members' a-blocks
    in the character's decreasing order: a member meets the minimum-entry
    condition iff its subset's last entry is the character's last. The
    subsets are streamed and counted; the cost is a sum over places of
    C(n, r)."""
    count = total = 1
    last = itemgetter(-1)
    for sig, ic in places:
        entries = ic.weight.doubled
        total *= comb(sig.n, sig.r)
        # With r = 0 the one member's a-block is empty and holds no minimum.
        count *= (countOf(map(last, itertools.combinations(entries, sig.r)), entries[-1])
                  if sig.r else 0)
    return Fraction(count, total)


def reference_dual_min_in_a(p: PlacedParameter) -> bool:
    """The dual's minimum-entry flag through the dual parameters themselves."""
    return min_entry_in_a_everywhere(
        PlacedParameter((sig, dual_parameter(hc)) for sig, hc in p.places))


def reference_weyl_dim(weight: Weight) -> int:
    """Weyl's dimension formula one pair at a time: the product over
    i < j of (w_i - w_j + j - i) / (j - i), on doubled entries."""
    doubled = weight.doubled
    m = len(doubled)
    num = den = 1
    for i in range(m):
        for j in range(i + 1, m):
            num *= doubled[i] - doubled[j] + 2 * (j - i)
            den *= 2 * (j - i)
    value, remainder = divmod(num, den)
    assert remainder == 0, weight
    return value


def reference_restriction(sig: Signature, hc: HCParameter) -> RestrictedParameter:
    """restrict_parameter by the K-type route: restrict the coherent
    parameter along the a-block, then add rho(n-1) back to the blocks."""
    split = restrict_ktype(coherent_parameter(hc), sig)
    prime = split.head.doubled + split.tail.doubled
    if hc.n > 1:
        prime = tuple(map(add, prime, two_rho(hc.n - 1)))
    return RestrictedParameter(doubled_a=prime[:sig.r - 1], doubled_b=prime[sig.r - 1:],
                               doubled_u1=split.doubled_u1)


def pair_inversions(word) -> int:
    """Inversion count of a word over all C(n, 2) pairs of positions."""
    return sum(x > y for x, y in itertools.combinations(word, 2))


# Every value of a minimal K-type verdict: its two fields, its acceptance
# and positivity flags, and the diagnostics of its parabolic.
VERDICT_VALUES = ("accepted", "borel_ok", "positivity_ok", "hc", "hc_double_shift",
                  "mu_shifted", "doubled_two_rho_u", "root_count")


def verdict_values(verdict) -> tuple:
    """The values of VERDICT_VALUES: the verdict's own, and the rest read
    from one `theta_parabolic` of its shifted weight."""
    para = theta_parabolic(verdict.mu_shifted)
    return (verdict.accepted, para.is_borel, verdict.positivity_ok, verdict.hc,
            verdict.mu_shifted - para.two_rho_u, verdict.mu_shifted,
            para.two_rho_u.doubled, len(para.delta_u))


def _positive_pairs(doubled: tuple[int, ...], lo: int, hi: int) -> list[tuple[int, int]]:
    """0-based (i, j) in [lo, hi), lexicographic, with entry i > entry j:
    the roots e_i - e_j of that index range pairing strictly positively."""
    return [(i, j) for i in range(lo, hi) for j in range(lo, hi)
            if doubled[i] > doubled[j]]


def _root_sum(pairs: list[tuple[int, int]], n: int) -> tuple[int, ...]:
    """Sum of the roots e_i - e_j over pairs, doubled."""
    coords = [0] * n
    for i, j in pairs:
        coords[i] += 2
        coords[j] -= 2
    return tuple(coords)


def reference_minimal_ktype(mu: Weight, sig: Signature) -> tuple:
    """The values of VERDICT_VALUES that minimal_ktype_test gives, from
    lists of root pairs: the compact pairs shift mu, and the pairs of the
    shifted weight give the root sum, the count and the positivity test,
    each pair on its own. Every value is built through a checked
    constructor, and an accepted parameter must also be regular with
    strictly decreasing blocks: the third condition, which the library
    drops as one that cannot fail. mu must be K-dominant."""
    doubled = mu.doubled
    compact = _positive_pairs(doubled, 0, sig.r) + _positive_pairs(doubled, sig.r, sig.n)
    shifted = Weight.from_doubled(map(add, doubled, _root_sum(compact, sig.n)))
    w = shifted.doubled
    n = len(w)
    pairs = _positive_pairs(w, 0, n)
    two_rho_u = _root_sum(pairs, n)
    borel_ok = len(pairs) == n * (n - 1) // 2
    positivity_ok = all(w[i] - w[j] >= two_rho_u[i] - two_rho_u[j] for i, j in pairs)
    hc = None
    if borel_ok and positivity_ok:
        candidate = tuple(x - y // 2 for x, y in zip(w, two_rho_u))
        a, b = candidate[: sig.r], candidate[sig.r:]
        if len(set(candidate)) == n and _decreasing(a) and _decreasing(b):
            hc = HCParameter.from_doubled(a, b)
    double_shift = Weight.from_doubled(x - y for x, y in zip(w, two_rho_u))
    return (hc is not None, borel_ok, positivity_ok, hc, double_shift, shifted, two_rho_u,
            len(pairs))


def sorted_diagnostics(w: tuple[int, ...]) -> tuple:
    """(root sum, number of roots, Borel flag, positivity flag, full-shift
    weight) of the parabolic of the doubled shifted weight w, the sum and
    the weight doubled, from one sort of its entries and no list of pairs:
    the roots pairing strictly positively give an entry 2 per entry below
    it and take 2 per entry above it, doubled, and positivity says that w
    minus the root sum does not decrease along the sorted weight."""
    n = len(w)
    # The counts below and above an entry are its first position in the
    # sorted weight read upward and read downward.
    up = tuple(sorted(w))
    down = up[::-1]
    below = list(map(up.index, w))
    diff = tuple(map(sub, below, map(down.index, w)))
    two_rho_u = tuple(map(add, diff, diff))
    root_count = sum(below)
    lowered = [v - 2 * (up.index(v) - down.index(v)) for v in up]
    return (two_rho_u, root_count, root_count == n * (n - 1) // 2,
            all(map(le, lowered, lowered[1:])), tuple(map(sub, w, two_rho_u)))


def _plain_ints(values) -> bool:
    return type(values) is tuple and all(type(x) is int for x in values)


def assert_rebuilds(value) -> None:
    """The library builds some weights, parameters, characters, K-type
    splits and placed parameters without checking them again, because they
    are valid by construction. Rebuild such a value through its public
    constructor, which checks coset, order and regularity, and require the
    same stored tuples of plain ints. A split's head, pivot and tail must
    also share one coset, as slices of one weight do."""
    if isinstance(value, PlacedParameter):
        assert type(value.places) is tuple, value
        for sig, hc in value.places:
            assert Signature(sig.r, sig.s) == sig
            assert_rebuilds(hc)
        assert PlacedParameter(value.places) == value
    elif isinstance(value, KRestriction):
        assert_rebuilds(value.head)
        assert_rebuilds(value.tail)
        assert type(value.doubled_u1) is int, value
        Weight.from_doubled(value.head.doubled + (value.doubled_u1,) + value.tail.doubled)
        assert KRestriction(value.head, value.u1, value.tail) == value
    elif isinstance(value, InfinitesimalCharacter):
        assert_rebuilds(value.weight)
        assert InfinitesimalCharacter(value.entries) == value
    elif isinstance(value, HCParameter):
        assert _plain_ints(value.doubled_a) and _plain_ints(value.doubled_b), value
        assert HCParameter(value.a, value.b) == value
    else:
        assert isinstance(value, Weight), value
        assert _plain_ints(value.doubled), value
        assert Weight(value.entries) == value


def assert_rebuild_together(weights) -> None:
    """assert_rebuilds for many weights at once, for the long lists of
    branch constituents: their concatenated doubled tuples go through the
    public `from_doubled`, whose coset check then covers every weight and
    also requires them all to share one coset."""
    joint: list[int] = []
    for weight in weights:
        assert type(weight.doubled) is tuple, weight
        joint += weight.doubled
    assert set(map(type, joint)) <= {int}
    Weight.from_doubled(joint)
