"""Descent calculus for U(r, s) -> U(r-1, s) restriction.

A Harish-Chandra parameter (a; b) descends to the (r-1, s) parameter
(a_1 - 1/2, ..., a_{r-1} - 1/2 ; b_1 + 1/2, ..., b_s + 1/2) together with
a U(1) weight, the last entry of the coherent a-block. Over a set of
places (one parameter per place, equal rank), the restriction map is an
isomorphism onto the descended data exactly when, at every place, the
last a-block entry is the global minimum of the parameter; otherwise the
map is zero. That dichotomy is stated under a spacing hypothesis
(consecutive gaps of the sorted parameter at least 2); off it the
classifier warns. Each result is computed one way only: the K-type
restriction route, the root-support route and the walk over a packet's
members for the isomorphism fraction are oracles in the tests.

The root-support route agrees with the minimum-entry condition on every
regular descent, one whose descended entries are distinct, spaced or not.
The entries of one parameter lie on one coset of Z, so a_i - b_j is a
nonzero integer, and a_i - 1/2 > b_j + 1/2 exactly when a_i - b_j >= 2.
The shift can change a comparison a_i > b_j only where a_i - b_j = 1, and
for i < r the descended entries a_i - 1/2 and b_j + 1/2 then collide: the
descent is singular. On a regular descent the descended support is
therefore the original support less the pairs (r, j), so the two match
exactly when no b_j lies below a_r, that is, when a_r is the minimum.
Hence every divergence of the routes falls at a singular descent. The
spacing hypothesis rules out a_i - b_j = 1, so it suffices for a regular
first step; it stands in for the paper's "sufficiently general"
condition, which the paper needs for its global argument.
"""

from __future__ import annotations

import enum
import warnings
from fractions import Fraction
from collections.abc import Iterable, Sequence
from math import prod

from .cartan import Signature, _Frozen, doubled_text, half_entry, half_view, two_rho
from .packets import HCParameter, InfinitesimalCharacter, _singular_text

__all__ = [
    "PlacedParameter",
    "RestrictedParameter",
    "RestrictionClass",
    "ChainStep",
    "well_spaced",
    "well_spaced_everywhere",
    "restrict_parameter",
    "restriction_is_discrete_series",
    "min_entry_in_a",
    "min_entry_in_a_everywhere",
    "noncompact_support_matches",
    "classify_restriction",
    "isomorphism_fraction",
    "expected_fraction",
    "descent_chain",
]


def _check_signature(sig: Signature, hc: HCParameter) -> None:
    if (sig.r, sig.s) != (hc.r, hc.s):
        raise ValueError(f"parameter ({doubled_text(hc.doubled_a)};{doubled_text(hc.doubled_b)})"
                         f" does not match signature ({sig.r},{sig.s})")


class RestrictionClass(enum.Enum):
    ISOMORPHISM = "iso"
    ZERO = "zero"


class PlacedParameter(_Frozen):
    """One Harish-Chandra parameter per place, all of equal rank."""

    __slots__ = ("places",)
    places: tuple[tuple[Signature, HCParameter], ...]

    def __init__(self, places: Iterable[tuple[Signature, HCParameter]]):
        entries = tuple(places)
        if not entries:
            raise ValueError("at least one place is required")
        for sig, hc in entries:
            _check_signature(sig, hc)
        ranks = {sig.n for sig, _ in entries}
        if len(ranks) > 1:
            raise ValueError("places have unequal rank")
        self._store(entries)

    @property
    def n(self) -> int:
        return self.places[0][0].n

    def __repr__(self) -> str:
        return f"PlacedParameter({list(self.places)!r})"


class RestrictedParameter(_Frozen):
    """Descended blocks plus the split-off U(1) weight.

    The blocks are stored raw: off the spacing hypothesis they can collide,
    so `HCParameter.from_doubled(rp.doubled_a, rp.doubled_b)` builds the
    descended parameter only when they are jointly regular. Everything is
    stored doubled; `prime_a`, `prime_b` and `u1_weight` are the Fraction
    views.
    """

    __slots__ = ("doubled_a", "doubled_b", "doubled_u1")
    doubled_a: tuple[int, ...]
    doubled_b: tuple[int, ...]
    doubled_u1: int

    prime_a = half_view("doubled_a")
    prime_b = half_view("doubled_b")

    @property
    def u1_weight(self) -> Fraction:
        return half_entry(self.doubled_u1)


_OFF_SPACING = "parameter is outside the spacing hypothesis (a consecutive gap is below 2)"


def well_spaced(entries: Sequence[Fraction]) -> bool:
    """Consecutive gaps of a decreasing sequence are all >= 2."""
    return all(x - y >= 2 for x, y in zip(entries, entries[1:]))


def well_spaced_everywhere(p: PlacedParameter) -> bool:
    # On doubled entries the least gap of 2 reads as 4.
    sorted_places = (sorted(hc.doubled_a + hc.doubled_b, reverse=True) for _, hc in p.places)
    return all(x - y >= 4 for entries in sorted_places for x, y in zip(entries, entries[1:]))


def restrict_parameter(sig: Signature, hc: HCParameter) -> RestrictedParameter:
    """Descend one place: shift the a-block down and the b-block up by 1/2,
    dropping the last a-entry to U(1) as the coherent a-block tail."""
    if sig.r < 1:
        raise ValueError("signature needs r >= 1 to restrict")
    _check_signature(sig, hc)
    return _descend(hc)


def _descend(hc: HCParameter) -> RestrictedParameter:
    """restrict_parameter without its checks, for a parameter with r >= 1."""
    # Doubled, the shifts by -1/2 and +1/2 are -1 and +1.
    a = hc.doubled_a
    return RestrictedParameter(tuple(x - 1 for x in a[:-1]), tuple(x + 1 for x in hc.doubled_b),
                               a[-1] - two_rho(hc.n)[len(a) - 1])


def restriction_is_discrete_series(rp: RestrictedParameter, n: int) -> bool:
    """True iff the descended blocks are jointly regular and live on the
    coset (n-2)/2 + Z, i.e. name a discrete series of U(r-1, s)."""
    entries = rp.doubled_a + rp.doubled_b
    if len(set(entries)) != len(entries):
        return False
    # x - (n-2)/2 is an integer iff 2x - (n-2) is even.
    return all((x - n) % 2 == 0 for x in entries)


def min_entry_in_a(hc: HCParameter) -> bool:
    """Last a-block entry is the global minimum. False when the a-block is
    empty (no witness exists)."""
    return hc.r > 0 and hc.doubled_a[-1] == min(hc.doubled_a + hc.doubled_b)


def min_entry_in_a_everywhere(p: PlacedParameter) -> bool:
    return all(min_entry_in_a(hc) for _, hc in p.places)


def _dual_min_entry_in_a_everywhere(p: PlacedParameter) -> bool:
    """min_entry_in_a of `dual_parameter` at every place, without building
    the duals: the dual's last a-entry is minus the first a-entry and its
    minimum is minus the maximum, so at each place the first a-entry must
    be the maximum. Needs r >= 1 at every place, as both callers check
    first."""
    return all(hc.doubled_a[0] == max(hc.doubled_a + hc.doubled_b) for _, hc in p.places)


def _noncompact_support(a: Sequence[int], b: Sequence[int]) -> set[tuple[int, int]]:
    return {(i, j) for i, ai in enumerate(a, start=1)
            for j, bj in enumerate(b, start=1) if ai > bj}


def noncompact_support_matches(sig: Signature, hc: HCParameter,
                               rp: RestrictedParameter) -> bool:
    """True iff the descended parameter's noncompact positive pairs, read
    through the block-index embedding, are exactly the original ones."""
    _check_signature(sig, hc)
    original = _noncompact_support(hc.doubled_a, hc.doubled_b)
    descended = _noncompact_support(rp.doubled_a, rp.doubled_b)
    return descended == original


def classify_restriction(p: PlacedParameter, warn: bool = True) -> RestrictionClass:
    """Isomorphism iff the minimum-entry condition holds at every place.

    Nothing is restricted: the class is read off the parameter. The
    root-theoretic support route (`noncompact_support_matches`) gives the
    same class on every regular descent, spaced or not, and can differ
    only at a singular one (module docstring); the tests check that
    agreement, so it is not recomputed here. Off the spacing hypothesis a
    warning is emitted and the minimum-entry dichotomy is returned.
    """
    if any(sig.r < 1 for sig, _ in p.places):
        raise ValueError("classification needs r >= 1 at every place")
    return _classify(p, warn)


def _classify(p: PlacedParameter, warn: bool) -> RestrictionClass:
    """classify_restriction without the r >= 1 check."""
    if warn and not well_spaced_everywhere(p):
        warnings.warn(
            f"{_OFF_SPACING}; classification follows the minimum-entry condition",
            stacklevel=3)
    return (RestrictionClass.ISOMORPHISM if min_entry_in_a_everywhere(p)
            else RestrictionClass.ZERO)


def isomorphism_fraction(places: Sequence[tuple[Signature, InfinitesimalCharacter]]) -> Fraction:
    """Fraction of the product packet classified as isomorphism: a member
    combination is one iff the minimum-entry condition holds at every place,
    so this is the product over places of the share of packet members meeting
    it.

    The value depends on the signatures alone. A member's a-block is an
    r-subset of the positions of the character's decreasing entries, and the
    member meets the condition iff the subset holds the last position, so
    C(n-1, r-1) of the C(n, r) members do, whatever the character: a share
    of r/n, which is 0 when r = 0."""
    if any(ic.n != sig.n for sig, ic in places):
        raise ValueError("dimension mismatch")
    if len({sig.n for sig, _ in places}) > 1:
        raise ValueError("places have unequal rank")
    return expected_fraction([sig for sig, _ in places])


def expected_fraction(sigs: Sequence[Signature]) -> Fraction:
    """The closed form prod_v r_v / n for comparison with the enumeration."""
    if not sigs:
        raise ValueError("at least one place is required")
    return Fraction(prod(sig.r for sig in sigs), prod(sig.n for sig in sigs))


class ChainStep(_Frozen):
    """One descent step: the parameter after restriction, the U(1) weights
    split off at each place, doubled, the class of the parameter that was
    restricted and its dual's minimum-entry flag."""

    __slots__ = ("level", "parameter", "doubled_u1", "classification", "dual_min_in_a")
    level: int
    parameter: PlacedParameter
    doubled_u1: tuple[int, ...]
    classification: RestrictionClass
    dual_min_in_a: bool

    u1_weights = half_view("doubled_u1")


def descent_chain(p: PlacedParameter, depth: int, warn: bool = True) -> list[ChainStep]:
    """Iterate restriction depth times (clamped to n-1 steps).

    Each step classifies the current parameter, records whether its dual
    satisfies the minimum-entry condition, then descends every place,
    lowering its r by 1. So each step needs r >= 1 at every place: a
    pending step at a place with r = 0 raises ValueError, and a depth above
    the least r of the places raises unless the clamp cuts it. When two
    descended entries collide (off the spacing hypothesis, and deeper in
    some well-spaced chains), the chain stops there and returns the steps
    it finished; that warning is always given, while warn only governs
    the spacing warning.
    """
    if type(depth) is not int:
        raise ValueError(f"depth {depth!r} is not an int")
    if depth < 0:
        raise ValueError("depth must be non-negative")
    steps = min(depth, p.n - 1)
    chain: list[ChainStep] = []
    current = p
    for _ in range(steps):
        if any(sig.r < 1 for sig, _ in current.places):
            raise ValueError("cannot descend a place with r = 0")
        restricted = [_descend(hc) for _, hc in current.places]
        classification = _classify(current, warn)
        dual_flag = _dual_min_entry_in_a_everywhere(current)
        # The shifts keep each block strictly decreasing and on one coset:
        # a step fails only when the descended blocks share an entry.
        for rp in restricted:
            if len(set(rp.doubled_a + rp.doubled_b)) < current.n - 1:
                warnings.warn(f"descended {_singular_text(rp.doubled_a, rp.doubled_b)}; "
                              "the chain stops here", stacklevel=2)
                return chain
        current = PlacedParameter._trusted(tuple(
            (Signature._trusted(sig.r - 1, sig.s),
             HCParameter._trusted(rp.doubled_a, rp.doubled_b))
            for (sig, _), rp in zip(current.places, restricted)))
        chain.append(ChainStep(current.n, current, tuple(rp.doubled_u1 for rp in restricted),
                               classification, dual_flag))
    return chain
