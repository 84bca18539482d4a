"""Minimal K-type test for U(r, s).

Given a K-dominant weight mu, decide whether it is the lowest K-type of a
discrete series and, if so, recover the Harish-Chandra parameter. The test
shifts mu by the compact roots pairing strictly positively with it, reads
off the theta-stable parabolic that shift determines, and demands two
things: the parabolic is a Borel (the shifted weight is regular), and mu
stays weakly above the parabolic's root sum. Then the recovered parameter
(shifted weight minus the half root sum) is one, and is not checked
again: on a regular shifted weight the half root sum, doubled, is 2 rho
in the weight's order, of one parity. Positivity makes consecutive sorted
doubled entries differ by at least 4, and subtracting the half root sum
lowers each such gap by exactly 2, so the parameter keeps the strict
order of the shifted weight, whose blocks strictly decrease.

The full-shift variant (shifted weight minus the whole root sum) is kept
as a diagnostic; it is singular in general and never drives acceptance.

A root e_i - e_j is its 1-based index pair (i, j), and it pairs strictly
positively with a weight when entry i exceeds entry j. The test takes its
root sums from one sort of the entries, not from a list of pairs: those
roots give index i 2 for each entry below it and take 2 for each entry
above it, doubled. `theta_parabolic` lists its pairs, since it returns
them. The test checks the weight it is given and nothing it derives. The
verdict and the parabolic are records: each declares its fields once, in
`__slots__`, and is built by the constructor `_Frozen` compiles from them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add, ge, le, sub

from .cartan import Signature, Weight, _Frozen, doubled_text, half_entry
from .packets import HCParameter

__all__ = [
    "ThetaParabolic",
    "MinimalKTypeVerdict",
    "shifted_weight",
    "theta_parabolic",
    "minimal_ktype_test",
    "regularity_margin",
]


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


class ThetaParabolic(_Frozen):
    """Nilradical roots of the parabolic a weight determines, as 1-based
    pairs (i, j) in lexicographic order, and their sum."""

    __slots__ = ("delta_u", "is_borel", "two_rho_u")
    delta_u: tuple[tuple[int, int], ...]
    is_borel: bool
    two_rho_u: Weight


def shifted_weight(mu: Weight, sig: Signature) -> Weight:
    """mu plus the sum of compact roots pairing strictly positively with mu.

    Requires mu K-dominant: non-increasing within each block of sig.
    """
    if len(mu) != sig.n:
        raise ValueError("dimension mismatch")
    doubled = mu.doubled
    shifted: list[int] = []
    for block in (doubled[: sig.r], doubled[sig.r:]):
        if not all(map(ge, block, block[1:])):
            raise ValueError(f"weight ({doubled_text(doubled)}) is not K-dominant "
                             f"for sig ({sig.r},{sig.s})")
        # Each entry gains 2 per entry of its block below it and loses 2
        # per entry above it: those counts are its first position in the
        # block read upward and read downward.
        up = block[::-1]
        shifted += [x + 2 * (up.index(x) - block.index(x)) for x in block]
    return Weight._trusted(tuple(shifted))


def theta_parabolic(weight: Weight) -> ThetaParabolic:
    """Roots pairing strictly positively with the weight; Borel iff the
    weight is regular (all n(n-1)/2 positive pairs appear). The root sum,
    doubled, has only even entries, so it is not checked again."""
    n = len(weight)
    pairs = _positive_pairs(weight.doubled, 0, n)
    return ThetaParabolic(
        delta_u=tuple((i + 1, j + 1) for i, j in pairs),
        is_borel=len(pairs) == n * (n - 1) // 2,
        two_rho_u=Weight._trusted(_root_sum(pairs, n)),
    )


class MinimalKTypeVerdict(_Frozen):
    """Outcome of the test; hc is present exactly when accepted.

    The parabolic of the shifted weight comes along as its root sum,
    doubled, and its number of roots (those of `theta_parabolic`)."""

    __slots__ = ("accepted", "borel_ok", "positivity_ok", "hc", "hc_double_shift",
                 "mu_shifted", "doubled_two_rho_u", "root_count")
    accepted: bool
    borel_ok: bool
    positivity_ok: bool
    hc: HCParameter | None
    hc_double_shift: Weight
    mu_shifted: Weight
    doubled_two_rho_u: tuple[int, ...]
    root_count: int


def minimal_ktype_test(mu: Weight, sig: Signature) -> MinimalKTypeVerdict:
    """Decide lowest-K-type status of mu and recover its parameter."""
    shifted = shifted_weight(mu, sig)
    w = shifted.doubled
    n = len(w)
    # The parabolic of theta_parabolic, as a doubled root sum and a count.
    # At an entry, the roots give 2 per entry below it and take 2 per entry
    # above it; those counts are its first position in the sorted weight
    # read upward and read downward.
    up = tuple(sorted(w))
    down = up[::-1]
    below = list(map(up.index, w))
    diff = tuple(map(sub, below, map(down.index, w)))
    two_rho_u = tuple(map(add, diff, diff))
    root_count = sum(below)
    borel_ok = root_count == n * (n - 1) // 2
    # w_i - w_j >= t_i - t_j on every root says that w - t does not
    # decrease with the value, so it is checked along the sorted weight.
    lowered = [v - 2 * (up.index(v) - down.index(v)) for v in up]
    positivity_ok = all(map(le, lowered, lowered[1:]))
    double_shift = Weight._trusted(tuple(map(sub, w, two_rho_u)))

    hc = None
    if borel_ok and positivity_ok:
        candidate = tuple(map(sub, w, diff))
        hc = HCParameter._trusted(candidate[: sig.r], candidate[sig.r:])
    return MinimalKTypeVerdict(hc is not None, borel_ok, positivity_ok, hc, double_shift,
                               shifted, two_rho_u, root_count)


def regularity_margin(weight: Weight) -> Fraction | None:
    """Smallest |pairing| against any root: the minimal entry gap, which
    lies between two neighbours in sorted order.

    None for weights of length < 2 (no roots to pair against).
    """
    margin = _doubled_margin(weight.doubled)
    return None if margin is None else half_entry(margin)


def _doubled_margin(doubled: tuple[int, ...]) -> int | None:
    """Twice regularity_margin, from the doubled entries."""
    ordered = sorted(doubled)
    return min(map(sub, ordered[1:], ordered), default=None)
