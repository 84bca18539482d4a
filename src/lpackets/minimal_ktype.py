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

The test decides from one sort of the doubled shifted weight w, of n
entries. They share one parity, so its sorted gaps are even. Sorted
upward, the entry of rank k (its 0-based position) gets 2 from each of
the k entries below it and loses 2 to each of the n - 1 - k above it when
w is regular, so its doubled root-sum entry is 2(2k - (n - 1)), and the
positivity walk `lowered`, w minus that, rises by exactly (gap - 4) from
rank k to rank k + 1. A singular w has a gap of 0. So the test accepts
exactly when n <= 1 or every sorted gap of w is at least 4 (a regularity
margin of at least 2), and the parameter, doubled, is then w minus
2k - (n - 1) at each entry, its rank read off one `map(up.index, w)`.

The verdict stores the shifted weight and the parameter. The rest of the
parabolic (its root sum, doubled, its number of roots, the Borel and
positivity flags) and the full-shift variant (shifted weight minus the
whole root sum, singular in general, a diagnostic that never drives
acceptance) are computed on access, by one helper, `_diagnostics`, from
the shifted weight: the two flags it returns are those the decision rule
above replaces, and they agree with it.

A root e_i - e_j is its 1-based index pair (i, j), and it pairs strictly
positively with a weight when entry i exceeds entry j. The diagnostics
take their root sums from one sort of the entries, not from a list of
pairs: those roots give index i 2 for each entry below it and take 2 for
each entry above it, doubled. `theta_parabolic` lists its pairs, since it
returns them. The test checks the weight it is given and nothing it
derives. The verdict and the parabolic are records: each declares its
fields once, in `__slots__`, and is built by the constructor `_Frozen`
compiles from them.
"""

from __future__ import annotations

from collections import namedtuple
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


_Diagnostics = namedtuple(
    "_Diagnostics", "doubled_two_rho_u root_count borel_ok positivity_ok doubled_double_shift")


def _diagnostics(w: tuple[int, ...]) -> _Diagnostics:
    """The parabolic of the doubled shifted weight w, as `theta_parabolic`
    has it (its root sum, doubled, and its number of roots), whether it is
    a Borel, the positivity of w against it, and the full-shift weight
    (w minus the root sum), doubled."""
    n = len(w)
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
    double_shift = tuple(map(sub, w, two_rho_u))
    return _Diagnostics(two_rho_u, root_count, borel_ok, positivity_ok, double_shift)


class MinimalKTypeVerdict(_Frozen):
    """Outcome of the test: the shifted weight, and the parameter, present
    exactly when accepted.

    The parabolic of the shifted weight (its root sum, doubled, and its
    number of roots, those of `theta_parabolic`), the two conditions and
    the full-shift weight are read from the shifted weight on access."""

    __slots__ = ("mu_shifted", "hc")
    mu_shifted: Weight
    hc: HCParameter | None

    @property
    def accepted(self) -> bool:
        return self.hc is not None

    @property
    def borel_ok(self) -> bool:
        return _diagnostics(self.mu_shifted.doubled).borel_ok

    @property
    def positivity_ok(self) -> bool:
        return _diagnostics(self.mu_shifted.doubled).positivity_ok

    @property
    def hc_double_shift(self) -> Weight:
        return Weight._trusted(_diagnostics(self.mu_shifted.doubled).doubled_double_shift)

    @property
    def doubled_two_rho_u(self) -> tuple[int, ...]:
        return _diagnostics(self.mu_shifted.doubled).doubled_two_rho_u

    @property
    def root_count(self) -> int:
        return _diagnostics(self.mu_shifted.doubled).root_count


def minimal_ktype_test(mu: Weight, sig: Signature) -> MinimalKTypeVerdict:
    """Decide lowest-K-type status of mu and recover its parameter."""
    shifted = shifted_weight(mu, sig)
    w = shifted.doubled
    # Accepted iff every sorted gap is at least 4 (module docstring).
    up = sorted(w)
    if min(map(sub, up[1:], up), default=4) < 4:
        return MinimalKTypeVerdict(shifted, None)
    n = len(w)
    # The entry of rank k loses the half root sum, doubled: 2k - (n - 1).
    candidate = tuple([x + n - 1 - 2 * k for x, k in zip(w, map(up.index, w))])
    return MinimalKTypeVerdict(shifted, HCParameter._trusted(candidate[: sig.r], candidate[sig.r:]))


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
