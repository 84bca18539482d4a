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

The verdict stores the shifted weight and the parameter, and reads on
access only the positivity flag, which no other public name gives, from
`theta_parabolic` of the shifted weight, the one code that computes the
parabolic. A caller reads the rest from one such call: the root sum, the
roots, the Borel flag, and the full-shift variant (shifted weight minus
the whole root sum, singular in general, a diagnostic that never drives
acceptance). The two flags are those the decision rule above replaces,
and they agree with it.

A root e_i - e_j is its 1-based index pair (i, j), and it pairs strictly
positively with a weight when entry i exceeds entry j. A weight w is
positive against the parabolic when w_i - w_j >= t_i - t_j on each of its
roots, t its root sum. The test checks the weight it is given and
nothing it derives. The verdict and the parabolic are records: each
declares its fields once, in `__slots__`, and is built by the constructor
`_Frozen` compiles from them.
"""

from __future__ import annotations

from fractions import Fraction
from operator import ge, sub

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
    doubled = weight.doubled
    n = len(doubled)
    pairs = [(i, j) for i in range(n) for j in range(n) if doubled[i] > doubled[j]]
    two_rho_u = [0] * n
    for i, j in pairs:
        two_rho_u[i] += 2
        two_rho_u[j] -= 2
    return ThetaParabolic(
        delta_u=tuple((i + 1, j + 1) for i, j in pairs),
        is_borel=len(pairs) == n * (n - 1) // 2,
        two_rho_u=Weight._trusted(tuple(two_rho_u)),
    )


def _positivity_ok(doubled: tuple[int, ...], parabolic: ThetaParabolic) -> bool:
    """Whether the weight, doubled, is positive against the parabolic
    (module docstring), root by root over its delta_u."""
    t = parabolic.two_rho_u.doubled
    return all(doubled[i - 1] - doubled[j - 1] >= t[i - 1] - t[j - 1]
               for i, j in parabolic.delta_u)


class MinimalKTypeVerdict(_Frozen):
    """Outcome of the test: the shifted weight, and the parameter, present
    exactly when accepted. `positivity_ok` is read on access from
    `theta_parabolic` of the shifted weight (module docstring)."""

    __slots__ = ("mu_shifted", "hc")
    mu_shifted: Weight
    hc: HCParameter | None

    @property
    def accepted(self) -> bool:
        return self.hc is not None

    @property
    def positivity_ok(self) -> bool:
        return _positivity_ok(self.mu_shifted.doubled, theta_parabolic(self.mu_shifted))


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
    ordered = sorted(weight.doubled)
    margin = min(map(sub, ordered[1:], ordered), default=None)
    return None if margin is None else half_entry(margin)
