"""Classical branching from U(m) to U(m-1) x U(1).

A dominant (non-increasing) highest weight restricts multiplicity-free to
the dominant weights interlacing it; the U(1) weight is the trace
difference. Half-integral weights interlace the same way. Weyl's
dimension formula provides an independent count for cross-checking.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import lru_cache
from math import prod
from operator import add, lt, sub

from .cartan import (EntryLike, Signature, Weight, _Frozen, double_entry, doubled_text,
                     half_entry, two_rho)

__all__ = [
    "BranchConstituent",
    "KRestriction",
    "interlaces",
    "branch",
    "weyl_dim",
    "restrict_ktype",
    "restriction_contains",
]


def _require_dominant(doubled: tuple[int, ...], label: str) -> None:
    if any(map(lt, doubled, doubled[1:])):
        raise ValueError(f"{label} ({doubled_text(doubled)}) is not non-increasing")


class BranchConstituent(_Frozen):
    """One U(m-1) x U(1) constituent of a restricted representation.

    The U(1) weight is stored doubled; `u1` is its Fraction view."""

    __slots__ = ("lower", "doubled_u1")
    lower: Weight
    doubled_u1: int

    @property
    def u1(self) -> Fraction:
        return half_entry(self.doubled_u1)


class KRestriction(_Frozen):
    """K-type split for U(r-1) x U(1) x U(s): head, pivot, tail.

    The pivot is stored doubled; `u1` is its Fraction view."""

    __slots__ = ("head", "doubled_u1", "tail")
    head: Weight
    doubled_u1: int
    tail: Weight

    def __init__(self, head: Weight, u1: EntryLike, tail: Weight):
        self._store(head, double_entry(u1), tail)

    def __reduce__(self):
        return (KRestriction, (self.head, self.u1, self.tail))

    @property
    def u1(self) -> Fraction:
        return half_entry(self.doubled_u1)


def _interlaces(upper: tuple[int, ...], lower: tuple[int, ...]) -> bool:
    return all(upper[k] >= lower[k] >= upper[k + 1] for k in range(len(lower)))


def interlaces(upper: Weight, lower: Weight) -> bool:
    """upper_1 >= lower_1 >= upper_2 >= ... >= lower_{m-1} >= upper_m."""
    if len(lower) != len(upper) - 1:
        raise ValueError("dimension mismatch")
    return _interlaces(upper.doubled, lower.doubled)


def branch(upper: Weight) -> list[BranchConstituent]:
    """All interlacing lower weights, lexicographically descending.

    Entries step by 1 inside [upper_{k+1}, upper_k], independently of each
    other, so every constituent stays on the coset of the input.
    Multiplicities are all 1. The lower weights, then the constituents, are
    built in bulk.
    """
    doubled = upper.doubled
    _require_dominant(doubled, "highest weight")
    if len(doubled) < 1:
        raise ValueError("empty highest weight")
    total = sum(doubled)
    choices = [range(top, bottom - 1, -2) for top, bottom in zip(doubled, doubled[1:])]
    lowers = list(itertools.product(*choices))
    u1s = map(sub, itertools.repeat(total), map(sum, lowers))
    constituents = BranchConstituent._fill("lower", Weight._fill("doubled", lowers))
    return BranchConstituent._fill("doubled_u1", u1s, constituents)


def _vandermonde(values) -> int:
    """Product over i < j of values_i - values_j."""
    return prod(itertools.starmap(sub, itertools.combinations(values, 2)))


@lru_cache(maxsize=64)
def _weyl_denominator(m: int) -> int:
    """Product over i < j < m of 2(j - i): the Vandermonde product of 2 rho(m)."""
    return _vandermonde(two_rho(m))


# The largest m with a compiled kernel: twice the benchmark's largest m, at a
# first-call cost below 1 ms (see weyl_dim); that cost grows with m^2.
_KERNEL_MAX = 16


@lru_cache(maxsize=None)
def _weyl_kernel(m: int):
    """Weyl's dimension formula for 2 <= m <= _KERNEL_MAX, compiled as one
    straight-line function of a doubled tuple: None unless it is
    non-increasing, else the product over i < j of d_i - d_j + 2(j - i)
    over the denominator. Its source holds only identifiers and ints."""
    names = [f"d{i}" for i in range(m)]
    factors = " * ".join(f"({names[i]} - {names[j]} + {2 * (j - i)})"
                         for i, j in itertools.combinations(range(m), 2))
    source = (f"def _weyl_kernel_{m}(doubled):\n"
              f"    {', '.join(names)} = doubled\n"
              f"    if {' >= '.join(names)}:\n"
              f"        return {factors} // {_weyl_denominator(m)}\n")
    namespace: dict = {}
    exec(source, namespace)
    return namespace[f"_weyl_kernel_{m}"]


def weyl_dim(weight: Weight) -> int:
    """Dimension of the irreducible U(m) representation with this highest
    weight: product over i < j of (w_i - w_j + j - i) / (j - i).

    Doubled, that is the Vandermonde product of 2(w + rho) over the one of
    2 rho, which depends on m alone. For 2 <= m <= 16 (`_KERNEL_MAX`),
    `_weyl_kernel(m)` computes it as one straight-line expression, about
    1.5-3x faster than the general path. The first call at each m compiles
    that kernel: 0.18 ms at m = 8 and 0.60 ms at m = 16, against 0.005 and
    0.017 ms on the general path (CPython 3.11, Xeon). A weight that is not
    non-increasing, and any other m, takes the general path, which checks
    the weight and multiplies the factors in a loop."""
    doubled = weight.doubled
    m = len(doubled)
    if 2 <= m <= _KERNEL_MAX:
        value = _weyl_kernel(m)(doubled)
        if value is not None:
            return value
    _require_dominant(doubled, "highest weight")
    if m < 2:
        return 1
    return _vandermonde(map(add, doubled, two_rho(m))) // _weyl_denominator(m)


def restrict_ktype(lam: Weight, sig: Signature) -> KRestriction:
    """Split a K-highest weight by peeling the last a-block entry to U(1);
    head and tail, slices of the checked weight, are not checked again."""
    if sig.r < 1:
        raise ValueError("signature needs r >= 1 to restrict")
    if len(lam) != sig.n:
        raise ValueError("dimension mismatch")
    a, b = lam.doubled[: sig.r], lam.doubled[sig.r:]
    _require_dominant(a, "a-block")
    _require_dominant(b, "b-block")
    return KRestriction._trusted(Weight._trusted(a[:-1]), a[-1], Weight._trusted(b))


def restriction_contains(lam: Weight, sig: Signature, candidate: KRestriction) -> bool:
    """True iff candidate occurs in lam restricted along the a-block:
    the head interlaces the a-block with the forced U(1) weight, and the
    tail equals the b-block."""
    if sig.r < 1:
        raise ValueError("signature needs r >= 1 to restrict")
    if len(lam) != sig.n:
        raise ValueError("dimension mismatch")
    a, b = lam.doubled[: sig.r], lam.doubled[sig.r:]
    head = candidate.head.doubled
    if len(head) != sig.r - 1:
        return False
    return (_interlaces(a, head)
            and candidate.doubled_u1 == sum(a) - sum(head)
            and candidate.tail.doubled == b)
