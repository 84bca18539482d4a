"""Roots of u(n) relative to the diagonal torus, split by a signature.

A root e_i - e_j is stored as its index pair (i, j), 1-based. A signature
(r, s) declares the first r coordinates compact-block-a and the last s
compact-block-b; roots inside a block are compact, roots across are not.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator

from .cartan import Weight, half_entry

__all__ = [
    "Root",
    "Signature",
    "RootSet",
    "roots_g",
    "compact_roots",
    "noncompact_positive",
    "positive_on",
    "sum_of_roots",
]


@dataclass(frozen=True)
class Root:
    """The root e_i - e_j, 1-based indices, i != j."""

    i: int
    j: int

    def __post_init__(self) -> None:
        if self.i < 1 or self.j < 1:
            raise ValueError("root indices are 1-based")
        if self.i == self.j:
            raise ValueError("e_i - e_i is not a root")

    def to_weight(self, n: int) -> Weight:
        if self.i > n or self.j > n:
            raise ValueError("root index out of range")
        return Weight.from_doubled(2 if k == self.i else -2 if k == self.j else 0
                                   for k in range(1, n + 1))

    def pair(self, weight: Weight) -> Fraction:
        """pairing(weight, e_i - e_j) without materializing the root vector."""
        if self.i > len(weight) or self.j > len(weight):
            raise ValueError("root index out of range")
        return half_entry(weight.doubled[self.i - 1] - weight.doubled[self.j - 1])


@dataclass(frozen=True)
class Signature:
    """Signature (r, s) of U(r, s); n = r + s."""

    r: int
    s: int

    def __post_init__(self) -> None:
        if self.r < 0 or self.s < 0 or self.r + self.s < 1:
            raise ValueError("signature needs r, s >= 0 and r + s >= 1")

    @property
    def n(self) -> int:
        return self.r + self.s


@dataclass(frozen=True)
class RootSet:
    """Roots in ambient rank n, duplicate-free, in a deterministic order."""

    roots: tuple[Root, ...]
    n: int

    def __post_init__(self) -> None:
        for root in self.roots:
            if root.i > self.n or root.j > self.n:
                raise ValueError("root index out of range")
        if len(set(self.roots)) != len(self.roots):
            raise ValueError("duplicate roots")

    def __len__(self) -> int:
        return len(self.roots)

    def __iter__(self) -> Iterator[Root]:
        return iter(self.roots)

    def __contains__(self, root: Root) -> bool:
        return root in self.roots


def roots_g(n: int) -> RootSet:
    """All roots of u(n), lexicographic by (i, j)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    pairs = tuple(Root(i, j) for i in range(1, n + 1)
                  for j in range(1, n + 1) if i != j)
    return RootSet(pairs, n)


def compact_roots(sig: Signature) -> RootSet:
    """Roots with both indices in one block of the signature."""
    n = sig.n
    same = lambda k: k <= sig.r
    pairs = tuple(root for root in roots_g(n)
                  if same(root.i) == same(root.j))
    return RootSet(pairs, n)


def noncompact_positive(sig: Signature) -> RootSet:
    """The r*s roots e_i - e_{r+j} with i in the a-block, r+j in the b-block."""
    pairs = tuple(Root(i, j) for i in range(1, sig.r + 1)
                  for j in range(sig.r + 1, sig.n + 1))
    return RootSet(pairs, sig.n)


def positive_on(roots: RootSet, weight: Weight) -> RootSet:
    """Subset pairing strictly positively with weight; input order kept."""
    if len(weight) != roots.n:
        raise ValueError("dimension mismatch")
    doubled = weight.doubled
    return RootSet(tuple(r for r in roots if doubled[r.i - 1] > doubled[r.j - 1]),
                   roots.n)


def sum_of_roots(roots: RootSet) -> Weight:
    """Coordinate sum of the root vectors; the zero weight for an empty set."""
    coords = [0] * roots.n
    for root in roots:
        coords[root.i - 1] += 2
        coords[root.j - 1] -= 2
    return Weight.from_doubled(coords)
