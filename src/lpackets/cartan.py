"""Exact weight arithmetic on the diagonal torus of u(n), and signatures.

Weights are tuples of rationals lying in (1/2)Z, with all entries of one
weight in a single coset of Z (all integral or all half-odd). Internally a
weight is stored doubled: the tuple of ints equal to twice each entry, so
the coset is the common parity and all arithmetic is integer arithmetic.
`Fraction` appears only at the boundary: entries given to constructors,
the public views (`Weight.entries`, indexing, iteration, `pairing`) and
the string forms. No floating point is used anywhere in the package.

Constructors take each entry as an int or a Fraction (`double_entry`) and
reject floats, bools, strings and any other type, as `Signature` does for
r and s. Text enters through `weight_from_strings` or the CLI's weight
syntax; `doubled_from_str` is the one parser of an entry token.

The public constructors (`Weight(...)` and `Weight.from_doubled`) check
the common coset. Values the package derives from weights it has already
checked, by shifts that keep every parity, are built by the private
`Weight._trusted` and are not checked again. Both store through the slot
descriptor, as do the records elsewhere in the package.

The Fraction views share one bounded table: `half_entry` is cached, so a
view of a weight maps its doubled entries through the cache instead of
building a new `Fraction` per entry.

A signature (r, s) splits the coordinates of U(r, s) into an a-block (the
first r) and a b-block (the last s). A root e_i - e_j is the 1-based index
pair (i, j); it pairs with a weight as entry i minus entry j.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from operator import add, sub
from typing import Iterable, Iterator, Sequence, Union

EntryLike = Union[int, Fraction]

__all__ = [
    "Signature",
    "Weight",
    "pairing",
    "rho",
    "rho_tilde",
    "hodge_parameter",
    "weight_to_strings",
    "weight_from_strings",
]


def double_entry(value: EntryLike) -> int:
    """Twice a half-integral entry, as an int; rejects other rationals,
    bools and anything else that is neither an int nor a Fraction."""
    if type(value) is int:
        return 2 * value
    if not isinstance(value, Fraction):
        raise ValueError(f"weight entry {value!r} is not an int or a Fraction")
    if value.denominator == 1:
        return 2 * value.numerator
    if value.denominator == 2:
        return value.numerator
    raise ValueError(f"weight entry {value} is not a half-integer")


@lru_cache(maxsize=1024)
def half_entry(doubled: int) -> Fraction:
    """The public Fraction view of a doubled entry; Fractions are
    immutable, so views of equal entries share one."""
    return Fraction(doubled // 2) if doubled % 2 == 0 else Fraction(doubled, 2)


def check_parity(doubled: tuple[int, ...]) -> None:
    """Reject a doubled tuple whose entries lie in two cosets of Z."""
    if len({x & 1 for x in doubled}) > 1:
        raise ValueError(f"mixed half-integrality in weight ({doubled_text(doubled)})")


@dataclass(frozen=True)
class Signature:
    """Signature (r, s) of U(r, s); n = r + s."""

    r: int
    s: int

    def __post_init__(self) -> None:
        for value in (self.r, self.s):
            if type(value) is not int:
                raise ValueError(f"signature entry {value!r} is not an int")
        if self.r < 0 or self.s < 0 or self.r + self.s < 1:
            raise ValueError("signature needs r, s >= 0 and r + s >= 1")

    @property
    def n(self) -> int:
        return self.r + self.s


@dataclass(frozen=True, slots=True, init=False, repr=False)
class Weight:
    """Immutable n-tuple in (1/2)Z^n with uniform half-integrality.

    `doubled` holds twice each entry; `entries` is the Fraction view.
    """

    doubled: tuple[int, ...]

    def __init__(self, entries: Iterable[EntryLike]):
        doubled = tuple(double_entry(v) for v in entries)
        check_parity(doubled)
        Weight.doubled.__set__(self, doubled)

    @classmethod
    def from_doubled(cls, doubled: Sequence[int]) -> "Weight":
        """The weight whose entries are half of the given ints."""
        values = tuple(doubled)
        check_parity(values)
        return cls._trusted(values)

    @classmethod
    def _trusted(cls, doubled: tuple[int, ...]) -> "Weight":
        """Store a doubled tuple as it is, without the parity check; only
        for tuples whose parity is uniform by construction."""
        weight = object.__new__(cls)
        cls.doubled.__set__(weight, doubled)
        return weight

    def __reduce__(self):
        return (Weight.from_doubled, (self.doubled,))

    @property
    def entries(self) -> tuple[Fraction, ...]:
        return tuple(map(half_entry, self.doubled))

    def __len__(self) -> int:
        return len(self.doubled)

    def __iter__(self) -> Iterator[Fraction]:
        return map(half_entry, self.doubled)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(half_entry, self.doubled[index]))
        return half_entry(self.doubled[index])

    def __add__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("dimension mismatch")
        return Weight.from_doubled(map(add, self.doubled, other.doubled))

    def __sub__(self, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("dimension mismatch")
        return Weight.from_doubled(map(sub, self.doubled, other.doubled))

    def __neg__(self) -> "Weight":
        return Weight.from_doubled(-x for x in self.doubled)

    def __repr__(self) -> str:
        return f"Weight(({', '.join(map(doubled_to_str, self.doubled))}))"

    def is_regular(self) -> bool:
        """True iff all entries are pairwise distinct."""
        return len(set(self.doubled)) == len(self.doubled)


def pairing(x: Weight, y: Weight) -> Fraction:
    """Standard dot product; the bilinear form used everywhere here."""
    if len(x) != len(y):
        raise ValueError("dimension mismatch")
    return Fraction(sum(a * b for a, b in zip(x.doubled, y.doubled)), 4)


@lru_cache(maxsize=64)
def two_rho(n: int) -> tuple[int, ...]:
    """2 rho(n) = (n-1, n-3, ..., 1-n): rho(n) in the doubled form."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return tuple(n - 1 - 2 * k for k in range(n))


def rho(n: int) -> Weight:
    """Half-sum of the standard positive roots: ((n-1)/2, (n-3)/2, ..., (1-n)/2)."""
    return Weight.from_doubled(two_rho(n))


def rho_tilde(n: int) -> Weight:
    """Integral shift of rho: (n-1, n-2, ..., 1, 0)."""
    if n < 1:
        raise ValueError("n must be at least 1")
    return Weight.from_doubled(2 * (n - 1 - k) for k in range(n))


def hodge_parameter(weight: Weight) -> Weight:
    """Shift every entry by (n-1)/2, moving rho-shifted data onto rho_tilde."""
    shift = len(weight) - 1
    return Weight.from_doubled(d + shift for d in weight.doubled)


# Serialization: each entry renders as "p" (integral) or "p/2" (odd p).

def entry_to_str(entry: EntryLike) -> str:
    """doubled_to_str of the doubled entry; rejects what double_entry does."""
    return doubled_to_str(double_entry(entry))


def doubled_to_str(doubled: int) -> str:
    """The entry doubled/2, without building a Fraction."""
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


def doubled_text(doubled: Iterable[int]) -> str:
    """Comma-separated entries of a doubled tuple: "5,2,-1/2"-style."""
    return ",".join(map(doubled_to_str, doubled))


def doubled_from_str(text: str) -> int:
    """Twice the entry "p", "p/1" or "p/2" with odd p: the one parser of
    an entry token; any other denominator is rejected."""
    token = text.strip()
    num_text, slash, den_text = token.partition("/")
    try:
        num = int(num_text)
        den = int(den_text) if slash else 1
    except ValueError:
        raise ValueError(f"bad weight entry {token!r}") from None
    if den == 1:
        return 2 * num
    if den != 2:
        raise ValueError(f"bad weight entry {token!r}: denominator must be 1 or 2")
    if num % 2 == 0:
        raise ValueError(f"bad weight entry {token!r}: not in lowest terms")
    return num


def entry_from_str(text: str) -> Fraction:
    """The Fraction view of doubled_from_str(text)."""
    return half_entry(doubled_from_str(text))


def weight_to_strings(weight: Weight) -> list[str]:
    return [doubled_to_str(d) for d in weight.doubled]


def weight_from_strings(items: Iterable[str]) -> Weight:
    return Weight.from_doubled(map(doubled_from_str, items))
