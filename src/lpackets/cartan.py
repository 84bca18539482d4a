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
syntax, and both read each token through `doubled_from_str` straight to
its doubled int: an optional sign and ASCII digits, "p" or "p/2".

The public constructors (`Weight(...)` and `Weight.from_doubled`) check
the common coset. Values the package derives from weights it has already
checked, by shifts that keep every parity (such as an infinitesimal
character) or as slices (the head and tail of a K-type split), are built
by the private `Weight._trusted` and are not checked again.

Every value type of the package is an immutable slotted class on the
private base `_Frozen`, which compares, hashes, prints and pickles an
instance by the tuple of its slot values, and which holds the only code
that stores into one. From the slots it compiles one store per class: a
record, which declares its fields once, in `__slots__`, takes it as its
constructor; a checking class writes its own constructor, which ends in
that store (`_store`), and gets a compiled `_trusted` that builds an
instance unchecked. `_Frozen._fill` builds many bare instances at once and
fills one slot across them.

The Fraction views share one bounded table: `half_entry` is cached, so a
view of a weight maps its doubled entries through the cache instead of
building a new `Fraction` per entry. `half_view` is the one factory of
the tuple views of stored doubled tuples, in this module and the others.

`check_non_increasing` rejects a branched or rho-shifted highest weight,
or a split K-type block, that is not non-increasing (dominant).
`shifted_weight` checks K-dominance itself, naming weight and signature.

A signature (r, s) splits the coordinates of U(r, s) into an a-block (the
first r) and a b-block (the last s). A root e_i - e_j is the 1-based index
pair (i, j); it pairs with a weight as entry i minus entry j.
"""

from __future__ import annotations

import re
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from operator import add, attrgetter, lt, sub

EntryLike = int | Fraction

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


def check_non_increasing(doubled: tuple[int, ...], label: str) -> None:
    """Reject a doubled tuple that is not non-increasing (not dominant),
    naming it by label."""
    if any(map(lt, doubled, doubled[1:])):
        raise ValueError(f"{label} ({doubled_text(doubled)}) is not non-increasing")


def half_view(field: str) -> property:
    """A read-only property: the tuple of Fraction views of the doubled
    entries stored in the slot `field`."""
    get = attrgetter(field)
    return property(lambda self: tuple(map(half_entry, get(self))))


class _Frozen:
    """Base of the value types, and the only code that stores into one. A
    subclass lists its fields in `__slots__`; assignment and deletion
    raise. From the slots, `__init_subclass__` compiles the class's store,
    `(self, <slots in order>)`, which stores each argument as given. A
    record, whose body defines no `__init__`, takes it as its `__init__`; a
    checking class, whose body defines one, gets it as `_store`, with which
    that `__init__` ends, and a classmethod `_trusted(cls, <slots>)` that
    stores into a bare instance without any check, for values that are
    valid by construction. `_fill` builds and fills many at once. Equality
    (between instances of one class) and the hash read the tuple of slot
    values, the repr is `Name(field=value, ...)`, and `__reduce__` calls
    the class on the slot values in order: a subclass whose constructor
    takes other arguments defines its own, as does one that must be
    rebuilt through a checking constructor."""

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        slots = cls.__slots__
        get = attrgetter(*slots)
        cls._values = staticmethod(get if len(slots) > 1 else lambda self: (get(self),))
        # Source from the slot names alone (identifiers); annotations from the body.
        namespace = {f"_set{k}": getattr(cls, name).__set__ for k, name in enumerate(slots)}
        namespace["_new"] = object.__new__
        fields = ", ".join(slots)
        stores = "".join(f"\n    _set{k}(self, {name})" for k, name in enumerate(slots))
        # A checking class writes its own `__init__`, which ends in `_store`.
        names = ("_store", "_trusted") if "__init__" in cls.__dict__ else ("__init__",)
        source = f"def {names[0]}(self, {fields}):{stores}\n"
        if "_trusted" in names:
            source += (f"def _trusted(cls, {fields}):\n"
                       f"    self = _new(cls){stores}\n    return self")
        exec(source, namespace)
        annotations = cls.__dict__.get("__annotations__", {})
        namespace[names[0]].__annotations__ = {
            name: annotations[name] for name in slots if name in annotations}
        for name in names:
            function = namespace[name]
            function.__qualname__ = f"{cls.__qualname__}.{name}"
            function.__module__ = cls.__module__
            setattr(cls, name, classmethod(function) if name == "_trusted" else function)

    @classmethod
    def _fill(cls, name: str, values: Iterable, into: list | None = None) -> list:
        """Store values, pairwise, into the slot `name` of the instances
        `into`, or of as many new bare instances as there are values (a
        sized collection then), without any check; returns the instances.
        Both loops run in C: a deque of length 0 drains the map."""
        if into is None:
            into = list(map(object.__new__, repeat(cls, len(values))))
        deque(map(getattr(cls, name).__set__, into, values), maxlen=0)
        return into

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = map("{}={!r}".format, self.__slots__, self._values(self))
        return f"{self.__class__.__qualname__}({', '.join(fields)})"

    def __reduce__(self):
        return (self.__class__, self._values(self))


class Signature(_Frozen):
    """Signature (r, s) of U(r, s); n = r + s."""

    __slots__ = ("r", "s")
    r: int
    s: int

    def __init__(self, r: int, s: int):
        for value in (r, s):
            if type(value) is not int:
                raise ValueError(f"signature entry {value!r} is not an int")
        if r < 0 or s < 0 or r + s < 1:
            raise ValueError("signature needs r, s >= 0 and r + s >= 1")
        self._store(r, s)

    @property
    def n(self) -> int:
        return self.r + self.s


class Weight(_Frozen):
    """Immutable n-tuple in (1/2)Z^n with uniform half-integrality.

    `doubled` holds twice each entry; `entries` is the Fraction view.
    """

    __slots__ = ("doubled",)
    doubled: tuple[int, ...]

    def __init__(self, entries: Iterable[EntryLike]):
        doubled = tuple(double_entry(v) for v in entries)
        check_parity(doubled)
        self._store(doubled)

    @classmethod
    def from_doubled(cls, doubled: Sequence[int]) -> "Weight":
        """The weight whose entries are half of the given ints."""
        values = tuple(doubled)
        check_parity(values)
        return cls._trusted(values)

    def __reduce__(self):
        return (Weight.from_doubled, (self.doubled,))

    entries = half_view("doubled")

    def __len__(self) -> int:
        return len(self.doubled)

    def __iter__(self) -> Iterator[Fraction]:
        return map(half_entry, self.doubled)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(half_entry, self.doubled[index]))
        return half_entry(self.doubled[index])

    def _pointwise(self, op, other: "Weight") -> "Weight":
        if not isinstance(other, Weight):
            return NotImplemented
        if len(self) != len(other):
            raise ValueError("dimension mismatch")
        return Weight.from_doubled(map(op, self.doubled, other.doubled))

    def __add__(self, other: "Weight") -> "Weight":
        return self._pointwise(add, other)

    def __sub__(self, other: "Weight") -> "Weight":
        return self._pointwise(sub, other)

    def __neg__(self) -> "Weight":
        return Weight.from_doubled(-x for x in self.doubled)

    def __repr__(self) -> str:
        return f"Weight(({', '.join(map(doubled_to_str, self.doubled))}))"


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
    return hodge_parameter(rho(n))


def hodge_parameter(weight: Weight) -> Weight:
    """Shift every entry by (n-1)/2, moving rho-shifted data onto rho_tilde."""
    shift = len(weight) - 1
    return Weight.from_doubled(d + shift for d in weight.doubled)


# Serialization: each entry renders as "p" (integral) or "p/2" (odd p).

@lru_cache(maxsize=1024)
def doubled_to_str(doubled: int) -> str:
    """The entry doubled/2, without building a Fraction; cached, as
    `half_entry` is, so the text of equal entries is built once."""
    return str(doubled // 2) if doubled % 2 == 0 else f"{doubled}/2"


def doubled_text(doubled: Iterable[int]) -> str:
    """Comma-separated entries of a doubled tuple: "5,2,-1/2"-style."""
    return ",".join(map(doubled_to_str, doubled))


# An integer as int() reads it, less underscores and non-ASCII digits.
_INT = r"\s*([+-]?[0-9]+)\s*"
_ENTRY = re.compile(f"{_INT}(?:/{_INT})?")
_INTEGER = re.compile(_INT)
_SIGNATURE = re.compile(f"{_INT},{_INT}")


def doubled_from_str(text: str) -> int:
    """Twice the entry "p", "p/1" or "p/2" with odd p: the one parser of
    an entry token; any other denominator is rejected."""
    token = text.strip()
    match = _ENTRY.fullmatch(token)
    if not match:
        raise ValueError(f"bad weight entry {token!r}")
    num, den = int(match[1]), int(match[2] or 1)
    if den == 1:
        return 2 * num
    if den != 2:
        raise ValueError(f"bad weight entry {token!r}: denominator must be 1 or 2")
    if num % 2 == 0:
        raise ValueError(f"bad weight entry {token!r}: not in lowest terms")
    return num


def weight_to_strings(weight: Weight) -> list[str]:
    return [doubled_to_str(d) for d in weight.doubled]


def weight_from_strings(items: Iterable[str]) -> Weight:
    return Weight.from_doubled(map(doubled_from_str, items))
