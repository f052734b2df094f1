"""Exact combinatorics of symbol histograms over finite alphabets.

Everything in this module is computed with unbounded integers and
`fractions.Fraction`, so counting identities and the classical histogram
bounds can be asserted with equality instead of tolerances.  The quantities
``e^(n*H(P))`` and ``e^(-n*D(P||Q))`` are rational for a histogram P of
denominator n and rational Q, which is what makes the exact checks possible;
helpers for both are provided.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Sequence, Union

__all__ = [
    "CapacityError",
    "DEFAULT_ENUMERATION_CAP",
    "Pmf",
    "TypeVector",
    "count_types",
    "empirical_type",
    "enumerate_types",
    "exp_n_entropy",
    "exp_neg_n_divergence",
    "integer_numerators",
    "sequence_probability_identity",
    "type_class_probability",
    "type_class_size",
    "type_list",
    "type_index_map",
    "type_to_pmf",
]

Rational = Union[int, Fraction]

DEFAULT_ENUMERATION_CAP = 2**26


class CapacityError(RuntimeError):
    """An enumeration would exceed the configured cap."""


def resolve_cap(cap: int | None) -> int:
    """Effective enumeration cap: explicit argument, else FINETTI_CAP, else default."""
    if cap is not None:
        return cap
    env = os.environ.get("FINETTI_CAP")
    if env is not None:
        try:
            return int(env)
        except ValueError as exc:
            raise ValueError(f"FINETTI_CAP must be an integer, got {env!r}") from exc
    return DEFAULT_ENUMERATION_CAP


def _alphabet_size(alphabet: int) -> int:
    m = int(alphabet)
    if m < 1:
        raise ValueError(f"alphabet size must be >= 1, got {m}")
    return m


class TypeVector(namedtuple("TypeVector", "counts")):
    """Histogram of an n-string: counts[a] occurrences of symbol a, sum = n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace validates too

    def __new__(cls, counts) -> "TypeVector":
        counts = tuple(map(int, counts))
        if not counts:
            raise ValueError("a type needs at least one symbol cell")
        if min(counts) < 0:
            raise ValueError(f"negative count in {counts}")
        if sum(counts) < 1:
            raise ValueError("a type must describe a nonempty string")
        return tuple.__new__(cls, (counts,))

    @property
    def n(self) -> int:
        return sum(self.counts)

    @property
    def m(self) -> int:
        return len(self.counts)

    def pmf(self) -> "Pmf":
        return type_to_pmf(self)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "counts": list(self.counts)}

    @classmethod
    def from_json(cls, obj: dict) -> "TypeVector":
        tv = cls(tuple(obj["counts"]))
        if "n" in obj and tv.n != obj["n"]:
            raise ValueError(f"counts sum to {tv.n}, header says n={obj['n']}")
        if "m" in obj and tv.m != obj["m"]:
            raise ValueError(f"counts have {tv.m} cells, header says m={obj['m']}")
        return tv


def _rational(p) -> Fraction:
    if isinstance(p, (int, Fraction)):
        return Fraction(p)
    raise ValueError(f"pmf entries and weights must be exact rationals, got {p!r}")


class Pmf(tuple):
    """Probability vector over an indexed finite outcome space.

    A tuple of `Fraction` entries, nonnegative and summing to exactly 1.  It
    validates on construction and again when unpickled, is immutable, and
    compares and hashes by value.
    """

    __slots__ = ()

    def __new__(cls, probs: Sequence[Rational]) -> "Pmf":
        entries = tuple(map(_rational, probs))
        if not entries:
            raise ValueError("empty probability vector")
        if min(entries) < 0:
            raise ValueError("negative probability")
        if sum(entries) != 1:
            raise ValueError(f"pmf sums to {sum(entries)}, not 1")
        return tuple.__new__(cls, entries)

    def __reduce__(self):
        return type(self), (tuple(self),)

    @property
    def probs(self) -> "Pmf":
        """The entries: the pmf itself, so reading them copies nothing."""
        return self

    def __repr__(self) -> str:
        return f"Pmf({list(self)!r})"

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self) if p > 0)

    def to_float(self) -> tuple[float, ...]:
        return tuple(map(float, self))

    @classmethod
    def from_numerators(cls, nums: Sequence[int], den: int) -> "Pmf":
        """The pmf nums / den, checked in integers: nonnegative ints summing to den.

        Equal numerators share one reduced `Fraction`.
        """
        nums = tuple(nums)
        if not nums:
            raise ValueError("empty probability vector")
        if not all(isinstance(x, int) and x >= 0 for x in nums):
            raise ValueError(f"numerators must be nonnegative integers, got {nums}")
        if den < 1 or sum(nums) != den:
            raise ValueError(f"numerators sum to {sum(nums)}, not to the denominator {den}")
        reduced = {x: Fraction(x, den) for x in set(nums)}
        return tuple.__new__(cls, map(reduced.__getitem__, nums))

    @classmethod
    def uniform(cls, size: int) -> "Pmf":
        if size < 1:
            raise ValueError("size must be >= 1")
        return cls.from_numerators((1,) * size, size)

    @classmethod
    def point_mass(cls, size: int, index: int) -> "Pmf":
        if not 0 <= index < size:
            raise ValueError(f"index {index} outside 0..{size - 1}")
        return cls.from_numerators([int(i == index) for i in range(size)], 1)

    @classmethod
    def from_weights(cls, weights: Sequence[Rational]) -> "Pmf":
        """Nonnegative exact weights scaled to sum to 1."""
        nums, _ = integer_numerators(tuple(map(_rational, weights)))
        return cls.from_numerators(nums, sum(nums))


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def count_types(alphabet: int, n: int) -> int:
    """Number of histograms of n-strings: C(n + m - 1, m - 1)."""
    m = _alphabet_size(alphabet)
    if n < 1:
        raise ValueError(f"string length must be >= 1, got {n}")
    return math.comb(n + m - 1, m - 1)


def _compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


def enumerate_types(alphabet: int, n: int, cap: int | None = None) -> Iterator[TypeVector]:
    """All histograms of n-strings over the alphabet, in ascending count order.

    The order is lexicographic on the count tuple, so (m=2, n=2) yields
    (0,2), (1,1), (2,0).  Raises CapacityError up front if the total count
    exceeds the enumeration cap.
    """
    m = _alphabet_size(alphabet)
    _check_cap(m, n, cap)
    for counts in _compositions(n, m):
        yield TypeVector(counts)


def _check_cap(m: int, n: int, cap: int | None) -> None:
    total = count_types(m, n)
    limit = resolve_cap(cap)
    if total > limit:
        raise CapacityError(f"{total} types at (m={m}, n={n}) exceeds cap {limit}")


# Type caches keyed by (m, n), shared by laws and restriction maps; each
# keeps this many entries and drops the least recently used.
TYPE_CACHE_SIZE = 32


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def _type_tuple(m: int, n: int) -> tuple[TypeVector, ...]:
    return tuple(map(TypeVector, _compositions(n, m)))


def type_list(m: int, n: int, cap: int | None = None) -> tuple[TypeVector, ...]:
    """Cached tuple of all n-types over m symbols, in enumeration order.

    The cap is checked on every call, cached or not.
    """
    _check_cap(m, n, cap)
    return _type_tuple(m, n)


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def type_index_map(m: int, n: int) -> dict[tuple[int, ...], int]:
    return {t.counts: i for i, t in enumerate(type_list(m, n))}


# ---------------------------------------------------------------------------
# class sizes and probabilities
# ---------------------------------------------------------------------------


def type_class_size(t: TypeVector) -> int:
    """Number of strings with histogram t: the multinomial coefficient."""
    size = 1
    remaining = t.n
    for c in t.counts:
        size *= math.comb(remaining, c)
        remaining -= c
    return size


def type_class_probability(t: TypeVector, q: Pmf) -> Fraction:
    """Probability that n i.i.d. draws from q land in the class of t, exactly."""
    if len(q) != t.m:
        raise ValueError(f"pmf has {len(q)} entries, type has {t.m} cells")
    prob = Fraction(type_class_size(t))
    for c, p in zip(t.counts, q):
        if c:
            prob *= p**c
    return prob


def integer_numerators(probs: Sequence[Rational]) -> tuple[tuple[int, ...], int]:
    """(a, D) with probs = a / D, over the least common denominator D."""
    den = math.lcm(*(p.denominator for p in probs))
    return tuple(p.numerator * (den // p.denominator) for p in probs), den


def empirical_type(x: Sequence[int], alphabet: int) -> TypeVector:
    """Histogram of the string x; symbols must lie in 0..m-1."""
    m = _alphabet_size(alphabet)
    if len(x) < 1:
        raise ValueError("empty string has no histogram")
    counts = [0] * m
    for a in x:
        if not 0 <= a < m:
            raise ValueError(f"symbol {a!r} outside alphabet of size {m}")
        counts[a] += 1
    return TypeVector(tuple(counts))


def type_to_pmf(t: TypeVector) -> Pmf:
    return Pmf.from_numerators(t.counts, t.n)


# ---------------------------------------------------------------------------
# exact exponential-scale helpers
# ---------------------------------------------------------------------------


def exp_n_entropy(t: TypeVector) -> Fraction:
    """e^(n*H(t/n)) as an exact rational: n^n / prod_a counts[a]^counts[a]."""
    n = t.n
    denom = 1
    for c in t.counts:
        if c:
            denom *= c**c
    return Fraction(n**n, denom)


def exp_neg_n_divergence(t: TypeVector, q: Pmf) -> Fraction:
    """e^(-n*D(t/n || q)) as an exact rational; 0 when q misses support of t."""
    if len(q) != t.m:
        raise ValueError(f"pmf has {len(q)} entries, type has {t.m} cells")
    n = t.n
    out = Fraction(1)
    for c, p in zip(t.counts, q):
        if not c:
            continue
        if p == 0:
            return Fraction(0)
        out *= (Fraction(n) * p / c) ** c
    return out


def sequence_probability_identity(x: Sequence[int], q) -> tuple:
    """Both sides of the product-form identity for i.i.d. string probabilities.

    Returns (lhs, rhs) where lhs is the direct per-symbol product q(x_1)...q(x_n)
    and rhs re-expresses it through the histogram of x.  For a `Pmf` q, rhs is
    the log-free rearrangement prod_a q(a)^counts[a] and the two agree as exact
    rationals.  For any other sequence of probabilities, such as
    `Pmf.to_float()`, rhs is exp(-n*(H + D)) evaluated through logarithms; a
    zero q(a) hit by x raises ValueError there.
    """
    t = empirical_type(x, len(q))
    lhs = math.prod(q[a] for a in x)
    if isinstance(q, Pmf):
        return lhs, math.prod(p**c for c, p in zip(t.counts, q) if c)
    n = t.n
    ent = 0.0
    div = 0.0
    for c, p in zip(t.counts, q):
        if not c:
            continue
        if p <= 0.0:
            raise ValueError("zero probability symbol occurs in x; log form undefined")
        frac = c / n
        ent -= frac * math.log(frac)
        div += frac * math.log(frac / p)
    return lhs, math.exp(-n * (ent + div))
