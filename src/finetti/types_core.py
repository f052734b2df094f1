"""Exact combinatorics of symbol histograms over finite alphabets.

Everything in this module is computed with unbounded integers and
`fractions.Fraction`, so counting identities can be asserted with equality
instead of tolerances.  The urn kernel (`urn_numerators`) gives the
law of the first k draws from a weighted mixture of urns once per block
histogram; every k-block law in the package comes from it.  The cap,
`TypeVector` and the cells of A^k live in `finetti.counts`, which imports no
`fractions`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
from operator import getitem, mul

from .counts import (
    TYPE_CACHE_SIZE,
    TypeVector,
    _alphabet_size,
    check_cap,
    check_cells,
    occurrence_matrix,
)

__all__ = [
    "Pmf",
    "cell_index",
    "empirical_type",
    "integer_numerators",
    "sequence_probability_identity",
    "type_class_size",
    "type_list",
    "type_index_map",
    "type_to_pmf",
    "urn_numerators",
]


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

    def __new__(cls, probs: Sequence[int | Fraction]) -> "Pmf":
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


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in _compositions(n - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def _type_tuple(m: int, n: int) -> tuple[TypeVector, ...]:
    return tuple(map(TypeVector, _compositions(n, m)))


def type_list(m: int, n: int, cap: int | None = None) -> tuple[TypeVector, ...]:
    """Cached tuple of all n-types over m symbols, in enumeration order.

    The cap is checked on every call, cached or not.
    """
    check_cap(m, n, cap)
    return _type_tuple(m, n)


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def type_index_map(m: int, n: int) -> dict[tuple[int, ...], int]:
    return {t.counts: i for i, t in enumerate(type_list(m, n))}


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def _cell_index(m: int, k: int) -> tuple[int, ...]:
    return tuple(map(type_index_map(m, k).__getitem__, occurrence_matrix(m, k)))


def cell_index(m: int, k: int) -> tuple[int, ...]:
    """Per cell of A^k, its k-histogram's position in type_list(m, k).

    The m^k cells count against the env or default cap on every call, cached or not.
    """
    check_cells(m, k, None)
    return _cell_index(m, k)


# ---------------------------------------------------------------------------
# class sizes and histograms
# ---------------------------------------------------------------------------


def type_class_size(t: TypeVector) -> int:
    """Number of strings with histogram t: the multinomial coefficient."""
    size = 1
    remaining = t.n
    for c in t.counts:
        size *= math.comb(remaining, c)
        remaining -= c
    return size


def integer_numerators(probs: Sequence[int | Fraction]) -> tuple[tuple[int, ...], int]:
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


def sequence_probability_identity(x: Sequence[int], q) -> tuple:
    """Both sides of the product-form identity for i.i.d. string probabilities.

    Returns (lhs, rhs) where lhs is the direct per-symbol product q(x_1)...q(x_n)
    and rhs re-expresses it through the histogram of x.  For a `Pmf` q, rhs is
    the log-free rearrangement prod_a q(a)^counts[a] and the two agree as exact
    rationals.  For any other sequence of probabilities, such as a tuple of
    floats, rhs is exp(-n*(H + D)) evaluated through logarithms; a zero q(a)
    hit by x raises ValueError there.
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


def type_to_pmf(t: TypeVector) -> Pmf:
    return Pmf.from_numerators(t.counts, t.n)


# ---------------------------------------------------------------------------
# the urn kernel: k-block laws once per block histogram
# ---------------------------------------------------------------------------


def urn_numerators(urns, k: int, step: int, cap: int | None = None) -> tuple[list[int], int]:
    """First k draws from a mixture of urns: (numerator per histogram, denominator).

    Each (counts, w) in `urns` holds counts[a] balls of symbol a and has
    integer weight w; all urns hold n balls, and a drawn ball goes back with
    `step` more of its symbol.  A draw sequence with histogram u, the i-th of
    type_list(m, k, cap), has probability numerators[i] / denominator, with
    numerators[i] = sum_w w * prod_a row(counts[a], u[a]) and denominator =
    sum_w w * prod_{j<k} (n + j*step); row(c, j) = c*(c+step)*...*(c+(j-1)*step).
    """
    urns = [(counts, w) for counts, w in urns if w]
    m, n = len(urns[0][0]), sum(urns[0][0])
    blocks = type_list(m, k, cap)
    held = {c for counts, _ in urns for c in counts}
    rows = {c: list(accumulate((c + j * step for j in range(k)), mul, initial=1)) for c in held}
    numerators = [0] * len(blocks)
    for counts, w in urns:
        draws = [rows[c] for c in counts]
        for i, u in enumerate(blocks):
            numerators[i] += w * math.prod(map(getitem, draws, u.counts))
    return numerators, sum(w for _, w in urns) * math.prod(n + j * step for j in range(k))
