"""Exact combinatorics of symbol histograms over finite alphabets.

Everything in this module is computed with unbounded integers and
`fractions.Fraction`, so counting identities and the classical histogram
bounds can be asserted with equality instead of tolerances.  The quantities
``e^(n*H(P))`` and ``e^(-n*D(P||Q))`` are rational for a histogram P of
denominator n and rational Q, which is what makes the exact checks possible;
helpers for both are provided.  A float backend is available on `Pmf` for
callers that prefer speed over exactness.
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
    "class_numerators",
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

# Tolerance used when validating float-backend probability vectors.
FLOAT_SUM_TOL = 1e-12


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


class Pmf:
    """Probability vector over an indexed finite outcome space.

    The exact backend stores `Fraction` entries summing to exactly 1.  The
    float backend tolerates |sum - 1| <= 1e-12.  Instances are immutable.
    """

    __slots__ = ("probs", "exact")

    def __init__(self, probs: Sequence, exact: bool | None = None):
        entries = tuple(probs)
        if not entries:
            raise ValueError("empty probability vector")
        if exact is None:
            exact = not any(isinstance(p, float) for p in entries)
        if exact:
            entries = tuple(Fraction(p) for p in entries)
            if any(p < 0 for p in entries):
                raise ValueError("negative probability")
            if sum(entries) != 1:
                raise ValueError(f"exact pmf sums to {sum(entries)}, not 1")
        else:
            entries = tuple(float(p) for p in entries)
            if any(p < 0.0 for p in entries):
                raise ValueError("negative probability")
            if abs(math.fsum(entries) - 1.0) > FLOAT_SUM_TOL:
                raise ValueError(f"float pmf sums to {math.fsum(entries)!r}")
        object.__setattr__(self, "probs", entries)
        object.__setattr__(self, "exact", bool(exact))

    def __setattr__(self, name, value):
        raise AttributeError("Pmf is immutable")

    def __getstate__(self):
        return (self.probs, self.exact)

    def __setstate__(self, state):
        object.__setattr__(self, "probs", state[0])
        object.__setattr__(self, "exact", state[1])

    def __len__(self) -> int:
        return len(self.probs)

    def __getitem__(self, i: int):
        return self.probs[i]

    def __iter__(self):
        return iter(self.probs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Pmf):
            return NotImplemented
        return self.exact == other.exact and self.probs == other.probs

    def __hash__(self) -> int:
        return hash((self.exact, self.probs))

    def __repr__(self) -> str:
        kind = "exact" if self.exact else "float"
        return f"Pmf({list(self.probs)!r}, {kind})"

    def support(self) -> tuple[int, ...]:
        return tuple(i for i, p in enumerate(self.probs) if p > 0)

    def to_float(self) -> "Pmf":
        if not self.exact:
            return self
        return Pmf(tuple(float(p) for p in self.probs), exact=False)

    @classmethod
    def uniform(cls, size: int, exact: bool = True) -> "Pmf":
        if size < 1:
            raise ValueError("size must be >= 1")
        if exact:
            return cls(tuple(Fraction(1, size) for _ in range(size)))
        return cls(tuple(1.0 / size for _ in range(size)), exact=False)

    @classmethod
    def point_mass(cls, size: int, index: int) -> "Pmf":
        if not 0 <= index < size:
            raise ValueError(f"index {index} outside 0..{size - 1}")
        return cls(tuple(Fraction(1) if i == index else Fraction(0) for i in range(size)))

    @classmethod
    def from_weights(cls, weights: Sequence[Rational]) -> "Pmf":
        ws = [Fraction(w) for w in weights]
        if any(w < 0 for w in ws):
            raise ValueError("negative weight")
        total = sum(ws)
        if total <= 0:
            raise ValueError("weights sum to zero")
        return cls(tuple(w / total for w in ws))


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


def type_class_probability(t: TypeVector, q: Pmf):
    """Probability that n i.i.d. draws from q land in the class of t.

    Exact `Fraction` when q is exact, float otherwise.
    """
    if len(q) != t.m:
        raise ValueError(f"pmf has {len(q)} entries, type has {t.m} cells")
    prob = Fraction(type_class_size(t)) if q.exact else float(type_class_size(t))
    for c, p in zip(t.counts, q.probs):
        if c:
            prob *= p**c
    return prob


def integer_numerators(probs: Sequence[Rational]) -> tuple[tuple[int, ...], int]:
    """(a, D) with probs = a / D, over the least common denominator D."""
    den = math.lcm(*(Fraction(p).denominator for p in probs))
    return tuple(int(p * den) for p in probs), den


def class_numerators(
    atoms: Sequence[tuple[int, Sequence[int]]], n: int, cap: int | None = None
) -> Iterator[tuple[TypeVector, int, int]]:
    """(t, |T_t|, sum_j w_j * prod_i a_j[i]^t[i]) for every n-type t, in order.

    For integer atoms (w_j, a_j), each a_j summing to D, the class of t has
    probability |T_t| * sum / (W * D^n) under the mixture of i.i.d. laws
    sum_j (w_j / W) * (a_j / D)^n, W = sum_j w_j: one integer numerator over
    one denominator for every class.  A single atom (1, a) gives q = a / D.
    Powers are cached as they are first needed, after the cap is checked.
    """
    power = lru_cache(maxsize=None)(pow)
    for t in type_list(len(atoms[0][1]), n, cap=cap):
        yield t, type_class_size(t), sum(w * math.prod(map(power, a, t.counts)) for w, a in atoms)


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
    n = t.n
    return Pmf(tuple(Fraction(c, n) for c in t.counts))


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
    if not q.exact:
        raise ValueError("exact helper needs an exact pmf")
    if len(q) != t.m:
        raise ValueError(f"pmf has {len(q)} entries, type has {t.m} cells")
    n = t.n
    out = Fraction(1)
    for c, p in zip(t.counts, q.probs):
        if not c:
            continue
        if p == 0:
            return Fraction(0)
        out *= (Fraction(n) * p / c) ** c
    return out


def sequence_probability_identity(x: Sequence[int], q: Pmf) -> tuple:
    """Both sides of the product-form identity for i.i.d. string probabilities.

    Returns (lhs, rhs) where lhs is the direct per-symbol product q(x_1)...q(x_n)
    and rhs re-expresses it through the histogram of x.  In the exact backend
    rhs is the log-free rearrangement prod_a q(a)^counts[a] and the two agree
    as exact rationals.  In the float backend rhs is exp(-n*(H + D)) evaluated
    through logarithms; a zero q(a) hit by x raises ValueError there.
    """
    t = empirical_type(x, len(q))
    if q.exact:
        lhs = Fraction(1)
        for a in x:
            lhs *= q[a]
        rhs = Fraction(1)
        for c, p in zip(t.counts, q.probs):
            if c:
                rhs *= p**c
        return lhs, rhs
    lhs = 1.0
    for a in x:
        lhs *= q[a]
    n = t.n
    ent = 0.0
    div = 0.0
    for c, p in zip(t.counts, q.probs):
        if not c:
            continue
        if p <= 0.0:
            raise ValueError("zero probability symbol occurs in x; log form undefined")
        frac = c / n
        ent -= frac * math.log(frac)
        div += frac * math.log(frac / p)
    return lhs, math.exp(-n * (ent + div))
