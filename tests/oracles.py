"""Per-string reference functions that the kernels are checked against.

The package evaluates k-block laws once per block histogram; these work one
string at a time, straight from the definitions.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from finetti.types_core import TypeVector


def string_index(s: Sequence[int], m: int) -> int:
    """Position of the string s in index order: base m, most significant first."""
    idx = 0
    for a in s:
        if not 0 <= a < m:
            raise ValueError(f"symbol {a!r} outside alphabet of size {m}")
        idx = idx * m + a
    return idx


def conditional_given_type(t: TypeVector, prefix: Sequence[int]) -> Fraction:
    """P(first len(prefix) draws equal prefix | histogram of all n draws is t).

    Sampling without replacement from the multiset t: a falling-factorial
    product, exactly rational, zero when the prefix needs more of a symbol
    than t holds.  This is `urn_draw_probability(((t.counts, 1),), prefix, -1)`.
    """
    n = t.n
    if len(prefix) > n:
        raise ValueError(f"prefix of length {len(prefix)} exceeds n={n}")
    used = [0] * t.m
    prob = Fraction(1)
    for i, a in enumerate(prefix):
        if not 0 <= a < t.m:
            raise ValueError(f"symbol {a!r} outside alphabet of size {t.m}")
        avail = t.counts[a] - used[a]
        if avail <= 0:
            return Fraction(0)
        prob *= Fraction(avail, n - i)
        used[a] += 1
    return prob


def urn_draw_probability(urns, prefix: Sequence[int], step: int) -> Fraction:
    """P(first draws equal prefix) from a weighted mixture of urns, one draw at a time.

    `urns` holds (counts, weight) pairs with integer weights; an urn is chosen
    with probability weight / total weight, and each drawn ball goes back with
    `step` more of its symbol (-1: without replacement, 0: with replacement,
    +1: Polya).  Every draw multiplies a `Fraction` by held / size.
    """
    total = sum(w for _, w in urns)
    prob = Fraction(0)
    for counts, w in urns:
        held = list(counts)
        path = Fraction(w, total)
        for a in prefix:
            if held[a] <= 0:
                path = Fraction(0)
                break
            path *= Fraction(held[a], sum(held))
            held[a] += step
        prob += path
    return prob
