"""Exact combinatorics of symbol histograms over finite alphabets.

Everything in this module is computed with unbounded integers, so counting
identities can be asserted with equality instead of tolerances.  The urn
kernel (`urn_numerators`) gives the law of the first k draws from a weighted
mixture of urns once per block histogram, as integer numerators over one
denominator; every k-block law in the package comes from it.  The cap,
`TypeVector`, the pmf reader and the cells of A^k live in `finetti.counts`.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import accumulate, combinations
from operator import getitem, mul

from .counts import TYPE_CACHE_SIZE, TypeVector, check_cap, check_cells, occurrence_matrix

__all__ = [
    "cell_index",
    "compositions",
    "type_class_size",
    "type_list",
    "type_index_map",
    "urn_numerators",
]


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def compositions(n: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every histogram of n over `parts` symbols as a count tuple, in lexicographic order.

    Stars and bars: the counts between consecutive bars of parts - 1 bars in n + parts - 1 slots.
    """
    if parts == 1:  # one histogram; combinations would copy all n slots to choose none
        yield (n,)
        return
    end = n + parts - 1
    for bars in combinations(range(end), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def _type_tuple(m: int, n: int) -> tuple[TypeVector, ...]:
    return tuple(map(TypeVector, compositions(n, m)))


def type_list(m: int, n: int) -> tuple[TypeVector, ...]:
    """Cached tuple of all n-types over m symbols, in enumeration order.

    The cap is checked on every call, cached or not.
    """
    check_cap(m, n)
    return _type_tuple(m, n)


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def type_index_map(m: int, n: int) -> dict[tuple[int, ...], int]:
    return {t.counts: i for i, t in enumerate(type_list(m, n))}


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def _cell_index(m: int, k: int) -> tuple[int, ...]:
    return tuple(map(type_index_map(m, k).__getitem__, occurrence_matrix(m, k)))


def cell_index(m: int, k: int) -> tuple[int, ...]:
    """Per cell of A^k, its k-histogram's position in type_list(m, k).

    The m^k cells count against the cap on every call, cached or not.
    """
    check_cells(m, k)
    return _cell_index(m, k)


# ---------------------------------------------------------------------------
# class sizes
# ---------------------------------------------------------------------------


def type_class_size(t: TypeVector) -> int:
    """Number of strings with histogram t: the multinomial coefficient, a product of binomials."""
    return math.prod(map(math.comb, accumulate(t.counts), t.counts))


# ---------------------------------------------------------------------------
# the urn kernel: k-block laws once per block histogram
# ---------------------------------------------------------------------------


def urn_numerators(urns, k: int, step: int) -> tuple[list[int], int]:
    """First k draws from a mixture of urns: (numerator per histogram, denominator).

    Each (counts, w) in `urns` holds counts[a] balls of symbol a and has
    integer weight w; all urns hold n balls, and a drawn ball goes back with
    `step` more of its symbol.  A draw sequence with histogram u, the i-th of
    type_list(m, k), has probability numerators[i] / denominator, with
    numerators[i] = sum_w w * prod_a row(counts[a], u[a]) and denominator =
    sum_w w * prod_{j<k} (n + j*step); row(c, j) = c*(c+step)*...*(c+(j-1)*step).
    """
    urns = [(counts, w) for counts, w in urns if w]
    m, n = len(urns[0][0]), sum(urns[0][0])
    blocks = type_list(m, k)
    held = {c for counts, _ in urns for c in counts}
    rows = {c: list(accumulate((c + j * step for j in range(k)), mul, initial=1)) for c in held}
    numerators = [0] * len(blocks)
    for counts, w in urns:
        draws = [rows[c] for c in counts]
        for i, u in enumerate(blocks):
            numerators[i] += w * math.prod(map(getitem, draws, u.counts))
    return numerators, sum(w for _, w in urns) * math.prod(n + j * step for j in range(k))
