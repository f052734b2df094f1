"""Block laws whose averaged coordinate marginals are pinned to a target pmf.

For a pmf Q on A and block length k, the constraint set holds every
distribution W on A^k whose k coordinate marginals average to Q.  Membership
is a system of exact linear equations: writing occ[b][a] for the number of
times symbol a occurs in block b,

    sum_b W(b) * occ[b][a] = k * Q(a)   for every a.

The module walks the lattice points of this polytope among l-block
histograms, one row per orbit of counts permuted within a k-histogram class,
and scans it for the argmin of D(. || U).  It reads q once as integer
numerators a over their least common denominator D (`counts.pmf_numerators`).
Lemma 1 (`finetti.lemma1`),
lemma 3 (`finetti.lemma3`) and the conditional mean divergence and tail
bound of lemma dbound (`finetti.dbound`) read the walk from here.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Sequence
from functools import lru_cache
from itertools import chain, product, repeat
from operator import mul

from .counts import (
    TYPE_CACHE_SIZE,
    TypeVector,
    check_count,
    check_power,
    count_types,
    occurrence_matrix,
    pmf_numerators,
)

__all__ = ["pythagorean_scan"]


@lru_cache(maxsize=TYPE_CACHE_SIZE)
def _block_classes(m: int, k: int) -> tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]:
    """(k-histogram u, its cells in order) per class of cells, ordered by last cell.

    The string (m-1, ..., m-1, a) is the last cell of its class, so the last
    m classes are (k-1)*e_{m-1} + e_a for a = 0..m-1, as on the cells.
    """
    classes: dict[tuple[int, ...], list[int]] = {}
    for b, u in enumerate(occurrence_matrix(m, k)):
        classes.setdefault(u, []).append(b)
    return tuple(sorted(((u, tuple(b)) for u, b in classes.items()), key=lambda c: c[1][-1]))


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------


def _lattice_targets(a: Sequence[int], den: int, k: int, ell: int) -> list[int] | None:
    """k*l*a/D for every symbol, or None if D does not divide one of them."""
    scaled = [k * ell * x for x in a]
    if any(t % den for t in scaled):
        return None
    return [t // den for t in scaled]


def _progression(start: int, step: int, length: int) -> Iterable[int]:
    """start, start + step, ... for `length` terms."""
    return range(start, start + step * length, step) if step else repeat(start, length)


def _check_lattice(m: int, k: int, ell: int) -> None:
    """Check k, l and the cap on the l-block histograms over m^k cells, count_types(m^k, l)."""
    if k < 1 or ell < 1:
        raise ValueError(f"need k >= 1 and l >= 1, got k={k}, l={ell}")
    cells = check_power(m, k)  # C(m^k + l - 1, l) >= m^k, so a refused m^k is never built
    check_count(count_types(cells, ell), f"block histograms at (cells={cells}, l={ell})")


def _lattice_walk(a: Sequence[int], den: int, k: int, ell: int) -> Iterator[tuple[int, ...]]:
    """The class totals d_u of every member, one per k-histogram class u.

    Checks k, l and the cap (`_check_lattice`) when called, before any walk
    starts.  A row is one k-histogram u, standing for its C(k;u) cells,
    and the rows are ordered by each class's last cell (`_block_classes`).
    A member's class total d_u is the sum of its counts over the cells of u;
    the constraint sum_u d_u * u = k*l*a/D sees a member only through them.
    """
    _check_lattice(len(a), k, ell)
    targets = _lattice_targets(a, den, k, ell)
    if targets is None:
        return iter(())
    return _row_walk([u for u, _ in _block_classes(len(a), k)], targets, ell)


def _row_walk(
    rows: Sequence[tuple[int, ...]], targets: Sequence[int], ell: int
) -> Iterator[tuple[int, ...]]:
    """Nonnegative counts c, one per row, with sum c = l and sum_r c_r * rows[r] = targets.

    The rows are k-histograms, and the last m must be (k-1)*e_{m-1} + e_a
    for a = 0..m-1.  The counts come out in ascending lexicographic order.

    The walk fixes the counts in row order.  At row r, with R blocks left
    and residual R(a) occurrences of each symbol a still to place, a count c
    leaves R(a) - c*rows[r][a] for the R - c blocks after r, which is
    reachable only between (R - c) times the smallest and (R - c) times the
    largest occurrence of a in those rows.  Both conditions are linear in c,
    so c runs over a closed-form interval [lo, hi] in ascending order, and a
    count outside it, which can hold no member, is never visited.

    The walk branches only on the rows before the last m, which it solves.
    For a < m-1 the row (k-1)*e_{m-1} + e_a is the only one left that holds
    a, once, so its count is R(a), and the last row, k*e_{m-1}, takes the
    blocks left, R - sum_{a<m-1} R(a).  The interval at the last branched row
    already puts every solved count in [0, R]: there the bounds read
    0 <= R(a) <= R for a < m-1 and (k-1)*R <= R(m-1), and sum_a R(a) = k*R.
    So each count of that row pins one member, and no solved count needs a
    check.  k = 1 (one row per symbol, one member, l*q) and m = 1 (one row)
    have no row to branch on.
    """
    m = len(targets)
    split = len(rows) - m  # the walk branches on the rows before, and solves the last m
    if not split:
        return iter((tuple(targets[:-1]) + (ell - sum(targets[:-1]),),))
    # rules[b]: the interval conditions at row b, each c * slope <= offset
    # with offset = remaining * scale + sign * residual[a].  For symbol a,
    # with rows[b][a] = here and occurrences between bottom and top after b:
    #   residual - c * here <= (remaining - c) * top      (first rule)
    #   residual - c * here >= (remaining - c) * bottom   (second rule)
    rules = []
    for b in range(split):
        rule = []
        for a in range(m):
            top = max(row[a] for row in rows[b + 1 :])
            bottom = min(row[a] for row in rows[b + 1 :])
            rule.append((a, top - rows[b][a], top, -1))
            rule.append((a, rows[b][a] - bottom, -bottom, 1))
        rules.append(rule)

    def batches(b: int, head: tuple[int, ...], remaining: int, residual: list[int]):
        lo, hi = 0, remaining
        for a, slope, scale, sign in rules[b]:
            offset = remaining * scale + sign * residual[a]
            if slope > 0:
                hi = min(hi, offset // slope)
            elif slope < 0:
                lo = max(lo, -(offset // -slope))
            elif offset < 0:
                return
        row = rows[b]
        if b + 1 < split:
            for c in range(lo, hi + 1):
                yield from batches(
                    b + 1, head + (c,), remaining - c, [residual[a] - c * row[a] for a in range(m)]
                )
            return
        # The solved rows: at count c here, row split + a (a < m-1) takes the
        # residual of a, and the last row the blocks left; each is linear in c.
        size = hi - lo + 1
        solved = [residual[a] - lo * row[a] for a in range(m - 1)]
        columns = [_progression(s, -row[a], size) for a, s in enumerate(solved)]
        left = remaining - lo - sum(solved)
        yield map(
            head.__add__,
            zip(range(lo, hi + 1), *columns, _progression(left, sum(row[:-1]) - 1, size)),
        )

    return chain.from_iterable(batches(0, (), ell, targets))


@lru_cache(maxsize=None)
def _fillings(d: int, cells: int) -> tuple[tuple[int, int, tuple[int, ...]], ...]:
    """(orbit, inner, parts) per way to fill `cells` cells with total d, up to order.

    The parts are non-increasing, zeros included.  The orbit
    cells!/prod_v r_v!, with r_v parts equal to v, counts the cell fillings
    that permute them, and inner = d!/prod(parts!) is the factor each adds
    to a class size.  A first part p before the rest of the parts
    multiplies the rest's inner by C(d, p) and its orbit by cells/r_p; the
    recursion is at most d + 1 deep.
    """
    if cells == 1 or d == 0:
        return ((1, 1, (d,) * cells),)
    return tuple(
        (orbit * cells // (1 + rest.count(p)), math.comb(d, p) * inner, (p,) + rest)
        for p in range(d, -(-d // cells) - 1, -1)  # the first part is at least the mean
        for orbit, inner, rest in _fillings(d - p, cells - 1)
        if rest[0] <= p
    )


def _orbit_walk(a: Sequence[int], den: int, k: int, ell: int):
    """(class totals, orbit rows) per class total vector of the constraint set.

    Each orbit row holds one `_fillings` entry per class, and stands for the
    product of their orbits, members whose counts permute among the cells
    of each class.  Checks the cap before anything is built.
    """
    walk = _lattice_walk(a, den, k, ell)
    sizes = [len(cells) for _, cells in _block_classes(len(a), k)]
    return ((totals, product(*map(_fillings, totals, sizes))) for totals in walk)


# ---------------------------------------------------------------------------
# extreme members
# ---------------------------------------------------------------------------


def _entropy_key() -> Callable[[tuple], int]:
    """prod c^c over the parts: larger exactly when the l-block histogram's entropy is smaller.

    Each class's factor is cached for the one walk that uses the key.
    """
    factor = lru_cache(maxsize=None)(lambda parts: math.prod(c**c for c in parts))
    return lambda parts: math.prod(map(factor, parts))


def _extreme_member(a: Sequence[int], den: int, k: int, ell: int, key: Callable[[tuple], int]):
    """(members, first member of least key, members at that key).

    `key` maps an orbit row's parts, one non-increasing tuple per class, to
    an integer that must be the same on every member of the orbit.  Each
    class total vector's integer residuals sum_u d_u * u(a) - k*l*a/D
    must be zero, which certifies every member of its orbits.  Members are
    ordered by their cell counts, ascending, so the first member of an orbit
    places each class's parts ascending along its cells, and the first at
    the least key is the smallest of those over the tied orbits.  Raises
    ValueError when the set is empty.
    """
    walk = _orbit_walk(a, den, k, ell)
    classes = _block_classes(len(a), k)
    cols = list(zip(*(u for u, _ in classes)))
    targets = _lattice_targets(a, den, k, ell)
    members, best, tied, at_best = 0, None, [], 0
    for totals, rows in walk:
        if any(sum(map(mul, totals, col)) != t for col, t in zip(cols, targets)):
            raise AssertionError(f"walk yielded {totals}, off the constraint set; unreachable")
        for fills in rows:
            orbits, _, parts = zip(*fills)
            orbit = math.prod(orbits)
            members += orbit
            value = key(parts)
            if best is None or value < best:
                best, tied, at_best = value, [parts], orbit
            elif value == best:
                tied.append(parts)
                at_best += orbit
    if best is None:
        raise ValueError("constraint set has no lattice members at this l")

    def first_counts(parts) -> tuple[int, ...]:
        counts = [0] * len(a) ** k
        for (_, cells), class_parts in zip(classes, parts):
            for b, c in zip(cells, reversed(class_parts)):
                counts[b] = c
        return tuple(counts)

    return members, min(map(first_counts, tied)), at_best


def pythagorean_scan(q, k: int, ell: int) -> tuple[int, TypeVector, bool]:
    """Walk the constraint set once: (members, argmin of D(. || U), unique).

    For any W on A^k with averaged coordinate marginal Wbar, and any q,

        D(W||U) - D(W||Q^k) - D(Q^k||U) = k * sum_a (Wbar(a) - q(a)) * log q(a),

    and D(W||Q^k) - (k*H(Q) - H(W)) is minus that sum, since log Q^k(b) =
    sum_a occ[b][a] * log q(a).  So both identities hold exactly where
    Wbar = q (the Pythagorean equality for linear families, Csiszar 1975),
    which is decided in integers: a member's residuals
    sum_b c_b * occ[b][a] - k*l*q(a) are zero.  The walk checks them once
    per class total vector, one orbit product at a time (`_extreme_member`).
    On the set D(W || U) = k*log(m) - H(W), and entropies of l-block
    histograms compare exactly through the integer keys prod_b c_b^c_b, so
    the argmin is the first member of least key, unique when one orbit of
    one member reaches it; when Q^k is a lattice point it is the unique one.
    Raises ValueError when the set is empty.
    """
    members, first, at_best = _extreme_member(*pmf_numerators(q), k, ell, _entropy_key())
    return members, TypeVector(first), at_best == 1
