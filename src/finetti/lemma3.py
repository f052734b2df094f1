"""Lemma 3: the largest relative entropy D(W || Q^k) over the constraint set of q.

The exact mode searches the vertices of the polytope by fraction-free
elimination, each vertex integer numerators over one denominator; the grid
mode scans the l-block lattice members of `finetti.marginal_sets`, which it
imports only when it runs.  Both read their entropies and divergences from
integer numerators (`finetti.counts`), and the witness is one such pair.
"""

from __future__ import annotations

import math
from collections import namedtuple
from itertools import combinations

from .counts import (
    CapacityError,
    check_cells,
    count_types,
    divergence_of_numerators,
    entropy_of_numerators,
    occurrence_matrix,
    pmf_numerators,
    power_numerators,
)

__all__ = ["MaxDivergenceResult", "max_divergence_over_E_k"]

# Most column subsets the exact vertex search solves: beyond, not desk scale.
MAX_VERTEX_SUBSETS = 100_000

_SLACK = 1e-12


class MaxDivergenceResult(namedtuple("MaxDivergenceResult", "value witness candidates mode")):
    """The largest divergence, its witness on A^k, the vertices or members searched.

    The witness is integer numerators over one denominator, one per cell of A^k.
    """

    __slots__ = ()


def _solve_columns(
    cols: Sequence[tuple[int, ...]], target: Sequence[int], scale: int
) -> tuple[tuple[int, ...], int] | None:
    """Unique exact solution x of cols * x = target / scale as (numerators, denominator), or None.

    The columns and the target are integers, and the elimination stays in
    integers: a row is cleared by cross-multiplying with the pivot row, so
    each pivot row ends as pivot * x_i = rhs_i / scale.  Each x_i is reduced
    by its gcd, and x comes out over the least common denominator.  None
    when the columns are dependent or the system is inconsistent.
    """
    rows = len(target)
    s = len(cols)
    aug = [[col[i] for col in cols] + [target[i]] for i in range(rows)]
    for row in range(s):
        pivot = next((r for r in range(row, rows) if aug[r][row] != 0), None)
        if pivot is None:
            return None  # dependent columns
        aug[row], aug[pivot] = aug[pivot], aug[row]
        top = aug[row]
        p = top[row]
        for r in range(rows):
            factor = aug[r][row]
            if r != row and factor != 0:
                aug[r] = [p * a - factor * b for a, b in zip(aug[r], top)]
    for r in range(s, rows):
        if aug[r][s] != 0:
            return None  # inconsistent
    reduced = []
    for i in range(s):
        num, den = aug[i][s], aug[i][i] * scale
        g = math.gcd(num, den) if den > 0 else -math.gcd(num, den)
        reduced.append((num // g, den // g))
    den = math.lcm(*(d for _, d in reduced))
    return tuple(num * (den // d) for num, d in reduced), den


def max_divergence_over_E_k(
    q, k: int, mode: str = "exact", ell: int | None = None
) -> MaxDivergenceResult:
    """Maximum of D(W || Q^k) over the constraint set of q.

    Exact mode maximises over the polytope itself: on the set the divergence
    is k*H(Q) - H(W), entropy is concave, so the maximum sits at a vertex, and
    vertices are basic solutions of the occurrence system.  Cells with the
    same block histogram have the same column, so a basic solution uses at
    most one of them, and its entropy does not depend on which: the search
    solves over one column per histogram, C(k+m-1, m-1) of them, each
    standing for its first cell.  That cell choice is the first instance of
    each vertex in cell order, so the witness is the one a search over all
    cells would find, and `candidates` still counts cell-level vertices:
    each vertex stands for the product, over its support, of the number of
    cells sharing each column.  Before the first solve, exact mode raises
    CapacityError when the column subsets it would solve exceed
    MAX_VERTEX_SUBSETS or the m^k cells of the witness exceed the cap.  Grid
    mode takes the maximum over the l-block lattice members instead, ordered
    exactly by the entropy key prod c^c (the first of tied members wins).
    Every member is supported inside supp(Q^k), which keeps the value finite
    and at most k * log(n) for an n-type q.
    """
    a, den = pmf_numerators(q)
    m = len(a)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode == "grid":
        if ell is None:
            raise ValueError("grid mode needs l")
        from .marginal_sets import _entropy_key, _extreme_member

        entropy_key = _entropy_key()
        # the walk's cap check on C(m^k + l - 1, l) >= m^k bounds the cells of Q^k too
        candidates, best_counts, _ = _extreme_member(
            a, den, k, ell, lambda parts: -entropy_key(parts)
        )
        # the member's counts over l against Q^k = T / D^k, cell by cell
        cells = range(len(best_counts))
        value = divergence_of_numerators(best_counts, ell, power_numerators(a, k), den**k, cells)
        return MaxDivergenceResult(value, (best_counts, ell), candidates, "grid")
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'grid', got {mode!r}")
    check_cells(m, k)  # the witness has one entry per cell
    cells = m**k
    active_rows = [s for s in range(m) if a[s] > 0]
    # one column per k-histogram over the active symbols, subsets up to the rows
    columns = count_types(len(active_rows), k)
    subsets = sum(math.comb(columns, s) for s in range(1, len(active_rows) + 1))
    if subsets > MAX_VERTEX_SUBSETS:
        raise CapacityError(f"{subsets} column subsets exceed the vertex limit {MAX_VERTEX_SUBSETS}")
    occ = occurrence_matrix(m, k)
    # support argument: any member vanishes on blocks using a zero-mass symbol
    active_cols = [b for b in range(cells) if all(occ[b][s] == 0 or a[s] > 0 for s in range(m))]
    # k*q(s) = target[s] / den with integer targets over q's denominator
    target = [k * a[s] for s in active_rows]
    # column -> [first cell, cells sharing it], in cell order
    classes: dict[tuple[int, ...], list[int]] = {}
    for b in active_cols:
        classes.setdefault(tuple(occ[b][s] for s in active_rows), [b, 0])[1] += 1
    # a vertex is keyed by its support, its numerators and their least common
    # denominator, so only new ones are expanded
    seen: set[tuple[int, tuple[tuple[int, int], ...]]] = set()
    best_key: tuple[int, tuple[tuple[int, int], ...]] | None = None
    best_h = math.inf
    candidates = 0
    for size in range(1, len(active_rows) + 1):
        for subset in combinations(classes.items(), size):
            x = _solve_columns([col for col, _ in subset], target, den)
            if x is None or min(x[0]) < 0:
                continue
            nums, x_den = x
            key = (x_den, tuple((first, v) for (_, (first, _)), v in zip(subset, nums) if v))
            if key in seen:
                continue
            seen.add(key)
            candidates += math.prod(shared for (_, (_, shared)), v in zip(subset, nums) if v)
            h = entropy_of_numerators([v for _, v in key[1]], x_den)
            if h < best_h - _SLACK or best_key is None:
                best_h = h
                best_key = key
    if best_key is None:
        raise ValueError("constraint polytope is empty; q must be a valid pmf")
    x_den, support = best_key
    full = [0] * cells
    for b, v in support:
        full[b] = v
    value = k * entropy_of_numerators(a, den) - best_h
    return MaxDivergenceResult(value, (tuple(full), x_den), candidates, "exact")
