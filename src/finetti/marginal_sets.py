"""Block laws whose averaged coordinate marginals are pinned to a target pmf.

For a pmf Q on A and block length k, the constraint set holds every
distribution W on A^k whose k coordinate marginals average to Q.  Membership
is a system of exact linear equations: writing occ[b][a] for the number of
times symbol a occurs in block b,

    sum_b W(b) * occ[b][a] = k * Q(a)   for every a.

The module walks the lattice points of this polytope among l-block
histograms, one row per orbit of counts permuted within a k-histogram class,
maximises relative entropy over it by exact vertex search, builds
low-deviation lattice members by seeded random permutation, and evaluates the
conditional mean divergence and tail bounds used by the finite mixture
approximation argument.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, product, repeat
from operator import mul
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .info_measures import entropy, l1_distance, relative_entropy
from .types_core import (
    TYPE_CACHE_SIZE,
    CapacityError,
    Pmf,
    TypeVector,
    count_types,
    occurrence_matrix,
    power_pmf,
    resolve_cap,
    type_to_pmf,
)

__all__ = [
    "ConditionalMeanResult",
    "ExhaustedTriesError",
    "MaxDivergenceResult",
    "PermutedBlockResult",
    "TailBoundResult",
    "conditional_mean_divergence",
    "lemma1_constant",
    "lemma1_construct",
    "max_divergence_over_E_k",
    "partition_tail_bound",
    "pythagorean_scan",
]

# Most column subsets the exact vertex search solves: beyond, not desk scale.
MAX_VERTEX_SUBSETS = 100_000

_SLACK = 1e-12


class ExhaustedTriesError(RuntimeError):
    """The randomized construction ran out of permutations and fallbacks."""


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


def _as_pmf(p) -> Pmf:
    if isinstance(p, Pmf):
        return p
    if isinstance(p, TypeVector):
        return type_to_pmf(p)
    return Pmf(tuple(p))


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------


def _lattice_targets(q: Pmf, k: int, ell: int) -> list[int] | None:
    """k*l*q(a) for every a, or None if one is not an integer."""
    targets = [p * k * ell for p in q]
    if any(t.denominator != 1 for t in targets):
        return None
    return [t.numerator for t in targets]


def _progression(start: int, step: int, length: int) -> Iterable[int]:
    """start, start + step, ... for `length` terms."""
    return range(start, start + step * length, step) if step else repeat(start, length)


def _lattice_walk(q: Pmf, k: int, ell: int, cap: int | None) -> Iterator[tuple[int, ...]]:
    """The class totals d_u of every member, one per k-histogram class u.

    Checks k, l and the cap, count_types(m^k, l), when called, before any
    walk starts.  A row is one k-histogram u, standing for its C(k;u) cells,
    and the rows are ordered by each class's last cell (`_block_classes`).
    A member's class total d_u is the sum of its counts over the cells of u;
    the constraint sum_u d_u * u = k*l*q sees a member only through them.
    """
    m = len(q)
    if k < 1 or ell < 1:
        raise ValueError(f"need k >= 1 and l >= 1, got k={k}, l={ell}")
    total = count_types(m**k, ell)
    limit = resolve_cap(cap)
    if total > limit:
        raise CapacityError(
            f"{total} block histograms at (cells={m ** k}, l={ell}) exceeds cap {limit}"
        )
    targets = _lattice_targets(q, k, ell)
    if targets is None:
        return iter(())
    return _row_walk([u for u, _ in _block_classes(m, k)], targets, ell)


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


def _orbit_walk(q: Pmf, k: int, ell: int, cap: int | None):
    """(class totals, orbit rows) per class total vector of the constraint set.

    Each orbit row holds one `_fillings` entry per class, and stands for the
    product of their orbits, members whose counts permute among the cells
    of each class.  Checks the cap before anything is built.
    """
    walk = _lattice_walk(q, k, ell, cap)
    sizes = [len(cells) for _, cells in _block_classes(len(q), k)]
    return ((totals, product(*map(_fillings, totals, sizes))) for totals in walk)


@lru_cache(maxsize=2)
def _member_table(q: Pmf, k: int, ell: int, cap: int) -> tuple[tuple[int, int, float], ...]:
    """(orbit, class size, H(W)) per orbit of members W, walking the cell classes.

    Counts permuted among the cells of one k-histogram class keep the class
    size and the entropy, so one row stands for its whole orbit, and the
    orbits of the members partition them.  The class size l!/prod(c!) is
    l!/prod_u(d_u!) times each class's inner d_u!/prod(parts!), exact, with
    the outer factorials read from a table filled on demand; the entropy is
    H(W) = log(l) - fsum(c*log(c))/l over the parts of all classes, which
    are the counts of one member of the orbit.  fsum is correctly rounded
    whatever the order of its terms, so H(W) has the bits of a cell-by-cell
    sum, and a mean that repeats each row's term `orbit` times has the bits
    of one summed member by member.  On the constraint set
    D(W||Q^k) = k*H(Q) - H(W) and D(W||U) = k*log(m) - H(W), exactly, by the
    lemma in pythagorean_scan, so no member needs a pmf.
    Nothing is computed before the walk has checked the cap, and the rows
    are kept for the last two (q, k, l, cap), so the conditional mean and
    the exact tail of one lattice share a single walk.
    """
    walk = _orbit_walk(q, k, ell, cap)
    factorial = lru_cache(maxsize=None)(math.factorial)
    c_log_c = lru_cache(maxsize=None)(lambda c: c * math.log(c) if c else 0.0)
    log_ell = math.log(ell)
    rows = []
    for totals, orbit_rows in walk:
        outer = factorial(ell) // math.prod(map(factorial, totals))
        for fills in orbit_rows:
            orbits, inners, parts = zip(*fills)
            h = log_ell - math.fsum(map(c_log_c, chain.from_iterable(parts))) / ell
            rows.append((math.prod(orbits), outer * math.prod(inners), h))
    return tuple(rows)


# ---------------------------------------------------------------------------
# extreme members
# ---------------------------------------------------------------------------


def _entropy_key() -> Callable[[tuple], int]:
    """prod c^c over the parts: larger exactly when the l-block histogram's entropy is smaller.

    Each class's factor is cached for the one walk that uses the key.
    """
    factor = lru_cache(maxsize=None)(lambda parts: math.prod(c**c for c in parts))
    return lambda parts: math.prod(map(factor, parts))


def _extreme_member(q: Pmf, k: int, ell: int, cap: int | None, key: Callable[[tuple], int]):
    """(members, first member of least key, members at that key).

    `key` maps an orbit row's parts, one non-increasing tuple per class, to
    an integer that must be the same on every member of the orbit.  Each
    class total vector's integer residuals sum_u d_u * u(a) - k*l*q(a)
    must be zero, which certifies every member of its orbits.  Members are
    ordered by their cell counts, ascending, so the first member of an orbit
    places each class's parts ascending along its cells, and the first at
    the least key is the smallest of those over the tied orbits.  Raises
    ValueError when the set is empty.
    """
    walk = _orbit_walk(q, k, ell, cap)
    classes = _block_classes(len(q), k)
    cols = list(zip(*(u for u, _ in classes)))
    targets = _lattice_targets(q, k, ell)
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
        counts = [0] * len(q) ** k
        for (_, cells), class_parts in zip(classes, parts):
            for b, c in zip(cells, reversed(class_parts)):
                counts[b] = c
        return tuple(counts)

    return members, min(map(first_counts, tied)), at_best


def pythagorean_scan(q, k: int, ell: int, cap: int | None = None) -> tuple[int, TypeVector, bool]:
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
    members, first, at_best = _extreme_member(_as_pmf(q), k, ell, cap, _entropy_key())
    return members, TypeVector(first), at_best == 1


class MaxDivergenceResult(NamedTuple):
    value: float
    witness: Pmf
    candidates: int
    mode: str


def _solve_columns(
    cols: Sequence[tuple[int, ...]], target: Sequence[int], scale: int
) -> tuple[Fraction, ...] | None:
    """Unique exact solution x of cols * x = target / scale, or None.

    The columns and the target are integers, and the elimination stays in
    integers: a row is cleared by cross-multiplying with the pivot row, so
    each pivot row ends as pivot * x_i = rhs_i / scale, and one Fraction is
    made per coordinate.  None when the columns are dependent or the system
    is inconsistent.
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
    return tuple(Fraction(aug[i][s], aug[i][i] * scale) for i in range(s))


def max_divergence_over_E_k(
    q,
    k: int,
    mode: str = "exact",
    ell: int | None = None,
    cap: int | None = None,
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
    q = _as_pmf(q)
    m = len(q)
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if mode == "grid":
        if ell is None:
            raise ValueError("grid mode needs l")
        entropy_key = _entropy_key()
        candidates, best_counts, _ = _extreme_member(
            q, k, ell, cap, lambda parts: -entropy_key(parts)
        )
        witness = type_to_pmf(TypeVector(best_counts))
        value = relative_entropy(witness, power_pmf(q, k))
        return MaxDivergenceResult(value, witness, candidates, "grid")
    if mode != "exact":
        raise ValueError(f"mode must be 'exact' or 'grid', got {mode!r}")
    cells = m**k
    limit = resolve_cap(cap)
    if cells > limit:  # the witness has one entry per cell
        raise CapacityError(f"{cells} cells at (m={m}, k={k}) exceeds cap {limit}")
    active_rows = [a for a in range(m) if q[a] > 0]
    # one column per k-histogram over the active symbols, subsets up to the rows
    columns = count_types(len(active_rows), k)
    subsets = sum(math.comb(columns, s) for s in range(1, len(active_rows) + 1))
    if subsets > MAX_VERTEX_SUBSETS:
        raise CapacityError(f"{subsets} column subsets exceed the vertex limit {MAX_VERTEX_SUBSETS}")
    occ = occurrence_matrix(m, k)
    # support argument: any member vanishes on blocks using a zero-mass symbol
    active_cols = [b for b in range(cells) if all(occ[b][a] == 0 or q[a] > 0 for a in range(m))]
    # k*q(a) = target[a] / scale with integer targets over scale = lcm(denominators)
    scale = math.lcm(*(q[a].denominator for a in active_rows))
    target = [k * q[a].numerator * (scale // q[a].denominator) for a in active_rows]
    # column -> [first cell, cells sharing it], in cell order
    classes: dict[tuple[int, ...], list[int]] = {}
    for b in active_cols:
        classes.setdefault(tuple(occ[b][a] for a in active_rows), [b, 0])[1] += 1
    # a vertex is keyed by its support and values, so only new ones are expanded
    seen: set[tuple[tuple[int, Fraction], ...]] = set()
    best_key: tuple[tuple[int, Fraction], ...] | None = None
    best_h = math.inf
    candidates = 0
    for size in range(1, len(active_rows) + 1):
        for subset in combinations(classes.items(), size):
            x = _solve_columns([col for col, _ in subset], target, scale)
            if x is None or any(v < 0 for v in x):
                continue
            key = tuple((first, v) for (_, (first, _)), v in zip(subset, x) if v)
            if key in seen:
                continue
            seen.add(key)
            candidates += math.prod(shared for (_, (_, shared)), v in zip(subset, x) if v)
            h = entropy([v for _, v in key])
            if h < best_h - _SLACK or best_key is None:
                best_h = h
                best_key = key
    if best_key is None:
        raise ValueError("constraint polytope is empty; q must be a valid pmf")
    full = [Fraction(0)] * cells
    for b, v in best_key:
        full[b] = v
    value = k * entropy(q) - best_h
    return MaxDivergenceResult(value, Pmf(full), candidates, "exact")


# ---------------------------------------------------------------------------
# randomized low-deviation construction
# ---------------------------------------------------------------------------


def lemma1_constant(ell: int, k: int) -> float:
    """Deviation budget M = sqrt(2/l + 4k/l + 2*sqrt(k/l)) for l blocks of k."""
    if not 1 <= k < ell:
        raise ValueError(f"need l > k >= 1, got l={ell}, k={k}")
    return math.sqrt(2.0 / ell + 4.0 * k / ell + 2.0 * math.sqrt(k / ell))


class PermutedBlockResult(NamedTuple):
    """Outcome of the seeded permutation construction."""

    block_type: TypeVector
    pmf: Pmf
    deviation: float
    l1_deviation: float
    bound: float
    tries: int
    fallback: bool
    entropy_gap: float
    entropy_gap_bound: float
    certified_regime: bool
    entropy_within_bound: bool


def lemma1_construct(
    q: TypeVector,
    k: int,
    ell: int,
    seed: int,
    max_tries: int = 1000,
    cap: int | None = None,
) -> PermutedBlockResult:
    """Seeded search for a lattice member close to Q^k in max-abs deviation.

    Lays out a string of histogram q, Fisher-Yates shuffles it with
    random.Random(seed), cuts it into l blocks of k, and keeps the first
    block histogram within deviation M of Q^k.  After max_tries shuffles it
    falls back to an exhaustive search of the lattice orbits for the first
    closest member; if even that is not within M (not possible for valid
    inputs, but checked), raises ExhaustedTriesError.

    Both the max-abs and the L1 deviation of the accepted member are
    recorded.  The entropy gap |H(W) - H(Q^k)| is compared against
    -M*log(M/m^k); that comparison is a guarantee only in the certified
    regime 2 <= k <= sqrt(l)/10 (where M < 1/2), and is reported as data
    otherwise.
    """
    if not isinstance(q, TypeVector):
        raise ValueError("q must be an n-type (a TypeVector)")
    if k < 1 or ell < 1 or k * ell != q.n:
        raise ValueError(f"need k*l = n, got k={k}, l={ell}, n={q.n}")
    if seed is None:
        raise ValueError("seed is required; the construction is randomized")
    if max_tries < 1:
        raise ValueError(f"max_tries must be >= 1, got {max_tries}")
    import random  # only the shuffle needs it, so the CLI start skips it
    m = q.m
    bound = lemma1_constant(ell, k)
    qk = power_pmf(type_to_pmf(q), k)
    # W(b) - Q^k(b) = (c_b * n^k - l * N_b) / (l * n^k) with Q^k(b) = N_b / n^k,
    # so histograms compare exactly by the integer numerator of the largest
    # deviation, and only the accepted one is reduced to a float
    nk = q.n**k
    scale = ell * nk
    targets = [int(p * nk) * ell for p in qk.probs]

    def excess(counts: Sequence[int]) -> int:
        return max(abs(c * nk - t) for c, t in zip(counts, targets))

    base = []
    for a, c in enumerate(q.counts):
        base.extend([a] * c)
    rng = random.Random(seed)
    cells = m**k

    accepted: tuple[int, Sequence[int]] | None = None
    tries = 0
    fallback = False
    for _ in range(max_tries):
        tries += 1
        rng.shuffle(base)
        counts = [0] * cells
        for start in range(0, q.n, k):
            idx = 0
            for a in base[start : start + k]:
                idx = idx * m + a
            counts[idx] += 1
        worst = excess(counts)
        if worst / scale <= bound:
            accepted = (worst, counts)
            break
    if accepted is None:
        fallback = True
        # Q^k(b) * n^k = prod_a q_a^{u_a} is the same on the cells of a class u,
        # so a member's excess over the cells of u is read off the largest
        # and the smallest of its parts there, and is the same on an orbit
        class_targets = [targets[class_cells[0]] for _, class_cells in _block_classes(m, k)]

        def orbit_excess(parts) -> int:
            return max(max(p[0] * nk - t, t - p[-1] * nk) for p, t in zip(parts, class_targets))

        _, counts, _ = _extreme_member(type_to_pmf(q), k, ell, cap, orbit_excess)
        accepted = (excess(counts), counts)
        if accepted[0] / scale > bound:
            raise ExhaustedTriesError(
                f"no member within deviation {bound} after {max_tries} shuffles"
            )
    deviation, block_type = accepted[0] / scale, TypeVector(accepted[1])
    pmf = type_to_pmf(block_type)
    l1_dev = l1_distance(pmf, qk)
    gap = abs(entropy(pmf) - entropy(qk))
    gap_bound = -bound * math.log(bound / cells)
    certified = k >= 2 and 100 * k * k <= ell and bound < 0.5
    return PermutedBlockResult(
        block_type=block_type,
        pmf=pmf,
        deviation=deviation,
        l1_deviation=l1_dev,
        bound=bound,
        tries=tries,
        fallback=fallback,
        entropy_gap=gap,
        entropy_gap_bound=gap_bound,
        certified_regime=certified,
        entropy_within_bound=gap <= gap_bound + _SLACK,
    )


# ---------------------------------------------------------------------------
# conditional mean divergence and tail bound
# ---------------------------------------------------------------------------


class ConditionalMeanResult(NamedTuple):
    value: float
    members: int


def conditional_mean_divergence(
    q, k: int, ell: int, cap: int | None = None
) -> ConditionalMeanResult:
    """E[D(What || Q^k)] over l-block histograms conditioned on the constraint set.

    What is the histogram of l i.i.d. uniform blocks; conditioning on the
    constraint set weights each member by its class size, exactly.  The
    weights are exact integers; each member's divergence is k*H(Q) - H(W),
    and only the weights' ratios and the final average are floats.
    """
    q = _as_pmf(q)
    k_entropy_q = k * entropy(q)
    rows = _member_table(q, k, ell, resolve_cap(cap))
    if not rows:
        raise ValueError("constraint set has no lattice members at this l")
    total = sum(orbit * size for orbit, size, _ in rows)
    terms = (repeat(size / total * (k_entropy_q - h), orbit) for orbit, size, h in rows)
    value = math.fsum(chain.from_iterable(terms))
    return ConditionalMeanResult(value=value, members=sum(orbit for orbit, _, _ in rows))


class TailBoundResult(NamedTuple):
    log_bound: float
    bound: float
    exact_probability: float | None
    exact_within_bound: bool | None
    deviation_constant: float
    entropy_margin_certified: bool


def partition_tail_bound(
    q, k: int, ell: int, delta: float, cap: int | None = None
) -> TailBoundResult:
    """(l+1)^(2*m^k) * e^(-l*delta) tail bound, with an exact check when cheap.

    Covers the conditional probability that an l-block histogram in the
    constraint set has D(W||U) exceeding D(Q^k||U) + 2*delta.  When the
    lattice fits the cap the exact conditional probability is computed by
    enumeration and asserted to sit below the bound.  Also reports whether
    the entropy margin -M*log(M/m^k) of the permutation construction fits
    inside delta, which certifies that the well-placed member lands in the
    low-divergence cell of the partition; M >= 1/2 leaves that certification
    unavailable.
    """
    q = _as_pmf(q)
    m = len(q)
    if k < 1 or ell < 1:
        raise ValueError(f"need k >= 1 and l >= 1, got k={k}, l={ell}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    cells = m**k
    log_bound = 2 * cells * math.log(ell + 1) - ell * delta
    bound = math.exp(log_bound) if log_bound <= 700 else math.inf

    if ell > k:
        big_m = lemma1_constant(ell, k)
        certified = big_m < 0.5 and -big_m * math.log(big_m / cells) <= delta + _SLACK
    else:
        big_m = math.inf
        certified = False

    exact_prob: float | None = None
    within: bool | None = None
    cap = resolve_cap(cap)
    if count_types(cells, ell) <= cap:
        threshold = relative_entropy(power_pmf(q, k), Pmf.uniform(cells)) + 2 * delta
        log_cells = math.log(cells)
        total = heavy = 0
        # D(W||U) = log(m^k) - H(W) on the constraint set
        for orbit, size, h in _member_table(q, k, ell, cap):
            total += orbit * size
            if log_cells - h > threshold:
                heavy += orbit * size
        if total == 0:
            raise ValueError("constraint set has no lattice members at this l")
        exact_prob = heavy / total
        within = exact_prob <= bound + _SLACK
        if not within:
            raise AssertionError(
                f"exact tail {exact_prob} exceeds analytic bound {bound}; unreachable"
            )
    return TailBoundResult(
        log_bound=log_bound,
        bound=bound,
        exact_probability=exact_prob,
        exact_within_bound=within,
        deviation_constant=big_m,
        entropy_margin_certified=certified,
    )
