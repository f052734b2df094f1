"""Block laws whose averaged coordinate marginals are pinned to a target pmf.

For a pmf Q on A and block length k, the constraint set holds every
distribution W on A^k whose k coordinate marginals average to Q.  Membership
is a system of exact linear equations: writing occ[b][a] for the number of
times symbol a occurs in block b,

    sum_b W(b) * occ[b][a] = k * Q(a)   for every a.

The module enumerates the lattice points of this polytope among l-block
histograms, maximises relative entropy over it by exact vertex search, builds
low-deviation lattice members by seeded random permutation, and evaluates the
conditional mean divergence and tail bounds used by the finite mixture
approximation argument.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from operator import mul
from typing import Iterator, NamedTuple, Sequence

from .exchangeable import _occurrence_matrix, power_pmf
from .info_measures import entropy, l1_distance, relative_entropy
from .types_core import (
    TYPE_CACHE_SIZE,
    CapacityError,
    Pmf,
    TypeVector,
    count_types,
    integer_numerators,
    resolve_cap,
    type_to_pmf,
)

__all__ = [
    "ConditionalMeanResult",
    "ExhaustedTriesError",
    "MaxDivergenceResult",
    "PermutedBlockResult",
    "TailBoundResult",
    "average_coordinate_marginal",
    "conditional_mean_divergence",
    "divergence_decomposition",
    "enumerate_E_k_types",
    "in_E_k",
    "lattice_argmin_uniform_divergence",
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


# col[a][b] = occ[b][a]: the occurrences of symbol a, block by block
_occurrence_columns = lru_cache(maxsize=TYPE_CACHE_SIZE)(
    lambda m, k: tuple(zip(*_occurrence_matrix(m, k)))
)


def _residuals(counts: Sequence[int], cols, scale: int, targets: Sequence[int]) -> list[int]:
    """scale * sum_b counts[b] * occ[b][a] - targets[a] for every symbol a.

    With W = c / l, q = a / D, scale D and targets k*l*a, all are 0 iff Wbar = q.
    """
    return [scale * sum(map(mul, counts, col)) - t for col, t in zip(cols, targets)]


def _infer_k(w_size: int, m: int) -> int:
    k = 1
    size = m
    while size < w_size:
        size *= m
        k += 1
    if size != w_size:
        raise ValueError(f"{w_size} cells is not a power of alphabet size {m}")
    return k


def _as_pmf(p) -> Pmf:
    if isinstance(p, Pmf):
        return p
    if isinstance(p, TypeVector):
        return type_to_pmf(p)
    return Pmf(tuple(p))


def average_coordinate_marginal(w, m: int) -> Pmf:
    """Average of the k coordinate marginals of a block pmf over A^k.

    With W = c / l the average is sum_b c_b * occ[b][a] / (k*l) for every a.
    """
    counts, ell = integer_numerators(_as_pmf(w))
    k = _infer_k(len(counts), m)
    sums = [sum(map(mul, counts, col)) for col in _occurrence_columns(m, k)]
    return Pmf.from_numerators(sums, k * ell)


def in_E_k(w, q) -> bool:
    """Whether the averaged coordinate marginals of w equal q, exactly."""
    q = _as_pmf(q)
    return average_coordinate_marginal(w, len(q)) == q


# ---------------------------------------------------------------------------
# lattice enumeration
# ---------------------------------------------------------------------------


def _lattice_targets(q: Pmf, k: int, ell: int) -> list[int] | None:
    """k*l*q(a) for every a, or None if one is not an integer."""
    targets = [p * k * ell for p in q]
    if any(t.denominator != 1 for t in targets):
        return None
    return [t.numerator for t in targets]


def enumerate_E_k_types(q, k: int, ell: int, cap: int | None = None) -> Iterator[TypeVector]:
    """l-block histograms over A^k whose averaged marginals equal q.

    Yields exactly the members of the full histogram enumeration that satisfy
    the marginal constraint, in the same order, but walks the constraint
    lattice directly.  q must be an n-type (or a pmf with k*l*q(a) integral);
    otherwise the set is empty.  Raises CapacityError when the full
    enumeration exceeds the cap, before the walk starts.

    The walk fixes the cell counts in block order.  At cell b, with r blocks
    left and residual R(a) occurrences of each symbol a still to place, a
    count c leaves R(a) - c*occ[b][a] for the r - c blocks after b, which is
    reachable only between (r - c) times the smallest and (r - c) times the
    largest occurrence of a in those cells.  Both conditions are linear in c,
    so c runs over a closed-form interval [lo, hi] in ascending order, and a
    count outside it, which can hold no member, is never visited.  With one
    cell left the two bounds coincide and pin the last count exactly.
    """
    q = _as_pmf(q)
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
        return
    occ = _occurrence_matrix(m, k)
    last = len(occ) - 1
    if not last:  # one symbol, one cell
        yield TypeVector((ell,))
        return
    # rules[b]: the interval conditions at cell b, each c * slope <= offset
    # with offset = remaining * scale + sign * residual[a].  For symbol a,
    # with occ[b][a] = here and occurrences between bottom and top after b:
    #   residual - c * here <= (remaining - c) * top      (first rule)
    #   residual - c * here >= (remaining - c) * bottom   (second rule)
    rules = []
    for b in range(last):
        rule = []
        for a in range(m):
            top = max(row[a] for row in occ[b + 1 :])
            bottom = min(row[a] for row in occ[b + 1 :])
            rule.append((a, top - occ[b][a], top, -1))
            rule.append((a, occ[b][a] - bottom, -bottom, 1))
        rules.append(rule)
    counts = [0] * (last + 1)

    def walk(b: int, remaining: int, residual: list[int]) -> Iterator[TypeVector]:
        lo, hi = 0, remaining
        for a, slope, scale, sign in rules[b]:
            offset = remaining * scale + sign * residual[a]
            if slope > 0:
                hi = min(hi, offset // slope)
            elif slope < 0:
                lo = max(lo, -(offset // -slope))
            elif offset < 0:
                return
        if b + 1 == last:
            # one cell left: its bounds coincide, so every c pins a member
            for c in range(lo, hi + 1):
                counts[b], counts[last] = c, remaining - c
                yield TypeVector(counts)
            return
        row = occ[b]
        for c in range(lo, hi + 1):
            counts[b] = c
            yield from walk(b + 1, remaining - c, [residual[a] - c * row[a] for a in range(m)])

    yield from walk(0, ell, targets)


@lru_cache(maxsize=2)
def _member_table(q: Pmf, k: int, ell: int, cap: int) -> tuple[tuple[int, float], ...]:
    """(class size, H(W)) for each member W, in enumeration order.

    The class size l!/prod(c!) is exact, read from a factorial table; the
    entropy is H(W) = log(l) - fsum(c*log(c))/l, read from a c*log(c) table.
    On the constraint set D(W||Q^k) = k*H(Q) - H(W) and
    D(W||U) = k*log(m) - H(W), identities divergence_decomposition certifies
    exactly, so no member needs a pmf.  The tables fill on demand, so a
    single-member set at a huge l costs only its own counts' factorials, and
    nothing is computed before the walk has checked the cap.  The rows are
    kept for the last two (q, k, l, cap), so the conditional mean and the
    exact tail of one lattice share a single walk.
    """
    factorial = lru_cache(maxsize=None)(math.factorial)
    c_log_c = lru_cache(maxsize=None)(lambda c: c * math.log(c) if c else 0.0)
    rows = []
    for member in enumerate_E_k_types(q, k, ell, cap=cap):
        size = factorial(ell) // math.prod(map(factorial, member.counts))
        rows.append((size, math.log(ell) - math.fsum(map(c_log_c, member.counts)) / ell))
    return tuple(rows)


def _entropy_key(counts: Sequence[int]) -> int:
    """prod c^c: larger exactly when the l-block histogram's entropy is smaller."""
    return math.prod(c**c for c in counts)


# ---------------------------------------------------------------------------
# divergence geometry
# ---------------------------------------------------------------------------


@lru_cache(maxsize=16)
def _product_terms(q: Pmf | TypeVector, k: int):
    """The member-independent half of the decomposition for (q, k).

    (Q^k, U, D(Q^k||U)) as pmfs and a float, and last q as integer numerators
    over their common denominator, (a, D) with q = a / D, which the
    membership residual reads; a TypeVector q is converted once.  Callers
    read the terms, never mutate them.
    """
    q = _as_pmf(q)
    qk = power_pmf(q, k)
    uniform = Pmf.uniform(len(qk))
    return qk, uniform, relative_entropy(qk, uniform), integer_numerators(q)


def divergence_decomposition(w, q, k: int | None = None) -> tuple[float, float, float]:
    """(D(W||U), D(W||Q^k), D(Q^k||U)) for a member W of the constraint set.

    For any W on A^k with averaged coordinate marginal Wbar, and any q,

        D(W||U) - D(W||Q^k) - D(Q^k||U) = k * sum_a (Wbar(a) - q(a)) * log q(a),

    and D(W||Q^k) - (k*H(Q) - H(W)) is minus that sum, since log Q^k(b) =
    sum_a occ[b][a] * log q(a).  So both identities hold exactly where
    Wbar = q (the Pythagorean equality for linear families, Csiszar 1975).
    That membership is decided in integers: W = c / l and q = a / D are
    members exactly when D * sum_b c_b * occ[b][a] = k*l*a(a) for every a.
    Raises ValueError when W is not a member.
    """
    if not isinstance(q, TypeVector):  # a TypeVector's pmf comes from the cache
        q = _as_pmf(q)
    w_counts = w.counts if isinstance(w, TypeVector) else None
    w = _as_pmf(w)
    m = q.m if isinstance(q, TypeVector) else len(q)
    inferred = _infer_k(len(w), m)
    if k is not None and k != inferred:
        raise ValueError(f"w lives on A^{inferred}, caller says k={k}")
    k = inferred
    qk, uniform, d_qu, (a, den) = _product_terms(q, k)
    if w_counts is None:
        w_counts, _ = integer_numerators(w)
    targets = [k * sum(w_counts) * x for x in a]
    if any(_residuals(w_counts, _occurrence_columns(m, k), den, targets)):
        raise ValueError("w is not in the constraint set of q")
    return relative_entropy(w, uniform), relative_entropy(w, qk), d_qu


def pythagorean_scan(q, k: int, ell: int, cap: int | None = None) -> tuple[int, TypeVector, bool]:
    """Walk the constraint set once: (members, argmin of D(. || U), unique).

    Each member's integer residuals sum_b c_b * occ[b][a] - k*l*q(a) must be
    zero, which by the lemma of divergence_decomposition certifies both of
    its identities for the member.  On the set D(W || U) = k*log(m) - H(W),
    and entropies of l-block histograms compare exactly through the integer
    keys prod_b c_b^c_b, so the argmin is the first member of least key,
    unique unless tied; when Q^k is a lattice point it is the unique one.
    Raises ValueError when the set is empty.
    """
    q = _as_pmf(q)
    targets = _lattice_targets(q, k, ell)
    members, best, unique = 0, None, True  # best: (key, member)
    for member in enumerate_E_k_types(q, k, ell, cap=cap):
        if any(_residuals(member.counts, _occurrence_columns(len(q), k), 1, targets)):
            raise AssertionError(f"walk yielded {member}, off the constraint set; unreachable")
        members += 1
        key = _entropy_key(member.counts)
        if best is None or key < best[0]:
            best, unique = (key, member), True
        elif key == best[0]:
            unique = False
    if best is None:
        raise ValueError("constraint set has no lattice members at this l")
    return members, best[1], unique


def lattice_argmin_uniform_divergence(
    q, k: int, ell: int, cap: int | None = None
) -> tuple[TypeVector, bool]:
    """Member minimising D(. || uniform) exactly, and whether it is unique."""
    return pythagorean_scan(q, k, ell, cap=cap)[1:]


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
        best_key = 0
        best_member: TypeVector | None = None
        candidates = 0
        for member in enumerate_E_k_types(q, k, ell, cap=cap):
            candidates += 1
            key = _entropy_key(member.counts)
            if key > best_key:
                best_key = key
                best_member = member
        if best_member is None:
            raise ValueError("constraint set has no lattice members at this l")
        witness = type_to_pmf(best_member)
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
    occ = _occurrence_matrix(m, k)
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
    falls back to exhaustive lattice search; if even that has no member
    within M (not possible for valid inputs, but checked), raises
    ExhaustedTriesError.

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

    accepted: tuple[int, TypeVector] | None = None
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
            accepted = (worst, TypeVector(counts))
            break
    if accepted is None:
        fallback = True
        for member in enumerate_E_k_types(q, k, ell, cap=cap):
            worst = excess(member.counts)
            if accepted is None or worst < accepted[0]:
                accepted = (worst, member)
        if accepted is None or accepted[0] / scale > bound:
            raise ExhaustedTriesError(
                f"no member within deviation {bound} after {max_tries} shuffles"
            )
    deviation, block_type = accepted[0] / scale, accepted[1]
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
    rows = [(size, k_entropy_q - h) for size, h in _member_table(q, k, ell, resolve_cap(cap))]
    if not rows:
        raise ValueError("constraint set has no lattice members at this l")
    total = sum(size for size, _ in rows)
    value = math.fsum(size / total * d for size, d in rows)
    return ConditionalMeanResult(value=value, members=len(rows))


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
        threshold = _product_terms(q, k)[2] + 2 * delta  # D(Q^k||U) + 2*delta
        log_cells = math.log(cells)
        total = heavy = 0
        # D(W||U) = log(m^k) - H(W) on the constraint set
        for size, h in _member_table(q, k, ell, cap):
            total += size
            if log_cells - h > threshold:
                heavy += size
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
