"""Per-string reference functions that the kernels are checked against.

The package evaluates k-block laws once per block histogram, and keeps a pmf
as integer numerators over one denominator; these work one string at a
time, straight from the definitions, on `Pmf`, a tuple of `Fraction`s.  The
method-of-types bounds as exact rationals, the reference for `finetti
types`, live here too, with the entropy and distance functionals the
integer rules of `finetti.counts` are checked against, and two builders the
tests use: a `Pmf` from weights and a typeWeights law file.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, product
from operator import mul
from typing import Iterable, Sequence

from finetti.counts import (
    TypeVector,
    _alphabet_size,
    all_strings,
    occurrence_matrix,
    pmf_numerators,
)
from finetti.exchangeable import histogram_law
from finetti.types_core import type_class_size, type_index_map, type_list, urn_numerators


class Pmf(tuple):
    """The tests' exact pmf: a tuple of `Fraction`s, nonnegative and summing to 1.

    It is read by `pmf_numerators`, so it refuses what the package refuses.
    """

    __slots__ = ()

    def __new__(cls, probs: Iterable[int | Fraction]) -> "Pmf":
        nums, den = pmf_numerators(tuple(probs))
        return tuple.__new__(cls, (Fraction(x, den) for x in nums))

    @property
    def probs(self) -> "Pmf":
        return self

    @classmethod
    def from_numerators(cls, nums: Sequence[int], den: int) -> "Pmf":
        return cls(Fraction(x, den) for x in nums)

    @classmethod
    def uniform(cls, size: int) -> "Pmf":
        return cls.from_numerators((1,) * size, size)


def type_to_pmf(t: TypeVector) -> Pmf:
    return Pmf.from_numerators(t.counts, t.n)


def spread(m: int, k: int, numerators: Sequence[int], den: int) -> Pmf:
    """One numerator per k-histogram, in type_list(m, k) order, spread over A^k in index order."""
    index = type_index_map(m, k)
    return Pmf.from_numerators([numerators[index[u]] for u in occurrence_matrix(m, k)], den)


def oracle_power_pmf(q: Sequence[Fraction], k: int) -> Pmf:
    """Q^k one string at a time: the product of q over the symbols of each k-string."""
    entries = []
    for s in all_strings(len(q), k):
        prob = Fraction(1)
        for a in s:
            prob *= q[a]
        entries.append(prob)
    return Pmf(tuple(entries))


def pmf_from_weights(weights: Sequence[int | Fraction]) -> Pmf:
    """Nonnegative exact weights scaled to sum to 1."""
    total = sum(map(Fraction, weights))
    return Pmf(Fraction(w) / total for w in weights)


def type_weights_file(law) -> dict:
    """A law as a typeWeights law file: its nonzero n-histogram weights as 'p/q' strings."""
    weights, den = histogram_law(law)
    entries = []
    for t, w in zip(type_list(law.m, law.n), weights):
        if w:
            r = Fraction(w, den)
            entries.append({"counts": list(t.counts), "w": f"{r.numerator}/{r.denominator}"})
    return {"m": law.m, "n": law.n, "typeWeights": entries}


# ---------------------------------------------------------------------------
# strings and their histograms
# ---------------------------------------------------------------------------


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
    return lhs, math.exp(-t.n * log_form_exponent(t, q))


def log_form_exponent(t: TypeVector, q: Sequence[float]) -> float:
    """H(t/n) + D(t/n || q) in nats through logarithms, so that q^n(x) = exp(-n * it).

    A zero q(a) that t uses raises ValueError.
    """
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
    return ent + div


# ---------------------------------------------------------------------------
# entropy, relative entropy and distances: the references for the integer rules
# ---------------------------------------------------------------------------


def _log(x) -> float:
    # math.log handles arbitrarily large ints, so exact entries never overflow
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def entropy(p: Iterable) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    total = 0.0
    for prob in tuple(p):
        if prob > 0:
            total -= float(prob) * _log(prob)
    return total


def relative_entropy(p: Iterable, q: Iterable) -> float:
    """D(P || Q) in nats; +inf when some P(a) > 0 has Q(a) = 0."""
    ps, qs = tuple(p), tuple(q)
    if len(ps) != len(qs):
        raise ValueError(f"mismatched supports: {len(ps)} vs {len(qs)}")
    total = 0.0
    for pa, qa in zip(ps, qs):
        if pa == 0:
            continue
        if qa == 0:
            return math.inf
        if isinstance(pa, Fraction) and isinstance(qa, Fraction):
            total += float(pa) * _log(pa / qa)
        else:
            total += float(pa) * (_log(pa) - _log(qa))
    return total


def l1_distance(p: Iterable, q: Iterable) -> float:
    ps, qs = tuple(p), tuple(q)
    if len(ps) != len(qs):
        raise ValueError(f"mismatched supports: {len(ps)} vs {len(qs)}")
    return float(sum(abs(pa - qa) for pa, qa in zip(ps, qs)))


def max_abs_deviation(p: Iterable, q: Iterable) -> float:
    ps, qs = tuple(p), tuple(q)
    if len(ps) != len(qs):
        raise ValueError(f"mismatched supports: {len(ps)} vs {len(qs)}")
    return float(max(abs(pa - qa) for pa, qa in zip(ps, qs)))


def pinsker_gap(p: Iterable, q: Iterable) -> float:
    """D(P || Q) - 0.5 * ||P - Q||_1^2, nonnegative for every pair.

    The 1/2 constant is the correct one in nats; dividing by 2*log(2) instead
    belongs to the bits convention and fails here (point mass vs uniform on
    two symbols already violates it).
    """
    d = relative_entropy(p, q)
    if math.isinf(d):
        return d
    return d - 0.5 * l1_distance(p, q) ** 2


# ---------------------------------------------------------------------------
# the method of types as exact rationals: the reference for `finetti types`
# ---------------------------------------------------------------------------


def type_class_probability(t: TypeVector, q: Pmf) -> Fraction:
    """Probability that n i.i.d. draws from q land in the class of t, exactly."""
    prob = Fraction(type_class_size(t))
    for c, p in zip(t.counts, q):
        if c:
            prob *= p**c
    return prob


def exp_n_entropy(t: TypeVector) -> Fraction:
    """e^(n*H(t/n)) as an exact rational: n^n / prod_a counts[a]^counts[a]."""
    return Fraction(t.n**t.n, math.prod(c**c for c in t.counts))


def exp_neg_n_divergence(t: TypeVector, q: Pmf) -> Fraction:
    """e^(-n*D(t/n || q)) as an exact rational; 0 when q misses the support of t."""
    out = Fraction(1)
    for c, p in zip(t.counts, q):
        if c:
            out *= (Fraction(t.n) * p / c) ** c
    return out


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


@lru_cache(maxsize=None)
def _stirling2(c: int, i: int) -> int:
    """Stirling number of the second kind: partitions of c items into i blocks."""
    if c == 0 or i == 0:
        return int(c == i)
    return i * _stirling2(c - 1, i) + _stirling2(c - 1, i - 1)


def oracle_block_laws(law, k: int, n: int) -> tuple[tuple[list[int], int], tuple[list[int], int]]:
    """((P_k numerators, D), (M_k numerators, D * n^k)) from a kernel pass at k itself.

    One pass per block length: P_k straight from the urns, its margins down
    to length 1, and M_k over the first n draws as their Stirling transform,
    sum_{i<=u} prod_a S(u_a, i_a) (n)_{|i|} A_{|i|}(i).
    """
    numerators, den = urn_numerators(law.urns, k, law.step)
    blocks = [u.counts for u in type_list(law.m, k)]
    margin = dict(zip(blocks, numerators))
    for j in range(k - 1, 0, -1):
        for i in (t.counts for t in type_list(law.m, j)):
            margin[i] = sum(margin[i[:a] + (c + 1,) + i[a + 1 :]] for a, c in enumerate(i))
    falling = list(accumulate((n - j for j in range(k)), mul, initial=1))
    mixed = [
        sum(
            math.prod(map(_stirling2, u, i)) * falling[sum(i)] * margin[i]
            for i in product(*(range(1 if c else 0, c + 1) for c in u))
        )
        for u in blocks
    ]
    return (numerators, den), (mixed, den * n**k)


def marginal_residuals(counts: Sequence[int], q: TypeVector, k: int) -> list[int]:
    """n * sum_b c_b * occ[b][a] - k*l*q_a per symbol a, occ[b][a] read off the string b.

    All are zero exactly when the l-block histogram c, with l = sum c, has
    averaged coordinate marginal q = q_a / n: a member of the constraint set.
    """
    ell = sum(counts)
    sums = [0] * q.m
    for c, block in zip(counts, all_strings(q.m, k)):
        for a in block:
            sums[a] += c
    return [q.n * s - k * ell * x for s, x in zip(sums, q.counts)]


def oracle_walk(q: TypeVector, k: int, ell: int) -> list[tuple[int, ...]]:
    """Slow reference walk of the constraint set over the m^k cells, in cell order.

    Every count up to the largest feasible one builds its residual list and
    is then pruned only against the largest remaining occurrences; the last
    cell takes the blocks left and is filtered after the fact.
    """
    m = q.m
    targets = [Fraction(c, q.n) * k * ell for c in q.counts]
    if any(t.denominator != 1 for t in targets):
        return []
    occ = []
    for s in all_strings(m, k):
        occ.append(tuple(s.count(a) for a in range(m)))
    cells = len(occ)
    suffix_max = [[0] * (cells + 1) for _ in range(m)]
    for a in range(m):
        for b in range(cells - 1, -1, -1):
            suffix_max[a][b] = max(occ[b][a], suffix_max[a][b + 1])
    counts = [0] * cells
    out = []

    def walk(b, remaining, residual):
        if b == cells - 1:
            counts[b] = remaining
            if all(occ[b][a] * remaining == residual[a] for a in range(m)):
                out.append(tuple(counts))
            return
        upper = remaining
        for a in range(m):
            if occ[b][a]:
                upper = min(upper, residual[a] // occ[b][a])
        for c in range(upper + 1):
            left = remaining - c
            new_residual = [residual[a] - c * occ[b][a] for a in range(m)]
            if any(new_residual[a] > left * suffix_max[a][b + 1] for a in range(m)):
                continue
            counts[b] = c
            walk(b + 1, left, new_residual)

    walk(0, ell, [int(t) for t in targets])
    return out
