"""Lemma dbound: the conditional mean divergence and the tail bound over the constraint set.

Both read one (orbit, class size, H(W)) row per orbit of the walk in
`finetti.marginal_sets`, and share one walk per lattice (`_member_rows`).
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from itertools import chain, repeat

from .counts import (
    _EXP_MAX,
    CapacityError,
    divergence_of_numerators,
    entropy_of_numerators,
    lemma1_constant,
    pmf_numerators,
    power_numerators,
)
from .marginal_sets import _check_lattice, _orbit_walk

__all__ = [
    "ConditionalMeanResult",
    "TailBoundResult",
    "conditional_mean_divergence",
    "partition_tail_bound",
]

_SLACK = 1e-12


def _member_table(a: tuple[int, ...], den: int, k: int, ell: int) -> tuple[tuple, ...]:
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
    lemma in `marginal_sets.pythagorean_scan`, so no member needs a pmf.
    The cap is checked on every call, cached or not, and the rows are kept
    for the last two (a, D, k, l), so the conditional mean and the exact
    tail of one lattice share a single walk.
    """
    _check_lattice(len(a), k, ell)
    return _member_rows(a, den, k, ell)


@lru_cache(maxsize=2)
def _member_rows(a: tuple[int, ...], den: int, k: int, ell: int) -> tuple[tuple, ...]:
    walk = _orbit_walk(a, den, k, ell)
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


class ConditionalMeanResult(namedtuple("ConditionalMeanResult", "value members")):
    """The conditional mean divergence and the number of members it averages."""

    __slots__ = ()


def conditional_mean_divergence(q, k: int, ell: int) -> ConditionalMeanResult:
    """E[D(What || Q^k)] over l-block histograms conditioned on the constraint set.

    What is the histogram of l i.i.d. uniform blocks; conditioning on the
    constraint set weights each member by its class size, exactly.  The
    weights are exact integers; each member's divergence is k*H(Q) - H(W),
    and only the weights' ratios and the final average are floats.
    """
    a, den = pmf_numerators(q)
    k_entropy_q = k * entropy_of_numerators(a, den)
    rows = _member_table(a, den, k, ell)
    if not rows:
        raise ValueError("constraint set has no lattice members at this l")
    total = sum(orbit * size for orbit, size, _ in rows)
    terms = (repeat(size / total * (k_entropy_q - h), orbit) for orbit, size, h in rows)
    value = math.fsum(chain.from_iterable(terms))
    return ConditionalMeanResult(value=value, members=sum(orbit for orbit, _, _ in rows))


class TailBoundResult(
    namedtuple(
        "TailBoundResult",
        "log_bound bound exact_probability entropy_margin_certified",
    )
):
    """The analytic tail bound, the exact tail when the lattice fits the cap, the margin check."""

    __slots__ = ()


def partition_tail_bound(q, k: int, ell: int, delta: float) -> TailBoundResult:
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
    a, den = pmf_numerators(q)
    m = len(a)
    if k < 1 or ell < 1:
        raise ValueError(f"need k >= 1 and l >= 1, got k={k}, l={ell}")
    if not math.isfinite(delta):
        raise ValueError(f"delta must be finite, got {delta}")
    if delta <= 0:
        raise ValueError(f"delta must be positive, got {delta}")
    cells = m**k
    log_bound = 2 * cells * math.log(ell + 1) - ell * delta
    bound = math.exp(log_bound) if log_bound <= _EXP_MAX else math.inf

    big_m = lemma1_constant(ell, k) if ell > k else math.inf
    certified = big_m < 0.5 and -big_m * math.log(big_m / cells) <= delta + _SLACK

    exact_prob: float | None = None
    try:
        rows = _member_table(a, den, k, ell)
    except CapacityError:  # the lattice does not fit the cap: no exact tail
        rows = None
    if rows is not None:
        # D(Q^k || U): Q^k = T / D^k against all-ones over m^k, cell by cell
        d_star = divergence_of_numerators(
            power_numerators(a, k), den**k, [1] * cells, cells, range(cells)
        )
        threshold = d_star + 2 * delta
        log_cells = math.log(cells)
        total = heavy = 0
        # D(W||U) = log(m^k) - H(W) on the constraint set
        for orbit, size, h in rows:
            total += orbit * size
            if log_cells - h > threshold:
                heavy += orbit * size
        if total == 0:
            raise ValueError("constraint set has no lattice members at this l")
        exact_prob = heavy / total
        if not exact_prob <= bound + _SLACK:
            raise AssertionError(
                f"exact tail {exact_prob} exceeds analytic bound {bound}; unreachable"
            )
    return TailBoundResult(
        log_bound=log_bound,
        bound=bound,
        exact_probability=exact_prob,
        entropy_margin_certified=certified,
    )
