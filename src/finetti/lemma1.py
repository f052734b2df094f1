"""Lemma 1: a seeded permutation construction of a lattice member close to Q^k.

An n-type q is read as its integer counts, and Q^k as the integers
T_b = prod_a q_a^{u_a} over n^k, where u is the histogram of cell b, so the
construction compares and reports in integers and makes one float per
reported quantity.  The exhaustive fallback reads the lattice orbits of
`finetti.marginal_sets`, which it imports only when it runs.  The deviation
constant M is in `finetti.counts`, where lemma dbound (`finetti.dbound`) reads it.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .counts import TypeVector, check_cells, entropy_of_numerators, lemma1_constant, power_numerators

__all__ = [
    "ExhaustedTriesError",
    "PermutedBlockResult",
    "lemma1_constant",
    "lemma1_construct",
]

_SLACK = 1e-12


class ExhaustedTriesError(RuntimeError):
    """The randomized construction ran out of permutations and fallbacks."""


class PermutedBlockResult(
    namedtuple(
        "PermutedBlockResult",
        "block_type deviation l1_deviation bound tries fallback entropy_gap "
        "entropy_gap_bound certified_regime entropy_within_bound",
    )
):
    """Outcome of the seeded permutation construction."""

    __slots__ = ()


def lemma1_construct(
    q: TypeVector, k: int, ell: int, seed: int, max_tries: int = 1000
) -> PermutedBlockResult:
    """Seeded search for a lattice member close to Q^k in max-abs deviation.

    Lays out a string of histogram q, Fisher-Yates shuffles it with
    random.Random(seed), cuts it into l blocks of k, and keeps the first
    block histogram within deviation M of Q^k.  After max_tries shuffles it
    falls back to an exhaustive search of the lattice orbits for the first
    closest member; if even that is not within M (not possible for valid
    inputs, but checked), raises ExhaustedTriesError.  The m^k cells of Q^k
    count against the cap before Q^k is listed.

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
    check_cells(m, k)
    # Q^k(b) = T_b / n^k, so W(b) - Q^k(b) = (c_b * n^k - l * T_b) / (l * n^k):
    # histograms compare exactly by the integer numerator of the largest
    # deviation, and only the accepted one is reduced to a float
    powers = power_numerators(q.counts, k)
    nk = q.n**k
    scale = ell * nk
    targets = [ell * t for t in powers]

    def excess(counts) -> int:
        return max(abs(c * nk - t) for c, t in zip(counts, targets))

    base = [a for a, c in enumerate(q.counts) for _ in range(c)]
    rng = random.Random(seed)
    cells = m**k

    accepted = None
    fallback = False
    for tries in range(1, max_tries + 1):
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
        from .marginal_sets import _block_classes, _extreme_member

        # T_b is the same on the cells of a class u, so a member's excess over
        # the cells of u is read off the largest and the smallest of its parts
        # there, and is the same on an orbit
        class_targets = [targets[class_cells[0]] for _, class_cells in _block_classes(m, k)]

        def orbit_excess(parts) -> int:
            return max(max(p[0] * nk - t, t - p[-1] * nk) for p, t in zip(parts, class_targets))

        _, counts, _ = _extreme_member(q.counts, q.n, k, ell, orbit_excess)
        accepted = (excess(counts), counts)
        if accepted[0] / scale > bound:
            raise ExhaustedTriesError(
                f"no member within deviation {bound} after {max_tries} shuffles"
            )
    worst, counts = accepted
    # the sum of |W(b) - Q^k(b)| is exact over l * n^k, and int/int true
    # division rounds it correctly, as float() of the Fraction sum does
    l1_dev = sum(abs(c * nk - t) for c, t in zip(counts, targets)) / scale
    gap = abs(entropy_of_numerators(counts, ell) - entropy_of_numerators(powers, nk))
    gap_bound = -bound * math.log(bound / cells)
    certified = k >= 2 and 100 * k * k <= ell and bound < 0.5
    return PermutedBlockResult(
        block_type=TypeVector(counts),
        deviation=worst / scale,
        l1_deviation=l1_dev,
        bound=bound,
        tries=tries,
        fallback=fallback,
        entropy_gap=gap,
        entropy_gap_bound=gap_bound,
        certified_regime=certified,
        entropy_within_bound=gap <= gap_bound + _SLACK,
    )
