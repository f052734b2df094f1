"""Conditional block laws under a histogram constraint, and their product limit.

Conditioning n draws on an exact histogram couples the coordinates; as n
grows with the histogram tracking a fixed target pmf, the law of a k-block
drifts to the i.i.d. product of the target.  This module computes the block
law exactly, rounds targets to nearby histograms, and traces the divergence
decay along a schedule of n values.  Both laws are constant on k-histogram
classes, so each is kept as one integer numerator per class.  The target is
the pmf a / D as the pair (a, D) that `counts.pmf_numerators` reads.
"""

from __future__ import annotations

from collections import namedtuple

from .counts import TypeVector, divergence_of_numerators, max_deviation_of_numerators
from .types_core import cell_index, urn_numerators

__all__ = [
    "TracePoint",
    "conditional_block_law",
    "convergence_trace",
    "round_to_type",
    "trace_to_csv",
]


def conditional_block_law(t: TypeVector, k: int) -> tuple[list[int], int]:
    """Law of the first k draws given that all n draws have histogram t: the urn t at -1.

    One numerator per k-histogram over a common denominator (`urn_numerators`).
    """
    if not 1 <= k <= t.n:
        raise ValueError(f"k must lie in 1..{t.n}, got {k}")
    return urn_numerators(((t.counts, 1),), k, -1)


def round_to_type(target: tuple[tuple[int, ...], int], n: int) -> TypeVector:
    """Nearest n-histogram to the pmf a / D by largest remainder; ties go to the lowest index.

    Symbol i gets floor(a_i * n / D), and the n left over go one each to the
    largest remainders a_i * n mod D, all in integers.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    a, den = target
    floors, remainders = zip(*(divmod(x * n, den) for x in a))
    counts = list(floors)
    order = sorted(range(len(a)), key=lambda i: (-remainders[i], i))
    for i in order[: n - sum(floors)]:
        counts[i] += 1
    return TypeVector(tuple(counts))


class TracePoint(namedtuple("TracePoint", "n rounded divergence max_deviation")):
    """One n of the trace: its rounded histogram, the divergence and the max deviation."""

    __slots__ = ()


def convergence_trace(
    target: tuple[tuple[int, ...], int], k: int, n_values
) -> tuple[TracePoint, ...]:
    """One `TracePoint` per n: the conditional block law's divergence from target^k.

    Each n is rounded to a histogram first; the divergence is
    D(block law of the rounded histogram || target^k) in nats, target^k the
    urn a at 0 for target = (a, D).  The block law is exact at every n; only
    the divergence and deviation are floats, read from the numerators over
    the m^k cells, which count against the cap.
    """
    n_values = [int(n) for n in n_values]
    if not n_values:
        raise ValueError("need at least one n")
    if any(n < k for n in n_values):
        raise ValueError(f"every n must be >= k={k}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    a, _ = target
    reference = urn_numerators(((a, 1),), k, 0)
    cells = cell_index(len(a), k)
    points = []
    for n in n_values:
        rounded = round_to_type(target, n)
        block = conditional_block_law(rounded, k)
        divergence = divergence_of_numerators(*block, *reference, cells)
        deviation = max_deviation_of_numerators(*block, *reference)
        points.append(TracePoint(n, rounded, divergence, deviation))
    return tuple(points)


def trace_to_csv(trace: tuple[TracePoint, ...]) -> str:
    rows = (f"{p.n},{p.divergence!r},{p.max_deviation!r}\n" for p in trace)
    return "n,divergence_nats,max_abs_deviation\n" + "".join(rows)
