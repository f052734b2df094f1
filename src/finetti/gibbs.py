"""Conditional block laws under a histogram constraint, and their product limit.

Conditioning n draws on an exact histogram couples the coordinates; as n
grows with the histogram tracking a fixed target pmf, the law of a k-block
drifts to the i.i.d. product of the target.  This module computes the block
law exactly, rounds targets to nearby histograms, and traces the divergence
decay along a schedule of n values.
"""

from __future__ import annotations

from typing import NamedTuple

from .exchangeable import _block_pmf, power_pmf
from .info_measures import max_abs_deviation, relative_entropy
from .types_core import Pmf, TypeVector

__all__ = [
    "ConvergenceTrace",
    "TracePoint",
    "conditional_block_law",
    "convergence_trace",
    "round_to_type",
    "trace_to_csv",
]


def conditional_block_law(t: TypeVector, k: int) -> Pmf:
    """Law of the first k draws given that all n draws have histogram t."""
    if not 1 <= k <= t.n:
        raise ValueError(f"k must lie in 1..{t.n}, got {k}")
    return _block_pmf(t.m, k, ((t.counts, 1),), -1)


def round_to_type(target: Pmf, n: int) -> TypeVector:
    """Nearest histogram by largest remainder; ties go to the lowest index."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    scaled = [p * n for p in target]
    floors = [int(s) for s in scaled]
    leftover = n - sum(floors)
    remainders = sorted(
        range(len(scaled)),
        key=lambda i: (-(scaled[i] - floors[i]), i),
    )
    for i in remainders[:leftover]:
        floors[i] += 1
    return TypeVector(tuple(floors))


class TracePoint(NamedTuple):
    n: int
    rounded: TypeVector
    divergence: float
    max_deviation: float


class ConvergenceTrace(NamedTuple):
    target: Pmf
    k: int
    points: tuple[TracePoint, ...]


def convergence_trace(target: Pmf, k: int, n_values) -> ConvergenceTrace:
    """Divergence of the conditional block law from target^k along n_values.

    Each n is rounded to a histogram first; the divergence is
    D(block law of the rounded histogram || target^k) in nats.  The block
    law is exact at every n; only the divergence and deviation are floats.
    """
    n_values = [int(n) for n in n_values]
    if not n_values:
        raise ValueError("need at least one n")
    if any(n < k for n in n_values):
        raise ValueError(f"every n must be >= k={k}")
    reference = power_pmf(target, k)
    points = []
    for n in n_values:
        rounded = round_to_type(target, n)
        block = conditional_block_law(rounded, k)
        points.append(
            TracePoint(
                n=n,
                rounded=rounded,
                divergence=relative_entropy(block, reference),
                max_deviation=max_abs_deviation(block, reference),
            )
        )
    return ConvergenceTrace(target=target, k=k, points=tuple(points))


def trace_to_csv(trace: ConvergenceTrace) -> str:
    lines = ["n,divergence_nats,max_abs_deviation"]
    for p in trace.points:
        lines.append(f"{p.n},{p.divergence!r},{p.max_deviation!r}")
    return "\n".join(lines) + "\n"
