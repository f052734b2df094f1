"""Entropy, relative entropy, and distance functionals on finite pmfs.

All logarithms are natural, so every quantity is in nats.  Relative entropy
returns math.inf when absolute continuity fails.  Functions accept `Pmf`
instances or plain sequences of Fractions/floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

__all__ = [
    "entropy",
    "l1_distance",
    "max_abs_deviation",
    "pinsker_gap",
    "relative_entropy",
]


def _log(x) -> float:
    # math.log handles arbitrarily large ints, so exact entries never overflow
    if isinstance(x, Fraction):
        return math.log(x.numerator) - math.log(x.denominator)
    return math.log(x)


def _entries(p) -> tuple:
    probs = getattr(p, "probs", None)
    return probs if probs is not None else tuple(p)


def entropy(p: Iterable) -> float:
    """Shannon entropy in nats, with the 0*log(0) = 0 convention."""
    total = 0.0
    for prob in _entries(p):
        if prob > 0:
            total -= float(prob) * _log(prob)
    return total


def relative_entropy(p: Iterable, q: Iterable) -> float:
    """D(P || Q) in nats; +inf when some P(a) > 0 has Q(a) = 0."""
    ps, qs = _entries(p), _entries(q)
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
    ps, qs = _entries(p), _entries(q)
    if len(ps) != len(qs):
        raise ValueError(f"mismatched supports: {len(ps)} vs {len(qs)}")
    return float(sum(abs(pa - qa) for pa, qa in zip(ps, qs)))


def max_abs_deviation(p: Iterable, q: Iterable) -> float:
    ps, qs = _entries(p), _entries(q)
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

