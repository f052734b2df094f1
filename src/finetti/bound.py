"""The theorem's constants alpha, delta and epsilon(n, k), read by `verify` and `lemma dbound`.

A dbound start reads them without the mixture checks of `finetti.definetti`.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .counts import _EXP_MAX

__all__ = ["BoundParams", "theorem_constants"]


class BoundParams(
    namedtuple("BoundParams", "n k m alpha delta epsilon vacuous in_validity_range")
):
    """Constants of the approximation bound at one (n, k, m) point."""

    __slots__ = ()


def theorem_constants(n: int, k: int, m: int) -> BoundParams:
    """alpha, delta, and epsilon(n, k) for an m-symbol alphabet.

    alpha = sqrt((2k/sqrt(n)) * ((1+2k)/sqrt(n) + 1)), delta = alpha *
    log(m^k / alpha), and epsilon = 2*delta + k * e^(-(n/k)*delta) *
    (n/k + 1)^(2*m^k) * log(n).  The second term is evaluated in log space
    and saturates to +inf (flagged vacuous) when it overflows the float
    range.  Requires 1 <= k <= n.
    """
    if m < 2:
        raise ValueError(f"alphabet size must be >= 2, got {m}")
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    root_n = math.sqrt(n)
    alpha = math.sqrt((2.0 * k / root_n) * ((1.0 + 2.0 * k) / root_n + 1.0))
    cells = float(m**k)
    delta = alpha * math.log(cells / alpha)
    blocks = n / k
    if n == 1:
        tail = 0.0
    else:
        log_tail = (
            math.log(k)
            - blocks * delta
            + 2.0 * cells * math.log(blocks + 1.0)
            + math.log(math.log(n))
        )
        tail = math.exp(log_tail) if log_tail <= _EXP_MAX else math.inf
    epsilon = 2.0 * delta + tail
    return BoundParams(
        n=n,
        k=k,
        m=m,
        alpha=alpha,
        delta=delta,
        epsilon=epsilon,
        vacuous=math.isinf(epsilon),
        in_validity_range=100 * k**3 <= n,
    )
