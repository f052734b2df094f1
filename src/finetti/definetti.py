"""Finite mixture approximation for exchangeable laws, with explicit constants.

For an exchangeable law on A^n and block length k, the k-coordinate marginal
is compared against the mixture of i.i.d. laws drawn from the empirical
histogram distribution.  The divergence between the two is bounded by an
explicit epsilon(n, k) built from the deviation constant alpha and the margin
delta = alpha * log(m^k / alpha); the bound is meaningful for
1 <= k <= (n/100)^(1/3) and is reported (flagged) outside that range.  When k
does not divide n, the mixture is taken over the histogram of the longest
prefix of length divisible by k; it comes from the k-marginal alone, as a
Stirling transform, so the law is never restricted.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .exchangeable import ExchangeableLaw, block_laws, power_pmf
from .gibbs import conditional_block_law
from .info_measures import relative_entropy
from .marginal_sets import conditional_mean_divergence
from .types_core import type_to_pmf

__all__ = [
    "BoundParams",
    "VerificationReport",
    "binary_reference_bound",
    "convexity_chain_gap",
    "effective_n",
    "report_to_dict",
    "theorem_constants",
    "verify_theorem",
]

_SLACK = 1e-12

# largest finite exponent for math.exp
_EXP_MAX = 709.0


class BoundParams(NamedTuple):
    """Constants of the approximation bound at one (n, k, m) point."""

    n: int
    k: int
    m: int
    alpha: float
    delta: float
    epsilon: float
    vacuous: bool
    in_validity_range: bool


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


def effective_n(n: int, k: int) -> int:
    """Longest prefix length divisible by k: k * floor(n / k)."""
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    return k * (n // k)


def binary_reference_bound(n: int, k: int) -> float:
    """Earlier two-symbol comparison bound 5 k^2 log(n) / (n - k)."""
    if not 1 <= k < n:
        raise ValueError(f"need 1 <= k < n, got k={k}, n={n}")
    return 5.0 * k * k * math.log(n) / (n - k)


class VerificationReport(NamedTuple):
    m: int
    n: int
    k: int
    params: BoundParams
    divergence: float
    holds: bool
    effective_n: int
    remark_adjusted: bool
    binary_reference: float | None


def verify_theorem(law: ExchangeableLaw, k: int) -> VerificationReport:
    """Check D(P_k || M_k) <= epsilon for one law and block length.

    P_k is the k-coordinate marginal; M_k mixes i.i.d. blocks over the
    empirical histogram of the first n_eff = effective_n(n, k) draws, and the
    constants are taken at n_eff.  Both come exactly from one pass over the
    law (`block_laws`), and only the final divergence is a float.  For k = 1
    the two sides coincide and the divergence is exactly zero.
    """
    if not 1 <= k <= law.n:
        raise ValueError(f"k must lie in 1..{law.n}, got {k}")
    n_eff = effective_n(law.n, k)
    divergence = relative_entropy(*block_laws(law, k, n_eff))
    params = theorem_constants(n_eff, k, law.m)
    holds = divergence <= params.epsilon + _SLACK
    reference = (
        binary_reference_bound(n_eff, k) if law.m == 2 and k < n_eff else None
    )
    return VerificationReport(
        m=law.m,
        n=law.n,
        k=k,
        params=params,
        divergence=divergence,
        holds=holds,
        effective_n=n_eff,
        remark_adjusted=n_eff != law.n,
        binary_reference=reference,
    )


def convexity_chain_gap(
    law: ExchangeableLaw, k: int, cap: int | None = None
) -> tuple[float, float, float]:
    """The three nondecreasing stages of the mixture approximation argument.

    stage1 = D(P_k || M_k); stage2 averages, over histograms, the divergence
    of the conditional block law from the i.i.d. law of the histogram's pmf;
    stage3 averages the conditional mean divergence of a random block
    histogram instead.  stage1 <= stage2 by joint convexity of relative
    entropy in both arguments, stage2 <= stage3 by convexity in the first.
    Requires k | n so the block decomposition is exact.
    """
    if law.n % k != 0:
        raise ValueError(f"k={k} must divide n={law.n}")
    ell = law.n // k
    report = verify_theorem(law, k)
    stage1 = report.divergence
    stage2 = 0.0
    stage3 = 0.0
    for t, w in zip(law.types, law.type_weights):
        if not w:
            continue
        weight = float(w)
        q = type_to_pmf(t)
        block = conditional_block_law(t, k)
        stage2 += weight * relative_entropy(block, power_pmf(q, k))
        stage3 += weight * conditional_mean_divergence(t, k, ell, cap=cap).value
    if not (stage1 <= stage2 + _SLACK and stage2 <= stage3 + _SLACK):
        raise AssertionError(
            f"convexity chain violated: {stage1} <= {stage2} <= {stage3} expected"
        )
    return stage1, stage2, stage3


def report_to_dict(report: VerificationReport) -> dict:
    """Flat JSON-ready view of a verification report."""
    out = {
        "n": report.n,
        "k": report.k,
        "m": report.m,
        "alpha": report.params.alpha,
        "delta": report.params.delta,
        "epsilon": report.params.epsilon,
        "divergence": report.divergence,
        "holds": report.holds,
        "valid_range": report.params.in_validity_range,
        "effective_n": report.effective_n,
        "binary_reference": report.binary_reference,
        "vacuous": report.params.vacuous,
    }
    return out
