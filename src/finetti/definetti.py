"""Finite mixture approximation for exchangeable laws, with explicit constants.

For an exchangeable law on A^n and block length k, the k-coordinate marginal
is compared against the mixture of i.i.d. laws drawn from the empirical
histogram distribution.  The divergence between the two is bounded by an
explicit epsilon(n, k) built from the deviation constant alpha and the margin
delta = alpha * log(m^k / alpha); the bound is meaningful for
1 <= k <= (n/100)^(1/3) and is reported (flagged) outside that range.  When k
does not divide n, the mixture is taken over the histogram of the longest
prefix of length divisible by k; it comes from the k-marginal alone, as a
Stirling transform, so the law is never restricted.  The constants come
from `finetti.bound`, the convexity chain's lattice mean from `finetti.dbound`.
"""

from __future__ import annotations

import math
from collections import namedtuple

from .bound import theorem_constants

__all__ = [
    "VerificationReport",
    "binary_reference_bound",
    "convexity_chain_gap",
    "effective_n",
    "verify_grid",
    "verify_theorem",
]

_SLACK = 1e-12


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


class VerificationReport(
    namedtuple(
        "VerificationReport",
        "n k m alpha delta epsilon divergence holds valid_range effective_n "
        "binary_reference vacuous",
    )
):
    """One verified (law, k) cell: the row `verify` prints, its fields in the CSV column order."""

    __slots__ = ()


def verify_grid(law: UrnLaw, ks) -> list[VerificationReport]:
    """Check D(P_k || M_k) <= epsilon for one law at each block length of ks, in order.

    P_k is the k-coordinate marginal; M_k mixes i.i.d. blocks over the
    empirical histogram of the first n_eff = effective_n(n, k) draws, and the
    constants are taken at n_eff.  Each k is checked in grid order first, so
    the first k that fails names the error: its range, its m^k cells against
    the cap, its constants.  Then one kernel pass at the largest k over the
    law's urns gives every P_k and M_k exactly (`block_laws`), one numerator
    per k-histogram, and only the divergence over the m^k cells is a float.
    For k = 1 the two sides coincide and the divergence is zero.
    """
    # only verify runs the urn kernel, so a script that reads the reference bound skips it
    from .counts import divergence_of_numerators
    from .exchangeable import block_laws
    from .types_core import cell_index

    cells = []
    for k in ks:
        if not 1 <= k <= law.n:
            raise ValueError(f"k must lie in 1..{law.n}, got {k}")
        n_eff = effective_n(law.n, k)
        cells.append((k, n_eff, cell_index(law.m, k), theorem_constants(n_eff, k, law.m)))
    laws = block_laws(law, [(k, n_eff) for k, n_eff, _, _ in cells])
    reports = []
    for (k, n_eff, index, params), (p_k, m_k) in zip(cells, laws):
        divergence = divergence_of_numerators(*p_k, *m_k, index)
        reference = binary_reference_bound(n_eff, k) if law.m == 2 and k < n_eff else None
        reports.append(
            VerificationReport(
                n=law.n,
                k=k,
                m=law.m,
                alpha=params.alpha,
                delta=params.delta,
                epsilon=params.epsilon,
                divergence=divergence,
                holds=divergence <= params.epsilon + _SLACK,
                valid_range=params.in_validity_range,
                effective_n=n_eff,
                binary_reference=reference,
                vacuous=params.vacuous,
            )
        )
    return reports


def verify_theorem(law: UrnLaw, k: int) -> VerificationReport:
    """`verify_grid` at the one block length k."""
    return verify_grid(law, (k,))[0]


def convexity_chain_gap(law: UrnLaw, k: int) -> tuple[float, float, float]:
    """The three nondecreasing stages of the mixture approximation argument.

    stage1 = D(P_k || M_k); stage2 averages, over the law's n-histograms
    (`histogram_law`), the divergence of the conditional block law from the
    i.i.d. law of the histogram's pmf; stage3 averages the conditional mean
    divergence of a random block histogram instead.  stage1 <= stage2 by
    joint convexity of relative entropy in both arguments, stage2 <= stage3
    by convexity in the first.
    Requires k | n so the block decomposition is exact.
    """
    # only this chain needs the block laws and the lattice walk, so verify skips them
    from .counts import divergence_of_numerators
    from .dbound import conditional_mean_divergence
    from .exchangeable import histogram_law
    from .gibbs import conditional_block_law
    from .types_core import cell_index, type_list, urn_numerators

    if law.n % k != 0:
        raise ValueError(f"k={k} must divide n={law.n}")
    ell = law.n // k
    stage1 = verify_theorem(law, k).divergence
    stage2 = stage3 = 0.0
    cells = cell_index(law.m, k)
    weights, den = histogram_law(law)
    for t, w in zip(type_list(law.m, law.n), weights):
        if not w:
            continue
        weight = w / den
        # the block law given t, the urn t at -1, against the i.i.d. law of t/n, at 0
        product = urn_numerators(((t.counts, 1),), k, 0)
        stage2 += weight * divergence_of_numerators(*conditional_block_law(t, k), *product, cells)
        stage3 += weight * conditional_mean_divergence(t, k, ell).value
    if not (stage1 <= stage2 + _SLACK and stage2 <= stage3 + _SLACK):
        raise AssertionError(
            f"convexity chain violated: {stage1} <= {stage2} <= {stage3} expected"
        )
    return stage1, stage2, stage3

