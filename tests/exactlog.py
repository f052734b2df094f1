"""Exact zero tests for rational combinations of logarithms: the test oracle.

The package certifies the Pythagorean identity of its constraint sets by an
integer residual on counts, through a lemma.  This module is the independent
check: it certifies the identities term by term in a prime basis, from the
pmfs alone, without that lemma.

A value of the form sum_i c_i * log(x_i), with rational coefficients c_i and
positive rational arguments x_i, is determined by the map prime -> exponent
coefficient obtained from the factorizations of the numerators and
denominators of the x_i.  Two such combinations are equal iff the maps agree,
so identities between entropies and relative entropies of rational pmfs can
be certified with no floating point at all.  A combination keeps its
exponents as integer numerators over one common denominator, the lcm of the
coefficient denominators it has seen.

Integers are factored by cached trial division, which takes about
sqrt(largest prime factor) steps per new integer.  Arguments in this codebase
are ratios of products of counts, alphabet sizes and weight denominators, so
their prime factors are at most max(n, l, m^k), a few hundred steps at desk
scale; a pmf with a prime near 10^12 in a denominator would cost about 10^6
steps.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Union

Rational = Union[int, Fraction]

__all__ = [
    "LogCombination",
    "entropy_combination",
    "prime_basis_gaps",
    "relative_entropy_combination",
]


@lru_cache(maxsize=None)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as sorted (prime, exponent) pairs."""
    factors = []
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            factors.append((p, e))
        p += 1 if p == 2 else 2
    if n > 1:
        factors.append((n, 1))
    return tuple(factors)


class LogCombination:
    """Mutable accumulator for sum_i c_i * log(x_i) in exact form.

    The coefficient of log(prime) is `_exp[prime] / _den`; zero coefficients
    are never stored.
    """

    __slots__ = ("_exp", "_den")

    def __init__(self) -> None:
        self._exp: dict[int, int] = {}
        self._den = 1

    def _scale_for(self, den: int) -> int:
        """Make den divide the common denominator; the factor onto it from den."""
        if self._den % den:
            grow = den // math.gcd(self._den, den)
            self._exp = {p: e * grow for p, e in self._exp.items()}
            self._den *= grow
        return self._den // den

    def _bump(self, prime: int, delta: int) -> None:
        cur = self._exp.get(prime, 0) + delta
        if cur:
            self._exp[prime] = cur
        else:
            self._exp.pop(prime, None)

    def add(self, coeff: Rational, value: Rational) -> None:
        """Accumulate coeff * log(value); value must be a positive rational."""
        value = Fraction(value)
        if value <= 0:
            raise ValueError(f"log argument must be positive, got {value}")
        self._add_ratio(Fraction(coeff), (value.numerator,), (value.denominator,))

    def _add_ratio(self, coeff: Fraction, above: tuple[int, ...], below: tuple[int, ...]) -> None:
        """Accumulate coeff * log(prod(above) / prod(below)) for positive integers."""
        if coeff == 0:
            return
        scale = coeff.numerator * self._scale_for(coeff.denominator)
        for sign, factors in ((scale, above), (-scale, below)):
            for n in factors:
                for prime, e in _factor(n):
                    self._bump(prime, sign * e)

    def add_combination(self, other: "LogCombination", factor: Rational = 1) -> None:
        """Accumulate factor * other."""
        factor = Fraction(factor)
        terms, den = list(other._exp.items()), other._den  # other may be self
        scale = factor.numerator * self._scale_for(den * factor.denominator)
        for prime, e in terms:
            self._bump(prime, scale * e)

    def is_zero(self) -> bool:
        return not self._exp

    def equals(self, other: "LogCombination") -> bool:
        if self._exp.keys() != other._exp.keys():
            return False
        return all(e * other._den == other._exp[p] * self._den for p, e in self._exp.items())

    def value(self) -> float:
        # int / int rounds correctly, so each term is float(Fraction(e, den))
        return math.fsum(e / self._den * math.log(p) for p, e in self._exp.items())


def relative_entropy_combination(p_probs, q_probs) -> LogCombination:
    """D(P || Q) as an exact log combination; requires rational entries and P << Q."""
    comb = LogCombination()
    for p, q in zip(p_probs, q_probs):
        p = Fraction(p)
        if p == 0:
            continue
        q = Fraction(q)
        if q == 0:
            raise ValueError("relative entropy is infinite; no finite exact form")
        comb._add_ratio(p, (p.numerator, q.denominator), (p.denominator, q.numerator))
    return comb


def entropy_combination(p_probs) -> LogCombination:
    """H(P) as an exact log combination for rational entries."""
    comb = LogCombination()
    for p in p_probs:
        p = Fraction(p)
        if p:
            comb._add_ratio(-p, (p.numerator,), (p.denominator,))
    return comb


def prime_basis_gaps(w, q, k: int) -> tuple[LogCombination, LogCombination]:
    """Both identity gaps of a block pmf w and a pmf q on A^k, exactly.

    (D(W||U) - D(W||Q^k) - D(Q^k||U), D(W||Q^k) - (k*H(Q) - H(W))) as log
    combinations, from the pmfs alone: both are zero for a member of the
    constraint set.  w and q are sequences of rationals, and W << Q^k.
    """
    from oracles import Pmf, oracle_power_pmf

    qk = oracle_power_pmf(Pmf(tuple(q)), k).probs
    uniform = [Fraction(1, len(qk))] * len(qk)
    pythagoras = relative_entropy_combination(w, uniform)
    pythagoras.add_combination(relative_entropy_combination(w, qk), -1)
    pythagoras.add_combination(relative_entropy_combination(qk, uniform), -1)
    entropy_form = relative_entropy_combination(w, qk)
    entropy_form.add_combination(entropy_combination(q), -k)
    entropy_form.add_combination(entropy_combination(w))
    return pythagoras, entropy_form
