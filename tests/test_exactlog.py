"""Symbolic certificates for identities between sums of logarithms."""

from __future__ import annotations

import math
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetti.exactlog import (
    LogCombination,
    _factor,
    entropy_combination,
    relative_entropy_combination,
)
from finetti.info_measures import entropy, relative_entropy


def test_log_laws_certified():
    # log 6 = log 2 + log 3, as a statement about exponent maps
    combo = LogCombination()
    combo.add(1, 6)
    combo.add(-1, 2)
    combo.add(-1, 3)
    assert combo.is_zero()


def test_power_and_root():
    combo = LogCombination()
    combo.add(Fraction(1, 2), 49)   # (1/2) log 49 = log 7
    combo.add(-1, 7)
    assert combo.is_zero()


def test_nonidentity_is_detected():
    combo = LogCombination()
    combo.add(1, 2)
    combo.add(-1, 3)
    assert not combo.is_zero()


def test_rational_values():
    combo = LogCombination()
    combo.add(1, Fraction(2, 3))
    combo.add(1, 3)
    combo.add(-1, 2)
    assert combo.is_zero()


@given(
    st.lists(
        st.tuples(st.integers(-4, 4), st.integers(2, 60)), min_size=1, max_size=6
    )
)
@settings(max_examples=80)
def test_value_matches_float_log(terms):
    combo = LogCombination()
    expected = 0.0
    for coeff, x in terms:
        combo.add(coeff, x)
        expected += coeff * math.log(x)
    assert combo.value() == pytest.approx(expected, abs=1e-9)


def test_combination_equality():
    a = LogCombination()
    a.add(2, 6)
    b = LogCombination()
    b.add(2, 2)
    b.add(2, 3)
    assert a.equals(b)
    b.add(1, 5)
    assert not a.equals(b)


def test_add_combination_with_factor():
    a = LogCombination()
    a.add(1, 8)
    b = LogCombination()
    b.add(1, 2)
    a.add_combination(b, -3)  # log 8 - 3 log 2 = 0
    assert a.is_zero()


def test_entropy_combination_matches_float():
    p = (Fraction(1, 4), Fraction(1, 4), Fraction(1, 2))
    combo = entropy_combination(p)
    assert combo.value() == pytest.approx(entropy(p), abs=1e-12)


def test_relative_entropy_combination_matches_float():
    p = (Fraction(1, 3), Fraction(2, 3))
    q = (Fraction(3, 4), Fraction(1, 4))
    combo = relative_entropy_combination(p, q)
    assert combo.value() == pytest.approx(relative_entropy(p, q), abs=1e-12)


def test_relative_entropy_combination_rejects_support_violation():
    p = (Fraction(1, 2), Fraction(1, 2))
    q = (Fraction(1), Fraction(0))
    with pytest.raises(ValueError):
        relative_entropy_combination(p, q)


def test_zero_coefficients_drop_out():
    combo = LogCombination()
    combo.add(1, 12)
    combo.add(-1, 12)
    combo.add(0, 5)
    assert combo.is_zero()
    assert combo.value() == 0.0


# ---------------------------------------------------------------------------
# trial-division factoring against sympy, which the package no longer imports
# ---------------------------------------------------------------------------


def _sympy_factor(n):
    from sympy import factorint

    return tuple(sorted(factorint(n).items()))


def test_factor_matches_sympy_up_to_5000():
    for n in range(1, 5001):
        assert _factor(n) == _sympy_factor(n), n


def test_factor_matches_sympy_on_large_primes_and_powers():
    near = [9973, 10007, 10009, 10037]  # primes around 10^4
    cases = [p * r for p in near for r in near] + [p**3 for p in near]
    cases += [100**3, 2**40, 3**25 * 7**4, 60**5, 9973 * 2**10 * 3**5, 49_999_991]
    for n in cases:
        assert _factor(n) == _sympy_factor(n), n


def test_cli_certificate_does_not_import_sympy():
    code = (
        "import sys; from finetti.cli import main; "
        "rc = main(['lemma', 'pythagoras', '--q', '4,4', '--k', '2']); "
        "print('sympy' in sys.modules, rc)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False 0"


# ---------------------------------------------------------------------------
# integer numerators over one denominator against Fraction exponents
# ---------------------------------------------------------------------------


class FractionLogCombination:
    """Reference: one Fraction exponent per prime, as the map was first kept."""

    def __init__(self):
        self.exp = {}

    def _bump(self, prime, delta):
        cur = self.exp.get(prime, Fraction(0)) + delta
        if cur:
            self.exp[prime] = cur
        else:
            self.exp.pop(prime, None)

    def add(self, coeff, value):
        value, coeff = Fraction(value), Fraction(coeff)
        if coeff == 0 or value == 1:
            return
        for prime, e in _sympy_factor(value.numerator):
            self._bump(prime, coeff * e)
        for prime, e in _sympy_factor(value.denominator):
            self._bump(prime, -coeff * e)

    def add_combination(self, other, factor=1):
        for prime, coeff in other.exp.items():
            self._bump(prime, Fraction(factor) * coeff)


def _exponents(combo):
    return {p: Fraction(e, combo._den) for p, e in combo._exp.items()}


_coeffs = st.builds(
    Fraction,
    st.integers(-7, 7),
    st.sampled_from([1, 2, 3, 6, 4, 5, 7, 12, 30]),
)
_values = st.builds(Fraction, st.integers(1, 400), st.integers(1, 400))
_terms = st.lists(st.tuples(_coeffs, _values), max_size=6)


@given(_terms, _terms, _coeffs, _terms)
@settings(max_examples=150, deadline=None)
def test_integer_exponents_match_fraction_reference(first, second, factor, third):
    got = [LogCombination() for _ in range(3)]
    want = [FractionLogCombination() for _ in range(3)]
    for terms, g, w in zip((first, second, third), got, want):
        for coeff, value in terms:
            g.add(coeff, value)
            w.add(coeff, value)
    for g, w in ((got[0], want[0]), (got[2], want[2])):
        g.add_combination(got[1], factor)
        w.add_combination(want[1], factor)
    for g, w in zip(got, want):
        assert _exponents(g) == w.exp
        assert g.is_zero() == (not w.exp)
        assert g.value() == math.fsum(float(c) * math.log(p) for p, c in w.exp.items())
    assert got[0].equals(got[2]) == (want[0].exp == want[2].exp)
    # a combination minus itself, rescaled through another denominator, is zero
    got[0].add_combination(got[0], Fraction(-1))
    assert got[0].is_zero()


@given(_terms, st.integers(1, 60))
@settings(max_examples=60, deadline=None)
def test_equal_combinations_over_different_denominators(terms, ell):
    # the same sum built with coefficients over 1/l and 1/(2l) compares equal
    a, b = LogCombination(), LogCombination()
    for coeff, value in terms:
        a.add(coeff, value)
        b.add(coeff / (2 * ell), value)
        b.add(coeff / (2 * ell), value)
        b.add(coeff * (1 - Fraction(1, ell)), value)
    assert a.equals(b) and b.equals(a)
    b.add(Fraction(1, ell), 2)
    assert not a.equals(b)
