"""Entropy, divergence, Pinsker, and the L1 continuity of entropy."""

from __future__ import annotations

import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetti.info_measures import (
    entropy,
    l1_distance,
    max_abs_deviation,
    pinsker_gap,
    relative_entropy,
)


def random_pmf(rng: random.Random, m: int) -> tuple[float, ...]:
    w = [rng.random() + 1e-9 for _ in range(m)]
    s = sum(w)
    return tuple(x / s for x in w)


def test_entropy_spot_values():
    assert entropy((Fraction(1, 2), Fraction(1, 2))) == pytest.approx(math.log(2))
    assert entropy((Fraction(1), Fraction(0))) == 0.0
    assert entropy((0.25,) * 4) == pytest.approx(math.log(4))


def test_entropy_handles_big_rationals():
    # denominators beyond float range must not overflow
    big = 10**300
    p = (Fraction(1, big), Fraction(big - 1, big))
    h = entropy(p)
    # H = (log(big) + 1 + o(1)) / big, comfortably inside float range
    assert h == pytest.approx((math.log(big) + 1) / big, rel=1e-6)


def test_relative_entropy_zero_iff_equal():
    p = (Fraction(1, 3), Fraction(2, 3))
    assert relative_entropy(p, p) == 0.0
    q = (Fraction(1, 2), Fraction(1, 2))
    assert relative_entropy(p, q) > 0.0


def test_relative_entropy_infinite_off_support():
    p = (0.5, 0.5)
    q = (1.0, 0.0)
    assert relative_entropy(p, q) == math.inf


def test_divergence_against_uniform_is_log_m_minus_entropy():
    rng = random.Random(4)
    for m in (2, 3, 5):
        p = random_pmf(rng, m)
        u = tuple(1.0 / m for _ in range(m))
        assert relative_entropy(p, u) == pytest.approx(
            math.log(m) - entropy(p), abs=1e-12
        )


@given(st.integers(2, 16), st.integers(0, 2**30))
@settings(max_examples=300)
def test_pinsker_gap_nonnegative(m, seed):
    rng = random.Random(seed)
    p, q = random_pmf(rng, m), random_pmf(rng, m)
    assert pinsker_gap(p, q) >= -1e-12


def test_pinsker_tight_case_is_still_nonnegative():
    # the nats-form constant 1/2 survives where the bits-form constant fails
    p = (1.0, 0.0)
    q = (0.5, 0.5)
    d = relative_entropy(p, q)
    assert d == pytest.approx(math.log(2))
    assert d >= 0.5 * l1_distance(p, q) ** 2
    # the same pair would violate D >= (1/(2 log 2)) * L1^2 read in nats
    assert d < (1.0 / (2 * math.log(2))) * l1_distance(p, q) ** 2


def test_distances():
    p = (Fraction(1, 2), Fraction(1, 2))
    q = (Fraction(1, 4), Fraction(3, 4))
    assert l1_distance(p, q) == pytest.approx(0.5)
    assert max_abs_deviation(p, q) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        l1_distance(p, (Fraction(1),))


# ---------------------------------------------------------------------------
# continuity of entropy in the deviation
# ---------------------------------------------------------------------------


def continuity_bound(deviation: float, support_size: int) -> float:
    """-d * log(d / N): the entropy modulus of continuity at L1 deviation d < 1/2."""
    return -deviation * math.log(deviation / support_size)


@given(st.integers(2, 8), st.integers(0, 2**30))
@settings(max_examples=300)
def test_entropy_continuity_holds_for_l1(m, seed):
    """|H(P) - H(Q)| <= -d log(d/N) with d the L1 distance, d < 1/2."""
    rng = random.Random(seed)
    p, q = random_pmf(rng, m), random_pmf(rng, m)
    d = l1_distance(p, q)
    if not 0.0 < d < 0.5:
        return
    gap = abs(entropy(p) - entropy(q))
    assert gap <= continuity_bound(d, m) + 1e-12


def test_entropy_continuity_fails_for_max_deviation():
    """The same bound read with the max-abs deviation is false.

    P = (1, 0), Q = (0.9, 0.1): max deviation 0.1, entropy gap 0.325,
    bound -0.1 log(0.1/2) = 0.2996.  So only the L1 form is asserted
    anywhere in the package; results report both deviations.
    """
    p = (1.0, 0.0)
    q = (0.9, 0.1)
    dev = max_abs_deviation(p, q)
    assert dev == pytest.approx(0.1)
    gap = abs(entropy(p) - entropy(q))
    bound = continuity_bound(dev, 2)
    assert gap == pytest.approx(0.3250829733914482, abs=1e-12)
    assert bound == pytest.approx(0.29957322735539907, abs=1e-12)
    assert gap > bound
    # and the L1 reading stays true on the same pair: d = 0.2
    assert gap <= continuity_bound(l1_distance(p, q), 2)
