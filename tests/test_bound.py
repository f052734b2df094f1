"""Approximation-bound constants and the end-to-end verification reports."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetti.bound import BoundParams, theorem_constants
from finetti.counts import TypeVector
from finetti.definetti import (
    binary_reference_bound,
    convexity_chain_gap,
    effective_n,
    verify_theorem,
)
from finetti.exchangeable import (
    delta_type_law,
    iid_law,
    polya_urn_law,
    random_type_weight_law,
)
from oracles import Pmf


def test_constants_frozen_point_k1():
    p = theorem_constants(100, 1, 2)
    assert p.alpha == pytest.approx(math.sqrt(0.26), abs=1e-15)
    assert p.alpha == pytest.approx(0.5099019513592785, abs=1e-15)
    assert p.delta == pytest.approx(0.6968748408081162, abs=1e-12)
    # tail is ~2.6e-22, invisible at this scale
    assert p.epsilon == pytest.approx(1.3937496816162325, abs=1e-12)
    assert p.in_validity_range  # 1 <= (100/100)^(1/3)
    assert not p.vacuous


def test_constants_frozen_point_k2():
    p = theorem_constants(800, 2, 2)
    assert p.alpha == pytest.approx(0.40794773713958693, abs=1e-14)
    assert p.delta == pytest.approx(0.9313082007763293, abs=1e-13)
    assert p.epsilon == pytest.approx(1.8626164015526585, abs=1e-12)
    assert p.in_validity_range  # 2 = (800/100)^(1/3) exactly
    p2 = theorem_constants(400, 2, 2)
    assert p2.alpha == pytest.approx(0.5, abs=1e-15)
    assert not p2.in_validity_range


def test_constants_tail_term_value():
    # at n=100, k=1, m=2 the tail is k e^{-n delta} (n+1)^4 log n
    p = theorem_constants(100, 1, 2)
    tail = math.exp(-100 * p.delta) * 101**4 * math.log(100)
    assert p.epsilon - 2 * p.delta == pytest.approx(tail, rel=1e-9)
    assert tail == pytest.approx(2.604e-22, rel=1e-3)


def test_epsilon_at_least_two_delta():
    for n in (10, 50, 200, 1000):
        for k in (1, 2, 3):
            if k > n:
                continue
            p = theorem_constants(n, k, 2)
            assert p.epsilon >= 2 * p.delta


@given(st.integers(2, 4), st.integers(1, 3), st.integers(1, 60))
@settings(max_examples=60)
def test_constants_positive(m, k, scale):
    n = k * scale + k  # any n >= k
    p = theorem_constants(n, k, m)
    assert p.alpha > 0
    # delta can go negative at tiny n (alpha > m^k); the bound is then
    # useless but the invariant epsilon >= 2 delta still holds
    assert p.vacuous or p.epsilon >= 2 * p.delta


def test_epsilon_decreases_down_the_n_grid():
    # with k and m fixed the bound shrinks as n grows (desk-scale grid)
    values = [theorem_constants(n, 2, 2).epsilon for n in (200, 400, 800, 1600, 3200)]
    assert values == sorted(values, reverse=True)


def test_epsilon_monotone_on_validity_grid():
    # numeric check, not a theorem: nonincreasing in n at fixed k, m
    # over the stated range n >= 100 k^3
    grids = {1: (100, 150, 220, 400, 800), 2: (800, 1200, 1600, 3200), 3: (2700, 5400, 10800)}
    for k, grid in grids.items():
        for m in (2, 3):
            params = [theorem_constants(n, k, m) for n in grid]
            assert all(p.in_validity_range for p in params)
            vals = [p.epsilon for p in params]
            assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_k1_exact_on_round_lengths():
    q = Pmf((Fraction(1, 2), Fraction(1, 2)))
    for n in (100, 200, 400, 800):
        rep = verify_theorem(iid_law(q, n), 1)
        assert rep.divergence == 0.0 and rep.holds


def test_binary_reference_below_epsilon_at_desk_point():
    assert binary_reference_bound(800, 2) < theorem_constants(800, 2, 2).epsilon


def test_vacuous_saturation():
    # at tiny n and large k the tail overflows and saturates to +inf
    p = theorem_constants(8, 8, 4)
    assert p.vacuous
    assert p.epsilon == math.inf
    # a huge-but-representable tail stays finite and non-vacuous
    p2 = theorem_constants(4, 4, 4)
    assert not p2.vacuous
    assert p2.epsilon == pytest.approx(5.2952539212438046e146, rel=1e-9)


def test_constants_validation():
    with pytest.raises(ValueError):
        theorem_constants(2, 3, 2)
    with pytest.raises(ValueError):
        theorem_constants(10, 0, 2)
    with pytest.raises(ValueError):
        theorem_constants(10, 1, 1)


def test_effective_n():
    assert effective_n(803, 2) == 802
    assert effective_n(800, 2) == 800
    assert effective_n(10, 3) == 9
    with pytest.raises(ValueError):
        effective_n(2, 3)


def test_binary_reference_values():
    # 5 k^2 log(n) / (n - k) at (800, 2)
    want = 5 * 4 * math.log(800) / 798
    assert binary_reference_bound(800, 2) == pytest.approx(want, abs=1e-15)
    assert binary_reference_bound(800, 2) == pytest.approx(
        0.1675341285129806, abs=1e-13
    )
    with pytest.raises(ValueError):
        binary_reference_bound(5, 5)


# ---------------------------------------------------------------------------
# verification reports
# ---------------------------------------------------------------------------


def test_verify_fair_coin_holds():
    law = iid_law(Pmf((Fraction(1, 2), Fraction(1, 2))), 12)
    rep = verify_theorem(law, 2)
    assert rep.holds
    assert rep.divergence >= 0.0
    assert rep.effective_n == 12
    assert rep.effective_n == rep.n


def test_verify_k1_is_exact_zero():
    for seed in (0, 1):
        law = random_type_weight_law(2, 9, seed)
        rep = verify_theorem(law, 1)
        assert rep.divergence == 0.0
        assert rep.holds


def test_verify_remark_adjustment():
    law = iid_law(Pmf((Fraction(1, 2), Fraction(1, 2))), 9)
    rep = verify_theorem(law, 2)
    assert rep.effective_n != rep.n
    assert rep.effective_n == 8
    assert rep.n == 9
    assert rep.epsilon == pytest.approx(theorem_constants(8, 2, 2).epsilon)


def test_verify_delta_law_divergence_value():
    # point mass on a single histogram: P_k vs the iid mixture of its pmf
    law = delta_type_law(TypeVector((2, 2)))
    rep = verify_theorem(law, 2)
    # P_2(00) = (2/4)(1/3), mixture(00) = 1/4: direct evaluation
    want = (
        2 * Fraction(1, 6) * math.log(Fraction(1, 6) / Fraction(1, 4))
        + 2 * Fraction(1, 3) * math.log(Fraction(1, 3) / Fraction(1, 4))
    )
    assert rep.divergence == pytest.approx(float(want), abs=1e-12)


def test_verify_binary_reference_presence():
    law2 = iid_law(Pmf((Fraction(1, 2), Fraction(1, 2))), 10)
    assert verify_theorem(law2, 2).binary_reference is not None
    law3 = random_type_weight_law(3, 6, 0)
    assert verify_theorem(law3, 2).binary_reference is None


def test_report_dict_schema():
    law = iid_law(Pmf((Fraction(1, 2), Fraction(1, 2))), 10)
    rep = verify_theorem(law, 2)
    d = rep._asdict()
    assert set(d) == {
        "n",
        "k",
        "m",
        "alpha",
        "delta",
        "epsilon",
        "divergence",
        "holds",
        "valid_range",
        "effective_n",
        "binary_reference",
        "vacuous",
    }
    assert d["n"] == 10 and d["k"] == 2 and d["m"] == 2
    assert isinstance(d["holds"], bool)


def test_verify_rejects_bad_k():
    law = iid_law(Pmf((Fraction(1, 2), Fraction(1, 2))), 6)
    with pytest.raises(ValueError):
        verify_theorem(law, 0)
    with pytest.raises(ValueError):
        verify_theorem(law, 7)


# ---------------------------------------------------------------------------
# the convexity chain
# ---------------------------------------------------------------------------


def test_convexity_chain_orders_stages():
    law = polya_urn_law((1, 1), 8)
    stage1, stage2, stage3 = convexity_chain_gap(law, 2)
    assert stage1 <= stage2 + 1e-12
    assert stage2 <= stage3 + 1e-12
    assert stage1 == pytest.approx(verify_theorem(law, 2).divergence, abs=1e-12)


def test_convexity_chain_requires_divisibility():
    law = polya_urn_law((1, 1), 9)
    with pytest.raises(ValueError):
        convexity_chain_gap(law, 2)
