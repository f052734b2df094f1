"""Conditional block laws and their convergence traces."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetti.counts import TypeVector, all_strings
from finetti.gibbs import (
    TracePoint,
    conditional_block_law,
    convergence_trace,
    round_to_type,
    trace_to_csv,
)
from finetti.counts import pmf_numerators
from finetti.types_core import type_list
from oracles import Pmf, max_abs_deviation, oracle_power_pmf, relative_entropy, spread, type_to_pmf


def block_pmf(t: TypeVector, k: int) -> Pmf:
    """The conditional block law's numerators, spread over A^k."""
    return spread(t.m, k, *conditional_block_law(t, k))


def test_conditional_block_law_smallest():
    # blocks of 2 drawn without replacement from the bag {0,0,1,1}
    t = TypeVector((2, 2))
    law = block_pmf(t, 2)
    assert law.probs == (
        Fraction(1, 6),
        Fraction(1, 3),
        Fraction(1, 3),
        Fraction(1, 6),
    )


def test_conditional_block_law_sums_to_one():
    t = TypeVector((3, 2, 1))
    law = block_pmf(t, 2)
    assert sum(law.probs) == 1


def test_conditional_block_law_matches_direct_count():
    # count ordered k-tuples drawn from the bag directly
    t = TypeVector((3, 1))
    k = 2
    law = block_pmf(t, k)
    for i, s in enumerate(all_strings(t.m, k)):
        remaining = list(t.counts)
        p = Fraction(1)
        for a in s:
            p *= Fraction(remaining[a], sum(remaining))
            remaining[a] = max(remaining[a] - 1, 0)
        assert law.probs[i] == p


def oracle_round_to_type(p: Pmf, n: int) -> tuple[int, ...]:
    """Largest remainder in Fractions: floors of p*n, the rest to the largest fractional parts."""
    scaled = [x * n for x in p]
    floors = [int(x) for x in scaled]
    order = sorted(range(len(p)), key=lambda i: (-(scaled[i] - floors[i]), i))
    for i in order[: n - sum(floors)]:
        floors[i] += 1
    return tuple(floors)


def test_round_to_type_largest_remainder():
    p = Pmf((Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
    t = round_to_type(pmf_numerators(p), 4)
    assert t.counts == (2, 1, 1)  # ties broken toward the lowest index
    assert t.n == 4
    with pytest.raises(ValueError, match="must be exact rationals"):
        pmf_numerators((0.5, 0.3, 0.2))
    q = Pmf((Fraction(1, 2), Fraction(3, 10), Fraction(1, 5)))
    assert round_to_type(pmf_numerators(q), 10).counts == (5, 3, 2)
    # the integer rule against the Fraction one, ties and zeros included
    for p in (q, Pmf((0, Fraction(1, 7), Fraction(6, 7))), Pmf((Fraction(1, 4),) * 4)):
        for n in range(1, 30):
            assert round_to_type(pmf_numerators(p), n).counts == oracle_round_to_type(p, n), (p, n)


def test_round_to_type_is_exact_on_lattice_points():
    p = Pmf((Fraction(3, 8), Fraction(5, 8)))
    assert round_to_type(pmf_numerators(p), 8).counts == (3, 5)


def test_trace_frozen_values():
    target = Pmf((Fraction(1, 2), Fraction(1, 2)))
    tr = convergence_trace(pmf_numerators(target), 2, (4, 16, 64, 256))
    got = {p.n: p.divergence for p in tr}
    assert got[4] == pytest.approx(0.05663301226513234, abs=1e-12)
    assert got[16] == pytest.approx(0.002223871246127135, abs=1e-12)
    assert got[64] == pytest.approx(0.00012598160699646768, abs=1e-12)
    assert got[256] == pytest.approx(7.689369959000894e-06, abs=1e-12)


def test_trace_value_closed_form_smallest():
    # n=4: D( block law of (2,2) || (1/2,1/2)^2 )
    want = (1 / 3) * math.log(2 / 3) + (2 / 3) * math.log(4 / 3)
    target = Pmf((Fraction(1, 2), Fraction(1, 2)))
    tr = convergence_trace(pmf_numerators(target), 2, (4,))
    assert tr[0].divergence == pytest.approx(want, abs=1e-12)


def test_trace_is_decreasing_toward_zero():
    target = Pmf((Fraction(1, 3), Fraction(2, 3)))
    tr = convergence_trace(pmf_numerators(target), 2, (6, 12, 48, 192))
    ds = [p.divergence for p in tr]
    assert all(a > b for a, b in zip(ds, ds[1:]))
    assert ds[-1] < 0.01


def test_trace_max_deviation_tracks_rounding():
    target = Pmf((Fraction(1, 2), Fraction(1, 2)))
    tr = convergence_trace(pmf_numerators(target), 2, (4,))
    # rounded histogram is exactly (2,2): deviation of the block law
    # from the product is 1/4 - 1/6 = 1/12
    assert tr[0].max_deviation == pytest.approx(1 / 12, abs=1e-12)


def test_block_law_k1_is_type_pmf():
    for m in (2, 3):
        for n in range(1, 13):
            for t in type_list(m, n):
                assert block_pmf(t, 1).probs == type_to_pmf(t).probs


def test_degenerate_target_gives_zero_trace():
    target = Pmf((Fraction(1), Fraction(0)))
    tr = convergence_trace(pmf_numerators(target), 3, (6, 12))
    assert [p.divergence for p in tr] == [0.0, 0.0]


def test_trace_decay_rate_regression():
    # D(n) <= C/n with C fitted on the small-n half of the grid; the
    # without-replacement vs with-replacement gap decays at least that fast
    target = Pmf((Fraction(1, 3), Fraction(2, 3)))
    tr = convergence_trace(pmf_numerators(target), 2, (8, 16, 32, 64, 128, 256))
    ds = {p.n: p.divergence for p in tr}
    c = max(ds[8] * 8, ds[16] * 16)
    for n in (32, 64, 128, 256):
        assert ds[n] <= c / n


def test_trace_rejects_n_below_k():
    target = Pmf((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        convergence_trace(pmf_numerators(target), 4, (2,))


def test_trace_csv_shape():
    target = Pmf((Fraction(1, 2), Fraction(1, 2)))
    tr = convergence_trace(pmf_numerators(target), 2, (4, 8))
    text = trace_to_csv(tr)
    lines = text.strip().splitlines()
    assert lines[0] == "n,divergence_nats,max_abs_deviation"
    assert len(lines) == 3
    n, d, dev = lines[1].split(",")
    assert int(n) == 4
    assert float(d) == pytest.approx(0.05663301226513234)


def test_csv_is_deterministic():
    target = Pmf((Fraction(1, 4), Fraction(3, 4)))
    a = trace_to_csv(convergence_trace(pmf_numerators(target), 2, (8, 16)))
    b = trace_to_csv(convergence_trace(pmf_numerators(target), 2, (8, 16)))
    assert a == b


@given(st.integers(2, 3), st.integers(1, 4), st.integers(0, 2**20))
@settings(max_examples=50)
def test_block_law_nonnegative_divergence(m, k, seed):
    import random

    rng = random.Random(seed)
    n = k * rng.randrange(1, 5) + rng.randrange(0, k)
    n = max(n, k)
    w = [rng.randrange(1, 8) for _ in range(m)]
    target = Pmf(tuple(Fraction(x, sum(w)) for x in w))
    tr = convergence_trace(pmf_numerators(target), k, (n,))
    assert tr[0].divergence >= -1e-12


GIBBS_TRACES = [
    ("1/2,1/3,1/6", 3, (6, 60, 600, 6000)),
    ("1/5,4/5", 4, (8, 80, 800)),
    ("0,1/3,2/3", 3, (6, 60, 600)),
    ("1/2,1/2", 2, (4, 16, 64, 256)),
    ("1,0", 3, (6, 12)),
    ("1/4,1/4,1/4,1/4", 5, (5, 9, 40)),
]


@pytest.mark.parametrize("target, k, ns", GIBBS_TRACES, ids=[t for t, _, _ in GIBBS_TRACES])
def test_trace_has_the_bits_of_the_fraction_pmfs(target, k, ns):
    # the integer rule against relative_entropy and max_abs_deviation on the
    # spread block law and the per-string product oracle, bit for bit
    pmf = Pmf(tuple(Fraction(p) for p in target.split(",")))
    product = oracle_power_pmf(pmf, k)
    for point in convergence_trace(pmf_numerators(pmf), k, ns):
        block = block_pmf(point.rounded, k)
        assert point.divergence == relative_entropy(block, product), point.n
        assert point.max_deviation == max_abs_deviation(block, product), point.n
