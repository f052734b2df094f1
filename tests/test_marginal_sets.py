"""Marginal-average sets of block histograms and the supporting lemmas."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, repeat

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import finetti.dbound as dbound
import finetti.lemma1 as lemma1
import finetti.lemma3 as lemma3
import finetti.marginal_sets as ms
from finetti.counts import (
    CapacityError,
    TypeVector,
    all_strings,
    occurrence_matrix,
    pmf_numerators,
)
from finetti.dbound import conditional_mean_divergence, partition_tail_bound
from finetti.lemma1 import lemma1_constant, lemma1_construct
from finetti.lemma3 import max_divergence_over_E_k
from finetti.types_core import type_class_size, type_list
from oracles import (
    Pmf,
    entropy,
    l1_distance,
    marginal_residuals,
    max_abs_deviation,
    oracle_power_pmf,
    oracle_walk,
    relative_entropy,
    type_to_pmf,
)


def numerators(q) -> tuple[tuple[int, ...], int]:
    """(a, D) with q = a / D, read off the `Pmf` of q: the walk helpers' argument.

    For an n-type it must equal the integer reading of the counts.
    """
    a, den = pmf_numerators(type_to_pmf(q) if isinstance(q, TypeVector) else q)
    if isinstance(q, TypeVector):
        assert pmf_numerators(q) == (a, den)
    return a, den


def vertex_fractions(x) -> tuple[Fraction, ...] | None:
    """A vertex solve's (numerators, least common denominator) as Fractions, checking the LCD."""
    if x is None:
        return None
    nums, den = x
    assert math.gcd(den, *nums) == 1
    return tuple(Fraction(v, den) for v in nums)


def filter_members(q: TypeVector, k: int, ell: int) -> list[tuple[int, ...]]:
    """Oracle: all block histograms, filtered by the integer marginal residuals."""
    histograms = type_list(q.m**k, ell)
    return [t.counts for t in histograms if not any(marginal_residuals(t.counts, q, k))]


def lattice_points(k: int, ell: int, data) -> TypeVector:
    """An n-type q at n = k*l over 2 or 3 symbols (2 when k = 3)."""
    m = data.draw(st.integers(2, 3 if k < 3 else 2))
    n = k * ell
    counts = data.draw(
        st.lists(st.integers(0, n), min_size=m, max_size=m).filter(
            lambda c: sum(c) == n
        )
    )
    return TypeVector(tuple(counts))


@given(st.integers(1, 3), st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_filter_oracle(k, ell, data):
    q = lattice_points(k, ell, data)
    # the cell-level reference walk the scale tests rely on
    assert oracle_walk(q, k, ell) == filter_members(q, k, ell)
    # each orbit row stands for `orbit` members with its class size and entropy
    table = dbound._member_table(*numerators(q), k, ell)
    expanded = chain.from_iterable(repeat((size, h), orbit) for orbit, size, h in table)
    assert sorted(expanded) == sorted(oracle_member_rows(q, k, ell))


def class_totals(counts, m: int, k: int) -> tuple[int, ...]:
    """A cell-level member's totals over the classes of cells, in class-row order."""
    return tuple(sum(counts[b] for b in cells) for _, cells in ms._block_classes(m, k))


@given(st.integers(1, 3), st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_class_walk_matches_filter_oracle(k, ell, data):
    q = lattice_points(k, ell, data)
    members = filter_members(q, k, ell)
    walk = list(ms._lattice_walk(*numerators(q), k, ell))
    assert len(set(walk)) == len(walk)
    assert sorted(walk) == sorted({class_totals(c, q.m, k) for c in members})
    rows = [fills for _, orbits in ms._orbit_walk(*numerators(q), k, ell) for fills in orbits]
    assert sum(math.prod(f[0] for f in fills) for fills in rows) == len(members)


def test_member_table_holds_one_row_per_orbit():
    # 35,088 members of (6,6,6) at k = 3 in 319 orbits
    table = dbound._member_table(*numerators(TypeVector((6, 6, 6))), 3, 6)
    assert len(table) == 319
    assert sum(orbit for orbit, _, _ in table) == 35088


def oracle_member_rows(q: TypeVector, k: int, ell: int) -> tuple[tuple[int, float], ...]:
    """(class size, H(W)) per filtered member, each computed on its own."""
    rows = []
    for counts in filter_members(q, k, ell):
        h = math.log(ell) - math.fsum(c * math.log(c) for c in counts if c) / ell
        rows.append((type_class_size(TypeVector(counts)), h))
    return tuple(rows)


def test_enumeration_matches_filter_oracle_spot():
    # small deterministic sweep independent of hypothesis search: the class
    # walk yields each class total vector once, in ascending order
    for m, k, ell in ((2, 2, 3), (2, 3, 2), (3, 2, 2)):
        n = k * ell
        for q in type_list(m, n):
            walk = list(ms._lattice_walk(*numerators(q), k, ell))
            assert walk == sorted({class_totals(c, m, k) for c in filter_members(q, k, ell)})


def test_four_members_at_the_smallest_balanced_point():
    """E_2 of (2,2) at l=2 has exactly four block histograms.

    Their class sizes are 1, 2, 2, 1: six block strings in total, but four
    distinct histograms.
    """
    q = TypeVector((2, 2))
    got = {c: type_class_size(TypeVector(c)) for c in oracle_walk(q, 2, 2)}
    assert got == {
        (0, 2, 0, 0): 1,
        (0, 1, 1, 0): 2,
        (1, 0, 0, 1): 2,
        (0, 0, 2, 0): 1,
    }
    table = dbound._member_table(*numerators(q), 2, 2)
    expanded = chain.from_iterable(repeat(size, orbit) for orbit, size, _ in table)
    assert sorted(expanded) == sorted(got.values())


def test_product_histogram_is_a_member_when_integral():
    q = TypeVector((4, 4))
    ell = 4
    qk = oracle_power_pmf(type_to_pmf(q), 2)
    counts = tuple(int(Fraction(p) * ell) for p in qk.probs)
    assert counts in oracle_walk(q, 2, ell)
    assert class_totals(counts, 2, 2) in ms._lattice_walk(*numerators(q), 2, ell)


def test_nonintegral_targets_give_empty_set():
    # k*l*q(a) must be an integer for members to exist; an n-type with
    # n = k*l always satisfies this, a general pmf need not
    q = Pmf((Fraction(1, 3), Fraction(2, 3)))
    assert list(ms._lattice_walk(*numerators(q), 2, 2)) == []
    with pytest.raises(ValueError, match="no lattice members"):
        ms.pythagorean_scan(q, 2, 2)
    # scaling l to clear the denominators makes the set nonempty
    assert list(ms._lattice_walk(*numerators(q), 2, 3))


# ---------------------------------------------------------------------------
# the exact Pythagorean decomposition
# ---------------------------------------------------------------------------


def test_decomposition_entropy_form():
    # on members, D(W||Q^k) = k H(Q) - H(W)
    q = TypeVector((3, 1))
    qp = type_to_pmf(q)
    for counts in oracle_walk(q, 2, 2):
        wp = type_to_pmf(TypeVector(counts))
        d = relative_entropy(wp.probs, oracle_power_pmf(qp, 2).probs)
        assert d == pytest.approx(2 * entropy(qp.probs) - entropy(wp.probs), abs=1e-12)


def test_decomposition_float_path():
    # there is no float path: float inputs are refused, not compared within a tolerance
    w, q = (0.0, 0.5, 0.5, 0.0), (0.5, 0.5)
    calls = (
        lambda q: ms.pythagorean_scan(q, 2, 2),
        lambda q: conditional_mean_divergence(q, 2, 2),
        lambda q: partition_tail_bound(q, 2, 2, 0.5),
        lambda q: max_divergence_over_E_k(q, 2, mode="grid", ell=2),
    )
    for call in calls:
        with pytest.raises(ValueError, match="must be exact rationals"):
            call(q)
    with pytest.raises(ValueError, match="must be exact rationals"):
        Pmf(w)
    # the same pair in exact form: w is the scan's first argmin, and the identity holds
    w, q, uniform = Pmf((0, Fraction(1, 2), Fraction(1, 2), 0)), Pmf.uniform(2), Pmf.uniform(4)
    assert ms.pythagorean_scan(q, 2, 2) == (4, TypeVector((0, 1, 1, 0)), False)
    qk = oracle_power_pmf(q, 2)
    d_wu, d_wq = relative_entropy(w, uniform), relative_entropy(w, qk)
    assert d_wu == pytest.approx(d_wq + relative_entropy(qk, uniform), abs=1e-12)


def test_decomposition_of_an_exact_member_against_a_float_q():
    # a float q is refused before any cache is read, also between calls with
    # exact q that fill the per-(q, k, l) row cache; both exact forms agree
    third = (1 / 3, 2 / 3)
    dbound._member_rows.cache_clear()
    results = []
    for q in (third, TypeVector((1, 2)), third, Pmf((Fraction(1, 3), Fraction(2, 3)))):
        if q is third:
            for call in (ms.pythagorean_scan, conditional_mean_divergence):
                with pytest.raises(ValueError, match="must be exact rationals"):
                    call(q, 2, 3)
        else:
            results.append((ms.pythagorean_scan(q, 2, 3), conditional_mean_divergence(q, 2, 3)))
    assert results[0] == results[1]
    (members, _, _), mean = results[0]
    assert members == mean.members == len(oracle_walk(TypeVector((2, 4)), 2, 3))
    assert mean.value == pytest.approx(oracle_conditional_mean(TypeVector((2, 4)), 2, 3), rel=1e-12)


def test_argmin_over_lattice_is_product_point():
    q = TypeVector((4, 4))
    _, member, unique = ms.pythagorean_scan(q, 2, 4)
    assert unique
    assert member.counts == (1, 1, 1, 1)


def test_argmin_balanced_large():
    # l = 16 puts the product histogram (4,4,4,4) on the lattice
    q = TypeVector((16, 16))
    _, member, unique = ms.pythagorean_scan(q, 2, 16)
    qk = oracle_power_pmf(type_to_pmf(q), 2)
    want = tuple(int(Fraction(p) * 16) for p in qk.probs)
    assert unique and member.counts == want == (4, 4, 4, 4)


# ---------------------------------------------------------------------------
# maximum divergence over the set
# ---------------------------------------------------------------------------


def test_max_divergence_exact_vs_grid():
    q = TypeVector((3, 3))
    exact = max_divergence_over_E_k(q, 2, mode="exact")
    grid = max_divergence_over_E_k(q, 2, mode="grid", ell=60)
    assert grid.value <= exact.value + 1e-9
    # a moderately fine grid should get close at this size
    assert exact.value - grid.value < 0.2


def test_max_divergence_spot_value():
    # point mass on one off-diagonal block achieves 2 log 2 from (1/2,1/2)^2
    r = max_divergence_over_E_k(TypeVector((1, 1)), 2)
    assert r.value == pytest.approx(2 * math.log(2), abs=1e-9)
    assert r.value <= 2 * math.log(2) + 1e-12


@given(st.integers(1, 3), st.data())
@settings(max_examples=40, deadline=None)
def test_max_divergence_respects_k_log_n(k, data):
    n = data.draw(st.integers(2, 10))
    counts = data.draw(
        st.lists(st.integers(0, n), min_size=2, max_size=2).filter(
            lambda c: sum(c) == n
        )
    )
    q = TypeVector(tuple(counts))
    r = max_divergence_over_E_k(q, k)
    assert r.value <= k * math.log(n) + 1e-12


def test_max_divergence_grid_needs_ell():
    with pytest.raises(ValueError):
        max_divergence_over_E_k(TypeVector((1, 1)), 2, mode="grid")


def oracle_max_divergence_exact(q: TypeVector, k: int) -> tuple[float, Pmf, int]:
    """The cell-level vertex search: every subset of cells, a Pmf per vertex.

    Returns (value, witness, candidates): the witness is the first vertex of
    least entropy, up to the search's slack, and candidates counts the
    vertices over all m^k cells.
    """
    from finetti.lemma3 import _SLACK, _solve_columns

    qp = type_to_pmf(q)
    m = len(qp)
    cells = m**k
    occ = occurrence_matrix(m, k)
    rows = [a for a in range(m) if qp[a] > 0]
    cols = [b for b in range(cells) if all(occ[b][a] == 0 or qp[a] > 0 for a in range(m))]
    scale = math.lcm(*(qp[a].denominator for a in rows))
    target = [k * qp[a].numerator * (scale // qp[a].denominator) for a in rows]
    seen = set()
    best, best_h, candidates = None, math.inf, 0
    for size in range(1, len(rows) + 1):
        for subset in combinations(cols, size):
            cols_b = [tuple(occ[b][a] for a in rows) for b in subset]
            x = vertex_fractions(_solve_columns(cols_b, target, scale))
            if x is None or any(v < 0 for v in x):
                continue
            key = tuple((b, v) for b, v in zip(subset, x) if v)
            if key in seen:
                continue
            seen.add(key)
            candidates += 1
            full = [Fraction(0)] * cells
            for b, v in key:
                full[b] = v
            vertex = Pmf(full)
            h = entropy(vertex)
            if best is None or h < best_h - _SLACK:
                best, best_h = vertex, h
    return k * entropy(qp) - best_h, best, candidates


@pytest.mark.parametrize(
    "m, k, n_max", [(2, k, 8) for k in range(1, 6)] + [(3, k, 5) for k in range(1, 4)]
)
def test_max_divergence_matches_cell_level_oracle(m, k, n_max):
    # one column per block histogram finds the same vertices as every cell
    for n in range(1, n_max + 1):
        for q in type_list(m, n):
            r = max_divergence_over_E_k(q, k)
            value, witness, candidates = oracle_max_divergence_exact(q, k)
            assert r.value.hex() == value.hex(), q
            assert Pmf.from_numerators(*r.witness) == witness, q
            assert r.candidates == candidates, q


def test_vertex_search_solves_one_column_per_histogram(monkeypatch):
    calls = []
    solve = lemma3._solve_columns
    monkeypatch.setattr(lemma3, "_solve_columns", lambda *args: calls.append(args) or solve(*args))
    r = max_divergence_over_E_k(TypeVector((4, 4, 4)), 3)
    assert r.candidates == 187
    # 10 histograms, 3 rows: at most 175 solves; all 27 cells would give 3,303
    assert len(calls) <= sum(math.comb(10, s) for s in range(1, 4))


@pytest.mark.parametrize("counts, k, candidates", [((1, 1), 7, 4096), ((3, 1), 7, 960)])
def test_vertex_limit_admits_many_cells_with_few_columns(counts, k, candidates):
    # 128 cells but 8 histogram columns over 2 rows: 36 column subsets
    q = TypeVector(counts)
    r = max_divergence_over_E_k(q, k)
    value, witness, oracle_candidates = oracle_max_divergence_exact(q, k)
    assert r.value.hex() == value.hex()
    assert Pmf.from_numerators(*r.witness) == witness
    assert r.candidates == oracle_candidates == candidates


def test_vertex_limit_refuses_before_the_first_solve(monkeypatch):
    calls = []
    monkeypatch.setattr(lemma3, "_solve_columns", lambda *args: calls.append(args))
    # 49 cells, but 28 columns over 7 rows: 1,683,217 column subsets
    with pytest.raises(CapacityError, match="1683217 column subsets"):
        max_divergence_over_E_k(TypeVector((1,) * 7), 2)
    # 36 column subsets, but the 128-cell witness exceeds the cap
    monkeypatch.setenv("FINETTI_CAP", "100")
    with pytest.raises(CapacityError, match=r"^128 cells at \(m=2, k=7\) exceeds cap 100$"):
        max_divergence_over_E_k(TypeVector((1, 1)), 7)
    assert calls == []


def oracle_solve_columns(cols, target):
    """The original Gauss-Jordan solve in Fractions: unique solution or None."""
    rows, s = len(target), len(cols)
    aug = [[Fraction(cols[j][i]) for j in range(s)] + [Fraction(target[i])] for i in range(rows)]
    row = 0
    for col in range(s):
        pivot = next((r for r in range(row, rows) if aug[r][col] != 0), None)
        if pivot is None:
            return None
        aug[row], aug[pivot] = aug[pivot], aug[row]
        inv = aug[row][col]
        aug[row] = [v / inv for v in aug[row]]
        for r in range(rows):
            if r != row and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        row += 1
    if any(aug[r][s] != 0 for r in range(row, rows)):
        return None
    return tuple(aug[i][s] for i in range(s))


@pytest.mark.parametrize(
    "counts, k",
    [((4, 4, 4), 2), ((6, 3, 3), 2), ((5, 5), 3), ((1, 2, 3), 2), ((0, 2, 5), 2), ((2, 1, 1, 4), 1)],
)
def test_integer_vertex_solve_matches_fraction_oracle(counts, k):
    from finetti.lemma3 import _solve_columns

    q = type_to_pmf(TypeVector(counts))
    occ = occurrence_matrix(len(q), k)
    rows = [a for a in range(len(q)) if q[a]]
    scale = math.lcm(*(q[a].denominator for a in rows))
    target = [k * q[a] * scale for a in rows]
    assert all(t.denominator == 1 for t in target)
    cols = [tuple(occ[b][a] for a in rows) for b in range(len(occ))]
    solved = 0
    for size in range(1, len(rows) + 1):
        for subset in combinations(cols, size):
            want = oracle_solve_columns(subset, [k * q[a] for a in rows])
            assert vertex_fractions(_solve_columns(subset, [int(t) for t in target], scale)) == want
            solved += want is not None
    assert solved


# ---------------------------------------------------------------------------
# the permuted-block construction
# ---------------------------------------------------------------------------


def test_lemma1_constant_values():
    assert lemma1_constant(100, 2) == pytest.approx(0.6187428484230092, abs=1e-12)
    # closed form at l=400, k=2: sqrt(1/40 + sqrt(2)/10)
    assert lemma1_constant(400, 2) == pytest.approx(
        math.sqrt(0.025 + math.sqrt(2) / 10), abs=1e-15
    )
    with pytest.raises(ValueError):
        lemma1_constant(2, 2)


def test_lemma1_construct_accepts_and_certifies():
    q = TypeVector((100, 100))
    r = lemma1_construct(q, 2, 100, seed=0)
    assert r.deviation <= r.bound
    assert not r.fallback
    assert r.block_type.n == 100
    # the accepted histogram is a genuine member
    assert marginal_residuals(r.block_type.counts, q, 2) == [0, 0]


def test_lemma1_is_seed_stable():
    q = TypeVector((20, 20))
    a = lemma1_construct(q, 2, 20, seed=5)
    b = lemma1_construct(q, 2, 20, seed=5)
    assert a.block_type.counts == b.block_type.counts
    assert a.tries == b.tries


def test_lemma1_requires_seed_and_consistent_shape():
    q = TypeVector((4, 4))
    with pytest.raises(ValueError):
        lemma1_construct(q, 2, 4, seed=None)
    with pytest.raises(ValueError):
        lemma1_construct(q, 2, 3, seed=1)


def test_lemma1_certified_regime_flag():
    # l = 400 = 100 k^2 is exactly the certified boundary for k = 2
    q400 = TypeVector((400, 400))
    r = lemma1_construct(q400, 2, 400, seed=1)
    assert r.certified_regime
    assert r.entropy_within_bound
    q100 = TypeVector((100, 100))
    r2 = lemma1_construct(q100, 2, 100, seed=1)
    assert not r2.certified_regime  # M > 1/2 there


def test_lemma1_fallback_scan(monkeypatch):
    # rig the shuffle to always interleave 0101...: every block is "01",
    # deviation 3/4 > M(400, 2) = 0.408, so all tries fail and the
    # exhaustive lattice scan takes over; the shuffle imports random lazily
    import random

    class RiggedRandom:
        def __init__(self, seed):
            pass

        def shuffle(self, xs):
            zeros = [a for a in xs if a == 0]
            ones = [a for a in xs if a == 1]
            xs[::2] = zeros
            xs[1::2] = ones

    monkeypatch.setattr(random, "Random", RiggedRandom)
    q = TypeVector((400, 400))
    r = lemma1_construct(q, 2, 400, seed=0, max_tries=3)
    assert r.fallback
    assert r.tries == 3
    assert r.deviation <= r.bound


# ---------------------------------------------------------------------------
# conditional mean divergence and the tail bound
# ---------------------------------------------------------------------------


def test_conditional_mean_smallest_case():
    """Four members with multinomial weights 1,2,2,1 over six block strings:
    the mean of D(W||Q^k) is (4/3) log 2."""
    q = TypeVector((2, 2))
    r = conditional_mean_divergence(q, 2, 2)
    assert r.members == 4
    assert r.value == pytest.approx(4 / 3 * math.log(2), abs=1e-12)


def test_conditional_mean_brute_force():
    q = TypeVector((4, 2))
    qk = oracle_power_pmf(type_to_pmf(q), 2)
    total = 0
    acc = 0.0
    for w in oracle_members(q, 2, 3):
        size = type_class_size(w)
        total += size
        acc += size * relative_entropy(type_to_pmf(w).probs, qk.probs)
    want = acc / total
    r = conditional_mean_divergence(q, 2, 3)
    assert r.value == pytest.approx(want, abs=1e-12)


def test_conditional_mean_relabel_invariance():
    q = TypeVector((4, 2))
    swapped = TypeVector((2, 4))
    a = conditional_mean_divergence(q, 2, 3)
    b = conditional_mean_divergence(swapped, 2, 3)
    assert a.members == b.members
    assert a.value == pytest.approx(b.value, abs=1e-12)


def test_tail_bound_exact_probability():
    q = TypeVector((4, 4))
    delta = 0.5
    r = partition_tail_bound(q, 2, 4, delta)
    # exact branch: P(D > delta) enumerated with multinomial weights
    assert 0.0 <= r.exact_probability <= 1.0
    assert r.exact_probability <= math.exp(min(r.log_bound, 700)) + 1e-12


def test_tail_bound_saturates_gracefully():
    q = TypeVector((4, 4))
    r = partition_tail_bound(q, 2, 4, 1e9)
    assert r.exact_probability == 0.0


def test_tail_bound_is_finite_up_to_the_float_exponent_limit():
    # the bound reads inf only where math.exp overflows, as epsilon's tail term does:
    # at log_bound = 705, q = (1/2, 1/2), k = 6, l = 300 it is e^705 = 1.5e306
    from finetti.counts import _EXP_MAX

    cells, ell = 2**6, 300
    delta = (2 * cells * math.log(ell + 1) - 705.0) / ell
    r = partition_tail_bound(TypeVector((1, 1)), 6, ell, delta)
    assert r.log_bound == pytest.approx(705.0, abs=1e-9)
    assert r.bound == math.exp(r.log_bound) and 1.5e306 < r.bound < 1.51e306
    assert r.exact_probability is None  # count_types(64, 300) exceeds the cap
    # above the limit the bound saturates
    over = partition_tail_bound(TypeVector((1, 1)), 6, ell, delta - 5.0 / ell)
    assert over.log_bound > _EXP_MAX and over.bound == math.inf


def test_tail_bound_entropy_margin_certificate():
    # alpha(n, k) equals the construction constant at l = n/k, so the
    # entropy-margin check holds with equality in the certified regime
    q = TypeVector((400, 400))
    from finetti.bound import theorem_constants

    delta = theorem_constants(800, 2, 2).delta
    r = partition_tail_bound(q, 2, 400, delta)
    assert r.entropy_margin_certified


# ---------------------------------------------------------------------------
# slow reference oracles for the interval walk and the per-member tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "counts, k",
    [
        ((120, 120), 2),
        ((8, 8, 8), 2),
        ((4, 4, 4), 3),
        ((0, 12, 12), 2),
        ((6,), 2),
        ((9, 3), 1),
        ((6, 6, 0), 2),
        ((2, 2, 2, 2), 2),
        ((3, 0, 2, 5), 2),
        ((1, 2), 2),
    ],
)
def test_interval_walk_matches_oracle_walk(counts, k):
    q = TypeVector(counts)
    ell = q.n // k
    want = oracle_walk(q, k, ell)
    walk = list(ms._lattice_walk(*numerators(q), k, ell))
    # each class total vector once, in ascending order, and the orbits cover every member
    assert walk == sorted({class_totals(c, q.m, k) for c in want})
    rows = [fills for _, orbits in ms._orbit_walk(*numerators(q), k, ell) for fills in orbits]
    assert sum(math.prod(f[0] for f in fills) for fills in rows) == len(want)
    # (1, 2) at l = 1 has non-integral targets: the one empty set here
    assert bool(walk) == (q.n % k == 0)


def test_member_table_fills_on_demand(monkeypatch):
    # one member at l = 100,000: a dense factorial table would take 100,001 arguments
    seen = set()
    real = math.factorial
    monkeypatch.setattr(math, "factorial", lambda x: seen.add(x) or real(x))
    dbound._member_rows.cache_clear()
    assert conditional_mean_divergence(TypeVector((50000, 50000)), 1, 100000).members == 1
    assert len(seen) <= 3


def test_cap_fires_before_the_walk(monkeypatch):
    q = TypeVector((1000, 1000))
    monkeypatch.setenv("FINETTI_CAP", "10")
    want = r"^167668501 block histograms at \(cells=4, l=1000\) exceeds cap 10$"
    with pytest.raises(CapacityError, match=want):
        ms._lattice_walk(*numerators(q), 2, 1000)
    with pytest.raises(CapacityError, match=want):
        ms.pythagorean_scan(q, 2, 1000)
    with pytest.raises(CapacityError, match=want):
        conditional_mean_divergence(q, 2, 1000)


def oracle_members(q: TypeVector, k: int, ell: int) -> list[TypeVector]:
    return [TypeVector(c) for c in oracle_walk(q, k, ell)]


def oracle_conditional_mean(q: TypeVector, k: int, ell: int) -> float:
    qk = oracle_power_pmf(type_to_pmf(q), k)
    rows = [
        (type_class_size(w), relative_entropy(type_to_pmf(w), qk))
        for w in oracle_members(q, k, ell)
    ]
    total = sum(size for size, _ in rows)
    return math.fsum(float(Fraction(size, total)) * d for size, d in rows)


def oracle_tail_rows(q: TypeVector, k: int, ell: int) -> tuple[float, list[tuple[int, float]]]:
    """D(Q^k||U) and (class size, D(W||U)) per member, from pmfs."""
    uniform = Pmf.uniform(q.m**k)
    d_star = relative_entropy(oracle_power_pmf(type_to_pmf(q), k), uniform)
    rows = [
        (type_class_size(w), relative_entropy(type_to_pmf(w), uniform))
        for w in oracle_members(q, k, ell)
    ]
    return d_star, rows


def oracle_grid_witness(q: TypeVector, k: int, ell: int) -> tuple[float, tuple[int, ...]]:
    qk = oracle_power_pmf(type_to_pmf(q), k)
    best = None
    for w in oracle_members(q, k, ell):
        d = relative_entropy(type_to_pmf(w), qk)
        if best is None or d > best[0]:
            best = (d, w.counts)
    return best


def oracle_closest_member(q: TypeVector, k: int, ell: int) -> tuple[float, tuple[int, ...]]:
    qk = oracle_power_pmf(type_to_pmf(q), k)
    best = None
    for w in oracle_members(q, k, ell):
        dev = max_abs_deviation(type_to_pmf(w), qk)
        if best is None or dev < best[0]:
            best = (dev, w.counts)
    return best


# (m, k, l) points small enough to scan every n-type q with n = k*l
SMALL_LATTICES = [(2, 1, 7), (2, 2, 6), (2, 3, 4), (3, 1, 4), (3, 2, 3), (3, 3, 2)]


def small_lattice_types():
    for m, k, ell in SMALL_LATTICES:
        for q in type_list(m, k * ell):
            yield q, k, ell


def test_conditional_mean_matches_oracle_path():
    for q, k, ell in small_lattice_types():
        want = oracle_conditional_mean(q, k, ell)
        got = conditional_mean_divergence(q, k, ell).value
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15), (q, k, ell)


def test_conditional_mean_matches_oracle_path_at_scale():
    for counts, k in (((120, 120), 2), ((8, 8, 8), 2), ((4, 4, 4), 3)):
        q = TypeVector(counts)
        ell = q.n // k
        want = oracle_conditional_mean(q, k, ell)
        assert conditional_mean_divergence(q, k, ell).value == pytest.approx(want, rel=1e-12)


def test_tail_probability_matches_oracle_path():
    # thresholds halfway between consecutive member divergences, so every
    # member's side of the cut is decided by far more than rounding error
    for q, k, ell in small_lattice_types():
        d_star, rows = oracle_tail_rows(q, k, ell)
        values = sorted(d for _, d in rows if d > d_star + 1e-9)
        cuts = [(a + b) / 2 for a, b in zip(values, values[1:]) if b - a > 1e-9]
        cuts.append(d_star + 1e-6)
        total = sum(size for size, _ in rows)
        for cut in cuts:
            delta = (cut - d_star) / 2
            heavy = sum(size for size, d in rows if d > d_star + 2 * delta)
            got = partition_tail_bound(q, k, ell, delta).exact_probability
            assert got == float(Fraction(heavy, total)), (q, k, ell, delta)


def test_grid_witness_matches_oracle_path():
    for q, k, ell in small_lattice_types():
        value, witness_counts = oracle_grid_witness(q, k, ell)
        r = max_divergence_over_E_k(q, k, mode="grid", ell=ell)
        assert r.witness == (witness_counts, ell), (q, k, ell)
        assert r.value == value
        assert r.candidates == len(oracle_walk(q, k, ell))


def oracle_farthest_string(q: TypeVector, k: int, ell: int) -> list[int]:
    """A string of histogram q whose l blocks form the member farthest from Q^k."""
    qk = oracle_power_pmf(type_to_pmf(q), k)
    far = max(oracle_members(q, k, ell), key=lambda w: max_abs_deviation(type_to_pmf(w), qk))
    out = []
    for block, c in zip(all_strings(q.m, k), far.counts):
        out.extend(list(block) * c)
    return out


@pytest.mark.parametrize(
    "counts, k, ell",
    [
        ((5, 3), 2, 4),
        ((7, 5), 2, 6),
        ((5, 4), 3, 3),
        ((3, 2, 1), 2, 3),
        ((4, 3, 1), 2, 4),
        ((5, 4, 3), 3, 4),
        ((4, 4, 4), 3, 4),
        ((2, 2, 2, 2), 2, 4),
        # the closest member's excess is set by a part below l * Q^k
        ((3, 9), 2, 6),
    ],
)
def test_lemma1_fallback_member_matches_oracle_path(monkeypatch, counts, k, ell):
    # a shuffle that always lays out the farthest member, and a budget equal
    # to the best deviation, force the exhaustive scan; it must land on the
    # first closest member
    import random

    q = TypeVector(counts)
    far = oracle_farthest_string(q, k, ell)

    class Rigged:
        def __init__(self, seed):
            pass

        def shuffle(self, xs):
            xs[:] = far

    dev, member = oracle_closest_member(q, k, ell)
    monkeypatch.setattr(random, "Random", Rigged)
    monkeypatch.setattr(lemma1, "lemma1_constant", lambda ell, k: dev)
    r = lemma1_construct(q, k, ell, seed=0, max_tries=1)
    assert r.fallback
    assert r.block_type.counts == member
    assert r.deviation == dev


def two_walk_dbound(q: TypeVector, k: int, ell: int, delta: float):
    """The seed's dbound path: the mean and the exact tail each pass over the members.

    (mean value, members, exact tail probability, log bound), with the
    per-member class size and H(W) of the seed's streaming helper.
    """
    members = oracle_walk(q, k, ell)

    def weighted_members():
        factorial = lru_cache(maxsize=None)(math.factorial)
        c_log_c = lru_cache(maxsize=None)(lambda c: c * math.log(c) if c else 0.0)
        for counts in members:
            size = factorial(ell) // math.prod(map(factorial, counts))
            yield size, math.log(ell) - math.fsum(map(c_log_c, counts)) / ell

    pmf = type_to_pmf(q)
    k_entropy_q = k * entropy(pmf)
    rows = [(size, k_entropy_q - h) for size, h in weighted_members()]
    total = sum(size for size, _ in rows)
    value = math.fsum(size / total * d for size, d in rows)
    cells = q.m**k
    d_star = relative_entropy(oracle_power_pmf(pmf, k), Pmf.uniform(cells))
    total = heavy = 0
    for size, h in weighted_members():
        total += size
        if math.log(cells) - h > d_star + 2 * delta:
            heavy += size
    return value, len(rows), heavy / total, 2 * cells * math.log(ell + 1) - ell * delta


@pytest.mark.parametrize(
    "counts, deltas",
    [((120, 120), (1.1240793409437346, 0.01, 0.003)), ((8, 8, 8), (2.500694630796699, 0.2, 0.05))],
)
def test_dbound_single_walk_matches_two_walk_path(counts, deltas):
    q = TypeVector(counts)
    ell = q.n // 2
    tails = set()
    for delta in deltas:
        mean = conditional_mean_divergence(q, 2, ell)
        tail = partition_tail_bound(q, 2, ell, delta)
        got = (mean.value, mean.members, tail.exact_probability, tail.log_bound)
        assert got == two_walk_dbound(q, 2, ell, delta), delta
        tails.add(tail.exact_probability)
    assert 0.0 in tails and len(tails) == 3  # an empty tail and two proper ones


def test_dbound_walks_the_lattice_once(monkeypatch, capsys):
    import finetti.marginal_sets as ms
    from finetti.cli import main

    walks = []
    real = ms._lattice_walk

    def counted(*args, **kwargs):
        walks.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(ms, "_lattice_walk", counted)
    dbound._member_rows.cache_clear()
    assert main(["lemma", "dbound", "--q", "12,12", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["members"] == 49
    assert len(walks) == 1
    # the cached rows still answer to the cap
    monkeypatch.setenv("FINETTI_CAP", "10")
    with pytest.raises(CapacityError):
        conditional_mean_divergence(TypeVector((12, 12)), 2, 12)
    assert main(["lemma", "dbound", "--q", "12,12", "--k", "2"]) == 2
    assert len(walks) == 1


def test_decomposition_builds_no_pmf(monkeypatch):
    # the scan, the conditional mean and the exact tail read q as integer
    # numerators (`counts.pmf_numerators`): with types_core and fractions
    # unimportable they give the same answers
    import sys

    q = TypeVector((4, 2, 6))
    want = (
        ms.pythagorean_scan(q, 2, 6),
        conditional_mean_divergence(q, 2, 6),
        partition_tail_bound(q, 2, 6, 0.5),
    )
    assert want[0][0] == len(oracle_walk(q, 2, 6)) > 3
    monkeypatch.setitem(sys.modules, "finetti.types_core", None)
    monkeypatch.setitem(sys.modules, "fractions", None)
    dbound._member_rows.cache_clear()
    got = (
        ms.pythagorean_scan(q, 2, 6),
        conditional_mean_divergence(q, 2, 6),
        partition_tail_bound(q, 2, 6, 0.5),
    )
    assert got == want
    # a pmf q of Fractions is read by the same function, to the same numerators
    uniform = Pmf.uniform(2)
    assert conditional_mean_divergence(uniform, 2, 2) == conditional_mean_divergence(
        TypeVector((2, 2)), 2, 2
    )


def shifted_members(q: TypeVector, k: int, ell: int):
    """Each member with one count moved to the next cell of another histogram."""
    blocks = [tuple(map(s.count, range(q.m))) for s in all_strings(q.m, k)]
    for member in oracle_walk(q, k, ell):
        counts = list(member)
        b = next(i for i, c in enumerate(counts) if c)
        to = next(i for i in range(b + 1, b + len(blocks)) if blocks[i % len(blocks)] != blocks[b])
        counts[b] -= 1
        counts[to % len(blocks)] += 1
        yield TypeVector(counts)


@pytest.mark.parametrize(
    "counts, k, ell",
    [((2, 4), 2, 3), ((3, 3), 2, 3), ((5, 3), 2, 4), ((2, 1, 3), 2, 3), ((3, 3), 3, 2)],
)
def test_shifted_member_fails_the_residual_check(monkeypatch, counts, k, ell):
    import finetti.marginal_sets as ms

    q = TypeVector(counts)
    shifted = list(shifted_members(q, k, ell))
    assert shifted
    for w in shifted:
        assert any(marginal_residuals(w.counts, q, k))
    real = ms._lattice_walk
    for w in shifted:
        # a class walk that yields the shifted histogram's class totals among true ones
        totals = class_totals(w.counts, q.m, k)
        walk = lambda *a, totals=totals, **kw: iter([*real(*a, **kw), totals])  # noqa: E731
        monkeypatch.setattr(ms, "_lattice_walk", walk)
        with pytest.raises(AssertionError):
            ms.pythagorean_scan(q, k, ell)
    monkeypatch.setattr(ms, "_lattice_walk", real)
    assert ms.pythagorean_scan(q, k, ell)[0] == len(oracle_walk(q, k, ell))


def test_pythagoras_walks_the_lattice_once(monkeypatch, capsys):
    import finetti.marginal_sets as ms
    from finetti.cli import main

    walks = []
    real = ms._lattice_walk

    def counted(*args, **kwargs):
        walks.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(ms, "_lattice_walk", counted)
    for counts, k, members in (("6,6", 2, 16), ("7,5", 3, 57), ("0,6,6", 2, 16)):
        walks.clear()
        assert main(["lemma", "pythagoras", "--q", counts, "--k", str(k)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["members"] == members
        assert payload["identity_exact"] and payload["pass"]
        assert len(walks) == 1


def cell_walk_pythagorean_scan(q: TypeVector, k: int, ell: int) -> tuple[int, TypeVector, bool]:
    """Reference scan over every cell-level member: first member of least key prod c^c."""
    members, best, unique = 0, None, True
    for counts in oracle_walk(q, k, ell):
        members += 1
        key = math.prod(c**c for c in counts)
        if best is None or key < best[0]:
            best, unique = (key, counts), True
        elif key == best[0]:
            unique = False
    return members, TypeVector(best[1]), unique


def test_orbit_scan_matches_cell_walk_scan():
    seen = set()
    for m, k, ell in SMALL_LATTICES + [(2, 2, 7), (2, 4, 2), (4, 2, 2)]:
        for q in type_list(m, k * ell):
            want = cell_walk_pythagorean_scan(q, k, ell)
            assert ms.pythagorean_scan(q, k, ell) == want, (q, k, ell)
            on_lattice = all((ell * p).denominator == 1 for p in oracle_power_pmf(type_to_pmf(q), k))
            seen.add((want[2], on_lattice))
    # tied minima and Q^k off the lattice both occur among these points
    assert (False, False) in seen and (True, True) in seen


# ---------------------------------------------------------------------------
# the integer forms against the Fraction forms, bit for bit
# ---------------------------------------------------------------------------


def oracle_sweep_types(m: int, k: int):
    """n-types at n = k*l, l > k: near-balanced, with zero cells, skewed, and gcd above 1."""
    for ell in (k + m, 2 * k + m + 1, 2 * (k + m)):
        n = k * ell
        yield tuple(n // m + (i < n % m) for i in range(m))
        yield (0,) + tuple((n // (m - 1)) + (i < n % (m - 1)) for i in range(m - 1))
        yield (n - m + 1,) + (1,) * (m - 1)
        if n % 2 == 0:
            half = n // 2
            yield tuple(2 * (half // m + (i < half % m)) for i in range(m))


RATIONAL_PMFS = [
    (Fraction(1, 3), Fraction(2, 3)),
    (Fraction(0), Fraction(1)),
    (Fraction(1, 7), Fraction(2, 7), Fraction(4, 7)),
    (Fraction(1, 10), Fraction(0), Fraction(3, 10), Fraction(3, 5)),
    (Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)),
    (Fraction(1, 4),) * 4,
]


@pytest.mark.parametrize("m", [2, 3, 4])
@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_integer_forms_have_the_bits_of_the_fraction_forms(m, k):
    from finetti.counts import divergence_of_numerators, entropy_of_numerators, power_numerators

    qs = [TypeVector(c) for c in oracle_sweep_types(m, k)]
    pmfs = [Pmf(p) for p in RATIONAL_PMFS if len(p) == m]
    assert any(0 in q.counts for q in qs) and any(math.gcd(*q.counts) > 1 for q in qs)
    for q in qs + pmfs:
        pmf = type_to_pmf(q) if isinstance(q, TypeVector) else q
        a, den = pmf_numerators(q)
        # k*H(q) of the conditional mean, D(Q^k||U) of the tail threshold
        assert k * entropy_of_numerators(a, den) == k * entropy(pmf), q
        d_star = relative_entropy(oracle_power_pmf(pmf, k), Pmf.uniform(m**k))
        cells = m**k
        d_rule = divergence_of_numerators(
            power_numerators(a, k), den**k, [1] * cells, cells, range(cells)
        )
        assert d_rule == d_star, (q, k)
    for q in qs:
        r = lemma1_construct(q, k, q.n // k, seed=7)
        qk = oracle_power_pmf(type_to_pmf(q), k)
        w = type_to_pmf(r.block_type)
        assert r.deviation == max_abs_deviation(w, qk), (q, k)
        assert r.l1_deviation == l1_distance(w, qk), (q, k)
        assert r.entropy_gap == abs(entropy(w) - entropy(qk)), (q, k)
