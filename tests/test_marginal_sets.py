"""Marginal-average sets of block histograms and the supporting lemmas."""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetti.exchangeable import all_strings, power_pmf
from finetti.info_measures import entropy, max_abs_deviation, relative_entropy
from finetti.marginal_sets import (
    ExhaustedTriesError,
    average_coordinate_marginal,
    conditional_mean_divergence,
    divergence_decomposition,
    enumerate_E_k_types,
    in_E_k,
    lattice_argmin_uniform_divergence,
    lemma1_constant,
    lemma1_construct,
    max_divergence_over_E_k,
    partition_tail_bound,
)
from finetti.types_core import (
    CapacityError,
    Pmf,
    TypeVector,
    enumerate_types,
    type_class_size,
    type_to_pmf,
)


def filter_members(q: TypeVector, k: int, ell: int) -> list[tuple[int, ...]]:
    """Oracle: all block histograms, filtered by the marginal constraint."""
    qp = type_to_pmf(q)
    out = []
    for t in enumerate_types(q.m**k, ell):
        w = type_to_pmf(t)
        if average_coordinate_marginal(w, q.m).probs == qp.probs:
            out.append(t.counts)
    return out


@given(st.integers(1, 3), st.integers(1, 8), st.data())
@settings(max_examples=60, deadline=None)
def test_enumeration_matches_filter_oracle(k, ell, data):
    m = data.draw(st.integers(2, 3 if k < 3 else 2))
    n = k * ell
    counts = data.draw(
        st.lists(st.integers(0, n), min_size=m, max_size=m).filter(
            lambda c: sum(c) == n
        )
    )
    q = TypeVector(tuple(counts))
    got = [t.counts for t in enumerate_E_k_types(q, k, ell)]
    assert got == filter_members(q, k, ell)


def test_enumeration_matches_filter_oracle_spot():
    # small deterministic sweep independent of hypothesis search
    for m, k, ell in ((2, 2, 3), (2, 3, 2), (3, 2, 2)):
        n = k * ell
        for q in enumerate_types(m, n):
            got = [t.counts for t in enumerate_E_k_types(q, k, ell)]
            assert got == filter_members(q, k, ell)


def test_four_members_at_the_smallest_balanced_point():
    """E_2 of (2,2) at l=2 has exactly four block histograms.

    Their class sizes are 1, 2, 2, 1: six block strings in total, but four
    distinct histograms.
    """
    q = TypeVector((2, 2))
    got = {t.counts: type_class_size(t) for t in enumerate_E_k_types(q, 2, 2)}
    assert got == {
        (0, 2, 0, 0): 1,
        (0, 1, 1, 0): 2,
        (1, 0, 0, 1): 2,
        (0, 0, 2, 0): 1,
    }


def test_membership_predicate():
    q = TypeVector((2, 2))
    inside = Pmf((Fraction(0), Fraction(1, 2), Fraction(1, 2), Fraction(0)))
    outside = Pmf((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)))
    assert in_E_k(inside, type_to_pmf(q))
    assert not in_E_k(outside, type_to_pmf(q))


def test_average_coordinate_marginal():
    w = Pmf((Fraction(1, 2), Fraction(1, 2), Fraction(0), Fraction(0)))
    # blocks 00 and 01 with weight 1/2 each: marginal (3/4, 1/4)
    got = average_coordinate_marginal(w, 2)
    assert got.probs == (Fraction(3, 4), Fraction(1, 4))


def test_product_histogram_is_a_member_when_integral():
    q = TypeVector((4, 4))
    ell = 4
    qk = power_pmf(type_to_pmf(q), 2)
    counts = tuple(int(Fraction(p) * ell) for p in qk.probs)
    members = {t.counts for t in enumerate_E_k_types(q, 2, ell)}
    assert counts in members


def test_nonintegral_targets_give_empty_set():
    # k*l*q(a) must be an integer for members to exist; an n-type with
    # n = k*l always satisfies this, a general pmf need not
    q = Pmf((Fraction(1, 3), Fraction(2, 3)))
    assert list(enumerate_E_k_types(q, 2, 2)) == []
    # scaling l to clear the denominators makes the set nonempty
    assert list(enumerate_E_k_types(q, 2, 3))


# ---------------------------------------------------------------------------
# the exact Pythagorean decomposition
# ---------------------------------------------------------------------------


def test_decomposition_identity_exact_small():
    q = TypeVector((2, 2))
    for w in enumerate_E_k_types(q, 2, 2):
        d_wu, d_wq, d_qu = divergence_decomposition(w, q)
        assert d_wu == pytest.approx(d_wq + d_qu, abs=1e-12)


def test_decomposition_entropy_form():
    # on members, D(W||Q^k) = k H(Q) - H(W)
    q = TypeVector((3, 1))
    qp = type_to_pmf(q)
    for w in enumerate_E_k_types(q, 2, 2):
        wp = type_to_pmf(w)
        d = relative_entropy(wp.probs, power_pmf(qp, 2).probs)
        assert d == pytest.approx(2 * entropy(qp.probs) - entropy(wp.probs), abs=1e-12)


def test_decomposition_rejects_nonmembers():
    q = TypeVector((2, 2))
    outside = TypeVector((2, 0, 0, 0))
    with pytest.raises(ValueError):
        divergence_decomposition(outside, q)


def test_decomposition_float_path():
    # there is no float path: float inputs are refused, not compared within a tolerance
    w, q = (0.0, 0.5, 0.5, 0.0), (0.5, 0.5)
    for args in ((w, q), (w, Pmf.uniform(2)), (Pmf.uniform(4), q)):
        with pytest.raises(ValueError, match="must be exact rationals"):
            divergence_decomposition(*args, k=2)
    with pytest.raises(ValueError, match="must be exact rationals"):
        Pmf(w)
    # the same pair in exact form is a member, and the identity holds
    d_wu, d_wq, d_qu = divergence_decomposition(Pmf((0, Fraction(1, 2), Fraction(1, 2), 0)), Pmf.uniform(2))
    assert d_wu == pytest.approx(d_wq + d_qu, abs=1e-12)


def test_argmin_over_lattice_is_product_point():
    q = TypeVector((4, 4))
    member, unique = lattice_argmin_uniform_divergence(q, 2, 4)
    assert unique
    assert member.counts == (1, 1, 1, 1)


def test_argmin_balanced_large():
    # l = 16 puts the product histogram (4,4,4,4) on the lattice
    q = TypeVector((16, 16))
    member, unique = lattice_argmin_uniform_divergence(q, 2, 16)
    qk = power_pmf(type_to_pmf(q), 2)
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
    from finetti.marginal_sets import _SLACK, _occurrence_matrix, _solve_columns

    qp = type_to_pmf(q)
    m = len(qp)
    cells = m**k
    occ = _occurrence_matrix(m, k)
    rows = [a for a in range(m) if qp[a] > 0]
    cols = [b for b in range(cells) if all(occ[b][a] == 0 or qp[a] > 0 for a in range(m))]
    scale = math.lcm(*(qp[a].denominator for a in rows))
    target = [k * qp[a].numerator * (scale // qp[a].denominator) for a in rows]
    seen = set()
    best, best_h, candidates = None, math.inf, 0
    for size in range(1, len(rows) + 1):
        for subset in combinations(cols, size):
            x = _solve_columns([tuple(occ[b][a] for a in rows) for b in subset], target, scale)
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
        for q in enumerate_types(m, n):
            r = max_divergence_over_E_k(q, k)
            value, witness, candidates = oracle_max_divergence_exact(q, k)
            assert r.value.hex() == value.hex(), q
            assert r.witness == witness, q
            assert r.candidates == candidates, q


def test_vertex_search_solves_one_column_per_histogram(monkeypatch):
    from finetti import marginal_sets

    calls = []
    solve = marginal_sets._solve_columns
    monkeypatch.setattr(
        marginal_sets, "_solve_columns", lambda *args: calls.append(args) or solve(*args)
    )
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
    assert r.witness == witness
    assert r.candidates == oracle_candidates == candidates


def test_vertex_limit_refuses_before_the_first_solve(monkeypatch):
    from finetti import marginal_sets

    calls = []
    monkeypatch.setattr(marginal_sets, "_solve_columns", lambda *args: calls.append(args))
    # 49 cells, but 28 columns over 7 rows: 1,683,217 column subsets
    with pytest.raises(CapacityError, match="1683217 column subsets"):
        max_divergence_over_E_k(TypeVector((1,) * 7), 2)
    # 36 column subsets, but the 128-cell witness exceeds the cap
    with pytest.raises(CapacityError, match="128 cells"):
        max_divergence_over_E_k(TypeVector((1, 1)), 7, cap=100)
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
    from finetti.marginal_sets import _occurrence_matrix, _solve_columns

    q = type_to_pmf(TypeVector(counts))
    occ = _occurrence_matrix(len(q), k)
    rows = [a for a in range(len(q)) if q[a]]
    scale = math.lcm(*(q[a].denominator for a in rows))
    target = [k * q[a] * scale for a in rows]
    assert all(t.denominator == 1 for t in target)
    cols = [tuple(occ[b][a] for a in rows) for b in range(len(occ))]
    solved = 0
    for size in range(1, len(rows) + 1):
        for subset in combinations(cols, size):
            want = oracle_solve_columns(subset, [k * q[a] for a in rows])
            assert _solve_columns(subset, [int(t) for t in target], scale) == want
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
    assert in_E_k(type_to_pmf(r.block_type), type_to_pmf(q))


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
    qk = power_pmf(type_to_pmf(q), 2)
    total = 0
    acc = 0.0
    for w in enumerate_E_k_types(q, 2, 3):
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


def test_tail_bound_entropy_margin_certificate():
    # alpha(n, k) equals the construction constant at l = n/k, so the
    # entropy-margin check holds with equality in the certified regime
    q = TypeVector((400, 400))
    from finetti.definetti import theorem_constants

    delta = theorem_constants(800, 2, 2).delta
    r = partition_tail_bound(q, 2, 400, delta)
    assert r.entropy_margin_certified


# ---------------------------------------------------------------------------
# slow reference oracles for the interval walk and the per-member tables
# ---------------------------------------------------------------------------


def oracle_walk(q: TypeVector, k: int, ell: int) -> list[tuple[int, ...]]:
    """Slow reference walk that filters after the fact.

    Every count up to the largest feasible one builds its residual list and
    is then pruned only against the largest remaining occurrences.
    """
    m = q.m
    targets = [Fraction(c, q.n) * k * ell for c in q.counts]
    if any(t.denominator != 1 for t in targets):
        return []
    occ = []
    for s in all_strings(m, k):
        occ.append(tuple(s.count(a) for a in range(m)))
    cells = len(occ)
    suffix_max = [[0] * (cells + 1) for _ in range(m)]
    for a in range(m):
        for b in range(cells - 1, -1, -1):
            suffix_max[a][b] = max(occ[b][a], suffix_max[a][b + 1])
    counts = [0] * cells
    out = []

    def walk(b, remaining, residual):
        if b == cells - 1:
            counts[b] = remaining
            if all(occ[b][a] * remaining == residual[a] for a in range(m)):
                out.append(tuple(counts))
            return
        upper = remaining
        for a in range(m):
            if occ[b][a]:
                upper = min(upper, residual[a] // occ[b][a])
        for c in range(upper + 1):
            left = remaining - c
            new_residual = [residual[a] - c * occ[b][a] for a in range(m)]
            if any(new_residual[a] > left * suffix_max[a][b + 1] for a in range(m)):
                continue
            counts[b] = c
            walk(b + 1, left, new_residual)

    walk(0, ell, [int(t) for t in targets])
    return out


@pytest.mark.parametrize(
    "counts, k",
    [((120, 120), 2), ((8, 8, 8), 2), ((4, 4, 4), 3), ((0, 12, 12), 2), ((6,), 2), ((9, 3), 1)],
)
def test_interval_walk_matches_oracle_walk(counts, k):
    q = TypeVector(counts)
    ell = q.n // k
    got = [t.counts for t in enumerate_E_k_types(q, k, ell)]
    assert got == oracle_walk(q, k, ell)


def test_cap_fires_before_the_walk():
    walk = enumerate_E_k_types(TypeVector((1000, 1000)), 2, 1000, cap=10)
    with pytest.raises(CapacityError):
        next(walk)
    with pytest.raises(CapacityError):
        conditional_mean_divergence(TypeVector((1000, 1000)), 2, 1000, cap=10)


def oracle_members(q: TypeVector, k: int, ell: int) -> list[TypeVector]:
    return [TypeVector(c) for c in oracle_walk(q, k, ell)]


def oracle_conditional_mean(q: TypeVector, k: int, ell: int) -> float:
    qk = power_pmf(type_to_pmf(q), k)
    rows = [
        (type_class_size(w), relative_entropy(type_to_pmf(w), qk))
        for w in oracle_members(q, k, ell)
    ]
    total = sum(size for size, _ in rows)
    return math.fsum(float(Fraction(size, total)) * d for size, d in rows)


def oracle_tail_rows(q: TypeVector, k: int, ell: int) -> tuple[float, list[tuple[int, float]]]:
    """D(Q^k||U) and (class size, D(W||U)) per member, from pmfs."""
    uniform = Pmf.uniform(q.m**k)
    d_star = relative_entropy(power_pmf(type_to_pmf(q), k), uniform)
    rows = [
        (type_class_size(w), relative_entropy(type_to_pmf(w), uniform))
        for w in oracle_members(q, k, ell)
    ]
    return d_star, rows


def oracle_grid_witness(q: TypeVector, k: int, ell: int) -> tuple[float, Pmf]:
    qk = power_pmf(type_to_pmf(q), k)
    best = None
    for w in oracle_members(q, k, ell):
        d = relative_entropy(type_to_pmf(w), qk)
        if best is None or d > best[0]:
            best = (d, type_to_pmf(w))
    return best


def oracle_closest_member(q: TypeVector, k: int, ell: int) -> tuple[float, tuple[int, ...]]:
    qk = power_pmf(type_to_pmf(q), k)
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
        for q in enumerate_types(m, k * ell):
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
        value, witness = oracle_grid_witness(q, k, ell)
        r = max_divergence_over_E_k(q, k, mode="grid", ell=ell)
        assert r.witness == witness, (q, k, ell)
        assert r.value == value
        assert r.candidates == len(oracle_walk(q, k, ell))


def oracle_farthest_string(q: TypeVector, k: int, ell: int) -> list[int]:
    """A string of histogram q whose l blocks form the member farthest from Q^k."""
    qk = power_pmf(type_to_pmf(q), k)
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
    ],
)
def test_lemma1_fallback_member_matches_oracle_path(monkeypatch, counts, k, ell):
    # a shuffle that always lays out the farthest member, and a budget equal
    # to the best deviation, force the exhaustive scan; it must land on the
    # first closest member
    import random

    import finetti.marginal_sets as ms

    q = TypeVector(counts)
    far = oracle_farthest_string(q, k, ell)

    class Rigged:
        def __init__(self, seed):
            pass

        def shuffle(self, xs):
            xs[:] = far

    dev, member = oracle_closest_member(q, k, ell)
    monkeypatch.setattr(random, "Random", Rigged)
    monkeypatch.setattr(ms, "lemma1_constant", lambda ell, k: dev)
    r = lemma1_construct(q, k, ell, seed=0, max_tries=1)
    assert r.fallback
    assert r.block_type.counts == member
    assert r.deviation == dev


def two_walk_dbound(q: TypeVector, k: int, ell: int, delta: float):
    """The seed's dbound path: the mean and the exact tail each walk the lattice.

    (mean value, members, exact tail probability, log bound), with the
    per-member class size and H(W) of the seed's streaming helper.
    """

    def weighted_members():
        factorial = lru_cache(maxsize=None)(math.factorial)
        c_log_c = lru_cache(maxsize=None)(lambda c: c * math.log(c) if c else 0.0)
        for member in enumerate_E_k_types(q, k, ell):
            size = factorial(ell) // math.prod(map(factorial, member.counts))
            yield size, math.log(ell) - math.fsum(map(c_log_c, member.counts)) / ell

    pmf = type_to_pmf(q)
    k_entropy_q = k * entropy(pmf)
    rows = [(size, k_entropy_q - h) for size, h in weighted_members()]
    total = sum(size for size, _ in rows)
    value = math.fsum(size / total * d for size, d in rows)
    cells = q.m**k
    d_star = relative_entropy(power_pmf(pmf, k), Pmf.uniform(cells))
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
    real = ms.enumerate_E_k_types

    def counted(*args, **kwargs):
        walks.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(ms, "enumerate_E_k_types", counted)
    ms._member_table.cache_clear()
    assert main(["lemma", "dbound", "--q", "12,12", "--k", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["members"] == 49
    assert len(walks) == 1
    # the cached rows still answer to the cap
    with pytest.raises(CapacityError):
        conditional_mean_divergence(TypeVector((12, 12)), 2, 12, cap=10)
    assert main(["lemma", "dbound", "--q", "12,12", "--k", "2", "--cap", "10"]) == 2


def test_decomposition_builds_the_q_pmf_once(monkeypatch):
    import finetti.marginal_sets as ms

    q = TypeVector((4, 2, 6))
    members = list(enumerate_E_k_types(q, 2, 6))
    built = []
    real = ms.type_to_pmf
    monkeypatch.setattr(ms, "type_to_pmf", lambda t: built.append(t) or real(t))
    ms._product_terms.cache_clear()
    for w in members:
        divergence_decomposition(w, q)
    assert built.count(q) == 1
    assert len(built) == len(members) + 1


# ---------------------------------------------------------------------------
# the per-member Pythagorean certificate against its original form
# ---------------------------------------------------------------------------


def oracle_log_map(terms) -> dict:
    """sum c*log(x) over (c, x) pairs as a prime -> Fraction exponent map."""
    from sympy import factorint

    exp: dict = {}
    for c, x in terms:
        c, x = Fraction(c), Fraction(x)
        for sign, part in ((1, x.numerator), (-1, x.denominator)):
            for p, e in factorint(part).items():
                exp[p] = exp.get(p, 0) + sign * c * e
    return {p: e for p, e in exp.items() if e}


def oracle_relative_entropy_map(ps, qs) -> dict:
    terms = []
    for p, q in zip(ps, qs):
        if p:
            if not q:
                raise ValueError("relative entropy is infinite")
            terms.append((p, Fraction(p) / Fraction(q)))
    return oracle_log_map(terms)


def oracle_sum(*scaled_maps) -> dict:
    out: dict = {}
    for factor, exp in scaled_maps:
        for p, e in exp.items():
            out[p] = out.get(p, 0) + factor * e
    return {p: e for p, e in out.items() if e}


def oracle_divergence_decomposition(w, q):
    """The original body: every term rebuilt per member, with Fraction exponents."""
    q = type_to_pmf(q) if isinstance(q, TypeVector) else q
    w = type_to_pmf(w) if isinstance(w, TypeVector) else w
    k = round(math.log(len(w), len(q)))
    if not in_E_k(w, q):
        raise ValueError("w is not in the constraint set of q")
    uniform = Pmf.uniform(len(w))
    qk = power_pmf(q, k)
    d_wu = relative_entropy(w, uniform)
    d_wq = relative_entropy(w, qk)
    d_qu = relative_entropy(qk, uniform)
    lhs = oracle_relative_entropy_map(w.probs, uniform.probs)
    rhs = oracle_sum(
        (1, oracle_relative_entropy_map(w.probs, qk.probs)),
        (1, oracle_relative_entropy_map(qk.probs, uniform.probs)),
    )
    if lhs != rhs:
        raise AssertionError("exact Pythagorean identity failed")
    entropy_form = oracle_sum(
        (k, oracle_log_map((-p, p) for p in q.probs if p)),
        (-1, oracle_log_map((-p, p) for p in w.probs if p)),
    )
    if oracle_relative_entropy_map(w.probs, qk.probs) != entropy_form:
        raise AssertionError("entropy form of the member divergence failed")
    return d_wu, d_wq, d_qu


def _outcome(fn, w, q):
    try:
        return fn(w, q)
    except (ValueError, AssertionError) as exc:
        return type(exc)


def decomposition_inputs():
    """Members and non-members of several (q, k), interleaved across (q, k)."""
    points = [
        ((3, 3), 1, 6),
        ((2, 4), 2, 3),
        ((0, 6), 2, 3),
        ((3, 3), 3, 2),
        ((1, 5), 3, 2),
        ((2, 2, 2), 1, 6),
        ((2, 1, 3), 2, 3),
        ((0, 3, 3), 2, 3),
        ((1, 2, 3), 3, 2),
    ]
    streams = []
    for counts, k, ell in points:
        q = TypeVector(counts)
        members = list(enumerate_E_k_types(q, k, ell))
        outsiders = [t for t in enumerate_types(q.m**k, ell) if t not in members][:4]
        streams.append([(w, q) for w in members[:12] + outsiders])
    # float tuples, refused, and exact members of one exact q with their float forms
    half = (0.5, 0.5)
    streams.append([(w, half) for w in ((0.0, 0.5, 0.5, 0.0), (0.25,) * 4, (1.0, 0, 0, 0))])
    q = TypeVector((2, 4))
    mixed = []
    for w in list(enumerate_E_k_types(q, 2, 3))[:3]:
        mixed += [w, type_to_pmf(w).to_float()]
    streams.append([(w, q) for w in mixed + [(0.25,) * 4]])
    out = []
    for i in range(max(map(len, streams))):
        out.extend(s[i] for s in streams if i < len(s))
    return out


def _has_float(x) -> bool:
    return any(isinstance(p, float) for p in x)


def test_decomposition_matches_oracle_interleaved():
    inputs = decomposition_inputs()
    kinds = set()
    for w, q in inputs:
        got = _outcome(divergence_decomposition, w, q)
        assert got == _outcome(oracle_divergence_decomposition, w, q), (w, q)
        if _has_float(w) or _has_float(q):
            assert got is ValueError, (w, q)
        kinds.add(got if isinstance(got, type) else tuple)
    assert kinds == {tuple, ValueError}
    assert sum(_has_float(w) or _has_float(q) for w, q in inputs) == 7


def test_decomposition_of_an_exact_member_against_a_float_q():
    # a float q is refused before any cache is read, also between calls with
    # exact q that fill the per-(q, k) cache
    third = (1 / 3, 2 / 3)
    members = (Pmf((0, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))), TypeVector((1, 2, 2, 4)))
    for q in (third, TypeVector((1, 2)), third, Pmf((Fraction(1, 3), Fraction(2, 3)))):
        for w in members:
            if q is third:
                with pytest.raises(ValueError, match="must be exact rationals"):
                    divergence_decomposition(w, q)
            else:
                got = divergence_decomposition(w, q)
                assert got == oracle_divergence_decomposition(w, q), (w, q)


def test_decomposition_certificates_still_bind(monkeypatch):
    # the certificate reads q's integer numerators from the per-(q, k) cache
    # and the occurrence columns; corrupting either fails a true member
    import finetti.marginal_sets as ms

    q = TypeVector((2, 4))
    w = next(enumerate_E_k_types(q, 2, 3))
    real_terms, real_cols = ms._product_terms, ms._occurrence_columns

    def shifted_numerators(q, k):
        *terms, (a, den) = real_terms(q, k)
        return (*terms, ((a[0] + 1, a[1] - 1), den))

    def doubled_denominator(q, k):
        *terms, (a, den) = real_terms(q, k)
        return (*terms, (a, 2 * den))

    def swapped_columns(m, k):
        return real_cols(m, k)[::-1]

    for name, corrupted in (
        ("_product_terms", shifted_numerators),
        ("_product_terms", doubled_denominator),
        ("_occurrence_columns", swapped_columns),
    ):
        monkeypatch.setattr(ms, name, corrupted)
        with pytest.raises(ValueError):
            divergence_decomposition(w, q)
        monkeypatch.undo()
    divergence_decomposition(w, q)


def shifted_members(q: TypeVector, k: int, ell: int):
    """Each member with one count moved to the next cell of another histogram."""
    blocks = [tuple(map(s.count, range(q.m))) for s in all_strings(q.m, k)]
    for w in enumerate_E_k_types(q, k, ell):
        counts = list(w.counts)
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
        with pytest.raises(ValueError):
            divergence_decomposition(w, q)
        # the same histogram as an exact pmf takes the same integer check
        with pytest.raises(ValueError):
            divergence_decomposition(type_to_pmf(w), q)
    real = ms.enumerate_E_k_types
    for w in shifted:
        # a walk that yields the shifted histogram among true members
        walk = lambda *a, w=w, **kw: iter([*real(*a, **kw), w])  # noqa: E731
        monkeypatch.setattr(ms, "enumerate_E_k_types", walk)
        with pytest.raises(AssertionError):
            ms.pythagorean_scan(q, k, ell)
    monkeypatch.setattr(ms, "enumerate_E_k_types", real)
    assert ms.pythagorean_scan(q, k, ell)[0] == len(list(real(q, k, ell)))


def test_pythagoras_walks_the_lattice_once(monkeypatch, capsys):
    import finetti.marginal_sets as ms
    from finetti.cli import main

    walks = []
    real = ms.enumerate_E_k_types

    def counted(*args, **kwargs):
        walks.append(args[:3])
        return real(*args, **kwargs)

    monkeypatch.setattr(ms, "enumerate_E_k_types", counted)
    for counts, k, members in (("6,6", 2, 16), ("7,5", 3, 57), ("0,6,6", 2, 16)):
        walks.clear()
        assert main(["lemma", "pythagoras", "--q", counts, "--k", str(k)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["members"] == members
        assert payload["identity_exact"] and payload["pass"]
        assert len(walks) == 1

