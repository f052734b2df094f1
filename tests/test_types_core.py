"""Histogram machinery: enumeration, class sizes, exact growth bounds."""

from __future__ import annotations

import itertools
import math
import os
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetti.types_core import (
    DEFAULT_ENUMERATION_CAP,
    CapacityError,
    Pmf,
    TypeVector,
    count_types,
    empirical_type,
    enumerate_types,
    exp_n_entropy,
    exp_neg_n_divergence,
    integer_numerators,
    resolve_cap,
    sequence_probability_identity,
    type_class_probability,
    type_class_size,
    type_index_map,
    type_list,
    type_to_pmf,
)


def brute_types(m: int, n: int) -> set[tuple[int, ...]]:
    """All histograms by brute force over strings."""
    out = set()
    for s in itertools.product(range(m), repeat=n):
        counts = [0] * m
        for a in s:
            counts[a] += 1
        out.add(tuple(counts))
    return out


def test_enumerate_matches_brute_force():
    for m in (1, 2, 3):
        for n in (1, 2, 3, 4, 5):
            got = [t.counts for t in enumerate_types(m, n)]
            assert set(got) == brute_types(m, n)
            assert len(got) == len(set(got))


def test_enumeration_order_is_ascending():
    got = [t.counts for t in enumerate_types(2, 2)]
    assert got == [(0, 2), (1, 1), (2, 0)]
    got3 = [t.counts for t in enumerate_types(3, 2)]
    assert got3 == sorted(got3)


def test_single_symbol_alphabet():
    got = [t.counts for t in enumerate_types(1, 5)]
    assert got == [(5,)]


@given(st.integers(1, 6), st.integers(1, 30))
def test_count_formula(m, n):
    assert count_types(m, n) == math.comb(n + m - 1, m - 1)
    assert count_types(m, n) <= (n + 1) ** m


def test_count_matches_enumeration():
    for m in (1, 2, 3, 4):
        for n in (1, 3, 6):
            assert count_types(m, n) == len(list(enumerate_types(m, n)))


def test_class_sizes_partition_all_strings():
    for m in (2, 3):
        for n in (1, 2, 4, 6):
            assert sum(type_class_size(t) for t in enumerate_types(m, n)) == m**n


def test_class_size_brute():
    # count strings of each histogram directly
    m, n = 3, 5
    tally: dict[tuple[int, ...], int] = {}
    for s in itertools.product(range(m), repeat=n):
        c = [0] * m
        for a in s:
            c[a] += 1
        tally[tuple(c)] = tally.get(tuple(c), 0) + 1
    for t in enumerate_types(m, n):
        assert type_class_size(t) == tally[t.counts]


@given(st.integers(2, 3), st.integers(1, 12))
@settings(max_examples=40)
def test_growth_bounds_exact(m, n):
    """(n+1)^-m e^{nH} <= |class| <= e^{nH}, as exact rationals."""
    for t in enumerate_types(m, n):
        g = exp_n_entropy(t)
        size = type_class_size(t)
        assert size <= g
        assert g <= size * (n + 1) ** m


@given(st.integers(2, 3), st.integers(1, 10), st.integers(0, 2**30))
@settings(max_examples=40)
def test_probability_bounds_exact(m, n, seed):
    rng = random.Random(seed)
    w = [rng.randrange(1, 20) for _ in range(m)]
    q = Pmf(tuple(Fraction(x, sum(w)) for x in w))
    total = Fraction(0)
    for t in enumerate_types(m, n):
        p = type_class_probability(t, q)
        s = exp_neg_n_divergence(t, q)
        assert p <= s
        assert s <= p * (n + 1) ** m
        total += p
    assert total == 1


def test_exp_entropy_closed_form():
    # n^n / prod c_a^c_a with 0^0 = 1
    t = TypeVector((3, 1))
    assert exp_n_entropy(t) == Fraction(4**4, 3**3 * 1**1)
    t0 = TypeVector((4, 0))
    assert exp_n_entropy(t0) == 1


def test_empirical_type():
    t = empirical_type((0, 1, 1, 2, 0, 0), 3)
    assert t.counts == (3, 2, 1)
    with pytest.raises(ValueError):
        empirical_type((0, 5), 3)
    with pytest.raises(ValueError):
        empirical_type((), 2)


def test_type_pmf_round_trip():
    t = TypeVector((2, 3, 5))
    p = type_to_pmf(t)
    assert p.probs == (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
    assert sum(p.probs) == 1


@given(st.integers(2, 3), st.integers(1, 7), st.data())
@settings(max_examples=60)
def test_sequence_identity_exact(m, n, data):
    """Q^n(x) computed directly equals the histogram-only product form."""
    rng = random.Random(data.draw(st.integers(0, 2**30)))
    w = [rng.randrange(1, 30) for _ in range(m)]
    q = Pmf(tuple(Fraction(x, sum(w)) for x in w))
    x = tuple(rng.randrange(m) for _ in range(n))
    lhs, rhs = sequence_probability_identity(x, q)
    assert lhs == rhs


def test_sequence_identity_float():
    # a plain float tuple, as Pmf.to_float() gives, takes the log form
    q = Pmf((Fraction(3, 10), Fraction(9, 20), Fraction(1, 4))).to_float()
    assert q == (0.3, 0.45, 0.25) and type(q) is tuple
    x = (0, 2, 1, 1, 0, 2, 1)
    lhs, rhs = sequence_probability_identity(x, q)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sequence_identity_rejects_bad_symbol():
    q = Pmf((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        sequence_probability_identity((0, 2), q)


# ---------------------------------------------------------------------------
# Pmf plumbing
# ---------------------------------------------------------------------------


def test_pmf_exactness_detection():
    # every pmf is exact: integer entries become Fractions, floats are refused
    p = Pmf((Fraction(1, 2), Fraction(1, 2)))
    assert all(type(x) is Fraction for x in Pmf((1, 0)))
    with pytest.raises(ValueError, match="must be exact rationals"):
        Pmf((0.5, 0.5))
    with pytest.raises(ValueError, match="must be exact rationals"):
        Pmf((p[0], 0.5))
    with pytest.raises(ValueError):
        Pmf((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError):
        Pmf((0.5, 0.6))
    with pytest.raises(ValueError):
        Pmf((Fraction(3, 2), Fraction(-1, 2)))


def test_pmf_is_immutable():
    p = Pmf.uniform(3)
    with pytest.raises(AttributeError):
        p.probs = (1,)


def test_pmf_pickles():
    import pickle

    p = Pmf((Fraction(1, 4), Fraction(3, 4)))
    q = pickle.loads(pickle.dumps(p))
    assert q.probs == p.probs and type(q) is Pmf


def test_pmf_from_weights():
    p = Pmf.from_weights((2, 3, 5))
    assert p.probs == (Fraction(1, 5), Fraction(3, 10), Fraction(1, 2))
    with pytest.raises(ValueError):
        Pmf.from_weights((0, 0))
    assert Pmf.from_weights((Fraction(1, 10), Fraction(7, 10))) == (Fraction(1, 8), Fraction(7, 8))


def test_pmf_from_weights_rejects_floats():
    # as a rational 0.1 is 3602879701896397/2^55, so taking the float at its
    # binary value would give 3602879701896397/28823037615171173, not 1/8
    with pytest.raises(ValueError, match="must be exact rationals"):
        Pmf.from_weights((0.1, 0.7))
    with pytest.raises(ValueError, match="must be exact rationals"):
        Pmf.from_weights((1, 2.0))


def test_pmf_record_behaviour():
    import pickle

    p = Pmf((Fraction(1, 4), 0, Fraction(3, 4)))
    assert p.probs is p and all(type(x) is Fraction for x in p)
    assert repr(p) == "Pmf([Fraction(1, 4), Fraction(0, 1), Fraction(3, 4)])"
    same = Pmf.from_numerators((1, 0, 3), 4)
    assert p == same and hash(p) == hash(same) and type(same) is Pmf
    assert p == Pmf.from_weights((2, 0, 6)) and p != Pmf((Fraction(3, 4), 0, Fraction(1, 4)))
    # unpickling validates again, so a record that skipped validation does not come back
    bad = tuple.__new__(Pmf, (Fraction(1, 2), Fraction(1, 3)))
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        back = pickle.loads(pickle.dumps(p, protocol))
        assert back == p and type(back) is Pmf
        with pytest.raises(ValueError, match="not 1"):
            pickle.loads(pickle.dumps(bad, protocol))
    with pytest.raises(AttributeError):
        p.probs = (1,)
    with pytest.raises(AttributeError):
        p.extra = 1
    with pytest.raises(ValueError, match="must be exact rationals"):
        Pmf((0.25, 0, 0.75))
    # from_numerators checks in integers: nonnegative ints summing to den
    with pytest.raises(ValueError, match="nonnegative integers"):
        Pmf.from_numerators((5, -1), 4)
    with pytest.raises(ValueError, match="nonnegative integers"):
        Pmf.from_numerators((1, Fraction(3)), 4)
    with pytest.raises(ValueError, match="nonnegative integers"):
        Pmf.from_numerators((1.0, 3), 4)
    with pytest.raises(ValueError, match="not to the denominator"):
        Pmf.from_numerators((1, 2), 4)
    with pytest.raises(ValueError, match="not to the denominator"):
        Pmf.from_numerators((1, 4), 4)


def test_point_mass_support():
    p = Pmf.point_mass(3, 1)
    assert p.probs == (Fraction(0), Fraction(1), Fraction(0))
    assert p.support() == (1,)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_cap_blocks_large_enumerations():
    with pytest.raises(CapacityError):
        list(enumerate_types(4, 20, cap=10))


def test_type_list_checks_cap_on_cache_hit():
    assert len(type_list(3, 100)) == 5151
    with pytest.raises(CapacityError):
        type_list(3, 100, cap=10)


def test_type_caches_stay_within_their_bound():
    from finetti import types_core
    from finetti.exchangeable import _occurrence_matrix
    from finetti.marginal_sets import _occurrence_columns

    bound = types_core.TYPE_CACHE_SIZE
    first = type_list(2, 1)
    for n in range(1, 3 * bound):
        assert len(type_list(2, n)) == n + 1
        assert type_index_map(2, n)[(0, n)] == 0
        # the block histograms of A^1 over n symbols: one row per symbol
        assert _occurrence_matrix(n, 1)[n - 1] == (0,) * (n - 1) + (1,)
        assert _occurrence_columns(n, 1)[0] == (1,) + (0,) * (n - 1)
        for cache in (types_core._type_tuple, type_index_map, _occurrence_matrix, _occurrence_columns):
            assert cache.cache_info().currsize <= bound
    # an evicted entry is rebuilt equal, and the cap still binds on every call
    assert type_list(2, 1) == first
    with pytest.raises(CapacityError):
        type_list(2, 3 * bound - 1, cap=10)


def test_readme_states_the_default_cap():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    found = re.search(r"default ([\d,]+) = 2\^(\d+) histograms", readme)
    assert found, "README no longer states the default cap"
    stated, power = int(found.group(1).replace(",", "")), int(found.group(2))
    assert stated == 2**power == DEFAULT_ENUMERATION_CAP


def test_readme_library_tour_names_exist():
    import importlib

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tour = readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* `(finetti\.\w+)`(.*?)(?=^\* |^$)", tour, re.M | re.S)
    assert len(bullets) == 6
    for module_name, text in bullets:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", text):
            name = re.sub(r"\(.*\)$", "", name)  # theorem_constants(n, k, m) names theorem_constants
            owner = module
            for part in name.split("."):  # Pmf.from_numerators names an attribute of Pmf
                assert hasattr(owner, part), f"the README tour names {module_name}.{name}"
                owner = getattr(owner, part)


def test_cap_env_override(monkeypatch):
    monkeypatch.setenv("FINETTI_CAP", "5")
    assert resolve_cap(None) == 5
    assert resolve_cap(77) == 77
    monkeypatch.setenv("FINETTI_CAP", "not-a-number")
    with pytest.raises(ValueError):
        resolve_cap(None)


def test_type_list_cached_and_indexed():
    lst = type_list(2, 4)
    assert lst is type_list(2, 4)
    idx = type_index_map(2, 4)
    for i, t in enumerate(lst):
        assert idx[t.counts] == i


def test_type_vector_validation():
    with pytest.raises(ValueError):
        TypeVector((1, -1))
    with pytest.raises(ValueError):
        TypeVector((0, 0))
    with pytest.raises(ValueError):
        TypeVector(())
    with pytest.raises(ValueError, match="at least one symbol cell"):
        TypeVector(counts=[])
    with pytest.raises(ValueError, match=r"negative count in \(2, -1\)"):
        TypeVector([2.0, -1])
    with pytest.raises(ValueError, match="nonempty string"):
        TypeVector((0,))


def test_type_vector_record_behaviour():
    import pickle

    t = TypeVector([1, 2.0])
    assert t.counts == (1, 2) and type(t.counts[1]) is int
    assert repr(TypeVector((1, 2))) == "TypeVector(counts=(1, 2))"
    assert (t.n, t.m) == (3, 2)
    assert t == TypeVector(counts=(1, 2)) and hash(t) == hash(TypeVector((1, 2)))
    assert t != TypeVector((2, 1))
    back = pickle.loads(pickle.dumps(t))
    assert back == t and type(back) is TypeVector
    with pytest.raises(AttributeError):
        t.counts = (3,)
    with pytest.raises(AttributeError):
        t.extra = 1
    assert t._replace(counts=(0, 3)) == TypeVector((0, 3))
    with pytest.raises(ValueError, match="negative count"):
        t._replace(counts=(-1, 4))


def test_type_json_round_trip():
    t = TypeVector((2, 0, 3))
    assert TypeVector.from_json(t.to_json()).counts == t.counts


def test_integer_numerators_use_the_least_common_denominator():
    assert integer_numerators([3, 0, 5]) == ((3, 0, 5), 1)
    assert integer_numerators([0, 0]) == ((0, 0), 1)
    mixed = [Fraction(1, 6), Fraction(1, 4), 0, Fraction(7, 12), 2]
    assert integer_numerators(mixed) == ((2, 3, 0, 7, 24), 12)
    assert integer_numerators(Pmf((Fraction(2, 4), Fraction(1, 3), Fraction(1, 6)))) == ((3, 2, 1), 6)
    nums, _ = integer_numerators(mixed)
    assert all(type(x) is int for x in nums)
