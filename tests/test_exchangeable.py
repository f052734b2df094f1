"""Exchangeable laws in histogram-weight form, mixtures, and urns."""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import conditional_given_type, string_index, urn_draw_probability

from finetti.definetti import effective_n, verify_theorem
from finetti.exchangeable import (
    ExchangeableLaw,
    MixingMeasure,
    all_strings,
    block_laws,
    delta_type_law,
    from_mixing_measure,
    iid_law,
    law_from_json,
    law_to_json,
    marginal,
    mixture_iid,
    polya_urn_law,
    power_pmf,
    random_type_weight_law,
    urn_numerators,
)
from finetti.gibbs import conditional_block_law
from finetti.info_measures import relative_entropy
from finetti.types_core import (
    Pmf,
    TypeVector,
    empirical_type,
    type_class_probability,
    type_class_size,
    type_index_map,
    type_list,
)

LAWS = Path(__file__).resolve().parent.parent / "laws"


def law_on_strings(law: ExchangeableLaw) -> dict[tuple[int, ...], Fraction]:
    """Brute-force joint law: weight of T spread uniformly over its class."""
    out: dict[tuple[int, ...], Fraction] = {}
    for t, w in zip(law.types, law.type_weights):
        size = type_class_size(t)
        for s in itertools.product(range(law.m), repeat=law.n):
            if empirical_type(s, law.m).counts == t.counts:
                out[s] = out.get(s, Fraction(0)) + Fraction(w) / size
    return out


def brute_marginal(law: ExchangeableLaw, k: int) -> dict[tuple[int, ...], Fraction]:
    joint = law_on_strings(law)
    out: dict[tuple[int, ...], Fraction] = {}
    for s, p in joint.items():
        out[s[:k]] = out.get(s[:k], Fraction(0)) + p
    return out


def test_marginal_matches_brute_force():
    rng = random.Random(11)
    for m, n in ((2, 5), (3, 4)):
        weights = [rng.randrange(1, 9) for _ in type_list(m, n)]
        law = ExchangeableLaw(m, n, Pmf.from_weights(weights))
        for k in range(1, n + 1):
            got = marginal(law, k)
            want = brute_marginal(law, k)
            for i, s in enumerate(all_strings(m, k)):
                assert got.probs[i] == want.get(s, Fraction(0))


def test_marginal_full_length_recovers_joint():
    law = polya_urn_law((1, 2), 4)
    joint = law_on_strings(law)
    got = marginal(law, 4)
    for i, s in enumerate(all_strings(2, 4)):
        assert got.probs[i] == joint.get(s, Fraction(0))


def test_conditional_given_type_is_sampling_without_replacement():
    # P(x1..xk | T) = prod falling factorials / n^(falling k)
    t = TypeVector((3, 2))
    assert conditional_given_type(t, (0,)) == Fraction(3, 5)
    assert conditional_given_type(t, (0, 0)) == Fraction(3, 5) * Fraction(2, 4)
    assert conditional_given_type(t, (1, 1, 1)) == 0
    total = sum(conditional_given_type(t, s) for s in all_strings(2, 3))
    assert total == 1
    with pytest.raises(ValueError):
        conditional_given_type(t, (0, 3))
    with pytest.raises(ValueError):
        conditional_given_type(t, (0,) * 6)


def test_iid_law_weights_are_multinomial():
    q = Pmf((Fraction(1, 4), Fraction(3, 4)))
    law = iid_law(q, 3)
    for t, w in zip(law.types, law.type_weights):
        want = type_class_size(t) * Fraction(1, 4) ** t.counts[0] * Fraction(
            3, 4
        ) ** t.counts[1]
        assert w == want


def test_iid_marginal_is_product():
    q = Pmf((Fraction(1, 3), Fraction(2, 3)))
    law = iid_law(q, 6)
    got = marginal(law, 2)
    assert got.probs == power_pmf(q, 2).probs


def test_mixture_iid_matches_direct_integral():
    rng = random.Random(3)
    weights = [rng.randrange(1, 7) for _ in type_list(2, 5)]
    law = ExchangeableLaw(2, 5, Pmf.from_weights(weights))
    k = 2
    mix = mixture_iid(law, k)
    # direct: sum_T w(T) * (T/n)^k as a product over coordinates
    want = [Fraction(0)] * 4
    for t, w in zip(law.types, law.type_weights):
        p = t.pmf()
        for i, s in enumerate(all_strings(2, k)):
            term = Fraction(w)
            for a in s:
                term *= p.probs[a]
            want[i] += term
    assert mix.probs == tuple(want)


def test_k1_marginal_equals_mixture_exactly():
    # sampling one coordinate from a histogram is the histogram itself
    for seed in (0, 1, 2):
        law = random_type_weight_law(3, 5, seed)
        assert marginal(law, 1).probs == mixture_iid(law, 1).probs


def test_polya_11_is_uniform_on_types():
    law = polya_urn_law((1, 1), 6)
    assert len(set(law.type_weights)) == 1
    assert sum(law.type_weights) == 1


def test_polya_matches_sequential_urn():
    # P(s) by running the urn, then aggregate by histogram
    init = (2, 1)
    n = 4
    law = polya_urn_law(init, n)
    want: dict[tuple[int, ...], Fraction] = {}
    for s in itertools.product(range(2), repeat=n):
        p = Fraction(1)
        urn = list(init)
        for a in s:
            p *= Fraction(urn[a], sum(urn))
            urn[a] += 1
        t = empirical_type(s, 2).counts
        want[t] = want.get(t, Fraction(0)) + p
    for t, w in zip(law.types, law.type_weights):
        assert w == want.get(t.counts, Fraction(0))


def test_delta_type_law():
    t = TypeVector((2, 2))
    law = delta_type_law(t)
    nonzero = [(tt.counts, w) for tt, w in zip(law.types, law.type_weights) if w]
    assert nonzero == [((2, 2), Fraction(1))]


def test_random_type_weight_law_is_seed_stable():
    a = random_type_weight_law(2, 8, 123)
    b = random_type_weight_law(2, 8, 123)
    c = random_type_weight_law(2, 8, 124)
    assert a.type_weights.probs == b.type_weights.probs
    assert a.type_weights.probs != c.type_weights.probs
    with pytest.raises(ValueError):
        random_type_weight_law(2, 8, None)


def test_restrict_law_is_marginal_consistent():
    # the reference restriction keeps every k-marginal, which is why
    # verify_theorem reads P_k from the unrestricted law
    rng = random.Random(99)
    weights = [rng.randrange(1, 9) for _ in type_list(2, 6)]
    law = ExchangeableLaw(2, 6, Pmf.from_weights(weights))
    small = oracle_restrict_law(law, 4)
    assert small.n == 4
    for k in range(1, 5):
        assert marginal(small, k).probs == marginal(law, k).probs


def test_restrict_law_weights_are_hypergeometric():
    law = delta_type_law(TypeVector((3, 1)))
    small = oracle_restrict_law(law, 2)
    want = {
        (2, 0): Fraction(3, 6),  # C(3,2)C(1,0)/C(4,2)
        (1, 1): Fraction(3, 6),
        (0, 2): Fraction(0),
    }
    for t, w in zip(small.types, small.type_weights):
        assert w == want[t.counts]


def test_mixing_measure_mixture():
    q1 = Pmf((Fraction(3, 4), Fraction(1, 4)))
    q2 = Pmf((Fraction(1, 4), Fraction(3, 4)))
    mix = MixingMeasure(((q1, Fraction(1, 2)), (q2, Fraction(1, 2))))
    got = mixture_iid(mix, 2)
    want = tuple(
        (a * b + c * d) / 2
        for (a, b), (c, d) in zip(
            itertools.product(q1.probs, repeat=2), itertools.product(q2.probs, repeat=2)
        )
    )
    assert got.probs == want


def test_from_mixing_measure_round_trip():
    q = Pmf((Fraction(1, 3), Fraction(2, 3)))
    mix = MixingMeasure(((q, Fraction(1),),))
    law = from_mixing_measure(mix, 4)
    want = iid_law(q, 4)
    assert law.type_weights.probs == want.type_weights.probs


def fraction_mixture_weights(mix: MixingMeasure, n: int) -> tuple[Fraction, ...]:
    """The histogram weights as a Fraction sum of class probabilities per type."""
    return tuple(
        sum((w * type_class_probability(t, q) for q, w in mix.atoms if w), Fraction(0))
        for t in type_list(mix.m, n)
    )


def _mixture(*atoms) -> MixingMeasure:
    return MixingMeasure(
        tuple((Pmf(tuple(map(Fraction, q))), Fraction(w)) for q, w in atoms)
    )


MIXTURES = {
    "fair-coin": _mixture((("1/2", "1/2"), 1)),
    "biased-coin": _mixture((("3/10", "7/10"), 1)),
    "mix-json": _mixture(
        *((a["pmf"], a["w"]) for a in json.loads((LAWS / "mix.json").read_text())["mixing"])
    ),
    "three-atoms-m3": _mixture(
        (("0", "1/3", "2/3"), "1/2"), (("1/6", "1/2", "1/3"), "1/3"), (("1/4", "1/4", "1/2"), "1/6")
    ),
}


@pytest.mark.parametrize("name", sorted(MIXTURES))
def test_from_mixing_measure_matches_the_fraction_sum(name):
    mix = MIXTURES[name]
    grid = (1, 2, 7, 30, 60) + ((403,) if mix.m == 2 else ())
    for n in grid:
        got = from_mixing_measure(mix, n).type_weights.probs
        assert got == fraction_mixture_weights(mix, n), (name, n)


def test_law_json_round_trip():
    law = polya_urn_law((1, 3), 5)
    blob = json.dumps(law_to_json(law))
    back = law_from_json(blob)
    assert back.m == law.m and back.n == law.n
    assert back.type_weights.probs == law.type_weights.probs


def test_law_json_mixing_needs_n():
    blob = json.dumps(
        {"mixing": [{"pmf": ["1/2", "1/2"], "w": "1"}]}
    )
    with pytest.raises(ValueError):
        law_from_json(blob)
    law = law_from_json(blob, n=3)
    want = iid_law(Pmf((Fraction(1, 2), Fraction(1, 2))), 3)
    assert law.type_weights.probs == want.type_weights.probs


def test_law_json_rejects_mismatched_n():
    typed = json.dumps(law_to_json(polya_urn_law((1, 1), 4)))
    mixing = json.dumps({"n": 4, "mixing": [{"pmf": ["1/2", "1/2"], "w": "1"}]})
    for blob in (typed, mixing):
        assert law_from_json(blob, n=4).n == 4
        with pytest.raises(ValueError):
            law_from_json(blob, n=5)


def test_string_indexing_is_base_m():
    strings = all_strings(3, 2)
    assert strings[0] == (0, 0)
    assert strings[1] == (0, 1)
    for i, s in enumerate(strings):
        assert string_index(s, 3) == i


@given(st.integers(2, 3), st.integers(2, 6), st.integers(0, 2**30))
@settings(max_examples=30, deadline=None)
def test_marginals_are_consistent(m, n, seed):
    """The (k)-marginal of the (k+1)-marginal is the k-marginal."""
    law = random_type_weight_law(m, n, seed)
    for k in range(1, n):
        big = marginal(law, k + 1)
        small = marginal(law, k)
        collapsed = [Fraction(0)] * m**k
        for i, s in enumerate(all_strings(m, k + 1)):
            collapsed[string_index(s[:k], m)] += big.probs[i]
        assert tuple(collapsed) == small.probs


def test_law_validates_weight_count():
    with pytest.raises(ValueError):
        ExchangeableLaw(2, 3, Pmf.uniform(5))


def test_law_rejects_float_weights():
    with pytest.raises(ValueError, match="must be exact rationals"):
        ExchangeableLaw(2, 1, Pmf((0.5, 0.5)))
    with pytest.raises(ValueError, match="must be exact rationals"):
        MixingMeasure(((Pmf((0.5, 0.5)), Fraction(1)),))
    with pytest.raises(ValueError, match="must be exact rationals"):
        MixingMeasure(((Pmf((Fraction(1, 2), Fraction(1, 2))), 1.0),))


def test_law_and_mixing_validation_messages():
    half = Pmf((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError, match=r"3 entries, \(m=2, n=1\) has 2 types"):
        ExchangeableLaw(m=2, n=1, type_weights=Pmf.uniform(3))
    with pytest.raises(ValueError, match="at least one atom"):
        MixingMeasure(())
    with pytest.raises(ValueError, match="share one alphabet"):
        MixingMeasure(((half, Fraction(1, 2)), (Pmf.uniform(3), Fraction(1, 2))))
    with pytest.raises(ValueError, match="negative mixing weight"):
        MixingMeasure(((half, Fraction(3, 2)), (half, Fraction(-1, 2))))
    with pytest.raises(ValueError, match="sum to 2/3, not 1"):
        MixingMeasure(atoms=((half, Fraction(1, 3)), (half, Fraction(1, 3))))


def _records():
    """(record, an equal rebuild, a different one, a field) for each record kind."""
    law = polya_urn_law((1, 2), 5)
    mix = MixingMeasure(((Pmf((Fraction(1, 3), Fraction(2, 3))), 1),))
    other_mix = MixingMeasure(((Pmf((Fraction(2, 3), Fraction(1, 3))), 1),))
    return [
        (law, ExchangeableLaw(2, 5, law.type_weights), polya_urn_law((2, 1), 5), "m"),
        (mix, MixingMeasure(mix.atoms), other_mix, "atoms"),
        (
            verify_theorem(law, 2),
            verify_theorem(polya_urn_law((1, 2), 5), 2),
            verify_theorem(law, 3),
            "holds",
        ),
    ]


def test_records_pickle_compare_and_stay_frozen():
    import pickle

    for record, same, different, field in _records():
        # the verify --jobs pool ships laws and reports between processes
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)
        assert record == same and hash(record) == hash(same)
        assert record != different
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
    (law, *_), (mix, *_), _ = _records()
    assert repr(law) == f"ExchangeableLaw(m=2, n=5, type_weights={law.type_weights!r})"
    assert law.types == type_list(2, 5)
    assert MixingMeasure(((Pmf.uniform(3), 1),)).m == 3
    # a changed copy is validated like a new record
    with pytest.raises(ValueError, match="has 7 types"):
        law._replace(n=6)
    with pytest.raises(ValueError, match="not 1"):
        mix._replace(atoms=((Pmf.uniform(2), Fraction(1, 2)),))


# ---------------------------------------------------------------------------
# slow per-string oracles for the per-block-histogram kernel
# ---------------------------------------------------------------------------


def oracle_marginal(law: ExchangeableLaw, k: int) -> Pmf:
    """P_k one string at a time: sum over T of w(T) * P(s | T)."""
    entries = []
    for s in all_strings(law.m, k):
        acc = Fraction(0)
        for t, w in zip(law.types, law.type_weights):
            if w:
                acc += w * conditional_given_type(t, s)
        entries.append(acc)
    return Pmf(tuple(entries))


def oracle_mixture_iid(source, k: int) -> Pmf:
    """M_k one string at a time: sum over atoms of w * prod q(s_i)."""
    if isinstance(source, ExchangeableLaw):
        atoms = [(t.pmf(), w) for t, w in zip(source.types, source.type_weights) if w]
    else:
        atoms = [(q, w) for q, w in source.atoms if w]
    entries = []
    for s in all_strings(len(atoms[0][0]), k):
        acc = Fraction(0)
        for q, w in atoms:
            prob = Fraction(w)
            for a in s:
                prob *= q[a]
            acc += prob
        entries.append(acc)
    return Pmf(tuple(entries))


FAMILY_LAWS = [
    pytest.param(lambda: iid_law(Pmf.uniform(2), 30), id="fair-coin"),
    pytest.param(lambda: iid_law(Pmf((Fraction(1, 3), Fraction(2, 3))), 29), id="biased"),
    pytest.param(lambda: polya_urn_law((1, 1, 1), 12), id="polya"),
    pytest.param(lambda: polya_urn_law((1, 2), 30), id="polya-m2"),
    pytest.param(lambda: delta_type_law(TypeVector((5, 3, 2))), id="delta-type"),
    pytest.param(lambda: random_type_weight_law(3, 14, 2024), id="random-type-weights"),
    pytest.param(lambda: law_from_json((LAWS / "mix.json").read_text(), n=30), id="mixing-file"),
    pytest.param(
        lambda: oracle_restrict_law(random_type_weight_law(2, 23, 7), 21), id="restricted"
    ),
]


@pytest.mark.parametrize("build", FAMILY_LAWS)
def test_kernel_matches_per_string_oracle(build):
    law = build()
    for k in range(1, 5):
        assert marginal(law, k).probs == oracle_marginal(law, k).probs, k
        assert mixture_iid(law, k).probs == oracle_mixture_iid(law, k).probs, k


@pytest.mark.parametrize("build", FAMILY_LAWS)
def test_verify_divergence_matches_oracle_bit_for_bit(build):
    law = build()
    for k in range(1, 5):
        n_eff = effective_n(law.n, k)
        work = law if n_eff == law.n else oracle_restrict_law(law, n_eff)
        want = relative_entropy(oracle_marginal(work, k), oracle_mixture_iid(work, k))
        assert verify_theorem(law, k).divergence == want, k


def oracle_restrict_law(law: ExchangeableLaw, n_sub: int) -> ExchangeableLaw:
    """Restriction with one Fraction per (histogram, removal) pair."""
    drop = law.n - n_sub
    idx = {t.counts: i for i, t in enumerate(type_list(law.m, n_sub))}
    out = [Fraction(0)] * len(idx)
    denom = Fraction(1, math.comb(law.n, drop))
    for t, w in zip(law.types, law.type_weights):
        if not w:
            continue
        for removal in itertools.product(*(range(min(c, drop) + 1) for c in t.counts)):
            if sum(removal) != drop:
                continue
            ways = 1
            for c, r in zip(t.counts, removal):
                ways *= math.comb(c, r)
            out[idx[tuple(c - r for c, r in zip(t.counts, removal))]] += w * ways * denom
    return ExchangeableLaw(law.m, n_sub, Pmf(tuple(out)))


@pytest.mark.parametrize(
    "build, n_sub",
    [
        pytest.param(lambda: random_type_weight_law(2, 401, 11), 399, id="m2-n401"),
        pytest.param(lambda: random_type_weight_law(2, 400, 12), 399, id="m2-n400"),
        pytest.param(lambda: random_type_weight_law(3, 14, 2024), 9, id="m3"),
        pytest.param(lambda: polya_urn_law((1, 2, 3), 12), 5, id="polya"),
        pytest.param(lambda: delta_type_law(TypeVector((5, 0, 3))), 6, id="delta-zero-weights"),
    ],
)
def test_restrict_law_matches_per_pair_oracle(build, n_sub):
    # M_k over the first n_sub draws, from P_k alone, against the mixture of
    # the restricted law
    law = build()
    work = oracle_restrict_law(law, n_sub)
    for k in range(1, 4):
        p_k, m_k = block_laws(law, k, n_sub)
        assert p_k.probs == marginal(law, k).probs, k
        assert m_k.probs == oracle_mixture_iid(work, k).probs, k
    with pytest.raises(ValueError):
        block_laws(law, 1, law.n + 1)


def test_verify_cell_makes_one_kernel_pass(monkeypatch):
    # P_k and M_k come from one pass over the level-n weights, lifted to
    # integers once, and no histogram of the first n_eff draws is listed
    import finetti.exchangeable as ex
    import finetti.types_core as tc

    def counting(real, seen):
        def counted(*args, **kwargs):
            seen.append(args[:2])
            return real(*args, **kwargs)

        return counted

    law = random_type_weight_law(2, 401, 5)
    calls = {"urn_numerators": [], "integer_numerators": [], "type_list": []}
    modules = [mod for key, mod in sys.modules.items() if key.startswith("finetti")]
    for name, owner in (("urn_numerators", ex), ("integer_numerators", tc), ("type_list", tc)):
        real = getattr(owner, name)
        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting(real, calls[name]))
    verify_theorem(law, 3)
    assert len(calls["urn_numerators"]) == 1
    assert len(calls["integer_numerators"]) == 1
    assert (2, 399) not in calls["type_list"]


def test_mixing_measure_mixture_matches_oracle():
    mix = MixingMeasure(
        (
            (Pmf((Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))), Fraction(2, 7)),
            (Pmf((Fraction(3, 10), Fraction(0), Fraction(7, 10))), Fraction(5, 7)),
            (Pmf((Fraction(1), Fraction(0), Fraction(0))), Fraction(0)),
        )
    )
    for k in range(1, 5):
        assert mixture_iid(mix, k).probs == oracle_mixture_iid(mix, k).probs


def test_conditional_block_law_exact_beyond_512():
    t = TypeVector((301, 200, 99))
    for k in (1, 3):
        got = conditional_block_law(t, k)
        assert type(got) is Pmf and all(type(p) is Fraction for p in got)
        want = tuple(conditional_given_type(t, s) for s in all_strings(3, k))
        assert got.probs == want


# ---------------------------------------------------------------------------
# the urn kernel against sequential draws
# ---------------------------------------------------------------------------

# mixed integer weights (one of them zero) and urns with empty symbols
KERNEL_URNS = {
    1: [((5,), 2)],
    2: [((4, 0), 3), ((1, 3), 1), ((2, 2), 0), ((0, 4), 2)],
    3: [((2, 0, 3), 1), ((0, 0, 5), 4), ((1, 1, 3), 2)],
}


@pytest.mark.parametrize("step", [-1, 0, 1])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_urn_numerators_match_sequential_draws(m, step):
    urns = KERNEL_URNS[m]
    for k in range(1, 5):
        numerators, den = urn_numerators(urns, k, step)
        assert len(numerators) == len(type_list(m, k))
        index = type_index_map(m, k)
        total = Fraction(0)
        for s in all_strings(m, k):
            got = Fraction(numerators[index[empirical_type(s, m).counts]], den)
            assert got == urn_draw_probability(urns, s, step), (k, s)
            total += got
        assert total == 1


def test_sequential_oracle_without_replacement_is_conditional_given_type():
    for t in (TypeVector((2, 0, 3)), TypeVector((1, 1, 1))):
        for s in all_strings(3, 3):
            assert urn_draw_probability(((t.counts, 1),), s, -1) == conditional_given_type(t, s)
