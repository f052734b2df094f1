"""Exchangeable laws as weighted mixtures of urns, their histogram weights, and mixtures."""

from __future__ import annotations

import itertools
import json
import math
import random
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from oracles import (
    Pmf,
    conditional_given_type,
    empirical_type,
    max_abs_deviation,
    oracle_block_laws,
    oracle_power_pmf,
    pmf_from_weights,
    relative_entropy,
    spread,
    string_index,
    type_class_probability,
    type_to_pmf,
    type_weights_file,
    urn_draw_probability,
)

from finetti.cli import main
from finetti.counts import (
    CapacityError,
    TypeVector,
    all_strings,
    divergence_of_numerators,
    max_deviation_of_numerators,
    pmf_numerators,
)
from finetti.definetti import effective_n, verify_theorem
from finetti.exchangeable import (
    UrnLaw,
    block_laws,
    delta_type_law,
    histogram_law,
    iid_law,
    polya_urn_law,
    random_type_weight_law,
    read_law,
)
from finetti.gibbs import conditional_block_law
from finetti.types_core import (
    cell_index,
    type_class_size,
    type_index_map,
    type_list,
    urn_numerators,
)

LAWS = Path(__file__).resolve().parent.parent / "laws"


def spread_block_laws(law: UrnLaw, k: int, n: int | None = None) -> tuple[Pmf, Pmf]:
    """(P_k, M_k) of `block_laws` at n (law.n by default), each spread over A^k."""
    [((p, p_den), (q, q_den))] = block_laws(law, [(k, law.n if n is None else n)])
    return spread(law.m, k, p, p_den), spread(law.m, k, q, q_den)


def marginal(law: UrnLaw, k: int) -> Pmf:
    """P_k of `block_laws`, spread over A^k."""
    return spread_block_laws(law, k)[0]


def weights_law(m: int, n: int, weights) -> UrnLaw:
    """`read_law` of a typeWeights file: `weights` (a pmf of rationals) in type_list(m, n) order."""
    entries = [{"counts": list(t.counts), "w": w} for t, w in zip(type_list(m, n), weights)]
    return read_law({"m": m, "n": n, "typeWeights": entries})


def mixing_law(atoms, n: int) -> UrnLaw:
    """`read_law` of a mixing file of n draws: its (pmf, weight) atoms of Fractions."""
    return read_law({"mixing": [{"pmf": list(q), "w": w} for q, w in atoms], "n": n})


def histogram_pmf(law: UrnLaw) -> Pmf:
    """`histogram_law`'s (weights, denominator) as a pmf of Fractions."""
    return Pmf.from_numerators(*histogram_law(law))


def histograms(law: UrnLaw):
    """(n-histogram, weight) pairs of the law, its level-n view."""
    return zip(type_list(law.m, law.n), histogram_pmf(law))


def law_on_strings(law: UrnLaw) -> dict[tuple[int, ...], Fraction]:
    """Brute-force joint law: weight of T spread uniformly over its class."""
    out: dict[tuple[int, ...], Fraction] = {}
    for t, w in histograms(law):
        size = type_class_size(t)
        for s in itertools.product(range(law.m), repeat=law.n):
            if empirical_type(s, law.m).counts == t.counts:
                out[s] = out.get(s, Fraction(0)) + Fraction(w) / size
    return out


def brute_marginal(law: UrnLaw, k: int) -> dict[tuple[int, ...], Fraction]:
    joint = law_on_strings(law)
    out: dict[tuple[int, ...], Fraction] = {}
    for s, p in joint.items():
        out[s[:k]] = out.get(s[:k], Fraction(0)) + p
    return out


def test_marginal_matches_brute_force():
    rng = random.Random(11)
    for m, n in ((2, 5), (3, 4)):
        weights = [rng.randrange(1, 9) for _ in type_list(m, n)]
        law = weights_law(m, n, pmf_from_weights(weights))
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
    for t, w in histograms(law):
        want = type_class_size(t) * Fraction(1, 4) ** t.counts[0] * Fraction(
            3, 4
        ) ** t.counts[1]
        assert w == want


def test_iid_marginal_is_product():
    q = Pmf((Fraction(1, 3), Fraction(2, 3)))
    law = iid_law(q, 6)
    got = marginal(law, 2)
    assert got.probs == oracle_power_pmf(q, 2).probs


def test_mixture_iid_matches_direct_integral():
    rng = random.Random(3)
    weights = [rng.randrange(1, 7) for _ in type_list(2, 5)]
    law = weights_law(2, 5, pmf_from_weights(weights))
    k = 2
    mix = spread_block_laws(law, k)[1]
    # direct: sum_T w(T) * (T/n)^k as a product over coordinates
    want = [Fraction(0)] * 4
    for t, w in histograms(law):
        p = type_to_pmf(t)
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
        [((p_1, p_den), (m_1, m_den))] = block_laws(law, [(1, law.n)])
        assert [x * m_den for x in p_1] == [y * p_den for y in m_1]


def test_polya_11_is_uniform_on_types():
    weights = histogram_pmf(polya_urn_law((1, 1), 6))
    assert len(set(weights)) == 1
    assert sum(weights) == 1


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
    for t, w in histograms(law):
        assert w == want.get(t.counts, Fraction(0))


def test_delta_type_law():
    t = TypeVector((2, 2))
    law = delta_type_law(t)
    nonzero = [(tt.counts, w) for tt, w in histograms(law) if w]
    assert nonzero == [((2, 2), Fraction(1))]


def test_random_type_weight_law_is_seed_stable():
    a = random_type_weight_law(2, 8, 123)
    b = random_type_weight_law(2, 8, 123)
    c = random_type_weight_law(2, 8, 124)
    assert histogram_pmf(a).probs == histogram_pmf(b).probs
    assert histogram_pmf(a).probs != histogram_pmf(c).probs
    with pytest.raises(ValueError):
        random_type_weight_law(2, 8, None)


def test_restrict_law_is_marginal_consistent():
    # the reference restriction keeps every k-marginal, which is why
    # verify_theorem reads P_k from the unrestricted law
    rng = random.Random(99)
    weights = [rng.randrange(1, 9) for _ in type_list(2, 6)]
    law = weights_law(2, 6, pmf_from_weights(weights))
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
    for t, w in histograms(small):
        assert w == want[t.counts]


def test_mixing_measure_mixture():
    q1 = Pmf((Fraction(3, 4), Fraction(1, 4)))
    q2 = Pmf((Fraction(1, 4), Fraction(3, 4)))
    # k draws of the mixing law are the mixture of i.i.d. k-blocks
    got = marginal(mixing_law(((q1, Fraction(1, 2)), (q2, Fraction(1, 2))), 2), 2)
    want = tuple(
        (a * b + c * d) / 2
        for (a, b), (c, d) in zip(
            itertools.product(q1.probs, repeat=2), itertools.product(q2.probs, repeat=2)
        )
    )
    assert got.probs == want


def test_from_mixing_measure_round_trip():
    q = Pmf((Fraction(1, 3), Fraction(2, 3)))
    law = mixing_law(((q, Fraction(1)),), 4)
    want = iid_law(q, 4)
    assert histogram_pmf(law).probs == histogram_pmf(want).probs


def fraction_mixture_weights(atoms, n: int) -> tuple[Fraction, ...]:
    """The histogram weights as a Fraction sum of class probabilities per type."""
    return tuple(
        sum((w * type_class_probability(t, q) for q, w in atoms if w), Fraction(0))
        for t in type_list(len(atoms[0][0]), n)
    )


def _mixture(*atoms) -> tuple[tuple[Pmf, Fraction], ...]:
    return tuple((Pmf(tuple(map(Fraction, q))), Fraction(w)) for q, w in atoms)


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
    grid = (1, 2, 7, 30, 60) + ((403,) if len(mix[0][0]) == 2 else ())
    for n in grid:
        got = histogram_pmf(mixing_law(mix, n)).probs
        assert got == fraction_mixture_weights(mix, n), (name, n)


def test_law_json_round_trip():
    law = polya_urn_law((1, 3), 5)
    blob = json.dumps(type_weights_file(law))
    back = read_law(blob)
    assert back.m == law.m and back.n == law.n
    assert histogram_pmf(back).probs == histogram_pmf(law).probs


def test_law_json_mixing_needs_n():
    blob = json.dumps(
        {"mixing": [{"pmf": ["1/2", "1/2"], "w": "1"}]}
    )
    with pytest.raises(ValueError):
        read_law(blob)
    law = read_law(blob, n=3)
    want = iid_law(Pmf((Fraction(1, 2), Fraction(1, 2))), 3)
    assert histogram_pmf(law).probs == histogram_pmf(want).probs


def test_law_json_rejects_mismatched_n():
    typed = json.dumps(type_weights_file(polya_urn_law((1, 1), 4)))
    mixing = json.dumps({"n": 4, "mixing": [{"pmf": ["1/2", "1/2"], "w": "1"}]})
    for blob in (typed, mixing):
        assert read_law(blob, n=4).n == 4
        with pytest.raises(ValueError):
            read_law(blob, n=5)


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
    # a typeWeights file puts each weight on one n-histogram of (m, n)
    for counts in ([1, 1, 1], [1, 1], [4, -1]):
        blob = {"m": 2, "n": 3, "typeWeights": [{"counts": counts, "w": 1}]}
        with pytest.raises(ValueError, match=r"are not a histogram at \(m=2, n=3\)"):
            read_law(blob)


TYPE_WEIGHT_ENTRIES = [
    [((2, 0), "1/8"), ((1, 1), "0.25"), ((2, 0), "1.25e-1"), ((0, 2), "1/6"), ((1, 1), Fraction(1, 3))],
    [((2, 0), "-1/2"), ((2, 0), "1/2"), ((1, 1), "1_0/4_0"), ((0, 2), "3/4")],
    [((1, 1), "1")],
    # every histogram of (3, 3), listed against type order
    [(t.counts, f"{i + 1}/55") for i, t in reversed(list(enumerate(type_list(3, 3))))],
]


@pytest.mark.parametrize("entries", TYPE_WEIGHT_ENTRIES)
def test_type_weights_are_summed_in_integers(entries):
    # repeated counts add up over one common denominator, and the urns come in
    # type order: they equal the urns of the Fraction sums, read by pmf_numerators
    m, n = len(entries[0][0]), sum(entries[0][0])
    sums = dict.fromkeys((t.counts for t in type_list(m, n)), Fraction(0))
    for counts, w in entries:
        sums[counts] += Fraction(w)
    nums, _ = pmf_numerators(list(sums.values()))
    want = UrnLaw(m, n, [(c, w) for c, w in zip(sums, nums) if w], -1)
    got = read_law({"m": m, "n": n, "typeWeights": [{"counts": list(c), "w": w} for c, w in entries]})
    assert got == want


def test_law_rejects_float_weights():
    for blob in (
        {"m": 2, "n": 1, "typeWeights": [{"counts": [1, 0], "w": 0.5}, {"counts": [0, 1], "w": 0.5}]},
        {"mixing": [{"pmf": [0.5, 0.5], "w": 1}], "n": 1},
        {"mixing": [{"pmf": ["1/2", "1/2"], "w": 1.0}], "n": 1},
    ):
        with pytest.raises(ValueError, match="rationals must be integers or strings like '3/4', got"):
            read_law(blob)
    with pytest.raises(ValueError, match="must be exact rationals"):
        iid_law((0.5, 0.5), 3)
    # a Fraction weight is read as the rational its string spells
    half = (Fraction(1, 2), Fraction(1, 2))
    assert weights_law(2, 1, half) == weights_law(2, 1, ("1/2", "0.5"))
    assert mixing_law(((half, 1),), 2) == mixing_law(((("1/2", "1/2"), "1"),), 2)


def test_law_and_mixing_validation_messages():
    half = ("1/2", "1/2")
    for atoms, message in [
        ((), "at least one atom"),
        (((half, "1/2"), (("1/3", "1/3", "1/3"), "1/2")), "share one alphabet"),
        (((half, Fraction(3, 2)), (half, Fraction(-1, 2))), "negative mixing weight"),
        (((half, Fraction(1, 3)), (half, Fraction(1, 3))), "sum to 2/3, not 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            mixing_law(atoms, 2)


TYPED = {"m": 2, "n": 2, "typeWeights": [{"counts": [2, 0], "w": "1"}]}
ATOM = {"pmf": ["1/2", "1/2"], "w": "1"}

# (law file, the message of its mistyped field): each one exits 3, not 1
MISTYPED_LAW_FILES = [
    ({"mixing": [1]}, "'mixing' entry must be a JSON object, got 1"),
    ({"mixing": "ab", "n": 3}, "'mixing' must be a JSON array, got 'ab'"),
    ({**TYPED, "typeWeights": [{"counts": 5, "w": "1"}]}, "'counts' must be a JSON array, got 5"),
    ({**TYPED, "m": None, "typeWeights": []}, "'m' must be a JSON integer, got None"),
    ({"mixing": [ATOM], "n": [4]}, r"'n' must be a JSON integer, got \[4\]"),
    ({"mixing": [{**ATOM, "pmf": None}], "n": 3}, "'pmf' must be a JSON array, got None"),
    ({**TYPED, "typeWeights": [{"counts": [2.9, 0], "w": "1"}]}, "'counts' entry must be a JSON integer"),
    ({**TYPED, "m": 2.7}, "'m' must be a JSON integer, got 2.7"),
    ({**TYPED, "n": "2"}, "'n' must be a JSON integer, got '2'"),
    ({"mixing": [ATOM], "n": 4.5}, "'n' must be a JSON integer, got 4.5"),
    ({"mixing": [{**ATOM, "w": True}], "n": 3}, "strings like '3/4', got True"),
    ({**TYPED, "typeWeights": {"counts": [2, 0]}}, "'typeWeights' must be a JSON array"),
    ({**TYPED, "typeWeights": [[2, 0]]}, "'typeWeights' entry must be a JSON object"),
]


@pytest.mark.parametrize("blob, message", MISTYPED_LAW_FILES, ids=range(len(MISTYPED_LAW_FILES)))
def test_read_law_refuses_mistyped_fields(blob, message):
    # nothing is coerced: a float, a string or a bool where an integer stands is refused
    with pytest.raises(ValueError, match=message):
        read_law(json.dumps(blob))


def _places(doc, path=()):
    """The path of the document itself and of every value nested in it."""
    yield path
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield from _places(value, path + (key,))


def _replaced(doc, path, value):
    """A copy of the JSON document with the value at `path` replaced."""
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


LAW_FILE_BASES = [
    {**json.loads((LAWS / "mix.json").read_text()), "n": 2},
    json.loads((LAWS / "binomial.json").read_text()),
]
JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.sampled_from([2**64, -(10**30), 10**100])
    | st.floats()
    | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(
        st.sampled_from(["m", "n", "mixing", "typeWeights", "pmf", "counts", "w"]) | st.text(max_size=4),
        inner,
        max_size=3,
    ),
    max_leaves=6,
)


@given(st.sampled_from([(doc, path) for doc in LAW_FILE_BASES for path in _places(doc)]), JSON_VALUES)
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_no_law_file_exits_1_or_raises(tmp_path, monkeypatch, place, value):
    # at k = 1, P_1 = M_1, so D = 0 and no law can fail its bound: exit 1
    # or an exception could only come from a law file the reader let through
    monkeypatch.setenv("FINETTI_CAP", "50")
    law = tmp_path / "law.json"
    law.write_text(json.dumps(_replaced(*place, value)))
    assert main(["verify", "--law", str(law), "--k", "1"]) in (0, 2, 3)


@pytest.mark.parametrize("depth", [1_000, 100_000])
def test_a_deeply_nested_law_file_exits_3(tmp_path, capsys, depth):
    # the JSON reader recurses once per level and stops at the recursion limit
    law = tmp_path / "law.json"
    law.write_text('{"mixing": ' + "[" * depth + "]" * depth + ', "n": 3}')
    start = time.perf_counter()
    assert main(["verify", "--law", str(law), "--k", "1"]) == 3
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == "error: law file nests its JSON too deeply to read\n"


def test_read_law_builds_the_urns_of_each_kind_of_file():
    # a typeWeights file is its weighted n-histograms at -1, in type order
    law = weights_law(2, 3, ("1/8", "0", "1/2", "3/8"))
    assert law == UrnLaw(2, 3, (((0, 3), 1), ((2, 1), 4), ((3, 0), 3)), -1)
    # a mixing file's atoms a_j / D_j become urns of lcm(D) balls, weighted
    # by the integer numerators of the weights
    atoms = ((("1/2", "1/2"), "1/6"), (("1/3", "2/3"), "1/2"), (("1", "0"), "1/3"))
    want = UrnLaw(2, 5, (((3, 3), 1), ((2, 4), 3), ((6, 0), 2)), 0)
    assert mixing_law(atoms, 5) == want


def _records():
    """(record, an equal rebuild, a different one, a field) for each record kind."""
    law = polya_urn_law((1, 2), 5)
    return [
        (law, UrnLaw(2, 5, (((1, 2), 1),), 1), polya_urn_law((2, 1), 5), "m"),
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
        # records survive a pickle round trip
        back = pickle.loads(pickle.dumps(record))
        assert back == record and type(back) is type(record)
        assert record == same and hash(record) == hash(same)
        assert record != different
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError):
            record.extra = 1
    (law, *_), _ = _records()
    assert repr(law) == "UrnLaw(m=2, n=5, urns=(((1, 2), 1),), step=1)"
    assert len(histogram_pmf(law)) == len(type_list(2, 5))
    # a changed copy is validated like a new record
    with pytest.raises(ValueError, match="nonnegative counts of 3 symbols"):
        law._replace(m=3)
    with pytest.raises(ValueError, match="n must be >= 1, got 0"):
        law._replace(n=0)


# ---------------------------------------------------------------------------
# slow per-string oracles for the per-block-histogram kernel
# ---------------------------------------------------------------------------


def oracle_marginal(law: UrnLaw, k: int) -> Pmf:
    """P_k one string at a time: sum over T of w(T) * P(s | T)."""
    weights = list(histograms(law))
    entries = []
    for s in all_strings(law.m, k):
        acc = Fraction(0)
        for t, w in weights:
            if w:
                acc += w * conditional_given_type(t, s)
        entries.append(acc)
    return Pmf(tuple(entries))


def oracle_mixture_iid(source, k: int) -> Pmf:
    """M_k one string at a time: sum over atoms of w * prod q(s_i).

    The atoms are a law's n-histograms as pmfs, or (pmf, weight) pairs.
    """
    if isinstance(source, UrnLaw):
        atoms = [(type_to_pmf(t), w) for t, w in histograms(source) if w]
    else:
        atoms = [(q, w) for q, w in source if w]
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
    pytest.param(lambda: read_law((LAWS / "mix.json").read_text(), n=30), id="mixing-file"),
    pytest.param(
        lambda: oracle_restrict_law(random_type_weight_law(2, 23, 7), 21), id="restricted"
    ),
]


@pytest.mark.parametrize("build", FAMILY_LAWS)
def test_kernel_matches_per_string_oracle(build):
    law = build()
    for k in range(1, 5):
        p_k, m_k = spread_block_laws(law, k)
        assert p_k.probs == oracle_marginal(law, k).probs, k
        assert m_k.probs == oracle_mixture_iid(law, k).probs, k


@pytest.mark.parametrize("build", FAMILY_LAWS)
def test_verify_divergence_matches_oracle_bit_for_bit(build):
    law = build()
    for k in range(1, 5):
        n_eff = effective_n(law.n, k)
        work = law if n_eff == law.n else oracle_restrict_law(law, n_eff)
        want = relative_entropy(oracle_marginal(work, k), oracle_mixture_iid(work, k))
        assert verify_theorem(law, k).divergence == want, k


@pytest.mark.parametrize("build", FAMILY_LAWS)
def test_one_pass_grid_matches_a_kernel_pass_per_k(build):
    # every k grid drawn from 1..5, in both orders: the margins of one pass at
    # the grid's largest k give the P_k and M_k of a pass at each k itself
    law = build()
    want = {k: oracle_block_laws(law, k, effective_n(law.n, k)) for k in range(1, 6)}
    grids = [g for size in range(1, 6) for g in itertools.combinations(range(1, 6), size)]
    for grid in grids + [g[::-1] for g in grids]:
        got = block_laws(law, [(k, effective_n(law.n, k)) for k in grid])
        for k, pair in zip(grid, got):
            for (xs, x_den), (ys, y_den) in zip(pair, want[k]):
                assert [x * y_den for x in xs] == [y * x_den for y in ys], (grid, k)


@pytest.mark.parametrize("build", FAMILY_LAWS)
def test_integer_rule_has_the_bits_of_the_spread_pmfs(build):
    # both directions: D(M_k || P_k) is +inf where P_k has zero numerators
    law = build()
    infinite = 0
    for k in range(1, 6):
        [((p, p_den), (q, q_den))] = block_laws(law, [(k, law.n)])
        p_pmf, q_pmf = spread(law.m, k, p, p_den), spread(law.m, k, q, q_den)
        cells = cell_index(law.m, k)
        for xs, x_den, ys, y_den, x_pmf, y_pmf in (
            (p, p_den, q, q_den, p_pmf, q_pmf),
            (q, q_den, p, p_den, q_pmf, p_pmf),
        ):
            got = divergence_of_numerators(xs, x_den, ys, y_den, cells)
            assert got == relative_entropy(x_pmf, y_pmf), k
            infinite += got == math.inf
        got = max_deviation_of_numerators(p, p_den, q, q_den)
        assert got == max_abs_deviation(p_pmf, q_pmf), k
    # the delta type (5, 3, 2) has no 3 * e_2 block at k >= 3; every other law is positive
    assert infinite == (3 if law.urns == (((5, 3, 2), 1),) else 0)


def oracle_restrict_law(law: UrnLaw, n_sub: int) -> UrnLaw:
    """Restriction with one Fraction per (histogram, removal) pair."""
    drop = law.n - n_sub
    idx = {t.counts: i for i, t in enumerate(type_list(law.m, n_sub))}
    out = [Fraction(0)] * len(idx)
    denom = Fraction(1, math.comb(law.n, drop))
    for t, w in histograms(law):
        if not w:
            continue
        for removal in itertools.product(*(range(min(c, drop) + 1) for c in t.counts)):
            if sum(removal) != drop:
                continue
            ways = 1
            for c, r in zip(t.counts, removal):
                ways *= math.comb(c, r)
            out[idx[tuple(c - r for c, r in zip(t.counts, removal))]] += w * ways * denom
    return weights_law(law.m, n_sub, out)


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
        p_k, m_k = spread_block_laws(law, k, n_sub)
        assert p_k.probs == oracle_marginal(law, k).probs, k
        assert m_k.probs == oracle_mixture_iid(work, k).probs, k
    with pytest.raises(ValueError):
        block_laws(law, [(1, law.n + 1)])


def test_verify_cell_makes_one_kernel_pass(monkeypatch):
    # P_k and M_k come from one pass over the urns, whose weights are
    # integers from the start, and no histogram of the first n_eff draws is listed
    import finetti.counts as counts
    import finetti.types_core as tc

    def counting(real, seen):
        def counted(*args, **kwargs):
            seen.append(args[:2])
            return real(*args, **kwargs)

        return counted

    law = random_type_weight_law(2, 401, 5)
    calls = {"urn_numerators": [], "pmf_numerators": [], "type_list": []}
    modules = [mod for key, mod in sys.modules.items() if key.startswith("finetti")]
    for name in calls:
        real = getattr(tc, name, None) or getattr(counts, name)
        for mod in modules:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counting(real, calls[name]))
    verify_theorem(law, 3)
    assert len(calls["urn_numerators"]) == 1
    assert len(calls["pmf_numerators"]) == 0
    assert (2, 399) not in calls["type_list"]


def test_mixing_measure_mixture_matches_oracle():
    mix = (
        (Pmf((Fraction(1, 6), Fraction(1, 2), Fraction(1, 3))), Fraction(2, 7)),
        (Pmf((Fraction(3, 10), Fraction(0), Fraction(7, 10))), Fraction(5, 7)),
        (Pmf((Fraction(1), Fraction(0), Fraction(0))), Fraction(0)),
    )
    for k in range(1, 5):
        got = marginal(mixing_law(mix, k), k)
        assert got.probs == oracle_mixture_iid(mix, k).probs


def test_conditional_block_law_exact_beyond_512():
    t = TypeVector((301, 200, 99))
    for k in (1, 3):
        numerators, den = conditional_block_law(t, k)
        assert all(type(x) is int for x in numerators) and type(den) is int
        want = tuple(conditional_given_type(t, s) for s in all_strings(3, k))
        assert spread(3, k, numerators, den).probs == want


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


# ---------------------------------------------------------------------------
# urn laws against their level-n laws
# ---------------------------------------------------------------------------

MIX_TEXT = (LAWS / "mix.json").read_text()
THIRD = Pmf((Fraction(1, 3), Fraction(2, 3)))
DELTAS = {6: (3, 2, 1), 7: (5, 0, 2), 10: (5, 3, 2), 60: (20, 21, 19)}

# (the family's urn law of n draws, the n to check); the n include every
# golden verify point and n that k = 2, 3, 4 do not divide
URN_FAMILIES = [
    pytest.param(lambda n: iid_law(Pmf.uniform(2), n), (7, 30, 31, 60), id="fair-coin"),
    pytest.param(lambda n: iid_law(THIRD, n), (29, 30, 31), id="biased"),
    pytest.param(lambda n: polya_urn_law((1, 1, 1), n), (12, 24, 25), id="polya"),
    pytest.param(lambda n: polya_urn_law((2, 1), n), (40, 41, 59), id="polya-m2"),
    pytest.param(lambda n: delta_type_law(TypeVector(DELTAS[n])), (6, 7, 10, 60), id="delta-type"),
    pytest.param(lambda n: read_law(MIX_TEXT, n), (30, 31, 60, 200, 403), id="mixing-file"),
]


@pytest.mark.parametrize("build, ns", URN_FAMILIES)
def test_urn_law_block_laws_equal_the_level_n_law(build, ns):
    # the level-n law, the n-histograms as urns at -1, stays the oracle: P_k
    # and M_k agree as Fractions, so verify prints the same divergence
    for n in ns:
        urns = build(n)
        level = weights_law(urns.m, n, histogram_pmf(urns))
        assert type(urns) is UrnLaw and level.step == -1
        assert (urns.m, urns.n) == (level.m, level.n)
        for k in range(1, min(n, 4) + 1):
            n_eff = effective_n(n, k)
            got, want = spread_block_laws(urns, k, n_eff), spread_block_laws(level, k, n_eff)
            assert got == want, (n, k)
            assert verify_theorem(urns, k) == verify_theorem(level, k), (n, k)
        assert spread_block_laws(urns, 2)[1] == spread_block_laws(level, 2)[1], n


def test_urn_law_cost_does_not_depend_on_n():
    # a million Polya draws: only the k-histograms are listed, and P_k does
    # not depend on n
    law = polya_urn_law((1, 2), 10**6)
    p_k, m_k = spread_block_laws(law, 4)
    assert sum(m_k) == 1
    assert p_k == spread_block_laws(polya_urn_law((1, 2), 10), 4)[0]


def test_urn_law_records_pickle_compare_and_validate(monkeypatch):
    import pickle

    law = polya_urn_law((1, 2), 5)
    assert law == UrnLaw(2, 5, [([1, 2], 1)], 1) and hash(law) == hash(UrnLaw(2, 5, (((1, 2), 1),), 1))
    assert law != polya_urn_law((2, 1), 5)
    assert repr(law) == "UrnLaw(m=2, n=5, urns=(((1, 2), 1),), step=1)"
    assert pickle.loads(pickle.dumps(law)) == law
    with pytest.raises(AttributeError):
        law.step = 0
    with pytest.raises(AttributeError):
        law.extra = 1
    with pytest.raises(ValueError, match="step must be -1, 0 or 1"):
        law._replace(step=2)
    for urns, message in [
        ((), "nonnegative counts of 2 symbols"),
        ((((1, 2, 3), 1),), "nonnegative counts of 2 symbols"),
        ((((1, -1), 1),), "nonnegative counts of 2 symbols"),
        ((((1, 2), 1), ((1, 1), 1)), "same number of balls"),
        ((((1, 2), 0),), "not all zero"),
        ((((1, 2), Fraction(1, 2)),), "nonnegative integers"),
    ]:
        with pytest.raises(ValueError, match=message):
            UrnLaw(2, 5, urns, 1)
    with pytest.raises(ValueError, match="urns of 3 balls cannot give 5 draws at step -1"):
        UrnLaw(2, 5, (((1, 2), 1),), -1)
    with pytest.raises(ValueError, match="urns of 0 balls"):
        UrnLaw(2, 5, (((0, 0), 1),), 0)
    # n >= 1 is checked by the record alone, after each builder's own checks
    builds = (
        lambda: iid_law(THIRD, 0),
        lambda: polya_urn_law((1, 2), 0),
        lambda: UrnLaw(2, 0, (((1, 2), 1),), -1),
    )
    for build in builds:
        with pytest.raises(ValueError, match="n must be >= 1, got 0"):
            build()
    with pytest.raises(ValueError, match="n must be >= 1, got -3"):
        read_law(MIX_TEXT, -3)
    with pytest.raises(ValueError, match="initial composition must be positive"):
        polya_urn_law((0, 2), 0)
    with pytest.raises(ValueError, match="negative probability"):
        iid_law((Fraction(3, 2), Fraction(-1, 2)), 0)
    # the n-histograms are checked against the cap, as the level-n build checks them
    monkeypatch.setenv("FINETTI_CAP", "5")
    with pytest.raises(CapacityError, match=r"6 types at \(m=2, n=5\) exceeds cap 5"):
        polya_urn_law((1, 2), 5)


def test_random_type_weights_are_its_histograms_at_minus_one_and_pickle():
    import pickle

    law = random_type_weight_law(2, 9, 3)
    assert law.step == -1
    assert [counts for counts, _ in law.urns] == [t.counts for t in type_list(2, 9)]
    weights = [w for _, w in law.urns]
    assert [Fraction(w, sum(weights)) for w in weights] == list(histogram_pmf(law))
    back = pickle.loads(pickle.dumps(law))
    assert back == law and back.urns == law.urns


def test_random_type_weights_check_the_cap_before_drawing(monkeypatch):
    def no_draws(seed):
        raise AssertionError("a weight was drawn before the cap check")

    monkeypatch.setattr(random, "Random", no_draws)
    monkeypatch.setenv("FINETTI_CAP", "10")
    with pytest.raises(CapacityError, match=r"^2000001 types at \(m=2, n=2000000\) exceeds cap 10$"):
        random_type_weight_law(2, 2_000_000, 1)


def kernel_histogram_law(law: UrnLaw) -> Pmf:
    """Reference: the n-histogram weights from one urn-kernel pass at n."""
    numerators, den = urn_numerators(law.urns, law.n, law.step)
    types = type_list(law.m, law.n)
    return Pmf.from_numerators([type_class_size(t) * x for t, x in zip(types, numerators)], den)


def test_histogram_law_of_full_urns_matches_the_kernel_pass(tmp_path):
    typed = tmp_path / "typed.json"
    typed.write_text(json.dumps(type_weights_file(polya_urn_law((1, 2), 7))))
    laws = [
        random_type_weight_law(2, 400, 5),
        random_type_weight_law(3, 40, 2),
        delta_type_law(TypeVector((3, 0, 2))),
        read_law(typed.read_text()),
    ]
    for law in laws:
        assert law.step == -1
        assert histogram_pmf(law) == kernel_histogram_law(law)
    # urns larger than n draw a part of each urn: the kernel pass still reads them
    part = UrnLaw(2, 3, (((2, 3), 1), ((4, 1), 2)), -1)
    assert histogram_pmf(part) == kernel_histogram_law(part)


def test_histogram_law_of_full_urns_runs_no_kernel_pass_at_n(monkeypatch):
    import finetti.exchangeable as ex

    passes = []
    real = ex.urn_numerators

    def spy(urns, k, *args, **kwargs):
        passes.append(k)
        return real(urns, k, *args, **kwargs)

    monkeypatch.setattr(ex, "urn_numerators", spy)
    law = random_type_weight_law(2, 400, 5)
    weights = histogram_law(law)
    assert passes == []
    # each of the 401 urns is its own n-histogram, in type order, with its seeded weight
    nums = [w for _, w in law.urns]
    assert len(nums) == 401 and weights == (nums, sum(nums))
