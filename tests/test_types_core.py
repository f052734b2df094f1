"""Histogram machinery: enumeration, class sizes, exact growth bounds."""

from __future__ import annotations

import ast
import itertools
import math
import os
import random
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    Pmf,
    empirical_type,
    exp_n_entropy,
    exp_neg_n_divergence,
    sequence_probability_identity,
    type_class_probability,
)

from finetti.counts import (
    DEFAULT_ENUMERATION_CAP,
    DIGIT_LIMIT,
    CapacityError,
    TypeVector,
    count_types,
    occurrence_matrix,
    parse_rational,
    pmf_numerators,
    resolve_cap,
)
from finetti.types_core import cell_index, compositions, type_class_size, type_index_map, type_list


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
            got = [t.counts for t in type_list(m, n)]
            assert set(got) == brute_types(m, n)
            assert len(got) == len(set(got))


def test_enumeration_order_is_ascending():
    got = [t.counts for t in type_list(2, 2)]
    assert got == [(0, 2), (1, 1), (2, 0)]
    got3 = [t.counts for t in type_list(3, 2)]
    assert got3 == sorted(got3)
    # the count tuples that `types` walks come in the same order as type_list
    walk = list(compositions(60, 3))
    assert walk == sorted(walk) == [t.counts for t in type_list(3, 60)]
    assert len(walk) == count_types(3, 60) and list(compositions(5, 1)) == [(5,)]


def test_single_symbol_alphabet():
    got = [t.counts for t in type_list(1, 5)]
    assert got == [(5,)]


@given(st.integers(1, 6), st.integers(1, 30))
def test_count_formula(m, n):
    assert count_types(m, n) == math.comb(n + m - 1, m - 1)
    assert count_types(m, n) <= (n + 1) ** m


def test_count_matches_enumeration():
    for m in (1, 2, 3, 4):
        for n in (1, 3, 6):
            assert count_types(m, n) == len(type_list(m, n))


def test_class_sizes_partition_all_strings():
    for m in (2, 3):
        for n in (1, 2, 4, 6):
            assert sum(type_class_size(t) for t in type_list(m, n)) == m**n


def test_class_size_brute():
    # count strings of each histogram directly
    m, n = 3, 5
    tally: dict[tuple[int, ...], int] = {}
    for s in itertools.product(range(m), repeat=n):
        c = [0] * m
        for a in s:
            c[a] += 1
        tally[tuple(c)] = tally.get(tuple(c), 0) + 1
    for t in type_list(m, n):
        assert type_class_size(t) == tally[t.counts]


@given(st.integers(2, 3), st.integers(1, 12))
@settings(max_examples=40)
def test_growth_bounds_exact(m, n):
    """(n+1)^-m e^{nH} <= |class| <= e^{nH}, as exact rationals."""
    for t in type_list(m, n):
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
    for t in type_list(m, n):
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
    # an n-type is read as its counts over n, both divided by their gcd
    assert pmf_numerators(TypeVector((2, 3, 5))) == ((2, 3, 5), 10)
    assert pmf_numerators(TypeVector((2, 4, 6))) == ((1, 2, 3), 6)
    assert pmf_numerators(TypeVector((0, 4))) == ((0, 1), 1)
    # and the same pair as its pmf in Fractions
    assert pmf_numerators((Fraction(1, 6), Fraction(1, 3), Fraction(1, 2))) == ((1, 2, 3), 6)


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
    # a plain float tuple takes the log form
    q = (0.3, 0.45, 0.25)
    x = (0, 2, 1, 1, 0, 2, 1)
    lhs, rhs = sequence_probability_identity(x, q)
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_sequence_identity_rejects_bad_symbol():
    q = Pmf((Fraction(1, 2), Fraction(1, 2)))
    with pytest.raises(ValueError):
        sequence_probability_identity((0, 2), q)


# ---------------------------------------------------------------------------
# the pmf reader
# ---------------------------------------------------------------------------


def test_pmf_exactness_detection():
    # every pmf is exact: integer and Fraction entries are read, floats are refused
    assert pmf_numerators((1, 0)) == ((1, 0), 1)
    with pytest.raises(ValueError, match=r"^pmf entries and weights must be exact rationals, got 0.5$"):
        pmf_numerators((0.5, 0.5))
    with pytest.raises(ValueError, match="must be exact rationals"):
        pmf_numerators((Fraction(1, 2), 0.5))
    with pytest.raises(ValueError, match=r"^pmf sums to 5/6, not 1$"):
        pmf_numerators((Fraction(1, 2), Fraction(1, 3)))
    with pytest.raises(ValueError, match=r"^pmf sums to 2, not 1$"):
        pmf_numerators((1, 1))
    with pytest.raises(ValueError, match="must be exact rationals"):
        pmf_numerators((0.5, 0.6))
    with pytest.raises(ValueError, match=r"^negative probability$"):
        pmf_numerators((Fraction(3, 2), Fraction(-1, 2)))
    with pytest.raises(ValueError, match=r"^empty probability vector$"):
        pmf_numerators(())
    # the test-side Pmf is read by the same function, so it refuses the same
    with pytest.raises(ValueError, match="must be exact rationals"):
        Pmf((0.25, 0, 0.75))


# ---------------------------------------------------------------------------
# the reader of rational text
# ---------------------------------------------------------------------------

# Fraction(str)'s alphabet, with Unicode digits (ARABIC-INDIC THREE, FULLWIDTH
# ZERO) and spaces (NO-BREAK SPACE, EM SPACE), which its \d and \s match
RATIONAL_ALPHABET = "0123456789_./eE+-d \t\u0663\uff10\u00a0\u2003"


def _fraction_or_none(text: str):
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        return None


@settings(max_examples=3000, deadline=None)
@given(st.text(alphabet=RATIONAL_ALPHABET, max_size=12))
def test_parse_rational_reads_what_fraction_reads(text):
    # Fraction(str) is the oracle: the same value, or both refuse.  Declared
    # differences: an exponent past DIGIT_LIMIT is refused unbuilt (Fraction
    # builds 10**e); the grammar is Python 3.11's, so whitespace around "/"
    # is refused (3.12 accepts it) and underscores are read (3.10 refuses them)
    try:
        got = parse_rational(text)
    except ValueError as exc:
        if "exponent" in str(exc):
            assert abs(int(text.lower().split("e")[1])) > DIGIT_LIMIT
            return
        got = None
    want = _fraction_or_none(text)
    if got is None and want is not None:
        assert sys.version_info >= (3, 12) and re.search(r"\s/|/\s", text), text
    elif got is not None and want is None:
        assert sys.version_info < (3, 11) and "_" in text, text
    elif got is not None:
        assert got == (want.numerator, want.denominator) and got.denominator > 0


@pytest.mark.parametrize(
    "text, want",
    [
        ("3/4", (3, 4)),
        (" -0.25\t", (-1, 4)),
        ("1_0/2_0", (1, 2)),
        ("5e-1", (1, 2)),
        ("2.5E-1", (1, 4)),
        (".5", (1, 2)),
        ("7.", (7, 1)),
        ("-0", (0, 1)),
        ("\u0663/\u0664", (3, 4)),
        (f"1e{DIGIT_LIMIT}", (10**DIGIT_LIMIT, 1)),
        (f"1e-{DIGIT_LIMIT}", (1, 10**DIGIT_LIMIT)),
    ],
)
def test_parse_rational_spellings(text, want):
    assert parse_rational(text) == want == (Fraction(text).numerator, Fraction(text).denominator)


@pytest.mark.parametrize("text", ["", "1 / 2", "1/-2", "1_", "1__0", "_1", "1._5", "1.d", "e5", "1e", "0x10", "inf"])
def test_parse_rational_refuses_what_fraction_refuses(text):
    with pytest.raises(ValueError, match=f"^cannot read {re.escape(repr(text))} as a rational$"):
        parse_rational(text)
    if text != "1 / 2" or sys.version_info < (3, 12):
        assert _fraction_or_none(text) is None


@pytest.mark.parametrize(
    "text", [f"1e{DIGIT_LIMIT + 1}", f"1e-{DIGIT_LIMIT + 1}", "1e16000000", "2.5e-1_000_000", "1e" + "0" * 5000 + "1"]
)
def test_parse_rational_refuses_a_large_exponent_unbuilt(text):
    # 10**e is never built: each refusal takes microseconds, where Fraction
    # takes seconds at 1e16000000
    start = time.perf_counter()
    with pytest.raises(ValueError, match=f"exceeds {DIGIT_LIMIT} in absolute value$"):
        parse_rational(text)
    assert time.perf_counter() - start < 0.1


def test_parse_rational_refuses_a_zero_denominator():
    for text in ("1/0", "0/0", "3/0_0"):
        with pytest.raises(ValueError, match=f"^cannot read '{text}' as a rational$"):
            parse_rational(text)
        with pytest.raises(ZeroDivisionError):
            Fraction(text)


# ---------------------------------------------------------------------------
# capacity
# ---------------------------------------------------------------------------


def test_cap_blocks_large_enumerations(monkeypatch):
    monkeypatch.setenv("FINETTI_CAP", "10")
    with pytest.raises(CapacityError, match=r"^1771 types at \(m=4, n=20\) exceeds cap 10$"):
        type_list(4, 20)


def test_type_list_checks_cap_on_cache_hit(monkeypatch):
    assert len(type_list(3, 100)) == 5151
    monkeypatch.setenv("FINETTI_CAP", "10")
    with pytest.raises(CapacityError):
        type_list(3, 100)


def test_cell_index_checks_the_cells_on_cache_hit(monkeypatch):
    # each cell's histogram, by its position in type_list order
    index = cell_index(3, 4)
    blocks = [t.counts for t in type_list(3, 4)]
    assert [blocks[i] for i in index] == list(occurrence_matrix(3, 4))
    monkeypatch.setenv("FINETTI_CAP", "80")
    with pytest.raises(CapacityError, match=r"^81 cells at \(m=3, k=4\) exceeds cap 80$"):
        cell_index(3, 4)


def test_type_caches_stay_within_their_bound(monkeypatch):
    from finetti import types_core
    from finetti.counts import TYPE_CACHE_SIZE as bound

    first = type_list(2, 1)
    for n in range(1, 3 * bound):
        assert len(type_list(2, n)) == n + 1
        assert type_index_map(2, n)[(0, n)] == 0
        # the block histograms of A^1 over n symbols: one row per symbol
        assert occurrence_matrix(n, 1)[n - 1] == (0,) * (n - 1) + (1,)
        for cache in (types_core._type_tuple, type_index_map, occurrence_matrix):
            assert cache.cache_info().currsize <= bound
    # an evicted entry is rebuilt equal, and the cap still binds on every call
    assert type_list(2, 1) == first
    monkeypatch.setenv("FINETTI_CAP", "10")
    with pytest.raises(CapacityError):
        type_list(2, 3 * bound - 1)


def test_readme_states_the_default_cap():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    found = re.search(r"default ([\d,]+) = 2\^(\d+) histograms", readme)
    assert found, "README no longer states the default cap"
    stated, power = int(found.group(1).replace(",", "")), int(found.group(2))
    assert stated == 2**power == DEFAULT_ENUMERATION_CAP


def test_readme_states_the_exponent_limit():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    found = re.search(r"exponent past ([\d,]+)\s+in\s+absolute\s+value", readme)
    assert found, "README no longer states the exponent limit of rational text"
    assert int(found.group(1).replace(",", "")) == DIGIT_LIMIT
    assert f"exceeds {DIGIT_LIMIT} in absolute value" in readme


def test_readme_library_tour_names_exist():
    import importlib

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    tour = readme.split("\n## Library tour\n", 1)[1].split("\n## ", 1)[0]
    bullets = re.findall(r"^\* `(finetti\.\w+)`(.*?)(?=^\* |^$)", tour, re.M | re.S)
    assert len(bullets) == 10
    for module_name, text in bullets:
        module = importlib.import_module(module_name)
        for name in re.findall(r"`([^`]+)`", text):
            name = re.sub(r"\(.*\)$", "", name)  # theorem_constants(n, k, m) names theorem_constants
            owner = module
            for part in name.split("."):  # a dotted name names an attribute of its owner
                assert hasattr(owner, part), f"the README tour names {module_name}.{name}"
                owner = getattr(owner, part)


def test_every_module_export_resolves():
    # a deleted function must not leave its name behind in __all__
    import importlib
    import pkgutil

    import finetti

    modules = [m.name for m in pkgutil.iter_modules(finetti.__path__) if m.name != "__main__"]
    exported = 0
    for module_name in modules:
        module = importlib.import_module(f"finetti.{module_name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"finetti.{module_name}.__all__ names {name}"
            exported += 1
    assert "marginal_sets" in modules and exported > 0


# Exported names that no code in src/ or scripts/ calls, each kept for what checks it:
# none, since the references the tests check against live in tests/oracles.py.
UNCALLED_EXPORTS: dict[str, str] = {}


def _program_files() -> list[Path]:
    root = Path(__file__).resolve().parent.parent
    return sorted((root / "src" / "finetti").glob("*.py")) + sorted((root / "scripts").glob("*.py"))


def _code_references(tree) -> set[str]:
    """Names read as variables or attributes, outside the body that defines each name.

    Docstrings, comments, strings and import statements do not count.
    """
    found = set()
    for statement in tree.body:
        names = set()
        for node in ast.walk(statement):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
        names.discard(getattr(statement, "name", None))
        found |= names
    return found


def test_every_module_export_has_a_caller():
    # a public name that no CLI path or script calls leaves src, or says here what checks it
    import importlib

    referenced = set()
    for path in _program_files():
        referenced |= _code_references(ast.parse(path.read_text()))
    uncalled = []
    for path in _program_files():
        if path.parent.name == "finetti" and path.stem != "__main__":
            module = importlib.import_module(f"finetti.{path.stem}")
            uncalled += [n for n in getattr(module, "__all__", ()) if n not in referenced]
    assert sorted(set(uncalled) - set(UNCALLED_EXPORTS)) == [], "exported, but no code calls it"
    assert sorted(set(UNCALLED_EXPORTS) - set(uncalled)) == [], "called now, so not an exception"


def test_the_program_imports_only_the_standard_library():
    # finetti declares no run-time dependency: every import in src/ and scripts/
    # is a standard-library module or finetti itself
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name.split(".")[0] for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module.split(".")[0]]
            else:
                continue
            for top in tops:
                assert top == "finetti" or top in sys.stdlib_module_names, (path.name, top)


def test_only_read_law_imports_json():
    # the CLI writes its JSON with cli._json_line; only a law file is parsed,
    # so `import json` sits in exchangeable.read_law and nowhere else in src
    found = []
    for path in _program_files():
        if path.parent.name != "finetti":
            continue
        owner = {}
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                owner.update((inner, node.name) for inner in ast.walk(node))  # inner defs overwrite
            elif isinstance(node, ast.Import) and any(a.name.split(".")[0] == "json" for a in node.names):
                found.append((path.stem, owner.get(node)))
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "json":
                found.append((path.stem, owner.get(node)))
    assert found == [("exchangeable", "read_law")]


def test_the_cap_has_one_setting():
    # FINETTI_CAP, read in counts alone, is the only cap: no function takes a
    # cap argument and no parser adds a --cap option
    readers, cap_params, cap_flags = set(), [], []
    for path in _program_files():
        if path.parent.name != "finetti":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value == "FINETTI_CAP":
                readers.add(path.stem)
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                args = node.args
                every = args.posonlyargs + args.args + args.kwonlyargs + [args.vararg, args.kwarg]
                if any(a and a.arg == "cap" for a in every):
                    cap_params.append((path.stem, getattr(node, "name", "lambda")))
            elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) == "add_argument":
                names = [a.value for a in node.args if isinstance(a, ast.Constant)]
                cap_flags += [(path.stem, name) for name in names if name == "--cap"]
    assert readers == {"counts"}
    assert cap_params == []
    assert cap_flags == []


def test_only_the_text_parsers_import_fractions():
    # a pmf is integer numerators over one denominator, and rational text is
    # read into integers by counts.parse_rational: no program file imports
    # fractions, which the tests keep as their oracle
    importers = set()
    for path in _program_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                tops = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                tops = [node.module]
            else:
                continue
            if "fractions" in tops:
                importers.add(path.relative_to(path.parent.parent).as_posix())
    assert importers == set()


def test_cap_env_override(monkeypatch):
    monkeypatch.delenv("FINETTI_CAP", raising=False)
    assert resolve_cap() == DEFAULT_ENUMERATION_CAP == 2**26
    monkeypatch.setenv("FINETTI_CAP", "5")
    assert resolve_cap() == 5
    monkeypatch.setenv("FINETTI_CAP", "not-a-number")
    with pytest.raises(ValueError, match="FINETTI_CAP must be an integer, got 'not-a-number'"):
        resolve_cap()


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


def test_pmf_numerators_use_the_least_common_denominator():
    assert pmf_numerators([1, 0, 0]) == ((1, 0, 0), 1)
    mixed = [Fraction(1, 6), Fraction(1, 4), 0, Fraction(7, 12)]
    assert pmf_numerators(mixed) == ((2, 3, 0, 7), 12)
    assert pmf_numerators(Pmf((Fraction(2, 4), Fraction(1, 3), Fraction(1, 6)))) == ((3, 2, 1), 6)
    nums, den = pmf_numerators(iter(mixed))
    assert all(type(x) is int for x in nums) and type(den) is int
