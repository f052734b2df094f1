"""Command line behavior: exit codes, formats, reproducibility."""

from __future__ import annotations

import difflib
import hashlib
import json
import math
import os
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finetti.cli import (
    EXIT_CAPACITY,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_VIOLATION,
    _json_line,
    main,
)
from finetti.counts import count_types
from finetti.definetti import VerificationReport
from finetti.types_core import type_class_size, type_list
from oracles import (
    Pmf,
    exp_n_entropy,
    exp_neg_n_divergence,
    type_class_probability,
    type_weights_file,
)

ROOT = Path(__file__).resolve().parent.parent

MIX = """{
  "mixing": [
    {"pmf": ["3/4", "1/4"], "w": "1/2"},
    {"pmf": ["1/4", "3/4"], "w": "1/2"}
  ]
}
"""


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_types_text(capsys):
    code, out, _ = run(["types", "--m", "2", "--n", "6"], capsys)
    assert code == EXIT_OK
    assert "7 histograms" in out
    assert "pass" in out


def test_types_json(capsys):
    code, out, _ = run(["types", "--m", "2", "--n", "4", "--format", "json"], capsys)
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["pass"] is True
    assert payload["checks"]["count"] == 5
    assert payload["checks"]["bound_violations"] == 0
    assert len(payload["types"]) == 5


def test_types_single_symbol(capsys):
    code, out, _ = run(["types", "--m", "1", "--n", "7"], capsys)
    assert code == EXIT_OK
    assert "1 histograms" in out


def test_gibbs_degenerate_target(capsys):
    code, out, _ = run(
        ["gibbs", "--target", "1,0", "--k", "3", "--n", "6,12"], capsys
    )
    assert code == EXIT_OK
    for line in out.strip().splitlines()[1:]:
        assert float(line.split(",")[1]) == 0.0


def test_types_rejects_bad_pmf(capsys):
    code, _, err = run(["types", "--m", "2", "--n", "4", "--q", "1/2,1/3"], capsys)
    assert code == EXIT_INPUT
    assert "error" in err


def test_types_checks_m_before_the_uniform_pmf(capsys):
    # the message is count_types', read before the uniform q is built
    want = (EXIT_INPUT, "", "error: alphabet size must be >= 1, got 0\n")
    assert run(["types", "--m", "0", "--n", "3"], capsys) == want


def test_missing_required_flag_is_input_error(capsys):
    code = main(["types", "--m", "2"])
    capsys.readouterr()
    assert code == EXIT_INPUT


def test_verify_family_json(capsys):
    code, out, _ = run(
        ["verify", "--family", "fair-coin", "--n", "8,12", "--k", "2"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert len(lines) == 2
    for line, n in zip(lines, (8, 12)):
        rep = json.loads(line)
        assert rep["n"] == n and rep["k"] == 2
        assert rep["holds"] is True
        assert set(rep) == {
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


def test_verify_csv(capsys):
    code, out, _ = run(
        ["verify", "--family", "fair-coin", "--n", "8", "--k", "1,2", "--format", "csv"],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0].startswith("n,k,m,alpha,delta,epsilon,divergence,holds")
    assert len(lines) == 3


def test_readme_shows_the_verify_row():
    # the CSV header is the report's fields in order, the JSON example its keys
    readme = (ROOT / "README.md").read_text()
    header = readme.split("`--format csv` emits the same fields with header\n`", 1)[1]
    assert header.split("`", 1)[0] == ",".join(VerificationReport._fields)
    example = readme.split("$ finetti verify --family fair-coin --n 800 --k 2\n", 1)[1]
    assert set(json.loads(example.split("```", 1)[0])) == set(VerificationReport._fields)


def test_verify_law_file(tmp_path, capsys):
    path = tmp_path / "mix.json"
    path.write_text(MIX)
    code, out, _ = run(["verify", "--law", str(path), "--n", "6", "--k", "2"], capsys)
    assert code == EXIT_OK
    rep = json.loads(out.strip())
    assert rep["n"] == 6 and rep["holds"] is True


def test_verify_law_file_n_must_match_the_grid(tmp_path, capsys):
    path = tmp_path / "mix10.json"
    path.write_text(json.dumps(dict(json.loads(MIX), n=10)))
    code, out, err = run(["verify", "--law", str(path), "--n", "20,40", "--k", "2"], capsys)
    assert code == EXIT_INPUT and out == ""
    assert "n=10" in err and "n=20" in err
    code, out, _ = run(["verify", "--law", str(path), "--n", "10", "--k", "2"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["n"] == 10


def test_verify_malformed_law_file_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("not json")
    code, out, err = run(["verify", "--law", str(path), "--n", "4", "--k", "2"], capsys)
    assert (code, out, err) == (EXIT_INPUT, "", "error: Expecting value: line 1 column 1 (char 0)\n")


def test_verify_needs_exactly_one_source(capsys):
    code, _, err = run(["verify", "--k", "2"], capsys)
    assert code == EXIT_INPUT
    code2, _, _ = run(
        ["verify", "--law", "x.json", "--family", "fair-coin", "--n", "4", "--k", "2"],
        capsys,
    )
    assert code2 == EXIT_INPUT


def test_verify_biased_requires_p(capsys):
    code, _, err = run(["verify", "--family", "biased", "--n", "6", "--k", "2"], capsys)
    assert code == EXIT_INPUT
    assert "--p" in err


def test_verify_seed_required_for_random_family(capsys):
    code, _, err = run(
        ["verify", "--family", "random-type-weights", "--m", "2", "--n", "6", "--k", "2"],
        capsys,
    )
    assert code == EXIT_INPUT
    assert "seed" in err


def test_verify_seeded_output_is_byte_identical(capsys):
    args = [
        "verify",
        "--family",
        "random-type-weights",
        "--m",
        "2",
        "--n",
        "10",
        "--k",
        "2",
        "--seed",
        "42",
    ]
    _, out1, _ = run(args, capsys)
    _, out2, _ = run(args, capsys)
    assert out1 == out2


def test_verify_polya_and_delta_families(capsys):
    code, out, _ = run(
        ["verify", "--family", "polya", "--init", "1,1", "--n", "8", "--k", "2"], capsys
    )
    assert code == EXIT_OK
    code2, out2, _ = run(
        ["verify", "--family", "delta-type", "--counts", "4,4", "--k", "2"], capsys
    )
    assert code2 == EXIT_OK
    assert json.loads(out2.strip())["n"] == 8


def test_verify_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        [
            "verify",
            "--family",
            "fair-coin",
            "--n",
            "8",
            "--k",
            "2",
            "--out",
            str(target),
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert out == ""
    rep = json.loads(target.read_text().strip())
    assert rep["holds"] is True


OUT_COMMANDS = [
    "types --m 3 --n 12 --q 0,1/4,3/4",
    "types --m 3 --n 12 --q 0,1/4,3/4 --format json",
    "verify --family polya --init 1,1 --n 12 --k 2,3",
    "verify --family polya --init 1,1 --n 12 --k 2,3 --format csv",
    "gibbs --target 1/3,2/3 --k 2 --n 4,16",
    "lemma lemma1 --q 4,4,4 --k 2 --l 6 --seed 1",
    "lemma lemma3 --q 4,4,4 --k 2",
    "lemma dbound --q 6,6 --k 2",
    "lemma pythagoras --q 4,4,4 --k 2",
]


@pytest.mark.parametrize("command", OUT_COMMANDS)
def test_out_writes_the_stdout_bytes(tmp_path, capsys, command):
    code, out, err = run(command.split(), capsys)
    assert out and not err
    target = tmp_path / "out.txt"
    assert run([*command.split(), "--out", str(target)], capsys) == (code, "", "")
    assert target.read_text() == out
    # a path inside a missing directory is bad input: nothing is printed or made
    missing = tmp_path / "missing" / "out.txt"
    code, out, err = run([*command.split(), "--out", str(missing)], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.startswith("error: [Errno 2] No such file or directory")
    assert not missing.parent.exists()


def test_env_cap_gives_capacity_exit(monkeypatch, capsys):
    monkeypatch.setenv("FINETTI_CAP", "10")
    code, _, err = run(["types", "--m", "4", "--n", "20"], capsys)
    assert code == EXIT_CAPACITY
    assert "capacity" in err


@pytest.mark.parametrize(
    "command, env_cap",
    [
        ("verify --family fair-coin --n 40 --k 8", "100"),
        ("gibbs --target 1/2,1/2 --k 8 --n 40", "100"),
        ("lemma lemma1 --q 28,28 --k 7 --l 8 --seed 1", "100"),
    ],
)
def test_the_cells_of_a_k_count_against_the_cap(monkeypatch, capsys, command, env_cap):
    # verify and gibbs sum a divergence over A^k, lemma1 lists Q^k over it:
    # m^k cells are refused before they are listed, with the message of lemma3
    monkeypatch.setenv("FINETTI_CAP", env_cap)
    k = 7 if command.startswith("lemma") else 8
    want = f"capacity: {2**k} cells at (m=2, k={k}) exceeds cap 100\n"
    assert run(command.split(), capsys) == (EXIT_CAPACITY, "", want)
    code, _, err = run(["lemma", "lemma3", "--m", "2", "--q", "1,1", "--k", "8"], capsys)
    assert (code, err) == (EXIT_CAPACITY, "capacity: 256 cells at (m=2, k=8) exceeds cap 100\n")


def test_lemma3_grid_walk_meets_the_cap_first(monkeypatch, capsys):
    # the walk counts C(256 + 2 - 1, 2) = 32,896 block histograms over the 256
    # cells of A^8, more than the cells and the 9 k-histograms of Q^k, so the
    # one cap refuses the walk before anything of Q^k is listed
    args = "lemma lemma3 --q 8,8 --k 8 --mode grid --l 2".split()
    want = "capacity: 32896 block histograms at (cells=256, l=2) exceeds cap {}\n"
    for cap in ("5", "100", "32895"):
        monkeypatch.setenv("FINETTI_CAP", cap)
        assert run(args, capsys) == (EXIT_CAPACITY, "", want.format(cap))
    monkeypatch.setenv("FINETTI_CAP", "32896")
    code, out, _ = run(args, capsys)
    assert code == EXIT_OK and json.loads(out)["mode"] == "grid"


def test_type_weights_file_checks_the_cap_before_sizing_its_weights(monkeypatch, tmp_path, capsys):
    # C(1029, 29) weights cannot be listed; the cap refuses them up front
    monkeypatch.delenv("FINETTI_CAP", raising=False)
    law = tmp_path / "big.json"
    law.write_text(json.dumps({"m": 30, "n": 1000, "typeWeights": [{"counts": [1000] + [0] * 29, "w": "1"}]}))
    want = f"capacity: {math.comb(1029, 29)} types at (m=30, n=1000) exceeds cap 67108864\n"
    assert run(["verify", "--law", str(law), "--k", "2"], capsys) == (EXIT_CAPACITY, "", want)


# counts too long to build, or to write in full: each is refused at once with exit 2
HUGE_COUNTS = [
    ("types --m 3000 --n 100000", "capacity: at least 2^19556 types at (m=3000, n=100000) exceeds cap 67108864\n"),
    (
        "verify --family random-type-weights --seed 1 --m 3000 --n 100000 --k 2",
        "capacity: at least 2^19556 types at (m=3000, n=100000) exceeds cap 67108864\n",
    ),
    (
        "lemma lemma3 --q 1,1 --k 1000000000",
        "capacity: 2^1000000000 cells at (m=2, k=1000000000) exceeds cap 67108864\n",
    ),
    (
        "lemma lemma3 --q 1,1 --k 1000000000 --mode grid --l 2",
        "capacity: 2^1000000000 cells at (m=2, k=1000000000) exceeds cap 67108864\n",
    ),
    (
        "lemma dbound --q 1030,1030 --k 1030",
        f"capacity: {math.comb(2**1030 + 1, 2)} block histograms at (cells={2**1030}, l=2) exceeds cap 67108864\n",
    ),
]


@pytest.mark.parametrize("command, stderr", HUGE_COUNTS, ids=[c for c, _ in HUGE_COUNTS])
def test_a_count_of_any_size_exits_2(monkeypatch, capsys, command, stderr):
    # a count past 4,300 digits reads "at least 2^b"; an m^k past them and the
    # cap is never built; dbound checks its walk's cap before its constants
    monkeypatch.delenv("FINETTI_CAP", raising=False)
    start = time.perf_counter()
    assert run(command.split(), capsys) == (EXIT_CAPACITY, "", stderr)
    assert time.perf_counter() - start < 1


def test_env_cap_binds_verify(monkeypatch, capsys):
    args = ["verify", "--family", "fair-coin", "--n", "800", "--k", "2"]
    code, _, _ = run(args, capsys)
    assert code == EXIT_OK
    monkeypatch.setenv("FINETTI_CAP", "10")
    code, _, err = run(args, capsys)
    assert code == EXIT_CAPACITY
    assert "capacity" in err


# every verify source at n = 800, where the level-n law would list 801 histograms;
# the test writes the typeWeights file
TYPE_WEIGHTS_800 = {"m": 2, "n": 800, "typeWeights": [{"counts": [400, 400], "w": "1"}]}
CAP_SOURCES = [
    ["--family", "fair-coin"],
    ["--family", "biased", "--p", "1/3"],
    ["--family", "polya", "--init", "1,1"],
    ["--family", "delta-type", "--counts", "400,400"],
    ["--family", "random-type-weights", "--seed", "1", "--m", "2"],
    ["--law", str(ROOT / "laws" / "mix.json")],
    ["--law", "type-weights-800.json"],
]


@pytest.mark.parametrize("source", CAP_SOURCES, ids=[s[1].rsplit("/", 1)[-1] for s in CAP_SOURCES])
def test_env_cap_binds_every_verify_source(monkeypatch, capsys, tmp_path, source):
    # urn laws never list their n-histograms, but still count them against the cap
    path = tmp_path / "type-weights-800.json"
    path.write_text(json.dumps(TYPE_WEIGHTS_800))
    source = [str(path) if a == path.name else a for a in source]
    monkeypatch.setenv("FINETTI_CAP", "10")
    code, out, err = run(["verify", *source, "--n", "800", "--k", "2"], capsys)
    assert (code, out) == (EXIT_CAPACITY, "")
    assert err == "capacity: 801 types at (m=2, n=800) exceeds cap 10\n"


URN_SOURCES = [
    ["--family", "fair-coin", "--n", "30,31"],
    ["--family", "biased", "--p", "1/3", "--n", "30,31"],
    ["--family", "polya", "--init", "2,1", "--n", "40,41"],
    ["--family", "delta-type", "--counts", "3,2,1"],
    ["--law", str(ROOT / "laws" / "mix.json"), "--n", "200,403"],
]


def _spy_on_kernel(monkeypatch):
    """Record the (m, n) of every type_list call and the k of every urn_numerators call."""
    import finetti.types_core as tc

    calls = {"urn_numerators": [], "type_list": []}
    picks = {"urn_numerators": lambda args: args[1], "type_list": lambda args: args[:2]}
    for name in calls:
        real = getattr(tc, name)

        def spy(*args, _real=real, _seen=calls[name], _pick=picks[name], **kwargs):
            _seen.append(_pick(args))
            return _real(*args, **kwargs)

        for mod in [mod for key, mod in sys.modules.items() if key.startswith("finetti")]:
            if getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, spy)
    return calls


@pytest.mark.parametrize("source", URN_SOURCES, ids=[s[1].rsplit("/", 1)[-1] for s in URN_SOURCES])
def test_verify_urn_families_run_the_kernel_at_k_only(monkeypatch, capsys, source):
    calls = _spy_on_kernel(monkeypatch)
    code, out, _ = run(["verify", *source, "--k", "2,3"], capsys)
    assert code == EXIT_OK and len(out.splitlines()) == 4 - 2 * ("delta-type" in source)
    # one pass per law, at the grid's largest k
    assert calls["urn_numerators"] == [3] * (len(out.splitlines()) // 2)
    assert {m_n[1] for m_n in calls["type_list"]} <= {1, 2, 3}


def test_verify_random_type_weights_still_lists_level_n(monkeypatch, capsys):
    calls = _spy_on_kernel(monkeypatch)
    args = ["verify", "--family", "random-type-weights", "--seed", "5", "--m", "2", "--n", "40,41"]
    code, _, _ = run([*args, "--k", "2,3"], capsys)
    assert code == EXIT_OK
    assert calls["urn_numerators"] == [3, 3]
    assert {(2, 40), (2, 41)} <= set(calls["type_list"])


def test_verify_grid_makes_one_kernel_pass_per_law_at_its_largest_k(monkeypatch, capsys):
    import finetti.exchangeable as ex

    seen = []

    def spy(urns, k, step, *args, _real=ex.urn_numerators, **kwargs):
        seen.append(k)
        return _real(urns, k, step, *args, **kwargs)

    monkeypatch.setattr(ex, "urn_numerators", spy)
    args = ["verify", "--family", "polya", "--init", "2,1,1", "--n", "12,13,14", "--k", "2,4,1,3,3"]
    code, out, _ = run(args, capsys)
    assert code == EXIT_OK and len(out.splitlines()) == 15
    assert seen == [4, 4, 4]


def test_verify_has_no_jobs_option(capsys):
    code, out, err = run(["verify", "--family", "fair-coin", "--n", "8", "--k", "2", "--jobs", "2"], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err.splitlines()[-1] == "finetti: error: unrecognized arguments: --jobs 2"


@pytest.mark.parametrize("seed", [1, 2])
def test_verify_type_weights_file_prints_its_family(capsys, tmp_path, seed):
    # a typeWeights file is read as its n-histograms at -1, the law the family builds
    from finetti.exchangeable import random_type_weight_law

    path = tmp_path / "law.json"
    path.write_text(json.dumps(type_weights_file(random_type_weight_law(2, 40, seed))))
    family = ["--family", "random-type-weights", "--seed", str(seed), "--m", "2", "--n", "40"]
    want = run(["verify", *family, "--k", "2,3"], capsys)
    assert want[0] == EXIT_OK and len(want[1].splitlines()) == 2
    assert run(["verify", "--law", str(path), "--k", "2,3"], capsys) == want


def test_verify_polya_at_n_100000_runs(capsys):
    # its level-n law would hold 100,001 class numerators of up to 4.6e5 digits
    args = ["verify", "--family", "polya", "--init", "1,1", "--n", "100000", "--k", "2"]
    code, out, _ = run(args, capsys)
    rep = json.loads(out)
    assert code == EXIT_OK and rep["holds"] and rep["effective_n"] == 100000
    assert 0 < rep["divergence"] < 1e-9


def test_verify_has_no_backend_or_cap_flag(capsys):
    # the one cap is FINETTI_CAP, on every subcommand
    for command in (
        "verify --family fair-coin --n 8 --k 2",
        "types --m 2 --n 4",
        "lemma lemma3 --q 2,2 --k 2",
        "gibbs --target 1/2,1/2 --k 2 --n 20",
    ):
        assert run(command.split(), capsys)[0] == EXIT_OK
        for extra in (["--backend", "float"], ["--cap", "10"]):
            code, out, err = run([*command.split(), *extra], capsys)
            assert (code, out) == (EXIT_INPUT, "")
            assert err.endswith(f" error: unrecognized arguments: {' '.join(extra)}\n")


def test_lemma1_requires_seed(capsys):
    code, _, err = run(["lemma", "lemma1", "--k", "2", "--l", "20"], capsys)
    assert code == EXIT_INPUT
    assert "seed" in err


def test_lemma1_runs(capsys):
    code, out, _ = run(
        ["lemma", "lemma1", "--k", "2", "--l", "50", "--seed", "7"], capsys
    )
    assert code == EXIT_OK
    rep = json.loads(out.strip())
    assert rep["pass"] is True
    assert rep["deviation"] <= rep["deviation_bound"]
    assert rep["seed"] == 7


def test_lemma1_seed_reproducible(capsys):
    args = ["lemma", "lemma1", "--k", "2", "--l", "50", "--seed", "3"]
    _, a, _ = run(args, capsys)
    _, b, _ = run(args, capsys)
    assert a == b


def test_lemma3_bound_holds(capsys):
    code, out, _ = run(["lemma", "lemma3", "--k", "2", "--q", "2,2"], capsys)
    assert code == EXIT_OK
    rep = json.loads(out.strip())
    assert rep["max_divergence"] <= rep["bound"] + 1e-12


@pytest.mark.parametrize(
    "m, q, k, candidates, support, value",
    [
        # recorded from the Fraction Gauss-Jordan vertex search
        (3, "4,4,4", 3, 187, {5: 1.0}, 3.2958368660043287),
        (3, "6,3,3", 2, 11, {0: 0.5, 5: 0.5}, 1.3862943611198904),
        (2, "5,5", 4, 31, {3: 1.0}, 2.772588722239781),
        # recorded from the cell-level search over all 64 cells
        (4, "1,2,3,4", 3, 34792, {0: 0.1, 22: 0.3, 47: 0.6}, 2.941616952644223),
    ],
)
def test_lemma3_exact_vertex_search_is_stable(capsys, m, q, k, candidates, support, value):
    code, out, _ = run(["lemma", "lemma3", "--m", str(m), "--q", q, "--k", str(k)], capsys)
    assert code == EXIT_OK
    rep = json.loads(out)
    assert rep["candidates"] == candidates
    assert rep["max_divergence"] == value
    witness = [support.get(b, 0.0) for b in range(m**k)]
    assert json.dumps(rep["witness"]) == json.dumps(witness)


@pytest.mark.parametrize(
    "extra, code",
    [
        # 128 cells, 8 histogram columns: 36 column subsets
        (["--m", "2", "--q", "1,1", "--k", "7"], EXIT_OK),
        # 49 cells, 28 columns over 7 rows: refused before the first solve
        (["--m", "7", "--q", "1,1,1,1,1,1,1", "--k", "2"], EXIT_CAPACITY),
        # the 128-cell witness exceeds the enumeration cap
        (["FINETTI_CAP=100", "--m", "2", "--q", "1,1", "--k", "7"], EXIT_CAPACITY),
    ],
)
def test_lemma3_exact_limits_count_subsets_and_cells(monkeypatch, capsys, extra, code):
    # a leading NAME=value word sets the environment, as in a shell
    env = [word for word in extra if "=" in word]
    for word in env:
        monkeypatch.setenv(*word.split("=", 1))
    got, out, err = run(["lemma", "lemma3", "--mode", "exact"] + extra[len(env):], capsys)
    assert got == code, err
    if code == EXIT_OK:
        assert json.loads(out)["candidates"] == 4096
    else:
        assert out == "" and err.startswith("capacity:")


def test_dbound_runs(capsys):
    code, out, _ = run(["lemma", "dbound", "--k", "2", "--q", "4,4"], capsys)
    assert code == EXIT_OK
    rep = json.loads(out.strip())
    assert rep["conditional_mean_divergence"] <= rep["epsilon"]
    assert rep["members"] == 9


def test_pythagoras_runs(capsys):
    code, out, _ = run(["lemma", "pythagoras", "--k", "2", "--q", "4,4"], capsys)
    assert code == EXIT_OK
    rep = json.loads(out.strip())
    assert rep["identity_exact"] is True
    assert rep["argmin_is_product"] is True


@pytest.mark.parametrize("q, on_lattice", [("24,8", True), ("3,1", False), ("6,0,6", False)])
def test_pythagoras_product_lattice_test_is_per_cell(capsys, q, on_lattice):
    # 16 * Q^2 = (9, 3, 3, 1) at q = (24, 8): the argmin matches it cell by cell
    code, out, _ = run(["lemma", "pythagoras", "--k", "2", "--q", q], capsys)
    rep = json.loads(out)
    assert code == EXIT_OK
    assert rep["product_on_lattice"] is on_lattice
    assert rep["argmin_is_product"] is True


@pytest.mark.parametrize("name", ["dbound", "pythagoras"])
def test_lemma_rejects_k_below_one(capsys, name):
    code, out, err = run(["lemma", name, "--q", "4,4", "--k", "0"], capsys)
    assert (code, out, err) == (EXIT_INPUT, "", "error: k must be >= 1, got 0\n")


@pytest.mark.parametrize("name", ["dbound", "pythagoras"])
def test_lemma_rejects_l_other_than_n_over_k(capsys, name):
    code, out, err = run(["lemma", name, "--q", "4,4", "--k", "2", "--l", "3"], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert err == f"error: --l 3 is not n/k = 4; {name} takes l = n/k\n"
    code, out, _ = run(["lemma", name, "--q", "4,4", "--k", "2", "--l", "4"], capsys)
    assert code == EXIT_OK and json.loads(out)["l"] == 4


def test_dbound_checks_the_theorem_delta_before_the_walk(monkeypatch, capsys):
    import finetti.dbound as dbound

    def no_walk(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(dbound, "_orbit_walk", no_walk)
    dbound._member_rows.cache_clear()
    code, out, err = run(["lemma", "dbound", "--q", "1,1", "--k", "1"], capsys)
    assert (code, out) == (EXIT_INPUT, "")
    assert "delta(n, k, m)" in err and "not positive" in err and "--delta" in err
    monkeypatch.undo()
    code, out, _ = run(["lemma", "dbound", "--q", "1,1", "--k", "1", "--delta", "0.5"], capsys)
    assert code == EXIT_OK and json.loads(out)["delta"] == 0.5


def test_lemma_rejects_mismatched_shape(capsys):
    code, _, _ = run(
        ["lemma", "lemma1", "--k", "2", "--l", "10", "--q", "9,9", "--seed", "1"],
        capsys,
    )
    assert code == EXIT_INPUT


LEMMA_Q3 = {
    "lemma1": ["--q", "4,4,4", "--k", "2", "--l", "6", "--seed", "1"],
    "lemma3": ["--q", "4,4,4", "--k", "2"],
    "dbound": ["--q", "4,4,4", "--k", "2"],
    "pythagoras": ["--q", "4,4,4", "--k", "2"],
}


@pytest.mark.parametrize("name", LEMMA_Q3)
def test_lemma_m_must_be_the_cell_count_of_q(capsys, name):
    # an omitted --m is read from --q; a given one must agree with it
    base = ["lemma", name, *LEMMA_Q3[name]]
    code, out, err = run(base, capsys)
    assert (code, err) == (EXIT_OK, "") and json.loads(out)["m"] == 3
    assert run(base + ["--m", "3"], capsys) == (EXIT_OK, out, "")
    clash = (EXIT_INPUT, "", "error: --q has 3 cells, but --m 2\n")
    assert run(base + ["--m", "2"], capsys) == clash


def test_lemma1_without_q_is_balanced_on_m_letters(capsys):
    for extra, m in [([], 2), (["--m", "3"], 3)]:
        code, out, _ = run(["lemma", "lemma1", "--k", "3", "--l", "4", "--seed", "1", *extra], capsys)
        assert code == EXIT_OK and json.loads(out)["m"] == m


def test_gibbs_csv(capsys):
    code, out, _ = run(
        ["gibbs", "--target", "1/2,1/2", "--k", "2", "--n", "4,16,64"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().splitlines()
    assert lines[0] == "n,divergence_nats,max_abs_deviation"
    assert len(lines) == 4
    assert float(lines[1].split(",")[1]) == pytest.approx(0.05663301226513234)


def test_gibbs_threshold_violation(capsys):
    code, _, _ = run(
        ["gibbs", "--target", "1/2,1/2", "--k", "2", "--n", "4", "--threshold", "0.01"],
        capsys,
    )
    assert code == EXIT_VIOLATION


@pytest.mark.parametrize("threshold", ["nan", "inf", "-inf", "0", "-0.5"])
def test_gibbs_threshold_must_be_finite_and_positive(capsys, threshold):
    # nan made every trace fail and inf every trace pass; both are bad input now
    args = ["gibbs", "--target", "1/2,1/2", "--k", "2", "--n", "4", f"--threshold={threshold}"]
    want = f"error: --threshold must be finite and positive, got {float(threshold)}\n"
    assert run(args, capsys) == (EXIT_INPUT, "", want)


def test_gibbs_bad_target(capsys):
    code, _, _ = run(["gibbs", "--target", "1/2,1/3", "--k", "2", "--n", "4"], capsys)
    assert code == EXIT_INPUT


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "finetti", "types", "--m", "2", "--n", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "5 histograms" in proc.stdout


@pytest.mark.parametrize(
    "source, ns",
    [
        (["--family", "polya", "--init", "1,1,1"], ["24", "25"]),
        (["--law", str(ROOT / "laws" / "mix.json")], ["200", "403"]),
    ],
    ids=["polya", "mix.json"],
)
def test_parallel_jobs_match_serial_for_urn_laws(capsys, source, ns):
    # the grid reads every k of a law from one kernel pass; each (n, k) cell
    # run alone must print the same line, in the grid's n-major order
    code, grid, _ = run(["verify", *source, "--n", ",".join(ns), "--k", "2,3"], capsys)
    assert code == EXIT_OK and len(grid.splitlines()) == 4
    cells = [run(["verify", *source, "--n", n, "--k", k], capsys) for n in ns for k in ("2", "3")]
    assert all(c == EXIT_OK for c, _, _ in cells)
    assert "".join(out for _, out, _ in cells) == grid


def test_dbound_rejects_a_bad_delta_before_the_walk(monkeypatch, capsys):
    import finetti.dbound as dbound

    def no_walk(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(dbound, "_orbit_walk", no_walk)
    dbound._member_rows.cache_clear()
    for delta, message in [
        ("-1", "delta must be positive, got -1.0"),
        ("0", "delta must be positive, got 0.0"),
        ("nan", "delta must be finite, got nan"),
        ("inf", "delta must be finite, got inf"),
        ("-inf", "delta must be finite, got -inf"),
    ]:
        code, out, err = run(["lemma", "dbound", "--q", "400,400", "--k", "2", f"--delta={delta}"], capsys)
        assert (code, out, err) == (EXIT_INPUT, "", f"error: {message}\n"), delta


def test_cli_start_loads_no_pool_and_no_dataclasses():
    # import cost is paid by every CLI call: no process pool machinery is
    # loaded, and the records are tuples, not dataclasses
    code = (
        "import sys; from finetti.cli import main; "
        "rc = main(['verify', '--family', 'fair-coin', '--n', '8', '--k', '2']); "
        "heavy = {'dataclasses', 'concurrent.futures', 'multiprocessing'}; "
        "print(sorted(heavy & set(sys.modules)), rc)"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[] 0"


def _env_with_finetti() -> dict[str, str]:
    """The environment with the imported finetti's source first on PYTHONPATH."""
    src = str(Path(__import__("finetti").__file__).resolve().parent.parent)
    path = [src] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


def test_cli_start_loads_no_random_and_no_exactlog():
    # the seeded families and the lemma1 shuffle import random themselves;
    # -S keeps site hooks (.pth files), which may import it, out of the check
    env = _env_with_finetti()
    code = (
        "import sys; import finetti.cli; "
        "print(sorted({'random', 'finetti.exactlog'} & set(sys.modules)))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# the finetti modules each start loads: a start compiles only what its subcommand
# runs, and only its own handler module among cli_types, cli_verify, cli_lemma, cli_gibbs;
# each lemma start loads only its own lemma's module
LEMMA3_MODULES = {"cli", "cli_lemma", "counts", "lemma3"}
START_MODULES = [
    ("--help", {"cli"}),
    ("verify --help", {"cli", "cli_verify"}),
    (
        "verify --family fair-coin --n 8 --k 2",
        {"cli", "cli_verify", "definetti", "bound", "exchangeable", "types_core", "counts"},
    ),
    (
        "gibbs --target 1/2,1/2 --k 2 --n 4 --threshold 1",
        {"cli", "cli_gibbs", "gibbs", "types_core", "counts"},
    ),
    ("types --m 2 --n 4", {"cli", "cli_types", "types_core", "counts"}),
    ("lemma lemma1 --q 4,4 --k 2 --l 4 --seed 1", {"cli", "cli_lemma", "counts", "lemma1"}),
    ("lemma lemma3 --q 4,4 --k 2", LEMMA3_MODULES),
    ("lemma lemma3 --q 4,4 --k 2 --mode grid --l 4", LEMMA3_MODULES | {"marginal_sets"}),
    ("lemma pythagoras --q 4,4 --k 2", {"cli", "cli_lemma", "counts", "marginal_sets"}),
    (
        "lemma dbound --q 4,4 --k 2",
        {"cli", "cli_lemma", "counts", "marginal_sets", "dbound", "bound"},
    ),
]


@pytest.mark.parametrize("command, modules", START_MODULES, ids=[c for c, _ in START_MODULES])
def test_cli_start_loads_only_its_subcommands_modules(command, modules):
    # run as `python -m finetti`; -S keeps site hooks out of the module set,
    # and no start loads typing
    code = (
        "import runpy, sys; sys.argv[0] = 'finetti'\n"
        "try:\n    runpy.run_module('finetti', run_name='__main__')\n"
        "except SystemExit as exc:\n    rc = exc.code\n"
        "print(rc, 'typing' in sys.modules, "
        "sorted(m for m in sys.modules if m.startswith('finetti.')), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *command.split()],
        capture_output=True,
        text=True,
        env=_env_with_finetti(),
    )
    loaded = proc.stderr.strip().splitlines()[-1]
    assert loaded == f"0 False {sorted(f'finetti.{name}' for name in modules)}", proc.stderr


# (start, modules it must not load besides fractions and decimal); the last
# four read rationals from text, with counts.parse_rational
INTEGER_STARTS = [
    ("lemma dbound --q 120,120 --k 2", {"finetti.lemma3", "finetti.types_core", "finetti.definetti"}),
    (
        "lemma pythagoras --q 4,4,4 --k 2",
        {"finetti.lemma3", "finetti.lemma1", "finetti.types_core", "finetti.dbound"},
    ),
    (
        "lemma lemma1 --q 40,40 --k 2 --l 40 --seed 3",
        {"finetti.marginal_sets", "finetti.lemma3", "finetti.types_core", "finetti.dbound"},
    ),
    ("lemma lemma3 --q 4,4,4 --k 2", {"finetti.marginal_sets", "finetti.types_core", "finetti.dbound"}),
    (
        "lemma lemma3 --q 6,6 --k 2 --mode grid --l 6",
        {"finetti.lemma1", "finetti.types_core", "finetti.dbound"},
    ),
    ("verify --family fair-coin --n 8 --k 2", set()),
    ("verify --family polya --init 1,2 --n 9 --k 2,3", set()),
    ("verify --family delta-type --counts 3,2,1 --k 2", set()),
    ("verify --family random-type-weights --seed 5 --m 2 --n 12 --k 2", set()),
    ("types --m 2 --n 4", set()),
    ("types --m 3 --n 60 --q 1/2,1/3,1/6", set()),
    ("gibbs --target 1/2,1/3,1/6 --k 3 --n 6,60", set()),
    ("verify --family biased --p 0.3 --n 20 --k 2", set()),
    ("verify --law laws/mix.json --n 40 --k 2", set()),
]


@pytest.mark.parametrize("command, absent", INTEGER_STARTS, ids=[c for c, _ in INTEGER_STARTS])
def test_integer_lemma_starts_load_no_fractions(command, absent):
    # every pmf is read as integer numerators, and rational text into integers:
    # no Fraction (which brings decimal), and no other lemma's code
    code = (
        "import runpy, sys; sys.argv[0] = 'finetti'\n"
        "try:\n    runpy.run_module('finetti', run_name='__main__')\n"
        "except SystemExit as exc:\n    rc = exc.code\n"
        "print(rc, sorted(m for m in sys.modules if m in WATCHED), file=sys.stderr)"
    )
    watched = {"fractions", "decimal"} | absent
    proc = subprocess.run(
        [sys.executable, "-S", "-c", f"WATCHED = {sorted(watched)!r}\n{code}", *command.split()],
        capture_output=True,
        text=True,
        env=_env_with_finetti(),
        cwd=ROOT,
    )
    assert proc.stderr.strip().splitlines()[-1] == "0 []", proc.stderr


# every start writes its JSON with cli._json_line; only a law file is parsed as JSON
JSON_STARTS = [command for command, _ in START_MODULES + INTEGER_STARTS] + [
    "types --m 3 --n 12 --q 1/2,1/3,1/6 --format json",
    "lemma lemma1 --q 400,400 --k 2 --l 400 --seed 7",
    "verify --family random-type-weights --seed 5 --m 2 --n 40,41 --k 2,3",
]


@pytest.mark.parametrize("command", JSON_STARTS)
def test_only_a_law_file_start_loads_json(command):
    code = (
        "import runpy, sys; sys.argv[0] = 'finetti'\n"
        "try:\n    runpy.run_module('finetti', run_name='__main__')\n"
        "except SystemExit as exc:\n    rc = exc.code\n"
        "print(rc, 'json' in sys.modules, file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code, *command.split()],
        capture_output=True,
        text=True,
        env=_env_with_finetti(),
        cwd=ROOT,
    )
    assert proc.stderr.strip().splitlines()[-1] == f"0 {'--law' in command}", proc.stderr


FRONT_STARTS = {
    "import": "import finetti.cli",
    "--help": (
        "import runpy; sys.argv[1:] = ['--help']\n"
        "try:\n    runpy.run_module('finetti', run_name='__main__')\n"
        "except SystemExit:\n    pass"
    ),
}


@pytest.mark.parametrize("start", FRONT_STARTS)
def test_cli_front_loads_no_json_and_no_fractions(start):
    # the front imports argparse and sys only; json and Fraction (which
    # brings decimal) are imported by the helpers and handlers that use them
    code = (
        f"import sys\n{FRONT_STARTS[start]}\n"
        "print(sorted({'json', 'fractions', 'decimal'} & set(sys.modules)), file=sys.stderr)"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_env_with_finetti()
    )
    assert proc.stderr.strip().splitlines()[-1] == "[]", proc.stderr


def test_import_finetti_loads_no_submodule():
    code = "import sys, finetti; print(sorted(m for m in sys.modules if m.startswith('finetti.')))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code], capture_output=True, text=True, env=_env_with_finetti()
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_desk_report_stdout_is_deterministic():
    # the run time goes to stderr, so two runs print the same bytes
    args = [sys.executable, str(ROOT / "scripts" / "desk_report.py"), "--n", "40", "--seeds", "2"]
    first, second = (
        subprocess.run(args, capture_output=True, env=_env_with_finetti()) for _ in range(2)
    )
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    assert b"report complete" not in first.stdout
    assert b"report complete" in first.stderr


def test_epsilon_sweep_prints_its_grid_deterministically():
    script = ROOT / "scripts" / "epsilon_sweep.py"
    args = [sys.executable, str(script), "--n", "100,200", "--k", "1,2"]
    first, second = (
        subprocess.run(args, capture_output=True, env=_env_with_finetti()) for _ in range(2)
    )
    assert first.returncode == second.returncode == 0, first.stderr
    assert first.stdout == second.stdout
    header, rule, *rows = first.stdout.decode().splitlines()
    assert header.split() == ["n", "k", "alpha", "delta", "epsilon", "binary", "ref", "valid"]
    assert set(rule) == {"-"}
    cells = [row.split()[:2] for row in rows]
    assert cells == [["100", "1"], ["100", "2"], ["200", "1"], ["200", "2"]]


# ---------------------------------------------------------------------------
# types rows against the Fraction form of the bounds
# ---------------------------------------------------------------------------


def fraction_types_payload(m: int, n: int, q: Pmf) -> dict:
    """The types JSON payload built with a Fraction per operation."""

    def pair(value):
        return {"rational": f"{value.numerator}/{value.denominator}", "decimal": float(value)}

    rows, total, size_sum, violations = [], Fraction(0), 0, 0
    for t in type_list(m, n):
        size = type_class_size(t)
        prob = type_class_probability(t, q)
        growth = exp_n_entropy(t)
        size_ok = growth / (n + 1) ** m <= size <= growth
        scale = exp_neg_n_divergence(t, q)
        prob_ok = scale / (n + 1) ** m <= prob <= scale
        size_sum += size
        total += prob
        violations += not (size_ok and prob_ok)
        rows.append(
            {
                "counts": list(t.counts),
                "size": size,
                "probability": pair(prob),
                "size_bounds_ok": size_ok,
                "probability_bounds_ok": prob_ok,
            }
        )
    count = count_types(m, n)
    checks = {
        "count": count,
        "count_matches_formula": count == len(rows),
        "count_within_polynomial": count <= (n + 1) ** m,
        "sizes_sum_to_strings": size_sum == m**n,
        "probabilities_sum_to_one": total == 1,
        "bound_violations": violations,
    }
    ok = violations == 0 and all(v for v in checks.values() if isinstance(v, bool))
    q_pairs = [pair(p) for p in q.probs]
    return {"m": m, "n": n, "q": q_pairs, "checks": checks, "types": rows, "pass": ok}


@pytest.mark.parametrize(
    "m, n, q",
    [
        (1, 5, None),
        (2, 9, "1/3,2/3"),
        (2, 10, "1,0"),
        (3, 12, "0,1/4,3/4"),
        (3, 20, "1/2,1/3,1/6"),
        (4, 7, None),
        (4, 6, "1/10,0,3/10,3/5"),
    ],
)
def test_types_rows_match_the_fraction_form(capsys, m, n, q):
    args = ["types", "--m", str(m), "--n", str(n), "--format", "json"]
    pmf = Pmf.uniform(m) if q is None else Pmf(tuple(Fraction(p) for p in q.split(",")))
    code, out, _ = run(args + (["--q", q] if q else []), capsys)
    want = fraction_types_payload(m, n, pmf)
    # the rows are written one by one; the stdlib encoder is the oracle of their bytes
    assert out == json.dumps(want, sort_keys=True) + "\n"
    assert code == (EXIT_OK if want["pass"] else EXIT_VIOLATION)
    if q and "0" in q.split(","):
        # classes that q misses have probability 0, and both bound flags hold
        missed = [r for r in want["types"] if r["probability"]["rational"] == "0/1"]
        assert missed and all(r["probability_bounds_ok"] for r in missed)
    assert all(r["size_bounds_ok"] for r in want["types"])


def test_types_text_builds_no_rows(monkeypatch, capsys):
    # only JSON prints the per-histogram rows, so a text run formats none of
    # them; a JSON run formats each row once, and a pair per entry of q
    import finetti.cli_types as cli_types

    calls = {"_rational_pair": 0, "_row_json": 0}
    for name in calls:
        real = getattr(cli_types, name)

        def spy(*args, name=name, real=real):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(cli_types, name, spy)
    code, out, _ = run(["types", "--m", "3", "--n", "20", "--q", "0,1/3,2/3"], capsys)
    assert code == EXIT_OK and out.startswith("types m=3 n=20: 231 histograms\n")
    assert calls == {"_rational_pair": 0, "_row_json": 0}
    code, out, _ = run(["types", "--m", "3", "--n", "20", "--q", "0,1/3,2/3", "--format", "json"], capsys)
    assert code == EXIT_OK and len(json.loads(out)["types"]) == 231
    assert calls == {"_rational_pair": 3, "_row_json": 231}


def test_types_json_holds_no_document(tmp_path):
    # a JSON run writes its rows as it formats them: its traced peak exceeds
    # a text run's by less than the document it writes
    import tracemalloc

    args = ["types", "--m", "3", "--n", "120", "--q", "1/2,1/3,1/6", "--out"]
    for fmt in ("text", "json"):  # fill the type caches before tracing
        main([*args, str(tmp_path / f"warm-{fmt}"), "--format", fmt])
    peaks = {}
    for fmt in ("text", "json"):
        tracemalloc.start()
        try:
            assert main([*args, str(tmp_path / fmt), "--format", fmt]) == EXIT_OK
            peaks[fmt] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    document = (tmp_path / "json").stat().st_size
    assert document > 2_000_000
    assert peaks["json"] - peaks["text"] < document


@contextmanager
def int_digits_unlimited():
    """Lift str(int)'s digit limit for the body, and put it back after."""
    digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    set_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)
    set_digits(0)
    try:
        yield
    finally:
        set_digits(digits)


BIG_DOCUMENT = ["types", "--m", "2", "--n", "720", "--q", "1/1000000,999999/1000000", "--format", "json"]


def test_types_json_prints_integers_past_the_str_digit_limit():
    # D^n = 10^4320 has more digits than str(int) allows by default: the run
    # lifts the limit before its first row, so a fresh process prints them all
    proc = subprocess.run(
        [sys.executable, "-m", "finetti", *BIG_DOCUMENT], capture_output=True, text=True, env=_env_with_finetti()
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    payload = json.loads(proc.stdout)
    assert payload["pass"] is True and len(payload["types"]) == 721
    with int_digits_unlimited():
        assert payload["types"][0]["probability"]["rational"] == f"{999999**720}/{10**4320}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no str(int) digit limit")
def test_types_json_restores_the_str_digit_limit(capsys):
    # the limit is lifted for the write alone: after an in-process run it reads
    # as before, and a document with a 4,320-digit integer is still printed whole
    before = sys.get_int_max_str_digits()
    assert before != 0
    assert main(["types", "--m", "2", "--n", "3", "--format", "json"]) == EXIT_OK
    assert sys.get_int_max_str_digits() == before
    capsys.readouterr()
    code, out, err = run(BIG_DOCUMENT, capsys)
    assert sys.get_int_max_str_digits() == before
    assert (code, err) == (EXIT_OK, "") and out.endswith("]}\n")
    with int_digits_unlimited():
        assert f'"rational": "{999999**720}/{10**4320}"' in out
        assert len(json.loads(out)["types"]) == 721


# ---------------------------------------------------------------------------
# JSON lines written without the json module, with json as their oracle
# ---------------------------------------------------------------------------

PLAIN_TEXT = st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, blacklist_characters='"\\'))
JSON_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([-1, 1]).map(lambda sign: sign * 7**6000),  # 5,072 digits, past the default limit
    st.floats(),
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, -2.5e-320, 2.2250738585072014e-308]),
    PLAIN_TEXT,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(PLAIN_TEXT, inner, max_size=4),
    ),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(JSON_VALUES)
def test_json_line_writes_the_bytes_of_json_dumps(value):
    with int_digits_unlimited():
        assert _json_line(value) == json.dumps(value, sort_keys=True)


@pytest.mark.parametrize("text", ['say "hi"', "a\\b", "tab\there", "\x00", "\x7f", "caf\u00e9", "\u2028"])
def test_json_line_refuses_a_string_that_needs_an_escape(text):
    with pytest.raises(ValueError, match="without escapes"):
        _json_line({"key": [text]})
    with pytest.raises(ValueError, match="without escapes"):
        _json_line({text: 1})


# ---------------------------------------------------------------------------
# golden stdout: sha256 and exit code of invocations whose output is pinned
# ---------------------------------------------------------------------------

GOLDEN = [
    ("lemma pythagoras --q 50,50 --k 2", "4481cd203ab1858bbe230c6984f74278fd4c480c06399b6f8c0122ff02b5b9c6"),
    ("lemma pythagoras --q 4,4,4 --k 2", "5d40788b8e3d35694615fbad1e85f922d5a30bef713f63eaefd45141d6c0fab3"),
    (
        "lemma lemma3 --m 3 --q 4,4,4 --k 3 --mode exact",
        "1fede31e6c7c9a1edb835d7e768d0884cc88d3387d6c7a29d7f85de52ce75e26",
    ),
    (
        "lemma lemma3 --m 4 --q 1,2,3,4 --k 3 --mode exact",
        "8d43425c21262890941b1ce71bb1aad5837a137b40fb60b1d4213dc445d3f594",
    ),
    (
        "types --m 3 --n 60 --q 1/2,1/3,1/6 --format json",
        "6174544febc5252411df975109b8e17fd72f21aab97d92886c7d1f4a12577acb",
    ),
    ("lemma pythagoras --q 7,5 --k 3", "e76f9cfaf9cd17bc001df0c6f338574cf302880a8a962cefd4aeaa8c996b4d70"),
    ("lemma pythagoras --q 0,6,6 --k 2", "d31167c7afe1806068bfa2867372a30d6d57339ad4dbed4eaa3ca757037a5720"),
    (
        "types --m 3 --n 20 --q 0,1/3,2/3 --format json",
        "8afe43e884eee037514b5088e71e09e4af70e0d24fb693bc01112c950cb0f325",
    ),
    ("types --m 4 --n 12", "b4184004e6303c8409e44bd24e03f711d99df60145a236f1247e345cabc56a11"),
    ("types --m 3 --n 20 --q 0,1/3,2/3", "f5d2e1e688af690c397de40aa1f37e281365e89c1f7eaed1965ae1ceeaf3caa9"),
    (
        "verify --law laws/mix.json --n 200,403 --k 2,3",
        "143d107c71ffb452bf7637a1065f0bf7f334b7c5b146007decae58f5db00954e",
    ),
    (
        "verify --family polya --init 1,1,1 --n 24 --k 3,4",
        "3857fa0520fdaa8b5afb1dd44fd632085d8d08f3a07e8c6983b1cdc1b8af9063",
    ),
    (
        "gibbs --target 1/2,1/3,1/6 --k 3 --n 6,60,600,6000",
        "eb41feda28a8e4c218cdda175cf9d1434efdfabac45224c3844580ea23edaf03",
    ),
    # every caller of the urn kernel
    (
        "verify --family biased --p 1/3 --n 30,31 --k 2,3",
        "1fcc91d263e43896adf43ca816451f1b5caf977842f67ec8820589f7615acb3c",
    ),
    (
        "verify --family delta-type --counts 3,2,1 --k 2,3",
        "4aed65af426428ce08fe4d521c83038ce0ceaf26e45c50cc6e16b894be528ff3",
    ),
    (
        "verify --family polya --init 2,1 --n 40,41 --k 1,2,3",
        "07e00c70a746200af0b7a18288aedc6e274a0138cb61ada814ad78ce87979d54",
    ),
    (
        "verify --family random-type-weights --seed 5 --m 2 --n 400,401 --k 2,3",
        "c5dbf80427ae9f66afbad3a78b77ed2cb4b640b2019173dd289d3ec26d44b127",
    ),
    (
        "gibbs --target 1/5,4/5 --k 4 --n 8,80,800",
        "e22ccf72c00faf8d296f69b679c95bc0a5ae2ab250407bcc0e2f8aaea1ad7835",
    ),
    (
        "types --m 2 --n 30 --q 1/3,2/3 --format json",
        "5420d8fc6dd585f878707362c011029314a345bdb3f742206e576beecc9e412e",
    ),
    ("lemma dbound --q 8,8,8 --k 2", "92c5a35e7c8ee4b2c22a16398fed368524f387f15532d70223dd6e647ccdafa7"),
    # lattices whose cells fall into many classes of one block histogram
    ("lemma dbound --q 6,6,6 --k 3", "ef3c5d905426f62ac283b037fb13ea5b76c5a9a95825f883a371393b54f0463c"),
    ("lemma pythagoras --q 6,6,6 --k 3", "6513da65745cf7e1a661502bcf686b2d4c3d3d91967b3b7bad515edaa4f3f144"),
    ("lemma dbound --q 3,3,3,3 --k 2", "550f29da015d62cb634c4c512aefa8abe29066e456c78899148a3c2da177d59f"),
    (
        "lemma lemma1 --q 400,400 --k 2 --l 400 --seed 3",
        "0f0bb6afbb4fe1f48ba6525f35df449e594ca339e28be8920e1c02ae6977d403",
    ),
    # grid mode: the extreme member of the orbit rows, with its tie rule
    (
        "lemma lemma3 --m 2 --q 6,6 --k 2 --mode grid --l 6",
        "f9cf69f17a59671e7345e7af392cc57f412d7cf015de8c42287f9eb7f23ce5d5",
    ),
    (
        "lemma lemma3 --m 3 --q 6,6,6 --k 3 --mode grid --l 6",
        "9fb345f6e2760f30571598ac709b7376646d2d8a4ac61fbfa6ea3d65960b0b92",
    ),
    ("lemma dbound --q 120,120 --k 2", "f62f8b147aea4dd712118a91c9361390cf01538cf0b6c83517840506250101d3"),
    # zero numerators: block histograms of probability 0 on one side or both
    (
        "verify --family delta-type --counts 5,0,3 --k 1,2,3,4",
        "b811c8c1fb71187e06e69926e1d915376618c92d03a95148ae4dfe52bbc01cc6",
    ),
    (
        "gibbs --target 0,1/3,2/3 --k 3 --n 6,60,600",
        "407b1956d3f85fe8a28c6ed1016342369dfacf4a72e6aedc3be04c944119303e",
    ),
    (
        "lemma lemma3 --q 0,6,6 --k 2 --mode grid --l 6",
        "f6cb22572410270319b47bdf721413b7a6e742fa2d6be7af0da2bb5f38953c37",
    ),
    ("lemma lemma3 --q 0,4 --k 2", "2973afc521f50450a84a64797dd3063103fb137b9d6dc6adad9355c2941cafd9"),
    ("lemma dbound --q 0,6,6 --k 2", "01b1f89adfd4478de12c1d610daa1f7afbebee486efb33da8252f43bc4bab5d7"),
    # k grids out of order, with repeats, k = n and k not dividing n
    (
        "verify --family polya --init 2,1,1 --n 12 --k 4,1,3,3",
        "50e0c18a9b440d99319507e9edfb6a5a537e1853f5e16141b2d5352ef4c711ac",
    ),
    (
        "verify --family biased --p 1/3 --n 10,11 --k 3,2,1 --format csv",
        "b5d163e908a672d1c1fda14d3d1e4c276576f115597d5c171d2bd0f6f4cb5ec2",
    ),
    (
        "verify --family delta-type --counts 5,0,3 --k 4,1,3",
        "985cc0f9642ea2aba290804105a2aeaca60d6647290401ba8f64ad901aeca549",
    ),
    (
        "verify --family random-type-weights --seed 3 --m 3 --n 30,31 --k 1,2,3,4",
        "2bf6081e60acb03c4c5f8a3ae202748ea05e28b98cc8e8e59fbb4024d845edfa",
    ),
    ("verify --family polya --init 1,1 --n 6 --k 6,2", "fc62a2e67d21133db43f851a1b288e0ba19d4eee9febc6a48e2214d9f8bef5e3"),
    (
        "verify --family polya --init 1,1,1 --n 24,25 --k 2,3",
        "af7395a4778c80e8b3046acf4ef4d034c17703f4e8a9c8499c4d6cf07e2f1dbc",
    ),
    # 4,096 cells of A^12
    (
        "verify --family fair-coin --n 1000 --k 12",
        "ec0f39f648a6c0cf47d7b97286a233bb84581a6f2c2c3904927f568216c9db2b",
    ),
    # rational spellings: Fraction(str) reads decimals, exponents and underscores
    (
        "types --m 2 --n 3 --q 0.25,0.75 --format json",
        "32f2c36e3de5cd79d191dd51b9805862564930ddedffa81823e53820ed932d84",
    ),
    (
        "types --m 2 --n 3 --q 1_0/2_0,1/2 --format json",
        "0c4122c281eee1c6342c4faff1bae9a45e9d29d3a8bad024f81d828863888d29",
    ),
    (
        "gibbs --target 5e-1,0.5 --k 2 --n 4,8 --threshold 0.1",
        "ed11c1cb9a575575d6b40727ad4595cd43d7e7ebcddd471366f9397a0a2ca7b3",
    ),
    (
        "verify --family biased --p 0.3 --n 20 --k 2",
        "72aa9965d00bf3962b6f1afd33977569f852e515a66a1f9da49eb59db6626a41",
    ),
    # laws/mix.json with its entries written as decimals: the same law, the same bytes
    (
        "verify --law laws/mix_decimal.json --n 40,41 --k 2,3",
        "72ce89ba7051287376628db4a425f7d011ef32e8964a5c4669ba5b518b56ba7c",
    ),
    (
        "verify --law laws/mix.json --n 40,41 --k 2,3",
        "72ce89ba7051287376628db4a425f7d011ef32e8964a5c4669ba5b518b56ba7c",
    ),
    # the README's typeWeights example: a law file that fixes m and n itself
    (
        "verify --law laws/binomial.json --k 1,2,3,4",
        "395a317736fc3511ce594d6bccbc49859a76d97628e4eb9a6e83f1024d7d42c8",
    ),
    # help texts, wrapped at COLUMNS=80
    ("--help", "ab53581ded61e231d7aa9183bb21d03c1d9e99afa62824f81f50164d3d01c6a2"),
    ("types --help", "dcb49ba6e861fcf7edddd5e6053ab0141be91299e3a84e4a1beebb84648ec08d"),
    ("verify --help", "539834fff3eb0632b34d340c871f05a39b52a15bc4acf4bda129933aff865730"),
    ("lemma --help", "a61d0e6847bd84085488e55cc47144379889c6e06c2720c2b91f1695b64c3534"),
    ("gibbs --help", "06aaa3f49662539ec3ebc1aea8307472907952f470e5d5bdc9be1311f294d9df"),
]


# The 427 KB listing keeps only its digest: its 1,891 rows come from the row
# writer that the smaller types JSON pins above already show in full, so a
# file of it would add a diff nobody reads.
DIGEST_ONLY = {"types --m 3 --n 60 --q 1/2,1/3,1/6 --format json"}
GOLDEN_DIR = ROOT / "tests" / "golden"


def golden_path(command: str) -> Path:
    """tests/golden/<name>.out: the command's words without leading dashes, '/' as '-'."""
    name = "_".join(word.lstrip("-").replace("/", "-") for word in command.split())
    return GOLDEN_DIR / f"{name}.out"


def test_golden_files_match_the_pins():
    # one file per pinned command, and no file that no command names
    named = {golden_path(c) for c, _ in GOLDEN if c not in DIGEST_ONLY}
    assert len(named) == len(GOLDEN) - len(DIGEST_ONLY)
    assert set(GOLDEN_DIR.glob("*.out")) == named


@pytest.mark.parametrize("command, digest", GOLDEN, ids=[c for c, _ in GOLDEN])
def test_golden_stdout(monkeypatch, capsys, command, digest):
    # every row, including the per-row bound flags, is pinned byte for byte;
    # argparse wraps help at the terminal width, so the width is fixed
    monkeypatch.setenv("COLUMNS", "80")
    args = [str(ROOT / a) if a.startswith("laws/") else a for a in command.split()]
    code, out, _ = run(args, capsys)
    assert code == EXIT_OK
    if command not in DIGEST_ONLY:
        path = golden_path(command)
        want = path.read_text()
        diff = difflib.unified_diff(
            want.splitlines(keepends=True), out.splitlines(keepends=True), str(path), "stdout", n=1
        )
        assert out == want, "".join(list(diff)[:40])
    assert hashlib.sha256(out.encode()).hexdigest() == digest


LEMMA_USAGE = """\
usage: finetti lemma [-h] [--m M] --k K [--l L] [--q Q] [--seed SEED]
                     [--max-tries MAX_TRIES] [--mode {exact,grid}]
                     [--delta DELTA] [--out OUT]
                     {lemma1,lemma3,dbound,pythagoras}
"""
USAGE_ERRORS = [
    (
        "",
        "usage: finetti [-h] {types,verify,lemma,gibbs} ...\n"
        "finetti: error: the following arguments are required: command\n",
    ),
    (
        "nope",
        "usage: finetti [-h] {types,verify,lemma,gibbs} ...\n"
        "finetti: error: argument command: invalid choice: 'nope' "
        "(choose from 'types', 'verify', 'lemma', 'gibbs')\n",
    ),
    (
        "lemma nope --k 2",
        LEMMA_USAGE + "finetti lemma: error: argument name: invalid choice: 'nope' "
        "(choose from 'lemma1', 'lemma3', 'dbound', 'pythagoras')\n",
    ),
    (
        "types --m 2",
        "usage: finetti types [-h] --m M --n N [--q Q] [--format {text,json}]\n"
        "                     [--out OUT]\n"
        "finetti types: error: the following arguments are required: --n\n",
    ),
]


@pytest.mark.parametrize("command, stderr", USAGE_ERRORS, ids=[c or "(none)" for c, _ in USAGE_ERRORS])
def test_usage_errors_are_pinned(monkeypatch, capsys, command, stderr):
    monkeypatch.setenv("COLUMNS", "80")
    assert run(command.split(), capsys) == (EXIT_INPUT, "", stderr)


# errors of a verify k grid: the first k in grid order that fails names the message
VERIFY_GRID_ERRORS = [
    ("verify --family polya --init 1,1 --n 5 --k 2,9", None, EXIT_INPUT, "error: k must lie in 1..5, got 9\n"),
    (
        "verify --family fair-coin --n 8 --k 4,8",
        "10",
        EXIT_CAPACITY,
        "capacity: 16 cells at (m=2, k=4) exceeds cap 10\n",
    ),
    (
        "verify --family fair-coin --n 8 --k 8,4",
        "10",
        EXIT_CAPACITY,
        "capacity: 256 cells at (m=2, k=8) exceeds cap 10\n",
    ),
    # one letter: the constants refuse m = 1 unless an earlier k is out of range
    ("verify --family delta-type --counts 5 --k 2,9", None, EXIT_INPUT, "error: alphabet size must be >= 2, got 1\n"),
    ("verify --family delta-type --counts 5 --k 9,2", None, EXIT_INPUT, "error: k must lie in 1..5, got 9\n"),
]


@pytest.mark.parametrize("command, cap, code, stderr", VERIFY_GRID_ERRORS, ids=[c[0] for c in VERIFY_GRID_ERRORS])
def test_verify_grid_errors_are_pinned(monkeypatch, capsys, command, cap, code, stderr):
    if cap is not None:
        monkeypatch.setenv("FINETTI_CAP", cap)
    assert run(command.split(), capsys) == (code, "", stderr)


# rational text: every token is read by counts.parse_rational, in integers;
# an exponent past 4,300 is refused before 10**e is built
EXPONENT_ERROR = "error: the exponent of '{}' exceeds 4300 in absolute value\n"
RATIONAL_ERRORS = [
    ("types --m 2 --n 3 --q 1e1000000,1", EXPONENT_ERROR.format("1e1000000")),
    ("gibbs --target 1e1000000,1 --k 2 --n 4", EXPONENT_ERROR.format("1e1000000")),
    ("verify --family biased --p 1e1000000 --n 4 --k 2", EXPONENT_ERROR.format("1e1000000")),
    ("verify --family biased --p 1e-1000000 --n 4 --k 2", EXPONENT_ERROR.format("1e-1000000")),
    ("verify --law {weight} --k 2", EXPONENT_ERROR.format("1e16000000")),
    ("verify --law {atom} --n 4 --k 2", EXPONENT_ERROR.format("1e-16000000")),
    ("types --m 2 --n 3 --q 1/2,x", "error: cannot read 'x' as a rational\n"),
    ("gibbs --target 1/2,1/0 --k 2 --n 4", "error: cannot read '1/0' as a rational\n"),
    ("verify --family biased --p 1_/2 --n 4 --k 2", "error: cannot read '1_/2' as a rational\n"),
    ("verify --law {bad} --n 4 --k 2", "error: cannot read '1 / 2' as a rational\n"),
]
RATIONAL_ERROR_FILES = {
    "weight": {"m": 2, "n": 1, "typeWeights": [{"counts": [1, 0], "w": "1e16000000"}]},
    "atom": {"mixing": [{"pmf": ["1e-16000000", "1"], "w": "1"}]},
    "bad": {"mixing": [{"pmf": ["1/2", "1/2"], "w": "1 / 2"}, {"pmf": ["1/3", "1/3"], "w": "1/2"}]},
}


@pytest.mark.parametrize("command, stderr", RATIONAL_ERRORS, ids=[c for c, _ in RATIONAL_ERRORS])
def test_rational_text_errors_are_pinned(tmp_path, capsys, command, stderr):
    files = {}
    for name, law in RATIONAL_ERROR_FILES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(law))
    start = time.perf_counter()
    assert run(command.format(**files).split(), capsys) == (EXIT_INPUT, "", stderr)
    assert time.perf_counter() - start < 0.1


# n-type errors of --q: their text comes from TypeVector
Q_ERRORS = [
    ("lemma dbound --q=-1,5 --k 2", "error: negative count in (-1, 5)\n"),
    ("lemma pythagoras --q 0,0 --k 2", "error: a type must describe a nonempty string\n"),
]


@pytest.mark.parametrize("command, stderr", Q_ERRORS, ids=[c for c, _ in Q_ERRORS])
def test_q_errors_are_pinned(capsys, command, stderr):
    assert run(command.split(), capsys) == (EXIT_INPUT, "", stderr)


# pmf errors: each pmf is checked where it enters, with these messages
PMF_ERRORS = [
    ("types --m 2 --n 4 --q 1/2,1/3", "error: pmf sums to 5/6, not 1\n"),
    ("types --m 2 --n 4 --q=-1/2,3/2", "error: negative probability\n"),
    ("gibbs --target 0.5,0.6 --k 2 --n 4", "error: pmf sums to 11/10, not 1\n"),
    ("gibbs --target 3/2,-1/2 --k 2 --n 4", "error: negative probability\n"),
    ("verify --family biased --p 3/2 --n 4 --k 2", "error: --p must lie in [0, 1], got 3/2\n"),
    (
        "verify --law {mixing} --n 4 --k 2",
        "error: pmf sums to 5/6, not 1\n",
    ),
    (
        "verify --law {negative} --n 4 --k 2",
        "error: negative probability\n",
    ),
    # a law file's first error is reported: each atom is checked before the next token is read
    (
        "verify --law {first_error} --k 2",
        "error: pmf sums to 5/6, not 1\n",
    ),
]
PMF_ERROR_FILES = {
    "mixing": {"mixing": [{"pmf": ["1/2", "1/3"], "w": "1"}]},
    "negative": {"mixing": [{"pmf": ["0.5", "0.5"], "w": "1/2"}, {"pmf": ["-1", "2"], "w": "1/2"}]},
    "first_error": {"mixing": [{"pmf": ["1/2", "1/3"], "w": "1/2"}, {"pmf": ["1/2", "1/2"], "w": 0.5}], "n": 4},
}


@pytest.mark.parametrize("command, stderr", PMF_ERRORS, ids=[c for c, _ in PMF_ERRORS])
def test_pmf_errors_are_pinned(tmp_path, capsys, command, stderr):
    files = {}
    for name, law in PMF_ERROR_FILES.items():
        files[name] = tmp_path / f"{name}.json"
        files[name].write_text(json.dumps(law))
    assert run(command.format(**files).split(), capsys) == (EXIT_INPUT, "", stderr)
